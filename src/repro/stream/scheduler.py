"""Event-driven online scheduler multiplexing a stream of DAG jobs.

One shared platform, many concurrent jobs: every job brings its static
HEFT plan (per-processor task orders), and this executor interleaves
all in-flight plans over the *same* ``m`` processors with exactly the
execution semantics of :mod:`repro.sim.eventsim` — per-processor
schedule order within each job, a task starts once its processor is
free and all predecessors have finished and their data has arrived,
communications contention-free and overlapped.

The event loop differs from ``eventsim`` in one way only: ``eventsim``
books a task onto its processor the moment its predecessors finish,
even when the start lies in the future, because with a single job the
head of each processor's queue is fixed.  Online, the next task a
processor runs depends on which jobs exist *at that moment*, so
commitments happen when a processor is actually free: candidate heads
whose data arrives later schedule a *wake* event instead.  Both
routes evaluate the identical float expression
``t0 = max(proc_free[p], ready_time[v])`` over identical operands
(``ready_time`` is final once the last predecessor has finished, and
all its updates are max-accumulations), so for a single job arriving
at time zero the two produce bit-identical start/finish times — the
property test in ``tests/property/test_stream_identity.py`` pins this.

Shedding hooks (see :mod:`repro.stream.policies`) sit at the two
decision points: *admission* when a job arrives, *dispatch* when a
task is about to start.  The probability handed to the policy is the
job's on-time completion estimate under the stochastic duration model:
a backward moment pass over the job's disjunctive graph gives every
task the mean and variance of its downstream critical path (variance
accumulated along the argmax-mean path, uniform-duration variance
``(high - low)^2 / 12`` from the task's BCET/UL bounds), and

``P = Phi((deadline - t0 - bl_mean[v]) / sqrt(bl_var[v]))``

is the normal approximation of finishing the chain through ``v`` by
the deadline when ``v`` starts at ``t0``.  As queues build under
oversubscription, ``t0`` drifts past what deadlines allow and ``P``
collapses — which is exactly when shedding frees capacity for jobs
that can still make it.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.obs import runtime as obs
from repro.stream.policies import DEFER, DROP, NoShedding, SheddingPolicy
from repro.stream.workload import StreamJob, StreamWorkload
from repro.utils.stats import normal_cdf

__all__ = ["JOB_STATUSES", "JobOutcome", "StreamResult", "run_stream"]

#: Terminal states a job can reach.
JOB_STATUSES = ("on-time", "late", "dropped", "rejected")

# Event kinds; finishes sort before arrivals and wakes at equal times so
# freed processors are visible to same-instant decisions.
_FINISH, _ARRIVAL, _WAKE = 0, 1, 2


class _JobRun:
    """Mutable execution state of one admitted job."""

    __slots__ = (
        "job",
        "remaining_preds",
        "ready_time",
        "start",
        "finish",
        "started",
        "next_slot",
        "n_done",
        "alive",
        "mean_dur",
        "bl_mean",
        "bl_var",
        "root_mean",
        "root_var",
    )

    def __init__(self, job: StreamJob) -> None:
        schedule = job.schedule
        problem = job.problem
        n = problem.n
        self.job = job
        self.remaining_preds = problem.graph.in_degree().astype(np.int64).copy()
        # No task may start before the job exists.
        self.ready_time = np.full(n, job.arrival, dtype=np.float64)
        self.start = np.full(n, np.nan, dtype=np.float64)
        self.finish = np.full(n, np.nan, dtype=np.float64)
        self.started = np.zeros(n, dtype=bool)
        self.next_slot = [0] * problem.m
        self.n_done = 0
        self.alive = True

        # Downstream critical-path moments over the disjunctive graph
        # (chain edges included: the job's own serialization is part of
        # its remaining work).  Variance follows the argmax-mean path.
        self.mean_dur = schedule.expected_durations()
        low, high = problem.uncertainty.duration_bounds(schedule.proc_of)
        var = (high - low) ** 2 / 12.0
        dag = schedule.disjunctive
        comm = schedule.comm_weights
        bl_mean = np.zeros(n, dtype=np.float64)
        bl_var = np.zeros(n, dtype=np.float64)
        for v in reversed(dag.topo):
            v = int(v)
            best = 0.0
            best_var = 0.0
            for e in dag.succ_edges(v):
                w = int(dag.edge_dst[e])
                cand = float(comm[e]) + bl_mean[w]
                if cand > best:
                    best = cand
                    best_var = bl_var[w]
            bl_mean[v] = float(self.mean_dur[v]) + best
            bl_var[v] = float(var[v]) + best_var
        self.bl_mean = bl_mean
        self.bl_var = bl_var
        if n:
            entries = dag.entries
            root = int(entries[int(np.argmax(bl_mean[entries]))])
            self.root_mean = float(bl_mean[root])
            self.root_var = float(bl_var[root])
        else:  # pragma: no cover - generators never emit empty DAGs
            self.root_mean = 0.0
            self.root_var = 0.0

    def p_complete(self, v: int, t0: float) -> float:
        """P(job's chain through *v* meets its deadline | *v* starts at t0)."""
        slack = self.job.deadline - t0 - self.bl_mean[v]
        sd = math.sqrt(self.bl_var[v])
        if sd == 0.0:
            return 1.0 if slack >= 0.0 else 0.0
        return normal_cdf(slack / sd)

    def p_admit(self, queue_delay: float) -> float:
        """On-time probability at arrival, charged the current backlog."""
        slack = (
            self.job.deadline - self.job.arrival - queue_delay - self.root_mean
        )
        sd = math.sqrt(self.root_var)
        if sd == 0.0:
            return 1.0 if slack >= 0.0 else 0.0
        return normal_cdf(slack / sd)


@dataclass(frozen=True)
class JobOutcome:
    """Terminal record of one job of the stream."""

    index: int
    status: str
    arrival: float
    deadline: float
    finish: float
    work: float
    klass: str
    n_done: int

    @property
    def on_time(self) -> bool:
        """Did the job complete by its deadline?"""
        return self.status == "on-time"

    @property
    def response(self) -> float:
        """Completion latency (NaN for shed jobs)."""
        return self.finish - self.arrival


@dataclass(frozen=True)
class StreamResult:
    """Aggregate outcome of one streamed execution.

    Metric definitions (see ``docs/stream.md``):

    * ``on_time_rate`` — completed-by-deadline jobs over *all* jobs
      (late, dropped and rejected jobs all count against it);
    * ``miss_rate`` — ``1 - on_time_rate``;
    * ``goodput`` — expected work of on-time jobs retired per time unit
      over the horizon (work that missed its deadline earns nothing);
    * ``utilization`` — busy processor-time over ``m * horizon``,
      including work spent on jobs that were later shed (it occupied
      the platform either way);
    * ``horizon`` — time of the last event (last completion, drop or
      arrival).
    """

    policy: str
    load: float
    n_jobs: int
    m: int
    horizon: float
    outcomes: tuple[JobOutcome, ...]
    n_on_time: int
    n_late: int
    n_dropped: int
    n_rejected: int
    n_deferrals: int
    busy_time: float

    @property
    def on_time_rate(self) -> float:
        """Fraction of all jobs completed by their deadline."""
        return self.n_on_time / self.n_jobs if self.n_jobs else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of all jobs that missed (late, dropped or rejected)."""
        return 1.0 - self.on_time_rate

    @property
    def goodput(self) -> float:
        """On-time expected work retired per time unit."""
        if self.horizon <= 0.0:
            return 0.0
        won = sum(o.work for o in self.outcomes if o.on_time)
        return won / self.horizon

    @property
    def utilization(self) -> float:
        """Busy processor-time fraction over the horizon."""
        if self.horizon <= 0.0:
            return 0.0
        return self.busy_time / (self.m * self.horizon)

    @property
    def mean_response(self) -> float:
        """Mean completion latency of jobs that ran to completion."""
        done = [o.response for o in self.outcomes if o.status in ("on-time", "late")]
        return float(np.mean(done)) if done else float("nan")

    @property
    def drop_set(self) -> tuple[int, ...]:
        """Sorted indices of shed jobs (dropped + rejected) — the
        determinism tests compare this across worker counts."""
        return tuple(
            sorted(
                o.index
                for o in self.outcomes
                if o.status in ("dropped", "rejected")
            )
        )

    @property
    def makespan(self) -> float:
        """Finish time of the last completed task (NaN if nothing ran)."""
        done = [o.finish for o in self.outcomes if not math.isnan(o.finish)]
        return max(done) if done else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamResult(policy={self.policy!r}, load={self.load:g}, "
            f"on_time={self.n_on_time}/{self.n_jobs}, "
            f"goodput={self.goodput:.3f})"
        )


def run_stream(
    workload: StreamWorkload,
    policy: SheddingPolicy | None = None,
    *,
    latency_out: list[float] | None = None,
) -> StreamResult:
    """Execute *workload* online under *policy* (default: no shedding).

    Parameters
    ----------
    workload:
        A fully-determined stream from
        :func:`repro.stream.workload.build_workload`.
    policy:
        Shedding policy consulted at admission and dispatch; ``None``
        means :class:`~repro.stream.policies.NoShedding`.
    latency_out:
        Optional list; when given, the wall-clock seconds of every
        dispatch decision (candidate scan + policy verdict + commit)
        are appended — the benchmark's scheduling-latency sample.

    Returns
    -------
    StreamResult
        Terminal job outcomes plus stream-level metrics.
    """
    policy = policy or NoShedding()
    m = workload.m
    jobs = workload.jobs

    runs: dict[int, _JobRun] = {}
    statuses: dict[int, str] = {}
    proc_free = [0.0] * m
    busy_time = 0.0
    pending_work = 0.0  # expected work admitted but not yet finished
    horizon = 0.0
    n_deferrals = 0
    prune_counter = (
        "stream.prunes" if policy.name == "prune" else "stream.drops"
    )

    # Event heap: (time, kind, a, b).  Finishes carry (job, task),
    # arrivals (job, 0), wakes (proc, 0).
    events: list[tuple[float, int, int, int]] = []
    for job in jobs:
        heapq.heappush(events, (job.arrival, _ARRIVAL, job.index, 0))
    wake_at: list[float | None] = [None] * m

    def finalize(run: _JobRun, status: str) -> None:
        nonlocal pending_work
        run.alive = False
        statuses[run.job.index] = status
        # Credit back the *unstarted* remainder; tasks already committed
        # (finite finish) are credited by their own finish events — they
        # occupy the platform either way (execution is non-preemptive).
        owed = float(run.mean_dur[~np.isfinite(run.finish)].sum())
        pending_work = max(0.0, pending_work - owed)
        policy.record_outcome(run.job, status)

    def commit(run: _JobRun, p: int, v: int, t0: float) -> None:
        nonlocal busy_time
        d = float(run.job.durations[v])
        f = t0 + d
        run.start[v] = t0
        run.finish[v] = f
        run.started[v] = True
        run.next_slot[p] += 1
        proc_free[p] = f
        busy_time += d
        heapq.heappush(events, (f, _FINISH, run.job.index, v))

    def try_start(p: int, now: float, *, force: bool = False) -> bool:
        """Dispatch one task onto *p* if possible; True if anything started.

        Scans every live job's head task on *p*; tasks whose data
        arrives later schedule a wake.  Among startable candidates the
        earliest ``t0`` wins, ties broken by earliest deadline then job
        index.  The policy may veto (defer) or terminate (drop) a
        candidate; with *force* (used only when the event heap has
        drained) deferrals are overridden so the loop always makes
        progress.
        """
        nonlocal n_deferrals, pending_work
        if proc_free[p] > now:
            return False
        t_begin = time.perf_counter() if latency_out is not None else 0.0
        deferred: set[int] = set()  # jobs skipped this scan so others overtake
        while True:
            best = None  # (t0, deadline, job_index, run, task)
            future_ready = math.inf
            for run in runs.values():
                if not run.alive or run.job.index in deferred:
                    continue
                order = run.job.schedule.proc_orders[p]
                k = run.next_slot[p]
                if k >= len(order):
                    continue
                v = int(order[k])
                if run.remaining_preds[v] > 0 or run.started[v]:
                    continue
                if run.ready_time[v] > now:
                    future_ready = min(future_ready, float(run.ready_time[v]))
                    continue
                t0 = max(proc_free[p], float(run.ready_time[v]))
                key = (t0, run.job.deadline, run.job.index)
                if best is None or key < best[:3]:
                    best = (*key, run, v)
            if best is None:
                if math.isfinite(future_ready) and (
                    wake_at[p] is None or future_ready < wake_at[p]
                ):
                    wake_at[p] = future_ready
                    heapq.heappush(events, (future_ready, _WAKE, p, 0))
                if latency_out is not None:
                    latency_out.append(time.perf_counter() - t_begin)
                return False
            t0, _, _, run, v = best
            verdict = policy.dispatch(run.job, v, run.p_complete(v, t0), now)
            if verdict == DROP:
                obs.add(prune_counter)
                finalize(run, "dropped")
                continue  # rescan: the next-best candidate may now win
            if verdict == DEFER and not force:
                # Skip this job for the rest of the scan: a less
                # promising head may overtake; the deferred task is
                # revisited at the next event (or force pass).
                n_deferrals += 1
                obs.add("stream.deferrals")
                deferred.add(run.job.index)
                continue
            with obs.trace(
                "stream.dispatch", job=run.job.index, task=v, proc=p
            ):
                commit(run, p, v, t0)
            if latency_out is not None:
                latency_out.append(time.perf_counter() - t_begin)
            return True

    with obs.trace(
        "stream.run",
        policy=policy.name,
        load=workload.params.load,
        n_jobs=len(jobs),
        m=m,
    ):
        obs.set_gauge("stream.load", workload.params.load)
        while True:
            if not events:
                # Only deferred candidates remain: run the best of them
                # (work-conserving) so the loop cannot livelock.
                if any(r.alive for r in runs.values()):
                    progressed = False
                    for p in range(m):
                        progressed = try_start(p, horizon, force=True) or progressed
                    if progressed:
                        continue
                break
            t, kind, a, b = heapq.heappop(events)
            horizon = max(horizon, t)
            if kind == _ARRIVAL:
                job = jobs[a]
                run = _JobRun(job)
                obs.add("stream.arrivals")
                queue_delay = pending_work / m
                if not policy.admit(job, run.p_admit(queue_delay)):
                    statuses[job.index] = "rejected"
                    obs.add("stream.rejections")
                    continue
                runs[job.index] = run
                pending_work += job.work
                obs.set_gauge(
                    "stream.active_jobs",
                    sum(1 for r in runs.values() if r.alive),
                )
            elif kind == _FINISH:
                run = runs[a]
                v = b
                # A committed task is never credited by finalize(), so
                # this credit is due whether or not the job is still
                # alive (a shed job's running tasks ran to completion).
                pending_work = max(0.0, pending_work - float(run.mean_dur[v]))
                if run.alive:
                    run.n_done += 1
                    graph = run.job.problem.graph
                    platform = run.job.problem.platform
                    proc_of = run.job.schedule.proc_of
                    for e in graph.successor_edge_indices(v):
                        w = int(graph.edge_dst[e])
                        comm = platform.comm_time(
                            float(graph.edge_data[e]),
                            int(proc_of[v]),
                            int(proc_of[w]),
                        )
                        arrival = t + comm
                        if arrival > run.ready_time[w]:
                            run.ready_time[w] = arrival
                        run.remaining_preds[w] -= 1
                    if run.n_done == run.job.n:
                        finish = float(run.finish.max())
                        status = (
                            "on-time"
                            if finish <= run.job.deadline
                            else "late"
                        )
                        finalize(run, status)
                        obs.add("stream.completions")
            else:  # _WAKE
                if wake_at[a] is not None and wake_at[a] <= t:
                    wake_at[a] = None
            # Any event can unblock any processor: a finish frees its
            # own proc and may satisfy cross-proc predecessors; an
            # arrival adds candidates everywhere; a wake means data
            # has arrived for some head task.
            for p in range(m):
                while try_start(p, t):
                    pass

        outcomes = []
        n_on, n_late, n_drop, n_rej = 0, 0, 0, 0
        for job in jobs:
            status = statuses.get(job.index, "dropped")
            run = runs.get(job.index)
            if status == "on-time":
                n_on += 1
            elif status == "late":
                n_late += 1
            elif status == "rejected":
                n_rej += 1
            else:
                n_drop += 1
            if run is not None and run.n_done == job.n:
                finish = float(run.finish.max())
            else:
                finish = float("nan")
            outcomes.append(
                JobOutcome(
                    index=job.index,
                    status=status,
                    arrival=job.arrival,
                    deadline=job.deadline,
                    finish=finish,
                    work=job.work,
                    klass=job.klass,
                    n_done=run.n_done if run is not None else 0,
                )
            )
        result = StreamResult(
            policy=policy.name,
            load=workload.params.load,
            n_jobs=len(jobs),
            m=m,
            horizon=horizon,
            outcomes=tuple(outcomes),
            n_on_time=n_on,
            n_late=n_late,
            n_dropped=n_drop,
            n_rejected=n_rej,
            n_deferrals=n_deferrals,
            busy_time=busy_time,
        )
        obs.set_gauge("stream.on_time_rate", result.on_time_rate)
        obs.set_gauge("stream.goodput", result.goodput)
    return result
