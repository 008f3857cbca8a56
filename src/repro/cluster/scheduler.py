"""The scheduler: dependency-aware queue + supervised worker pool.

The shape follows the classic scheduler/worker split (cf. dask
``distributed``): one process owns all state — task graph, queue, retry
budgets, checkpoint journal — and workers are dumb loops that pull a
task over a pipe, compute, and answer.  Supervision is pessimistic:

* a **crashed** worker (SIGKILL, OOM, interpreter abort) is noticed via
  its broken pipe and dead process handle;
* a **hung** worker (no heartbeat for ``heartbeat_timeout`` seconds — the
  beat runs on a daemon thread, so a busy worker still beats) is killed;

in both cases the worker's in-flight task goes back to the front of the
queue (its retry counter incremented), a replacement worker is spawned,
and the run continues.  A task whose retry budget is exhausted — or that
keeps raising — is marked permanently :attr:`~TaskState.FAILED`, its
dependents are failed transitively, and the rest of the run proceeds:
one poison cell never sinks a grid.

Determinism: the scheduler never injects randomness.  Task functions
derive their streams from their arguments (root seed + stable spawn
keys), so results are bit-identical whether a task ran serially, on any
worker, first try or third retry — which is also what makes checkpoint
restore (`--resume`) exact.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_conns
from typing import Any, Callable, Iterable, Sequence

from repro.cluster.checkpoint import Checkpoint
from repro.cluster.heartbeat import HeartbeatMonitor
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.task import TaskFailure, TaskOutcome, TaskSpec, TaskState
from repro.cluster.worker import worker_main
from repro.obs import runtime as obs

__all__ = ["START_METHOD", "ClusterConfig", "Scheduler", "run_tasks"]

#: ``multiprocessing`` start method of every process the package (and the
#: sharded service) launches.  A forked child inherits the parent's
#: threads' locks but not the threads: after an in-process GA has started
#: the native kernel's OpenMP pool, a ``fork``ed worker blocks forever on
#: its first parallel region.  A forkserver child is forked from a clean
#: single-threaded server process instead.
START_METHOD = "forkserver"


@dataclass(frozen=True)
class ClusterConfig:
    """Pool-level knobs.

    Attributes
    ----------
    n_workers:
        Worker processes; ``<= 1`` executes in-process (no pool, no
        pickling) — the bit-identical serial path.
    heartbeat_interval:
        Seconds between worker heartbeats.
    heartbeat_timeout:
        Silence after which a worker is declared hung and killed;
        ``None`` disables hang detection (crashes are still caught).
    poll_interval:
        Scheduler event-loop wait granularity in seconds.

    Workers start with :data:`START_METHOD`.
    """

    n_workers: int = 1
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float | None = 30.0
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout is not None and (
            self.heartbeat_timeout <= self.heartbeat_interval
        ):
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({self.heartbeat_timeout} <= {self.heartbeat_interval})"
            )
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("id", "proc", "conn", "current", "busy_since")

    def __init__(self, wid: int, proc, conn) -> None:
        self.id = wid
        self.proc = proc
        self.conn = conn
        self.current: str | None = None  # key of the in-flight task
        self.busy_since: float = 0.0


class Scheduler:
    """Run a batch of :class:`TaskSpec` with fault tolerance.

    Parameters
    ----------
    config:
        Pool configuration (default: in-process execution).
    checkpoint:
        Optional :class:`~repro.cluster.checkpoint.Checkpoint`; already
        journaled keys are restored without re-execution and every new
        completion is appended.
    progress:
        Optional ``progress(line: str)`` — called with the live metrics
        status line whenever a task finishes, fails or is retried.
    on_done:
        Optional ``on_done(spec, outcome)`` — called for every task that
        reaches a terminal state (including checkpoint restores), in the
        order states are reached.  Use it for domain-specific progress.

    After :meth:`run` returns, :attr:`metrics` holds the run's counters.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        checkpoint: Checkpoint | None = None,
        progress: Callable[[str], None] | None = None,
        on_done: Callable[[TaskSpec, TaskOutcome], None] | None = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.checkpoint = checkpoint
        self.progress = progress
        self.on_done = on_done
        self.metrics = ClusterMetrics()
        self._incremental = False
        self._completed_log: list[str] | None = None

    # ------------------------------------------------------------------ setup

    def _validate(self, specs: Sequence[TaskSpec]) -> None:
        seen: set[str] = set()
        for spec in specs:
            if spec.key in seen:
                raise ValueError(f"duplicate task key {spec.key!r}")
            seen.add(spec.key)
        for spec in specs:
            for dep in spec.deps:
                if dep not in seen:
                    raise ValueError(
                        f"task {spec.key!r} depends on unknown task {dep!r}"
                    )
        # Kahn's algorithm: every task must be reachable from the roots.
        pending = {s.key: len(s.deps) for s in specs}
        dependents: dict[str, list[str]] = {s.key: [] for s in specs}
        for s in specs:
            for dep in s.deps:
                dependents[dep].append(s.key)
        frontier = [k for k, n in pending.items() if n == 0]
        visited = 0
        while frontier:
            key = frontier.pop()
            visited += 1
            for child in dependents[key]:
                pending[child] -= 1
                if pending[child] == 0:
                    frontier.append(child)
        if visited != len(specs):
            cyclic = sorted(k for k, n in pending.items() if n > 0)
            raise ValueError(f"dependency cycle among tasks: {cyclic[:5]}")

    # ------------------------------------------------------------------- run

    def run(self, specs: Iterable[TaskSpec]) -> dict[str, TaskOutcome]:
        """Execute all specs; returns ``{key: TaskOutcome}`` in spec order.

        Never raises on task failure — inspect the outcomes (or use
        :func:`run_tasks` for raise-on-failure semantics).
        """
        if self._incremental:
            raise RuntimeError(
                "an incremental submit/poll session is open; close() it "
                "before calling the batch run()"
            )
        specs = list(specs)
        self._validate(specs)
        self._completed_log = None
        self.metrics = ClusterMetrics()
        self.metrics.n_tasks = len(specs)
        self.metrics.queued = len(specs)

        self._specs = {s.key: s for s in specs}
        self._order = [s.key for s in specs]
        self._outcomes: dict[str, TaskOutcome] = {}
        self._retries: dict[str, int] = {k: 0 for k in self._specs}
        self._waiting = {s.key: {d for d in s.deps} for s in specs}
        self._dependents: dict[str, list[str]] = {k: [] for k in self._specs}
        for s in specs:
            for dep in s.deps:
                self._dependents[dep].append(s.key)
        self._ready: deque[str] = deque(
            k for k in self._order if not self._waiting[k]
        )

        with obs.trace(
            "cluster.run",
            n_tasks=len(specs),
            n_workers=self.config.n_workers,
        ) as run_span:
            self._restore_from_checkpoint()

            if not self._unfinished():
                pass
            elif self.config.n_workers <= 1:
                self._run_serial()
            else:
                self._run_pool()

            if self.checkpoint is not None:
                self.checkpoint.close()
            if obs.enabled():
                snap = self.metrics.snapshot()
                run_span.set(
                    done=snap["done"],
                    failed=snap["failed"],
                    retried=snap["retried"],
                    restored=snap["restored"],
                )
                for name, value in snap.items():
                    obs.set_gauge(f"cluster.{name}", float(value))
        return {k: self._outcomes[k] for k in self._order}

    def _unfinished(self) -> int:
        return len(self._specs) - len(self._outcomes)

    # ------------------------------------------------------------ checkpoint

    def _restore_from_checkpoint(self) -> None:
        if self.checkpoint is None:
            return
        stored = self.checkpoint.load()
        # Carry the interrupted attempts' clocks forward so elapsed,
        # throughput and utilization stay monotonic across --resume.
        self.metrics.prior_elapsed = self.checkpoint.run_elapsed
        self.metrics.busy_seconds += self.checkpoint.busy_elapsed
        for key in self._order:
            if key in stored and key not in self._outcomes:
                self.metrics.restored += 1
                self._finish(
                    TaskOutcome(
                        key=key,
                        state=TaskState.DONE,
                        result=stored[key],
                        from_checkpoint=True,
                    ),
                    journal=False,
                )

    # ------------------------------------------------------- state machinery

    def _finish(self, outcome: TaskOutcome, *, journal: bool = True) -> None:
        """Record a terminal state and unlock (or fail) dependents."""
        key = outcome.key
        self._outcomes[key] = outcome
        if self._completed_log is not None:
            self._completed_log.append(key)
        self.metrics.queued = max(self.metrics.queued - 1, 0)
        if outcome.state is TaskState.DONE:
            self.metrics.done += 1
            if not outcome.from_checkpoint:
                obs.observe("cluster.task_seconds", outcome.duration)
            if journal and self.checkpoint is not None:
                spec = self._specs[key]
                self.checkpoint.record(
                    key,
                    outcome.result,
                    seed=spec.seed,
                    retries=outcome.retries,
                    elapsed=outcome.duration,
                    run_elapsed=self.metrics.elapsed,
                )
                obs.event("cluster.checkpoint_append", key=key)
            for child in self._dependents[key]:
                waiting = self._waiting[child]
                waiting.discard(key)
                if not waiting and child not in self._outcomes:
                    self._ready.append(child)
        else:
            self.metrics.failed += 1
            for child in self._dependents[key]:
                if child not in self._outcomes:
                    self._finish(
                        TaskOutcome(
                            key=child,
                            state=TaskState.FAILED,
                            error=f"dependency {key!r} failed",
                            retries=self._retries[child],
                        )
                    )
        if self.on_done is not None:
            self.on_done(self._specs[key], outcome)
        if self.progress is not None:
            self.progress(self.metrics.status_line())

    def _dep_results(self, spec: TaskSpec) -> dict[str, Any] | None:
        if not spec.pass_dep_results:
            return None
        return {d: self._outcomes[d].result for d in spec.deps}

    def _next_ready(self) -> str | None:
        while self._ready:
            key = self._ready.popleft()
            if key not in self._outcomes:  # skip late-completed requeues
                return key
        return None

    def _record_failure(self, key: str, error: str, worker: int | None) -> None:
        obs.event("cluster.task_failed", key=key, worker=worker)
        self._finish(
            TaskOutcome(
                key=key,
                state=TaskState.FAILED,
                error=error,
                retries=self._retries[key],
                worker=worker,
            )
        )

    def _retry_or_fail(self, key: str, error: str, worker: int | None) -> None:
        """Crash/exception on attempt: requeue within budget, else fail."""
        self._retries[key] += 1
        if self._retries[key] <= self._specs[key].max_retries:
            self.metrics.retried += 1
            self._ready.appendleft(key)
            obs.event(
                "cluster.requeue",
                key=key,
                attempt=self._retries[key],
                worker=worker,
            )
            if self.progress is not None:
                self.progress(self.metrics.status_line())
        else:
            # The final increment was the denied retry, not an execution.
            self._retries[key] -= 1
            self._record_failure(key, error, worker)

    # ------------------------------------------------- incremental submit/poll

    def _ensure_incremental(self) -> None:
        if self._incremental:
            return
        self._incremental = True
        self._specs = {}
        self._order = []
        self._outcomes = {}
        self._retries = {}
        self._waiting = {}
        self._dependents = {}
        self._ready = deque()
        self._completed_log = []
        self._delivered = 0
        self._workers = None
        self.metrics = ClusterMetrics()

    def submit(self, spec: TaskSpec) -> None:
        """Queue one task without blocking (incremental mode).

        Unlike the batch :meth:`run`, tasks arrive one at a time and
        results are collected with :meth:`poll`; the session ends with
        :meth:`close`.  Dependencies must refer to keys submitted
        earlier (which also rules out cycles).  A task whose dependency
        already failed is failed immediately, surfacing on the next
        :meth:`poll`.
        """
        self._ensure_incremental()
        if spec.key in self._specs:
            raise ValueError(f"duplicate task key {spec.key!r}")
        missing = [d for d in spec.deps if d not in self._specs]
        if missing:
            raise ValueError(
                f"task {spec.key!r} depends on unknown task {missing[0]!r} "
                "(incremental deps must be submitted first)"
            )
        self._specs[spec.key] = spec
        self._order.append(spec.key)
        self._retries[spec.key] = 0
        self._waiting[spec.key] = {
            d for d in spec.deps if d not in self._outcomes
        }
        self._dependents[spec.key] = []
        for dep in spec.deps:
            self._dependents[dep].append(spec.key)
        self.metrics.n_tasks += 1
        self.metrics.queued += 1
        failed_dep = next(
            (d for d in spec.deps if d in self._outcomes and not self._outcomes[d].ok),
            None,
        )
        if failed_dep is not None:
            self._finish(
                TaskOutcome(
                    key=spec.key,
                    state=TaskState.FAILED,
                    error=f"dependency {failed_dep!r} failed",
                )
            )
        elif not self._waiting[spec.key]:
            self._ready.append(spec.key)
        if self.config.n_workers > 1:
            self._ensure_pool()
            self._dispatch()

    def poll(self, timeout: float = 0.0) -> list[TaskOutcome]:
        """Advance the run and return outcomes that became terminal.

        With ``n_workers <= 1`` this executes at most **one** ready task
        inline (blocking for its duration — the bit-identical serial
        path).  With a pool it dispatches ready tasks, pumps worker
        messages and sweeps liveness until something completes or
        *timeout* seconds have elapsed (each pump waits one
        ``poll_interval`` tick).  Every terminal outcome is returned
        exactly once across successive calls.
        """
        self._ensure_incremental()
        if self.config.n_workers <= 1:
            key = self._next_ready()
            if key is not None:
                self._execute_inline(key)
        elif self._unfinished():
            self._ensure_pool()
            deadline = time.monotonic() + max(timeout, 0.0)
            while True:
                self._dispatch()
                self._pump_messages()
                self._sweep_liveness()
                if (
                    len(self._completed_log) > self._delivered
                    or time.monotonic() >= deadline
                    or not self._unfinished()
                ):
                    break
        new = [
            self._outcomes[k] for k in self._completed_log[self._delivered:]
        ]
        self._delivered = len(self._completed_log)
        return new

    def pending(self) -> int:
        """Tasks submitted but not yet terminal (incremental mode)."""
        if not self._incremental:
            return 0
        return self._unfinished()

    def close(self) -> None:
        """End an incremental session: stop workers, close the journal."""
        if not self._incremental:
            return
        if self._workers:
            self._shutdown_pool()
        if self.checkpoint is not None:
            self.checkpoint.close()
        self._incremental = False
        self._completed_log = None

    def _ensure_pool(self) -> None:
        if self._workers is None:
            self._open_pool()
        self._fill_pool()

    # ------------------------------------------------------------ serial path

    def _run_serial(self) -> None:
        """In-process execution: same order, same streams, no pickling."""
        while True:
            key = self._next_ready()
            if key is None:
                break
            self._execute_inline(key)

    def _execute_inline(self, key: str) -> None:
        """Run one ready task to completion in this process."""
        import traceback

        spec = self._specs[key]
        dep_results = self._dep_results(spec)
        self.metrics.running = 1
        start = time.perf_counter()
        try:
            with obs.trace("cluster.task", key=key):
                if dep_results is not None:
                    result = spec.fn(dep_results, *spec.args, **spec.kwargs)
                else:
                    result = spec.fn(*spec.args, **spec.kwargs)
        except Exception:
            self.metrics.running = 0
            self._retry_or_fail(key, traceback.format_exc(), None)
            return
        self.metrics.running = 0
        duration = time.perf_counter() - start
        self.metrics.busy_seconds += duration
        self._finish(
            TaskOutcome(
                key=key,
                state=TaskState.DONE,
                result=result,
                retries=self._retries[key],
                duration=duration,
            )
        )

    # -------------------------------------------------------------- pool path

    def _run_pool(self) -> None:
        self._open_pool()
        try:
            self._fill_pool()
            while self._unfinished():
                self._dispatch()
                self._pump_messages()
                self._sweep_liveness()
        finally:
            self._shutdown_pool()

    def _open_pool(self) -> None:
        self._workers: dict[int, _WorkerHandle] = {}
        self._slots = 0
        self._next_worker_id = 0
        self._monitor = HeartbeatMonitor(timeout=self.config.heartbeat_timeout)

    def _fill_pool(self) -> None:
        """Grow the pool to ``min(n_workers, unfinished)`` workers and
        refill the slot of every lost worker while work remains.

        The pool heals: a lost worker is replaced (one ``respawns``) as
        long as any task is unfinished, even when the survivors could
        absorb the remaining work.
        """
        while self._unfinished():
            if len(self._workers) < self._slots:
                self.metrics.respawns += 1
            elif self._slots < min(self.config.n_workers, self._unfinished()):
                self._slots += 1
            else:
                break
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        wid = self._next_worker_id
        self._next_worker_id += 1
        ctx = mp.get_context(START_METHOD)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, wid, self.config.heartbeat_interval),
            name=f"repro-cluster-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps only its end, so EOF is detectable
        # The heartbeat clock starts at the worker's "ready" message, not
        # here: a fresh interpreter importing the package is not silence.
        # A worker that dies while starting is caught by the exit check in
        # _sweep_liveness.
        self._workers[wid] = _WorkerHandle(wid, proc, parent_conn)
        self.metrics.n_workers = len(self._workers)
        obs.event("cluster.worker_spawn", worker=wid)

    def _dispatch(self) -> None:
        for handle in self._workers.values():
            if handle.current is not None:
                continue
            key = self._next_ready()
            if key is None:
                break
            spec = self._specs[key]
            try:
                handle.conn.send(
                    (
                        "task",
                        key,
                        spec.fn,
                        spec.args,
                        spec.kwargs,
                        self._dep_results(spec),
                        obs.enabled(),
                    )
                )
            except (BrokenPipeError, OSError):
                self._ready.appendleft(key)  # worker died before dispatch
                self._on_worker_lost(handle, "worker pipe closed at dispatch")
                break
            handle.current = key
            handle.busy_since = time.monotonic()
            self.metrics.running = sum(
                1 for w in self._workers.values() if w.current is not None
            )

    def _pump_messages(self) -> None:
        conns = {w.conn: w for w in self._workers.values()}
        if not conns:
            time.sleep(self.config.poll_interval)
            return
        for conn in _wait_conns(list(conns), timeout=self.config.poll_interval):
            handle = conns[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_lost(handle, "worker connection lost")
                    break
                self._monitor.beat(handle.id)  # "ready" is the first beat
                kind = message[0]
                if kind in ("heartbeat", "ready"):
                    continue
                _, wid, key, payload, duration, events = message
                self.metrics.busy_seconds += duration
                obs.ingest(events)
                if handle.current == key:
                    handle.current = None
                if key in self._outcomes:
                    continue  # late duplicate after a presumed-lost worker
                if kind == "result":
                    self._finish(
                        TaskOutcome(
                            key=key,
                            state=TaskState.DONE,
                            result=payload,
                            retries=self._retries[key],
                            worker=wid,
                            duration=duration,
                        )
                    )
                else:  # "error": the task raised; worker itself is fine
                    self._retry_or_fail(key, payload, wid)
        self.metrics.running = sum(
            1 for w in self._workers.values() if w.current is not None
        )

    def _sweep_liveness(self) -> None:
        lost: list[tuple[_WorkerHandle, str]] = []
        for handle in self._workers.values():
            if not handle.proc.is_alive():
                code = handle.proc.exitcode
                lost.append((handle, f"worker process died (exit code {code})"))
        for wid in self._monitor.overdue():
            handle = self._workers.get(wid)
            if handle is not None and handle.proc.is_alive():
                obs.event("cluster.heartbeat_miss", worker=wid)
                handle.proc.kill()
                handle.proc.join(timeout=5.0)
                lost.append(
                    (
                        handle,
                        f"worker hung (no heartbeat for "
                        f"{self.config.heartbeat_timeout:g}s), killed",
                    )
                )
        for handle, reason in lost:
            self._on_worker_lost(handle, reason)
        self._fill_pool()

    def _on_worker_lost(self, handle: _WorkerHandle, reason: str) -> None:
        """Retire a dead/hung worker, requeueing its in-flight task."""
        if handle.id not in self._workers:
            return  # already retired via another detection path
        obs.event("cluster.worker_lost", worker=handle.id, reason=reason)
        # Drain any result that raced with the crash (sent, then died).
        try:
            while handle.conn.poll():
                message = handle.conn.recv()
                if message[0] in ("result", "error"):
                    _, wid, key, payload, duration, events = message
                    if handle.current == key:
                        handle.current = None
                    if key not in self._outcomes and message[0] == "result":
                        self.metrics.busy_seconds += duration
                        obs.ingest(events)
                        self._finish(
                            TaskOutcome(
                                key=key,
                                state=TaskState.DONE,
                                result=payload,
                                retries=self._retries[key],
                                worker=wid,
                                duration=duration,
                            )
                        )
        except (EOFError, OSError):
            pass
        del self._workers[handle.id]
        self._monitor.forget(handle.id)
        self.metrics.n_workers = len(self._workers)
        try:
            handle.conn.close()
        except OSError:
            pass
        if not handle.proc.is_alive():
            handle.proc.join(timeout=1.0)
        if handle.current is not None and handle.current not in self._outcomes:
            self._retry_or_fail(handle.current, reason, handle.id)

    def _shutdown_pool(self) -> None:
        for handle in self._workers.values():
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for handle in self._workers.values():
            handle.proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        # metrics.n_workers keeps the final pool size so post-run
        # snapshots (--metrics-json) record what actually executed.
        self._workers = {}
        self.metrics.running = 0


def run_tasks(
    specs: Iterable[TaskSpec],
    *,
    n_workers: int = 1,
    checkpoint: Checkpoint | None = None,
    progress: Callable[[str], None] | None = None,
    on_done: Callable[[TaskSpec, TaskOutcome], None] | None = None,
    config: ClusterConfig | None = None,
) -> dict[str, TaskOutcome]:
    """Convenience front door: run specs, raise :class:`TaskFailure` if any
    task failed permanently, else return ``{key: TaskOutcome}``.

    ``config`` overrides the pool knobs; otherwise a default
    :class:`ClusterConfig` with *n_workers* is used.
    """
    if config is None:
        config = ClusterConfig(n_workers=n_workers)
    scheduler = Scheduler(
        config, checkpoint=checkpoint, progress=progress, on_done=on_done
    )
    outcomes = scheduler.run(specs)
    failures = [o for o in outcomes.values() if not o.ok]
    if failures:
        raise TaskFailure(failures)
    return outcomes
