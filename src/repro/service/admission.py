"""Tiered admission control: serve what you can, degrade what you can't.

The serving discipline follows the task-dropping literature (Mokhtari et
al., arXiv:2005.11050; Gentry et al., arXiv:1901.09312): robustness
under load comes from an explicit decision at the door, not from letting
a queue grow until clients time out.  Requests are split into two tiers:

* the **fast tier** — deterministic heuristics (HEFT, CPOP, PEFT,
  min-min), milliseconds per solve — is always admitted;
* the **GA tier** — the ε-constraint genetic solver, seconds per solve —
  is admitted only while its queue has room *and* the wait test of the
  configured mode passes.

Two admission modes share the queue-depth bound and differ in the wait
test:

* ``"tiered"`` (default) — the original point estimate: shed when the
  EWMA-predicted queue wait exceeds the request's deadline;
* ``"stream"`` — the probabilistic test of the streaming subsystem
  (:mod:`repro.stream.policies`): GA service times are modelled as a
  normal with EWMA mean *and* variance, and a request is shed when its
  probability of starting within the deadline falls below
  ``stream_threshold``.  This prices *uncertainty*: a wait whose mean
  fits the deadline but whose spread makes success a coin flip is shed
  in stream mode and admitted in tiered mode.

**Invariant — shed XOR enqueued.**  :meth:`AdmissionController.route`
returns exactly one tier per request and every routed request increments
exactly one of ``admitted_fast`` / ``admitted_ga`` / ``shed`` (the three
always sum to the number of ``route`` calls).  A ``"shed"`` decision is
a *terminal rewrite*: the server serves the degraded heuristic fallback
inline and the request never touches the GA queue, so no request can be
both shed and enqueued — in either mode.  A rejected GA request is
therefore not an error: the client always gets a valid (if less robust)
schedule flagged ``degraded: true``.  ``tests/unit/test_service.py``
pins both the partition and the never-enqueued property.

The wait predictor is an EWMA of recent GA solve times (stream mode adds
an EWMA variance); with no history yet, only the depth bound applies.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro.utils.stats import normal_cdf

__all__ = ["ADMISSION_MODES", "AdmissionDecision", "AdmissionController"]

#: Supported admission modes.
ADMISSION_MODES = ("tiered", "stream")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of routing one request.

    ``tier`` is ``"fast"`` (serve inline), ``"ga"`` (enqueue for the GA
    executor) or ``"shed"`` (serve the degraded heuristic fallback);
    ``reason`` explains a shed decision for the response and the trace.
    """

    tier: str
    reason: str | None = None


class AdmissionController:
    """Routes requests to tiers and tracks the decisions it made.

    Parameters
    ----------
    ga_queue_limit:
        Maximum GA requests *waiting* (beyond the ones actively running
        on the executor).  Depth ``0`` disables queueing entirely: a GA
        request is only admitted while an executor slot is free.
    ga_workers:
        Concurrent GA executor slots (the service's ``--workers``).
    ewma_alpha:
        Smoothing factor for the GA service-time estimates.
    mode:
        ``"tiered"`` (EWMA point comparison) or ``"stream"``
        (probabilistic completion test); see the module docstring.
    stream_threshold:
        Stream mode only: shed a GA request whose probability of
        starting within its deadline is below this value.
    clock:
        Monotonic clock (injectable for tests); feeds the GA
        inter-arrival estimate behind :meth:`stream_load`.
    """

    def __init__(
        self,
        ga_queue_limit: int = 8,
        ga_workers: int = 1,
        *,
        ewma_alpha: float = 0.3,
        mode: str = "tiered",
        stream_threshold: float = 0.5,
        clock=time.monotonic,
    ) -> None:
        if ga_queue_limit < 0:
            raise ValueError(f"ga_queue_limit must be >= 0, got {ga_queue_limit}")
        if ga_workers < 1:
            raise ValueError(f"ga_workers must be >= 1, got {ga_workers}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if mode not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {mode!r}; choose from {ADMISSION_MODES}"
            )
        if not 0.0 <= stream_threshold <= 1.0:
            raise ValueError(
                f"stream_threshold must be in [0, 1], got {stream_threshold}"
            )
        self.ga_queue_limit = int(ga_queue_limit)
        self.ga_workers = int(ga_workers)
        self.mode = mode
        self.stream_threshold = float(stream_threshold)
        self._ewma_alpha = float(ewma_alpha)
        self._clock = clock
        self._lock = threading.Lock()
        self.ga_seconds_ewma: float | None = None
        self.ga_seconds_var: float = 0.0
        self.interarrival_ewma: float | None = None
        self._last_ga_arrival: float | None = None
        self.admitted_fast = 0
        self.admitted_ga = 0
        self.shed = 0
        self.shed_queue_full = 0
        self.shed_deadline = 0
        self.shed_probability = 0

    # -------------------------------------------------------------- routing

    def route(
        self,
        solver: str,
        ga_inflight: int,
        deadline_s: float | None = None,
    ) -> AdmissionDecision:
        """Decide the tier for one validated ``solve`` request.

        ``ga_inflight`` counts GA jobs handed to the executor and not yet
        resolved (running + queued); queue depth is what exceeds the
        worker slots.  Exactly one of the three tier counters is
        incremented per call (see the module invariant).
        """
        if solver != "ga":
            with self._lock:
                self.admitted_fast += 1
            return AdmissionDecision("fast")
        self._observe_ga_arrival()
        queued = max(0, ga_inflight - self.ga_workers)
        if queued >= self.ga_queue_limit and ga_inflight >= self.ga_workers:
            with self._lock:
                self.shed += 1
                self.shed_queue_full += 1
            return AdmissionDecision(
                "shed", f"ga queue full (depth {queued} >= {self.ga_queue_limit})"
            )
        if self.mode == "stream":
            p = self.start_probability(queued, deadline_s)
            if p is not None and p < self.stream_threshold:
                with self._lock:
                    self.shed += 1
                    self.shed_probability += 1
                return AdmissionDecision(
                    "shed",
                    f"on-time start probability {p:.3f} below threshold "
                    f"{self.stream_threshold:g}",
                )
        else:
            wait = self.predicted_wait_s(queued)
            if deadline_s is not None and wait is not None and wait > deadline_s:
                with self._lock:
                    self.shed += 1
                    self.shed_deadline += 1
                return AdmissionDecision(
                    "shed",
                    f"predicted queue wait {wait:.2f}s exceeds deadline "
                    f"{deadline_s:g}s",
                )
        with self._lock:
            self.admitted_ga += 1
        return AdmissionDecision("ga")

    # ------------------------------------------------------------ estimator

    def predicted_wait_s(self, queued: int) -> float | None:
        """Expected queue wait for a request arriving behind *queued* jobs.

        ``None`` until at least one GA solve has completed — admission
        then falls back to the depth bound alone rather than guessing.
        """
        if self.ga_seconds_ewma is None:
            return None
        return queued * self.ga_seconds_ewma / self.ga_workers

    def start_probability(
        self, queued: int, deadline_s: float | None
    ) -> float | None:
        """P(queue wait <= deadline) under the normal service-time model.

        The wait behind *queued* jobs has mean ``queued * mu / workers``
        and variance ``queued * var / workers^2`` (independent solves).
        ``None`` when there is no deadline or no history yet — the
        caller then falls back to the depth bound alone.
        """
        if deadline_s is None or self.ga_seconds_ewma is None:
            return None
        mean = queued * self.ga_seconds_ewma / self.ga_workers
        var = queued * self.ga_seconds_var / (self.ga_workers**2)
        if var <= 0.0:
            return 1.0 if mean <= deadline_s else 0.0
        return normal_cdf((deadline_s - mean) / math.sqrt(var))

    def observe_ga_seconds(self, seconds: float) -> None:
        """Feed one completed GA solve's duration into the estimators."""
        with self._lock:
            x = float(seconds)
            if self.ga_seconds_ewma is None:
                self.ga_seconds_ewma = x
                self.ga_seconds_var = 0.0
            else:
                a = self._ewma_alpha
                diff = x - self.ga_seconds_ewma
                self.ga_seconds_ewma += a * diff
                # West's exponentially weighted variance update.
                self.ga_seconds_var = (1.0 - a) * (
                    self.ga_seconds_var + a * diff * diff
                )

    def _observe_ga_arrival(self) -> None:
        """Update the GA inter-arrival EWMA (feeds the load estimate)."""
        now = self._clock()
        with self._lock:
            if self._last_ga_arrival is not None:
                gap = max(now - self._last_ga_arrival, 1e-9)
                if self.interarrival_ewma is None:
                    self.interarrival_ewma = gap
                else:
                    a = self._ewma_alpha
                    self.interarrival_ewma += a * (gap - self.interarrival_ewma)
            self._last_ga_arrival = now

    def stream_load(self) -> float | None:
        """Estimated offered GA load relative to executor capacity.

        ``service_time / (interarrival * workers)``: 1.0 means GA work
        arrives exactly as fast as the executor retires it, above 1 the
        tier is oversubscribed.  ``None`` until both EWMAs have data.
        """
        if self.ga_seconds_ewma is None or self.interarrival_ewma is None:
            return None
        return self.ga_seconds_ewma / (self.interarrival_ewma * self.ga_workers)

    def stats(self) -> dict[str, float | int | str | None]:
        """Counters for the ``status`` RPC and the obs gauges."""
        with self._lock:
            return {
                "mode": self.mode,
                "ga_queue_limit": self.ga_queue_limit,
                "ga_workers": self.ga_workers,
                "admitted_fast": self.admitted_fast,
                "admitted_ga": self.admitted_ga,
                "shed": self.shed,
                "shed_queue_full": self.shed_queue_full,
                "shed_deadline": self.shed_deadline,
                "shed_probability": self.shed_probability,
                "ga_seconds_ewma": self.ga_seconds_ewma,
                "ga_seconds_var": self.ga_seconds_var,
                "stream_threshold": self.stream_threshold,
                "stream_load": (
                    None
                    if self.ga_seconds_ewma is None
                    or self.interarrival_ewma is None
                    else self.ga_seconds_ewma
                    / (self.interarrival_ewma * self.ga_workers)
                ),
            }
