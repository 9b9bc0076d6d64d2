"""The pluggable execution-backend protocol for the solve service.

One :class:`Executor` owns *how* blocking ABFT attempts run — in the event
loop (``inline``), in the default thread pool (``thread``), or on a
persistent multicore process pool with shared-memory matrix transport
(``process``) — while the service keeps owning *what* runs: admission,
scheduling, the retry ladder, and metrics.  The contract every backend
honors:

- **determinism** — an attempt's ``factor``, ``corrected_sites`` and
  ``stats`` are bit-identical whichever backend executes it (pinned by
  ``tests/test_exec_backends.py`` reusing the batchverify parity harness);
- **failure transparency** — scheme-level errors surface as the same
  :class:`~repro.util.exceptions.ReproError` types the thread path always
  raised; infrastructure failures (a worker crash) surface as
  :class:`~repro.util.exceptions.WorkerCrashedError`, which the service's
  retry ladder treats like any other failed attempt;
- **graceful drain** — ``stop()`` returns only after in-flight attempts
  finished and backend resources (processes, shared segments) are
  released.

Backends expose a synchronous ``run_sync`` core so non-async callers
(benchmarks, property tests) can drive a warm pool without an event loop;
the async ``execute`` wrapper is what the service awaits under its
per-attempt timeout.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.service.metrics import MetricsRegistry
from repro.service.policy import AttemptOutcome, RetryPolicy
from repro.util.exceptions import ExecutorError, WorkerTaskError
from repro.util.validation import check_positive, require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hetero.machine import Machine
    from repro.service.job import Job

#: Registered backend names, in increasing order of parallelism.
BACKENDS = ("inline", "thread", "process")


def is_infra_error(exc: BaseException) -> bool:
    """Was this failure the *backend's* fault rather than the job's?

    Infrastructure failures — a crashed or wedged worker, a lost or
    corrupted shared-memory segment — indict the executor and feed its
    circuit breaker (:mod:`repro.resilience.breaker`).  A
    :class:`~repro.util.exceptions.WorkerTaskError` is the job's own
    exception relayed across the boundary: any backend would have failed
    identically, so it must never open a breaker.
    """
    return isinstance(exc, ExecutorError) and not isinstance(exc, WorkerTaskError)


@dataclass
class AttemptRequest:
    """One unit of dispatch: run *job* once on machine *preset*.

    ``machine`` is the in-process fast path (inline/thread reuse the
    scheduler's live object); ``preset`` is the cross-process form — a
    name the worker resolves against its warm preset cache, because a
    :class:`~repro.hetero.machine.Machine` never crosses the boundary.

    ``timeout_s`` is the caller's per-attempt budget (the service passes
    its ``job_timeout_s``): backends with out-of-process workers use it to
    bound how long a dispatched attempt may go silent before the worker is
    declared wedged, killed, and its slot reclaimed — an async caller's
    ``asyncio.wait_for`` alone cannot do that, because cancelling the
    awaiting thread does not stop ``run_sync``.

    ``timeline`` asks a real-mode attempt for its simulated timeline (the
    service sets it only when it dumps traces); shadow attempts always
    record one.
    """

    job: "Job"
    preset: str
    machine: "Machine | None" = None
    kind: str = "attempt"  # "attempt" | "fallback"
    retry: RetryPolicy | None = None
    timeout_s: float | None = None
    timeline: bool = True

    def __post_init__(self) -> None:
        require(self.kind in ("attempt", "fallback"), f"bad request kind {self.kind!r}")
        if self.kind == "fallback":
            require(self.retry is not None, "fallback requests need the retry policy")
        if self.timeout_s is not None:
            check_positive("timeout_s", self.timeout_s)


class Executor(ABC):
    """Base class: metrics plumbing plus the sync/async execution pair."""

    name: str = "?"

    def __init__(self, capacity: int, metrics: MetricsRegistry | None = None) -> None:
        require(capacity >= 1, "executor capacity must be >= 1")
        self.capacity = capacity
        self._mlock = threading.Lock()  # metric updates arrive from pool threads
        self.bind_metrics(metrics if metrics is not None else MetricsRegistry())

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """(Re)register this backend's metrics in *metrics*."""
        self.metrics = metrics
        self._attempts = metrics.counter(
            "executor_attempts_total", "attempts dispatched through the execution backend"
        )
        self._dispatch_h = metrics.histogram(
            "executor_dispatch_seconds", "wait from dispatch to an execution slot"
        )
        self._busy_g = metrics.gauge(
            "executor_worker_utilization", "busy execution slots (capacity under 'capacity')"
        )
        self._ipc_bytes = metrics.counter(
            "executor_ipc_bytes_total", "bytes crossing the process boundary (payloads + shm)"
        )
        self._restarts = metrics.counter(
            "executor_worker_restarts_total", "pool workers lost to a crash or a missed deadline and replaced"
        )
        self._transport_errs = metrics.counter(
            "executor_transport_errors_total",
            "shared-memory transport faults detected parent-side",
        )
        self._batch_h = metrics.histogram(
            "executor_batch_size", "attempts per dispatch unit (1 = singleton)"
        )
        self._arena_reuse = metrics.counter(
            "executor_arena_reuse_total", "leases served warm from an arena free-list"
        )
        self._arena_miss = metrics.counter(
            "executor_arena_miss_total", "leases that had to create a new arena segment"
        )
        with self._mlock:
            self._busy_g.set(self.capacity, kind="capacity")
            self._busy_g.set(0.0, kind="busy")

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:  # noqa: B027 - optional hook
        """Bring up backend resources (worker processes, warm caches)."""

    async def stop(self) -> None:  # noqa: B027 - optional hook
        """Drain in-flight attempts and release backend resources."""

    # -- execution ---------------------------------------------------------------

    @abstractmethod
    def run_sync(self, request: AttemptRequest) -> AttemptOutcome:
        """Run one attempt to completion, blocking the calling thread."""

    def run_batch_sync(self, requests: list[AttemptRequest]) -> list[AttemptOutcome | BaseException]:
        """Run a batch of attempts; failures come back as exception *values*.

        The default runs the batch as sequential singletons — backends
        that can amortize a round-trip (one wire message, one worker
        wakeup) override this.  Results align 1:1 with *requests*; a
        failed item never aborts the rest of the batch.
        """
        results: list[AttemptOutcome | BaseException] = []
        for request in requests:
            try:
                results.append(self.run_sync(request))
            except Exception as exc:
                results.append(exc)
        return results

    async def execute(self, request: AttemptRequest) -> AttemptOutcome:
        """Async wrapper the service awaits (under its own timeout)."""
        import asyncio

        return await asyncio.to_thread(self.run_sync, request)

    async def execute_batch(
        self, requests: list[AttemptRequest]
    ) -> list[AttemptOutcome | BaseException]:
        """Async batch wrapper; exception values, never raises per-item."""
        import asyncio

        return await asyncio.to_thread(self.run_batch_sync, requests)

    # -- metric helpers (thread-safe) --------------------------------------------

    def _note_dispatch(self, waited_s: float, request: AttemptRequest) -> None:
        self._note_batch_dispatch(waited_s, [request])

    def _note_batch_dispatch(self, waited_s: float, requests: list[AttemptRequest]) -> None:
        """Record one dispatch unit carrying *requests* attempts."""
        with self._mlock:
            for request in requests:
                self._attempts.inc(backend=self.name, kind=request.kind)
                self._busy_g.inc(kind="busy")
            self._dispatch_h.observe(waited_s)
            self._batch_h.observe(float(len(requests)))

    def _note_done(self, count: int = 1) -> None:
        with self._mlock:
            self._busy_g.dec(float(count), kind="busy")

    def _note_arena_lease(self, reused: bool) -> None:
        with self._mlock:
            if reused:
                self._arena_reuse.inc(backend=self.name)
            else:
                self._arena_miss.inc(backend=self.name)

    def _note_ipc(self, nbytes: int, direction: str) -> None:
        with self._mlock:
            self._ipc_bytes.inc(nbytes, direction=direction)

    def _note_restart(self, reason: str) -> None:
        with self._mlock:
            self._restarts.inc(reason=reason)

    def _note_transport_error(self, kind: str) -> None:
        with self._mlock:
            self._transport_errs.inc(kind=kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(capacity={self.capacity})"


class _SlotTimer:
    """Measures time-to-slot for the ``executor_dispatch_seconds`` histogram."""

    __slots__ = ("t0",)

    def __init__(self) -> None:
        self.t0 = time.perf_counter()

    def waited(self) -> float:
        return time.perf_counter() - self.t0


def make_executor(
    kind: str,
    workers: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> Executor:
    """Construct a backend by name (the ``--executor`` CLI switch).

    *workers* bounds backend concurrency: thread-pool width for
    ``thread``, pool size for ``process``; ignored by ``inline``.
    """
    require(kind in BACKENDS, f"unknown executor {kind!r}; have {BACKENDS}")
    from repro.exec.inline import InlineExecutor
    from repro.exec.process import ProcessExecutor
    from repro.exec.thread import ThreadExecutor

    if kind == "inline":
        return InlineExecutor(metrics=metrics)
    if kind == "thread":
        return ThreadExecutor(workers=workers or 4, metrics=metrics)
    return ProcessExecutor(workers=workers or 2, metrics=metrics)
