"""Thread backend: ``asyncio.to_thread`` attempts, bounded by a semaphore.

The historical service behaviour, now behind the :class:`Executor`
protocol: each attempt runs in the default thread pool, concurrency is
capped at *workers*, and the GIL still serializes the NumPy-adjacent
Python glue — which is exactly the ceiling the process backend exists to
break.
"""

from __future__ import annotations

import threading

from repro.exec.base import AttemptRequest, Executor, _SlotTimer
from repro.exec.inline import run_request
from repro.service.metrics import MetricsRegistry
from repro.service.policy import AttemptOutcome


class ThreadExecutor(Executor):
    """Run attempts on worker threads (at most *workers* at once)."""

    name = "thread"

    def __init__(self, workers: int = 4, metrics: MetricsRegistry | None = None) -> None:
        super().__init__(capacity=workers, metrics=metrics)
        self._slots = threading.Semaphore(workers)

    def run_sync(self, request: AttemptRequest) -> AttemptOutcome:
        timer = _SlotTimer()
        with self._slots:
            self._note_dispatch(timer.waited(), request)
            try:
                return run_request(request)
            finally:
                self._note_done()
