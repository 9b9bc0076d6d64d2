"""Inline backend: attempts run on the caller's thread, no concurrency.

The reference backend: zero dispatch machinery, deterministic by
construction, and the baseline the scaling benchmark normalizes against.
Because an attempt blocks the event loop, the service's per-attempt
``asyncio.wait_for`` cannot preempt it mid-flight — timeouts are only
observed between attempts.  Use it for debugging and determinism pinning,
never for serving.
"""

from __future__ import annotations

from repro.exec.base import AttemptRequest, Executor
from repro.hetero.machine import Machine
from repro.service import policy
from repro.service.metrics import MetricsRegistry
from repro.service.policy import AttemptOutcome


def run_request(request: AttemptRequest) -> AttemptOutcome:
    """Resolve and run one request in this process (shared by inline/thread).

    ``execute_attempt`` / ``execute_fallback`` are looked up through the
    policy module at call time so tests can monkeypatch them there and
    reach every in-process backend.
    """
    machine = request.machine if request.machine is not None else Machine.preset(request.preset)
    if request.kind == "attempt":
        return policy.execute_attempt(request.job, machine, timeline=request.timeline)
    return policy.execute_fallback(request.job, machine, request.retry, timeline=request.timeline)


class InlineExecutor(Executor):
    """Run every attempt synchronously in the calling thread."""

    name = "inline"

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        super().__init__(capacity=1, metrics=metrics)

    def run_sync(self, request: AttemptRequest) -> AttemptOutcome:
        self._note_dispatch(0.0, request)  # no slot to wait for
        try:
            return run_request(request)
        finally:
            self._note_done()

    async def execute(self, request: AttemptRequest) -> AttemptOutcome:
        # Deliberately NOT off-thread: inline means "block right here".
        return self.run_sync(request)

    def _run_batch_inline(
        self, requests: list[AttemptRequest]
    ) -> list[AttemptOutcome | BaseException]:
        # Mirrors the base run_batch_sync loop on purpose: execute_batch
        # deliberately blocks the event loop, so it must only reach this
        # backend's own run_sync — never the polymorphic batch helper,
        # whose other implementations block on worker queues.
        results: list[AttemptOutcome | BaseException] = []
        for request in requests:
            try:
                results.append(self.run_sync(request))
            except Exception as exc:
                results.append(exc)
        return results

    async def execute_batch(self, requests: list[AttemptRequest]):
        # Like execute(): a batch on the inline backend blocks right here.
        return self._run_batch_inline(requests)
