"""Process backend: a persistent spawn pool with shared-memory transport.

This is the multicore path: *workers* long-lived processes (spawned once,
kept warm — see :mod:`repro.exec.worker`), each owning one inbox/outbox
queue pair and one parent-owned :class:`~repro.hetero.memory.SharedArena`.
The dispatch unit is a **batch** of attempts (a singleton is just a batch
of one — ``run_sync`` literally runs ``run_batch_sync([request])``, which
is what pins batched/singleton bit-identity by construction):

1. the parent leases one view per real-mode item from the checked-out
   worker's arena — warm segments come back off the arena's size-class
   free-list, so steady-state traffic creates nothing — and fills each
   with the job's deterministic input matrix; **this, not a pickle, is
   how matrices travel** (rule RPL007);
2. the batch payload (job records, preset names, shm *descriptors*, plus
   the names of any segments the arena trimmed since last time) is
   pickled and queued as **one wire message / one worker wakeup**; the
   worker factors each shared view in place, which leaves the factor
   bytes in the same segments, and streams one reply per item as it
   completes;
3. the parent waits on the outbox and the worker's process sentinel
   together — a dead process (crash, OOM kill, test-injected
   ``os._exit``) loses only the items it had not yet answered: exactly
   those come back at once as
   :class:`~repro.util.exceptions.WorkerCrashedError`, salvage attached,
   and the service's retry ladder requeues them, while the batch's
   already-streamed survivors keep their results.  The replacement worker
   starts on a background thread, imports at idle CPU priority, and its
   slot rejoins the pool only once it reports ready, so a crash costs its
   job a retry or a forward resume, never an interpreter start; the pool
   runs one worker short meanwhile.

``stop()`` drains: it takes every slot (so it also waits out a
replacement still starting), every worker gets a stop sentinel, is joined
(then terminated if wedged), and every arena segment is unlinked — the
parent is the only owner of shared memory, always.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import pickle
import sys
import threading
import time
import zlib
from collections import deque

import numpy as np

from repro.exec.base import AttemptRequest, Executor, _SlotTimer
from repro.exec.worker import worker_main
from repro.faults.injector import FiredFault
from repro.hetero.memory import SharedArena
from repro.recovery.snapshot import SnapshotLayout, read_snapshot, zero_epochs
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RESUMABLE_SCHEMES, AttemptOutcome, job_matrix
from repro.util.exceptions import (
    ExecutorError,
    ShmIntegrityError,
    ShmTransportError,
    WorkerCrashedError,
    WorkerTaskError,
)
from repro.util.validation import require

#: What a replacement worker runs instead of a plain ``worker_main`` call.
#: On Linux a nice value belongs to one thread, so a process may lower it
#: for part of its life without privileges: the imports run on a helper
#: thread at nice 19, taking only CPU the live jobs leave idle and never
#: waking ahead of them, and the main thread then serves at its normal
#: priority.  NumPy loads first, on the main thread, so any BLAS threads
#: it starts keep that priority.  It is source, not a function, because
#: unpickling a function from ``repro`` would import the package first.
_IDLE_START = """
import os
import threading
import numpy

def import_worker():
    try:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
    except OSError:
        pass
    import repro.exec.worker

helper = threading.Thread(target=import_worker)
helper.start()
helper.join()
from repro.exec.worker import worker_main
worker_main(*args)
"""
#: How long a spawning worker may take to report ready (imports included).
_READY_TIMEOUT_S = 120.0
#: Per-attempt silence ceiling when the request carries no timeout
#: (synchronous bench/test callers); the service always passes one.
_DEFAULT_DEADLINE_S = 600.0
#: Slack added to the request timeout before a silent worker is declared
#: wedged, so the caller's own ``asyncio.wait_for`` fires first and the
#: kill only reclaims slots the async layer already abandoned.
_DEADLINE_GRACE_S = 2.0


class _WorkerHandle:
    """Parent-side record of one pool worker slot.

    ``process is None`` means the slot has no worker: its last one was
    lost, or a replacement failed to start, and the next checkout must
    start one before it dispatches.
    """

    def __init__(self, worker_id: int, ctx, arena_tag: str) -> None:
        self.worker_id = worker_id
        self.ctx = ctx
        self.arena = SharedArena(arena_tag)
        self.process = None
        self.inbox = None
        self.outbox = None

    def spawn(self, idle: bool = False) -> None:
        """Start a worker and wait for its ready handshake.

        *idle* (on Linux) makes the worker import at the lowest CPU
        priority (``_IDLE_START``), for a replacement that starts while
        other jobs run.  A child that exits before it reports ready
        (import error, OOM kill) fails the handshake as soon as it is
        gone, not at the timeout.  On failure the half-started worker is
        torn down, so the handle is left empty and the start can be
        retried.
        """
        try:
            self.inbox = self.ctx.Queue()
            self.outbox = self.ctx.Queue()
            target, args = worker_main, (self.worker_id, self.inbox, self.outbox)
            if idle and sys.platform.startswith("linux"):
                target, args = exec, (_IDLE_START, {"args": args})
            self.process = self.ctx.Process(
                target=target, args=args, daemon=True, name=f"repro-exec-w{self.worker_id}"
            )
            self.process.start()
            msg = self.recv(time.monotonic() + _READY_TIMEOUT_S)
            if msg is None or msg[0] != "ready":
                raise WorkerCrashedError(
                    f"pool worker {self.worker_id} failed its ready handshake "
                    f"(exitcode {self.process.exitcode}, reply {msg!r})"
                )
        except BaseException:
            self.discard()
            raise

    def recv(self, deadline: float):
        """The next outbox message; ``None`` once *deadline* passes or the worker exits.

        Waits on the outbox pipe and the process sentinel together, so a
        death wakes the wait at once.  Messages the worker flushed before
        it died still come first.  An exited worker is reaped before the
        ``None`` return, so ``process.exitcode`` tells the two cases apart.
        """
        reader = self.outbox._reader  # the pipe end Queue.get reads
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                return None
            ready = multiprocessing.connection.wait([reader, self.process.sentinel], remaining)
            if reader in ready:
                return self.outbox.get()
            if ready:
                self.process.join()  # the sentinel fired: reaps at once
                return None

    def discard(self) -> None:
        """Kill the worker and close its queues; the slot's arena stays."""
        try:
            if self.process is not None and self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
            for q in (self.inbox, self.outbox):
                if q is not None:
                    q.close()
                    q.cancel_join_thread()
        finally:
            self.process = self.inbox = self.outbox = None

    def close(self) -> None:
        # The arena release is the part that frees /dev/shm; it must run
        # even when the kill or queue teardown throws (a worker that died
        # mid-dispatch can leave queue feeder threads in odd states).
        try:
            self.discard()
        finally:
            self.arena.release()


class ProcessExecutor(Executor):
    """Persistent multi-process pool with zero-copy matrix transport."""

    name = "process"

    def __init__(self, workers: int = 2, metrics: MetricsRegistry | None = None) -> None:
        super().__init__(capacity=workers, metrics=metrics)
        self._ctx = multiprocessing.get_context("spawn")
        self._slots = threading.Semaphore(workers)
        self._lock = threading.Lock()
        self._idle: list[_WorkerHandle] = []
        self._handles: list[_WorkerHandle] = []
        self._task_ids = itertools.count(1)
        self._started = False
        self._stopping = False
        # One-shot chaos overlays, consumed FIFO by the next dispatches.
        # Worker-side keys ("crash", "wedge") ride in the task payload;
        # parent-side keys ("truncate_shm", "corrupt_shm") are acted on
        # around the shm transport without the worker's knowledge.
        self._chaos: deque[dict] = deque()
        #: ``(live workers, idle slots)`` as the last ``stop_sync`` found the
        #: pool once it held every slot; a whole pool reads ``(capacity,
        #: capacity)`` (the chaos battery checks it).
        self.drained_pool: tuple[int, int] | None = None

    # -- lifecycle ---------------------------------------------------------------

    def start_sync(self, warm: list[tuple[int, int]] | None = None) -> None:
        """Spawn the pool (idempotent, thread-safe); optionally pre-warm."""
        with self._lock:
            self._start_locked(warm)

    def _start_locked(self, warm: list[tuple[int, int]] | None = None) -> None:
        """Spawn under ``self._lock`` — concurrent first dispatches through
        ``run_sync`` must not each bring up a full pool."""
        if self._started:
            return
        require(not self._stopping, "executor is stopping")
        base = f"rx-{multiprocessing.current_process().pid}-{id(self) & 0xFFFF:x}"
        try:
            for wid in range(self.capacity):
                handle = _WorkerHandle(wid, self._ctx, f"{base}-w{wid}")
                # Track before spawn: if spawn itself fails the cleanup
                # below still releases this slot's arena and queues.
                self._handles.append(handle)
                handle.spawn()
                if warm:
                    handle.inbox.put(("warm", [(int(n), int(b)) for n, b in warm]))
                self._idle.append(handle)
        except BaseException:
            # Partial start must not leak workers or /dev/shm segments.
            for handle in self._handles:
                handle.close()
            self._handles.clear()
            self._idle.clear()
            raise
        self._started = True

    async def start(self) -> None:
        import asyncio

        await asyncio.to_thread(self.start_sync)

    def stop_sync(self) -> None:
        """Graceful drain: stop sentinels, join, then hard teardown."""
        with self._lock:
            if not self._started or self._stopping:
                return
            # Turns away new dispatches while we wait for the in-flight
            # ones; the slot acquisition below must happen outside the
            # lock, because finishing attempts need it to check back in.
            self._stopping = True
        # Taking every slot guarantees no attempt is in flight.  The count
        # of slots actually taken is tracked so a failure mid-acquisition
        # releases exactly that many — releasing ``capacity`` after a
        # partial acquire would inflate the semaphore and let more
        # attempts run concurrently than the pool has workers.
        acquired = 0
        try:
            for _ in range(self.capacity):
                self._slots.acquire()  # noqa: RPL101 — loop-paired with the release loop below; the counter keeps the pairing exact
                acquired += 1
            with self._lock:
                live = sum(h.process is not None and h.process.is_alive() for h in self._handles)
                self.drained_pool = (live, len(self._idle))
                for handle in self._handles:
                    if handle.process is not None and handle.process.is_alive():
                        handle.inbox.put(("stop",))
                for handle in self._handles:
                    if handle.process is not None:
                        handle.process.join(timeout=5.0)
                    handle.close()
                self._handles.clear()
                self._idle.clear()
                self._started = False
        finally:
            with self._lock:
                self._stopping = False
            for _ in range(acquired):
                self._slots.release()

    async def stop(self) -> None:
        import asyncio

        await asyncio.to_thread(self.stop_sync)

    # -- chaos hooks -------------------------------------------------------------

    def _arm(self, overlay: dict, count: int) -> None:
        require(count >= 1, "injection count must be >= 1")
        with self._lock:
            self._chaos.extend(dict(overlay) for _ in range(count))

    def inject_crash(self, count: int = 1, at_item: int = 0) -> None:
        """Arm worker crashes on upcoming dispatched attempts.

        Deterministic stand-in for an OOM kill mid-attempt; used by the
        retry-ladder requeue tests (``count > 1`` exhausts the ladder).
        Overlays are consumed one per *item*, so ``at_item`` pads the
        queue with that many no-op overlays first — with batched
        dispatch this places the crash mid-batch: items before it stream
        their replies and survive, items from it on are lost.
        """
        require(at_item >= 0, "at_item must be >= 0")
        if at_item:
            self._arm({}, at_item)
        self._arm({"crash": True}, count)

    def inject_wedge(self, seconds: float, count: int = 1) -> None:
        """Arm one-shot stalls: the next attempts' workers hang *seconds*.

        Deterministic stand-in for a worker stuck in native code; used by
        the deadline-reclaim tests.
        """
        self._arm({"wedge": float(seconds)}, count)

    def inject_shm_truncation(self, count: int = 1) -> None:
        """Arm /dev/shm segment removal under the next dispatched attempts.

        The parent unlinks the segment *after* filling it, so a worker
        without a warm mapping fails its attach (``FileNotFoundError`` →
        :class:`ShmTransportError` parent-side) and the arena heals on
        the next lease.  A worker already attached keeps its mapping —
        exactly the asymmetry a real tmpfs sweep exhibits.
        """
        self._arm({"truncate_shm": True}, count)

    def inject_shm_corruption(self, count: int = 1) -> None:
        """Arm in-transit factor corruption for the next dispatched attempts.

        The parent scribbles on the shared view after the worker's reply
        (between the worker's CRC stamp and the parent's copy-out), so the
        integrity check must catch it and raise :class:`ShmIntegrityError`.
        """
        self._arm({"corrupt_shm": True}, count)

    def inject_midrun_crash(
        self, after_iteration: int = 0, count: int = 1, corrupt_rows: tuple = ()
    ) -> None:
        """Arm worker death at an iteration boundary, snapshot published first.

        Unlike :meth:`inject_crash` (which dies before any work), the
        worker factors through iteration *after_iteration*, publishes the
        snapshot, and only then ``os._exit``\\ s — the deterministic
        stand-in for an OOM kill mid-attempt with salvageable state.
        *corrupt_rows* additionally scribbles those global matrix rows of
        the surviving snapshot before the parent reads it, turning them
        into CRC-detected known-location erasures (rows sharing one block
        row beyond the ``m``-erasure capacity force backward recovery).
        """
        require(after_iteration >= 0, "after_iteration must be >= 0")
        overlay: dict = {"crash_after": int(after_iteration)}
        if corrupt_rows:
            overlay["corrupt_snapshot"] = tuple(int(r) for r in corrupt_rows)
        self._arm(overlay, count)

    def _next_chaos(self) -> dict:
        with self._lock:
            return self._chaos.popleft() if self._chaos else {}

    # -- execution ---------------------------------------------------------------

    def run_sync(self, request: AttemptRequest) -> AttemptOutcome:
        """One attempt == a batch of one; unwrap the value or raise it."""
        result = self.run_batch_sync([request])[0]
        if isinstance(result, BaseException):
            raise result
        return result

    def run_batch_sync(self, requests: list[AttemptRequest]) -> list[AttemptOutcome | BaseException]:
        """Run a batch on ONE worker round-trip; failures come back as values."""
        require(len(requests) >= 1, "empty dispatch batch")
        with self._lock:
            require(not self._stopping, "executor is stopping")
            self._start_locked()
        timer = _SlotTimer()
        handle = None
        dispatched = False
        self._slots.acquire()  # noqa: RPL101 — _check_in releases it, on this thread or, for a lost worker, on its replacement's
        try:
            with self._lock:
                if not self._idle:
                    # stop_sync won the race for this slot and tore the pool
                    # down while we waited; there is no worker to dispatch to.
                    raise ExecutorError("executor stopped while the attempt waited for a slot")
                handle = self._idle.pop()
            if handle.process is None:
                self._restart(handle)
            self._note_batch_dispatch(timer.waited(), requests)
            dispatched = True
            try:
                return self._dispatch_batch(handle, requests)
            finally:
                self._note_done(len(requests))
        finally:
            if dispatched and handle.process is None:
                self._replace(handle)  # the worker was lost mid-batch
            else:
                self._check_in(handle)

    def _check_in(self, handle: _WorkerHandle | None) -> None:
        """Return *handle* to the idle list and free its slot."""
        try:
            with self._lock:
                if handle is not None:
                    self._idle.append(handle)
        finally:
            # Must check the handle back in *before* releasing the slot
            # (a freed slot with an empty idle list strands the next
            # attempt), and must release even if the check-in throws.
            self._slots.release()

    def _replace(self, handle: _WorkerHandle) -> None:
        """Start a lost worker's successor off the dispatch path.

        The successor imports at idle CPU priority, so its start-up does
        not slow the jobs running meanwhile.  The slot stays taken until
        the successor reports ready, so the dispatches in between go to
        live workers (capacity is one short meanwhile) and ``stop_sync``,
        which takes every slot, waits for it.  A successor that fails to
        start still frees the slot: the handle goes back empty and its
        next checkout retries the start.
        """
        try:
            threading.Thread(
                target=self._respawn,
                args=(handle,),
                name=f"repro-exec-respawn-w{handle.worker_id}",
                daemon=True,
            ).start()
        except RuntimeError:
            # No thread to spare: check the empty handle straight back in;
            # its next checkout starts the worker inline.
            self._check_in(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Background body of :meth:`_replace`."""
        try:
            handle.spawn(idle=True)
        except Exception:  # noqa: RPL008 — not dropped: the next checkout retries the start and raises WorkerCrashedError
            pass
        finally:
            self._check_in(handle)

    def _restart(self, handle: _WorkerHandle) -> None:
        """Start a worker inline for a slot whose replacement failed to start."""
        try:
            handle.spawn()
        except Exception as exc:
            raise WorkerCrashedError(
                f"pool worker {handle.worker_id} could not be restarted ({exc})"
            ) from exc

    def _dispatch_batch(
        self, handle: _WorkerHandle, requests: list[AttemptRequest]
    ) -> list[AttemptOutcome | BaseException]:
        views: list[np.ndarray | None] = []
        descs = []
        snaps: list[np.ndarray | None] = []
        snap_descs = []
        overlays: list[dict] = []
        items: list[dict] = []
        budget = 0.0
        for request in requests:
            job = request.job
            chaos = self._next_chaos()
            view = desc = None
            snap_view = snap_desc = None
            if job.numerics == "real":
                view, desc = handle.arena.lease((job.n, job.n))
                self._note_arena_lease(handle.arena.last_lease_reused)
                np.copyto(view, job_matrix(job))
                if chaos.get("truncate_shm"):
                    handle.arena.unlink_backing(desc.name)
                if (
                    request.kind == "attempt"
                    and job.scheme in RESUMABLE_SCHEMES
                    and job.n % job.block_size == 0
                ):
                    # Bad geometry is deliberately NOT caught here: the
                    # job still ships (snapshot-less) so the scheme's own
                    # typed error crosses the boundary from the worker.
                    # Snapshot segment for forward recovery.  Not counted
                    # as an arena op: it is transport plumbing for the
                    # attempt's lease, not a second attempt.  The epoch
                    # words are zeroed because the warm free-list reuses
                    # segments byte-for-byte — a stale snapshot from a
                    # previous job must never validate.
                    layout = SnapshotLayout(job.n, job.block_size)
                    snap_view, snap_desc = handle.arena.lease(layout.shape)
                    zero_epochs(snap_view)
            item = {
                "job": job,
                "preset": request.preset,
                "kind": request.kind,
                "retry": request.retry,
                "timeline": request.timeline,
                "input": desc,
                "snapshot": snap_desc,
            }
            for key in ("crash", "wedge", "crash_after"):
                if key in chaos:
                    item[key] = chaos[key]
            items.append(item)
            views.append(view)
            descs.append(desc)
            snaps.append(snap_view)
            snap_descs.append(snap_desc)
            overlays.append(chaos)
            budget += request.timeout_s if request.timeout_s is not None else _DEFAULT_DEADLINE_S
        # Trimmed segment names ride along so the worker can drop the
        # stale mappings before it touches this batch's descriptors.
        blob = pickle.dumps({"items": items, "retired": handle.arena.drain_retired()})
        self._note_ipc(
            len(blob) + sum(d.nbytes for d in descs if d is not None), "to_worker"
        )
        batch_id = next(self._task_ids)
        deadline = time.monotonic() + budget + _DEADLINE_GRACE_S
        handle.inbox.put(("batch", batch_id, blob))
        results: list[AttemptOutcome | BaseException | None] = [None] * len(requests)
        pending = set(range(len(requests)))
        try:
            while pending:
                try:
                    reply = self._await_item(handle, batch_id, deadline)
                except WorkerCrashedError as exc:
                    # The worker died (or wedged past its deadline) with
                    # these items unanswered: each gets its own error so
                    # every affected job re-enters the retry ladder; the
                    # batch's already-streamed survivors are untouched.
                    # Whatever iteration-boundary state the dead worker
                    # published is salvaged off the error so the service
                    # can attempt forward recovery before restarting.
                    for index in sorted(pending):
                        err = WorkerCrashedError(str(exc))
                        err.salvage = self._salvage_snapshot(
                            requests[index].job, snaps[index], overlays[index]
                        )
                        results[index] = err
                    pending.clear()
                    break
                index = reply[2]
                if index not in pending:
                    continue  # duplicate/stale reply: drop it
                results[index] = self._settle_item(
                    handle,
                    requests[index],
                    reply,
                    views[index],
                    descs[index],
                    overlays[index],
                    snaps[index],
                )
                pending.discard(index)
        finally:
            for desc in itertools.chain(descs, snap_descs):
                if desc is not None:
                    handle.arena.end_lease(desc)
        return results  # type: ignore[return-value]

    def _settle_item(
        self,
        handle: _WorkerHandle,
        request: AttemptRequest,
        reply: tuple,
        view: np.ndarray | None,
        desc,
        chaos: dict,
        snap_view: np.ndarray | None = None,
    ) -> AttemptOutcome | BaseException:
        """Turn one streamed item reply into an outcome or exception value."""
        status = reply[3]
        if status == "err":
            _, _, _, _, exc_type, message, inj = reply
            self._sync_injector(request.job, inj)
            if exc_type == "FileNotFoundError":
                # The worker's attach found the segment gone from /dev/shm
                # (external sweep, or the truncation chaos hook).  Drop just
                # that segment — other leases stay warm — and requeue.
                if desc is not None:
                    handle.arena.discard(desc.name)
                self._note_transport_error("missing_segment")
                return ShmTransportError(
                    f"worker {handle.worker_id} lost shm segment {desc.name if desc else '?'} "
                    f"mid-attempt ({message}); segment dropped, attempt requeued"
                )
            return WorkerTaskError(exc_type, message)
        body, inj = reply[4], reply[5]
        self._sync_injector(request.job, inj)
        outcome: AttemptOutcome = pickle.loads(body)
        self._note_ipc(len(body) + (desc.nbytes if desc is not None else 0), "from_worker")
        if outcome.extras.pop("factor_in_shm", False) and view is not None:
            expected_crc = outcome.extras.pop("factor_crc", None)
            if chaos.get("corrupt_shm"):
                view[0, -1] += 1.0  # scribble between the worker's CRC stamp and our read
            if expected_crc is not None and zlib.crc32(view) != expected_crc:
                self._note_transport_error("corrupt_factor")
                err = ShmIntegrityError(
                    f"worker {handle.worker_id}'s factor failed its CRC check crossing "
                    "shared memory; result discarded, attempt requeued"
                )
                # The factor bytes are untrusted, but the attempt's own
                # iteration-boundary snapshots are independently CRC'd —
                # salvage the freshest so recovery can resume forward.
                err.salvage = self._salvage_snapshot(request.job, snap_view, chaos)
                return err
            outcome.factor = np.array(view)  # detach from the arena before reuse
        else:
            outcome.extras.pop("factor_crc", None)
        return outcome

    def _salvage_snapshot(self, job, snap_view: np.ndarray | None, chaos: dict):
        """Read the freshest decodable snapshot off a failed item's segment.

        Returns a :class:`~repro.recovery.salvage.Salvage` (parent-owned
        copies; the lease may end immediately after) or ``None`` when the
        attempt never published.  The ``corrupt_snapshot`` chaos overlay
        scribbles the named matrix rows first, so their CRCs fail and the
        reader classifies them as known-location erasures.
        """
        if snap_view is None:
            return None
        layout = SnapshotLayout(job.n, job.block_size)
        for row in chaos.get("corrupt_snapshot", ()):
            for slot in range(2):
                layout.matrix_view(snap_view[slot])[row, :] += 1.0
        salvage = read_snapshot(snap_view, layout)
        if salvage is not None and (salvage.bad_matrix_rows or salvage.bad_chk_rows):
            self._note_transport_error("snapshot_rows")
        return salvage

    @staticmethod
    def _sync_injector(job, state: dict | None) -> None:
        """Apply the worker's post-run injector delta to the parent's copy.

        The worker ran against a pickled snapshot, so fired plans and
        fired-fault records must be mirrored here for the parent-side
        ``job.injector`` to match what the in-process backends leave
        behind — a fault that fired in the worker stays one-shot across
        retries ("a restarted run must not re-inject").
        """
        injector = job.injector
        if injector is None or state is None:
            return
        for idx, iteration, old_value in state["records"]:
            injector.fired.append(
                FiredFault(plan=injector.plans[idx], iteration=iteration, old_value=old_value)
            )
        for idx in state["fired"]:
            injector.plans[idx].fired = True

    def _await_item(self, handle: _WorkerHandle, batch_id: int, deadline: float):
        """Wait for this batch's next streamed item reply.

        *deadline* (monotonic seconds) bounds the wait: a worker that is
        alive but silent past it — wedged in native code, say — is killed
        so the pool slot is always reclaimed, even though the caller's
        ``asyncio.wait_for`` cannot cancel this thread.  A raise here means
        the worker is gone: the restart is counted, the handle is empty
        (``run_batch_sync`` replaces it off the dispatch path), and the
        caller fails the batch's still-pending items and keeps the settled
        ones.
        """
        while True:
            reply = handle.recv(deadline)
            if reply is None:
                exitcode = handle.process.exitcode
                self._note_restart("crash" if exitcode is not None else "wedged")
                handle.discard()
                if exitcode is None:
                    raise WorkerCrashedError(
                        f"pool worker {handle.worker_id} missed its batch deadline; "
                        "killed and replaced, unanswered attempts requeued"
                    )
                raise WorkerCrashedError(
                    f"pool worker {handle.worker_id} died mid-batch "
                    f"(exitcode {exitcode}); unanswered attempts requeued"
                )
            if reply[0] == "item" and reply[1] == batch_id:
                return reply
            # Stale reply from a cancelled/abandoned batch: drop it.
