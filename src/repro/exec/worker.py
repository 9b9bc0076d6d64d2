"""Pool-worker entry point and warm per-worker state (spawn-safe).

Each process-pool worker runs :func:`worker_main`: a loop over its inbox
queue, executing one *batch* of attempts per message and streaming one
reply per item on its outbox.  The expensive things happen once per
worker lifetime, not once per attempt — that is the pool's whole reason
to be persistent:

- module imports (NumPy + the repro numerics, no SciPy) are paid at spawn;
- :class:`~repro.hetero.machine.Machine` presets are cached by name;
- shared-memory segments are attached once per segment *name* and kept
  mapped (the parent's arena free-list reuses names across jobs, so
  steady-state traffic attaches nothing); the parent tells the worker
  which names it trimmed via the batch's ``retired`` list, and those
  mappings are closed before the batch runs;
- per-geometry scratch workspaces (the pristine-copy buffer every
  real-mode attempt needs) are cached by matrix order, so repeat
  geometries allocate nothing.

Message protocol (parent → worker): ``("batch", batch_id,
payload_bytes)`` where the pickled payload is ``{"items": [item, ...],
"retired": [segment_name, ...]}``, plus ``("warm", [(n, block_size),
...])`` and ``("stop",)``.  Worker → parent: ``("ready", worker_id,
pid)`` once at startup, then **one streamed reply per item, in item
order, as each completes**: ``("item", batch_id, index, "ok",
reply_bytes, injector_state)`` or ``("item", batch_id, index, "err",
exc_type, message, injector_state)``.  Item payloads and replies are
pre-pickled bytes — matrices never ride in them; they cross through the
shared-memory segment named by the item's
:class:`~repro.hetero.memory.ShmDescriptor`.  ``injector_state``
(:func:`injector_state`) carries the run's fault bookkeeping back: the
parent pickles ``job.injector`` fresh per attempt, so without it a fault
fired inside the worker would stay armed on the parent and re-inject on
retry — unlike the in-process backends, which mutate the caller's
injector directly.

Because replies stream per item, a worker that dies mid-batch (the
``crash`` chaos hook flushes the outbox feeder before ``os._exit`` so
the failure point is deterministic) loses only the items it had not yet
answered: the parent turns exactly those into
:class:`~repro.util.exceptions.WorkerCrashedError` values and the
already-streamed survivors keep their results.
"""

from __future__ import annotations

import os
import pickle
import time
import zlib
from typing import Any

import numpy as np

from repro.hetero.machine import Machine
from repro.hetero.memory import ShmDescriptor, attach_shared_array
from repro.recovery.snapshot import SnapshotLayout, SnapshotWriter
from repro.service.policy import execute_attempt, execute_fallback
from repro.util.exceptions import ReproError


class WorkerState:
    """Everything a worker keeps warm across attempts."""

    def __init__(self) -> None:
        self.machines: dict[str, Machine] = {}
        self.segments: dict[str, Any] = {}  # segment name -> SharedMemory attachment
        self.scratch: dict[tuple[int, ...], np.ndarray] = {}

    def machine(self, preset: str) -> Machine:
        mach = self.machines.get(preset)
        if mach is None:
            mach = self.machines[preset] = Machine.preset(preset)
        return mach

    def view(self, desc: ShmDescriptor) -> np.ndarray:
        """A zero-copy ndarray over the descriptor's segment (attach-once).

        Cached per segment *name*: the parent's arena free-list keeps
        several segments alive per arena and reuses their names across
        jobs, so a warm name attaches nothing.  Names the parent trimmed
        arrive in the batch's ``retired`` list and are dropped by
        :meth:`close_segments` — the worker never decides on its own that
        a mapping is dead.
        """
        shm = self.segments.get(desc.name)
        if shm is None:
            shm, _ = attach_shared_array(desc)
            self.segments[desc.name] = shm
        return np.ndarray(desc.shape, dtype=desc.dtype, buffer=shm.buf, offset=desc.offset)

    def close_segments(self, retired: list[str]) -> None:
        """Close mappings for segments the parent unlinked (arena trim)."""
        for name in retired:
            shm = self.segments.pop(name, None)
            if shm is not None:
                shm.close()

    def scratch_for(self, shape: tuple[int, ...]) -> np.ndarray:
        """The warmed per-geometry workspace (allocated on first use)."""
        buf = self.scratch.get(shape)
        if buf is None:
            buf = self.scratch[shape] = np.empty(shape, dtype=np.float64)
        return buf

    def warm(self, geometries: list[tuple[int, int]]) -> None:
        """Pre-touch the caches for the given (n, block_size) geometries."""
        for n, _block in geometries:
            self.scratch_for((int(n), int(n)))

    def close(self) -> None:
        for shm in self.segments.values():
            shm.close()
        self.segments.clear()


def injector_state(payload: dict, fired_before: int) -> dict | None:
    """The post-run injector delta to ship back to the parent (plain data).

    ``fired``: indices of every plan now marked fired (covers both actual
    firing and in-worker ``disarm()``).  ``records``: the
    :class:`~repro.faults.injector.FiredFault` entries this run appended,
    as ``(plan_index, iteration, old_value)`` triples the parent rebuilds
    against its own plan objects.
    """
    injector = payload["job"].injector
    if injector is None:
        return None
    plans = injector.plans
    records = [
        (next(i for i, p in enumerate(plans) if p is fault.plan), fault.iteration, fault.old_value)
        for fault in injector.fired[fired_before:]
    ]
    return {
        "fired": [i for i, p in enumerate(plans) if p.fired],
        "records": records,
    }


def run_task(payload: dict, state: WorkerState, outbox: Any = None) -> Any:
    """Execute one attempt/fallback payload; returns the reply outcome.

    Real-mode matrices arrive and leave through the payload's shm
    descriptor: the parent filled the segment with the job's input bits,
    and the attempt factors the segment in place, so the factor is already
    there (the outcome's ``factor`` field, a view of the segment, is
    stripped before pickling — ``extras["factor_in_shm"]`` tells the
    parent to reattach it).

    When the payload carries a ``snapshot`` descriptor, the attempt's
    driver publishes iteration-boundary state into that segment
    (:class:`~repro.recovery.snapshot.SnapshotWriter`) so the parent can
    salvage a crashed attempt forward instead of restarting it.  The
    ``crash_after`` chaos key kills the process at the first boundary at
    or past that iteration — *after* the publish, so the snapshot is the
    deterministic survivor.
    """
    job = payload["job"]
    machine = state.machine(payload["preset"])
    desc: ShmDescriptor | None = payload.get("input")
    a = state.view(desc) if desc is not None else None
    scratch = state.scratch_for(a.shape) if a is not None else None
    progress = None
    snap_desc: ShmDescriptor | None = payload.get("snapshot")
    if snap_desc is not None and payload["kind"] == "attempt" and a is not None:
        writer = SnapshotWriter(state.view(snap_desc), SnapshotLayout(job.n, job.block_size))
        crash_after = payload.get("crash_after")

        def progress(iteration: int, matrix: np.ndarray, chk: np.ndarray) -> None:
            writer.publish(iteration, matrix, chk)
            if crash_after is not None and iteration >= crash_after:
                # Chaos hook: die at a deterministic iteration boundary.
                # Flush the outbox feeder first (same discipline as the
                # batch-level crash hook) so already-streamed replies
                # survive; the snapshot just published is the salvage.
                if outbox is not None:
                    outbox.close()
                    outbox.join_thread()
                os._exit(44)

    timeline = payload.get("timeline", True)
    if payload["kind"] == "attempt":
        outcome = execute_attempt(job, machine, a=a, scratch=scratch, progress=progress, timeline=timeline)
    else:
        outcome = execute_fallback(job, machine, payload["retry"], a=a, scratch=scratch, timeline=timeline)
    if desc is not None and outcome.factor is not None:
        outcome.factor = None
        outcome.extras["factor_in_shm"] = True
        # Integrity stamp: the parent re-hashes the segment after copying
        # the factor out; a mismatch means the bytes were scribbled on in
        # transit and the attempt is retried instead of returned.
        outcome.extras["factor_crc"] = zlib.crc32(a)
    return outcome


def _run_item(batch_id: int, index: int, payload: dict, state: WorkerState, outbox: Any) -> None:
    """Run one batch item and stream its reply (never raises)."""
    injector = payload["job"].injector
    fired_before = len(injector.fired) if injector is not None else 0
    # Exception only: SystemExit / KeyboardInterrupt / other
    # BaseExceptions mean this process should die and let the parent's
    # respawn path take over, not keep serving in an unknown state.
    try:
        reply = run_task(payload, state, outbox)
        outbox.put(
            ("item", batch_id, index, "ok", pickle.dumps(reply), injector_state(payload, fired_before))
        )
    except ReproError as exc:
        outbox.put(
            (
                "item",
                batch_id,
                index,
                "err",
                type(exc).__name__,
                str(exc),
                injector_state(payload, fired_before),
            )
        )
    except Exception as exc:  # defensive: report, keep serving
        outbox.put(
            (
                "item",
                batch_id,
                index,
                "err",
                type(exc).__name__,
                str(exc),
                injector_state(payload, fired_before),
            )
        )


def worker_main(worker_id: int, inbox: Any, outbox: Any) -> None:
    """The worker process's main loop (spawn target; must stay top-level)."""
    state = WorkerState()
    outbox.put(("ready", worker_id, os.getpid()))
    while True:
        msg = inbox.get()
        tag = msg[0]
        if tag == "stop":
            state.close()
            outbox.put(("bye", worker_id))
            return
        if tag == "warm":
            state.warm(msg[1])
            continue
        _, batch_id, blob = msg
        batch = pickle.loads(blob)
        state.close_segments(batch.get("retired") or [])
        for index, payload in enumerate(batch["items"]):
            if payload.get("crash"):  # test hook: die mid-batch, hard
                # Flush the outbox feeder first so every reply already
                # streamed for this batch survives deterministically —
                # the crash loses exactly the items not yet answered.
                outbox.close()
                outbox.join_thread()
                os._exit(43)
            if payload.get("wedge"):  # test hook: hang mid-attempt
                time.sleep(payload["wedge"])
            _run_item(batch_id, index, payload, state, outbox)
