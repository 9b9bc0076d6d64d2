"""Shared-memory transport resilience: leaks, healing, and integrity.

The process backend's shm contract: the parent is the *only* owner of
/dev/shm segments (nothing leaks, even through crashes or a failed pool
start), a segment vanishing underneath a dispatch is retryable and heals,
and a factor corrupted in transit never reaches the caller.
"""

from __future__ import annotations

import gc
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.exec import AttemptRequest, InlineExecutor, ProcessExecutor
from repro.exec.process import _WorkerHandle
from repro.hetero.machine import Machine
from repro.hetero.memory import SharedArena
from repro.service.job import Job
from repro.util.exceptions import ShmIntegrityError, ShmTransportError, WorkerCrashedError

SHM_DIR = Path("/dev/shm")


def _residue() -> set[str]:
    """Names of this test run's arena segments currently in /dev/shm."""
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
        pytest.skip("no /dev/shm to observe")
    return {p.name for p in SHM_DIR.glob("rx-*")} | {p.name for p in SHM_DIR.glob("shmtest-*")}


def _job(job_id: int = 0) -> Job:
    return Job(job_id=job_id, n=64, block_size=32, seed=11)


def _request(job: Job) -> AttemptRequest:
    return AttemptRequest(job=job, preset="tardis", machine=Machine.preset("tardis"))


@pytest.fixture(scope="module")
def pool():
    executor = ProcessExecutor(workers=1)
    executor.start_sync()
    yield executor
    executor.stop_sync()


class TestArenaLifecycle:
    def test_release_unlinks_the_segment(self):
        arena = SharedArena("shmtest-rel")
        _, desc = arena.lease((8, 8))
        assert (SHM_DIR / desc.name).exists()
        arena.release()
        assert not (SHM_DIR / desc.name).exists()
        arena.release()  # idempotent

    def test_finalizer_reaps_on_abandonment(self):
        # An executor that dies without release() must not leave residue:
        # the weakref.finalize safety net unlinks at collection.
        arena = SharedArena("shmtest-fin")
        view, desc = arena.lease((8, 8))
        name = desc.name
        assert (SHM_DIR / name).exists()
        del arena
        gc.collect()
        assert not (SHM_DIR / name).exists()
        del view

    def test_unlink_backing_keeps_the_mapping(self):
        arena = SharedArena("shmtest-unlink")
        view, desc = arena.lease((4, 4))
        arena.unlink_backing()
        assert not (SHM_DIR / desc.name).exists()
        view[0, 0] = 7.0  # the mapping survives the unlink
        assert view[0, 0] == 7.0
        arena.unlink_backing()  # tolerates the name already being gone
        del view
        arena.release()

    def test_mark_stale_heals_on_next_lease(self):
        arena = SharedArena("shmtest-stale")
        _, first = arena.lease((4, 4))
        arena.mark_stale()
        _, second = arena.lease((4, 4))
        assert second.name != first.name
        assert not (SHM_DIR / first.name).exists()
        assert (SHM_DIR / second.name).exists()
        arena.release()


class TestPoolLeaks:
    def test_stop_leaves_no_shm_residue(self):
        before = _residue()
        executor = ProcessExecutor(workers=2)
        executor.start_sync()
        executor.run_sync(_request(_job()))
        executor.stop_sync()
        assert _residue() <= before

    def test_crash_and_respawn_leave_no_residue(self, pool):
        before = _residue()
        pool.inject_crash()
        with pytest.raises(Exception):
            pool.run_sync(_request(_job(1)))
        outcome = pool.run_sync(_request(_job(2)))  # the respawned worker serves
        assert outcome.factor is not None
        # The respawn swapped queues/processes but reused the slot arena:
        # nothing beyond the live segments existed before is left behind.
        # An attempt leases two slots — the matrix slot and the recovery
        # snapshot slot — both parked warm on the arena free-list.
        assert len(_residue() - before) <= 2

    def test_stop_during_a_replacement_waits_for_it_and_leaves_nothing(self, hold_spawns):
        before = _residue()
        executor = ProcessExecutor(workers=2)
        executor.start_sync()
        originals = [h.process for h in executor._handles]
        gate, replacements = hold_spawns()
        stopper = threading.Thread(target=executor.stop_sync)
        try:
            executor.inject_crash()
            with pytest.raises(WorkerCrashedError):
                executor.run_sync(_request(_job()))
            stopper.start()
            stopper.join(0.5)
            assert stopper.is_alive()  # held by the replacement's slot
        finally:
            gate.set()
            if stopper.is_alive():
                stopper.join(60.0)
            else:
                executor.stop_sync()
        assert not stopper.is_alive()
        assert len(replacements) == 1  # the replacement finished before teardown
        assert executor.drained_pool == (2, 2)
        assert not any(proc.is_alive() for proc in originals + replacements)
        assert _residue() <= before

    def test_failed_pool_start_cleans_up(self, monkeypatch):
        before = _residue()
        real_spawn = _WorkerHandle.spawn
        calls = {"n": 0}

        def flaky_spawn(self):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise OSError("fork bomb guard: no more processes")
            real_spawn(self)

        monkeypatch.setattr(_WorkerHandle, "spawn", flaky_spawn)
        executor = ProcessExecutor(workers=2)
        with pytest.raises(OSError):
            executor.start_sync()
        assert executor._handles == [] and executor._idle == []
        assert _residue() <= before  # the half-started pool left nothing


class TestShmFaults:
    def test_corrupted_factor_is_caught_by_crc(self, pool):
        pool.inject_shm_corruption()
        before = pool.metrics["executor_transport_errors_total"].value(kind="corrupt_factor")
        with pytest.raises(ShmIntegrityError):
            pool.run_sync(_request(_job(3)))
        after = pool.metrics["executor_transport_errors_total"].value(kind="corrupt_factor")
        assert after == before + 1
        # The retry gets a clean, bit-identical factor.
        reference = InlineExecutor().run_sync(_request(_job(3)))
        outcome = pool.run_sync(_request(_job(3)))
        assert np.array_equal(outcome.factor, reference.factor)

    def test_vanished_segment_is_retryable_and_heals(self):
        # Needs a worker with no warm mapping: the unlink must hit its
        # *first* attach, so this test owns a fresh single-worker pool.
        executor = ProcessExecutor(workers=1)
        executor.start_sync()
        try:
            executor.inject_shm_truncation()
            with pytest.raises(ShmTransportError):
                executor.run_sync(_request(_job(4)))
            lost = executor.metrics["executor_transport_errors_total"].value(
                kind="missing_segment"
            )
            assert lost == 1
            reference = InlineExecutor().run_sync(_request(_job(4)))
            outcome = executor.run_sync(_request(_job(4)))  # healed arena
            assert np.array_equal(outcome.factor, reference.factor)
        finally:
            executor.stop_sync()
