"""Tests for the checkpoint + periodic-verification baseline."""

import numpy as np
import pytest

from repro.analysis import check_protocol, find_hazards
from repro.baselines.checkpoint import checkpoint_potrf
from repro.blas.spd import random_spd
from repro.core import FtPotrfResult, enhanced_potrf
from repro.faults.injector import (
    FaultInjector,
    FaultPlan,
    Hook,
    single_computing_fault,
    single_storage_fault,
)
from repro.magma.host import factorization_residual, host_potrf
from repro.magma.potrf import magma_potrf

N, BS = 512, 64  # nb = 8


@pytest.fixture
def a0():
    return random_spd(N, rng=41)


def snapshots(timeline) -> list[str]:
    """The snapshot copies a run priced, in order."""
    return [s.name for s in timeline if s.name.startswith("ckpt[")]


class TestCleanRuns:
    def test_factor_correct(self, tardis, a0):
        res = checkpoint_potrf(tardis, a=a0.copy(), block_size=BS, interval=3)
        assert isinstance(res, FtPotrfResult) and res.scheme == "checkpoint"
        np.testing.assert_allclose(res.factor, host_potrf(a0), rtol=1e-9, atol=1e-12)
        assert res.restarts == 0

    def test_checkpoint_count(self, tardis, a0):
        res = checkpoint_potrf(tardis, a=a0.copy(), block_size=BS, interval=3)
        # sweeps after iterations 2 and 5, each snapshotted; the final sweep
        # after iteration 7 is not, since nothing could roll back to it
        assert snapshots(res.timeline) == ["ckpt[3]", "ckpt[6]"]

    def test_interval_one_snapshots_every_iteration_but_the_last(self, tardis, a0):
        res = checkpoint_potrf(tardis, a=a0.copy(), block_size=BS, interval=1)
        assert snapshots(res.timeline) == [f"ckpt[{j}]" for j in range(1, N // BS)]

    def test_costs_more_than_plain(self, tardis):
        plain = magma_potrf(tardis, n=4096, numerics="shadow").makespan
        ckpt = checkpoint_potrf(tardis, n=4096, interval=4, numerics="shadow").makespan
        assert ckpt > plain

    def test_small_interval_costs_more(self, tardis):
        loose = checkpoint_potrf(tardis, n=4096, interval=8, numerics="shadow").makespan
        tight = checkpoint_potrf(tardis, n=4096, interval=1, numerics="shadow").makespan
        assert tight > loose


class TestSchedules:
    @pytest.mark.parametrize("interval", [1, 2, 4, 8])
    def test_schedule_is_race_free_under_the_offline_rules(self, tardis, interval):
        """Every sweep runs after the kernels it checks and before the ones
        after it, and the checksum updates wait for the encoding."""
        res = checkpoint_potrf(tardis, n=2048, block_size=256, interval=interval, numerics="shadow")
        assert find_hazards(res.timeline) == []
        errors = [f for f in check_protocol(res.timeline, "offline") if f.severity == "error"]
        assert errors == [], [f.message for f in errors[:3]]


class TestRecovery:
    def test_storage_fault_corrected_at_the_next_sweep(self, tardis, a0):
        """A storage fault on a finished tile: corrected in place by the
        sweep after the next iteration, so nothing rolls back."""
        inj = single_storage_fault(block=(4, 2), iteration=3, bit=58)
        res = checkpoint_potrf(
            tardis, a=a0.copy(), block_size=BS, interval=2, injector=inj
        )
        assert factorization_residual(a0, res.factor) < 1e-9
        assert res.restarts == 0
        assert res.stats.corrected_sites == [((4, 2), 2, 7)]

    def test_computing_fault_recovered(self, tardis, a0):
        inj = single_computing_fault(block=(5, 3), delta=1e6)
        res = checkpoint_potrf(
            tardis, a=a0.copy(), block_size=BS, interval=2, injector=inj
        )
        assert factorization_residual(a0, res.factor) < 1e-7

    def test_rollback_replays_to_the_fault_free_factor(self, tardis, a0):
        """Two flips in one tile column are beyond the code: the sweep after
        iteration 5 rolls back to the snapshot taken after iteration 3, and
        the replay from it computes the fault-free factor bit for bit."""
        clean = checkpoint_potrf(tardis, a=a0.copy(), block_size=BS, interval=2)
        inj = FaultInjector(
            [
                FaultPlan(Hook.STORAGE_WINDOW, 4, "storage", (6, 3), (2, 7)),
                FaultPlan(Hook.STORAGE_WINDOW, 4, "storage", (6, 3), (9, 7)),
            ]
        )
        res = checkpoint_potrf(
            tardis, a=a0.copy(), block_size=BS, interval=2, injector=inj
        )
        assert res.restarts == 1
        assert snapshots(res.failed_timelines[0]) == ["ckpt[2]", "ckpt[4]"]
        assert res.factor.tobytes() == clean.factor.tobytes()

    def test_rollback_bounded_replay(self, tardis):
        """Shadow mode: an uncorrectable mid-run fault costs at most one
        segment's replay, far less than a full restart: the replay resumes
        from the newest snapshot."""
        clean = checkpoint_potrf(tardis, n=4096, interval=2, numerics="shadow")
        # a fault on the next SYRK's input row crosses into the diagonal
        # tile (row+column corruption) before the sweep can see it:
        # uncorrectable -> rollback
        inj = single_storage_fault(block=(9, 8), iteration=8)
        faulty = checkpoint_potrf(
            tardis, n=4096, interval=2, numerics="shadow", injector=inj
        )
        assert faulty.restarts == 1
        newest = snapshots(faulty.failed_timelines[0])[-1]
        resumed_at = int(newest[len("ckpt["):-1])
        # the replay starts at the snapshot's iteration, after re-encoding
        first_syrk = next(s.name for s in faulty.timeline if s.kind == "syrk")
        assert first_syrk == f"syrk[{resumed_at}]"
        assert faulty.makespan < 1.6 * clean.makespan  # << the 2x restart

    def test_enhanced_still_cheaper_fault_free(self, tardis):
        """The paper's scheme beats the composed baseline when nothing
        fails — checkpointing pays the snapshots regardless."""
        enh = enhanced_potrf(tardis, n=8192, numerics="shadow").makespan
        ckpt = checkpoint_potrf(tardis, n=8192, interval=2, numerics="shadow").makespan
        assert enh < ckpt

    def test_interval_validation(self, tardis, a0):
        with pytest.raises(ValueError):
            checkpoint_potrf(tardis, a=a0.copy(), block_size=BS, interval=0)
