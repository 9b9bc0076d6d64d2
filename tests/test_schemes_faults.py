"""Integration tests: the three schemes under injected faults.

These are the real-mode, laptop-scale versions of Tables VII/VIII: the
distinguishing claims of the paper as executable assertions.
"""

import pytest

from repro.blas.spd import random_spd
from repro.core import SCHEMES, AbftConfig, enhanced_potrf, offline_potrf, online_potrf
from repro.faults.injector import (
    FaultInjector,
    FaultPlan,
    Hook,
    single_computing_fault,
    single_storage_fault,
)
from repro.hetero.machine import Machine
from repro.magma.host import factorization_residual
from repro.util.exceptions import RestartExhaustedError

N, BS = 512, 64  # nb = 8


@pytest.fixture
def a0():
    return random_spd(N, rng=2)


def run(potrf, a0, injector, **kw):
    a = a0.copy()
    res = potrf(
        Machine.preset("tardis"), a=a, block_size=BS, injector=injector, **kw
    )
    return res, factorization_residual(a0, res.factor)


class TestComputingErrors:
    """One bad kernel result (1+1=3), mid-factorization."""

    def test_online_corrects_in_place(self, tardis, a0):
        res, resid = run(online_potrf, a0, single_computing_fault(block=(5, 3)))
        assert res.restarts == 0 and res.stats.data_corrections == 1
        assert resid < 1e-12

    def test_enhanced_corrects_before_next_read(self, tardis, a0):
        res, resid = run(enhanced_potrf, a0, single_computing_fault(block=(5, 3)))
        assert res.restarts == 0 and res.stats.data_corrections == 1
        assert resid < 1e-12

    def test_offline_restarts(self, tardis, a0):
        res, resid = run(offline_potrf, a0, single_computing_fault(block=(5, 3)))
        assert res.restarts == 1
        assert resid < 1e-12  # the re-run is clean
        # The recovery costs a whole extra (partial or full) attempt; here
        # the propagated error broke positive definiteness mid-run, so the
        # failed attempt fail-stopped inside POTF2 (Section III's scenario).
        assert res.makespan > res.attempt_makespans[-1]

    def test_syrk_output_error_corrected_by_enhanced(self, tardis, a0):
        inj = single_computing_fault(
            block=(4, 4), coord=(2, 2), iteration=4, hook=Hook.AFTER_SYRK
        )
        res, resid = run(enhanced_potrf, a0, inj)
        assert res.restarts == 0 and resid < 1e-12

    def test_large_magnitude_error(self, tardis, a0):
        """A 1e9 perturbation: corrected, but subtracting two O(1e9) values
        leaves ~1e9·ε of rounding residue in the repaired element — the
        correction is exact only to floating-point, as in the paper."""
        inj = single_computing_fault(block=(5, 3), delta=1e9)
        res, resid = run(enhanced_potrf, a0, inj)
        assert res.restarts == 0 and resid < 1e-8

    def test_trsm_output_error_enhanced(self, tardis, a0):
        inj = single_computing_fault(
            block=(6, 2), coord=(1, 1), iteration=2, hook=Hook.AFTER_TRSM
        )
        res, resid = run(enhanced_potrf, a0, inj)
        assert resid < 1e-12


class TestStorageErrors:
    """A bit flip between a tile's last verification and its next read —
    the window only Enhanced covers (the paper's headline)."""

    def test_enhanced_corrects(self, tardis, a0):
        res, resid = run(enhanced_potrf, a0, single_storage_fault(block=(4, 2), iteration=3))
        assert res.restarts == 0 and res.stats.data_corrections >= 1
        assert resid < 1e-12

    def test_online_must_restart(self, tardis, a0):
        res, resid = run(online_potrf, a0, single_storage_fault(block=(4, 2), iteration=3))
        assert res.restarts == 1
        assert resid < 1e-12  # correct only thanks to the re-run

    def test_enhanced_corrects_on_every_eligible_tile(self, tardis, a0):
        """Sweep the strike tile across the factored region."""
        for (i, j, it) in [(3, 1, 2), (5, 0, 4), (7, 6, 6), (6, 6, 5)]:
            inj = single_storage_fault(block=(i, j), iteration=it)
            res, resid = run(enhanced_potrf, a0, inj)
            assert res.restarts == 0, (i, j, it)
            assert resid < 1e-12, (i, j, it)

    def test_enhanced_corrects_checksum_strike(self, tardis, a0):
        inj = single_storage_fault(
            block=(4, 2), iteration=3, target="checksum", coord=(1, 5)
        )
        res, resid = run(enhanced_potrf, a0, inj)
        assert res.restarts == 0 and res.stats.checksum_corrections == 1
        assert resid < 1e-12

    def test_sign_flip_on_diagonal_fail_stops_offline(self, tardis, a0):
        """A sign flip that breaks positive definiteness: offline hits the
        fail-stop inside POTF2 and recovers by re-running."""
        inj = single_storage_fault(block=(4, 4), coord=(3, 3), iteration=3, bit=63)
        res, resid = run(offline_potrf, a0, inj)
        assert res.restarts == 1 and resid < 1e-12

    def test_same_sign_flip_enhanced_no_restart(self, tardis, a0):
        inj = single_storage_fault(block=(4, 4), coord=(3, 3), iteration=3, bit=63)
        res, resid = run(enhanced_potrf, a0, inj)
        assert res.restarts == 0 and resid < 1e-12

    def test_untouched_region_fault_corrected_by_enhanced(self, tardis, a0):
        """A flip in a not-yet-factored tile (struck early, read late)."""
        inj = single_storage_fault(block=(7, 5), iteration=0)
        res, resid = run(enhanced_potrf, a0, inj)
        assert res.restarts == 0 and resid < 1e-12


class TestMultipleFaults:
    def test_two_faults_different_tiles_enhanced(self, tardis, a0):
        plans = [
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=2, kind="storage",
                      block=(4, 1), coord=(1, 2)),
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=5, kind="storage",
                      block=(7, 4), coord=(3, 3)),
        ]
        res, resid = run(enhanced_potrf, a0, FaultInjector(plans))
        assert res.restarts == 0 and res.stats.data_corrections >= 2
        assert resid < 1e-12

    def test_computing_plus_storage_enhanced(self, tardis, a0):
        plans = [
            FaultPlan(hook=Hook.AFTER_GEMM, iteration=3, kind="computing",
                      block=(5, 3), coord=(2, 2), delta=500.0),
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=5, kind="storage",
                      block=(6, 1), coord=(0, 4)),
        ]
        res, resid = run(enhanced_potrf, a0, FaultInjector(plans))
        assert res.restarts == 0 and resid < 1e-12


class TestRestartBudget:
    def test_restart_exhaustion_raises(self, tardis, a0):
        """With max_restarts=0, an unrecoverable run must surface an error
        rather than silently return garbage."""
        inj = single_storage_fault(block=(4, 2), iteration=3)
        a = a0.copy()
        with pytest.raises(RestartExhaustedError):
            online_potrf(
                tardis, a=a, block_size=BS, injector=inj,
                config=AbftConfig(max_restarts=0),
            )

    def test_attempt_times_accumulate(self, tardis, a0):
        inj = single_storage_fault(block=(4, 2), iteration=3)
        a = a0.copy()
        res = online_potrf(tardis, a=a, block_size=BS, injector=inj)
        assert len(res.attempt_makespans) == 2
        assert res.makespan == pytest.approx(sum(res.attempt_makespans))


class TestEveryHookFires:
    """A planned fault fires in every scheme, once, at its planned iteration,
    whether or not the hook's kernel has work there (no SYRK or GEMM at
    j = 0, no TRSM on the last iteration)."""

    NB = 4

    @pytest.mark.parametrize("iteration", [0, NB - 1, -1])
    @pytest.mark.parametrize(
        "hook",
        [Hook.AFTER_SYRK, Hook.AFTER_GEMM, Hook.AFTER_POTF2, Hook.AFTER_TRSM, Hook.STORAGE_WINDOW],
    )
    @pytest.mark.parametrize("scheme", ["offline", "online", "enhanced"])
    def test_plan_fires_at_its_iteration(self, tardis, scheme, hook, iteration):
        kind = "storage" if hook is Hook.STORAGE_WINDOW else "computing"
        plan = FaultPlan(
            hook=hook, iteration=iteration, kind=kind, block=(self.NB - 1, 0), coord=(3, 5)
        )
        inj = FaultInjector([plan])
        a = random_spd(self.NB * 32, rng=5)
        SCHEMES[scheme](tardis, a=a, block_size=32, injector=inj)
        assert not inj.armed
        # -1 means "the first time the hook fires", which is iteration 0.
        assert [f.iteration for f in inj.fired] == [max(iteration, 0)]
