"""End-to-end tests of the m+1-checksum generalization under the drivers.

With ``AbftConfig(n_checksums=4)`` the whole scheme stack — encoding,
updating, pre-access verification — runs the Vandermonde code, and two
errors landing in the *same tile column* are corrected in place where the
paper's two-checksum scheme must restart.
"""

import pytest

from repro.blas.spd import random_spd
from repro.core import AbftConfig, enhanced_potrf, online_potrf
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.magma.host import factorization_residual

N, BS = 512, 64


@pytest.fixture
def a0():
    return random_spd(N, rng=21)


def two_errors_same_column() -> FaultInjector:
    """Two storage flips in one column of a finished tile, same window."""
    return FaultInjector(
        [
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=3, kind="storage",
                      block=(4, 2), coord=(1, 5)),
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=3, kind="storage",
                      block=(4, 2), coord=(6, 5)),
        ]
    )


class TestFourChecksums:
    def test_fault_free_exact_factor(self, tardis, a0):
        a = a0.copy()
        res = enhanced_potrf(
            tardis, a=a, block_size=BS, config=AbftConfig(n_checksums=4)
        )
        assert res.restarts == 0
        assert factorization_residual(a0, res.factor) < 1e-13

    def test_double_column_error_corrected_in_place(self, tardis, a0):
        a = a0.copy()
        res = enhanced_potrf(
            tardis, a=a, block_size=BS,
            config=AbftConfig(n_checksums=4),
            injector=two_errors_same_column(),
        )
        assert res.restarts == 0
        assert res.stats.data_corrections == 2
        assert factorization_residual(a0, res.factor) < 1e-10

    def test_two_checksums_restart_on_same_scenario(self, tardis, a0):
        """The same double fault defeats the paper's code: the pre-access
        verification detects inconsistency it cannot decode and restarts."""
        a = a0.copy()
        res = enhanced_potrf(
            tardis, a=a, block_size=BS,
            config=AbftConfig(n_checksums=2),
            injector=two_errors_same_column(),
        )
        assert res.restarts == 1
        assert factorization_residual(a0, res.factor) < 1e-13

    def test_online_with_four_checksums(self, tardis, a0):
        a = a0.copy()
        res = online_potrf(
            tardis, a=a, block_size=BS, config=AbftConfig(n_checksums=4)
        )
        assert res.restarts == 0
        assert factorization_residual(a0, res.factor) < 1e-13

    def test_extra_checksums_cost_more(self, tardis):
        cheap = enhanced_potrf(
            tardis, n=4096, config=AbftConfig(n_checksums=2), numerics="shadow"
        ).makespan
        rich = enhanced_potrf(
            tardis, n=4096, config=AbftConfig(n_checksums=4), numerics="shadow"
        ).makespan
        assert rich > cheap

    def test_shadow_capacity_two_points_one_column(self, tardis):
        """Shadow-mode taint honors the larger per-column capacity."""
        res = enhanced_potrf(
            tardis, n=2048, block_size=256,
            config=AbftConfig(n_checksums=4),
            injector=two_errors_same_column(),
            numerics="shadow",
        )
        assert res.restarts == 0

    def test_space_overhead_scales(self, tardis):
        """Checksum storage is r/B of the matrix."""
        ctx2 = tardis.context(numerics="shadow")
        ctx4 = tardis.context(numerics="shadow")
        c2 = ctx2.alloc_checksums(2048, 256, rows_per_tile=2)
        c4 = ctx4.alloc_checksums(2048, 256, rows_per_tile=4)
        assert c4.nbytes == 2 * c2.nbytes

    def test_rejects_single_checksum(self):
        with pytest.raises(ValueError):
            AbftConfig(n_checksums=1)
