"""Unit tests for the Table I verification-count model."""

import pytest

from repro.core import AbftConfig, enhanced_potrf, online_potrf
from repro.hetero.machine import Machine
from repro.models.verification import (
    VERIFICATION_TABLE,
    total_verified_tiles,
    verification_counts,
)


class TestTableI:
    def test_rows_match_paper(self):
        by_op = {r.operation: r for r in VERIFICATION_TABLE}
        assert by_op["GEMM"].enhanced_verifies == "B, C, D"
        assert by_op["GEMM"].enhanced_blocks_big_o == "O(n^2)"
        assert by_op["SYRK"].online_blocks_big_o == "O(1)"

    def test_online_counts(self):
        c = verification_counts(nb=8, j=3, scheme="online")
        assert c == {"SYRK": 1, "GEMM": 4, "POTF2": 1, "TRSM": 4}

    def test_enhanced_counts_k1(self):
        c = verification_counts(nb=8, j=3, scheme="enhanced")
        assert c["SYRK"] == 4          # diag + 3 row tiles
        assert c["GEMM"] == 4 + 4 * 3  # panel + LD
        assert c["POTF2"] == 1
        assert c["TRSM"] == 1 + 4

    def test_enhanced_counts_skip_iteration(self):
        c = verification_counts(nb=8, j=4, scheme="enhanced", k=3)
        assert c["GEMM"] == 0          # deferred
        assert c["SYRK"] == 5          # never deferred
        assert c["TRSM"] == 1          # L only

    def test_enhanced_gemm_quadratic_total(self):
        """Σ over iterations of the GEMM set grows ~ nb³ (O(n²) per iter)."""
        t16 = total_verified_tiles(16, "enhanced")
        t32 = total_verified_tiles(32, "enhanced")
        assert t32 / t16 > 6  # ≈ 8 for cubic growth

    def test_online_total_quadratic(self):
        t16 = total_verified_tiles(16, "online")
        t32 = total_verified_tiles(32, "online")
        assert 3 < t32 / t16 < 5  # ≈ 4 for quadratic growth

    def test_bad_iteration_rejected(self):
        with pytest.raises(ValueError):
            verification_counts(4, 4, "online")

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            verification_counts(4, 0, "offline")


class TestModelMatchesImplementation:
    """The analytic counts must equal what the drivers actually verify."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_enhanced_driver_matches_model(self, k):
        machine = Machine.preset("tardis")
        nb = 8
        res = enhanced_potrf(
            machine,
            n=nb * 256,
            block_size=256,
            config=AbftConfig(verify_interval=k),
            numerics="shadow",
        )
        # The model counts the per-iteration checks; the final sweep adds
        # every lower-triangle tile once.
        expected = total_verified_tiles(nb, "enhanced", k) + nb * (nb + 1) // 2
        assert res.stats.tiles_verified == expected

    def test_online_driver_matches_model(self):
        machine = Machine.preset("tardis")
        nb = 8
        res = online_potrf(machine, n=nb * 256, block_size=256, numerics="shadow")
        expected = total_verified_tiles(nb, "online")
        assert res.stats.tiles_verified == expected
