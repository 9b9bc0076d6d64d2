"""Unit tests for detection, location and correction (Section IV-C)."""

import numpy as np
import pytest

from repro.blas.blocked import BlockedMatrix
from repro.blas.spd import random_spd
from repro.core import AbftConfig, enhanced_potrf
from repro.core.batchverify import detect
from repro.core.checksum import encode_blocked_host
from repro.core.correct import Verifier
from repro.faults.bitflip import flip_bit
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.magma.host import factorization_residual
from repro.runtime.scheme import dag_potrf
from repro.util.exceptions import UnrecoverableError


def make_verified_setup(machine, n=32, b=8, rng=0, n_streams=1):
    """Real-mode context with an encoded matrix; returns (verifier, a)."""
    ctx = machine.context(numerics="real")
    a = random_spd(n, rng=rng)
    matrix = ctx.alloc_matrix(n, b, data=a)
    chk = ctx.alloc_checksums(n, b)
    chk.array[:] = encode_blocked_host(BlockedMatrix(a, b))
    return Verifier(ctx, matrix, chk, n_streams=n_streams), a


class TestCleanVerification:
    def test_clean_block_passes(self, tardis):
        v, _ = make_verified_setup(tardis)
        v.verify_batch([(1, 0)], "t")
        assert v.stats.data_corrections == 0
        assert v.stats.tiles_verified == 1

    def test_empty_batch_is_noop(self, tardis):
        v, _ = make_verified_setup(tardis)
        assert v.verify_batch([], "t") is None
        assert v.stats.batches == 0

    def test_all_lower_blocks_clean(self, tardis):
        v, _ = make_verified_setup(tardis)
        v.verify_batch(v.lower_keys(), "all")
        assert v.stats.columns_flagged == 0


class TestDataErrorCorrection:
    @pytest.mark.parametrize("row,col", [(0, 0), (7, 7), (3, 5), (5, 0)])
    def test_single_error_located_and_fixed(self, tardis, row, col):
        v, a = make_verified_setup(tardis)
        pristine = a.copy()
        tile = v.matrix.tile_view((2, 1))
        tile[row, col] += 123.456
        v.verify_batch([(2, 1)], "t")
        np.testing.assert_allclose(a, pristine, atol=1e-9)
        assert v.stats.data_corrections == 1
        assert v.stats.corrected_sites == [((2, 1), row, col)]

    def test_bitflip_error_fixed(self, tardis):
        v, a = make_verified_setup(tardis)
        pristine = a.copy()
        flip_bit(v.matrix.tile_view((3, 0)), (2, 6), 54)
        v.verify_batch([(3, 0)], "t")
        np.testing.assert_allclose(a, pristine, rtol=1e-12)

    def test_negative_error_fixed(self, tardis):
        v, a = make_verified_setup(tardis)
        pristine = a.copy()
        v.matrix.tile_view((1, 1))[4, 2] -= 55.5
        v.verify_batch([(1, 1)], "t")
        np.testing.assert_allclose(a, pristine, atol=1e-9)

    def test_two_errors_different_columns_fixed(self, tardis):
        v, a = make_verified_setup(tardis)
        pristine = a.copy()
        tile = v.matrix.tile_view((2, 0))
        tile[1, 2] += 9.0
        tile[6, 5] -= 4.0
        v.verify_batch([(2, 0)], "t")
        np.testing.assert_allclose(a, pristine, atol=1e-9)
        assert v.stats.data_corrections == 2

    def test_tiny_subthreshold_error_ignored(self, tardis):
        """Errors below rounding tolerance are indistinguishable from noise
        and must not trigger (false-positive control)."""
        v, _ = make_verified_setup(tardis)
        v.matrix.tile_view((1, 0))[0, 0] += 1e-14
        v.verify_batch([(1, 0)], "t")
        assert v.stats.data_corrections == 0


class TestChecksumErrorRepair:
    def test_chk_row1_corruption_repaired(self, tardis):
        v, a = make_verified_setup(tardis)
        pristine = a.copy()
        strip = v.chk.tile_view((2, 2))
        strip[0, 3] += 77.0
        v.verify_batch([(2, 2)], "t")
        np.testing.assert_array_equal(a, pristine)  # data untouched
        assert v.stats.checksum_corrections == 1
        # strip now consistent again
        v.verify_batch([(2, 2)], "t2")
        assert v.stats.checksum_corrections == 1

    def test_chk_row2_corruption_repaired(self, tardis):
        v, _ = make_verified_setup(tardis)
        v.chk.tile_view((0, 0))[1, 5] -= 12.0
        v.verify_batch([(0, 0)], "t")
        assert v.stats.checksum_corrections == 1
        assert v.stats.data_corrections == 0


class TestUncorrectable:
    def test_two_errors_same_column(self, tardis):
        v, _ = make_verified_setup(tardis)
        tile = v.matrix.tile_view((1, 0))
        tile[2, 3] += 10.0
        tile[5, 3] += 7.3  # non-integer combined locator -> detectable
        with pytest.raises(UnrecoverableError):
            v.verify_batch([(1, 0)], "t")

    def test_double_error_aliasing_limitation(self, tardis):
        """Known limitation of any two-checksum code: two same-column errors
        whose weighted combination mimics a single error at another row are
        mis-corrected, not flagged.  (+10 at row 3) + (+20 at row 6) is
        checksum-identical to (+30 at row 5).  Documented, not 'fixed' —
        this is why Optimization 3 bounds K by the two-fault probability."""
        v, a = make_verified_setup(tardis)
        pristine = a.copy()
        tile = v.matrix.tile_view((1, 0))
        tile[2, 3] += 10.0
        tile[5, 3] += 20.0
        v.verify_batch([(1, 0)], "t")  # no raise
        assert v.stats.data_corrections == 1
        assert not np.allclose(a, pristine)  # silently wrong, as theory says

    def test_full_column_corruption(self, tardis):
        v, _ = make_verified_setup(tardis)
        v.matrix.tile_view((2, 1))[:, 4] += 3.0
        with pytest.raises(UnrecoverableError):
            v.verify_batch([(2, 1)], "t")

    def test_error_reports_block(self, tardis):
        v, _ = make_verified_setup(tardis)
        tile = v.matrix.tile_view((3, 2))
        tile[0, 0] += 1.0
        tile[1, 0] += 1.0
        with pytest.raises(UnrecoverableError) as err:
            v.verify_batch([(3, 2)], "t")
        assert err.value.block == (3, 2)


class TestNonFiniteTolerance:
    """An overflowed checksum recalculation must never become a "correction".

    A top-exponent flip turns one entry into ~1e307; the weighted row
    ``W @ tile`` then overflows and an infinite tolerance hides δ₂: left
    to the classifier, the column reads as a corrupt checksum row 1 and
    gets "refreshed" from the corrupt data.
    """

    # B = 8: row 1 of W @ tile stays finite at 1e308, row 2 (weight 8) overflows.
    @pytest.mark.parametrize("keys", [[(2, 1)], [(1, 1), (2, 1), (3, 1)]], ids=["single", "batched"])
    @pytest.mark.parametrize("value", [1e308, np.inf, np.nan], ids=["overflow", "inf", "nan"])
    def test_non_finite_tile_escalates(self, tardis, keys, value):
        v, _ = make_verified_setup(tardis)
        v.matrix.tile_view((2, 1))[7, 0] = value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(UnrecoverableError, match="not finite") as err:
                v.verify_batch(keys, "t")
        assert err.value.block == (2, 1)
        assert v.stats.checksum_corrections == v.stats.data_corrections == 0

    # An infinite tolerance passes every comparison, so only the finiteness
    # flag sees these; B = 192 runs the detector's in-place branch.
    @pytest.mark.parametrize("b", [8, 192], ids=["gathered", "in_place"])
    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_detect_flags_exactly_the_non_finite_tile(self, tardis, value, b):
        v, _ = make_verified_setup(tardis, n=4 * b, b=b)
        v.matrix.tile_view((2, 1))[7, 0] = value
        keys = [(i, j) for j in range(4) for i in range(j, 4)]
        with np.errstate(invalid="ignore"):
            flagged = detect(v.matrix, v.chk, keys, v.codec)
        assert flagged == [(2, 1)]

    @pytest.mark.parametrize(
        "potrf,block,coord",
        [(enhanced_potrf, (1, 0), (14, 44)), (dag_potrf, (2, 1), (63, 0))],
        ids=["enhanced", "dag"],
    )
    def test_bit62_flip_restarts_instead_of_miscorrecting(self, tardis, potrf, block, coord):
        a = random_spd(256, rng=np.random.default_rng(3))
        injector = FaultInjector([FaultPlan(Hook.STORAGE_WINDOW, 1, "storage", block, coord, bit=62)])
        with np.errstate(over="ignore", invalid="ignore"):
            res = potrf(tardis, a=a.copy(), block_size=64, injector=injector)
        assert len(injector.fired) == 1
        assert res.restarts >= 1
        assert factorization_residual(a, res.factor) <= 1e-8


class TestNanChecksum:
    """A NaN checksum element passes every ``|δ| > tol`` test, so it must be
    flagged as ``not |δ| <= tol`` or its column goes unguarded."""

    @pytest.mark.parametrize("checksum_row", [0, 1])
    def test_nan_strip_element_is_refreshed_and_keeps_guarding_its_column(
        self, tardis, checksum_row
    ):
        v, a = make_verified_setup(tardis, n=256, b=32)
        pristine, encoded = a.copy(), v.chk.array.copy()
        # Bit 62 turns a strip element in [1, 2) into NaN.
        in_range = (encoded >= 1) & (encoded < 2)
        in_range[1 - checksum_row :: 2] = False
        row, col = (int(x) for x in np.argwhere(in_range)[0])
        flip_bit(v.chk.array, (row, col), 62)
        assert np.isnan(v.chk.array[row, col])
        with np.errstate(invalid="ignore"):  # a signaling NaN
            v.verify_batch(v.lower_keys(), "t")
        assert v.stats.checksum_corrections == 1
        np.testing.assert_array_equal(v.chk.array, encoded)
        # A later error in the same tile column is repaired in the data.
        v.matrix.tile_view((row // 2, col // 32))[5, col % 32] += 1000.0
        v.verify_batch(v.lower_keys(), "t")
        assert (v.stats.data_corrections, v.stats.checksum_corrections) == (1, 1)
        np.testing.assert_allclose(a, pristine, atol=1e-9)

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("last", [False, True], ids=["row0", "last_row"])
    def test_nan_strip_element_is_refreshed_at_every_checksum_count(self, tardis, r, last):
        """The r = 2 rule holds for every r: one checksum row out of
        tolerance is its own element, refreshed from the data."""
        ctx = tardis.context(numerics="real")
        a = random_spd(32, rng=0)
        pristine = a.copy()
        matrix = ctx.alloc_matrix(32, 8, data=a)
        chk = ctx.alloc_checksums(32, 8, rows_per_tile=r)
        chk.array[:] = encode_blocked_host(BlockedMatrix(a, 8), n_checksums=r)
        encoded = chk.array.copy()
        v = Verifier(ctx, matrix, chk)
        chk.strip(2, 1)[r - 1 if last else 0, 3] = np.nan
        v.verify_batch(v.lower_keys(), "t")
        assert (v.stats.checksum_corrections, v.stats.data_corrections) == (1, 0)
        np.testing.assert_array_equal(chk.array, encoded)
        matrix.tile_view((2, 1))[5, 3] += 1000.0
        v.verify_batch(v.lower_keys(), "t")
        assert v.stats.corrected_sites == [((2, 1), 5, 3)]
        np.testing.assert_allclose(a, pristine, atol=1e-9)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_locator_restarts(self, tardis, value):
        v, _ = make_verified_setup(tardis)
        v.chk.strip(2, 1)[:, 3] = value
        with np.errstate(invalid="ignore"):
            with pytest.raises(UnrecoverableError, match="locator nan is not finite"):
                v.verify_batch([(2, 1)], "t")


class TestTaskIssuance:
    def test_coalesced_per_stream(self, tardis):
        ctx = tardis.context(numerics="shadow")
        matrix = ctx.alloc_matrix(2048, 256)
        chk = ctx.alloc_checksums(2048, 256)
        v = Verifier(ctx, matrix, chk, n_streams=4)
        v.verify_batch([(i, 0) for i in range(8)], "t")
        recalc = [t for t in ctx.graph if t.kind == "recalc"]
        assert len(recalc) == 4
        assert sum(t.meta["tiles"] for t in recalc) == 8

    def test_single_stream_serializes(self, tardis):
        ctx = tardis.context(numerics="shadow")
        matrix = ctx.alloc_matrix(2048, 256)
        chk = ctx.alloc_checksums(2048, 256)
        v = Verifier(ctx, matrix, chk, n_streams=1)
        v.verify_batch([(i, 0) for i in range(8)], "t")
        (recalc,) = [t for t in ctx.graph if t.kind == "recalc"]
        per_tile = ctx.cost.gemv_recalc(256, 256).duration
        assert recalc.duration == pytest.approx(8 * per_tile)

    def test_opt1_speedup_in_simulation(self, tardis):
        """P streams beat 1 stream on the simulated clock (Optimization 1)."""
        times = {}
        for streams in (1, 16):
            ctx = tardis.context(numerics="shadow")
            matrix = ctx.alloc_matrix(2048, 256)
            chk = ctx.alloc_checksums(2048, 256)
            v = Verifier(ctx, matrix, chk, n_streams=streams)
            v.verify_batch([(i, j) for i in range(8) for j in range(i + 1)], "t")
            times[streams] = ctx.simulate().makespan
        assert times[16] < times[1]

    def test_host_strips_add_transfer(self, tardis):
        ctx = tardis.context(numerics="shadow")
        matrix = ctx.alloc_matrix(2048, 256)
        chk = ctx.alloc_checksums(2048, 256)
        v = Verifier(ctx, matrix, chk, n_streams=2, strips_on_host=True)
        v.verify_batch([(1, 0), (2, 0)], "t")
        transfers = [t for t in ctx.graph if t.kind == "h2d"]
        assert len(transfers) == 1
        assert transfers[0].meta["bytes"] == 2 * 256 * 8 * 2

    @pytest.mark.parametrize("r", [2, 4])
    def test_cpu_placement_stages_every_checksum_row(self, tardis, r):
        res = enhanced_potrf(
            tardis,
            n=4096,
            block_size=512,
            config=AbftConfig(updating_placement="cpu", n_checksums=r),
            numerics="shadow",
        )
        staged = res.timeline.filter(lambda s: s.name.startswith("strips_h2d["))
        assert sum(s.meta["bytes"] for s in staged) == r * 512 * 8 * res.stats.tiles_verified


class TestShadowVerification:
    def _setup(self, machine):
        ctx = machine.context(numerics="shadow")
        matrix = ctx.alloc_matrix(1024, 256)
        chk = ctx.alloc_checksums(1024, 256)
        return Verifier(ctx, matrix, chk)

    def test_clean_passes(self, tardis):
        v = self._setup(tardis)
        v.verify_batch([(1, 0)], "t")

    def test_point_taint_corrected(self, tardis):
        v = self._setup(tardis)
        v.matrix.taint_of((1, 0)).add_point(3, 4)
        v.verify_batch([(1, 0)], "t")
        assert v.matrix.taint_of((1, 0)).is_clean()
        assert v.stats.data_corrections == 1

    def test_chk_taint_repaired(self, tardis):
        v = self._setup(tardis)
        v.chk.taint_of((2, 1)).add_point(0, 3)
        v.verify_batch([(2, 1)], "t")
        assert v.chk.taint_of((2, 1)).is_clean()
        assert v.stats.checksum_corrections == 1

    def test_uncorrectable_taint_raises(self, tardis):
        v = self._setup(tardis)
        v.matrix.taint_of((1, 1)).merge(
            type(v.matrix.taint_of((1, 1)))(full=True)
        )
        with pytest.raises(UnrecoverableError):
            v.verify_batch([(1, 1)], "t")

    def test_both_tainted_raises(self, tardis):
        v = self._setup(tardis)
        v.matrix.taint_of((1, 0)).add_point(0, 0)
        v.chk.taint_of((1, 0)).add_point(0, 0)
        with pytest.raises(UnrecoverableError, match="both"):
            v.verify_batch([(1, 0)], "t")
