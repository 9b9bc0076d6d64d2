"""Unit tests for the dense kernels (numerics vs NumPy/LAPACK references)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.dense import TRSM_BLOCK, gemm_update, gemv, potf2, syrk_update, trsm_right_lt
from repro.blas.spd import ill_conditioned_spd, random_spd
from repro.faults.bitflip import flip_bit
from repro.util.exceptions import SingularBlockError, ValidationError


class TestSyrkUpdate:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((8, 8))
        a = rng.standard_normal((8, 5))
        expected = c - a @ a.T
        syrk_update(c, a)
        np.testing.assert_allclose(c, expected, rtol=1e-14)

    def test_in_place(self):
        c = np.zeros((4, 4))
        a = np.eye(4)
        view = c
        syrk_update(c, a)
        assert view is c
        np.testing.assert_allclose(c, -np.eye(4))

    def test_rejects_rectangular_c(self):
        with pytest.raises(ValidationError):
            syrk_update(np.zeros((3, 4)), np.zeros((3, 2)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            syrk_update(np.zeros((4, 4)), np.zeros((3, 2)))

    def test_rejects_float32(self):
        with pytest.raises(ValidationError):
            syrk_update(np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2)))


class TestGemmUpdate:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((6, 4))
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((4, 3))
        expected = c - a @ b.T
        gemm_update(c, a, b)
        np.testing.assert_allclose(c, expected, rtol=1e-14)

    def test_rejects_inner_mismatch(self):
        with pytest.raises(ValidationError, match="inner"):
            gemm_update(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 4)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            gemm_update(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 3)))


def _scalar_potf2(a: np.ndarray) -> tuple[np.ndarray | None, int | None]:
    """Reference: the scalar dpotf2 recurrence on the lower triangle of *a*.

    Returns ``(L, None)``, or ``(None, j)`` at the first pivot j that is
    not positive and finite.
    """
    w = np.tril(a)
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(w.shape[0]):
            pivot = w[j, j]
            if not (pivot > 0.0 and np.isfinite(pivot)):
                return None, j
            w[j, j] = ljj = np.sqrt(pivot)
            w[j + 1 :, j] /= ljj
            w[j + 1 :, j + 1 :] -= np.outer(w[j + 1 :, j], w[j + 1 :, j])
    return np.tril(w), None


class TestPotf2:
    def test_matches_lapack(self):
        a = random_spd(16, rng=3)
        expected = np.linalg.cholesky(a)
        potf2(a)
        np.testing.assert_allclose(a, expected, rtol=1e-12, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(b=st.integers(min_value=1, max_value=192), seed=st.integers(0, 2**20))
    def test_bit_equal_to_lapack_on_a_tile_view(self, b, seed):
        """Every driver passes a non-contiguous tile view of the n×n matrix."""
        big = random_spd(3 * b, rng=seed)
        expected = np.linalg.cholesky(big[b : 2 * b, b : 2 * b].copy())
        rest = big.copy()
        tile = big[b : 2 * b, b : 2 * b]
        assert not tile.flags.c_contiguous or b == 1
        potf2(tile)
        assert np.array_equal(tile, expected)
        rest[b : 2 * b, b : 2 * b] = expected
        assert np.array_equal(big, rest)  # nothing outside the tile moved

    @pytest.mark.parametrize("b", [16, 96, 192])
    def test_close_to_the_scalar_recurrence(self, b):
        """LAPACK sums in another order: agreement to b·eps of the largest |L|."""
        a = random_spd(b, rng=16)
        expected, _ = _scalar_potf2(a)
        potf2(a)
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(a, expected, rtol=0, atol=b * eps * np.abs(expected).max())

    @pytest.mark.parametrize("garbage", [np.nan, np.inf, -np.inf, -1e300, "random"])
    def test_reads_only_the_lower_triangle(self, garbage):
        clean = random_spd(24, rng=12)
        a = clean.copy()
        upper = np.triu_indices(24, k=1)
        fill = np.random.default_rng(13).standard_normal(upper[0].size)
        a[upper] = fill if garbage == "random" else garbage
        potf2(a)
        assert np.array_equal(a, np.linalg.cholesky(clean))
        assert np.all(a[upper] == 0.0)

    def test_zeroes_upper_triangle(self):
        a = random_spd(8, rng=4)
        potf2(a)
        assert np.all(a[np.triu_indices(8, k=1)] == 0.0)

    def test_identity(self):
        a = np.eye(4)
        potf2(a)
        np.testing.assert_allclose(a, np.eye(4))

    def test_1x1(self):
        a = np.array([[9.0]])
        potf2(a)
        assert a[0, 0] == 3.0

    def test_fail_stop_on_negative_pivot(self):
        a = random_spd(8, rng=5)
        a[3, 3] = -1.0
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a, block_index=7)
        assert exc_info.value.block_index == 7
        assert exc_info.value.pivot == 3

    # B = 16 and 96 sit on either side of LAPACK's unblocked/blocked cutoff.
    @pytest.mark.parametrize("b", [16, 96])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
    def test_fail_stop_names_the_bad_pivot(self, b, where, bad):
        j = {"first": 0, "middle": b // 2, "last": b - 1}[where]
        a = random_spd(b, rng=14)
        a[j, j] = bad
        before = a.copy()
        assert _scalar_potf2(a)[1] == j
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a, block_index=5)
        err = exc_info.value
        assert (err.block_index, err.pivot) == (5, j)
        assert not (err.value > 0.0 and np.isfinite(err.value))
        assert np.array_equal(a, before, equal_nan=True)  # the tile is left as it came

    @pytest.mark.parametrize("b", [16, 96])
    def test_fail_stop_on_inf_below_the_diagonal(self, b):
        """An inf at (i, k) drives pivot i to -inf: the recurrence stops at row i."""
        i = b - 2
        a = random_spd(b, rng=15)
        a[i, b // 2] = np.inf
        assert _scalar_potf2(a)[1] == i
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a, block_index=2)
        assert (exc_info.value.block_index, exc_info.value.pivot) == (2, i)

    def test_lapack_rejection_stands_where_the_recurrence_passes(self, monkeypatch):
        """The smallest pivot of a recurrence that gets through names the failure."""

        def reject(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", reject)
        a = np.diag([4.0, 1.0, 9.0])
        assert _scalar_potf2(a)[1] is None
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a, block_index=3)
        err = exc_info.value
        assert (err.block_index, err.pivot, err.value) == (3, 1, 1.0)
        assert np.array_equal(a, np.diag([4.0, 1.0, 9.0]))

    def test_fail_stop_on_nan(self):
        a = random_spd(4, rng=6)
        a[0, 0] = np.nan
        with pytest.raises(SingularBlockError):
            potf2(a)

    def test_fail_stop_on_zero_pivot(self):
        a = np.zeros((2, 2))
        with pytest.raises(SingularBlockError):
            potf2(a)


def _substitution(b: np.ndarray, ell: np.ndarray) -> None:
    """Reference: column substitution ``B ← B · L^{-T}`` in place.

    Column j of X needs only columns 0..j-1, since ``(X L^T)[:, j] =
    Σ_{k<=j} X[:, k] · L[j, k]``.  The kernel falls back to this loop on a
    diagonal block it cannot invert.
    """
    for j in range(ell.shape[0]):
        if j > 0:
            b[:, j] -= b[:, :j] @ ell[j, :j]
        b[:, j] /= ell[j, j]


def _backward_error(x: np.ndarray, ell: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error ``‖X·Lᵀ − B‖ / (‖X‖·‖L‖ + ‖B‖)`` (Frobenius)."""
    scale = np.linalg.norm(x) * np.linalg.norm(ell) + np.linalg.norm(b)
    return float(np.linalg.norm(x @ ell.T - b) / scale)


def _flip_bit62(x: float) -> float:
    """*x* with its top exponent bit flipped (a value in [2, 4) turns subnormal)."""
    a = np.array([x])
    flip_bit(a, (0,), 62)
    return float(a[0])


_EPS = np.finfo(np.float64).eps
#: bad pivots; the bit-62 flip of 3.0 is a subnormal with a finite inverse
_BAD_PIVOTS = {
    "zero": 0.0,
    "minus-zero": -0.0,
    "nan": np.nan,
    "inf": np.inf,
    "minus-inf": -np.inf,
    "subnormal": 5e-324,
    "subnormal-bit62": _flip_bit62(3.0),
    "negative": -1.0,
}
_BAD_BELOW = {"inf": np.inf, "minus-inf": -np.inf, "nan": np.nan}


class TestTrsmRightLT:
    def test_solves_system(self):
        rng = np.random.default_rng(7)
        ell = np.linalg.cholesky(random_spd(5, rng=8))
        x_true = rng.standard_normal((7, 5))
        b = x_true @ ell.T
        trsm_right_lt(b, ell)
        np.testing.assert_allclose(b, x_true, rtol=1e-12)

    def test_identity_factor_is_noop(self):
        b = np.arange(12, dtype=np.float64).reshape(3, 4)
        expected = b.copy()
        trsm_right_lt(b, np.eye(4))
        np.testing.assert_allclose(b, expected)

    def test_rejects_column_mismatch(self):
        with pytest.raises(ValidationError):
            trsm_right_lt(np.zeros((3, 4)), np.eye(5))

    def test_two_row_strip(self):
        """The checksum-update case: a 2×B strip through the solve."""
        ell = np.linalg.cholesky(random_spd(6, rng=9))
        strip_true = np.random.default_rng(10).standard_normal((2, 6))
        b = strip_true @ ell.T
        trsm_right_lt(b, ell)
        np.testing.assert_allclose(b, strip_true, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([1, 31, 32, 33, 100]), st.integers(1, 200)),
        rows=st.sampled_from(["1", "2", "n", "7n"]),
        seed=st.integers(0, 2**20),
    )
    def test_backward_error_no_worse_than_substitution(self, n, rows, seed):
        """Every driver passes tile views: both operands are strided views here."""
        m = {"1": 1, "2": 2, "n": n, "7n": 7 * n}[rows]
        rng = np.random.default_rng(seed)
        host = np.tril(rng.standard_normal((3 * n, 3 * n)))
        host[n : 2 * n, n : 2 * n] = np.linalg.cholesky(random_spd(n, rng=seed))
        ell = host[n : 2 * n, n : 2 * n]
        panel = rng.standard_normal((m + 2, 3 * n))
        b = panel[1 : m + 1, n : 2 * n]
        assert n == 1 or not ell.flags.c_contiguous
        assert m == 1 or not b.flags.c_contiguous
        rhs = b.copy()
        expected = rhs.copy()
        _substitution(expected, ell)
        untouched = panel.copy()
        trsm_right_lt(b, ell)
        eta = _backward_error(b, ell, rhs)
        assert eta < n * _EPS
        assert eta <= 2 * _backward_error(expected, ell, rhs) + _EPS
        untouched[1 : m + 1, n : 2 * n] = b
        assert np.array_equal(panel, untouched)  # nothing outside the view moved

    # 7n rows, the shape of the 1344×192 panel: over a 2-row strip the
    # ratio of two single-sample errors is noise (docs/performance.md).
    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10, 1e14])
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 100, 192])
    def test_forward_error_within_4x_of_substitution(self, n, cond):
        ell = np.linalg.cholesky(ill_conditioned_spd(n, cond, rng=17))
        x_true = np.random.default_rng(18).standard_normal((7 * n, n))
        b = x_true @ ell.T
        expected = b.copy()
        _substitution(expected, ell)
        trsm_right_lt(b, ell)
        error = np.linalg.norm(b - x_true) / np.linalg.norm(x_true)
        error_ref = np.linalg.norm(expected - x_true) / np.linalg.norm(x_true)
        assert error <= 4 * error_ref + n * _EPS

    @pytest.mark.parametrize("garbage", [np.nan, np.inf, -np.inf, "random"])
    @pytest.mark.parametrize("n", [16, 32, 33, 100])
    def test_reads_only_the_lower_triangle(self, n, garbage):
        ell = np.linalg.cholesky(random_spd(n, rng=19))
        dirty = ell.copy()
        upper = np.triu_indices(n, k=1)
        fill = np.random.default_rng(20).standard_normal(upper[0].size)
        dirty[upper] = fill if garbage == "random" else garbage
        b = np.random.default_rng(21).standard_normal((2 * n, n))
        expected = b.copy()
        trsm_right_lt(expected, ell)
        trsm_right_lt(b, dirty)
        assert np.array_equal(b, expected)

    # B = 16 is one block; 96, 100 and 192 put the bad entry in the first,
    # a middle and the last block, and on either side of a block edge.
    @pytest.mark.parametrize("n", [16, 96, 100, 192])
    @pytest.mark.parametrize(
        "where, bad",
        [("pivot", name) for name in _BAD_PIVOTS] + [("below", name) for name in _BAD_BELOW],
    )
    def test_bad_factor_entry_keeps_every_non_finite(self, n, where, bad):
        """No raise, and no entry finite that substitution leaves non-finite."""
        value = (_BAD_PIVOTS if where == "pivot" else _BAD_BELOW)[bad]
        clean = np.linalg.cholesky(random_spd(n, rng=22))
        rhs = np.random.default_rng(23).standard_normal((2 * n, n))
        for j in sorted({0, n // 2, n - 1, 31, 32, 33} & set(range(n))):
            # below the diagonal: right under the pivot, and in the last row
            cells = [(j, j)] if where == "pivot" else [(i, j) for i in sorted({j + 1, n - 1}) if j < i < n]
            for cell in cells:
                ell = clean.copy()
                ell[cell] = value
                expected, got = rhs.copy(), rhs.copy()
                with np.errstate(all="ignore"):
                    _substitution(expected, ell)
                    trsm_right_lt(got, ell)
                hidden = ~np.isfinite(expected) & np.isfinite(got)
                assert not hidden.any(), f"{cell}: {hidden.sum()} entries left finite"

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([8, 32, 48, 192]),
        rows=st.sampled_from([1, 2, 7]),
        pivot=st.one_of(st.none(), st.sampled_from(sorted(_BAD_PIVOTS))),
        where=st.integers(0, 191),
        flip=st.tuples(st.integers(0, 191), st.integers(0, 191), st.integers(0, 63)),
        seed=st.integers(0, 2**20),
    )
    def test_memo_is_bit_equal_to_inverting_afresh(self, n, rows, pivot, where, flip, seed):
        """Solves sharing one memo: a factor (a bad pivot takes the
        substitution path), the factor rewritten by one bit flip, the
        factor again.  Each solve gives the bits of a solve without one."""
        ell = np.linalg.cholesky(random_spd(n, rng=seed))
        if pivot is not None:
            ell[where % n, where % n] = _BAD_PIVOTS[pivot]
        i, j = sorted((flip[0] % n, flip[1] % n), reverse=True)
        rewritten = ell.copy()
        flip_bit(rewritten, (i, j), flip[2])
        rhs = np.random.default_rng(seed + 1).standard_normal((rows, n))
        memo: dict = {}
        for factor in (ell, rewritten, ell):
            expected, got = rhs.copy(), rhs.copy()
            with np.errstate(all="ignore"):
                trsm_right_lt(expected, factor)
                trsm_right_lt(got, factor, memo)
            assert got.tobytes() == expected.tobytes()
        # One entry per diagonal block, plus the rewritten block's if the
        # flip landed in one; every inverse is shared read-only.
        blocks = -(-n // TRSM_BLOCK)
        assert len(memo) == blocks + (i // TRSM_BLOCK == j // TRSM_BLOCK)
        assert all(inv is None or not inv.flags.writeable for inv in memo.values())

    def test_threads_share_one_memo_without_a_lock(self):
        """Eight threads, more than the cores, solve against four factors
        through one memo with a short switch interval, missing together at
        first: every solve gives the bits of a solve without the memo."""
        factors = [np.linalg.cholesky(random_spd(96, rng=seed)) for seed in range(4)]
        rhs = np.random.default_rng(5).standard_normal((2, 96))
        want = []
        for ell in factors:
            x = rhs.copy()
            trsm_right_lt(x, ell)
            want.append(x.tobytes())
        memo: dict = {}
        wrong = []

        def solve(t: int) -> None:
            for k in range(40):
                x = rhs.copy()
                trsm_right_lt(x, factors[(t + k) % 4], memo)
                if x.tobytes() != want[(t + k) % 4]:
                    wrong.append((t, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(memo) == 4 * 96 // TRSM_BLOCK


class TestGemv:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 7))
        v = rng.standard_normal(5)
        np.testing.assert_allclose(gemv(v, a), v @ a, rtol=1e-15)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            gemv(np.zeros(3), np.zeros((4, 4)))

    def test_returns_new_array(self):
        a = np.ones((2, 2))
        v = np.ones(2)
        out = gemv(v, a)
        assert out.base is None or out.base is not a
