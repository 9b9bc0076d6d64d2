"""Tests for the generalized m+1-checksum codec (paper Section IV-A note)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multierror import MultiErrorCodec, encode_strip, vandermonde_weights
from repro.util.exceptions import UnrecoverableError, ValidationError


def make(b=16, m=4, rng=0):
    codec = MultiErrorCodec(b, n_checksums=m)
    tile = np.random.default_rng(rng).standard_normal((b, b))
    return codec, tile, codec.encode(tile)


class TestWeights:
    def test_reduces_to_paper_weights_for_two(self):
        paper = np.stack([np.ones(8), np.arange(1.0, 9.0)])  # v₁ = 1, v₂ = 1..B
        np.testing.assert_array_equal(vandermonde_weights(8, 2), paper)

    def test_vandermonde_rows(self):
        v = vandermonde_weights(4, 3)
        np.testing.assert_array_equal(v[2], [1.0, 4.0, 9.0, 16.0])

    def test_read_only(self):
        with pytest.raises(ValueError):
            vandermonde_weights(4, 3)[0, 0] = 5.0

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            vandermonde_weights(4, 5)

    def test_encode_function(self):
        tile = np.eye(3)
        strip = encode_strip(tile, 3)
        np.testing.assert_allclose(strip[1], [1, 2, 3])


class TestCapacities:
    def test_two_checksums_like_paper(self):
        codec = MultiErrorCodec(16, n_checksums=2)
        assert codec.correctable_unknown == 1
        assert codec.correctable_erasures == 1

    def test_four_checksums(self):
        codec = MultiErrorCodec(16, n_checksums=4)
        assert codec.correctable_unknown == 2
        assert codec.correctable_erasures == 3


class TestUnknownLocationCorrection:
    def test_clean_tile_no_corrections(self):
        codec, tile, strip = make()
        assert codec.verify_and_correct(tile, strip) == []

    def test_single_error(self):
        codec, tile, strip = make()
        pristine = tile.copy()
        tile[3, 7] += 42.0
        (corr,) = codec.verify_and_correct(tile, strip)
        assert corr.rows == (3,)
        np.testing.assert_allclose(tile, pristine, atol=1e-9)

    def test_two_errors_same_column(self):
        """The m=1 code's blind spot, fixed by 4 checksums."""
        codec, tile, strip = make(m=4)
        pristine = tile.copy()
        tile[2, 5] += 10.0
        tile[9, 5] -= 3.5
        (corr,) = codec.verify_and_correct(tile, strip)
        assert set(corr.rows) == {2, 9}
        np.testing.assert_allclose(tile, pristine, atol=1e-7)

    def test_the_aliasing_case_now_detected(self):
        """(+10 @ row 3) + (+20 @ row 6) aliases to (+30 @ row 5) under two
        checksums; four checksums decode it exactly."""
        codec, tile, strip = make(m=4)
        pristine = tile.copy()
        tile[2, 3] += 10.0
        tile[5, 3] += 20.0
        (corr,) = codec.verify_and_correct(tile, strip)
        assert set(corr.rows) == {2, 5}
        np.testing.assert_allclose(tile, pristine, atol=1e-7)

    def test_errors_across_columns_independent(self):
        codec, tile, strip = make(m=4)
        pristine = tile.copy()
        tile[1, 0] += 5.0
        tile[4, 2] += 7.0
        tile[8, 2] -= 2.0
        corrections = codec.verify_and_correct(tile, strip)
        assert len(corrections) == 2
        np.testing.assert_allclose(tile, pristine, atol=1e-8)

    def test_three_errors_one_column_detected_not_guessed(self):
        codec, tile, strip = make(m=4)  # corrects ≤2 unknown
        tile[1, 6] += 3.0
        tile[5, 6] += 4.0
        tile[11, 6] += 5.0
        with pytest.raises(UnrecoverableError):
            codec.verify_and_correct(tile, strip)

    def test_huge_magnitude_reconstruction(self):
        codec, tile, strip = make()
        pristine = tile.copy()
        tile[3, 7] += 1e200
        codec.verify_and_correct(tile, strip)
        np.testing.assert_allclose(tile, pristine, atol=1e-9)


class TestErasureCorrection:
    def test_full_row_erasure(self):
        """A known-corrupt row (e.g. from taint diagnosis) restored exactly."""
        codec, tile, strip = make(m=4)
        pristine = tile.copy()
        tile[5, :] += np.linspace(1.0, 3.0, tile.shape[1])
        assert codec.verify_and_correct(tile, strip, erased=[5]) == []
        np.testing.assert_allclose(tile, pristine, atol=1e-8)

    def test_three_erasure_rows_with_four_checksums(self):
        """m+1 = 4 checksums correct m = 3 erasures — the paper's claim in
        its exact (known-location) reading."""
        codec, tile, strip = make(m=4)
        pristine = tile.copy()
        for r, s in ((2, 1.5), (7, -4.0), (12, 9.0)):
            tile[r, :] += s
        codec.verify_and_correct(tile, strip, erased=[2, 7, 12])
        np.testing.assert_allclose(tile, pristine, atol=1e-7)

    def test_too_many_erasures_rejected(self):
        """Four lost rows exceed what four checksums rebuild: a decode
        outcome that escalates, not caller misuse."""
        codec, tile, strip = make(m=4)
        with pytest.raises(UnrecoverableError):
            codec.verify_and_correct(tile, strip, erased=[0, 1, 2, 3])

    def test_duplicate_rows_rejected(self):
        codec, tile, strip = make(m=4)
        with pytest.raises(ValidationError):
            codec.verify_and_correct(tile, strip, erased=[1, 1])

    def test_erasure_on_clean_rows_is_noop(self):
        codec, tile, strip = make(m=4)
        pristine = tile.copy()
        assert codec.verify_and_correct(tile, strip, erased=[3, 8]) == []
        np.testing.assert_allclose(tile, pristine, atol=1e-9)


class TestProperties:
    @given(
        rows=st.lists(st.integers(0, 15), min_size=1, max_size=2, unique=True),
        col=st.integers(0, 15),
        mags=st.lists(st.floats(0.5, 1e4), min_size=2, max_size=2),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_two_errors_decoded(self, rows, col, mags, seed):
        codec = MultiErrorCodec(16, n_checksums=4)
        tile = np.random.default_rng(seed).standard_normal((16, 16))
        strip = codec.encode(tile)
        pristine = tile.copy()
        for r, m in zip(rows, mags):
            tile[r, col] += m
        codec.verify_and_correct(tile, strip)
        np.testing.assert_allclose(tile, pristine, rtol=1e-6, atol=1e-6)

    @given(seed=st.integers(0, 10**6), n_chk=st.sampled_from([2, 3, 4, 6]))
    @settings(max_examples=30, deadline=None)
    def test_clean_never_flagged(self, seed, n_chk):
        codec = MultiErrorCodec(16, n_checksums=n_chk)
        tile = np.random.default_rng(seed).standard_normal((16, 16))
        assert codec.verify_and_correct(tile, codec.encode(tile)) == []
