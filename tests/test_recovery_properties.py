"""Hypothesis properties of errors-and-erasures decoding.

Salvage decodes every tile through the run's one decoder,
:meth:`MultiErrorCodec.verify_and_correct`, with the tile's CRC-erased rows
passed as ``erased``.  The contract, searched at the salvage tolerances:
zero k ≥ 1 rows of a random tile, then corrupt one column with up to
⌈(r − k)/2⌉ unknown errors of any size (one past capacity included) or set
one strip element to any float — the decode either raises
:class:`~repro.util.exceptions.UnrecoverableError` or returns the original
tile.  Within capacity (k + 2t ≤ r) it returns the tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.multierror import MultiErrorCodec
from repro.recovery.salvage import SALVAGE_ATOL, SALVAGE_RTOL
from repro.util.exceptions import UnrecoverableError

#: values an unknown error now and then takes instead of ±10^u: a
#: top-exponent flip and the non-finite floats
EXTREMES = (1.2e307, math.inf, -math.inf, math.nan)


@dataclass(frozen=True)
class Erasure:
    """A random standard-normal B×B tile with *erased* rows zeroed and one
    column corrupted."""

    r: int
    b: int
    seed: int
    erased: tuple[int, ...]
    col: int
    errors: tuple[tuple[int, float], ...] = ()  #: (row, value added) unknown errors
    strip: tuple[int, float] | None = None  #: (checksum row, value written)


def _decode(case: Erasure):
    """(pristine, decoded tile, corrections); raises what the decoder raises."""
    codec = MultiErrorCodec(case.b, case.r, rtol=SALVAGE_RTOL, atol=SALVAGE_ATOL)
    pristine = np.random.default_rng(case.seed).standard_normal((case.b, case.b))
    tile = pristine.copy()
    strip = codec.encode(tile)
    tile[list(case.erased)] = 0.0
    for row, err in case.errors:
        tile[row, case.col] += err
    if case.strip is not None:
        strip[case.strip[0], case.col] = case.strip[1]
    with np.errstate(all="ignore"):
        corrections = codec.verify_and_correct(tile, strip, erased=case.erased)
    return pristine, tile, corrections


@st.composite
def erasures(draw, within_capacity: bool = False) -> Erasure:
    r = draw(st.sampled_from([2, 3, 4]))
    b = draw(st.sampled_from([8, 16, 32]))
    k = draw(st.integers(1, r - 1))
    most = (r - k) // 2 if within_capacity else -(-(r - k) // 2)
    rows = draw(st.lists(st.integers(0, b - 1), min_size=k + most, max_size=k + most, unique=True))
    erased, others = tuple(sorted(rows[:k])), rows[k:]
    case = dict(r=r, b=b, seed=draw(st.integers(0, 2**32 - 1)), erased=erased, col=draw(st.integers(0, b - 1)))
    if within_capacity or draw(st.booleans()):
        size = st.floats(-3.0, 300.0).map(lambda u: 10.0**u)
        if not within_capacity:
            size = st.one_of(size, size, size, st.sampled_from(EXTREMES))
        sizes = [draw(st.sampled_from([-1.0, 1.0])) * draw(size) for _ in others]
        return Erasure(**case, errors=tuple(zip(others[: draw(st.integers(0, most))], sizes)))
    value = draw(st.floats(allow_nan=True, allow_infinity=True))
    return Erasure(**case, strip=(draw(st.integers(0, r - 1)), value))


# A least-squares erasure decoder whose confirm slack grew with the
# corruption returned all three: (a) off by 1.5e20 within capacity, (b) one
# error past capacity off by 2.38, (c) NaN in the erased rows after the
# tolerance overflowed.
REPRO_A = Erasure(r=3, b=8, seed=0, erased=(0,), col=0, errors=((6, 1e50),))
REPRO_B = Erasure(r=3, b=8, seed=0, erased=(0,), col=0, errors=((3, 1e20), (5, 1.0)))
REPRO_C = Erasure(r=3, b=8, seed=0, erased=(0, 1), col=0, errors=((3, 1.2e307),))


@example(REPRO_A)
@example(REPRO_B)
@example(REPRO_C)
@settings(max_examples=400, deadline=None)
@given(erasures())
def test_erasure_decode_is_repaired_or_detected(case):
    try:
        pristine, tile, _ = _decode(case)
    except UnrecoverableError:
        return
    assert np.isfinite(tile).all()
    np.testing.assert_allclose(tile, pristine, rtol=0.0, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(erasures(within_capacity=True))
def test_within_capacity_is_repaired(case):
    """k erased rows and t unknown errors with k + 2t ≤ r decode exactly."""
    pristine, tile, corrections = _decode(case)
    np.testing.assert_allclose(tile, pristine, rtol=0.0, atol=1e-6)
    assert {row for corr in corrections for row in corr.rows} == {row for row, _ in case.errors}


def test_reproducer_a_is_repaired():
    pristine, tile, (corr,) = _decode(REPRO_A)
    assert corr.rows == (6,)
    np.testing.assert_allclose(tile, pristine, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", [REPRO_B, REPRO_C], ids=["one_past_capacity", "overflowed_tolerance"])
def test_reproducers_b_and_c_raise(case):
    with pytest.raises(UnrecoverableError):
        _decode(case)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_strip_element_next_to_erased_rows_restarts(r):
    """The refresh rule needs every syndrome; with erased rows a corrupt
    strip element escalates instead."""
    case = Erasure(r=r, b=16, seed=3, erased=(4,), col=2, strip=(r - 1, 1e3))
    with pytest.raises(UnrecoverableError):
        _decode(case)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_pure_erasures_rebuild_the_rows(r):
    case = Erasure(r=r, b=32, seed=r, erased=tuple(range(31, 31 - (r - 1), -1)), col=0)
    pristine, tile, corrections = _decode(case)
    assert corrections == []
    np.testing.assert_allclose(tile, pristine, rtol=0.0, atol=1e-9)


def test_mixed_capacity_table():
    """k + 2t ≤ r, enumerated for every supported checksum count."""
    for r in range(2, 7):
        codec = MultiErrorCodec(8, r)
        assert codec.correctable_erasures == r - 1
        for k in range(r):
            assert codec.mixed_capacity(k) == (r - k) // 2
        assert codec.mixed_capacity(r) == 0


def test_erasures_beyond_m_raise():
    case = Erasure(r=3, b=8, seed=11, erased=(0, 2, 5), col=0)
    with pytest.raises(UnrecoverableError):
        _decode(case)
