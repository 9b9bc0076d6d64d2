"""One decoder for every checksum count: a safety property, the aliasing
census, and the scheme-level cases the count used to change.

:meth:`~repro.core.multierror.MultiErrorCodec.verify_and_correct` decodes
every tile of both engines and of salvage.  Its safety contract, searched
with Hypothesis: corrupt one column of a random tile within what
bounded-distance decoding can always catch — 1 to ⌈r/2⌉ = r − ⌊r/2⌋ data
elements, or one strip element set to anything — and the decode either
raises :class:`UnrecoverableError` or returns the original tile.  No other
exception escapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blas.spd import random_spd
from repro.core import AbftConfig, enhanced_potrf
from repro.core.multierror import MultiErrorCodec
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.magma.host import factorization_residual
from repro.runtime.scheme import dag_potrf
from repro.util.exceptions import UnrecoverableError


@dataclass(frozen=True)
class Corruption:
    """One corrupted column of a random standard-normal B×B tile."""

    r: int
    b: int
    seed: int
    col: int
    errors: tuple[tuple[int, float], ...] = ()  #: (row, value added) data errors
    strip: tuple[int, float] | None = None  #: (checksum row, value written)


@st.composite
def corruptions(draw) -> Corruption:
    r = draw(st.sampled_from([2, 3, 4]))
    b = draw(st.sampled_from([8, 16, 32]))
    seed = draw(st.integers(0, 2**32 - 1))
    col = draw(st.integers(0, b - 1))
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=r - r // 2, unique=True))
        errors = tuple(
            (row, draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 280.0)))
            for row in rows
        )
        return Corruption(r, b, seed, col, errors=errors)
    value = draw(st.floats(allow_nan=True, allow_infinity=True))
    return Corruption(r, b, seed, col, strip=(draw(st.integers(0, r - 1)), value))


def _decode(case: Corruption) -> tuple[np.ndarray, np.ndarray]:
    """(pristine, decoded) tiles; raises what the decoder raises."""
    codec = MultiErrorCodec(case.b, case.r)
    pristine = np.random.default_rng(case.seed).standard_normal((case.b, case.b))
    tile = pristine.copy()
    strip = codec.encode(tile)
    for row, err in case.errors:
        tile[row, case.col] += err
    if case.strip is not None:
        strip[case.strip[0], case.col] = case.strip[1]
    with np.errstate(all="ignore"):
        codec.verify_and_correct(tile, strip)
    return pristine, tile


# Shrunk failures of the decoder r >= 3 used before it shared the r = 2
# rules: each tile came back off by 1.0, the small error hidden under a
# recheck slack that grew with the huge one.
@example(Corruption(r=3, b=8, seed=0, col=0, errors=((0, -1.0), (1, -1e14))))
@example(Corruption(r=3, b=8, seed=0, col=0, errors=((0, 1.0), (1, 1e14))))
@example(Corruption(r=4, b=8, seed=0, col=0, errors=((0, 1.0), (1, 1e14))))
@settings(max_examples=400, deadline=None)
@given(corruptions())
def test_one_corrupt_column_is_repaired_or_detected(case):
    try:
        pristine, tile = _decode(case)
    except UnrecoverableError:
        return
    np.testing.assert_allclose(tile, pristine, rtol=0.0, atol=1e-6)


# -- the double-error census --------------------------------------------------

#: e₂/e₁ of the enumerated pairs: equal, double, opposite and generic errors.
RATIOS = (1.0, 2.0, -1.0, 1.37)

#: Outcomes of every same-column row pair at B = 32 (496 pairs), e₁ = 1:
#: ``{r: {e₂/e₁: (wrong tiles returned, restarts, corrected)}}``.
#: r = 2 aliases when δ₂/δ₁ lands on an integer row (a + b even for equal
#: errors, a ≡ b mod 3 for e₂ = 2e₁) and reads opposite errors (δ₁ = 0) as a
#: corrupt second checksum row; r = 3 detects every pair; r = 4 corrects them.
CENSUS = {
    2: {1.0: (240, 256, 0), 2.0: (155, 341, 0), -1.0: (496, 0, 0), 1.37: (0, 496, 0)},
    3: {1.0: (0, 496, 0), 2.0: (0, 496, 0), -1.0: (0, 496, 0), 1.37: (0, 496, 0)},
    4: {1.0: (0, 0, 496), 2.0: (0, 0, 496), -1.0: (0, 0, 496), 1.37: (0, 0, 496)},
}


def double_error_census(r: int, ratio: float, b: int = 32) -> tuple[int, int, int]:
    """(wrong, restarts, corrected) over every same-column pair of rows."""
    codec = MultiErrorCodec(b, r)
    pristine = np.random.default_rng(5).standard_normal((b, b))
    strip = codec.encode(pristine)
    wrong = restarts = corrected = 0
    for first in range(b):
        for second in range(first + 1, b):
            tile, work = pristine.copy(), strip.copy()
            tile[first, 3] += 1.0
            tile[second, 3] += ratio
            try:
                codec.verify_and_correct(tile, work)
            except UnrecoverableError:
                restarts += 1
                continue
            if np.allclose(tile, pristine, rtol=0.0, atol=1e-6):
                corrected += 1
            else:
                wrong += 1
    return wrong, restarts, corrected


@pytest.mark.parametrize("r", sorted(CENSUS))
def test_double_error_census(r):
    assert {ratio: double_error_census(r, ratio) for ratio in RATIOS} == CENSUS[r]


# -- scheme level ---------------------------------------------------------------

_A = random_spd(256, rng=7)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("big", [1e20, 1e25, 1e100, 1e250])
def test_dag_small_error_under_a_huge_one_is_never_miscorrected(tardis, r, big):
    """Two computing errors in column 7 of one tile, one huge and one of 1.0:
    the huge one's rounding hides the small one from location, and only the
    confirm (no slack that grows with the corruption) sees it."""
    for tile in ((5, 1), (3, 0), (7, 2)):
        for rows in ((4, 20), (0, 31), (10, 11)):
            plans = [
                FaultPlan(Hook.STORAGE_WINDOW, 2, "computing", tile, (row, 7), delta=delta)
                for row, delta in zip(rows, (big, 1.0))
            ]
            res = dag_potrf(
                tardis,
                a=_A.copy(),
                block_size=32,
                config=AbftConfig(n_checksums=r),
                injector=FaultInjector(plans),
            )
            assert factorization_residual(_A, res.factor) <= 1e-8, (tile, rows)


def test_bit62_checksum_flip_is_refreshed_at_r3(tardis):
    injector = FaultInjector(
        [FaultPlan(Hook.STORAGE_WINDOW, 1, "storage", (2, 1), (1, 5), target="checksum", bit=62)]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        res = enhanced_potrf(
            tardis, a=_A.copy(), block_size=32, config=AbftConfig(n_checksums=3), injector=injector
        )
    assert len(injector.fired) == 1
    assert (res.restarts, res.stats.checksum_corrections) == (0, 1)
    assert factorization_residual(_A, res.factor) <= 1e-8
