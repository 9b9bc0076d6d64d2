"""Exhaustive fault-site sweep: every tile × every window, real numerics.

For a small blocked factorization (nb = 4) this enumerates *all* lower
tiles and *all* storage-window iterations — the complete single-fault
space — and asserts the Enhanced scheme always produces the right factor
(usually by in-place correction; in the rare extreme cases by restart).
This is the strongest executable form of the paper's Section III claim.
"""

import pytest

from repro.blas.spd import random_spd
from repro.core import enhanced_potrf, online_potrf
from repro.faults.injector import single_computing_fault, single_storage_fault
from repro.hetero.machine import Machine
from repro.magma.host import factorization_residual

N, BS = 256, 64  # nb = 4
NB = N // BS

ALL_SITES = [
    (i, j, it)
    for (i, j) in [(i, j) for i in range(NB) for j in range(i + 1)]
    for it in range(NB - 1)
]


@pytest.fixture(scope="module")
def a0():
    return random_spd(N, rng=51)


@pytest.fixture(scope="module")
def machine():
    return Machine.preset("tardis")


class TestEnhancedExhaustiveStorage:
    @pytest.mark.parametrize("i,j,it", ALL_SITES)
    def test_every_site_recovered(self, machine, a0, i, j, it):
        inj = single_storage_fault(block=(i, j), coord=(2, 3), iteration=it)
        a = a0.copy()
        res = enhanced_potrf(machine, a=a, block_size=BS, injector=inj)
        resid = factorization_residual(a0, res.factor)
        assert resid < 1e-9, (i, j, it, resid)

    def test_summary_mostly_in_place(self, machine, a0):
        """Across the whole space, corrections dominate restarts heavily."""
        restarts = 0
        for i, j, it in ALL_SITES:
            inj = single_storage_fault(block=(i, j), coord=(1, 1), iteration=it)
            res = enhanced_potrf(machine, a=a0.copy(), block_size=BS, injector=inj)
            restarts += res.restarts
        assert restarts <= len(ALL_SITES) // 10


class TestEnhancedExhaustiveComputing:
    @pytest.mark.parametrize(
        "i,j",
        [(i, j) for j in range(1, NB - 1) for i in range(j + 1, NB)],
    )
    def test_gemm_output_errors(self, machine, a0, i, j):
        inj = single_computing_fault(block=(i, j), iteration=j, delta=333.0)
        a = a0.copy()
        res = enhanced_potrf(machine, a=a, block_size=BS, injector=inj)
        assert factorization_residual(a0, res.factor) < 1e-9


class TestOnlineComparison:
    def test_online_needs_more_restarts_across_space(self, machine, a0):
        """Same sweep through Online: storage faults on finished tiles
        force restarts (or slip through silently); Enhanced needs none for
        the same sites."""
        online_restarts = 0
        enhanced_restarts = 0
        sites = [(i, j, it) for (i, j, it) in ALL_SITES if it >= j][:20]
        for i, j, it in sites:
            for potrf, counter in ((online_potrf, "on"), (enhanced_potrf, "enh")):
                inj = single_storage_fault(block=(i, j), coord=(2, 3), iteration=it)
                res = potrf(machine, a=a0.copy(), block_size=BS, injector=inj)
                if counter == "on":
                    online_restarts += res.restarts
                else:
                    enhanced_restarts += res.restarts
        assert enhanced_restarts == 0
        assert online_restarts > 0
