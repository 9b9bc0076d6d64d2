"""Shrunk reproducers of two silent wrong factors, pinned until mended.

Every entry point owes its caller one contract: the factor it returns has a
relative residual of at most 1e-8, or the call raises.  Both cases below
break it: the checksums "correct" the damage into a wrong factor and the
call returns it without a restart.  Each test is a strict xfail, so a
change that mends a case turns it XPASS, which fails the run until the
marker is removed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.checkpoint import checkpoint_potrf
from repro.blas.spd import random_spd
from repro.core import AbftConfig, offline_potrf
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.magma.host import factorization_residual
from repro.runtime.scheme import dag_potrf
from repro.util.exceptions import RestartExhaustedError

BS = 32
RESIDUAL = 1e-8


def _meets_the_contract(potrf, a0: np.ndarray, plan: FaultPlan, **kwargs) -> bool:
    a = a0.copy()
    try:
        res = potrf(a=a, block_size=BS, injector=FaultInjector([plan]), **kwargs)
    except RestartExhaustedError:
        return True
    return factorization_residual(a0, res.factor) <= RESIDUAL


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="one storage flip spreads through the next GEMM and SYRK into tiles "
    "(6, 5) and (6, 6) before the final sweep, which 'corrects' 65 sites: residual 4.2e-2",
)
@pytest.mark.parametrize(
    "potrf",
    [
        pytest.param(lambda tardis, **kw: offline_potrf(tardis, config=AbftConfig(n_checksums=2), **kw), id="offline-r2"),
        pytest.param(lambda tardis, **kw: offline_potrf(tardis, config=AbftConfig(n_checksums=3), **kw), id="offline-r3"),
        pytest.param(lambda tardis, **kw: checkpoint_potrf(tardis, interval=4, **kw), id="checkpoint-c4"),
    ],
)
def test_offline_storage_flip_is_corrected_or_raises(tardis, potrf):
    a0 = random_spd(256, rng=np.random.default_rng(0))
    plan = FaultPlan(Hook.STORAGE_WINDOW, 4, "storage", (6, 3), (2, 7))
    assert _meets_the_contract(lambda **kw: potrf(tardis, **kw), a0, plan)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at r = 4 the run 'corrects' 94 sites in tiles (7, 3) and (7, 7) and "
    "returns without a restart: residual 5.5e-2 (r = 2 and r = 3 restart)",
)
def test_dag_four_checksum_gemm_fault_is_corrected_or_raises(tardis):
    a0 = random_spd(256, rng=7)
    plan = FaultPlan(Hook.AFTER_GEMM, 3, "computing", (7, 3), (1, 30), delta=11.64)
    assert _meets_the_contract(
        lambda **kw: dag_potrf(tardis, **kw), a0, plan, config=AbftConfig(n_checksums=4)
    )


@pytest.mark.parametrize("n_checksums", [2, 3])
def test_dag_gemm_fault_restarts_at_fewer_checksums(tardis, n_checksums):
    """The control: the same fault at r = 2 and r = 3 restarts and comes
    back with the right factor."""
    a0 = random_spd(256, rng=7)
    a = a0.copy()
    plan = FaultPlan(Hook.AFTER_GEMM, 3, "computing", (7, 3), (1, 30), delta=11.64)
    res = dag_potrf(
        tardis, a=a, block_size=BS, config=AbftConfig(n_checksums=n_checksums), injector=FaultInjector([plan])
    )
    assert res.restarts == 1
    assert factorization_residual(a0, res.factor) <= RESIDUAL
