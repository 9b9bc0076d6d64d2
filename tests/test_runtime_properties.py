"""Property tests: the DAG runtime schedule never changes a bit.

Hypothesis drives worker counts, fault plans and
adversarial per-task delays; for every draw the threaded run must leave
the same factor bytes, verifier statistics, corrected sites and restart
count as the serial (program-order) reference under the identical fault
plan.  A second property pins the injector's one-shot contract across
restart attempts: a fired plan stays fired, so the retry factors clean.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.spd import random_spd
from repro.core import AbftConfig
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.hetero.machine import Machine
from repro.runtime import dag_potrf, inject_task_delays

N = 128
BS = 32
NB = N // BS

_A0 = random_spd(N, rng=23)

_HOOKS = [Hook.STORAGE_WINDOW, Hook.AFTER_GEMM, Hook.AFTER_TRSM, Hook.AFTER_POTF2]


@st.composite
def fault_plans(draw):
    """0–2 plans over valid lower-triangle blocks and iterations."""
    plans = []
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, NB - 1))
        i = draw(st.integers(j, NB - 1))
        hook = draw(st.sampled_from(_HOOKS))
        kind = "storage" if hook is Hook.STORAGE_WINDOW else "computing"
        plans.append(
            FaultPlan(
                hook=hook,
                iteration=draw(st.integers(0, NB - 1)),
                kind=kind,
                block=(i, j),
                coord=(draw(st.integers(0, BS - 1)), draw(st.integers(0, BS - 1))),
                delta=draw(st.sampled_from([64.0, 1024.0, 1e6])),
            )
        )
    return plans


def _factor(plans, workers, max_restarts=3):
    a = _A0.copy()
    res = dag_potrf(
        Machine.preset("tardis"),
        a=a,
        block_size=BS,
        config=AbftConfig(dag_workers=workers, max_restarts=max_restarts),
        injector=FaultInjector([FaultPlan(**_plan_kwargs(p)) for p in plans]),
    )
    return res


def _plan_kwargs(p: FaultPlan) -> dict:
    """A fresh, unfired copy of *p* (plans are stateful one-shots)."""
    return {
        "hook": p.hook,
        "iteration": p.iteration,
        "kind": p.kind,
        "block": p.block,
        "coord": p.coord,
        "delta": p.delta,
        "bit": p.bit,
        "target": p.target,
    }


@given(
    plans=fault_plans(),
    workers=st.integers(2, 4),
    salt=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_any_schedule_is_bit_identical_to_serial(plans, workers, salt):
    serial = _factor(plans, workers=1)

    def jitter(task):
        return ((hash(task.key) ^ salt) % 3) * 0.0005

    with inject_task_delays(jitter):
        threaded = _factor(plans, workers=workers)

    assert np.array_equal(serial.factor, threaded.factor)
    assert serial.stats == threaded.stats
    assert serial.stats.corrected_sites == threaded.stats.corrected_sites
    assert serial.restarts == threaded.restarts
    assert serial.runtime["task_total"] == threaded.runtime["task_total"]


@given(workers=st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_injector_fires_once_across_restarts(workers):
    # Two strikes in one tile column defeat the 2-checksum correction:
    # attempt 0 must restart, and the one-shot plans must NOT re-fire on
    # attempt 1 — whatever the schedule.
    plans = [
        FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=1, kind="storage",
                  block=(3, 1), coord=(2, 7)),
        FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=1, kind="storage",
                  block=(3, 1), coord=(9, 7)),
    ]
    inj = FaultInjector([FaultPlan(**_plan_kwargs(p)) for p in plans])
    a = _A0.copy()
    res = dag_potrf(
        Machine.preset("tardis"),
        a=a,
        block_size=BS,
        config=AbftConfig(dag_workers=workers),
        injector=inj,
    )
    assert res.restarts == 1
    assert len(inj.fired) == 2  # each plan fired exactly once, attempt 0
    assert all(p.fired for p in inj.plans)
    np.testing.assert_allclose(res.factor, np.linalg.cholesky(_A0), atol=1e-10)
