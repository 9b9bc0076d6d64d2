"""The ``timeline`` switch changes what a run records, never what it computes.

Every scheme entry point the service calls runs each fault case twice, with
the simulated machine recorded and without it.  The factor bytes, restarts,
the injector's fired list and every :class:`VerifyStats` field (corrected
sites included) must be equal; the untimed result must say it has no
simulated time instead of reporting 0 s.
"""

import numpy as np
import pytest

from repro.baselines.checkpoint import checkpoint_potrf
from repro.blas.spd import random_spd
from repro.core import AbftConfig, enhanced_potrf, offline_potrf, online_potrf
from repro.desim.trace import Timeline
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.hetero.machine import Machine
from repro.recovery import SnapshotLayout, SnapshotWriter, execute_resume, read_snapshot, zero_epochs
from repro.runtime.scheme import dag_potrf
from repro.service.job import Job
from repro.service.policy import RetryPolicy, execute_attempt, execute_fallback
from repro.util.exceptions import ValidationError

N, BS = 256, 32  # nb = 8
RESUME_AT = 3  # resumed from the snapshot published after iteration 2

#: Every fault strikes after the resume point, so resumed runs meet it too.
CASES = {
    "fault_free": [],
    "storage_flip": [FaultPlan(Hook.STORAGE_WINDOW, 4, "storage", (6, 3), (2, 7))],
    "computing_error": [FaultPlan(Hook.AFTER_GEMM, 4, "computing", (6, 4), (3, 5))],
    # Two flips in one tile column: past the one-error-per-column capacity
    # of r = 2 and r = 3, so every scheme restarts.
    "beyond_capacity": [
        FaultPlan(Hook.STORAGE_WINDOW, 4, "storage", (6, 3), (2, 7)),
        FaultPlan(Hook.STORAGE_WINDOW, 4, "storage", (6, 3), (9, 7)),
    ],
}

SCHEMES = {
    "offline": offline_potrf,
    "online": online_potrf,
    "enhanced": enhanced_potrf,
    "dag": dag_potrf,
}


@pytest.fixture(scope="module")
def a0():
    return random_spd(N, rng=np.random.default_rng(0))


def _injector(case: str) -> FaultInjector:
    return FaultInjector(
        [FaultPlan(p.hook, p.iteration, p.kind, p.block, p.coord) for p in CASES[case]]
    )


def _twice(run, a: np.ndarray, case: str):
    """``(factor, result, injector)`` of *run* with the timeline on, then off."""
    out = []
    for timeline in (True, False):
        work, inj = a.copy(), _injector(case)
        res = run(work, inj, timeline)
        out.append((work, res, inj))
    return out


def _assert_same_numerics(on, off, restarts="restarts"):
    (a_on, res_on, inj_on), (a_off, res_off, inj_off) = on, off
    assert a_on.tobytes() == a_off.tobytes()
    assert getattr(res_on, restarts) == getattr(res_off, restarts)
    assert inj_on.fired == inj_off.fired
    assert res_on.stats == res_off.stats
    assert res_on.stats.corrected_sites == res_off.stats.corrected_sites


def _assert_untimed(res):
    assert res.timeline is None and res.makespan is None
    with pytest.raises(ValidationError, match="timeline=False"):
        res.gflops


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_entry_points(tardis, a0, scheme, r, case):
    potrf = SCHEMES[scheme]
    on, off = _twice(
        lambda a, inj, timeline: potrf(
            tardis,
            a=a,
            block_size=BS,
            config=AbftConfig(n_checksums=r),
            injector=inj,
            timeline=timeline,
        ),
        a0,
        case,
    )
    _assert_same_numerics(on, off)
    res_on, res_off = on[1], off[1]
    if case == "beyond_capacity":
        assert res_on.restarts >= 1
    assert res_on.timeline is not None
    if scheme == "dag":
        assert res_off.timeline is None  # makespan stays the host wall seconds
    else:
        assert res_on.makespan > 0
        _assert_untimed(res_off)
        assert res_off.attempt_makespans == [] and res_off.failed_timelines == []
        with pytest.raises(ValidationError, match="timeline=False"):
            res_off.overhead_breakdown()


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpoint(tardis, a0, case):
    """The checkpoint baseline keeps the paper's two checksums (no ``config``)."""
    on, off = _twice(
        lambda a, inj, timeline: checkpoint_potrf(
            tardis, a=a, block_size=BS, interval=2, injector=inj, timeline=timeline
        ),
        a0,
        case,
    )
    _assert_same_numerics(on, off, restarts="rollbacks")
    assert on[1].factor.tobytes() == off[1].factor.tobytes()
    if case == "beyond_capacity":
        assert on[1].rollbacks >= 1
    assert on[1].makespan > 0
    _assert_untimed(off[1])


@pytest.fixture(scope="module")
def snapshots(a0):
    """The matrix each resumable scheme publishes after iteration 2, per r."""
    tardis = Machine.preset("tardis")
    out = {}
    for scheme in ("online", "enhanced"):
        for r in (2, 3):
            seen = {}

            def progress(iteration, matrix, chk, seen=seen):
                if iteration == RESUME_AT - 1:
                    seen["a"] = matrix.copy()

            SCHEMES[scheme](
                tardis, a=a0.copy(), block_size=BS, config=AbftConfig(n_checksums=r), progress=progress
            )
            out[scheme, r] = seen["a"]
    return out


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("scheme", ["online", "enhanced"])
def test_resume_from_iteration_2(tardis, snapshots, scheme, r, case):
    potrf = SCHEMES[scheme]
    on, off = _twice(
        lambda a, inj, timeline: potrf(
            tardis,
            a=a,
            block_size=BS,
            config=AbftConfig(n_checksums=r),
            injector=inj,
            start_iteration=RESUME_AT,
            timeline=timeline,
        ),
        snapshots[scheme, r],
        case,
    )
    _assert_same_numerics(on, off)
    if case == "beyond_capacity":
        assert on[1].restarts >= 1
    assert on[1].makespan > 0
    _assert_untimed(off[1])


# -- the service's attempt functions ---------------------------------------------


def _job(scheme: str) -> Job:
    return Job(job_id=3, n=128, block_size=32, scheme=scheme, seed=5)


@pytest.mark.parametrize("scheme", ["offline", "online", "enhanced"])
def test_attempt_keeps_simulated_time_only_when_asked(tardis, scheme):
    on = execute_attempt(_job(scheme), tardis)
    off = execute_attempt(_job(scheme), tardis, timeline=False)
    assert on.factor.tobytes() == off.factor.tobytes() and on.stats == off.stats
    assert isinstance(on.timeline, Timeline) and on.sim_makespan > 0
    assert off.timeline is None and off.sim_makespan is None


def test_dag_attempt_reports_no_simulated_makespan(tardis):
    """A dag makespan is host wall seconds, so it never poses as a simulated one."""
    on = execute_attempt(_job("dag"), tardis)
    off = execute_attempt(_job("dag"), tardis, timeline=False)
    assert on.factor.tobytes() == off.factor.tobytes() and on.stats == off.stats
    assert isinstance(on.timeline, Timeline) and on.sim_makespan is None
    assert off.timeline is None and off.sim_makespan is None


def test_fallback_keeps_simulated_time_only_when_asked(tardis):
    on = execute_fallback(_job("enhanced"), tardis, RetryPolicy())
    off = execute_fallback(_job("enhanced"), tardis, RetryPolicy(), timeline=False)
    assert on.factor.tobytes() == off.factor.tobytes() and on.stats == off.stats
    assert on.sim_makespan > 0 and off.sim_makespan is None and off.timeline is None


@pytest.mark.parametrize("scheme", ["online", "enhanced"])
def test_service_resume_from_iteration_2(tardis, scheme):
    job = _job(scheme)
    layout = SnapshotLayout(job.n, job.block_size)
    buf = np.zeros(layout.shape)
    zero_epochs(buf)
    writer = SnapshotWriter(buf, layout)

    def publish(iteration, matrix, chk):
        if iteration < RESUME_AT:
            writer.publish(iteration, matrix, chk)

    execute_attempt(job, tardis, progress=publish)
    on = execute_resume(job, tardis, read_snapshot(buf, layout))
    off = execute_resume(job, tardis, read_snapshot(buf, layout), timeline=False)
    assert on.extras["resumed_from_iteration"] == RESUME_AT
    assert on.factor.tobytes() == off.factor.tobytes()
    assert on.stats == off.stats and on.corrected_sites == off.corrected_sites
    assert on.sim_makespan > 0 and off.sim_makespan is None and off.timeline is None
