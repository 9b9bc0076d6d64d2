"""The in-place contract of the five real-mode entry points.

Each factors the caller's ``a`` in place.  On success ``a`` holds L with
zeros above the diagonal and the result's ``factor`` is ``a``; a call that
raises leaves ``a`` byte-equal to its input; an ``a`` that cannot be
factored in place is refused before any kernel runs.  Within an attempt
each diagonal block of the factor is inverted once, however many solves
use it.
"""

from __future__ import annotations

import signal
import threading
import time

import numpy as np
import pytest

from repro.baselines.checkpoint import checkpoint_potrf
from repro.blas import dense
from repro.blas.spd import random_spd
from repro.core import AbftConfig, enhanced_potrf, offline_potrf, online_potrf
from repro.core.base import SchemeRun
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.runtime import inject_task_delays
from repro.runtime.scheme import dag_potrf
from repro.util.exceptions import RestartExhaustedError, ValidationError

N, BS = 256, 32  # nb = 8

ENTRY_POINTS = {
    "offline": offline_potrf,
    "online": online_potrf,
    "enhanced": enhanced_potrf,
    "checkpoint": checkpoint_potrf,
    "dag": dag_potrf,
}


@pytest.fixture
def a0() -> np.ndarray:
    return random_spd(N, rng=29)


def _two_strikes() -> FaultInjector:
    """Two flips in one column of one tile: beyond the code's capacity."""
    return FaultInjector(
        [
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=1, kind="storage", block=(3, 1), coord=(2, 7)),
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=1, kind="storage", block=(3, 1), coord=(4, 7)),
        ]
    )


def _factor(scheme, machine, a, injector=None, max_restarts=None):
    if scheme == "checkpoint":  # its config is fixed: four rollbacks
        return checkpoint_potrf(machine, a=a, block_size=BS, interval=2, injector=injector)
    config = AbftConfig(dag_workers=2) if scheme == "dag" else AbftConfig()
    if max_restarts is not None:
        config = AbftConfig(dag_workers=config.dag_workers, max_restarts=max_restarts)
    return ENTRY_POINTS[scheme](machine, a=a, block_size=BS, config=config, injector=injector)


@pytest.mark.parametrize("scheme", sorted(ENTRY_POINTS))
class TestSuccess:
    def test_a_is_the_factor(self, tardis, a0, scheme):
        a = a0.copy()
        res = _factor(scheme, tardis, a)
        assert res.factor is a
        assert not np.triu(a, 1).any()
        assert np.allclose(a @ a.T, a0, rtol=0, atol=1e-10 * np.abs(a0).max())

    def test_a_restarted_call_factors_the_input_again(self, tardis, a0, scheme):
        clean = _factor(scheme, tardis, a0.copy()).factor
        a = a0.copy()
        res = _factor(scheme, tardis, a, injector=_two_strikes())
        assert res.restarts == 1
        assert res.factor is a
        assert a.tobytes() == clean.tobytes()


class TestFailure:
    @pytest.mark.parametrize("scheme", ["offline", "online", "enhanced", "dag"])
    def test_exhausted_restarts_leave_a_as_it_was(self, tardis, a0, scheme):
        a = a0.copy()
        with pytest.raises(RestartExhaustedError):
            _factor(scheme, tardis, a, injector=_two_strikes(), max_restarts=0)
        assert a.tobytes() == a0.tobytes()

    def test_checkpoint_restores_the_input_not_the_snapshot(self, tardis, a0, monkeypatch):
        """Every attempt fails at the last POTF2, after snapshots: the
        rollbacks resume from the newest, and the raise restores the input."""
        indefinite = a0.copy()
        indefinite[-1, -1] = -1.0
        snapshots = []
        take_snapshot = SchemeRun.checkpoint

        def spy(run, iteration):
            take_snapshot(run, iteration)
            snapshots.append(run.restart_point[1])

        monkeypatch.setattr(SchemeRun, "checkpoint", spy)
        a = indefinite.copy()
        with pytest.raises(RestartExhaustedError):
            _factor("checkpoint", tardis, a)
        assert snapshots and not np.array_equal(snapshots[-1], indefinite)
        assert a.tobytes() == indefinite.tobytes()

    def test_an_interrupted_dag_call_leaves_a_as_it_was(self, tardis, a0):
        """A signal reaches the caller's thread mid-run: the DAG workers
        drain before the input is copied back, so none writes into a later."""

        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        main = threading.main_thread().ident
        started: list = []
        once = threading.Lock()

        def signal_the_caller_once(task) -> float:
            started.append(task)
            if len(started) >= 10 and once.acquire(blocking=False):
                signal.pthread_kill(main, signal.SIGUSR1)
            return 0.002

        previous = signal.signal(signal.SIGUSR1, interrupt)
        a = a0.copy()
        try:
            with inject_task_delays(signal_the_caller_once), pytest.raises(Interrupted):
                _factor("dag", tardis, a)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert a.tobytes() == a0.tobytes()
        time.sleep(0.1)  # a worker left running would still be writing
        assert a.tobytes() == a0.tobytes()


@pytest.mark.parametrize("scheme", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("layout", ["fortran", "read-only"])
def test_an_a_that_cannot_be_factored_in_place_is_refused(tardis, a0, monkeypatch, scheme, layout):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(dense, "potf2", no_kernel)
    if layout == "fortran":
        a = np.asfortranarray(a0)
    else:
        a = a0.copy()
        a.flags.writeable = False
    with pytest.raises(ValidationError, match="in place"):
        _factor(scheme, tardis, a)
    assert a.tobytes() == a0.tobytes()


@pytest.mark.parametrize(
    "potrf, n, block_size, inverses",
    [(enhanced_potrf, 256, 64, 8), (dag_potrf, 384, 192, 12)],
)
def test_each_diagonal_block_is_inverted_once(tardis, monkeypatch, potrf, n, block_size, inverses):
    """nb · ⌈B/32⌉ inversions per fault-free attempt (inverting per solve
    made 20 and 24: L_jj is solved against several times)."""
    calls = []
    invert = dense._inverse_transpose

    def counting(diag):
        calls.append(diag.shape)
        return invert(diag)

    monkeypatch.setattr(dense, "_inverse_transpose", counting)
    potrf(tardis, a=random_spd(n, rng=31), block_size=block_size)
    assert len(calls) == inverses
