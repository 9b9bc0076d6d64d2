"""Shared fixtures: machines, SPD matrices, and small helpers."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.blas.spd import random_spd
from repro.exec.process import _WorkerHandle
from repro.hetero.machine import Machine


@pytest.fixture
def tardis() -> Machine:
    return Machine.preset("tardis")


@pytest.fixture
def bulldozer() -> Machine:
    return Machine.preset("bulldozer64")


@pytest.fixture(params=["tardis", "bulldozer64"])
def any_machine(request) -> Machine:
    return Machine.preset(request.param)


@pytest.fixture
def spd256() -> np.ndarray:
    """A 256×256 well-conditioned SPD matrix (deterministic)."""
    return random_spd(256, rng=42)


@pytest.fixture
def spd512() -> np.ndarray:
    return random_spd(512, rng=7)


def relative_residual(a0: np.ndarray, ell: np.ndarray) -> float:
    return float(np.linalg.norm(ell @ ell.T - a0) / np.linalg.norm(a0))


@pytest.fixture
def hold_spawns(monkeypatch):
    """Call it to hold every later worker start until the returned event is set.

    Returns ``(gate, started)``: *started* collects each held handle's new
    process once its start completes.  Call it after ``start_sync`` so the
    pool's own start is not held, and set the gate before ``stop_sync``.
    """
    gate = threading.Event()
    started: list = []
    real_spawn = _WorkerHandle.spawn

    def spawn(self, **kwargs):
        gate.wait(60.0)
        real_spawn(self, **kwargs)
        started.append(self.process)

    def hold():
        monkeypatch.setattr(_WorkerHandle, "spawn", spawn)
        return gate, started

    try:
        yield hold
    finally:
        gate.set()
