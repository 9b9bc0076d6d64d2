"""Skipping the taint walk over clean buffers changes no result.

Taint propagation in :mod:`repro.magma.ops` and the checksum updater, and
shadow-mode verification, return early while
:meth:`~repro.hetero.memory.DeviceBuffer.any_taint` reports a buffer clean:
merging a clean source is a no-op.  Patching ``any_taint`` to always answer
True restores the unconditional walk.  Every case below runs both ways and
must agree on every buffer's dirty keys and taint states, the verification
statistics, the restarts, the factor (real mode) and every span of every
attempt's timeline.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.blas.spd import random_spd
from repro.core import enhanced_potrf, offline_potrf, online_potrf
from repro.faults.campaign import CampaignSpec, sample_injector
from repro.faults.injector import single_computing_fault, single_storage_fault
from repro.hetero.context import ExecutionContext
from repro.hetero.machine import Machine
from repro.hetero.memory import DeviceBuffer
from repro.util.exceptions import RestartExhaustedError

SCHEMES = {"enhanced": enhanced_potrf, "online": online_potrf, "offline": offline_potrf}

SHADOW_N, SHADOW_B = 2048, 128  # nb = 16
REAL_N, REAL_B = 256, 32  # nb = 8

#: Shadow-mode campaigns: storage and computing faults, early and late
#: iterations, matrix and checksum targets, plus sampled single and double
#: faults (the doubles drive some schemes into restarts).
SHADOW_CASES = {
    "storage-matrix-early": lambda: single_storage_fault((5, 1), iteration=1),
    "storage-matrix-late": lambda: single_storage_fault((15, 12), iteration=13),
    "storage-diagonal": lambda: single_storage_fault((7, 7), iteration=7),
    "storage-checksum-early": lambda: single_storage_fault(
        (4, 2), coord=(0, 7), iteration=2, target="checksum"
    ),
    "storage-checksum-late": lambda: single_storage_fault(
        (14, 13), coord=(1, 3), iteration=13, target="checksum"
    ),
    "computing-early": lambda: single_computing_fault((6, 1)),
    "computing-late": lambda: single_computing_fault((15, 13)),
    **{
        f"sampled-{kind}-{target}-{count}x-{seed}": (
            lambda kind=kind, target=target, count=count, seed=seed: sample_injector(
                CampaignSpec(nb=SHADOW_N // SHADOW_B, kind=kind, target=target),
                SHADOW_B,
                rng=seed,
                count=count,
            )
        )
        for kind, target in (("storage", "matrix"), ("storage", "checksum"), ("computing", "matrix"))
        for count in (1, 2)
        for seed in (3, 11)
    },
}

#: Real-mode storage flips (the numerics correct them; taint still flows).
REAL_CASES = {
    "flip-matrix-early": lambda: single_storage_fault((3, 0), iteration=0, bit=55),
    "flip-matrix-late": lambda: single_storage_fault((7, 5), iteration=5, bit=61),
    "flip-checksum": lambda: single_storage_fault(
        (6, 2), coord=(1, 4), iteration=3, bit=58, target="checksum"
    ),
}


def _taint(buffer: DeviceBuffer) -> tuple:
    dirty = {k: t for k, t in buffer._taint.items() if not t.is_clean()}
    return buffer.name, buffer.tainted_keys(), dirty


def _spans(timeline) -> list[tuple]:
    if not len(timeline):
        return []
    base = min(s.tid for s in timeline)
    return [
        (
            s.tid - base,
            s.name,
            s.kind,
            s.resource,
            s.start.hex(),
            s.finish.hex(),
            s.meta,
            tuple(d - base for d in s.deps),
        )
        for s in timeline
    ]


def _run(monkeypatch, scheme: str, make_injector, numerics: str, walk_always: bool) -> dict:
    buffers: list[DeviceBuffer] = []
    alloc_matrix = ExecutionContext.alloc_matrix
    alloc_checksums = ExecutionContext.alloc_checksums

    def spy_matrix(self, *args, **kwargs):
        buffers.append(alloc_matrix(self, *args, **kwargs))
        return buffers[-1]

    def spy_checksums(self, *args, **kwargs):
        buffers.append(alloc_checksums(self, *args, **kwargs))
        return buffers[-1]

    machine = Machine.preset("tardis")
    with monkeypatch.context() as patch:
        patch.setattr(ExecutionContext, "alloc_matrix", spy_matrix)
        patch.setattr(ExecutionContext, "alloc_checksums", spy_checksums)
        if walk_always:
            patch.setattr(DeviceBuffer, "any_taint", lambda self: True)
        if numerics == "real":
            kwargs = {"a": random_spd(REAL_N, rng=5), "block_size": REAL_B}
        else:
            kwargs = {"n": SHADOW_N, "block_size": SHADOW_B, "numerics": "shadow"}
        try:
            res = SCHEMES[scheme](machine, injector=make_injector(), **kwargs)
        except RestartExhaustedError as exc:
            outcome: dict = {"exhausted": str(exc)}
        else:
            outcome = {
                "restarts": res.restarts,
                "stats": res.stats,
                "makespans": [t.hex() for t in res.attempt_makespans],
                "timeline": _spans(res.timeline),
                "failed": [_spans(t) for t in res.failed_timelines],
            }
            if numerics == "real":
                outcome["factor"] = hashlib.sha256(res.factor.tobytes()).hexdigest()
    outcome["taint"] = [_taint(b) for b in buffers]
    return outcome


@pytest.mark.parametrize("case", sorted(SHADOW_CASES))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_shadow_campaign_same_with_and_without_the_walk(monkeypatch, scheme, case):
    make = SHADOW_CASES[case]
    short = _run(monkeypatch, scheme, make, "shadow", walk_always=False)
    assert short == _run(monkeypatch, scheme, make, "shadow", walk_always=True)


@pytest.mark.parametrize("case", sorted(REAL_CASES))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_real_storage_flips_same_with_and_without_the_walk(monkeypatch, scheme, case):
    make = REAL_CASES[case]
    short = _run(monkeypatch, scheme, make, "real", walk_always=False)
    assert short == _run(monkeypatch, scheme, make, "real", walk_always=True)


def test_campaign_reaches_taint_and_restarts(monkeypatch):
    """The cases are not vacuous: some leave taint, some restart."""
    outcomes = [
        _run(monkeypatch, scheme, SHADOW_CASES[case], "shadow", walk_always=False)
        for scheme in SCHEMES
        for case in SHADOW_CASES
    ]
    assert any(o.get("restarts") for o in outcomes)
    assert any(o["stats"].data_corrections for o in outcomes if "stats" in o)
    assert any(dirty for o in outcomes for _, _, dirty in o["taint"])
