"""Span oracle: the simulated time plane of the left-looking schemes, pinned bit for bit.

``span_oracle.json`` holds one SHA-256 per shadow-mode configuration.  Each
digest covers the successful attempt's spans (tid, name, kind, resource,
start and finish as ``float.hex``, meta, deps), every attempt's makespan,
the restart count and the :class:`~repro.core.correct.VerifyStats`.  Task
ids come from one process-wide counter, so tids and deps are taken
relative to the run's lowest span tid.

The grid is 3 schemes × 3 updating placements × K ∈ {1, 3} × r ∈ {2, 3}
checksums × the two machine presets at n = 4096, B = 512.  Each cell runs
fault-free, with the capability tables' computing fault, with their memory
fault, and with an early storage flip.  Online and Enhanced also resume
from iteration 3.

A change that means to move the time plane regenerates the file and says
why; a refactor must leave every digest alone.  Regenerate with::

    PYTHONPATH=src python -m tests.test_span_oracle --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import SCHEMES, AbftConfig
from repro.core.update import PLACEMENTS
from repro.experiments.capability import build_injector
from repro.faults.injector import no_faults, single_storage_fault
from repro.hetero.machine import Machine

ORACLE = Path(__file__).with_name("span_oracle.json")
N, BLOCK = 4096, 512
MACHINES = ("tardis", "bulldozer64")
INTERVALS = (1, 3)
CHECKSUMS = (2, 3)
FAULTS = ("none", "computing_error", "memory_error", "early_storage")
RESUME_FROM = 3


def _injector(fault: str):
    if fault == "none":
        return no_faults()
    if fault == "early_storage":
        return single_storage_fault(block=(3, 1), iteration=1)
    return build_injector(fault, N // BLOCK)


def digest(res) -> str:
    """SHA-256 over one result's spans, makespans, restarts and stats."""
    h = hashlib.sha256()
    base = min(s.tid for s in res.timeline.spans)
    for s in res.timeline.spans:
        record = (
            s.tid - base,
            s.name,
            s.kind,
            s.resource,
            s.start.hex(),
            s.finish.hex(),
            sorted(s.meta.items()),
            tuple(d - base for d in s.deps),
        )
        h.update(repr(record).encode())
    h.update(repr([t.hex() for t in res.attempt_makespans]).encode())
    h.update(repr((res.makespan.hex(), res.restarts)).encode())
    h.update(repr(dataclasses.astuple(res.stats)).encode())
    return h.hexdigest()


def scheme_digests(scheme: str) -> dict[str, str]:
    """Every configuration of *scheme* in the grid, keyed by its cell."""
    potrf = SCHEMES[scheme]
    out: dict[str, str] = {}
    for machine_name in MACHINES:
        machine = Machine.preset(machine_name)
        for placement in PLACEMENTS:
            for k in INTERVALS:
                for r in CHECKSUMS:
                    cfg = AbftConfig(verify_interval=k, updating_placement=placement, n_checksums=r)
                    for fault in FAULTS:
                        res = potrf(
                            machine,
                            n=N,
                            block_size=BLOCK,
                            config=cfg,
                            injector=_injector(fault),
                            numerics="shadow",
                        )
                        out[f"{machine_name}/{placement}/K{k}/r{r}/{fault}"] = digest(res)
    if scheme != "offline":
        res = potrf(
            Machine.preset("tardis"),
            n=N,
            block_size=BLOCK,
            numerics="shadow",
            start_iteration=RESUME_FROM,
        )
        out[f"tardis/resume{RESUME_FROM}"] = digest(res)
    return out


@pytest.mark.parametrize("scheme", ["offline", "online", "enhanced"])
def test_time_plane_matches_oracle(scheme):
    want = json.loads(ORACLE.read_text())[scheme]
    got = scheme_digests(scheme)
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not moved, f"{scheme}: {len(moved)} configuration(s) moved, e.g. {moved[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_span_oracle --write")
    table = {scheme: scheme_digests(scheme) for scheme in ("offline", "online", "enhanced")}
    ORACLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {ORACLE}")
