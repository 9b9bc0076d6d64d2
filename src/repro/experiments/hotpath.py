"""Hot-path benchmark: the checksum detector and the tile-DAG runtime.

``python -m repro bench`` times one fault-tolerant factorization, then a
full lower-triangle verify sweep over the same planted fault through two
paths: :meth:`~repro.core.correct.Verifier.check_real` (the batched
detector, then the per-tile decoder on the flagged tiles) and
:func:`check_per_tile`, the per-tile reference loop.  It emits
``BENCH_hotpath.json``: the wall timings, the sweep speedup, and the
bit-identity verdicts of the sweep (data, strips and verifier statistics
must match exactly; only the wall time may differ).

The ``dag`` section times the :mod:`repro.runtime` tile-DAG scheme serial
(1 worker, program order) against threaded with lookahead over an
n-grid, fault injected, with the same kind of verdicts — the runtime's
contract is that the schedule changes only the wall clock, never a bit
of the result.

The file at the repo root is the perf trajectory: every change that
touches the hot path regenerates it, and the CI perf-smoke job fails if
the detector ever becomes slower than the per-tile loop (and, on hosts
with enough cores, if the DAG runtime stops beating serial).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.blas.spd import random_spd
from repro.core import SCHEMES, AbftConfig
from repro.core.base import FtPotrfResult
from repro.core.checksum import issue_encoding
from repro.core.correct import Verifier, VerifyStats, check_tile_strip
from repro.core.multierror import MultiErrorCodec
from repro.experiments.stamp import run_stamp
from repro.faults.injector import Hook, single_storage_fault
from repro.hetero.machine import Machine
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.runtime.executor import LOOKAHEAD
from repro.runtime.scheme import dag_potrf
from repro.util.validation import require

#: Schema 2 added the ``stamp`` provenance block (git rev, hostname, CPU
#: count, timestamp); schema 3 the ``dag`` section (tile-DAG runtime
#: serial-vs-threaded grid); schema 4 dropped the factorization-level
#: verify A/B (``verify_check``), so ``factor_total`` is one number and
#: the sweep alone compares the two paths.  :func:`read` still accepts
#: older documents.
SCHEMA_VERSION = 4

#: Where the fault is planted (tile, iteration) — early enough that every
#: scheme's verification sees and corrects it.
_FAULT_BLOCK = (3, 1)
_FAULT_ITERATION = 1

#: The dag grid: larger tiles than the verify bench so BLAS work per task
#: dwarfs Python dispatch (nb = 4/8/16 over the grid), n chosen so the
#: fault tile (3, 1) exists at every point.
_DAG_SIZES = (512, 1024, 2048)
_DAG_BLOCK = 128


def default_dag_workers() -> int:
    """Thread count the dag side of the bench uses by default: 2–4,
    bounded by the host (1-core hosts still measure, honestly, ≈1×)."""
    return max(2, min(4, os.cpu_count() or 1))


def check_per_tile(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    keys: list[tuple[int, int]],
    codec: MultiErrorCodec,
    *,
    stats: VerifyStats,
) -> None:
    """The per-tile reference: :func:`check_tile_strip` on every key.

    Same signature and outcome as :func:`repro.core.correct.check_tiles`,
    without the batched detector in front.  Only the sweep below and the
    parity tests call it.
    """
    for key in keys:
        check_tile_strip(
            key, matrix.tile_view(key), chk.tile_view(key), codec, stats=stats
        )


def _factor(
    machine: Machine, a: np.ndarray, block_size: int, scheme: str, inject: bool
) -> tuple[FtPotrfResult, float]:
    """One full factorization; returns the result and its host wall time."""
    injector = (
        single_storage_fault(block=_FAULT_BLOCK, iteration=_FAULT_ITERATION)
        if inject
        else None
    )
    work = a.copy()
    t0 = time.perf_counter()
    res = SCHEMES[scheme](machine, a=work, block_size=block_size, injector=injector)
    return res, time.perf_counter() - t0


def _sweep(
    machine: Machine, a: np.ndarray, block_size: int, repeats: int, inject: bool
) -> tuple[dict[str, float], dict[str, bool]]:
    """One full lower-triangle sweep through each path, best of *repeats*.

    No factorization and no simulated schedule: every repeat restores
    the freshly encoded buffers, plants the standard fault and times one
    sweep.  Returns the best times and the bit-identity verdicts between
    the two paths' final data, strips and statistics.
    """
    ctx = machine.context(numerics="real")
    matrix = ctx.alloc_matrix(a.shape[0], block_size, data=a.copy())
    chk = ctx.alloc_checksums(a.shape[0], block_size)
    verifier = Verifier(ctx, matrix, chk, n_streams=16)
    issue_encoding(ctx, matrix, chk, verifier.streams)
    clean_data, clean_chk = matrix.array.copy(), chk.array.copy()
    injector = single_storage_fault(block=_FAULT_BLOCK)
    injector.bind("matrix", matrix)
    keys = verifier.lower_keys()
    best: dict[str, float] = {}
    final: dict[str, tuple[np.ndarray, np.ndarray, VerifyStats]] = {}
    for mode in ("batched", "per_tile"):
        best[mode] = float("inf")
        for _ in range(repeats):
            matrix.array[...] = clean_data
            chk.array[...] = clean_chk
            if inject:
                injector.reset()
                injector.fire(Hook.STORAGE_WINDOW, iteration=0)
            verifier.stats = VerifyStats()
            t0 = time.perf_counter()
            if mode == "batched":
                verifier.check_real(keys)
            else:
                check_per_tile(matrix, chk, keys, verifier.codec, stats=verifier.stats)
            best[mode] = min(best[mode], time.perf_counter() - t0)
        final[mode] = (matrix.array.copy(), chk.array.copy(), verifier.stats)
    (b_data, b_chk, b_stats), (p_data, p_chk, p_stats) = final["batched"], final["per_tile"]
    identical = {
        "data": bool(np.array_equal(b_data, p_data)),
        "strips": bool(np.array_equal(b_chk, p_chk)),
        "stats": b_stats == p_stats,
    }
    return best, identical


def _dag_factor(
    machine: Machine, a: np.ndarray, workers: int, seed: int
) -> tuple[FtPotrfResult, float]:
    """One tile-DAG factorization with the standard fault, timed."""
    injector = single_storage_fault(block=_FAULT_BLOCK, iteration=_FAULT_ITERATION)
    work = a.copy()
    t0 = time.perf_counter()
    res = dag_potrf(
        machine,
        a=work,
        block_size=_DAG_BLOCK,
        config=AbftConfig(dag_workers=workers),
        injector=injector,
    )
    return res, time.perf_counter() - t0


def dag_grid(
    machine: Machine,
    sizes: tuple[int, ...],
    workers: int,
    repeats: int,
    seed: int,
) -> list[dict[str, Any]]:
    """Serial-vs-threaded DAG runtime over the n-grid, fault injected.

    Each point records best-of-*repeats* ``factor_total`` for 1 worker
    (program order — the bit-identity reference) and for *workers*
    threads with lookahead, plus the bit-identity verdicts between them.
    """
    min_n = (max(_FAULT_BLOCK) + 1) * _DAG_BLOCK
    points: list[dict[str, Any]] = []
    for n in sizes:
        require(
            n % _DAG_BLOCK == 0 and n >= min_n,
            f"dag grid size {n} must be a multiple of {_DAG_BLOCK} and at "
            f"least {min_n} so the standard fault tile {_FAULT_BLOCK} exists",
        )
        a = random_spd(n, rng=seed)
        best: dict[str, float] = {}
        res: dict[str, FtPotrfResult] = {}
        for mode, w in (("serial", 1), ("dag", workers)):
            wall = float("inf")
            for _ in range(repeats):
                r, t = _dag_factor(machine, a, w, seed)
                if t < wall:
                    wall = t
                    res[mode] = r
            best[mode] = wall
        serial, dag = res["serial"], res["dag"]
        points.append(
            {
                "n": n,
                "nb": n // _DAG_BLOCK,
                "factor_total": best,
                "speedup": best["serial"] / best["dag"],
                "restarts": dag.restarts,
                "data_corrections": dag.stats.data_corrections,
                "tasks": dag.runtime["tasks"],
                "max_lookahead_depth": dag.runtime["max_lookahead_depth"],
                "bit_identical": {
                    "factor": bool(np.array_equal(serial.factor, dag.factor)),
                    "stats": serial.stats == dag.stats,
                    "corrected_sites": (
                        serial.stats.corrected_sites == dag.stats.corrected_sites
                    ),
                },
            }
        )
    return points


def run(
    n: int = 1024,
    block_size: int = 32,
    machine: str = "tardis",
    scheme: str = "enhanced",
    repeats: int = 3,
    seed: int = 0,
    inject: bool = True,
    dag_workers: int | None = None,
    dag_sizes: tuple[int, ...] = _DAG_SIZES,
) -> dict[str, Any]:
    """Benchmark the factorization, the verify sweep through both paths
    and the DAG runtime; returns the BENCH_hotpath document (schema 4)."""
    require(n % block_size == 0, "n must be a multiple of block_size")
    mach = Machine.preset(machine)
    a = random_spd(n, rng=seed)

    factor_s = float("inf")
    for _ in range(repeats):
        res, wall = _factor(mach, a, block_size, scheme, inject)
        factor_s = min(factor_s, wall)

    sweep_s, identical = _sweep(mach, a, block_size, repeats, inject)

    workers = dag_workers if dag_workers is not None else default_dag_workers()
    grid = dag_grid(mach, tuple(dag_sizes), workers, repeats, seed)

    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "python -m repro bench",
        "stamp": run_stamp(),
        "machine": machine,
        "scheme": scheme,
        "n": n,
        "block_size": block_size,
        "nb": n // block_size,
        "repeats": repeats,
        "seed": seed,
        "fault_injected": inject,
        "tiles_verified": res.stats.tiles_verified,
        "data_corrections": res.stats.data_corrections,
        "phases_s": {"factor_total": factor_s, "sweep_check": sweep_s},
        "speedup": {"sweep_check": sweep_s["per_tile"] / sweep_s["batched"]},
        "bit_identical": identical,
        "dag": {
            "workers": workers,
            "lookahead": LOOKAHEAD,
            "block_size": _DAG_BLOCK,
            "host_cores": os.cpu_count() or 1,
            "grid": grid,
        },
    }


def write(doc: dict[str, Any], path: str | Path) -> Path:
    """Write the bench document as stable, diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read(path: str | Path) -> dict[str, Any]:
    """Load a bench document, accepting schemas 1 (pre-stamp) to 4.

    Older documents are normalized in place: schema 1 gains an empty
    ``stamp`` block, schemas 1–2 an empty ``dag`` section
    (``doc["dag"]["grid"] == []``), so readers can always index both.
    """
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema")
    require(
        schema in (1, 2, 3, SCHEMA_VERSION),
        f"unsupported bench schema {schema!r} in {path} (have 1..{SCHEMA_VERSION})",
    )
    doc.setdefault("stamp", {})
    doc.setdefault("dag", {"workers": 0, "lookahead": 0, "block_size": 0, "grid": []})
    return doc


def render(doc: dict[str, Any]) -> str:
    """Human summary of one bench document."""
    ph = doc["phases_s"]
    sp = doc["speedup"]
    ok = doc["bit_identical"]
    lines = [
        f"hotpath bench — {doc['scheme']} n={doc['n']} B={doc['block_size']} "
        f"(nb={doc['nb']}, {doc['machine']}, best of {doc['repeats']})",
        f"  full sweep  : per-tile {ph['sweep_check']['per_tile'] * 1e3:8.2f} ms"
        f" | batched {ph['sweep_check']['batched'] * 1e3:8.2f} ms"
        f" | speedup {sp['sweep_check']:5.2f}x",
        f"  sweep bit-identical: data={ok['data']} strips={ok['strips']} "
        f"stats={ok['stats']}",
        f"  factor wall : {ph['factor_total']:8.3f} s "
        f"({doc['tiles_verified']} tiles verified, "
        f"{doc['data_corrections']} corrections)",
    ]
    dag = doc.get("dag") or {}
    for point in dag.get("grid", []):
        pok = point["bit_identical"]
        lines.append(
            f"  dag n={point['n']:5d} (nb={point['nb']:2d}, "
            f"{dag['workers']} workers): serial "
            f"{point['factor_total']['serial']:7.3f} s | dag "
            f"{point['factor_total']['dag']:7.3f} s | speedup "
            f"{point['speedup']:5.2f}x | bit-identical "
            f"{pok['factor'] and pok['stats'] and pok['corrected_sites']}"
        )
    return "\n".join(lines)
