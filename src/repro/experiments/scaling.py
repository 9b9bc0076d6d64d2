"""Service scaling benchmark: execution backends × pool widths.

``python -m repro bench --service`` drives the same closed-loop workload
through every execution backend (``inline`` | ``thread`` | ``process``)
at several pool widths and emits ``BENCH_service.json``: jobs/sec and
p50/p95 latency per cell, the process-pool scaling ratio, and the
determinism verdict (per-job results and the raw factor bits must be
identical whichever backend executed them).

NumPy factorizations hold the GIL for most of an attempt, so the thread
backend cannot scale on CPU-bound work — the process pool is the row
that should grow with workers, and only on hosts with the cores to back
it (the document records ``stamp.cpu_count`` so a flat curve on a 1-core
box is attributable).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.exec import BACKENDS, AttemptRequest, make_executor
from repro.experiments.stamp import run_stamp
from repro.hetero.machine import Machine
from repro.service.core import ServiceConfig, SolveService
from repro.service.job import JobStatus
from repro.service.loadgen import LoadGenConfig, make_job, run_load
from repro.util.validation import require

#: Schema 2 added the job-size grid (``size_grid``): inline-vs-process
#: jobs/s per matrix order plus the measured crossover order.  Schema 3
#: drops the grid's cost-model half (the model-predicted crossover, the
#: pool's mean dispatch overhead and each cell's overhead reading).
#: :func:`load_service_doc` reads schema-1 documents by backfilling
#: ``size_grid: None``.
SCHEMA_VERSION = 3

#: (executor, workers) cells measured by default; ``inline`` has no pool
#: so only width 1 is meaningful there.
DEFAULT_WORKERS = (1, 2, 4)

#: Matrix orders swept by the inline-vs-process size grid.  The small end
#: is where per-dispatch overhead dominates (inline wins); the large end
#: is where multicore compute dominates (process should win — on hosts
#: with the cores to back it).
DEFAULT_GRID_SIZES = (256, 512, 1024, 2048)


def _cell_config(executor: str, workers: int, jobs: int) -> tuple[ServiceConfig, LoadGenConfig]:
    service = ServiceConfig(
        workers=(f"tardis:{workers}",),
        executor=executor,
        exec_workers=workers,
        job_timeout_s=300.0,
    )
    load = LoadGenConfig(
        jobs=jobs,
        sizes=(64, 96),
        block_size=32,
        scheme="enhanced",
        seed=0,
        concurrency=max(2, 2 * workers),
    )
    return service, load


def _job_fingerprint(result) -> tuple:
    """The per-job fields the determinism contract pins across backends."""
    return (
        result.job_id,
        result.status.value,
        None if result.residual is None else float(result.residual).hex(),
        result.corrected_errors,
        tuple(tuple(site) for site in result.corrected_sites),
        result.fallback_used,
    )


def _measure_cell(executor: str, workers: int, jobs: int) -> dict[str, Any]:
    service_cfg, load_cfg = _cell_config(executor, workers, jobs)
    service = SolveService(service_cfg)
    report, results = asyncio.run(run_load(service, load_cfg))
    failed = [r for r in results if r.status is JobStatus.FAILED]
    require(not failed, f"{executor} x{workers}: {len(failed)} jobs failed")
    latency = service.metrics["service_latency_seconds"]
    return {
        "jobs_per_s": report.jobs_per_s,
        "p50_s": latency.percentile(0.5),
        "p95_s": latency.percentile(0.95),
        "wall_s": report.wall_s,
        "completed": report.completed,
        "fingerprints": sorted(_job_fingerprint(r) for r in results),
    }


def _factor_parity(executors: tuple[str, ...], probes: int = 2) -> bool:
    """Bit-compare raw factors across backends for a few probe jobs."""
    load = LoadGenConfig(jobs=probes, sizes=(64, 96), block_size=32, scheme="enhanced", seed=0)
    machine = Machine.preset("tardis")
    reference: list[np.ndarray] = []
    identical = True
    for name in executors:
        executor = make_executor(name, workers=1)
        factors = []
        try:
            for index in range(probes):
                request = AttemptRequest(job=make_job(load, index), preset="tardis", machine=machine)
                factors.append(executor.run_sync(request).factor)
        finally:
            stop = getattr(executor, "stop_sync", None)
            if stop is not None:
                stop()
        if not reference:
            reference = factors
        else:
            identical = identical and all(
                np.array_equal(a, b) for a, b in zip(reference, factors)
            )
    return identical


def _measure_size_cell(executor: str, n: int, jobs: int, width: int) -> dict[str, Any]:
    """One size-grid cell: *jobs* closed-loop jobs of order *n*."""
    service = SolveService(
        ServiceConfig(
            workers=(f"tardis:{width}",),
            executor=executor,
            exec_workers=width,
            job_timeout_s=600.0,
        )
    )
    load = LoadGenConfig(
        jobs=jobs,
        sizes=(n,),
        block_size=32,
        scheme="enhanced",
        seed=0,
        concurrency=max(2, 2 * width),
    )
    report, results = asyncio.run(run_load(service, load))
    failed = [r for r in results if r.status is JobStatus.FAILED]
    require(not failed, f"size grid {executor} n={n}: {len(failed)} jobs failed")
    return {
        "jobs_per_s": report.jobs_per_s,
        "seconds_per_job": report.wall_s / max(1, report.completed),
        "wall_s": report.wall_s,
        "completed": report.completed,
    }


def run_size_grid(
    sizes: tuple[int, ...] = DEFAULT_GRID_SIZES,
    jobs: int = 3,
    width: int = 2,
) -> dict[str, Any]:
    """Inline-vs-process jobs/s per matrix order, plus the crossover.

    ``measured_crossover_n`` is the smallest swept order at which the
    process backend's throughput meets or beats inline (``None`` if it
    never does — expected on single-core hosts, where forking buys no
    parallelism to amortize the dispatch against).
    """
    require(jobs >= 1, "need at least one job per grid cell")
    require(all(n >= 32 for n in sizes), "grid sizes must be >= 32")
    require(width >= 1, "grid width must be >= 1")
    sizes = tuple(sorted(sizes))
    cells: dict[str, dict[str, dict[str, Any]]] = {"inline": {}, "process": {}}
    for n in sizes:
        cells["inline"][str(n)] = _measure_size_cell("inline", n, jobs, width)
        cells["process"][str(n)] = _measure_size_cell("process", n, jobs, width)

    measured: int | None = None
    for n in sizes:
        if cells["process"][str(n)]["jobs_per_s"] >= cells["inline"][str(n)]["jobs_per_s"]:
            measured = n
            break
    return {
        "sizes": list(sizes),
        "jobs_per_cell": jobs,
        "process_workers": width,
        "cells": cells,
        "measured_crossover_n": measured,
    }


def run(
    jobs: int = 12,
    executors: tuple[str, ...] = BACKENDS,
    workers: tuple[int, ...] = DEFAULT_WORKERS,
    grid_sizes: tuple[int, ...] = DEFAULT_GRID_SIZES,
    grid_jobs: int = 3,
) -> dict[str, Any]:
    """Measure the scaling grid and return the BENCH_service document.

    ``grid_sizes=()`` skips the inline-vs-process size grid (the document
    then carries ``size_grid: None``, same as a schema-1 reader sees).
    """
    require(jobs >= 2, "need at least two jobs per cell")
    require(all(e in BACKENDS for e in executors), f"executors must be in {BACKENDS}")
    require(all(w >= 1 for w in workers), "worker widths must be >= 1")

    grid: dict[str, dict[str, dict[str, Any]]] = {}
    fingerprints: dict[tuple, list[str]] = {}
    for name in executors:
        widths = (1,) if name == "inline" else tuple(workers)
        grid[name] = {}
        for width in widths:
            cell = _measure_cell(name, width, jobs)
            prints = tuple(cell.pop("fingerprints"))
            fingerprints.setdefault(prints, []).append(f"{name}:{width}")
            grid[name][str(width)] = cell

    # Every cell ran the identical workload; one equivalence class means
    # every backend produced the same per-job outcomes.
    results_identical = len(fingerprints) == 1
    factors_identical = _factor_parity(tuple(executors))

    speedups: dict[str, float] = {}
    for name, cells in grid.items():
        lo, hi = cells.get("1"), cells.get(str(max(workers)))
        if lo and hi and lo["jobs_per_s"] > 0:
            speedups[name] = hi["jobs_per_s"] / lo["jobs_per_s"]

    size_grid = None
    if grid_sizes:
        size_grid = run_size_grid(tuple(grid_sizes), jobs=grid_jobs, width=max(workers))

    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "python -m repro bench --service",
        "stamp": run_stamp(),
        "jobs_per_cell": jobs,
        "sizes": [64, 96],
        "block_size": 32,
        "scheme": "enhanced",
        "workers_sweep": list(workers),
        "grid": grid,
        "speedup_vs_1_worker": speedups,
        "size_grid": size_grid,
        "bit_identical": {
            "job_results": results_identical,
            "factors": factors_identical,
        },
    }


def load_service_doc(path: str | Path) -> dict[str, Any]:
    """Read a BENCH_service document of any schema version.

    Schema-1 documents predate the size grid; they come back with
    ``size_grid: None`` so consumers can treat "not measured" and
    "skipped" uniformly instead of branching on the version.
    """
    doc = json.loads(Path(path).read_text())
    version = int(doc.get("schema", 1))
    require(
        version <= SCHEMA_VERSION,
        f"BENCH_service schema {version} is newer than this reader ({SCHEMA_VERSION})",
    )
    if version < 2:
        doc.setdefault("size_grid", None)
    return doc


def write(doc: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def render(doc: dict[str, Any]) -> str:
    """Human summary of one scaling document."""
    lines = [
        f"service scaling — {doc['jobs_per_cell']} jobs/cell, sizes {doc['sizes']}, "
        f"B={doc['block_size']}, host cpus={doc['stamp'].get('cpu_count', '?')}",
        f"  {'backend':8} {'workers':>7} {'jobs/s':>8} {'p50 ms':>8} {'p95 ms':>8}",
    ]
    for name, cells in doc["grid"].items():
        for width in sorted(cells, key=int):
            cell = cells[width]
            lines.append(
                f"  {name:8} {width:>7} {cell['jobs_per_s']:8.2f} "
                f"{cell['p50_s'] * 1e3:8.1f} {cell['p95_s'] * 1e3:8.1f}"
            )
    for name, ratio in doc["speedup_vs_1_worker"].items():
        lines.append(f"  {name} speedup at max width: {ratio:.2f}x")
    size_grid = doc.get("size_grid")
    if size_grid:
        lines.append(
            f"  size grid (x{size_grid['process_workers']} process pool, "
            f"{size_grid['jobs_per_cell']} jobs/cell):"
        )
        lines.append(f"  {'n':>6} {'inline j/s':>11} {'process j/s':>12}")
        for n in size_grid["sizes"]:
            lines.append(
                f"  {n:>6} {size_grid['cells']['inline'][str(n)]['jobs_per_s']:11.2f} "
                f"{size_grid['cells']['process'][str(n)]['jobs_per_s']:12.2f}"
            )
        lines.append(f"  crossover n: measured={size_grid['measured_crossover_n']}")
    ok = doc["bit_identical"]
    lines.append(
        f"  bit-identical: job_results={ok['job_results']} factors={ok['factors']}"
    )
    return "\n".join(lines)
