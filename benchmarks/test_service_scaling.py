"""Service scaling: execution backends × pool widths, with gates.

Regenerates ``results/BENCH_service.json`` — the multicore counterpart of
the hotpath perf trajectory.  Three assertions ride along:

- **determinism, always**: per-job results and raw factor bits are
  identical across inline/thread/process, whatever the host;
- **scaling, when the host can show it**: on a ≥ 4-core machine the
  process pool at 4 workers must clear 1.5× the 1-worker jobs/sec, and
  the job-size grid's largest order must run at least as fast through
  the process pool as inline (the dispatch-amortization crossover).  On
  smaller hosts (CI runners, laptops on battery) both gates are
  *skipped with a visible notice* — a 1-core box measuring no speedup
  is the expected physics, not a regression.

The grid here uses deliberately small orders so the benchmark stays
quick; the committed ``BENCH_service.json`` carries the full
256–2048 sweep from ``python -m repro bench --service``.
"""

from __future__ import annotations

import json
import os

import pytest
from conftest import save_artifact

from repro.experiments import scaling

_MIN_CORES = 4
_MIN_SPEEDUP = 1.5
#: Small orders keep the benchmark affordable; real crossover hunting
#: happens in the CLI run with the DEFAULT_GRID_SIZES sweep.
_GRID_SIZES = (64, 128)


@pytest.fixture(scope="module")
def scaling_doc():
    return scaling.run(jobs=8, workers=(1, 2, 4), grid_sizes=_GRID_SIZES, grid_jobs=2)


def test_regenerate_bench_service(benchmark, results_dir):
    doc = benchmark.pedantic(
        scaling.run,
        kwargs={"jobs": 4, "workers": (1, 2), "grid_sizes": ()},
        rounds=1,
        iterations=1,
    )
    assert all(doc["bit_identical"].values())
    assert doc["size_grid"] is None  # grid_sizes=() skips the sweep


def test_write_service_artifacts(scaling_doc, results_dir):
    save_artifact(
        results_dir,
        "BENCH_service.json",
        json.dumps(scaling_doc, indent=2, sort_keys=True),
    )
    save_artifact(results_dir, "service_scaling_summary.txt", scaling.render(scaling_doc))


def test_backends_bit_identical(scaling_doc):
    """The determinism half of the contract holds on every host."""
    assert scaling_doc["bit_identical"]["job_results"]
    assert scaling_doc["bit_identical"]["factors"]


def test_every_cell_completed_all_jobs(scaling_doc):
    for cells in scaling_doc["grid"].values():
        for cell in cells.values():
            assert cell["completed"] == scaling_doc["jobs_per_cell"]


def test_size_grid_measures_both_backends(scaling_doc):
    grid = scaling_doc["size_grid"]
    assert grid["sizes"] == sorted(_GRID_SIZES)
    for backend in ("inline", "process"):
        for n in grid["sizes"]:
            cell = grid["cells"][backend][str(n)]
            assert cell["completed"] == grid["jobs_per_cell"]
            assert cell["jobs_per_s"] > 0
    # The crossover field is present whatever the host measured;
    # "process never wins" is a legal answer (None), not a schema hole.
    assert set(grid) == {"sizes", "jobs_per_cell", "process_workers", "cells", "measured_crossover_n"}


def test_load_service_doc_backfills_schema_1(tmp_path):
    legacy = {"schema": 1, "grid": {}, "speedup_vs_1_worker": {}}
    path = tmp_path / "BENCH_service.json"
    path.write_text(json.dumps(legacy))
    doc = scaling.load_service_doc(path)
    assert doc["size_grid"] is None  # backfilled, so consumers need no probing

    schema_2 = dict(legacy, schema=2, size_grid={"measured_crossover_n": None})
    path.write_text(json.dumps(schema_2))
    assert scaling.load_service_doc(path)["size_grid"]["measured_crossover_n"] is None

    newer = dict(legacy, schema=scaling.SCHEMA_VERSION + 1)
    path.write_text(json.dumps(newer))
    with pytest.raises(Exception, match="newer"):
        scaling.load_service_doc(path)


def test_process_pool_scales_on_multicore_hosts(scaling_doc):
    cores = os.cpu_count() or 1
    if cores < _MIN_CORES:
        pytest.skip(
            f"NOTICE: host has {cores} core(s) (< {_MIN_CORES}); the "
            f"{_MIN_SPEEDUP:g}x process-scaling gate needs real parallelism "
            "and is skipped here"
        )
    ratio = scaling_doc["speedup_vs_1_worker"]["process"]
    assert ratio >= _MIN_SPEEDUP, (
        f"process pool at 4 workers reached only {ratio:.2f}x the 1-worker "
        f"throughput on a {cores}-core host (gate: {_MIN_SPEEDUP:g}x)"
    )


def test_process_beats_inline_at_the_largest_grid_size(scaling_doc):
    cores = os.cpu_count() or 1
    if cores < _MIN_CORES:
        pytest.skip(
            f"NOTICE: host has {cores} core(s) (< {_MIN_CORES}); the "
            "inline-vs-process crossover gate needs real parallelism "
            "and is skipped here"
        )
    grid = scaling_doc["size_grid"]
    top = str(max(grid["sizes"]))
    inline_jps = grid["cells"]["inline"][top]["jobs_per_s"]
    process_jps = grid["cells"]["process"][top]["jobs_per_s"]
    assert process_jps >= inline_jps, (
        f"process pool served {process_jps:.2f} jobs/s at n={top}, below "
        f"inline's {inline_jps:.2f} on a {cores}-core host"
    )
