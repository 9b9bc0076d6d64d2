"""Hot-path speedup: the batched checksum detector vs the per-tile loop.

Unlike the figure benchmarks (which regenerate the paper's *simulated*
results), this one measures real host wall time: a full lower-triangle
verify sweep with one planted fault runs through
``Verifier.check_real`` (the batched detector) and through the per-tile
reference loop, and the document written to
``results/BENCH_hotpath.json`` is the perf trajectory tracked at the
repo root and by the CI perf-smoke job.

Schema 3 adds the tile-DAG runtime grid (serial vs threaded, fault
injected).  Its bit-identity verdicts are asserted on every host; the
speedup gate, like every scaling gate in this repo, only arms on
machines with >= 4 cores — a 1-core box measuring ~1x is the expected
physics, not a regression.
"""

import json
import os

import pytest
from conftest import save_artifact

from repro.experiments import hotpath

_MIN_CORES = 4
#: Threaded-vs-serial floor at the largest grid n: the DAG runtime must
#: never *lose* to program order when real parallelism is available.
_DAG_GATE = 1.0
#: Two grid points keep the module fixture affordable; the committed
#: BENCH_hotpath.json carries the full 512-2048 sweep from the CLI run.
_DAG_SIZES = (512, 1024)


@pytest.fixture(scope="module")
def hotpath_doc():
    return hotpath.run(n=1024, block_size=32, repeats=3, dag_sizes=_DAG_SIZES)


def test_regenerate_bench_hotpath(benchmark, results_dir):
    # The CLI's best-of-3: the saved files replace the committed ones, so
    # they must not be one cold sample.
    doc = benchmark.pedantic(
        hotpath.run,
        kwargs={"n": 1024, "block_size": 32, "repeats": 3},
        rounds=1,
        iterations=1,
    )
    save_artifact(
        results_dir,
        "BENCH_hotpath.json",
        json.dumps(doc, indent=2, sort_keys=True),
    )
    save_artifact(results_dir, "hotpath_summary.txt", hotpath.render(doc))


def test_batched_is_bit_identical(hotpath_doc):
    assert all(hotpath_doc["bit_identical"].values())
    assert hotpath_doc["data_corrections"] == 1  # the injected fault was fixed


def test_batched_is_faster(hotpath_doc):
    """The acceptance gate: ≥3× on the verify sweep at nb ≥ 16."""
    assert hotpath_doc["nb"] >= 16
    assert hotpath_doc["speedup"]["sweep_check"] >= 3.0


def test_dag_runtime_is_bit_identical_at_every_size(hotpath_doc):
    """The determinism half of the DAG contract holds on every host."""
    dag = hotpath_doc["dag"]
    assert dag["workers"] >= 1 and dag["lookahead"] >= 0
    assert [p["n"] for p in dag["grid"]] == list(_DAG_SIZES)
    for point in dag["grid"]:
        assert all(point["bit_identical"].values()), point
        assert point["data_corrections"] == 1  # the standard fault, fixed
        assert point["restarts"] == 0
        assert point["tasks"] > 0


def test_dag_runtime_beats_serial_on_multicore_hosts(hotpath_doc):
    cores = os.cpu_count() or 1
    if cores < _MIN_CORES:
        pytest.skip(
            f"NOTICE: host has {cores} core(s) (< {_MIN_CORES}); the "
            f"{_DAG_GATE:g}x DAG-vs-serial gate needs real parallelism "
            "and is skipped here"
        )
    top = hotpath_doc["dag"]["grid"][-1]
    assert top["speedup"] >= _DAG_GATE, (
        f"DAG runtime at {hotpath_doc['dag']['workers']} workers ran "
        f"{top['speedup']:.2f}x serial at n={top['n']} on a {cores}-core "
        f"host (gate: {_DAG_GATE:g}x)"
    )
