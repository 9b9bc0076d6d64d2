"""Self-test of the benchmark at ``--quick`` scale.

Run from the repository root with ``python -m pytest bench/tests -q``; it is
not part of the tier-1 suite.  Every workload runs once traced, which also
runs its untraced pass, in well under a minute in total.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, out: Path) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def traced(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    result, stdout = run_bench("--workload", request.param, "--trace", "1", out=out)
    (record_path,) = [p for p in out.glob("*.json") if p.name.count(".") == 1]
    return result, json.loads(record_path.read_text()), stdout


def _check(values: dict, declared: list[dict]) -> None:
    for metric in declared:
        got = values[metric["name"]]
        if isinstance(got, dict):
            assert got["unit"] == metric["unit"], metric["name"]
            got = got["value"]
        assert isinstance(got, (int, float)) and math.isfinite(got), metric["name"]


def test_every_declared_metric_is_emitted_finite_with_its_unit(traced):
    result, record, stdout = traced
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    _check(result["metrics"], SPEC["per_layer"])
    _check(record["e2e"], SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']} " in stdout and metric["unit"] in stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100


def test_layers_cover_the_ops_and_no_caller_escapes_the_wrappers(traced):
    result, _, stdout = traced
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.stray_refs"] == 0, stdout
    assert abs(metrics["trace.coverage"] - 1.0) <= 0.05


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    result, _ = run_bench("--workload", "potrf-fine", out=tmp_path)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    _check(result["metrics"], SPEC["end_to_end"])


def _write_runs(directory: Path, failed_shares: list[float]) -> None:
    directory.mkdir()
    for seed, share in enumerate(failed_shares, 1):
        e2e = {m["name"]: 1.0 for m in SPEC["end_to_end"]} | {"failed_share": share}
        record = {"workload": "potrf-fine", "trace": 0, "stamp": {"seed": seed}, "e2e": e2e, "counts": {}}
        (directory / f"potrf-fine-seed{seed}-run-0.json").write_text(json.dumps(record))


@pytest.mark.parametrize("change, exit_code", [([0.0] * 5, 0), ([0.0, 0.0, 0.01, 0.0, 0.0], 1)])
def test_compare_fails_on_any_rise_in_failed_share(tmp_path, capsys, change, exit_code):
    sys.path.insert(0, str(BENCH))
    try:
        import compare
    finally:
        sys.path.remove(str(BENCH))
    _write_runs(tmp_path / "parent", [0.0] * 5)
    _write_runs(tmp_path / "change", change)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == exit_code
    assert "failed_share" in capsys.readouterr().out


@pytest.fixture(scope="module")
def workloads():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    return workloads


def test_declared_units_match_the_runner(workloads):
    for metric in SPEC["end_to_end"]:
        assert workloads.E2E_UNITS[metric["name"]] == metric["unit"]


def test_gate_catches_a_planted_wrong_factor(workloads):
    check_factor, make_input = workloads.check_factor, workloads.make_input
    inp = make_input(seed=1, index=0, n=128)
    factor = np.linalg.cholesky(inp.a)
    assert check_factor(factor, inp.b, inp.x0) is None
    planted = factor.copy()
    planted[77, 31] += 1e-6
    assert "solve error" in check_factor(planted, inp.b, inp.x0)
    planted[5, 5] = np.inf
    assert "non-finite" in check_factor(planted, inp.b, inp.x0)
