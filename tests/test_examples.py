"""Smoke tests: every example script must run clean end to end.

These execute the real scripts in subprocesses (the way a user runs them),
so import errors, API drift, or assertion failures inside examples fail CI
rather than rotting silently.  ``paper_figures.py`` is exercised in --quick
mode since the full sweeps belong to the benchmark suite.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "data corrections     : 1" in out
    assert "enhanced" in out


def test_kalman_filter():
    out = run_example("kalman_filter.py")
    assert "corrected before it touched the filter" in out


def test_monte_carlo():
    out = run_example("monte_carlo.py")
    assert "ground-truth price" in out
    assert "enhanced" in out


def test_fault_campaign():
    out = run_example("fault_campaign.py")
    assert "silently wrong" in out
    # enhanced must report zero silent corruption
    enhanced_line = next(line for line in out.splitlines() if line.startswith("enhanced"))
    assert enhanced_line.rstrip().endswith("0")


def test_tuning_k():
    out = run_example("tuning_k.py")
    assert "optimal" in out and "residual" in out


def test_timeline_inspection():
    out = run_example("timeline_inspection.py")
    assert "gantt:" in out and "chrome trace written" in out


def test_service_demo():
    out = run_example("service_demo.py")
    assert "every job completed; zero incorrect results" in out
    assert "verified-read protocol: 8/8 dumped traces clean" in out


@pytest.mark.slow
def test_paper_figures_quick():
    out = run_example("paper_figures.py", "--quick", timeout=900)
    assert "all tables printed" in out and "Table VII" in out
