"""Tests for the consolidated report generator."""

import pytest

from repro.cli import main
from repro.experiments.report import build_report, write_report

TINY = {"tardis": (2560, 5120), "bulldozer64": (5120,)}


@pytest.fixture(scope="module")
def report_text(monkeypatch_module=None):
    # patch the quick sizes down so the module-level fixture stays fast
    import repro.experiments.report as rpt

    original = rpt.QUICK_SIZES
    rpt.QUICK_SIZES = TINY
    try:
        yield build_report(quick=True)
    finally:
        rpt.QUICK_SIZES = original


class TestBuildReport:
    def test_contains_all_sections(self, report_text):
        for needle in (
            "Table VII",
            "Table VIII",
            "Optimization 1",
            "Optimization 2",
            "Optimization 3",
            "Figs 14/15",
            "Figs 16/17",
            "Detection latency",
            "K policy",
        ):
            assert needle in report_text, needle

    def test_both_machines_covered(self, report_text):
        assert "tardis" in report_text and "bulldozer64" in report_text

    def test_mode_line(self, report_text):
        assert "quick sweep" in report_text


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        import repro.experiments.report as rpt

        original = rpt.QUICK_SIZES
        rpt.QUICK_SIZES = TINY
        try:
            out = write_report(path=tmp_path / "r.txt", quick=True)
        finally:
            rpt.QUICK_SIZES = original
        assert out.exists()
        assert "REPRODUCTION REPORT" in out.read_text()

    def test_cli_command(self, tmp_path, capsys):
        import repro.experiments.report as rpt

        original = rpt.QUICK_SIZES
        rpt.QUICK_SIZES = TINY
        try:
            rc = main(["report", "--out", str(tmp_path / "cli.txt")])
        finally:
            rpt.QUICK_SIZES = original
        assert rc == 0
        assert (tmp_path / "cli.txt").exists()
        assert "report written" in capsys.readouterr().out
