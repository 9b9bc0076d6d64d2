"""CLI tests for ``repro analyze-trace`` and ``repro lint``: exit codes on
clean vs seeded-violation inputs, in both text and ``--json`` modes."""

import json

import pytest

from repro.cli import main

_SMALL = ["--n", "1024", "--block-size", "256"]


class TestAnalyzeTrace:
    def test_enhanced_shadow_run_is_clean(self, capsys):
        assert main(["analyze-trace", "--scheme", "enhanced", *_SMALL]) == 0
        assert "clean" in capsys.readouterr().out

    def test_online_windows_are_informational(self, capsys):
        assert main(["analyze-trace", "--scheme", "online", *_SMALL]) == 0
        out = capsys.readouterr().out
        assert "vuln-window" in out and "0 error(s)" in out

    def test_json_mode(self, capsys):
        assert main(["analyze-trace", "--scheme", "online", "--json", *_SMALL]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 0 and doc["infos"] >= 1
        assert all(f["severity"] == "info" for f in doc["findings"])

    @pytest.fixture()
    def spliced_trace(self, tmp_path, capsys):
        """Dump an online trace, then splice in an unverified read."""
        path = tmp_path / "trace.json"
        assert (
            main(
                ["analyze-trace", "--scheme", "online", "--dump", str(path), *_SMALL]
            )
            == 0
        )
        capsys.readouterr()  # discard the clean report
        doc = json.loads(path.read_text())
        writer = max(
            (s for s in doc["spans"] if [1, 0] in s["meta"].get("tile_writes", [])),
            key=lambda s: s["tid"],
        )
        doc["spans"].append(
            {
                "tid": max(s["tid"] for s in doc["spans"]) + 1,
                "name": "rogue_read",
                "kind": "syrk",
                "resource": "gpu",
                "start": 0.0,
                "finish": 0.0,
                "meta": {"tile_reads": [[1, 0]], "iteration": 99, "stream": "rogue"},
                "deps": [writer["tid"]],
            }
        )
        path.write_text(json.dumps(doc))
        return path

    def test_seeded_violation_exits_nonzero(self, spliced_trace, capsys):
        assert main(["analyze-trace", str(spliced_trace)]) == 1
        out = capsys.readouterr().out
        assert "verified-read" in out and "rogue_read" in out

    def test_seeded_violation_json(self, spliced_trace, capsys):
        assert main(["analyze-trace", str(spliced_trace), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] >= 1
        assert any(f["rule"] == "verified-read" for f in doc["findings"])


class TestLint:
    def test_repo_package_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.fixture()
    def bad_module(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import numpy as np\nx = np.random.rand(4)\n")
        return path

    def test_seeded_bare_random_exits_nonzero(self, bad_module, capsys):
        assert main(["lint", str(bad_module)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "np.random.rand" in out

    def test_seeded_bare_random_json(self, bad_module, capsys):
        assert main(["lint", str(bad_module), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 1
        assert doc["findings"][0]["rule"] == "RPL001"

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_select_filter(self, bad_module, capsys):
        assert main(["lint", str(bad_module), "--select", "RPL003"]) == 0
        capsys.readouterr()


class TestLintFlowTier:
    @pytest.fixture()
    def leaky_module(self, tmp_path):
        path = tmp_path / "exec" / "leaky.py"
        path.parent.mkdir()
        path.write_text(
            "def run(self, job):\n"
            "    self._slots.acquire()\n"
            "    return compute(job)\n"
        )
        return path

    def test_flow_flag_enables_the_flow_tier(self, leaky_module, capsys):
        # Classic-only run misses the leak entirely...
        assert main(["lint", str(leaky_module)]) == 0
        capsys.readouterr()
        # ...--flow catches it.
        assert main(["lint", "--flow", str(leaky_module)]) == 1
        out = capsys.readouterr().out
        assert "RPL101" in out

    def test_sarif_output_validates_both_tiers(self, leaky_module, capsys):
        from repro.analysis.sarif import validate_sarif

        assert main(["lint", "--flow", "--format", "sarif", str(leaky_module)]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_sarif(doc)
        run = doc["runs"][0]
        # Driver lists every rule that executed — classic and flow.
        ran = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RPL001", "RPL101", "RPL102", "RPL103"} <= ran
        assert any(r["ruleId"] == "RPL101" for r in run["results"])

    def test_sarif_clean_run_has_empty_results(self, tmp_path, capsys):
        from repro.analysis.sarif import validate_sarif

        path = tmp_path / "ok.py"
        path.write_text("x = 1\n")
        assert main(["lint", "--format", "sarif", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_sarif(doc)
        assert doc["runs"][0]["results"] == []

    def test_repo_package_is_flow_clean(self, capsys):
        # The acceptance gate: both tiers, zero unsuppressed findings.
        assert main(["lint", "--flow"]) == 0
        assert "clean" in capsys.readouterr().out
