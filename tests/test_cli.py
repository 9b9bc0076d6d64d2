"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_injection, main


class TestInfo:
    def test_lists_presets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "tardis" in out and "bulldozer64" in out
        assert "M2075" in out and "K40c" in out


class TestFactor:
    def test_real_mode_clean(self, capsys):
        assert main(["factor", "--n", "256", "--block-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "restarts       : 0" in out
        assert "residual" in out

    def test_real_mode_with_injection(self, capsys):
        rc = main(
            ["factor", "--n", "512", "--block-size", "64",
             "--inject", "storage:4,2@3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 data corrections" in out

    def test_shadow_mode_paper_scale(self, capsys):
        rc = main(
            ["factor", "--shadow", "--n", "20480", "--machine", "tardis"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out and "residual" not in out

    def test_scheme_and_k_flags(self, capsys):
        rc = main(
            ["factor", "--shadow", "--n", "4096", "--scheme", "online",
             "--k", "3", "--placement", "gpu_stream"]
        )
        assert rc == 0
        assert "scheme=online" in capsys.readouterr().out

    def test_bad_inject_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["factor", "--inject", "garbage"])

    def test_unknown_fault_kind_exits(self):
        with pytest.raises(SystemExit):
            main(["factor", "--inject", "cosmic:1,1@1"])


class TestCapability:
    def test_reduced_table(self, capsys):
        rc = main(["capability", "--n", "2048", "--machine", "tardis",
                   "--block-size", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory error" in out and "enhanced" in out


class TestOverhead:
    def test_custom_sizes(self, capsys):
        rc = main(
            ["overhead", "--machine", "tardis", "--sizes", "2560", "5120",
             "--schemes", "enhanced"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2560" in out and "enhanced" in out


class TestLatencyCommand:
    def test_renders_table(self, capsys):
        rc = main(["latency", "--n", "4096", "--machine", "tardis"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exposure" in out and "corrected" in out


class TestKpolicyCommand:
    def test_reports_optimal_k(self, capsys):
        rc = main(
            ["kpolicy", "--n", "5120", "--machine", "tardis",
             "--rates", "1e-6", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "K =" in out


class TestParseInjection:
    def test_none_gives_no_faults(self):
        assert not _parse_injection(None).plans

    def test_storage(self):
        inj = _parse_injection("storage:4,2@3")
        (plan,) = inj.plans
        assert plan.block == (4, 2) and plan.iteration == 3

    def test_computing(self):
        inj = _parse_injection("computing:5,3@3")
        assert inj.plans[0].kind == "computing"


class TestServeCommand:
    def test_synthetic_stream_reports_and_writes_metrics(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        rc = main(
            ["serve", "--synthetic", "4", "--sizes", "64", "--seed", "3",
             "--workers", "tardis:2",
             "--metrics-out", str(metrics), "--prometheus-out", str(prom)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve report" in out and "completed" in out
        import json

        doc = json.loads(metrics.read_text())
        completed = doc["counters"]["service_jobs_completed_total"]
        assert sum(completed.values()) == 4  # labelled by worker
        assert "service_latency_seconds" in prom.read_text()

    def test_stdin_jsonl_stream(self, capsys, monkeypatch):
        import io

        lines = "\n".join(
            [
                '{"id": 0, "n": 64, "priority": "interactive"}',
                "# a comment between jobs",
                '{"id": 1, "n": 96, "inject": "storage:1,0@1"}',
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve", "--workers", "tardis:1"]) == 0
        out = capsys.readouterr().out
        assert "serve report" in out and "completed" in out

    def test_bad_stdin_json_exits(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("{not json\n"))
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_empty_stream_is_an_error(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve"]) == 2


#: the deleted sharded front-end's subcommand and loadgen flag name
_REMOVED = "cluster"


class TestLoadgenCommand:
    def test_closed_loop_with_faults_and_traces(self, capsys, tmp_path):
        trace_dir = tmp_path / "traces"
        rc = main(
            ["loadgen", "--jobs", "5", "--sizes", "64", "96", "--closed", "2",
             "--fault-prob", "0.6", "--seed", "11",
             "--workers", "tardis:2", "--trace-dir", str(trace_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed" in out and "corrected errors" in out
        assert len(list(trace_dir.glob("job-*.json"))) == 5
        for path in trace_dir.glob("job-*.json"):
            assert main(["analyze-trace", str(path)]) == 0

    def test_json_report(self, capsys):
        rc = main(
            ["loadgen", "--jobs", "3", "--sizes", "64", "--closed", "2",
             "--seed", "1", "--json"]
        )
        assert rc == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] == 3 and doc["failed"] == 0

    def test_open_loop_rate(self, capsys):
        rc = main(
            ["loadgen", "--jobs", "3", "--sizes", "64", "--rate", "50",
             "--seed", "2"]
        )
        assert rc == 0
        assert "throughput" in capsys.readouterr().out

    def test_unknown_executor_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--executor", "auto"])
        assert exc.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            [_REMOVED, "bench"],
            ["loadgen", f"--{_REMOVED}", "2"],
            [_REMOVED],
            [_REMOVED, "start"],
            [_REMOVED, "status"],
            [_REMOVED, "drain"],
            ["loadgen", "--kill-shard-after", "3"],
            ["loadgen", "--kill-index", "0"],
        ],
    )
    def test_removed_sharding_surface_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestChaosCommand:
    def test_list_names_every_scenario_and_marks_the_quick_ones(self, capsys):
        from repro.resilience import chaos

        assert main(["chaos", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(chaos.SCENARIOS)
        assert all(len(line.split()) > 1 for line in lines)  # a summary each
        quick = [line.split()[0] for line in lines if line.endswith("[quick]")]
        assert quick == list(chaos.QUICK_SCENARIOS)

    def test_named_scenarios_write_the_scorecard_and_one_history_line(
        self, capsys, tmp_path
    ):
        import json

        out = tmp_path / "BENCH_chaos.json"
        history = tmp_path / "history.jsonl"
        rc = main(
            ["chaos", "--scenarios", "stop_race", "queue_flood", "--jobs", "4",
             "--n", "48", "--block-size", "16", "--exec-workers", "1",
             "--out", str(out), "--history", str(history)]
        )
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert sorted(doc["scenarios"]) == ["queue_flood", "stop_race"]
        assert doc["ok"] is True
        assert len(history.read_text().splitlines()) == 1

    @pytest.mark.parametrize("suffix", ["shard_kill", "partition", "rejoin"])
    def test_removed_sharding_scenarios_are_usage_errors(self, capsys, suffix):
        rc = main(
            ["chaos", "--scenarios", f"{_REMOVED}_{suffix}", "--out", "", "--history", ""]
        )
        assert rc == 2
        assert "unknown chaos scenarios" in capsys.readouterr().err


class TestRecovery:
    def test_bench_writes_doc_and_history(self, capsys, tmp_path):
        out = tmp_path / "BENCH_recovery.json"
        history = tmp_path / "history.jsonl"
        rc = main(
            ["recovery", "--n", "96", "--block-size", "32", "--repeats", "1",
             "--out", str(out), "--history", str(history)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "forward vs backward recovery" in text
        import json

        doc = json.loads(out.read_text())
        assert doc["bit_identical"]
        assert all(r["recomputed_fraction"] < 1.0 for r in doc["crash_grid"])
        line = json.loads(history.read_text().splitlines()[0])
        assert line["bench"] == "recovery"
