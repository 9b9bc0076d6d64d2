"""Chaos harness: scenario mechanics and scorecard contract.

Every scenario runs here at a small size (4 jobs of n = 48, one backend
worker).  The thread-backed ones (flood, stop race, dag slow tasks,
kill-and-restart) take about a second together; the process-pool ones
(worker crash and wedge, slow worker, shm corruption and truncation,
breaker failover, the erasure pair) spawn a pool each and take about
12 s together on 2 cores.  CI also runs the full ``repro chaos``
campaign at its default size.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile

import pytest

from repro.resilience import chaos
from repro.util.exceptions import ValidationError

CFG = chaos.ChaosConfig(jobs=4, n=48, block_size=16, exec_workers=1)


def run(name: str, cfg: chaos.ChaosConfig = CFG) -> chaos.ScenarioResult:
    return chaos.run_scenario(chaos.SCENARIOS[name], cfg)


class TestScenarioRegistry:
    def test_quick_subset_is_registered(self):
        assert set(chaos.QUICK_SCENARIOS) <= set(chaos.SCENARIOS)

    def test_quick_includes_kill_and_restart(self):
        assert "kill_restart" in chaos.QUICK_SCENARIOS

    def test_at_least_six_scenarios(self):
        # The acceptance floor: worker kill, wedge, shm corruption and
        # truncation, flood, stop race (+ breaker, journal recovery).
        assert len(chaos.SCENARIOS) >= 6

    def test_dag_slow_tasks_is_registered(self):
        assert "dag_slow_tasks" in chaos.SCENARIOS
        assert len(chaos.SCENARIOS) == 12

    def test_recovery_pair_is_registered_and_quick(self):
        # Both sides of the erasure-recovery ladder run in the quick subset.
        assert "erasure_forward_recovery" in chaos.QUICK_SCENARIOS
        assert "burst_beyond_capacity" in chaos.QUICK_SCENARIOS

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            chaos.run_chaos(CFG, ("no_such_fault",))


class TestCheapScenarios:
    def test_queue_flood_rejects_and_loses_nothing(self):
        result = run("queue_flood")
        assert result.ok, result.violations
        assert result.rejected > 0
        assert result.invariants["rejections_have_retry_after"]
        assert result.invariants["no_lost_jobs"]
        assert result.invariants["metrics_consistent"]

    def test_stop_race_settles_every_job(self):
        result = run("stop_race")
        assert result.ok, result.violations
        assert result.submitted == result.completed + result.failed + result.rejected

    def test_dag_slow_tasks_keep_bits_and_counts(self):
        result = run("dag_slow_tasks")
        assert result.ok, result.violations
        assert result.invariants["runtime_tasks_counted"]
        assert result.invariants["factors_bit_identical"]
        assert result.invariants["executor_metrics_consistent"]
        assert result.notes["task_totals"]["potf2"] > 0

    def test_kill_restart_recovers_the_backlog(self, tmp_path):
        cfg = chaos.ChaosConfig(
            jobs=4, n=48, block_size=16, exec_workers=1, workdir=tmp_path
        )
        result = run("kill_restart", cfg)
        assert result.ok, result.violations
        assert result.invariants["journal_replay_complete"]
        assert result.invariants["journal_drained"]
        assert result.notes["admitted"] == 4
        assert result.notes["incomplete_after_recovery"] == 0
        assert (tmp_path / "kill_restart.journal.jsonl").exists()

    def test_no_temporary_directory_survives(self, tmp_path, monkeypatch):
        # Without a configured workdir each scenario journals into its own
        # temporary directory, which must be gone once it is judged.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        doc = chaos.run_chaos(CFG, ("kill_restart", "stop_race"))
        assert doc["ok"], doc["scenarios"]
        assert list(tmp_path.iterdir()) == []


#: process-pool scenario → the invariants it adds to the shared battery
_POOL_SCENARIOS = {
    "worker_crash": ("crash_survived", "survivors_unaffected", "unanswered_batchmates_retried"),
    "worker_wedge": ("all_completed", "slot_reclaimed"),
    "slow_worker": ("all_completed", "no_spurious_retries"),
    "shm_corruption": ("all_completed", "crc_detected"),
    "shm_truncation": ("all_completed", "arena_healed"),
    "breaker_failover": ("failover_observed", "recovery_observed", "breaker_closed_again"),
    "erasure_forward_recovery": ("forward_recovered", "erasure_reconstructed"),
    "burst_beyond_capacity": ("salvage_escalated_backward", "no_forward_past_capacity"),
}


class TestProcessPoolScenarios:
    def test_table_covers_every_pool_scenario(self):
        thread_backed = {"queue_flood", "stop_race", "kill_restart", "dag_slow_tasks"}
        assert set(_POOL_SCENARIOS) == set(chaos.SCENARIOS) - thread_backed
        assert {name for name, row in chaos.SCENARIOS.items() if row.backend == "process"} == set(
            _POOL_SCENARIOS
        )

    @pytest.mark.parametrize("name", list(_POOL_SCENARIOS))
    def test_scenario_holds_its_invariants(self, name):
        result = run(name)
        assert result.ok, result.violations
        # The scenario's own checks ran: a fault plan that never fired
        # would pass the shared battery alone.
        for invariant in _POOL_SCENARIOS[name]:
            assert result.invariants[invariant], invariant
        assert result.invariants["pool_whole_after_drain"]
        assert result.completed == result.submitted

    @pytest.mark.parametrize(
        "name, own_check", [("worker_crash", "crash_survived"), ("shm_corruption", "crc_detected")]
    )
    def test_row_fails_when_its_fault_never_fires(self, name, own_check):
        unarmed = dataclasses.replace(chaos.SCENARIOS[name], arm=None)
        result = chaos.run_scenario(unarmed, CFG)
        assert result.ok is False
        assert own_check in result.violations


class TestScorecard:
    def test_doc_shape_and_render(self, tmp_path):
        doc = chaos.run_chaos(CFG, ("stop_race",))
        assert doc["schema"] == chaos.SCHEMA_VERSION
        assert doc["generated_by"] == "python -m repro chaos"
        assert "stamp" in doc and "scenarios" in doc
        assert doc["ok"] is True
        path = chaos.write(doc, tmp_path / "BENCH_chaos.json")
        loaded = json.loads(path.read_text())
        assert loaded["scenarios"]["stop_race"]["ok"]
        text = chaos.render(doc)
        assert "stop_race" in text and "PASS" in text

    def test_render_lists_violations(self):
        failed = {
            "ok": False,
            "violations": ["no_lost_jobs"],
            "completed": 0,
            "failed": 1,
            "rejected": 0,
            "retries": 0,
            "p99_s": 0.0,
            "wall_s": 0.0,
        }
        doc = {
            "config": {"jobs": 1, "n": 8, "block_size": 4, "exec_workers": 1},
            "scenarios": {"x": failed, "erasure_forward_recovery": failed},
            "ok": False,
        }
        text = chaos.render(doc)
        assert "violated: no_lost_jobs" in text
        assert "overall: FAIL" in text
        # The name column fits the longest row name, so the verdicts line up
        # under the header's "ok" however long the names are.
        header, *rows = [line for line in text.splitlines()[1:-1] if "violated" not in line]
        ok_end = header.index(" ok") + len(" ok")
        assert [row.index("FAIL") + len("FAIL") for row in rows] == [ok_end, ok_end]

    def test_reference_factors_are_deterministic(self):
        jobs = chaos._jobs(CFG, count=2)
        first = chaos._reference_factors(jobs)
        second = chaos._reference_factors(jobs)
        import numpy as np

        for job in jobs:
            assert np.array_equal(first[job.job_id], second[job.job_id])
