"""Tests for random fault campaigns (sampled robustness of Enhanced)."""

import pytest

from repro.blas.spd import random_spd
from repro.core import enhanced_potrf, online_potrf
from repro.faults.campaign import CampaignSpec, run_campaign, sample_plan
from repro.faults.injector import Hook
from repro.magma.host import factorization_residual


class TestSamplePlan:
    def test_storage_plan_fields(self):
        spec = CampaignSpec(nb=8, kind="storage")
        plan = sample_plan(spec, 64, rng=0)
        assert plan.kind == "storage" and plan.hook is Hook.STORAGE_WINDOW
        i, j = plan.block
        assert 0 <= j <= i < 8
        assert plan.bit in spec.bits

    def test_computing_plan_fields(self):
        spec = CampaignSpec(nb=8, kind="computing")
        plan = sample_plan(spec, 64, rng=1)
        assert plan.hook is Hook.AFTER_GEMM
        assert plan.block[1] == plan.iteration
        lo, hi = spec.delta_range
        assert lo <= plan.delta <= hi

    def test_checksum_target_uses_strip_rows(self):
        spec = CampaignSpec(nb=4, kind="storage", target="checksum")
        plan = sample_plan(spec, 64, rng=2)
        assert plan.target == "checksum" and plan.coord[0] in (0, 1)

    def test_deterministic_by_seed(self):
        spec = CampaignSpec(nb=8)
        a = sample_plan(spec, 64, rng=9)
        b = sample_plan(spec, 64, rng=9)
        assert (a.block, a.coord, a.bit, a.iteration) == (
            b.block, b.coord, b.bit, b.iteration
        )

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            CampaignSpec(nb=4, kind="gamma_ray")


class TestStorageCampaign:
    def test_enhanced_always_recovers(self, tardis):
        """Sampled version of the paper's claim: any single storage error is
        handled — corrected in place, or in the worst placement recovered
        by restart — and the final factor is always correct."""
        a = random_spd(256, rng=3)
        out = run_campaign(
            enhanced_potrf,
            tardis,
            a,
            block_size=64,
            spec=CampaignSpec(nb=4, kind="storage"),
            n_runs=12,
            rng=0,
            residual_fn=factorization_residual,
        )
        assert out.runs == 12 and out.failed == 0
        assert out.max_residual < 1e-8

    def test_enhanced_rarely_restarts(self, tardis):
        """Pre-access verification should correct nearly every strike."""
        a = random_spd(256, rng=4)
        out = run_campaign(
            enhanced_potrf,
            tardis,
            a,
            block_size=64,
            spec=CampaignSpec(nb=4, kind="storage"),
            n_runs=12,
            rng=1,
            residual_fn=factorization_residual,
        )
        assert out.restarted <= 2

    def test_online_weaker_than_enhanced(self, tardis):
        """Under identical storage strikes, Online either restarts or —
        when the victim tile is never re-read — silently returns a wrong
        factor.  Enhanced never produces a wrong factor.  This is the
        paper's Section III argument as a sampled experiment."""
        import warnings

        a = random_spd(256, rng=5)
        spec = CampaignSpec(nb=4, kind="storage")
        kw = dict(block_size=64, spec=spec, n_runs=12,
                  residual_fn=factorization_residual)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf residuals
            on = run_campaign(online_potrf, tardis, a, rng=2, **kw)
            enh = run_campaign(enhanced_potrf, tardis, a, rng=2, **kw)
        assert on.failed == 0 and enh.failed == 0
        assert enh.restarted <= on.restarted
        assert enh.max_residual < 1e-8
        online_silent_failures = sum(
            1 for r in on.records if not (r["residual"] < 1e-6)
        )
        enhanced_silent_failures = sum(
            1 for r in enh.records if not (r["residual"] < 1e-6)
        )
        assert enhanced_silent_failures == 0
        assert online_silent_failures >= enhanced_silent_failures


class TestComputingCampaign:
    def test_enhanced_recovers_all(self, tardis):
        a = random_spd(256, rng=6)
        out = run_campaign(
            enhanced_potrf,
            tardis,
            a,
            block_size=64,
            spec=CampaignSpec(nb=4, kind="computing"),
            n_runs=10,
            rng=3,
            residual_fn=factorization_residual,
        )
        assert out.failed == 0
        assert out.max_residual < 1e-7  # large deltas leave rounding residue

    def test_records_have_outcomes(self, tardis):
        a = random_spd(128, rng=7)
        out = run_campaign(
            enhanced_potrf,
            tardis,
            a,
            block_size=32,
            spec=CampaignSpec(nb=4, kind="computing"),
            n_runs=3,
            rng=4,
        )
        assert len(out.records) == 3
        assert all("restarts" in r for r in out.records)


class TestSampleBurst:
    def test_deterministic_by_seed(self):
        from repro.faults.campaign import sample_burst

        spec = CampaignSpec(nb=8)
        a = sample_burst(spec, 64, rng=9, count=3)
        b = sample_burst(spec, 64, rng=9, count=3)
        assert [(p.block, p.coord, p.bit) for p in a] == [
            (p.block, p.coord, p.bit) for p in b
        ]

    def test_burst_shares_one_window(self):
        from repro.faults.campaign import sample_burst

        plans = sample_burst(CampaignSpec(nb=8), 64, rng=4, count=4)
        assert len({p.iteration for p in plans}) == 1
        assert all(p.hook is Hook.STORAGE_WINDOW for p in plans)

    def test_distinct_sites(self):
        from repro.faults.campaign import sample_burst

        plans = sample_burst(CampaignSpec(nb=4), 32, rng=5, count=6)
        sites = {(p.block, p.coord) for p in plans}
        assert len(sites) == 6

    def test_same_column_stacks_one_tile_column(self):
        from repro.faults.campaign import sample_burst

        plans = sample_burst(
            CampaignSpec(nb=4), 32, rng=6, count=3, same_column=True
        )
        assert len({p.block for p in plans}) == 1
        assert len({p.coord[1] for p in plans}) == 1
        assert len({p.coord[0] for p in plans}) == 3  # distinct rows

    def test_pinned_iteration(self):
        from repro.faults.campaign import sample_burst

        plans = sample_burst(CampaignSpec(nb=8), 64, rng=7, count=2, iteration=3)
        assert all(p.iteration == 3 for p in plans)

    def test_computing_spec_rejected(self):
        from repro.faults.campaign import sample_burst

        with pytest.raises(ValueError):
            sample_burst(CampaignSpec(nb=4, kind="computing"), 32, rng=0)
