"""Unit tests for the erasure-recovery layer (snapshot → salvage → resume)."""

import numpy as np
import pytest

from repro.hetero.machine import Machine
from repro.magma.host import factorization_residual
from repro.recovery import (
    SnapshotLayout,
    SnapshotWriter,
    choose_recovery,
    execute_resume,
    read_snapshot,
    repair_salvage,
    zero_epochs,
)
from repro.recovery.decision import completed_fraction, iteration_flops
from repro.service.job import Job
from repro.service.policy import execute_attempt, job_matrix
from repro.util.exceptions import SalvageError

_N = 128
_B = 32


@pytest.fixture(scope="module")
def tardis():
    return Machine.preset("tardis")


def _job(**kw) -> Job:
    defaults = dict(job_id=9, n=_N, block_size=_B, scheme="enhanced", seed=7)
    defaults.update(kw)
    return Job(**defaults)


def _published(job: Job, tardis) -> tuple[np.ndarray, SnapshotLayout, np.ndarray]:
    """Run *job* once with a snapshot writer; return (buf, layout, ref factor)."""
    layout = SnapshotLayout(job.n, job.block_size)
    buf = np.zeros(layout.shape)
    zero_epochs(buf)
    writer = SnapshotWriter(buf, layout)
    outcome = execute_attempt(job, tardis, progress=writer.publish)
    return buf, layout, outcome.factor


class TestSnapshotRoundtrip:
    def test_freshest_epoch_wins(self, tardis):
        buf, layout, _ = _published(_job(), tardis)
        salvage = read_snapshot(buf, layout)
        assert salvage is not None
        assert salvage.iteration == _N // _B - 1  # last iteration published
        assert salvage.epoch == _N // _B
        assert salvage.bad_matrix_rows == ()
        assert salvage.bad_chk_rows == ()

    def test_torn_slot_falls_back_to_previous_epoch(self, tardis):
        buf, layout, _ = _published(_job(), tardis)
        fresh = int(max(buf[0, 0], buf[1, 0]))
        torn = fresh % 2
        buf[torn, 0] = float("nan")  # mid-write tear: header unreadable
        salvage = read_snapshot(buf, layout)
        assert salvage is not None
        assert salvage.epoch == fresh - 1

    def test_zeroed_epochs_read_as_nothing(self):
        layout = SnapshotLayout(_N, _B)
        buf = np.ones(layout.shape)  # warm-reuse garbage everywhere
        zero_epochs(buf)
        assert read_snapshot(buf, layout) is None

    def test_geometry_mismatch_rejected(self, tardis):
        buf, _, _ = _published(_job(), tardis)
        other = SnapshotLayout(_N, _B, n_checksums=4)
        assert read_snapshot(buf[:, : other.slot_len], other) is None

    def test_corrupt_rows_become_known_erasures(self, tardis):
        buf, layout, _ = _published(_job(), tardis)
        fresh = int(max(buf[0, 0], buf[1, 0])) % 2
        layout.matrix_view(buf[fresh])[17, :] += 1.0
        salvage = read_snapshot(buf, layout)
        assert salvage.bad_matrix_rows == (17,)
        assert salvage.erasures() == {17 // _B: [17 % _B]}


class TestRepairAndResume:
    def test_clean_resume_is_bit_identical(self, tardis):
        job = _job()
        buf, layout, ref = _published(job, tardis)
        salvage = read_snapshot(buf, layout)
        out = execute_resume(job, tardis, salvage)
        assert np.array_equal(out.factor, ref)
        assert out.extras["erasure_tiles"] == 0

    def test_online_scheme_resumes_too(self, tardis):
        job = _job(scheme="online")
        buf, layout, ref = _published(job, tardis)
        out = execute_resume(job, tardis, read_snapshot(buf, layout))
        assert np.array_equal(out.factor, ref)

    def test_erased_row_repaired_within_tolerance(self, tardis):
        job = _job()
        buf, layout, ref = _published(job, tardis)
        fresh = int(max(buf[0, 0], buf[1, 0])) % 2
        layout.matrix_view(buf[fresh])[17, :] = 1e300  # trashed in transit
        salvage = read_snapshot(buf, layout)
        out = execute_resume(job, tardis, salvage)
        assert out.extras["erasure_tiles"] >= 1
        np.testing.assert_allclose(np.tril(out.factor), np.tril(ref), atol=1e-8)
        assert out.residual < 1e-9

    def test_lost_strip_rows_are_reencoded(self, tardis):
        job = _job()
        buf, layout, _ = _published(job, tardis)
        fresh = int(max(buf[0, 0], buf[1, 0])) % 2
        layout.chk_view(buf[fresh])[0, :] = np.nan  # strip band damage only
        salvage = read_snapshot(buf, layout)
        stats = repair_salvage(salvage, job_matrix(job))
        assert stats.reencoded_tiles >= 1
        # The lower-triangle span (all the code ever decodes from) is
        # rebuilt; resume re-encodes the whole band from repaired data.
        assert np.isfinite(salvage.chk[:, :_B]).all()

    def test_beyond_capacity_raises_salvage_error(self, tardis):
        job = _job()
        buf, layout, _ = _published(job, tardis)
        fresh = int(max(buf[0, 0], buf[1, 0])) % 2
        for row in (1, 5):  # same block row; m = 1 with two checksums
            layout.matrix_view(buf[fresh])[row, :] += 1.0
        salvage = read_snapshot(buf, layout)
        ok, reason = salvage.feasibility()
        assert not ok and "capacity" in reason
        with pytest.raises(SalvageError):
            execute_resume(job, tardis, salvage)

    def test_data_and_strip_loss_in_same_block_row_is_infeasible(self, tardis):
        job = _job()
        buf, layout, _ = _published(job, tardis)
        fresh = int(max(buf[0, 0], buf[1, 0])) % 2
        layout.matrix_view(buf[fresh])[1, :] += 1.0  # block row 0 data
        layout.chk_view(buf[fresh])[0, :] += 1.0  # block row 0 strip
        salvage = read_snapshot(buf, layout)
        ok, _ = salvage.feasibility()
        assert not ok
        with pytest.raises(SalvageError):
            repair_salvage(salvage, job_matrix(job))

    def test_corrupt_strip_element_is_refreshed_like_the_run(self, tardis):
        """Salvage decodes an erasure-free tile with the in-run decoder: a lone
        corrupt strip element is refreshed, not escalated to a restart."""
        job = _job()
        buf, layout, ref = _published(job, tardis)
        salvage = read_snapshot(buf, layout)
        salvage.chk[2 * 2, 1 * _B + 8] += 5.0  # tile (2, 1), checksum row 0
        stats = repair_salvage(salvage, job_matrix(job))
        assert (stats.refreshed_checksums, stats.corrected_errors) == (1, 0)
        assert stats.corrected_sites == []
        out = execute_resume(job, tardis, salvage)
        assert np.array_equal(out.factor, ref)

    def test_resumed_job_reports_one_site_per_corrected_element(self, tardis):
        job = _job()
        buf, layout, ref = _published(job, tardis)
        salvage = read_snapshot(buf, layout)
        salvage.matrix[2 * _B + 5, 1 * _B + 8] += 100.0  # tile (2, 1), row 5, col 8
        out = execute_resume(job, tardis, salvage)
        assert out.corrected_sites == [((2, 1), 5, 8)]
        assert out.corrected_errors == 1
        np.testing.assert_allclose(np.tril(out.factor), np.tril(ref), atol=1e-8)

    def test_resumed_factor_passes_residual(self, tardis):
        job = _job()
        buf, layout, _ = _published(job, tardis)
        out = execute_resume(job, tardis, read_snapshot(buf, layout))
        assert factorization_residual(job_matrix(job), out.factor) < 1e-9


class TestDecision:
    def test_forward_when_work_is_banked(self, tardis):
        job = _job()
        buf, layout, _ = _published(job, tardis)
        decision = choose_recovery(job, tardis, read_snapshot(buf, layout))
        assert decision.forward
        assert decision.forward_cost_s < decision.backward_cost_s
        assert decision.recovered_fraction > 0.5  # snapshot is at the last iteration

    def test_no_salvage_means_backward(self, tardis):
        decision = choose_recovery(_job(), tardis, None)
        assert not decision.forward

    def test_non_resumable_scheme_declines(self, tardis):
        job = _job()
        buf, layout, _ = _published(job, tardis)
        salvage = read_snapshot(buf, layout)
        decision = choose_recovery(_job(scheme="dag"), tardis, salvage)
        assert not decision.forward
        assert "resume" in decision.reason

    def test_infeasible_erasures_decline(self, tardis):
        job = _job()
        buf, layout, _ = _published(job, tardis)
        fresh = int(max(buf[0, 0], buf[1, 0])) % 2
        for row in (1, 5):
            layout.matrix_view(buf[fresh])[row, :] += 1.0
        decision = choose_recovery(job, tardis, read_snapshot(buf, layout))
        assert not decision.forward
        assert "capacity" in decision.reason

    def test_flop_fractions_are_monotone(self):
        nb = _N // _B
        per = [iteration_flops(j, nb, _B) for j in range(nb)]
        assert all(f > 0 for f in per)
        fracs = [completed_fraction(j, nb, _B) for j in range(nb + 1)]
        assert fracs[0] == 0.0
        assert fracs[-1] == pytest.approx(1.0)
        assert fracs == sorted(fracs)
