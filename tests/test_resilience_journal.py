"""Durable job journal: WAL semantics, torn tails, replay idempotency."""

import json

import pytest

from repro.resilience.journal import (
    TERMINAL_EVENTS,
    JobJournal,
    incomplete_jobs,
    read_journal,
)
from repro.service.job import Job, Priority
from repro.util.exceptions import JournalError


def _admit(journal, job):
    journal.record("admitted", job.key, spec=job.to_spec())


def _job(job_id=0, **kw):
    kw.setdefault("n", 64)
    kw.setdefault("seed", 3)
    return Job(job_id=job_id, **kw)


class TestJobSpecRoundTrip:
    def test_spec_rebuilds_equivalent_job(self):
        job = _job(5, scheme="online", priority=Priority.INTERACTIVE, block_size=16)
        clone = Job.from_spec(job.to_spec())
        assert clone.job_id == job.job_id
        assert clone.n == job.n
        assert clone.scheme == job.scheme
        assert clone.priority is job.priority
        assert clone.block_size == job.block_size
        assert clone.seed == job.seed
        assert clone.key == job.key

    def test_spec_never_carries_the_injector(self):
        from repro.faults.injector import single_storage_fault

        job = _job(1, injector=single_storage_fault(block=(0, 0), iteration=0))
        spec = job.to_spec()
        assert "injector" not in spec
        assert Job.from_spec(spec).injector is None

    def test_key_is_seed_and_id(self):
        assert _job(9, seed=4).key == "4:9"

    def test_a_spec_that_carries_a_per_job_thread_width_still_replays(self, tmp_path):
        # Journals written while the service had a per-job thread width
        # for dag jobs store it in every spec; replay ignores it.
        spec = {
            "job_id": 2, "n": 64, "scheme": "dag", "priority": "batch", "block_size": 32,
            "numerics": "real", "verify_interval": 1, "seed": 3, "timeout_s": None,
            "intra_workers": 1,
        }
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"event": "admitted", "key": "3:2", "spec": spec}) + "\n")
        [job] = incomplete_jobs(read_journal(path))
        assert (job.key, job.scheme, job.block_size) == ("3:2", "dag", 32)
        assert job.to_spec() == {k: v for k, v in spec.items() if k != "intra_workers"}


class TestJournalWrites:
    def test_records_are_one_json_line_each(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _admit(journal, _job(0))
        journal.record("dispatched", _job(0).key, worker="w0")
        journal.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "admitted"
        assert json.loads(lines[1])["worker"] == "w0"

    def test_admitted_fsyncs_immediately(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=100)
        _admit(journal, _job(0))
        assert journal.syncs_total == 1
        journal.record("dispatched", "3:0")
        assert journal.syncs_total == 1  # non-critical records ride the batch
        journal.close()

    def test_batched_fsync_every_n_records(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", fsync_batch=3)
        for i in range(7):
            journal.record("attempt", "3:0", number=i)
        assert journal.syncs_total == 2
        journal.close()
        assert journal.syncs_total == 3  # close flushes the remainder

    def test_write_after_close_raises(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.close()
        assert journal.closed
        with pytest.raises(JournalError):
            journal.record("admitted", "3:0")

    def test_unwritable_path_raises_journal_error(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(JournalError):
            JobJournal(target)  # a directory cannot be opened for append


class TestTornTail:
    def test_reader_stops_at_torn_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _admit(journal, _job(0))
        _admit(journal, _job(1))
        journal.close()
        with path.open("a") as fh:
            fh.write('{"event": "comple')  # crash mid-append
        records = read_journal(path)
        assert [r["key"] for r in records] == ["3:0", "3:1"]

    def test_reopen_repairs_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _admit(journal, _job(0))
        journal.close()
        with path.open("a") as fh:
            fh.write('{"event": "comple')
        # A successor writer must not concatenate onto the torn record —
        # that would render everything it writes unreadable.
        successor = JobJournal(path)
        successor.record("completed", "3:0")
        successor.close()
        events = [r["event"] for r in read_journal(path)]
        assert events == ["admitted", "completed"]

    def test_missing_file_is_empty_journal(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == []

    def test_non_record_line_stops_the_reader(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "admitted", "key": "3:0"}\n{"other": 1}\n')
        assert len(read_journal(path)) == 1


class TestIncompleteJobs:
    def test_admitted_without_terminal_is_incomplete(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _admit(journal, _job(0))
        _admit(journal, _job(1))
        journal.record("completed", _job(0).key)
        journal.close()
        jobs = incomplete_jobs(read_journal(path))
        assert [j.job_id for j in jobs] == [1]

    def test_every_terminal_event_completes(self, tmp_path):
        for event in sorted(TERMINAL_EVENTS):
            path = tmp_path / f"{event}.jsonl"
            journal = JobJournal(path)
            _admit(journal, _job(0))
            journal.record(event, _job(0).key)
            journal.close()
            assert incomplete_jobs(read_journal(path)) == []

    def test_replay_dedups_by_key(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _admit(journal, _job(0))
        _admit(journal, _job(0))  # a prior recovery re-admitted it
        journal.close()
        assert len(incomplete_jobs(read_journal(path))) == 1

    def test_readmission_reopens_a_finished_job(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _admit(journal, _job(0))
        journal.record("completed", _job(0).key)
        _admit(journal, _job(0))  # submitted again after completing
        journal.close()
        assert [j.job_id for j in incomplete_jobs(read_journal(path))] == [0]

    def test_specless_admission_is_skipped(self):
        records = [{"event": "admitted", "key": "3:0"}]
        assert incomplete_jobs(records) == []

    def test_admission_order_is_preserved(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        for job_id in (4, 1, 7):
            _admit(journal, _job(job_id))
        journal.close()
        assert [j.job_id for j in incomplete_jobs(read_journal(path))] == [4, 1, 7]
