"""Journal compaction: the WAL shrinks, recovery cannot tell.

The contract under test: :meth:`JobJournal.compact` rewrites the file to
only its *live* entries (latest admitted record per unfinished job, in
admission order), atomically, and ``recover()`` semantics —
:func:`incomplete_jobs` over :func:`read_journal` — are identical before
and after, for any history.  The size trigger fires inside ``record()``
so a long-lived service's WAL stays bounded without anyone calling
compact by hand, and it backs off when the live set alone outgrows the
threshold.  Tests patch ``COMPACT_BYTES`` down to a few records.
"""

import asyncio
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.resilience.journal as journal_mod
from repro.resilience.journal import JobJournal, incomplete_jobs, read_journal
from repro.service.core import ServiceConfig, SolveService
from repro.service.job import Job, JobStatus
from repro.util.exceptions import JournalError

_prop = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

_EVENTS = ["admitted", "dispatched", "attempt", "completed", "failed", "rejected"]
_records = st.tuples(st.sampled_from(_EVENTS), st.integers(min_value=0, max_value=5))
histories = st.lists(_records, min_size=1, max_size=16)

#: ~2.5 admitted records: any three unfinished jobs outgrow it
_SMALL_THRESHOLD = 560

#: a random history behind 3–6 jobs (ids 100+) that it never finishes, so
#: the live set alone exceeds ``_SMALL_THRESHOLD`` and compactions fire
#: mid-history with live records to keep
histories_over_threshold = st.builds(
    lambda unfinished, tail: [("admitted", 100 + i) for i in range(unfinished)] + tail,
    st.integers(min_value=3, max_value=6),
    st.lists(_records, max_size=24),
)


def _replay_keys(path):
    return [job.key for job in incomplete_jobs(read_journal(path))]


def _write(journal: JobJournal, event: str, job_id: int) -> None:
    job = Job(job_id=job_id, n=32, seed=7)
    if event == "admitted":
        journal.record(event, job.key, spec=job.to_spec())
    else:
        journal.record(event, job.key)


def _write_all(path, history) -> JobJournal:
    """Write *history* to a fresh journal at *path*; returns it closed."""
    path.unlink(missing_ok=True)
    journal = JobJournal(path, fsync_batch=1)
    try:
        for event, job_id in history:
            _write(journal, event, job_id)
    finally:
        journal.close()
    return journal


class TestCompactionPreservesRecovery:
    @_prop
    @given(history=histories_over_threshold)
    def test_incomplete_jobs_identical_before_and_after(self, tmp_path, history):
        # Reference: the same history below the default threshold, uncompacted.
        _write_all(tmp_path / "ref.jsonl", history)
        expected = _replay_keys(tmp_path / "ref.jsonl")
        path = tmp_path / "wal.jsonl"
        path.unlink(missing_ok=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(journal_mod, "COMPACT_BYTES", _SMALL_THRESHOLD)
            journal = JobJournal(path, fsync_batch=1)
            try:
                for event, job_id in history:
                    _write(journal, event, job_id)
                assert journal.compactions_total >= 1
                before = _replay_keys(path)
                dropped_before = journal.records_compacted_away
                dropped = journal.compact()
                after = _replay_keys(path)
            finally:
                journal.close()
        assert before == after == expected
        assert dropped == journal.records_compacted_away - dropped_before
        # The rewrite keeps nothing but live admitted records.
        for entry in read_journal(path):
            assert entry["event"] == "admitted"
            assert "spec" in entry

    @_prop
    @given(history=histories)
    def test_writer_continues_appending_after_compaction(self, tmp_path, history):
        path = tmp_path / "wal.jsonl"
        path.unlink(missing_ok=True)
        journal = JobJournal(path, fsync_batch=1)
        try:
            for event, job_id in history:
                _write(journal, event, job_id)
            journal.compact()
            _write(journal, "admitted", 99)
        finally:
            journal.close()
        records = read_journal(path)
        assert records[-1]["key"] == "7:99"
        assert "7:99" in _replay_keys(path)

    def test_replay_order_does_not_depend_on_when_compaction_ran(self, tmp_path):
        # Job 0 finishes and is admitted again: it replays after job 1
        # whether or not a compaction dropped its first run in between.
        history = [("admitted", 0), ("admitted", 1), ("completed", 0), ("admitted", 0)]
        for cut in range(len(history) + 1):
            path = tmp_path / f"wal-{cut}.jsonl"
            journal = JobJournal(path)
            try:
                for index, (event, job_id) in enumerate(history):
                    if index == cut:
                        journal.compact()
                    _write(journal, event, job_id)
            finally:
                journal.close()
            assert _replay_keys(path) == ["7:1", "7:0"], cut

    def test_terminal_heavy_history_compacts_to_nothing(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path)
        try:
            for job_id in range(20):
                _write(journal, "admitted", job_id)
                _write(journal, "completed", job_id)
            dropped = journal.compact()
        finally:
            journal.close()
        assert dropped == 40
        assert read_journal(path) == []
        assert path.stat().st_size == 0


class TestSizeTrigger:
    def test_size_trigger_fires_inside_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_mod, "COMPACT_BYTES", 2_000)
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path)
        try:
            for job_id in range(100):
                _write(journal, "admitted", job_id)
                _write(journal, "completed", job_id)
            assert journal.compactions_total >= 1
            assert journal.records_compacted_away > 0
            # The WAL stays bounded near the threshold, not 200 records.
            assert path.stat().st_size < 4_000
        finally:
            journal.close()

    def test_no_trigger_means_no_compaction(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path)  # 20 records stay far below COMPACT_BYTES
        try:
            for job_id in range(10):
                _write(journal, "admitted", job_id)
                _write(journal, "completed", job_id)
        finally:
            journal.close()
        assert journal.compactions_total == 0
        assert len(read_journal(path)) == 20

    def test_reopened_journal_counts_the_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.jsonl"
        _write_all(path, [("admitted", job_id) for job_id in range(8)])
        size = path.stat().st_size
        monkeypatch.setattr(journal_mod, "COMPACT_BYTES", size + 1)
        journal = JobJournal(path)
        try:
            _write(journal, "completed", 0)
        finally:
            journal.close()
        assert journal.compactions_total == 1
        assert _replay_keys(path) == [f"7:{job_id}" for job_id in range(1, 8)]

    # 0 and 4 unfinished jobs keep less than half the threshold, 9 and 20
    # keep more, so both arms of the max() are pinned.
    @pytest.mark.parametrize("unfinished", [0, 4, 9, 20])
    def test_next_compaction_fires_at_threshold_or_twice_what_was_kept(
        self, tmp_path, monkeypatch, unfinished
    ):
        _write_all(tmp_path / "probe.jsonl", [("dispatched", 0)])
        line = (tmp_path / "probe.jsonl").stat().st_size
        monkeypatch.setattr(journal_mod, "COMPACT_BYTES", 2_000)
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path, fsync_batch=1)
        try:
            for job_id in range(unfinished):
                _write(journal, "admitted", job_id)
            journal.compact()
            kept = path.stat().st_size
            trigger = max(2_000, 2 * kept)
            # Non-terminal appends leave the live set alone, so the file
            # grows one line at a time until it first reaches the trigger.
            fires_at = math.ceil((trigger - kept) / line)
            compactions = journal.compactions_total
            for appended in range(1, fires_at + 1):
                assert journal.compactions_total == compactions, appended
                _write(journal, "dispatched", 0)
            assert journal.compactions_total == compactions + 1
            assert path.stat().st_size == kept
        finally:
            journal.close()
        assert (2 * kept > 2_000) == (unfinished >= 9)


class TestCompactionStorm:
    """A live set above the threshold must not compact on every append.

    Compaction keeps every unfinished job's admitted record, so once
    those alone exceed the threshold a fixed trigger would re-read,
    rewrite and fsync the whole WAL on each ``record()``.  The trigger
    instead waits for the file to double past what the last compaction
    kept.
    """

    def _counts(self, tmp_path, monkeypatch, history):
        reference = _write_all(tmp_path / "ref.jsonl", history)
        assert reference.compactions_total == 0
        monkeypatch.setattr(journal_mod, "COMPACT_BYTES", 2_000)
        journal = _write_all(tmp_path / "wal.jsonl", history)
        assert _replay_keys(tmp_path / "wal.jsonl") == _replay_keys(tmp_path / "ref.jsonl")
        return journal.compactions_total, (tmp_path / "ref.jsonl").stat().st_size

    def test_growing_live_set_compacts_logarithmically(self, tmp_path, monkeypatch):
        # 20 unfinished jobs (~4.5 kB live), then one append per job.
        history = [("admitted", job_id) for job_id in range(20)]
        history += [("dispatched", job_id) for job_id in range(20)]
        compactions, written = self._counts(tmp_path, monkeypatch, history)
        # Nothing finishes, so the k-th compaction needs a file of at
        # least 2^(k-1) thresholds.
        assert 1 <= compactions <= 1 + math.log2(written / 2_000)

    def test_steady_appends_over_the_live_set_stay_amortized(self, tmp_path, monkeypatch):
        history = [("admitted", job_id) for job_id in range(20)]
        history += [("dispatched", job_id % 20) for job_id in range(400)]
        compactions, written = self._counts(tmp_path, monkeypatch, history)
        # Each compaction keeps >= 2 kB live, so the next one waits for at
        # least that many appended bytes: never more than one per 2 kB.
        assert 1 <= compactions <= written / 2_000
        assert compactions < len(history) / 20

    def test_restart_over_a_backlog_beyond_the_threshold_compacts_once(
        self, tmp_path, monkeypatch
    ):
        # The predecessor left 20 unfinished jobs (~4.5 kB) behind; the
        # restarted writer's first append compacts and keeps all of them.
        path = tmp_path / "wal.jsonl"
        _write_all(path, [("admitted", job_id) for job_id in range(20)])
        monkeypatch.setattr(journal_mod, "COMPACT_BYTES", 2_000)
        journal = JobJournal(path)
        try:
            for job_id in range(20):
                _write(journal, "dispatched", job_id)
        finally:
            journal.close()
        assert journal.compactions_total == 1
        assert _replay_keys(path) == [f"7:{job_id}" for job_id in range(20)]

    def test_queued_backlog_beyond_the_threshold_does_not_storm(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(journal_mod, "COMPACT_BYTES", 2_000)
        path = tmp_path / "svc.jsonl"
        jobs = [Job(job_id=i, n=32, block_size=16, seed=7) for i in range(40)]
        service = SolveService(
            ServiceConfig(journal_path=path, executor="inline", max_queue_depth=64)
        )

        async def admit_then_crash() -> None:
            for job in jobs:
                service.submit(job)
            await service.abort()

        asyncio.run(admit_then_crash())
        # Every admission is live, so each compaction keeps the whole file
        # and the k-th one needs 2^(k-1) thresholds of it.
        compactions = service.journal.compactions_total
        assert 1 <= compactions <= 1 + math.log2(path.stat().st_size / 2_000)
        assert _replay_keys(path) == [job.key for job in jobs]


class TestCompactionCost:
    """What compaction costs, for any history, against what was appended.

    A compaction that keeps ``K`` bytes sets the next trigger at
    ``max(T, 2K)``, so the appends in between are at least ``max(T/2, K)``
    bytes: compactions are at most two per threshold appended, and the
    bytes they rewrite at most twice the bytes appended.
    """

    @staticmethod
    def _run(tmp_path, history) -> tuple[int, list[int]]:
        """Bytes *history* appends, and the bytes each compaction kept."""
        _write_all(tmp_path / "ref.jsonl", history)
        appended = (tmp_path / "ref.jsonl").stat().st_size
        path = tmp_path / "wal.jsonl"
        path.unlink(missing_ok=True)
        kept: list[int] = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(journal_mod, "COMPACT_BYTES", _SMALL_THRESHOLD)
            journal = JobJournal(path, fsync_batch=1)
            try:
                for event, job_id in history:
                    before = journal.compactions_total
                    _write(journal, event, job_id)
                    if journal.compactions_total > before:
                        kept.append(path.stat().st_size)
            finally:
                journal.close()
        return appended, kept

    @_prop
    @given(history=histories_over_threshold)
    def test_at_most_two_compactions_per_threshold_appended(self, tmp_path, history):
        appended, kept = self._run(tmp_path, history)
        assert len(kept) <= 2 * appended / _SMALL_THRESHOLD

    @_prop
    @given(history=histories_over_threshold)
    def test_rewritten_bytes_at_most_twice_the_appended(self, tmp_path, history):
        appended, kept = self._run(tmp_path, history)
        assert sum(kept) <= 2 * appended


class TestByteCount:
    """The writer counts the file size from what ``record()`` writes.

    ``TextIOWrapper.tell()`` would flush the write buffer on every
    record; the counter must still equal the file's real size in bytes.
    """

    @_prop
    @given(history=histories_over_threshold)
    def test_counted_size_is_the_file_size_after_every_record(self, tmp_path, history):
        path = tmp_path / "wal.jsonl"
        path.unlink(missing_ok=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(journal_mod, "COMPACT_BYTES", _SMALL_THRESHOLD)
            journal = JobJournal(path, fsync_batch=1)
            try:
                for event, job_id in history:
                    _write(journal, event, job_id)
                    assert journal._size == path.stat().st_size
            finally:
                journal.close()

    @pytest.mark.parametrize(
        "text", ["café", "日本語", "\U0001f642", "tab\tnul\x00"],
        ids=["latin1", "cjk", "astral", "control"],
    )
    def test_non_ascii_fields_are_counted_in_bytes(self, tmp_path, text):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path, fsync_batch=1)
        try:
            journal.record("attempt", f"7:{text}", note=text)
            assert journal._size == path.stat().st_size
        finally:
            journal.close()
        assert read_journal(path) == [{"event": "attempt", "key": f"7:{text}", "note": text}]

    def test_records_between_fsyncs_are_not_flushed_one_by_one(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path, fsync_batch=8)
        try:
            for _ in range(7):
                _write(journal, "dispatched", 0)
            assert path.stat().st_size == 0  # all seven still buffered
            _write(journal, "dispatched", 0)
            assert path.stat().st_size == journal._size > 0
        finally:
            journal.close()

    def test_reopen_after_a_torn_tail_counts_only_the_repaired_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _write_all(path, [("admitted", job_id) for job_id in range(3)])
        intact = path.stat().st_size
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "adm')
        journal = JobJournal(path, fsync_batch=1)
        try:
            assert journal._size == intact == path.stat().st_size
            _write(journal, "completed", 0)
            assert journal._size == path.stat().st_size
        finally:
            journal.close()
        assert _replay_keys(path) == ["7:1", "7:2"]

    def test_unserializable_record_writes_and_counts_nothing(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path, fsync_batch=1)
        try:
            _write(journal, "admitted", 1)
            size = journal._size
            with pytest.raises(JournalError, match="append failed"):
                journal.record("attempt", "7:1", blob=object())
            assert journal._size == size == path.stat().st_size
            _write(journal, "completed", 1)
        finally:
            journal.close()
        assert [entry["event"] for entry in read_journal(path)] == ["admitted", "completed"]


class TestCompactionSafety:
    def test_compact_on_closed_journal_raises(self, tmp_path):
        journal = JobJournal(tmp_path / "wal.jsonl")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.compact()

    def test_failed_replace_keeps_the_old_journal_and_the_writer(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path, fsync_batch=1)
        try:
            _write(journal, "admitted", 1)
            _write(journal, "admitted", 2)
            _write(journal, "completed", 2)
            before = read_journal(path)

            def refuse(src, dst):
                raise OSError("no space left on device")

            with monkeypatch.context() as mp:
                mp.setattr(journal_mod.os, "replace", refuse)
                with pytest.raises(JournalError, match="compaction failed"):
                    journal.compact()
            assert read_journal(path) == before
            assert list(tmp_path.glob("*.compact.tmp")) == []
            assert journal.compactions_total == 0
            _write(journal, "admitted", 3)
            assert journal.compact() == 2
        finally:
            journal.close()
        assert _replay_keys(path) == ["7:1", "7:3"]

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path)
        try:
            _write(journal, "admitted", 1)
            journal.compact()
        finally:
            journal.close()
        assert list(tmp_path.glob("*.compact.tmp")) == []

    def test_compacted_journal_survives_torn_tail_like_any_other(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path)
        try:
            _write(journal, "admitted", 1)
            _write(journal, "admitted", 2)
            _write(journal, "completed", 2)
            journal.compact()
        finally:
            journal.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "adm')  # crash mid-append after rotation
        assert _replay_keys(path) == ["7:1"]

    def test_journaled_service_compacts_and_recovers_the_unfinished(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(journal_mod, "COMPACT_BYTES", 1_500)
        path = tmp_path / "svc.jsonl"
        pending = [Job(job_id=100 + i, n=32, block_size=16, seed=7) for i in range(3)]
        finished = [Job(job_id=i, n=32, block_size=16, seed=7) for i in range(8)]

        def service() -> SolveService:
            return SolveService(ServiceConfig(journal_path=path, executor="inline"))

        async def admit_then_crash() -> None:
            for job in pending:
                first.submit(job)
            await first.abort()

        async def run_to_completion(svc: SolveService, jobs: list[Job]) -> None:
            svc.start()
            for job in jobs:
                svc.submit(job)
            await svc.stop()

        # A predecessor admits three jobs and dies before running them;
        # the next incarnation (no recovery) serves eight more, compacting
        # past the live set it inherited.
        first = service()
        asyncio.run(admit_then_crash())
        second = service()
        asyncio.run(run_to_completion(second, finished))
        assert second.journal.compactions_total >= 1
        assert all(second.results[job.job_id].status is JobStatus.COMPLETED for job in finished)

        third = service()
        recovered = third.recover()
        assert [job.key for job in recovered] == [job.key for job in pending]
        asyncio.run(run_to_completion(third, []))
        assert _replay_keys(path) == []

    def test_compacted_entries_round_trip_byte_identically(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = JobJournal(path)
        job = Job(job_id=3, n=32, seed=7)
        try:
            journal.record("admitted", job.key, spec=job.to_spec())
            before = read_journal(path)
            journal.compact()
        finally:
            journal.close()
        after = read_journal(path)
        assert after == before
        line = path.read_text().strip()
        assert json.loads(line) == before[0]
