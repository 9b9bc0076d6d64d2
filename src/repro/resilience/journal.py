"""Durable job journal: an append-only JSONL write-ahead log.

The service records every job lifecycle transition — ``admitted`` →
``dispatched`` → ``attempt`` (one per rung of the retry ladder) →
``completed`` / ``failed`` / ``rejected`` — as one JSON line.  The point
is crash recovery: a service that dies mid-run leaves the journal as the
only truth about which admitted jobs never reached a terminal state, and
a restarted service replays it (:func:`incomplete_jobs` →
``SolveService.recover``) to resubmit exactly those.

Semantics are **at-least-once**: a job whose terminal record was lost
(crash between completion and the batched fsync) is re-executed on
replay.  That is safe here because jobs are deterministic pure
computations keyed by ``(seed, job_id)`` (:attr:`repro.service.job.Job.key`)
— re-running one produces the bit-identical factor — and replay dedups by
that key, so a job is resubmitted at most once per recovery no matter how
many lifecycle records it left behind.

Durability policy: ``admitted`` records are fsynced immediately — they
are what recovery is *for*; losing one loses a job.  All other records
ride a batched fsync (every ``fsync_batch`` appends), trading a bounded
window of lost telemetry for not paying an fsync per transition; a lost
non-terminal record only ever causes a redundant (idempotent) replay.

A crash can tear the final line mid-append.  The reader tolerates this:
it stops at the first undecodable line — everything before the tear is
intact because appends are sequential and the file is only ever rewritten
by :meth:`JobJournal.compact`, which replaces it atomically.

Compaction: a long-lived service serving an unbounded job stream would
otherwise grow the WAL forever — almost all of it terminal records
recovery will never look at.  Once the file reaches
``max(COMPACT_BYTES, 2 × the bytes the last compaction kept)``, the
writer rewrites it to *only the live entries* — the latest ``admitted``
record of every admitted-but-unfinished job, in the order the jobs'
current runs were admitted — into a sibling temp file, fsyncs, and
``os.replace``s it over the journal.  The replace is the commit point: a
crash at any moment leaves either the old complete journal or the new
compacted one, never a mix, and ``recover()`` returns the same jobs in
the same order from both.  The doubling term keeps the rewrite
amortized when the live set alone outgrows ``COMPACT_BYTES`` (thousands
of queued jobs): each compaction is then paid for by at least as many
appended bytes as it rewrites, instead of firing on every append.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.service.job import Job
from repro.util.exceptions import JournalError
from repro.util.validation import check_positive

#: Events after which a job needs no replay.
TERMINAL_EVENTS = frozenset({"completed", "failed", "rejected"})

#: Compact once the WAL reaches this size (or twice what the last
#: compaction kept, whichever is larger).
COMPACT_BYTES = 1 << 20


class JobJournal:
    """Append-only JSONL WAL of job lifecycle transitions (single writer)."""

    def __init__(self, path: str | Path, fsync_batch: int = 8) -> None:
        check_positive("fsync_batch", fsync_batch)
        self.path = Path(path)
        self.fsync_batch = fsync_batch
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            _repair_torn_tail(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
            #: file size, counted from what record() writes — tell() on a
            #: text file would flush the write buffer on every record
            self._size = os.fstat(self._fh.fileno()).st_size
        except OSError as exc:
            raise JournalError(f"cannot open journal {self.path}: {exc}") from exc
        self._compact_at = COMPACT_BYTES
        self._pending = 0
        self.records_written = 0
        self.syncs_total = 0
        self.compactions_total = 0
        self.records_compacted_away = 0

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def record(self, event: str, key: str, **fields: object) -> None:
        """Append one lifecycle record (and maybe fsync — see module doc)."""
        if self._fh.closed:
            raise JournalError(f"journal {self.path} is closed")
        entry = {"event": event, "key": key, **fields}
        try:
            # json.dumps escapes non-ASCII, so characters count bytes.
            line = json.dumps(entry, sort_keys=True) + "\n"
            self._fh.write(line)
        except (OSError, TypeError) as exc:
            raise JournalError(f"journal append failed: {exc}") from exc
        self._size += len(line)
        self._pending += 1
        self.records_written += 1
        if event == "admitted" or self._pending >= self.fsync_batch:
            self.sync()
        if self._size >= self._compact_at:
            self.compact()

    def compact(self) -> int:
        """Atomically rewrite the journal down to its live entries.

        Live = the latest ``admitted`` record of every job without a
        terminal record — exactly the set ``recover()`` replays, so a
        recovery reads identically before and after.  Returns the number
        of records dropped.  Safe against crashes: the rewrite goes to a
        sibling temp file, is fsynced, and lands via ``os.replace``.
        """
        if self._fh.closed:
            raise JournalError(f"journal {self.path} is closed")
        self.sync()
        records = read_journal(self.path)
        live = _live_records(records)
        text = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in live)
        tmp = self.path.with_name(self.path.name + ".compact.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as out:  # noqa: RPL102 — WAL primitive: compaction is priced into record()
                out.write(text)
                out.flush()
                os.fsync(out.fileno())  # noqa: RPL102 — durability before the rename commit
            os.replace(tmp, self.path)
            self._fh.close()
            self._fh = open(self.path, "a", encoding="utf-8")  # noqa: RPL102 — WAL primitive
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise JournalError(f"journal compaction failed: {exc}") from exc
        self._pending = 0
        self._size = len(text)
        self._compact_at = max(COMPACT_BYTES, 2 * self._size)
        self.compactions_total += 1
        self.records_compacted_away += len(records) - len(live)
        return len(records) - len(live)

    def sync(self) -> None:
        """Flush buffered records to stable storage (flush + fsync)."""
        if self._fh.closed or self._pending == 0:
            return
        try:
            self._fh.flush()
            # Deliberate blocking sink: group commit amortizes this fsync
            # over fsync_batch records, and the durability contract (an
            # admitted job survives a crash) requires it inline — callers
            # must not reorder it onto a thread behind the admission path.
            os.fsync(self._fh.fileno())  # noqa: RPL102
        except OSError as exc:
            raise JournalError(f"journal fsync failed: {exc}") from exc
        self._pending = 0
        self.syncs_total += 1

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()


def _repair_torn_tail(path: Path) -> None:
    """Truncate a torn final record before appending to an existing journal.

    A crash mid-append can leave the file without a trailing newline.
    Appending after that tear would concatenate the next record onto the
    garbage and render *everything after it* unreadable — so a new writer
    first drops the partial line (it was never durable: a record is only
    trusted once its newline hit the disk).
    """
    try:
        with open(path, "rb+") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size == 0:
                return
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return
            # Walk back to the last newline (or the file start) and cut.
            data = Path(path).read_bytes()
            keep = data.rfind(b"\n") + 1
            fh.truncate(keep)
    except FileNotFoundError:
        return


def read_journal(path: str | Path) -> list[dict]:
    """Parse a journal file, tolerating a torn final line.

    A missing file is an empty journal (a service that never admitted
    anything has nothing to recover).  Parsing stops at the first
    undecodable line: with a sequential single-writer append log, only
    the tail can be torn, and anything at or after a tear is untrusted.
    Raw bytes are decoded leniently — a bit-flipped byte must degrade to
    "tear at that record", never crash the recovery path.
    """
    try:
        raw = Path(path).read_bytes()  # noqa: RPL102 — WAL primitive: async callers hand off via to_thread
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    text = raw.decode("utf-8", errors="replace")
    records: list[dict] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail — everything before it is intact
        if not isinstance(entry, dict) or "event" not in entry or "key" not in entry:
            break
        records.append(entry)
    return records


def _live_records(records: list[dict]) -> list[dict]:
    """The latest ``admitted`` record of every job without a terminal one.

    Ordered by the admission that opened each job's current run: a
    re-admission of an unfinished job (a previous recovery's replay)
    keeps its place and updates the spec, while a terminal record closes
    the job, so a later re-admission queues it anew at the end.  That
    order does not depend on when compaction ran, which is what lets a
    compacted journal replay exactly like the full one.
    """
    live: dict[str, dict] = {}
    for entry in records:
        key = str(entry["key"])
        if entry["event"] == "admitted":
            live[key] = entry  # dicts keep an existing key's position
        elif entry["event"] in TERMINAL_EVENTS:
            live.pop(key, None)
    return list(live.values())


def incomplete_jobs(records: list[dict]) -> list[Job]:
    """Jobs with an ``admitted`` record but no terminal one after it.

    Deduped by job key and ordered as :func:`_live_records` keeps them:
    re-admissions of the same ``(seed, job_id)`` collapse to one job,
    rebuilt from the *latest* admitted spec.  Jobs whose admitted record
    carries no spec (pre-journal formats) are skipped — they cannot be
    rebuilt.
    """
    jobs: list[Job] = []
    for entry in _live_records(records):
        spec = entry.get("spec")
        if spec is None:
            continue
        try:
            jobs.append(Job.from_spec(spec))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # A mutated-but-parseable spec (fuzzed or disk-corrupted) must
            # surface as a journal error, not an arbitrary crash deep in
            # Job construction.
            raise JournalError(f"journal spec for job {str(entry['key'])!r} is corrupt: {exc}") from exc
    return jobs
