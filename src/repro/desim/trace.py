"""Execution traces: spans, timelines, and nvprof-style summaries.

After an engine run, the :class:`Timeline` answers the questions the paper's
evaluation asks: how long did checksum recalculation take in aggregate, how
much of the GPU was busy, what fraction of time went to fault tolerance.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any, NamedTuple

from repro.desim.task import Task
from repro.util.formatting import render_table

# Task/Span ``meta`` keys of the tile-access event protocol.  Drivers and the
# ABFT machinery annotate every task that touches matrix tiles or checksum
# strips with these keys; :mod:`repro.analysis` consumes them to check the
# paper's ordering invariants statically.  Tile keys are ``(i, j)`` block
# coordinates; ``META_ITERATION`` is the factorization iteration the access
# belongs to (``-1`` for the initial encoding).
META_TILE_READS = "tile_reads"
META_TILE_WRITES = "tile_writes"
META_TILE_VERIFIES = "tile_verifies"
META_CHK_READS = "chk_reads"
META_CHK_WRITES = "chk_writes"
META_STREAM = "stream"
META_ITERATION = "iteration"
#: Set by the solve service on every span of a job's timeline so dumped
#: multi-job traces stay attributable after they leave the process.
META_JOB = "job"


class Span(NamedTuple):
    """One completed task occurrence on the simulated clock.

    An immutable tuple record: the engine builds one per task, and the
    process pool pickles a job's whole timeline back to the parent, so
    construction and pickling cost matter.
    """

    tid: int
    name: str
    kind: str
    resource: str | None
    start: float
    finish: float
    meta: dict[str, Any]
    deps: tuple[int, ...] = ()

    @classmethod
    def from_task(cls, task: Task) -> "Span":
        deps = task.deps
        resource = task.resource
        return cls(
            task.tid,
            task.name,
            task.kind,
            None if resource is None else resource.name,
            task.start_time,
            task.finish_time,
            dict(task.meta),
            (deps[0].tid,) if len(deps) == 1 else tuple(sorted({d.tid for d in deps})),
        )

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Timeline:
    """An ordered collection of spans with aggregate queries."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def makespan(self) -> float:
        if not self.spans:
            return 0.0
        return max(s.finish for s in self.spans) - min(s.start for s in self.spans)

    def filter(self, predicate: Callable[[Span], bool]) -> "Timeline":
        """Sub-timeline of spans matching *predicate*."""
        return Timeline([s for s in self.spans if predicate(s)])

    def of_kind(self, *kinds: str) -> "Timeline":
        """Sub-timeline of the given span kinds."""
        wanted = set(kinds)
        return self.filter(lambda s: s.kind in wanted)

    def total_duration(self) -> float:
        """Sum of span durations (overlap counted multiply)."""
        return sum(s.duration for s in self.spans)

    def busy_time(self, resource: str) -> float:
        """Union length of spans on *resource* (overlap counted once)."""
        intervals = sorted(
            (s.start, s.finish) for s in self.spans if s.resource == resource
        )
        busy = 0.0
        cur_start: float | None = None
        cur_end = 0.0
        for start, finish in intervals:
            if cur_start is None:
                cur_start, cur_end = start, finish
            elif start <= cur_end:
                cur_end = max(cur_end, finish)
            else:
                busy += cur_end - cur_start
                cur_start, cur_end = start, finish
        if cur_start is not None:
            busy += cur_end - cur_start
        return busy

    def kind_summary(self) -> dict[str, tuple[int, float]]:
        """Per-kind (count, total duration) — an nvprof-like rollup."""
        agg: dict[str, tuple[int, float]] = defaultdict(lambda: (0, 0.0))
        for s in self.spans:
            count, dur = agg[s.kind]
            agg[s.kind] = (count + 1, dur + s.duration)
        return dict(agg)

    def to_chrome_trace(self, time_unit_us: float = 1e6) -> list[dict]:
        """Export as Chrome/Perfetto trace events (the ``chrome://tracing``
        JSON array format): one complete event ("ph": "X") per span, one
        process per resource.  Load the dumped JSON in any Perfetto UI to
        inspect the simulated schedule interactively.

        *time_unit_us* converts simulated seconds to microseconds (the
        trace format's unit); scale it up to stretch very short runs.
        """
        resources = sorted({s.resource for s in self.spans if s.resource})
        pid_of = {r: i + 1 for i, r in enumerate(resources)}
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": resource},
            }
            for resource, pid in pid_of.items()
        ]
        for s in self.spans:
            if s.resource is None or s.duration <= 0:
                continue
            events.append(
                {
                    "name": s.name,
                    "cat": s.kind,
                    "ph": "X",
                    "pid": pid_of[s.resource],
                    "tid": 1,
                    "ts": s.start * time_unit_us,
                    "dur": s.duration * time_unit_us,
                    "args": {k: v for k, v in s.meta.items() if isinstance(v, (int, float, str))},
                }
            )
        return events

    def render_gantt(
        self,
        width: int = 100,
        lanes: list[str] | None = None,
        max_label: int = 14,
    ) -> str:
        """ASCII Gantt chart: one lane per resource, time left to right.

        Each character cell covers ``makespan / width`` seconds; a cell
        shows the first letter of the kind of the span occupying it (``.``
        when idle, ``#`` when several spans overlap within the cell).  This
        is the quick way to *see* the paper's scheduling claims — POTF2
        hiding under GEMM, recalculation batches fanning across streams,
        checksum updating overlapping on its own stream.
        """
        if not self.spans:
            return "(empty timeline)"
        t0 = min(s.start for s in self.spans)
        span_names = lanes or sorted(
            {s.resource for s in self.spans if s.resource is not None}
        )
        total = self.makespan or 1.0
        scale = width / total
        lines = [f"gantt: {total:.6f}s total, {total / width:.2e}s/cell"]
        for lane in span_names:
            cells = [None] * width
            for s in self.spans:
                if s.resource != lane or s.duration <= 0:
                    continue
                lo = int((s.start - t0) * scale)
                hi = max(lo + 1, int((s.finish - t0) * scale))
                for c in range(lo, min(hi, width)):
                    cells[c] = "#" if cells[c] else s.kind[0]
            row = "".join(c or "." for c in cells)
            lines.append(f"{lane[:max_label]:>{max_label}} |{row}|")
        kinds = sorted({s.kind for s in self.spans if s.duration > 0})
        lines.append("legend: " + "  ".join(f"{k[0]}={k}" for k in kinds))
        return "\n".join(lines)

    def render_summary(self, title: str = "timeline summary") -> str:
        """Text table of the per-kind rollup, longest aggregate first."""
        rows = [
            (kind, count, total, total / count if count else 0.0)
            for kind, (count, total) in sorted(
                self.kind_summary().items(), key=lambda kv: -kv[1][1]
            )
        ]
        return render_table(
            ["kind", "calls", "total_s", "avg_s"],
            [(k, c, f"{t:.6f}", f"{a:.6f}") for k, c, t, a in rows],
            title=title,
        )
