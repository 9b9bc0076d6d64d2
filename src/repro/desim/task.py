"""Tasks and task graphs for the discrete-event engine.

A :class:`Task` is one unit of recorded work: a GPU kernel, a PCIe transfer,
or a host-side call.  Dependencies are explicit edges; the execution
contexts in :mod:`repro.hetero` derive them from CUDA stream semantics
(program order within a stream, events across streams, host synchronization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.desim.resource import Resource
from repro.util.exceptions import ValidationError


@dataclass(eq=False, slots=True)
class Task:
    """One schedulable unit of work.

    Parameters
    ----------
    name:
        Human-readable label; appears in timelines and traces.
    resource:
        Where the task runs.  ``None`` means a pure synchronization node
        that completes the instant its dependencies do.
    duration:
        Seconds the task takes when running alone on its resource.
    util:
        Fraction of the resource's capacity the task can use alone
        (``1.0`` = saturates it).  The engine converts this into GPS
        demand: actual resource-seconds consumed are ``duration · util``.
    kind:
        Free-form category tag (``"gemm"``, ``"h2d"``, ...) used by trace
        queries and overhead accounting.
    meta:
        Arbitrary annotations (block indices, iteration, byte counts).

    ``tid`` is the task's position in its :class:`TaskGraph` (−1 until
    added), so two identical graphs number their tasks identically.
    """

    name: str
    resource: Resource | None = None
    duration: float = 0.0
    util: float = 1.0
    kind: str = "task"
    meta: dict[str, Any] = field(default_factory=dict)
    deps: list["Task"] = field(default_factory=list)
    tid: int = field(default=-1, init=False)

    # Filled in by the engine:
    start_time: float = field(default=-1.0, init=False)
    finish_time: float = field(default=-1.0, init=False)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValidationError(f"task {self.name!r} has negative duration")
        if not 0.0 < self.util <= 1.0:
            raise ValidationError(
                f"task {self.name!r} has util {self.util}, must be in (0, 1]"
            )
        if self.resource is None and self.duration > 0:
            raise ValidationError(
                f"task {self.name!r} has duration but no resource to run on"
            )

    def after(self, *tasks: "Task | None") -> "Task":
        """Add dependencies (ignoring Nones) and return self for chaining."""
        for t in tasks:
            if t is not None:
                self.deps.append(t)
        return self

    @property
    def work(self) -> float:
        """GPS work: resource-seconds this task must accumulate to finish."""
        return self.duration * self.util

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.name!r}, d={self.duration:.3e}, u={self.util:.2f})"


class TaskGraph:
    """An append-only collection of tasks forming a DAG.

    The graph does not deduplicate or validate acyclicity eagerly — the
    engine detects cycles as a deadlock (tasks that can never become ready).
    Construction helpers keep driver code terse.
    """

    def __init__(self) -> None:
        self.tasks: list[Task] = []

    def add(self, task: Task) -> Task:
        """Register *task*, numbering it in this graph, and return it."""
        task.tid = len(self.tasks)
        self.tasks.append(task)
        return task

    def new(
        self,
        name: str,
        resource: Resource | None = None,
        duration: float = 0.0,
        util: float = 1.0,
        kind: str = "task",
        deps: list[Task] | None = None,
        **meta: Any,
    ) -> Task:
        """Create, register and return a new task."""
        return self.record(name, resource, duration, util, kind, deps, meta)

    def record(
        self,
        name: str,
        resource: Resource | None,
        duration: float,
        util: float,
        kind: str,
        deps: list[Task] | None,
        meta: dict[str, Any],
    ) -> Task:
        """:meth:`new` with every argument explicit; the task keeps *meta*.

        The launch path of :class:`~repro.hetero.context.ExecutionContext`
        records thousands of tasks per factorization and passes its own
        freshly built meta dict here instead of re-packing it as keywords.
        """
        task = Task(name, resource, duration, util, kind, meta)
        if deps:
            task.after(*deps)
        return self.add(task)

    def barrier(self, name: str, deps: list[Task], **meta: Any) -> Task:
        """A zero-cost node that completes when all *deps* have."""
        return self.new(name, deps=deps, kind="barrier", **meta)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)
