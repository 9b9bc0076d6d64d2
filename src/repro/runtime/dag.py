"""Dependency derivation: declared reads/writes → the task DAG.

The builder appends tasks in program order; edges come from the classic
last-writer bookkeeping over cells:

- **RAW** — a reader depends on the cell's last writer;
- **WAW** — a writer depends on the cell's last writer;
- **WAR** — a writer depends on every reader since that last write.

Because every cell's write sequence is therefore totally ordered, and
each read is ordered against the writes around it, *any* topological
execution of the graph computes bit-identical results: a task's inputs
are a pure function of the dataflow, never of the schedule.  Program
order itself is one valid topological order — the serial reference the
parallel executor is compared against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.runtime.task import Cell, TileTask
from repro.util.validation import require


class TaskGraph:
    """Tasks in program order plus the derived dependency structure."""

    def __init__(self) -> None:
        self.tasks: list[TileTask] = []
        self._last_writer: dict[Cell, int] = {}
        self._readers_since: dict[Cell, set[int]] = {}
        #: successor adjacency and predecessor counts, index-aligned
        self.successors: list[set[int]] = []
        self.n_deps: list[int] = []

    def add(
        self,
        kind: str,
        iteration: int,
        tile: tuple[int, int],
        *,
        reads: Iterable[Cell],
        writes: Iterable[Cell],
        fn: Callable[[], None],
        victims: Iterable[Cell] = (),
    ) -> TileTask:
        """Append one task; dependencies are derived from *reads*/*writes*.

        *victims* (the cells the task's fault plans strike) are ordered
        exactly as writes.
        """
        task = TileTask(
            kind=kind,
            iteration=iteration,
            tile=tile,
            fn=fn,
            reads=frozenset(reads),
            writes=frozenset(writes),
            victims=frozenset(victims),
            index=len(self.tasks),
        )
        mutated = task.writes | task.victims
        deps: set[int] = set()
        for cell in task.reads:
            writer = self._last_writer.get(cell)
            if writer is not None:
                deps.add(writer)
        for cell in mutated:
            writer = self._last_writer.get(cell)
            if writer is not None:
                deps.add(writer)
            deps.update(self._readers_since.get(cell, ()))
        deps.discard(task.index)
        for cell in task.reads:
            self._readers_since.setdefault(cell, set()).add(task.index)
        for cell in mutated:
            self._last_writer[cell] = task.index
            self._readers_since[cell] = set()
        self.tasks.append(task)
        self.successors.append(set())
        self.n_deps.append(len(deps))
        for dep in deps:
            self.successors[dep].add(task.index)
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    def dependencies(self) -> list[set[int]]:
        """Predecessor sets, index-aligned (tests and diagnostics)."""
        preds: list[set[int]] = [set() for _ in self.tasks]
        for src, succ in enumerate(self.successors):
            for dst in succ:
                preds[dst].add(src)
        return preds

    def check_program_order(self) -> None:
        """Assert program order is a topological order (builder invariant)."""
        for src, succ in enumerate(self.successors):
            for dst in succ:
                require(
                    dst > src,
                    f"edge {src}->{dst} violates program order; the builder "
                    "emitted a task before one of its producers",
                )
