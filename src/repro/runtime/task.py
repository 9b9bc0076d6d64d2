"""Tile tasks with declared reads/writes — the unit of the DAG runtime.

A :class:`TileTask` is one kernel invocation (POTF2, a per-tile-column
TRSM, a per-tile SYRK/GEMM trailing update with its checksum update
fused in, a batched verification, or a fault-injection window) together
with an explicit declaration of every tile and checksum strip it reads
and writes.  The dependency DAG is *derived* from those declarations
(:mod:`repro.runtime.dag`), never hand-wired, so a task whose kernel
touches an undeclared tile silently corrupts the schedule — which is
exactly what lint rule RPL009 exists to prevent statically.

Cells name buffers by space and block coordinates: ``("A", i, j)`` is
matrix tile (i, j), ``("C", i, j)`` its checksum strip.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

#: One addressable unit of state: ("A" | "C", block row, block col).
Cell = tuple[str, int, int]

#: Task kinds the runtime executes (metric label values, span kinds).
TASK_KINDS = ("potf2", "trsm", "syrk", "gemm", "verify", "storage_window")


@dataclass
class TileTask:
    """One schedulable kernel invocation with declared data footprint.

    ``index`` is the task's position in *program order* — the order the
    builder emitted it, which is by construction a valid topological
    order of the derived DAG and is the serial reference schedule the
    bit-identity contract is stated against.
    """

    kind: str
    iteration: int
    tile: tuple[int, int]
    fn: Callable[[], None]
    reads: frozenset[Cell]
    writes: frozenset[Cell]
    #: cells the task's anchored fault plans strike: ordered like writes,
    #: but not accesses of the protocol, so no trace reports them
    victims: frozenset[Cell] = frozenset()
    index: int = -1
    #: host wall seconds, stamped by the executor
    start_s: float = field(default=0.0, compare=False)
    finish_s: float = field(default=0.0, compare=False)

    @property
    def key(self) -> tuple[str, int, tuple[int, int]]:
        """The task's schedule-independent identity (kind, iteration, tile).

        Fault plans are anchored to this identity, never to wall-clock
        completion order, which is what keeps injection deterministic
        under any worker count.
        """
        return (self.kind, self.iteration, self.tile)

    @property
    def label(self) -> str:
        i, j = self.tile
        return f"{self.kind}[{i},{j}]@it{self.iteration}"
