"""Happens-before model over a recorded schedule.

The drivers annotate every task touching matrix state with the event-protocol
meta keys of :mod:`repro.desim.trace` (``tile_reads``/``tile_writes``/
``tile_verifies`` for data tiles, ``chk_reads``/``chk_writes`` for checksum
strips).  :class:`AccessGraph` ingests the resulting spans and answers the
one question every protocol rule reduces to: *does event A happen before
event B in every legal execution of this dependency graph?*

Reachability uses ancestor bitsets: task ids are assigned in launch order and
dependencies always point at smaller tids, so tid order is a topological
order and each span's ancestor set is the union of its dependencies'
ancestor sets plus the dependencies themselves.  Bitsets are plain Python
ints — OR-ing two 10⁴-bit ints is a single C-level operation, which keeps
the whole-schedule analysis comfortably subsecond.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.desim.trace import (
    META_CHK_READS,
    META_CHK_WRITES,
    META_ITERATION,
    META_STREAM,
    META_TILE_READS,
    META_TILE_VERIFIES,
    META_TILE_WRITES,
    Span,
)

Tile = tuple[int, int]

#: The two address spaces the event protocol distinguishes.
SPACES = ("data", "chk")

_READ_KEYS = {"data": META_TILE_READS, "chk": META_CHK_READS}
_WRITE_KEYS = {"data": META_TILE_WRITES, "chk": META_CHK_WRITES}


def _normalize_tiles(value: object) -> list[Tile]:
    """Meta tile lists survive a JSON round-trip as lists of lists — accept
    any iterable of 2-sequences and return canonical ``(int, int)`` tuples."""
    if value is None:
        return []
    tiles: list[Tile] = []
    for item in value:  # type: ignore[union-attr]
        a, b = item
        tiles.append((int(a), int(b)))
    return tiles


class AccessGraph:
    """Dependency reachability plus per-tile access indices for a schedule."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: list[Span] = sorted(spans, key=lambda s: s.tid)
        self._index: dict[int, int] = {s.tid: i for i, s in enumerate(self.spans)}
        self._anc = self._ancestor_bitsets()
        # space -> tile -> tids in tid (= topological) order
        self.reads: dict[str, dict[Tile, list[int]]] = {sp: {} for sp in SPACES}
        self.writes: dict[str, dict[Tile, list[int]]] = {sp: {} for sp in SPACES}
        self.verifies: dict[Tile, list[int]] = {}
        self._build_indices()

    # Construction ------------------------------------------------------------

    def _ancestor_bitsets(self) -> list[int]:
        anc: list[int] = [0] * len(self.spans)
        for i, span in enumerate(self.spans):
            bits = 0
            for dep in span.deps:
                j = self._index.get(dep)
                if j is None:
                    continue  # dep outside the analyzed window
                bits |= anc[j] | (1 << j)
            anc[i] = bits
        return anc

    def _build_indices(self) -> None:
        for span in self.spans:
            for space in SPACES:
                for tile in _normalize_tiles(span.meta.get(_READ_KEYS[space])):
                    self.reads[space].setdefault(tile, []).append(span.tid)
                for tile in _normalize_tiles(span.meta.get(_WRITE_KEYS[space])):
                    self.writes[space].setdefault(tile, []).append(span.tid)
            for tile in _normalize_tiles(span.meta.get(META_TILE_VERIFIES)):
                self.verifies.setdefault(tile, []).append(span.tid)

    # Queries -----------------------------------------------------------------

    def span(self, tid: int) -> Span:
        return self.spans[self._index[tid]]

    def reaches(self, a_tid: int, b_tid: int) -> bool:
        """True iff *a* happens-before *b* via the dependency graph.

        Strict: a span does not reach itself (POTF2 both reads and writes
        its diagonal tile in one span; the read sees the *pre*-write state).
        """
        ia, ib = self._index[a_tid], self._index[b_tid]
        return ia != ib and bool(self._anc[ib] >> ia & 1)

    def last_writes_before(self, tile: Tile, tid: int, space: str = "data") -> list[int]:
        """Maximal writes of *tile* ordered before span *tid*: writes W with
        ``reaches(W, tid)`` not themselves reached by a later such write."""
        prior = [w for w in self.writes[space].get(tile, []) if self.reaches(w, tid)]
        return [
            w
            for w in prior
            if not any(o != w and self.reaches(w, o) for o in prior)
        ]

    @staticmethod
    def iteration_of(span: Span) -> int | None:
        value = span.meta.get(META_ITERATION)
        return None if value is None else int(value)

    @staticmethod
    def stream_of(span: Span) -> str:
        return str(span.meta.get(META_STREAM, "?"))
