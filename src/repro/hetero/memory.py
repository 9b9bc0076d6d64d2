"""Device-resident buffers: tiled matrices and checksum strips.

A buffer owns (a) optional real storage — a NumPy array, present in real
mode only — and (b) a taint map from tile key to
:class:`repro.faults.taint.TaintState`, present in both modes.  Real-mode
corruption lives in the actual bits; shadow-mode corruption lives only in
the taint map.  Fault injection and ABFT verification address both through
the same ``tile_view`` / ``taint_of`` interface.

Tile-major access
-----------------
Both buffer kinds expose their storage as a **tile-major 4-D view**
``tiles4[i, :, j, :]`` (shape ``(nb, h, nb, w)``, a zero-copy reshape of
the backing array).  One fancy index on it, ``tiles4[ii, :, jj, :]``,
gathers any batch of tiles into a ``(k, h, w)`` stack, which is how the
checksum detector (:mod:`repro.core.batchverify`) recalculates a whole
verification batch with one matmul.

Taint scans are incremental: buffers keep a dirty-key set maintained by
:class:`~repro.faults.taint.TaintState` change notifications, so
``any_taint`` / ``tainted_keys`` no longer walk the whole taint map.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.blas.blocked import BlockedMatrix
from repro.faults.taint import TaintState
from repro.util.exceptions import ValidationError
from repro.util.validation import check_block_size, check_positive, require

_DOUBLE = 8


# -- cross-process matrix transport --------------------------------------------
#
# The process execution backend (:mod:`repro.exec.process`) never pickles
# ndarrays across the worker boundary: matrices live in
# ``multiprocessing.shared_memory`` segments owned by the parent, and only
# the (name, shape, dtype, offset) descriptor crosses as part of the task
# payload.  Ownership rules:
#
# - the **parent** creates segments (one arena per pool worker slot, grown
#   on demand) and is the only side that ever calls ``unlink``;
# - a **worker** attaches by descriptor, keeps the attachment cached for
#   the life of the pool (warm state), and only ``close``s it on drain —
#   it never unlinks.  Pool workers are spawned children, so they inherit
#   the parent's resource-tracker fd: a worker's attach re-registers the
#   same name in the *same* tracker (a set — idempotent), and the segment
#   is reaped exactly once, by the parent's ``unlink``.  A worker exiting
#   or crashing therefore never tears down a segment the parent still
#   owns.


@dataclass(frozen=True, slots=True)
class ShmDescriptor:
    """Addressing record for an ndarray inside a shared-memory segment.

    This — not the array — is what crosses the process boundary.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int = 0
    #: owning :class:`SharedArena` tag (empty for standalone segments).
    #: Workers cache attachments per arena, so a descriptor naming a new
    #: segment under the same tag tells them to drop the outgrown one.
    arena: str = ""

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


def create_shared_array(
    name: str, shape: tuple[int, ...], dtype: str = "float64"
) -> tuple[shared_memory.SharedMemory, np.ndarray, ShmDescriptor]:
    """Create an owned segment sized for ``shape``/``dtype`` (parent side).

    Returns the segment handle (keep it alive; ``close``+``unlink`` when
    done), a zero-copy ndarray view of it, and the descriptor to send to
    workers.
    """
    desc = ShmDescriptor(name=name, shape=tuple(int(d) for d in shape), dtype=str(dtype))
    check_positive("shared array nbytes", desc.nbytes)
    shm = shared_memory.SharedMemory(name=name, create=True, size=desc.nbytes)
    view = np.ndarray(desc.shape, dtype=desc.dtype, buffer=shm.buf)
    return shm, view, desc


def attach_shared_array(
    desc: ShmDescriptor,
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a parent-owned segment and view it as an ndarray (worker side).

    The worker must only ever ``close()`` the returned handle — the parent
    owns the segment's lifetime and is the only side that ``unlink``s.
    Spawned pool workers share the parent's resource tracker, so the
    duplicate registration this attach makes is idempotent there and the
    segment is reaped exactly once.
    """
    shm = shared_memory.SharedMemory(name=desc.name, create=False)
    view = np.ndarray(desc.shape, dtype=desc.dtype, buffer=shm.buf, offset=desc.offset)
    return shm, view


def _reap_segment(shm: shared_memory.SharedMemory) -> None:
    """Close + unlink one segment, tolerating partial prior teardown.

    ``close`` fails with :class:`BufferError` while live ndarray views
    still map the segment — the mapping then outlives the name, which is
    harmless; the ``unlink`` (the part that frees /dev/shm) still runs.
    """
    try:
        shm.close()
    except BufferError:  # live views keep the mapping; unlink still frees the name
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


#: Smallest size class a lease can land in (one tmpfs page).
_MIN_SEGMENT_BYTES = 4096

#: Default per-arena high-water mark: free segments are trimmed (LRU
#: first) once the arena's total mapped bytes exceed this.
DEFAULT_HIGH_WATER_BYTES = 64 * 1024 * 1024


def _size_class(nbytes: int) -> int:
    """Next power of two >= ``nbytes`` (min one page) — the segment size."""
    size = _MIN_SEGMENT_BYTES
    while size < nbytes:
        size *= 2
    return size


@dataclass
class _Segment:
    """One live shared-memory segment tracked by a :class:`SharedArena`."""

    shm: shared_memory.SharedMemory
    size_class: int
    finalizer: weakref.finalize
    last_used: int = 0


class SharedArena:
    """A parent-owned pool of warm shared segments (one arena per worker slot).

    ``lease(shape)`` returns a ``(view, descriptor)`` pair backed by a
    segment from a **size-class free-list** (size classes are powers of
    two, one page minimum): a fitting free segment is reused warm — same
    name, so a pool worker's cached attachment stays valid — and only a
    miss creates a new segment.  :meth:`end_lease` returns the segment to
    its class's free-list (LIFO, so the warmest segment goes out first)
    and then trims cold free segments LRU-first while the arena's total
    mapped bytes exceed ``high_water_bytes``.  This replaces the old
    per-attempt allocate/unlink churn while preserving the ownership
    rules above: the parent creates and unlinks, workers only attach and
    close (trimmed names are published via :meth:`drain_retired` so the
    executor can tell workers to drop stale mappings).

    :meth:`discard` drops one segment whose backing file vanished or
    rotted underneath us; ``end_lease`` of a discarded descriptor is a
    silent no-op.

    Every created segment carries a ``weakref.finalize`` safety net: if
    the owning executor dies without :meth:`release` (abnormal shutdown),
    segments are still unlinked at arena collection or interpreter exit,
    so /dev/shm never accumulates residue.
    """

    def __init__(self, tag: str, high_water_bytes: int = DEFAULT_HIGH_WATER_BYTES) -> None:
        self.tag = tag
        self.high_water_bytes = int(high_water_bytes)
        self._seq = 0
        self._clock = 0
        self._segments: dict[str, _Segment] = {}
        self._leased: set[str] = set()
        self._free: dict[int, list[str]] = {}
        self._retired: list[str] = []
        #: whether the most recent :meth:`lease` was served from the
        #: free-list (warm hit) or had to create a segment (miss) — the
        #: executor reads this to drive its reuse/miss counters.
        self.last_lease_reused = False

    # -- introspection ---------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(seg.size_class for seg in self._segments.values())

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def free_count(self) -> int:
        return sum(len(names) for names in self._free.values())

    def leased_names(self) -> set[str]:
        return set(self._leased)

    # -- targeted teardown -----------------------------------------------

    def discard(self, name: str) -> None:
        """Drop one segment by name (its file vanished or rotted).

        Immediate and targeted: other segments' leases stay valid.
        Unknown names are ignored.
        """
        seg = self._segments.pop(name, None)
        if seg is None:
            return
        self._leased.discard(name)
        names = self._free.get(seg.size_class)
        if names and name in names:
            names.remove(name)
        seg.finalizer.detach()
        _reap_segment(seg.shm)
        self._retired.append(name)

    def unlink_backing(self, name: str | None = None) -> None:
        """Remove /dev/shm file(s) while keeping the mappings alive.

        Chaos-test hook simulating an external tmpfs sweep: existing
        attachments keep working (the mapping survives the unlink) but
        any *new* attach by name fails with ``FileNotFoundError``.  With
        ``name=None`` every current segment's file is removed.
        """
        for seg_name, seg in self._segments.items():
            if name is not None and seg_name != name:
                continue
            try:
                seg.shm.unlink()
            except FileNotFoundError:
                pass

    def drain_retired(self) -> list[str]:
        """Names unlinked since the last drain (workers should close them)."""
        retired, self._retired = self._retired, []
        return retired

    # -- lease lifecycle -------------------------------------------------

    def lease(self, shape: tuple[int, ...], dtype: str = "float64") -> tuple[np.ndarray, ShmDescriptor]:
        nbytes = ShmDescriptor("", tuple(int(d) for d in shape), str(dtype)).nbytes
        check_positive("arena lease nbytes", nbytes)
        cls = _size_class(nbytes)
        names = self._free.get(cls)
        if names:
            name = names.pop()  # LIFO: warmest segment first
            seg = self._segments[name]
            self.last_lease_reused = True
        else:
            self._seq += 1
            name = f"{self.tag}-{self._seq}"
            shm = shared_memory.SharedMemory(name=name, create=True, size=cls)
            seg = _Segment(
                shm=shm,
                size_class=cls,
                finalizer=weakref.finalize(self, _reap_segment, shm),
            )
            self._segments[name] = seg
            self.last_lease_reused = False
            # The new segment may push the arena over high-water: evict
            # cold free segments to make room (never a live lease — the
            # fresh segment is not on any free-list, so it is safe).
            self._trim()
        self._leased.add(name)
        self._clock += 1
        seg.last_used = self._clock
        desc = ShmDescriptor(
            name=name,
            shape=tuple(int(d) for d in shape),
            dtype=str(dtype),
            arena=self.tag,
        )
        view = np.ndarray(desc.shape, dtype=desc.dtype, buffer=seg.shm.buf)
        return view, desc

    def end_lease(self, desc: ShmDescriptor) -> None:
        """Return a leased segment to the free-list, then trim cold ones.

        Descriptors whose segment was dropped (:meth:`discard`) in the
        meantime are silently ignored.
        """
        if desc.name not in self._leased:
            return
        self._leased.discard(desc.name)
        seg = self._segments[desc.name]
        self._clock += 1
        seg.last_used = self._clock
        self._free.setdefault(seg.size_class, []).append(desc.name)
        self._trim()

    def _trim(self) -> None:
        """Unlink free segments LRU-first while over the high-water mark."""
        while self.total_bytes > self.high_water_bytes:
            free_names = [n for names in self._free.values() for n in names]
            if not free_names:
                return
            victim = min(free_names, key=lambda n: self._segments[n].last_used)
            seg = self._segments.pop(victim)
            self._free[seg.size_class].remove(victim)
            seg.finalizer.detach()
            _reap_segment(seg.shm)
            self._retired.append(victim)

    def release(self) -> None:
        """Unlink every segment (parent-side ownership teardown); idempotent."""
        segments, self._segments = self._segments, {}
        self._leased.clear()
        self._free.clear()
        for seg in segments.values():
            seg.finalizer.detach()
            _reap_segment(seg.shm)


class DeviceBuffer:
    """Base class: named device allocation with taint bookkeeping.

    Subclasses pass the tile grid geometry (``nb`` block rows/columns of
    ``tile_shape = (h, w)`` tiles) so the base class can expose the
    tile-major 4-D view.
    """

    def __init__(
        self,
        name: str,
        nbytes: int,
        array: np.ndarray | None,
        nb: int = 0,
        tile_shape: tuple[int, int] = (0, 0),
    ) -> None:
        check_positive(f"nbytes of {name!r}", nbytes)
        self.name = name
        self.nbytes = nbytes
        self.array = array
        self.nb = nb
        self.tile_shape = tile_shape
        self._taint: dict[tuple[int, int], TaintState] = {}
        # Keys whose TaintState is (possibly) dirty, in dirty-marking
        # order.  Maintained by TaintState change notifications so the
        # any_taint / tainted_keys hot path never scans the full map.
        self._dirty: dict[tuple[int, int], None] = {}
        self._t4: np.ndarray | None = None

    @property
    def real(self) -> bool:
        return self.array is not None

    # ------------------------------------------------------------------ taint

    def taint_of(self, key: tuple[int, int]) -> TaintState:
        """The (mutable) taint state of tile *key*, created clean on demand."""
        state = self._taint.get(key)
        if state is None:
            state = TaintState()
            state.bind(self, key)
            self._taint[key] = state
        return state

    def mark_taint(self, key: tuple[int, int], dirty: bool) -> None:
        """Taint-change notification hook (called by TaintState)."""
        if dirty:
            self._dirty[key] = None
        else:
            self._dirty.pop(key, None)

    def any_taint(self) -> bool:
        return bool(self._dirty)

    def tainted_keys(self) -> list[tuple[int, int]]:
        return list(self._dirty)

    # ------------------------------------------------------------- tile views

    def tile_view(self, key: tuple[int, int]) -> np.ndarray:
        """The ``h × w`` view of one tile (zero-copy)."""
        i, j = key
        self._check_key(i, j)
        return self.tiles4[i, :, j, :]

    @property
    def tiles4(self) -> np.ndarray:
        """Tile-major 4-D view ``(nb, h, nb, w)`` of the backing array.

        ``tiles4[i, :, j, :]`` is tile (i, j).  A zero-copy reshape —
        requires the backing storage to be C-contiguous, which every
        allocation path guarantees.
        """
        if self._t4 is None:
            require(self.array is not None, f"{self.name}: no storage in shadow mode")
            require(
                self.array.flags["C_CONTIGUOUS"],
                f"{self.name}: tile-major views need C-contiguous storage",
            )
            h, w = self.tile_shape
            self._t4 = self.array.reshape(self.nb, h, self.nb, w)
        return self._t4

    def _check_key(self, i: int, j: int) -> None:
        # Plain checks, not ``require``: this runs on every tile access, and
        # the messages are only worth formatting when a check fails.
        if self.array is None:
            raise ValidationError(f"{self.name}: no storage in shadow mode")
        if not (0 <= i < self.nb and 0 <= j < self.nb):
            raise ValidationError(f"tile ({i}, {j}) out of range for {self.nb}×{self.nb} grid")


class DeviceMatrix(DeviceBuffer):
    """An n×n tiled matrix resident in simulated GPU memory.

    In real mode it wraps a :class:`BlockedMatrix` (zero-copy tile views);
    in shadow mode only the geometry exists.
    """

    def __init__(
        self,
        name: str,
        n: int,
        block_size: int,
        blocked: BlockedMatrix | None,
    ) -> None:
        self.n = n
        self.block_size = block_size
        nb = check_block_size(n, block_size)
        if blocked is not None:
            require(blocked.n == n, "blocked matrix order mismatch")
            require(blocked.block_size == block_size, "block size mismatch")
        self.blocked = blocked
        super().__init__(
            name,
            nbytes=n * n * _DOUBLE,
            array=None if blocked is None else blocked.data,
            nb=nb,
            tile_shape=(block_size, block_size),
        )

    def block(self, i: int, j: int) -> np.ndarray:
        return self.tile_view((i, j))


class DeviceChecksums(DeviceBuffer):
    """The checksum matrix: an (r·nb) × n strip array, r checksums per tile.

    Tile (i, j) of the data matrix owns strip rows [r·i, r·(i+1)) and
    columns [j·B, (j+1)·B): its r weighted column checksums, stored
    contiguously "so they can be updated together" (Section IV-A).  The
    paper's scheme uses r = 2; larger r enables the m+1-checksum
    generalization (:mod:`repro.core.multierror`).
    """

    def __init__(
        self,
        name: str,
        n: int,
        block_size: int,
        array: np.ndarray | None,
        rows_per_tile: int = 2,
    ) -> None:
        require(rows_per_tile >= 2, "need at least two checksums per tile")
        self.n = n
        self.block_size = block_size
        self.rows_per_tile = rows_per_tile
        nb = check_block_size(n, block_size)
        if array is not None:
            require(
                array.shape == (rows_per_tile * nb, n),
                f"checksum array must be {(rows_per_tile * nb, n)}, "
                f"got {array.shape}",
            )
        super().__init__(
            name,
            nbytes=rows_per_tile * nb * n * _DOUBLE,
            array=array,
            nb=nb,
            tile_shape=(rows_per_tile, block_size),
        )

    @classmethod
    def zeros(
        cls,
        name: str,
        n: int,
        block_size: int,
        real: bool,
        rows_per_tile: int = 2,
    ) -> "DeviceChecksums":
        nb = check_block_size(n, block_size)
        arr = np.zeros((rows_per_tile * nb, n), dtype=np.float64) if real else None
        return cls(name, n, block_size, arr, rows_per_tile=rows_per_tile)

    def strip(self, i: int, j: int) -> np.ndarray:
        """The r×B strip of tile (i, j) (zero-copy view)."""
        return self.tile_view((i, j))

    def strip_row(self, i: int, j0: int, j1: int) -> np.ndarray:
        """Strips of tiles (i, j0..j1-1) as one r × (j1-j0)·B view."""
        self._check_key(i, j0)
        self._check_key(i, j1 - 1)
        b, r = self.block_size, self.rows_per_tile
        return self.array[r * i : r * (i + 1), j0 * b : j1 * b]

    def strip_panel(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """Strips of the tile rectangle stacked as one 2-D view.

        Shape ``((i1-i0)·r, (j1-j0)·B)``: block row *i*'s strips occupy
        rows ``[r·(i-i0), r·(i-i0+1))``.  This is the fused operand of the
        batched GEMM/TRSM strip updates (:mod:`repro.core.update`).
        """
        self._check_key(i0, j0)
        self._check_key(i1 - 1, j1 - 1)
        b, r = self.block_size, self.rows_per_tile
        return self.array[r * i0 : r * i1, j0 * b : j1 * b]
