"""Unit tests for device buffers (real and shadow storage, taint maps)."""

import gc
import weakref

import numpy as np
import pytest

from repro.blas.blocked import BlockedMatrix
from repro.hetero.memory import (
    DeviceChecksums,
    DeviceMatrix,
    SharedArena,
    ShmDescriptor,
    attach_shared_array,
    create_shared_array,
)
from repro.util.exceptions import ValidationError


def make_matrix(real: bool = True, n: int = 8, b: int = 4) -> DeviceMatrix:
    blocked = BlockedMatrix(np.arange(n * n, dtype=np.float64).reshape(n, n), b) if real else None
    return DeviceMatrix("A", n, b, blocked)


class TestDeviceMatrix:
    def test_real_mode_exposes_views(self):
        m = make_matrix()
        m.block(0, 0)[0, 0] = -5.0
        assert m.array[0, 0] == -5.0

    def test_shadow_mode_has_no_storage(self):
        m = make_matrix(real=False)
        assert not m.real
        with pytest.raises(ValidationError, match="shadow"):
            m.tile_view((0, 0))

    def test_nbytes(self):
        assert make_matrix().nbytes == 8 * 8 * 8

    def test_taint_created_clean_on_demand(self):
        m = make_matrix(real=False)
        assert m.taint_of((1, 0)).is_clean()
        assert not m.any_taint()

    def test_taint_persists(self):
        m = make_matrix(real=False)
        m.taint_of((1, 1)).add_point(2, 3)
        assert m.any_taint()
        assert m.tainted_keys() == [(1, 1)]

    def test_bound_taint_does_not_keep_the_buffer_alive(self):
        m = make_matrix()
        m.taint_of((1, 0)).add_point(0, 0)
        ref = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert ref() is None  # freed by reference counting: no cycle
        finally:
            gc.enable()

    def test_rejects_mismatched_blocked(self):
        blocked = BlockedMatrix(np.zeros((8, 8)), 2)
        with pytest.raises(ValidationError):
            DeviceMatrix("A", 8, 4, blocked)


class TestDeviceChecksums:
    def test_shape(self):
        c = DeviceChecksums.zeros("chk", 16, 4, real=True)
        assert c.array.shape == (8, 16)

    def test_strip_addressing(self):
        c = DeviceChecksums.zeros("chk", 8, 4, real=True)
        c.strip(1, 0)[:] = 7.0
        # rows 2..4, cols 0..4 of the backing array
        assert c.array[2, 0] == 7.0 and c.array[3, 3] == 7.0
        assert c.array[0, 0] == 0.0 and c.array[2, 4] == 0.0

    def test_strip_row_concatenates(self):
        c = DeviceChecksums.zeros("chk", 12, 4, real=True)
        c.strip(2, 0)[:] = 1.0
        c.strip(2, 1)[:] = 2.0
        row = c.strip_row(2, 0, 2)
        assert row.shape == (2, 8)
        assert row[0, 0] == 1.0 and row[0, 7] == 2.0

    def test_strip_is_view(self):
        c = DeviceChecksums.zeros("chk", 8, 4, real=True)
        view = c.strip(0, 0)
        view[0, 0] = 3.0
        assert c.array[0, 0] == 3.0

    def test_shadow_mode(self):
        c = DeviceChecksums.zeros("chk", 8, 4, real=False)
        assert c.array is None
        with pytest.raises(ValidationError):
            c.strip(0, 0)

    def test_out_of_range_strip(self):
        c = DeviceChecksums.zeros("chk", 8, 4, real=True)
        with pytest.raises(ValidationError):
            c.strip(2, 0)

    def test_space_overhead_is_2_over_b(self):
        """Section VI-5: checksum storage is 2/B of the matrix."""
        n, b = 64, 8
        c = DeviceChecksums.zeros("chk", n, b, real=False)
        m = make_matrix(real=False, n=n, b=b)
        assert c.nbytes / m.nbytes == pytest.approx(2.0 / b)


class TestShmTransport:
    """Parent-owned shared segments: descriptors, round trips, arenas."""

    def test_descriptor_nbytes(self):
        assert ShmDescriptor("x", (4, 8), "float64").nbytes == 4 * 8 * 8

    def test_create_attach_round_trip(self):
        shm, view, desc = create_shared_array("repro-test-rt", (6, 6))
        try:
            view[:] = np.arange(36, dtype=np.float64).reshape(6, 6)
            other, other_view = attach_shared_array(desc)
            try:
                assert np.array_equal(other_view, view)
                other_view[0, 0] = -1.0  # writes are visible both ways
                assert view[0, 0] == -1.0
            finally:
                other.close()
        finally:
            shm.close()
            shm.unlink()

    def test_arena_reuses_freed_segment_of_same_size_class(self):
        arena = SharedArena("repro-test-arena-a")
        try:
            _, d1 = arena.lease((8, 8))
            arena.end_lease(d1)
            _, d2 = arena.lease((8, 8))  # warm: same segment comes back
            assert d1.name == d2.name
            assert arena.last_lease_reused
        finally:
            arena.release()

    def test_arena_never_aliases_a_live_lease(self):
        arena = SharedArena("repro-test-arena-b")
        try:
            _, d1 = arena.lease((8, 8))
            _, d2 = arena.lease((8, 8))  # d1 still leased: must be fresh
            assert d1.name != d2.name
            assert not arena.last_lease_reused
        finally:
            arena.release()

    def test_arena_smaller_lease_reuses_only_matching_class(self):
        arena = SharedArena("repro-test-arena-d")
        try:
            _, d1 = arena.lease((32, 32))  # 8 KiB class
            arena.end_lease(d1)
            # (8, 8) rounds to the 4 KiB floor class: the freed 8 KiB
            # segment stays on its own class's free-list, untouched.
            _, d2 = arena.lease((8, 8))
            assert d1.name != d2.name
            assert arena.segment_count == 2
        finally:
            arena.release()

    def test_arena_trims_free_segments_over_high_water(self):
        # High-water of one 4 KiB class: freeing a second segment must
        # evict the colder one (unlink + retire), never a live lease.
        arena = SharedArena("repro-test-arena-e", high_water_bytes=4096)
        try:
            _, d1 = arena.lease((8, 8))
            _, d2 = arena.lease((8, 8))
            arena.end_lease(d1)
            arena.end_lease(d2)
            assert arena.segment_count == 1
            retired = arena.drain_retired()
            assert d1.name in retired  # LRU victim: the first one freed
            with pytest.raises(FileNotFoundError):
                attach_shared_array(d1)
        finally:
            arena.release()

    def test_release_is_idempotent(self):
        arena = SharedArena("repro-test-arena-c")
        arena.lease((4, 4))
        arena.release()
        arena.release()  # no segment left: a no-op, not an error
