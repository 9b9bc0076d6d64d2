"""Unit tests for the execution context: streams, events, launches, memory."""

import numpy as np
import pytest

from repro.hetero.costmodel import KernelCost
from repro.hetero.machine import Machine
from repro.util.exceptions import DeviceMemoryError, ValidationError


@pytest.fixture
def ctx(tardis):
    return tardis.context(numerics="shadow")


@pytest.fixture
def real_ctx(tardis):
    return tardis.context(numerics="real")


class TestStreams:
    def test_stream_get_or_create(self, ctx):
        assert ctx.stream("s") is ctx.stream("s")

    def test_stream_order_is_dependency(self, ctx):
        s = ctx.stream("s")
        a = ctx.launch_gpu("a", "k", KernelCost(1.0, 1.0), s)
        b = ctx.launch_gpu("b", "k", KernelCost(1.0, 1.0), s)
        assert a in b.deps

    def test_streams_independent(self, ctx):
        a = ctx.launch_gpu("a", "k", KernelCost(1.0, 1.0), ctx.stream("s1"))
        b = ctx.launch_gpu("b", "k", KernelCost(1.0, 0.5), ctx.stream("s2"))
        assert a not in b.deps


class TestEvents:
    def test_record_wait_builds_cross_edge(self, ctx):
        s1, s2 = ctx.stream("s1"), ctx.stream("s2")
        a = ctx.launch_gpu("a", "k", KernelCost(2.0, 0.5), s1)
        ev = ctx.record_event(s1)
        ctx.wait_event(s2, ev)
        b = ctx.launch_gpu("b", "k", KernelCost(1.0, 0.5), s2)
        res = ctx.simulate()
        assert b.start_time >= a.finish_time - 1e-12
        assert res.makespan == pytest.approx(3.0)

    def test_sync_streams_barriers_everything(self, ctx):
        s1, s2 = ctx.stream("s1"), ctx.stream("s2")
        ctx.launch_gpu("a", "k", KernelCost(1.0, 0.4), s1)
        ctx.launch_gpu("b", "k", KernelCost(2.0, 0.4), s2)
        ctx.sync_streams()
        c = ctx.launch_gpu("c", "k", KernelCost(1.0, 1.0), s1)
        ctx.simulate()
        assert c.start_time == pytest.approx(2.0)


class TestLaunches:
    def test_cpu_launch_orders_after_host(self, ctx):
        a = ctx.launch_cpu("h1", "potf2", KernelCost(1.0, 1.0))
        b = ctx.launch_cpu("h2", "potf2", KernelCost(1.0, 1.0))
        assert a in b.deps

    def test_real_mode_runs_numerics(self, real_ctx):
        hit = []
        real_ctx.launch_gpu(
            "k", "k", KernelCost(1.0, 1.0), real_ctx.stream("s"), fn=lambda: hit.append(1)
        )
        assert hit == [1]

    def test_shadow_mode_skips_numerics(self, ctx):
        hit = []
        ctx.launch_gpu(
            "k", "k", KernelCost(1.0, 1.0), ctx.stream("s"), fn=lambda: hit.append(1)
        )
        assert hit == []

    def test_transfers_on_separate_links(self, ctx):
        d = ctx.transfer_d2h(10**6)
        h = ctx.transfer_h2d(10**6)
        res = ctx.simulate()
        # independent directions overlap
        assert res.makespan == pytest.approx(max(d.duration, h.duration))

    def test_transfer_in_stream_chains(self, ctx):
        s = ctx.stream("s")
        a = ctx.launch_gpu("a", "k", KernelCost(1.0, 1.0), s)
        t = ctx.transfer_d2h(8, stream=s)
        assert a in t.deps


class TestMemoryAccounting:
    def test_alloc_tracks_bytes(self, ctx):
        ctx.alloc_matrix(1024, 256)
        assert ctx.device_bytes_used == 1024 * 1024 * 8

    def test_checksums_add(self, ctx):
        ctx.alloc_matrix(1024, 256)
        before = ctx.device_bytes_used
        ctx.alloc_checksums(1024, 256)
        assert ctx.device_bytes_used == before + 2 * 4 * 1024 * 8

    def test_over_allocation_raises(self, ctx):
        with pytest.raises(DeviceMemoryError, match="exceeds"):
            ctx.alloc_matrix(30720, 512)  # 7.5 GB > M2075's 6 GB

    def test_real_mode_requires_data(self, real_ctx):
        with pytest.raises(ValidationError):
            real_ctx.alloc_matrix(64, 32)

    def test_shadow_mode_rejects_data(self, ctx):
        with pytest.raises(ValidationError):
            ctx.alloc_matrix(64, 32, data=np.zeros((64, 64)))

    def test_bad_numerics_mode(self, tardis):
        with pytest.raises(ValidationError):
            tardis.context(numerics="quantum")


class TestMachine:
    def test_preset_unknown(self):
        with pytest.raises(ValidationError, match="unknown machine"):
            Machine.preset("cray1")

    def test_default_block_size(self, tardis, bulldozer):
        assert tardis.default_block_size == 256
        assert bulldozer.default_block_size == 512

    def test_contexts_are_fresh(self, tardis):
        c1 = tardis.context(numerics="shadow")
        c2 = tardis.context(numerics="shadow")
        assert c1 is not c2 and c1.graph is not c2.graph


class TestUntimed:
    def test_records_nothing_and_keeps_no_edges(self, tardis):
        ctx = tardis.context(numerics="shadow", timeline=False)
        s1, s2 = ctx.stream("s1"), ctx.stream("s2")
        a = ctx.launch_gpu("a", "k", KernelCost(1.0, 1.0), s1)
        b = ctx.launch_gpu("b", "k", KernelCost(1.0, 1.0), s1)
        ctx.wait_event(s2, ctx.record_event(s1))
        ctx.stream_wait(s2, ctx.transfer_d2h(8, stream=s1), "w")
        tasks = [a, b, ctx.launch_cpu("h", "potf2", KernelCost(1.0, 1.0)), ctx.barrier("x", [a, b]),
                 ctx.sync_streams()]
        assert ctx.graph is None and ctx.simulate() is None
        assert all(t.deps == [] for t in tasks)

    def test_real_numerics_still_run(self, tardis):
        ctx = tardis.context(numerics="real", timeline=False)
        hit = []
        ctx.launch_gpu("k", "k", KernelCost(1.0, 1.0), ctx.stream("s"), fn=lambda: hit.append(1))
        assert hit == [1]
