"""Unit tests for Task and TaskGraph construction."""

import pytest

from repro.core import SCHEMES
from repro.desim.resource import Resource
from repro.desim.task import Task, TaskGraph
from repro.hetero.machine import Machine
from repro.util.exceptions import ValidationError


class TestTask:
    def test_defaults(self):
        t = Task("x")
        assert t.duration == 0.0 and t.resource is None and t.kind == "task"

    def test_rejects_negative_duration(self):
        with pytest.raises(ValidationError, match="negative"):
            Task("x", resource=Resource("r"), duration=-1.0)

    def test_rejects_bad_util(self):
        with pytest.raises(ValidationError, match="util"):
            Task("x", resource=Resource("r"), duration=1.0, util=0.0)
        with pytest.raises(ValidationError, match="util"):
            Task("x", resource=Resource("r"), duration=1.0, util=1.5)

    def test_rejects_duration_without_resource(self):
        with pytest.raises(ValidationError, match="no resource"):
            Task("x", duration=1.0)

    def test_after_chains_and_skips_none(self):
        a, b = Task("a"), Task("b")
        c = Task("c").after(a, None, b)
        assert c.deps == [a, b]

    def test_work_is_duration_times_util(self):
        t = Task("x", resource=Resource("r"), duration=4.0, util=0.25)
        assert t.work == pytest.approx(1.0)

    def test_ids_count_per_graph(self):
        g1, g2 = TaskGraph(), TaskGraph()
        assert [g1.new(n).tid for n in "abc"] == [0, 1, 2]
        assert g2.add(Task("d")).tid == 0


class TestTaskGraph:
    def test_new_registers(self):
        g = TaskGraph()
        t = g.new("t")
        assert list(g) == [t] and len(g) == 1

    def test_new_with_deps_and_meta(self):
        g = TaskGraph()
        a = g.new("a")
        b = g.new("b", deps=[a], iteration=3)
        assert b.deps == [a] and b.meta["iteration"] == 3

    def test_barrier(self):
        g = TaskGraph()
        a, b = g.new("a"), g.new("b")
        bar = g.barrier("bar", [a, b])
        assert bar.kind == "barrier" and set(bar.deps) == {a, b}


class TestRunsNumberTasksAlike:
    @pytest.mark.parametrize("scheme", ["offline", "online", "enhanced"])
    def test_identical_shadow_runs_give_equal_timelines(self, scheme):
        """Task ids count per graph, so a second identical factorization in
        the same process reproduces every span, tid and dep included."""
        machine = Machine.preset("tardis")
        first, second = (
            SCHEMES[scheme](machine, n=2048, block_size=256, numerics="shadow")
            for _ in range(2)
        )
        assert first.timeline.spans == second.timeline.spans
        assert min(s.tid for s in first.timeline) == 0
