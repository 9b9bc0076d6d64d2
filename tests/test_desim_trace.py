"""Unit tests for timeline/span queries."""

import pickle

import pytest

from repro.analysis.trace_io import dump_trace, load_trace
from repro.blas.spd import random_spd
from repro.core import AbftConfig, enhanced_potrf
from repro.desim.engine import Engine
from repro.desim.resource import Resource
from repro.desim.task import TaskGraph
from repro.desim.trace import META_JOB, Span, Timeline
from repro.hetero.machine import Machine
from repro.service import tag_timeline


def build_timeline():
    g = TaskGraph()
    gpu, cpu = Resource("gpu"), Resource("cpu")
    a = g.new("k1", resource=gpu, duration=1.0, kind="gemm")
    g.new("k2", resource=gpu, duration=2.0, kind="recalc", deps=[a])
    g.new("h", resource=cpu, duration=0.5, kind="potf2", deps=[a])
    return Engine().run(g).timeline


class TestTimeline:
    def test_makespan(self):
        tl = build_timeline()
        assert tl.makespan == pytest.approx(3.0)

    def test_of_kind(self):
        tl = build_timeline()
        assert len(tl.of_kind("gemm")) == 1
        assert len(tl.of_kind("gemm", "recalc")) == 2

    def test_total_duration(self):
        tl = build_timeline()
        assert tl.of_kind("recalc").total_duration() == pytest.approx(2.0)

    def test_busy_time_union(self):
        tl = build_timeline()
        assert tl.busy_time("gpu") == pytest.approx(3.0)
        assert tl.busy_time("cpu") == pytest.approx(0.5)

    def test_busy_time_counts_overlap_once(self):
        spans = [
            Span(0, "a", "k", "r", 0.0, 2.0, {}),
            Span(1, "b", "k", "r", 1.0, 3.0, {}),
        ]
        assert Timeline(spans).busy_time("r") == pytest.approx(3.0)

    def test_busy_time_with_gap(self):
        spans = [
            Span(0, "a", "k", "r", 0.0, 1.0, {}),
            Span(1, "b", "k", "r", 2.0, 3.0, {}),
        ]
        assert Timeline(spans).busy_time("r") == pytest.approx(2.0)

    def test_kind_summary(self):
        tl = build_timeline()
        summary = tl.kind_summary()
        assert summary["gemm"] == (1, pytest.approx(1.0))

    def test_render_summary_contains_kinds(self):
        out = build_timeline().render_summary()
        assert "gemm" in out and "recalc" in out

    def test_filter(self):
        tl = build_timeline()
        gpu_only = tl.filter(lambda s: s.resource == "gpu")
        assert len(gpu_only) == 2

    def test_empty_timeline(self):
        tl = Timeline([])
        assert tl.makespan == 0.0 and tl.busy_time("x") == 0.0


class TestGantt:
    def test_empty(self):
        assert "empty" in Timeline([]).render_gantt()

    def test_lanes_and_legend(self):
        out = build_timeline().render_gantt(width=40)
        assert "gpu" in out and "cpu" in out
        assert "g=gemm" in out and "p=potf2" in out

    def test_kind_initials_placed(self):
        out = build_timeline().render_gantt(width=30)
        gpu_row = next(line for line in out.splitlines() if "gpu |" in line)
        assert "g" in gpu_row and "r" in gpu_row

    def test_idle_shown_as_dots(self):
        out = build_timeline().render_gantt(width=30)
        cpu_row = next(line for line in out.splitlines() if "cpu |" in line)
        assert "." in cpu_row  # cpu idle most of the run

    def test_overlap_marker(self):
        spans = [
            Span(0, "a", "x", "r", 0.0, 2.0, {}),
            Span(1, "b", "y", "r", 0.0, 2.0, {}),
        ]
        out = Timeline(spans).render_gantt(width=10)
        assert "#" in out

    def test_custom_lanes(self):
        out = build_timeline().render_gantt(width=20, lanes=["gpu"])
        assert "cpu |" not in out


def _bits(span):
    """Every field of *span*, floats compared by their bit pattern."""
    return (*span[:4], span.start.hex(), span.finish.hex(), span.meta, span.deps)


@pytest.fixture(scope="module")
def scheme_timeline():
    """A real-mode enhanced run with host-side updating (transfers too)."""
    res = enhanced_potrf(
        Machine.preset("tardis"),
        a=random_spd(256, rng=3),
        block_size=32,
        config=AbftConfig(updating_placement="cpu"),
    )
    return res.timeline


class TestSpanRecords:
    def test_positional_keyword_and_default_construction(self):
        a = Span(4, "k", "gemm", "gpu", 1.0, 2.5, {"iteration": 1})
        b = Span(tid=4, name="k", kind="gemm", resource="gpu", start=1.0, finish=2.5, meta={"iteration": 1})
        assert a == b and a.deps == () and a.duration == 1.5
        assert Span._fields == ("tid", "name", "kind", "resource", "start", "finish", "meta", "deps")

    def test_immutable(self):
        span = Span(0, "a", "k", None, 0.0, 0.0, {})
        with pytest.raises(AttributeError):
            span.start = 1.0  # type: ignore[misc]

    def test_from_task_sorts_and_dedups_deps(self):
        g = TaskGraph()
        r = Resource("r")
        a = g.new("a", resource=r, duration=1.0)
        b = g.new("b", resource=r, duration=1.0)
        c = g.new("c", deps=[b, a, b], stage=2)
        Engine().run(g)
        span = Span.from_task(c)
        assert span.deps == (a.tid, b.tid)
        assert span.resource is None and span.meta == {"stage": 2}
        assert span.meta is not c.meta
        assert Span.from_task(b).deps == ()

    def test_timeline_pickles_span_for_span(self, scheme_timeline):
        back = pickle.loads(pickle.dumps(scheme_timeline))
        assert len(back) == len(scheme_timeline) > 0
        assert all(type(s) is Span for s in back)
        assert [_bits(s) for s in back] == [_bits(s) for s in scheme_timeline]

    def test_timeline_survives_dump_and_load(self, scheme_timeline, tmp_path):
        path = dump_trace(scheme_timeline, "enhanced", tmp_path / "t.json")
        back, scheme = load_trace(path)
        assert scheme == "enhanced"
        assert [_bits(s) for s in back] == [_bits(s) for s in scheme_timeline]

    def test_tag_timeline_tags_every_span(self, scheme_timeline):
        tagged = tag_timeline(scheme_timeline, 41)
        assert len(tagged) == len(scheme_timeline)
        for new, old in zip(tagged, scheme_timeline):
            assert new.meta == {**old.meta, META_JOB: 41}
            assert new._replace(meta=old.meta) == old
