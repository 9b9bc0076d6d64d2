"""Bit-identity of :class:`repro.desim.engine.Engine` against its reference loop.

``reference_run`` below is the engine's original event loop, kept verbatim:
a ``rates`` dict, a ``defaultdict`` per resource, a ``complete()`` closure and
spans built at each completion.  The production engine drops those per-event
costs but promises the same schedule bit for bit, because it keeps the same
admission order and the same floating-point operations in the same order
(the ``total_util`` sum, ``rate·dt`` integration, the completion test and the
``busy_time`` accumulation).  The property below holds it to that over random
graphs: every span field (floats compared by their bits), the makespan and
every resource's ``busy_time``, and the exact error on a cycle, a foreign
dependency or a stalled resource.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.desim.engine import Engine, SimulationResult
from repro.desim.resource import Resource
from repro.desim.task import Task, TaskGraph
from repro.desim.trace import Span, Timeline
from repro.util.exceptions import DeadlockError, SimulationError

_EPS = 1e-12  # the reference's own copy of the completion tolerance


def reference_run(graph: TaskGraph, start_time: float = 0.0) -> SimulationResult:
    """The engine's original ``run`` loop, verbatim (the bit-identity oracle)."""
    tasks = list(graph)
    if not tasks:
        return SimulationResult(makespan=0.0, timeline=Timeline([]))

    # Dependency bookkeeping.
    n_unmet: dict[Task, int] = {}
    dependents: dict[Task, list[Task]] = defaultdict(list)
    task_set = set(tasks)
    for t in tasks:
        n_unmet[t] = len(t.deps)
        for d in t.deps:
            if d not in task_set:
                raise SimulationError(
                    f"task {t.name!r} depends on {d.name!r} which is not "
                    "in the graph"
                )
            dependents[d].append(t)

    # FIFO ready queues per resource (heap keyed by tid = launch order).
    queues: dict[Resource, list[tuple[int, Task]]] = defaultdict(list)
    running: dict[Resource, dict[Task, float]] = defaultdict(dict)  # remaining work
    instant_ready: list[Task] = []

    now = start_time
    finished = 0
    spans: list[Span] = []
    for r in {t.resource for t in tasks if t.resource is not None}:
        r.busy_time = 0.0

    def mark_ready(task: Task) -> None:
        if task.resource is None or task.duration == 0.0:
            instant_ready.append(task)
        else:
            heapq.heappush(queues[task.resource], (task.tid, task))

    def complete(task: Task, start: float, finish: float) -> None:
        nonlocal finished
        task.start_time = start
        task.finish_time = finish
        finished += 1
        spans.append(Span.from_task(task))
        for dep in dependents[task]:
            n_unmet[dep] -= 1
            if n_unmet[dep] == 0:
                mark_ready(dep)

    for t in tasks:
        if n_unmet[t] == 0:
            mark_ready(t)

    total = len(tasks)
    while finished < total:
        # 1. Drain instantaneous tasks (may cascade at the same instant).
        while instant_ready:
            task = instant_ready.pop()
            complete(task, now, now)

        # 2. Admit queued tasks while slots are free.
        for resource, queue in queues.items():
            active = running[resource]
            while queue and resource.has_slot(len(active)):
                _, task = heapq.heappop(queue)
                task.start_time = now
                active[task] = task.work

        # 3. If nothing is running, we either finished (via instants) or
        #    are deadlocked on an unsatisfiable dependency cycle.
        any_running = any(running[r] for r in running)
        if not any_running:
            if instant_ready:
                continue
            if finished < total:
                stuck = [t.name for t in tasks if t.finish_time < 0][:8]
                raise DeadlockError(
                    f"{total - finished} tasks can never run "
                    f"(dependency cycle?); first stuck: {stuck}"
                )
            break

        # 4. Advance to the next completion across all resources.
        dt = float("inf")
        rates: dict[Resource, float] = {}
        for resource, active in running.items():
            if not active:
                continue
            total_util = sum(t.util for t in active)
            scale = resource.scale(total_util)
            rates[resource] = scale
            for task, remaining in active.items():
                rate = task.util * scale
                dt = min(dt, remaining / rate)
        if not (dt < float("inf")):
            raise SimulationError("no progress possible despite running tasks")
        dt = max(dt, 0.0)

        # 5. Integrate progress and retire finished tasks.
        now += dt
        for resource, active in list(running.items()):
            scale = rates.get(resource)
            if scale is None or not active:
                continue
            done: list[Task] = []
            consumed = 0.0
            for task in active:
                rate = task.util * scale
                active[task] -= rate * dt
                consumed += rate * dt
                if active[task] <= task.work * _EPS + _EPS:
                    done.append(task)
            resource.busy_time += consumed
            for task in done:
                del active[task]
                complete(task, task.start_time, now)

    timeline = Timeline(sorted(spans, key=lambda s: (s.start, s.tid)))
    makespan = max((s.finish for s in timeline), default=0.0) - start_time
    return SimulationResult(makespan=makespan, timeline=timeline)


# ---------------------------------------------------------------------------
# graph recipes: plain data, so each engine can run its own fresh build
# ---------------------------------------------------------------------------

_utils = st.one_of(
    st.sampled_from([1.0, 0.5, 0.25, 0.0625]),
    st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
)
_durations = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 1.7]),
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
)


@st.composite
def recipes(draw):
    """Resources plus tasks ``(resource index or None, duration, util, deps)``."""
    resources = [
        (
            draw(st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 4.0])),
            draw(st.sampled_from([None, 1, 2, 16])),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    specs = []
    for i in range(draw(st.integers(1, 24))):
        where = draw(st.one_of(st.none(), st.integers(0, len(resources) - 1)))
        duration = 0.0 if where is None else draw(_durations)
        # Random fan-in, repeats included: a dependency listed twice must
        # be counted twice on both sides.
        deps = draw(st.lists(st.integers(0, i - 1), max_size=5)) if i else []
        specs.append((where, duration, draw(_utils), deps))
    return resources, specs, draw(st.sampled_from([0.0, 1.5, 1e3]))


def build(recipe) -> tuple[TaskGraph, list[Resource]]:
    resources, specs, _ = recipe
    pool = [Resource(f"r{k}", capacity=c, max_concurrent=m) for k, (c, m) in enumerate(resources)]
    graph = TaskGraph()
    tasks: list[Task] = []
    for i, (where, duration, util, deps) in enumerate(specs):
        tasks.append(
            graph.new(
                f"t{i}",
                resource=None if where is None else pool[where],
                duration=duration,
                util=util,
                kind="barrier" if where is None else f"k{where}",
                deps=[tasks[d] for d in deps],
                index=i,
            )
        )
    return graph, pool


def bits(span: Span, base: int) -> tuple:
    """Every field of *span*, floats as their exact bit pattern, tids rebased."""
    return (
        span.tid - base,
        span.name,
        span.kind,
        span.resource,
        span.start.hex(),
        span.finish.hex(),
        span.meta,
        tuple(d - base for d in span.deps),
    )


def outcome(run, recipe) -> tuple:
    graph, pool = build(recipe)
    base = graph.tasks[0].tid
    result = run(graph, recipe[2])
    return (
        [bits(s, base) for s in result.timeline],
        result.makespan.hex(),
        [r.busy_time.hex() for r in pool],
    )


def production(graph: TaskGraph, start_time: float) -> SimulationResult:
    return Engine(start_time=start_time).run(graph)


class TestEngineMatchesReferenceBitForBit:
    @given(recipes())
    @settings(max_examples=300, deadline=None)
    def test_spans_makespan_and_busy_time(self, recipe):
        assert outcome(production, recipe) == outcome(reference_run, recipe)

    def test_contended_graph_exercises_gps_scaling(self):
        """A fixed case where the scale differs from 1 and tasks overlap."""
        recipe = (
            [(0.5, 16), (1.0, 2)],
            [(0, 1.3, 0.3, []), (0, 0.7, 0.9, []), (1, 1.1, 0.6, [0]),
             (0, 2.0, 0.45, [1]), (None, 0.0, 1.0, [2, 3]), (1, 0.4, 1.0, [4, 4])],
            0.0,
        )
        assert outcome(production, recipe) == outcome(reference_run, recipe)

    def test_empty_graph(self):
        assert production(TaskGraph(), 0.0).makespan == reference_run(TaskGraph()).makespan == 0.0


def _error(run, make_graph) -> tuple[type, str]:
    graph = make_graph()
    with pytest.raises((DeadlockError, SimulationError)) as info:
        run(graph, 0.0)
    return type(info.value), str(info.value)


class TestSameErrors:
    def test_cycle_deadlocks_with_the_same_message(self):
        def make_graph():
            g = TaskGraph()
            r = Resource("r")
            head = g.new("head", resource=r, duration=1.0)
            a = g.new("a", resource=r, duration=1.0, deps=[head])
            b = g.new("b", deps=[a])
            a.after(b)
            g.new("tail", resource=r, duration=0.5, deps=[b])
            return g

        got = _error(production, make_graph)
        assert got == _error(reference_run, make_graph)
        assert got[0] is DeadlockError and "first stuck: ['a', 'b', 'tail']" in got[1]

    def test_foreign_dependency_raises_the_same_error(self):
        outsider = Task("outsider")

        def make_graph():
            g = TaskGraph()
            first = g.new("first", resource=Resource("r"), duration=1.0)
            g.new("second", deps=[first, outsider])
            return g

        got = _error(production, make_graph)
        assert got == _error(reference_run, make_graph)
        assert got == (
            SimulationError,
            "task 'second' depends on 'outsider' which is not in the graph",
        )

    def test_stalled_resource_raises_the_same_error(self):
        """A GPS scale so small that no running task can ever finish."""

        def make_graph():
            g = TaskGraph()
            r = Resource("r", capacity=1e-300)
            g.new("a", resource=r, duration=1e10)
            g.new("b", resource=r, duration=1e10)
            return g

        got = _error(production, make_graph)
        assert got == _error(reference_run, make_graph)
        assert got == (SimulationError, "no progress possible despite running tasks")
