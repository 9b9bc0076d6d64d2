"""The discrete-event engine: computes start/finish times for a task graph.

The engine advances simulated time between *rate-change events* (a task
starting or finishing).  Between events every admitted task progresses
linearly at ``util · scale(resource)``, so the next event is the minimum
time-to-finish over all running tasks.  This is the standard fluid
approximation of generalized processor sharing and costs
``O(events · active)`` — comfortably fast for the ~10⁴-task graphs a
paper-scale Cholesky produces.

Scheduling rules:

- a task becomes *ready* when all dependencies have finished;
- ready tasks queue FIFO per resource **by creation (launch) order** and are
  admitted while the resource has a free concurrency slot — the CUDA model,
  where kernels enter the hardware queue in the order the host issued them,
  not in the order their dependencies happened to resolve;
- zero-duration / resource-less tasks complete immediately upon readiness,
  cascading in the same instant (they model events, barriers and stream
  sync points).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter

from repro.desim.resource import Resource
from repro.desim.task import Task, TaskGraph
from repro.desim.trace import Span, Timeline
from repro.util.exceptions import DeadlockError, SimulationError

_EPS = 1e-12

_SPAN_ORDER = attrgetter("start", "tid")


@dataclass
class SimulationResult:
    """Outcome of one engine run."""

    makespan: float
    timeline: Timeline

    def utilization(self, resource: Resource) -> float:
        """Busy fraction of *resource* over the makespan (0 if empty run)."""
        if self.makespan <= 0.0:
            return 0.0
        return resource.busy_time / (self.makespan * resource.capacity)


class _Lane:
    """One resource's run state: its ready queue and its admitted tasks.

    ``active`` holds one ``[task, remaining, rate, done_below]`` record per
    admitted task, in admission order.  ``rate`` is ``task.util · scale``
    for the lane's current GPS scale; it is refreshed whenever the admitted
    set changes, the only time the scale can change.
    """

    __slots__ = ("resource", "queue", "active", "stale")

    def __init__(self, resource: Resource) -> None:
        self.resource = resource
        self.queue: list[tuple[int, Task]] = []  # heap keyed by tid
        self.active: list[list] = []
        self.stale = False

    def rescale(self) -> None:
        """Recompute the GPS scale and every admitted task's rate."""
        active = self.active
        scale = self.resource.scale(sum([rec[0].util for rec in active]))
        for rec in active:
            rec[2] = rec[0].util * scale
        self.stale = False


class Engine:
    """Runs a :class:`TaskGraph` to completion and returns the schedule.

    The schedule is a pure function of the graph: the same admission order,
    the same GPS arithmetic in the same floating-point order, so every span
    time and ``Resource.busy_time`` repeats bit for bit across runs.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._t0 = start_time

    def run(self, graph: TaskGraph) -> SimulationResult:
        tasks = list(graph)
        if not tasks:
            return SimulationResult(makespan=0.0, timeline=Timeline([]))

        # Dependency bookkeeping.
        n_unmet: dict[Task, int] = {}
        dependents: dict[Task, list[Task]] = {t: [] for t in tasks}
        for t in tasks:
            n_unmet[t] = len(t.deps)
            for d in t.deps:
                waiting = dependents.get(d)
                if waiting is None:
                    raise SimulationError(
                        f"task {t.name!r} depends on {d.name!r} which is not "
                        "in the graph"
                    )
                waiting.append(t)

        lanes: dict[Resource, _Lane] = {}
        for r in {t.resource for t in tasks if t.resource is not None}:
            r.busy_time = 0.0
            lanes[r] = _Lane(r)
        # Lanes with a task running, and lanes that may admit (a task was
        # queued or one finished since the last admission pass).
        busy: dict[_Lane, None] = {}
        admitting: dict[_Lane, None] = {}
        instant_ready: list[Task] = []
        heappush, heappop = heapq.heappush, heapq.heappop

        now = self._t0
        finished = 0

        def mark_ready(task: Task) -> None:
            if task.resource is None or task.duration == 0.0:
                instant_ready.append(task)
            else:
                lane = lanes[task.resource]
                heappush(lane.queue, (task.tid, task))
                admitting[lane] = None

        for t in tasks:
            if n_unmet[t] == 0:
                mark_ready(t)

        total = len(tasks)
        while finished < total:
            # 1. Drain instantaneous tasks (may cascade at the same instant).
            while instant_ready:
                task = instant_ready.pop()
                task.start_time = now
                task.finish_time = now
                finished += 1
                for dep in dependents[task]:
                    n_unmet[dep] -= 1
                    if n_unmet[dep] == 0:
                        mark_ready(dep)

            # 2. Admit queued tasks while slots are free.
            for lane in admitting:
                queue, active, resource = lane.queue, lane.active, lane.resource
                while queue and resource.has_slot(len(active)):
                    _, task = heappop(queue)
                    task.start_time = now
                    work = task.work
                    active.append([task, work, 0.0, work * _EPS + _EPS])
                    lane.stale = True
                if active:
                    busy[lane] = None
            admitting.clear()

            # 3. If nothing is running, we either finished (via instants) or
            #    are deadlocked on an unsatisfiable dependency cycle.
            if not busy:
                if finished < total:
                    stuck = [t.name for t in tasks if t.finish_time < 0][:8]
                    raise DeadlockError(
                        f"{total - finished} tasks can never run "
                        f"(dependency cycle?); first stuck: {stuck}"
                    )
                break

            # 4. Advance to the next completion across all resources.
            dt = float("inf")
            for lane in busy:
                if lane.stale:
                    lane.rescale()
                for rec in lane.active:
                    step = rec[1] / rec[2]
                    if step < dt:
                        dt = step
            if not (dt < float("inf")):
                raise SimulationError("no progress possible despite running tasks")
            dt = max(dt, 0.0)

            # 5. Integrate progress and retire finished tasks.
            now += dt
            idle: list[_Lane] = []
            for lane in busy:
                running: list[list] = []
                done: list[Task] = []
                consumed = 0.0
                for rec in lane.active:
                    progress = rec[2] * dt
                    rec[1] -= progress
                    consumed += progress
                    if rec[1] <= rec[3]:
                        done.append(rec[0])
                    else:
                        running.append(rec)
                lane.resource.busy_time += consumed
                if not done:
                    continue
                lane.active = running
                lane.stale = True
                if not running:
                    idle.append(lane)
                if lane.queue:
                    admitting[lane] = None
                for task in done:
                    task.finish_time = now
                    finished += 1
                    for dep in dependents[task]:
                        n_unmet[dep] -= 1
                        if n_unmet[dep] == 0:
                            mark_ready(dep)
            for lane in idle:
                del busy[lane]

        # Spans are built once, after the schedule is settled.
        spans = [Span.from_task(t) for t in tasks]
        spans.sort(key=_SPAN_ORDER)
        makespan = max(t.finish_time for t in tasks) - self._t0
        return SimulationResult(makespan=makespan, timeline=Timeline(spans))
