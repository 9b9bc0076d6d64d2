"""Executes a :class:`~repro.runtime.dag.TaskGraph` with lookahead.

Two paths share the same scheduler state:

- ``workers == 1`` runs the tasks in program order on the calling
  thread — no locks, no pool.  This *is* the serial reference: program
  order is a valid topological order, so the parallel path is compared
  bit-for-bit against it.
- ``workers > 1`` runs a small thread pool.  The BLAS kernels release
  the GIL, so per-tile POTF2/TRSM/SYRK/GEMM genuinely overlap.  Ready
  tasks dispatch lowest-program-index-first, throttled by a lookahead
  of :data:`LOOKAHEAD` iterations: a task of iteration ``t`` may start
  only while ``t − min_incomplete_iteration ≤ LOOKAHEAD``.

Because the builder emits tasks iteration-by-iteration, program index
order is iteration-monotone — the lowest-index ready task always has the
lowest ready iteration, so throttling the heap top throttles everything.

Failures (``UnrecoverableError`` from a verify task,
``SingularBlockError`` from POTF2) stop dispatch, let in-flight tasks
drain, and re-raise the failure with the lowest program index — the
restart protocol upstream behaves identically under any schedule.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.runtime.dag import TaskGraph
from repro.runtime.task import TileTask
from repro.util.validation import check_positive, require

#: How many iterations a task may run ahead of the oldest incomplete one.
#: 1 lets panel ``j+1`` factor while iteration ``j``'s trailing update
#: drains, the paper's Opt-3 overlap on real threads.
LOOKAHEAD = 1

# -- test hook -----------------------------------------------------------------
# Module-level so chaos scenarios and property tests reach the executor
# inside a thread-pool service worker without plumbing arguments through.

_task_delay_hook: Callable[[TileTask], float] | None = None


@contextmanager
def inject_task_delays(delay_of: Callable[[TileTask], float]) -> Iterator[None]:
    """Sleep ``delay_of(task)`` seconds before each task body runs.

    Property tests and the ``dag_slow_tasks`` chaos scenario use this to
    shuffle completion order adversarially: bit-identity must hold no
    matter which worker finishes first.
    """
    global _task_delay_hook
    prev = _task_delay_hook
    _task_delay_hook = delay_of
    try:
        yield
    finally:
        _task_delay_hook = prev


# -- executor ------------------------------------------------------------------


class DagExecutor:
    """Run one task graph; :meth:`run` returns the runtime summary dict."""

    def __init__(self, graph: TaskGraph, *, workers: int = 1) -> None:
        check_positive("workers", workers)
        self.graph = graph
        self.workers = workers
        # scheduler state (guarded by _cond in the threaded path)
        self._deps = list(graph.n_deps)
        self._ready: list[int] = []
        self._completed = 0
        self._failures: list[tuple[int, BaseException]] = []
        self._stop_dispatch = False
        self._live = 0  # worker threads still running (threaded path)
        self._cond = threading.Condition()
        # per-iteration completion tracking for the lookahead throttle
        iters = [t.iteration for t in graph.tasks]
        top = max(iters, default=0)
        self._remaining = [0] * (top + 1)
        for it in iters:
            self._remaining[it] += 1
        self._min_iter = 0
        # summary accumulators
        self._task_total: dict[str, int] = {}
        self._task_seconds: dict[str, list[float]] = {}
        self._max_ready_depth = 0
        self._max_lookahead_depth = 0

    # -- shared bookkeeping ----------------------------------------------------

    def _advance_min_iter(self) -> None:
        while self._min_iter < len(self._remaining) and not self._remaining[self._min_iter]:
            self._min_iter += 1

    def _seed_ready(self) -> None:
        for idx, n in enumerate(self._deps):
            if n == 0:
                heapq.heappush(self._ready, idx)
        self._max_ready_depth = len(self._ready)

    def _dispatchable(self) -> bool:
        """Is the heap top within the lookahead window?  (Iteration-monotone
        program order means the top bounds every other ready task.)"""
        top = self.graph.tasks[self._ready[0]]
        return top.iteration - self._min_iter <= LOOKAHEAD

    def _execute(self, task: TileTask, t0: float) -> None:
        delay_of = _task_delay_hook
        if delay_of is not None:
            pause = delay_of(task)
            if pause > 0:
                time.sleep(pause)
        task.start_s = time.perf_counter() - t0
        task.fn()
        task.finish_s = time.perf_counter() - t0

    def _note_done(self, task: TileTask) -> None:
        self._task_total[task.kind] = self._task_total.get(task.kind, 0) + 1
        self._task_seconds.setdefault(task.kind, []).append(task.finish_s - task.start_s)
        self._completed += 1
        self._remaining[task.iteration] -= 1
        self._advance_min_iter()
        for succ in self.graph.successors[task.index]:
            self._deps[succ] -= 1
            if self._deps[succ] == 0:
                heapq.heappush(self._ready, succ)
        self._max_ready_depth = max(self._max_ready_depth, len(self._ready))

    def summary(self) -> dict:
        """The run's metrics, plain data (pickles across process bounds)."""
        return {
            "workers": self.workers,
            "lookahead": LOOKAHEAD,
            "tasks": len(self.graph),
            "task_total": dict(self._task_total),
            "task_seconds": {k: list(v) for k, v in self._task_seconds.items()},
            "max_ready_depth": self._max_ready_depth,
            "max_lookahead_depth": self._max_lookahead_depth,
        }

    # -- serial path -----------------------------------------------------------

    def _run_serial(self) -> None:
        t0 = time.perf_counter()
        self._seed_ready()
        while self._ready:
            idx = heapq.heappop(self._ready)
            task = self.graph.tasks[idx]
            self._max_lookahead_depth = max(
                self._max_lookahead_depth, task.iteration - self._min_iter
            )
            self._execute(task, t0)
            self._note_done(task)
        require(
            self._completed == len(self.graph),
            f"serial run completed {self._completed}/{len(self.graph)} tasks",
        )

    # -- threaded path ---------------------------------------------------------

    def _fetch(self) -> TileTask | None:
        """Next dispatchable task, or None once the run is over."""
        with self._cond:
            while True:
                if self._stop_dispatch or self._completed == len(self.graph):
                    return None
                if self._ready and self._dispatchable():
                    idx = heapq.heappop(self._ready)
                    task = self.graph.tasks[idx]
                    self._max_lookahead_depth = max(
                        self._max_lookahead_depth, task.iteration - self._min_iter
                    )
                    return task
                self._cond.wait(timeout=0.02)

    def _worker(self, t0: float) -> None:
        try:
            while (task := self._fetch()) is not None:
                try:
                    self._execute(task, t0)
                except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                    with self._cond:
                        self._failures.append((task.index, exc))
                        self._stop_dispatch = True
                        self._cond.notify_all()
                    return
                with self._cond:
                    self._note_done(task)
                    self._cond.notify_all()
        finally:
            with self._cond:
                self._live -= 1
                self._cond.notify_all()

    def _run_threaded(self) -> None:
        t0 = time.perf_counter()
        with self._cond:
            self._seed_ready()
        threads = [
            threading.Thread(target=self._worker, args=(t0,), name=f"dag-worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        self._live = len(threads)
        for thread in threads:
            thread.start()
        # A worker exits once the graph completes, or, after a failure,
        # once its in-flight task drains.
        try:
            for thread in threads:
                thread.join()
        except BaseException:
            # Interrupted while waiting (a signal): drain the workers too, so
            # none writes into the matrix after the caller restores it.  They
            # are counted, not joined: an interrupted join can mark a running
            # thread stopped.
            with self._cond:
                self._stop_dispatch = True
                self._cond.notify_all()
                while self._live:
                    self._cond.wait()
            raise
        if self._failures:
            self._failures.sort(key=lambda pair: pair[0])
            raise self._failures[0][1]
        require(
            self._completed == len(self.graph),
            f"threaded run completed {self._completed}/{len(self.graph)} tasks",
        )

    def run(self) -> dict:
        """Execute the graph; returns :meth:`summary`.

        Re-raises the lowest-program-index task failure after in-flight
        tasks drain, so the recovery loop upstream sees one deterministic
        exception whichever worker hit it first.  An exception raised in
        the calling thread while it waits (a signal) also drains them
        before it propagates.
        """
        if len(self.graph):
            if self.workers == 1:
                self._run_serial()
            else:
                self._run_threaded()
        return self.summary()
