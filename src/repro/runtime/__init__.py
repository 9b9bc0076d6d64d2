"""Dependency-driven tile-DAG runtime for intra-factorization parallelism.

One ABFT'd right-looking Cholesky becomes a graph of tile tasks with
declared reads/writes (:mod:`repro.runtime.task`), dependencies derived
from the declarations (:mod:`repro.runtime.dag`), executed by a
lookahead thread pool (:mod:`repro.runtime.executor`).  The driver entry
point is :func:`repro.runtime.scheme.dag_potrf` — registered with the
service as scheme ``"dag"``.
"""

from repro.runtime.cholesky import build_cholesky_graph, merge_stats, plan_anchor
from repro.runtime.dag import TaskGraph
from repro.runtime.executor import DagExecutor, inject_task_delays
from repro.runtime.scheme import DagPotrfResult, dag_potrf
from repro.runtime.task import Cell, TileTask, TASK_KINDS

__all__ = [
    "Cell",
    "DagExecutor",
    "DagPotrfResult",
    "TASK_KINDS",
    "TaskGraph",
    "TileTask",
    "build_cholesky_graph",
    "dag_potrf",
    "inject_task_delays",
    "merge_stats",
    "plan_anchor",
]
