"""Flow-sensitive whole-program analysis (the lint ``--flow`` tier).

The classic rules (RPL001–RPL008) are per-statement AST pattern matches;
they cannot see a resource leaked only when an exception unwinds, a
blocking call reached *transitively* from a coroutine, or an attribute
mutated from two threads under different locks.  This subpackage adds the
three missing ingredients and the checkers built on them:

- :mod:`repro.analysis.flow.cfg` — per-function control-flow graphs from
  ``ast``, with explicit exception edges modelling ``try``/``except``/
  ``finally`` and the fact that nearly every statement can raise;
- :mod:`repro.analysis.flow.dataflow` — a small forward dataflow engine
  (gen/kill facts over CFG nodes, worklist to fixpoint) whose transfer
  functions apply a statement's effect only on its *normal* out-edge — on
  the exception edge the acquisition never happened;
- :mod:`repro.analysis.flow.callgraph` — a module-level call graph over a
  file set: function definitions, name-resolved call edges, blocking-sink
  sites, thread-entry references (``asyncio.to_thread`` / ``Thread(target=``
  / ``Process(target=`` / pool ``submit``), and per-call-site lock context.

Checkers (registered in the lint registry under the ``flow`` tier):

- **RPL101** (:mod:`.lifecycle`) — resource lifecycle over the CFG:
  every lock/semaphore ``acquire()``, shared-memory handle, journal file
  handle, and started service in ``exec//service//resilience/`` must be
  released on *all* paths including exception edges; double releases are
  flagged too.
- **RPL102** (:mod:`.blocking`) — call-graph reachability from ``async
  def`` bodies to known blocking sinks (``time.sleep``, sync file I/O,
  blocking queue ``get``, ``np.linalg`` factorizations, ``os.fsync``)
  without an intervening ``asyncio.to_thread`` / ``run_in_executor``.
- **RPL103** (:mod:`.locks`) — lock-discipline race heuristic: attributes
  of shared executor/service objects written from both event-loop and
  worker-thread call paths must be guarded by one consistent lock.
"""

from repro.analysis.flow.callgraph import CallGraph, build_call_graph
from repro.analysis.flow.cfg import CFG, build_cfg
from repro.analysis.flow.dataflow import solve_forward

__all__ = ["CFG", "CallGraph", "build_call_graph", "build_cfg", "solve_forward"]
