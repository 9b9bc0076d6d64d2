"""The ABFT'd right-looking Cholesky iteration as a tile-task graph.

One factorization becomes, per iteration ``j``:

- a diagonal verify of ``(j, j)`` (its trailing updates are complete);
- ``POTF2(j, j)`` with the strip update ``chk ← chk · L_jj^{-T}`` fused
  in, then a post-factor diagonal verify;
- a batched panel verify of column ``j``, the per-tile ``TRSM(i, j)``
  tasks (strip update fused), and a post-TRSM panel verify;
- the trailing update: ``SYRK`` on each diagonal tile ``(k, k)`` and
  ``GEMM`` on each ``(i, k)`` with ``j < k < i``, each with its
  checksum-strip update fused so the strips always track the data;
- an end-of-iteration ``storage_window`` task when fault plans target
  that window.

After the last iteration one verify sweeps the whole finished factor.

Dependencies are *derived* from the declared cell footprints
(:mod:`repro.runtime.dag`), which is what makes lookahead legal for
free: ``POTF2`` of panel ``j+1`` depends only on tile ``(j+1, j+1)``
receiving its iteration-``j`` SYRK and verify — it becomes ready while
iteration ``j``'s remaining GEMMs are still draining, realizing the
paper's Opt-3 panel/update overlap on real host threads.

Fault injection stays deterministic under any schedule: every
:class:`~repro.faults.injector.FaultPlan` is anchored to one task
identity (kind, iteration, tile) at graph-build time and fired from
inside that task's body, with the victim cell declared among the task's
``victims`` so the corruption is ordered by the DAG like any other
mutation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.blas import dense
from repro.blas.dense import trsm_right_lt
from repro.core.batchverify import encode
from repro.core.correct import VerifyStats, check_tiles
from repro.core.multierror import MultiErrorCodec
from repro.faults.injector import FaultInjector, FaultPlan, Hook
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.runtime.dag import TaskGraph
from repro.runtime.task import Cell
from repro.util.validation import require

Key = tuple[int, int]


# Plan anchoring ---------------------------------------------------------------

_HOOK_KINDS = {
    Hook.AFTER_POTF2: "potf2",
    Hook.AFTER_TRSM: "trsm",
    Hook.AFTER_SYRK: "syrk",
    Hook.AFTER_GEMM: "gemm",
    Hook.STORAGE_WINDOW: "storage_window",
}

Anchor = tuple[str, int, Key]


def _kind_exists(kind: str, j: int, nb: int) -> bool:
    if kind in ("potf2", "storage_window"):
        return True
    if kind in ("trsm", "syrk"):
        return j < nb - 1
    return j < nb - 2  # gemm


def _anchor_iteration(plan: FaultPlan, kind: str, nb: int) -> int | None:
    """The iteration the plan fires at, or None when it never would."""
    if plan.iteration != -1:
        it = plan.iteration
        if not 0 <= it < nb:
            return None
        return it if _kind_exists(kind, it, nb) else None
    # iteration == -1 means "any": the serial loop fires it at the first
    # iteration that reaches the hook, which is the first where the kind
    # has any task at all.
    for j in range(nb):
        if _kind_exists(kind, j, nb):
            return j
    return None


def plan_anchor(plan: FaultPlan, nb: int) -> Anchor | None:
    """The task identity after whose numerics *plan* fires.

    When the victim block is a tile the matching kind writes at that
    iteration, the plan rides that exact task (a computing error lands
    in the output it corrupts); otherwise it rides the last task of the
    kind in program order, falling back to the iteration's
    ``storage_window`` task when the kind has no tasks there at all —
    the same "fire once per (hook, iteration)" semantics the serial
    drivers implement with a single ``fire()`` call.
    """
    kind = _HOOK_KINDS.get(plan.hook)
    if kind is None:  # BEFORE_FACTORIZATION fires eagerly, pre-graph
        return None
    j = _anchor_iteration(plan, kind, nb)
    if j is None:
        if plan.iteration == -1 or not 0 <= plan.iteration < nb:
            return None
        return ("storage_window", plan.iteration, (plan.iteration, plan.iteration))
    i, k = plan.block
    if kind == "potf2":
        return ("potf2", j, (j, j))
    if kind == "storage_window":
        return ("storage_window", j, (j, j))
    if kind == "trsm":
        victim_hit = k == j and j < i < nb
        return ("trsm", j, plan.block if victim_hit else (nb - 1, j))
    if kind == "syrk":
        victim_hit = i == k and j < i < nb
        return ("syrk", j, plan.block if victim_hit else (nb - 1, nb - 1))
    victim_hit = j < k < i < nb
    return ("gemm", j, plan.block if victim_hit else (nb - 1, nb - 2))


def _victims(plans: list[FaultPlan]) -> frozenset[Cell]:
    """The cells *plans* strike."""
    return frozenset(("A" if p.target == "matrix" else "C", *p.block) for p in plans)


def anchored_plans(injector: FaultInjector, nb: int) -> dict[Anchor, list[FaultPlan]]:
    """All plans grouped by anchor — over *all* plans, fired or not, so
    restart attempts build the identical graph (firing itself still
    honors the one-shot flags)."""
    anchors: dict[Anchor, list[FaultPlan]] = {}
    for plan in injector.plans:
        anchor = plan_anchor(plan, nb)
        if anchor is not None:
            anchors.setdefault(anchor, []).append(plan)
    return anchors


# Task bodies ------------------------------------------------------------------
# Each factory returns a `_body_*` closure; RPL009 requires raw tile/strip
# accessor calls in this package to live only inside such task bodies.


def _potf2_body(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    j: int,
    inj: FaultInjector,
    fires: list[FaultPlan],
) -> Callable[[], None]:
    def _body_potf2() -> None:
        diag = matrix.block(j, j)
        dense.potf2(diag, block_index=j)
        inj.fire_plans(fires, j)
        trsm_right_lt(chk.strip(j, j), diag, matrix.inverses)

    return _body_potf2


def _trsm_body(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    i: int,
    j: int,
    inj: FaultInjector,
    fires: list[FaultPlan],
) -> Callable[[], None]:
    def _body_trsm() -> None:
        diag = matrix.block(j, j)
        trsm_right_lt(matrix.block(i, j), diag, matrix.inverses)
        inj.fire_plans(fires, j)
        trsm_right_lt(chk.strip(i, j), diag, matrix.inverses)

    return _body_trsm


def _syrk_body(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    k: int,
    j: int,
    inj: FaultInjector,
    fires: list[FaultPlan],
) -> Callable[[], None]:
    def _body_syrk() -> None:
        lkj = matrix.block(k, j)
        dense.syrk_update(matrix.block(k, k), lkj)
        inj.fire_plans(fires, j)
        s = chk.strip(k, k)
        s -= chk.strip(k, j) @ lkj.T

    return _body_syrk


def _gemm_body(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    i: int,
    k: int,
    j: int,
    inj: FaultInjector,
    fires: list[FaultPlan],
) -> Callable[[], None]:
    def _body_gemm() -> None:
        lkj = matrix.block(k, j)
        dense.gemm_update(matrix.block(i, k), matrix.block(i, j), lkj)
        inj.fire_plans(fires, j)
        s = chk.strip(i, k)
        s -= chk.strip(i, j) @ lkj.T

    return _body_gemm


def _verify_body(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    keys: list[Key],
    codec: MultiErrorCodec,
    stats: VerifyStats,
) -> Callable[[], None]:
    def _body_verify() -> None:
        stats.batches += 1
        stats.tiles_verified += len(keys)
        check_tiles(matrix, chk, keys, codec, stats=stats)

    return _body_verify


def _window_body(
    j: int, inj: FaultInjector, fires: list[FaultPlan]
) -> Callable[[], None]:
    def _body_window() -> None:
        inj.fire_plans(fires, j)

    return _body_window


def encode_strips(matrix: DeviceMatrix, chk: DeviceChecksums, weights: np.ndarray) -> None:
    """Initial lower-triangle encoding (eager, before the graph runs)."""
    encode(matrix, chk, _lower(matrix.nb), weights)


def _lower(nb: int) -> list[Key]:
    """The lower-triangle keys, column by column."""
    return [(i, j) for j in range(nb) for i in range(j, nb)]


# Graph construction -----------------------------------------------------------


def _rw(keys: list[Key]) -> frozenset[Cell]:
    """The read+write footprint of a verify over *keys*: a correction
    mutates both the tile and its strip, so both spaces are claimed."""
    out: set[Cell] = set()
    for i, j in keys:
        out.add(("A", i, j))
        out.add(("C", i, j))
    return frozenset(out)


def build_cholesky_graph(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    codec: MultiErrorCodec,
    injector: FaultInjector,
) -> tuple[TaskGraph, list[VerifyStats]]:
    """The full task graph for one factorization attempt.

    Returns the graph plus one :class:`VerifyStats` slot per verify task
    in program order — each verify accumulates into its own slot, and
    the caller merges them in that fixed order, so statistics (and the
    ``corrected_sites`` list in particular) are bit-identical whichever
    worker finished which verify first.
    """
    nb = matrix.nb
    require(nb >= 1, "need at least one tile")
    graph = TaskGraph()
    anchors = anchored_plans(injector, nb)
    stats_slots: list[VerifyStats] = []

    def _add_verify(iteration: int, anchor_tile: Key, keys: list[Key]) -> None:
        slot = VerifyStats()
        stats_slots.append(slot)
        footprint = _rw(keys)
        graph.add(
            "verify",
            iteration,
            anchor_tile,
            reads=footprint,
            writes=footprint,
            fn=_verify_body(matrix, chk, keys, codec, slot),
        )

    def _fires_for(kind: str, iteration: int, tile: Key) -> list[FaultPlan]:
        return anchors.pop((kind, iteration, tile), [])

    for j in range(nb):
        diag = [(j, j)]
        panel = [(i, j) for i in range(j + 1, nb)]
        # 1. the diagonal tile's trailing updates are done: verify it.
        _add_verify(j, (j, j), diag)
        # 2. factor it (strip update fused; anchored plans fire between).
        fires = _fires_for("potf2", j, (j, j))
        graph.add(
            "potf2",
            j,
            (j, j),
            reads=_rw(diag),
            writes=_rw(diag),
            fn=_potf2_body(matrix, chk, j, injector, fires),
            victims=_victims(fires),
        )
        # 3. verify the freshly factored diagonal before the panel uses it.
        _add_verify(j, (j, j), diag)
        if panel:
            # 4. the panel's trailing updates are done: verify it (batched).
            _add_verify(j, (j + 1, j), panel)
            # 5. per-tile TRSM, strip update fused.
            for i, _ in panel:
                fires = _fires_for("trsm", j, (i, j))
                graph.add(
                    "trsm",
                    j,
                    (i, j),
                    reads=_rw([(j, j), (i, j)]),
                    writes=_rw([(i, j)]),
                    fn=_trsm_body(matrix, chk, i, j, injector, fires),
                    victims=_victims(fires),
                )
            # 6. verify the panel of L before the trailing update reads it.
            _add_verify(j, (j + 1, j), panel)
        # 7. right-looking trailing update, column-major over (k, i).
        for k in range(j + 1, nb):
            fires = _fires_for("syrk", j, (k, k))
            graph.add(
                "syrk",
                j,
                (k, k),
                reads=_rw([(k, j), (k, k)]),
                writes=_rw([(k, k)]),
                fn=_syrk_body(matrix, chk, k, j, injector, fires),
                victims=_victims(fires),
            )
            for i in range(k + 1, nb):
                fires = _fires_for("gemm", j, (i, k))
                graph.add(
                    "gemm",
                    j,
                    (i, k),
                    reads=_rw([(i, j), (k, j), (i, k)]),
                    writes=_rw([(i, k)]),
                    fn=_gemm_body(matrix, chk, i, k, j, injector, fires),
                    victims=_victims(fires),
                )
        # 8. the storage-error window at the end of the iteration.
        fires = _fires_for("storage_window", j, (j, j))
        if fires:
            graph.add(
                "storage_window",
                j,
                (j, j),
                reads=(),
                writes=(),
                fn=_window_body(j, injector, fires),
                victims=_victims(fires),
            )
    _add_verify(nb, (nb - 1, nb - 1), _lower(nb))
    graph.check_program_order()
    return graph, stats_slots


def merge_stats(slots: list[VerifyStats]) -> VerifyStats:
    """Fold per-task stats in program order into one run-level record."""
    total = VerifyStats()
    for slot in slots:
        total.batches += slot.batches
        total.tiles_verified += slot.tiles_verified
        total.data_corrections += slot.data_corrections
        total.checksum_corrections += slot.checksum_corrections
        total.columns_flagged += slot.columns_flagged
        total.corrected_sites.extend(slot.corrected_sites)
    return total
