"""The ABFT schemes: one left-looking loop and a table of where each verifies.

Offline, Online and Enhanced Online-ABFT run the same Algorithm-1
iteration with the same checksum updates; they differ only in *when* the
recalculate-and-correct step runs (Section III).  The loop offers six
verification points, a checkpoint at the end of an iteration and a final
sweep, and a row of :data:`VERIFICATION` says which tiles one scheme
verifies at each point:

- **Offline** (Huang & Abraham): only the final sweep.  A mid-run error
  has spread by then, so the run restarts (the 2× of Tables VII/VIII).
- **Online** (post-update, the prior art): each operation's *outputs*.
  A storage error striking a tile after its check is seen only once a
  later output computed from it fails, usually beyond the code's reach.
- **Enhanced** (pre-access, the paper's contribution): each operation's
  *inputs*, right before the read (Table I).  SYRK's and POTF2's inputs
  every iteration, since an error entering SYRK becomes an uncorrectable
  cross in the diagonal; GEMM's and TRSM's deferrable inputs every K
  iterations (Optimization 3).  The final sweep closes the window after
  each tile's last update.
- **Checkpoint** (the composed baseline of
  :func:`repro.baselines.checkpoint.checkpoint_potrf`): every lower tile
  after every C-th iteration, then a snapshot of the verified state, and
  the final sweep.  Its rollback is the restart of
  :func:`~repro.core.base.run_with_recovery`, resumed from the newest
  snapshot.

Every entry point takes ``timeline``: ``False`` factors without recording
the simulated machine (:func:`~repro.core.base.run_with_recovery`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.base import FtPotrfResult, SchemeRun, deps_of, run_with_recovery
from repro.core.config import AbftConfig
from repro.desim.task import Task
from repro.faults.injector import FaultInjector, Hook
from repro.hetero.machine import Machine
from repro.magma.ops import gemm_op, potf2_op, syrk_op, trsm_op

Key = tuple[int, int]
#: ``tiles(j, nb, due) -> keys``: the tiles a point verifies at iteration j
#: of nb, where *due* says whether Optimization 3's deferred checks run.
TileSet = Callable[[int, int, bool], list[Key]]


# -- Table I's verification sets -----------------------------------------------


def _diagonal(j: int, nb: int, due: bool) -> list[Key]:
    return [(j, j)]


def _panel(j: int, nb: int, due: bool) -> list[Key]:
    return [(i, j) for i in range(j + 1, nb)]


def _syrk_output(j: int, nb: int, due: bool) -> list[Key]:
    """SYRK writes the diagonal tile from iteration 1 on."""
    return [(j, j)] if j else []


def _gemm_output(j: int, nb: int, due: bool) -> list[Key]:
    """GEMM writes the trailing panel from iteration 1 on."""
    return _panel(j, nb, due) if j else []


def _syrk_inputs(j: int, nb: int, due: bool) -> list[Key]:
    """The diagonal tile and the finished block row L[j, 0:j]."""
    return [(j, j)] + [(j, k) for k in range(j)]


def _gemm_inputs(j: int, nb: int, due: bool) -> list[Key]:
    """The LD blocks L[j+1:, 0:j] and the trailing panel, when due."""
    if not (j and due):
        return []
    return [(i, k) for i in range(j + 1, nb) for k in range(j)] + _panel(j, nb, due)


def _trsm_inputs(j: int, nb: int, due: bool) -> list[Key]:
    """L[j, j] always, the panel when due; nothing once no panel is left."""
    panel = _panel(j, nb, due)
    if not panel:
        return []
    return [(j, j)] + (panel if due else [])


def _lower_before_last(j: int, nb: int, due: bool) -> list[Key]:
    """Every lower tile when due, except after the last iteration (the
    final sweep's)."""
    if not due or j == nb - 1:
        return []
    return [(i, k) for k in range(nb) for i in range(k, nb)]


# -- the table -------------------------------------------------------------------

#: ``(label, tiles)`` of one verification point; the batch is named ``label[j]``.
Check = tuple[str, TileSet]


@dataclass(frozen=True)
class VerificationRow:
    """What one scheme verifies at each point of the loop."""

    before_syrk: Check | None = None
    after_syrk: Check | None = None
    before_gemm: Check | None = None
    after_gemm: Check | None = None
    after_potf2: Check | None = None
    after_trsm: Check | None = None
    #: at the end of an iteration, due when the *next* one is; a batch that
    #: ran is followed by a snapshot, the restart point of a rollback
    checkpoint: Check | None = None
    final_sweep: bool = False


VERIFICATION: dict[str, VerificationRow] = {
    "offline": VerificationRow(final_sweep=True),
    "online": VerificationRow(
        after_syrk=("post_syrk", _syrk_output),
        after_gemm=("post_gemm", _gemm_output),
        after_potf2=("post_potf2", _diagonal),
        after_trsm=("post_trsm", _panel),
    ),
    "enhanced": VerificationRow(
        before_syrk=("pre_syrk", _syrk_inputs),
        after_syrk=("pre_potf2", _diagonal),
        before_gemm=("pre_gemm", _gemm_inputs),
        after_potf2=("pre_trsm", _trsm_inputs),
        final_sweep=True,
    ),
    "checkpoint": VerificationRow(checkpoint=("sweep", _lower_before_last), final_sweep=True),
}


# -- the loop --------------------------------------------------------------------


def _verify_point(
    run: SchemeRun, check: Check | None, j: int, due: bool, writer: Task | None, panel_writer: Task | None = None
) -> Task | None:
    """Launch one point's batch after the updating so far and the tiles' last
    writer (*panel_writer* too when the batch holds panel tiles); return its
    barrier, or None when the point verifies nothing."""
    if check is None:
        return None
    label, tiles = check
    keys = tiles(j, run.nb, due)
    holds_panel = panel_writer is not None and any(i > j for i, _ in keys)
    after = deps_of(run.updater.last_task, writer, panel_writer if holds_panel else None)
    verified = run.verifier.verify_batch(keys, f"{label}[{j}]", after=after, iteration=j)
    run.chain_main(verified)
    return verified


def _factor_left_looking(run: SchemeRun) -> None:
    """Algorithm 1 with the verification placement of ``run.scheme``.

    Every hook fires once per iteration at its place, whether or not its
    kernel has work there, so a fault plan fires in every scheme.
    """
    row = VERIFICATION[run.scheme]
    ctx, matrix, upd, main = run.ctx, run.matrix, run.updater, run.main
    run.encode()
    prev_trsm: Task | None = None  # last writer of the finished block column
    for j in range(run.start_iteration, run.nb):
        due = run.policy.due(j)
        upd.begin_iteration(j, deps=deps_of(prev_trsm))

        _verify_point(run, row.before_syrk, j, due, prev_trsm)
        syrk = syrk_op(ctx, matrix, j, main)
        run.fire(Hook.AFTER_SYRK, j)
        upd.update_syrk(j, deps=deps_of(prev_trsm))
        # Checked before GEMM is launched: the diagonal then ships to the host
        # and POTF2 overlaps GEMM exactly as in the unprotected factorization.
        _verify_point(run, row.after_syrk, j, due, syrk)

        ev_diag = ctx.record_event(main)
        d2h = ctx.transfer_d2h(
            run.tile_bytes, name=f"d2h_diag[{j}]", deps=[ev_diag.marker], iteration=j, tile_reads=[(j, j)]
        )

        _verify_point(run, row.before_gemm, j, due, prev_trsm)
        gemm = gemm_op(ctx, matrix, j, main)
        run.fire(Hook.AFTER_GEMM, j)
        upd.update_gemm(j, deps=deps_of(prev_trsm))
        _verify_point(run, row.after_gemm, j, due, gemm)

        potf2 = potf2_op(ctx, matrix, j, deps=[d2h])
        run.fire(Hook.AFTER_POTF2, j)
        h2d = ctx.transfer_h2d(
            run.tile_bytes, name=f"h2d_diag[{j}]", deps=[potf2], iteration=j, tile_writes=[(j, j)]
        )
        upd.update_potf2(j, deps=[potf2 if upd.placement == "cpu" else h2d])
        _verify_point(run, row.after_potf2, j, due, h2d, panel_writer=gemm)

        run.chain_main(h2d)
        trsm = trsm_op(ctx, matrix, j, main)
        run.fire(Hook.AFTER_TRSM, j)
        upd.update_trsm(j)
        _verify_point(run, row.after_trsm, j, due, trsm)
        if trsm is not None:
            prev_trsm = trsm

        # The storage-error window: a flip landing here is seen only by the
        # next check of the tile, if any.
        run.fire(Hook.STORAGE_WINDOW, j)
        if _verify_point(run, row.checkpoint, j, run.policy.due(j + 1), main.last):
            run.checkpoint(j)
        run.publish(j)

    if row.final_sweep:
        run.verifier.verify_batch(
            run.verifier.lower_keys(), "final", after=deps_of(upd.last_task, main.last)
        )


# -- entry points ----------------------------------------------------------------


def offline_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    config: AbftConfig | None = None,
    injector: FaultInjector | None = None,
    numerics: str = "real",
    timeline: bool = True,
) -> FtPotrfResult:
    """Factor with Offline-ABFT protection (verify-at-the-end).

    Real mode factors *a* in place: *a* must be a writeable, C-contiguous
    float64 array.  On success it holds L with zeros above the diagonal,
    and the result's ``factor`` is *a*; a call that raises leaves *a* as
    it was.
    """
    return run_with_recovery(
        "offline", _factor_left_looking, machine, a, n, block_size, config, injector, numerics,
        timeline=timeline,
    )


def online_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    config: AbftConfig | None = None,
    injector: FaultInjector | None = None,
    numerics: str = "real",
    start_iteration: int = 0,
    progress=None,
    timeline: bool = True,
) -> FtPotrfResult:
    """Factor with Online-ABFT protection (post-update verification).

    Real mode factors *a* in place: *a* must be a writeable, C-contiguous
    float64 array.  On success it holds L with zeros above the diagonal,
    and the result's ``factor`` is *a*; a call that raises leaves *a* as
    it was.
    """
    return run_with_recovery(
        "online", _factor_left_looking, machine, a, n, block_size, config, injector, numerics,
        start_iteration=start_iteration, progress=progress, timeline=timeline,
    )


def enhanced_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    config: AbftConfig | None = None,
    injector: FaultInjector | None = None,
    numerics: str = "real",
    start_iteration: int = 0,
    progress=None,
    timeline: bool = True,
) -> FtPotrfResult:
    """Factor with Enhanced Online-ABFT (pre-access verification).

    Real mode factors *a* in place: *a* must be a writeable, C-contiguous
    float64 array.  On success it holds L with zeros above the diagonal,
    and the result's ``factor`` is *a*; a call that raises leaves *a* as
    it was.
    """
    return run_with_recovery(
        "enhanced", _factor_left_looking, machine, a, n, block_size, config, injector, numerics,
        start_iteration=start_iteration, progress=progress, timeline=timeline,
    )


#: The one name → entry-point registry of the left-looking schemes.
SCHEMES = {
    "offline": offline_potrf,
    "online": online_potrf,
    "enhanced": enhanced_potrf,
}
