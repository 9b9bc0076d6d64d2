"""Shared runtime for the ABFT schemes.

:class:`SchemeRun` wires together one attempt: execution context, device
buffers, fault injector bindings, verifier, updater, streams.
:func:`run_with_recovery` wraps attempts in the restart loop — when a
scheme hits corruption it cannot correct (or a fail-stop POTF2), the run
is abandoned, its simulated time is banked, and a fresh attempt executes
with the injector disarmed, exactly the "re-do the decomposition, which
costs twice the time" behaviour of Tables VII/VIII.  A scheme that
checkpoints (:meth:`SchemeRun.checkpoint`) rolls back instead: the fresh
attempt resumes from its newest verified snapshot, the way a
forward-recovery resume does.

``timeline=False`` runs the same attempts without the simulated machine:
the contexts record nothing, nothing is replayed, and the result's
``timeline`` and ``makespan`` are ``None``.

The loop is the same for the tile-DAG engine: its attempts
(:class:`repro.runtime.scheme.DagRun`) run on the host, replay no
simulated machine, and bank only the executed graph's spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blas.flops import potrf_flops
from repro.core.checksum import issue_encoding
from repro.core.config import AbftConfig
from repro.core.correct import Verifier, VerifyStats
from repro.core.multierror import MultiErrorCodec
from repro.core.policy import VerificationPolicy
from repro.core.update import ChecksumUpdater
from repro.desim.task import Task
from repro.desim.trace import Timeline
from repro.faults.injector import FaultInjector, Hook, no_faults
from repro.hetero.machine import Machine
from repro.hetero.memory import DeviceMatrix
from repro.util.exceptions import (
    RestartExhaustedError,
    SingularBlockError,
    UnrecoverableError,
)
from repro.util.validation import check_block_size, check_in_place, require


def deps_of(*tasks: Task | None) -> list[Task] | None:
    """Dependency list from optional producers (None entries dropped)."""
    out = [t for t in tasks if t is not None]
    return out or None


def simulated(makespan: float | None, what: str) -> float:
    """*makespan*, or an error naming why the run has no simulated time."""
    require(
        makespan is not None,
        f"{what} needs the simulated makespan; this run was made with timeline=False "
        "or by the dag engine, which has no simulated machine",
    )
    return makespan


@dataclass
class FtPotrfResult:
    """Outcome of a fault-tolerant factorization (restarts included)."""

    scheme: str
    machine: str
    n: int
    block_size: int
    makespan: float | None  # total simulated seconds across all attempts
    restarts: int
    stats: VerifyStats  # of the successful attempt
    timeline: Timeline | None  # of the successful attempt
    matrix: DeviceMatrix
    placement: str
    config: AbftConfig
    attempt_makespans: list[float] = field(default_factory=list)
    failed_timelines: list[Timeline] = field(default_factory=list)
    #: the dag engine's executor summary of the successful attempt
    #: (plain data), ``None`` for the left-looking engine
    runtime: dict | None = None

    @property
    def gflops(self) -> float:
        """Sustained rate counting only the useful factorization flops."""
        return potrf_flops(self.n) / simulated(self.makespan, "gflops") / 1e9

    @property
    def factor(self) -> np.ndarray:
        """The lower-triangular factor L (real mode only): the caller's *a*
        itself, factored in place with zeros above the diagonal."""
        require(self.matrix.real, "no numeric factor in shadow mode")
        return self.matrix.blocked.data

    #: Task kinds attributable to fault tolerance (vs. the factorization).
    FT_KINDS = (
        "encode",
        "recalc",
        "chk_update_syrk",
        "chk_update_gemm",
        "chk_update_potf2",
        "chk_update_trsm",
    )

    def overhead_breakdown(self) -> dict[str, float]:
        """Fault-tolerance busy-seconds by category, from the timeline.

        Returns aggregate (possibly overlapped) durations for encoding,
        recalculation and checksum updating, plus the factorization kinds
        for reference — the observable counterpart of Section VI's
        analytic decomposition.  Overlapped time counts fully, so the sum
        can exceed the makespan difference vs. the plain driver; compare
        the critical-path effect with :attr:`makespan` instead.
        """
        simulated(self.makespan, "overhead_breakdown")
        summary = self.timeline.kind_summary()
        out: dict[str, float] = {}
        for kind, (_, total) in summary.items():
            out[kind] = total
        out["ft_total"] = sum(out.get(k, 0.0) for k in self.FT_KINDS)
        out["updating_total"] = sum(
            v for k, v in out.items() if k.startswith("chk_update")
        )
        return out


class SchemeRun:
    """All per-attempt state a scheme driver needs."""

    #: the dag engine's executor summary; the left-looking loop has none
    runtime: dict | None = None

    def __init__(
        self,
        scheme: str,
        machine: Machine,
        n: int,
        block_size: int,
        config: AbftConfig,
        injector: FaultInjector,
        numerics: str,
        a: np.ndarray | None,
        start_iteration: int = 0,
        progress=None,
        timeline: bool = True,
    ) -> None:
        self.scheme = scheme
        self.machine = machine
        self.config = config
        self.injector = injector
        self.start_iteration = start_iteration
        self.progress = progress
        self.ctx = machine.context(numerics=numerics, timeline=timeline)
        self.matrix = self.ctx.alloc_matrix(
            n, block_size, data=a if numerics == "real" else None
        )
        self.chk = self.ctx.alloc_checksums(
            n, block_size, rows_per_tile=config.n_checksums
        )
        injector.bind("matrix", self.matrix)
        injector.bind("checksum", self.chk)
        self.main = self.ctx.stream("main")
        self.placement = config.resolved_placement(machine.spec, n, block_size)
        self.stats = VerifyStats()
        self.verifier = Verifier(
            self.ctx,
            self.matrix,
            self.chk,
            n_streams=config.resolved_streams(machine.spec),
            codec=MultiErrorCodec(block_size, config.n_checksums, rtol=config.rtol),
            strips_on_host=self.placement == "cpu",
            stats=self.stats,
        )
        self.updater = ChecksumUpdater(
            self.ctx, self.matrix, self.chk, self.placement, self.main
        )
        self.policy = VerificationPolicy(interval=config.verify_interval)
        self.tile_bytes = self.ctx.tile_bytes(block_size)
        #: ``(iteration, matrix)`` of the newest snapshot, the iteration a
        #: rollback resumes at (matrix ``None`` in shadow mode)
        self.restart_point: tuple[int, np.ndarray | None] | None = None

    # -- driver conveniences ----------------------------------------------------

    def encode(self) -> None:
        """Initial checksum encoding; the main stream starts after it.

        The checksum-updating stream (and host queue, for the CPU
        placement) is anchored after the encode barrier too — its first
        strip update must not race the encoding kernels.
        """
        done = issue_encoding(self.ctx, self.matrix, self.chk, self.verifier.streams)
        self.main.last = done
        self.updater.anchor(done)
        self.injector.fire(Hook.BEFORE_FACTORIZATION, iteration=-1)

    def chain_main(self, task: Task | None) -> None:
        """Order subsequent main-stream work after *task*."""
        if task is not None:
            self.ctx.stream_wait(self.main, task, f"main_after:{task.name}")

    def fire(self, hook: Hook, iteration: int) -> None:
        self.injector.fire(hook, iteration)

    def checkpoint(self, iteration: int) -> None:
        """Snapshot the state just verified after *iteration* to the host.

        Priced as one device→host copy of the matrix and its checksums on
        the main stream.  Real mode keeps a copy of the matrix only: a
        rollback re-encodes the checksums from it.
        """
        resume = iteration + 1
        self.ctx.transfer_d2h(
            self.matrix.nbytes + self.chk.nbytes, name=f"ckpt[{resume}]", stream=self.main, iteration=resume
        )
        data = self.matrix.blocked.data.copy() if self.matrix.real else None
        self.restart_point = (resume, data)

    def publish(self, iteration: int) -> None:
        """Report iteration-boundary state to the progress sink, if any.

        Called by the loop after the storage window of iteration *j*
        closes: columns 0..j of the matrix are final L, the rest still
        hold the original A, and the strips are maintained through j —
        exactly the state a forward-recovery resume needs.  Real mode
        only (there are no bytes to snapshot in shadow mode).
        """
        if self.progress is None or not self.matrix.real:
            return
        self.progress(iteration, self.matrix.blocked.data, self.chk.array)

    @property
    def nb(self) -> int:
        return self.matrix.nb

    def replay(self) -> tuple[float | None, Timeline | None]:
        """``(simulated seconds, timeline)`` of this attempt, both ``None``
        when it kept no simulated machine."""
        sim = self.ctx.simulate()
        return (None, None) if sim is None else (sim.makespan, sim.timeline)


def run_with_recovery(
    scheme: str,
    loop_body,
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
    attempt=SchemeRun,
) -> FtPotrfResult:
    """Execute *loop_body(run)* with the restart-on-unrecoverable protocol.

    Real mode factors *a* in place: it must be a writeable, C-contiguous
    float64 array.  On success *a* holds L with zeros above the diagonal,
    and the result's ``factor`` is *a*.  A call that raises leaves *a* as
    it was.

    *start_iteration* > 0 resumes a partially factored matrix: *a* must
    hold columns ``0..start_iteration-1`` already final (the state
    :meth:`SchemeRun.publish` reports), and the loop skips straight to
    that iteration.  An in-scheme restart re-runs from the same resume
    point — the salvaged state, not the original matrix, is this call's
    "pristine" input — or, once an attempt has checkpointed, from its
    newest snapshot (a rollback).  *progress* (real mode) receives
    ``(iteration, matrix_data, chk_array)`` after each iteration.
    *timeline* records and replays the simulated machine (see the module
    docstring).  *attempt* builds each attempt's state from this call's
    arguments (a :class:`SchemeRun` unless the engine brings its own).
    """
    cfg = config if config is not None else AbftConfig()
    inj = injector if injector is not None else no_faults()
    real = numerics == "real"
    if real:
        require(a is not None, "real mode requires the matrix a")
        n = check_in_place("a", a)
    else:
        require(n is not None, "shadow mode requires n")
    bs = block_size if block_size is not None else machine.default_block_size
    nb = check_block_size(n, bs)
    require(0 <= start_iteration <= nb, "start_iteration out of range")

    # The one copy a real call keeps: what a restart, and a raise, put back.
    pristine = a.copy() if real else None
    restart_from = pristine
    replays: list[tuple[float | None, Timeline | None]] = []  # one per attempt
    restarts = 0
    try:
        for _ in range(cfg.max_restarts + 1):
            if real and restarts:
                np.copyto(a, restart_from)
            run = attempt(
                scheme,
                machine,
                n,
                bs,
                cfg,
                inj,
                numerics,
                a,
                start_iteration=start_iteration,
                progress=progress,
                timeline=timeline,
            )
            try:
                loop_body(run)
            except (UnrecoverableError, SingularBlockError):
                replays.append(run.replay())
                restarts += 1
                # The injected fault was a one-shot event; do not re-inject.
                inj.disarm()
                if run.restart_point is not None:
                    start_iteration, restart_from = run.restart_point
                continue
            seconds, spans = run.replay()
            replays.append((seconds, spans))
            makespans = [m for m, _ in replays if m is not None]
            if real:
                run.matrix.blocked.zero_upper()
            return FtPotrfResult(
                scheme=scheme,
                machine=machine.name,
                n=n,
                block_size=bs,
                makespan=None if seconds is None else sum(makespans),
                restarts=restarts,
                stats=run.stats,
                timeline=spans,
                matrix=run.matrix,
                placement=run.placement,
                config=cfg,
                attempt_makespans=makespans,
                failed_timelines=[t for _, t in replays[:-1] if t is not None],
                runtime=run.runtime,
            )
        raise RestartExhaustedError(
            f"{scheme}: still unrecoverable after {cfg.max_restarts} restart(s)"
        )
    except BaseException:
        if real:
            np.copyto(a, pristine)
        raise
