"""Fault-tolerant SPD linear solvers — the paper's motivating use case.

"Cholesky decomposition has been widely used to solve linear equations
arising from linear least squares problems, non-linear optimization, Monte
Carlo simulations, and Kalman filters" (Section I).  This module wraps the
fault-tolerant factorization into the solver a downstream user actually
calls:

- :func:`ft_solve` — solve ``A x = b`` (single or multiple right-hand
  sides) by an ABFT-protected factorization plus triangular solves, with
  optional iterative refinement;
- :func:`ft_lstsq` — least squares via the normal equations
  ``AᵀA x = AᵀB`` under the same protection.

The factorization is the O(n³) part and runs under the chosen scheme on
the simulated machine; the O(n²) triangular solves run on the host and are
priced as TRSM work on the simulated clock.  Iterative refinement serves a
double purpose: it polishes rounding *and* acts as an end-to-end residual
check that would flag any corruption that slipped past ABFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.blas.flops import trsm_flops
from repro.core import SCHEMES, AbftConfig
from repro.core.base import FtPotrfResult
from repro.faults.injector import FaultInjector
from repro.hetero.machine import Machine
from repro.util.validation import check_square, require


@dataclass
class FtSolveResult:
    """Outcome of a fault-tolerant solve."""

    x: np.ndarray
    factorization: FtPotrfResult
    solve_seconds: float  # modelled time of the triangular solves
    refinement_steps: int
    residual: float  # ‖Ax − b‖ / (‖A‖‖x‖ + ‖b‖), from refinement

    @property
    def total_seconds(self) -> float:
        """Factorization (incl. restarts) + solve on the simulated clock."""
        return self.factorization.makespan + self.solve_seconds


def _triangular_solve_time(machine: Machine, n: int, nrhs: int) -> float:
    """Modelled seconds for the two panel TRSMs of a solve."""
    cost = machine.context(numerics="shadow").cost
    flops = 2 * trsm_flops(nrhs, n)  # forward + backward
    return flops / (cost.gpu_sustained_gflops("trsm") * 1e9)


def ft_solve(
    machine: Machine,
    a: np.ndarray,
    b: np.ndarray,
    scheme: str = "enhanced",
    block_size: int | None = None,
    config: AbftConfig | None = None,
    injector: FaultInjector | None = None,
    refine_steps: int = 1,
) -> FtSolveResult:
    """Solve the SPD system ``A x = b`` under ABFT protection.

    *a* is not modified (the factorization works on a copy).  *b* may be a
    vector or an (n, k) block of right-hand sides.  ``refine_steps`` rounds
    of iterative refinement use the original A, so the reported residual is
    a ground-truth end-to-end check.
    """
    n = check_square("a", a)
    rhs = np.atleast_2d(b.T).T  # (n,) -> (n, 1) without copying (n, k)
    require(rhs.shape[0] == n, f"b has {rhs.shape[0]} rows, A is {n}x{n}")
    require(scheme in SCHEMES, f"unknown scheme {scheme!r}; have {sorted(SCHEMES)}")
    require(refine_steps >= 0, "refine_steps must be >= 0")

    work = a.copy()
    fact = SCHEMES[scheme](
        machine,
        a=work,
        block_size=block_size,
        config=config,
        injector=injector,
    )
    ell = fact.factor

    # L y = b ; L^T x = y  (solve all RHS at once)
    y = scipy.linalg.solve_triangular(ell, rhs, lower=True)
    x = scipy.linalg.solve_triangular(ell.T, y, lower=False)

    steps = 0
    a_norm = np.linalg.norm(a, ord=1)
    for _ in range(refine_steps):
        r = rhs - a @ x
        dy = scipy.linalg.solve_triangular(ell, r, lower=True)
        dx = scipy.linalg.solve_triangular(ell.T, dy, lower=False)
        x = x + dx
        steps += 1

    r = rhs - a @ x
    denom = a_norm * np.linalg.norm(x, ord=1) + np.linalg.norm(rhs, ord=1)
    residual = float(np.linalg.norm(r, ord=1) / denom) if denom else 0.0

    solve_time = (1 + steps) * _triangular_solve_time(machine, n, rhs.shape[1])
    x_out = x[:, 0] if b.ndim == 1 else x
    return FtSolveResult(
        x=x_out,
        factorization=fact,
        solve_seconds=solve_time,
        refinement_steps=steps,
        residual=residual,
    )


def ft_lstsq(
    machine: Machine,
    a: np.ndarray,
    b: np.ndarray,
    scheme: str = "enhanced",
    block_size: int | None = None,
    ridge: float = 0.0,
    **kwargs,
) -> FtSolveResult:
    """Least squares ``min ‖A x − b‖₂`` via protected normal equations.

    Forms ``G = AᵀA (+ ridge·I)`` and ``AᵀB`` and calls :func:`ft_solve`.
    The normal-equations route squares the condition number — acceptable
    here because iterative refinement (on G) polishes the result, and the
    point is protecting the O(n³) factorization.
    """
    require(a.ndim == 2, "a must be a matrix")
    require(a.shape[0] >= a.shape[1], "need at least as many rows as columns")
    gram = a.T @ a
    if ridge:
        gram[np.diag_indices_from(gram)] += ridge
    gram = (gram + gram.T) / 2.0
    rhs = a.T @ b
    return ft_solve(machine, gram, rhs, scheme=scheme, block_size=block_size, **kwargs)
