"""Section VI: the analytic overhead model (Tables II-VI).

All "relative overhead" figures are flop counts divided by the Cholesky
baseline ``n³/3``.  These formulas are the paper's leading-order algebra,
implemented symbol-for-symbol so tests can check them against both the
exact kernel-level flop accounting in :mod:`repro.blas.flops` /
:mod:`repro.core.update` and the printed Table VI limits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.exceptions import ValidationError
from repro.util.validation import check_positive


def _validate(n: int, b: int, k: int = 1) -> None:
    check_positive("n", n)
    check_positive("B", b)
    check_positive("K", k)


# ---------------------------------------------------------------------------
# 1) Encoding (shared by all schemes)
# ---------------------------------------------------------------------------

def encoding_flops(n: int) -> float:
    """``O_encode = ½ · 4B² · (n/B)² = 2n²`` (Section VI-1)."""
    _validate(n, 1)
    return 2.0 * n * n


def encoding_relative(n: int) -> float:
    """Relative encoding overhead ``6/n``."""
    return encoding_flops(n) / (n**3 / 3.0)


# ---------------------------------------------------------------------------
# 2) Checksum updating (Table III; same for Online and Enhanced)
# ---------------------------------------------------------------------------

def updating_flops_by_op(n: int, b: int) -> dict[str, float]:
    """Table III's O_updating column."""
    _validate(n, b)
    return {
        "POTF2": 2.0 * b * n,
        "TRSM": 2.0 * n * n,
        "SYRK": 2.0 * n * n,
        "GEMM": 2.0 / (3.0 * b) * n**3,
    }


def updating_relative(n: int, b: int) -> float:
    """Total updating relative overhead ``12/n + 2/B`` (POTF2 ignored)."""
    _validate(n, b)
    return 12.0 / n + 2.0 / b


# ---------------------------------------------------------------------------
# 3) Checksum recalculation (Tables IV and V)
# ---------------------------------------------------------------------------

def online_recalc_relative(n: int, b: int) -> float:
    """``12/n`` (POTF2 and SYRK terms ignored)."""
    _validate(n, b)
    return 12.0 / n


def enhanced_recalc_flops_by_op(n: int, b: int, k: int = 1) -> dict[str, float]:
    """Table V (pre-access recalculation with the every-K interval)."""
    _validate(n, b, k)
    return {
        "POTF2": 4.0 * b * n,
        "TRSM": 2.0 * n * n,
        "SYRK": 2.0 * n * n / k,
        "GEMM": 2.0 * n**3 / (3.0 * b * k),
    }


def enhanced_recalc_relative(n: int, b: int, k: int = 1) -> float:
    """``(6K+6)/(nK) + 2/(BK)`` — Table V's total."""
    _validate(n, b, k)
    return (6.0 * k + 6.0) / (n * k) + 2.0 / (b * k)


# ---------------------------------------------------------------------------
# 5-6) Space and transfer overheads
# ---------------------------------------------------------------------------

def space_relative(b: int) -> float:
    """Checksum matrix elements relative to the input: ``2/B``."""
    _validate(1, b)
    return 2.0 / b


def transfer_elements_cpu_updating(n: int, b: int, k: int, scheme: str) -> float:
    """Section VI-6: data-transfer element counts for the CPU placement."""
    _validate(n, b, k)
    initial = 2.0 * n * n / b
    updating = n * n / 2.0
    if scheme == "online":
        verification = n * n / (2.0 * b)
    elif scheme == "enhanced":
        verification = n**3 / (3.0 * k * b * b)
    else:
        raise ValidationError(f"unknown scheme {scheme!r}")
    return initial + updating + verification


# ---------------------------------------------------------------------------
# 7) Summary (Table VI)
# ---------------------------------------------------------------------------

def online_overall_relative(n: int, b: int) -> float:
    """Online-ABFT: ``30/n + 2/B``."""
    _validate(n, b)
    return 30.0 / n + 2.0 / b


def online_overall_relative_limit(b: int) -> float:
    """n → ∞ limit: ``2/B``."""
    return 2.0 / b


def enhanced_overall_relative(n: int, b: int, k: int = 1) -> float:
    """Enhanced Online-ABFT: ``(24K+6)/(nK) + (2K+2)/(BK)``."""
    _validate(n, b, k)
    return (24.0 * k + 6.0) / (n * k) + (2.0 * k + 2.0) / (b * k)


def enhanced_overall_relative_limit(b: int, k: int = 1) -> float:
    """n → ∞ limit: ``(2K+2)/(BK)``."""
    _validate(1, b, k)
    return (2.0 * k + 2.0) / (b * k)


@dataclass(frozen=True)
class OverheadBreakdown:
    """All Table VI components for one (n, B, K) point."""

    n: int
    b: int
    k: int
    encoding: float
    updating: float
    online_recalc: float
    enhanced_recalc: float
    space: float
    online_total: float
    enhanced_total: float


def overhead_breakdown(n: int, b: int, k: int = 1) -> OverheadBreakdown:
    """Evaluate every Section VI formula at one parameter point."""
    return OverheadBreakdown(
        n=n,
        b=b,
        k=k,
        encoding=encoding_relative(n),
        updating=updating_relative(n, b),
        online_recalc=online_recalc_relative(n, b),
        enhanced_recalc=enhanced_recalc_relative(n, b, k),
        space=space_relative(b),
        online_total=online_overall_relative(n, b),
        enhanced_total=enhanced_overall_relative(n, b, k),
    )
