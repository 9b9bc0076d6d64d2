"""Argument validation helpers.

These are deliberately cheap (O(1) except where a matrix property must be
checked) so they can be left on in production code paths.  All of them raise
:class:`repro.util.exceptions.ValidationError` with a message naming the
offending argument, which keeps the call sites one-liners.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.util.exceptions import ValidationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition*."""
    if not condition:
        raise ValidationError(message)


def check_positive(name: str, value: float | int) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")


def check_square(name: str, a: np.ndarray) -> int:
    """Require *a* to be a square 2-D array; return its order."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a.shape[0]


def check_dtype(name: str, a: np.ndarray, dtype: Any = np.float64) -> None:
    """Require *a* to have exactly *dtype* (the library is double-precision)."""
    if a.dtype != np.dtype(dtype):
        raise ValidationError(f"{name} must have dtype {np.dtype(dtype)}, got {a.dtype}")


def check_in_place(name: str, a: np.ndarray) -> int:
    """Require a square float64 *a* that a call can factor in place; return
    its order.  Tile views need C order, and the call writes into *a*."""
    n = check_square(name, a)
    check_dtype(name, a)
    if not a.flags.c_contiguous:
        raise ValidationError(f"{name} must be C-contiguous to be factored in place")
    if not a.flags.writeable:
        raise ValidationError(f"{name} must be writeable to be factored in place")
    return n


def check_block_size(n: int, block_size: int) -> int:
    """Require *block_size* to evenly divide *n*; return the block count.

    MAGMA pads ragged trailing blocks; we require exact tiling instead to
    keep the checksum index arithmetic (row locator ``delta2/delta1``)
    straightforward.  Generators in :mod:`repro.blas.spd` produce matching
    sizes, and callers can always pad their input.
    """
    check_positive("n", n)
    check_positive("block_size", block_size)
    if n % block_size != 0:
        raise ValidationError(
            f"block_size {block_size} must evenly divide matrix order {n}"
        )
    return n // block_size
