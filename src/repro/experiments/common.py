"""Shared experiment plumbing: sweeps, baselines, overhead arithmetic."""

from __future__ import annotations

from functools import lru_cache

from repro.core import SCHEMES, AbftConfig
from repro.hetero.machine import Machine
from repro.util.exceptions import ValidationError
from repro.util.validation import require

#: Matrix-size sweeps from Section VII-A ("from 5120×5120 to ...").
TARDIS_SWEEP: tuple[int, ...] = tuple(range(5120, 23040 + 1, 2560))
BULLDOZER_SWEEP: tuple[int, ...] = tuple(range(5120, 30720 + 1, 2560))


def sweep_for(machine_name: str) -> tuple[int, ...]:
    """The paper's size sweep for one testbed."""
    if machine_name == "tardis":
        return TARDIS_SWEEP
    if machine_name == "bulldozer64":
        return BULLDOZER_SWEEP
    raise ValidationError(f"no sweep defined for machine {machine_name!r}")


def scheme_runner(name: str):
    require(name in SCHEMES, f"unknown scheme {name!r}; have {sorted(SCHEMES)}")
    return SCHEMES[name]


@lru_cache(maxsize=256)
def baseline_time(machine_name: str, n: int, block_size: int | None = None) -> float:
    """Simulated seconds of the plain MAGMA driver (cached per size)."""
    from repro.magma.potrf import magma_potrf

    machine = Machine.preset(machine_name)
    res = magma_potrf(machine, n=n, block_size=block_size, numerics="shadow")
    return res.makespan


def scheme_time(
    machine_name: str,
    scheme: str,
    n: int,
    config: AbftConfig,
    block_size: int | None = None,
) -> float:
    """Simulated seconds of one fault-free scheme run (shadow mode)."""
    machine = Machine.preset(machine_name)
    res = scheme_runner(scheme)(
        machine, n=n, block_size=block_size, config=config, numerics="shadow"
    )
    return res.makespan


def relative_overhead(scheme_seconds: float, baseline_seconds: float) -> float:
    """The paper's 'relative overhead': extra time over plain MAGMA."""
    require(baseline_seconds > 0, "baseline must be positive")
    return (scheme_seconds - baseline_seconds) / baseline_seconds


def overhead_sweep(
    machine_name: str,
    scheme: str,
    config: AbftConfig,
    sizes: tuple[int, ...] | None = None,
) -> tuple[tuple[int, ...], list[float]]:
    """Relative overhead of *scheme* under *config* across the size sweep."""
    sweep = sizes if sizes is not None else sweep_for(machine_name)
    overheads = [
        relative_overhead(
            scheme_time(machine_name, scheme, n, config), baseline_time(machine_name, n)
        )
        for n in sweep
    ]
    return sweep, overheads
