"""Figures 14/15: overhead comparison of the three ABFT schemes.

Relative overhead (vs. plain MAGMA) of Offline-, Online- and Enhanced
Online-ABFT across the size sweep, all optimizations on (streams, auto
placement; Enhanced at K=1 — the strongest protection).  Expected shape:
all three approach small constants as n grows; Enhanced sits slightly
above the other two (its 1/B-order recalculation term), staying under
≈6% on Tardis and ≈4% on Bulldozer64 at large n.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import SCHEMES, AbftConfig
from repro.experiments.common import overhead_sweep
from repro.util.formatting import render_ascii_chart, render_series

CONFIG = AbftConfig(verify_interval=1, updating_placement="auto", recalc_streams=16)


@dataclass
class OverheadResult:
    machine: str
    sizes: tuple[int, ...]
    overheads: dict[str, list[float]]

    def render(self, title: str) -> str:
        return (
            render_series("n", self.sizes, self.overheads, title=title)
            + "\n\n"
            + render_ascii_chart(
                list(self.sizes), self.overheads, title="relative overhead"
            )
        )


def run(machine_name: str, sizes: tuple[int, ...] | None = None) -> OverheadResult:
    overheads: dict[str, list[float]] = {}
    sweep: tuple[int, ...] = ()
    for scheme in SCHEMES:
        sweep, ys = overhead_sweep(machine_name, scheme, CONFIG, sizes)
        overheads[scheme] = ys
    return OverheadResult(machine=machine_name, sizes=sweep, overheads=overheads)
