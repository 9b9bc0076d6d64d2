"""Print every table and figure of the paper's evaluation section.

Takes a few minutes: the full size sweeps run at paper scale on the
simulated machines; ``--quick`` runs three sizes per machine.  The
committed tables under results/ are written by the benchmark suite
(``pytest benchmarks``), not by this script.

Run:  python examples/paper_figures.py [--quick]
"""

import sys
import time

from repro.experiments import analytic, capability, opt1, opt2, opt3, overhead, performance

QUICK_SIZES = {
    "tardis": (5120, 12800, 20480),
    "bulldozer64": (5120, 15360, 30720),
}


def emit(text: str) -> None:
    print(f"\n{'=' * 72}\n{text}")


def main() -> None:
    quick = "--quick" in sys.argv
    sizes = QUICK_SIZES if quick else {"tardis": None, "bulldozer64": None}
    t0 = time.perf_counter()

    emit(analytic.render_table1())
    emit(analytic.render_table6())
    emit(capability.run_table7().render("Table VII — Tardis, 20480x20480 (simulated)"))
    emit(capability.run_table8().render("Table VIII — Bulldozer64, 30720x30720 (simulated)"))

    for fig, machine, runner in (
        ("fig08_opt1_tardis", "tardis", opt1),
        ("fig09_opt1_bulldozer", "bulldozer64", opt1),
        ("fig10_opt2_tardis", "tardis", opt2),
        ("fig11_opt2_bulldozer", "bulldozer64", opt2),
        ("fig12_opt3_tardis", "tardis", opt3),
        ("fig13_opt3_bulldozer", "bulldozer64", opt3),
        ("fig14_overhead_tardis", "tardis", overhead),
        ("fig15_overhead_bulldozer", "bulldozer64", overhead),
        ("fig16_performance_tardis", "tardis", performance),
        ("fig17_performance_bulldozer", "bulldozer64", performance),
    ):
        res = runner.run(machine, sizes[machine])
        emit(res.render(fig.replace("_", " ")))

    print(f"\nall tables printed in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
