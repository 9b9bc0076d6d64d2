"""One-call consolidated report: every paper artifact plus the ablations.

``build_report()`` runs the full evaluation (or the quick variant) and
returns one text document mirroring the paper's Section VII structure;
``write_report()`` also saves it next to the per-artifact files in
``results/``.  This is what ``python -m repro`` users reach for when they
want "the whole evaluation, one file".
"""

from __future__ import annotations

import pathlib

from repro.experiments import (
    analytic,
    capability,
    kpolicy,
    latency,
    opt1,
    opt2,
    opt3,
    overhead,
    performance,
)

QUICK_SIZES = {
    "tardis": (5120, 12800, 20480),
    "bulldozer64": (5120, 15360, 30720),
}

_RULE = "=" * 78


def build_report(quick: bool = True) -> str:
    """Run the evaluation and return the consolidated text report."""
    sizes = QUICK_SIZES if quick else {"tardis": None, "bulldozer64": None}
    sections: list[str] = [
        "REPRODUCTION REPORT — Enhanced Online-ABFT Cholesky (IPDPS 2016)",
        f"mode: {'quick sweep' if quick else 'full paper sweep'}",
    ]

    def add(title: str, body: str) -> None:
        sections.append(f"{_RULE}\n{title}\n{_RULE}\n{body}")

    add("Analytic models (Tables I, VI)",
        analytic.render_table1() + "\n\n" + analytic.render_table6())

    add(
        "Fault-tolerance capability (Tables VII/VIII)",
        capability.run_table7().render("Table VII — Tardis, 20480²")
        + "\n\n"
        + capability.run_table8().render("Table VIII — Bulldozer64, 30720²"),
    )

    for title, module, machine in (
        ("Optimization 1 — concurrent recalculation (Figs 8/9)", opt1, None),
        ("Optimization 2 — updating placement (Figs 10/11)", opt2, None),
        ("Optimization 3 — verification interval (Figs 12/13)", opt3, None),
        ("Scheme overheads (Figs 14/15)", overhead, None),
        ("Performance (Figs 16/17)", performance, None),
    ):
        parts = []
        for m in ("tardis", "bulldozer64"):
            parts.append(module.run(m, sizes[m]).render(f"{title} — {m}"))
        add(title, "\n\n".join(parts))

    lat_n = 4096 if quick else 8192
    pol_n = 5120 if quick else 20480
    add(
        "Detection latency (extension)",
        latency.run("tardis", lat_n).render(
            f"mid-run storage fault, tardis n={lat_n}"
        ),
    )
    add(
        "K policy (extension)",
        kpolicy.run("tardis", pol_n, rates=(1e-6, 1e-2, 1.0)).render(
            f"optimal K vs fault rate, tardis n={pol_n}"
        ),
    )
    return "\n\n".join(sections) + "\n"


def write_report(
    path: str | pathlib.Path | None = None, quick: bool = True
) -> pathlib.Path:
    """Build the report and write it to *path* (default: results/report.txt)."""
    text = build_report(quick=quick)
    if path is None:
        path = pathlib.Path(__file__).resolve().parents[3] / "results" / "report.txt"
    path = pathlib.Path(path)
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    return path
