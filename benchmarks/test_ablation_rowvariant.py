"""Ablation: row vs column checksums (the Section IV-A design choice).

"We choose two column checksums" — because column strips commute with
Cholesky's right-side operations while row strips must re-read data tiles:
the maintenance *flops* are within ~20%, but the maintenance *data
traffic* differs by an order of magnitude.
"""

from conftest import save_artifact

from repro.core.rowvariant import render_variant_comparison, update_flops_comparison


def test_regenerate_variant_table(benchmark, results_dir):
    out = benchmark(render_variant_comparison)
    save_artifact(results_dir, "ablation_rowvariant.txt", out)


def test_traffic_ratio_at_paper_sizes():
    for n, b in ((20480, 256), (30720, 512)):
        c = update_flops_comparison(n, b)
        assert c.traffic_ratio > 10
        assert c.ratio < 1.3  # flops alone would not justify the choice

