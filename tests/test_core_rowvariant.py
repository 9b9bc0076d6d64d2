"""Tests for the row-checksum cost comparison (why columns win)."""

from repro.core.rowvariant import render_variant_comparison, update_flops_comparison


class TestCostComparison:
    def test_flop_gap_modest(self):
        """The algebra transposes cleanly: flops differ by ~10-20% only."""
        c = update_flops_comparison(8192, 256)
        assert 1.0 < c.ratio < 1.5

    def test_traffic_gap_is_the_disqualifier(self):
        """Row maintenance reads O(n³/B) data tiles vs O(n²) for columns —
        the structural reason the paper picks column checksums."""
        c = update_flops_comparison(8192, 256)
        assert c.traffic_ratio > 5

    def test_traffic_gap_grows_with_n(self):
        small = update_flops_comparison(4096, 256)
        large = update_flops_comparison(16384, 256)
        assert large.traffic_ratio > small.traffic_ratio

    def test_render(self):
        out = render_variant_comparison()
        assert "traffic row/col" in out and "20480" in out
