"""Unit tests for taint propagation (the shadow-mode fault semantics)."""

from repro.faults.taint import TaintState


def point(r, c):
    t = TaintState()
    t.add_point(r, c)
    return t


class TestBasics:
    def test_new_is_clean(self):
        assert TaintState().is_clean()

    def test_point_makes_dirty(self):
        assert not point(1, 2).is_clean()

    def test_clear(self):
        t = point(1, 2)
        t.rows.add(3)
        t.clear()
        assert t.is_clean()

    def test_merge_full_wins(self):
        t = point(0, 0)
        t.merge(TaintState(full=True))
        assert t.full and not t.points


class TestCorrectable:
    def test_single_point(self):
        assert point(3, 4).correctable()

    def test_two_points_different_columns(self):
        t = point(1, 0)
        t.add_point(5, 3)
        assert t.correctable()

    def test_two_points_same_column_not(self):
        t = point(1, 2)
        t.add_point(3, 2)
        assert not t.correctable()

    def test_one_full_row_is_correctable(self):
        """A whole corrupted row = one error per column: fixable."""
        t = TaintState(rows={4})
        assert t.correctable()

    def test_two_full_rows_not(self):
        assert not TaintState(rows={1, 2}).correctable()

    def test_full_row_plus_point_on_same_row_ok(self):
        t = TaintState(rows={4})
        t.add_point(4, 7)
        assert t.correctable()

    def test_full_row_plus_point_elsewhere_not(self):
        t = TaintState(rows={4})
        t.add_point(2, 7)
        assert not t.correctable()

    def test_full_column_never(self):
        assert not TaintState(cols={0}).correctable()

    def test_full_never(self):
        assert not TaintState(full=True).correctable()


class TestPropagation:
    def test_left_factor_point_becomes_row(self):
        """GEMM C -= A·Bᵀ: A[r,k] corrupt → row r of C corrupt."""
        out = point(2, 5).propagated_as_left_factor()
        assert out.rows == {2} and not out.points and not out.full

    def test_right_factor_point_becomes_col(self):
        """B[c,k] corrupt → column c of C corrupt."""
        out = point(3, 1).propagated_as_right_factor()
        assert out.cols == {3}

    def test_syrk_cross_is_uncorrectable(self):
        """SYRK uses the block as both factors: row + column cross."""
        src = point(2, 5)
        out = TaintState()
        out.merge(src.propagated_as_left_factor())
        out.merge(src.propagated_as_right_factor())
        assert not out.correctable()

    def test_gemm_single_sided_stays_correctable(self):
        """One corrupted LD element → one full row → still correctable."""
        out = point(2, 5).propagated_as_left_factor()
        assert out.correctable()

    def test_full_column_of_left_factor_poisons_everything(self):
        src = TaintState(cols={1})
        assert src.propagated_as_left_factor().full

    def test_trsm_point_spreads_along_row(self):
        out = point(6, 2).propagated_through_trsm()
        assert out.rows == {6}

    def test_trsm_full_rows_preserved(self):
        out = TaintState(rows={1}).propagated_through_trsm()
        assert out.rows == {1} and out.correctable()

    def test_corrupt_triangular_factor_is_total(self):
        assert TaintState.from_corrupt_triangular_factor().full
