"""Unit tests for IDLZ subdivisions (the type-4 card semantics)."""

import pytest

from repro.core.idlz.subdivision import SIDES, Subdivision
from repro.errors import IdealizationError


class TestValidation:
    def test_degenerate_box_rejected(self):
        with pytest.raises(IdealizationError):
            Subdivision(index=1, kk1=3, ll1=1, kk2=3, ll2=5)

    def test_both_indicators_rejected(self):
        with pytest.raises(IdealizationError, match="both"):
            Subdivision(index=1, kk1=1, ll1=1, kk2=9, ll2=5,
                        ntaprw=1, ntapcm=1)

    def test_overshrunk_trapezoid_rejected(self):
        # 5 columns, 4 rows, losing 2 per row needs 5 - 6 < 1 nodes.
        with pytest.raises(IdealizationError, match="short parallel side"):
            Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=4, ntaprw=1)

    def test_overshrunk_column_trapezoid_rejected(self):
        with pytest.raises(IdealizationError):
            Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=3, ntapcm=2)


class TestRectangle:
    SUB = Subdivision(index=1, kk1=2, ll1=3, kk2=5, ll2=6)

    def test_kind(self):
        assert self.SUB.kind == "rectangle"

    def test_counts(self):
        assert self.SUB.n_rows == 4
        assert self.SUB.n_cols == 4

    def test_strips_are_rows(self):
        strips = self.SUB.strips()
        assert len(strips) == 4
        assert strips[0] == [(2, 3), (3, 3), (4, 3), (5, 3)]

    def test_lattice_point_count(self):
        assert len(self.SUB.lattice_points()) == 16

    def test_contains(self):
        assert self.SUB.contains(3, 4)
        assert not self.SUB.contains(1, 4)
        assert not self.SUB.contains(3, 7)

    def test_side_paths(self):
        assert self.SUB.side_path("bottom") == [
            (2, 3), (3, 3), (4, 3), (5, 3)
        ]
        assert self.SUB.side_path("left") == [
            (2, 3), (2, 4), (2, 5), (2, 6)
        ]
        assert self.SUB.side_path("top")[0] == (2, 6)
        assert self.SUB.side_path("right")[-1] == (5, 6)

    def test_unknown_side_rejected(self):
        with pytest.raises(IdealizationError):
            self.SUB.side_path("diagonal")

    def test_opposite(self):
        assert self.SUB.opposite("bottom") == "top"
        assert self.SUB.opposite("left") == "right"


class TestRowTrapezoid:
    # NTAPRW = +1: top longer; each row downward loses one node per end.
    SUB = Subdivision(index=2, kk1=1, ll1=1, kk2=9, ll2=4, ntaprw=1)

    def test_kind(self):
        assert self.SUB.kind == "row_trapezoid"

    def test_row_spans_shrink_downwards(self):
        assert self.SUB.row_span(4) == (1, 9)
        assert self.SUB.row_span(3) == (2, 8)
        assert self.SUB.row_span(1) == (4, 6)

    def test_node_count_changes_by_two_per_row(self):
        lengths = [len(s) for s in self.SUB.strips()]
        assert lengths == [3, 5, 7, 9]

    def test_negative_indicator_mirrors(self):
        sub = Subdivision(index=3, kk1=1, ll1=1, kk2=9, ll2=4, ntaprw=-1)
        lengths = [len(s) for s in sub.strips()]
        assert lengths == [9, 7, 5, 3]

    def test_slant_side_path(self):
        left = self.SUB.side_path("left")
        assert left == [(4, 1), (3, 2), (2, 3), (1, 4)]

    def test_contains_respects_slant(self):
        assert self.SUB.contains(4, 1)
        assert not self.SUB.contains(1, 1)

    def test_side_of_points_on_slant(self):
        assert self.SUB.side_of_points((4, 1), (1, 4)) == "left"

    def test_side_of_points_not_on_side_rejected(self):
        with pytest.raises(IdealizationError):
            self.SUB.side_of_points((5, 2), (5, 3))

    def test_column_span_undefined(self):
        with pytest.raises(IdealizationError):
            self.SUB.column_span(5)


class TestColumnTrapezoid:
    # NTAPCM = +1: left side shorter.
    SUB = Subdivision(index=4, kk1=1, ll1=1, kk2=4, ll2=9, ntapcm=1)

    def test_kind(self):
        assert self.SUB.kind == "column_trapezoid"

    def test_column_spans_grow_rightwards(self):
        assert self.SUB.column_span(1) == (4, 6)
        assert self.SUB.column_span(4) == (1, 9)

    def test_strips_are_columns(self):
        strips = self.SUB.strips()
        assert [len(s) for s in strips] == [3, 5, 7, 9]
        assert strips[0][0] == (1, 4)

    def test_sides(self):
        assert self.SUB.side_path("left") == [(1, 4), (1, 5), (1, 6)]
        bottom = self.SUB.side_path("bottom")
        assert bottom == [(1, 4), (2, 3), (3, 2), (4, 1)]

    def test_row_span_undefined(self):
        with pytest.raises(IdealizationError):
            self.SUB.row_span(5)


class TestTriangle:
    # Short side reduced to a single node.
    ROW_TRI = Subdivision(index=5, kk1=1, ll1=1, kk2=9, ll2=5, ntaprw=-1)
    COL_TRI = Subdivision(index=6, kk1=1, ll1=1, kk2=5, ll2=9, ntapcm=-1)

    def test_kinds(self):
        assert self.ROW_TRI.kind == "triangle"
        assert self.COL_TRI.kind == "triangle"

    def test_apex_is_single_point_side(self):
        assert self.ROW_TRI.side_path("top") == [(5, 5)]
        assert self.COL_TRI.side_path("right") == [(5, 5)]

    def test_point_count(self):
        assert len(self.ROW_TRI.lattice_points()) == 9 + 7 + 5 + 3 + 1

    def test_adjacent_triangles_share_slants(self):
        # The Figure-11 tiling: south and west triangles share a diagonal.
        south = Subdivision(index=1, kk1=1, ll1=1, kk2=9, ll2=5, ntaprw=-1)
        west = Subdivision(index=3, kk1=1, ll1=1, kk2=5, ll2=9, ntapcm=-1)
        assert south.side_path("left") == west.side_path("bottom")

    def test_str_is_informative(self):
        text = str(self.ROW_TRI)
        assert "triangle" in text
        assert "NTAPRW=-1" in text
