"""Unit tests for the global lattice and element creation."""

import numpy as np
import pytest

from repro.core.idlz.elements import (
    create_elements,
    subdivision_elements,
    triangulate_strip,
)
from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz.subdivision import Subdivision
from repro.errors import IdealizationError


class TestLatticeGrid:
    def test_single_rectangle_counts(self):
        grid = LatticeGrid([Subdivision(index=1, kk1=1, ll1=1,
                                        kk2=3, ll2=3)])
        assert grid.n_nodes == 9

    def test_numbering_left_to_right_bottom_to_top(self):
        grid = LatticeGrid([Subdivision(index=1, kk1=1, ll1=1,
                                        kk2=3, ll2=2)])
        assert grid.node(1, 1) == 0
        assert grid.node(3, 1) == 2
        assert grid.node(1, 2) == 3

    def test_shared_boundary_nodes_counted_once(self):
        left = Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=3)
        right = Subdivision(index=2, kk1=3, ll1=1, kk2=5, ll2=3)
        grid = LatticeGrid([left, right])
        assert grid.n_nodes == 9 + 9 - 3

    def test_missing_node_rejected(self):
        grid = LatticeGrid([Subdivision(index=1, kk1=1, ll1=1,
                                        kk2=2, ll2=2)])
        with pytest.raises(IdealizationError, match="no node"):
            grid.node(9, 9)

    def test_duplicate_subdivision_number_rejected(self):
        subs = [
            Subdivision(index=1, kk1=1, ll1=1, kk2=2, ll2=2),
            Subdivision(index=1, kk1=3, ll1=1, kk2=4, ll2=2),
        ]
        with pytest.raises(IdealizationError, match="duplicate"):
            LatticeGrid(subs)

    def test_empty_assemblage_rejected(self):
        with pytest.raises(IdealizationError):
            LatticeGrid([])

    def test_lattice_coordinates(self):
        grid = LatticeGrid([Subdivision(index=1, kk1=2, ll1=3,
                                        kk2=3, ll2=4)])
        coords = grid.lattice_coordinates()
        assert coords[grid.node(2, 3)] == (2.0, 3.0)


class TestTriangulateStrip:
    def test_equal_strips_make_quad_cells(self):
        tris = triangulate_strip([0, 1, 2], [0, 1, 2],
                                 [3, 4, 5], [0, 1, 2])
        assert len(tris) == 4

    def test_fan_from_single_node(self):
        tris = triangulate_strip([0], [1.0], [1, 2, 3], [0.0, 1.0, 2.0])
        assert len(tris) == 2
        assert all(0 in t for t in tris)

    def test_trapezoid_strip_count(self):
        # m + n nodes produce m + n - 2 triangles.
        tris = triangulate_strip([0, 1, 2], [1, 2, 3],
                                 [3, 4, 5, 6, 7], [0, 1, 2, 3, 4])
        assert len(tris) == 6

    def test_every_node_used(self):
        lower = list(range(4))
        upper = list(range(4, 10))
        tris = triangulate_strip(lower, [1, 2, 3, 4],
                                 upper, [0, 1, 2, 3, 4, 5])
        used = {v for t in tris for v in t}
        assert used == set(range(10))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(IdealizationError):
            triangulate_strip([0, 1], [0.0], [2], [0.0])

    def test_two_singletons_rejected(self):
        with pytest.raises(IdealizationError):
            triangulate_strip([0], [0.0], [1], [0.0])

    def test_unsorted_positions_rejected(self):
        with pytest.raises(IdealizationError, match="must not decrease"):
            triangulate_strip([0, 1, 2], [0.0, 2.0, 1.0],
                              [3, 4], [0.0, 1.0])


class TestSubdivisionElements:
    def test_rectangle_element_count(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=4, ll2=3)
        grid = LatticeGrid([sub])
        tris = subdivision_elements(grid, sub)
        # 3 x 2 cells, two triangles each.
        assert len(tris) == 12

    def test_trapezoid_element_count(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=9, ll2=4, ntaprw=1)
        grid = LatticeGrid([sub])
        tris = subdivision_elements(grid, sub)
        # Strip pairs (3,5), (5,7), (7,9): 6 + 10 + 14 triangles.
        assert len(tris) == 30

    def test_triangle_subdivision_has_apex_fan(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=3, ntaprw=-1)
        grid = LatticeGrid([sub])
        tris = subdivision_elements(grid, sub)
        apex = grid.node(3, 3)
        fan = [t for t in tris if apex in t]
        assert len(fan) == 2


class TestCreateElements:
    def test_groups_follow_subdivisions(self):
        subs = [
            Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=2),
            Subdivision(index=2, kk1=3, ll1=1, kk2=5, ll2=2),
        ]
        grid = LatticeGrid(subs)
        tris, groups = create_elements(grid)
        assert len(tris) == len(groups) == 8
        assert set(groups) == {0, 1}
        assert list(groups[:4]) == [0] * 4

    def test_no_duplicate_elements_across_subdivisions(self):
        subs = [
            Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=3),
            Subdivision(index=2, kk1=3, ll1=1, kk2=5, ll2=3),
        ]
        grid = LatticeGrid(subs)
        tris, _ = create_elements(grid)
        canon = {tuple(sorted(t)) for t in tris}
        assert len(canon) == len(tris)

    def test_lattice_mesh_covers_assemblage_area(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=4, ll2=4)
        grid = LatticeGrid([sub])
        tris, _ = create_elements(grid)
        coords = np.array(grid.lattice_coordinates())
        total = 0.0
        for t in tris:
            p = coords[list(t)]
            total += abs(
                0.5 * ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                       - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
            )
        assert total == pytest.approx(9.0)  # 3 x 3 lattice cells
