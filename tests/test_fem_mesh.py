"""Unit tests for the Mesh data structure."""

import math

import numpy as np
import pytest

from repro.errors import MeshError
from repro.fem.mesh import BOUNDARY_LONE, BOUNDARY_SHARED, INTERIOR, Mesh


class TestConstruction:
    def test_basic(self, unit_square_mesh):
        assert unit_square_mesh.n_nodes == 4
        assert unit_square_mesh.n_elements == 2

    def test_bad_node_shape_rejected(self):
        with pytest.raises(MeshError):
            Mesh(nodes=np.zeros((3, 3)), elements=np.zeros((1, 3), int))

    def test_bad_element_shape_rejected(self):
        with pytest.raises(MeshError):
            Mesh(nodes=np.zeros((3, 2)), elements=np.array([[0, 1, 2, 0]]))

    def test_out_of_range_connectivity_rejected(self):
        with pytest.raises(MeshError, match="missing nodes"):
            Mesh(nodes=np.zeros((3, 2)), elements=np.array([[0, 1, 7]]))

    def test_groups_default_to_zero(self, unit_square_mesh):
        assert (unit_square_mesh.element_groups == 0).all()

    def test_group_length_mismatch_rejected(self):
        with pytest.raises(MeshError):
            Mesh(nodes=np.zeros((3, 2)), elements=np.array([[0, 1, 2]]),
                 element_groups=np.array([0, 1]))


class TestGeometry:
    def test_areas(self, unit_square_mesh):
        assert unit_square_mesh.element_areas() == pytest.approx([0.5, 0.5])

    def test_orient_ccw_flips_cw_elements(self):
        nodes = np.array([[0, 0], [1, 0], [0, 1]], float)
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 2, 1]]))
        flipped = mesh.orient_ccw()
        assert flipped == 1
        assert mesh.element_areas()[0] > 0

    def test_validate_catches_degenerate(self):
        nodes = np.array([[0, 0], [1, 0], [2, 0]], float)
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
        with pytest.raises(MeshError, match="non-positive area"):
            mesh.validate()

    def test_min_angle(self, unit_square_mesh):
        assert math.degrees(unit_square_mesh.min_angle()) == pytest.approx(45)

    def test_min_angle_empty_mesh_raises(self):
        mesh = Mesh(nodes=np.zeros((3, 2)), elements=np.zeros((0, 3), int))
        with pytest.raises(MeshError):
            mesh.min_angle()

    def test_bounding_box(self, strip_mesh):
        box = strip_mesh.bounding_box()
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (0, 0, 4, 1)


class TestTopology:
    def test_boundary_edges_of_square(self, unit_square_mesh):
        edges = unit_square_mesh.boundary_edges()
        assert len(edges) == 4
        keys = {(min(a, b), max(a, b)) for a, b in edges}
        assert (0, 2) not in keys  # the interior diagonal

    def test_boundary_edges_traverse_ccw(self, unit_square_mesh):
        # CCW elements yield directed boundary edges with interior on left.
        for a, b in unit_square_mesh.boundary_edges():
            pa = unit_square_mesh.node_point(a)
            pb = unit_square_mesh.node_point(b)
            centre = np.array([0.5, 0.5])
            edge = np.array([pb.x - pa.x, pb.y - pa.y])
            to_centre = centre - np.array([pa.x, pa.y])
            assert edge[0] * to_centre[1] - edge[1] * to_centre[0] > 0

    def test_edge_counts(self, unit_square_mesh):
        counts = unit_square_mesh.edge_counts()
        assert counts[(0, 2)] == 2  # the diagonal
        assert counts[(0, 1)] == 1

    def test_edge_table_rows_in_first_encounter_order(self,
                                                      unit_square_mesh):
        table = unit_square_mesh.edge_table()
        rows = list(zip(table.a.tolist(), table.b.tolist(),
                        table.count.tolist(), table.e1.tolist(),
                        table.e2.tolist()))
        # Element 0 gives (0,1), (1,2), (2,0); element 1 reuses (0,2)
        # reversed and adds (2,3), (3,0).
        assert rows == [(0, 1, 1, 0, -1), (1, 2, 1, 0, -1),
                        (2, 0, 2, 0, 1), (2, 3, 1, 1, -1),
                        (3, 0, 1, 1, -1)]

    def test_edge_table_sorted_pairs(self, unit_square_mesh):
        table = unit_square_mesh.edge_table()
        assert list(zip(table.lo.tolist(), table.hi.tolist())) == \
            [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)]

    def test_boundary_flags(self, unit_square_mesh):
        flags = unit_square_mesh.compute_boundary_flags()
        # All four nodes on the boundary; 1 and 3 are in one element only.
        assert flags[1] == BOUNDARY_LONE
        assert flags[3] == BOUNDARY_LONE
        assert flags[0] == BOUNDARY_SHARED
        assert flags[2] == BOUNDARY_SHARED

    def test_interior_node_flag(self, strip_mesh):
        # Build a mesh with a genuine interior node: a fan around centre.
        nodes = np.array([
            [0, 0], [2, 0], [2, 2], [0, 2], [1, 1],
        ], float)
        elements = np.array([
            [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4],
        ])
        mesh = Mesh(nodes=nodes, elements=elements)
        assert mesh.compute_boundary_flags()[4] == INTERIOR


class TestSearch:
    def test_nodes_near_line(self, strip_mesh):
        assert strip_mesh.nodes_near(y=0.0) == [0, 1, 2, 3, 4]
        assert strip_mesh.nodes_near(x=0.0) == [0, 5]

    def test_nodes_near_point(self, strip_mesh):
        assert strip_mesh.nodes_near(x=2.0, y=1.0) == [7]

    def test_nearest_node(self, strip_mesh):
        assert strip_mesh.nearest_node(3.1, 0.2) == 3

    def test_find_nodes_predicate(self, strip_mesh):
        left = strip_mesh.find_nodes(lambda p: p.x < 0.5)
        assert left == [0, 5]


class TestRenumbering:
    def test_identity_permutation(self, unit_square_mesh):
        out = unit_square_mesh.renumbered([0, 1, 2, 3])
        assert np.array_equal(out.nodes, unit_square_mesh.nodes)

    def test_reversal_permutation(self, unit_square_mesh):
        out = unit_square_mesh.renumbered([3, 2, 1, 0])
        # Old node 0 is now node 3.
        assert np.array_equal(out.nodes[3], unit_square_mesh.nodes[0])
        assert out.element_areas() == pytest.approx([0.5, 0.5])

    def test_non_bijection_rejected(self, unit_square_mesh):
        with pytest.raises(MeshError, match="bijection"):
            unit_square_mesh.renumbered([0, 0, 1, 2])

    def test_flags_follow_nodes(self, unit_square_mesh):
        unit_square_mesh.compute_boundary_flags()
        out = unit_square_mesh.renumbered([3, 2, 1, 0])
        assert out.boundary_flags[3] == unit_square_mesh.boundary_flags[0]

    def test_copy_is_independent(self, unit_square_mesh):
        clone = unit_square_mesh.copy()
        clone.nodes[0, 0] = 99.0
        assert unit_square_mesh.nodes[0, 0] == 0.0
