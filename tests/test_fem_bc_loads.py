"""Unit tests for constraints and load cases."""

import math

import numpy as np
import pytest

from repro.errors import BoundaryConditionError
from repro.fem.bc import Constraints
from repro.fem.loads import LoadCase, edges_on_predicate
from repro.fem.mesh import Mesh


class TestConstraints:
    def test_fix_single_dof(self):
        c = Constraints()
        c.fix(3, 1, 0.5)
        assert c.is_constrained(3, 1)
        assert not c.is_constrained(3, 0)

    def test_fix_node_pins_both(self):
        c = Constraints()
        c.fix_node(2)
        assert c.is_constrained(2, 0) and c.is_constrained(2, 1)

    def test_chaining(self):
        c = Constraints().fix(0, 0).fix(1, 1)
        assert len(c) == 2

    def test_conflicting_values_rejected(self):
        c = Constraints()
        c.fix(1, 0, 0.0)
        with pytest.raises(BoundaryConditionError, match="twice"):
            c.fix(1, 0, 1.0)

    def test_re_fixing_same_value_ok(self):
        c = Constraints()
        c.fix(1, 0, 0.25)
        c.fix(1, 0, 0.25)
        assert len(c) == 1

    def test_invalid_direction_rejected(self):
        with pytest.raises(BoundaryConditionError):
            Constraints().fix(0, 2)

    def test_global_dofs_interleaved(self):
        c = Constraints()
        c.fix(2, 1, 0.5)
        c.fix(0, 0)
        part = c.partition(5)
        np.testing.assert_array_equal(part.fixed, [0, 5])
        np.testing.assert_array_equal(part.values, [0.0, 0.5])
        np.testing.assert_array_equal(part.free,
                                      [1, 2, 3, 4, 6, 7, 8, 9])

    def test_global_dofs_out_of_mesh_rejected(self):
        c = Constraints().fix(9, 0)
        with pytest.raises(BoundaryConditionError, match="outside"):
            c.partition(5)

    def test_fix_nodes_and_pin_nodes(self):
        c = Constraints()
        c.fix_nodes([0, 1], 0)
        c.pin_nodes([2])
        assert len(c) == 4


class TestLoadCase:
    def test_forces_accumulate(self):
        lc = LoadCase()
        lc.add_force(1, 0, 5.0).add_force(1, 0, 3.0)
        f = lc.vector(3)
        assert f[2] == 8.0

    def test_vector_layout(self):
        lc = LoadCase().add_force(2, 1, 7.0)
        f = lc.vector(3)
        assert f[5] == 7.0
        assert f.sum() == 7.0

    def test_out_of_mesh_load_rejected(self):
        lc = LoadCase().add_force(9, 0, 1.0)
        with pytest.raises(BoundaryConditionError):
            lc.vector(3)

    def test_invalid_direction_rejected(self):
        lc = LoadCase().add_force(0, 5, 1.0)
        with pytest.raises(BoundaryConditionError):
            lc.vector(3)

    def test_total_force(self):
        lc = LoadCase().add_force(0, 0, 2.0).add_force(1, 1, -3.0)
        assert lc.total_force(2) == (2.0, -3.0)


class TestPlanePressure:
    def test_pressure_pushes_inward(self, unit_square_mesh):
        # Right edge of the unit square: outward normal is +x; positive
        # pressure must push in -x.
        lc = LoadCase()
        edge = [(1, 2)]  # the right edge, CCW
        lc.add_edge_pressure_plane(unit_square_mesh, edge, pressure=10.0)
        fx, fy = lc.total_force(4)
        assert fx == pytest.approx(-10.0)
        assert fy == pytest.approx(0.0, abs=1e-12)

    def test_total_equals_pressure_times_length(self, unit_square_mesh):
        lc = LoadCase()
        lc.add_edge_pressure_plane(unit_square_mesh, [(0, 1)], pressure=4.0,
                                   thickness=2.0)
        fx, fy = lc.total_force(4)
        # Bottom edge: outward normal -y, so force is +y.
        assert fy == pytest.approx(8.0)

    def test_closed_boundary_pressure_is_self_equilibrating(
            self, unit_square_mesh):
        lc = LoadCase()
        lc.add_edge_pressure_plane(
            unit_square_mesh, unit_square_mesh.boundary_edges(), 7.0
        )
        fx, fy = lc.total_force(4)
        assert fx == pytest.approx(0.0, abs=1e-12)
        assert fy == pytest.approx(0.0, abs=1e-12)

    def test_zero_length_edge_rejected(self):
        nodes = np.array([[0, 0], [0, 0], [1, 1]], float)
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
        lc = LoadCase()
        with pytest.raises(BoundaryConditionError, match="zero length"):
            lc.add_edge_pressure_plane(mesh, [(0, 1)], 1.0)


class TestAxisymPressure:
    def test_lateral_pressure_resultant(self):
        # A cylindrical surface r = 2, z in [0, 1] under pressure p has
        # radial nodal forces totalling p * 2 pi r * L.
        nodes = np.array([[2.0, 0.0], [2.0, 1.0], [1.0, 0.5]])
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
        lc = LoadCase()
        lc.add_edge_pressure_axisym(mesh, [(0, 1)], pressure=3.0)
        f = lc.vector(3)
        total_radial = f[0] + f[2]
        assert total_radial == pytest.approx(-3.0 * 2 * math.pi * 2.0 * 1.0)

    def test_end_cap_pressure_resultant(self):
        # An annular flat cap spanning r in [1, 2] at z = 1: axial force
        # = p * pi (b^2 - a^2).  Edge direction chosen so the outward
        # normal points +z.
        nodes = np.array([[2.0, 1.0], [1.0, 1.0], [1.5, 0.0]])
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
        lc = LoadCase()
        lc.add_edge_pressure_axisym(mesh, [(0, 1)], pressure=5.0)
        f = lc.vector(3)
        total_axial = f[1] + f[3]
        assert total_axial == pytest.approx(
            -5.0 * math.pi * (2.0 ** 2 - 1.0 ** 2)
        )

    def test_consistent_distribution_weights_outer_node(self):
        nodes = np.array([[2.0, 1.0], [1.0, 1.0], [1.5, 0.0]])
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
        lc = LoadCase()
        lc.add_edge_pressure_axisym(mesh, [(0, 1)], pressure=1.0)
        f = lc.vector(3)
        # The node at larger radius carries more of the ring load.
        assert abs(f[1]) > abs(f[3])


class TestEdgeSelection:
    def test_edges_on_predicate(self, strip_mesh):
        bottom = edges_on_predicate(strip_mesh, lambda p: p.y == 0.0)
        assert len(bottom) == 4
        for a, b in bottom:
            assert strip_mesh.nodes[a, 1] == 0.0
            assert strip_mesh.nodes[b, 1] == 0.0

    def test_predicate_requires_both_endpoints(self, strip_mesh):
        corner_only = edges_on_predicate(
            strip_mesh, lambda p: p.x == 0.0 and p.y == 0.0
        )
        assert corner_only == []
