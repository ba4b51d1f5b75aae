"""Tests for mass matrices and modal analysis.

Analytic anchor: the axial natural frequencies of a fixed-free rod are
f_n = (2n - 1) c / (4 L) with c = sqrt(E / rho).
"""

import math

import numpy as np
import pytest

from repro.errors import MaterialError, MeshError, SolverError
from repro.fem.bc import Constraints
from repro.fem.dynamics import (
    GRAVITY_IN_S2,
    assemble_mass,
    cst_mass_matrix,
    mass_density,
    modal_analysis,
)
from repro.fem.materials import IsotropicElastic
from repro.fem.mesh import Mesh

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def bar_mesh(nx, length=10.0, height=1.0):
    nodes = []
    for j in range(2):
        for i in range(nx + 1):
            nodes.append([length * i / nx, height * j])
    elements = []
    for i in range(nx):
        a, b = i, i + 1
        c, d = i + nx + 2, i + nx + 1
        elements.append([a, b, c])
        elements.append([a, c, d])
    return Mesh(nodes=np.array(nodes), elements=np.array(elements))


class TestMassMatrix:
    def test_consistent_total_mass(self):
        m = cst_mass_matrix(TRI, density=6.0, thickness=2.0)
        # Total mass per direction = rho t A = 6.
        ux = np.zeros(6)
        ux[0::2] = 1.0
        assert ux @ m @ ux == pytest.approx(6.0)

    def test_lumped_total_mass(self):
        m = cst_mass_matrix(TRI, density=6.0, thickness=2.0, lumped=True)
        assert np.trace(m) == pytest.approx(2 * 6.0)
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0

    def test_consistent_positive_definite(self):
        m = cst_mass_matrix(TRI, density=1.0)
        assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_no_cross_coupling_between_directions(self):
        m = cst_mass_matrix(TRI, density=1.0)
        assert m[0, 1] == 0.0
        assert m[0, 3] == 0.0

    def test_degenerate_element_rejected(self):
        flat = np.array([[0, 0], [1, 0], [2, 0]], float)
        with pytest.raises(MeshError):
            cst_mass_matrix(flat, density=1.0)

    def test_mass_density_conversion(self):
        assert mass_density(GRAVITY_IN_S2) == pytest.approx(1.0)


class TestGlobalMass:
    def test_total_mass_conserved(self, unit_square_mesh):
        mat = IsotropicElastic(youngs=1.0, poisson=0.3, thickness=2.0)
        m = assemble_mass(unit_square_mesh, {0: mat}, {0: 3.0})
        ux = np.zeros(8)
        ux[0::2] = 1.0
        # rho t A_total = 3 * 2 * 1.
        assert ux @ m @ ux == pytest.approx(6.0)

    def test_lumped_equals_consistent_total(self, unit_square_mesh):
        mat = IsotropicElastic(youngs=1.0, poisson=0.3)
        mc = assemble_mass(unit_square_mesh, {0: mat}, {0: 1.0})
        ml = assemble_mass(unit_square_mesh, {0: mat}, {0: 1.0},
                           lumped=True)
        ux = np.zeros(8)
        ux[0::2] = 1.0
        assert ux @ mc @ ux == pytest.approx(ux @ ml @ ux)

    @pytest.mark.parametrize("materials,densities,what", [
        ({}, {0: 1.0}, "material"),
        ({0: IsotropicElastic(youngs=1.0, poisson=0.3)}, {}, "density"),
    ], ids=["material", "density"])
    def test_missing_group_is_a_material_error(self, unit_square_mesh,
                                               materials, densities, what):
        with pytest.raises(MaterialError, match=f"no {what} .* group 0"):
            assemble_mass(unit_square_mesh, materials, densities)


class TestModalAnalysis:
    E = 30.0e6
    RHO = mass_density(0.283)
    L = 10.0

    def _solve(self, nx=24, n_modes=4):
        mesh = bar_mesh(nx, length=self.L, height=0.5)
        mat = IsotropicElastic(youngs=self.E, poisson=0.0)
        constraints = Constraints()
        # Fixed-free rod: clamp x = 0 fully; suppress the transverse dof
        # everywhere so only axial modes remain.
        for n in mesh.nodes_near(x=0.0):
            constraints.fix_node(n)
        for n in range(mesh.n_nodes):
            if not constraints.is_constrained(n, 1):
                constraints.fix(n, 1)
        return modal_analysis(mesh, {0: mat}, {0: self.RHO}, constraints,
                              n_modes=n_modes)

    def test_fundamental_axial_frequency(self):
        result = self._solve()
        c = math.sqrt(self.E / self.RHO)
        exact = c / (4 * self.L)
        assert result.frequencies_hz[0] == pytest.approx(exact, rel=2e-3)

    def test_overtone_ratio_is_three(self):
        result = self._solve()
        ratio = result.frequencies_hz[1] / result.frequencies_hz[0]
        assert ratio == pytest.approx(3.0, rel=0.02)

    def test_frequencies_ascend(self):
        freqs = self._solve().frequencies_hz
        assert np.all(np.diff(freqs) > 0)

    def test_mode_shape_monotone_for_fundamental(self):
        result = self._solve()
        phi = result.mode_shape(0)
        mesh = result.mesh
        bottom = [n for n in range(mesh.n_nodes)
                  if mesh.nodes[n, 1] == 0.0]
        bottom.sort(key=lambda n: mesh.nodes[n, 0])
        ux = np.abs([phi[2 * n] for n in bottom])
        assert np.all(np.diff(ux) >= -1e-12)

    def test_mode_magnitude_field(self):
        result = self._solve()
        field = result.mode_magnitude(0)
        assert field.n_nodes == result.mesh.n_nodes
        assert "Hz" in field.name
        assert field.min() == pytest.approx(0.0, abs=1e-12)

    def test_mode_plot_through_ospl(self):
        from repro.core.ospl import conplt

        result = self._solve()
        plot = conplt(result.mesh, result.mode_magnitude(1),
                      title="MODE 2")
        assert plot.n_segments() > 0

    def test_unconstrained_rejected(self, unit_square_mesh):
        mat = IsotropicElastic(youngs=1.0, poisson=0.3)
        with pytest.raises(SolverError, match="constraints"):
            modal_analysis(unit_square_mesh, {0: mat}, {0: 1.0},
                           Constraints())

    def test_lumped_mass_close_to_consistent(self):
        consistent = self._solve(n_modes=1).frequencies_hz[0]
        mesh = bar_mesh(24, length=self.L, height=0.5)
        mat = IsotropicElastic(youngs=self.E, poisson=0.0)
        constraints = Constraints()
        for n in mesh.nodes_near(x=0.0):
            constraints.fix_node(n)
        for n in range(mesh.n_nodes):
            if not constraints.is_constrained(n, 1):
                constraints.fix(n, 1)
        lumped = modal_analysis(mesh, {0: mat}, {0: self.RHO},
                                constraints, n_modes=1,
                                lumped_mass=True).frequencies_hz[0]
        assert lumped == pytest.approx(consistent, rel=0.01)
