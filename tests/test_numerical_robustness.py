"""Numerical robustness: the unglamorous cases 1970 analysts hit daily.

Thin elements, large stiffness contrasts, tiny and huge geometric
scales, near-limit mesh sizes -- the substrate must stay accurate or
fail loudly, never silently drift.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.fem.banded import BandedSymmetricMatrix
from repro.fem.materials import IsotropicElastic
from repro.fem.mesh import Mesh
from repro.fem.solve import AnalysisType, StaticAnalysis
from repro.fem.stress import StressComponent


def grid(nx, ny, w, h):
    nodes = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes.append([w * i / nx, h * j / ny])
    elements = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b, c, d = a + 1, a + nx + 2, a + nx + 1
            elements.append([a, b, c])
            elements.append([a, c, d])
    return Mesh(nodes=np.array(nodes), elements=np.array(elements))


def tension(mesh, mat, sigma=100.0, width=None, height=None):
    width = width or mesh.bounding_box().width
    height = height or mesh.bounding_box().height
    an = StaticAnalysis(mesh, {0: mat}, AnalysisType.PLANE_STRESS)
    an.constraints.fix_nodes(mesh.nodes_near(x=0.0), 0)
    an.constraints.fix(mesh.nearest_node(0, 0), 1)
    right = mesh.nodes_near(x=width)
    ys = sorted(mesh.nodes[n, 1] for n in right)
    spacing = ys[1] - ys[0]
    for n in right:
        y = mesh.nodes[n, 1]
        tributary = spacing * (0.5 if y in (ys[0], ys[-1]) else 1.0)
        an.loads.add_force(n, 0, sigma * tributary)
    return an.solve()


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_uniaxial_exact_at_any_scale(self, scale):
        mat = IsotropicElastic(youngs=3.0e7, poisson=0.3)
        mesh = grid(4, 4, 2.0 * scale, 2.0 * scale)
        result = tension(mesh, mat, width=2.0 * scale,
                         height=2.0 * scale)
        sx = result.stresses.element_component(StressComponent.RADIAL)
        assert sx == pytest.approx(np.full(mesh.n_elements, 100.0),
                                   rel=1e-8)

    @pytest.mark.parametrize("youngs", [1.0, 1e3, 1e7, 1e11])
    def test_stress_independent_of_modulus(self, youngs):
        mat = IsotropicElastic(youngs=youngs, poisson=0.3)
        mesh = grid(3, 3, 1.0, 1.0)
        result = tension(mesh, mat, width=1.0, height=1.0)
        sx = result.stresses.element_component(StressComponent.RADIAL)
        assert sx == pytest.approx(np.full(mesh.n_elements, 100.0),
                                   rel=1e-8)


class TestExtremeAspect:
    def test_pathological_aspect_still_exact_for_patch(self):
        # 100:1 elements still pass the constant-stress patch test --
        # the CST's saving grace.
        mat = IsotropicElastic(youngs=1e6, poisson=0.25)
        mesh = grid(4, 4, 100.0, 1.0)
        result = tension(mesh, mat, width=100.0, height=1.0)
        sx = result.stresses.element_component(StressComponent.RADIAL)
        assert sx == pytest.approx(np.full(mesh.n_elements, 100.0),
                                   rel=1e-6)

    def test_banded_solver_conditioning_report(self):
        # Near-incompressible plane strain is the classic CST killer;
        # the solver must still return finite answers.
        mat = IsotropicElastic(youngs=1e6, poisson=0.499)
        mesh = grid(4, 4, 1.0, 1.0)
        an = StaticAnalysis(mesh, {0: mat}, AnalysisType.PLANE_STRAIN)
        an.constraints.fix_nodes(mesh.nodes_near(x=0.0), 0)
        an.constraints.fix(mesh.nearest_node(0, 0), 1)
        an.loads.add_force(mesh.nearest_node(1, 1), 0, 10.0)
        result = an.solve()
        assert np.all(np.isfinite(result.displacements))


class TestStiffnessContrast:
    @pytest.mark.parametrize("ratio", [1e3, 1e6])
    def test_bimaterial_contrast(self, ratio):
        mesh = grid(4, 2, 2.0, 1.0)
        groups = np.zeros(mesh.n_elements, dtype=int)
        for e in range(mesh.n_elements):
            if mesh.nodes[mesh.elements[e], 0].mean() > 1.0:
                groups[e] = 1
        mesh.element_groups = groups
        soft = IsotropicElastic(youngs=1e3, poisson=0.0)
        hard = IsotropicElastic(youngs=1e3 * ratio, poisson=0.0)
        an = StaticAnalysis(mesh, {0: soft, 1: hard},
                            AnalysisType.PLANE_STRESS)
        an.constraints.fix_nodes(mesh.nodes_near(x=0.0), 0)
        an.constraints.fix(mesh.nearest_node(0, 0), 1)
        for n in mesh.nodes_near(x=2.0):
            y = mesh.nodes[n, 1]
            an.loads.add_force(n, 0, 10.0 * (0.25 if y in (0.0, 1.0)
                                             else 0.5))
        result = an.solve()
        end = mesh.nearest_node(2.0, 0.5)
        # Series bars: u = sigma L1/E1 + sigma L2/E2.
        expected = 10.0 / 1e3 + 10.0 / (1e3 * ratio)
        assert result.displacements[2 * end] == pytest.approx(
            expected, rel=1e-6
        )


class TestNearLimitMeshes:
    def test_table1_scale_contour_extraction(self):
        # 798 elements (the OSPL cap ballpark): contouring stays exact.
        from repro.core.ospl import contour_mesh
        from repro.fem.results import NodalField

        mesh = grid(19, 19, 1.0, 1.0)  # 400 nodes, 722 elements
        field = NodalField("f", mesh.nodes[:, 0] * 100.0)
        contours = contour_mesh(mesh, field, interval=10.0)
        for level in contours.nonempty_levels():
            xs = contours.segments_at(level).points[:, 0, 0]
            assert xs == pytest.approx(np.full(xs.shape, level / 100.0))

    def test_large_banded_system_accuracy(self):
        # A 800-dof banded solve checked against scipy.
        mat = IsotropicElastic(youngs=1e6, poisson=0.3)
        mesh = grid(19, 19, 1.0, 1.0)
        an = StaticAnalysis(mesh, {0: mat}, AnalysisType.PLANE_STRESS)
        an.constraints.fix_nodes(mesh.nodes_near(y=0.0), 1)
        an.constraints.fix_nodes(mesh.nodes_near(x=0.0), 0)
        for n in mesh.nodes_near(y=1.0):
            an.loads.add_force(n, 1, -1.0)
        banded = an.solve(solver="banded").displacements
        sparse = an.solve(solver="sparse").displacements
        assert np.allclose(banded, sparse, rtol=1e-8, atol=1e-14)

    def test_zero_pivot_reported_not_garbage(self):
        m = BandedSymmetricMatrix(3, 1)
        m.add(0, 0, 1.0)
        m.add(1, 1, 1.0)
        m.add(0, 1, 1.0)  # makes the 2x2 leading block singular
        m.add(2, 2, 1.0)
        with pytest.raises(SolverError, match="pivot"):
            m.cholesky()
