"""Every constrained solve against one dense reference.

Each consumer of :meth:`Constraints.partition` -- the banded, skyline
and sparse static solves, the steady and transient conduction solves
and reaction recovery -- must match ``u_f = K_ff^-1 (f_f - K_fc u_c)``
built here with dense numpy from the constraint dict itself, with
non-zero prescribed values, and hold every fixed dof at exactly its
value.
"""

import numpy as np
import pytest

from repro.fem.assembly import assemble_sparse
from repro.fem.materials import IsotropicElastic, ThermalMaterial
from repro.fem.mesh import Mesh
from repro.fem.reactions import compute_reactions
from repro.fem.solve import AnalysisType, StaticAnalysis
from repro.fem.thermal import ThermalAnalysis

MAT = IsotropicElastic(youngs=1.0e4, poisson=0.3)
TH = ThermalMaterial(conductivity=2.0, density=3.0, specific_heat=0.5)
RTOL = 1e-12


def grid(nx=4, ny=3, w=2.0, h=1.5) -> Mesh:
    """An nx x ny lattice of right triangles."""
    x, y = np.meshgrid(np.linspace(0.0, w, nx + 1),
                       np.linspace(0.0, h, ny + 1))
    nodes = np.column_stack((x.ravel(), y.ravel()))
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    elements = np.concatenate((np.column_stack((a, b, c)),
                               np.column_stack((a, c, d))))
    return Mesh(nodes=nodes, elements=elements)


def dense_reference(k: np.ndarray, f: np.ndarray, prescribed: dict,
                    dofs_per_node: int) -> tuple:
    """(u, fixed) of the dense eliminated system."""
    fixed = np.array(sorted(node * dofs_per_node + d
                            for node, d in prescribed), dtype=int)
    values = np.array([prescribed[divmod(dof, dofs_per_node)]
                       for dof in fixed])
    free = np.setdiff1d(np.arange(len(f)), fixed)
    u = np.zeros(len(f))
    u[fixed] = values
    u[free] = np.linalg.solve(k[np.ix_(free, free)],
                              f[free] - k[np.ix_(free, fixed)] @ values)
    return u, fixed


def assert_matches(got: np.ndarray, want: np.ndarray,
                   fixed: np.ndarray) -> None:
    np.testing.assert_allclose(got, want, rtol=RTOL,
                               atol=RTOL * np.abs(want).max())
    np.testing.assert_array_equal(got[fixed], want[fixed])


def static_case() -> StaticAnalysis:
    mesh = grid()
    an = StaticAnalysis(mesh, {0: MAT}, AnalysisType.PLANE_STRESS)
    # A clamped left edge with a prescribed shear slip, a pulled corner.
    for n in mesh.nodes_near(x=0.0):
        an.constraints.fix(n, 0, 0.0)
        an.constraints.fix(n, 1, 1e-3 * mesh.nodes[n, 1])
    an.constraints.fix(mesh.nearest_node(2.0, 1.5), 0, 2e-3)
    an.loads.add_force(mesh.nearest_node(2.0, 0.0), 1, -50.0)
    return an


@pytest.mark.parametrize("solver", ["banded", "skyline", "sparse"])
def test_static_solves_match_dense_elimination(solver):
    an = static_case()
    k = assemble_sparse(an.mesh, {0: MAT}, "plane_stress").toarray()
    f = an.loads.vector(an.mesh.n_nodes)
    want, fixed = dense_reference(k, f, an.constraints.prescribed, 2)
    got = an.solve(solver=solver).displacements
    assert_matches(got, want, fixed)


def test_reactions_match_dense_residual():
    an = static_case()
    k = assemble_sparse(an.mesh, {0: MAT}, "plane_stress").toarray()
    f = an.loads.vector(an.mesh.n_nodes)
    u, fixed = dense_reference(k, f, an.constraints.prescribed, 2)
    report = compute_reactions(an.mesh, {0: MAT}, AnalysisType.PLANE_STRESS,
                               an.constraints, an.loads, u)
    want = np.zeros_like(u)
    want[fixed] = (k @ u - f)[fixed]
    np.testing.assert_allclose(report.reactions, want, rtol=RTOL,
                               atol=RTOL * np.abs(want).max())
    assert report.constrained_dofs == fixed.tolist()


def thermal_case() -> ThermalAnalysis:
    mesh = grid()
    an = ThermalAnalysis(mesh, {0: TH})
    an.fix_temperature(mesh.nodes_near(x=0.0), 100.0)
    an.fix_temperature(mesh.nodes_near(x=2.0), 20.0)
    an.fix_temperature([mesh.nearest_node(1.0, 0.5)], 55.0)
    return an


def test_steady_conduction_matches_dense_elimination():
    an = thermal_case()
    k = an.conductivity.toarray()
    want, fixed = dense_reference(k, np.zeros(len(k)),
                                  an.constraints.prescribed, 1)
    got = an.solve_steady().values
    assert_matches(got, want, fixed)


def test_transient_step_matches_dense_elimination():
    an = thermal_case()
    dt, initial = 0.1, 10.0
    history = an.solve_transient(dt=dt, n_steps=1, initial=initial)
    capacity = an.capacity.toarray() / dt
    t0 = np.full(an.mesh.n_nodes, initial)
    for (node, _), value in an.constraints.prescribed.items():
        t0[node] = value
    np.testing.assert_array_equal(history.snapshots[0], t0)
    want, fixed = dense_reference(capacity + an.conductivity.toarray(),
                                  capacity @ t0,
                                  an.constraints.prescribed, 1)
    assert_matches(history.snapshots[1], want, fixed)
