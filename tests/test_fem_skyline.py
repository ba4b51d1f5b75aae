"""Unit tests for the skyline (envelope) solver."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.fem.materials import IsotropicElastic
from repro.fem.mesh import Mesh
from repro.fem.skyline import SkylineMatrix, assemble_skyline
from repro.fem.solve import AnalysisType, StaticAnalysis


def spd(n, hb, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - hb), i + 1):
            a[i, j] = rng.normal()
            a[j, i] = a[i, j]
    a += np.eye(n) * (np.abs(a).sum() + 1.0)
    return a


class TestStorage:
    def test_envelope_validation(self):
        with pytest.raises(SolverError):
            SkylineMatrix(3, [0, 2, 0])  # top above the diagonal

    def test_add_and_get(self):
        m = SkylineMatrix(4, [0, 0, 1, 2])
        m.add(1, 2, 5.0)
        assert m.get(1, 2) == 5.0
        assert m.get(2, 1) == 5.0

    def test_above_envelope_rejected(self):
        m = SkylineMatrix(4, [0, 1, 2, 3])  # diagonal-only envelope
        with pytest.raises(SolverError, match="envelope"):
            m.add(0, 3, 1.0)

    def test_outside_envelope_reads_zero(self):
        m = SkylineMatrix(4, [0, 1, 2, 3])
        assert m.get(0, 3) == 0.0

    def test_dense_round_trip(self):
        a = spd(7, 3, seed=5)
        m = SkylineMatrix.from_dense(a)
        assert np.allclose(m.to_dense(), a)

    def test_profile(self):
        m = SkylineMatrix(4, [0, 0, 2, 1])
        assert m.profile() == 0 + 1 + 0 + 2


class TestSolve:
    @pytest.mark.parametrize("n,hb", [(4, 1), (9, 3), (16, 5), (12, 11)])
    def test_matches_numpy(self, n, hb):
        a = spd(n, hb, seed=n + hb)
        rhs = np.arange(1.0, n + 1)
        m = SkylineMatrix.from_dense(a)
        assert np.allclose(m.solve(rhs), np.linalg.solve(a, rhs),
                           rtol=1e-9)

    def test_ragged_envelope(self):
        # A genuinely ragged profile (not a uniform band).
        a = np.diag([4.0, 5.0, 6.0, 7.0, 8.0])
        a[0, 3] = a[3, 0] = 1.0
        a[2, 4] = a[4, 2] = 0.5
        rhs = np.ones(5)
        m = SkylineMatrix.from_dense(a)
        assert np.allclose(m.solve(rhs), np.linalg.solve(a, rhs))

    def test_factor_reuse(self):
        a = spd(10, 4, seed=2)
        m = SkylineMatrix.from_dense(a)
        factor = m.cholesky()
        for seed in range(3):
            rhs = np.random.default_rng(seed).normal(size=10)
            assert np.allclose(factor.solve(rhs), np.linalg.solve(a, rhs))

    def test_indefinite_rejected(self):
        a = np.diag([1.0, -1.0])
        m = SkylineMatrix.from_dense(a)
        with pytest.raises(SolverError, match="pivot"):
            m.cholesky()

    def test_constrain_dof(self):
        a = spd(6, 2, seed=9)
        rhs = np.ones(6)
        m = SkylineMatrix.from_dense(a)
        m.constrain(np.array([2]), np.array([0.75]), rhs)
        x = m.solve(rhs)
        assert x[2] == pytest.approx(0.75)
        # Cross-check against dense elimination.
        free = [0, 1, 3, 4, 5]
        x_ref = np.linalg.solve(
            a[np.ix_(free, free)],
            np.ones(6)[free] - a[np.ix_(free, [2])].ravel() * 0.75,
        )
        assert np.allclose(x[free], x_ref)

    def test_several_dofs_in_one_pass(self):
        a = spd(9, 3, seed=6)
        a[1, 4] = a[4, 1] = 0.0  # ragged envelope
        rhs = np.arange(9.0)
        fixed = np.array([0, 4, 5, 8])
        values = np.array([1.0, -0.5, 0.0, 2.0])
        m = SkylineMatrix.from_dense(a)
        m.constrain(fixed, values, rhs)
        x = m.solve(rhs)
        free = np.setdiff1d(np.arange(9), fixed)
        x_ref = np.linalg.solve(
            a[np.ix_(free, free)],
            np.arange(9.0)[free] - a[np.ix_(free, fixed)] @ values,
        )
        np.testing.assert_allclose(x[free], x_ref, rtol=1e-12)
        np.testing.assert_array_equal(x[fixed], values)
        dense = m.to_dense()
        np.testing.assert_array_equal(dense[np.ix_(fixed, fixed)],
                                      np.eye(4))
        assert not dense[np.ix_(free, fixed)].any()


class TestAssembly:
    def test_skyline_matches_banded_solution(self, unit_square_mesh):
        mat = IsotropicElastic(youngs=1000.0, poisson=0.3)
        analysis = StaticAnalysis(unit_square_mesh, {0: mat},
                                  AnalysisType.PLANE_STRESS)
        analysis.constraints.fix_nodes([0, 3], 0)
        analysis.constraints.fix(0, 1)
        analysis.loads.add_force(1, 0, 0.5).add_force(2, 0, 0.5)
        reference = analysis.solve()

        matrix = assemble_skyline(unit_square_mesh, {0: mat},
                                  "plane_stress")
        rhs = analysis.loads.vector(unit_square_mesh.n_nodes)
        part = analysis.constraints.partition(unit_square_mesh.n_nodes)
        matrix.constrain(part.fixed, part.values, rhs)
        x = matrix.solve(rhs)
        assert np.allclose(x, reference.displacements, atol=1e-12)

    def test_skyline_profile_not_worse_than_band(self, strip_mesh):
        mat = IsotropicElastic(youngs=1000.0, poisson=0.3)
        from repro.fem.assembly import assemble_banded

        sky = assemble_skyline(strip_mesh, {0: mat}, "plane_stress")
        band = assemble_banded(strip_mesh, {0: mat}, "plane_stress")
        band_storage = band.hb * band.n
        assert sky.profile() <= band_storage
