"""Unit tests for banded storage and the band Cholesky solver."""

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrf, dpbtrs

from repro.errors import SolverError
from repro.fem.banded import BLOCK, BandedSymmetricMatrix


def spd_matrix(n: int, hb: int, seed: int = 0) -> np.ndarray:
    """A random SPD matrix with the given half bandwidth."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - hb), i + 1):
            a[i, j] = rng.normal()
            a[j, i] = a[i, j]
    # Diagonal dominance guarantees positive definiteness.
    a += np.eye(n) * (np.abs(a).sum(axis=1).max() + 1.0)
    return a


class TestStorage:
    def test_add_and_get(self):
        m = BandedSymmetricMatrix(5, 2)
        m.add(3, 1, 7.0)
        assert m.get(3, 1) == 7.0
        assert m.get(1, 3) == 7.0

    def test_add_accumulates(self):
        m = BandedSymmetricMatrix(4, 1)
        m.add(1, 1, 2.0)
        m.add(1, 1, 3.0)
        assert m.get(1, 1) == 5.0

    def test_out_of_band_entry_rejected(self):
        m = BandedSymmetricMatrix(5, 1)
        with pytest.raises(SolverError, match="bandwidth"):
            m.add(4, 0, 1.0)

    def test_out_of_band_get_is_zero(self):
        m = BandedSymmetricMatrix(5, 1)
        assert m.get(4, 0) == 0.0

    def test_dense_round_trip(self):
        a = spd_matrix(8, 3)
        m = BandedSymmetricMatrix.from_dense(a)
        assert np.allclose(m.to_dense(), a)

    def test_from_dense_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(SolverError, match="symmetric"):
            BandedSymmetricMatrix.from_dense(a)

    def test_bandwidth_clamped_to_order(self):
        m = BandedSymmetricMatrix(3, 10)
        assert m.hb == 2

    def test_invalid_order_rejected(self):
        with pytest.raises(SolverError):
            BandedSymmetricMatrix(0, 1)


class TestCholesky:
    @pytest.mark.parametrize("n,hb", [(5, 1), (10, 3), (20, 7), (15, 14)])
    def test_solve_matches_numpy(self, n, hb):
        a = spd_matrix(n, hb, seed=n * 31 + hb)
        rhs = np.arange(1.0, n + 1.0)
        m = BandedSymmetricMatrix.from_dense(a)
        x = m.solve(rhs)
        assert np.allclose(x, np.linalg.solve(a, rhs), rtol=1e-9)

    def test_factor_reused_for_multiple_rhs(self):
        a = spd_matrix(12, 4)
        m = BandedSymmetricMatrix.from_dense(a)
        factor = m.cholesky()
        for seed in range(3):
            rhs = np.random.default_rng(seed).normal(size=12)
            assert np.allclose(factor.solve(rhs), np.linalg.solve(a, rhs))

    def test_diagonal_matrix(self):
        m = BandedSymmetricMatrix(4, 0)
        for i, d in enumerate([1.0, 2.0, 4.0, 8.0]):
            m.add(i, i, d)
        x = m.solve(np.array([1.0, 2.0, 4.0, 8.0]))
        assert x == pytest.approx([1, 1, 1, 1])

    def test_indefinite_matrix_rejected(self):
        m = BandedSymmetricMatrix(2, 1)
        m.add(0, 0, 1.0)
        m.add(1, 1, -1.0)
        with pytest.raises(SolverError,
                           match=r"pivot -1 at equation 1\b"):
            m.cholesky()

    def test_singular_matrix_rejected(self):
        m = BandedSymmetricMatrix(3, 1)
        m.add(0, 0, 1.0)
        m.add(1, 1, 1.0)
        # Row 2 left entirely zero.
        with pytest.raises(SolverError, match=r"at equation 2\b"):
            m.cholesky()

    def test_wrong_rhs_length_rejected(self):
        m = BandedSymmetricMatrix.from_dense(spd_matrix(4, 1))
        factor = m.cholesky()
        with pytest.raises(SolverError, match="length"):
            factor.solve(np.ones(5))


def random_band(n: int, hb: int, seed: int) -> BandedSymmetricMatrix:
    """A random SPD band matrix (diagonally dominant) in band storage."""
    return BandedSymmetricMatrix.from_dense(spd_matrix(n, hb, seed))


def lapack_solve(m: BandedSymmetricMatrix, rhs: np.ndarray) -> np.ndarray:
    """Reference: LAPACK's band Cholesky on the same storage."""
    lband, info = dpbtrf(m.band, lower=1)
    assert info == 0
    return dpbtrs(lband, rhs, lower=1)[0]


#: (n, hb): one to about 200 equations; hb of 0, at least n - 1, and
#: wider than a block; orders on and off a multiple of the block width.
FACTOR_CASES = [
    (1, 0), (1, 3), (2, 1), (5, 0), (7, 6), (31, 2), (BLOCK, 5),
    (BLOCK + 1, 0), (BLOCK + 1, BLOCK), (50, 49), (64, 64), (65, 7),
    (97, BLOCK + 13), (130, 70), (200, 3), (200, 45), (201, 200),
]


class TestBlockedFactor:
    """The numpy blocked factor against LAPACK and dense numpy."""

    @pytest.mark.parametrize("n,hb", FACTOR_CASES)
    def test_matches_lapack_and_dense(self, n, hb):
        m = random_band(n, hb, seed=7 * n + hb)
        rhs = np.random.default_rng(n).normal(size=(n, 3))
        x = m.cholesky().solve(rhs)
        reference = lapack_solve(m, rhs)
        assert np.allclose(x, reference, rtol=1e-12, atol=0.0)
        assert np.allclose(x, np.linalg.solve(m.to_dense(), rhs),
                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n,hb", FACTOR_CASES)
    def test_matvec_of_solve_returns_rhs(self, n, hb):
        m = random_band(n, hb, seed=n + 3 * hb)
        b = np.random.default_rng(hb).normal(size=n)
        assert np.abs(m.matvec(m.solve(b)) - b).max() <= 1e-12

    def test_factor_exposes_order_and_bandwidth(self):
        factor = random_band(70, 9, seed=1).cholesky()
        assert (factor.n, factor.hb) == (70, 9)

    def test_matrix_left_intact(self):
        m = random_band(40, 6, seed=2)
        band = m.band.copy()
        m.cholesky()
        assert np.array_equal(m.band, band)

    @pytest.mark.parametrize("n,hb", [(10, 3), (80, 5), (80, 40), (150, 60)])
    @pytest.mark.parametrize("where", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["indefinite", "zero-row"])
    def test_failed_equation_matches_lapack(self, n, hb, where, kind):
        m = random_band(n, hb, seed=n * hb)
        k = min(int(where * n), n - 1)
        if kind == "indefinite":
            m.band[0, k] = -m.band[0, k]
        else:
            m.band[:, k] = 0.0
            for d in range(1, m.hb + 1):
                if k - d >= 0:
                    m.band[d, k - d] = 0.0
        _, info = dpbtrf(m.band, lower=1)
        assert info > 0
        with pytest.raises(SolverError,
                           match=rf"pivot \S+ at equation {info - 1}\b"):
            m.cholesky()

    def test_tiny_positive_pivot_rejected(self):
        # The second pivot is exactly 2**-52 > 0, so a plain Cholesky
        # accepts it; it lies below n * eps of its diagonal, so the
        # factor refuses the (numerically singular) matrix.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]])
        np.linalg.cholesky(a)
        with pytest.raises(SolverError, match=r"pivot 2.2\d*e-16 at "
                                              r"equation 1\b"):
            BandedSymmetricMatrix.from_dense(a).cholesky()


class TestConstrainDof:
    def test_constraint_applied(self):
        a = spd_matrix(6, 2, seed=9)
        rhs = np.ones(6)
        m = BandedSymmetricMatrix.from_dense(a)
        m.constrain(np.array([2]), np.array([0.5]), rhs)
        x = m.solve(rhs)
        assert x[2] == pytest.approx(0.5)

    def test_constrained_solution_matches_reduced_system(self):
        a = spd_matrix(6, 2, seed=4)
        rhs = np.arange(6.0)
        m = BandedSymmetricMatrix.from_dense(a)
        m.constrain(np.array([0]), np.array([2.0]), rhs)
        x = m.solve(rhs)
        # Reference: eliminate dof 0 from the dense system.
        free = np.arange(1, 6)
        x_ref = np.linalg.solve(
            a[np.ix_(free, free)],
            np.arange(6.0)[free] - a[np.ix_(free, [0])].ravel() * 2.0,
        )
        assert np.allclose(x[1:], x_ref)

    def test_several_dofs_in_one_pass(self):
        a = spd_matrix(9, 3, seed=6)
        rhs = np.arange(9.0)
        fixed = np.array([0, 4, 5, 8])
        values = np.array([1.0, -0.5, 0.0, 2.0])
        m = BandedSymmetricMatrix.from_dense(a)
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

    def test_band_preserved_after_constraint(self):
        a = spd_matrix(6, 2, seed=5)
        rhs = np.zeros(6)
        m = BandedSymmetricMatrix.from_dense(a)
        m.constrain(np.array([3]), np.array([0.0]), rhs)
        dense = m.to_dense()
        assert dense[3, 3] == 1.0
        assert np.count_nonzero(dense[3, :]) == 1
        assert np.count_nonzero(dense[:, 3]) == 1

