"""Symmetric banded storage and band Cholesky -- the 1970 solver.

The whole point of IDLZ's renumbering pass is that "the size of the
coefficient matrix bandwidth ... is directly related to the numbering
scheme".  Contemporary codes stored only the band of the symmetric
stiffness and factorised it in O(n * b^2) time, so halving the bandwidth
quartered the solve cost.  This module reproduces that solver so the
renumbering benchmark (claim C2 in DESIGN.md) measures the same quantity
the paper cared about.

Storage: ``band[d, j] = A[j + d, j]`` for ``0 <= d <= hb`` -- LAPACK's
lower band storage, so the factor and substitution are LAPACK's band
Cholesky (``dpbtrf`` / ``dpbtrs``) on the very array assembly fills.
Entries outside the matrix are kept at zero.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from repro import obs
from repro.errors import SolverError
from repro.obs.health import solver_health


class BandedSymmetricMatrix:
    """A symmetric matrix stored by its lower band."""

    def __init__(self, n: int, half_bandwidth: int) -> None:
        if n <= 0:
            raise SolverError(f"matrix order must be positive, got {n}")
        if half_bandwidth < 0:
            raise SolverError("half bandwidth must be non-negative")
        self.n = n
        self.hb = min(half_bandwidth, n - 1)
        self.band = np.zeros((self.hb + 1, n))

    # ------------------------------------------------------------------
    # Assembly interface
    # ------------------------------------------------------------------
    def add(self, i: int, j: int, value: float) -> None:
        """Accumulate ``value`` into A[i, j] (symmetric; store lower)."""
        if i < j:
            i, j = j, i
        d = i - j
        if d > self.hb:
            raise SolverError(
                f"entry ({i}, {j}) lies outside the declared half "
                f"bandwidth {self.hb}"
            )
        self.band[d, j] += value

    def get(self, i: int, j: int) -> float:
        if i < j:
            i, j = j, i
        d = i - j
        if d > self.hb:
            return 0.0
        return float(self.band[d, j])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product A @ x straight from band storage, O(n * hb)."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise SolverError(f"vector length {x.shape[0]} != order {self.n}")
        y = self.band[0] * x
        for d in range(1, self.hb + 1):
            m = self.n - d
            if m <= 0:
                break
            y[d:] += self.band[d, :m] * x[:m]
            y[:m] += self.band[d, :m] * x[d:]
        return y

    def to_dense(self) -> np.ndarray:
        """Expand to a dense symmetric array (testing only)."""
        a = np.zeros((self.n, self.n))
        for d in range(self.hb + 1):
            for j in range(self.n - d):
                a[j + d, j] = self.band[d, j]
                a[j, j + d] = self.band[d, j]
        return a

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "BandedSymmetricMatrix":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise SolverError("from_dense needs a square matrix")
        if not np.allclose(a, a.T, atol=1e-10 * (1 + np.abs(a).max())):
            raise SolverError("from_dense needs a symmetric matrix")
        hb = 0
        nz = np.nonzero(a)
        if nz[0].size:
            hb = int(np.max(np.abs(nz[0] - nz[1])))
        m = cls(n, hb)
        for j in range(n):
            top = min(n, j + m.hb + 1)
            m.band[: top - j, j] = a[j:top, j]
        return m

    @classmethod
    def from_triplets(cls, n: int, half_bandwidth: int, rows: np.ndarray,
                      cols: np.ndarray, vals: np.ndarray
                      ) -> "BandedSymmetricMatrix":
        """Sum ``vals`` at (``rows``, ``cols``), keeping the lower band.

        Duplicate entries accumulate in triplet order.
        """
        m = cls(n, half_bandwidth)
        lower = rows >= cols
        np.add.at(m.band, (rows[lower] - cols[lower], cols[lower]),
                  vals[lower])
        return m

    # ------------------------------------------------------------------
    # Modification for boundary conditions
    # ------------------------------------------------------------------
    def constrain_dof(self, k: int, rhs: np.ndarray, value: float = 0.0) -> None:
        """Impose x[k] = value by row/column elimination inside the band.

        Off-band couplings are impossible by construction, so elimination
        keeps the band intact -- the trick every banded 1970 code used.
        ``rhs`` is adjusted in place for a non-zero prescribed value.
        """
        hb, band = self.hb, self.band
        # Column k holds A[k+d, k]; row k appears as A[k, k-d] = band[d, k-d].
        for d in range(1, hb + 1):
            i = k + d
            if i < self.n:
                coupling = band[d, k]
                if coupling != 0.0:
                    rhs[i] -= coupling * value
                    band[d, k] = 0.0
            j = k - d
            if j >= 0:
                coupling = band[d, j]
                if coupling != 0.0:
                    rhs[j] -= coupling * value
                    band[d, j] = 0.0
        band[0, k] = 1.0
        rhs[k] = value

    # ------------------------------------------------------------------
    # Factorisation and solution
    # ------------------------------------------------------------------
    def cholesky(self) -> "BandedCholeskyFactor":
        """Band Cholesky A = L L^T by LAPACK ``dpbtrf``; O(n * hb^2).

        ``band`` is already LAPACK's lower band storage, so the factor
        works on it as stored (on a copy; the matrix is left intact).
        Raises :class:`SolverError` on a non-positive pivot, which for a
        stiffness matrix means the structure is insufficiently restrained
        (a rigid-body mode) or the mesh is defective.
        """
        n, hb = self.n, self.hb
        lband, info = dpbtrf(self.band, lower=1)
        if info > 0:
            # dpbtrf leaves the failed pivot on the diagonal it stopped at.
            raise SolverError(
                f"non-positive pivot {lband[0, info - 1]:g} at equation "
                f"{info - 1}; the system is singular or indefinite (is the "
                "structure restrained against rigid-body motion?)"
            )
        if obs.health_enabled():
            # lband[0] holds sqrt(pivot); square back for the D entries.
            pivots = lband[0] * lband[0]
            obs.health("fem.cholesky.banded", solver_health(
                pivot_min=float(pivots.min()),
                pivot_max=float(pivots.max()),
                fillin=n * (hb + 1),
                n=n,
                half_bandwidth=hb,
            ))
        return BandedCholeskyFactor(n, hb, lband)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Factor and solve in one call."""
        return self.cholesky().solve(rhs)


class BandedCholeskyFactor:
    """The lower-triangular band factor L with A = L L^T."""

    def __init__(self, n: int, hb: int, lband: np.ndarray) -> None:
        self.n = n
        self.hb = hb
        self.lband = lband

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs by band substitution (LAPACK ``dpbtrs``)."""
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.n:
            raise SolverError(f"rhs length {b.shape[0]} != order {self.n}")
        x: np.ndarray = dpbtrs(self.lband, b, lower=1)[0]
        return x
