"""Skyline (profile / envelope) storage and solver.

The banded scheme stores a fixed-width band; the *skyline* scheme --
the other storage 1970s production codes used -- stores each column only
from its first non-zero down to the diagonal, so a mesh with a few long
couplings does not pay for them everywhere.  Renumbering helps both, but
they reward different orderings: RCM minimises bandwidth, while the
profile is what the skyline pays for.  The ablation benchmark compares
all three solvers (banded, skyline, scipy sparse) on the same systems.

Storage: ``columns[j]`` holds A[top_j .. j, j] where ``top_j`` is the row
of the first structural non-zero in column j; ``tops[j] = top_j``.
Factorisation is the classic column-oriented Crout/Cholesky within the
envelope (the envelope is closed under Cholesky, so no fill outside it).
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Sequence

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.fem.assembly import stiffness_triplets
from repro.fem.mesh import Mesh
from repro.obs.health import solver_health


class SkylineMatrix:
    """A symmetric matrix stored by its column envelope."""

    def __init__(self, n: int, tops: Sequence[int]) -> None:
        if n <= 0:
            raise SolverError(f"matrix order must be positive, got {n}")
        if len(tops) != n:
            raise SolverError("need one envelope top per column")
        self.n = n
        self.tops: List[int] = []
        for j, top in enumerate(tops):
            if top < 0 or top > j:
                raise SolverError(
                    f"column {j}: envelope top {top} outside [0, {j}]"
                )
            self.tops.append(int(top))
        self.columns: List[np.ndarray] = [
            np.zeros(j - self.tops[j] + 1) for j in range(n)
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SkylineMatrix":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise SolverError("from_dense needs a square matrix")
        if not np.allclose(a, a.T, atol=1e-10 * (1 + np.abs(a).max())):
            raise SolverError("from_dense needs a symmetric matrix")
        tops = []
        for j in range(n):
            nz = np.nonzero(a[: j + 1, j])[0]
            tops.append(int(nz[0]) if nz.size else j)
        m = cls(n, tops)
        for j in range(n):
            m.columns[j][:] = a[m.tops[j]: j + 1, j]
        return m

    @classmethod
    def from_triplets(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                      vals: np.ndarray) -> "SkylineMatrix":
        """Sum ``vals`` at (``rows``, ``cols``) inside the envelope they span.

        Each column's top is the smallest row coupled to it; duplicate
        entries accumulate in triplet order.
        """
        upper = rows <= cols
        rows, cols, vals = rows[upper], cols[upper], vals[upper]
        tops = np.arange(n)
        np.minimum.at(tops, cols, rows)
        starts = np.concatenate(([0], np.cumsum(np.arange(n) - tops + 1)))
        flat = np.zeros(int(starts[-1]))
        np.add.at(flat, starts[cols] + rows - tops[cols], vals)
        m = cls(n, tops.tolist())
        m.columns = np.split(flat, starts[1:-1])
        return m

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------
    def add(self, i: int, j: int, value: float) -> None:
        if i > j:
            i, j = j, i
        if i < self.tops[j]:
            raise SolverError(
                f"entry ({i}, {j}) lies above column {j}'s envelope "
                f"top {self.tops[j]}"
            )
        self.columns[j][i - self.tops[j]] += value

    def get(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        if i < self.tops[j]:
            return 0.0
        return float(self.columns[j][i - self.tops[j]])

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for j in range(self.n):
            top = self.tops[j]
            a[top: j + 1, j] = self.columns[j]
            a[j, top: j + 1] = self.columns[j]
        return a

    def profile(self) -> int:
        """Stored off-diagonal entries: the envelope size."""
        return sum(j - self.tops[j] for j in range(self.n))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product A @ x from envelope storage, O(profile)."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise SolverError(f"vector length {x.shape[0]} != order {self.n}")
        y = np.zeros(self.n)
        for j in range(self.n):
            top = self.tops[j]
            col = self.columns[j]
            y[j] += float(np.dot(col, x[top:j + 1]))
            if top < j:
                # The symmetric (strictly-lower) images of column j.
                y[top:j] += col[: j - top] * x[j]
        return y

    # ------------------------------------------------------------------
    # Boundary conditions
    # ------------------------------------------------------------------
    def constrain(self, dofs: np.ndarray, values: np.ndarray,
                  rhs: np.ndarray) -> None:
        """Impose x[dofs] = values by envelope-preserving elimination.

        One sweep over the columns that hold a fixed dof or a coupling
        to one: ``K_fc u_c`` moves to ``rhs``, those couplings are
        zeroed, a fixed column keeps only a unit diagonal, and
        ``rhs[dofs] = values``; in place.
        """
        dofs = np.asarray(dofs, dtype=int)
        tops = np.asarray(self.tops)
        fixed = np.zeros(self.n, dtype=bool)
        fixed[dofs] = True
        prescribed = np.zeros(self.n)
        prescribed[dofs] = values
        count = np.concatenate(([0], np.cumsum(fixed)))
        touched = fixed | (count[:-1] > count[tops])
        for j in np.flatnonzero(touched).tolist():
            top = self.tops[j]
            col = self.columns[j]
            if fixed[j]:
                rhs[top:j] -= col[: j - top] * prescribed[j]
                col[:] = 0.0
                col[j - top] = 1.0
            else:
                hit = np.flatnonzero(fixed[top:j])
                rhs[j] -= float(np.dot(col[hit], prescribed[top + hit]))
                col[hit] = 0.0
        rhs[dofs] = values

    # ------------------------------------------------------------------
    # Factorisation and solution
    # ------------------------------------------------------------------
    def cholesky(self) -> "SkylineCholeskyFactor":
        """Envelope Cholesky A = L L^T (stored column-wise as U = L^T)."""
        n = self.n
        tops = self.tops
        cols = [c.copy() for c in self.columns]
        diag = np.zeros(n)
        for j in range(n):
            top_j = tops[j]
            col_j = cols[j]
            for i in range(top_j, j):
                # u_ij = (a_ij - sum_{k} u_ki u_kj) / d_i   (k >= both tops)
                top_i = tops[i]
                start = max(top_i, top_j)
                s = col_j[i - top_j]
                if start < i:
                    vi = cols[i][start - top_i: i - top_i]
                    vj = col_j[start - top_j: i - top_j]
                    s -= float(np.dot(vi, vj))
                col_j[i - top_j] = s / diag[i]
            pivot = col_j[j - top_j]
            if j > top_j:
                v = col_j[: j - top_j]
                pivot -= float(np.dot(v, v))
            if pivot <= 0.0:
                raise SolverError(
                    f"non-positive pivot {pivot:g} at equation {j}; the "
                    "system is singular or indefinite"
                )
            diag[j] = math.sqrt(pivot)
            col_j[j - top_j] = diag[j]
        if obs.health_enabled():
            pivots = diag * diag
            obs.health("fem.cholesky.skyline", solver_health(
                pivot_min=float(pivots.min()),
                pivot_max=float(pivots.max()),
                fillin=self.profile() + n,
                n=n,
            ))
        return SkylineCholeskyFactor(n, tops, cols)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.cholesky().solve(rhs)


class SkylineCholeskyFactor:
    """Envelope factor: columns hold L^T's columns (U) with diagonals."""

    def __init__(self, n: int, tops: List[int],
                 cols: List[np.ndarray]) -> None:
        self.n = n
        self.tops = tops
        self.cols = cols

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n, tops, cols = self.n, self.tops, self.cols
        y = np.asarray(rhs, dtype=float).copy()
        if y.shape[0] != n:
            raise SolverError(f"rhs length {y.shape[0]} != order {n}")
        # Forward: L y = b, where L's row j is column j of U transposed.
        for j in range(n):
            top = tops[j]
            if top < j:
                y[j] -= float(np.dot(cols[j][: j - top], y[top:j]))
            y[j] /= cols[j][j - top]
        # Back: L^T x = y (columns of U drive the updates).
        for j in range(n - 1, -1, -1):
            top = tops[j]
            y[j] /= cols[j][j - top]
            if top < j:
                y[top:j] -= cols[j][: j - top] * y[j]
        return y


def assemble_skyline(mesh: Mesh, materials: Mapping[int, Any],
                     analysis_type: str) -> SkylineMatrix:
    """Assemble a global stiffness in skyline storage."""
    with obs.span("fem.assemble.skyline", elements=mesh.n_elements):
        ndof = 2 * mesh.n_nodes
        matrix = SkylineMatrix.from_triplets(
            ndof, *stiffness_triplets(mesh, materials, analysis_type))
    obs.gauge("fem.ndof", ndof)
    obs.gauge("fem.solver_fillin", matrix.profile() + ndof)
    return matrix
