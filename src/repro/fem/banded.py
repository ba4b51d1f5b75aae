"""Symmetric banded storage and band Cholesky -- the 1970 solver.

The whole point of IDLZ's renumbering pass is that "the size of the
coefficient matrix bandwidth ... is directly related to the numbering
scheme".  Contemporary codes stored only the band of the symmetric
stiffness and factorised it in O(n * b^2) time, so halving the bandwidth
quartered the solve cost.  This module reproduces that solver so the
renumbering benchmark (claim C2 in DESIGN.md) measures the same quantity
the paper cared about.

Storage: ``band[d, j] = A[j + d, j]`` for ``0 <= d <= hb`` (LAPACK's
lower band layout).  Entries outside the matrix are kept at zero.  The
factor is a right-looking blocked band Cholesky in numpy: it eliminates
``BLOCK`` columns per step with numpy's dense kernels, so its step count
is ``n / BLOCK`` whatever the bandwidth, and it needs no scipy.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.obs.health import solver_health

#: Columns the factor eliminates per step.
BLOCK = 32


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
    def constrain(self, dofs: np.ndarray, values: np.ndarray,
                  rhs: np.ndarray) -> None:
        """Impose x[dofs] = values by row/column elimination, in place.

        One pass for every fixed dof: ``K_fc u_c`` moves to ``rhs`` by
        one band product, the fixed rows and columns are zeroed with a
        unit diagonal, and ``rhs[dofs] = values``.  Off-band couplings
        are impossible by construction, so elimination keeps the band
        intact -- the trick every banded 1970 code used.
        """
        band = self.band
        dofs = np.asarray(dofs, dtype=int)
        if np.any(values):
            prescribed = np.zeros(self.n)
            prescribed[dofs] = values
            rhs -= self.matvec(prescribed)
        # band[d, j] couples equations j and j + d: zero the fixed
        # columns, then each diagonal's entries in the fixed rows.
        band[:, dofs] = 0.0
        for d in range(1, self.hb + 1):
            band[d, dofs[dofs >= d] - d] = 0.0
        band[0, dofs] = 1.0
        rhs[dofs] = values

    # ------------------------------------------------------------------
    # Factorisation and solution
    # ------------------------------------------------------------------
    def cholesky(self) -> "BandedCholeskyFactor":
        """Band Cholesky A = L L^T, ``BLOCK`` columns a step; O(n * hb^2).

        Each step gathers the lower window of its ``m = BLOCK`` columns
        and the ``hb`` rows below them, factors the diagonal block
        ``A11 = L11 L11^T`` with ``np.linalg.cholesky``, forms the panel
        ``L21 = A21 L11^-T`` and carries the trailing block
        ``A22 - L21 L21^T`` into the next step's window.  The order is
        padded to whole blocks with identity equations; the matrix is
        left intact.  Raises :class:`SolverError` on a pivot at or below
        ``n * eps`` times its equation's own diagonal, which for a
        stiffness matrix means the structure is insufficiently
        restrained (a rigid-body mode) or the mesh is defective.
        """
        n, hb, m = self.n, self.hb, BLOCK
        steps = -(-n // m)
        size = steps * m + hb
        padded = np.zeros((hb + 1, size))
        padded[:, :n] = self.band
        padded[0, n:] = 1.0
        flat = padded.ravel()
        tol = n * np.finfo(float).eps * padded[0]
        # Flat band offsets of the window's lower-band entries, and
        # their positions in the dense (m + hb)^2 window.
        w = m + hb
        rows, cols = np.tril_indices(w)
        keep = rows - cols <= hb
        rows, cols = rows[keep], cols[keep]
        src = (rows - cols) * size + cols
        dst = rows * w + cols
        inverses = np.empty((steps, m, m))
        panels = np.empty((steps, hb, m))
        pivots = np.empty(steps * m)
        trailing = np.empty((hb, hb))
        for step in range(steps):
            k0 = step * m
            window = np.zeros(w * w)
            window[dst] = flat[src + k0]
            window = window.reshape(w, w)
            if step:
                window[:hb, :hb] = trailing
            a11 = window[:m, :m]
            try:
                l11 = np.linalg.cholesky(a11)
                pivots[k0:k0 + m] = l11.diagonal() ** 2
                ok = bool((pivots[k0:k0 + m] > tol[k0:k0 + m]).all())
            except np.linalg.LinAlgError:
                ok = False
            if not ok:
                i, pivot = _first_bad_pivot(a11, tol[k0:k0 + m])
                raise SolverError(
                    f"pivot {pivot:g} at equation {k0 + i} is not "
                    "positive beyond rounding; the system is singular or "
                    "indefinite (is the structure restrained against "
                    "rigid-body motion?)"
                )
            inverses[step] = inv11 = np.linalg.inv(l11)
            panels[step] = l21 = window[m:, :m] @ inv11.T
            trailing = window[m:, m:] - l21 @ l21.T
        if obs.health_enabled():
            obs.health("fem.cholesky.banded", solver_health(
                pivot_min=float(pivots[:n].min()),
                pivot_max=float(pivots[:n].max()),
                fillin=n * (hb + 1),
                n=n,
                half_bandwidth=hb,
            ))
        return BandedCholeskyFactor(n, hb, inverses, panels)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Factor and solve in one call."""
        return self.cholesky().solve(rhs)


def _first_bad_pivot(a11: np.ndarray, tol: np.ndarray
                     ) -> Tuple[int, float]:
    """(row, pivot) of the first pivot of ``a11`` at or below ``tol``.

    A scalar column sweep over one block, run only when the block's
    factor failed, to name the equation that failed.  ``a11``'s upper
    triangle is ignored.
    """
    m = a11.shape[0]
    low = np.tril(a11)
    lower = np.zeros((m, m))
    pivots = np.empty(m)
    for i in range(m):
        pivots[i] = pivot = low[i, i] - lower[i, :i] @ lower[i, :i]
        if not pivot > tol[i]:
            return i, float(pivot)
        lower[i, i] = math.sqrt(pivot)
        lower[i + 1:, i] = (low[i + 1:, i]
                            - lower[i + 1:, :i] @ lower[i, :i]) / lower[i, i]
    # Rounding kept every swept pivot above its bound: name the nearest.
    i = int(np.argmin(pivots / tol))
    return i, float(pivots[i])


class BandedCholeskyFactor:
    """The band factor L with A = L L^T, kept as its column blocks.

    Block ``s`` covers equations ``s * BLOCK`` onward: ``inverses[s]``
    is its diagonal block's inverse ``L11^-1`` and ``panels[s]`` the
    ``hb x BLOCK`` panel ``L21`` below it.
    """

    def __init__(self, n: int, hb: int, inverses: np.ndarray,
                 panels: np.ndarray) -> None:
        self.n = n
        self.hb = hb
        self.inverses = inverses
        self.panels = panels

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs: forward through the blocks, then back."""
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.n:
            raise SolverError(f"rhs length {b.shape[0]} != order {self.n}")
        steps, m, _ = self.inverses.shape
        hb = self.hb
        x = np.zeros((steps * m + hb,) + b.shape[1:])
        x[:self.n] = b
        for step in range(steps):
            k0, k1 = step * m, step * m + m
            x[k0:k1] = self.inverses[step] @ x[k0:k1]
            x[k1:k1 + hb] -= self.panels[step] @ x[k0:k1]
        for step in range(steps - 1, -1, -1):
            k0, k1 = step * m, step * m + m
            x[k0:k1] = self.inverses[step].T @ (
                x[k0:k1] - self.panels[step].T @ x[k1:k1 + hb])
        return x[:self.n]
