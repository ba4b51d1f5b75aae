"""Steady and transient heat conduction -- the paper's Reference 3.

Figure 14 of the paper contours "the temperature distribution in a T-beam
exposed to a thermal radiation pulse" at two and three seconds.  The
substrate here solves

    C dT/dt + K T = F(t)

on the triangular mesh with backward-Euler stepping (unconditionally
stable, as a production 1970 code would have chosen), a lumped capacitance
matrix, prescribed-temperature nodes, and a radiant-pulse flux on selected
boundary edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import BoundaryConditionError, SolverError
from repro.fem.assembly import assemble_thermal
from repro.fem.elements.heat import edge_flux_vector, edge_flux_vector_axisym
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class ThermalPulse:
    """A rectangular radiant pulse: flux ``magnitude`` for ``duration``.

    ``flux_at(t)`` gives the instantaneous surface flux; a smooth variant
    could subclass, but the sharp pulse is what a weapon-flash or fire
    exposure study (the Navy use case) modelled.
    """

    magnitude: float
    duration: float
    start: float = 0.0

    def flux_at(self, t: float) -> float:
        return self.magnitude if self.start <= t < self.start + self.duration else 0.0


class ThermalAnalysis:
    """Heat conduction on a mesh with per-group thermal materials."""

    def __init__(self, mesh: Mesh, materials: Dict[int, object],
                 lumped: bool = True, axisymmetric: bool = False):
        mesh.validate()
        self.mesh = mesh
        self.materials = materials
        self.axisymmetric = axisymmetric
        self.conductivity, self.capacity = assemble_thermal(
            mesh, materials, lumped=lumped, axisymmetric=axisymmetric
        )
        self.fixed_temps: Dict[int, float] = {}
        self._flux_edges: List[Tuple[Tuple[int, int], ThermalPulse]] = []
        self._constant_flux: np.ndarray = np.zeros(mesh.n_nodes)

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    def fix_temperature(self, nodes: Iterable[int], value: float) -> None:
        """Prescribe the temperature of ``nodes`` for all time."""
        for n in nodes:
            n = int(n)
            if n < 0 or n >= self.mesh.n_nodes:
                raise BoundaryConditionError(
                    f"temperature fixed on node {n} outside the mesh"
                )
            self.fixed_temps[n] = float(value)

    def add_pulse(self, edges: Iterable[Tuple[int, int]],
                  pulse: ThermalPulse) -> None:
        """Expose boundary ``edges`` to a radiant pulse."""
        for edge in edges:
            self._flux_edges.append(((int(edge[0]), int(edge[1])), pulse))

    def add_constant_flux(self, edges: Iterable[Tuple[int, int]],
                          flux: float) -> None:
        """A steady surface flux (used by the steady-state solver)."""
        for a, b in edges:
            pa, pb = self.mesh.node_point(a), self.mesh.node_point(b)
            fa, fb = self._edge_flux(pa, pb, flux)
            self._constant_flux[int(a)] += fa
            self._constant_flux[int(b)] += fb

    def _edge_flux(self, pa, pb, q):
        if self.axisymmetric:
            return edge_flux_vector_axisym(pa, pb, q)
        return edge_flux_vector(pa, pb, q)

    def _flux_vector(self, t: float) -> np.ndarray:
        f = self._constant_flux.copy()
        for (a, b), pulse in self._flux_edges:
            q = pulse.flux_at(t)
            if q == 0.0:
                continue
            pa, pb = self.mesh.node_point(a), self.mesh.node_point(b)
            fa, fb = self._edge_flux(pa, pb, q)
            f[a] += fa
            f[b] += fb
        return f

    # ------------------------------------------------------------------
    # Solvers
    # ------------------------------------------------------------------
    def solve_steady(self) -> NodalField:
        """Steady state K T = F with prescribed temperatures eliminated."""
        if not self.fixed_temps:
            raise SolverError(
                "steady conduction needs at least one prescribed "
                "temperature; otherwise K is singular"
            )
        n = self.mesh.n_nodes
        rhs = self._flux_vector(0.0)
        t = _solve_constrained(self.conductivity, rhs, self.fixed_temps, n)
        return NodalField("temperature", t)

    def solve_transient(self, dt: float, n_steps: int,
                        initial: float = 0.0,
                        record_times: Optional[Sequence[float]] = None
                        ) -> "TransientHistory":
        """Backward-Euler march; records snapshots nearest ``record_times``.

        Returns the full history (all steps) unless ``record_times`` is
        given, in which case only the nearest snapshot to each requested
        time is kept (plus the final state).
        """
        if dt <= 0.0:
            raise SolverError(f"time step must be positive, got {dt}")
        if n_steps < 1:
            raise SolverError("need at least one time step")
        n = self.mesh.n_nodes
        temps = np.full(n, float(initial))
        for node, value in self.fixed_temps.items():
            temps[node] = value
        system = (self.capacity / dt + self.conductivity).tocsc()
        solver = _constrained_factor(system, self.fixed_temps, n)
        history = TransientHistory(self.mesh, record_times)
        history.record(0.0, temps)
        t = 0.0
        for _ in range(n_steps):
            t += dt
            rhs = (self.capacity / dt) @ temps + self._flux_vector(t)
            temps = solver(rhs, self.fixed_temps)
            history.record(t, temps)
        return history


class TransientHistory:
    """Temperature snapshots from a transient march."""

    def __init__(self, mesh: Mesh, record_times: Optional[Sequence[float]]):
        self.mesh = mesh
        self.times: List[float] = []
        self.snapshots: List[np.ndarray] = []
        self._wanted = None if record_times is None else list(record_times)

    def record(self, t: float, temps: np.ndarray) -> None:
        self.times.append(t)
        self.snapshots.append(temps.copy())

    def at_time(self, t: float) -> NodalField:
        """The snapshot nearest to ``t``."""
        if not self.times:
            raise SolverError("no snapshots recorded")
        idx = int(np.argmin([abs(s - t) for s in self.times]))
        return NodalField(f"temperature@t={self.times[idx]:g}",
                          self.snapshots[idx])

    def final(self) -> NodalField:
        return NodalField(f"temperature@t={self.times[-1]:g}",
                          self.snapshots[-1])

    def max_temperature(self) -> float:
        return float(max(s.max() for s in self.snapshots))


# ----------------------------------------------------------------------
# Constrained sparse solves
# ----------------------------------------------------------------------

def _split(fixed: Dict[int, float], n: int):
    fixed_idx = np.array(sorted(fixed), dtype=int)
    fixed_val = np.array([fixed[i] for i in sorted(fixed)])
    free = np.setdiff1d(np.arange(n), fixed_idx)
    return fixed_idx, fixed_val, free


def _solve_constrained(matrix: sp.csr_matrix, rhs: np.ndarray,
                       fixed: Dict[int, float], n: int) -> np.ndarray:
    import scipy.sparse.linalg as spla

    fixed_idx, fixed_val, free = _split(fixed, n)
    out = np.zeros(n)
    out[fixed_idx] = fixed_val
    if free.size == 0:
        return out
    mff = matrix[free][:, free]
    mfc = matrix[free][:, fixed_idx]
    solution = spla.spsolve(mff.tocsc(), rhs[free] - mfc @ fixed_val)
    if np.any(~np.isfinite(solution)):
        raise SolverError("conduction solve produced non-finite temperatures")
    out[free] = solution
    return out


def _constrained_factor(matrix: sp.csc_matrix, fixed: Dict[int, float],
                        n: int) -> Callable:
    """Pre-factor the free-free block for repeated transient solves."""
    import scipy.sparse.linalg as spla

    fixed_idx, fixed_val, free = _split(fixed, n)
    if free.size == 0:
        def trivial(rhs, fixed_now):
            out = np.zeros(n)
            out[fixed_idx] = fixed_val
            return out
        return trivial
    mff = matrix[free][:, free].tocsc()
    mfc = matrix[free][:, fixed_idx]
    lu = spla.splu(mff)

    def solve(rhs: np.ndarray, fixed_now: Dict[int, float]) -> np.ndarray:
        out = np.zeros(n)
        out[fixed_idx] = fixed_val
        solution = lu.solve(rhs[free] - mfc @ fixed_val)
        if np.any(~np.isfinite(solution)):
            raise SolverError("transient step produced non-finite values")
        out[free] = solution
        return out

    return solve
