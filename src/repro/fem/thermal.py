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
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import BoundaryConditionError, SolverError
from repro.fem.assembly import assemble_thermal
from repro.fem.bc import Constraints, DofPartition
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
                 lumped: bool = True, axisymmetric: bool = False) -> None:
        mesh.validate()
        self.mesh = mesh
        self.materials = materials
        self.axisymmetric = axisymmetric
        self.conductivity, self.capacity = assemble_thermal(
            mesh, materials, lumped=lumped, axisymmetric=axisymmetric
        )
        #: Prescribed temperatures, one dof per node.
        self.constraints = Constraints(dofs_per_node=1)
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
            self.constraints.fix(n, 0, value)

    def add_pulse(self, edges: Iterable[Tuple[int, int]],
                  pulse: ThermalPulse) -> None:
        """Expose boundary ``edges`` to a radiant pulse."""
        for edge in edges:
            self._flux_edges.append(((int(edge[0]), int(edge[1])), pulse))

    def add_constant_flux(self, edges: Iterable[Tuple[int, int]],
                          flux: float) -> None:
        """A steady surface flux (used by the steady-state solver)."""
        for a, b in edges:
            self._edge_flux(self._constant_flux, int(a), int(b), flux)

    def _edge_flux(self, f: np.ndarray, a: int, b: int, q: float) -> None:
        """Add edge ``(a, b)``'s nodal shares of flux ``q`` into ``f``."""
        pa, pb = self.mesh.node_point(a), self.mesh.node_point(b)
        if self.axisymmetric:
            fa, fb = edge_flux_vector_axisym(pa, pb, q)
        else:
            fa, fb = edge_flux_vector(pa, pb, q)
        f[a] += fa
        f[b] += fb

    def _flux_vector(self, t: float) -> np.ndarray:
        f = self._constant_flux.copy()
        for (a, b), pulse in self._flux_edges:
            q = pulse.flux_at(t)
            if q != 0.0:
                self._edge_flux(f, a, b, q)
        return f

    # ------------------------------------------------------------------
    # Solvers
    # ------------------------------------------------------------------
    def solve_steady(self) -> NodalField:
        """Steady state K T = F with prescribed temperatures eliminated."""
        if len(self.constraints) == 0:
            raise SolverError(
                "steady conduction needs at least one prescribed "
                "temperature; otherwise K is singular"
            )
        part = self.constraints.partition(self.mesh.n_nodes)
        solve = _free_solver(self.conductivity, part)
        return NodalField("temperature", solve(self._flux_vector(0.0)))

    def solve_transient(self, dt: float, n_steps: int,
                        initial: float = 0.0) -> "TransientHistory":
        """Backward-Euler march; the history keeps every step."""
        if dt <= 0.0:
            raise SolverError(f"time step must be positive, got {dt}")
        if n_steps < 1:
            raise SolverError("need at least one time step")
        part = self.constraints.partition(self.mesh.n_nodes)
        temps = np.full(self.mesh.n_nodes, float(initial))
        temps[part.fixed] = part.values
        system = (self.capacity / dt + self.conductivity).tocsc()
        solve = _free_solver(system, part)
        history = TransientHistory(self.mesh)
        history.record(0.0, temps)
        t = 0.0
        for _ in range(n_steps):
            t += dt
            rhs = (self.capacity / dt) @ temps + self._flux_vector(t)
            temps = solve(rhs)
            history.record(t, temps)
        return history


class TransientHistory:
    """Temperature snapshots from a transient march."""

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self.times: List[float] = []
        self.snapshots: List[np.ndarray] = []

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
# Constrained sparse solve
# ----------------------------------------------------------------------

def _free_solver(matrix: sp.spmatrix, part: DofPartition
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """Factor ``K_ff`` once; the step maps a full right-hand side ``f``
    to the full field, ``K_ff^-1 (f_f - K_fc u_c)`` plus the prescribed
    values."""
    import scipy.sparse.linalg as spla

    kff, lift = part.reduce(matrix)
    if part.free.size == 0:
        return lambda rhs: part.expand(np.zeros(0))
    try:
        lu = spla.splu(kff.tocsc())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"conduction solve failed: {exc}") from exc

    def solve(rhs: np.ndarray) -> np.ndarray:
        solution = lu.solve(rhs[part.free] - lift)
        if np.any(~np.isfinite(solution)):
            raise SolverError(
                "conduction solve produced non-finite temperatures")
        return part.expand(solution)

    return solve
