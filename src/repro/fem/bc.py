"""Displacement boundary conditions.

A :class:`Constraints` object collects prescribed dof values (mostly
zero: symmetry planes, the axisymmetric axis, clamped edges).  Dofs are
addressed as (node, direction) with direction 0 = x/r (u) and 1 = y/z
(v/w); thermal analyses use direction 0 only.

Every constrained solve reads one :class:`DofPartition`, built by
:meth:`Constraints.partition`: the free dofs, the fixed dofs and their
values as arrays, so each analysis solves ``K_ff u_f = f_f - K_fc u_c``
on the same split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, NamedTuple, Tuple

import numpy as np

from repro.errors import BoundaryConditionError

if TYPE_CHECKING:
    import scipy.sparse as sp


class DofPartition(NamedTuple):
    """Free and fixed dofs under interleaved numbering.

    ``free`` and ``fixed`` are ascending global dof indices that together
    cover every dof; ``values[i]`` is the prescribed value of
    ``fixed[i]``.
    """

    free: np.ndarray
    fixed: np.ndarray
    values: np.ndarray

    def reduce(self, matrix: sp.spmatrix) -> Tuple[sp.spmatrix, np.ndarray]:
        """``(K_ff, K_fc u_c)`` of a scipy sparse ``matrix``.

        The reduced right-hand side is ``f[free] - K_fc u_c``.
        """
        rows = matrix[self.free]
        return rows[:, self.free], rows[:, self.fixed] @ self.values

    def expand(self, solution: np.ndarray) -> np.ndarray:
        """The full vector: ``solution`` on the free dofs, the prescribed
        values on the fixed ones."""
        out = np.zeros(self.free.size + self.fixed.size)
        out[self.free] = solution
        out[self.fixed] = self.values
        return out


@dataclass
class Constraints:
    """Prescribed degrees of freedom."""

    dofs_per_node: int = 2
    prescribed: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def fix(self, node: int, direction: int, value: float = 0.0) -> "Constraints":
        """Prescribe one dof; re-prescribing with a different value errs."""
        if direction < 0 or direction >= self.dofs_per_node:
            raise BoundaryConditionError(
                f"direction {direction} invalid for "
                f"{self.dofs_per_node}-dof nodes"
            )
        key = (int(node), int(direction))
        value = float(value)
        if key in self.prescribed and self.prescribed[key] != value:
            raise BoundaryConditionError(
                f"node {key[0]} direction {key[1]} prescribed twice with "
                f"different values ({self.prescribed[key]} vs {value})"
            )
        self.prescribed[key] = value
        return self

    def fix_node(self, node: int, value: float = 0.0) -> "Constraints":
        """Prescribe every dof of a node (a pin)."""
        for d in range(self.dofs_per_node):
            self.fix(node, d, value)
        return self

    def fix_nodes(self, nodes: Iterable[int], direction: int,
                  value: float = 0.0) -> "Constraints":
        for n in nodes:
            self.fix(n, direction, value)
        return self

    def pin_nodes(self, nodes: Iterable[int]) -> "Constraints":
        for n in nodes:
            self.fix_node(n)
        return self

    def partition(self, n_nodes: int) -> DofPartition:
        """Split the ``n_nodes * dofs_per_node`` dofs into free and fixed."""
        keys = sorted(self.prescribed)
        pairs = np.array(keys, dtype=int).reshape(-1, 2)
        outside = (pairs[:, 0] < 0) | (pairs[:, 0] >= n_nodes)
        if outside.any():
            raise BoundaryConditionError(
                f"constraint on node {pairs[outside, 0][0]} outside mesh "
                f"of {n_nodes}"
            )
        fixed = pairs[:, 0] * self.dofs_per_node + pairs[:, 1]
        values = np.array([self.prescribed[key] for key in keys],
                          dtype=float)
        # A mask, not np.setdiff1d: its np.unique loads numpy.ma.
        free = np.ones(n_nodes * self.dofs_per_node, dtype=bool)
        free[fixed] = False
        return DofPartition(np.flatnonzero(free), fixed, values)

    def __len__(self) -> int:
        return len(self.prescribed)

    def is_constrained(self, node: int, direction: int) -> bool:
        return (node, direction) in self.prescribed
