"""Boundary tracing: "adjacent boundary nodes are connected by straight
lines by OSPL".

Given the mesh connectivity the boundary edges are the element edges used
exactly once; the card-deck flags (0/1/2) exist so the original program
could draw the outline without that search, and we honour them: an edge is
drawn only when both of its nodes are flagged as boundary nodes.  Chains
are assembled so the outline can be stroked as polylines (and so tests can
assert the boundary is closed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fem.mesh import Mesh


def boundary_pairs(mesh: Mesh) -> Tuple[np.ndarray, np.ndarray]:
    """Node arrays ``(a, b)`` of the boundary edges whose endpoints the
    flags also call boundary, each edge in its first directed
    occurrence, in edge-table order.  Builds the mesh's edge table once
    (flags the cards did not give are derived from that same table)."""
    table = mesh.edge_table()
    flags = mesh.flags(table)
    sel = (table.count == 1) & (flags[table.a] > 0) & (flags[table.b] > 0)
    return table.a[sel], table.b[sel]


def boundary_edge_list(mesh: Mesh) -> List[Tuple[int, int]]:
    """:func:`boundary_pairs` as a list of node pairs."""
    a, b = boundary_pairs(mesh)
    return list(zip(a.tolist(), b.tolist()))


def boundary_segments(mesh: Mesh) -> np.ndarray:
    """The straight boundary strokes OSPL draws, as ``(B, 2, 2)``
    endpoint coordinates (stroke, end, x/y)."""
    a, b = boundary_pairs(mesh)
    return np.stack((mesh.nodes[a], mesh.nodes[b]), axis=1)


def boundary_chains(mesh: Mesh) -> List[List[int]]:
    """Boundary edges assembled into node chains (closed loops where the
    boundary is closed).

    Multiple loops appear for meshes with holes; a chain whose first and
    last nodes coincide is closed.
    """
    edges = boundary_edge_list(mesh)
    if not edges:
        return []
    neighbours: Dict[int, List[int]] = {}
    for a, b in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    unused = {(min(a, b), max(a, b)) for a, b in edges}
    chains: List[List[int]] = []
    while unused:
        a, b = min(unused)
        unused.discard((a, b))
        chain = [a, b]
        # Extend forward until the loop closes or dead-ends.
        while True:
            tail = chain[-1]
            next_node: Optional[int] = None
            for cand in neighbours.get(tail, []):
                key = (min(tail, cand), max(tail, cand))
                if key in unused:
                    next_node = cand
                    unused.discard(key)
                    break
            if next_node is None:
                break
            chain.append(next_node)
            if next_node == chain[0]:
                break
        chains.append(chain)
    return chains
