"""Element reformation: repairing needle-like corners after shaping.

"This procedure often produces elements having shapes quite different from
the most desirable equilateral shape ... For this reason, the elements are
reformed by IDLZ, where necessary, following the 'shaping' process".

The reformation implemented here is the classical diagonal swap: for every
interior edge shared by two triangles whose union is a strictly convex
quadrilateral, the alternative diagonal is adopted when it strictly
increases the *minimum angle* of the pair (Lawson's local-optimality
criterion -- the ANGMIN test of the source listing).  Swaps never cross a
material boundary: the two triangles must carry the same group tag, so a
bimetallic juncture keeps its interface exactly where the subdivisions put
it.

Each sweep is evaluated **array-first**: node positions never move during
reformation, and the ``handled``-edge discipline guarantees that every
candidate edge the sequential sweep actually evaluates still sees its
pass-start geometry (any edge adjacent to an already-swapped pair is in
``handled`` and skipped).  The convexity tests, opposite-vertex lookups
and min-angle comparisons for every interior edge are therefore computed
by numpy kernels over the pass-start connectivity -- in chunks of
:data:`_CHUNK_EDGES` rows of the pass's one edge table, keeping only
each chunk's accepted swaps, so the decision's scratch arrays are
bounded by the chunk rather than by the mesh.  A cheap ordered replay
then applies the accepted swaps under the same first-encounter edge
order and ``handled`` bookkeeping as the original per-edge loop.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import MeshError
from repro.fem.mesh import EdgeTable, Mesh
from repro.fem.quality import triangle_min_angles

#: A swap must improve the pair's minimum angle by at least this much
#: (radians) to be adopted, preventing flip cycles on symmetric meshes.
_IMPROVEMENT_TOL = 1e-12

#: Strict-convexity cross-product tolerance (matches
#: :func:`repro.geometry.polygon.convex_quad`).
_CONVEX_TOL = 1e-12

#: Interior edges whose swap test runs as one batch of numpy kernels.
#: The test's ~25 temporaries are this many rows long, not one row per
#: edge of the mesh, which bounds a pass's scratch memory.
_CHUNK_EDGES = 4096


def reform_elements(mesh: Mesh, max_passes: int = 20) -> int:
    """Swap diagonals in place until locally optimal; returns swap count.

    ``max_passes`` bounds the sweep count; with the strict improvement
    tolerance the process terminates long before the bound on any real
    mesh (each swap strictly increases a bounded quality measure).
    """
    total = 0
    for _ in range(max_passes):
        swapped = _reform_pass(mesh)
        total += swapped
        if swapped == 0:
            break
    return total


def _convex_quads(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray,
                  pd: np.ndarray) -> np.ndarray:
    """Strict convexity of quads (a, b, c, d), row-wise.

    Mirrors :func:`repro.geometry.polygon.convex_quad`: every corner's
    cross product must exceed the tolerance in magnitude and all four
    must share a sign.
    """
    quad = np.stack((pa, pb, pc, pd), axis=1)
    nxt = np.roll(quad, -1, axis=1)
    nxt2 = np.roll(quad, -2, axis=1)
    cross = (
        (nxt[:, :, 0] - quad[:, :, 0]) * (nxt2[:, :, 1] - nxt[:, :, 1])
        - (nxt[:, :, 1] - quad[:, :, 1]) * (nxt2[:, :, 0] - nxt[:, :, 0])
    )
    big = np.abs(cross) > _CONVEX_TOL
    same = (np.all(cross > 0.0, axis=1)) | (np.all(cross < 0.0, axis=1))
    return np.all(big, axis=1) & same


def _chunk_swaps(mesh: Mesh, groups: np.ndarray, table: EdgeTable,
                 rows: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The accepted swaps among the interior edges ``rows`` of ``table``.

    Returns ``(a, b, e1, e2, tri1, tri2)`` over the rows whose swap
    passes every test of the scalar ``_try_swap``: the edge's sorted
    node pair, its two elements (in encounter order -- that order
    decides which element receives which new triangle) and their
    replacement connectivity.
    """
    elements = mesh.elements
    ta, tb = table.a[rows], table.b[rows]
    e1, e2 = table.e1[rows], table.e2[rows]
    a = np.minimum(ta, tb)
    b = np.maximum(ta, tb)
    ok = groups[e1] == groups[e2]
    # Opposite vertices: exactly one vertex of each triangle off the edge.
    t1 = elements[e1]
    t2 = elements[e2]
    m1 = (t1 != a[:, None]) & (t1 != b[:, None])
    m2 = (t2 != a[:, None]) & (t2 != b[:, None])
    ok &= (m1.sum(axis=1) == 1) & (m2.sum(axis=1) == 1)
    c = np.where(m1, t1, 0).sum(axis=1)
    d = np.where(m2, t2, 0).sum(axis=1)
    ok &= c != d
    # Rows already rejected above may carry out-of-range vertex sums;
    # clamp so the batched position gathers stay in bounds (their
    # geometry is never used -- ``ok`` is False there).
    c = np.where(m1.sum(axis=1) == 1, c, 0)
    d = np.where(m2.sum(axis=1) == 1, d, 0)
    nodes = mesh.nodes
    pa = nodes[a]
    pb = nodes[b]
    pc = nodes[c]
    pd = nodes[d]
    # The quad in cyclic order is a-c-b-d (c and d on opposite sides of
    # edge ab); the swap replaces diagonal ab with cd.
    ok &= _convex_quads(pa, pc, pb, pd)
    ang1, bad1 = triangle_min_angles(pa, pb, pc)
    ang2, bad2 = triangle_min_angles(pa, pb, pd)
    ang3, bad3 = triangle_min_angles(pc, pd, pa)
    ang4, bad4 = triangle_min_angles(pc, pd, pb)
    ok &= ~(bad1 | bad2 | bad3 | bad4)
    current = np.minimum(ang1, ang2)
    proposed = np.minimum(ang3, ang4)
    with np.errstate(invalid="ignore"):
        ok &= proposed > current + _IMPROVEMENT_TOL
    sel = np.flatnonzero(ok)
    a, b, c, d = a[sel], b[sel], c[sel], d[sel]
    pa, pb, pc, pd = pa[sel], pb[sel], pc[sel], pd[sel]
    # CCW orientation of the two replacement triangles (c, d, a) and
    # (c, d, b): flip the last two vertices on negative doubled area.
    area1 = (pd[:, 0] - pc[:, 0]) * (pa[:, 1] - pc[:, 1]) \
        - (pa[:, 0] - pc[:, 0]) * (pd[:, 1] - pc[:, 1])
    area2 = (pd[:, 0] - pc[:, 0]) * (pb[:, 1] - pc[:, 1]) \
        - (pb[:, 0] - pc[:, 0]) * (pd[:, 1] - pc[:, 1])
    tri1 = np.stack((
        c, np.where(area1 < 0.0, a, d), np.where(area1 < 0.0, d, a),
    ), axis=1)
    tri2 = np.stack((
        c, np.where(area2 < 0.0, b, d), np.where(area2 < 0.0, d, b),
    ), axis=1)
    return a, b, e1[sel], e2[sel], tri1, tri2


def _pass_candidates(mesh: Mesh) -> Optional[Tuple[np.ndarray, ...]]:
    """Every accepted swap of one pass, decided chunk by chunk.

    Returns :func:`_chunk_swaps`'s ``(a, b, e1, e2, tri1, tri2)`` arrays
    over the whole mesh, in first-encounter edge order (``None`` when
    the mesh has no interior edge).  Every chunk is judged on the
    pass-start connectivity -- nothing is swapped until the replay --
    so the result does not depend on :data:`_CHUNK_EDGES`.
    """
    table = mesh.edge_table()
    interior = np.flatnonzero(table.count == 2)
    groups = np.asarray(mesh.element_groups)
    kept = [_chunk_swaps(mesh, groups, table,
                         interior[start:start + _CHUNK_EDGES])
            for start in range(0, len(interior), _CHUNK_EDGES)]
    if not kept:
        return None
    return tuple(np.concatenate(column) for column in zip(*kept))


def _reform_pass(mesh: Mesh) -> int:
    """One sweep over all interior edges; returns the number of swaps."""
    if mesh.n_elements == 0:
        return 0
    candidates = _pass_candidates(mesh)
    if candidates is None or not len(candidates[0]):
        return 0
    a, b, e1, e2, tri1, tri2 = candidates
    swaps = 0
    handled = set()
    rows = zip(
        a.tolist(), b.tolist(), e1.tolist(), e2.tolist(),
        tri1.tolist(), tri2.tolist(),
    )
    for ea, eb, i1, i2, t1, t2 in rows:
        if (ea, eb) in handled:
            continue
        mesh.elements[i1] = t1
        mesh.elements[i2] = t2
        swaps += 1
        # The local edge map is stale around these elements; mark the
        # quad's edges handled and let the next pass revisit them.
        for tri in (t1, t2):
            for x, y in ((tri[0], tri[1]), (tri[1], tri[2]),
                         (tri[2], tri[0])):
                handled.add((x, y) if x < y else (y, x))
    return swaps


def quality_report(mesh: Mesh) -> Dict[str, float]:
    """Min/mean minimum-angle statistics in degrees (for benchmarks)."""
    angles = mesh.min_angles_per_element()
    if angles.size == 0:
        raise MeshError("mesh has no elements")
    return {
        "min_angle_deg": math.degrees(float(angles.min())),
        "mean_min_angle_deg": math.degrees(float(angles.mean())),
        "worst_decile_deg": math.degrees(
            float(np.quantile(angles, 0.1))
        ),
    }
