"""Scalar reference implementations of the vectorized IDLZ/OSPL kernels.

The production kernels in ``repro.core`` and ``repro.fem`` are batched
numpy rewrites of the per-node / per-element loops the original 1970
listings describe.
This module keeps those loops alive, written in the most literal scalar
form, so the cross-check suite (``test_kernel_crosscheck.py``) can
assert on *randomized* inputs -- not just the fixed golden corpus --
that the batched kernels compute bit-for-bit the same meshes, shapes,
swaps, element quality, edge tables, Cuthill-McKee orders, contour
segments, clipped segments, label candidates, plotter strokes and
listing tables.

Everything here trades speed for obviousness: Python loops, dicts and
tuples only, numpy used purely as a container.  Do not import these
from production code.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import LatticePoint, Subdivision
from repro.errors import MeshError
from repro.fem.mesh import Mesh
from repro.geometry.interpolate import place_along_path
from repro.geometry.primitives import BoundingBox, Point

Triangle = Tuple[int, int, int]


# ----------------------------------------------------------------------
# IDLZ node numbering (the NUMBER array fill)
# ----------------------------------------------------------------------

def scalar_number_lattice(
    subdivisions: Sequence[Subdivision],
) -> List[LatticePoint]:
    """Bottom-to-top, left-to-right numbering as a per-point union.

    Every subdivision contributes its lattice points to a set; shared
    points are numbered once; the node order is the (l, k) sort.
    Returns the ``node -> (k, l)`` list.
    """
    seen: set = set()
    for sub in subdivisions:
        for pt in map(tuple, sub.lattice_points_array().tolist()):
            seen.add(pt)
    return sorted(seen, key=lambda pt: (pt[1], pt[0]))


# ----------------------------------------------------------------------
# Strip zipper and element creation
# ----------------------------------------------------------------------

def scalar_zipper(lower_ids: Sequence[int], lower_pos: Sequence[float],
                  upper_ids: Sequence[int], upper_pos: Sequence[float]
                  ) -> List[Triangle]:
    """The per-step zipper march between two node strips."""
    triangles: List[Triangle] = []
    i = j = 0
    while i < len(lower_ids) - 1 or j < len(upper_ids) - 1:
        can_lower = i < len(lower_ids) - 1
        can_upper = j < len(upper_ids) - 1
        if can_lower and can_upper:
            advance_lower = lower_pos[i + 1] <= upper_pos[j + 1]
        else:
            advance_lower = can_lower
        if advance_lower:
            triangles.append((lower_ids[i], lower_ids[i + 1], upper_ids[j]))
            i += 1
        else:
            triangles.append((lower_ids[i], upper_ids[j + 1], upper_ids[j]))
            j += 1
    return triangles


def _strip_nodes(grid: LatticeGrid, sub: Subdivision
                 ) -> List[Tuple[List[int], List[float]]]:
    """Each strip's (node ids, along-strip positions), in strip order."""
    fixed, lo, hi = sub.strip_bounds()
    strips = []
    for s in range(len(fixed)):
        ids: List[int] = []
        pos: List[float] = []
        for along in range(int(lo[s]), int(hi[s]) + 1):
            if sub.is_column_oriented:
                k, l = int(fixed[s]), along
            else:
                k, l = along, int(fixed[s])
            ids.append(grid.node(k, l))
            pos.append(float(along))
        strips.append((ids, pos))
    return strips


def scalar_create_elements(grid: LatticeGrid
                           ) -> Tuple[List[Triangle], List[int]]:
    """Triangulate every subdivision strip pair with the scalar zipper."""
    triangles: List[Triangle] = []
    groups: List[int] = []
    for gi, sub in enumerate(grid.subdivisions):
        strips = _strip_nodes(grid, sub)
        for (lower_ids, lower_pos), (upper_ids, upper_pos) in zip(
            strips[:-1], strips[1:]
        ):
            tris = scalar_zipper(lower_ids, lower_pos, upper_ids, upper_pos)
            triangles.extend(tris)
            groups.extend([gi] * len(tris))
    return triangles, groups


# ----------------------------------------------------------------------
# Shaping (boundary placement + interior interpolation)
# ----------------------------------------------------------------------

def _scalar_logical(sub: Subdivision, pt: LatticePoint
                    ) -> Tuple[float, float]:
    """(s, t) fractions of one lattice point, per-point arithmetic."""
    k, l = pt
    if sub.is_column_oriented:
        l0, l1 = sub.column_span(k)
        s = 0.5 if l1 == l0 else (l - l0) / float(l1 - l0)
        t = (k - sub.kk1) / float(sub.kk2 - sub.kk1)
        return s, t
    if sub.ntaprw:
        k0, k1 = sub.row_span(l)
    else:
        k0, k1 = sub.kk1, sub.kk2
    s = 0.5 if k1 == k0 else (k - k0) / float(k1 - k0)
    t = (l - sub.ll1) / float(sub.ll2 - sub.ll1)
    return s, t


def _scalar_side_param(sub: Subdivision, side: str,
                       pt: LatticePoint) -> float:
    s, t = _scalar_logical(sub, pt)
    if sub.is_column_oriented:
        return s if side in ("left", "right") else t
    return s if side in ("bottom", "top") else t


class _ScalarInterpolant:
    """Piecewise-linear position along a located side, one query at a
    time."""

    def __init__(self, positions: Dict[int, Tuple[float, float]],
                 grid: LatticeGrid, sub: Subdivision, side: str):
        path = sub.side_path(side)
        nodes = [grid.node(*pt) for pt in path]
        params = [_scalar_side_param(sub, side, pt) for pt in path]
        if len(path) == 1:
            self._constant: Optional[Tuple[float, float]] = \
                positions[nodes[0]]
            self._samples: List[Tuple[float, float, float]] = []
        else:
            self._constant = None
            self._samples = sorted(
                (params[i],) + positions[nodes[i]]
                for i in range(len(nodes))
            )

    def at(self, param: float) -> Tuple[float, float]:
        if self._constant is not None:
            return self._constant
        ps = np.array([s[0] for s in self._samples])
        xs = np.array([s[1] for s in self._samples])
        ys = np.array([s[2] for s in self._samples])
        return (float(np.interp(param, ps, xs)),
                float(np.interp(param, ps, ys)))


def scalar_shape(grid: LatticeGrid, subdivisions: Sequence[Subdivision],
                 segments: Sequence[ShapingSegment]) -> np.ndarray:
    """The whole shaping pass with per-node loops.

    Mirrors the stage driver: per subdivision in input order, apply its
    type-6 cards, then interpolate its interior between a located pair
    of opposite sides.  Returns the ``(n, 2)`` positions array.
    """
    positions: Dict[int, Tuple[float, float]] = {
        n: (float(k), float(l))
        for n, (k, l) in enumerate(grid.point_of)
    }
    located: Dict[int, bool] = {n: False for n in range(grid.n_nodes)}

    def locate(node: int, x: float, y: float) -> None:
        if not located[node]:
            positions[node] = (x, y)
            located[node] = True

    by_subdivision: Dict[int, List[ShapingSegment]] = {}
    for seg in segments:
        by_subdivision.setdefault(seg.subdivision, []).append(seg)

    for sub in subdivisions:
        for seg in by_subdivision.get(sub.index, []):
            a, b = seg.lattice_ends
            if a == b:
                locate(grid.node(*a), seg.x1, seg.y1)
                continue
            side = sub.side_of_points(a, b)
            path = sub.side_path(side)
            ia, ib = path.index(a), path.index(b)
            run = (path[ia:ib + 1] if ia < ib
                   else list(reversed(path[ib:ia + 1])))
            stations = [0.0]
            for (k0, l0), (k1, l1) in zip(run[:-1], run[1:]):
                stations.append(stations[-1] + math.hypot(k1 - k0, l1 - l0))
            for pt, point in zip(run, place_along_path(seg.path(),
                                                       stations)):
                locate(grid.node(*pt), point.x, point.y)
        # Interior interpolation between the first fully-located pair,
        # vertical preferred -- the driver's default order.
        pairs = {"vertical": ("left", "right"),
                 "horizontal": ("bottom", "top")}
        pair = None
        for name in ("vertical", "horizontal"):
            sides = pairs[name]
            if all(
                all(located[grid.node(*pt)] for pt in sub.side_path(s))
                for s in sides
            ):
                pair = sides
                break
        assert pair is not None, "reference inputs must be shapeable"
        interp_a = _ScalarInterpolant(positions, grid, sub, pair[0])
        interp_b = _ScalarInterpolant(positions, grid, sub, pair[1])
        parallel = (("left", "right") if sub.is_column_oriented
                    else ("bottom", "top"))
        pair_is_parallel = pair == parallel
        for pt in map(tuple, sub.lattice_points_array().tolist()):
            node = grid.node(*pt)
            if located[node]:
                continue
            s, t = _scalar_logical(sub, pt)
            param, frac = (s, t) if pair_is_parallel else (t, s)
            pax, pay = interp_a.at(param)
            pbx, pby = interp_b.at(param)
            positions[node] = (pax + frac * (pbx - pax),
                               pay + frac * (pby - pay))
            located[node] = True
        for pt in map(tuple, sub.lattice_points_array().tolist()):
            located[grid.node(*pt)] = True
    return np.array([positions[n] for n in range(grid.n_nodes)],
                    dtype=float)


# ----------------------------------------------------------------------
# Reformation (diagonal-swap sweep)
# ----------------------------------------------------------------------

_IMPROVEMENT_TOL = 1e-12
_CONVEX_TOL = 1e-12


def _min_angle(pa, pb, pc) -> Optional[float]:
    """Smallest interior angle of one triangle; None when degenerate.

    Uses ``np.hypot``/``np.arccos`` on scalars: ``math.hypot`` is a
    different (correctly-rounded) algorithm since CPython 3.8, and the
    cross-check demands the *same* libm rounding the batched kernel
    gets, down to the last ULP.
    """
    la = float(np.hypot(pc[0] - pb[0], pc[1] - pb[1]))
    lb = float(np.hypot(pa[0] - pc[0], pa[1] - pc[1]))
    lc = float(np.hypot(pb[0] - pa[0], pb[1] - pa[1]))
    if la == 0.0 or lb == 0.0 or lc == 0.0:
        return None
    cos_a = max(-1.0, min(1.0, (lb * lb + lc * lc - la * la)
                          / (2.0 * lb * lc)))
    cos_b = max(-1.0, min(1.0, (lc * lc + la * la - lb * lb)
                          / (2.0 * lc * la)))
    alpha = float(np.arccos(cos_a))
    beta = float(np.arccos(cos_b))
    gamma = max(math.pi - alpha - beta, 0.0)
    return min(alpha, beta, gamma)


def _convex(quad: List[Tuple[float, float]]) -> bool:
    crosses = []
    for i in range(4):
        ax, ay = quad[i]
        bx, by = quad[(i + 1) % 4]
        cx, cy = quad[(i + 2) % 4]
        crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
    if any(abs(c) <= _CONVEX_TOL for c in crosses):
        return False
    return all(c > 0.0 for c in crosses) or all(c < 0.0 for c in crosses)


def scalar_reform_pass(mesh: Mesh) -> int:
    """One per-edge sweep of the diagonal-swap reformation."""
    edge_elements: Dict[Tuple[int, int], List[int]] = {}
    for e, tri in enumerate(mesh.elements.tolist()):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]),
                     (tri[2], tri[0])):
            edge_elements.setdefault((min(a, b), max(a, b)), []).append(e)
    swaps = 0
    handled: set = set()
    groups = np.asarray(mesh.element_groups)
    for (a, b), elems in edge_elements.items():
        if len(elems) != 2 or (a, b) in handled:
            continue
        e1, e2 = elems
        if groups[e1] != groups[e2]:
            continue
        t1 = mesh.elements[e1].tolist()
        t2 = mesh.elements[e2].tolist()
        opp1 = [v for v in t1 if v != a and v != b]
        opp2 = [v for v in t2 if v != a and v != b]
        if len(opp1) != 1 or len(opp2) != 1:
            continue
        c, d = opp1[0], opp2[0]
        if c == d:
            continue
        pa = tuple(mesh.nodes[a])
        pb = tuple(mesh.nodes[b])
        pc = tuple(mesh.nodes[c])
        pd = tuple(mesh.nodes[d])
        if not _convex([pa, pc, pb, pd]):
            continue
        angles = [_min_angle(pa, pb, pc), _min_angle(pa, pb, pd),
                  _min_angle(pc, pd, pa), _min_angle(pc, pd, pb)]
        if any(ang is None for ang in angles):
            continue
        current = min(angles[0], angles[1])
        proposed = min(angles[2], angles[3])
        if not proposed > current + _IMPROVEMENT_TOL:
            continue
        area1 = ((pd[0] - pc[0]) * (pa[1] - pc[1])
                 - (pa[0] - pc[0]) * (pd[1] - pc[1]))
        area2 = ((pd[0] - pc[0]) * (pb[1] - pc[1])
                 - (pb[0] - pc[0]) * (pd[1] - pc[1]))
        new1 = [c, a, d] if area1 < 0.0 else [c, d, a]
        new2 = [c, b, d] if area2 < 0.0 else [c, d, b]
        mesh.elements[e1] = new1
        mesh.elements[e2] = new2
        swaps += 1
        for tri in (new1, new2):
            for x, y in ((tri[0], tri[1]), (tri[1], tri[2]),
                         (tri[2], tri[0])):
                handled.add((min(x, y), max(x, y)))
    return swaps


def scalar_reform(mesh: Mesh, max_passes: int = 20) -> int:
    total = 0
    for _ in range(max_passes):
        swapped = scalar_reform_pass(mesh)
        total += swapped
        if swapped == 0:
            break
    return total


# ----------------------------------------------------------------------
# Triangle quality (aspect ratio and shape index)
# ----------------------------------------------------------------------

def _sides(a, b, c) -> Tuple[float, float, float]:
    """Side lengths by ``np.hypot`` on scalars, as :func:`_min_angle`.

    ``math.hypot`` rounds differently from libm's ``hypot`` in the last
    place now and then, and one such side moved an aspect ratio by
    6 ULP; with the same hypot the measures agree bit for bit.
    """
    return (
        float(np.hypot(c[0] - b[0], c[1] - b[1])),
        float(np.hypot(a[0] - c[0], a[1] - c[1])),
        float(np.hypot(b[0] - a[0], b[1] - a[1])),
    )


def _area(a, b, c) -> float:
    return 0.5 * abs(
        (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    )


def aspect_ratio(a, b, c) -> float:
    """Longest side over the equilateral-normalised inradius diameter.

    Degenerate (zero-area) triangles raise :class:`MeshError`.
    """
    l1, l2, l3 = _sides(a, b, c)
    area = _area(a, b, c)
    if area == 0.0:
        raise MeshError("aspect ratio of a degenerate triangle")
    s = 0.5 * (l1 + l2 + l3)
    inradius = area / s
    return max(l1, l2, l3) / (2.0 * math.sqrt(3.0) * inradius)


def shape_quality(a, b, c) -> float:
    """Normalised shape index in (0, 1]; point triangles raise."""
    l1, l2, l3 = _sides(a, b, c)
    denom = l1 * l1 + l2 * l2 + l3 * l3
    if denom == 0.0:
        raise MeshError("shape quality of a point triangle")
    return 4.0 * math.sqrt(3.0) * _area(a, b, c) / denom


# ----------------------------------------------------------------------
# Edge table, node adjacency, Cuthill-McKee and the profile
# ----------------------------------------------------------------------

def scalar_edge_table(mesh: Mesh) -> List[Tuple[int, ...]]:
    """``(a, b, count, e1, e2)`` per unique edge, by a dict walk.

    The dict is keyed on the sorted node pair and filled in element /
    edge-slot order, so its insertion order is the first-encounter
    order and each row keeps the edge's first directed occurrence.
    """
    rows: Dict[Tuple[int, int], List[int]] = {}
    for e, (i, j, k) in enumerate(mesh.elements.tolist()):
        for a, b in ((i, j), (j, k), (k, i)):
            row = rows.setdefault((min(a, b), max(a, b)), [a, b, 0, e, -1])
            row[2] += 1
            if row[2] == 2:
                row[4] = e
    return [tuple(row) for row in rows.values()]


def scalar_node_adjacency(mesh: Mesh) -> List[set]:
    """Node-to-node adjacency through element edges, by an element loop."""
    adj: List[set] = [set() for _ in range(mesh.n_nodes)]
    for tri in mesh.elements:
        a, b, c = (int(v) for v in tri)
        adj[a].update((b, c))
        adj[b].update((a, c))
        adj[c].update((a, b))
    return adj


def scalar_profile(mesh: Mesh) -> int:
    """Envelope size by the per-element loop: sum of (i - lowest j)."""
    lowest = list(range(mesh.n_nodes))
    for tri in mesh.elements.tolist():
        m = min(tri)
        for n in tri:
            lowest[n] = min(lowest[n], m)
    return sum(i - low for i, low in enumerate(lowest))


def _bfs_levels(adj: List[List[int]], start: int) -> List[int]:
    levels = [-1] * len(adj)
    levels[start] = 0
    queue = [start]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in adj[v]:
            if levels[w] < 0:
                levels[w] = levels[v] + 1
                queue.append(w)
    return levels


def _pseudo_peripheral(adj: List[List[int]], component: List[int]) -> int:
    """The far end of a repeated level-structure sweep.

    ``component`` is ascending, so every ``min`` by degree picks the
    lowest node index among the minimum-degree candidates.
    """
    start = min(component, key=lambda v: len(adj[v]))
    for _ in range(4):
        levels = _bfs_levels(adj, start)
        depth = max(levels[v] for v in component if levels[v] >= 0)
        frontier = [v for v in component if levels[v] == depth]
        candidate = min(frontier, key=lambda v: len(adj[v]))
        if candidate == start:
            break
        new_levels = _bfs_levels(adj, candidate)
        new_depth = max(new_levels[v] for v in component
                        if new_levels[v] >= 0)
        if new_depth <= depth:
            start = candidate
            break
        start = candidate
    return start


def scalar_cuthill_mckee(mesh: Mesh, start: Optional[int] = None
                         ) -> List[int]:
    """Cuthill-McKee by a per-node FIFO queue over sorted neighbour lists.

    Neighbours are visited by (degree, index); each component is swept
    from the pseudo-peripheral node of the component holding the lowest
    unvisited node; isolated nodes not yet visited come last.
    """
    n = mesh.n_nodes
    sets = scalar_node_adjacency(mesh)
    adj = [sorted(s, key=lambda v: (len(sets[v]), v)) for s in sets]
    visited = [False] * n
    order: List[int] = []
    remaining = [v for v in range(n) if adj[v]]
    roots = [] if start is None else [start]
    while True:
        remaining = [v for v in remaining if not visited[v]]
        if roots:
            root = roots.pop()
        elif remaining:
            levels = _bfs_levels(adj, remaining[0])
            root = _pseudo_peripheral(
                adj, [v for v in remaining if levels[v] >= 0])
        else:
            break
        queue = [root]
        visited[root] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in adj[v]:
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return order + [v for v in range(n) if not visited[v]]


def scalar_permutation(order: Sequence[int]) -> List[int]:
    """``perm[old] = new`` for a visit order, by a Python loop."""
    perm = [0] * len(order)
    for new, old in enumerate(order):
        perm[old] = new
    return perm


# ----------------------------------------------------------------------
# Contour extraction
# ----------------------------------------------------------------------

def scalar_extract_contours(
    mesh: Mesh, values: Sequence[float], levels: Sequence[float],
    window=None,
) -> Dict[float, List[Tuple[float, ...]]]:
    """Per-element, per-level contour extraction.

    Drives :func:`repro.core.ospl.contour.triangle_crossings` one
    element at a time, globalises its edges, drops pinched segments and
    clips to ``window`` with :func:`scalar_clip_segment`.  Returns, per
    level, the segment tuples ``(element, sx, sy, sa, sb, ex, ey, ea,
    eb)`` with sorted global edge node pairs (``-1, -1`` where the clip
    moved the endpoint) -- the flat form the cross-check compares
    against :class:`repro.core.ospl.contour.ContourSet`.
    """
    from repro.core.ospl.contour import triangle_crossings

    out: Dict[float, List[Tuple[float, ...]]] = {
        level: [] for level in levels
    }
    for e, tri in enumerate(mesh.elements.tolist()):
        vals = [float(values[n]) for n in tri]
        pts = [Point(*mesh.nodes[n]) for n in tri]
        lo, hi = min(vals), max(vals)
        for level in levels:
            if not (lo <= level <= hi):
                continue
            crossings = triangle_crossings(pts, vals, level)
            if len(crossings) != 2:
                continue
            (p, (sa, sb)), (q, (ea, eb)) = crossings
            if abs(p.x - q.x) < 1e-14 and abs(p.y - q.y) < 1e-14:
                continue
            g1 = sorted((tri[sa], tri[sb]))
            g2 = sorted((tri[ea], tri[eb]))
            row = (float(p.x), float(p.y), float(q.x), float(q.y))
            if window is not None:
                clipped = scalar_clip_segment(*row, window)
                if clipped is None:
                    continue
                if clipped[:2] != row[:2]:
                    g1 = [-1, -1]
                if clipped[2:] != row[2:]:
                    g2 = [-1, -1]
                row = clipped
            out[level].append(
                (e, row[0], row[1], g1[0], g1[1], row[2], row[3],
                 g2[0], g2[1])
            )
    return out


def scalar_label_candidates(
    mesh: Mesh, segments: Dict[float, List[Tuple[float, ...]]],
) -> List[Tuple[float, float, float]]:
    """The per-endpoint boundary test, on :func:`scalar_extract_contours`
    rows: ``(level, x, y)`` of every endpoint on a boundary edge, on the
    window or (by its ``round(v, 9)`` key) on a boundary node, first
    occurrence per key."""
    flags = mesh.flags()
    counts: Dict[Tuple[int, int], int] = {}
    for tri in mesh.elements.tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    boundary = {
        key for key, count in counts.items()
        if count == 1 and flags[key[0]] > 0 and flags[key[1]] > 0
    }
    boundary_node_keys = {
        (round(float(mesh.nodes[n, 0]), 9), round(float(mesh.nodes[n, 1]), 9))
        for n in range(mesh.n_nodes) if flags[n] > 0
    }
    out: List[Tuple[float, float, float]] = []
    seen: set = set()
    for level, rows in segments.items():
        for _, sx, sy, sa, sb, ex, ey, ea, eb in rows:
            for x, y, edge in ((sx, sy, (sa, sb)), (ex, ey, (ea, eb))):
                on_window = edge == (-1, -1)
                on_node = (round(x, 9), round(y, 9)) in boundary_node_keys
                if not on_window and not on_node and edge not in boundary:
                    continue
                key = (level, round(x, 9), round(y, 9))
                if key in seen:
                    continue
                seen.add(key)
                out.append((level, x, y))
    return out


# ----------------------------------------------------------------------
# Cohen-Sutherland clipping
# ----------------------------------------------------------------------

_LEFT, _RIGHT, _BOTTOM, _TOP = 1, 2, 4, 8


def _outcode(x: float, y: float, box) -> int:
    code = 0
    if x < box.xmin:
        code |= _LEFT
    elif x > box.xmax:
        code |= _RIGHT
    if y < box.ymin:
        code |= _BOTTOM
    elif y > box.ymax:
        code |= _TOP
    return code


def _intersect(x0: float, y0: float, x1: float, y1: float, out: int,
               box) -> Tuple[float, float]:
    """Intersection of the segment with the window edge named by ``out``."""
    if out & _TOP:
        t = (box.ymax - y0) / (y1 - y0)
        return (x0 + t * (x1 - x0), box.ymax)
    if out & _BOTTOM:
        t = (box.ymin - y0) / (y1 - y0)
        return (x0 + t * (x1 - x0), box.ymin)
    if out & _RIGHT:
        t = (box.xmax - x0) / (x1 - x0)
        return (box.xmax, y0 + t * (y1 - y0))
    t = (box.xmin - x0) / (x1 - x0)
    return (box.xmin, y0 + t * (y1 - y0))


def scalar_clip_segment(x0: float, y0: float, x1: float, y1: float,
                        box) -> Optional[Tuple[float, float, float, float]]:
    """The per-segment Cohen-Sutherland loop; ``None`` when outside.

    After 16 clipping steps a segment is cycling between two window
    edges; it is kept with its endpoints clamped onto the window.
    """
    code0 = _outcode(x0, y0, box)
    code1 = _outcode(x1, y1, box)
    for steps in range(17):
        if not (code0 | code1):
            return (x0, y0, x1, y1)
        if code0 & code1:
            return None
        if steps == 16:
            break
        out = code0 if code0 else code1
        x, y = _intersect(x0, y0, x1, y1, out, box)
        if out == code0:
            x0, y0 = x, y
            code0 = _outcode(x0, y0, box)
        else:
            x1, y1 = x, y
            code1 = _outcode(x1, y1, box)
    return (min(max(x0, box.xmin), box.xmax), min(max(y0, box.ymin), box.ymax),
            min(max(x1, box.xmin), box.xmax), min(max(y1, box.ymin), box.ymax))


# ----------------------------------------------------------------------
# The SC-4020 vector call and the printed listing
# ----------------------------------------------------------------------

_RASTER_MAX = 1023.0
_RASTER_BOX = BoundingBox(0.0, 0.0, _RASTER_MAX, _RASTER_MAX)


def scalar_vector_ops(rows: Sequence[Tuple[float, float, float, float]],
                      strict: bool = False
                      ) -> Tuple[List[Tuple[int, int, int, int]],
                                 Optional[str]]:
    """One clip-and-round per stroke, as the plotter's per-call vector.

    Returns the ``(x0, y0, x1, y1)`` ops drawn and, in strict mode, the
    message of the off-raster fault that stopped the batch (else None).
    """
    ops: List[Tuple[int, int, int, int]] = []
    for x0, y0, x1, y1 in rows:
        if strict:
            for x, y in ((x0, y0), (x1, y1)):
                if not (0.0 <= x <= _RASTER_MAX and 0.0 <= y <= _RASTER_MAX):
                    return ops, f"beam driven off raster to ({x:g}, {y:g})"
        clipped = scalar_clip_segment(float(x0), float(y0), float(x1),
                                      float(y1), _RASTER_BOX)
        if clipped is not None:
            ops.append(tuple(int(round(v)) for v in clipped))
    return ops, None


def scalar_listing_tables(mesh: Mesh) -> List[str]:
    """The node and element tables of the IDLZ listing, row by row."""
    lines = [" NODE        X            Y      BDY"]
    flags = mesh.flags()
    for n in range(mesh.n_nodes):
        x, y = mesh.nodes[n]
        lines.append(f"{n + 1:5d}  {x:12.5f} {y:12.5f}  {flags[n]:3d}")
    lines.append("")
    lines.append(" ELEM   NODE1 NODE2 NODE3  GROUP")
    for e in range(mesh.n_elements):
        i, j, k = (int(v) + 1 for v in mesh.elements[e])
        g = int(mesh.element_groups[e]) + 1
        lines.append(f"{e + 1:5d}  {i:5d} {j:5d} {k:5d}  {g:5d}")
    return lines
