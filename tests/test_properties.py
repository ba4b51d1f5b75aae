"""Property-based tests (hypothesis) on the core invariants.

Covers the load-bearing kernels: the FORMAT engine round trip, segment
clipping, the Appendix-D interval ladder, contour extraction, banded
Cholesky, and Cuthill-McKee renumbering.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cards.fortran_format import FortranFormat
from repro.core.ospl.contour import triangle_crossings
from repro.core.ospl.intervals import BASES, choose_interval, contour_levels
from repro.fem.banded import BandedSymmetricMatrix
from repro.fem.bandwidth import mesh_bandwidth, reverse_cuthill_mckee
from repro.fem.mesh import Mesh
from repro.geometry.arc import arc_through
from repro.geometry.clip import clip_segment
from repro.geometry.primitives import BoundingBox, Point, Segment

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


class TestFormatRoundTrip:
    @given(st.lists(st.integers(min_value=-9999, max_value=99999),
                    min_size=1, max_size=6))
    def test_integers_round_trip(self, values):
        fmt = FortranFormat(f"({len(values)}I6)")
        card = fmt.write(values)[0]
        assert fmt.read(card) == values

    @given(st.lists(st.floats(min_value=-999.0, max_value=999.0,
                              allow_nan=False), min_size=1, max_size=5))
    def test_reals_round_trip_to_field_precision(self, values):
        fmt = FortranFormat(f"({len(values)}F10.4)")
        card = fmt.write(values)[0]
        out = fmt.read(card)
        for expected, got in zip(values, out):
            # F10.4 quantises to 4 decimals; half-to-even rounding can
            # land exactly half a quantum away.
            assert got == pytest.approx(expected, abs=5.01e-5)

    @given(st.integers(min_value=-99999999, max_value=99999999))
    def test_implied_decimal_consistent_with_scaling(self, raw):
        fmt = FortranFormat("(F9.3)")
        card = f"{raw:9d}"
        assert fmt.read(card) == [raw * 1e-3]


class TestClipProperties:
    boxes = st.tuples(finite, finite, finite, finite).map(
        lambda t: BoundingBox(min(t[0], t[2]), min(t[1], t[3]),
                              max(t[0], t[2]), max(t[1], t[3]))
    )
    points = st.tuples(finite, finite).map(lambda t: Point(*t))

    @given(points, points, boxes)
    def test_clipped_endpoints_inside_box(self, a, b, box):
        out = clip_segment(Segment(a, b), box)
        if out is not None:
            tol = 1e-6 * (1 + abs(box.xmax) + abs(box.ymax)
                          + abs(box.xmin) + abs(box.ymin))
            assert box.contains(out.start, tol=tol)
            assert box.contains(out.end, tol=tol)

    @given(boxes, st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1))
    def test_inside_segment_unchanged(self, box, fx0, fy0, fx1, fy1):
        def inside(fx, fy):
            # Clamp: xmin + f*width can overshoot xmax by one ulp.
            return Point(min(box.xmin + fx * box.width, box.xmax),
                         min(box.ymin + fy * box.height, box.ymax))

        a = inside(fx0, fy0)
        b = inside(fx1, fy1)
        out = clip_segment(Segment(a, b), box)
        assert out == Segment(a, b)

    @given(points, points, boxes)
    def test_clip_never_lengthens(self, a, b, box):
        out = clip_segment(Segment(a, b), box)
        if out is not None:
            assert out.length() <= Segment(a, b).length() + 1e-6


class TestIntervalProperties:
    @given(st.floats(min_value=1e-6, max_value=1e12),
           st.floats(min_value=-1e11, max_value=1e11))
    def test_interval_on_ladder(self, span, lo):
        assume(lo + span > lo)  # span not lost to float rounding
        interval = choose_interval(lo, lo + span)
        mantissa = interval / (10.0 ** math.floor(math.log10(interval)))
        assert any(
            mantissa == pytest.approx(b, rel=1e-9)
            or mantissa == pytest.approx(b / 10, rel=1e-9)
            for b in BASES
        )

    @given(st.floats(min_value=1e-3, max_value=1e9))
    def test_interval_brackets_five_percent(self, span):
        interval = choose_interval(0.0, span)
        # The nearest ladder rungs around 5% are 2.5% and 10%.
        assert 0.02 * span < interval < 0.11 * span

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e6))
    def test_levels_inside_range_and_spaced(self, lo, span):
        hi = lo + span
        interval = choose_interval(lo, hi)
        levels = contour_levels(lo, hi, interval)
        # Round-off tolerance scales with the quantisation unit (the
        # interval) as well as the data magnitude: when vmin is float
        # noise next to the interval, the first multiple may sit a hair
        # below it (and extracts zero segments, harmlessly).
        tol = 1e-6 * max(interval, abs(lo), abs(hi), 1.0)
        for level in levels:
            assert lo - tol <= level
            assert level <= hi + tol
        scale_tol = 1e-6 * interval + 1e-8 * max(abs(lo), abs(hi))
        for a, b in zip(levels, levels[1:]):
            assert b - a == pytest.approx(interval, abs=scale_tol)


class TestContourProperties:
    triangles = st.tuples(
        st.tuples(finite, finite), st.tuples(finite, finite),
        st.tuples(finite, finite),
    )

    @given(
        triangles,
        st.tuples(st.floats(-100, 100, allow_nan=False),
                  st.floats(-100, 100, allow_nan=False),
                  st.floats(-100, 100, allow_nan=False)),
        st.floats(-100, 100, allow_nan=False),
    )
    def test_crossing_count_is_zero_or_two(self, tri, values, level):
        pts = [Point(*p) for p in tri]
        crossings = triangle_crossings(pts, list(values), level)
        assert len(crossings) in (0, 2)

    @given(
        st.tuples(st.floats(-100, 100, allow_nan=False),
                  st.floats(-100, 100, allow_nan=False),
                  st.floats(-100, 100, allow_nan=False)),
        st.floats(-100, 100, allow_nan=False),
    )
    def test_crossings_interpolate_to_level(self, values, level):
        pts = [Point(0, 0), Point(4, 0), Point(0, 4)]
        values = list(values)
        crossings = triangle_crossings(pts, values, level)
        for point, (a, b) in crossings:
            va, vb = values[a], values[b]
            pa, pb = pts[a], pts[b]
            denom = math.hypot(pb.x - pa.x, pb.y - pa.y)
            t = math.hypot(point.x - pa.x, point.y - pa.y) / denom
            assert va + t * (vb - va) == pytest.approx(level, abs=1e-6)

    @given(st.floats(0.1, 100), st.floats(0.1, 100))
    def test_level_strictly_between_min_max_always_crosses(self, a, b):
        assume(abs(a - b) > 1e-6)
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        values = [0.0, a, b]
        level = 0.5 * min(a, b)
        crossings = triangle_crossings(pts, values, level)
        assert len(crossings) == 2


class TestBandedProperties:
    @given(st.integers(2, 12), st.integers(0, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_banded_solve_matches_numpy(self, n, hb, seed):
        hb = min(hb, n - 1)
        rng = np.random.default_rng(seed)
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(max(0, i - hb), i + 1):
                a[i, j] = rng.normal()
                a[j, i] = a[i, j]
        a += np.eye(n) * (np.abs(a).sum() + 1.0)
        rhs = rng.normal(size=n)
        m = BandedSymmetricMatrix.from_dense(a)
        assert np.allclose(m.solve(rhs), np.linalg.solve(a, rhs),
                           rtol=1e-8, atol=1e-10)


class TestRcmProperties:
    @st.composite
    def random_strip_mesh(draw):
        n = draw(st.integers(3, 15))
        seed = draw(st.integers(0, 10000))
        nodes = []
        for i in range(n):
            nodes.append([float(i), 0.0])
            nodes.append([float(i), 1.0])
        elements = []
        for i in range(n - 1):
            a, b = 2 * i, 2 * (i + 1)
            c, d = 2 * (i + 1) + 1, 2 * i + 1
            elements.append([a, b, c])
            elements.append([a, c, d])
        mesh = Mesh(nodes=np.array(nodes), elements=np.array(elements))
        perm = np.random.default_rng(seed).permutation(2 * n).tolist()
        return mesh.renumbered(perm)

    @given(random_strip_mesh())
    @settings(max_examples=30, deadline=None)
    def test_rcm_is_permutation_and_never_worse_than_strip_band(self, mesh):
        perm = reverse_cuthill_mckee(mesh)
        assert sorted(perm) == list(range(mesh.n_nodes))
        renumbered = mesh.renumbered(perm)
        # A ladder strip has an optimal node bandwidth of 3; RCM must get
        # within a small constant of it regardless of the initial mess.
        assert mesh_bandwidth(renumbered) <= 4


class TestArcProperties:
    @given(st.floats(0.2, 50), st.floats(0.05, 0.98))
    def test_arc_points_equidistant_from_center(self, radius, frac):
        chord = 2 * radius * math.sin(math.radians(45)) * frac
        arc = arc_through(Point(0, 0), Point(chord, 0), radius)
        for t in np.linspace(0, 1, 7):
            p = arc.point_at(float(t))
            d = math.hypot(p.x - arc.center.x, p.y - arc.center.y)
            assert d == pytest.approx(radius, rel=1e-9)

    @given(st.floats(0.2, 50), st.floats(0.05, 0.98))
    def test_sweep_at_most_90_degrees(self, radius, frac):
        chord = 2 * radius * math.sin(math.radians(45)) * frac
        arc = arc_through(Point(0, 0), Point(chord, 0), radius)
        assert arc.sweep <= math.pi / 2 + 1e-9
