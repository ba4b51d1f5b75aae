"""Unit tests for isogram extraction, including the paper's Figure 12."""

import numpy as np
import pytest

from repro.core.ospl.contour import (
    ContourSet,
    contour_mesh,
    triangle_crossings,
)
from repro.errors import ContourError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.geometry.primitives import BoundingBox, Point


class TestTriangleCrossings:
    TRI = [Point(0, 0), Point(2, 0), Point(0, 2)]

    def test_level_between_values_crosses_twice(self):
        crossings = triangle_crossings(self.TRI, [0.0, 10.0, 20.0], 5.0)
        assert len(crossings) == 2

    def test_interpolation_linear(self):
        crossings = triangle_crossings(self.TRI, [0.0, 10.0, 0.0], 5.0)
        xs = sorted(point.x for point, _ in crossings)
        assert xs[0] == pytest.approx(1.0)

    def test_level_outside_misses(self):
        assert triangle_crossings(self.TRI, [1.0, 2.0, 3.0], 99.0) == []

    def test_level_at_vertex_consistent(self):
        # One vertex exactly on the level: half-open rule gives 0 or 2
        # crossings, never 1.
        crossings = triangle_crossings(self.TRI, [5.0, 0.0, 10.0], 5.0)
        assert len(crossings) in (0, 2)

    def test_flat_triangle_no_crossings(self):
        assert triangle_crossings(self.TRI, [5.0, 5.0, 5.0], 5.0) == []

    def test_edge_identity_recorded(self):
        crossings = triangle_crossings(self.TRI, [0.0, 10.0, 0.0], 5.0)
        edges = {edge for _, edge in crossings}
        assert edges == {(0, 1), (1, 2)}

    def test_wrong_arity_rejected(self):
        with pytest.raises(ContourError):
            triangle_crossings(self.TRI[:2], [0.0, 1.0], 0.5)


class TestFigure12:
    """The paper's worked example: triangle ABC with an interval of 10.

    "Assuming an interval of 10 between lines, and beginning with 10, it
    is seen that lines of value 10, 20, and 30 pass through ABC."
    """

    def make(self):
        nodes = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
        elements = np.array([[0, 1, 2]])
        mesh = Mesh(nodes=nodes, elements=elements)
        field = NodalField("S", np.array([5.0, 35.0, 17.0]))
        return mesh, field

    def test_three_levels_cross(self):
        mesh, field = self.make()
        contours = contour_mesh(mesh, field, interval=10.0)
        assert contours.nonempty_levels() == pytest.approx([10, 20, 30])

    def test_one_segment_per_level(self):
        mesh, field = self.make()
        contours = contour_mesh(mesh, field, interval=10.0)
        for level in (10.0, 20.0, 30.0):
            assert len(contours.segments_at(level)) == 1

    def test_segment_endpoints_interpolate_values(self):
        mesh, field = self.make()
        contours = contour_mesh(mesh, field, interval=10.0)
        segs = contours.segments_at(20.0)
        assert len(segs) == 1
        # Both endpoints must interpolate to exactly 20 along their edges.
        for (x, y), (a, b) in zip(segs.points[0].tolist(),
                                  segs.edges[0].tolist()):
            va, vb = field[a], field[b]
            pa, pb = mesh.node_point(a), mesh.node_point(b)
            t_num = (x - pa.x, y - pa.y)
            denom = (pb.x - pa.x, pb.y - pa.y)
            t = (t_num[0] / denom[0]) if denom[0] else (t_num[1] / denom[1])
            assert va + t * (vb - va) == pytest.approx(20.0)


class TestContourMesh:
    def make_grid(self, n=6):
        nodes = []
        for j in range(n + 1):
            for i in range(n + 1):
                nodes.append([i / n, j / n])
        elements = []
        for j in range(n):
            for i in range(n):
                a = j * (n + 1) + i
                b, c, d = a + 1, a + n + 2, a + n + 1
                elements.append([a, b, c])
                elements.append([a, c, d])
        mesh = Mesh(nodes=np.array(nodes), elements=np.array(elements))
        field = NodalField("f", mesh.nodes[:, 0] * 100.0)
        return mesh, field

    def test_linear_field_contours_vertical(self):
        mesh, field = self.make_grid()
        contours = contour_mesh(mesh, field, interval=25.0)
        for level in contours.nonempty_levels():
            xs = contours.segments_at(level).points[:, :, 0]
            assert xs == pytest.approx(np.full(xs.shape, level / 100.0))

    def test_contours_span_the_mesh_height(self):
        mesh, field = self.make_grid()
        contours = contour_mesh(mesh, field, interval=50.0)
        ys = contours.segments_at(50.0).points[:, :, 1]
        assert ys.min() == pytest.approx(0.0)
        assert ys.max() == pytest.approx(1.0)

    def test_auto_interval_engaged(self):
        mesh, field = self.make_grid()
        contours = contour_mesh(mesh, field)  # delta omitted
        assert contours.interval == 5.0  # 5% of range 100 on the ladder

    def test_window_clips_segments(self):
        mesh, field = self.make_grid()
        window = BoundingBox(0.0, 0.0, 1.0, 0.5)
        contours = contour_mesh(mesh, field, interval=25.0, window=window)
        assert contours.n_segments() > 0
        assert (contours.all_points()[:, :, 1] <= 0.5 + 1e-12).all()

    def test_window_drops_outside_segments(self):
        mesh, field = self.make_grid()
        window = BoundingBox(0.0, 0.0, 0.3, 1.0)
        contours = contour_mesh(mesh, field, interval=25.0, window=window)
        assert len(contours.segments_at(75.0)) == 0

    def test_field_size_mismatch_rejected(self):
        mesh, _ = self.make_grid()
        with pytest.raises(ContourError, match="values"):
            contour_mesh(mesh, NodalField("f", np.zeros(3)), interval=1.0)

    def test_segment_count_scales_with_levels(self):
        mesh, field = self.make_grid()
        coarse = contour_mesh(mesh, field, interval=50.0)
        fine = contour_mesh(mesh, field, interval=10.0)
        assert fine.n_segments() > coarse.n_segments()

    def test_contour_continuity_across_elements(self):
        # Each interior contour endpoint must be shared by exactly two
        # element segments (crack-free isograms).
        mesh, field = self.make_grid()
        field = NodalField("g", (mesh.nodes[:, 0] + mesh.nodes[:, 1]) * 50)
        contours = contour_mesh(mesh, field, interval=10.0)
        for level in contours.nonempty_levels():
            counts = {}
            points = contours.segments_at(level).points
            for x, y in points.reshape(-1, 2).tolist():
                key = (round(x, 9), round(y, 9))
                counts[key] = counts.get(key, 0) + 1
            interior = [k for k, v in counts.items() if v >= 2]
            boundary = [k for k, v in counts.items() if v == 1]
            # A straight diagonal contour: exactly two loose ends.
            assert len(boundary) == 2, level
