"""Unit tests for the triangle-measure kernel and the mesh quality report."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError, MeshError
from repro.fem.mesh import Mesh
from repro.fem.quality import mesh_quality, triangle_measures
from repro.geometry.primitives import Point

EQUILATERAL = (Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2))
RIGHT = (Point(0, 0), Point(1, 0), Point(0, 1))
NEEDLE = (Point(0, 0), Point(10, 0), Point(5, 0.05))
DEGENERATE = (Point(0, 0), Point(1, 0), Point(2, 0))


def measures(a, b, c):
    """The kernel on one triangle."""
    return triangle_measures(*(np.array([p], dtype=float) for p in (a, b, c)))


def aspect_ratio(a, b, c) -> float:
    return float(measures(a, b, c).aspect[0])


def shape_quality(a, b, c) -> float:
    return float(measures(a, b, c).shape[0])


def one_triangle_mesh(a, b, c) -> Mesh:
    return Mesh(nodes=np.array([a, b, c], dtype=float),
                elements=np.array([[0, 1, 2]]))


class TestAspectRatio:
    def test_equilateral_is_one(self):
        assert aspect_ratio(*EQUILATERAL) == pytest.approx(1.0)

    def test_right_triangle(self):
        # Known value: hyp / (2 sqrt3 r) with r = (a + b - c)/2.
        r = (1 + 1 - math.sqrt(2)) / 2
        expected = math.sqrt(2) / (2 * math.sqrt(3) * r)
        assert aspect_ratio(*RIGHT) == pytest.approx(expected)

    def test_needle_is_large(self):
        assert aspect_ratio(*NEEDLE) > 50.0

    def test_scale_invariant(self):
        scaled = tuple(Point(10 * p.x, 10 * p.y) for p in RIGHT)
        assert aspect_ratio(*scaled) == pytest.approx(aspect_ratio(*RIGHT))

    def test_degenerate_rejected(self):
        m = measures(*DEGENERATE)
        assert m.flat[0] and not m.coincident[0]
        assert math.isinf(m.aspect[0])
        with pytest.raises(MeshError, match="degenerate triangle"):
            mesh_quality(one_triangle_mesh(*DEGENERATE))


class TestShapeQuality:
    def test_equilateral_is_one(self):
        assert shape_quality(*EQUILATERAL) == pytest.approx(1.0)

    def test_all_below_one(self):
        for tri in (RIGHT, NEEDLE):
            assert 0.0 < shape_quality(*tri) < 1.0

    def test_needle_near_zero(self):
        assert shape_quality(*NEEDLE) < 0.05

    def test_rotation_invariant(self):
        rotated = tuple(p.rotated(0.7) for p in RIGHT)
        assert shape_quality(*rotated) == pytest.approx(
            shape_quality(*RIGHT)
        )

    def test_point_triangle_rejected(self):
        p = Point(1, 1)
        m = measures(p, p, p)
        assert m.flat[0] and m.coincident[0]
        assert math.isnan(m.shape[0])
        with pytest.raises(GeometryError, match="coincident vertices"):
            mesh_quality(one_triangle_mesh(p, p, p))


class TestMeshQuality:
    def test_aggregate_fields(self, unit_square_mesh):
        q = mesh_quality(unit_square_mesh)
        assert q.n_elements == 2
        assert q.min_angle_deg == pytest.approx(45.0)
        assert 0 < q.worst_shape <= q.mean_shape <= 1.0
        assert q.worst_aspect >= q.mean_aspect >= 1.0

    def test_as_dict_keys(self, unit_square_mesh):
        d = mesh_quality(unit_square_mesh).as_dict()
        assert set(d) == {
            "min_angle_deg", "mean_min_angle_deg", "worst_aspect",
            "mean_aspect", "worst_shape", "mean_shape", "n_elements",
        }

    def test_empty_mesh_rejected(self):
        empty = Mesh(nodes=np.zeros((3, 2)),
                     elements=np.zeros((0, 3), int))
        with pytest.raises(MeshError):
            mesh_quality(empty)

    def test_reform_improves_mean_shape(self, built_structures):
        from repro.core.idlz.reform import reform_elements

        pre = built_structures["circular_ring"].idealization.prereform_mesh
        post = pre.copy()
        reform_elements(post)
        assert mesh_quality(post).mean_shape >= mesh_quality(pre).mean_shape

    def test_library_quality_floor(self, built_structures):
        for name, built in built_structures.items():
            q = mesh_quality(built.mesh)
            assert q.worst_shape > 0.05, name

