"""Unit tests for element reformation (diagonal swapping)."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.idlz.elements import create_elements
from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz import reform as reform_module
from repro.core.idlz.reform import quality_report, reform_elements
from repro.core.idlz.subdivision import Subdivision
from repro.errors import MeshError
from repro.fem.mesh import Mesh
from tests.scalar_reference import scalar_reform_pass


def quad_mesh(d: float, bad_diagonal: bool = True) -> Mesh:
    """A kite quadrilateral split by one of its diagonals.

    With ``bad_diagonal`` the long diagonal is used, producing two
    needle-like triangles; the swap to the short diagonal improves the
    minimum angle.
    """
    nodes = np.array([
        [0.0, 0.0],     # 0 left
        [5.0, -d],      # 1 bottom
        [10.0, 0.0],    # 2 right
        [5.0, d],       # 3 top
    ])
    if bad_diagonal:
        elements = np.array([[0, 1, 2], [0, 2, 3]])
    else:
        elements = np.array([[0, 1, 3], [1, 2, 3]])
    return Mesh(nodes=nodes, elements=elements)


class TestSwap:
    def test_needle_pair_swapped(self):
        mesh = quad_mesh(0.5)
        before = mesh.min_angle()
        swaps = reform_elements(mesh)
        assert swaps == 1
        assert mesh.min_angle() > before

    def test_swapped_connectivity_uses_other_diagonal(self):
        mesh = quad_mesh(0.5)
        reform_elements(mesh)
        edges = set(mesh.edge_counts())
        assert (1, 3) in edges
        assert (0, 2) not in edges

    def test_good_pair_untouched(self):
        mesh = quad_mesh(5.0, bad_diagonal=False)
        # Square-ish kite already using the better diagonal.
        assert reform_elements(mesh) == 0

    def test_swap_preserves_total_area(self):
        mesh = quad_mesh(0.5)
        area_before = np.abs(mesh.element_areas()).sum()
        reform_elements(mesh)
        assert np.abs(mesh.element_areas()).sum() == pytest.approx(
            area_before
        )

    def test_swapped_elements_remain_ccw(self):
        mesh = quad_mesh(0.5)
        reform_elements(mesh)
        assert np.all(mesh.element_areas() > 0)

    def test_nonconvex_pair_never_swapped(self):
        # A dart: swapping would fold the mesh.
        nodes = np.array([
            [0.0, 0.0], [10.0, 0.0], [5.0, 1.0], [5.0, 4.0],
        ])
        elements = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = Mesh(nodes=nodes, elements=elements)
        mesh.orient_ccw()
        reform_elements(mesh)
        assert np.all(mesh.element_areas() > 0)

    def test_material_interface_never_crossed(self):
        mesh = quad_mesh(0.5)
        mesh.element_groups = np.array([0, 1])
        assert reform_elements(mesh) == 0

    def test_idempotent(self):
        mesh = quad_mesh(0.5)
        reform_elements(mesh)
        assert reform_elements(mesh) == 0


def needle_fan() -> Mesh:
    """A needle triangle whose two long edges both want swapping.

    Triangle 0 = (a, b, c) is a thin spike; its neighbours across the
    long edges ``a-c`` and ``b-c`` both sit inside its circumcircle, so
    both edges pass the swap test on the pass-start mesh.  Swapping
    either one consumes triangle 0, so the pass may apply only the
    first in encounter order and must skip the other.
    """
    nodes = np.array([
        [0.0, 0.0],     # 0 a
        [0.1, 0.0],     # 1 b
        [0.05, 1.0],    # 2 c, the needle tip
        [-0.3, 0.5],    # 3 e, across a-c
        [0.45, 0.55],   # 4 f, across b-c
    ])
    elements = np.array([[0, 1, 2], [0, 2, 3], [1, 4, 2]])
    return Mesh(nodes=nodes, elements=elements)


class TestReplayOrder:
    def test_shared_triangle_candidates_skip_the_second(self):
        mesh = needle_fan()
        candidates = reform_module._pass_candidates(mesh)
        assert candidates is not None
        a, b = candidates[0].tolist(), candidates[1].tolist()
        assert sorted(zip(a, b)) == [(0, 2), (1, 2)]
        swaps = reform_module._reform_pass(mesh)
        assert swaps == 1 < len(a)

    def test_replay_matches_the_sequential_sweep(self):
        mesh, reference = needle_fan(), needle_fan()
        assert (reform_module._reform_pass(mesh)
                == scalar_reform_pass(reference) == 1)
        np.testing.assert_array_equal(mesh.elements, reference.elements)
        # The needle listed from its tip meets a-c before b-c and so
        # swaps a-c instead: a different mesh, so the encounter order
        # decides the result above.
        other = needle_fan()
        other.elements[0] = [2, 0, 1]
        assert reform_module._reform_pass(other) == 1
        assert (sorted(map(tuple, np.sort(other.elements, 1).tolist()))
                != sorted(map(tuple, np.sort(mesh.elements, 1).tolist())))


class TestOnRealMeshes:
    def test_reform_never_decreases_min_angle(self, built_structures):
        for name, built in built_structures.items():
            pre = built.idealization.prereform_mesh
            post = pre.copy()
            reform_elements(post)
            assert post.min_angle() >= pre.min_angle() - 1e-12, name

    def test_reform_preserves_area(self, built_structures):
        for name, built in built_structures.items():
            pre = built.idealization.prereform_mesh
            post = pre.copy()
            reform_elements(post)
            assert np.abs(post.element_areas()).sum() == pytest.approx(
                np.abs(pre.element_areas()).sum()
            ), name

    def test_reform_preserves_boundary(self, built_structures):
        # Boundary edges are never swapped away.
        for name, built in built_structures.items():
            pre = built.idealization.prereform_mesh
            post = pre.copy()
            reform_elements(post)
            pre_boundary = {
                (min(a, b), max(a, b)) for a, b in pre.boundary_edges()
            }
            post_boundary = {
                (min(a, b), max(a, b)) for a, b in post.boundary_edges()
            }
            assert pre_boundary == post_boundary, name


def tapered_lattice_mesh(n: int) -> Mesh:
    """An ``n x n``-cell lattice narrowed towards the top, so reform has
    swaps to make as well as edges to judge."""
    grid = LatticeGrid([Subdivision(index=1, kk1=1, ll1=1,
                                    kk2=n + 1, ll2=n + 1)])
    nodes = grid.lattice_coordinates_array() - 1.0
    nodes[:, 0] = nodes[:, 0] * (1.0 - 0.4 * nodes[:, 1] / n) \
        + 0.2 * nodes[:, 1]
    triangles, groups = create_elements(grid)
    return Mesh(nodes=nodes, elements=np.asarray(triangles, dtype=int),
                element_groups=np.asarray(groups, dtype=int))


class TestBoundedMemory:
    #: Traced peak allowed for reforming the 200 x 200 lattice (80,000
    #: elements, ~120,000 interior edges).  Chunked, the decision adds
    #: little to the edge table (~18 MB in all); deciding every edge
    #: at once peaked near 60 MB.
    PEAK_BOUND_MB = 30.0

    def test_reform_peak_is_bounded(self):
        mesh = tapered_lattice_mesh(200)
        tracemalloc.start()
        try:
            swaps = reform_elements(mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert swaps > 0
        assert peak / 1e6 < self.PEAK_BOUND_MB


class TestQualityReport:
    def test_report_fields(self, unit_square_mesh):
        report = quality_report(unit_square_mesh)
        assert report["min_angle_deg"] == pytest.approx(45.0)
        assert report["mean_min_angle_deg"] == pytest.approx(45.0)
        assert "worst_decile_deg" in report

    def test_empty_mesh_rejected(self):
        mesh = Mesh(nodes=np.zeros((3, 2)), elements=np.zeros((0, 3), int))
        with pytest.raises(MeshError):
            quality_report(mesh)
