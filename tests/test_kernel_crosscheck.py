"""Randomized cross-checks: vectorized kernels vs the scalar references.

The golden corpus pins the batched kernels to fixed decks; these tests
pin them to *randomized* assemblages, shaping cards and fields.  Every
assertion is exact equality -- the numpy rewrites are bit-identical
reimplementations of the per-node/per-element loops kept alive in
``tests/scalar_reference.py``, not approximations of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.idlz.elements import create_elements, triangulate_strip
from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz.reform import reform_elements
from repro.core.idlz.shaping import Shaper
from repro.core.ospl.contour import ContourSet
from repro.core.ospl.intervals import classify_levels, contour_levels
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField

from tests.deckgen import any_assemblage, chain_assemblages
from tests.scalar_reference import (
    scalar_create_elements,
    scalar_extract_contours,
    scalar_number_lattice,
    scalar_reform,
    scalar_shape,
    scalar_zipper,
)


def _shape_vectorized(grid, subdivisions, segments):
    """The production shaping pass, as the stage driver runs it."""
    shaper = Shaper(grid)
    by_sub = {}
    for seg in segments:
        by_sub.setdefault(seg.subdivision, []).append(seg)
    for sub in subdivisions:
        for seg in by_sub.get(sub.index, []):
            shaper.apply_segment(seg)
        shaper.shape_subdivision(sub)
    return shaper.positions


def _build_mesh(subdivisions, segments):
    grid = LatticeGrid(subdivisions)
    positions = _shape_vectorized(grid, subdivisions, segments)
    triangles, groups = create_elements(grid)
    return Mesh(nodes=positions.copy(),
                elements=np.array(triangles, dtype=int),
                element_groups=np.array(groups, dtype=int))


# ----------------------------------------------------------------------
# Numbering and element creation
# ----------------------------------------------------------------------

class TestNumberingCrossCheck:
    @given(any_assemblage())
    @settings(max_examples=60, deadline=None)
    def test_node_numbering_matches_scalar_union(self, assemblage):
        subdivisions, _ = assemblage
        grid = LatticeGrid(subdivisions)
        assert grid.point_of == scalar_number_lattice(subdivisions)


class TestZipperCrossCheck:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_strip_zipper_matches_scalar_march(self, data):
        n_low = data.draw(st.integers(1, 8))
        n_up = data.draw(st.integers(1 if n_low > 1 else 2, 8))
        lower_pos = sorted(
            data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_low,
                               max_size=n_low))
        )
        upper_pos = sorted(
            data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_up,
                               max_size=n_up))
        )
        lower_ids = list(range(n_low))
        upper_ids = list(range(n_low, n_low + n_up))
        assert triangulate_strip(
            lower_ids, lower_pos, upper_ids, upper_pos
        ) == scalar_zipper(lower_ids, lower_pos, upper_ids, upper_pos)

    @given(any_assemblage())
    @settings(max_examples=60, deadline=None)
    def test_elements_match_scalar_zipper(self, assemblage):
        subdivisions, _ = assemblage
        grid = LatticeGrid(subdivisions)
        triangles, groups = create_elements(grid)
        ref_triangles, ref_groups = scalar_create_elements(grid)
        assert list(map(tuple, triangles.tolist())) == ref_triangles
        assert groups.tolist() == ref_groups


# ----------------------------------------------------------------------
# Shaping
# ----------------------------------------------------------------------

class TestShapingCrossCheck:
    @given(any_assemblage())
    @settings(max_examples=60, deadline=None)
    def test_positions_bitwise_equal_scalar_interpolation(
        self, assemblage
    ):
        subdivisions, segments = assemblage
        grid = LatticeGrid(subdivisions)
        vec = _shape_vectorized(grid, subdivisions, segments)
        ref = scalar_shape(grid, subdivisions, segments)
        assert np.array_equal(vec, ref)


# ----------------------------------------------------------------------
# Reformation
# ----------------------------------------------------------------------

class TestReformCrossCheck:
    @given(chain_assemblages())
    @settings(max_examples=40, deadline=None)
    def test_swaps_and_connectivity_match_scalar_sweep(self, assemblage):
        subdivisions, segments = assemblage
        mesh_vec = _build_mesh(subdivisions, segments)
        mesh_ref = Mesh(nodes=mesh_vec.nodes.copy(),
                        elements=mesh_vec.elements.copy(),
                        element_groups=mesh_vec.element_groups.copy())
        swaps_vec = reform_elements(mesh_vec)
        swaps_ref = scalar_reform(mesh_ref)
        assert swaps_vec == swaps_ref
        assert np.array_equal(mesh_vec.elements, mesh_ref.elements)


# ----------------------------------------------------------------------
# Contour extraction
# ----------------------------------------------------------------------

class TestContourCrossCheck:
    @given(chain_assemblages(), st.floats(0.5, 3.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_segments_bitwise_equal_scalar_extraction(
        self, assemblage, interval, gx, gy
    ):
        subdivisions, segments = assemblage
        mesh = _build_mesh(subdivisions, segments)
        reform_elements(mesh)
        values = gx * mesh.nodes[:, 0] + gy * mesh.nodes[:, 1]
        levels = contour_levels(float(values.min()), float(values.max()),
                                interval)
        field = NodalField(name="crosscheck", values=values)
        contours = ContourSet(mesh, field, interval, levels)
        ref = scalar_extract_contours(mesh, values, levels)
        for level in levels:
            got = [
                (seg.element,
                 seg.start.x, seg.start.y, *seg.start.edge,
                 seg.end.x, seg.end.y, *seg.end.edge)
                for seg in contours.segments_by_level[level]
            ]
            assert got == [tuple(row) for row in ref[level]]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_classify_levels_matches_inclusive_range_test(self, data):
        levels = sorted(set(data.draw(
            st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8)
        )))
        n = data.draw(st.integers(1, 20))
        lo = np.array(data.draw(st.lists(
            st.floats(-6.0, 6.0), min_size=n, max_size=n)))
        hi = lo + np.array(data.draw(st.lists(
            st.floats(0.0, 4.0), min_size=n, max_size=n)))
        first, stop = classify_levels(lo, hi, levels)
        for i in range(n):
            member = [li for li, level in enumerate(levels)
                      if lo[i] <= level <= hi[i]]
            expect = set(member)
            got = set(range(int(first[i]), int(stop[i])))
            assert got == expect
