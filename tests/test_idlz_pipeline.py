"""Integration tests for the IDLZ driver (Idealizer -> Idealization)."""

import math

import numpy as np
import pytest

from repro.core.idlz.pipeline import Idealizer
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import IdealizationError, LimitError


def simple_plate(renumber=True, reform=True, **kwargs):
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=9)
    segments = [
        ShapingSegment(1, 1, 1, 5, 1, 0.0, 0.0, 2.0, 0.0),
        ShapingSegment(1, 1, 9, 5, 9, 0.0, 3.0, 2.0, 3.0),
    ]
    ideal = Idealizer("PLATE", [sub], renumber=renumber, reform=reform,
                      **kwargs).run(segments)
    return ideal


class TestRun:
    def test_counts(self):
        ideal = simple_plate()
        assert ideal.n_nodes == 45
        assert ideal.n_elements == 64

    def test_mesh_valid_and_ccw(self):
        ideal = simple_plate()
        assert np.all(ideal.mesh.element_areas() > 0)

    def test_shaped_extent(self):
        ideal = simple_plate()
        box = ideal.mesh.bounding_box()
        assert (box.xmin, box.ymin) == (0.0, 0.0)
        assert (box.xmax, box.ymax) == (2.0, 3.0)

    def test_lattice_mesh_kept(self):
        ideal = simple_plate()
        box = ideal.lattice_mesh.bounding_box()
        assert (box.xmax, box.ymax) == (5.0, 9.0)

    def test_mesh_area_matches_shape(self):
        ideal = simple_plate()
        assert ideal.mesh.element_areas().sum() == pytest.approx(6.0)

    def test_boundary_flags_computed(self):
        ideal = simple_plate()
        flags = ideal.mesh.flags()
        assert flags.max() >= 1
        # 45 nodes on a 5 x 9 lattice: 24 boundary, 21 interior.
        assert int((flags == 0).sum()) == 21

    def test_node_at_accounts_for_renumbering(self):
        ideal = simple_plate(renumber=True)
        n = ideal.node_at(3, 5)
        assert ideal.mesh.nodes[n] == pytest.approx([1.0, 1.5])

    def test_nodes_at_path(self):
        ideal = simple_plate()
        nodes = ideal.nodes_at([(1, 1), (2, 1), (3, 1)])
        xs = [ideal.mesh.nodes[n, 0] for n in nodes]
        assert xs == pytest.approx([0.0, 0.5, 1.0])

    def test_summary_keys(self):
        summary = simple_plate().summary()
        for key in ("title", "nodes", "elements", "bandwidth_before",
                    "bandwidth_after", "diagonal_swaps", "renumbered"):
            assert key in summary

    def test_group_of_subdivision(self):
        ideal = simple_plate()
        assert ideal.group_of_subdivision(1) == 0
        with pytest.raises(IdealizationError):
            ideal.group_of_subdivision(9)


class TestOptions:
    def test_renumbering_never_worsens_bandwidth(self, built_structures):
        for name, built in built_structures.items():
            ideal = built.idealization
            assert ideal.bandwidth_after <= ideal.bandwidth_before, name

    def test_no_renumber_keeps_original_numbers(self):
        ideal = simple_plate(renumber=False)
        assert not ideal.renumbered
        assert ideal.permutation is None
        assert ideal.node_at(1, 1) == 0

    def test_no_reform_keeps_raw_triangulation(self):
        ideal = simple_plate(reform=False)
        assert ideal.swaps == 0

    def test_orphan_segment_rejected(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=3)
        segs = [ShapingSegment(5, 1, 1, 3, 1, 0, 0, 1, 0)]
        with pytest.raises(IdealizationError, match="unknown subdivision"):
            Idealizer("X", [sub]).run(segs)


class TestLimits:
    def test_within_limits_passes(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=9)
        segs = [
            ShapingSegment(1, 1, 1, 5, 1, 0, 0, 2, 0),
            ShapingSegment(1, 1, 9, 5, 9, 0, 3, 2, 3),
        ]
        Idealizer("OK", [sub], strict=True).run(segs)

    def test_node_limit_enforced(self):
        # A 21 x 31 lattice = 651 nodes > 500.
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=21, ll2=31)
        segs = [
            ShapingSegment(1, 1, 1, 21, 1, 0, 0, 2, 0),
            ShapingSegment(1, 1, 31, 21, 31, 0, 3, 2, 3),
        ]
        with pytest.raises(LimitError) as err:
            Idealizer("BIG", [sub], strict=True).run(segs)
        assert err.value.maximum in (500, 850)

    def test_grid_extent_enforced(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=41, ll2=5)
        with pytest.raises(LimitError, match="horizontal"):
            Idealizer("WIDE", [sub], strict=True).run([])

    def test_vertical_extent_enforced(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=61)
        with pytest.raises(LimitError, match="vertical"):
            Idealizer("TALL", [sub], strict=True).run([])

    def test_subdivision_count_enforced(self):
        subs = [
            Subdivision(index=i, kk1=1, ll1=i, kk2=2, ll2=i + 1)
            for i in range(1, 52)
        ]
        with pytest.raises(LimitError, match="subdivisions"):
            Idealizer("MANY", subs, strict=True).run([])


class TestArcsInPipeline:
    def test_quarter_annulus(self):
        # One subdivision shaped into a quarter annulus via two arcs.
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=7)
        segments = [
            ShapingSegment(1, 1, 1, 1, 7, 1.0, 0.0, 0.0, 1.0, radius=1.0),
            ShapingSegment(1, 3, 1, 3, 7, 2.0, 0.0, 0.0, 2.0, radius=2.0),
        ]
        ideal = Idealizer("ANNULUS", [sub]).run(segments)
        ideal.mesh.validate()
        # Area converges to pi (2^2 - 1^2) / 4 from below.
        area = ideal.mesh.element_areas().sum()
        exact = math.pi * 3.0 / 4.0
        assert 0.95 * exact < area < exact

    def test_annulus_radii_honoured(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=7)
        segments = [
            ShapingSegment(1, 1, 1, 1, 7, 1.0, 0.0, 0.0, 1.0, radius=1.0),
            ShapingSegment(1, 3, 1, 3, 7, 2.0, 0.0, 0.0, 2.0, radius=2.0),
        ]
        ideal = Idealizer("ANNULUS", [sub], renumber=False).run(segments)
        for l in range(1, 8):
            inner = ideal.mesh.nodes[ideal.node_at(1, l)]
            assert np.hypot(*inner) == pytest.approx(1.0)
            outer = ideal.mesh.nodes[ideal.node_at(3, l)]
            assert np.hypot(*outer) == pytest.approx(2.0)
