"""Unit tests for boundary tracing and contour labelling."""

import numpy as np
import pytest

from repro.core.ospl.boundary import (
    boundary_chains,
    boundary_edge_list,
    boundary_segments,
)
from repro.core.ospl.contour import contour_mesh
from repro.core.ospl.labels import (
    boundary_label_candidates,
    format_level,
    place_labels,
)
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.plotter.device import CoordinateMap
from repro.geometry.primitives import BoundingBox


def grid_mesh(n=4):
    nodes = []
    for j in range(n + 1):
        for i in range(n + 1):
            nodes.append([float(i), float(j)])
    elements = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 2, a + n + 1
            elements.append([a, b, c])
            elements.append([a, c, d])
    return Mesh(nodes=np.array(nodes), elements=np.array(elements))


class TestBoundary:
    def test_edge_count_of_square(self):
        mesh = grid_mesh(4)
        assert len(boundary_edge_list(mesh)) == 16

    def test_segments_match_edges(self):
        mesh = grid_mesh(3)
        assert len(boundary_segments(mesh)) == len(boundary_edge_list(mesh))

    def test_chain_is_single_closed_loop(self):
        mesh = grid_mesh(3)
        chains = boundary_chains(mesh)
        assert len(chains) == 1
        assert chains[0][0] == chains[0][-1]
        assert len(chains[0]) == 13  # 12 boundary nodes + closure

    def test_mesh_with_hole_has_two_loops(self):
        # An annulus-like frame: outer 4x4 grid with centre cells removed.
        mesh = grid_mesh(4)
        keep = []
        for e, tri in enumerate(mesh.elements):
            centroid = mesh.nodes[tri].mean(axis=0)
            if not (1.2 < centroid[0] < 2.8 and 1.2 < centroid[1] < 2.8):
                keep.append(e)
        frame_mesh = Mesh(nodes=mesh.nodes, elements=mesh.elements[keep])
        chains = boundary_chains(frame_mesh)
        assert len(chains) == 2

    def test_edge_list_is_the_tables_boundary_rows(self):
        mesh = grid_mesh(2)
        edges = boundary_edge_list(mesh)
        assert (0, 1) in edges
        centre = 4  # middle node of the 3x3 grid
        assert all(centre not in edge for edge in edges)
        table = mesh.edge_table()
        lone = table.count == 1
        assert edges == list(zip(table.a[lone].tolist(),
                                 table.b[lone].tolist()))

    def test_partial_flags_drop_edges_with_an_interior_end(self):
        mesh = grid_mesh(2)
        flags = mesh.compute_boundary_flags().copy()
        flags[1] = 0
        mesh.boundary_flags = flags
        edges = boundary_edge_list(mesh)
        assert len(edges) == 6
        assert all(1 not in edge for edge in edges)

    def test_flags_respected(self):
        # Zero all flags: OSPL draws no outline.
        mesh = grid_mesh(2)
        mesh.boundary_flags = np.zeros(mesh.n_nodes, dtype=int)
        assert boundary_edge_list(mesh) == []


class TestFormatLevel:
    def test_zero(self):
        assert format_level(0.0) == "0."

    def test_positive_integerish(self):
        assert format_level(22500.0) == "+22500."

    def test_negative(self):
        assert format_level(-150.0) == "-150."

    def test_fraction_drops_leading_zero(self):
        assert format_level(0.5) == "+.5"
        assert format_level(-0.5) == "-.5"

    def test_fraction_trailing_zeros_trimmed(self):
        assert format_level(2.50) == "+2.5"


class TestLabels:
    def make_contours(self):
        mesh = grid_mesh(4)
        field = NodalField("S", mesh.nodes[:, 0] * 100.0)
        return contour_mesh(mesh, field, interval=100.0)

    def test_candidates_on_boundary_only(self):
        contours = self.make_contours()
        candidates = boundary_label_candidates(contours)
        assert candidates
        for lab in candidates:
            # Vertical contours of x*100 hit the outline at y = 0 and
            # y = 4; the extreme levels (0 and 400) run *along* the left
            # and right outline edges, so any boundary y qualifies there.
            if lab.level in (0.0, 400.0):
                assert lab.x in (0.0, 4.0)
            else:
                assert lab.y in (0.0, 4.0)

    def test_each_interior_level_has_two_boundary_hits(self):
        contours = self.make_contours()
        candidates = boundary_label_candidates(contours)
        per_level = {}
        for lab in candidates:
            per_level.setdefault(lab.level, []).append(lab)
        for level in (100.0, 200.0, 300.0):
            assert len(per_level[level]) == 2, level

    def test_overlap_suppression(self):
        contours = self.make_contours()
        cmap = CoordinateMap(contours.mesh.bounding_box())
        generous = place_labels(contours, cmap, size=9)
        crowded = place_labels(contours, cmap, size=200)
        assert len(crowded) < len(generous)

    def test_zero_contour_always_survives(self):
        mesh = grid_mesh(4)
        field = NodalField("S", (mesh.nodes[:, 0] - 2.0) * 100.0)
        contours = contour_mesh(mesh, field, interval=100.0)
        cmap = CoordinateMap(mesh.bounding_box())
        labels = place_labels(contours, cmap, size=500)
        assert any(lab.level == 0.0 for lab in labels)

    def test_labels_carry_formatted_text(self):
        contours = self.make_contours()
        cmap = CoordinateMap(contours.mesh.bounding_box())
        labels = place_labels(contours, cmap)
        texts = {lab.text for lab in labels}
        assert "+100." in texts or "+200." in texts
