"""Integration tests for the OSPL driver (conplt) and the card deck."""

from pathlib import Path

import numpy as np
import pytest

from repro.cards.reader import CardReader
from repro.core.ospl.deck import (
    OsplProblem,
    problem_from_analysis,
    read_ospl_deck,
    write_ospl_deck,
)
from repro.core.ospl.plot import conplt
from repro.core.ospl.program import run_ospl
from repro.errors import CardError, ContourError, LimitError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.geometry.primitives import BoundingBox


def grid_mesh_and_field(n=5):
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
    mesh = Mesh(nodes=np.array(nodes), elements=np.array(elements))
    field = NodalField("EFFECTIVE STRESS",
                       100.0 * (mesh.nodes[:, 0] + mesh.nodes[:, 1]))
    return mesh, field


class TestConplt:
    def test_plot_produces_frame(self):
        mesh, field = grid_mesh_and_field()
        plot = conplt(mesh, field, title="TEST")
        assert len(plot.frame.vectors()) > 0
        assert len(plot.frame.texts()) > 0

    def test_auto_interval_on_ladder(self):
        mesh, field = grid_mesh_and_field()
        plot = conplt(mesh, field)
        assert plot.interval == 50.0  # 5% of the 1000-unit range

    def test_explicit_interval_honoured(self):
        mesh, field = grid_mesh_and_field()
        plot = conplt(mesh, field, interval=250.0)
        assert plot.interval == 250.0
        assert all(level % 250.0 == 0 for level in plot.levels)

    def test_caption_mentions_interval(self):
        mesh, field = grid_mesh_and_field()
        plot = conplt(mesh, field, title="T")
        texts = [op.text for op in plot.frame.texts()]
        assert any("CONTOUR INTERVAL IS" in t for t in texts)

    def test_subtitle_styled_like_figures(self):
        mesh, field = grid_mesh_and_field()
        plot = conplt(mesh, field)
        texts = [op.text for op in plot.frame.texts()]
        assert any(t.startswith("CONTOUR PLOT *") for t in texts)

    def test_strict_limits_enforced(self):
        mesh, field = grid_mesh_and_field(n=30)  # 961 nodes > 800
        with pytest.raises(LimitError, match="nodes"):
            conplt(mesh, field, strict=True)

    def test_element_limit_enforced(self):
        mesh, field = grid_mesh_and_field(n=25)  # 676 nodes, 1250 elements
        with pytest.raises(LimitError, match="elements"):
            conplt(mesh, field, strict=True)

    def test_within_limits_ok(self):
        mesh, field = grid_mesh_and_field(n=5)
        conplt(mesh, field, strict=True)

    def test_zoom_window(self):
        mesh, field = grid_mesh_and_field()
        window = BoundingBox(0.0, 0.0, 2.5, 2.5)
        plot = conplt(mesh, field, window=window)
        full = conplt(mesh, field)
        assert plot.n_segments() < full.n_segments()

    def test_constant_field_rejected(self):
        mesh, _ = grid_mesh_and_field()
        flat = NodalField("S", np.full(mesh.n_nodes, 3.0))
        with pytest.raises(ContourError):
            conplt(mesh, flat)


class TestOsplDeck:
    def make_problem(self):
        mesh, field = grid_mesh_and_field(n=3)
        return problem_from_analysis(mesh, field, title1="TITLE ONE",
                                     title2="TITLE TWO")

    def test_write_read_round_trip(self):
        problem = self.make_problem()
        deck = write_ospl_deck(problem)
        back = read_ospl_deck(CardReader(deck.cards))
        assert back.mesh.n_nodes == problem.mesh.n_nodes
        assert back.mesh.n_elements == problem.mesh.n_elements
        assert back.title1 == "TITLE ONE"
        assert np.allclose(back.mesh.nodes, problem.mesh.nodes, atol=1e-4)
        assert np.allclose(back.field.values, problem.field.values,
                           atol=1e-3)

    def test_flags_survive_round_trip(self):
        problem = self.make_problem()
        deck = write_ospl_deck(problem)
        back = read_ospl_deck(CardReader(deck.cards))
        assert np.array_equal(back.mesh.boundary_flags,
                              problem.mesh.flags())

    def test_reread_problem_plots(self):
        problem = self.make_problem()
        deck = write_ospl_deck(problem)
        back = read_ospl_deck(CardReader(deck.cards))
        plot = back.plot()
        assert plot.n_segments() > 0

    def test_card_count(self):
        problem = self.make_problem()
        deck = write_ospl_deck(problem)
        assert len(deck) == 3 + problem.mesh.n_nodes + \
            problem.mesh.n_elements

    def test_delta_zero_means_auto(self):
        problem = self.make_problem()
        problem.delta = 0.0
        plot = problem.plot()
        assert plot.interval == 25.0  # auto for the 600-range grid(3)

    def test_explicit_delta_used(self):
        problem = self.make_problem()
        problem.delta = 100.0
        assert problem.plot().interval == 100.0

    def test_bad_node_reference_rejected(self):
        problem = self.make_problem()
        deck = write_ospl_deck(problem)
        cards = [str(c) for c in deck.cards]
        cards[-1] = "  999    1    2"
        with pytest.raises(CardError, match="references node"):
            read_ospl_deck(CardReader(cards))

    def test_degenerate_header_rejected(self):
        with pytest.raises(CardError, match="not a mesh"):
            read_ospl_deck(CardReader(["    1    0"]))

    def test_input_value_count(self):
        problem = self.make_problem()
        expected = 7 + 4 * problem.mesh.n_nodes + \
            3 * problem.mesh.n_elements
        assert problem.input_value_count() == expected


class TestStrokeLabels:
    def test_stroked_frame_is_pure_vectors(self):
        mesh, field = grid_mesh_and_field()
        plot = conplt(mesh, field, title="STROKED", stroke_labels=True)
        assert plot.frame.texts() == []
        assert len(plot.frame.vectors()) > 100

    def test_stroked_matches_text_label_selection(self):
        mesh, field = grid_mesh_and_field()
        plain = conplt(mesh, field, title="T")
        stroked = conplt(mesh, field, title="T", stroke_labels=True)
        assert [l.text for l in plain.labels] == [
            l.text for l in stroked.labels
        ]


class TestConpltOptions:
    def test_lowest_contour_honoured(self):
        mesh, field = grid_mesh_and_field()
        plot = conplt(mesh, field, interval=100.0, lowest=50.0)
        assert all(level % 100.0 == 50.0 for level in plot.levels)

    def test_window_fully_outside_mesh_plots_nothing(self):
        mesh, field = grid_mesh_and_field()
        window = BoundingBox(100.0, 100.0, 110.0, 110.0)
        plot = conplt(mesh, field, window=window)
        assert plot.n_segments() == 0

    def test_explicit_plotter_collects_frames(self):
        from repro.plotter.device import Plotter4020

        mesh, field = grid_mesh_and_field()
        plotter = Plotter4020()
        conplt(mesh, field, plotter=plotter)
        conplt(mesh, field, plotter=plotter)
        plotter.drop_empty_frames()
        assert len(plotter.frames) == 2


class TestWindowedDeck:
    """A sheared-grid deck whose XMN/XMX/YMN/YMX window cuts the slanted
    left side and the top of the outline, drops the bottom and right
    sides, and clips isograms on every window edge.  The SVG must stay
    byte for byte the snapshot taken before the clip went array-wide."""

    DATA = Path(__file__).parent / "data"

    def test_svg_matches_snapshot(self, tmp_path):
        from repro.cli import main

        svg = tmp_path / "windowed.svg"
        code = main(["ospl", str(self.DATA / "windowed.ospl.deck"),
                     "-o", str(svg), "-q"])
        assert code == 0
        assert svg.read_bytes() == \
            (self.DATA / "windowed.ospl.svg").read_bytes()

    def test_window_really_clips(self):
        text = (self.DATA / "windowed.ospl.deck").read_text()
        problem = read_ospl_deck(CardReader.from_text(text))
        window = problem.window
        clipped = conplt(problem.mesh, problem.field,
                         interval=problem.delta, window=window)
        full = conplt(problem.mesh, problem.field, interval=problem.delta)
        assert clipped.n_segments() < full.n_segments()
        points = clipped.contours.all_points()
        on_window = (np.isin(points[:, :, 0], [window.xmin, window.xmax])
                     | np.isin(points[:, :, 1], [window.ymin, window.ymax]))
        assert on_window.sum() > 10
        edges = np.concatenate([
            clipped.contours.segments_at(level).edges
            for level in clipped.contours.nonempty_levels()])
        assert ((edges[:, :, 0] == -1) == on_window).all()


class TestEdgeTableBuilds:
    """The labels and plot stages share one edge table per run."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        edge_table = Mesh.edge_table

        def counted(mesh):
            calls.append(mesh)
            return edge_table(mesh)

        monkeypatch.setattr(Mesh, "edge_table", counted)
        return calls

    def test_one_build_per_run_ospl(self, builds):
        mesh, field = grid_mesh_and_field()
        text = write_ospl_deck(problem_from_analysis(mesh, field)).to_text()
        builds.clear()  # the writer derived the flags it punched
        run_ospl(CardReader.from_text(text))
        assert len(builds) == 1

    def test_one_build_per_conplt(self, builds):
        mesh, field = grid_mesh_and_field()
        assert mesh.boundary_flags is None  # derived from the same table
        conplt(mesh, field)
        assert len(builds) == 1
