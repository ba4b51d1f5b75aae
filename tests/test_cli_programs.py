"""Tests for the program drivers and the command-line interface."""

from pathlib import Path

import numpy as np
import pytest

from repro.cards.reader import CardReader
from repro.cli import main
from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
from repro.core.idlz.program import run_idlz, run_idlz_files
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.core.ospl.deck import problem_from_analysis, write_ospl_deck
from repro.core.ospl.program import run_ospl, run_ospl_files
from repro.errors import PlotterError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField


def plate_problem(noplot=0, nopnch=0):
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=4, ll2=4)
    segments = [
        ShapingSegment(1, 1, 1, 4, 1, 0.0, 0.0, 3.0, 0.0),
        ShapingSegment(1, 1, 4, 4, 4, 0.0, 3.0, 3.0, 3.0),
    ]
    return IdlzProblem(title="CLI PLATE", subdivisions=[sub],
                       segments=segments, noplot=noplot, nopnch=nopnch)


def ospl_problem():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2], [0, 2, 3]]))
    field = NodalField("S", np.array([0.0, 10.0, 20.0, 10.0]))
    return problem_from_analysis(mesh, field, title1="CLI FIELD")


class TestIdlzProgram:
    def test_options_off_produce_listing_only(self):
        deck = write_idlz_deck([plate_problem()])
        (run,) = run_idlz(CardReader(deck.cards))
        assert "NUMBER OF NODES" in run.listing
        assert run.frames == []
        assert run.punched is None

    def test_noplot_produces_frames(self):
        deck = write_idlz_deck([plate_problem(noplot=1)])
        (run,) = run_idlz(CardReader(deck.cards))
        assert len(run.frames) == 3  # initial + final + 1 subdivision

    def test_nopnch_produces_cards(self):
        deck = write_idlz_deck([plate_problem(nopnch=1)])
        (run,) = run_idlz(CardReader(deck.cards))
        assert run.punched is not None
        ideal = run.idealization
        assert len(run.punched) == ideal.n_nodes + ideal.n_elements

    def test_multiple_problems(self):
        deck = write_idlz_deck([plate_problem(), plate_problem(noplot=1)])
        runs = run_idlz(CardReader(deck.cards))
        assert len(runs) == 2
        assert runs[0].frames == [] and len(runs[1].frames) == 3

    def test_files_layer(self, tmp_path: Path):
        deck_file = tmp_path / "in.deck"
        deck_file.write_text(
            write_idlz_deck([plate_problem(noplot=1, nopnch=1)]).to_text()
        )
        out = tmp_path / "out"
        runs = run_idlz_files(deck_file, out)
        assert len(runs) == 1
        assert (out / "problem_1.listing.txt").exists()
        assert (out / "problem_1.punch.deck").exists()
        assert (out / "problem_1_frame_01.svg").exists()


class TestOsplProgram:
    def test_run_in_memory(self):
        deck = write_ospl_deck(ospl_problem())
        run = run_ospl(CardReader(deck.cards))
        assert run.plot.n_segments() > 0
        assert run.title == "CLI FIELD"

    def test_files_layer(self, tmp_path: Path):
        deck_file = tmp_path / "field.deck"
        deck_file.write_text(write_ospl_deck(ospl_problem()).to_text())
        out = tmp_path / "plot.svg"
        run = run_ospl_files(deck_file, out)
        assert out.exists()
        assert out.read_text().startswith("<svg")
        assert run.plot.interval > 0

    def test_files_layer_extension_is_case_insensitive(self,
                                                       tmp_path: Path):
        deck_file = tmp_path / "field.deck"
        deck_file.write_text(write_ospl_deck(ospl_problem()).to_text())
        out = tmp_path / "PLOT.SVG"
        run_ospl_files(deck_file, out)
        assert out.read_text().startswith("<svg")
        txt = tmp_path / "PLOT.TXT"
        run_ospl_files(deck_file, txt)
        assert "<svg" not in txt.read_text()

    def test_files_layer_no_extension_defaults_to_svg(self,
                                                      tmp_path: Path):
        deck_file = tmp_path / "field.deck"
        deck_file.write_text(write_ospl_deck(ospl_problem()).to_text())
        out = tmp_path / "plot"
        run_ospl_files(deck_file, out)
        assert out.read_text().startswith("<svg")

    def test_files_layer_rejects_unknown_extension(self, tmp_path: Path):
        deck_file = tmp_path / "field.deck"
        deck_file.write_text(write_ospl_deck(ospl_problem()).to_text())
        out = tmp_path / "plot.pdf"
        with pytest.raises(PlotterError, match=r"\.pdf"):
            run_ospl_files(deck_file, out)
        assert not out.exists()


class TestCli:
    def test_idlz_command(self, tmp_path: Path, capsys):
        deck_file = tmp_path / "in.deck"
        deck_file.write_text(
            write_idlz_deck([plate_problem(nopnch=1)]).to_text()
        )
        code = main(["idlz", str(deck_file), "-o", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr().out
        assert "16 nodes" in captured
        assert (tmp_path / "out" / "problem_1.listing.txt").exists()

    def test_ospl_command_with_ascii(self, tmp_path: Path, capsys):
        deck_file = tmp_path / "f.deck"
        deck_file.write_text(write_ospl_deck(ospl_problem()).to_text())
        svg = tmp_path / "f.svg"
        code = main(["ospl", str(deck_file), "-o", str(svg), "--ascii"])
        assert code == 0
        assert svg.exists()
        assert "interval" in capsys.readouterr().out

    def test_strict_limit_violation_reported(self, tmp_path: Path, capsys):
        big = Subdivision(index=1, kk1=1, ll1=1, kk2=41, ll2=3)
        problem = IdlzProblem(title="TOO WIDE", subdivisions=[big],
                              segments=[])
        deck_file = tmp_path / "big.deck"
        deck_file.write_text(write_idlz_deck([problem]).to_text())
        code = main(["idlz", str(deck_file), "-o", str(tmp_path / "o"),
                     "--strict"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_reported(self, tmp_path: Path, capsys):
        code = main(["ospl", str(tmp_path / "nope.deck")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCliCheck:
    """``idlz --check`` is ``repro lint`` on one IDLZ deck: same stdout,
    same exit code."""

    def check_and_lint(self, deck_file: Path, capsys, *flags):
        code = main(["idlz", str(deck_file), "--check", *flags])
        checked = capsys.readouterr().out
        assert main(["lint", str(deck_file), *flags]) == code
        assert capsys.readouterr().out == checked
        return code, checked

    def test_clean_deck_passes(self, tmp_path: Path, capsys):
        deck_file = tmp_path / "in.deck"
        deck_file.write_text(write_idlz_deck([plate_problem()]).to_text())
        code, out = self.check_and_lint(deck_file, capsys)
        assert code == 0
        assert out == "1 deck(s): 1 clean, 0 error(s), 0 warning(s)\n"

    def test_bad_deck_fails_with_findings(self, tmp_path: Path, capsys):
        bad = plate_problem()
        bad.segments = bad.segments[:1]  # only one located side
        deck_file = tmp_path / "bad.deck"
        deck_file.write_text(write_idlz_deck([bad]).to_text())
        code, out = self.check_and_lint(deck_file, capsys)
        assert code == 1
        assert out.startswith(f"{deck_file}:4: error IDZ207: no opposite "
                              "pair of sides")
        assert self.check_and_lint(deck_file, capsys, "-q") \
            == (1, out.splitlines(keepends=True)[0])

    def test_strict_escalates_the_table2_limits(self, tmp_path: Path,
                                                capsys):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=41, ll2=3)
        wide = IdlzProblem(title="WIDE", subdivisions=[sub], segments=[
            ShapingSegment(1, 1, 1, 41, 1, 0.0, 0.0, 40.0, 0.0),
            ShapingSegment(1, 1, 3, 41, 3, 0.0, 2.0, 40.0, 2.0)])
        deck_file = tmp_path / "wide.deck"
        deck_file.write_text(write_idlz_deck([wide]).to_text())
        assert self.check_and_lint(deck_file, capsys)[0] == 0
        assert self.check_and_lint(deck_file, capsys, "--strict")[0] == 1
