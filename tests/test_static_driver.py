"""One static driver behind two front ends.

``analyze run`` (the pipeline's assemble and solve stages) and a
hand-built :class:`StaticAnalysis` of the same model both reach the
stiffness only through ``assemble_static`` / ``solve_static``, so they
must return the same displacements for every example deck and solver,
and the three solvers must agree with one another.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.analyze.deck import read_analyze_deck, write_analyze_deck
from repro.analyze.program import run_analyze
from repro.cards.reader import CardReader
from repro.fem.solve import AnalysisType, StaticAnalysis
from repro.pipeline.runner import Pipeline

DECKS = sorted(
    (Path(__file__).resolve().parents[1] / "examples/decks/analyze")
    .glob("*.deck")
)
SOLVERS = ("banded", "skyline", "sparse")


@pytest.fixture
def pipeline_results(monkeypatch):
    """Every ``analyze`` pipeline result produced while the test runs."""
    results = []
    real_run = Pipeline.run

    def spy(self, values, cache=None):
        result = real_run(self, values, cache)
        if self.name == "analyze":
            results.append(result)
        return result

    monkeypatch.setattr(Pipeline, "run", spy)
    return results


def analyze_run(deck_path, solver, results):
    """The pipeline result of ``analyze run`` on the deck, re-solvered."""
    deck = read_analyze_deck(CardReader.from_text(deck_path.read_text()))
    deck.spec = dataclasses.replace(deck.spec, solver=solver)
    results.clear()
    run_analyze(CardReader.from_text(write_analyze_deck(deck).to_text()))
    (result,) = results
    return result


def test_example_decks_present():
    assert len(DECKS) >= 2, DECKS


@pytest.mark.parametrize("deck_path", DECKS, ids=lambda p: p.name)
def test_pipeline_and_static_analysis_agree(deck_path, pipeline_results):
    displacements = {}
    for solver in SOLVERS:
        result = analyze_run(deck_path, solver, pipeline_results)
        assert result["spec"].solver == solver
        piped = result["solution"]["displacements"]
        analysis = StaticAnalysis(result["mesh"], result["materials"],
                                  AnalysisType(result["spec"].analysis))
        analysis.constraints = result["constraints"]
        analysis.loads = result["load_case"]
        direct = analysis.solve(solver=solver).displacements
        np.testing.assert_array_equal(piped, direct, err_msg=solver)
        displacements[solver] = direct
    reference = displacements["banded"]
    assert np.abs(reference).max() > 0.0
    for solver in ("skyline", "sparse"):
        np.testing.assert_allclose(displacements[solver], reference,
                                   rtol=1e-8, atol=1e-12, err_msg=solver)
