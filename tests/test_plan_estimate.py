"""Unit tests for the static deck cost estimator (``repro.plan``)."""

from pathlib import Path

import pytest

from repro.analyze.deck import read_analyze_deck
from repro.cards.reader import CardReader
from repro.core.idlz.deck import read_idlz_deck
from repro.errors import ReproError
from repro.fem.bandwidth import mesh_bandwidth
from repro.plan import (
    SCHEMA,
    format_bytes,
    load_calibration,
    parse_size,
    plan_path,
    plan_paths,
    plan_text,
)
from repro.plan.calibrate import STAGE_FLOOR_S, Calibration
from tests.test_batch_runner import OSPL_DECK, idlz_deck_text

#: The documented example deck: an 8x6 sheared plate the pipeline
#: meshes into exactly 63 nodes and 96 elements.
PLATE_DECK = "examples/decks/plate.deck"


class TestIdlzEstimate:
    def test_plate_deck_counts_are_exact(self):
        plan = plan_path(PLATE_DECK)
        assert plan.plannable
        assert plan.program == "idlz"
        assert plan.n_nodes == 63
        assert plan.n_elements == 96

    def test_rectangular_lattice_counts(self):
        # One (1,1)-(4,4) subdivision: a 4x4 lattice of 16 nodes;
        # each of the 3 strip pairs zips 4+4-2 = 6 triangles.
        plan = plan_text(idlz_deck_text())
        assert plan.n_nodes == 16
        assert plan.n_elements == 18

    def test_bandwidth_bound_is_positive_and_sane(self):
        plan = plan_path(PLATE_DECK)
        (problem,) = plan.problems
        assert 0 < problem.node_half_bandwidth < problem.n_nodes

    def test_growth_factor_for_unit_shaping(self):
        plan = plan_text(idlz_deck_text())
        growth = plan.problems[0].growth
        assert growth is not None
        assert growth["factor"] == pytest.approx(1.0)

    def test_wall_and_memory_predictions_are_positive(self):
        plan = plan_text(idlz_deck_text())
        assert plan.wall_s > 0
        assert plan.peak_bytes > 0
        assert set(plan.stages) == {
            "idlz.number", "idlz.elements", "idlz.shape",
            "idlz.reform", "idlz.renumber",
        }

    def test_more_elements_cost_more(self):
        small = plan_text(idlz_deck_text(cols=4))
        large = plan_text(idlz_deck_text(cols=12))
        assert large.wall_s > small.wall_s
        assert large.peak_bytes > small.peak_bytes


#: The IDLZ problems of every example and library deck.
IDLZ_EXAMPLES = sorted(
    str(path) for path in Path("examples/decks").rglob("*.deck")
    if path.name != "field.deck")


@pytest.mark.parametrize("deck", IDLZ_EXAMPLES)
def test_example_counts_are_the_run_counts(deck):
    """The plan counts with the run's own number -> elements stages, so
    its counts and bandwidth bound are the run's, problem by problem."""
    text = Path(deck).read_text()
    reader = CardReader.from_text(text)
    if deck.endswith(".analyze.deck"):
        problems = [read_analyze_deck(reader).problem]
    else:
        problems = read_idlz_deck(reader)
    plan = plan_text(text)
    assert len(plan.problems) == len(problems)
    for planned, problem in zip(plan.problems, problems):
        ideal = problem.run()
        assert (planned.n_nodes, planned.n_elements,
                planned.node_half_bandwidth) == (
            ideal.n_nodes, ideal.n_elements,
            mesh_bandwidth(ideal.lattice_mesh))


class TestOsplEstimate:
    def test_field_counts_come_from_the_type1_card(self):
        plan = plan_text(OSPL_DECK)
        assert plan.program == "ospl"
        assert plan.n_nodes == 6
        assert plan.n_elements == 4
        assert plan.plannable

    def test_degenerate_mesh_is_unplannable(self):
        bad = OSPL_DECK.replace("    6    4", "    2    0", 1)
        plan = plan_text(bad)
        assert not plan.plannable
        assert "node/element counts" in plan.reason


class TestAnalyzeEstimate:
    def test_solve_block_prices_the_banded_system(self):
        plan = plan_path("examples/decks/analyze/plate.analyze.deck")
        assert plan.plannable
        assert plan.program == "analyze"
        solve = plan.solve
        assert solve["analysis"] == "plane_stress"
        assert solve["dofs_per_node"] == 2
        assert solve["n_dof"] == 2 * plan.n_nodes
        assert solve["flops"] > 0
        assert solve["matrix_bytes"] > 0
        assert "analyze.solve" in plan.stages
        assert "analyze.isograms" in plan.stages


class TestUnplannableDecks:
    """Satellite: edge decks degrade to a reasoned ``plannable=False``."""

    def test_empty_text(self):
        plan = plan_text("")
        assert not plan.plannable
        assert "no non-blank cards" in plan.reason

    def test_whitespace_only_text(self):
        plan = plan_text("   \n \t \n\n")
        assert not plan.plannable
        assert "no non-blank cards" in plan.reason

    def test_crlf_deck_still_plans(self):
        crlf = idlz_deck_text().replace("\n", "\r\n")
        plan = plan_text(crlf)
        assert plan.plannable
        assert plan.n_nodes == 16

    def test_truncated_deck(self):
        plan = plan_text("    1\nTITLE ONLY\n")
        assert not plan.plannable

    def test_unbuildable_subdivision(self):
        # Corners (1,1)-(10,1) span no box; the builder rejects it.
        deck = (
            "    1\n"
            "BAD PROBLEM\n"
            "    0    0    0    1\n"
            "    1    1    1   10    1\n"
            "    1    0\n"
            "\n\n"
        )
        plan = plan_text(deck)
        assert not plan.plannable
        assert plan.reason

    def test_binary_file_is_unplannable_not_an_error(self, tmp_path):
        blob = tmp_path / "noise.deck"
        blob.write_bytes(b"\xff\xfe\x00binary")
        plan = plan_path(blob)
        assert not plan.plannable
        assert "not a text deck" in plan.reason

    def test_to_dict_of_unplannable_is_minimal(self):
        data = plan_text("").to_dict()
        assert data["schema"] == SCHEMA
        assert data["plannable"] is False
        assert "reason" in data
        assert "stages" not in data


class TestSerialization:
    def test_to_dict_round_trips_the_headline_numbers(self):
        plan = plan_text(idlz_deck_text())
        data = plan.to_dict()
        assert data["schema"] == SCHEMA
        assert data["totals"]["n_nodes"] == 16
        assert data["totals"]["n_elements"] == 18
        # to_dict rounds for the manifest; headline stays faithful.
        assert data["wall_s"] == pytest.approx(plan.wall_s, rel=1e-2)

    def test_batch_block_is_compact(self):
        block = plan_text(idlz_deck_text()).batch_block()
        assert block["plannable"] is True
        assert set(block) == {"plannable", "n_nodes", "n_elements",
                              "wall_s", "peak_bytes", "calibrated"}

    def test_batch_block_of_unplannable_carries_the_reason(self):
        block = plan_text("").batch_block()
        assert block["plannable"] is False
        assert "reason" in block


class TestSizes:
    def test_parse_size_units(self):
        assert parse_size("4096") == 4096
        assert parse_size("512KB") == 512 * 1024
        assert parse_size("64MB") == 64 * 1024 * 1024
        assert parse_size("1.5GB") == int(1.5 * 1024 ** 3)

    def test_parse_size_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_size("lots")
        with pytest.raises(ReproError):
            parse_size("64 furlongs")

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(64 * 1024 * 1024) == "64.0MB"


class TestCalibration:
    def test_missing_history_falls_back(self, tmp_path):
        cal = load_calibration(tmp_path / "no_such.jsonl")
        assert not cal.is_calibrated("idlz.reform")
        assert cal.stage_wall("idlz.reform", 0) == \
            pytest.approx(STAGE_FLOOR_S)

    def test_stage_wall_is_floor_plus_linear_rate(self):
        cal = Calibration(source="<test>", rows=1, base_rss_kb=1000.0,
                          _rates={"idlz.reform": (1e-5, True)})
        assert cal.is_calibrated("idlz.reform")
        assert cal.stage_wall("idlz.reform", 100) == \
            pytest.approx(STAGE_FLOOR_S + 1e-3)

    def test_repo_history_calibrates_the_idlz_stages(self):
        cal = load_calibration()
        assert cal.is_calibrated("idlz.reform")

    def test_plan_paths_expands_directories(self, tmp_path):
        (tmp_path / "a.deck").write_text(idlz_deck_text("A"))
        (tmp_path / "b.deck").write_text(OSPL_DECK)
        plans = plan_paths([tmp_path])
        assert [p.program for p in plans] == ["idlz", "ospl"]
