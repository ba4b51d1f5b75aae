"""Tests for the combined analyze deck format (read/write/classify)."""

from pathlib import Path

import pytest

from repro.analyze.deck import (
    AnalyzeDeck,
    AnalyzeSpec,
    LoadCardSpec,
    MaterialCard,
    SupportCard,
    TempCard,
    ThermalMaterialCard,
    read_analyze_deck,
    write_analyze_deck,
)
from repro.analyze.examples import (
    deck_text,
    example_decks,
    plate_deck,
)
from repro.batch.jobs import classify_deck_path
from repro.cards.card import deck_fingerprint
from repro.cards.parse import classify_deck
from repro.cards.reader import CardReader
from repro.errors import CardError


def text_of(deck: AnalyzeDeck) -> str:
    return write_analyze_deck(deck).to_text()


class TestRoundTrip:
    @pytest.mark.parametrize("stem", sorted(example_decks()))
    def test_examples_round_trip_byte_exact(self, stem):
        deck = example_decks()[stem]
        text = deck_text(deck)
        reread = read_analyze_deck(CardReader.from_text(text))
        assert text_of(reread) == text

    def test_thermal_round_trip(self):
        deck = plate_deck()
        spec = AnalyzeSpec(
            analysis="thermal",
            thermal_materials=(ThermalMaterialCard(
                group=1, conductivity=45.0, density=7.8,
                specific_heat=0.5),),
            temps=(TempCard(axis="y", coord=0.0, value=100.0),
                   TempCard(axis="y", coord=6.0, value=0.0)),
            plots=("temperature",),
        )
        thermal = AnalyzeDeck(problem=deck.problem, spec=spec)
        text = text_of(thermal)
        reread = read_analyze_deck(CardReader.from_text(text))
        assert reread.spec == spec
        assert text_of(reread) == text

    def test_modal_round_trip_punches_modes_and_solver(self):
        deck = plate_deck()
        spec = AnalyzeSpec(
            analysis="modal",
            materials=(MaterialCard(group=1, youngs=10.0e6, poisson=0.3,
                                    thickness=0.1, density=0.1),),
            supports=(SupportCard(axis="x", coord=0.0, dofs="uv"),),
            plots=("mode1", "mode2"),
            solver="skyline",
            modes=2,
        )
        modal = AnalyzeDeck(problem=deck.problem, spec=spec)
        text = text_of(modal)
        assert "SOLVER  SKYLINE" in text
        assert "MODES " in text
        reread = read_analyze_deck(CardReader.from_text(text))
        assert reread.spec.solver == "skyline"
        assert reread.spec.modes == 2

    def test_defaults_are_not_punched(self):
        text = deck_text(plate_deck())
        assert "SOLVER" not in text
        assert "MODES" not in text
        reread = read_analyze_deck(CardReader.from_text(text))
        assert reread.spec.solver == "banded"
        assert reread.spec.modes == 3


class TestReader:
    def test_rejects_missing_header(self):
        text = deck_text(plate_deck())
        stripped = "\n".join(
            line for line in text.splitlines()
            if not line.startswith("ANALYZE PSTRESS")
        ) + "\n"
        with pytest.raises(CardError):
            read_analyze_deck(CardReader.from_text(stripped))

    def test_rejects_unknown_family(self):
        text = deck_text(plate_deck()).replace("ANALYZE PSTRESS",
                                               "ANALYZE BUCKLING")
        with pytest.raises(CardError, match="BUCKLING"):
            read_analyze_deck(CardReader.from_text(text))

    def test_rejects_unknown_keyword(self):
        text = deck_text(plate_deck()).replace("FIX     ", "PIN     ")
        with pytest.raises(CardError, match="PIN"):
            read_analyze_deck(CardReader.from_text(text))

    def test_rejects_missing_end(self):
        text = deck_text(plate_deck())
        trimmed = "\n".join(
            line for line in text.splitlines() if line.strip() != "END"
        ) + "\n"
        with pytest.raises(CardError):
            read_analyze_deck(CardReader.from_text(trimmed))

    @pytest.mark.parametrize("modes", [-2, 0])
    def test_rejects_modes_below_one(self, modes):
        text = deck_text(plate_deck()).replace(
            "ANALYZE PSTRESS", "ANALYZE MODAL  ").replace(
            "END", f"MODES   {modes:8d}\nEND")
        with pytest.raises(CardError, match=f"MODES = {modes} must be >= 1"):
            read_analyze_deck(CardReader.from_text(text))

    def test_parses_spec_fields(self):
        deck = read_analyze_deck(
            CardReader.from_text(deck_text(plate_deck())))
        spec = deck.spec
        assert spec.analysis == "plane_stress"
        assert spec.is_static
        assert [m.group for m in spec.materials] == [1]
        assert spec.materials[0].youngs == pytest.approx(30.0e6)
        assert spec.materials[0].thickness == pytest.approx(0.25)
        assert [(s.axis, s.coord, s.dofs) for s in spec.supports] \
            == [("y", 0.0, "uv")]
        assert [(ld.kind, ld.axis, ld.coord, ld.values)
                for ld in spec.loads] \
            == [("pressure", "y", 6.0, (1000.0,))]
        assert spec.plots == ("effective", "displacement")


class TestClassification:
    def test_header_detection(self):
        def program(*cards):
            return classify_deck(["    1", *cards])

        assert program("TITLE", "ANALYZE PSTRESS", "END") == "analyze"
        assert program("TITLE", "ANALYZE THERMAL         ") == "analyze"
        assert program("TITLE", "ANALYZE WRONG") == "idlz"
        assert program("TITLE") == "idlz"
        # A title card that merely starts with the word is no header.
        assert program("ANALYZE THE PLATE") == "idlz"

    def test_classify_text(self):
        text = deck_text(plate_deck())
        assert classify_deck(text.splitlines()) == "analyze"

    def test_classify_path_honours_name_hint(self, tmp_path: Path):
        deck = tmp_path / "plate.analyze.deck"
        deck.write_text(deck_text(plate_deck()))
        assert classify_deck_path(deck) == "analyze"


class TestFingerprint:
    def test_stable_for_identical_text(self):
        text = deck_text(plate_deck())
        assert deck_fingerprint(text, "analyze") \
            == deck_fingerprint(text, "analyze")

    def test_changes_with_any_card(self):
        text = deck_text(plate_deck())
        edited = text.replace("1000.0000", "1500.0000")
        assert edited != text
        assert deck_fingerprint(edited, "analyze") \
            != deck_fingerprint(text, "analyze")

    def test_differs_from_idlz_fingerprint_of_same_cards(self):
        text = deck_text(plate_deck())
        assert deck_fingerprint(text, "analyze") \
            != deck_fingerprint(text, "idlz")
