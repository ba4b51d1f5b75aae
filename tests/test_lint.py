"""Tests for the static deck analyzer: rules, engine and locations.

Each crafted deck here is the smallest card tray that trips one rule;
the aggregate test at the bottom proves the analyzer reports a wide
spread of distinct codes and anchors every finding to a real card.
"""

from pathlib import Path

import pytest

from repro.analyze.deck import read_analyze_deck
from repro.cards.reader import CardReader
from repro.core.idlz.deck import read_idlz_deck
from repro.core.ospl.deck import read_ospl_deck
from repro.errors import CardError, LintError
from repro.lint import (
    all_rules,
    explain,
    get_rule,
    lint_path,
    lint_paths,
    lint_text,
)

# ----------------------------------------------------------------------
# Card builders (fixed-width punched-card fields)
# ----------------------------------------------------------------------


def i5(*vals):
    return "".join(str(v).rjust(5) for v in vals)


def f8(*vals):
    return "".join(f"{v:8.4f}" for v in vals)


def f10(*vals):
    return "".join(f"{v:10.4f}" for v in vals)


def ospl_node(x, y, value, flag=0):
    return f"{x:9.5f}{y:9.5f}" + " " * 22 + f"{value:10.3f}" + str(flag)


def idlz_deck(*cards):
    return "\n".join(cards) + "\n"


def square_problem(extra_cards=(), nopnch=0, nsbdvn=1,
                   shaping=None, formats=("", "")):
    """A 3x3 single-subdivision problem with both bottom+top located."""
    if shaping is None:
        shaping = [
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 2.0, 0.0, 0.0),
            i5(1, 3, 3, 3) + f8(0.0, 2.0, 2.0, 2.0, 0.0),
        ]
    return [
        i5(1),
        "SQUARE",
        i5(0, 0, nopnch, nsbdvn),
        i5(1, 1, 1, 3, 3),
        *extra_cards,
        i5(1, len(shaping)),
        *shaping,
        formats[0],
        formats[1],
    ]


def codes_of(result):
    return [d.code for d in result.diagnostics]


# ----------------------------------------------------------------------
# Structural rules (IDZ0xx)
# ----------------------------------------------------------------------


class TestStructuralRules:
    def test_zero_problem_deck_is_idz001(self):
        result = lint_text("    0\n", "zero.deck")
        assert codes_of(result) == ["IDZ001"]
        assert result.program == "idlz"
        assert not result.ok

    def test_unclassifiable_deck_is_idz001_without_program(self):
        result = lint_text("GARBAGE CARD\n", "junk.deck")
        assert codes_of(result) == ["IDZ001"]
        assert result.program is None

    def test_truncated_deck_is_idz002(self):
        result = lint_text("    1\nTITLE ONLY\n", "short.deck")
        assert codes_of(result) == ["IDZ002"]
        assert "type-3" in result.diagnostics[0].message

    def test_unreadable_field_is_idz003_with_card_location(self):
        text = idlz_deck(i5(1), "TITLE", "   XX    0    0    1")
        result = lint_text(text, "bad.deck")
        assert "IDZ003" in codes_of(result)
        diag = next(d for d in result.diagnostics if d.code == "IDZ003")
        assert diag.location.card == 3
        assert "XX" in diag.message

    def test_over_wide_card_is_idz004(self):
        text = idlz_deck(i5(1), "T" * 81, i5(0, 0, 0, 1),
                         i5(1, 1, 1, 3, 3), i5(1, 0), "", "")
        result = lint_text(text, "wide.deck")
        assert "IDZ004" in codes_of(result)

    def test_duplicate_subdivision_is_idz005(self):
        text = idlz_deck(*square_problem(
            extra_cards=[i5(1, 1, 1, 3, 3)], nsbdvn=2,
        )[:-4], i5(1, 0), i5(1, 0), "", "")
        result = lint_text(text, "dup.deck")
        assert "IDZ005" in codes_of(result)

    def test_undefined_reference_is_idz006(self):
        # The type-5 card names subdivision 9, which was never defined.
        text = idlz_deck(i5(1), "UNDEF", i5(0, 0, 0, 1),
                         i5(1, 1, 1, 3, 3), i5(9, 0), "", "")
        result = lint_text(text, "undef.deck")
        assert "IDZ006" in codes_of(result)
        diag = next(d for d in result.diagnostics if d.code == "IDZ006")
        assert diag.location.card == 5

    def test_trailing_cards_are_idz007(self):
        text = idlz_deck(*square_problem(), "LEFTOVER CARD")
        result = lint_text(text, "trail.deck")
        assert "IDZ007" in codes_of(result)
        diag = next(d for d in result.diagnostics if d.code == "IDZ007")
        assert diag.severity == "warning"

    def test_zero_subdivisions_is_idz008(self):
        text = idlz_deck(i5(1), "EMPTY", i5(0, 0, 0, 0))
        result = lint_text(text, "empty.deck")
        assert "IDZ008" in codes_of(result)

    def test_negative_nlines_is_idz009(self):
        text = idlz_deck(i5(1), "NEG", i5(0, 0, 0, 1),
                         i5(1, 1, 1, 3, 3), i5(1, -2))
        result = lint_text(text, "neg.deck")
        assert "IDZ009" in codes_of(result)


class TestControlCharacters:
    """A control character is refused by lint and by the program's
    reader alike, on the same card."""

    EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "decks"

    @pytest.mark.parametrize("deck,keyword,code,reader", [
        ("plate.deck", None, "IDZ003", read_idlz_deck),
        ("field.deck", None, "OSP003", read_ospl_deck),
        ("analyze/plate.analyze.deck", None, "IDZ003", read_analyze_deck),
        ("analyze/plate.analyze.deck", "MAT", "ANA003", read_analyze_deck),
    ])
    def test_tab_is_refused_on_its_card(self, deck, keyword, code, reader):
        cards = (self.EXAMPLES / deck).read_text().splitlines()
        index = 1 if keyword is None else next(
            i for i, card in enumerate(cards) if card.startswith(keyword))
        cards[index] = cards[index].replace(" ", "\t", 1)
        text = "\n".join(cards) + "\n"
        result = lint_text(text, deck)
        assert [(d.code, d.location.card) for d in result.errors] \
            == [(code, index + 1)]
        assert "control characters" in result.errors[0].message
        with pytest.raises(CardError, match=f"^card {index + 1} \\({code}\\)"):
            reader(CardReader.from_text(text))


# ----------------------------------------------------------------------
# Geometry rules (IDZ1xx)
# ----------------------------------------------------------------------


class TestGeometryRules:
    def run_subdivision(self, card):
        text = idlz_deck(i5(1), "GEO", i5(0, 0, 0, 1), card,
                         i5(1, 0), "", "")
        return lint_text(text, "geo.deck")

    def test_corners_not_a_box_is_idz101(self):
        result = self.run_subdivision(i5(1, 3, 3, 1, 1))
        assert "IDZ101" in codes_of(result)

    def test_both_tapers_is_idz102(self):
        result = self.run_subdivision(
            i5(1, 1, 1, 5, 5) + "     " + i5(1, 1))
        assert "IDZ102" in codes_of(result)

    def test_taper_shrinking_past_point_is_idz103(self):
        result = self.run_subdivision(
            i5(1, 1, 1, 5, 5) + "     " + i5(2, 0))
        assert "IDZ103" in codes_of(result)

    def test_overlapping_subdivisions_are_idz104(self):
        text = idlz_deck(i5(1), "OVERLAP", i5(0, 0, 0, 2),
                         i5(1, 1, 1, 3, 3), i5(2, 2, 2, 4, 4),
                         i5(1, 0), i5(2, 0), "", "")
        result = lint_text(text, "overlap.deck")
        assert "IDZ104" in codes_of(result)
        diag = next(d for d in result.diagnostics if d.code == "IDZ104")
        assert diag.location.card == 5  # the second type-4 card

    def test_disconnected_assemblage_is_idz105(self):
        text = idlz_deck(i5(1), "ISLAND", i5(0, 0, 0, 2),
                         i5(1, 1, 1, 3, 3), i5(2, 7, 7, 9, 9),
                         i5(1, 0), i5(2, 0), "", "")
        result = lint_text(text, "island.deck")
        assert "IDZ105" in codes_of(result)

    def test_corner_below_origin_is_idz106(self):
        result = self.run_subdivision(i5(1, 0, 1, 3, 3))
        assert "IDZ106" in codes_of(result)


# ----------------------------------------------------------------------
# Shaping rules (IDZ2xx)
# ----------------------------------------------------------------------


class TestShapingRules:
    def run_shaping(self, *cards):
        return lint_text(
            idlz_deck(*square_problem(shaping=list(cards))),
            "shape.deck")

    def test_segment_off_every_side_is_idz201(self):
        result = self.run_shaping(
            i5(1, 1, 3, 3) + f8(0.0, 0.0, 2.0, 2.0, 0.0))
        assert "IDZ201" in codes_of(result)

    def test_coincident_real_endpoints_are_idz202(self):
        result = self.run_shaping(
            i5(1, 1, 3, 1) + f8(1.0, 1.0, 1.0, 1.0, 0.0))
        assert "IDZ202" in codes_of(result)

    def test_negative_radius_is_idz203(self):
        result = self.run_shaping(
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 2.0, 0.0, -2.0))
        assert "IDZ203" in codes_of(result)

    def test_chord_longer_than_diameter_is_idz204(self):
        result = self.run_shaping(
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 2.0, 0.0, 0.6))
        assert "IDZ204" in codes_of(result)

    def test_arc_over_90_degrees_is_idz205(self):
        result = self.run_shaping(
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 2.0, 0.0, 1.05))
        assert "IDZ205" in codes_of(result)

    def test_conflicting_locations_are_idz206(self):
        result = self.run_shaping(
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 2.0, 0.0, 0.0),
            i5(3, 1, 3, 3) + f8(9.0, 9.0, 2.0, 2.0, 0.0),
        )
        assert "IDZ206" in codes_of(result)
        diag = next(d for d in result.diagnostics if d.code == "IDZ206")
        assert "(3,1)" in diag.message

    def test_unlocatable_pair_is_idz207(self):
        result = self.run_shaping(
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 2.0, 0.0, 0.0))
        assert "IDZ207" in codes_of(result)

    def test_all_four_sides_located_is_idz208(self):
        result = self.run_shaping(
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 2.0, 0.0, 0.0),
            i5(1, 3, 3, 3) + f8(0.0, 2.0, 2.0, 2.0, 0.0),
            i5(1, 1, 1, 3) + f8(0.0, 0.0, 0.0, 2.0, 0.0),
            i5(3, 1, 3, 3) + f8(2.0, 0.0, 2.0, 2.0, 0.0),
        )
        assert "IDZ208" in codes_of(result)
        assert result.ok  # over-location is a warning, not an error

    def test_point_location_off_lattice_is_idz209(self):
        result = self.run_shaping(
            i5(9, 9, 9, 9) + f8(1.0, 1.0, 1.0, 1.0, 0.0))
        assert "IDZ209" in codes_of(result)

    def test_well_shaped_square_is_clean(self):
        result = lint_text(idlz_deck(*square_problem()), "ok.deck")
        assert result.clean
        assert result.ok


# ----------------------------------------------------------------------
# FORMAT rules (FMT0xx)
# ----------------------------------------------------------------------


class TestFormatRules:
    def run_formats(self, nodal, element, nopnch=1):
        return lint_text(
            idlz_deck(*square_problem(nopnch=nopnch,
                                      formats=(nodal, element))),
            "fmt.deck")

    def test_malformed_format_is_fmt001(self):
        result = self.run_formats("(2F9.5, 51X, I3, 5X, I3)", "(3I5, 62X")
        assert "FMT001" in codes_of(result)

    def test_too_few_values_is_fmt002(self):
        result = self.run_formats("(I5, I5)", "(3I5, 62X, I3)")
        assert "FMT002" in codes_of(result)

    def test_narrow_integer_field_is_fmt003(self):
        # 18 nodes on a 6x3 lattice overflow an I1 node-number field.
        text = idlz_deck(
            i5(1), "MANY NODES", i5(0, 0, 1, 1),
            i5(1, 1, 1, 6, 3), i5(1, 2),
            i5(1, 1, 6, 1) + f8(0.0, 0.0, 5.0, 0.0, 0.0),
            i5(1, 3, 6, 3) + f8(0.0, 2.0, 5.0, 2.0, 0.0),
            "(2F9.5, I3, I1)", "(3I5, 62X, I3)")
        result = lint_text(text, "fmt.deck")
        assert "FMT003" in codes_of(result)

    def test_narrow_real_field_is_fmt004(self):
        # X spans 0..2 with 4 decimals: "2.0000" overflows F5.4.
        result = self.run_formats("(2F5.4, I3, I3)", "(3I5, 62X, I3)")
        assert "FMT004" in codes_of(result)

    def test_formats_ignored_when_not_punching(self):
        result = self.run_formats("(I1)", "(I1)", nopnch=0)
        assert codes_of(result) == []


# ----------------------------------------------------------------------
# Limit rules (LIM0xx)
# ----------------------------------------------------------------------


class TestLimitRules:
    def test_wide_lattice_is_lim002_and_lim003(self):
        text = idlz_deck(i5(1), "WIDE", i5(0, 0, 0, 1),
                         i5(1, 1, 1, 41, 61), i5(1, 0), "", "")
        result = lint_text(text, "wide.deck")
        assert {"LIM002", "LIM003"} <= set(codes_of(result))
        assert all(d.severity == "warning" for d in result.diagnostics
                   if d.code.startswith("LIM"))

    def test_strict_escalates_lim_to_error(self):
        text = idlz_deck(i5(1), "WIDE", i5(0, 0, 0, 1),
                         i5(1, 1, 1, 41, 2), i5(1, 0), "", "")
        relaxed = lint_text(text, "wide.deck")
        strict = lint_text(text, "wide.deck", strict=True)
        lim = lambda r: next(d for d in r.diagnostics
                             if d.code == "LIM002")
        assert lim(relaxed).severity == "warning"
        assert lim(strict).severity == "error"

    def test_node_budget_is_lim004(self):
        # 30x30 lattice: 900 nodes > 500, 1682 elements > 850.
        text = idlz_deck(i5(1), "BIG", i5(0, 0, 0, 1),
                         i5(1, 1, 1, 30, 30), i5(1, 0), "", "")
        result = lint_text(text, "big.deck")
        assert {"LIM004", "LIM005"} <= set(codes_of(result))

    def test_ospl_budgets_are_lim006_and_lim007(self):
        text = i5(900, 1100) + f10(1.0, 0.0, 1.0, 0.0, 0.0) + "\n"
        result = lint_text(text, "huge.deck", program="ospl")
        assert {"LIM006", "LIM007"} <= set(codes_of(result))


# ----------------------------------------------------------------------
# OSPL rules (OSP0xx)
# ----------------------------------------------------------------------


def ospl_deck(type1, nodes, elements, extra=()):
    return "\n".join([type1, "TITLE ONE", "TITLE TWO",
                      *nodes, *elements, *extra]) + "\n"


GOOD_TYPE1 = i5(4, 2) + f10(2.0, 0.0, 1.0, 0.0, 0.0)
GOOD_NODES = [
    ospl_node(0.0, 0.0, 1.0),
    ospl_node(1.0, 0.0, 2.0),
    ospl_node(1.0, 1.0, 3.0),
    ospl_node(0.0, 1.0, 4.0),
]
GOOD_ELEMENTS = [i5(1, 2, 3), i5(1, 3, 4)]


class TestOsplRules:
    def test_good_mesh_is_clean(self):
        result = lint_text(
            ospl_deck(GOOD_TYPE1, GOOD_NODES, GOOD_ELEMENTS),
            "good.deck", program="ospl")
        assert result.clean

    def test_not_a_mesh_is_osp001(self):
        text = i5(2, 0) + f10(1.0, 0.0, 1.0, 0.0, 0.0) + "\n"
        result = lint_text(text, "tiny.deck", program="ospl")
        assert codes_of(result) == ["OSP001"]

    def test_truncation_is_osp002(self):
        result = lint_text(
            ospl_deck(GOOD_TYPE1, GOOD_NODES[:2], []),
            "cut.deck", program="ospl")
        assert "OSP002" in codes_of(result)

    def test_bad_field_is_osp003(self):
        nodes = ["NOT A NODE CARD"] + GOOD_NODES[1:]
        result = lint_text(
            ospl_deck(GOOD_TYPE1, nodes, GOOD_ELEMENTS),
            "badnode.deck", program="ospl")
        assert "OSP003" in codes_of(result)

    def test_trailing_cards_are_osp004(self):
        result = lint_text(
            ospl_deck(GOOD_TYPE1, GOOD_NODES, GOOD_ELEMENTS,
                      extra=["LEFTOVER"]),
            "trail.deck", program="ospl")
        assert "OSP004" in codes_of(result)

    def test_reference_off_table_is_osp005(self):
        elements = [i5(1, 2, 3), i5(1, 3, 9)]
        result = lint_text(
            ospl_deck(GOOD_TYPE1, GOOD_NODES, elements),
            "ref.deck", program="ospl")
        assert "OSP005" in codes_of(result)

    def test_repeated_node_is_osp006(self):
        elements = [i5(1, 2, 3), i5(1, 1, 4)]
        result = lint_text(
            ospl_deck(GOOD_TYPE1, GOOD_NODES, elements),
            "repeat.deck", program="ospl")
        assert "OSP006" in codes_of(result)

    def test_collinear_element_is_osp007(self):
        nodes = [ospl_node(0.0, 0.0, 1.0), ospl_node(1.0, 0.0, 2.0),
                 ospl_node(2.0, 0.0, 3.0), ospl_node(0.0, 1.0, 4.0)]
        elements = [i5(1, 2, 3), i5(1, 2, 4)]
        result = lint_text(
            ospl_deck(GOOD_TYPE1, nodes, elements),
            "flat.deck", program="ospl")
        assert "OSP007" in codes_of(result)

    def test_constant_field_with_auto_interval_is_osp008(self):
        nodes = [ospl_node(0.0, 0.0, 5.0), ospl_node(1.0, 0.0, 5.0),
                 ospl_node(1.0, 1.0, 5.0), ospl_node(0.0, 1.0, 5.0)]
        result = lint_text(
            ospl_deck(GOOD_TYPE1, nodes, GOOD_ELEMENTS),
            "flatfield.deck", program="ospl")
        assert "OSP008" in codes_of(result)

    def test_negative_delta_is_osp009(self):
        type1 = i5(4, 2) + f10(2.0, 0.0, 1.0, 0.0, -0.5)
        result = lint_text(
            ospl_deck(type1, GOOD_NODES, GOOD_ELEMENTS),
            "neg.deck", program="ospl")
        assert "OSP009" in codes_of(result)

    def test_degenerate_window_is_osp010(self):
        type1 = i5(4, 2) + f10(0.0, 2.0, 1.0, 0.0, 0.0)
        result = lint_text(
            ospl_deck(type1, GOOD_NODES, GOOD_ELEMENTS),
            "window.deck", program="ospl")
        assert "OSP010" in codes_of(result)

    def test_unreferenced_node_is_osp011(self):
        type1 = i5(5, 2) + f10(2.0, 0.0, 1.0, 0.0, 0.0)
        nodes = GOOD_NODES + [ospl_node(0.5, 0.5, 9.0)]
        result = lint_text(
            ospl_deck(type1, nodes, GOOD_ELEMENTS),
            "orphan.deck", program="ospl")
        assert "OSP011" in codes_of(result)

    def test_duplicate_coordinates_are_osp012(self):
        type1 = i5(5, 3) + f10(2.0, 0.0, 1.0, 0.0, 0.0)
        nodes = GOOD_NODES + [ospl_node(0.0, 0.0, 9.0)]
        elements = GOOD_ELEMENTS + [i5(1, 2, 5)]
        result = lint_text(
            ospl_deck(type1, nodes, elements),
            "twin.deck", program="ospl")
        assert "OSP012" in codes_of(result)


# ----------------------------------------------------------------------
# Engine behaviour and the acceptance sweep
# ----------------------------------------------------------------------


class TestEngine:
    def test_diagnostics_sorted_by_card(self):
        text = idlz_deck(i5(1), "SORT", i5(0, 0, 0, 2),
                         i5(1, 3, 3, 1, 1), i5(2, 0, 1, 3, 3),
                         i5(1, 0), i5(2, 0), "", "")
        result = lint_text(text, "sort.deck")
        cards = [d.location.card for d in result.diagnostics]
        assert cards == sorted(cards)

    def test_to_dict_shape(self):
        result = lint_text("    0\n", "zero.deck")
        data = result.to_dict()
        assert data["ok"] is False
        assert data["counts"]["error"] == 1
        diag = data["diagnostics"][0]
        assert set(diag) == {"code", "severity", "message", "path",
                             "card", "card_text", "where"}

    def test_lint_paths_collects_directories(self, tmp_path):
        (tmp_path / "a.deck").write_text("    0\n")
        nested = tmp_path / "sub"
        nested.mkdir()
        (nested / "b.deck").write_text("    0\n")
        flat = lint_paths([tmp_path])
        deep = lint_paths([tmp_path], recursive=True)
        assert len(flat) == 1
        assert len(deep) == 2

    def test_lint_paths_raises_on_no_match(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path / "missing.deck"])

    def test_lint_path_reads_files(self, tmp_path):
        deck = tmp_path / "zero.deck"
        deck.write_text("    0\n")
        result = lint_path(deck)
        assert codes_of(result) == ["IDZ001"]
        assert result.path == str(deck)

    def test_unknown_program_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_text("    1\n", program="fortran")


class TestRegistry:
    def test_unknown_code_raises_with_known_codes(self):
        with pytest.raises(LintError) as excinfo:
            get_rule("IDZ999")
        assert "IDZ001" in str(excinfo.value)

    def test_explain_renders_code_and_severity(self):
        text = explain("IDZ207")
        assert text.startswith("IDZ207 (error)")
        assert "opposite sides" in text

    def test_explain_is_case_insensitive(self):
        assert explain("idz207") == explain("IDZ207")

    def test_missing_template_value_raises(self):
        with pytest.raises(LintError):
            get_rule("IDZ001").format()

    def test_all_rules_sorted_and_unique(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))


class TestAcceptanceSweep:
    """The issue's bar: >= 12 distinct codes, all card-anchored."""

    def test_crafted_bad_decks_cover_many_rules(self):
        bad_idlz = idlz_deck(
            i5(1),
            "TORTURE ONE",
            i5(0, 0, 1, 4),
            i5(1, 1, 1, 3, 3),
            i5(1, 5, 5, 7, 7),                             # dup + island
            i5(2, 2, 2, 4, 4),                             # overlap
            i5(3, 0, 1, 45, 65) + "     " + i5(0, 0),      # origin+limits
            i5(1, 3),
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 1.0, 0.0, 0.51),  # > 90 deg
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 1.0, 0.0, 0.4),   # chord
            i5(1, 1, 3, 1) + f8(0.0, 0.0, 1.0, 0.0, -1.0),  # clockwise
            i5(9, 0),                                       # undefined
            i5(2, 0),
            i5(3, 0),
            "(I2, I2)",                                     # too few
            "(3I5, 62X",                                    # malformed
            "TRAILING JUNK",
        )
        bad_ospl = ospl_deck(
            i5(4, 2) + f10(1.0, 1.0, 5.0, -1.0, -0.5),
            [ospl_node(0.0, 0.0, 1.0), ospl_node(1.0, 0.0, 2.0),
             ospl_node(2.0, 0.0, 3.0), ospl_node(2.0, 0.0, 4.0)],
            [i5(1, 2, 3), i5(1, 2, 9)],
        )
        results = [
            lint_text(bad_idlz, "torture.deck"),
            lint_text(bad_ospl, "torture_ospl.deck", program="ospl"),
        ]
        seen = {code for result in results for code in codes_of(result)}
        assert len(seen) >= 12, sorted(seen)
        families = {code[:3] for code in seen}
        assert {"IDZ", "OSP", "FMT", "LIM"} <= families
        for result in results:
            for diag in result.diagnostics:
                assert diag.location.path.endswith(".deck")
                assert diag.location.card >= 1, diag.render()
