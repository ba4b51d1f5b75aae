"""One check per deck restriction.

The type-4 card faults (IDZ101-103, IDZ106) and the Table 1/2 excesses
(LIM001-007) read the same in ``repro lint``, ``repro plan`` and a run:
a run from a deck refuses as ``card N (CODE): <lint's message>``, plain
or ``strict``, and the plan calls the same decks unplannable.
"""

import numpy as np
import pytest

from repro.analyze.program import run_analyze
from repro.cards.reader import CardReader
from repro.core.idlz import Idealizer, Subdivision
from repro.core.idlz.program import run_idlz
from repro.core.ospl.deck import problem_from_analysis, write_ospl_deck
from repro.core.ospl.plot import conplt
from repro.core.ospl.program import run_ospl
from repro.errors import IdealizationError, LimitError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.lint import lint_text
from repro.plan import plan_text


def idlz_deck(subdivision: str, k2: int = 4, l2: int = 4) -> str:
    """One subdivision card, shaped along its bottom and top rows."""
    k1 = int(subdivision[5:10])
    l1 = int(subdivision[10:15])
    return "\n".join([
        "    1", "RESTRICTED", "    0    0    0    1", subdivision,
        "    1    2",
        f"{k1:5d}{l1:5d}{k2:5d}{l1:5d}  0.0000  0.0000  4.0000  0.0000"
        "  0.0000",
        f"{k1:5d}{l2:5d}{k2:5d}{l2:5d}  0.0000  4.0000  4.0000  4.0000"
        "  0.0000",
        "", "",
    ]) + "\n"


BELOW = idlz_deck("    1    0    1    4    4")
IDZ106 = ("lattice corner (0,1) is below the grid origin; integer "
          "coordinates start at (1,1)")


class TestBelowOrigin:
    @pytest.mark.parametrize("strict", [False, True])
    def test_run_refuses_on_the_card_in_lint_words(self, strict):
        with pytest.raises(IdealizationError) as refused:
            run_idlz(CardReader.from_text(BELOW), strict=strict)
        assert str(refused.value) == f"card 4 (IDZ106): {IDZ106}"

    def test_lint_reports_the_same_card_and_words(self):
        (error,) = lint_text(BELOW, "below.deck").errors
        assert (error.location.card, error.code, error.message) == (
            4, "IDZ106", IDZ106)

    def test_plan_calls_the_deck_unplannable(self):
        plan = plan_text(BELOW)
        assert not plan.plannable
        assert plan.reason == f"problem 1: card 4 (IDZ106): {IDZ106}"

    @pytest.mark.parametrize("strict", [False, True])
    def test_library_run_refuses_when_numbering(self, strict):
        below = Subdivision(index=1, kk1=0, ll1=1, kk2=4, ll2=4)
        with pytest.raises(IdealizationError) as refused:
            Idealizer("BELOW", [below], strict=strict).run([])
        assert str(refused.value) == f"subdivision 1: {IDZ106}"


class TestCollapsedBox:
    DECK = idlz_deck("    1    1    1   10    1", k2=10, l2=1)
    IDZ101 = "corners (1,1)-(10,1) do not span a box"

    def test_plan_reason_names_the_card_once(self):
        plan = plan_text(self.DECK)
        assert not plan.plannable
        assert plan.reason == f"problem 1: card 4 (IDZ101): {self.IDZ101}"

    def test_run_refuses_in_the_same_words(self):
        with pytest.raises(IdealizationError) as refused:
            run_idlz(CardReader.from_text(self.DECK))
        assert str(refused.value) == f"card 4 (IDZ101): {self.IDZ101}"


class TestStrictIdlz:
    WIDE = idlz_deck("    1    1    1   41    2", k2=41, l2=2)
    BIG = idlz_deck("    1    1    1   21   31", k2=21, l2=31)

    def test_plain_run_meshes_past_the_grid(self):
        (run,) = run_idlz(CardReader.from_text(self.WIDE))
        assert run.idealization.n_nodes == 82

    def test_strict_run_names_the_type4_card(self):
        with pytest.raises(LimitError) as refused:
            run_idlz(CardReader.from_text(self.WIDE), strict=True)
        err = refused.value
        assert (err.card, err.code, err.name, err.value, err.maximum) == (
            4, "LIM002", "horizontal coordinate of subdivision 1", 41, 40)
        message = ("horizontal coordinate 41 of subdivision 1 exceeds the "
                   "Table-2 maximum of 40")
        assert str(err) == f"card 4 (LIM002): {message}"
        lint = lint_text(self.WIDE, "wide.deck", strict=True)
        assert [(d.location.card, d.code, d.message)
                for d in lint.errors] == [(4, "LIM002", message)]

    def test_strict_count_names_the_option_card(self):
        with pytest.raises(LimitError) as refused:
            run_idlz(CardReader.from_text(self.BIG), strict=True)
        assert str(refused.value) == (
            "card 3 (LIM004): the idealization would number 651 nodes, "
            "more than the Table-2 allowance of 500")
        lint = lint_text(self.BIG, "big.deck", strict=True)
        assert {(d.location.card, d.code) for d in lint.errors} == {
            (3, "LIM004"), (3, "LIM005")}

    def test_library_run_names_no_card(self):
        wide = Subdivision(index=1, kk1=1, ll1=1, kk2=41, ll2=2)
        with pytest.raises(LimitError) as refused:
            Idealizer("WIDE", [wide], strict=True).run([])
        assert refused.value.card == 0
        assert refused.value.code == "LIM002"
        assert str(refused.value) == ("horizontal coordinate of "
                                      "subdivision 1 = 41 exceeds the "
                                      "1970 restriction of 40")

    def test_strict_analyze_names_the_type4_card(self):
        text = open("benchmarks/decks/frame_large.analyze.deck").read()
        with pytest.raises(LimitError, match=r"^card 4 \(LIM002\): "):
            run_analyze(CardReader.from_text(text), strict=True)


def strip_field(per_row: int, rows: int):
    xs, ys = np.meshgrid(np.arange(per_row, dtype=float),
                         np.arange(rows, dtype=float))
    nodes = np.column_stack([xs.ravel(), ys.ravel()])
    elements = []
    for j in range(rows - 1):
        for i in range(per_row - 1):
            a = j * per_row + i
            elements += [(a, a + 1, a + per_row + 1),
                         (a, a + per_row + 1, a + per_row)]
    mesh = Mesh(nodes=nodes, elements=np.array(elements))
    return mesh, NodalField("S", nodes[:, 0])


class TestStrictOspl:
    def test_strict_deck_names_the_type1_card(self):
        mesh, field = strip_field(401, 2)  # 802 nodes
        text = write_ospl_deck(problem_from_analysis(mesh, field)).to_text()
        run_ospl(CardReader.from_text(text))
        with pytest.raises(LimitError) as refused:
            run_ospl(CardReader.from_text(text), strict=True)
        message = "NN = 802 points exceed the Table-1 allowance of 800"
        assert str(refused.value) == f"card 1 (LIM006): {message}"
        lint = lint_text(text, "wide.deck", strict=True)
        assert [(d.location.card, d.code, d.message)
                for d in lint.errors] == [(1, "LIM006", message)]

    def test_conplt_keeps_the_named_limit(self):
        mesh, field = strip_field(252, 3)  # 1004 elements
        with pytest.raises(LimitError) as refused:
            conplt(mesh, field, strict=True)
        err = refused.value
        assert (err.code, err.name, err.value, err.maximum) == (
            "LIM007", "elements", 1004, 1000)
