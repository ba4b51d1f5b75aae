"""Differential suite: lint, the deck parser and the programs agree.

Every program reads its deck through :mod:`repro.cards.parse`, and
``repro lint`` reports the same parse plus its semantic rules.  On
seeded valid decks and single-card mutations of them
(``tests/deckgen.py``) this suite holds the contract that follows:

* a reader raises :class:`CardError` iff the parse reports an error, and
  the message names the card (and code) of the earliest one;
* every parse error is a lint error on the same card;
* a deck that lints without errors reads, and a valid deck lints clean
  and runs through its program end to end;
* on IDLZ geometry faults and Table-2 excesses (plain and ``strict``) a
  run refuses iff lint has an error, naming a card lint has an error
  on, with lint's code and message;
* the plan's counts are the run's.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyze.deck import read_analyze_deck
from repro.analyze.program import run_analyze
from repro.cards.parse import parse_analyze, parse_idlz, parse_ospl
from repro.cards.reader import CardReader
from repro.core.idlz.deck import read_idlz_deck
from repro.core.idlz.program import run_idlz
from repro.core.ospl.deck import read_ospl_deck
from repro.core.ospl.program import run_ospl
from repro.errors import CardError, ReproError
from repro.fem.bandwidth import mesh_bandwidth
from repro.lint import lint_text
from repro.plan import plan_text

from tests.deckgen import (
    analyze_decks,
    any_mutation,
    idlz_decks,
    mutations,
    ospl_decks,
    shifted,
    text_of,
)

PARSERS = {"idlz": parse_idlz, "ospl": parse_ospl,
           "analyze": parse_analyze}
READERS = {"idlz": read_idlz_deck, "ospl": read_ospl_deck,
           "analyze": read_analyze_deck}
RUNNERS = {"idlz": run_idlz, "ospl": run_ospl, "analyze": run_analyze}
DECKS = {"idlz": idlz_decks, "ospl": ospl_decks, "analyze": analyze_decks}


def seeded(examples: int) -> settings:
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_agreement(program: str, text: str) -> None:
    parse_errors = [d for d in PARSERS[program](text).parse_diagnostics
                    if d.severity == "error"]
    lint_errors = {(d.location.card, d.code)
                   for d in lint_text(text, "deck", program=program).errors}
    assert {(d.location.card, d.code) for d in parse_errors} <= lint_errors
    try:
        READERS[program](CardReader.from_text(text))
    except CardError as exc:
        assert parse_errors, f"reader refused a clean parse: {exc}"
        first = min(parse_errors,
                    key=lambda d: d.location.card or math.inf)
        site = (f"card {first.location.card}" if first.location.card
                else "deck exhausted")
        assert str(exc) == f"{site} ({first.code}): {first.message}"
    except ReproError as exc:
        # A strict constructor refused what parses; lint must say so.
        assert not parse_errors
        assert lint_errors, f"lint-clean deck failed to read: {exc}"
    else:
        assert not parse_errors


@pytest.mark.parametrize("program", sorted(DECKS))
@seeded(8)
@given(data=st.data())
def test_valid_decks_lint_clean_and_run(program, data):
    text = data.draw(DECKS[program]()).text()
    result = lint_text(text, "deck", program=program)
    assert not result.errors, [str(d) for d in result.errors]
    assert not PARSERS[program](text).parse_diagnostics
    RUNNERS[program](CardReader.from_text(text))


@pytest.mark.parametrize("program", sorted(DECKS))
@seeded(40)
@given(data=st.data())
def test_mutated_decks_agree(program, data):
    deck = data.draw(DECKS[program]())
    assert_agreement(program, text_of(data.draw(any_mutation(deck))))


@pytest.mark.parametrize("program,kind", [
    ("idlz", "control"), ("idlz", "widen"), ("idlz", "garble"),
    ("ospl", "node"), ("ospl", "control"), ("ospl", "garble"),
    ("analyze", "keyword"), ("analyze", "axis"), ("analyze", "dofs"),
    ("analyze", "solver"), ("analyze", "modes"),
])
@seeded(5)
@given(data=st.data())
def test_breaking_mutations_are_refused_on_the_linted_card(program, kind,
                                                           data):
    """Mutations that always break a deck: the reader refuses it, and
    lint reports an error on the card the refusal names."""
    deck = data.draw(DECKS[program]())
    text = text_of(data.draw(mutations(deck)[kind]))
    with pytest.raises(CardError) as refused:
        READERS[program](CardReader.from_text(text))
    lint = lint_text(text, "deck", program=program)
    named = str(refused.value).split(" (")[0]
    assert any(named == f"card {d.location.card}" for d in lint.errors)


#: The IDLZ geometry mutations (``tests/deckgen.geometry_mutations``).
GEOMETRY = ("collapse", "both_tapers", "over_taper", "below_origin",
            "past_table2")

_REFUSAL = re.compile(r"card (\d+) \((\w+)\): (.*)")


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("kind", GEOMETRY)
@pytest.mark.parametrize("program", ["idlz", "analyze"])
@seeded(4)
@given(data=st.data())
def test_geometry_refusals_name_the_linted_card(program, kind, strict,
                                                data):
    """A run refuses a deck iff lint has an error on it, plain and
    under ``strict``; the refusal names a card lint has an error on,
    with lint's code and lint's message."""
    deck = data.draw(DECKS[program]())
    text = text_of(data.draw(mutations(deck)[kind]))
    lint = lint_text(text, "deck", program=program, strict=strict)
    errors = {(d.location.card, d.code): d.message for d in lint.errors}
    try:
        RUNNERS[program](CardReader.from_text(text), strict=strict)
    except ReproError as exc:
        refusal = _REFUSAL.fullmatch(str(exc))
        assert refusal, f"the refusal names no card: {exc}"
        card, code, message = refusal.groups()
        assert errors.get((int(card), code)) == message, (str(exc), errors)
    else:
        assert not errors, [str(d) for d in lint.errors]


@pytest.mark.parametrize("program", ["idlz", "analyze"])
@seeded(8)
@given(data=st.data())
def test_plan_counts_are_the_run_counts(program, data):
    """On valid decks (and the same decks moved past the Table-2 grid)
    the plan's node and element counts and bandwidth bound are the
    run's."""
    deck = data.draw(DECKS[program]())
    for text in (deck.text(), text_of(shifted(deck, 40))):
        (planned,) = plan_text(text, program=program).problems
        read = READERS[program](CardReader.from_text(text))
        problem = read[0] if program == "idlz" else read.problem
        ideal = problem.run()
        assert (planned.n_nodes, planned.n_elements,
                planned.node_half_bandwidth) == (
            ideal.n_nodes, ideal.n_elements,
            mesh_bandwidth(ideal.lattice_mesh))
