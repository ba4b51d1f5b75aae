"""Unit tests for the card tray, the parses that walk it, and the punch."""

import pytest

from repro.cards.card import Card
from repro.cards.fortran_format import FortranFormat
from repro.cards.parse import parse_idlz, parse_ospl, read_or_refuse
from repro.cards.reader import CardReader
from repro.cards.writer import CardWriter
from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import CardError

OSPL_TRAY = [
    "    3    1",
    "FIELD",
    "SUBTITLE",
    "  0.00000  0.00000                           1.0001",
    "  1.00000  0.00000                           2.0001",
    "  0.00000  1.00000                           3.0001",
    "    1    2    3",
]


def idlz_tray():
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=3)
    segments = [ShapingSegment(1, 1, 1, 3, 1, 0.0, 0.0, 2.0, 0.0),
                ShapingSegment(1, 1, 3, 3, 3, 0.0, 2.0, 2.0, 2.0)]
    problem = IdlzProblem(title="TRAY", subdivisions=[sub],
                          segments=segments)
    return [str(card) for card in write_idlz_deck([problem]).cards]


class TestCardReader:
    def test_sequential_consumption(self):
        # A parse reads the tray in order, each card under its FORMAT,
        # and parks the tray after the data set it read.
        tray = idlz_tray()
        reader = CardReader(tray + ["TRAILING CARD"])
        model = parse_idlz(reader)
        assert reader.position == len(tray)
        assert reader.remaining() == 1
        problem = model.problems[0]
        assert problem.title_card.hollerith == "TRAY"
        assert problem.nodal_format.spec == tray[-2].rstrip()
        assert [(s.kk1, s.ll1, s.kk2, s.ll2)
                for s in problem.subdivisions] == [(1, 1, 3, 3)]

    def test_reading_past_end_raises(self):
        reader = CardReader(idlz_tray()[:3])
        with pytest.raises(CardError, match="deck exhausted"):
            read_or_refuse(parse_idlz, reader)

    def test_read_list(self):
        # The OSPL node and element tables: NN and NE consecutive cards
        # under one FORMAT each.
        reader = CardReader(OSPL_TRAY + ["    9    9    9"])
        model = parse_ospl(reader)
        assert model.xy.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert model.values.tolist() == [1.0, 2.0, 3.0]
        assert model.elements.tolist() == [[1, 2, 3]]
        assert reader.remaining() == 1

    def test_from_text(self):
        reader = CardReader.from_text("    1\n    2\n")
        assert reader.remaining() == 2

    def test_accepts_card_objects(self):
        reader = CardReader([Card("   42")])
        assert reader.images == ["   42"]


class TestCardWriter:
    def test_punch_single(self):
        writer = CardWriter()
        writer.punch("(2I5)", [1, 2])
        assert len(writer) == 1
        assert str(writer.cards[0]) == "    1    2"

    def test_punch_spilling_format(self):
        writer = CardWriter()
        produced = writer.punch("(2I5)", [1, 2, 3])
        assert len(produced) == 2

    def test_punch_raw_card(self):
        writer = CardWriter()
        writer.punch_card("A TITLE CARD")
        assert writer.cards[0] == Card("A TITLE CARD")

    def test_to_text_round_trips_through_reader(self):
        writer = CardWriter()
        fmt = FortranFormat("(3I5)")
        writer.punch(fmt, [7, 8, 9])
        reader = CardReader.from_text(writer.to_text())
        assert fmt.read(reader.images[0]) == [7, 8, 9]
