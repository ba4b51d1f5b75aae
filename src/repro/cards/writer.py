"""Sequential deck writer -- the card punch.

IDLZ's NOPNCH option routes generated nodal/element data through a punch
in the user-specified FORMAT; the writer collects the card images so they
can be fed straight back into a :class:`repro.cards.reader.CardReader`
(used by the round-trip tests and the quickstart example).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Union

from repro import obs
from repro.cards.card import Card, deck_to_text
from repro.cards.fortran_format import FortranFormat


class CardWriter:
    """Accumulates punched cards."""

    def __init__(self):
        self._cards: List[Card] = []

    @property
    def cards(self) -> List[Card]:
        return list(self._cards)

    def __len__(self) -> int:
        return len(self._cards)

    def punch_card(self, text: str) -> Card:
        """Punch one raw card image."""
        card = Card(text)
        self._cards.append(card)
        obs.count("cards.punched")
        return card

    def punch(self, fmt: Union[FortranFormat, str],
              values: Sequence[Any]) -> List[Card]:
        """Punch ``values`` under ``fmt`` (may yield several cards)."""
        if isinstance(fmt, str):
            fmt = FortranFormat(fmt)
        produced = [Card(line) for line in fmt.write(values)]
        self._cards.extend(produced)
        obs.count("cards.punched", len(produced))
        return produced

    def to_text(self) -> str:
        """Serialise the tray to text, one card per line."""
        return deck_to_text(self._cards)
