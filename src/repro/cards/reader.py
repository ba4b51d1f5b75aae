"""The card tray: a deck's card images in reading order.

Models the card reader attached to the 7090.  The tray holds plain card
images; the deck parses of :mod:`repro.cards.parse` walk them in place,
read each card under its FORMAT, and move :attr:`position` past the
data set they read.  Running off the end of the tray is a diagnostic
naming the card the parse expected, which the programs turn into a
:class:`~repro.errors.CardError` -- friendlier than the original
program's end-of-file halt.
"""

from __future__ import annotations

from typing import Iterable, List, Union

from repro.cards.card import Card


class CardReader:
    """A deck of cards, read front to back."""

    def __init__(self, cards: Iterable[Union[Card, str]]):
        #: One image per card, as punched (not yet checked).
        self.images: List[str] = [
            c.text if isinstance(c, Card) else c.rstrip("\r\n") for c in cards
        ]
        #: Index of the next card to be read (0-based).
        self.position = 0

    @classmethod
    def from_text(cls, text: str) -> "CardReader":
        return cls(text.splitlines())

    def remaining(self) -> int:
        return len(self.images) - self.position
