"""Sequential deck reader.

Models the card reader attached to the 7090: cards are consumed strictly in
order, each READ pulling one (or, via ``read_list``, several) cards under a
FORMAT.  Running off the end of the tray raises :class:`CardError` with the
card index for diagnosis, which is friendlier than the original program's
end-of-file halt.

The tray holds plain card images; the deck parses of
:mod:`repro.cards.parse` walk them in place and move :attr:`position`
past the data set they read.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Union

from repro import obs
from repro.cards.card import Card
from repro.cards.fortran_format import FortranFormat
from repro.errors import CardError


class CardReader:
    """Reads a deck of cards front to back."""

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

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.images)

    def remaining(self) -> int:
        return len(self.images) - self.position

    def next_card(self) -> Card:
        """Consume and return the next raw card."""
        if self.exhausted:
            raise CardError(
                f"deck exhausted after {len(self.images)} card(s); "
                "the program tried to read past the end of the tray"
            )
        card = Card(self.images[self.position])
        self.position += 1
        obs.count("cards.read")
        return card

    def peek(self) -> Card:
        """Look at the next card without consuming it."""
        if self.exhausted:
            raise CardError("deck exhausted; nothing to peek at")
        return Card(self.images[self.position])

    def read(self, fmt: Union[FortranFormat, str]) -> List[Any]:
        """Read one card under ``fmt`` and return its values."""
        if isinstance(fmt, str):
            fmt = FortranFormat(fmt)
        return fmt.read(self.next_card().padded())

    def read_list(self, fmt: Union[FortranFormat, str], count: int) -> List[List[Any]]:
        """Read ``count`` consecutive cards under the same format."""
        if isinstance(fmt, str):
            fmt = FortranFormat(fmt)
        return [fmt.read(self.next_card().padded()) for _ in range(count)]

    def rewind(self) -> None:
        """Put the tray back to the first card."""
        self.position = 0
