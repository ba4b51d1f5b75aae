"""80-column card images.

A :class:`Card` is a thin wrapper over a text line that enforces the
physical constraints of a punched card: at most 80 columns, no control
characters.  Decks are plain lists of cards, so they serialise naturally to
text files (one card per line) -- our stand-in for a card tray.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import CardError

#: Columns on an IBM punched card.
CARD_WIDTH = 80


class Card:
    """A single punched-card image."""

    __slots__ = ("text",)

    def __init__(self, text: str = "", strict: bool = True):
        text = text.rstrip("\r\n")
        if strict and len(text) > CARD_WIDTH:
            raise CardError(
                f"card image is {len(text)} columns; cards hold {CARD_WIDTH}"
            )
        if any(ord(c) < 32 for c in text):
            raise CardError("card image contains control characters")
        self.text = text

    def column(self, n: int) -> str:
        """1-based column access, blank past the end of the image."""
        if n < 1 or n > CARD_WIDTH:
            raise CardError(f"column {n} outside 1..{CARD_WIDTH}")
        return self.text[n - 1] if n <= len(self.text) else " "

    def padded(self) -> str:
        """The image blank-padded to the full 80 columns."""
        return self.text.ljust(CARD_WIDTH)

    def is_blank(self) -> bool:
        return not self.text.strip()

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Card({self.text!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Card):
            return self.padded() == other.padded()
        if isinstance(other, str):
            return self.padded() == other.ljust(CARD_WIDTH)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.padded())


def deck_from_text(text: str, strict: bool = True) -> List[Card]:
    """Split a text blob into a deck, one card per line."""
    return [Card(line, strict=strict) for line in text.splitlines()]


def deck_to_text(cards: Iterable[Card]) -> str:
    """Join a deck back into a text blob (trailing blanks trimmed)."""
    return "\n".join(str(c) for c in cards) + "\n"


def canonical_deck_text(text: str) -> str:
    """Normalise a deck blob to its canonical card-tray form.

    Trailing whitespace on each card and trailing blank cards carry no
    information on a punched card (columns past the last punch are just
    unpunched), so two decks that differ only there are the same tray.
    The batch engine fingerprints this canonical form, making its
    artifact cache insensitive to editor noise.
    """
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n" if lines else ""


def deck_fingerprint(text: str, program: str) -> str:
    """Content fingerprint of a deck blob (sha-256 hex).

    Hashes the canonical card-tray form under a program tag, so an IDLZ
    deck and a byte-identical OSPL deck never share a fingerprint.  The
    batch engine combines this with the run options and the code digest
    to key its artifact cache.
    """
    import hashlib  # only cache keys need it: uncached runs skip OpenSSL

    digest = hashlib.sha256(f"{program}\n".encode())
    digest.update(canonical_deck_text(text).encode())
    return digest.hexdigest()
