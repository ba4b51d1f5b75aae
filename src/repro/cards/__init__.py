"""Punched-card substrate.

The 1970 programs live in a card ecosystem: IDLZ *reads* seven card types
(Appendix B) and *punches* nodal/element cards in a user-supplied FORTRAN
FORMAT; OSPL reads four card types (Appendix C).  This package supplies

* :mod:`repro.cards.fortran_format` -- a FORMAT edit-descriptor engine
  (I, F, E, A, X, H, literals, repeat groups, ``/``) with genuine FORTRAN
  semantics for fixed-field reads, including the implied-decimal rule for
  ``Fw.d`` input;
* :mod:`repro.cards.card`           -- 80-column card images and the deck
  fingerprint;
* :mod:`repro.cards.reader`         -- the card tray the parses walk;
* :mod:`repro.cards.parse`          -- the card layouts of every deck, the
  program classifier and the one tolerant parse per program;
* :mod:`repro.cards.writer`         -- sequential deck writer/punch.

The runtime deck objects are built next to their programs
(:mod:`repro.core.idlz.deck`, :mod:`repro.core.ospl.deck`,
:mod:`repro.analyze.deck`).
"""

from repro.cards.fortran_format import FortranFormat, FieldSpec
from repro.cards.card import Card, CARD_WIDTH
from repro.cards.reader import CardReader
from repro.cards.writer import CardWriter

__all__ = [
    "FortranFormat",
    "FieldSpec",
    "Card",
    "CARD_WIDTH",
    "CardReader",
    "CardWriter",
]
