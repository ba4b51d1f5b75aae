"""The Table 1 / Table 2 numerical restrictions: the data and the check.

The paper publishes the capacity of each program as a table:

    Table 1 (OSPL)   Total number of elements allowed .......... 1000
                     Total number of points data may be given ... 800

    Table 2 (IDLZ)   Total number of subdivisions allowed ........ 50
                     Total number of elements allowed ........... 850
                     Total number of nodes allowed .............. 500
                     Maximum horizontal integer coordinate ....... 40
                     Maximum vertical integer coordinate ......... 60

Each restriction is a :class:`LimitSpec` carrying its value, lint code
and message, and every comparison against one is made here, once:
:func:`grid_excesses` (LIM001-003) and :func:`count_excesses`
(LIM004-007) list what a problem goes past as :class:`Excess` records.
The static deck analyzer (:mod:`repro.lint`) reports every excess
against its card; a ``strict=True`` run raises the first one as a
:class:`~repro.errors.LimitError` (:func:`check`).  A run that is not
strict meshes past 1970 capacity: the 40x60 grid and the node and
element counts are no bound of this reproduction (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import LimitError

if TYPE_CHECKING:
    from repro.cards.parse import RawSubdivision
    from repro.core.idlz.subdivision import Subdivision


@dataclass(frozen=True)
class LimitSpec:
    """One published numerical restriction."""

    key: str             # "<program>.<restriction>", e.g. "idlz.max_k"
    code: str            # the lint rule that reports it, e.g. "LIM002"
    value: int
    name: str            # what LimitError.name calls the counted thing
    message: str         # the lint message template


#: Every restriction the 1970 paper publishes, in table order.
TABLE_1970: Tuple[LimitSpec, ...] = (
    LimitSpec("ospl.max_elements", "LIM007", 1000, "elements",
              "NE = {value} elements exceed the Table-1 allowance of "
              "{maximum}"),
    LimitSpec("ospl.max_nodes", "LIM006", 800, "nodes",
              "NN = {value} points exceed the Table-1 allowance of "
              "{maximum}"),
    LimitSpec("idlz.max_subdivisions", "LIM001", 50, "subdivisions",
              "{count} subdivisions exceed the Table-2 allowance of "
              "{maximum}"),
    LimitSpec("idlz.max_elements", "LIM005", 850, "elements",
              "the idealization would create {value} elements, more than "
              "the Table-2 allowance of {maximum}"),
    LimitSpec("idlz.max_nodes", "LIM004", 500, "nodes",
              "the idealization would number {value} nodes, more than the "
              "Table-2 allowance of {maximum}"),
    LimitSpec("idlz.max_k", "LIM002", 40,
              "horizontal coordinate of subdivision {index}",
              "horizontal coordinate {value} of subdivision {index} "
              "exceeds the Table-2 maximum of {maximum}"),
    LimitSpec("idlz.max_l", "LIM003", 60,
              "vertical coordinate of subdivision {index}",
              "vertical coordinate {value} of subdivision {index} "
              "exceeds the Table-2 maximum of {maximum}"),
)

_BY_KEY: Dict[str, LimitSpec] = {spec.key: spec for spec in TABLE_1970}

#: The same specs by lint code (the LIM rules register from these).
BY_CODE: Dict[str, LimitSpec] = {spec.code: spec for spec in TABLE_1970}


@dataclass(frozen=True)
class Excess:
    """One restriction a deck or mesh goes past."""

    spec: LimitSpec
    value: int
    index: Optional[int] = None   # the subdivision, for LIM002/LIM003

    @property
    def code(self) -> str:
        return self.spec.code

    def values(self) -> Dict[str, object]:
        """The fields of the lint message template."""
        return {"value": self.value, "count": self.value,
                "index": self.index, "maximum": self.spec.value}

    def __str__(self) -> str:
        return self.spec.message.format(**self.values())

    def error(self) -> LimitError:
        return LimitError(self.spec.name.format(index=self.index),
                          self.value, self.spec.value, code=self.code,
                          detail=str(self), index=self.index)


def _over(key: str, value: int, index: Optional[int] = None
          ) -> List[Excess]:
    spec = _BY_KEY[key]
    return [Excess(spec, value, index)] if value > spec.value else []


def grid_excesses(subdivisions: Iterable[Union["RawSubdivision",
                                               "Subdivision"]]
                  ) -> List[Excess]:
    """Table 2's subdivision count and lattice extent (LIM001-003), over
    type-4 cards (lint) or built subdivisions (a run)."""
    subs = list(subdivisions)
    found = _over("idlz.max_subdivisions", len(subs))
    for sub in subs:
        found += _over("idlz.max_k", max(sub.kk1, sub.kk2), sub.index)
        found += _over("idlz.max_l", max(sub.ll1, sub.ll2), sub.index)
    return found


def count_excesses(program: str, n_nodes: int, n_elements: int
                   ) -> List[Excess]:
    """The node and element allowances of Table 2 (``"idlz"``,
    LIM004/005) or Table 1 (``"ospl"``, LIM006/007)."""
    return (_over(f"{program}.max_nodes", n_nodes)
            + _over(f"{program}.max_elements", n_elements))


def check(excesses: Sequence[Excess], strict: bool) -> None:
    """Refuse the first excess when ``strict``; otherwise accept all."""
    if strict and excesses:
        raise excesses[0].error()
