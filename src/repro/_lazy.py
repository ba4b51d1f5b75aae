"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports its public names eagerly makes every
program pay for every subpackage: ``python -m repro idlz`` would import
the FEM solver stack and scipy before reading a card.  Instead a package
declares a ``{defining module: names}`` table and calls
:func:`lazy_exports`, which gives it a module ``__getattr__`` that
imports the defining module on first access to one of its names.
``from repro import Idealizer`` and ``from repro import *`` behave as
before; each name resolves to the very object its defining module holds.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, table: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``."""
    owner = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owner[name]), name)
        setattr(sys.modules[package], name, value)  # later reads skip this
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
