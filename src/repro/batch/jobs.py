"""The batch job model: decks on disk become schedulable jobs.

A :class:`JobSpec` is everything one worker needs to run one deck: the
deck path, which program it belongs to, where its products go and the
run options.  Specs are plain frozen dataclasses that serialise to
dicts, so they cross the :class:`~concurrent.futures.ProcessPoolExecutor`
boundary as cheap pickles.

Deck classification leans on the card layouts themselves
(:func:`repro.cards.parse.classify_deck`).  Filename hints
(``name.idlz.deck`` / ``name.ospl.deck`` / ``name.analyze.deck``)
override the sniff for decks that want to be explicit.
"""

from __future__ import annotations

import glob
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.cards.parse import PARSERS, classify_deck
from repro.errors import BatchError, CardError

#: Programs the batch engine can run.
PROGRAMS = tuple(PARSERS)


@dataclass(frozen=True)
class JobSpec:
    """One deck scheduled for execution."""

    job_id: str
    deck: str                     # absolute path to the deck file
    program: str                  # "idlz" | "ospl" | "analyze"
    out_dir: str                  # job-private directory for artifacts
    strict: bool = False
    timeout_s: Optional[float] = None
    #: Root of the shared per-stage cache (None disables stage reuse).
    stage_cache: Optional[str] = None
    #: Trace context: the batch run's trace id and the id of the run's
    #: root span, carried into the worker so its span fragment can be
    #: grafted back onto one fleet-wide trace (docs/OBSERVABILITY.md).
    trace_id: Optional[str] = None
    parent_span: Optional[str] = None
    #: Ledger file the worker appends lifecycle events to (None: off).
    ledger: Optional[str] = None
    #: Wrap each pipeline stage in cProfile and ship hotspot tables.
    profile: bool = False
    #: Which attempt this spec represents (1-based; retries increment),
    #: so the worker's ledger events can say "attempt 2 of 3".
    attempt: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(**data)


def classify_deck_path(path: Union[str, Path]) -> str:
    """Classify a deck file, honouring ``.idlz.`` / ``.ospl.`` name hints."""
    path = Path(path)
    name = path.name.lower()
    for program in PROGRAMS:
        if f".{program}." in name:
            return program
    try:
        text = path.read_text()
    except OSError as exc:
        raise BatchError(f"cannot read deck {path}: {exc}") from exc
    try:
        return classify_deck(text.splitlines())
    except CardError as exc:
        raise BatchError(f"{path}: {exc}") from None


def _unique_job_id(stem: str, taken: Dict[str, int]) -> str:
    """Deck stems become job ids; repeated stems get a numeric suffix."""
    n = taken.get(stem, 0)
    taken[stem] = n + 1
    return stem if n == 0 else f"{stem}__{n + 1}"


def discover_jobs(patterns: Sequence[Union[str, Path]],
                  out_root: Union[str, Path],
                  strict: bool = False,
                  timeout_s: Optional[float] = None) -> List[JobSpec]:
    """Expand glob patterns into a deterministic, de-duplicated job list.

    Each pattern may be a literal path or a glob (``**`` recurses).  The
    expansion is sorted by path so manifests are reproducible, and each
    job gets a private ``out_root/<job_id>/`` directory.  No matches at
    all is a :class:`BatchError` -- an empty batch is an operator
    mistake, not a successful run of nothing.
    """
    paths: List[Path] = []
    seen = set()
    for pattern in patterns:
        pattern = str(pattern)
        matches = (glob.glob(pattern, recursive=True)
                   if glob.has_magic(pattern) else [pattern])
        for match in matches:
            path = Path(match)
            if path.is_dir():
                continue
            resolved = os.path.realpath(path)
            if resolved not in seen:
                seen.add(resolved)
                paths.append(path)
    if not paths:
        raise BatchError(
            "no decks matched " + ", ".join(repr(str(p)) for p in patterns)
        )
    paths.sort()
    out_root = Path(out_root)
    taken: Dict[str, int] = {}
    specs: List[JobSpec] = []
    for path in paths:
        if not path.exists():
            raise BatchError(f"deck {path} does not exist")
        job_id = _unique_job_id(path.stem, taken)
        specs.append(JobSpec(
            job_id=job_id,
            deck=str(path.resolve()),
            program=classify_deck_path(path),
            out_dir=str(out_root / job_id),
            strict=strict,
            timeout_s=timeout_s,
        ))
    return specs
