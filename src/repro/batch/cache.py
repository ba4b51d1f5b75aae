"""Content-addressed artifact cache for batch runs.

A cache entry is keyed by a canonical fingerprint of everything that can
change a job's products:

* the deck's content fingerprint (:func:`repro.cards.card.deck_fingerprint`
  -- canonical card-tray bytes plus a program tag);
* the run options that alter behaviour (``strict``);
* the code digest (:func:`repro._version.code_digest`), so any byte
  change to repro's source orphans every cached product at once.
  Orphaned entries stay on disk until a prune exists.

Layout under the cache root::

    <root>/<key[:2]>/<key>/entry.json    -- result record + artifact digests
    <root>/<key[:2]>/<key>/artifacts/    -- the job's output files
    <root>/lint/<key[:2]>/<key>.json     -- lint verdicts
    <root>/stages/                       -- the per-stage StageCache

Entry files go through :func:`repro.pipeline.cache.read_entry` and
``write_entry`` (corruption or a foreign key is a miss; a failed store
returns ``False``).  An artifact entry is staged in a dot-prefixed
sibling directory and renamed into place, so a killed batch never
leaves a half-written entry, and a lookup re-hashes the artifacts
against the digests stored with it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro._version import code_digest
from repro.pipeline.cache import entry_bytes, read_entry, write_entry

log = logging.getLogger("repro.cache")


def _dumps(entry: Dict[str, Any]) -> bytes:
    return (json.dumps(entry, indent=2) + "\n").encode()


def cache_key(deck_fingerprint: str, program: str,
              options: Optional[Dict[str, Any]] = None) -> str:
    """The content address of one job's products (sha-256 hex)."""
    payload = json.dumps({
        "deck": deck_fingerprint,
        "program": program,
        "options": dict(sorted((options or {}).items())),
        "code": code_digest(),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def lint_key(deck_fingerprint: str, program: str, strict: bool) -> str:
    """The content address of one deck's lint verdict (sha-256 hex).

    Keyed like :func:`cache_key` -- deck content, program, the option
    that changes diagnostics (``strict`` escalates the LIM rules) and
    the code digest, which covers the rule registry, the checkers and
    the parsers they drive.
    """
    payload = json.dumps({
        "deck": deck_fingerprint,
        "program": program,
        "strict": strict,
        "code": code_digest(),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _digests(directory: Path) -> Dict[str, str]:
    """``{file name: sha-256}`` of every file in ``directory``."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.iterdir()}


@dataclass
class CacheEntry:
    """A resolved cache hit: the stored result record and its artifacts."""

    key: str
    result: Dict[str, Any]
    artifacts_dir: Path

    def restore_into(self, dest: Union[str, Path]) -> Optional[List[str]]:
        """Copy the cached artifacts into ``dest``; returns the names, or
        ``None`` when they vanished after the lookup -- another process
        re-storing the key removes the old entry before renaming its own
        in -- which the caller treats as a miss."""
        dest = Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        names: List[str] = []
        try:
            for src in sorted(self.artifacts_dir.iterdir()):
                shutil.copy2(src, dest / src.name)
                names.append(src.name)
        except FileNotFoundError:
            return None
        return names


class ArtifactCache:
    """Content-addressed store of batch job products."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or ``None`` on a miss: an unreadable
        ``entry.json`` or artifacts that no longer hash to its digests
        (left for a future store to overwrite)."""
        entry_dir = self._entry_dir(key)
        data = read_entry(entry_dir / "entry.json", key, json.loads)
        if data is None or not isinstance(data.get("result"), dict):
            return None
        artifacts = entry_dir / "artifacts"
        try:
            if _digests(artifacts) != data.get("artifacts"):
                return None
        except OSError:
            return None
        return CacheEntry(key=key, result=data["result"],
                          artifacts_dir=artifacts)

    def store(self, key: str, result: Dict[str, Any],
              artifacts_dir: Union[str, Path]) -> bool:
        """Store a finished job's record and products under ``key``;
        returns whether the entry stuck and reads back."""
        artifacts_dir = Path(artifacts_dir)
        entry_dir = self._entry_dir(key)
        stage: Optional[Path] = None
        try:
            entry_dir.parent.mkdir(parents=True, exist_ok=True)
            stage = Path(tempfile.mkdtemp(prefix=".", dir=entry_dir.parent))
            staged_artifacts = stage / "artifacts"
            staged_artifacts.mkdir()
            for src in sorted(artifacts_dir.iterdir()):
                if src.is_file():
                    shutil.copy2(src, staged_artifacts / src.name)
            (stage / "entry.json").write_bytes(entry_bytes({
                "key": key,
                "result": result,
                "artifacts": _digests(staged_artifacts),
            }, _dumps))
            if entry_dir.exists():
                # Another run (or a prior partial batch) got here first;
                # replace its entry with this freshly staged one.
                shutil.rmtree(entry_dir)
            os.replace(stage, entry_dir)
        except OSError as exc:
            log.warning("cannot store cache entry %s: %s", key, exc)
            if stage is not None:
                shutil.rmtree(stage, ignore_errors=True)
            return False
        if self.lookup(key) is None:
            log.warning("cache entry %s unreadable after store", key)
            return False
        return True

    # ------------------------------------------------------------------
    # Lint-verdict sidecar
    # ------------------------------------------------------------------
    def _lint_file(self, key: str) -> Path:
        return self.root / "lint" / key[:2] / f"{key}.json"

    def lookup_lint(self, key: str) -> Optional[Dict[str, Any]]:
        """A stored lint verdict, or ``None``; corruption is a miss."""
        entry = read_entry(self._lint_file(key), key, json.loads)
        if entry is None or not isinstance(entry.get("verdict"), dict):
            return None
        return entry["verdict"]

    def store_lint(self, key: str, verdict: Dict[str, Any]) -> bool:
        """Store one deck's lint verdict; returns whether it stuck."""
        return write_entry(self._lint_file(key),
                           {"key": key, "verdict": verdict}, _dumps)

    # ------------------------------------------------------------------
    # Per-stage sidecar
    # ------------------------------------------------------------------
    @property
    def stage_root(self) -> Path:
        """Where the per-stage entries live (``<root>/stages/``), for
        batch workers and the CLI's ``--cache-dir`` alike."""
        return self.root / "stages"

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def entry_count(self) -> int:
        """Number of stored entries, not counting the dot-prefixed
        staging directories of unfinished stores."""
        return sum(1 for entry in self.root.glob("??/*/entry.json")
                   if not entry.parent.name.startswith("."))
