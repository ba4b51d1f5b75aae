"""Content-addressed artifact cache for batch runs.

A cache entry is keyed by a canonical fingerprint of everything that can
change a job's products:

* the deck's content fingerprint (:func:`repro.cards.card.deck_fingerprint`
  -- canonical card-tray bytes plus a program tag);
* the run options that alter behaviour (``strict``);
* the code version (:data:`repro.__version__`), so upgrading the
  package invalidates every cached product at once.

Layout under the cache root::

    <root>/<key[:2]>/<key>/entry.json    -- job result record + metadata
    <root>/<key[:2]>/<key>/artifacts/    -- the job's output files

Stores are atomic: the entry is staged into a temporary sibling
directory and renamed into place, so a killed batch never leaves a
half-written entry that a later run would trust.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro._version import __version__
from repro.errors import BatchError

if TYPE_CHECKING:
    from repro.pipeline.cache import StageCache

#: Cache entry format version (bump to orphan old entries wholesale).
ENTRY_SCHEMA = "repro.batch-cache/v1"

#: Lint-verdict sidecar format version (same bump rule).
LINT_SCHEMA = "repro.batch-lint/v1"


def cache_key(deck_fingerprint: str, program: str,
              options: Optional[Dict[str, Any]] = None,
              code_version: str = __version__) -> str:
    """The content address of one job's products (sha-256 hex)."""
    payload = json.dumps({
        "deck": deck_fingerprint,
        "program": program,
        "options": dict(sorted((options or {}).items())),
        "code_version": code_version,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def lint_key(deck_fingerprint: str, program: str, strict: bool,
             code_version: str = __version__,
             rules: Optional[str] = None) -> str:
    """The content address of one deck's lint verdict (sha-256 hex).

    Keyed like :func:`cache_key` -- deck content, program, the options
    that change diagnostics (``strict`` escalates the LIM rules), the
    code version, and the **rule-registry fingerprint** (a hash of
    every rule's code/severity/title/template).  The fingerprint is
    what invalidates stale verdicts in dev installs, where rules change
    without a version bump; ``rules=None`` resolves it from the live
    registry.
    """
    if rules is None:
        from repro.lint.registry import registry_fingerprint
        rules = registry_fingerprint()
    payload = json.dumps({
        "deck": deck_fingerprint,
        "program": program,
        "strict": strict,
        "code_version": code_version,
        "rules": rules,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheEntry:
    """A resolved cache hit: the stored result record and its artifacts."""

    key: str
    result: Dict[str, Any]
    artifacts_dir: Path

    def restore_into(self, dest: Union[str, Path]) -> List[str]:
        """Copy the cached artifacts into ``dest``; returns the names."""
        dest = Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        names: List[str] = []
        for src in sorted(self.artifacts_dir.iterdir()):
            shutil.copy2(src, dest / src.name)
            names.append(src.name)
        return names


class ArtifactCache:
    """Content-addressed store of batch job products."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or ``None`` on a miss.

        A directory whose ``entry.json`` is missing or unreadable counts
        as a miss (and is left for a future store to overwrite) -- the
        cache must never turn a corrupt entry into a failed batch.
        """
        entry_dir = self._entry_dir(key)
        entry_file = entry_dir / "entry.json"
        try:
            data = json.loads(entry_file.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (not isinstance(data, dict)
                or data.get("schema") != ENTRY_SCHEMA
                or "result" not in data):
            return None
        artifacts = entry_dir / "artifacts"
        if not artifacts.is_dir():
            return None
        return CacheEntry(key=key, result=data["result"],
                          artifacts_dir=artifacts)

    def store(self, key: str, result: Dict[str, Any],
              artifacts_dir: Union[str, Path]) -> CacheEntry:
        """Store a finished job's record and products under ``key``."""
        artifacts_dir = Path(artifacts_dir)
        entry_dir = self._entry_dir(key)
        entry_dir.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(
            prefix=f".{key[:12]}-", dir=entry_dir.parent
        ))
        try:
            staged_artifacts = stage / "artifacts"
            staged_artifacts.mkdir()
            for src in sorted(artifacts_dir.iterdir()):
                if src.is_file():
                    shutil.copy2(src, staged_artifacts / src.name)
            (stage / "entry.json").write_text(json.dumps({
                "schema": ENTRY_SCHEMA,
                "key": key,
                "stored_unix": time.time(),
                "code_version": __version__,
                "result": result,
            }, indent=2) + "\n")
            if entry_dir.exists():
                # Another run (or a prior partial batch) got here first;
                # replace its entry with this freshly staged one.
                shutil.rmtree(entry_dir)
            os.replace(stage, entry_dir)
        except OSError as exc:
            shutil.rmtree(stage, ignore_errors=True)
            raise BatchError(f"cannot store cache entry {key}: {exc}") from exc
        entry = self.lookup(key)
        if entry is None:
            raise BatchError(f"cache entry {key} unreadable after store")
        return entry

    # ------------------------------------------------------------------
    # Lint-verdict sidecar
    # ------------------------------------------------------------------
    def _lint_file(self, key: str) -> Path:
        return self.root / "lint" / key[:2] / f"{key}.json"

    def lookup_lint(self, key: str) -> Optional[Dict[str, Any]]:
        """A stored lint verdict, or ``None``; corruption is a miss."""
        try:
            data = json.loads(self._lint_file(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (not isinstance(data, dict)
                or data.get("schema") != LINT_SCHEMA
                or not isinstance(data.get("verdict"), dict)):
            return None
        return data["verdict"]

    def store_lint(self, key: str, verdict: Dict[str, Any]) -> None:
        """Store one deck's lint verdict (atomic, like :meth:`store`)."""
        path = self._lint_file(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({
            "schema": LINT_SCHEMA,
            "key": key,
            "stored_unix": time.time(),
            "code_version": __version__,
            "verdict": verdict,
        }, indent=2) + "\n"
        try:
            fd, stage = tempfile.mkstemp(prefix=f".{key[:12]}-",
                                         dir=path.parent)
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(stage, path)
        except OSError as exc:
            raise BatchError(
                f"cannot store lint verdict {key}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Per-stage sidecar
    # ------------------------------------------------------------------
    @property
    def stage_root(self) -> Path:
        """Where the per-stage entries live (``<root>/stages/``)."""
        return self.root / "stages"

    def stage_cache(self) -> "StageCache":
        """The stage-granular cache sharing this root (lazy import).

        Whole-deck entries answer "has this exact deck run before";
        the stage cache underneath answers "which prefix of the
        pipeline is unchanged" when the deck *has* been edited (see
        docs/PIPELINE.md).
        """
        from repro.pipeline.cache import StageCache

        return StageCache(self.stage_root)

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def entry_count(self) -> int:
        """Number of readable entries (used by ``batch status`` and tests)."""
        count = 0
        for shard in self.root.iterdir():
            if (shard.is_dir() and not shard.name.startswith(".")
                    and shard.name not in ("lint", "stages")):
                for entry in shard.iterdir():
                    if (entry / "entry.json").is_file():
                        count += 1
        return count
