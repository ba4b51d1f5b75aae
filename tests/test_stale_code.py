"""Caches keyed on the code itself: a source edit orphans every entry.

Every cache key (stage chain roots, artifact entries, lint verdicts)
folds in :func:`repro._version.code_digest`, a hash of the package's
source.  The proof runs the CLI from a copy of the package in a
subprocess, warms a ``--cache-dir``, edits one stage body in the copy
-- with no version bump -- and runs again: every cacheable stage must
miss, the products must be byte-identical to a cache-free run of the
edited copy, and a second run of the edited copy must hit everything.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict

from repro import _version
from repro._version import code_digest

ROOT = Path(__file__).resolve().parent.parent
DECKS = ROOT / "examples" / "decks"

#: One stage body edit: the reform stage stops swapping diagonals.
REFORM = "reform_elements(mesh)"


def _copy_package(tmp_path: Path) -> Path:
    pkg = tmp_path / "pkg"
    shutil.copytree(Path(_version.__file__).parent, pkg / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return pkg


def _edit_reform(pkg: Path) -> None:
    path = pkg / "repro" / "pipeline" / "idlz.py"
    text = path.read_text()
    assert text.count(REFORM) == 1
    path.write_text(text.replace(REFORM, "0"))


def _repro(pkg: Path, cwd: Path, *argv: str) -> None:
    """``python -m repro ARGV`` importing the package copy under ``pkg``."""
    env = dict(os.environ, PYTHONPATH=str(pkg))
    proc = subprocess.run([sys.executable, "-m", "repro", *argv, "-q"],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def _tree(root: Path) -> Dict[str, bytes]:
    """``{relative path: bytes}`` of every product under ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "batch_manifest.json"}


def _stage_cache_states(report: Path) -> Dict[str, str]:
    """``{stage span: "hit"|"miss"}`` for every cacheable stage run."""
    states: Dict[str, str] = {}

    def walk(span: dict) -> None:
        cache = span.get("attrs", {}).get("cache")
        if cache is not None:
            states[span["name"]] = cache
        for child in span.get("children", []):
            walk(child)

    for span in json.loads(report.read_text())["spans"]:
        walk(span)
    return states


class TestCodeDigest:
    def test_stable_and_source_sensitive(self, source_copy):
        real = Path(sys.modules["repro"].__file__).parent
        first = code_digest()
        assert len(first) == 64
        int(first, 16)
        assert code_digest() is first            # once per process
        code_digest.cache_clear()
        assert code_digest() == first            # same bytes, same digest
        assert source_copy != real
        stage = source_copy / "pipeline" / "idlz.py"
        stage.write_text(stage.read_text() + "\n")
        code_digest.cache_clear()
        edited = code_digest()
        assert edited != first
        (source_copy / "pipeline" / "new_module.py").write_text("")
        code_digest.cache_clear()
        assert code_digest() not in (first, edited)

    def test_batch_coordinator_hashes_before_forking(self, tmp_path):
        """Workers inherit the coordinator's digest instead of rehashing."""
        code = f"""
import contextlib, io, json
import repro.batch.runner as runner
from repro._version import code_digest

seen = []

class Pool(runner.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        seen.append(code_digest.cache_info().currsize)
        super().__init__(*args, **kwargs)

runner.ProcessPoolExecutor = Pool
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["batch", "run", {str(DECKS / 'plate.deck')!r},
               {str(DECKS / 'field.deck')!r}, "-o", {str(tmp_path / 'o')!r},
               "--cache-dir", {str(tmp_path / 'c')!r}, "--jobs", "2",
               "--no-plan"])
print(json.dumps({{"rc": rc, "prefork": seen,
                  "misses": code_digest.cache_info().misses}}))
"""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {"rc": 0, "prefork": [1], "misses": 1}


class TestStaleCode:
    def test_stage_body_edit_misses_every_stage(self, tmp_path):
        pkg = _copy_package(tmp_path)
        deck = str(DECKS / "plate.deck")
        _repro(pkg, tmp_path, "idlz", deck, "-o", "warm",
               "--cache-dir", "cache")
        _edit_reform(pkg)
        _repro(pkg, tmp_path, "idlz", deck, "-o", "edited",
               "--cache-dir", "cache", "--report", "edited.json")
        _repro(pkg, tmp_path, "idlz", deck, "-o", "fresh")
        _repro(pkg, tmp_path, "idlz", deck, "-o", "again",
               "--cache-dir", "cache", "--report", "again.json")

        edited = _stage_cache_states(tmp_path / "edited.json")
        assert len(edited) == 6
        assert set(edited.values()) == {"miss"}, edited
        fresh = _tree(tmp_path / "fresh")
        assert _tree(tmp_path / "edited") == fresh
        # The edit changes the products, so a stale hit would show.
        warm = _tree(tmp_path / "warm")
        assert warm.keys() == fresh.keys() and warm != fresh
        again = _stage_cache_states(tmp_path / "again.json")
        assert again.keys() == edited.keys()
        assert set(again.values()) == {"hit"}, again
        assert _tree(tmp_path / "again") == fresh

    def test_batch_lint_artifact_and_verdict_miss(self, tmp_path):
        pkg = _copy_package(tmp_path)
        decks = [str(DECKS / "plate.deck"), str(DECKS / "field.deck")]

        def batch(out: str, *extra: str) -> dict:
            _repro(pkg, tmp_path, "batch", "run", *decks, "-o", out,
                   "--lint", "--report", f"{out}.json", *extra)
            manifest = json.loads((tmp_path / out /
                                   "batch_manifest.json").read_text())
            counters = json.loads((tmp_path / f"{out}.json").read_text()
                                  )["metrics"]["counters"]
            return {"summary": manifest["summary"],
                    "cache": [job["cache"] for job in manifest["jobs"]],
                    "stages": {s["cache"] for job in manifest["jobs"]
                               for s in job["stages"]
                               if s["cache"] != "off"},
                    "lint_hits": counters.get("batch.lint_cache_hits", 0)}

        batch("warm", "--cache-dir", "cache")
        _edit_reform(pkg)
        edited = batch("edited", "--cache-dir", "cache")
        assert edited["summary"]["cache_hits"] == 0
        assert edited["cache"] == ["miss", "miss"]
        assert edited["stages"] == {"miss"}
        assert edited["lint_hits"] == 0
        batch("fresh")
        fresh = _tree(tmp_path / "fresh")
        assert _tree(tmp_path / "edited") == fresh
        assert _tree(tmp_path / "warm") != fresh
        again = batch("again", "--cache-dir", "cache")
        assert again["summary"]["cache_hits"] == 2
        assert again["cache"] == ["hit", "hit"]
        assert again["lint_hits"] == 2
        assert _tree(tmp_path / "again") == fresh

