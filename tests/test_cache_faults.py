"""Fault injection against every cache store: stage, artifact, lint verdict.

Each case damages or races one store the way a real fault would -- a
truncated or bit-flipped file, an entry copied under another key's
path, a full disk, a staging leftover of a killed store, two writers on
one key, a reader racing a re-store -- and checks that the store
answers with a miss (or a stored entry that is exactly what was
written), never a wrong payload, and that a failed store never fails
the batch job that produced the values.
"""

from __future__ import annotations

import errno
import os
import shutil
import sys
import threading
from pathlib import Path
from typing import Any, List, Optional

import numpy as np
import pytest

from repro.batch import BatchOptions, discover_jobs, run_batch
from repro.batch.cache import ArtifactCache
from repro.pipeline.cache import StageCache

ROOT = Path(__file__).resolve().parent.parent
KEY = "ab" + "0" * 62
OTHER = "ab" + "1" * 62


class StageStore:
    """A :class:`StageCache` holding pipeline-like outputs."""

    name = "stage"

    def __init__(self, tmp_path: Path):
        self.cache = StageCache(tmp_path / "cache" / "stages")

    def payload(self, tag: int) -> Any:
        return {"nodes": np.arange(40.0).reshape(20, 2) * 0.25 + tag,
                "count": 20 + tag, "title": f"PLATE {tag}"}

    def store(self, key: str, tag: int = 0) -> bool:
        return self.cache.store(key, self.payload(tag))

    def lookup(self, key: str) -> Optional[tuple]:
        found = self.cache.lookup(key)
        if found is None:
            return None
        return (found["nodes"].tolist(), found["count"], found["title"])

    def expected(self, tag: int = 0) -> tuple:
        values = self.payload(tag)
        return (values["nodes"].tolist(), values["count"], values["title"])

    def location(self, key: str) -> Path:
        return self.cache._path(key)

    def count(self) -> Optional[int]:
        return self.cache.entry_count()


class ArtifactStore:
    """An :class:`ArtifactCache` entry: a result record plus two files."""

    name = "artifact"

    def __init__(self, tmp_path: Path):
        self.cache = ArtifactCache(tmp_path / "cache")
        self.jobs = tmp_path / "jobs"

    def _products(self, tag: int) -> Path:
        out = self.jobs / str(tag)
        out.mkdir(parents=True, exist_ok=True)
        (out / "listing.txt").write_text(f"NUMBER OF NODES {60 + tag}\n")
        (out / "plot.svg").write_text(f"<svg><path d='M0 {tag}'/></svg>\n")
        return out

    def store(self, key: str, tag: int = 0) -> bool:
        return self.cache.store(key, {"status": "ok", "n": tag},
                                self._products(tag))

    def lookup(self, key: str) -> Optional[tuple]:
        entry = self.cache.lookup(key)
        if entry is None:
            return None
        files = {p.name: p.read_bytes()
                 for p in sorted(entry.artifacts_dir.iterdir())}
        return (entry.result, files)

    def expected(self, tag: int = 0) -> tuple:
        out = self._products(tag)
        return ({"status": "ok", "n": tag},
                {p.name: p.read_bytes() for p in sorted(out.iterdir())})

    def location(self, key: str) -> Path:
        return self.cache._entry_dir(key)

    def count(self) -> Optional[int]:
        return self.cache.entry_count()


class LintStore:
    """The lint-verdict sidecar of an :class:`ArtifactCache`."""

    name = "lint"

    def __init__(self, tmp_path: Path):
        self.cache = ArtifactCache(tmp_path / "cache")

    def payload(self, tag: int) -> dict:
        return {"ok": tag == 0, "counts": {"error": tag},
                "diagnostics": [{"code": "IDZ101", "card": 4 + tag}]}

    def store(self, key: str, tag: int = 0) -> bool:
        return self.cache.store_lint(key, self.payload(tag))

    def lookup(self, key: str) -> Optional[dict]:
        return self.cache.lookup_lint(key)

    def expected(self, tag: int = 0) -> dict:
        return self.payload(tag)

    def location(self, key: str) -> Path:
        return self.cache._lint_file(key)

    def count(self) -> Optional[int]:
        return None


@pytest.fixture(params=[StageStore, ArtifactStore, LintStore],
                ids=lambda cls: cls.name)
def store(request, tmp_path):
    return request.param(tmp_path)


def _entry_files(store) -> List[Path]:
    where = store.location(KEY)
    if where.is_dir():
        return sorted(p for p in where.rglob("*") if p.is_file())
    return [where]


def _full_disk(*args: Any, **kwargs: Any) -> Any:
    raise OSError(errno.ENOSPC, "No space left on device")


class _FullFile:
    """A file handle on a full disk: opening works, writing does not."""

    def __init__(self, handle: Any):
        self.handle = handle

    def __enter__(self) -> "_FullFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.handle.close()

    write = staticmethod(_full_disk)


def _fill_disk(monkeypatch: pytest.MonkeyPatch, fault: str) -> None:
    """ENOSPC on every entry rename (``replace``) or every entry write."""
    if fault == "replace":
        monkeypatch.setattr(os, "replace", _full_disk)
        return
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen",
                        lambda *a, **k: _FullFile(fdopen(*a, **k)))
    monkeypatch.setattr(shutil, "copy2", _full_disk)


def _staging_leftovers(root: Path) -> List[Path]:
    return list(root.rglob(".*"))


class TestDamagedEntries:
    def test_truncated_entry_is_a_miss(self, store):
        assert store.store(KEY)
        assert store.lookup(KEY) == store.expected()
        for path in _entry_files(store):
            data = path.read_bytes()
            for size in (0, 1, len(data) // 2, len(data) - 1):
                path.write_bytes(data[:size])
                assert store.lookup(KEY) is None, (path.name, size)
            path.write_bytes(data)
            assert store.lookup(KEY) == store.expected()

    def test_bit_flipped_entry_is_a_miss(self, store):
        """Every byte of every entry file, one flipped bit at a time."""
        assert store.store(KEY)
        for path in _entry_files(store):
            data = path.read_bytes()
            for i in range(len(data)):
                flipped = bytearray(data)
                flipped[i] ^= 1 << (i % 8)
                path.write_bytes(bytes(flipped))
                assert store.lookup(KEY) is None, (path.name, i)
            path.write_bytes(data)
        assert store.lookup(KEY) == store.expected()

    def test_entry_under_another_keys_path_is_a_miss(self, store):
        assert store.store(OTHER, tag=1)
        src, dst = store.location(OTHER), store.location(KEY)
        dst.parent.mkdir(parents=True, exist_ok=True)
        if src.is_dir():
            shutil.copytree(src, dst)
        else:
            shutil.copy2(src, dst)
        assert store.lookup(KEY) is None
        assert store.lookup(OTHER) == store.expected(1)
        assert store.store(KEY)
        assert store.lookup(KEY) == store.expected()


class TestFailedStores:
    @pytest.mark.parametrize("fault", ["replace", "write"])
    def test_full_disk_is_not_cached_and_leaves_nothing(
            self, store, monkeypatch, fault):
        with monkeypatch.context() as disk:
            _fill_disk(disk, fault)
            assert store.store(KEY) is False
        assert store.lookup(KEY) is None
        assert _staging_leftovers(store.cache.root) == []
        assert store.store(KEY)
        assert store.lookup(KEY) == store.expected()

    def test_killed_store_leftover_is_ignored(self, store):
        """A store killed before its rename leaves a dot-prefixed file or
        directory beside the entry; nothing reads or counts it."""
        assert store.store(KEY)
        where = store.location(KEY)
        where.rename(where.with_name(f".{KEY[:12]}-killed"))
        assert store.lookup(KEY) is None
        assert store.count() in (None, 0)
        assert store.store(KEY)
        assert store.lookup(KEY) == store.expected()
        assert store.count() in (None, 1)

    def test_two_threads_storing_one_key(self, store):
        """Racing writers leave one whole entry (or none), never a mix."""
        results: List[Any] = []

        def write(barrier: threading.Barrier, tag: int) -> None:
            barrier.wait(timeout=30)
            results.append(store.store(KEY, tag=tag))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                barrier = threading.Barrier(2)
                threads = [threading.Thread(target=write,
                                            args=(barrier, tag))
                           for tag in (1, 2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert store.lookup(KEY) in (None, store.expected(1),
                                             store.expected(2))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 20
        assert all(isinstance(result, bool) for result in results)
        assert store.store(KEY)
        assert store.lookup(KEY) == store.expected()


def _batch(tmp_path: Path, out: str):
    specs = discover_jobs([str(ROOT / "examples" / "decks" / "plate.deck"),
                           str(ROOT / "examples" / "decks" / "field.deck")],
                          tmp_path / out)
    return run_batch(specs, BatchOptions(cache_dir=tmp_path / "cache",
                                         lint=True),
                     out_root=tmp_path / out)


@pytest.mark.parametrize("fault", ["replace", "write"])
def test_full_disk_never_fails_a_job(tmp_path, monkeypatch, fault):
    """Every store of a batch fails; every job still succeeds."""
    with monkeypatch.context() as disk:
        _fill_disk(disk, fault)
        failed_stores = _batch(tmp_path, "full")
    assert failed_stores.ok
    assert [job["status"] for job in failed_stores.jobs] == ["ok", "ok"]
    cache = ArtifactCache(tmp_path / "cache")
    assert cache.entry_count() == 0
    assert StageCache(cache.stage_root).entry_count() == 0
    rerun = _batch(tmp_path, "rerun")
    assert [job["cache"] for job in rerun.jobs] == ["miss", "miss"]
    assert _batch(tmp_path, "warm").summary["cache_hits"] == 2


class TestRestoreRace:
    """A hit whose artifacts vanish before the restore is a miss.

    Re-storing a key removes the old entry directory and renames the new
    one in, so a reader holding a lookup from just before can find its
    artifacts gone.
    """

    def test_vanished_artifacts_restore_as_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.store(KEY)
        entry = store.cache.lookup(KEY)
        shutil.rmtree(store.location(KEY))
        assert entry.restore_into(tmp_path / "dest") is None

    def test_reader_against_rewriter(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.store(KEY)
        names = sorted(store.expected()[1])
        stop = threading.Event()
        errors: List[BaseException] = []

        def rewrite() -> None:
            try:
                while not stop.is_set():
                    store.store(KEY, tag=1)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=rewrite)
        writer.start()
        restored = []
        try:
            for i in range(200):
                entry = store.cache.lookup(KEY)
                if entry is not None:
                    restored.append(entry.restore_into(tmp_path / f"d{i}"))
        finally:
            stop.set()
            writer.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not writer.is_alive() and errors == []
        assert restored
        assert all(got in (None, names) for got in restored)

    def test_batch_runs_a_job_whose_hit_vanishes(self, tmp_path,
                                                 monkeypatch):
        assert _batch(tmp_path, "cold").ok
        lookup = ArtifactCache.lookup
        raced: set = set()

        def vanishing(cache: ArtifactCache, key: str):
            """The cache pass's lookup of each key loses the race; the
            job's own store (which reads its entry back) does not."""
            entry = lookup(cache, key)
            if entry is not None and key not in raced:
                raced.add(key)
                shutil.rmtree(entry.artifacts_dir.parent)
            return entry

        with monkeypatch.context() as race:
            race.setattr(ArtifactCache, "lookup", vanishing)
            rerun = _batch(tmp_path, "raced")
        assert len(raced) == 2 and rerun.ok
        assert [(job["status"], job["cache"]) for job in rerun.jobs] == \
            [("ok", "miss"), ("ok", "miss")]
        assert _batch(tmp_path, "warm").summary["cache_hits"] == 2
