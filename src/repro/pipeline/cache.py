"""Stage-granular content-addressed caching.

Cache keys are *chained*: each cacheable stage's key is

    sha256(upstream chain key | stage name | stage fingerprint)

with the chain rooted at ``sha256(pipeline name | code digest)``.  The
fingerprint covers only the stage's direct parameters (its slice of the
deck, its options); everything it consumes from upstream is covered by
the upstream key already folded into the chain.  Editing one input
therefore invalidates exactly the first stage whose fingerprint sees it
-- and everything downstream -- while every stage before it keeps its
key and hits.  The root's code digest
(:func:`repro._version.code_digest`) hashes every source file of the
package, so any byte change to repro's source orphans every entry at
once -- the rule the artifact cache and the lint verdicts share.  The
price is one digest per process; orphaned entries stay until a prune
exists.

Every entry file of every cache goes through :func:`write_entry` (atomic
temp file + rename) and :func:`read_entry`: a sha-256 line over the
body, then the body with the ``key`` it was stored under.  A damaged or
foreign entry is a **miss**, never an error or a wrong result.

:func:`stable_digest` is the canonical fingerprint helper: a recursive,
type-tagged serialisation of plain data, dataclasses and numpy arrays.
It refuses to guess on anything else, because a fingerprint that
silently collapses distinct values is a cache-poisoning bug.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro._version import code_digest
from repro.errors import PipelineError

log = logging.getLogger("repro.cache")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def _sha256(data: bytes = b"") -> "hashlib._Hash":
    """A sha-256 hasher.  ``hashlib`` maps OpenSSL when imported, so it
    loads with the first key or entry a run builds, not with this
    module: runs without a cache never pay for it."""
    import hashlib

    return hashlib.sha256(data)


def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one value into the hash with an unambiguous type tag."""
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):
        h.update(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        h.update(f"i{obj};".encode())
    elif isinstance(obj, float):
        h.update(f"f{obj.hex()};".encode())
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(f"s{len(data)}:".encode() + data + b";")
    elif isinstance(obj, bytes):
        h.update(f"y{len(obj)}:".encode() + obj + b";")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape}:".encode())
        h.update(arr.tobytes())
        h.update(b";")
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"];")
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}{{".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"};")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        h.update(f"D{cls.__module__}.{cls.__qualname__}{{".encode())
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
        h.update(b"};")
    elif isinstance(obj, (np.integer, np.floating)):
        _feed(h, obj.item())
    else:
        raise PipelineError(
            f"cannot fingerprint a {type(obj).__name__}; pass plain data, "
            f"dataclasses or numpy arrays to stable_digest"
        )


def stable_digest(*parts: Any) -> str:
    """A stable sha-256 hex digest of the given values.

    Accepts the JSON-ish universe plus dataclasses and numpy arrays;
    anything else raises :class:`~repro.errors.PipelineError` rather
    than fingerprinting by object identity.
    """
    h = _sha256(b"repro.fp/v1\n")
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def chain_root(pipeline_name: str) -> str:
    """The root of a pipeline's key chain (pipeline name + code digest)."""
    return _sha256(
        f"repro.stage/v1|{pipeline_name}|{code_digest()}".encode()
    ).hexdigest()


def chain_key(upstream: str, stage_name: str, fingerprint: str) -> str:
    """The content address of one stage's outputs."""
    return _sha256(
        f"{upstream}|{stage_name}|{fingerprint}".encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Entry files (shared by every cache)
# ----------------------------------------------------------------------

def read_entry(path: Path, key: str,
               loads: Callable[[bytes], Any]) -> Optional[Dict[str, Any]]:
    """The entry dict stored at ``path`` under ``key``, or ``None`` when
    the file is missing, fails its sha-256 line (truncation, bit rot),
    does not parse, or was stored under another key."""
    try:
        head, _, body = path.read_bytes().partition(b"\n")
        if head != _sha256(body).hexdigest().encode():
            return None
        entry = loads(body)
    except Exception:
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    return entry


def entry_bytes(entry: Dict[str, Any],
                dumps: Callable[[Any], bytes]) -> bytes:
    """The on-disk form :func:`read_entry` checks: digest line + body."""
    body = dumps(entry)
    return _sha256(body).hexdigest().encode() + b"\n" + body


def write_entry(path: Path, entry: Dict[str, Any],
                dumps: Callable[[Any], bytes]) -> bool:
    """Store ``entry`` at ``path`` via a dot-prefixed temp file renamed
    over it; returns whether it stuck.  A payload ``dumps`` refuses (a
    live handle) or a full disk means "not cached", never a failed run.
    """
    try:
        data = entry_bytes(entry, dumps)
    except Exception:
        return False
    staged: Optional[str] = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, staged = tempfile.mkstemp(prefix=".", dir=path.parent)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(staged, path)
    except OSError as exc:
        log.warning("cannot store cache entry %s: %s", path, exc)
        if staged is not None:
            with contextlib.suppress(OSError):
                os.unlink(staged)
        return False
    return True


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class StageCache:
    """Content-addressed store of per-stage pipeline outputs.

    Layout: ``<root>/<key[:2]>/<key>.pkl``.  The batch engine and the
    CLI's ``--cache-dir`` both root one of these at
    :attr:`repro.batch.cache.ArtifactCache.stage_root`, so interactive
    re-shaping and batch re-runs reuse each other's stages.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored output dict for ``key``, or ``None`` on a miss
        (see :func:`read_entry`)."""
        entry = read_entry(self._path(key), key, pickle.loads)
        if entry is None or not isinstance(entry.get("values"), dict):
            return None
        return entry["values"]

    def store(self, key: str, values: Dict[str, Any]) -> bool:
        """Store one stage's outputs; returns whether the store stuck."""
        return write_entry(
            self._path(key), {"key": key, "values": values},
            lambda entry: pickle.dumps(entry,
                                       protocol=pickle.HIGHEST_PROTOCOL))

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def entry_count(self) -> int:
        """Number of stored entries (tests and ``batch status``)."""
        return sum(1 for _ in self.root.glob("*/*.pkl"))
