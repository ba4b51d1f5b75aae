"""Stage-granular content-addressed caching.

Cache keys are *chained*: each cacheable stage's key is

    sha256(upstream chain key | stage name | stage fingerprint)

with the chain rooted at ``sha256(pipeline name | code version)``.  The
fingerprint covers only the stage's direct parameters (its slice of the
deck, its options); everything it consumes from upstream is covered by
the upstream key already folded into the chain.  Editing one input
therefore invalidates exactly the first stage whose fingerprint sees it
-- and everything downstream -- while every stage before it keeps its
key and hits.  Bumping :data:`repro.__version__` orphans all entries at
once, the same rule the whole-deck artifact cache uses.

Entries are pickled stage-output dicts stored atomically (temp file +
rename).  A corrupt, truncated or unreadable entry is a **miss**, never
an error: the cache must never turn disk rot into a failed run.

:func:`stable_digest` is the canonical fingerprint helper: a recursive,
type-tagged serialisation of plain data, dataclasses and numpy arrays.
It refuses to guess on anything else, because a fingerprint that
silently collapses distinct values is a cache-poisoning bug.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro._version import __version__
from repro.errors import PipelineError

#: Stage-entry format version (bump to orphan old entries wholesale).
#: v2: a ContourSet holds per-level arrays, not segment objects.
#: v3: the OSPL labels stage also provides the boundary edge pairs.
STAGE_SCHEMA = "repro.stage-cache/v3"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

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
    h = hashlib.sha256(b"repro.fp/v1\n")
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def chain_root(pipeline_name: str,
               code_version: str = __version__) -> str:
    """The root of a pipeline's key chain (pipeline name + code version)."""
    return hashlib.sha256(
        f"repro.stage/v1|{pipeline_name}|{code_version}".encode()
    ).hexdigest()


def chain_key(upstream: str, stage_name: str, fingerprint: str) -> str:
    """The content address of one stage's outputs."""
    return hashlib.sha256(
        f"{upstream}|{stage_name}|{fingerprint}".encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class StageCache:
    """Content-addressed store of per-stage pipeline outputs.

    Layout: ``<root>/<key[:2]>/<key>.pkl``.  The batch engine roots one
    of these at ``<cache-dir>/stages/`` next to its whole-deck entries
    (see :meth:`repro.batch.cache.ArtifactCache.stage_cache`); the CLI's
    ``--cache-dir`` on single runs shares the same layout, so
    interactive re-shaping and batch re-runs reuse each other's stages.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored output dict for ``key``, or ``None`` on a miss.

        Corruption at any layer -- unreadable file, truncated pickle,
        wrong schema, missing values -- is a miss.
        """
        try:
            data = pickle.loads(self._path(key).read_bytes())
        except Exception:
            return None
        if (not isinstance(data, dict)
                or data.get("schema") != STAGE_SCHEMA
                or not isinstance(data.get("values"), dict)):
            return None
        return data["values"]

    def store(self, key: str, values: Dict[str, Any]) -> bool:
        """Store one stage's outputs; returns whether the store stuck.

        An unpicklable output (a stage provided a live handle) or a full
        disk degrades to "not cached" rather than failing the run.
        """
        path = self._path(key)
        try:
            payload = pickle.dumps({
                "schema": STAGE_SCHEMA,
                "key": key,
                "code_version": __version__,
                "values": values,
            }, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, staged = tempfile.mkstemp(prefix=f".{key[:12]}-",
                                          dir=path.parent)
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(staged, path)
        except OSError:
            return False
        return True

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def entry_count(self) -> int:
        """Number of stored entries (tests and ``batch status``)."""
        return sum(1 for _ in self.root.glob("*/*.pkl"))
