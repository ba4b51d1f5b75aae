"""Single source of truth for the package version and the code identity.

``pyproject.toml`` reads ``__version__`` through setuptools'
dynamic-version hook, :mod:`repro` re-exports it, and ``python -m repro
--version``, manifests and history rows report it.  Cache keys do not
use it: they fold in :func:`code_digest`, which moves with every byte
of the source, so no cached product outlives the code that made it.
"""

import functools

__version__ = "1.1.0"


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha-256 over the relative path and bytes of every ``*.py`` file
    in the imported :mod:`repro` package, in sorted path order.

    Computed once per process (a few milliseconds); a forked batch
    worker inherits the coordinator's value.
    """
    import hashlib
    from pathlib import Path

    root = Path(__file__).resolve().parent
    files = sorted((path.relative_to(root).as_posix(), path)
                   for path in root.rglob("*.py"))
    h = hashlib.sha256(b"repro.code/v1\n")
    for rel, path in files:
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()
