"""Shared fixtures: small canonical meshes and pre-built structures.

Also the hypothesis profiles.  Tier 1 loads ``tier1``: derandomized
draws and no example database, so every run gives the same verdict.
``pytest --hypothesis-profile explore`` draws fresh examples instead;
a failure found there gets pinned with ``@example``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.fem.mesh import Mesh

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None,
                          print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def unit_square_mesh() -> Mesh:
    """Two CCW triangles tiling the unit square."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(nodes=nodes, elements=elements)


@pytest.fixture
def strip_mesh() -> Mesh:
    """A 4 x 1 strip of squares, each split into two triangles."""
    nodes = []
    for j in range(2):
        for i in range(5):
            nodes.append([float(i), float(j)])
    elements = []
    for i in range(4):
        a, b = i, i + 1
        c, d = i + 6, i + 5
        elements.append([a, b, c])
        elements.append([a, c, d])
    return Mesh(nodes=np.array(nodes), elements=np.array(elements))


@pytest.fixture(scope="session")
def built_structures():
    """Every library structure, idealized once per test session."""
    from repro.structures import STRUCTURES

    return {name: builder().build()
            for name, builder in STRUCTURES.items()}


@pytest.fixture
def source_copy(tmp_path, monkeypatch):
    """A copy of the ``repro`` package that :func:`code_digest` hashes.

    Edit files under the returned directory, then call
    ``code_digest.cache_clear()`` to see the edit in the digest; the
    real package's digest is restored afterwards.
    """
    from repro import _version

    pkg = tmp_path / "source_copy" / "repro"
    shutil.copytree(Path(_version.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(_version, "__file__", str(pkg / "_version.py"))
    _version.code_digest.cache_clear()
    yield pkg
    monkeypatch.undo()
    _version.code_digest.cache_clear()
