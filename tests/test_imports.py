"""The import contract: a program imports only the modules it runs.

Package ``__init__``s re-export lazily (:mod:`repro._lazy`) and the FEM
modules import scipy only inside the MODAL, THERMAL and sparse solves,
so the ``idlz``, ``ospl``, ``lint`` and ``plan`` programs and a static
banded ``analyze run`` never load scipy, those deck programs load
neither ``hashlib`` nor ``numpy.ma`` without a cache, every module
imports cleanly as the first ``repro`` import, and every re-exported
name still resolves to its defining module's object.  Each check that depends on a fresh
interpreter runs in a subprocess.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.batch.jobs import classify_deck_path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DECKS = ROOT / "examples" / "decks"

#: Every package whose ``__init__`` re-exports through ``lazy_exports``.
LAZY_PACKAGES = (
    "repro", "repro.core", "repro.core.idlz", "repro.core.ospl",
    "repro.fem", "repro.batch", "repro.analyze",
)


def _run_python(code: str) -> Dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _export_table(package: str) -> Dict[str, List[str]]:
    """The ``{module: names}`` table a package hands to ``lazy_exports``."""
    init = SRC.joinpath(*package.split(".")) / "__init__.py"
    for node in ast.walk(ast.parse(init.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} does not call lazy_exports")


def test_every_module_imports_first():
    """No module depends on another having been imported before it."""
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__main__.py")
    result = _run_python(f"""
        import importlib, json, sys
        failed = {{}}
        for name in {modules!r}:
            for loaded in [m for m in sys.modules
                           if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception as exc:
                failed[name] = repr(exc)
        print(json.dumps(failed))
    """)
    assert len(modules) > 100
    assert result == {}


_CLI_RUN = """
    import contextlib, io, json, sys
    from repro.cli import main
    codes = []
    for argv in {argvs!r}:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
    print(json.dumps({{"codes": codes,
                      "scipy": "scipy" in sys.modules}}))
"""


def test_deck_programs_never_load_scipy(tmp_path):
    argvs = [
        ["idlz", str(DECKS / "plate.deck"), "-o", str(tmp_path / "idlz")],
        ["ospl", str(DECKS / "field.deck"), "-o", str(tmp_path / "f.svg")],
        ["lint", str(DECKS), "-R"],
        ["plan", "run", str(DECKS), "-R"],
    ]
    result = _run_python(_CLI_RUN.format(argvs=argvs))
    assert result == {"codes": [0, 0, 0, 0], "scipy": False}


def test_uncached_deck_programs_skip_hashing_and_masked_arrays(tmp_path):
    """Only cache keys hash (``_hashlib`` maps OpenSSL), and nothing on
    these paths needs ``numpy.ma``: runs without ``--cache-dir`` load
    neither."""
    argvs = [["lint", str(DECKS), "-R"], ["plan", "run", str(DECKS), "-R"]]
    for deck in sorted(DECKS.rglob("*.deck")):
        program = classify_deck_path(deck)
        out = tmp_path / f"{deck.stem}.svg" if program == "ospl" \
            else tmp_path / deck.stem
        if program in ("idlz", "ospl"):
            argvs.append([program, str(deck), "-o", str(out)])
    result = _run_python(f"""
        import contextlib, io, json, sys
        from repro.cli import main
        codes = []
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
        print(json.dumps({{"codes": codes, "loaded": sorted(
            m for m in ("_hashlib", "hashlib", "numpy.ma")
            if m in sys.modules)}}))
    """)
    assert len(argvs) > 10
    assert result == {"codes": [0] * len(argvs), "loaded": []}


def _loaded_by(argv: List[str], prefixes) -> Dict:
    """Run the CLI on ``argv`` in a fresh interpreter: its exit code and
    the loaded modules whose names start with one of ``prefixes``."""
    return _run_python(f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main({argv!r})
            except SystemExit as exc:
                code = exc.code
        print(json.dumps({{"code": code, "loaded": sorted(
            m for m in sys.modules if m.startswith({tuple(prefixes)!r}))}}))
    """)


#: Modules only the ``idlz``/``ospl``/``analyze`` runners need.
_RUNNER_MODULES = ("repro.core.idlz.program", "repro.core.ospl.program",
                   "repro.plotter")


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["lint", str(DECKS / "plate.deck")],
    ["plan", str(DECKS / "plate.deck")],
    ["idlz", str(DECKS / "plate.deck"), "--check"],
], ids=["version", "lint", "plan", "idlz-check"])
def test_non_running_programs_skip_the_runners(argv):
    assert _loaded_by(argv, _RUNNER_MODULES) == {"code": 0, "loaded": []}


@pytest.mark.parametrize("argv", [
    ["lint", str(DECKS), "-R"],
    ["plan", "run", str(DECKS), "-R"],
    ["idlz", str(DECKS / "plate.deck"), "--check"],
], ids=["lint", "plan", "idlz-check"])
def test_deck_checks_skip_the_batch_engine(argv):
    """Classifying and parsing a deck is the card layer's job."""
    assert _loaded_by(argv, ["repro.batch"]) == {"code": 0, "loaded": []}


def test_static_analyze_never_loads_scipy(tmp_path):
    """A static banded ``analyze run`` factors in numpy alone."""
    decks = sorted((DECKS / "analyze").glob("*.deck"))
    argvs = [["analyze", "run", str(deck), "-o", str(tmp_path / deck.stem)]
             for deck in decks]
    result = _run_python(_CLI_RUN.format(argvs=argvs))
    assert len(decks) == 2
    assert result == {"codes": [0, 0], "scipy": False}


def test_static_analyze_skips_masked_arrays(tmp_path):
    """Imposing the constraints needs no ``numpy.ma`` (numpy 2's
    ``np.unique``, behind ``np.setdiff1d``, loads it: ~1 MB of RSS)."""
    argv = ["analyze", "run", str(DECKS / "analyze" / "plate.analyze.deck"),
            "-o", str(tmp_path / "ana")]
    assert _loaded_by(argv, ["numpy.ma."]) == {"code": 0, "loaded": []}


def test_analyze_loads_scipy(tmp_path):
    """``SOLVER SPARSE`` is a scipy path: the twin deck still loads it."""
    from repro.analyze.deck import read_analyze_deck, write_analyze_deck
    from repro.cards.reader import CardReader

    source = DECKS / "analyze" / "plate.analyze.deck"
    deck = read_analyze_deck(CardReader.from_text(source.read_text()))
    deck.spec = dataclasses.replace(deck.spec, solver="sparse")
    twin = tmp_path / "plate_sparse.analyze.deck"
    twin.write_text(write_analyze_deck(deck).to_text())
    argvs = [["analyze", "run", str(twin), "-o", str(tmp_path / "ana")]]
    result = _run_python(_CLI_RUN.format(argvs=argvs))
    assert "SOLVER  SPARSE" in twin.read_text()
    assert result == {"codes": [0], "scipy": True}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_defining_module(package):
    table = _export_table(package)
    pkg = importlib.import_module(package)
    assert sorted(pkg.__all__) == sorted(n for ns in table.values()
                                         for n in ns)
    listed = dir(pkg)
    for module, names in table.items():
        defining = importlib.import_module(module)
        for name in names:
            assert getattr(pkg, name) is getattr(defining, name), name
            assert name in listed, name
    star: Dict = {}
    exec(f"from {package} import *", star)
    assert set(pkg.__all__) <= set(star)
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_export")


def test_analysis_type_has_one_identity():
    from repro.fem import AnalysisType
    from repro.fem.materials import AnalysisType as defined
    from repro.fem.solve import AnalysisType as legacy

    assert AnalysisType is defined is legacy


def test_structure_library_does_not_load_scipy():
    result = _run_python("""
        import json, sys
        from repro.structures import STRUCTURES
        print(json.dumps({"scipy": "scipy" in sys.modules}))
    """)
    assert result == {"scipy": False}


_BATCH_RUN = """
    import contextlib, io, json, sys
    import repro.batch.runner as runner

    seen = []

    class Pool(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            seen.append("repro.analyze.program" in sys.modules)
            super().__init__(*args, **kwargs)

    runner.ProcessPoolExecutor = Pool
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["batch", "run", *{decks!r}, "-o", {out!r},
                     "--jobs", "2", "--no-plan"])
    print(json.dumps({{"code": code, "prefork": seen,
                      "scipy": "scipy" in sys.modules}}))
"""


def test_idlz_batch_coordinator_never_loads_scipy(tmp_path):
    decks = [str(DECKS / "plate.deck"), str(DECKS / "library" / "tbeam.deck")]
    result = _run_python(_BATCH_RUN.format(decks=decks, out=str(tmp_path)))
    assert result == {"code": 0, "prefork": [False], "scipy": False}


def test_analyze_batch_imports_fem_before_forking(tmp_path):
    decks = [str(DECKS / "plate.deck"),
             str(DECKS / "analyze" / "plate.analyze.deck")]
    result = _run_python(_BATCH_RUN.format(decks=decks, out=str(tmp_path)))
    # The coordinator imports the analyze program before forking; that
    # import no longer drags scipy in (a static run never needs it).
    assert result == {"code": 0, "prefork": [True], "scipy": False}
