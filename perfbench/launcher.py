"""Traced stand-in for ``python -m repro``: ``python launcher.py ARGV...``.

Runs ``repro.cli.main(ARGV)`` with spans recorded around the calls into
each layer's public functions, without any change to the program.  The
wrappers are installed by an import hook the moment each function's
defining module finishes executing.  Pipelines bind their callees with
``from ... import``, which runs the defining module to its end first, so
the name they bind (for example ``repro.pipeline.idlz.reform_elements``)
is already the wrapper; methods are wrapped on their class.  Every
outermost module import is timed as an ``import`` span.

Spans go to ``$PERFBENCH_TRACE_DIR``: ``main.json`` from this process
when ``main`` returns, and one line of ``worker-<pid>.jsonl`` per job from
batch pool workers, which leave through ``os._exit`` and so flush when
each wrapped ``run_job`` returns.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from importlib.abc import MetaPathFinder  # noqa: E402


def _status_mb(field: str) -> float:
    """A ``/proc/self/status`` memory line (VmRSS, VmHWM) in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Recorder:
    """In-memory spans and counts of one process (reset after fork)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []    # [name, start, end, parent, layer]
        self.stack: list = []
        self.counts: dict = {}

    def _check_pid(self) -> None:
        if os.getpid() != self.pid:  # a forked pool worker starts clean
            self.pid = os.getpid()
            self.spans, self.stack, self.counts = [], [], {}

    def open(self, name: str, layer) -> int:
        self._check_pid()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, layer])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        while self.stack and self.stack[-1] != index:
            self.stack.pop()  # unwound by an exception in a child
        if self.stack:
            self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self._check_pid()
        self.counts[name] = self.counts.get(name, 0.0) + value

    def payload(self) -> dict:
        now = time.perf_counter()
        spans = [[n, s, e if e is not None else now, p, layer]
                 for n, s, e, p, layer in self.spans]
        return {"pid": self.pid, "spans": spans, "counts": self.counts}


REC = Recorder()
MAIN_PID = os.getpid()
TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR", ".")

# ----------------------------------------------------------------------
# Layer tables
# ----------------------------------------------------------------------

#: Pipeline stage (short name) -> layer its self time belongs to.
STAGE_LAYERS = {
    "read": "cards.read",
    "number": "idlz.number", "elements": "idlz.elements",
    "shape": "idlz.shape", "reform": "idlz.reform",
    "renumber": "idlz.renumber", "output": "idlz.output",
    "deck": "ospl.deck", "intervals": "ospl.intervals",
    "contour": "ospl.contour", "labels": "ospl.labels", "plot": "ospl.plot",
    "materials": "analyze.run", "assemble": "analyze.run",
    "constrain": "analyze.run", "loads": "analyze.run",
    "solve": "analyze.run", "recover": "analyze.run",
    "isograms": "analyze.run",
}


def _svg_mb(result, args, kwargs):
    try:
        REC.count("plotter.svg_mb", os.path.getsize(result) / 1e6)
    except OSError:
        pass


def _cards(result, args, kwargs):
    REC.count("cards.cards", result.remaining())


def _swaps(result, args, kwargs):
    REC.count("idlz.reform_swaps", int(result or 0))


def _listing(result, args, kwargs):
    REC.count("idlz.output_mb", len(result) / 1e6)


def _segments(result, args, kwargs):
    REC.count("ospl.segments", args[0].n_segments())  # ContourSet.__init__


def _cholesky(result, args, kwargs):
    n, hb = result.n, result.hb
    REC.count("fem.dofs", n)
    REC.count("fem.half_bandwidth", hb)
    REC.count("fem.factor_mflop", n * hb * hb / 1e6)


def _stage_lookup(result, args, kwargs):
    REC.count("pipeline.cache_hits" if result is not None
              else "pipeline.cache_misses", 1)


def _stage_store(result, args, kwargs):
    cache, key = args[0], args[1]
    try:  # an unpicklable output is not stored: no file, nothing to add
        REC.count("pipeline.cache_store_mb",
                  os.path.getsize(cache._path(key)) / 1e6)
    except OSError:
        pass


def _artifact_lookup(result, args, kwargs):
    # ArtifactCache.store reads its entry back; that is not a hit.
    inside_store = REC.stack and REC.spans[REC.stack[-1]][0] == \
        "batch.artifact_store"
    if result is not None and not inside_store:
        REC.count("batch.artifact_hits", 1)


def _verdict_lookup(result, args, kwargs):
    if result is not None:
        REC.count("lint.verdict_hits", 1)


def _flush_worker(result, args, kwargs):
    if os.getpid() != MAIN_PID:
        with open(os.path.join(TRACE_DIR, f"worker-{os.getpid()}.jsonl"),
                  "a") as fh:
            fh.write(json.dumps(REC.payload()) + "\n")
        REC.spans, REC.stack, REC.counts = [], [], {}


#: Defining module -> [(attribute, span name, layer, on_result, peak-RSS
#: count)].  ``Class.method`` attributes are wrapped on the class.  A
#: module is patched the moment it finishes executing, which is before
#: any ``from ... import`` elsewhere can bind its names, so one wrapper
#: in the defining module covers every call site.
PATCHES = {
    "repro.cards.reader": [
        ("CardReader.from_text", "cards.from_text", "cards.read", _cards,
         None)],
    "repro.core.idlz.deck": [
        ("read_idlz_deck", "cards.read_idlz_deck", "cards.read", None,
         None)],
    "repro.core.ospl.deck": [
        ("read_ospl_deck", "cards.read_ospl_deck", "cards.read", None,
         None)],
    "repro.analyze.deck": [
        ("read_analyze_deck", "cards.read_analyze_deck", "cards.read",
         None, None)],
    "repro.analyze.program": [
        ("run_analyze_files", "analyze.run_analyze_files", "analyze.run",
         None, None)],
    "repro.core.idlz.reform": [
        ("reform_elements", "idlz.reform_elements", "idlz.reform", _swaps,
         None)],
    "repro.fem.bandwidth": [
        ("reverse_cuthill_mckee", "idlz.reverse_cuthill_mckee",
         "idlz.renumber", None, None)],
    "repro.core.idlz.output": [
        ("print_listing", "idlz.print_listing", "idlz.output", _listing,
         None),
        ("punch_cards", "idlz.punch_cards", "idlz.output", None, None),
        ("plot_all", "idlz.plot_all", "idlz.output", None, None)],
    "repro.core.idlz.program": [
        ("run_idlz_files", "idlz.run_idlz_files", "idlz.output", None,
         None)],
    "repro.core.ospl.program": [
        ("run_ospl_files", "ospl.run_ospl_files", "ospl.plot", None, None)],
    "repro.plotter.svg": [
        ("save_svg", "plotter.save_svg", "plotter.svg", _svg_mb, None)],
    "repro.core.ospl.contour": [
        ("ContourSet.__init__", "ospl.ContourSet", "ospl.contour",
         _segments, None)],
    "repro.core.ospl.labels": [
        ("place_labels", "ospl.place_labels", "ospl.labels", None, None)],
    "repro.pipeline.runner": [("Pipeline._run_stage", None, None, None,
                               None)],
    "repro.fem.assembly": [
        ("assemble_banded", "fem.assemble_banded", "fem.assemble", None,
         None),
        ("assemble_sparse", "fem.assemble_sparse", "fem.assemble", None,
         None)],
    "repro.fem.skyline": [
        ("assemble_skyline", "fem.assemble_skyline", "fem.assemble", None,
         None)],
    "repro.fem.solve": [
        ("_solve_sparse", "fem.solve_sparse", "fem.factor", None, None)],
    "repro.fem.stress": [
        ("recover_stresses", "fem.recover_stresses", "fem.recover", None,
         None)],
    "repro.fem.banded": [
        ("BandedSymmetricMatrix.cholesky", "fem.cholesky", "fem.factor",
         _cholesky, "fem.factor_rss_rise_mb"),
        ("BandedCholeskyFactor.solve", "fem.substitute", "fem.substitute",
         None, None)],
    "repro.pipeline.cache": [
        ("StageCache.lookup", "pipeline.cache_lookup",
         "pipeline.cache_lookup", _stage_lookup, None),
        ("StageCache.store", "pipeline.cache_store", "pipeline.cache_store",
         _stage_store, None)],
    "repro.batch.cache": [
        ("ArtifactCache.lookup", "batch.artifact_lookup",
         "batch.artifact_lookup", _artifact_lookup, None),
        ("CacheEntry.restore_into", "batch.artifact_restore",
         "batch.artifact_lookup", None, None),
        ("ArtifactCache.store", "batch.artifact_store",
         "batch.artifact_store", None, None),
        ("ArtifactCache.lookup_lint", "lint.verdict_lookup", "lint.lint",
         _verdict_lookup, None),
        ("ArtifactCache.store_lint", "lint.verdict_store", "lint.lint",
         None, None)],
    "repro.batch.worker": [
        ("run_job", "batch.run_job", "batch.run_job", _flush_worker, None)],
    "repro.batch.runner": [
        ("run_batch", "batch.run_batch", "batch.coordinator", None, None),
        ("job_fingerprint", "batch.job_fingerprint", "batch.fingerprint",
         None, None),
        ("_run_round", "batch.run_round", "batch.pool_wait", None, None)],
    "repro.batch.manifest": [
        ("BatchManifest.save", "batch.manifest_save", "batch.manifest",
         None, None)],
    "repro.lint.engine": [
        ("lint_text", "lint.lint_text", "lint.lint", None, None)],
    "repro.plan.estimate": [
        ("plan_text", "plan.plan_text", "plan.plan", None, None)],
    "repro.plan.calibrate": [
        ("load_calibration", "plan.load_calibration", "plan.plan", None,
         None)],
}


def _wrap(fn, name, layer, on_result, rss_count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = _status_mb("VmHWM") if rss_count else 0.0
        index = REC.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            REC.close(index)
        if rss_count:
            REC.count(rss_count, _status_mb("VmHWM") - before)
        if on_result is not None:
            on_result(result, args, kwargs)
        return result

    return wrapper


def _wrap_stage(fn):
    @functools.wraps(fn)
    def run_stage(self, stage, ctx, *args, **kwargs):
        layer = STAGE_LAYERS.get(stage.name, "analyze.run")
        before = _status_mb("VmHWM") if stage.name == "reform" else 0.0
        index = REC.open(f"stage:{self.name}.{stage.name}", layer)
        try:
            return fn(self, stage, ctx, *args, **kwargs)
        finally:
            REC.close(index)
            if stage.name == "reform":
                REC.count("idlz.reform_rss_rise_mb",
                          _status_mb("VmHWM") - before)
    return run_stage


def _apply(module) -> None:
    for attr, name, layer, on_result, rss_count in PATCHES[module.__name__]:
        owner, _, leaf = attr.rpartition(".")
        target = getattr(module, owner, None) if owner else module
        raw = vars(target).get(leaf) if target is not None else None
        if raw is None:
            REC.count("trace.missing_wrappers", 1)
            print(f"perfbench launcher: {module.__name__}.{attr} not found",
                  file=sys.stderr)
        elif isinstance(raw, classmethod):
            setattr(target, leaf, classmethod(
                _wrap(raw.__func__, name, layer, on_result, rss_count)))
        elif attr == "Pipeline._run_stage":
            setattr(target, leaf, _wrap_stage(raw))
        else:
            setattr(target, leaf,
                    _wrap(raw, name, layer, on_result, rss_count))


class ImportHook(MetaPathFinder):
    """Times outermost module imports and patches modules as they load."""

    def __init__(self) -> None:
        self.depth = 0
        self.finding = False

    def find_spec(self, name, path, target=None):
        if self.finding:
            return None
        self.finding = True
        try:
            for finder in sys.meta_path:
                if finder is self or not hasattr(finder, "find_spec"):
                    continue
                spec = finder.find_spec(name, path, target)
                if spec is not None:
                    break
            else:
                return None
        finally:
            self.finding = False
        loader = spec.loader
        # Built-in and frozen importers are classes shared by every module
        # they load; only per-module loader instances are safe to patch.
        if loader is None or isinstance(loader, type) \
                or not hasattr(loader, "exec_module"):
            return spec
        loader.exec_module = self._exec(loader.exec_module, name)
        return spec

    def _exec(self, exec_module, name):
        def run(module):
            index = (REC.open(f"import:{name}", "import.repro")
                     if self.depth == 0 else None)
            self.depth += 1
            try:
                exec_module(module)
            finally:
                self.depth -= 1
                if index is not None:
                    REC.close(index)
            if name in PATCHES:
                _apply(module)
        return run


def main(argv) -> int:
    modules_before = len(sys.modules)
    root = REC.open("launcher", None)
    sys.meta_path.insert(0, ImportHook())
    code = 1
    try:
        from repro.cli import main as cli_main

        REC.count("import.rss_mb", _status_mb("VmRSS"))
        code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        REC.close(root)
        payload = REC.payload()
        payload.update(
            t0=T0, t_flush=time.perf_counter(), code=code,
            modules=len(sys.modules) - modules_before,
            scipy_loaded=any(m == "scipy" or m.startswith("scipy.")
                             for m in sys.modules),
        )
        with open(os.path.join(TRACE_DIR, "main.json"), "w") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
