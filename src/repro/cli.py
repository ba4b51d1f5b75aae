"""Command-line interface: run the 1970 programs on deck files.

    python -m repro idlz INPUT.deck -o OUT_DIR [--strict] [--cache-dir D]
    python -m repro ospl INPUT.deck -o PLOT.{svg,png,txt} [--strict]
                                                          [--ascii]
                                                          [--cache-dir D]
    python -m repro analyze INPUT.deck [-o OUT_DIR] [--strict]
                                       [--cache-dir D]
    python -m repro analyze sweep INPUT.deck -o DIR [--loads S...]
                                  [--youngs E...] [--densify N...]
                                  [--jobs N --cache-dir D --ledger D]
    python -m repro lint DECKS... [-R] [--format text|json] [--strict]
    python -m repro lint --explain CODE
    python -m repro batch run GLOB... -o DIR [--lint] [--jobs N
                                              --timeout S --retries K
                                              --cache-dir D
                                              --ledger D --profile]
    python -m repro batch status MANIFEST.json
    python -m repro batch explain MANIFEST.json JOB
    python -m repro batch corpus [-o DIR]
    python -m repro obs diff BASELINE.json CANDIDATE.json
    python -m repro obs check REPORT.json --against BASELINE.json
    python -m repro obs render REPORT_OR_MANIFEST.json
    python -m repro obs tail LEDGER [--once]
    python -m repro obs top LEDGER [--once] [--refresh S]
    python -m repro obs export SOURCE.json --format chrome|folded [-o P]
    python -m repro obs timeline MANIFEST.json [--width COLS]
    python -m repro obs bench record REPORT.json [--history PATH]
    python -m repro obs bench trend|check [--history PATH --window N]

``--strict`` enforces the Table 1/2 restrictions exactly as the 7090
builds did; ``--ascii`` additionally prints a terminal preview of the
OSPL plot.

``analyze`` (see docs/ANALYZE.md) closes the paper's loop: one combined
deck is idealized by the IDLZ stages, solved by the finite-element
stages (stiffness assembly, boundary conditions, loads, a banded /
skyline / sparse solve, stress recovery) and contour-plotted by OSPL's
isogram generator -- ``repro analyze DECK`` is sugar for ``repro
analyze run DECK``.  ``analyze sweep`` expands a parameter grid (load
scales, Young's moduli, mesh densification factors) into one scenario
deck per grid point and runs them all through the batch engine, so
each scenario gets a ``repro.analyze/v1`` manifest and the sweep a
``repro.analyze-sweep/v1`` index.

``lint`` (see docs/LINT.md) statically analyzes decks without running
them: every finding carries a stable rule code (``IDZ...``, ``OSP...``,
``FMT...``, ``LIM...``), a severity and the card it points at;
``--explain CODE`` prints the catalog entry and the exit code is 1 when
any deck has errors.  ``batch run --lint`` runs the same analysis as a
pre-flight and records error-bearing decks as ``rejected`` in the
manifest without spawning a worker for them.

The ``batch`` family (see docs/BATCH.md) runs many decks at once over a
process pool with per-job timeouts and bounded retries, skips any deck
whose products are already in the ``--cache-dir`` artifact cache, and
writes a ``repro.batch/v1`` manifest; ``batch run`` exits 0 when every
job succeeded and 3 (partial failure) when some failed -- sibling jobs
are unaffected either way.

``--cache-dir`` on ``idlz``/``ospl`` enables the stage-granular result
cache (see docs/PIPELINE.md): edits that only touch late cards (say a
type-6 shaping card) reuse every earlier pipeline stage and re-run from
the first stage whose inputs changed.  The directory has the same
layout ``batch run --cache-dir`` uses, so the two share warm entries.

Observability (see docs/OBSERVABILITY.md): ``--trace`` prints a
per-stage timing tree to stderr, ``--report PATH.json`` writes the
machine-readable run report, ``--health`` prints the post-run
numerical-health table, ``-v``/``-vv`` raise the log level of the
``repro.*`` loggers and ``-q`` silences the normal stdout summary.  The
``obs`` family works on saved reports: ``diff`` compares two, ``check``
gates a candidate against a baseline (non-zero exit on regression), and
``render`` replays the ``--trace`` tree of a saved report -- or, given
a batch manifest, the *assembled* cross-process trace.

Fleet observability (see docs/OBSERVABILITY.md): ``batch run --ledger
DIR`` appends lifecycle events to ``DIR/events.jsonl`` from every
process of the run, ``obs tail`` follows that ledger live (``--once``
drains and exits, for CI), ``obs timeline`` draws a text Gantt of a
finished batch, and ``obs export`` converts a run report or batch
manifest into Chrome trace-event JSON (``chrome://tracing`` /
Perfetto) or folded stacks (flamegraph tooling).  ``--profile`` on
``idlz``/``ospl``/``batch run`` wraps each pipeline stage in cProfile:
hotspot tables print to stderr, ride inside ``--report`` files
(schema ``repro.obs/v1.3``), and a folded-stacks file lands next to
the report.

Continuous perf observability: per-stage resource deltas (RSS growth,
GC collections, open FDs) and the run's peak RSS ride in
``repro.obs/v1.3`` reports; ``batch run --series`` appends fleet
gauges to the run ledger as ``sample`` events; ``obs top`` renders the
live per-worker dashboard from that one ledger; and ``obs bench
record | trend | check`` keeps the
longitudinal ``BENCH_history.jsonl`` whose trend gate fails monotonic
creep that ducks under the per-run ``obs check`` threshold.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro._version import __version__
from repro.errors import ReproError

_LOG_HANDLER_NAME = "repro-cli"


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", action="store_true",
                       help="print a per-stage timing tree to stderr")
    group.add_argument("--report", type=Path, metavar="PATH",
                       help="write a machine-readable JSON run report")
    group.add_argument("--health", action="store_true",
                       help="print the post-run numerical-health table "
                            "to stderr")
    group.add_argument("--profile", action="store_true",
                       help="wrap each pipeline stage in cProfile; "
                            "hotspot tables print to stderr, embed in "
                            "--report, and a folded-stacks file lands "
                            "next to the report")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="log progress to stderr (-vv for debug)")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="suppress the stdout summary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IDLZ and OSPL (Rockwell & Pincus, 1970) on card decks",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    idlz = sub.add_parser("idlz", help="idealize structures from a deck")
    idlz.add_argument("deck", type=Path, help="Appendix-B input deck")
    idlz.add_argument("-o", "--out", type=Path, default=Path("idlz_out"),
                      help="output directory (default: idlz_out)")
    idlz.add_argument("--strict", action="store_true",
                      help="enforce the Table-2 1970 restrictions")
    idlz.add_argument("--check", action="store_true",
                      help="lint the deck as an IDLZ deck without "
                           "running it (what 'repro lint' prints)")
    idlz.add_argument("--cache-dir", type=Path, default=None,
                      metavar="DIR",
                      help="stage-granular result cache; unchanged "
                           "pipeline stages are restored, not re-run "
                           "(shares layout with 'batch run')")
    _add_common_options(idlz)

    ospl = sub.add_parser("ospl", help="contour-plot a field from a deck")
    ospl.add_argument("deck", type=Path, help="Appendix-C input deck")
    ospl.add_argument("-o", "--out", type=Path, default=Path("ospl.svg"),
                      help="output path; the extension picks the writer "
                           "(.svg vector, .png raster, .txt character "
                           "preview; default: ospl.svg)")
    ospl.add_argument("--strict", action="store_true",
                      help="enforce the Table-1 1970 restrictions")
    ospl.add_argument("--ascii", action="store_true",
                      help="also print an ASCII preview")
    ospl.add_argument("--cache-dir", type=Path, default=None,
                      metavar="DIR",
                      help="stage-granular result cache; unchanged "
                           "pipeline stages are restored, not re-run "
                           "(shares layout with 'batch run')")
    _add_common_options(ospl)

    analyze = sub.add_parser(
        "analyze", help="idealize, solve and contour one combined deck")
    analyze_sub = analyze.add_subparsers(dest="analyze_command",
                                         required=True)

    analyze_run = analyze_sub.add_parser(
        "run", help="run one analyze deck end to end")
    analyze_run.add_argument("deck", type=Path,
                             help="combined IDLZ + ANALYZE deck")
    analyze_run.add_argument("-o", "--out", type=Path,
                             default=Path("analyze_out"),
                             help="output directory "
                                  "(default: analyze_out)")
    analyze_run.add_argument("--strict", action="store_true",
                             help="enforce the Table-1 and Table-2 "
                                  "1970 restrictions")
    analyze_run.add_argument("--cache-dir", type=Path, default=None,
                             metavar="DIR",
                             help="stage-granular result cache; an "
                                  "edited load card re-runs only the "
                                  "solve-onward stages")
    _add_common_options(analyze_run)

    analyze_sweep = analyze_sub.add_parser(
        "sweep", help="expand a parameter grid into a batch of "
                      "scenario runs")
    analyze_sweep.add_argument("deck", type=Path,
                               help="base analyze deck")
    analyze_sweep.add_argument("-o", "--out", type=Path,
                               default=Path("sweep_out"),
                               help="sweep root; scenario decks land "
                                    "under OUT/decks/, products under "
                                    "OUT/jobs/<scenario>/ "
                                    "(default: sweep_out)")
    analyze_sweep.add_argument("--loads", type=float, nargs="+",
                               default=[1.0], metavar="SCALE",
                               help="load-scale axis: multiply every "
                                    "PRESSURE/FORCE/FLUX magnitude "
                                    "(default: 1.0)")
    analyze_sweep.add_argument("--youngs", type=float, nargs="+",
                               default=[], metavar="E",
                               help="material axis: override Young's "
                                    "modulus on every MAT card "
                                    "(default: keep the deck's)")
    analyze_sweep.add_argument("--densify", type=int, nargs="+",
                               default=[1], metavar="N",
                               help="mesh-density axis: split every "
                                    "lattice interval into N "
                                    "(default: 1)")
    analyze_sweep.add_argument("--jobs", type=int, default=1,
                               metavar="N",
                               help="worker processes "
                                    "(default: 1, inline)")
    analyze_sweep.add_argument("--timeout", type=float, default=None,
                               metavar="SECONDS",
                               help="per-scenario wall-clock limit "
                                    "(default: none)")
    analyze_sweep.add_argument("--retries", type=int, default=0,
                               metavar="K",
                               help="extra attempts per failing "
                                    "scenario (default: 0)")
    analyze_sweep.add_argument("--cache-dir", type=Path, default=None,
                               metavar="DIR",
                               help="content-addressed cache shared "
                                    "by all scenarios; runs differing "
                                    "only in load reuse idealization "
                                    "and stiffness stages")
    analyze_sweep.add_argument("--strict", action="store_true",
                               help="run every scenario under the "
                                    "1970 restrictions")
    analyze_sweep.add_argument("--ledger", type=Path, default=None,
                               metavar="DIR",
                               help="append lifecycle events to "
                                    "DIR/events.jsonl (follow with "
                                    "'obs tail')")
    analyze_sweep.add_argument("--series", action="store_true",
                               help="append fleet metric samples to the "
                                    "ledger (OUT/events.jsonl without "
                                    "--ledger)")
    _add_common_options(analyze_sweep)

    lint = sub.add_parser("lint", help="statically analyze decks "
                                       "without running them")
    lint.add_argument("decks", nargs="*", metavar="DECK",
                      help="deck files or directories of *.deck files")
    lint.add_argument("-R", "--recursive", action="store_true",
                      help="recurse into directories")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", help="output format")
    lint.add_argument("--strict", action="store_true",
                      help="escalate the Table 1/2 LIM warnings "
                           "to errors")
    lint.add_argument("--budget", metavar="SIZE", default=None,
                      help="arm PLN001: error when the predicted "
                           "working set exceeds SIZE (e.g. 64MB)")
    lint.add_argument("--deadline", type=float, metavar="SECONDS",
                      default=None,
                      help="arm PLN002: error when the predicted "
                           "wall time exceeds SECONDS")
    lint.add_argument("--explain", metavar="CODE",
                      help="print the catalog entry for one rule "
                           "code and exit")
    lint.add_argument("--list", action="store_true", dest="list_rules",
                      help="list every rule (code, severity, title) "
                           "and exit")
    _add_common_options(lint)

    plan = sub.add_parser("plan", help="predict a deck's cost "
                                       "without running it")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    plan_run = plan_sub.add_parser(
        "run", help="estimate node/element counts, memory and wall time")
    plan_run.add_argument("decks", nargs="+", metavar="DECK",
                          help="deck files or directories of *.deck files")
    plan_run.add_argument("-R", "--recursive", action="store_true",
                          help="recurse into directories")
    plan_run.add_argument("--format", choices=("text", "json"),
                          default="text", help="output format")
    plan_run.add_argument("--budget", metavar="SIZE", default=None,
                          help="fail when the predicted working set "
                               "exceeds SIZE (e.g. 64MB)")
    plan_run.add_argument("--deadline", type=float, metavar="SECONDS",
                          default=None,
                          help="fail when the predicted wall time "
                               "exceeds SECONDS")
    plan_run.add_argument("--history", type=Path, default=None,
                          metavar="PATH",
                          help="benchmark history for calibration "
                               "(default: BENCH_history.jsonl)")
    _add_common_options(plan_run)

    plan_check = plan_sub.add_parser(
        "check", help="run decks instrumented and grade the predictions")
    plan_check.add_argument("decks", nargs="+", metavar="DECK",
                           help="deck files or directories of *.deck "
                                "files")
    plan_check.add_argument("-R", "--recursive", action="store_true",
                           help="recurse into directories")
    plan_check.add_argument("--format", choices=("text", "json"),
                           default="text", help="output format")
    plan_check.add_argument("--max-wall-error", type=float, default=None,
                            metavar="FACTOR",
                            help="wall-time accuracy band (default: 2.0; "
                                 "pass iff 1/FACTOR <= pred/actual "
                                 "<= FACTOR)")
    plan_check.add_argument("--max-mem-error", type=float, default=None,
                            metavar="FACTOR",
                            help="peak-memory accuracy band "
                                 "(default: 1.5)")
    plan_check.add_argument("--history", type=Path, default=None,
                           metavar="PATH",
                           help="benchmark history for calibration "
                                "(default: BENCH_history.jsonl)")
    _add_common_options(plan_check)

    batch = sub.add_parser("batch", help="run many decks with caching, "
                                         "retries and a manifest")
    batch_sub = batch.add_subparsers(dest="batch_command", required=True)

    batch_run = batch_sub.add_parser(
        "run", help="fan decks out over a worker pool")
    batch_run.add_argument("decks", nargs="+", metavar="DECK",
                           help="deck files or glob patterns "
                                "(** recurses; quote globs)")
    batch_run.add_argument("-o", "--out", type=Path,
                           default=Path("batch_out"),
                           help="output root; each job gets "
                                "OUT/<job_id>/ (default: batch_out)")
    batch_run.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes (default: 1, inline)")
    batch_run.add_argument("--timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="per-job wall-clock limit "
                                "(default: none)")
    batch_run.add_argument("--retries", type=int, default=0, metavar="K",
                           help="extra attempts per failing job "
                                "(default: 0)")
    batch_run.add_argument("--backoff", type=float, default=0.1,
                           metavar="SECONDS",
                           help="base retry backoff, doubled per round "
                                "(default: 0.1)")
    batch_run.add_argument("--cache-dir", type=Path, default=None,
                           metavar="DIR",
                           help="content-addressed artifact cache; "
                                "unchanged decks are restored, "
                                "not recomputed")
    batch_run.add_argument("--strict", action="store_true",
                           help="run every deck under the 1970 "
                                "restrictions")
    batch_run.add_argument("--lint", action=argparse.BooleanOptionalAction,
                           default=False,
                           help="statically analyze each deck first; "
                                "decks with lint errors are recorded as "
                                "'rejected' and never reach a worker")
    batch_run.add_argument("--plan", action=argparse.BooleanOptionalAction,
                           default=True,
                           help="price each deck up front: longest-"
                                "expected-first scheduling and plan-"
                                "scaled timeouts (default: on)")
    batch_run.add_argument("--manifest", type=Path, default=None,
                           metavar="PATH",
                           help="manifest path (default: "
                                "OUT/batch_manifest.json)")
    batch_run.add_argument("--ledger", type=Path, default=None,
                           metavar="DIR",
                           help="append lifecycle events to "
                                "DIR/events.jsonl from every process "
                                "of the run (follow with 'obs tail')")
    batch_run.add_argument("--series", action="store_true",
                           help="append fleet metric samples (RSS, "
                                "CPU%%, queue depth, decks/sec, cache "
                                "hit-rate) to the ledger as 'sample' "
                                "events, OUT/events.jsonl without "
                                "--ledger (watch with 'obs top')")
    _add_common_options(batch_run)

    batch_status = batch_sub.add_parser(
        "status", help="summarise a saved batch manifest")
    batch_status.add_argument("manifest", type=Path,
                              help="batch_manifest.json")

    batch_explain = batch_sub.add_parser(
        "explain", help="post-mortem one job of a saved manifest")
    batch_explain.add_argument("manifest", type=Path,
                               help="batch_manifest.json")
    batch_explain.add_argument("job", help="job id, deck path or "
                                           "deck basename")

    batch_corpus = batch_sub.add_parser(
        "corpus", help="dump the structure library as deck files")
    batch_corpus.add_argument("-o", "--out", type=Path,
                              default=Path("examples/decks/library"),
                              help="corpus directory (default: "
                                   "examples/decks/library)")
    batch_corpus.add_argument("-q", "--quiet", action="store_true",
                              help="suppress the per-deck listing")

    obs_cmd = sub.add_parser("obs", help="diff, gate and render saved "
                                         "run reports")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    diff_cmd = obs_sub.add_parser(
        "diff", help="compare two run reports (spans, metrics, health)")
    diff_cmd.add_argument("baseline", type=Path,
                          help="baseline report (A)")
    diff_cmd.add_argument("candidate", type=Path,
                          help="candidate report (B)")
    diff_cmd.add_argument("--format", choices=("text", "json", "markdown"),
                          default="text", help="output format")

    check_cmd = obs_sub.add_parser(
        "check", help="exit non-zero when the report regresses past the "
                      "baseline")
    check_cmd.add_argument("report", type=Path, help="candidate report")
    check_cmd.add_argument("--against", type=Path, required=True,
                           metavar="BASELINE", help="baseline report")
    check_cmd.add_argument("--max-regression", default="25%",
                           metavar="PCT",
                           help="allowed growth per span/health value "
                                "(default: 25%%)")
    check_cmd.add_argument("--min-wall", type=float, default=None,
                           metavar="SECONDS",
                           help="ignore spans faster than this on both "
                                "sides (default: 0.005)")

    render_cmd = obs_sub.add_parser(
        "render", help="print the --trace tree of a saved report, or "
                       "the assembled trace of a batch manifest")
    render_cmd.add_argument("report", type=Path,
                            help="saved run report or batch manifest")
    render_cmd.add_argument("--health", action="store_true",
                            help="also print the numerical-health table")

    tail_cmd = obs_sub.add_parser(
        "tail", help="follow a run ledger's lifecycle events live")
    tail_cmd.add_argument("ledger", type=Path,
                          help="ledger file or its directory")
    tail_cmd.add_argument("--once", action="store_true",
                          help="drain what is on disk and exit "
                               "(for CI and post-mortems)")

    export_cmd = obs_sub.add_parser(
        "export", help="convert a run report or batch manifest into "
                       "an external trace format")
    export_cmd.add_argument("source", type=Path,
                            help="saved run report or batch manifest")
    export_cmd.add_argument("--format", choices=("chrome", "folded"),
                            default="chrome",
                            help="chrome: trace-event JSON for "
                                 "chrome://tracing / Perfetto; folded: "
                                 "flamegraph folded stacks")
    export_cmd.add_argument("-o", "--out", type=Path, default=None,
                            help="output path (default: stdout)")

    timeline_cmd = obs_sub.add_parser(
        "timeline", help="draw a text Gantt of a batch manifest's "
                         "assembled trace")
    timeline_cmd.add_argument("manifest", type=Path,
                              help="batch manifest (or run report)")
    timeline_cmd.add_argument("--width", type=int, default=None,
                              metavar="COLS",
                              help="bar width in columns (default: fit "
                                   "the terminal, never under 40)")

    top_cmd = obs_sub.add_parser(
        "top", help="live per-worker dashboard over a run ledger "
                    "(gauges from its --series samples)")
    top_cmd.add_argument("ledger", type=Path,
                         help="ledger file or its directory")
    top_cmd.add_argument("--once", action="store_true",
                         help="draw one frame and exit "
                              "(for CI and post-mortems)")
    top_cmd.add_argument("--refresh", type=float, default=1.0,
                         metavar="SECONDS",
                         help="seconds between frames (default: 1)")

    bench_cmd = obs_sub.add_parser(
        "bench", help="append to and gate the longitudinal bench "
                      "history (BENCH_history.jsonl)")
    bench_sub = bench_cmd.add_subparsers(dest="bench_command",
                                         required=True)
    bench_record = bench_sub.add_parser(
        "record", help="append one run report to the history")
    bench_record.add_argument("report", type=Path,
                              help="saved run report (BENCH_*.json)")
    bench_record.add_argument("--history", type=Path,
                              default=Path("BENCH_history.jsonl"),
                              metavar="PATH",
                              help="history file (default: "
                                   "BENCH_history.jsonl)")
    bench_record.add_argument("--sha", default=None, metavar="SHA",
                              help="commit sha to stamp (default: "
                                   "git rev-parse --short HEAD)")
    bench_record.add_argument("--note", default=None,
                              help="free-form note stored on the row")
    bench_trend = bench_sub.add_parser(
        "trend", help="print the per-stage trend table")
    bench_check = bench_sub.add_parser(
        "check", help="exit non-zero when a stage creeps monotonically "
                      "over the window (slope + noise-floor test)")
    for sub_cmd in (bench_trend, bench_check):
        sub_cmd.add_argument("--history", type=Path,
                             default=Path("BENCH_history.jsonl"),
                             metavar="PATH",
                             help="history file (default: "
                                  "BENCH_history.jsonl)")
        sub_cmd.add_argument("--window", type=int, default=8,
                             metavar="N",
                             help="records the fit looks back over "
                                  "(default: 8)")
        sub_cmd.add_argument("--max-drift", default="35%",
                             metavar="PCT",
                             help="fitted drift across the window that "
                                  "counts as creep (default: 35%%)")
        sub_cmd.add_argument("--min-wall", type=float, default=None,
                             metavar="SECONDS",
                             help="ignore stages never reaching this "
                                  "wall time (default: 0.005)")
    return parser


def _configure_logging(verbosity: int, quiet: bool) -> None:
    """Point the ``repro`` logger tree at stderr at the requested level."""
    logger = logging.getLogger("repro")
    if quiet:
        level = logging.ERROR
    elif verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logger.setLevel(level)
    handler = next(
        (h for h in logger.handlers if h.get_name() == _LOG_HANDLER_NAME),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler(sys.stderr)
        handler.set_name(_LOG_HANDLER_NAME)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        logger.addHandler(handler)
    else:
        # Re-bind in case the hosting process swapped sys.stderr.
        handler.stream = sys.stderr


def _stage_cache(args: argparse.Namespace):
    """The ``--cache-dir`` stage cache, rooted where ``batch run`` roots
    its own, so the same directory warms both."""
    if args.cache_dir is None:
        return None
    from repro.batch.cache import ArtifactCache
    from repro.pipeline import StageCache

    return StageCache(ArtifactCache(args.cache_dir).stage_root)


def _run_idlz(args: argparse.Namespace) -> int:
    if args.check:
        from repro.lint import lint_text

        result = lint_text(args.deck.read_text(), str(args.deck),
                           program="idlz", strict=args.strict)
        return _print_lint_text([result], args.quiet)
    from repro.core.idlz.program import run_idlz_files

    runs = run_idlz_files(args.deck, args.out, strict=args.strict,
                          stage_cache=_stage_cache(args))
    if not args.quiet:
        for i, run in enumerate(runs, start=1):
            ideal = run.idealization
            print(f"problem {i}: {run.title!r} -> "
                  f"{ideal.n_nodes} nodes, {ideal.n_elements} elements, "
                  f"bandwidth {ideal.bandwidth_before}"
                  f"->{ideal.bandwidth_after}, "
                  f"{len(run.frames)} plot frame(s), "
                  f"{len(run.punched) if run.punched else 0} "
                  "punched card(s)")
        print(f"wrote outputs under {args.out}/")
    return 0


def _run_ospl(args: argparse.Namespace) -> int:
    from repro.core.ospl.program import run_ospl_files
    from repro.plotter.ascii_art import render_ascii

    run = run_ospl_files(args.deck, args.out, strict=args.strict,
                         stage_cache=_stage_cache(args))
    plot = run.plot
    if not args.quiet:
        print(f"{run.title!r}: interval {plot.interval:g}, "
              f"{len(plot.levels)} levels, {plot.n_segments()} segments, "
              f"{len(plot.labels)} labels -> {args.out}")
        if args.ascii:
            print(render_ascii(plot.frame, 78, 38))
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.analyze.program import run_analyze_files

    run = run_analyze_files(args.deck, args.out, strict=args.strict,
                            stage_cache=_stage_cache(args))
    if not args.quiet:
        print(run.listing(), end="")
        print(f"wrote {len(run.plots)} isogram(s) and the manifest "
              f"under {args.out}/")
    return 0


def _run_analyze_sweep(args: argparse.Namespace) -> int:
    from repro.analyze.sweep import SweepGrid, run_sweep
    from repro.batch import BatchOptions

    grid = SweepGrid(load_scales=tuple(args.loads),
                     youngs=tuple(args.youngs),
                     densify=tuple(args.densify))
    options = BatchOptions(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        strict=args.strict,
        cache_dir=args.cache_dir,
        ledger=args.ledger,
        profile=args.profile,
        series=args.series,
    )
    sweep, batch = run_sweep(args.deck, grid, args.out, options=options)
    if not args.quiet:
        print(batch.render_status())
        print(f"{len(sweep['scenarios'])} scenario(s); sweep manifest "
              f"written to {args.out / 'sweep_manifest.json'}")
    return batch.exit_code()


def _run_lint(args: argparse.Namespace) -> int:
    import json

    from repro.errors import LintError
    from repro.lint import all_rules, explain, lint_paths

    if args.explain:
        print(explain(args.explain), end="")
        return 0
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.severity:<7s}  {rule.title}")
        return 0
    if not args.decks:
        raise LintError("no decks given (or use --explain CODE / --list)")
    budget_bytes: Optional[float] = None
    if args.budget is not None:
        from repro.plan import parse_size
        budget_bytes = float(parse_size(args.budget))
    results = lint_paths(args.decks, recursive=args.recursive,
                         strict=args.strict,
                         budget_bytes=budget_bytes,
                         deadline_s=args.deadline)
    if args.format != "json":
        return _print_lint_text(results, args.quiet)
    n_errors = sum(len(r.errors) for r in results)
    print(json.dumps({
        "schema": "repro.lint/v1",
        "strict": args.strict,
        "budget_bytes": budget_bytes,
        "deadline_s": args.deadline,
        "summary": {
            "files": len(results),
            "clean": sum(1 for r in results if r.clean),
            "errors": n_errors,
            "warnings": sum(len(r.warnings) for r in results),
        },
        "files": [r.to_dict() for r in results],
    }, indent=2))
    return 1 if n_errors else 0


def _print_lint_text(results, quiet: bool) -> int:
    """Print lint results as text (diagnostics, then the summary unless
    ``quiet``); exit 1 when any deck has an error."""
    n_errors = sum(len(r.errors) for r in results)
    for result in results:
        for diagnostic in result.sorted_diagnostics():
            print(diagnostic.render())
    if not quiet:
        n_warnings = sum(len(r.warnings) for r in results)
        clean = sum(1 for r in results if r.clean)
        print(f"{len(results)} deck(s): {clean} clean, "
              f"{n_errors} error(s), {n_warnings} warning(s)")
    return 1 if n_errors else 0


def _run_plan(args: argparse.Namespace) -> int:
    import json

    from repro.plan import (
        format_bytes,
        load_calibration,
        parse_size,
        plan_paths,
        render_plan_text,
    )

    budget_bytes = (float(parse_size(args.budget))
                    if args.budget is not None else None)
    calibration = load_calibration(args.history) if args.history \
        else load_calibration()
    plans = plan_paths(args.decks, recursive=args.recursive,
                       calibration=calibration)
    violations = 0
    for plan in plans:
        if not plan.plannable:
            violations += 1
            continue
        if budget_bytes is not None and plan.peak_bytes > budget_bytes:
            violations += 1
        elif args.deadline is not None and plan.wall_s > args.deadline:
            violations += 1
    if args.format == "json":
        print(json.dumps({
            "schema": "repro.plan-report/v1",
            "budget_bytes": budget_bytes,
            "deadline_s": args.deadline,
            "violations": violations,
            "decks": [plan.to_dict() for plan in plans],
        }, indent=2))
    else:
        for plan in plans:
            print(render_plan_text(plan, verbose=args.verbose > 0))
            if not plan.plannable:
                continue
            if budget_bytes is not None and plan.peak_bytes > budget_bytes:
                print(f"  OVER BUDGET: predicted "
                      f"{format_bytes(plan.peak_bytes)} exceeds "
                      f"{format_bytes(budget_bytes)}")
            if args.deadline is not None and plan.wall_s > args.deadline:
                print(f"  OVER DEADLINE: predicted {plan.wall_s:.3f}s "
                      f"exceeds {args.deadline:g}s")
        if not args.quiet:
            plannable = sum(1 for p in plans if p.plannable)
            print(f"{len(plans)} deck(s): {plannable} plannable, "
                  f"{violations} violation(s)")
    return 1 if violations else 0


def _run_plan_check(args: argparse.Namespace) -> int:
    import json

    from repro.plan import (
        MEM_BAND,
        WALL_BAND,
        check_paths,
        load_calibration,
        render_check_text,
    )

    calibration = load_calibration(args.history) if args.history \
        else load_calibration()
    report = check_paths(
        args.decks, recursive=args.recursive, calibration=calibration,
        wall_band=(args.max_wall_error if args.max_wall_error is not None
                   else WALL_BAND),
        mem_band=(args.max_mem_error if args.max_mem_error is not None
                  else MEM_BAND),
    )
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_check_text(report))
    return 0 if report["ok"] else 1


def _run_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchOptions, discover_jobs, run_batch

    options = BatchOptions(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        strict=args.strict,
        cache_dir=args.cache_dir,
        lint=args.lint,
        plan=args.plan,
        ledger=args.ledger,
        profile=args.profile,
        series=args.series,
    )
    specs = discover_jobs(args.decks, args.out, strict=args.strict,
                          timeout_s=args.timeout)
    manifest = run_batch(specs, options, out_root=args.out)
    manifest_path = (args.manifest if args.manifest is not None
                     else args.out / "batch_manifest.json")
    manifest.save(manifest_path)
    if not args.quiet:
        print(manifest.render_status())
        print(f"manifest written to {manifest_path}")
        for record in manifest.failed_jobs():
            print(f"  see: python -m repro batch explain {manifest_path} "
                  f"{record['job_id']}")
    return manifest.exit_code()


def _run_batch_tools(args: argparse.Namespace) -> int:
    """The manifest-reading and corpus subcommands (no job execution)."""
    from repro.batch.manifest import BatchManifest

    if args.batch_command == "status":
        manifest = BatchManifest.load(args.manifest)
        print(manifest.render_status())
        return manifest.exit_code()
    if args.batch_command == "explain":
        manifest = BatchManifest.load(args.manifest)
        print(manifest.render_explain(args.job))
        return 0
    from repro.batch.corpus import dump_library

    written = dump_library(args.out)
    if not args.quiet:
        for name, path in written.items():
            print(f"{name:<24s} -> {path}")
        print(f"{len(written)} deck(s) under {args.out}/")
    return 0


def _load_trace(path: Path):
    """Assemble a trace from a saved run report *or* batch manifest.

    Returns ``(trace, kind)`` where ``kind`` is ``"manifest"`` or
    ``"report"`` -- callers that only make sense for one kind can say
    so, the exporters take either.
    """
    import json

    from repro.batch.manifest import SCHEMA as BATCH_SCHEMA
    from repro.batch.manifest import BatchManifest
    from repro.errors import ObsError
    from repro.obs.assemble import (
        assemble_batch_trace,
        assemble_report_trace,
    )
    from repro.obs.report import RunReport

    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and data.get("schema") == BATCH_SCHEMA:
        manifest = BatchManifest.from_dict(data)
        return assemble_batch_trace(manifest), "manifest"
    return assemble_report_trace(RunReport.from_dict(data)), "report"


def _run_obs(args: argparse.Namespace) -> int:
    from repro.obs.diff import (
        FORMATTERS,
        diff_reports,
        find_regressions,
        parse_threshold,
    )
    from repro.obs.report import RunReport

    if args.obs_command == "tail":
        from repro.obs.events import follow_events, render_event

        try:
            for record in follow_events(args.ledger, once=args.once):
                print(render_event(record), flush=True)
        except KeyboardInterrupt:
            pass
        return 0
    if args.obs_command == "top":
        from repro.obs.top import run_top

        try:
            return run_top(args.ledger, once=args.once,
                           refresh_s=args.refresh)
        except KeyboardInterrupt:
            return 0
    if args.obs_command == "bench":
        return _run_obs_bench(args)
    if args.obs_command == "export":
        from repro.obs.export import chrome_trace_json, folded_stacks

        trace, _kind = _load_trace(args.source)
        rendered = (chrome_trace_json(trace)
                    if args.format == "chrome" else folded_stacks(trace))
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(rendered + ("\n" if args.format == "chrome"
                                            else ""))
            print(f"{args.format} trace written to {args.out}")
        else:
            print(rendered, end="" if args.format == "folded" else "\n")
        return 0
    if args.obs_command == "timeline":
        from repro.obs.assemble import render_timeline

        trace, _kind = _load_trace(args.manifest)
        print(render_timeline(trace, width=args.width))
        return 0
    if args.obs_command == "diff":
        diff = diff_reports(RunReport.load(args.baseline),
                            RunReport.load(args.candidate))
        print(FORMATTERS[args.format](diff))
        return 0
    if args.obs_command == "check":
        threshold = parse_threshold(args.max_regression)
        diff = diff_reports(RunReport.load(args.against),
                            RunReport.load(args.report))
        kwargs = {}
        if args.min_wall is not None:
            kwargs["min_wall_s"] = args.min_wall
        problems = find_regressions(diff, max_regression=threshold,
                                    **kwargs)
        if problems:
            print(f"{len(problems)} regression(s) against {args.against} "
                  f"(threshold {args.max_regression}):", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"ok: no regressions against {args.against} "
              f"(threshold {args.max_regression})")
        return 0
    import json

    from repro.batch.manifest import SCHEMA as BATCH_SCHEMA
    from repro.errors import ObsError

    try:
        data = json.loads(args.report.read_text())
    except json.JSONDecodeError as exc:
        raise ObsError(
            f"{args.report} is not valid JSON: {exc}"
        ) from exc
    if isinstance(data, dict) and data.get("schema") == BATCH_SCHEMA:
        from repro.batch.manifest import BatchManifest
        from repro.obs.assemble import assemble_batch_trace, render_trace

        trace = assemble_batch_trace(BatchManifest.from_dict(data))
        print(render_trace(trace))
        return 0
    report = RunReport.from_dict(data)
    print(report.render_tree())
    if report.profile:
        print(report.render_profile())
    if report.resources:
        print(report.render_resources())
    if args.health:
        print(report.render_health_table())
    return 0


def _run_obs_bench(args: argparse.Namespace) -> int:
    """The ``obs bench record | trend | check`` family."""
    from repro.obs import history
    from repro.obs.diff import parse_threshold
    from repro.obs.report import RunReport

    if args.bench_command == "record":
        row = history.record_from_report(RunReport.load(args.report),
                                         git_sha=args.sha,
                                         note=args.note)
        path = history.append_record(args.history, row)
        rows, _ = history.load_history(path)
        print(f"recorded {len(row['stages'])} stage(s) "
              f"[{row.get('git_sha') or '?'}] -> {path} "
              f"({len(rows)} record(s))")
        return 0
    rows, truncated = history.load_history(args.history)
    if truncated:
        print(f"warning: {args.history} has a torn final line "
              "(ignored)", file=sys.stderr)
    kwargs = {"window": args.window,
              "max_drift": parse_threshold(args.max_drift)}
    if args.min_wall is not None:
        kwargs["min_wall_s"] = args.min_wall
    if args.bench_command == "trend":
        print(history.render_trend(
            rows, window=kwargs["window"],
            max_drift=kwargs["max_drift"],
            min_wall_s=kwargs.get("min_wall_s",
                                  history.DEFAULT_MIN_WALL_S)))
        return 0
    if len(rows) < 3:
        print(f"ok: only {len(rows)} record(s) in {args.history}; "
              "a trend needs at least 3")
        return 0
    creeping = history.detect_creep(rows, **kwargs)
    if creeping:
        print(f"{len(creeping)} stage(s) creeping over the last "
              f"{min(args.window, len(rows))} record(s) of "
              f"{args.history}:", file=sys.stderr)
        for trend in creeping:
            print(f"  {trend.describe()}", file=sys.stderr)
        return 1
    print(f"ok: no creep over the last "
          f"{min(args.window, len(rows))} record(s) of {args.history}")
    return 0


def _save_folded(report, report_path: Path, quiet: bool) -> None:
    """Drop the flamegraph-ready folded stacks next to a --profile
    report (``run.json`` gets ``run.folded``)."""
    from repro.obs.assemble import assemble_report_trace
    from repro.obs.export import folded_stacks

    try:
        folded = folded_stacks(assemble_report_trace(report))
    except ReproError:
        return  # a spanless run has no stacks worth writing
    folded_path = report_path.with_suffix(".folded")
    try:
        folded_path.write_text(folded)
    except OSError as exc:
        print(f"error: cannot write folded stacks to {folded_path}: "
              f"{exc}", file=sys.stderr)
        return
    if not quiet:
        print(f"folded stacks written to {folded_path}")


#: Commands whose bare form is sugar for ``<command> run ...``, mapped
#: to the subcommand names that suppress the rewrite.
_RUN_SUGAR = {"analyze": ("run", "sweep"), "plan": ("run", "check")}


def _normalize_argv(argv: List[str]) -> List[str]:
    """``repro analyze DECK`` is sugar for ``repro analyze run DECK``.

    When the command is ``analyze`` (or ``plan``) and no explicit
    subcommand follows, insert ``run`` right after it so the common
    case reads like ``idlz``/``ospl``.  A bare ``repro analyze
    [--help]`` is left alone so argparse can print the subcommand help.
    """
    positionals = [i for i, arg in enumerate(argv)
                   if not arg.startswith("-")]
    if not positionals or argv[positionals[0]] not in _RUN_SUGAR:
        return argv
    if len(positionals) < 2:
        return argv
    subcommands = _RUN_SUGAR[argv[positionals[0]]]
    following = [argv[i] for i in positionals[1:]]
    if any(name in following for name in subcommands):
        return argv
    patched = list(argv)
    patched.insert(positionals[0] + 1, "run")
    return patched


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_normalize_argv(argv))
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # A downstream consumer (`... | head`) closed the pipe early;
        # that is not an error.  Point stdout at devnull so the
        # interpreter's shutdown flush does not complain either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "obs":
        try:
            return _run_obs(args)
        except (ReproError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "batch" and args.batch_command != "run":
        try:
            return _run_batch_tools(args)
        except (ReproError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    _configure_logging(args.verbose, args.quiet)
    observer = (obs.enable(obs.Observer(profile=args.profile))
                if (args.trace or args.health or args.profile
                    or args.report is not None)
                else None)
    try:
        if args.command == "idlz":
            return _run_idlz(args)
        if args.command == "analyze":
            if args.analyze_command == "sweep":
                return _run_analyze_sweep(args)
            return _run_analyze(args)
        if args.command == "lint":
            return _run_lint(args)
        if args.command == "plan":
            if args.plan_command == "check":
                return _run_plan_check(args)
            return _run_plan(args)
        if args.command == "batch":
            return _run_batch(args)
        return _run_ospl(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if observer is not None:
            report = observer.report(
                command=args.command,
                deck=str(getattr(args, "deck", "") or
                         " ".join(getattr(args, "decks", []))),
                strict=bool(getattr(args, "strict", False)),
            )
            if args.trace:
                print(report.render_tree(), file=sys.stderr)
            if args.health:
                print(report.render_health_table(), file=sys.stderr)
            if args.profile and report.profile:
                # batch runs profile inside the workers; their tables
                # ride in the manifest, not the coordinator's report.
                print(report.render_profile(), file=sys.stderr)
            if args.report is not None:
                try:
                    report.save(args.report)
                except OSError as exc:
                    print(f"error: cannot write report to {args.report}: "
                          f"{exc}", file=sys.stderr)
                else:
                    if args.profile:
                        _save_folded(report, args.report, args.quiet)
                    if not args.quiet:
                        print(f"run report written to {args.report}")
            obs.disable(observer)


if __name__ == "__main__":
    sys.exit(main())
