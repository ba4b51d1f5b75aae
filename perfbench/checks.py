"""Output checks, run on each op's artifacts after the timed window.

Every check returns an error string ("" when the output is right).  The
expected values come from the deck generator's closed-form counts, never
from the program under test.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SVG_NS = "{http://www.w3.org/2000/svg}"

#: Relative tolerance between the banded and the sparse solve.
SOLVER_RTOL = 1e-6

_OSPL_LINE = re.compile(r"interval (\S+), (\d+) levels, (\d+) segments")


def idlz_listing(out_dir: Path, counts: Dict[str, int]) -> str:
    listing = out_dir / "problem_1.listing.txt"
    try:
        text = listing.read_text()
    except OSError:
        return f"no listing at {listing.name}"
    found = {}
    for key, label in (("nodes", "NUMBER OF NODES"),
                       ("elements", "NUMBER OF ELEMENTS")):
        m = re.search(label + r"\s+(\d+)", text)
        if not m:
            return f"listing has no '{label}' line"
        found[key] = int(m.group(1))
        if found[key] != counts[key]:
            return f"listing {key} {found[key]} != expected {counts[key]}"
    return ""


def ospl_svg(svg: Path, stdout: str, counts: Dict[str, int]) -> str:
    """The SVG parses; one isogram per non-empty level; strokes add up.

    The program draws isograms as plotter vectors (``<line>``), so the
    check counts vectors: boundary edges (closed form) plus the
    segments the run reports, and at least one segment per level.
    """
    m = _OSPL_LINE.search(stdout)
    if not m:
        return "ospl printed no 'interval, levels, segments' summary"
    levels, n_segments = int(m.group(2)), int(m.group(3))
    if levels != counts["levels"]:
        return f"{levels} levels != expected {counts['levels']}"
    if n_segments < levels:
        return f"{n_segments} segments cannot cover {levels} levels"
    try:
        root = ET.parse(svg).getroot()
    except (OSError, ET.ParseError) as exc:
        return f"svg does not parse: {exc}"
    lines = sum(1 for _ in root.iter(SVG_NS + "line"))
    expected = counts["boundary_edges"] + n_segments
    if lines != expected:
        return f"svg has {lines} vectors, expected {expected}"
    return ""


def analyze_summary(out_dir: Path, counts: Dict[str, int]
                    ) -> Tuple[str, Optional[Dict[str, float]]]:
    """Read the manifest summary and check its mesh counts."""
    try:
        manifest = json.loads((out_dir / "analyze_manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return f"no readable analyze manifest: {exc}", None
    summary = manifest.get("summary") or {}
    for key in ("nodes", "elements"):
        if summary.get(key) != counts[key]:
            return (f"analyze {key} {summary.get(key)} != expected "
                    f"{counts[key]}", None)
    for plot in manifest.get("artifacts", []):
        if plot.endswith(".svg"):
            try:
                ET.parse(out_dir / plot)
            except (OSError, ET.ParseError) as exc:
                return f"isogram {plot} does not parse: {exc}", None
    return "", {k: float(summary[k]) for k in
                ("max_displacement", "max_effective_stress")}


def solver_agreement(banded: Dict[str, float],
                     sparse: Dict[str, float]) -> str:
    for key, ref in sparse.items():
        got = banded[key]
        if abs(got - ref) > SOLVER_RTOL * max(abs(ref), 1e-300):
            return (f"{key}: banded {got!r} vs sparse {ref!r} "
                    f"(rtol {SOLVER_RTOL:g})")
    return ""


def lint_clean(stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except ValueError:
        return "lint printed no JSON report"
    errors = report.get("summary", {}).get("errors")
    if errors != 0:
        return f"lint found {errors} error(s)"
    return ""


def plan_counts(stdout: str, counts: Dict[str, int]) -> str:
    try:
        report = json.loads(stdout)
    except ValueError:
        return "plan printed no JSON report"
    decks = report.get("decks") or [{}]
    deck = decks[0]
    if not deck.get("plannable"):
        return f"deck unplannable: {deck.get('reason')}"
    totals = deck.get("totals") or {}
    for key in ("nodes", "elements"):
        if totals.get("n_" + key) != counts[key]:
            return (f"plan n_{key} {totals.get('n_' + key)} != expected "
                    f"{counts[key]}")
    return ""


def batch_manifest(path: Path, expect_hit: Dict[str, bool]) -> str:
    """Every job ok; unedited decks are whole-deck hits, edited ones miss."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"no readable batch manifest: {exc}"
    jobs = {job["job_id"]: job for job in manifest.get("jobs", [])}
    if set(jobs) != set(expect_hit):
        return f"manifest has {len(jobs)} jobs, expected {len(expect_hit)}"
    for job_id, hit in expect_hit.items():
        job = jobs[job_id]
        if job.get("status") != "ok":
            return f"job {job_id} status {job.get('status')}"
        if (job.get("cache") == "hit") != hit:
            return (f"job {job_id} cache {job.get('cache')}, expected "
                    f"{'hit' if hit else 'miss'}")
    return ""


def same_artifacts(got: Path, ref: Path) -> str:
    """Byte-identical artifacts, manifests aside (they carry paths)."""
    def listing(root: Path) -> List[str]:
        return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                      if p.is_file() and not p.name.endswith("manifest.json"))

    names = listing(got)
    if names != listing(ref):
        return f"artifact sets differ: {names} vs {listing(ref)}"
    for name in names:
        if (got / name).read_bytes() != (ref / name).read_bytes():
            return f"artifact {name} differs from a cold cache-free run"
    if not names:
        return "no artifacts"
    return ""
