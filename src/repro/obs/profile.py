"""Per-stage cProfile hotspots: where inside a stage the time goes.

Spans place the cost at stage granularity ("``idlz.reform`` took
228 ms"); the profiler answers the next question — *which functions
inside the stage* — without anyone re-running under an external tool.
With ``--profile`` the stage-pipeline runner wraps each stage body in
:class:`cProfile.Profile` and files the result here as a **hotspot
table**: the top-N functions by cumulative time, as plain dicts that
serialise into the ``profile`` section of a ``repro.obs/v1.3`` run
report.

A stage that runs more than once per observation (one problem after
another in a multi-problem deck) accumulates: tables for the same stage
are merged per function, so the report shows one table per stage
whatever the deck's NSET was.

Profiling is opt-in and orthogonal to spans/metrics: the
:class:`~repro.obs.Observer` carries a ``profile`` flag, the runner
checks ``obs.profiling()``, and everything here is stdlib-only.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
from typing import Any, Dict, List

#: Hotspot rows kept per stage table (by cumulative time).
TOP_N = 15


def hotspot_table(profiler: cProfile.Profile,
                  top_n: int = TOP_N) -> List[Dict[str, Any]]:
    """The top-N functions of one profile, by cumulative time.

    Each row is JSON-safe::

        {"func": "reform.py:41(reform_elements)",
         "ncalls": 1, "tottime": 0.182, "cumtime": 0.221}

    ``func`` keeps only the file basename so tables are stable across
    checkouts; the profiler's own bookkeeping frames are dropped.
    """
    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    for (filename, lineno, funcname), (cc, nc, tottime, cumtime, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        if funcname in ("<built-in method builtins.exec>",) or \
                "_lsprof" in filename:
            continue
        basename = filename.rsplit("/", 1)[-1].rsplit("\\", 1)[-1]
        label = (f"{basename}:{lineno}({funcname})"
                 if lineno else f"{basename}({funcname})")
        rows.append({
            "func": label,
            "ncalls": int(nc),
            "tottime": round(float(tottime), 6),
            "cumtime": round(float(cumtime), 6),
        })
    rows.sort(key=lambda r: (-r["cumtime"], r["func"]))
    return rows[:top_n]


def merge_tables(a: List[Dict[str, Any]], b: List[Dict[str, Any]],
                 top_n: int = TOP_N) -> List[Dict[str, Any]]:
    """Fold two hotspot tables into one, summing per function."""
    merged: Dict[str, Dict[str, Any]] = {}
    for row in list(a) + list(b):
        slot = merged.get(row["func"])
        if slot is None:
            merged[row["func"]] = dict(row)
        else:
            slot["ncalls"] += row["ncalls"]
            slot["tottime"] = round(slot["tottime"] + row["tottime"], 6)
            slot["cumtime"] = round(slot["cumtime"] + row["cumtime"], 6)
    rows = sorted(merged.values(),
                  key=lambda r: (-r["cumtime"], r["func"]))
    return rows[:top_n]


class ProfileLog:
    """Thread-safe per-stage hotspot tables, merged as stages repeat."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[str, List[Dict[str, Any]]] = {}

    def record(self, stage: str, table: List[Dict[str, Any]]) -> None:
        with self._lock:
            existing = self._tables.get(stage)
            self._tables[stage] = (merge_tables(existing, table)
                                   if existing else list(table))

    def __len__(self) -> int:
        return len(self._tables)

    def to_dict(self) -> Dict[str, List[Dict[str, Any]]]:
        with self._lock:
            return {name: [dict(row) for row in rows]
                    for name, rows in sorted(self._tables.items())}


def render_profile(profile: Dict[str, List[Dict[str, Any]]],
                   top_n: int = 5) -> str:
    """A human-readable hotspot table (the CLI's ``--profile`` output)."""
    if not profile:
        return "profile: no stages profiled"
    lines: List[str] = ["per-stage hotspots (cumulative)"]
    for stage, rows in profile.items():
        lines.append(f"  {stage}")
        for row in rows[:top_n]:
            lines.append(
                f"    {row['cumtime'] * 1000.0:8.2f}ms "
                f"{row['ncalls']:>7d}x  {row['func']}"
            )
    return "\n".join(lines)
