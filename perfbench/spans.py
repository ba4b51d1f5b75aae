"""Span arithmetic: self times, wall attribution and per-layer totals.

A span is ``(name, start, end, parent)`` on one process's clock
(``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and so shared
by every process of an op).  Within one process spans nest; across
processes (batch pool workers) they overlap.

``segments`` gives each span its self time -- its duration minus the
union of its children's intervals -- as pieces of the timeline.
``attribute_wall`` builds on it: every instant of an op's wall clock goes
to exactly one layer (or is split evenly between layers that were busy at
the same instant in different processes), so the per-layer totals plus
``unattributed`` add up to the wall exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: Layer name for time no recorded span claims.
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int = -1          # index into the same track, -1 = root
    layer: Optional[str] = None  # None: time belongs to no layer

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def segments(track: Sequence[Span]) -> List[Tuple[float, float, str]]:
    """Cut one nested track into ``(start, end, layer)`` pieces.

    Each instant goes to the deepest span covering it; a span without a
    layer passes its instants to ``unattributed``.  Children are clipped
    to their parent, and a child that overlaps an earlier sibling (which
    one thread never produces) starts where that sibling ended, so no
    instant is counted twice.
    """
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(track):
        children.setdefault(span.parent, []).append(i)
    out: List[Tuple[float, float, str]] = []

    def walk(index: int, lo: float, hi: float) -> None:
        layer = track[index].layer or UNATTRIBUTED
        cursor = lo
        for child in sorted(children.get(index, []),
                            key=lambda c: track[c].start):
            c_lo = max(track[child].start, cursor)
            c_hi = min(track[child].end, hi)
            if c_hi <= c_lo:
                continue
            if c_lo > cursor:
                out.append((cursor, c_lo, layer))
            walk(child, c_lo, c_hi)
            cursor = c_hi
        if hi > cursor:
            out.append((cursor, hi, layer))

    cursor = float("-inf")
    for root in sorted(children.get(-1, []), key=lambda r: track[r].start):
        lo = max(track[root].start, cursor)
        if track[root].end > lo:
            walk(root, lo, track[root].end)
            cursor = track[root].end
    return out


def attribute_wall(wall: Interval, main: Sequence[Span],
                   workers: Sequence[Sequence[Span]] = (),
                   wait_layer: str = "batch.pool_wait") -> Dict[str, float]:
    """Split the op's wall ``[t0, t1]`` between layers, exactly.

    Main-track pieces claim their time.  Pieces of the main track whose
    layer is ``wait_layer`` (the coordinator blocked on its pool) are
    handed to whatever the workers were doing at that instant, split
    evenly among busy workers; instants with no busy worker stay with
    ``wait_layer``.  Time no main-track span covers is ``unattributed``.
    The result's values sum to ``t1 - t0``.
    """
    t0, t1 = wall
    totals: Dict[str, float] = {}

    def add(layer: str, amount: float) -> None:
        if amount > 0.0:
            totals[layer] = totals.get(layer, 0.0) + amount

    worker_pieces = [p for track in workers for p in segments(track)]
    covered = 0.0
    for lo, hi, layer in segments(main):
        lo, hi = max(lo, t0), min(hi, t1)
        if hi <= lo:
            continue
        covered += hi - lo
        if layer != wait_layer or not worker_pieces:
            add(layer, hi - lo)
            continue
        for layer2, amount in _overlay(lo, hi, worker_pieces).items():
            add(layer2 or wait_layer, amount)
    add(UNATTRIBUTED, (t1 - t0) - covered)
    return totals


def _overlay(lo: float, hi: float,
             pieces: Sequence[Tuple[float, float, str]]
             ) -> Dict[str, float]:
    """Split ``[lo, hi]`` evenly among the pieces busy at each instant.

    Instants with no busy piece go to the empty-string key.
    """
    events: List[Tuple[float, int, str]] = []
    for a, b, layer in pieces:
        a, b = max(a, lo), min(b, hi)
        if b > a:
            events.append((a, 1, layer))
            events.append((b, -1, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    out: Dict[str, float] = {}
    active: Dict[str, int] = {}
    busy = 0
    prev = lo
    for t, step, layer in events + [(hi, 0, "")]:
        if t > prev:
            if busy == 0:
                out[""] = out.get("", 0.0) + (t - prev)
            else:
                for name, n in active.items():
                    out[name] = out.get(name, 0.0) + (t - prev) * n / busy
            prev = t
        if step:
            active[layer] = active.get(layer, 0) + step
            if active[layer] == 0:
                del active[layer]
            busy += step
    return out
