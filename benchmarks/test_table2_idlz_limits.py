"""Experiment T2 -- Table 2: numerical restrictions of program IDLZ.

    Total number of subdivisions allowed ............ 50
    Total number of elements allowed ............... 850
    Total number of nodes allowed .................. 500
    Maximum horizontal / vertical integer coordinate  40 / 60

We idealize a structure at the node limit in strict mode, time it, and
verify rejection one step past each restriction.
"""

import pytest

from common import report

from repro.core.idlz import (
    Idealizer,
    ShapingSegment,
    Subdivision,
)
from repro.errors import LimitError


def at_limit_problem():
    # A 10 x 50 lattice: exactly 500 nodes, 9 * 49 * 2 = 882 elements
    # would bust the 850 element cap, so use 9 x 50 = 450 nodes with
    # 8 * 49 * 2 = 784 elements -- the largest structured block that
    # satisfies *both* caps, as a 1970 user had to find.
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=9, ll2=50)
    segments = [
        ShapingSegment(1, 1, 1, 9, 1, 0.0, 0.0, 4.0, 0.0),
        ShapingSegment(1, 1, 50, 9, 50, 0.0, 30.0, 4.0, 30.0),
    ]
    return sub, segments


def test_table2_idlz_at_limits(benchmark):
    sub, segments = at_limit_problem()

    def run():
        return Idealizer("AT TABLE 2 LIMITS", [sub],
                         strict=True).run(segments)

    ideal = benchmark(run)
    report("T2 IDLZ limits", {
        "paper limits": "50 subdvns / 850 elements / 500 nodes / 40x60",
        "at-limit mesh (nodes / elements)":
            f"{ideal.n_nodes} / {ideal.n_elements}",
        "bandwidth after renumbering": ideal.bandwidth_after,
    })
    assert ideal.n_nodes <= 500
    assert ideal.n_elements <= 850


def test_table2_element_cap_rejected():
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=10, ll2=50)
    with pytest.raises(LimitError):
        Idealizer("TOO MANY", [sub], strict=True).run([])


def test_table2_grid_extent_rejected():
    wide = Subdivision(index=1, kk1=1, ll1=1, kk2=41, ll2=2)
    with pytest.raises(LimitError, match="horizontal"):
        Idealizer("TOO WIDE", [wide], strict=True).run([])
    tall = Subdivision(index=1, kk1=1, ll1=1, kk2=2, ll2=61)
    with pytest.raises(LimitError, match="vertical"):
        Idealizer("TOO TALL", [tall], strict=True).run([])


def test_table2_subdivision_cap_rejected():
    subs = [Subdivision(index=i, kk1=1, ll1=i, kk2=2, ll2=i + 1)
            for i in range(1, 52)]
    with pytest.raises(LimitError, match="subdivisions"):
        Idealizer("TOO MANY SUBDVNS", subs, strict=True).run([])
