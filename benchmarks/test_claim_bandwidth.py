"""Experiment C2 -- the bandwidth claim.

"Since the size of the coefficient matrix bandwidth, which is obtained
subsequently in the finite element analysis, is directly related to the
numbering scheme used here, a more than arbitrary scheme is usually
necessary.  Therefore, if the user desires, the numbering scheme of
Reference 2 is applied to ensure a narrow bandwidth."

Measured: node bandwidth before/after renumbering for every library
structure, plus the band-Cholesky factor time of the real assembled
stiffness under both numberings (the solver cost is O(n b^2), so the
speedup tracks the squared bandwidth ratio).  Only the factor is timed:
assembly happens once, outside the clock, and each time is the minimum
of many repeats so a sub-millisecond LAPACK factor still resolves.
"""

import time

from common import report

from repro.fem.assembly import assemble_banded
from repro.fem.bandwidth import mesh_bandwidth
from repro.structures import STRUCTURES

#: Factor repeats per numbering; the minimum is reported.
REPEATS = 50


def shifted_stiffness(mesh, materials, analysis_type):
    """The assembled band, diagonal-shifted so the free structure factors."""
    matrix = assemble_banded(mesh, materials, analysis_type)
    matrix.band[0] += 1e-3 * max(matrix.band[0].max(), 1.0)
    return matrix


def factor_seconds(matrix):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        matrix.cholesky()
        best = min(best, time.perf_counter() - start)
    return best


def test_claim_bandwidth_reduction(benchmark):
    rows = {}
    best = None
    for name, builder in STRUCTURES.items():
        case = builder()
        raw = case.build(renumber=False)
        rcm = case.build(renumber=True)
        bw_raw = mesh_bandwidth(raw.mesh)
        bw_rcm = mesh_bandwidth(rcm.mesh)
        rows[name] = f"{bw_raw} -> {bw_rcm}"
        if best is None or bw_raw - bw_rcm > best[1] - best[2]:
            best = (case, bw_raw, bw_rcm, raw, rcm)
        assert bw_rcm <= bw_raw, name

    case, bw_raw, bw_rcm, raw, rcm = best
    kind = case.analysis_type.value
    k_raw = shifted_stiffness(raw.mesh, raw.group_materials, kind)
    k_rcm = shifted_stiffness(rcm.mesh, rcm.group_materials, kind)
    benchmark(k_rcm.cholesky)

    t_raw = factor_seconds(k_raw)
    t_rcm = factor_seconds(k_rcm)
    report("C2 bandwidth reduction", {
        "paper claim": "renumbering ensures a narrow bandwidth",
        "node bandwidth per structure": rows,
        "biggest win": f"{case.name}: {bw_raw} -> {bw_rcm}",
        "band factor time raw -> rcm":
            f"{1e3 * t_raw:.3f} ms -> {1e3 * t_rcm:.3f} ms "
            f"({t_raw / t_rcm:.2f}x)",
    })
    assert t_rcm <= t_raw * 1.05
