"""Why IDLZ renumbers: bandwidth vs banded-solver cost.

Run:  python examples/bandwidth_study.py

"Since the size of the coefficient matrix bandwidth ... is directly
related to the numbering scheme used here, a more than arbitrary scheme
is usually necessary."  This study quantifies that sentence on every
library structure: the node bandwidth of the convenience numbering vs the
renumbered mesh, and the band-Cholesky factor time for each, on the real
assembled stiffness (assembly untimed; the best of 50 factors).
"""

from __future__ import annotations

import time

from repro import AnalysisType
from repro.fem.assembly import assemble_banded
from repro.fem.bandwidth import mesh_bandwidth
from repro.structures import STRUCTURES


def factor_seconds(mesh, materials, analysis_type: str,
                   repeats: int = 50) -> float:
    matrix = assemble_banded(mesh, materials, analysis_type)
    # Regularise the diagonal so the unconstrained stiffness factors;
    # the shift is physically meaningless but identical across orderings.
    shift = 1e-3 * max(matrix.band[0].max(), 1.0)
    matrix.band[0] += shift
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        matrix.cholesky()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    header = (f"{'structure':24s} {'n':>5s} {'bw(raw)':>8s} "
              f"{'bw(rcm)':>8s} {'t(raw)':>9s} {'t(rcm)':>9s} {'speedup':>8s}")
    print(header)
    print("-" * len(header))
    for name, builder in STRUCTURES.items():
        case = builder()
        raw = case.build(renumber=False)
        rcm = case.build(renumber=True)
        kind = case.analysis_type.value
        materials_raw = raw.group_materials
        materials_rcm = rcm.group_materials
        t_raw = factor_seconds(raw.mesh, materials_raw, kind)
        t_rcm = factor_seconds(rcm.mesh, materials_rcm, kind)
        print(f"{name:24s} {raw.mesh.n_nodes:5d} "
              f"{mesh_bandwidth(raw.mesh):8d} {mesh_bandwidth(rcm.mesh):8d} "
              f"{t_raw * 1e3:8.3f}ms {t_rcm * 1e3:8.3f}ms "
              f"{t_raw / t_rcm:7.2f}x")


if __name__ == "__main__":
    main()
