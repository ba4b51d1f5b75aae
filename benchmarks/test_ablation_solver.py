"""Ablation: era-authentic banded Cholesky vs skyline vs scipy sparse.

The banded solver is what the renumbering pass optimises; the skyline
solver pays per-column envelope instead of a fixed band; scipy's sparse
LU is the numbering-insensitive modern baseline.  This ablation confirms
(a) identical displacements across all three, and (b) the storage trade:
the skyline envelope never exceeds the band's storage on these meshes.
"""

import time

import numpy as np

from common import report

from repro.fem.assembly import assemble_banded
from repro.fem.skyline import assemble_skyline
from repro.fem.solve import AnalysisType, StaticAnalysis
from repro.structures import STRUCTURES


def make_analysis(built):
    mesh = built.mesh
    an = StaticAnalysis(mesh, built.group_materials,
                        AnalysisType.AXISYMMETRIC)
    an.loads.add_edge_pressure_axisym(mesh, built.path_edges("outer"),
                                      100.0)
    for n in built.path_nodes("bottom"):
        an.constraints.fix(n, 1)
    for n in built.path_nodes("top"):
        an.constraints.fix(n, 1)
    return an


def test_ablation_solver(benchmark):
    case = STRUCTURES["glass_joint"]()
    built = case.build()
    analysis = make_analysis(built)

    banded = benchmark(analysis.solve, "banded")
    sparse = analysis.solve(solver="sparse")
    agree = bool(np.allclose(banded.displacements, sparse.displacements,
                             rtol=1e-8, atol=1e-12))

    # Skyline path, solved by hand through the same constraints.
    mesh = built.mesh
    sky = assemble_skyline(mesh, built.group_materials, "axisymmetric")
    rhs = analysis.loads.vector(mesh.n_nodes)
    part = analysis.constraints.partition(mesh.n_nodes)
    sky.constrain(part.fixed, part.values, rhs)
    sky_x = sky.solve(rhs)
    sky_agree = bool(np.allclose(sky_x, banded.displacements,
                                 rtol=1e-8, atol=1e-12))

    band = assemble_banded(mesh, built.group_materials, "axisymmetric")
    band_storage = band.hb * band.n
    envelope = sky.profile()

    def timed(solver):
        start = time.perf_counter()
        analysis.solve(solver=solver)
        return time.perf_counter() - start

    t_banded = min(timed("banded") for _ in range(3))
    t_sparse = min(timed("sparse") for _ in range(3))
    report("ablation: banded vs skyline vs sparse solver", {
        "banded == sparse": agree,
        "skyline == banded": sky_agree,
        "banded solve": f"{1e3 * t_banded:.1f} ms",
        "scipy sparse solve": f"{1e3 * t_sparse:.1f} ms",
        "band storage / skyline envelope":
            f"{band_storage} / {envelope} off-diagonal entries",
        "note": "banded cost is O(n b^2): it is what renumbering buys",
    })
    assert agree and sky_agree
    assert envelope <= band_storage
