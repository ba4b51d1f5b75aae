"""Experiment F12 -- Figure 12: the worked contouring example.

"Triangle ABC ... Assuming an interval of 10 between lines, and beginning
with 10, it is seen that lines of value 10, 20, and 30 pass through ABC.
Linear interpolation results in the plot shown in Figure 12b."

We regenerate the plot and verify levels, per-level segment counts and
the interpolated endpoints.
"""

import numpy as np

from common import report, save_frame

from repro.core.ospl import conplt, contour_mesh
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField


def make_triangle():
    nodes = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
    field = NodalField("S", np.array([5.0, 35.0, 17.0]))
    return mesh, field


def test_fig12_triangle_contours(benchmark):
    mesh, field = make_triangle()
    contours = benchmark(contour_mesh, mesh, field, 10.0)
    plot = conplt(mesh, field, title="TRIANGLE ABC", interval=10.0)
    save_frame("fig12", plot.frame)

    levels = contours.nonempty_levels()
    report("F12 triangle contours", {
        "paper levels": "[10, 20, 30]",
        "measured levels": levels,
        "segments per level":
            {lv: len(contours.segments_at(lv)) for lv in levels},
    })
    assert levels == [10.0, 20.0, 30.0]
    assert all(len(contours.segments_at(lv)) == 1 for lv in levels)
    # The 10-contour crosses edge AB at x where 5 + 30 x/6 = 10 -> x = 1.
    xs = sorted(contours.segments_at(10.0).points[0, :, 0].tolist())
    assert min(xs) == 1.0 or abs(min(xs) - 1.0) < 1e-9
