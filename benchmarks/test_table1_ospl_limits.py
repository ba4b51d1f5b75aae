"""Experiment T1 -- Table 1: numerical restrictions of program OSPL.

    Total number of elements allowed .............. 1000
    Total number of points data may be given ....... 800

We contour a mesh sitting exactly at both limits (800 nodes is the
binding constraint for a structured grid), verify strict-mode rejection
one past each limit, and time the at-limit plot.
"""

import numpy as np
import pytest

from common import report

from repro.core.ospl import conplt
from repro.errors import LimitError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField


def strip_mesh(n_nodes_per_row: int, rows: int) -> Mesh:
    nodes = []
    for j in range(rows):
        for i in range(n_nodes_per_row):
            nodes.append([float(i), float(j)])
    elements = []
    for j in range(rows - 1):
        for i in range(n_nodes_per_row - 1):
            a = j * n_nodes_per_row + i
            b = a + 1
            c = a + n_nodes_per_row + 1
            d = a + n_nodes_per_row
            elements.append([a, b, c])
            elements.append([a, c, d])
    return Mesh(nodes=np.array(nodes), elements=np.array(elements))


def test_table1_ospl_at_limits(benchmark):
    # 400 x 2 grid: exactly 800 nodes, 798 elements (within 1000).
    mesh = strip_mesh(400, 2)
    field = NodalField("S", mesh.nodes[:, 0])
    assert mesh.n_nodes == 800

    plot = benchmark(conplt, mesh, field, "AT TABLE 1 LIMITS", "",
                     None, None, None, True)
    report("T1 OSPL limits", {
        "paper limits (nodes / elements)": "800 / 1000",
        "mesh at limit (nodes / elements)":
            f"{mesh.n_nodes} / {mesh.n_elements}",
        "isogram segments": plot.n_segments(),
    })
    assert plot.n_segments() > 0


def test_table1_node_limit_rejected_past_800():
    mesh = strip_mesh(401, 2)  # 802 nodes
    field = NodalField("S", mesh.nodes[:, 0])
    with pytest.raises(LimitError, match="nodes"):
        conplt(mesh, field, strict=True)


def test_table1_element_limit_rejected_past_1000():
    mesh = strip_mesh(252, 3)  # 756 nodes but 1004 elements
    assert mesh.n_elements > 1000
    field = NodalField("S", mesh.nodes[:, 0])
    with pytest.raises(LimitError, match="elements"):
        conplt(mesh, field, strict=True)
