"""Unit tests for bandwidth metrics and Cuthill-McKee renumbering.

networkx's RCM implementation is used as an independent cross-check of
bandwidth quality (not of the exact ordering -- tie-breaks differ).
"""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.fem.bandwidth import (
    cuthill_mckee,
    matrix_bandwidth_for_dofs,
    mesh_bandwidth,
    profile,
    renumber_mesh,
    reverse_cuthill_mckee,
)
from repro.fem.mesh import Mesh


def path_mesh(n: int, shuffle_seed: int = None) -> Mesh:
    """A strip of triangles whose natural numbering may be shuffled."""
    nodes = []
    for i in range(n):
        nodes.append([float(i), 0.0])
        nodes.append([float(i), 1.0])
    elements = []
    for i in range(n - 1):
        a, b = 2 * i, 2 * (i + 1)
        c, d = 2 * (i + 1) + 1, 2 * i + 1
        elements.append([a, b, c])
        elements.append([a, c, d])
    mesh = Mesh(nodes=np.array(nodes), elements=np.array(elements))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        perm = rng.permutation(mesh.n_nodes).tolist()
        mesh = mesh.renumbered(perm)
    return mesh


class TestMetrics:
    def test_bandwidth_of_strip(self):
        mesh = path_mesh(5)
        assert mesh_bandwidth(mesh) == 3

    def test_bandwidth_empty_mesh(self):
        mesh = Mesh(nodes=np.zeros((3, 2)), elements=np.zeros((0, 3), int))
        assert mesh_bandwidth(mesh) == 0

    def test_matrix_bandwidth_for_dofs(self):
        assert matrix_bandwidth_for_dofs(3, 2) == 7
        assert matrix_bandwidth_for_dofs(0, 2) == 1
        assert matrix_bandwidth_for_dofs(3, 1) == 3

    def test_profile_positive(self):
        assert profile(path_mesh(5)) > 0

    def test_shuffled_mesh_has_larger_bandwidth(self):
        tidy = path_mesh(20)
        messy = path_mesh(20, shuffle_seed=1)
        assert mesh_bandwidth(messy) > mesh_bandwidth(tidy)


class TestCuthillMckee:
    def test_order_is_permutation(self):
        mesh = path_mesh(10, shuffle_seed=3)
        order = cuthill_mckee(mesh)
        assert sorted(order) == list(range(mesh.n_nodes))

    def test_rcm_perm_is_bijection(self):
        mesh = path_mesh(10, shuffle_seed=3)
        perm = reverse_cuthill_mckee(mesh)
        assert sorted(perm) == list(range(mesh.n_nodes))

    def test_rcm_recovers_narrow_band_on_shuffled_strip(self):
        messy = path_mesh(25, shuffle_seed=7)
        rcm = renumber_mesh(messy, "rcm")
        assert mesh_bandwidth(rcm) <= 3

    def test_cm_variant(self):
        messy = path_mesh(15, shuffle_seed=2)
        cm = renumber_mesh(messy, "cm")
        assert mesh_bandwidth(cm) <= mesh_bandwidth(messy)

    def test_unknown_method_rejected(self):
        with pytest.raises(MeshError):
            renumber_mesh(path_mesh(3), "amd")

    def test_explicit_start_node(self):
        mesh = path_mesh(8)
        order = cuthill_mckee(mesh, start=0)
        assert order[0] == 0

    def test_invalid_start_rejected(self):
        with pytest.raises(MeshError):
            cuthill_mckee(path_mesh(3), start=99)

    def test_disconnected_mesh_handled(self):
        # Two separate triangles.
        nodes = np.array([[0, 0], [1, 0], [0, 1],
                          [10, 10], [11, 10], [10, 11]], float)
        elements = np.array([[0, 1, 2], [3, 4, 5]])
        mesh = Mesh(nodes=nodes, elements=elements)
        perm = reverse_cuthill_mckee(mesh)
        assert sorted(perm) == list(range(6))

    def test_isolated_nodes_numbered_last_in_cm(self):
        nodes = np.array([[0, 0], [1, 0], [0, 1], [5, 5]], float)
        elements = np.array([[0, 1, 2]])
        mesh = Mesh(nodes=nodes, elements=elements)
        order = cuthill_mckee(mesh)
        assert order[-1] == 3

    def test_tied_degrees_break_to_the_lowest_index(self):
        # Two squares, each split by one diagonal, plus an isolated node.
        # Square Y = {0, 2, 5, 6} holds the lowest node, so it is swept
        # first; in each square both diagonal-free corners have degree
        # 2, so the pseudo-peripheral search starts from the lower one
        # and ends at the other, and the sweep visits the two degree-3
        # neighbours lowest index first.
        nodes = np.array([[0, 0], [10, 0], [1, 0], [11, 0], [11, 1],
                          [1, 1], [0, 1], [10, 1], [5, 5]], float)
        elements = np.array([[0, 2, 5], [0, 5, 6], [1, 3, 4], [1, 4, 7]])
        mesh = Mesh(nodes=nodes, elements=elements)
        assert cuthill_mckee(mesh) == [6, 0, 5, 2, 7, 1, 4, 3, 8]
        assert reverse_cuthill_mckee(mesh) == [7, 3, 5, 1, 2, 6, 8, 4, 0]

    def test_isolated_start_node_is_numbered_once(self):
        nodes = np.array([[0, 0], [1, 0], [0, 1], [5, 5]], float)
        mesh = Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
        assert cuthill_mckee(mesh, start=3) == [3, 1, 0, 2]
        assert sorted(reverse_cuthill_mckee(mesh, start=3)) == [0, 1, 2, 3]

    def test_geometry_preserved_under_renumbering(self):
        messy = path_mesh(12, shuffle_seed=5)
        rcm = renumber_mesh(messy, "rcm")
        assert np.sort(rcm.element_areas()) == pytest.approx(
            np.sort(messy.element_areas())
        )


class TestAgainstNetworkx:
    def test_band_quality_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        from networkx.utils import reverse_cuthill_mckee_ordering

        mesh = path_mesh(30, shuffle_seed=11)
        graph = nx.Graph()
        graph.add_nodes_from(range(mesh.n_nodes))
        table = mesh.edge_table()
        graph.add_edges_from(zip(table.lo.tolist(), table.hi.tolist()))
        nx_order = list(reverse_cuthill_mckee_ordering(graph))
        nx_perm = [0] * mesh.n_nodes
        for new, old in enumerate(nx_order):
            nx_perm[old] = new
        ours = mesh_bandwidth(mesh.renumbered(reverse_cuthill_mckee(mesh)))
        theirs = mesh_bandwidth(mesh.renumbered(nx_perm))
        # Same algorithm up to tie-breaks: bandwidths within one node.
        assert abs(ours - theirs) <= 1
