"""Unit tests for global assembly: banded vs sparse vs skyline."""

import numpy as np
import pytest

from repro.errors import MaterialError, MeshError
from repro.fem.assembly import (
    assemble_banded,
    assemble_sparse,
    assemble_thermal,
    scatter,
    stiffness_blocks,
)
from repro.fem.banded import BandedSymmetricMatrix
from repro.fem.materials import IsotropicElastic, ThermalMaterial
from repro.fem.mesh import Mesh
from repro.fem.skyline import SkylineMatrix, assemble_skyline

MAT = IsotropicElastic(youngs=1000.0, poisson=0.3)
TH = ThermalMaterial(conductivity=2.0, density=3.0, specific_heat=0.5)


def element_stiffness(mesh, e, materials, analysis_type):
    return stiffness_blocks(mesh, materials, analysis_type)[e]


class TestElementStiffness:
    def test_unknown_analysis_rejected(self, unit_square_mesh):
        with pytest.raises(MeshError, match="unknown analysis"):
            element_stiffness(unit_square_mesh, 0, {0: MAT}, "modal")

    def test_missing_material_rejected(self, unit_square_mesh):
        with pytest.raises(MaterialError, match="group"):
            element_stiffness(unit_square_mesh, 0, {5: MAT},
                              "plane_stress")

    def test_plane_strain_stiffer(self, unit_square_mesh):
        ks = element_stiffness(unit_square_mesh, 0, {0: MAT},
                               "plane_stress")
        ke = element_stiffness(unit_square_mesh, 0, {0: MAT},
                               "plane_strain")
        assert ke[0, 0] > ks[0, 0]


class TestGlobalAssembly:
    @pytest.mark.parametrize("analysis", ["plane_stress", "plane_strain",
                                          "axisymmetric"])
    def test_banded_equals_sparse(self, strip_mesh, analysis):
        if analysis == "axisymmetric":
            # Shift off the axis so r > 0 everywhere.
            strip_mesh = Mesh(nodes=strip_mesh.nodes + [1.0, 0.0],
                              elements=strip_mesh.elements)
        banded = assemble_banded(strip_mesh, {0: MAT}, analysis)
        sparse = assemble_sparse(strip_mesh, {0: MAT}, analysis)
        assert np.allclose(banded.to_dense(), sparse.toarray(),
                           atol=1e-10)

    def test_skyline_equals_sparse(self, strip_mesh):
        sky = assemble_skyline(strip_mesh, {0: MAT}, "plane_stress")
        sparse = assemble_sparse(strip_mesh, {0: MAT}, "plane_stress")
        assert np.allclose(sky.to_dense(), sparse.toarray(), atol=1e-10)

    def test_global_stiffness_singular_without_bcs(self, strip_mesh):
        k = assemble_sparse(strip_mesh, {0: MAT}, "plane_stress")
        eigs = np.linalg.eigvalsh(k.toarray())
        # Exactly three rigid-body modes for a connected plane mesh.
        zero = np.sum(np.abs(eigs) < 1e-8 * np.abs(eigs).max())
        assert zero == 3

    def test_multi_material_assembly(self, strip_mesh):
        strip_mesh.element_groups = np.array(
            [0, 0, 0, 0, 1, 1, 1, 1], dtype=int
        )
        soft = IsotropicElastic(youngs=100.0, poisson=0.3)
        k_mixed = assemble_sparse(strip_mesh, {0: MAT, 1: soft},
                                  "plane_stress").toarray()
        k_hard = assemble_sparse(strip_mesh, {0: MAT, 1: MAT},
                                 "plane_stress").toarray()
        # Dofs in the soft half lose stiffness; the hard half is intact.
        assert k_mixed[0, 0] == pytest.approx(k_hard[0, 0])
        last = 2 * (strip_mesh.n_nodes - 1)
        assert k_mixed[last, last] < k_hard[last, last]

    @pytest.mark.parametrize("assemble", [
        lambda mesh: assemble_banded(mesh, {0: MAT}, "plane_stress"),
        lambda mesh: assemble_sparse(mesh, {0: MAT}, "plane_stress"),
        lambda mesh: assemble_skyline(mesh, {0: MAT}, "plane_stress"),
        lambda mesh: assemble_thermal(mesh, {0: TH}),
    ], ids=["banded", "sparse", "skyline", "thermal"])
    def test_empty_mesh_rejected(self, assemble):
        empty = Mesh(nodes=np.zeros((3, 2)),
                     elements=np.zeros((0, 3), int))
        with pytest.raises(MeshError, match="no elements"):
            assemble(empty)

    def test_row_sums_vanish_for_translation(self, strip_mesh):
        # K times a rigid translation is zero.
        k = assemble_sparse(strip_mesh, {0: MAT}, "plane_stress")
        tx = np.zeros(2 * strip_mesh.n_nodes)
        tx[0::2] = 1.0
        assert np.abs(k @ tx).max() < 1e-9 * np.abs(k.toarray()).max()


class TestScatter:
    # Two triangles sharing the edge (1, 2): nodes 1 and 2 receive
    # entries from both blocks.
    ELEMENTS = np.array([[0, 1, 2], [1, 3, 2]])

    def _expected(self, blocks, dofs_per_node):
        n = 4 * dofs_per_node
        dense = np.zeros((n, n))
        for tri, block in zip(self.ELEMENTS, blocks):
            dofs = [dofs_per_node * node + d for node in tri
                    for d in range(dofs_per_node)]
            dense[np.ix_(dofs, dofs)] += block
        return dense

    @pytest.mark.parametrize("dofs_per_node", [1, 2])
    def test_overlapping_blocks_accumulate(self, dofs_per_node):
        m = 3 * dofs_per_node
        rng = np.random.default_rng(dofs_per_node)
        half = rng.normal(size=(2, m, m))
        blocks = half + half.transpose(0, 2, 1)
        expected = self._expected(blocks, dofs_per_node)
        n = len(expected)
        rows, cols, vals = scatter(self.ELEMENTS, blocks)
        assert len(vals) == 2 * m * m
        banded = BandedSymmetricMatrix.from_triplets(n, n - 1, rows, cols,
                                                     vals)
        skyline = SkylineMatrix.from_triplets(n, rows, cols, vals)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        # Same summation order as the per-element reference: bit-equal.
        for got in (banded.to_dense(), skyline.to_dense(), dense):
            np.testing.assert_array_equal(got, expected)

    def test_skyline_tops_follow_the_couplings(self):
        blocks = np.ones((2, 3, 3))
        sky = SkylineMatrix.from_triplets(4, *scatter(self.ELEMENTS, blocks))
        assert sky.tops == [0, 0, 0, 1]


class TestThermalAssembly:
    def test_conductivity_rows_sum_to_zero(self, strip_mesh):
        k, _ = assemble_thermal(strip_mesh, {0: TH})
        assert np.abs(np.asarray(k.sum(axis=1))).max() < 1e-12

    def test_lumped_capacity_total_is_rho_c_area(self, strip_mesh):
        _, c = assemble_thermal(strip_mesh, {0: TH}, lumped=True)
        total_area = np.abs(strip_mesh.element_areas()).sum()
        assert c.toarray().sum() == pytest.approx(
            TH.volumetric_heat_capacity * total_area
        )

    def test_consistent_capacity_same_total(self, strip_mesh):
        _, lumped = assemble_thermal(strip_mesh, {0: TH}, lumped=True)
        _, consistent = assemble_thermal(strip_mesh, {0: TH},
                                         lumped=False)
        assert lumped.toarray().sum() == pytest.approx(
            consistent.toarray().sum()
        )

    def test_conductivity_positive_semidefinite(self, strip_mesh):
        k, _ = assemble_thermal(strip_mesh, {0: TH})
        eigs = np.linalg.eigvalsh(k.toarray())
        assert eigs.min() > -1e-12
