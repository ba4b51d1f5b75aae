"""Randomized cross-checks: vectorized kernels vs the scalar references.

The golden corpus pins the batched kernels to fixed decks; these tests
pin them to *randomized* assemblages, shaping cards and fields.  Every
assertion is exact equality -- the numpy rewrites are bit-identical
reimplementations of the per-node/per-element loops kept alive in
``tests/scalar_reference.py``, not approximations of them.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batch.jobs import classify_deck_path
from repro.cards.reader import CardReader
from repro.core.idlz import reform as reform_module
from repro.core.idlz.elements import create_elements, triangulate_strip
from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz.output import print_listing
from repro.core.idlz.program import run_idlz
from repro.core.idlz.reform import reform_elements
from repro.core.idlz.shaping import Shaper, ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.core.ospl.contour import ContourSet
from repro.core.ospl.intervals import classify_levels, contour_levels
from repro.core.ospl.labels import boundary_label_candidates
from repro.errors import MeshError, PlotterError
from repro.fem.bandwidth import (
    cuthill_mckee,
    profile,
    renumber_mesh,
    reverse_cuthill_mckee,
)
from repro.fem.mesh import Mesh
from repro.fem.quality import triangle_measures, triangle_min_angles
from repro.fem.results import NodalField
from repro.geometry.clip import clip_segments
from repro.geometry.primitives import BoundingBox
from repro.pipeline.idlz import run_idealization
from repro.plotter.device import Plotter4020

from tests.deckgen import any_assemblage, chain_assemblages
from tests import scalar_reference
from tests.scalar_reference import (
    scalar_create_elements,
    scalar_cuthill_mckee,
    scalar_edge_table,
    scalar_clip_segment,
    scalar_extract_contours,
    scalar_label_candidates,
    scalar_listing_tables,
    scalar_number_lattice,
    scalar_permutation,
    scalar_profile,
    scalar_reform,
    scalar_shape,
    scalar_vector_ops,
    scalar_zipper,
)

ROOT = Path(__file__).resolve().parent.parent


def _shape_vectorized(grid, subdivisions, segments):
    """The production shaping pass, as the stage driver runs it."""
    shaper = Shaper(grid)
    by_sub = {}
    for seg in segments:
        by_sub.setdefault(seg.subdivision, []).append(seg)
    for sub in subdivisions:
        for seg in by_sub.get(sub.index, []):
            shaper.apply_segment(seg)
        shaper.shape_subdivision(sub)
    return shaper.positions


def _build_mesh(subdivisions, segments):
    grid = LatticeGrid(subdivisions)
    positions = _shape_vectorized(grid, subdivisions, segments)
    triangles, groups = create_elements(grid)
    return Mesh(nodes=positions.copy(),
                elements=np.array(triangles, dtype=int),
                element_groups=np.array(groups, dtype=int))


# ----------------------------------------------------------------------
# Numbering and element creation
# ----------------------------------------------------------------------

class TestNumberingCrossCheck:
    @given(any_assemblage())
    @settings(max_examples=60, deadline=None)
    def test_node_numbering_matches_scalar_union(self, assemblage):
        subdivisions, _ = assemblage
        grid = LatticeGrid(subdivisions)
        assert grid.point_of == scalar_number_lattice(subdivisions)


class TestZipperCrossCheck:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_strip_zipper_matches_scalar_march(self, data):
        n_low = data.draw(st.integers(1, 8))
        n_up = data.draw(st.integers(1 if n_low > 1 else 2, 8))
        lower_pos = sorted(
            data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_low,
                               max_size=n_low))
        )
        upper_pos = sorted(
            data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_up,
                               max_size=n_up))
        )
        lower_ids = list(range(n_low))
        upper_ids = list(range(n_low, n_low + n_up))
        assert triangulate_strip(
            lower_ids, lower_pos, upper_ids, upper_pos
        ) == scalar_zipper(lower_ids, lower_pos, upper_ids, upper_pos)

    @given(any_assemblage())
    @settings(max_examples=60, deadline=None)
    def test_elements_match_scalar_zipper(self, assemblage):
        subdivisions, _ = assemblage
        grid = LatticeGrid(subdivisions)
        triangles, groups = create_elements(grid)
        ref_triangles, ref_groups = scalar_create_elements(grid)
        assert list(map(tuple, triangles.tolist())) == ref_triangles
        assert groups.tolist() == ref_groups


# ----------------------------------------------------------------------
# Shaping
# ----------------------------------------------------------------------

class TestShapingCrossCheck:
    @given(any_assemblage())
    @settings(max_examples=60, deadline=None)
    def test_positions_bitwise_equal_scalar_interpolation(
        self, assemblage
    ):
        subdivisions, segments = assemblage
        grid = LatticeGrid(subdivisions)
        vec = _shape_vectorized(grid, subdivisions, segments)
        ref = scalar_shape(grid, subdivisions, segments)
        assert np.array_equal(vec, ref)


# ----------------------------------------------------------------------
# Reformation
# ----------------------------------------------------------------------

class TestReformCrossCheck:
    @given(chain_assemblages())
    @settings(max_examples=40, deadline=None)
    def test_swaps_and_connectivity_match_scalar_sweep(self, assemblage):
        subdivisions, segments = assemblage
        mesh_vec = _build_mesh(subdivisions, segments)
        mesh_ref = Mesh(nodes=mesh_vec.nodes.copy(),
                        elements=mesh_vec.elements.copy(),
                        element_groups=mesh_vec.element_groups.copy())
        swaps_vec = reform_elements(mesh_vec)
        swaps_ref = scalar_reform(mesh_ref)
        assert swaps_vec == swaps_ref
        assert np.array_equal(mesh_vec.elements, mesh_ref.elements)


#: Reform decision chunk sizes: one edge per chunk, a size that splits
#: every mesh unevenly, the production size, and more edges than any
#: mesh here has (one chunk).
REFORM_CHUNKS = (1, 3, 4096, 10 ** 9)

#: The same for the 29,000-edge benchmark trapezoid, where one- and
#: three-edge chunks would cost tens of seconds of numpy call overhead:
#: 97 still splits it unevenly into ~300 chunks per pass.
LARGE_REFORM_CHUNKS = (97, 4096, 10 ** 9)


def _pass_counts(reform_pass, mesh):
    """Swaps per pass until a pass swaps nothing (at most 20 passes)."""
    counts = []
    for _ in range(20):
        counts.append(reform_pass(mesh))
        if counts[-1] == 0:
            break
    return counts


def _check_reform_chunks(mesh, reference=None, chunks=REFORM_CHUNKS):
    """Reform ``mesh`` under each of ``chunks`` against the scalar sweep
    (or a ``(pass counts, elements)`` reference computed from it)."""
    if reference is None:
        ref = mesh.copy()
        reference = (_pass_counts(scalar_reference.scalar_reform_pass, ref),
                     ref.elements)
    counts_ref, elements_ref = reference
    for chunk in chunks:
        trial = mesh.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reform_module, "_CHUNK_EDGES", chunk)
            counts = _pass_counts(
                lambda m: reform_elements(m, max_passes=1), trial)
        assert counts == counts_ref, chunk
        assert np.array_equal(trial.elements, elements_ref), chunk


#: The golden corpus's IDLZ decks, relative to the repo root.
GOLDEN_IDLZ = sorted(
    deck.relative_to(ROOT).as_posix()
    for deck in (ROOT / "examples" / "decks").rglob("*.deck")
    if classify_deck_path(deck) == "idlz")


@pytest.fixture(scope="module")
def trapezoid_80x122():
    """The 80 x 122 trapezoid of the large-mesh benchmark, pre-reform,
    with its scalar reference reform (a few seconds, computed once)."""
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=80, ll2=122)
    segments = [
        ShapingSegment(1, 1, 1, 80, 1, 0.0, 0.0, 22.06, 0.0),
        ShapingSegment(1, 1, 122, 80, 122, 3.77, 32.57, 18.29, 32.57),
    ]
    ideal, _ = run_idealization(title="TRAPEZOID 80X122",
                                subdivisions=[sub], segments=segments,
                                renumber=False)
    mesh = ideal.prereform_mesh
    ref = mesh.copy()
    counts = _pass_counts(scalar_reference.scalar_reform_pass, ref)
    return mesh, (counts, ref.elements)


class TestReformChunkCrossCheck:
    """The chunked swap decision is independent of the chunk size."""

    @given(any_assemblage())
    @settings(max_examples=30, deadline=None)
    def test_random_assemblages(self, assemblage):
        _check_reform_chunks(_build_mesh(*assemblage))

    @pytest.mark.parametrize("rel", GOLDEN_IDLZ)
    def test_golden_corpus_meshes(self, rel):
        reader = CardReader.from_text((ROOT / rel).read_text())
        for run in run_idlz(reader):
            _check_reform_chunks(run.idealization.prereform_mesh)

    def test_large_trapezoid(self, trapezoid_80x122):
        mesh, reference = trapezoid_80x122
        assert reference[0] == [4719, 0]
        _check_reform_chunks(mesh, reference, LARGE_REFORM_CHUNKS)


# ----------------------------------------------------------------------
# Triangle quality kernel
# ----------------------------------------------------------------------

#: Rows the scalar code treats specially: a needle, a collinear
#: (zero-area) triangle, a coincident vertex pair and a point triangle.
SPECIAL_ROWS = np.array([
    [[0.0, 0.0], [10.0, 0.0], [5.0, 0.05]],
    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    [[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]],
    [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
    [[0.0, 0.0], [1e-9, 0.0], [1.0, 1e-12]],
])


def _scalar_or_none(fn, *corners):
    try:
        return fn(*corners)
    except MeshError:
        return None


def _check_quality_kernel(p):
    """Every row of the ``(N, 3, 2)`` corners against the scalar code."""
    m = triangle_measures(p[:, 0], p[:, 1], p[:, 2])
    angle, coincident = triangle_min_angles(p[:, 0], p[:, 1], p[:, 2])
    assert np.array_equal(angle, m.min_angle, equal_nan=True)
    assert np.array_equal(coincident, m.coincident)
    for i, (a, b, c) in enumerate(p.tolist()):
        ref_angle = scalar_reference._min_angle(a, b, c)
        assert m.coincident[i] == (ref_angle is None)
        if ref_angle is not None:
            assert m.min_angle[i] == ref_angle
        ref_aspect = _scalar_or_none(scalar_reference.aspect_ratio, a, b, c)
        assert m.flat[i] == (ref_aspect is None)
        if ref_aspect is not None:
            assert m.aspect[i] == ref_aspect
        ref_shape = _scalar_or_none(scalar_reference.shape_quality, a, b, c)
        if ref_shape is None:
            assert np.isnan(m.shape[i])
        else:
            assert m.shape[i] == ref_shape


def _chain(span, y_bot, y_top, widths, rows):
    """The :func:`tests.deckgen.chain_assemblages` draw with these values."""
    ks = [1]
    for w in widths:
        ks.append(ks[-1] + w)
    xs = [span * (k - 1) / (ks[-1] - 1) for k in ks]
    subdivisions, segments = [], []
    for i in range(len(widths)):
        subdivisions.append(Subdivision(index=i + 1, kk1=ks[i], ll1=1,
                                        kk2=ks[i + 1], ll2=1 + rows))
        for l, ys in ((1, y_bot), (1 + rows, y_top)):
            segments.append(ShapingSegment(i + 1, ks[i], l, ks[i + 1], l,
                                           xs[i], ys[i], xs[i + 1],
                                           ys[i + 1]))
    return subdivisions, segments


#: Reformed, one element's np.hypot side is 1 ULP off math.hypot's and
#: its aspect ratio was 5 ULP off a math.hypot reference.
HYPOT_CHAIN = _chain(7.74, [-0.61, -0.79, -0.21], [6.0, 6.0, 3.3166],
                     widths=[1, 3], rows=4)


class TestQualityCrossCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_rows_match_scalar_measures(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-5.0, 5.0, size=(400, 3, 2))
        # Thin slivers: the third corner pulled onto the first side.
        rows[::7, 2] = (rows[::7, 0] + rows[::7, 1]) / 2.0 \
            + rng.uniform(-1e-6, 1e-6, size=(len(rows[::7]), 2))
        _check_quality_kernel(np.concatenate((rows, SPECIAL_ROWS)))

    @given(chain_assemblages())
    @example(HYPOT_CHAIN)
    @settings(max_examples=20, deadline=None)
    def test_built_meshes_match_scalar_measures(self, assemblage):
        mesh = _build_mesh(*assemblage)
        _check_quality_kernel(mesh.nodes[mesh.elements])
        reform_elements(mesh)
        _check_quality_kernel(mesh.nodes[mesh.elements])


# ----------------------------------------------------------------------
# Edge table, Cuthill-McKee and the profile
# ----------------------------------------------------------------------

def _lattice(rng, nx, ny, offset=0):
    """A triangulated nx-by-ny cell lattice with random diagonals."""
    node = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1) + offset
    a, b = node[:-1, :-1].ravel(), node[:-1, 1:].ravel()
    c, d = node[1:, 1:].ravel(), node[1:, :-1].ravel()
    flip = rng.random(len(a)) < 0.5
    first = np.where(flip[:, None], np.stack((a, b, d), 1),
                     np.stack((a, b, c), 1))
    second = np.where(flip[:, None], np.stack((b, c, d), 1),
                      np.stack((a, c, d), 1))
    xs, ys = np.meshgrid(np.arange(nx + 1.0), np.arange(ny + 1.0))
    return (np.stack((xs.ravel(), ys.ravel()), 1),
            np.concatenate((first, second)))


def _seeded_mesh(seed, kind):
    """A randomly numbered lattice mesh; ``kind`` adds the RCM edge cases."""
    rng = np.random.default_rng(seed)
    nodes, elements = _lattice(rng, *rng.integers(1, 9, size=2))
    if kind == "disconnected":
        more_nodes, more = _lattice(rng, *rng.integers(1, 6, size=2),
                                    offset=len(nodes))
        nodes = np.concatenate((nodes, more_nodes + 20.0))
        elements = np.concatenate((elements, more))
    elif kind == "isolated":
        nodes = np.concatenate((nodes, [[-5.0, -5.0]]))
    perm = rng.permutation(len(nodes))
    inverse = np.argsort(perm)
    return Mesh(nodes=nodes[inverse], elements=perm[elements])


def _check_edge_table(mesh):
    table = mesh.edge_table()
    got = list(zip(table.a.tolist(), table.b.tolist(), table.count.tolist(),
                   table.e1.tolist(), table.e2.tolist()))
    assert got == scalar_edge_table(mesh)


class TestEdgeTableCrossCheck:
    @pytest.mark.parametrize("kind", ["connected", "disconnected",
                                      "isolated"])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_meshes_match_dict_walk(self, seed, kind):
        mesh = _seeded_mesh(seed, kind)
        _check_edge_table(mesh)
        mesh.orient_ccw()
        reform_elements(mesh)
        _check_edge_table(mesh)

    @given(any_assemblage())
    @settings(max_examples=30, deadline=None)
    def test_built_meshes_match_dict_walk_before_and_after_reform(
        self, assemblage
    ):
        mesh = _build_mesh(*assemblage)
        _check_edge_table(mesh)
        reform_elements(mesh)
        _check_edge_table(mesh)

    def test_non_manifold_edge_shared_by_three_elements(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                          [0.5, -1.0], [0.5, 2.0]])
        mesh = Mesh(nodes=nodes, elements=np.array(
            [[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
        _check_edge_table(mesh)
        table = mesh.edge_table()
        assert (table.a[0], table.b[0], table.count[0],
                table.e1[0], table.e2[0]) == (0, 1, 3, 0, 1)

    def test_empty_mesh(self):
        mesh = Mesh(nodes=np.zeros((3, 2)), elements=np.zeros((0, 3), int))
        _check_edge_table(mesh)
        assert mesh.boundary_edges() == []
        assert mesh.edge_counts() == {}
        assert cuthill_mckee(mesh) == scalar_cuthill_mckee(mesh) == [0, 1, 2]


class TestAdjacencyCrossCheck:
    @pytest.mark.parametrize("kind", ["connected", "disconnected",
                                      "isolated"])
    @pytest.mark.parametrize("seed", range(6))
    def test_adjacency_and_rcm_match_element_loop(self, seed, kind):
        mesh = _seeded_mesh(seed, kind)
        order = scalar_cuthill_mckee(mesh)
        assert cuthill_mckee(mesh) == order
        assert reverse_cuthill_mckee(mesh) == \
            scalar_permutation(order[::-1])
        assert np.array_equal(renumber_mesh(mesh, "cm").elements,
                              mesh.renumbered(
                                  scalar_permutation(order)).elements)
        for start in (0, mesh.n_nodes // 2, mesh.n_nodes - 1):
            assert cuthill_mckee(mesh, start=start) == \
                scalar_cuthill_mckee(mesh, start=start)

    @pytest.mark.parametrize("seed", range(4))
    def test_profile_matches_element_loop(self, seed):
        for kind in ("connected", "disconnected", "isolated"):
            mesh = _seeded_mesh(seed, kind)
            assert profile(mesh) == scalar_profile(mesh)

    @given(chain_assemblages())
    @settings(max_examples=20, deadline=None)
    def test_built_meshes_match_reference_order(self, assemblage):
        mesh = _build_mesh(*assemblage)
        reform_elements(mesh)
        assert cuthill_mckee(mesh) == scalar_cuthill_mckee(mesh)
        assert profile(mesh) == scalar_profile(mesh)


# ----------------------------------------------------------------------
# Contour extraction
# ----------------------------------------------------------------------

class TestContourCrossCheck:
    @given(chain_assemblages(), st.floats(0.5, 3.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_segments_bitwise_equal_scalar_extraction(
        self, assemblage, interval, gx, gy
    ):
        subdivisions, segments = assemblage
        mesh = _build_mesh(subdivisions, segments)
        reform_elements(mesh)
        values = gx * mesh.nodes[:, 0] + gy * mesh.nodes[:, 1]
        levels = contour_levels(float(values.min()), float(values.max()),
                                interval)
        field = NodalField(name="crosscheck", values=values)
        contours = ContourSet(mesh, field, interval, levels)
        ref = scalar_extract_contours(mesh, values, levels)
        assert _contour_rows(contours) == ref

    @given(chain_assemblages(), st.floats(0.5, 3.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.data())
    @settings(max_examples=40, deadline=None)
    def test_windowed_segments_and_labels_match_scalar_loops(
        self, assemblage, interval, gx, gy, data
    ):
        mesh = _build_mesh(*assemblage)
        reform_elements(mesh)
        # Integer-valued fields put levels on nodes too (t of 0 or 1).
        values = np.round(gx * mesh.nodes[:, 0] + gy * mesh.nodes[:, 1])
        box = mesh.bounding_box()
        fx = sorted(data.draw(st.lists(st.floats(-0.2, 1.2), min_size=2,
                                       max_size=2)))
        fy = sorted(data.draw(st.lists(st.floats(-0.2, 1.2), min_size=2,
                                       max_size=2)))
        window = data.draw(st.sampled_from([None, BoundingBox(
            box.xmin + fx[0] * box.width, box.ymin + fy[0] * box.height,
            box.xmin + fx[1] * box.width, box.ymin + fy[1] * box.height,
        )]))
        levels = contour_levels(float(values.min()), float(values.max()),
                                interval)
        field = NodalField(name="crosscheck", values=values)
        contours = ContourSet(mesh, field, interval, levels, window=window)
        ref = scalar_extract_contours(mesh, values, levels, window=window)
        assert _contour_rows(contours) == ref
        got = [(lab.level, lab.x, lab.y)
               for lab in boundary_label_candidates(contours)]
        assert got == scalar_label_candidates(mesh, ref)

    def test_labels_on_boundary_nodes_and_window(self):
        # A level through a row of nodes: its endpoints sit on nodes
        # (interior edges, boundary nodes), and the window clips the rest.
        nodes, elements = _lattice(np.random.default_rng(5), 4, 3)
        mesh = Mesh(nodes=nodes, elements=elements)
        values = mesh.nodes[:, 1] * 2.0 + mesh.nodes[:, 0] * 0.5
        levels = [1.0, 2.0, 3.0, 4.0]
        window = BoundingBox(0.5, -1.0, 3.25, 2.5)
        field = NodalField(name="crosscheck", values=values)
        for win in (None, window):
            contours = ContourSet(mesh, field, 1.0, levels, window=win)
            ref = scalar_extract_contours(mesh, values, levels, window=win)
            assert _contour_rows(contours) == ref
            got = [(lab.level, lab.x, lab.y)
                   for lab in boundary_label_candidates(contours)]
            assert got == scalar_label_candidates(mesh, ref)
            assert got

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_classify_levels_matches_inclusive_range_test(self, data):
        levels = sorted(set(data.draw(
            st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8)
        )))
        n = data.draw(st.integers(1, 20))
        lo = np.array(data.draw(st.lists(
            st.floats(-6.0, 6.0), min_size=n, max_size=n)))
        hi = lo + np.array(data.draw(st.lists(
            st.floats(0.0, 4.0), min_size=n, max_size=n)))
        first, stop = classify_levels(lo, hi, levels)
        for i in range(n):
            member = [li for li, level in enumerate(levels)
                      if lo[i] <= level <= hi[i]]
            expect = set(member)
            got = set(range(int(first[i]), int(stop[i])))
            assert got == expect


def _contour_rows(contours):
    """A ContourSet's arrays in the scalar reference's flat row form."""
    out = {}
    for level in contours.levels:
        segs = contours.segments_by_level[level]
        out[level] = [
            (e, sx, sy, sa, sb, ex, ey, ea, eb)
            for e, (sx, sy, ex, ey), (sa, sb, ea, eb) in zip(
                segs.elements.tolist(),
                segs.points.reshape(-1, 4).tolist(),
                segs.edges.reshape(-1, 4).tolist())
        ]
    return out


# ----------------------------------------------------------------------
# Cohen-Sutherland clipping
# ----------------------------------------------------------------------

def _bits(v):
    return np.float64(v).tobytes()


def _check_clip(rows, box):
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    keep, x0, y0, x1, y1 = clip_segments(*rows.T, box)
    for i, row in enumerate(rows.tolist()):
        ref = scalar_clip_segment(*row, box)
        assert keep[i] == (ref is not None), (row, box)
        if ref is not None:
            got = (x0[i], y0[i], x1[i], y1[i])
            assert [_bits(v) for v in got] == [_bits(v) for v in ref], \
                (row, box, got, ref)


coords = st.floats(-20.0, 20.0, allow_nan=False)


@st.composite
def windows(draw):
    xs = sorted(draw(st.lists(coords, min_size=2, max_size=2)))
    ys = sorted(draw(st.lists(coords, min_size=2, max_size=2)))
    if draw(st.booleans()):  # degenerate: zero width or height
        if draw(st.booleans()):
            xs[1] = xs[0]
        else:
            ys[1] = ys[0]
    return BoundingBox(xs[0], ys[0], xs[1], ys[1])


class TestClipCrossCheck:
    @given(windows(), st.lists(st.tuples(coords, coords, coords, coords),
                               min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_random_segments_bitwise_equal_scalar_loop(self, box, rows):
        _check_clip(rows, box)

    @given(windows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_axis_parallel_and_on_window_segments(self, box, data):
        edge_x = st.sampled_from([box.xmin, box.xmax])
        edge_y = st.sampled_from([box.ymin, box.ymax])
        rows = []
        for _ in range(12):
            x, y = data.draw(coords), data.draw(coords)
            u, v = data.draw(coords), data.draw(coords)
            rows.append((x, y, u, y))                    # horizontal
            rows.append((x, y, x, v))                    # vertical
            rows.append((data.draw(edge_x), y, u, v))    # start on x edge
            rows.append((x, v, u, data.draw(edge_y)))    # end on y edge
            rows.append((data.draw(edge_x), data.draw(edge_y), u, v))
            rows.append((x, y, x, y))                    # a point
        _check_clip(rows, box)

    def test_seeded_segments_and_empty_batch(self):
        rng = np.random.default_rng(11)
        for box in (BoundingBox(-2.0, -1.0, 3.0, 2.5),
                    BoundingBox(1.0, -1.0, 1.0, 2.0),
                    BoundingBox(0.0, 0.0, 0.0, 0.0)):
            _check_clip(rng.uniform(-6.0, 6.0, size=(500, 4)), box)
        keep, *ends = clip_segments([], [], [], [], BoundingBox(0, 0, 1, 1))
        assert keep.shape == (0,) and all(e.shape == (0,) for e in ends)


# ----------------------------------------------------------------------
# Batched plotter vectors
# ----------------------------------------------------------------------

def _ops(frame):
    return [(op.x0, op.y0, op.x1, op.y1) for op in frame.vectors()]


class TestPlotterVectorsCrossCheck:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_per_stroke_calls(self, seed, strict):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-200.0, 1200.0, size=(300, 4))
        rows[::5] = np.round(rows[::5]) + 0.5     # ties round half to even
        if strict:
            rows = np.clip(rows, 0.0, 1023.0)
            rows[150 + seed, 3] = 1023.5          # the fault, mid-batch
        ref_ops, ref_error = scalar_vector_ops(rows.tolist(), strict=strict)
        batch = Plotter4020(strict=strict)
        single = Plotter4020(strict=strict)
        if ref_error is None:
            batch.vectors(*rows.T)
            for row in rows.tolist():
                single.vector(*row)
        else:
            with pytest.raises(PlotterError) as caught:
                batch.vectors(*rows.T)
            assert str(caught.value) == ref_error
            with pytest.raises(PlotterError):
                for row in rows.tolist():
                    single.vector(*row)
        assert _ops(batch.frame) == _ops(single.frame) == ref_ops
        assert batch._pen == single._pen
        assert batch._pen == (ref_ops[-1][2:] if ref_ops else None)

    def test_start_point_fault_and_empty_batch(self):
        p = Plotter4020(strict=True)
        p.vectors([], [], [], [])
        assert p.frame.ops == [] and p._pen is None
        with pytest.raises(PlotterError, match=r"\(-1, 5\)"):
            p.vectors([1.0, -1.0], [2.0, 5.0], [3.0, 2000.0], [4.0, 6.0])
        assert _ops(p.frame) == [(1, 2, 3, 4)]

    def test_polyline_matches_draw_to_walk(self):
        points = [(10.4, 10.5), (2000.0, 33.5), (500.5, 700.49),
                  (-30.0, -30.0), (12.5, 1100.0), (12.5, 1100.0)]
        batch, walk = Plotter4020(), Plotter4020()
        batch.polyline(points)
        walk.move_to(*points[0])
        for x, y in points[1:]:
            walk.draw_to(x, y)
        assert _ops(batch.frame) == _ops(walk.frame)
        assert batch._pen == walk._pen


# ----------------------------------------------------------------------
# The printed listing
# ----------------------------------------------------------------------

class TestListingCrossCheck:
    @given(any_assemblage(), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_tables_match_per_row_formatter(self, assemblage, renumber):
        ideal, _ = run_idealization("CROSSCHECK", *assemblage,
                                    renumber=renumber)
        # A point reflection gives negative values and a -0.0 at the
        # origin, and keeps every triangle's shape and orientation.
        ideal.mesh.nodes *= -1.0
        listing = print_listing(ideal).splitlines()
        tables = scalar_listing_tables(ideal.mesh)
        start = listing.index(tables[0])
        assert listing[start:] == tables


def test_clip_terminates_on_a_segment_grazing_the_window_corner():
    # TOP and RIGHT intersections each land a hair past the other edge,
    # so the classic loop never settles; the clip keeps the segment with
    # its free end clamped onto the corner.
    box = BoundingBox(-18.229991966907946, -18.229991966907946,
                      -1.0854981775947033e-125, -1.0854981775947033e-125)
    row = (-18.229991966907946, -18.229991966907946,
           -2.8522400676750587e-157, -1.401298464324817e-45)
    _check_clip([row], box)
    keep, x0, y0, x1, y1 = clip_segments(*np.array([row]).T, box)
    assert keep[0]
    assert (x0[0], y0[0], x1[0], y1[0]) == (box.xmin, box.ymin,
                                            box.xmax, box.ymax)
