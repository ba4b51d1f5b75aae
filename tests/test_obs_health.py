"""Numerical-health snapshots: builders, facade, and instrumented stages."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.idlz.pipeline import Idealizer
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.obs.health import (
    NEEDLE_ASPECT,
    HealthLog,
    HealthSnapshot,
    field_health,
    mesh_health,
    solver_health,
)


def mesh_of(nodes, elements) -> Mesh:
    return Mesh(nodes=np.asarray(nodes, dtype=float),
                elements=np.asarray(elements, dtype=int))


class TestSnapshotAndLog:
    def test_round_trip(self):
        snap = HealthSnapshot(kind="mesh", values={"a": 1, "b": 2.5})
        again = HealthSnapshot.from_dict(snap.to_dict())
        assert again == snap

    def test_from_dict_defaults(self):
        snap = HealthSnapshot.from_dict({})
        assert snap.kind == "generic"
        assert snap.values == {}

    def test_log_preserves_publication_order(self):
        log = HealthLog()
        log.publish("b", HealthSnapshot(kind="mesh"))
        log.publish("a", HealthSnapshot(kind="field", values={"x": 1}))
        log.publish("b", HealthSnapshot(kind="mesh", values={"y": 2}))
        assert [name for name, _ in log.entries()] == ["b", "a", "b"]
        as_list = log.to_list()
        assert as_list[1] == {"name": "a", "kind": "field",
                              "values": {"x": 1}}
        assert len(log) == 3

    def test_facade_is_noop_while_disabled(self):
        assert not obs.enabled()
        obs.health("nowhere", HealthSnapshot(kind="mesh"))  # no error

    def test_facade_routes_to_current_observer(self):
        with obs.capture() as ob:
            obs.health("here", HealthSnapshot(kind="field",
                                              values={"n": 1}))
        (entry,) = ob.health.to_list()
        assert entry["name"] == "here"
        assert entry["values"] == {"n": 1}


class TestMeshHealth:
    def test_right_triangle_grid(self):
        # Two right isoceles triangles: min angle 45 degrees, modest
        # aspect, no needles.
        mesh = mesh_of(
            [[0, 0], [1, 0], [1, 1], [0, 1]],
            [[0, 1, 2], [0, 2, 3]],
        )
        values = mesh_health(mesh).values
        assert values["n_elements"] == 2
        assert values["degenerate_count"] == 0
        assert values["needle_count"] == 0
        assert values["min_angle_deg"] == pytest.approx(45.0)
        assert values["mean_min_angle_deg"] == pytest.approx(45.0)
        assert 1.0 <= values["worst_aspect"] < NEEDLE_ASPECT
        assert values["p95_aspect"] == values["worst_aspect"]

    def test_needle_is_counted(self):
        mesh = mesh_of(
            [[0, 0], [10, 0], [5, 0.1]],
            [[0, 1, 2]],
        )
        values = mesh_health(mesh).values
        assert values["needle_count"] == 1
        assert values["worst_aspect"] > NEEDLE_ASPECT
        assert values["min_angle_deg"] < 5.0

    def test_degenerate_element_is_counted_not_raised(self):
        # Second element is collinear: a health probe must survive it.
        mesh = mesh_of(
            [[0, 0], [1, 0], [0, 1], [2, 0]],
            [[0, 1, 2], [0, 1, 3]],
        )
        values = mesh_health(mesh).values
        assert values["degenerate_count"] == 1
        assert values["needle_count"] == 1  # degenerates count as needles
        assert values["n_elements"] == 2

    def test_empty_mesh_reports_counts_only(self):
        mesh = Mesh(nodes=np.zeros((3, 2)), elements=np.zeros((0, 3), int))
        assert mesh_health(mesh).values == {
            "n_elements": 0, "degenerate_count": 0, "needle_count": 0,
        }

    def test_extra_kwargs_land_in_values(self):
        mesh = mesh_of([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        values = mesh_health(mesh, swaps=3).values
        assert values["swaps"] == 3


class TestSolverHealthBuilder:
    def test_pivot_ratio_derived(self):
        values = solver_health(residual_rel=1e-14, pivot_min=2.0,
                               pivot_max=8.0, fillin=40).values
        assert values == {"residual_rel": 1e-14, "pivot_min": 2.0,
                          "pivot_max": 8.0, "pivot_ratio": 4.0,
                          "fillin": 40}

    def test_no_ratio_without_both_pivots_or_on_zero(self):
        assert "pivot_ratio" not in solver_health(pivot_min=2.0).values
        assert "pivot_ratio" not in solver_health(pivot_max=2.0).values
        assert "pivot_ratio" not in solver_health(
            pivot_min=0.0, pivot_max=2.0).values


class TestFieldHealth:
    def test_healthy_field(self):
        values = field_health([0.0, 5.0, 10.0], name="S").values
        assert values["n_values"] == 3
        assert values["nonfinite_count"] == 0
        assert values["min"] == 0.0
        assert values["max"] == 10.0
        assert values["range"] == 10.0
        assert values["degenerate"] is False
        assert values["name"] == "S"

    def test_constant_field_is_degenerate(self):
        values = field_health([7.0, 7.0, 7.0]).values
        assert values["range"] == 0.0
        assert values["degenerate"] is True

    def test_nan_makes_field_degenerate(self):
        values = field_health([0.0, float("nan"), 10.0]).values
        assert values["nonfinite_count"] == 1
        assert values["degenerate"] is True
        # Statistics come from the finite values only.
        assert values["min"] == 0.0
        assert values["max"] == 10.0

    def test_all_nonfinite_field(self):
        values = field_health([float("inf"), float("nan")]).values
        assert values["nonfinite_count"] == 2
        assert values["degenerate"] is True
        assert "min" not in values


def sheared_plate():
    """A sheared 8x6 plate whose lattice diagonals need reforming."""
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=9, ll2=7)
    segments = [
        ShapingSegment(1, 1, 1, 9, 1, 0.0, 0.0, 8.0, 5.0),
        ShapingSegment(1, 1, 7, 9, 7, 0.0, 6.0, 8.0, 6.0),
    ]
    return Idealizer(title="SHEARED 8X6", subdivisions=[sub]).run(segments)


class TestIdlzHealthProgression:
    def test_stage_snapshots_and_reform_improvement(self):
        with obs.capture() as ob:
            ideal = sheared_plate()
        report = ob.report()
        for stage in ("idlz.elements", "idlz.shape", "idlz.reform",
                      "idlz.renumber"):
            (entry,) = report.health_entries(stage)
            assert entry["kind"] == "mesh"
            assert entry["values"]["n_elements"] == ideal.n_elements
        (shape,) = report.health_entries("idlz.shape")
        (reform,) = report.health_entries("idlz.reform")
        assert ideal.swaps > 0
        assert reform["values"]["swaps"] == ideal.swaps
        assert (reform["values"]["min_angle_deg"]
                > shape["values"]["min_angle_deg"])
        assert (reform["values"]["needle_count"]
                < shape["values"]["needle_count"])
        assert (reform["values"]["worst_aspect"]
                < shape["values"]["worst_aspect"])
        # Renumbering permutes node numbers, not geometry.
        (renumber,) = report.health_entries("idlz.renumber")
        assert (renumber["values"]["min_angle_deg"]
                == reform["values"]["min_angle_deg"])
        assert renumber["values"]["bandwidth_after"] \
            <= renumber["values"]["bandwidth_before"]

    def test_no_health_without_observer(self):
        ideal = sheared_plate()  # must run clean with obs disabled
        assert ideal.n_elements > 0

    def test_collect_health_false_keeps_spans_drops_snapshots(self):
        # The overhead benchmark's configuration: spans and metrics on,
        # health-snapshot construction off.
        ob = obs.enable(obs.Observer(collect_health=False))
        try:
            assert obs.enabled()
            assert not obs.health_enabled()
            ideal = sheared_plate()
        finally:
            obs.disable(ob)
        assert ideal.n_elements > 0
        report = ob.report()
        assert "idlz.reform" in report.span_names()
        assert report.health == []

    def test_health_publish_respects_opt_out(self):
        from repro.obs.health import HealthSnapshot

        ob = obs.enable(obs.Observer(collect_health=False))
        try:
            obs.health("x", HealthSnapshot(kind="mesh", values={"a": 1}))
        finally:
            obs.disable(ob)
        assert ob.report().health == []


class TestSolverHealthIntegration:
    def setup_method(self):
        from repro.fem.materials import IsotropicElastic

        self.mesh = mesh_of(
            [[0, 0], [1, 0], [1, 1], [0, 1]],
            [[0, 1, 2], [0, 2, 3]],
        )
        self.materials = {0: IsotropicElastic(youngs=1.0e4, poisson=0.3)}

    def _analysis(self):
        from repro.fem.solve import AnalysisType, StaticAnalysis

        an = StaticAnalysis(self.mesh, self.materials,
                            AnalysisType.PLANE_STRESS)
        an.constraints.fix_nodes([0, 3], 0)
        an.constraints.fix(0, 1)
        an.loads.add_force(1, 0, 50.0)
        an.loads.add_force(2, 0, 50.0)
        return an

    @pytest.mark.parametrize("solver", ["banded", "skyline"])
    def test_cholesky_and_residual_health(self, solver):
        with obs.capture() as ob:
            self._analysis().solve(solver=solver)
        report = ob.report()
        (chol,) = report.health_entries(f"fem.cholesky.{solver}")
        assert chol["kind"] == "solver"
        assert chol["values"]["pivot_min"] > 0.0
        assert chol["values"]["pivot_ratio"] >= 1.0
        assert chol["values"]["fillin"] > 0
        (solve,) = report.health_entries(f"fem.solve.{solver}")
        assert solve["values"]["residual_rel"] < 1e-10
        assert solve["values"]["ndof"] == 8

    def test_sparse_solver_health(self):
        with obs.capture() as ob:
            self._analysis().solve(solver="sparse")
        report = ob.report()
        (solve,) = report.health_entries("fem.solve.sparse")
        assert solve["values"]["residual_rel"] < 1e-10
        assert solve["values"]["fillin"] > 0

    @pytest.mark.parametrize("solver", ["banded", "skyline"])
    def test_solutions_unchanged_by_instrumentation(self, solver):
        bare = self._analysis().solve(solver=solver)
        with obs.capture():
            observed = self._analysis().solve(solver=solver)
        np.testing.assert_allclose(observed.displacements,
                                   bare.displacements)


class TestMatvec:
    def test_banded_matvec_matches_dense(self):
        from repro.fem.banded import BandedSymmetricMatrix

        rng = np.random.default_rng(7)
        a = rng.normal(size=(9, 9))
        a = a + a.T
        # Band it: zero outside |i - j| > 3.
        for i in range(9):
            for j in range(9):
                if abs(i - j) > 3:
                    a[i, j] = 0.0
        m = BandedSymmetricMatrix.from_dense(a)
        x = rng.normal(size=9)
        np.testing.assert_allclose(m.matvec(x), a @ x, atol=1e-12)

    def test_skyline_matvec_matches_dense(self):
        from repro.fem.skyline import SkylineMatrix

        rng = np.random.default_rng(11)
        a = rng.normal(size=(7, 7))
        a = a + a.T
        a[0, 5] = a[5, 0] = 0.0  # ragged envelope
        a[0, 6] = a[6, 0] = 0.0
        m = SkylineMatrix.from_dense(a)
        x = rng.normal(size=7)
        np.testing.assert_allclose(m.matvec(x), a @ x, atol=1e-12)


class TestOsplFieldHealth:
    def test_contour_mesh_publishes_field_health(self):
        from repro.core.ospl.contour import contour_mesh

        mesh = mesh_of(
            [[0, 0], [2, 0], [2, 2], [0, 2]],
            [[0, 1, 2], [0, 2, 3]],
        )
        field = NodalField("S", np.array([0.0, 10.0, 20.0, 10.0]))
        with obs.capture() as ob:
            contour_mesh(mesh, field)
        (entry,) = ob.report().health_entries("ospl.field")
        assert entry["kind"] == "field"
        assert entry["values"]["degenerate"] is False
        assert entry["values"]["name"] == "S"

    def test_degenerate_field_leaves_diagnosis_before_failing(self):
        from repro.core.ospl.contour import contour_mesh
        from repro.errors import ContourError

        mesh = mesh_of(
            [[0, 0], [2, 0], [2, 2], [0, 2]],
            [[0, 1, 2], [0, 2, 3]],
        )
        field = NodalField("S", np.full(4, 3.0))
        with obs.capture() as ob:
            with pytest.raises(ContourError):
                contour_mesh(mesh, field)
        (entry,) = ob.report().health_entries("ospl.field")
        assert entry["values"]["degenerate"] is True
