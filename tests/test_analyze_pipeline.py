"""End-to-end tests of the analyze pipeline: static, thermal, modal,
and the stage-granular cache invalidation the subsystem promises."""

import pytest

from repro.analyze.deck import (
    AnalyzeDeck,
    read_analyze_deck,
    AnalyzeSpec,
    LoadCardSpec,
    MaterialCard,
    SupportCard,
    TempCard,
    ThermalMaterialCard,
    write_analyze_deck,
)
from repro.analyze.examples import deck_text, plate_deck
from repro.analyze.pipeline import analyze_problem_pipeline
from repro.analyze.program import run_analyze
from repro.cards.reader import CardReader
from repro.core.idlz.deck import IdlzProblem
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import AnalyzeError, BoundaryConditionError, SolverError
from repro.pipeline import StageCache

#: The analyze pipeline's stage order (record names carry the
#: pipeline prefix).
STAGES = tuple(
    f"analyze.{name}"
    for name in ("number", "elements", "shape", "reform", "renumber",
                 "materials", "assemble", "constrain", "loads", "solve",
                 "recover", "isograms")
)


def run_text(text: str, cache=None):
    return run_analyze(CardReader.from_text(text), stage_cache=cache)


def respec(spec: AnalyzeSpec) -> AnalyzeDeck:
    return AnalyzeDeck(problem=plate_deck().problem, spec=spec)


def cache_status(run):
    return {r.stage: r.cache for r in run.stages}


class TestStatic:
    def test_plate_solves_end_to_end(self):
        run = run_text(deck_text(plate_deck()))
        assert run.analysis == "plane_stress"
        assert run.mesh.n_nodes == 63
        assert run.mesh.n_elements == 96
        assert set(run.fields) == {"effective", "displacement"}
        assert set(run.plots) == {"effective", "displacement"}
        assert run.result_summary["max_displacement"] \
            == pytest.approx(2.0672899741815723e-4)
        assert run.result_summary["max_effective_stress"] \
            == pytest.approx(1115.3339329995238)
        assert [r.stage for r in run.stages] == list(STAGES)

    def test_listing_reports_fields_and_summary(self):
        run = run_text(deck_text(plate_deck()))
        listing = run.listing()
        assert "ANALYZE  ANALYZE EXAMPLE PLATE 8X6" in listing
        assert "max_displacement" in listing
        assert "field effective" in listing

    def test_unconstrained_static_raises(self):
        spec = AnalyzeSpec(
            analysis="plane_stress",
            materials=(MaterialCard(group=1, youngs=30.0e6,
                                    poisson=0.3),),
            loads=(LoadCardSpec(kind="pressure", axis="y", coord=6.0,
                                values=(1000.0,)),),
        )
        text = deck_text(respec(spec))
        with pytest.raises(SolverError):
            run_text(text)

    def test_pressure_edges_take_the_owning_material_thickness(self):
        # Two 4 x 6 subdivisions side by side share the column x = 4;
        # the left one is 0.25 thick, the right one 1.0.  PRESSURE on
        # y = 6 must load each top edge with its own element's
        # thickness.
        def segment(sub, k1, k2, row, x1, x2):
            return ShapingSegment(subdivision=sub, k1=k1, l1=row, k2=k2,
                                  l2=row, x1=x1, y1=row - 1.0, x2=x2,
                                  y2=row - 1.0)

        problem = IdlzProblem(
            title="TWO MATERIAL PLATE",
            subdivisions=[Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=7),
                          Subdivision(index=2, kk1=5, ll1=1, kk2=9, ll2=7)],
            segments=[segment(1, 1, 5, 1, 0.0, 4.0),
                      segment(1, 1, 5, 7, 0.0, 4.0),
                      segment(2, 5, 9, 1, 4.0, 8.0),
                      segment(2, 5, 9, 7, 4.0, 8.0)],
        )
        spec = AnalyzeSpec(
            analysis="plane_stress",
            materials=(MaterialCard(group=1, youngs=30.0e6, poisson=0.3,
                                    thickness=0.25),
                       MaterialCard(group=2, youngs=10.0e6, poisson=0.33,
                                    thickness=1.0)),
            supports=(SupportCard(axis="y", coord=0.0, dofs="uv"),),
            loads=(LoadCardSpec(kind="pressure", axis="y", coord=6.0,
                                values=(1000.0,)),),
            plots=("displacement",),
        )
        text = write_analyze_deck(AnalyzeDeck(problem=problem,
                                              spec=spec)).to_text()
        deck = read_analyze_deck(CardReader.from_text(text))
        result = analyze_problem_pipeline().run({
            "subdivisions": deck.problem.subdivisions,
            "segments": deck.problem.segments,
            "strict": False,
            "prefer_pairs": {},
            "reform": True,
            "renumber": True,
            "spec": deck.spec,
            "title": deck.title,
        })
        mesh = result["mesh"]
        force = result["load_case"].vector(mesh.n_nodes)
        top = mesh.nodes_near(y=6.0)
        fy = {float(mesh.nodes[n, 0]): force[2 * n + 1] for n in top}
        assert fy == pytest.approx({
            0.0: -125.0, 1.0: -250.0, 2.0: -250.0, 3.0: -250.0,
            4.0: -625.0, 5.0: -1000.0, 6.0: -1000.0, 7.0: -1000.0,
            8.0: -500.0,
        })
        assert force[0::2] == pytest.approx(0.0)
        assert force[1::2].sum() == pytest.approx(-5000.0)

    def test_missing_material_raises(self):
        text = "\n".join(
            line for line in deck_text(plate_deck()).splitlines()
            if not line.startswith("MAT")
        ) + "\n"
        with pytest.raises(AnalyzeError, match="MAT"):
            run_text(text)


class TestThermal:
    """Drives :mod:`repro.fem.thermal` through the analyze stages."""

    def deck(self, with_flux=False):
        temps = [TempCard(axis="y", coord=0.0, value=100.0)]
        loads = ()
        if with_flux:
            loads = (LoadCardSpec(kind="flux", axis="y", coord=6.0,
                                  values=(50.0,)),)
        else:
            temps.append(TempCard(axis="y", coord=6.0, value=0.0))
        spec = AnalyzeSpec(
            analysis="thermal",
            thermal_materials=(ThermalMaterialCard(
                group=1, conductivity=45.0),),
            temps=tuple(temps),
            loads=loads,
            plots=("temperature",),
        )
        return deck_text(respec(spec))

    def test_fixed_edges_interpolate_between_temperatures(self):
        run = run_text(self.deck())
        assert run.analysis == "thermal"
        temps = run.fields["temperature"].values
        assert run.result_summary["max_temperature"] \
            == pytest.approx(100.0)
        assert run.result_summary["min_temperature"] \
            == pytest.approx(0.0)
        # Steady conduction between two fixed edges stays in range.
        assert min(temps) >= -1e-9 and max(temps) <= 100.0 + 1e-9

    def test_flux_loaded_edge_runs_hot_or_cold(self):
        run = run_text(self.deck(with_flux=True))
        temps = run.fields["temperature"].values
        # One fixed edge plus a constant flux: the free edge departs
        # from the fixed value, so the field is not constant.
        assert max(temps) - min(temps) > 1e-6

    @pytest.mark.parametrize("first, second", [(100.0, 0.0), (0.0, 100.0)])
    def test_conflicting_temp_cards_rejected(self, first, second):
        # Both lines hold corner node 0: whichever card comes second
        # must not silently win.
        spec = AnalyzeSpec(
            analysis="thermal",
            thermal_materials=(ThermalMaterialCard(
                group=1, conductivity=45.0),),
            temps=(TempCard(axis="y", coord=0.0, value=first),
                   TempCard(axis="x", coord=0.0, value=second)),
            plots=("temperature",),
        )
        with pytest.raises(BoundaryConditionError,
                           match=rf"node 0 .*\({first} vs {second}\)"):
            run_text(deck_text(respec(spec)))

    def test_pressure_card_rejected_in_thermal(self):
        bad = self.deck().replace(
            "TEMP    Y                 6.0000          0.0000",
            "PRESSUREY                 6.0000       1000.0000")
        with pytest.raises(AnalyzeError, match="PRESSURE"):
            run_text(bad)


class TestModal:
    """Drives :mod:`repro.fem.dynamics` through the analyze stages."""

    def deck(self, modes=2, density=0.1):
        spec = AnalyzeSpec(
            analysis="modal",
            materials=(MaterialCard(group=1, youngs=10.0e6, poisson=0.3,
                                    thickness=0.1, density=density),),
            supports=(SupportCard(axis="x", coord=0.0, dofs="uv"),),
            plots=tuple(f"mode{i}" for i in range(1, modes + 1)),
            modes=modes,
        )
        return deck_text(respec(spec))

    def test_cantilever_modes_and_frequencies(self):
        run = run_text(self.deck())
        freqs = run.result_summary["frequencies_hz"]
        assert len(freqs) == 2
        assert 0.0 < freqs[0] <= freqs[1]
        assert set(run.fields) == {"mode1", "mode2"}
        # Mode shapes are magnitudes: non-negative, not identically 0.
        for name in ("mode1", "mode2"):
            values = run.fields[name].values
            assert min(values) >= 0.0
            assert max(values) > 0.0

    def test_modal_without_density_raises(self):
        with pytest.raises(AnalyzeError, match="density"):
            run_text(self.deck(density=0.0))


class TestStageCache:
    def test_warm_rerun_hits_every_stage(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        text = deck_text(plate_deck())
        cold = run_text(text, cache=cache)
        warm = run_text(text, cache=cache)
        assert all(c == "miss" for c in cache_status(cold).values())
        assert all(c == "hit" for c in cache_status(warm).values())
        assert warm.result_summary == cold.result_summary

    def test_load_edit_reruns_solve_onward_only(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        text = deck_text(plate_deck())
        run_text(text, cache=cache)
        edited = text.replace("1000.0000", "1500.0000")
        rerun = run_text(edited, cache=cache)
        status = cache_status(rerun)
        for stage in STAGES[:8]:
            assert status[stage] == "hit", stage
        for stage in STAGES[8:]:
            assert status[stage] == "miss", stage
        # 1.5x the pressure -> 1.5x the (linear) displacement.
        base = run_text(text).result_summary["max_displacement"]
        assert rerun.result_summary["max_displacement"] \
            == pytest.approx(1.5 * base)

    def test_plot_edit_reruns_recovery_onward_only(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        text = deck_text(plate_deck())
        run_text(text, cache=cache)
        edited = text.replace("PLOT    EFFECTIVE       ",
                              "PLOT    SHEAR           ")
        rerun = run_text(edited, cache=cache)
        status = cache_status(rerun)
        for stage in STAGES[:10]:
            assert status[stage] == "hit", stage
        assert status["analyze.recover"] == "miss"
        assert status["analyze.isograms"] == "miss"
        assert set(rerun.fields) == {"shear", "displacement"}

    def test_title_edit_reruns_isograms_only(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        deck = plate_deck()
        run_text(deck_text(deck), cache=cache)
        renamed = AnalyzeDeck(
            problem=deck.problem, spec=deck.spec)
        renamed.problem.title = "ANALYZE EXAMPLE PLATE 8X6 B"
        rerun = run_text(
            write_analyze_deck(renamed).to_text(), cache=cache)
        status = cache_status(rerun)
        assert status["analyze.isograms"] == "miss"
        assert all(status[s] == "hit" for s in STAGES
                   if s not in ("analyze.number", "analyze.isograms"))
