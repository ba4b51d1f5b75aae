"""The combined analyze deck: an IDLZ problem plus an analysis section.

The paper's flow punches IDLZ's output into an analysis program whose
results OSPL contours.  The analyze deck keeps that flow on one card
tray: a complete IDLZ data set (card types 1-7 of Appendix B, exactly
one problem) followed by keyword-led analysis cards::

    ANALYZE  PSTRESS                     analysis family (header card)
    MAT            1       30000000.0000          0.3000 ...
    FIX     X                 0.0000    UV        supports by geometry
    PRESSURE X                8.0000 1000.0000    loads by geometry
    PLOT    EFFECTIVE
    SOLVER  BANDED
    END

Cards are fixed-format like every other deck here: an ``A8`` keyword
column, ``I8`` group numbers and ``F16.4`` reals (punch the decimal
point -- FORTRAN implied-decimal scaling applies to bare integers).
Boundary conditions and loads address *geometry* (``X``/``Y`` = a
coordinate line), not node numbers: node numbers do not exist until
IDLZ numbers the lattice, which is the whole point of the paper.

Analysis families:

    ========  ==========================================
    keyword   meaning
    ========  ==========================================
    PSTRESS   linear static, plane stress
    PSTRAIN   linear static, plane strain
    AXISYM    linear static, axisymmetric
    THERMAL   steady heat conduction (TMAT/TEMP/FLUX)
    MODAL     free vibration (MAT cards carry density)
    ========  ==========================================

Reading and writing round-trip byte-exactly for decks this module
produces.  The card layouts live with the one deck parser,
:func:`repro.cards.parse.parse_analyze`, which walks the IDLZ prefix
and the section off the same tray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cards.parse import (
    ANALYSES,
    SECTION_FORMATS,
    AnalyzeDeckModel,
    parse_analyze,
    read_or_refuse,
)
from repro.cards.reader import CardReader
from repro.cards.writer import CardWriter
from repro.core.idlz.deck import (
    IdlzProblem,
    problem_from_raw,
    write_idlz_deck,
)

#: Analysis family -> header keyword (for the writer).
ANALYSIS_KEYWORDS: Dict[str, str] = {v: k for k, v in ANALYSES.items()}

#: Field names a PLOT card may request beyond the stress components.
EXTRA_PLOTS: Tuple[str, ...] = ("displacement", "temperature")

#: Stress components a PLOT card may request (see repro.fem.stress).
STRESS_PLOTS: Tuple[str, ...] = (
    "effective", "circumferential", "shear", "meridional", "radial",
    "axial", "principal_min",
)


# ----------------------------------------------------------------------
# The analysis-section entities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialCard:
    """A MAT card: elastic constants for one subdivision group.

    ``density`` is a *weight* density (lb/in^3); 0 means "not given"
    and is only an error for MODAL analyses, which need mass.
    """

    group: int
    youngs: float
    poisson: float
    thickness: float = 1.0
    density: float = 0.0


@dataclass(frozen=True)
class ThermalMaterialCard:
    """A TMAT card: conduction constants for one subdivision group."""

    group: int
    conductivity: float
    density: float = 1.0
    specific_heat: float = 1.0


@dataclass(frozen=True)
class SupportCard:
    """A FIX card: prescribe dofs on every node of a coordinate line."""

    axis: str            # "x" | "y"
    coord: float
    dofs: str            # "u" | "v" | "uv"


@dataclass(frozen=True)
class TempCard:
    """A TEMP card: prescribe the temperature of a coordinate line."""

    axis: str
    coord: float
    value: float


@dataclass(frozen=True)
class LoadCardSpec:
    """A PRESSURE, FORCE or FLUX card.

    ``values`` holds the magnitudes: ``(pressure,)``, ``(fx, fy)`` or
    ``(flux,)``.  PRESSURE and FLUX act on the boundary edges whose
    endpoints both lie on the selector line; FORCE is split evenly over
    the selected nodes.
    """

    kind: str            # "pressure" | "force" | "flux"
    axis: str
    coord: float
    values: Tuple[float, ...]


@dataclass(frozen=True)
class AnalyzeSpec:
    """Everything the analysis section declared, validated for syntax
    (semantics -- missing materials, empty selectors -- are checked by
    the pipeline stages and the ANA lint rules)."""

    analysis: str                                  # ANALYSES value
    materials: Tuple[MaterialCard, ...] = ()
    thermal_materials: Tuple[ThermalMaterialCard, ...] = ()
    supports: Tuple[SupportCard, ...] = ()
    temps: Tuple[TempCard, ...] = ()
    loads: Tuple[LoadCardSpec, ...] = ()
    plots: Tuple[str, ...] = ()
    solver: str = "banded"
    modes: int = 3

    @property
    def is_static(self) -> bool:
        return self.analysis in ("plane_stress", "plane_strain",
                                 "axisymmetric")


@dataclass
class AnalyzeDeck:
    """One parsed analyze deck: the IDLZ problem and the analysis
    section."""

    problem: IdlzProblem
    spec: AnalyzeSpec

    @property
    def title(self) -> str:
        return self.problem.title


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

def read_analyze_deck(reader: CardReader) -> AnalyzeDeck:
    """Parse a combined deck: the IDLZ prefix, then the analysis cards.

    Refuses the deck on the first error of :func:`parse_analyze`, which
    holds the IDLZ prefix to exactly one problem -- the analysis cards
    address one mesh.
    """
    model = read_or_refuse(parse_analyze, reader)
    return AnalyzeDeck(problem=problem_from_raw(model.idlz.problems[0]),
                       spec=spec_from_model(model))


def spec_from_model(model: AnalyzeDeckModel) -> AnalyzeSpec:
    """The runtime spec of a parsed analysis section."""
    assert model.analysis is not None
    return AnalyzeSpec(
        analysis=model.analysis,
        materials=tuple(
            MaterialCard(group=m.group, youngs=m.youngs, poisson=m.poisson,
                         thickness=m.thickness, density=m.density)
            for m in model.materials),
        thermal_materials=tuple(
            ThermalMaterialCard(group=t.group, conductivity=t.conductivity,
                                density=t.density,
                                specific_heat=t.specific_heat)
            for t in model.thermal_materials),
        supports=tuple(
            SupportCard(axis=s.axis.lower(), coord=s.coord,
                        dofs=s.dofs.lower())
            for s in model.supports),
        temps=tuple(
            TempCard(axis=t.axis.lower(), coord=t.coord, value=t.value)
            for t in model.temps),
        loads=tuple(
            LoadCardSpec(kind=ld.kind.lower(), axis=ld.axis.lower(),
                         coord=ld.coord, values=ld.values)
            for ld in model.loads),
        plots=tuple(plot.name for plot in model.plots),
        solver=model.solver,
        modes=model.modes,
    )


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def write_analyze_deck(deck: AnalyzeDeck) -> CardWriter:
    """Punch a complete analyze deck (IDLZ prefix + analysis section)."""
    writer = write_idlz_deck([deck.problem])
    write_analyze_section(writer, deck.spec)
    return writer


def write_analyze_section(writer: CardWriter, spec: AnalyzeSpec) -> None:
    """Punch the ANALYZE ... END cards onto an existing writer."""
    def punch(keyword: str, *values: object) -> None:
        writer.punch(SECTION_FORMATS[keyword], [keyword, *values])

    punch("ANALYZE", ANALYSIS_KEYWORDS[spec.analysis])
    for mat in spec.materials:
        punch("MAT", mat.group, mat.youngs, mat.poisson, mat.thickness,
              mat.density)
    for tmat in spec.thermal_materials:
        punch("TMAT", tmat.group, tmat.conductivity, tmat.density,
              tmat.specific_heat)
    for sup in spec.supports:
        punch("FIX", sup.axis.upper(), sup.coord, sup.dofs.upper())
    for temp in spec.temps:
        punch("TEMP", temp.axis.upper(), temp.coord, temp.value)
    for load in spec.loads:
        punch(load.kind.upper(), load.axis.upper(), load.coord,
              *load.values)
    for plot in spec.plots:
        punch("PLOT", plot.upper())
    if spec.solver != "banded":
        punch("SOLVER", spec.solver.upper())
    if spec.modes != 3:
        punch("MODES", spec.modes)
    punch("END")
