"""repro: a reproduction of Rockwell & Pincus (1970), "Computer Aided
Input/Output for Use with the Finite Element Method of Structural
Analysis" (NSRDC / DAC 1970).

The package rebuilds the paper's two programs and every substrate they
leaned on:

* **IDLZ** (:mod:`repro.core.idlz`) -- automated idealization: rectangular
  / trapezoidal / triangular subdivisions on an integer lattice, node
  numbering, element creation, boundary shaping with lines and arcs,
  element reformation, bandwidth renumbering, plots and punched cards.
* **OSPL** (:mod:`repro.core.ospl`) -- isogram (contour) plots of nodal
  fields, with the Appendix-D automatic interval and boundary labelling.
* **FEM substrate** (:mod:`repro.fem`) -- plane stress/strain and
  axisymmetric CST analysis plus transient heat conduction, standing in
  for the paper's References 1 and 3.
* **Cards** (:mod:`repro.cards`) -- a FORTRAN FORMAT engine and the
  Appendix B/C deck layouts.
* **Plotter** (:mod:`repro.plotter`) -- an SC-4020 simulator rendering to
  SVG and ASCII.
* **Structures** (:mod:`repro.structures`) -- parametric builders of the
  paper's example geometries (Figures 1, 6-9, 13-18).

Quickstart::

    from repro import Idealizer, Subdivision, ShapingSegment, conplt
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=9)
    ideal = Idealizer("DEMO", [sub]).run([
        ShapingSegment(1, 1, 1, 5, 1, 1.0, 0.0, 2.0, 0.0),
        ShapingSegment(1, 1, 9, 5, 9, 1.0, 3.0, 2.0, 3.0),
    ])
    print(ideal.summary())
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": [
        "ReproError", "GeometryError", "ArcError", "CardError",
        "FormatError", "LimitError", "IdealizationError", "ShapingError",
        "ContourError", "MeshError", "MaterialError", "SolverError",
        "BoundaryConditionError", "PlotterError", "BatchError",
    ],
    "repro.core.idlz": [
        "Subdivision", "ShapingSegment", "Idealizer", "Idealization",
        "IdlzProblem", "read_idlz_deck", "write_idlz_deck",
        "plot_idealization", "plot_all", "print_listing", "punch_cards",
    ],
    "repro.core.ospl": [
        "conplt", "ContourPlot", "contour_mesh", "choose_interval",
        "OsplProblem", "read_ospl_deck", "write_ospl_deck",
    ],
    "repro.fem": [
        "Mesh", "IsotropicElastic", "OrthotropicElastic", "ThermalMaterial",
        "StaticAnalysis", "AnalysisType", "StressComponent",
        "ThermalAnalysis", "ThermalPulse", "NodalField",
        "mesh_bandwidth", "renumber_mesh",
    ],
    "repro.plotter": ["Plotter4020", "render_svg", "save_svg",
                      "render_ascii"],
})
