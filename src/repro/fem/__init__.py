"""Finite-element substrate.

The paper's programs bracket an *analysis program* (its References 1 and 3:
NSRDC in-house axisymmetric stress and transient thermal codes).  To run
the full pipeline -- idealize with IDLZ, analyse, plot with OSPL -- this
package implements that substrate from scratch:

* :mod:`repro.fem.mesh`       -- triangular meshes with OSPL boundary flags
* :mod:`repro.fem.materials`  -- isotropic/orthotropic elastic + thermal
* :mod:`repro.fem.elements`   -- CST (plane stress/strain), axisymmetric
  ring triangle, and heat-conduction triangle
* :mod:`repro.fem.assembly`   -- global system assembly
* :mod:`repro.fem.banded`     -- symmetric banded Cholesky (the
  1970-authentic solver whose cost depends on the matrix bandwidth)
* :mod:`repro.fem.bc`, :mod:`repro.fem.loads` -- constraints and loading
* :mod:`repro.fem.solve`      -- static analysis driver
* :mod:`repro.fem.stress`     -- stress recovery and the named components
  plotted in the paper (effective, circumferential, meridional, radial,
  shear)
* :mod:`repro.fem.thermal`    -- steady and transient heat conduction with
  radiant-pulse loading (Figure 14)
* :mod:`repro.fem.bandwidth`  -- bandwidth metrics and reverse
  Cuthill-McKee renumbering (the paper's Reference 2 scheme)
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fem.mesh": ["Mesh"],
    "repro.fem.materials": ["IsotropicElastic", "OrthotropicElastic",
                            "ThermalMaterial", "AnalysisType"],
    "repro.fem.solve": ["StaticAnalysis"],
    "repro.fem.bc": ["Constraints"],
    "repro.fem.loads": ["LoadCase"],
    "repro.fem.stress": ["StressField", "StressComponent",
                         "recover_stresses"],
    "repro.fem.thermal": ["ThermalAnalysis", "ThermalPulse"],
    "repro.fem.bandwidth": ["mesh_bandwidth", "reverse_cuthill_mckee",
                            "renumber_mesh"],
    "repro.fem.results": ["NodalField"],
    "repro.fem.thermal_stress": ["ThermalStressAnalysis",
                                 "thermal_load_case"],
    "repro.fem.skyline": ["SkylineMatrix", "assemble_skyline"],
    "repro.fem.quality": ["MeshQuality", "mesh_quality",
                          "triangle_measures"],
    "repro.fem.postplot": ["plot_deformed", "auto_scale"],
    "repro.fem.reactions": ["ReactionReport", "compute_reactions",
                            "reactions_for"],
    "repro.fem.strain": ["StrainComponent", "StrainField",
                         "recover_strains"],
    "repro.fem.dynamics": ["ModalResult", "modal_analysis", "mass_density"],
})
