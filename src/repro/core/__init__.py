"""The paper's primary contribution: programs IDLZ and OSPL.

* :mod:`repro.core.idlz` -- automated idealization (mesh generation)
* :mod:`repro.core.ospl` -- automated output plotting (isograms)
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.idlz": ["Idealizer", "Idealization", "Subdivision",
                        "ShapingSegment"],
    "repro.core.ospl": ["ContourPlot", "contour_mesh", "choose_interval"],
})
