"""Program IDLZ: automated idealization of a plane surface.

Public surface:

* :class:`Subdivision`, :class:`ShapingSegment` -- the analyst's inputs
* :class:`Idealizer` / :class:`Idealization` -- the program and its result
* :mod:`repro.core.idlz.output` -- plots, listing, punched cards
* :mod:`repro.core.idlz.deck`   -- the Appendix-B card deck reader/writer
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.idlz.subdivision": ["Subdivision", "SIDES"],
    "repro.core.idlz.shaping": ["ShapingSegment", "Shaper"],
    "repro.core.idlz.grid": ["LatticeGrid"],
    "repro.core.idlz.elements": ["create_elements", "triangulate_strip"],
    "repro.core.idlz.reform": ["reform_elements", "quality_report"],
    "repro.core.idlz.pipeline": ["Idealizer", "Idealization"],
    "repro.core.idlz.output": [
        "plot_mesh", "plot_idealization", "plot_subdivision", "plot_all",
        "print_listing", "punch_cards", "DEFAULT_NODAL_FORMAT",
        "DEFAULT_ELEMENT_FORMAT",
    ],
    "repro.core.idlz.deck": ["IdlzProblem", "read_idlz_deck",
                             "write_idlz_deck"],
    "repro.core.idlz.program": ["IdlzRun", "run_idlz", "run_idlz_files"],
})
