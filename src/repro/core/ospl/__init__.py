"""Program OSPL: isogram plots of finite-element output.

Public surface:

* :func:`conplt` / :class:`ContourPlot` -- the program (CALL CONPLT route)
* :func:`contour_mesh` / :class:`ContourSet` -- raw isogram extraction
* :func:`choose_interval` -- the Appendix-D automatic interval
* :mod:`repro.core.ospl.deck`   -- the Appendix-C card deck
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.ospl.intervals": ["choose_interval", "contour_levels",
                                  "ladder_values", "BASES",
                                  "TARGET_FRACTION"],
    "repro.core.ospl.contour": ["ContourSet", "LevelSegments",
                                "contour_mesh", "triangle_crossings"],
    "repro.core.ospl.boundary": ["boundary_segments", "boundary_chains",
                                 "boundary_edge_list", "boundary_pairs"],
    "repro.core.ospl.labels": ["Label", "format_level", "place_labels"],
    "repro.core.ospl.plot": ["ContourPlot", "conplt"],
    "repro.core.ospl.deck": ["OsplProblem", "read_ospl_deck",
                             "write_ospl_deck", "problem_from_analysis"],
    "repro.core.ospl.program": ["OsplRun", "run_ospl", "run_ospl_files"],
    "repro.core.ospl.series": ["plot_increments"],
    "repro.core.ospl.listing": ["print_field", "print_fields",
                                "page_count"],
})
