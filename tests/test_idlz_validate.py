"""The IDLZ deck check (``idlz --check``): lint over one IDLZ deck.

Each problem is punched by the deck writer and linted as an IDLZ deck,
so the findings carry the lint code and the card they sit on.
"""

from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.lint import lint_text


def plate_problem(segments=None):
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=4, ll2=4)
    if segments is None:
        segments = [
            ShapingSegment(1, 1, 1, 4, 1, 0.0, 0.0, 3.0, 0.0),
            ShapingSegment(1, 1, 4, 4, 4, 0.0, 3.0, 3.0, 3.0),
        ]
    return IdlzProblem(title="T", subdivisions=[sub], segments=segments)


def check(problem, strict=False):
    return lint_text(write_idlz_deck([problem]).to_text(), "t.deck",
                     program="idlz", strict=strict)


def findings(problem, strict=False):
    """``(code, severity, card)`` of every diagnostic."""
    return [(d.code, d.severity, d.location.card)
            for d in check(problem, strict).diagnostics]


def two_subdivisions(order):
    """Sub 2 locates only its right side; its left side is sub 1's
    right side, located once sub 1 has shaped."""
    subs = {1: Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=3),
            2: Subdivision(index=2, kk1=3, ll1=1, kk2=5, ll2=3)}
    segments = [
        ShapingSegment(1, 1, 1, 1, 3, 0, 0, 0, 2),
        ShapingSegment(1, 3, 1, 3, 3, 1, 0, 1, 2),
        ShapingSegment(2, 5, 1, 5, 3, 3, 0, 3, 2),
    ]
    return IdlzProblem(title="T", subdivisions=[subs[i] for i in order],
                       segments=segments)


class TestCleanDecks:
    def test_valid_problem_is_clean(self):
        assert check(plate_problem()).diagnostics == []

    def test_every_library_structure_is_clean(self, built_structures):
        for name, built in built_structures.items():
            result = check(built.case.problem())
            assert result.clean, f"{name}: {result.diagnostics}"


class TestStructuralErrors:
    def test_unknown_subdivision_flagged(self):
        # The writer only punches declared subdivisions, so the type-5
        # card naming subdivision 9 is punched by hand.
        cards = write_idlz_deck([plate_problem()]).to_text().splitlines()
        cards[4] = "    9    2"
        result = lint_text("\n".join(cards) + "\n", "t.deck",
                           program="idlz")
        assert [d.location.card for d in result.errors
                if d.code == "IDZ006"] == [5, 6, 7]

    def test_duplicate_subdivision_number_flagged(self):
        problem = plate_problem()
        problem.subdivisions.append(
            Subdivision(index=1, kk1=4, ll1=1, kk2=6, ll2=4)
        )
        assert findings(problem) == [("IDZ005", "error", 5)]

    def test_endpoints_off_side_flagged(self):
        problem = plate_problem(segments=[
            ShapingSegment(1, 2, 2, 3, 3, 0, 0, 1, 1),  # interior run
            ShapingSegment(1, 1, 1, 4, 1, 0, 0, 3, 0),
            ShapingSegment(1, 1, 4, 4, 4, 0, 3, 3, 3),
        ])
        assert findings(problem) == [("IDZ201", "error", 6)]

    def test_point_off_lattice_flagged(self):
        problem = plate_problem()
        problem.segments.append(
            ShapingSegment(1, 9, 9, 9, 9, 1, 1, 1, 1)
        )
        assert findings(problem) == [("IDZ209", "error", 8)]


class TestArcErrors:
    def test_impossible_radius_flagged(self):
        problem = plate_problem(segments=[
            # Chord 3 with radius 1: impossible circle.
            ShapingSegment(1, 1, 1, 4, 1, 0, 0, 3, 0, radius=1.0),
            ShapingSegment(1, 1, 4, 4, 4, 0, 3, 3, 3),
        ])
        assert findings(problem) == [("IDZ204", "error", 6)]

    def test_over_90_degree_arc_flagged(self):
        problem = plate_problem(segments=[
            # Chord 3 with radius 1.6: sweep ~140 degrees.
            ShapingSegment(1, 1, 1, 4, 1, 0, 0, 3, 0, radius=1.6),
            ShapingSegment(1, 1, 4, 4, 4, 0, 3, 3, 3),
        ])
        assert findings(problem) == [("IDZ205", "error", 6)]

    def test_degenerate_straight_segment_flagged(self):
        problem = plate_problem(segments=[
            ShapingSegment(1, 1, 1, 4, 1, 2, 2, 2, 2),
            ShapingSegment(1, 1, 4, 4, 4, 0, 3, 3, 3),
        ])
        assert findings(problem) == [("IDZ202", "error", 6)]


class TestShapeability:
    def test_missing_pair_detected(self):
        problem = plate_problem(segments=[
            ShapingSegment(1, 1, 1, 4, 1, 0, 0, 3, 0),  # bottom only
        ])
        assert findings(problem) == [("IDZ207", "error", 4)]

    def test_dependency_through_earlier_subdivision(self):
        assert check(two_subdivisions([1, 2])).diagnostics == []

    def test_wrong_order_detected(self):
        # Sub 2 punched first (card 4): its left side is not yet
        # located when it shapes.
        assert findings(two_subdivisions([2, 1])) == [("IDZ207", "error", 4)]

    def test_over_located_warns(self):
        problem = plate_problem(segments=[
            ShapingSegment(1, 1, 1, 4, 1, 0, 0, 3, 0),
            ShapingSegment(1, 1, 4, 4, 4, 0, 3, 3, 3),
            ShapingSegment(1, 1, 1, 1, 4, 0, 0, 0, 3),
            ShapingSegment(1, 4, 1, 4, 4, 3, 0, 3, 3),
        ])
        assert findings(problem) == [("IDZ208", "warning", 4)]


class TestLimits:
    def test_strict_limits_applied(self):
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=41, ll2=3)
        wide = IdlzProblem(title="WIDE", subdivisions=[sub], segments=[])
        assert ("LIM002", "error", 4) in findings(wide, strict=True)
        assert ("LIM002", "warning", 4) in findings(wide)

    def test_report_str_lists_findings(self):
        lines = [d.render() for d in check(plate_problem(segments=[]))
                 .diagnostics]
        assert len(lines) == 1
        assert lines[0].startswith("t.deck:4: error IDZ207: ")

    def test_clean_report_str(self):
        result = check(plate_problem())
        assert result.clean and result.ok
