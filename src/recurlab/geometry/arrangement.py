"""Chord arrangements: construction, exact intersection, region counting.

The brute-force geometric oracle.  Given m points on the unit circle, draw
all C(m, 2) chords, find every interior intersection point in exact integer
arithmetic, and count regions via Euler's formula

    regions inside the disk = E - V + 1

(V and E count the whole arrangement, including circle points and arcs;
the disk's interior faces number F - 1 with F from V - E + F = 2).

No general-position assumption is baked in: intersections are deduplicated
by exact coordinates, each interior point records every chord through it,
and concurrences are reported in a DegeneracyReport instead of being
silently miscounted.  That makes the oracle sensitive to exactly the
degeneracies that break the C(m, 4) counting argument.

Interior points are stored once, as canonical integer homogeneous
triples; rational coordinates are derived only for display and JSON.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence as SequenceABC

from ..core_numeric import Rational, format_rational
from ..errors import DegeneracyBudgetError
from ..moser_formulas import regions_binomial
from . import _kernel
from .points import (
    CirclePoint,
    generic_parameters,
    hexagon_parameters,
    regular_approx_parameters,
    seeded_parameters,
)


@dataclass(frozen=True, slots=True)
class InteriorPoint:
    """An exact interior intersection point and the chords through it.

    ``triple`` is the canonical homogeneous (X, Y, W): gcd 1 and W > 0.
    """

    chords: tuple[int, ...]
    triple: tuple[int, int, int]

    @property
    def x(self) -> Rational:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def y(self) -> Rational:
        return Fraction(self.triple[1], self.triple[2])


@dataclass(frozen=True)
class DegeneracyReport:
    """Everything that violates general position.

    ``concurrent``: interior points where >= 3 chords meet.
    ``on_circle``: always empty, since every crossing lies strictly inside
    the disk (see ``intersect_chords``); kept so that JSON schema v1 still
    carries its ``"on_circle": []`` key.
    """

    concurrent: tuple[InteriorPoint, ...]
    on_circle: tuple[InteriorPoint, ...] = ()

    def describe(self) -> str:
        parts = []
        if self.concurrent:
            worst = max(len(p.chords) for p in self.concurrent)
            parts.append(
                f"{len(self.concurrent)} concurrent intersection point(s) "
                f"(up to {worst} chords through one point)"
            )
        return "; ".join(parts) if parts else "none"


@dataclass(frozen=True)
class ChordArrangement:
    """m circle points, all their chords, and (once computed) intersections.

    ``points`` are in counterclockwise angular order; ``chords`` lists
    point-index pairs in lexicographic order.  ``interior_points`` is None
    until ``intersect_chords`` has run; afterwards it holds the
    deduplicated intersection points, each with all chords through it.
    """

    points: tuple[CirclePoint, ...]
    chords: tuple[tuple[int, int], ...]
    interior_points: tuple[InteriorPoint, ...] | None = None
    degeneracy: DegeneracyReport | None = None

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def intersected(self) -> bool:
        return self.interior_points is not None

    @property
    def general_position(self) -> bool:
        """True when no three chords pass through one interior point.

        A purely geometric verdict: it does not consult the C(m, 4) count,
        so a kernel that drops crossings shows up as a wrong region count,
        not as a degenerate layout.
        """
        if self.interior_points is None:
            raise ValueError("intersections not computed yet; call intersect_chords")
        return self.degeneracy is None


@dataclass(frozen=True)
class RegionReport:
    """Region count of one arrangement, with the Euler ingredients."""

    m: int
    vertices: int
    edges: int
    regions: int
    general_position: bool
    method: str = "geometric"


@dataclass(frozen=True)
class GeometricVerdict:
    """Outcome of checking constructed counts against the closed form."""

    m: int
    expected: int
    counts: tuple[int, ...]
    passed: bool
    failing_parameters: tuple[str, ...] | None = None


def _sorted_points(parameters: Iterable[Fraction | None]) -> tuple[CirclePoint, ...]:
    points = [CirclePoint(t) for t in parameters]
    seen: set[tuple[int, int, int]] = set()
    for p in points:
        if p.triple in seen:
            raise ValueError(f"duplicate circle point at parameter {p.parameter_text}")
        seen.add(p.triple)
    points.sort(key=lambda p: p.angle_key)
    return tuple(points)


def build_arrangement(points: SequenceABC[CirclePoint]) -> ChordArrangement:
    """Arrangement of all chords between the given circle points."""
    ordered = _sorted_points(p.t for p in points)
    chords = tuple(itertools.combinations(range(len(ordered)), 2))
    return ChordArrangement(points=ordered, chords=chords)


def _chord_lines(
    points: SequenceABC[CirclePoint], chords: SequenceABC[tuple[int, int]]
) -> tuple[list[int], list[int], list[int]]:
    """Integer line triples (cross products of endpoint triples), gcd-reduced."""
    lx: list[int] = []
    ly: list[int] = []
    lw: list[int] = []
    for a, b in chords:
        x1, y1, w1 = points[a].triple
        x2, y2, w2 = points[b].triple
        l0 = y1 * w2 - w1 * y2
        l1 = w1 * x2 - x1 * w2
        l2 = x1 * y2 - y1 * x2
        g = gcd(gcd(abs(l0), abs(l1)), abs(l2))
        lx.append(l0 // g)
        ly.append(l1 // g)
        lw.append(l2 // g)
    return lx, ly, lw


def intersect_chords(arr: ChordArrangement) -> ChordArrangement:
    """Compute all interior intersection points, exactly.

    Every chord pair without a shared endpoint is tested for a proper
    crossing by integer orientation signs; crossing points are
    deduplicated by their canonical homogeneous triple, and every chord
    through each point is recorded.
    """
    points = arr.points
    px = [p.triple[0] for p in points]
    py = [p.triple[1] for p in points]
    pw = [p.triple[2] for p in points]
    ca = [a for a, _ in arr.chords]
    cb = [b for _, b in arr.chords]
    lx, ly, lw = _chord_lines(points, arr.chords)
    hits = _kernel.intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, 0, len(arr.chords))

    # A point's first hit stores its chord pair (i, j), already sorted; only
    # a point that is hit again (three or more chords through it) gets the
    # sorted union.  Points keep first-hit order, so output order follows
    # the kernel's (i, j) order.
    by_triple: dict[tuple[int, int, int], tuple[int, ...]] = {}
    repeated = False
    for i, j, x, y, w in hits:
        pair = (i, j)
        through = by_triple.setdefault((x, y, w), pair)
        if through is not pair:
            by_triple[x, y, w] = tuple(sorted({*through, i, j}))
            repeated = True

    # No hit lies on the circle.  The kernel skips pairs that share an
    # endpoint, and its four sign tests are strict: the endpoints of each
    # chord lie strictly on opposite sides of the other chord's line.  So the
    # hit is an endpoint of neither chord and lies on both open segments.
    # The disk is strictly convex, so the open segment between two distinct
    # circle points lies strictly inside it.  Every hit is therefore an
    # interior point, and DegeneracyReport.on_circle stays empty.
    interior = tuple(map(InteriorPoint, by_triple.values(), by_triple.keys()))
    concurrent = tuple(p for p in interior if len(p.chords) >= 3) if repeated else ()
    degeneracy = DegeneracyReport(concurrent=concurrent) if concurrent else None
    return replace(arr, interior_points=interior, degeneracy=degeneracy)


def count_regions(arr: ChordArrangement) -> RegionReport:
    """Regions inside the disk by Euler's formula on the exact arrangement.

    V = circle points + interior intersection points.
    E = one arc per circle point, plus each chord split into
        (1 + interior points on it) edges.
    regions = E - V + 1.

    Works for degenerate arrangements too — that is the point: a triple
    point changes V and E and the count drops accordingly.
    """
    if arr.interior_points is None:
        raise ValueError("intersections not computed yet; call intersect_chords")
    m = arr.m
    if m < 1:
        raise ValueError("arrangement needs at least one point")
    vertices = m + len(arr.interior_points)
    splits = [0] * len(arr.chords)
    for point in arr.interior_points:
        for chord in point.chords:
            splits[chord] += 1
    edges = m + sum(1 + s for s in splits)
    regions = edges - vertices + 1
    return RegionReport(
        m=m,
        vertices=vertices,
        edges=edges,
        regions=regions,
        general_position=arr.general_position,
    )


def generic_arrangement(
    m: int,
    *,
    variant: int = 0,
    seed: int | None = None,
    retry_budget: int = 16,
) -> ChordArrangement:
    """A fully intersected general-position arrangement of m points.

    Candidate layouts come from ``seeded_parameters`` when a seed is given,
    else from ``generic_parameters`` with the given variant.  Each candidate
    is checked exactly; a degenerate one (never observed for these
    families, but checked anyway) is retried with a deterministic
    perturbation, up to ``retry_budget`` attempts.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if retry_budget < 1:
        raise ValueError(f"retry_budget must be >= 1, got {retry_budget}")
    for attempt in range(retry_budget):
        if seed is None:
            params = generic_parameters(m, variant=variant, attempt=attempt)
        else:
            params = seeded_parameters(m, seed=seed, attempt=attempt)
        arr = intersect_chords(build_arrangement([CirclePoint(t) for t in params]))
        if arr.general_position:
            return arr
    raise DegeneracyBudgetError(
        f"no general-position layout for m={m} within {retry_budget} attempts"
    )


def place_points(
    m: int,
    mode: str = "generic",
    params: SequenceABC[Fraction | None] | None = None,
    *,
    variant: int = 0,
    seed: int | None = None,
    retry_budget: int = 16,
) -> tuple[CirclePoint, ...]:
    """Place m distinct points on the circle, sorted by angle.

    Modes:

    - ``generic``: deterministic layout, *verified* to be in general
      position (retried with perturbations if not, failing with
      DegeneracyBudgetError after ``retry_budget`` attempts).  With
      ``seed`` set, the layout is pseudo-random but reproducible.
    - ``regular-approx``: rational approximations of regular m-gon
      vertices; intentionally NOT degeneracy-checked, since for even m
      its exact antipodal pairs are degenerate by design.
    - ``explicit``: use ``params`` as given (length m, distinct).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if mode == "explicit":
        if params is None:
            raise ValueError("explicit mode requires params")
        if len(params) != m:
            raise ValueError(f"expected {m} parameters, got {len(params)}")
        return _sorted_points(params)
    if mode == "regular-approx":
        return _sorted_points(regular_approx_parameters(m))
    if mode == "generic":
        return generic_arrangement(
            m, variant=variant, seed=seed, retry_budget=retry_budget
        ).points
    raise ValueError(f"unknown placement mode: {mode!r}")


def hexagon_arrangement() -> ChordArrangement:
    """The exactly symmetric degenerate hexagon, fully intersected."""
    points = place_points(6, mode="explicit", params=hexagon_parameters())
    return intersect_chords(build_arrangement(points))


def verify_against_formula(
    m: int,
    trials: int,
    *,
    seed: int | None = None,
    retry_budget: int = 16,
) -> GeometricVerdict:
    """Count regions for ``trials`` distinct general-position layouts of m
    points and compare each count with regions_binomial(m).

    Layout diversity comes from the variant index (or seed offset), so
    repeated trials exercise genuinely different coordinates.  Returns the
    verdict with all counts; on the first mismatch the failing layout's
    parameters are included.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    expected = regions_binomial(m)
    counts: list[int] = []
    for trial in range(trials):
        arr = generic_arrangement(
            m,
            variant=trial,
            seed=None if seed is None else seed + trial,
            retry_budget=retry_budget,
        )
        report = count_regions(arr)
        counts.append(report.regions)
        if report.regions != expected:
            return GeometricVerdict(
                m=m,
                expected=expected,
                counts=tuple(counts),
                passed=False,
                failing_parameters=tuple(p.parameter_text for p in arr.points),
            )
    return GeometricVerdict(m=m, expected=expected, counts=tuple(counts), passed=True)


def _interior_point_json(point: InteriorPoint) -> dict:
    return {
        "x": format_rational(point.x),
        "y": format_rational(point.y),
        "chords": list(point.chords),
    }


def arrangement_to_json_dict(arr: ChordArrangement) -> dict:
    """A JSON-serializable snapshot of the arrangement.

    Rationals are rendered as ``p/q`` strings; point parameters use the
    same form with ``inf`` for the parameter-infinity point.
    """
    payload = {
        "schema_version": 1,
        "m": arr.m,
        "points": [p.parameter_text for p in arr.points],
        "chords": [list(c) for c in arr.chords],
        "interior_points": None,
        "degeneracy": None,
        "general_position": None,
    }
    if arr.interior_points is not None:
        payload["interior_points"] = [_interior_point_json(p) for p in arr.interior_points]
        payload["general_position"] = arr.general_position
        if arr.degeneracy is not None:
            payload["degeneracy"] = {
                "concurrent": [_interior_point_json(p) for p in arr.degeneracy.concurrent],
                "on_circle": [_interior_point_json(p) for p in arr.degeneracy.on_circle],
                "summary": arr.degeneracy.describe(),
            }
    return payload
