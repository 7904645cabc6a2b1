"""Chord arrangements: exact intersection and region counting.

The brute-force geometric oracle.  ``intersect_chords`` takes m circle
points in any order, puts them in angular order with ``build_arrangement``
(which rejects a repeated point), draws all C(m, 2) chords between them and
finds every interior intersection point in exact integer arithmetic, giving
a complete ``ChordArrangement``.  ``count_regions`` then counts regions via
Euler's formula

    regions inside the disk = E - V + 1

(V and E count the whole arrangement, including circle points and arcs;
the disk's interior faces number F - 1 with F from V - E + F = 2).

No general-position assumption is baked in: intersections are deduplicated
by exact coordinates, each interior point records every chord through it,
and points where three or more chords meet are kept as the arrangement's
``concurrent`` points instead of being silently miscounted.  That makes
the oracle sensitive to exactly the degeneracies that break the C(m, 4)
counting argument.

Interior points are stored once, as the crossing kernel's dict from
canonical integer homogeneous triple to the chords through it; the counts
read that dict, and rational coordinates are derived only for display and
JSON.

``prefix_region_counts`` reads the count of every prefix of the points (in
a given birth order) off one arrangement, by the same Euler formula.  The
layout families are nested, so ``verify_against_formula`` checks m = 1..K
with one K-point build per trial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    seeded_parameters,
)

# Candidate layouts generic_arrangement tries before giving up.
RETRY_BUDGET = 16


@dataclass(frozen=True, slots=True)
class InteriorPoint:
    """An exact interior intersection point and the chords through it.

    ``triple`` is the canonical homogeneous (X, Y, W): gcd 1 and W > 0.
    A library view of one ``ChordArrangement.crossings`` entry.
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
class ChordArrangement:
    """m circle points, all their chords, and every interior intersection.

    ``points`` are in counterclockwise angular order; ``chords`` lists
    point-index pairs in lexicographic order.  ``crossings`` maps each
    deduplicated interior point's canonical triple (X, Y, W) to the sorted
    indices of all chords through it, in the kernel's first-hit order, and
    ``concurrent`` lists the triples where three or more chords meet.
    """

    points: tuple[CirclePoint, ...]
    chords: tuple[tuple[int, int], ...]
    crossings: dict[tuple[int, int, int], tuple[int, ...]]
    concurrent: tuple[tuple[int, int, int], ...]

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def interior_points(self) -> tuple[InteriorPoint, ...]:
        """The crossings as ``InteriorPoint``s, built anew on each access."""
        return tuple(map(InteriorPoint, self.crossings.values(), self.crossings.keys()))

    @property
    def general_position(self) -> bool:
        """True when no three chords pass through one interior point.

        A purely geometric verdict: it does not consult the C(m, 4) count,
        so a kernel that drops crossings shows up as a wrong region count,
        not as a degenerate layout.
        """
        return not self.concurrent

    def describe_degeneracy(self) -> str:
        """One-line summary of the concurrent points, or ``none``."""
        if not self.concurrent:
            return "none"
        worst = max(len(self.crossings[t]) for t in self.concurrent)
        return (
            f"{len(self.concurrent)} concurrent intersection point(s) "
            f"(up to {worst} chords through one point)"
        )


@dataclass(frozen=True)
class RegionReport:
    """Region count of one arrangement, with the Euler ingredients."""

    m: int
    vertices: int
    edges: int
    regions: int
    general_position: bool


@dataclass(frozen=True)
class GeometricVerdict:
    """Outcome of checking constructed counts against the closed form."""

    m: int
    expected: int
    counts: tuple[int, ...]
    passed: bool
    failing_parameters: tuple[str, ...] | None = None


def build_arrangement(points: Iterable[CirclePoint]) -> tuple[CirclePoint, ...]:
    """The given circle points in counterclockwise angular order.

    This is the point-placement step of ``intersect_chords``.  A repeated
    point raises ValueError.
    """
    ordered: list[CirclePoint] = []
    seen: set[tuple[int, int, int]] = set()
    for p in points:
        if p.triple in seen:
            raise ValueError(f"duplicate circle point at parameter {p.parameter_text}")
        seen.add(p.triple)
        ordered.append(p)
    ordered.sort(key=lambda p: p.angle_key)
    return tuple(ordered)


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


def intersect_chords(points: Iterable[CirclePoint]) -> ChordArrangement:
    """The complete arrangement of all chords between ``points``, exactly.

    ``points`` may come in any order: ``build_arrangement`` sorts them by
    angle.  A repeated point or an empty input raises ValueError, so the
    kernel, ``count_regions`` and ``count_faces`` always get at least one
    point, all distinct and in angular order.  The kernel tests every chord
    pair without a shared endpoint for a proper crossing by integer
    orientation signs and returns the ``crossings`` map itself: one entry
    per crossing point's canonical homogeneous triple, with every chord
    through it.
    """
    points = build_arrangement(points)
    if not points:
        raise ValueError("arrangement needs at least one point")
    chords = tuple(itertools.combinations(range(len(points)), 2))
    px = [p.triple[0] for p in points]
    py = [p.triple[1] for p in points]
    pw = [p.triple[2] for p in points]
    ca = [a for a, _ in chords]
    cb = [b for _, b in chords]
    lx, ly, lw = _chord_lines(points, chords)
    crossings = _kernel.intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, 0, len(chords))

    # No crossing lies on the circle.  The kernel skips pairs that share an
    # endpoint, and its four sign tests are strict: the endpoints of each
    # chord lie strictly on opposite sides of the other chord's line.  So the
    # point is an endpoint of neither chord and lies on both open segments.
    # The disk is strictly convex, so the open segment between two distinct
    # circle points lies strictly inside it.  Every crossing is therefore an
    # interior point, and the JSON's "on_circle" list stays empty.
    concurrent = tuple(t for t, through in crossings.items() if len(through) >= 3)
    return ChordArrangement(points, chords, crossings, concurrent)


def count_regions(arr: ChordArrangement) -> RegionReport:
    """Regions inside the disk by Euler's formula on the exact arrangement.

    V = circle points + interior intersection points.
    E = one arc per circle point, plus each chord split into
        (1 + interior points on it) edges; summed over the chords, that is
        one per chord plus one per (interior point, chord through it).
    regions = E - V + 1.

    Works for degenerate arrangements too — that is the point: a triple
    point changes V and E and the count drops accordingly.
    """
    m = arr.m
    vertices = m + len(arr.crossings)
    edges = m + len(arr.chords) + sum(map(len, arr.crossings.values()))
    regions = edges - vertices + 1
    return RegionReport(
        m=m,
        vertices=vertices,
        edges=edges,
        regions=regions,
        general_position=arr.general_position,
    )


def prefix_region_counts(arr: ChordArrangement, births: SequenceABC[int]) -> list[int]:
    """Regions of every prefix of the arrangement, by Euler's formula.

    ``births[i]`` is the 1-based time at which ``arr.points[i]`` is added,
    a permutation of 1..m.  Entry k - 1 of the result counts the regions of
    the chords among the first k points alone.  A chord is born with its
    later endpoint and a crossing point with its second chord; each chord
    born after that adds one more edge at the point.  So, for each k,

        V_k = k + (crossing points born by k),
        E_k = k + sum over chords born by k of (1 + points on it by k),

    and regions_k = E_k - V_k + 1.  No general position is assumed: a
    point where several chords meet is one vertex at every k.
    """
    m = arr.m
    chord_birth = [max(births[a], births[b]) for a, b in arr.chords]
    # step[k] is what the k-th point adds to E - V.  The point and its arc
    # cancel; each new chord adds one edge, each new crossing one vertex and
    # two edges, and each later chord through a crossing one edge.  So every
    # chord through a crossing but its earliest-born one adds 1.
    step = [0] * (m + 1)
    for t in chord_birth:
        step[t] += 1
    for through in arr.crossings.values():
        if len(through) == 2:
            a, b = through
            ta, tb = chord_birth[a], chord_birth[b]
            step[ta if ta > tb else tb] += 1
        else:
            for t in sorted([chord_birth[c] for c in through])[1:]:
                step[t] += 1
    counts = []
    regions = 1
    for k in range(1, m + 1):
        regions += step[k]
        counts.append(regions)
    return counts


def generic_arrangement(m: int, *, variant: int = 0, seed: int | None = None) -> ChordArrangement:
    """A fully intersected general-position arrangement of m points.

    Candidate layouts come from ``seeded_parameters`` when a seed is given,
    else from ``generic_parameters`` with the given variant.  Each candidate
    is checked exactly; a degenerate one (never observed for these
    families, but checked anyway) is retried with a deterministic
    perturbation, up to ``RETRY_BUDGET`` attempts.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    for attempt in range(RETRY_BUDGET):
        if seed is None:
            params = generic_parameters(m, variant=variant, attempt=attempt)
        else:
            params = seeded_parameters(m, seed=seed, attempt=attempt)
        arr = intersect_chords(map(CirclePoint, params))
        if arr.general_position:
            return arr
    raise DegeneracyBudgetError(
        f"no general-position layout for m={m} within {RETRY_BUDGET} attempts"
    )


def hexagon_arrangement() -> ChordArrangement:
    """The exactly symmetric degenerate hexagon, fully intersected."""
    return intersect_chords(map(CirclePoint, hexagon_parameters()))


def verify_against_formula(m: int, trials: int, *, seed: int | None = None) -> GeometricVerdict:
    """Compare the constructed region counts of every k = 1..m with
    regions_binomial(k), on ``trials`` distinct general-position layouts.

    Both layout families are nested: the k-point layout is the first k
    parameters of the m-point one.  So each trial builds one arrangement,
    of m points, and reads every prefix's count off it with
    ``prefix_region_counts``; ``count_regions`` of the whole arrangement
    cross-checks the last of them.  Layout diversity comes from the variant
    index (or seed offset).  If the m-point layout needed a retry, the trial
    falls back to one ``generic_arrangement(k)`` per k, so every layout
    tested is the one ``generic_arrangement(k)`` gives.

    Scanning k in order, then the trials in order, the first mismatch is
    returned with the counts of the trials up to it and the failing
    layout's parameters in angular order; on a pass, the verdict is that
    of k = m.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seeds = [None if seed is None else seed + trial for trial in range(trials)]
    runs = [_prefix_counts(m, trial, s) for trial, s in enumerate(seeds)]
    for k in range(1, m + 1):
        expected = regions_binomial(k)
        for trial, counts in enumerate(runs):
            if counts[k - 1] != expected:
                failing = generic_arrangement(k, variant=trial, seed=seeds[trial])
                return GeometricVerdict(
                    m=k,
                    expected=expected,
                    counts=tuple(c[k - 1] for c in runs[: trial + 1]),
                    passed=False,
                    failing_parameters=tuple(p.parameter_text for p in failing.points),
                )
    return GeometricVerdict(
        m=m, expected=regions_binomial(m), counts=tuple(c[-1] for c in runs), passed=True
    )


def _prefix_counts(m: int, variant: int, seed: int | None) -> list[int]:
    """Region counts of ``generic_arrangement(k, variant=, seed=)`` for k = 1..m."""
    if seed is None:
        params = generic_parameters(m, variant=variant)
    else:
        params = seeded_parameters(m, seed=seed)
    birth = {t: i for i, t in enumerate(params, 1)}
    arr = generic_arrangement(m, variant=variant, seed=seed)
    births = [birth.get(p.t) for p in arr.points]
    if None in births:
        # generic_arrangement had to retry at m: build each k on its own.
        return [
            count_regions(generic_arrangement(k, variant=variant, seed=seed)).regions
            for k in range(1, m + 1)
        ]
    counts = prefix_region_counts(arr, births)
    assert count_regions(arr).regions == counts[-1]
    return counts


def _interior_point_json(triple: tuple[int, int, int], chords: tuple[int, ...]) -> dict:
    x, y, w = triple
    return {
        "x": format_rational(Fraction(x, w)),
        "y": format_rational(Fraction(y, w)),
        "chords": list(chords),
    }


def arrangement_to_json_dict(arr: ChordArrangement) -> dict:
    """A JSON-serializable snapshot of the arrangement.

    Rationals are rendered as ``p/q`` strings; point parameters use the
    same form with ``inf`` for the parameter-infinity point.
    """
    return {
        "schema_version": 1,
        "m": arr.m,
        "points": [p.parameter_text for p in arr.points],
        "chords": [list(c) for c in arr.chords],
        "interior_points": [_interior_point_json(*item) for item in arr.crossings.items()],
        "degeneracy": None if arr.general_position else {
            "concurrent": [_interior_point_json(t, arr.crossings[t]) for t in arr.concurrent],
            "on_circle": [],
            "summary": arr.describe_degeneracy(),
        },
        "general_position": arr.general_position,
    }
