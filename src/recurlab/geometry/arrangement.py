"""Chord arrangements: exact intersection and region counting.

The brute-force geometric oracle.  ``intersect_chords`` takes m circle
points in any order, puts them in angular order with ``build_arrangement``
(which rejects a repeated point), draws all C(m, 2) chords between them and
finds every interior intersection point in exact integer arithmetic, giving
a complete ``ChordArrangement``, which also keeps the order the points
were given in.  ``count_regions`` then counts regions via Euler's formula

    regions inside the disk = E - V + 1

(V and E count the whole arrangement, including circle points and arcs;
the disk's interior faces number F - 1 with F from V - E + F = 2).

No general-position assumption is baked in: each interior point is found
once, by exact integer keys along its chords, and records every chord
through it.  Points where three or more chords meet are kept as the
arrangement's ``concurrent`` points instead of being silently miscounted.
That makes the oracle sensitive to exactly the degeneracies that break the
C(m, 4) counting argument.

``prefix_region_counts`` reads the count of every prefix of the points, in
the order given, off one arrangement, by the same Euler formula.  The
layout families are nested, so one call of ``verify_against_formula`` is
one trial: a single K-point build whose counts for m = 1..K it hands back,
checked against formula values its caller passes.  ``generic_arrangement``
builds either family once, as both are proven to be in general position.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from math import gcd

from ..core_numeric import format_quotient
from . import _kernel
from .points import (
    CirclePoint,
    generic_parameters,
    hexagon_parameters,
    seeded_parameters,
)


@dataclass(frozen=True, slots=True)
class InteriorPoint:
    """An exact interior intersection point and the chords through it.

    ``triple`` is the canonical homogeneous (X, Y, W): gcd 1 and W > 0.
    A library view of one ``ChordArrangement.crossings`` entry.
    """

    chords: tuple[int, ...]
    triple: tuple[int, int, int]


@dataclass(frozen=True)
class ChordArrangement:
    """m circle points, all their chords, and every interior intersection.

    ``points`` are in counterclockwise angular order, and ``births[i]`` is
    the 1-based position of ``points[i]`` in the order the points were
    given, which ``prefix_region_counts`` reads.  The interior points
    are kept as the kernel finds them: ``pairs[i]`` is the bitset of the
    points where exactly two chords meet on chord i, bit k set iff chord
    i + 1 + k is the other one, and ``concurrent`` holds the sorted tuple
    of the chords through each point of 3 or more chords, ascending.
    ``crossings`` lists them all as tuples.  ``sides[c][p]`` is the
    kernel's |s_c(p)|, which the face walk reads; it stays out of ``repr``
    and comparisons.  ``chords`` (the point-index pairs in lexicographic
    order) is derived.

    Construction checks the invariants every count relies on: at least one
    point, in strictly increasing ``angle_key`` order (so also distinct),
    ``births`` a permutation of 1..m, one ``pairs`` row per chord with no
    bit past the last chord, and one ``sides`` row per chord of one entry
    per point.  A ValueError names the one that fails.
    """

    points: tuple[CirclePoint, ...]
    births: tuple[int, ...]
    chords: tuple[tuple[int, int], ...] = field(init=False)
    pairs: list[int]
    concurrent: tuple[tuple[int, ...], ...]
    sides: list[list[int]] = field(repr=False, compare=False)

    def __post_init__(self):
        if not self.points:
            raise ValueError("arrangement needs at least one point")
        keys = [p.angle_key for p in self.points]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("arrangement points must be in strictly increasing angular order")
        if sorted(self.births) != list(range(1, len(keys) + 1)):
            raise ValueError("arrangement births must be a permutation of 1..m")
        object.__setattr__(self, "chords", tuple(itertools.combinations(range(len(keys)), 2)))
        n = len(self.chords)
        if len(self.pairs) != n or any(row >> n - 1 - i for i, row in enumerate(self.pairs)):
            raise ValueError("arrangement pairs must hold one row per chord, of later chords only")
        if len(self.sides) != n or any(len(row) != len(keys) for row in self.sides):
            raise ValueError("arrangement sides must hold one row per chord and one entry per point")

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def crossings(self) -> tuple[tuple[int, ...], ...]:
        """The sorted chords through each interior point, in ascending
        order, built anew on each access.  No count reads it."""
        ids = range(len(self.pairs))
        simple = [(i, j) for i, row in enumerate(self.pairs) for j in _kernel.partners(ids, i, row)]
        return tuple(sorted(simple + list(self.concurrent)))

    @property
    def interior_points(self) -> tuple[InteriorPoint, ...]:
        """The crossings as ``InteriorPoint``s, built anew on each access.

        A point's triple is the point on the lines of its first two chords,
        (a, b) and (c, d), over its gcd.  Its w is positive: the chords
        cross, so a < c < b < d counterclockwise, and as (A x B) x (C x D) =
        det(A, B, D) C - det(A, B, C) D, w is a positive multiple of
        cross(b - a, d - c), twice the area of the quadrilateral a, c, b, d.
        """
        ends = [p.triple for p in self.points]
        lines = [_cross(ends[a], ends[b]) for a, b in self.chords]
        points = []
        for chords in self.crossings:
            x, y, w = _cross(lines[chords[0]], lines[chords[1]])
            assert w > 0
            g = gcd(x, y, w)
            points.append(InteriorPoint(chords, (x // g, y // g, w // g)))
        return tuple(points)

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
        worst = max(map(len, self.concurrent))
        return (
            f"{len(self.concurrent)} concurrent intersection point(s) "
            f"(up to {worst} chords through one point)"
        )


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


def _cross(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    """The line through two homogeneous points, or the point on two lines."""
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _chord_lines(
    points: Sequence[CirclePoint], chords: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int], list[int]]:
    """Integer line triples (cross products of endpoint triples), gcd-reduced."""
    lx, ly, lw = [], [], []
    for a, b in chords:
        l0, l1, l2 = _cross(points[a].triple, points[b].triple)
        g = gcd(l0, l1, l2)
        lx.append(l0 // g)
        ly.append(l1 // g)
        lw.append(l2 // g)
    return lx, ly, lw


def intersect_chords(points: Iterable[CirclePoint]) -> ChordArrangement:
    """The complete arrangement of all chords between ``points``, exactly.

    ``points`` may come in any order: ``build_arrangement`` sorts them by
    angle, and ``births`` keeps each one's position in the given order.  A
    repeated point or an empty input raises ValueError, so the kernel,
    ``count_regions`` and ``count_faces`` always get at least one point,
    all distinct and in angular order.  The kernel tests every chord pair
    without a shared endpoint for a proper crossing by integer orientation
    signs, and its row bitsets and concurrent points are the arrangement's
    ``pairs`` and ``concurrent`` as they come.
    """
    given = list(points)
    points = build_arrangement(given)
    position = {p: i for i, p in enumerate(given, 1)}
    chords = tuple(itertools.combinations(range(len(points)), 2))
    px = [p.triple[0] for p in points]
    py = [p.triple[1] for p in points]
    pw = [p.triple[2] for p in points]
    ca = [a for a, _ in chords]
    cb = [b for _, b in chords]
    lx, ly, lw = _chord_lines(points, chords)
    sides = []
    pairs, concurrent = _kernel.intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, 0, len(chords), sides)

    # No crossing lies on the circle.  The kernel skips pairs that share an
    # endpoint, and its four sign tests are strict: the endpoints of each
    # chord lie strictly on opposite sides of the other chord's line.  So the
    # point is an endpoint of neither chord and lies on both open segments.
    # The disk is strictly convex, so the open segment between two distinct
    # circle points lies strictly inside it.  Every crossing is therefore an
    # interior point, and the JSON's "on_circle" list stays empty.
    return ChordArrangement(points, tuple(position[p] for p in points), pairs, tuple(concurrent), sides)


def count_regions(arr: ChordArrangement) -> tuple[int, int, int]:
    """(V, E, regions) of the exact arrangement, by Euler's formula.

    V = circle points + interior intersection points.
    E = one arc per circle point, plus each chord split into
        (1 + interior points on it) edges; summed over the chords, that is
        one per chord plus one per (interior point, chord through it).
    regions = E - V + 1.
    With P the bits of ``pairs`` (the points of two chords), V = m + P +
    len(concurrent) and E = m + C(m, 2) + 2P + the concurrent points' sizes.

    In general position this is ``euler_counts(arr.m)``.  It works for
    degenerate arrangements too — that is the point: a triple point changes
    V and E and the count drops accordingly.
    """
    simple = sum(map(int.bit_count, arr.pairs))
    vertices = arr.m + simple + len(arr.concurrent)
    edges = arr.m + len(arr.chords) + 2 * simple + sum(map(len, arr.concurrent))
    return vertices, edges, edges - vertices + 1


def prefix_region_counts(arr: ChordArrangement) -> list[int]:
    """Regions of every prefix of the arrangement, by Euler's formula.

    The points are added in the order they were given: ``arr.births[i]``
    is the time at which ``arr.points[i]`` is added.  Entry k - 1 of the
    result counts the regions of the chords among the first k points
    alone.  A chord is born with its later endpoint and a crossing point
    with its second chord; each chord born after that adds one more edge
    at the point.  So, for each k,

        V_k = k + (crossing points born by k),
        E_k = k + sum over chords born by k of (1 + points on it by k),

    and regions_k = E_k - V_k + 1.  No general position is assumed: a
    point where several chords meet is one vertex at every k.

    Bit c of ``born[t]`` is set iff chord c is born at t.  A point of two
    chords is born with the later one, so row i's points born at t > ti,
    its own chord's birth, are the bits of ``born[t] >> i + 1 & row``, and
    the rest of the row is born at ti: at most m popcounts per row, not one
    step per crossing, and none for a row that crosses nothing.
    """
    m, births = arr.m, arr.births
    chord_birth = [max(births[a], births[b]) for a, b in arr.chords]
    born = [0] * (m + 1)
    for c, t in enumerate(chord_birth):
        born[t] |= 1 << c
    # step[k] is what the k-th point adds to E - V.  The point and its arc
    # cancel; each new chord adds one edge, each new crossing one vertex and
    # two edges, and each later chord through a crossing one edge.  So every
    # chord through a crossing but its earliest-born one adds 1.
    step = [chords.bit_count() for chords in born]
    for i, row in enumerate(arr.pairs):
        if not row:
            continue
        ti = chord_birth[i]
        rest = row.bit_count()
        for t in range(ti + 1, m + 1):
            later = (born[t] >> i + 1 & row).bit_count()
            step[t] += later
            rest -= later
        step[ti] += rest
    for through in arr.concurrent:
        for t in sorted([chord_birth[c] for c in through])[1:]:
            step[t] += 1
    counts = []
    regions = 1
    for k in range(1, m + 1):
        regions += step[k]
        counts.append(regions)
    return counts


def generic_arrangement(m: int, *, trial: int = 0, seed: int | None = None) -> ChordArrangement:
    """A fully intersected general-position arrangement of m points.

    Trial t's layout is ``generic_parameters`` with variant t when no seed
    is given, and ``seeded_parameters`` with seed ``seed + t`` otherwise.
    It is built once: neither family has a triple point (the docstrings of
    ``generic_parameters`` and ``base_parameters`` give the proofs), which
    the build asserts.
    """
    if seed is None:
        params = generic_parameters(m, variant=trial)
    else:
        params = seeded_parameters(m, seed=seed + trial)
    arr = intersect_chords(map(CirclePoint, params))
    assert arr.general_position, f"layout m={m}, trial {trial}, seed {seed} has a triple point"
    return arr


def hexagon_arrangement() -> ChordArrangement:
    """The exactly symmetric degenerate hexagon, fully intersected."""
    return intersect_chords(map(CirclePoint, hexagon_parameters()))


def verify_against_formula(
    expected: Sequence[int], *, trial: int = 0, seed: int | None = None
) -> tuple[list[int], tuple[int, int, int, tuple[str, ...]] | None]:
    """Count trial ``trial``'s regions for each k = 1..m, m = len(expected),
    and check each against ``expected[k - 1]``, the caller's formula values.

    Both layout families are nested: the k-point layout is the first k
    parameters of the m-point one.
    So the trial is one m-point build, ``generic_arrangement(m,
    trial=trial, seed=seed)``, and every prefix's count is read off it with
    ``prefix_region_counts``; ``count_regions`` cross-checks the last one.
    The arrangement dies on return.

    Returns ``(counts, mismatch)``: ``counts[k - 1]`` is the counted f(k),
    and ``mismatch`` is None when every count matches, else the mismatch at
    the smallest failing k as ``(k, counted, expected, parameters)``, with
    the parameters of the k-prefix that was counted, in angular order.
    """
    arr = generic_arrangement(len(expected), trial=trial, seed=seed)
    counts = prefix_region_counts(arr)
    assert count_regions(arr)[2] == counts[-1]
    for k, (counted, want) in enumerate(zip(counts, expected), 1):
        if counted != want:
            parameters = tuple(p.parameter_text for p, b in zip(arr.points, arr.births) if b <= k)
            return counts, (k, counted, want, parameters)
    return counts, None


def _interior_point_json(point: InteriorPoint) -> dict:
    x, y, w = point.triple
    return {"x": format_quotient(x, w), "y": format_quotient(y, w), "chords": list(point.chords)}


def arrangement_to_json_dict(arr: ChordArrangement) -> dict:
    """A JSON-serializable snapshot of the arrangement.

    Rationals are rendered as ``p/q`` strings; point parameters use the
    same form with ``inf`` for the parameter-infinity point.
    """
    interior = list(map(_interior_point_json, arr.interior_points))
    return {
        "schema_version": 1,
        "m": arr.m,
        "points": [p.parameter_text for p in arr.points],
        "chords": [list(c) for c in arr.chords],
        "interior_points": interior,
        "degeneracy": None if arr.general_position else {
            "concurrent": [point for point in interior if len(point["chords"]) >= 3],
            "on_circle": [],
            "summary": arr.describe_degeneracy(),
        },
        "general_position": arr.general_position,
    }
