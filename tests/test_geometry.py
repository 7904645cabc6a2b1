"""Exact geometry: circle points, chord intersection, region counting.

Two independent counting routes — Euler bookkeeping (count_regions) and
explicit face tracing (count_faces) — are checked against each other and
against the combinatorial formulas.  The degenerate hexagon pins the
oracle's sensitivity: a single triple point must change the counts.
"""

import ast
import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    binomial,
    build_difference_table,
    count_faces,
    count_regions,
    hexagon_arrangement,
    intersect_chords,
    moser_terms,
    regions_binomial,
    verify_against_formula,
)
from recurlab import moser_formulas
from recurlab.cli import main
from recurlab.geometry import (
    CirclePoint,
    arrangement_to_json_dict,
    build_arrangement,
    generic_arrangement,
    generic_parameters,
    hexagon_parameters,
    prefix_region_counts,
    seeded_parameters,
)
from recurlab.geometry import _kernel
from recurlab.geometry import arrangement as arrangement_module
from recurlab.geometry import facewalk as facewalk_module
from recurlab.geometry.arrangement import (
    ChordArrangement,
    InteriorPoint,
    _chord_lines,
    _cross,
)
from recurlab.geometry.points import base_parameters

from conftest import (
    antipode_parameter,
    designed_parameters,
    drop_last_crossing,
    involution_crossings,
    kernel_crossings,
    pairing_determinants,
    per_partner_prefix_region_counts,
    regular_approx_parameters,
)

F = Fraction


def _kernel_args(points):
    """The kernel's leading arguments (px, py, pw, lx, ly, lw, ca, cb)."""
    chords = list(itertools.combinations(range(len(points)), 2))
    px, py, pw = (list(column) for column in zip(*(p.triple for p in points)))
    lx, ly, lw = _chord_lines(points, chords)
    return px, py, pw, lx, ly, lw, [a for a, _ in chords], [b for _, b in chords]


def _four_sign_reference(px, py, pw, lx, ly, lw, ca, cb, start, stop):
    """The kernel without its sign bitsets: four sign evaluations per pair."""
    hits = []
    for i in range(start, stop):
        a, b = ca[i], cb[i]
        for j in range(i + 1, len(ca)):
            c, d = ca[j], cb[j]
            if {a, b} & {c, d}:
                continue
            s1 = lx[i] * px[c] + ly[i] * py[c] + lw[i] * pw[c]
            s2 = lx[i] * px[d] + ly[i] * py[d] + lw[i] * pw[d]
            if (s1 > 0) == (s2 > 0):
                continue
            s3 = lx[j] * px[a] + ly[j] * py[a] + lw[j] * pw[a]
            s4 = lx[j] * px[b] + ly[j] * py[b] + lw[j] * pw[b]
            if (s3 > 0) == (s4 > 0):
                continue
            x = ly[i] * lw[j] - lw[i] * ly[j]
            y = lw[i] * lx[j] - lx[i] * lw[j]
            w = lx[i] * ly[j] - ly[i] * lx[j]
            if w < 0:
                x, y, w = -x, -y, -w
            g = math.gcd(x, y, w)
            hits.append((i, j, x // g, y // g, w // g))
    return hits


def _with_crossings(arr, crossings):
    """``arr`` with the given chord tuples as its crossings: a pair as a bit
    of its row, a point of 3 or more chords, or a pair listed again, as a
    concurrent tuple."""
    pairs = [0] * len(arr.chords)
    concurrent = []
    for through in crossings:
        i, j = through[:2]
        bit = 1 << j - i - 1
        if len(through) == 2 and not pairs[i] & bit:
            pairs[i] |= bit
        else:
            concurrent.append(through)
    return dataclasses.replace(arr, pairs=pairs, concurrent=tuple(concurrent))


def _merge_hits(hits):
    """Crossing pairs as the kernel's map: a point's first pair (i, j), then
    the sorted union of every chord through it, keys in first-hit order."""
    crossings = {}
    for i, j, *triple in hits:
        through = crossings.get(tuple(triple))
        crossings[tuple(triple)] = (i, j) if through is None else tuple(sorted({*through, i, j}))
    return crossings


# The face walk as it was before its rotation came from circle order: the
# half-edges around each vertex sorted by exact angle comparison.
def _direction_half(direction: tuple[int, int]) -> int:
    """0 for the upper half-plane sweep [0, pi), 1 for [pi, 2*pi)."""
    dx, dy = direction
    if dy > 0 or (dy == 0 and dx > 0):
        return 0
    return 1


def _angle_compare(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Order directions counterclockwise starting from the positive x-axis."""
    hu, hv = _direction_half(u), _direction_half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    raise ValueError("two half-edges leave one vertex in the same direction")


def _reference_count_faces(arr: ChordArrangement) -> int:
    """Number of faces of the arrangement, unbounded face included."""
    m = arr.m
    if m < 1:
        raise ValueError("arrangement needs at least one point")

    # Vertex ids: circle points first, then interior points.
    triples = [p.triple for p in arr.points]
    triples.extend(p.triple for p in arr.interior_points)

    # Half-edges: (origin vertex, direction), added in twin pairs, so the
    # twin of half-edge he is he ^ 1.
    origins: list[int] = []
    directions: list[tuple[int, int]] = []

    def add_edge(v1: int, d1: tuple[int, int], v2: int, d2: tuple[int, int]):
        origins.extend((v1, v2))
        directions.extend((d1, d2))

    # Circle arcs between angularly consecutive points.  The tangent of the
    # counterclockwise arc at a circle point (X, Y, W) is (-Y, X) / W; as
    # W > 0, (-Y, X) has the same direction, and (Y, -X) the reverse one.
    # A single point gets one full-circle loop arc.
    for i in range(m):
        j = (i + 1) % m
        xi, yi, _ = triples[i]
        xj, yj, _ = triples[j]
        add_edge(i, (-yi, xi), j, (yj, -xj))
        if m == 1:
            break

    # Chord segments: each chord a -> b is split at its interior points.
    # (Xb Wa - Xa Wb, Yb Wa - Ya Wb) is (b - a) scaled by Wa Wb > 0, and every
    # segment of the chord points along it or against it.
    #
    # A stop (X, Y, W) lies at projection N / W along that direction, with
    # N = X dx + Y dy.  Two distinct stops of one chord have distinct
    # projections N1/W1 != N2/W2, which then differ by at least 1/(W1 W2),
    # because N1 W2 - N2 W1 is a nonzero integer.  With 2^shift > W1 W2, the
    # scaled projections N 2^shift / W differ by more than 1, so their floors
    # keep their order: an exact integer sort key.
    shift = 2 * max(w for _, _, w in triples).bit_length()
    on_chord: list[list[int]] = [[] for _ in arr.chords]
    for vertex, point in enumerate(arr.interior_points, start=m):
        for c in point.chords:
            on_chord[c].append(vertex)
    for c, (a, b) in enumerate(arr.chords):
        xa, ya, wa = triples[a]
        xb, yb, wb = triples[b]
        dx, dy = xb * wa - xa * wb, yb * wa - ya * wb

        def along(v: int) -> int:
            x, y, w = triples[v]
            return ((x * dx + y * dy) << shift) // w

        chain = [a, *sorted(on_chord[c], key=along), b]
        forward, backward = (dx, dy), (-dx, -dy)
        for v1, v2 in zip(chain, chain[1:]):
            add_edge(v1, forward, v2, backward)

    # Rotation system: the half-edges around each vertex in angular order.
    around: list[list[int]] = [[] for _ in triples]
    for he, origin in enumerate(origins):
        around[origin].append(he)
    by_angle = cmp_to_key(lambda p, q: _angle_compare(directions[p], directions[q]))

    # Faces are the orbits of "rotational successor of the twin":
    # succ[he] is the half-edge after twin(he) = he ^ 1 around its origin.
    succ = [0] * len(origins)
    for members in around:
        members.sort(key=by_angle)
        for idx, he in enumerate(members):
            succ[members[idx - 1] ^ 1] = he

    visited = [False] * len(origins)
    faces = 0
    for he in range(len(origins)):
        if visited[he]:
            continue
        faces += 1
        cur = he
        while not visited[cur]:
            visited[cur] = True
            cur = succ[cur]
    return faces


# The face walk before its two-chord crossings wrote their rotation directly:
# every vertex's half-edges sorted by rank, the direct walk's sort path.
def _rank_sort_count_faces(arr: ChordArrangement) -> int:
    """Number of faces of the arrangement, unbounded face included."""
    m = arr.m

    # Half-edges: (origin vertex, rank), added in twin pairs, so the twin
    # of half-edge he is he ^ 1.
    origins: list[int] = []
    ranks: list[int] = []

    # Circle arcs, forward from i and backward from j; one point gets a loop.
    for i in range(m):
        j = (i + 1) % m
        origins += (i, j)
        ranks += (2 * i + 1, 2 * j)

    # Chord segments: each chord a -> b is split at its interior points,
    # vertex m + k for crossing k, in the order of their keys from a
    # (facewalk's module docstring).
    chords = arr.chords
    ends = [p.triple for p in arr.points]
    size = []
    for a, b in chords:
        l0, l1, l2 = _cross(ends[a], ends[b])
        size.append([abs(l0 * x + l1 * y + l2 * w) for x, y, w in ends])
    big = max(map(max, size), default=0)
    shift = (4 * big * big).bit_length()
    stops: list[dict[int, int]] = [{} for _ in chords]
    for vertex, through in enumerate(arr.crossings, start=m):
        first = through[0]
        for c in through:
            a, b = chords[c]
            sizes = size[first] if c != first else size[through[1]]
            sa = sizes[a]
            stops[c][(sa << shift) // (sa + sizes[b])] = vertex
    for (a, b), at in zip(chords, stops):
        chain = [a, *map(at.get, sorted(at)), b]
        for v1, v2 in zip(chain, chain[1:]):
            origins += (v1, v2)
            ranks += (2 * b, 2 * a)

    around: list[list[int]] = [[] for _ in range(m + len(arr.crossings))]
    for he, origin in enumerate(origins):
        around[origin].append(he)

    # Faces are the orbits of succ: succ[he] is the half-edge after
    # twin(he) = he ^ 1 in rank order around its origin.
    succ = [0] * len(origins)
    for members in around:
        members.sort(key=ranks.__getitem__)
        for idx, he in enumerate(members):
            succ[members[idx - 1] ^ 1] = he

    visited = [False] * len(origins)
    faces = 0
    for he in range(len(origins)):
        if visited[he]:
            continue
        faces += 1
        cur = he
        while not visited[cur]:
            visited[cur] = True
            cur = succ[cur]
    return faces


# The counts as they were when the arrangement held one chord tuple per
# crossing point: each reads the ascending tuples of ``arr.crossings``.
def _tuple_count_regions(arr: ChordArrangement) -> tuple[int, int, int]:
    """(V, E, regions): V = m + points, E = m + C(m, 2) + chords through them."""
    vertices = arr.m + len(arr.crossings)
    edges = arr.m + len(arr.chords) + sum(map(len, arr.crossings))
    return vertices, edges, edges - vertices + 1


def _tuple_prefix_region_counts(arr: ChordArrangement, births) -> list[int]:
    """Regions of every prefix: each chord adds 1, and so does every chord
    through a crossing but its earliest-born one."""
    chord_birth = [max(births[a], births[b]) for a, b in arr.chords]
    step = [0] * (arr.m + 1)
    for t in chord_birth:
        step[t] += 1
    for through in arr.crossings:
        if len(through) == 2:
            a, b = through
            ta, tb = chord_birth[a], chord_birth[b]
            step[ta if ta > tb else tb] += 1
        else:
            for t in sorted([chord_birth[c] for c in through])[1:]:
                step[t] += 1
    return list(itertools.accumulate(step[1:], initial=1))[1:]


def _tuple_place_stops(arr: ChordArrangement, shift: int, direct: bool):
    """``facewalk._place_stops`` over the crossing tuples, in their order."""
    chords = arr.chords
    size = arr.sides
    stops: list[dict[int, int]] = [{} for _ in chords]
    around: list[list[tuple[int, int]]] = [[] for _ in range(arr.m)]
    slot = 0
    placed = 0
    for through in arr.crossings:
        if direct and len(through) == 2:
            i, j = through
            a, b = chords[i]
            c, d = chords[j]
            if a < c < b < d:
                sizes = size[j]
                sa = sizes[a]
                stops[i][(sa << shift) // (sa + sizes[b])] = slot
                sizes = size[i]
                sc = sizes[c]
                stops[j][(sc << shift) // (sc + sizes[d])] = slot + 1
                slot += 2
                continue
        first = through[0]
        for c in through:
            a, b = chords[c]
            sizes = size[first] if c != first else size[through[1]]
            sa = sizes[a]
            stops[c][(sa << shift) // (sa + sizes[b])] = ~len(around)
        around.append([])
        placed += len(through)
    if direct and sum(map(len, stops)) != slot + placed:
        return None
    return stops, [0] * slot, around


def _tuple_count_faces(arr: ChordArrangement) -> int:
    """``count_faces`` with its stops placed from the crossing tuples."""
    with mock.patch.object(facewalk_module, "_place_stops", _tuple_place_stops):
        return count_faces(arr)


def _regular_approx_points(m):
    """The regular-approx m-gon's points, in angular order."""
    return build_arrangement(map(CirclePoint, regular_approx_parameters(m)))


@lru_cache(maxsize=1)
def _face_walk_corpus():
    """58 named arrangements, general and degenerate; at m = 24 twelve
    diameters meet at the center of the regular-approx polygon."""
    corpus = [("hexagon", hexagon_arrangement())]
    corpus += [
        (("regular", m), intersect_chords(_regular_approx_points(m))) for m in range(1, 25)
    ]
    corpus += [(("generic", m), generic_arrangement(m)) for m in range(1, 16)]
    corpus += [
        (("seeded", m, seed), generic_arrangement(m, seed=seed))
        for m in (5, 12, 20)
        for seed in range(6)
    ]
    return tuple(corpus)


@st.composite
def antipodal_layouts(draw):
    """Random parameters t with their antipodes -1/t, and sometimes their
    mirror images -t and 1/t too, in a random birth order."""
    base = draw(st.lists(st.fractions(-9, 9, max_denominator=9), min_size=2, max_size=3, unique=True))
    mirrored = draw(st.booleans())
    params = []
    for t in base:
        for u in (t, -t) if mirrored else (t,):
            for v in (u, antipode_parameter(u)):
                if v not in params:
                    params.append(v)
    return draw(st.permutations(params))


def imports_of(path, names):
    """(file name, line) of each import statement in ``path`` that names a
    module or a binding in ``names``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        found += [(path.name, node.lineno) for name in imported if name in names]
    return found


class TestCirclePoint:
    def test_parametrization_samples(self):
        p = CirclePoint(F(1, 2))
        assert p.triple == (3, 4, 5)
        assert CirclePoint(F(0)).triple == (1, 0, 1)
        assert CirclePoint(F(1)).triple == (0, 1, 1)
        assert CirclePoint(None).triple == (-1, 0, 1)

    def test_all_points_on_unit_circle(self):
        params = [None, F(0), F(1), F(-1), F(1, 2), F(-7, 3), F(22, 7), F(1000003, 17)]
        for t in params:
            x, y, w = CirclePoint(t).triple
            assert x * x + y * y == w * w, t
            assert w > 0

    def test_triple_is_canonical(self):
        import math

        for t in [F(2), F(-2), F(3, 7), F(10, 4)]:
            x, y, w = CirclePoint(t).triple
            assert math.gcd(math.gcd(abs(x), abs(y)), w) == 1

    def test_angle_order_matches_parameter_order(self):
        pts = [CirclePoint(t) for t in (None, F(-3), F(0), F(5), F(-1, 2))]
        ordered = sorted(pts, key=lambda p: p.angle_key)
        assert [p.parameter_text for p in ordered] == ["-3/1", "-1/2", "0/1", "5/1", "inf"]

    def test_equality_by_coordinates(self):
        assert CirclePoint(F(2, 4)) == CirclePoint(F(1, 2))
        assert CirclePoint(F(1)) != CirclePoint(F(-1))
        # Not a CirclePoint, not equal, whatever its triple.
        assert CirclePoint(0).triple == (1, 0, 1) and (CirclePoint(0) == (1, 0, 1)) is False

    def test_immutable(self):
        p = CirclePoint(F(1))
        with pytest.raises(AttributeError):
            p.triple = (1, 0, 1)
        with pytest.raises(AttributeError):
            p.x = F(0)

    def test_stores_only_parameter_and_triple(self):
        assert CirclePoint.__slots__ == ("t", "triple")
        p = CirclePoint(F(-7, 3))
        assert p.triple == (-20, -21, 29)
        assert not hasattr(p, "x") and not hasattr(p, "y")

    def test_antipode(self):
        assert antipode_parameter(F(2)) == F(-1, 2)
        assert antipode_parameter(None) == F(0)
        assert antipode_parameter(F(0)) is None
        # Antipodal points have exactly opposite coordinates.
        for t in (F(2), F(-1, 3), F(0), None):
            x, y, w = CirclePoint(t).triple
            assert CirclePoint(antipode_parameter(t)).triple == (-x, -y, w)


class TestPlacement:
    def test_generic_counts_and_order(self):
        points = generic_arrangement(6).points
        assert len(points) == 6
        assert [p.angle_key for p in points] == sorted(p.angle_key for p in points)

    def test_generic_variants_differ(self):
        a = generic_arrangement(5, trial=0).points
        b = generic_arrangement(5, trial=1).points
        assert {p.triple for p in a} != {p.triple for p in b}

    def test_trial_picks_the_layout(self):
        # Trial t is the generic family's variant t, or the draw of seed
        # seed + t; the points come in the order the parameters give them.
        def given_order(arr):
            return [arr.points[arr.births.index(k)].t for k in range(1, arr.m + 1)]

        for t in range(3):
            assert given_order(generic_arrangement(9, trial=t, seed=4)) == seeded_parameters(9, 4 + t)
            assert given_order(generic_arrangement(9, trial=t)) == generic_parameters(9, variant=t)

    def test_empty_layout_rejected(self):
        # Both parameter families check m themselves.
        for kwargs in ({}, {"seed": 1}):
            with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
                generic_arrangement(0, **kwargs)

    def test_seeded_reproducible(self):
        assert seeded_parameters(8, seed=42) == seeded_parameters(8, seed=42)
        assert seeded_parameters(8, seed=42) != seeded_parameters(8, seed=43)

    def test_explicit_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate circle point at parameter 1/1"):
            build_arrangement([CirclePoint(F(1)), CirclePoint(F(2, 2))])

    def test_regular_approx_on_circle(self):
        for m in (3, 5, 7):
            points = _regular_approx_points(m)
            assert len(points) == m
            for p in points:
                x, y, w = p.triple
                assert x**2 + y**2 == w**2

    def test_regular_approx_even_m_has_exact_antipodes(self):
        params = regular_approx_parameters(8)
        pts = [CirclePoint(t) for t in params]
        for k in range(4):
            x, y, w = pts[k].triple
            assert pts[k + 4].triple == (-x, -y, w)

    def test_square_parameters_are_exact(self):
        # tan of quarter-circle angles rounds to exactly 0, 1, inf, -1.
        assert regular_approx_parameters(4) == [F(0), F(1), None, F(-1)]


class TestIntersection:
    def test_four_points_single_crossing(self):
        arr = generic_arrangement(4)
        assert len(arr.interior_points) == 1
        point = arr.interior_points[0]
        assert len(point.chords) == 2
        assert arr.general_position

    def test_counts_match_binomial_up_to_ten(self):
        for m in range(1, 11):
            arr = generic_arrangement(m)
            assert len(arr.interior_points) == binomial(m, 4), m

    def test_interior_points_strictly_inside(self):
        arr = generic_arrangement(8)
        for p in arr.interior_points:
            x, y, w = p.triple
            assert x * x + y * y < w * w

    def test_chords_through_point_recorded(self):
        arr = generic_arrangement(5)
        for p in arr.interior_points:
            # In general position exactly two chords pass through each point,
            # and they must not share an endpoint.
            assert len(p.chords) == 2
            (a, b), (c, d) = (arr.chords[i] for i in p.chords)
            assert {a, b} & {c, d} == set()

    def test_points_in_any_order(self):
        # intersect_chords orders the points itself, so both routes see the
        # same arrangement whatever order the points come in.
        arr = intersect_chords(CirclePoint(F(t)) for t in (3, 0, 1, -2, 7))
        assert [p.parameter_text for p in arr.points] == ["-2/1", "0/1", "1/1", "3/1", "7/1"]
        assert count_faces(arr) == count_regions(arr)[2] + 1 == 17

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError, match="duplicate circle point at parameter 1/1"):
            intersect_chords(CirclePoint(F(t)) for t in (0, 1, 1, 3))

    def test_hand_built_empty_arrangement_rejected(self):
        # Once counted as one region by count_regions.
        with pytest.raises(ValueError, match="^arrangement needs at least one point$"):
            ChordArrangement((), (), [], (), [])

    def test_hand_built_points_out_of_order_rejected(self):
        # A hand-built arrangement must hold its points in strictly
        # increasing angular order, as intersect_chords makes them; the
        # unordered points above once split the face walk from Euler's count.
        built = intersect_chords(CirclePoint(F(t)) for t in (3, 0, 1, -2, 7))
        fields = (built.births, built.pairs, built.concurrent, built.sides)
        assert ChordArrangement(built.points, *fields) == built
        shuffled = tuple(CirclePoint(F(t)) for t in (3, 0, 1, -2, 7))
        repeated = tuple(CirclePoint(F(t)) for t in (-2, 0, 1, 1, 7))
        for points in (shuffled, repeated, built.points[::-1]):
            with pytest.raises(ValueError, match="strictly increasing angular order"):
                ChordArrangement(points, *fields)

    def test_hand_built_sides_of_wrong_shape_rejected(self):
        # The face walk reads sides[c][p] for every chord c and point p, so a
        # hand-built side table must hold one row per chord and one entry
        # per point.  It is derived from the points: repr leaves it out.
        built = intersect_chords(CirclePoint(F(t)) for t in (3, 0, 1, -2, 7))
        fields = (built.points, built.births, built.pairs, built.concurrent)
        rows = built.sides
        assert len(rows) == 10 and {len(row) for row in rows} == {5}
        assert "sides" not in repr(built)
        short_row, long_row = rows[:-1] + [rows[-1][:-1]], rows[:-1] + [rows[-1] + [1]]
        for sides in ([], rows[:-1], rows + rows[:1], short_row, long_row):
            with pytest.raises(ValueError, match="one row per chord and one entry per point"):
                ChordArrangement(*fields, sides)

    def test_hand_built_pairs_of_wrong_shape_rejected(self):
        # Every count reads pairs[i] as the chords after chord i, so a
        # hand-built record must hold one row per chord, and no row a bit
        # past the last chord.
        built = intersect_chords(CirclePoint(F(t)) for t in (3, 0, 1, -2, 7))
        rows = built.pairs
        assert len(rows) == 10 and sum(map(int.bit_count, rows)) == 5
        last = [0] * 9 + [1]
        past = rows[:3] + [rows[3] | 1 << 6] + rows[4:]
        for pairs in ([], rows[:-1], rows + [0], last, past):
            with pytest.raises(ValueError, match="one row per chord, of later chords only"):
                ChordArrangement(built.points, built.births, pairs, built.concurrent, built.sides)
        kept = rows[:3] + [rows[3] | 1 << 5] + rows[4:]
        assert ChordArrangement(built.points, built.births, kept, (), built.sides)

    def test_hand_built_births_rejected(self):
        # prefix_region_counts reads births[i] as the time point i is added,
        # so a hand-built record must hold a permutation of 1..m.  Births are
        # compared and shown like the points, and stay out of the JSON.
        built = intersect_chords(CirclePoint(F(t)) for t in (3, 0, 1, -2, 7))
        assert built.births == (4, 2, 3, 1, 5)
        assert "births=(4, 2, 3, 1, 5)" in repr(built)
        assert dataclasses.replace(built, births=(1, 2, 3, 4, 5)) != built
        assert "births" not in arrangement_to_json_dict(built)
        for births in ((4, 2, 3, 3, 5), (4, 2, 3, 1, 6), (4, 2, 3, 1), (4, 2, 3, 1, 5, 6)):
            with pytest.raises(ValueError, match=r"births must be a permutation of 1\.\.m"):
                dataclasses.replace(built, births=births)

    def test_chords_and_crossings_are_derived(self):
        # A record takes only what it cannot work out: the chords follow
        # from the points, and the crossings list from the pairs and the
        # concurrent points, so neither can be set, and neither can
        # contradict the other fields.
        settable = [f.name for f in dataclasses.fields(ChordArrangement) if f.init]
        assert settable == ["points", "births", "pairs", "concurrent", "sides"]
        arr = hexagon_arrangement()
        with pytest.raises(ValueError, match="chords"):
            dataclasses.replace(arr, chords=arr.chords[::-1])
        with pytest.raises(TypeError, match="crossings"):
            dataclasses.replace(arr, crossings=())
        assert arr.chords == tuple(itertools.combinations(range(6), 2))
        moved = dataclasses.replace(arr, pairs=[0] * 15)
        assert moved.crossings == arr.concurrent == ((2, 7, 11),)

    def test_replaced_crossings_keep_their_triple_point(self):
        # The hexagon's center, chords (2, 7, 11), survives any change to the
        # other crossings, and dropping it leaves a general-position record.
        arr = hexagon_arrangement()
        simple = tuple(through for through in arr.crossings if len(through) == 2)
        assert len(simple) == 12
        assert arr.concurrent == ((2, 7, 11),)
        i, j = simple[0]
        first_dropped = list(arr.pairs)
        first_dropped[i] ^= 1 << j - i - 1
        for pairs, crossings in ((first_dropped, simple[1:] + ((2, 7, 11),)), ([0] * 15, ((2, 7, 11),))):
            moved = dataclasses.replace(arr, pairs=pairs)
            assert moved.crossings == tuple(sorted(crossings))
            assert moved.concurrent == ((2, 7, 11),)
            assert not moved.general_position
            assert moved.describe_degeneracy() == arr.describe_degeneracy()
            assert arrangement_to_json_dict(moved)["general_position"] is False
        dropped = dataclasses.replace(arr, concurrent=())
        assert dropped.crossings == simple
        assert dropped.concurrent == () and dropped.general_position
        # One vertex and its three chord edges fewer: 30 - 3 + 1 regions.
        assert count_regions(dropped) == (18, 45, 28)

    def test_kernel_row_ranges_concatenate(self):
        # Rows [0, k) and [k, n) see a point of [0, k) again as its chords
        # from k on, when two or more: a pair bit, or a concurrent tuple.
        # Two chords meet at most once, so splitting the outer chord range
        # at any k, concatenating the rows and the concurrent points, and
        # dropping from the second part what shares two chords with a point
        # of the first (after checking that it is that point's chords from
        # k on), gives the full result, order included.  The regular-approx
        # 12-gon has points of 3 and of 6 chords.  The seeded 40-point
        # layout, split at three k only, shifts the row bitsets past a
        # start > 0 at the regions-large size.
        layouts = [hexagon_arrangement().points, generic_arrangement(9, seed=7).points]
        layouts.append(_regular_approx_points(12))
        layouts.append(build_arrangement(map(CirclePoint, seeded_parameters(40, seed=7))))
        for points in layouts:
            args = _kernel_args(points)
            n = len(args[-1])
            whole = _kernel.intersect_pairs(*args, 0, n, [])
            assert any(whole[0])
            splits = range(n + 1) if n < 100 else (1, n // 2, n - 1)
            for k in splits:
                pairs, concurrent = _kernel.intersect_pairs(*args, 0, k, [])
                assert len(pairs) == k
                # Each pair of chords through a point of [0, k) -> its chords.
                # Distinct points of [k, n) share at most one chord, so only
                # the points of [0, k) need the index; pair bits of [0, k)
                # are points of their own, so only the concurrent ones.
                index = {pair: t for t in concurrent for pair in itertools.combinations(t, 2)}
                tail = kernel_crossings(_kernel.intersect_pairs(*args, k, n, []), k)
                rest = []
                for chords in tail:
                    same = {index[pair] for pair in itertools.combinations(chords, 2) if pair in index}
                    if same:
                        (point,) = same
                        assert chords == tuple(c for c in point if c >= k), (len(points), k)
                    else:
                        rest.append(chords)
                rows = [0] * (n - k)
                for chords in rest:
                    if len(chords) == 2:
                        i, j = chords
                        rows[i - k] |= 1 << j - i - 1
                    else:
                        concurrent.append(chords)
                assert (pairs + rows, concurrent) == whole, (len(points), k)

    def test_kernel_matches_four_sign_reference(self):
        # The row bitsets evaluate the same exact signs for all chords at
        # once, and the chord-local keys group the crossings by point.  So the
        # kernel's pair bits and concurrent tuples, listed in ascending
        # order, are the reference's chords per canonical triple under the
        # merge rule, in first-hit order, and the edge triples are its keys,
        # on general-position and degenerate (concurrent) layouts alike.  The regular-approx m = 10, 12, 16, 20 and 24 have
        # off-center concurrent points.
        layouts = [hexagon_arrangement().points]
        layouts += [_regular_approx_points(m) for m in range(1, 25)]
        layouts += [
            build_arrangement(map(CirclePoint, seeded_parameters(m, seed=seed)))
            for m in (1, 2, 4, 9, 12, 20)
            for seed in range(3)
        ]
        layouts.append(build_arrangement(map(CirclePoint, seeded_parameters(40, seed=3))))
        # verify's unseeded family: its 2^i parameters give the largest side
        # values the CLI builds.
        layouts += [
            build_arrangement(map(CirclePoint, generic_parameters(m, variant=variant)))
            for m, variant in ((15, 0), (15, 1), (25, 0), (40, 0))
        ]
        # t_i = 8^i: no triple point, and rows whose chords share a key at
        # 30 and at 60 bits, so only the exact keys part their points.
        layouts.append(build_arrangement(map(CirclePoint, (F(8**i) for i in range(25)))))
        for points in layouts:
            args = _kernel_args(points)
            n = len(args[-1])
            expected = _four_sign_reference(*args, 0, n)
            reference = _merge_hits(expected)
            size = []
            pairs, concurrent = _kernel.intersect_pairs(*args, 0, n, size)
            assert len(pairs) == n, len(points)
            assert all(len(chords) >= 3 for chords in concurrent), len(points)
            crossings = kernel_crossings((pairs, concurrent))
            assert crossings == list(reference.values()), len(points)
            assert len(expected) == binomial(len(points), 4), len(points)
            px, py, pw, lx, ly, lw = args[:6]
            sides = [
                [abs(l0 * x + l1 * y + l2 * w) for x, y, w in zip(px, py, pw)]
                for l0, l1, l2 in zip(lx, ly, lw)
            ]
            assert size == sides, len(points)
            arr = intersect_chords(points)
            assert (arr.pairs, arr.concurrent) == (pairs, tuple(concurrent)), len(points)
            assert arr.crossings == tuple(crossings), len(points)
            assert arr.sides == sides, len(points)
            assert [p.triple for p in arr.interior_points] == list(reference), len(points)

    def test_one_digit_key_clash_of_distinct_points(self, monkeypatch):
        # A row puts its chords' keys floor(sa 2^w / sb) in one set, w = 30
        # at the start of a call; only a set smaller than the row groups its
        # chords by that key, and the chords that share one take the exact
        # keys.  A row whose exact keys find no concurrent point doubles w
        # for the later rows.  Three layouts take the three paths: the
        # unseeded m = 40, whose rows clash at 30 bits but not at 60, so the
        # width doubles once; t_i = 8^i, whose rows clash at 30 and at 60
        # bits, so the width doubles twice and only the exact keys part the
        # points of a row that clashes at both; and a concurrent point found
        # after the width has doubled.  Each partners call as (items, i),
        # and the number of partners calls made before each key_shift call.
        calls, shifts = [], []
        partners, key_shift = _kernel.partners, _kernel.key_shift
        monkeypatch.setattr(
            _kernel, "partners", lambda items, i, row: calls.append((items, i)) or partners(items, i, row)
        )
        monkeypatch.setattr(_kernel, "key_shift", lambda size: shifts.append(len(calls)) or key_shift(size))

        def layout(params):
            points = build_arrangement(map(CirclePoint, params))
            args = _kernel_args(points)
            n = len(args[-1])
            expected = _four_sign_reference(*args, 0, n)
            size = []
            del calls[:], shifts[:]
            result = _kernel.intersect_pairs(*args, 0, n, size)
            assert kernel_crossings(result) == list(_merge_hits(expected).values())
            grouped = [i for items, i in calls if items is not size]
            # key_shift runs once, after the set of the first row that groups.
            assert shifts == [grouped[0] + 1] * bool(grouped)
            crossing = {}
            for i, j, *_ in expected:
                crossing.setdefault(i, []).append(j)
            a, b = args[6:8]

            def clash(i, width):
                keys = [(size[j][a[i]] << width) // size[j][b[i]] for j in crossing.get(i, ())]
                return len(set(keys)) < len(keys)

            return args, expected, result, grouped, clash

        def row_alone(args, expected, i):
            del calls[:], shifts[:]
            row = [(r, j) for r, j, *_ in expected if r == i]
            size = []
            assert kernel_crossings(_kernel.intersect_pairs(*args, i, i + 1, size), i) == row
            # The row's set, the shift, then its grouping pass.
            assert [items is size for items, _ in calls] == [True, False] and shifts == [1]

        # The unseeded 40 points have no triple point.  Of the 270 rows
        # that clash at 30 bits, none does at 60: the first groups its
        # chords and doubles the width, and no later row groups them.
        args, expected, result, grouped, clash = layout(generic_parameters(40))
        assert not result[1] and len(expected) == binomial(40, 4)
        rows = [i for i in range(780) if clash(i, 30)]
        assert len(rows) == 270 and not any(clash(i, 60) for i in rows)
        assert grouped == rows[:1]
        row_alone(args, expected, rows[-1])
        # t_i = 8^i: 55 rows clash at 60 bits, none at 120, and no point is
        # of three chords.  The first row that clashes at 30 bits doubles
        # the width to 60, the first later one that clashes at 60 doubles it
        # to 120, and no row after it groups its chords.  A row that clashes
        # at 30 and 60 bits, in a call of its own, takes the exact keys.
        args, expected, result, grouped, clash = layout([F(8**i) for i in range(25)])
        assert not result[1] and len(expected) == binomial(25, 4)
        assert sum(map(clash, range(300), itertools.repeat(60))) == 55
        assert not any(map(clash, range(300), itertools.repeat(120)))
        first = next(i for i in range(300) if clash(i, 30))
        assert grouped == [first, next(i for i in range(first + 1, 300) if clash(i, 60))]
        both = next(i for i in range(300) if clash(i, 30) and clash(i, 60))
        row_alone(args, expected, both)
        # Ten 8^i points before a designed 4-fold point: row 1 clashes at
        # 30 bits but not at 60, ahead of the point's row, 3, so the point
        # is found at the doubled width.
        params = [F(8**i) for i in range(10)] + designed_parameters((4,), seed=3)
        args, _, (_, concurrent), grouped, clash = layout(params)
        assert concurrent == [(3, 20, 36, 52)]
        assert clash(1, 30) and not clash(1, 60) and grouped[:2] == [1, 3]
        arr = intersect_chords(map(CirclePoint, params))
        assert list(arr.crossings) == involution_crossings([p.t for p in arr.points])
        # The whole builds: the unseeded 40 points count the formula's
        # regions, and the hexagon's and a designed layout's concurrent
        # points join at their exact keys.
        arr = generic_arrangement(40)
        crossings = involution_crossings([p.t for p in arr.points])
        assert kernel_crossings((arr.pairs, arr.concurrent)) == crossings
        assert arr.general_position and count_regions(arr)[2] == regions_binomial(40)
        hexagon = hexagon_arrangement()
        assert hexagon.concurrent == ((2, 7, 11),) and count_regions(hexagon)[2] == 30
        designed = intersect_chords(map(CirclePoint, designed_parameters((4, 3), seed=1)))
        assert sorted(map(len, designed.concurrent)) == [3, 4] and count_regions(designed)[2] == 1089
        assert list(designed.crossings) == involution_crossings([p.t for p in designed.points])

    def test_two_concurrent_points_in_one_row(self):
        # Chord (-10, 1/3) meets (-1, 2) and (-3, 5) at two points.  The
        # third chord through each joins -1/2 and 0 to their partners in
        # that point's involution, 7/2 and -13.  A third triple point comes
        # with them, where (-13, 0) meets (-1, 2) and (-1/2, 5).  Row 4,
        # chord (-13, 0), finds two of the three, in ascending order.
        params = [F(t) for t in "-10 1/3 -1 2 -1/2 7/2 -3 5 0 -13".split()]
        arr = intersect_chords(map(CirclePoint, params))
        assert [arr.points[i].t for i in arr.chords[4]] == [-13, 0]
        assert arr.concurrent == ((4, 13, 23), (4, 27, 34), (13, 27, 33))
        assert list(arr.crossings) == involution_crossings([p.t for p in arr.points])

    def test_merge_on_concurrent_points(self):
        for m in (8, 10, 12):
            arr = intersect_chords(_regular_approx_points(m))
            through: dict = {}
            for i, j, *triple in _four_sign_reference(*_kernel_args(arr.points), 0, len(arr.chords)):
                through.setdefault(tuple(triple), set()).update((i, j))
            assert [p.triple for p in arr.interior_points] == list(through), m
            for p in arr.interior_points:
                assert p.chords == tuple(sorted(through[p.triple])), (m, p)
            expected = tuple(tuple(sorted(chords)) for chords in through.values())
            assert arr.crossings == expected, m
            concurrent = tuple(chords for chords in expected if len(chords) >= 3)
            assert concurrent, m
            assert arr.concurrent == concurrent, m
            assert not arr.general_position
            assert count_faces(arr) == count_regions(arr)[2] + 1, m

    def test_count_paths_build_no_interior_points(self, monkeypatch, capsys):
        # The counts, the degeneracy verdict and the CLI read the kernel's
        # bitsets; only the interior_points view builds InteriorPoints.
        class Forbidden:
            def __init__(self, *args):
                raise AssertionError("an InteriorPoint was built")

        monkeypatch.setattr(arrangement_module, "InteriorPoint", Forbidden)
        hexagon_summary = "1 concurrent intersection point(s) (up to 3 chords through one point)"
        for arr, regions, summary in (
            (generic_arrangement(12, seed=3), 562, "none"),
            (hexagon_arrangement(), 30, hexagon_summary),
        ):
            assert arr.general_position is (summary == "none")
            assert count_regions(arr)[2] == regions
            assert count_faces(arr) == regions + 1
            assert arr.describe_degeneracy() == summary
        assert main(["regions", "--m", "12", "--method", "geometric", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["counts"]["geometric"] == 562
        with pytest.raises(AssertionError, match="InteriorPoint was built"):
            hexagon_arrangement().interior_points

    def test_interior_point_stores_only_its_triple(self):
        assert [f.name for f in dataclasses.fields(InteriorPoint)] == ["chords", "triple"]
        point = InteriorPoint(chords=(0, 5), triple=(-3, 4, 10))
        assert point.triple == (-3, 4, 10)
        assert not hasattr(point, "x") and not hasattr(point, "y")
        # The dump's x and y are the triple's quotients in lowest terms.
        assert arrangement_module._interior_point_json(point) == {"x": "-3/10", "y": "2/5", "chords": [0, 5]}

    def test_crossing_holds_no_int_of_its_own(self):
        # Each row takes its partner chords from one tuple of chord indices,
        # and the arrangement keeps the kernel's row bitsets, so a crossing
        # allocates nothing of its own: not an int, nor a tuple.  The build's
        # tracemalloc peak is 2.10-2.12 MiB, measured on Python 3.11 only,
        # with the kernel's signed side values held one column per circle
        # point; an int or a tuple per crossing takes it past 7.5 MiB.
        tracemalloc.start()
        try:
            arr = generic_arrangement(40, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(arr.crossings) == binomial(40, 4)
        assert peak < 2.5 * 2**20, peak


class TestRegionCounts:
    def test_tiny_cases(self):
        assert count_regions(generic_arrangement(1)) == (1, 1, 1)
        assert count_regions(generic_arrangement(2)) == (2, 3, 2)
        assert count_regions(generic_arrangement(3)) == (3, 6, 4)

    def test_matches_formula_up_to_twelve(self):
        for m in range(1, 13):
            arr = generic_arrangement(m)
            assert count_regions(arr)[2] == regions_binomial(m), m
            assert arr.general_position

    def test_vertices_edges_match_counting_rules(self):
        from recurlab import euler_counts

        # The exact construction and the counting rules give the same
        # (V, E, regions) in general position...
        for m in range(1, 13):
            assert count_regions(generic_arrangement(m)) == euler_counts(m), m
        for seed in (5, 11):
            for m in (8, 13, 20):
                assert count_regions(generic_arrangement(m, seed=seed)) == euler_counts(m), (m, seed)
        # ...and not at the hexagon's triple point: two vertices and three
        # edges fewer, so one region fewer.
        assert count_regions(hexagon_arrangement()) == (19, 48, 30)
        assert euler_counts(6) == (21, 51, 31)


class TestPrefixRegionCounts:
    @staticmethod
    def _both_ways(params):
        """Prefix counts off one build, and count_regions of each prefix built alone."""
        points = [CirclePoint(t) for t in params]
        arr = intersect_chords(points)
        counts = prefix_region_counts(arr)
        per_prefix = [count_regions(intersect_chords(points[:k]))[2] for k in range(1, len(points) + 1)]
        return arr, counts, per_prefix

    def test_matches_per_prefix_builds_on_degenerate_layouts(self):
        # Taken in list order, these layouts have concurrent points, some
        # of them off the center, and prefixes with and without them.
        layouts = [hexagon_parameters()] + [regular_approx_parameters(m) for m in (10, 12, 16, 20, 24)]
        for params in layouts:
            arr, counts, per_prefix = self._both_ways(params)
            assert not arr.general_position, len(params)
            assert counts == per_prefix, len(params)

    def test_matches_per_prefix_builds_on_seeded_layouts(self):
        for seed in (3, 4):
            _, counts, per_prefix = self._both_ways(seeded_parameters(16, seed))
            assert counts == per_prefix == [regions_binomial(k) for k in range(1, 17)], seed

    def test_last_count_is_count_regions(self):
        # The hexagon's parameters in angular order, given so that the
        # point at angular index i is the births[i]-th one.
        params = sorted(hexagon_parameters(), key=lambda t: CirclePoint(t).angle_key)
        for births in ((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1), (3, 1, 4, 6, 2, 5)):
            arr = intersect_chords(CirclePoint(params[i]) for i in sorted(range(6), key=births.__getitem__))
            assert arr.births == births
            assert prefix_region_counts(arr)[-1] == count_regions(arr)[2] == 30


class TestFaceWalk:
    def test_matches_euler_route_in_general_position(self):
        for m in range(1, 8):
            arr = generic_arrangement(m)
            assert count_faces(arr) == count_regions(arr)[2] + 1, m
        for seed in range(5):
            arr = generic_arrangement(12, seed=seed)
            assert count_faces(arr) == count_regions(arr)[2] + 1 == 563, seed

    def test_matches_euler_route_on_degenerate_input(self):
        arr = hexagon_arrangement()
        assert count_faces(arr) == count_regions(arr)[2] + 1 == 31
        # Four diameters of the regular-approx octagon meet at the center.
        arr = intersect_chords(_regular_approx_points(8))
        assert max(len(p.chords) for p in arr.interior_points) == 4
        assert count_faces(arr) == count_regions(arr)[2] + 1

    def test_direct_pass_places_every_stop_at_concurrent_points(self):
        # A stop is lost only if two stops of a chord share a key.  With
        # concurrent points listed, the direct pass still places every stop:
        # it sorts the concurrent points alone, and no fallback is taken.
        for arr in (hexagon_arrangement(), intersect_chords(_regular_approx_points(12))):
            placed = facewalk_module._place_stops(arr, _kernel.key_shift(arr.sides), True)
            assert placed is not None and len(placed[2]) == arr.m + len(arr.concurrent)

    def test_empty_arrangement_rejected(self):
        # No arrangement without points reaches count_faces or count_regions.
        with pytest.raises(ValueError, match="at least one point"):
            intersect_chords([])

    def test_regular_approx_odd_m(self):
        arr = intersect_chords(_regular_approx_points(7))
        assert count_faces(arr) == count_regions(arr)[2] + 1

    def test_rotation_matches_angle_sort_reference(self):
        # The circle-order rotation against the exact angle sort, on general
        # and degenerate layouts.
        corpus = _face_walk_corpus()
        assert len(corpus) == 58
        assert max(len(p.chords) for p in corpus[24][1].interior_points) == 12
        for name, arr in corpus:
            faces = count_faces(arr)
            assert faces == _reference_count_faces(arr) == count_regions(arr)[2] + 1, name

    def test_direct_ring_matches_rank_sort_on_faulty_crossings(self):
        # Where the walk writes a crossing's ring directly, the ring is the
        # rank sort's order, and every other vertex is still sorted.  So on
        # any crossings, a faulty kernel's included, the walk counts what
        # the rank-sort walk counts.  Faults: one crossing dropped, one
        # listed twice (two stops of a chord with one key: every vertex is
        # sorted), and one pair of chords that do not interleave added,
        # nested or sharing an endpoint.
        for name, arr in _face_walk_corpus():
            assert count_faces(arr) == _rank_sort_count_faces(arr), name
            crossings = arr.crossings
            faulty = []
            if crossings:
                k = len(crossings) // 2
                faulty += [crossings[:k] + crossings[k + 1 :], crossings + crossings[k : k + 1]]
            if arr.m >= 4:
                index = {chord: c for c, chord in enumerate(arr.chords)}
                for pair in (((0, 3), (1, 2)), ((0, 1), (0, 2))):
                    faulty.append(crossings + (tuple(map(index.get, pair)),))
            for wrong in faulty:
                bad = _with_crossings(arr, wrong)
                assert bad.crossings == tuple(sorted(wrong)), name
                assert count_faces(bad) == _rank_sort_count_faces(bad), name

    def test_side_table_fault_splits_walk_from_euler(self):
        # Euler's count reads the crossings alone; the walk also reads the
        # kernel's side values, kept as the arrangement's sides.  Scaling
        # one entry, |s_c(1)| of chord c = (0, 2), by 3 moves c's crossing
        # along every chord from point 1, and the two counts disagree.
        arr = generic_arrangement(12, seed=1)
        c = arr.chords.index((0, 2))
        sides = [list(row) for row in arr.sides]
        sides[c][1] *= 3
        bad = dataclasses.replace(arr, sides=sides)
        assert count_regions(bad) == count_regions(arr)
        assert count_faces(arr) == count_regions(arr)[2] + 1 == 563
        assert count_faces(bad) != count_regions(bad)[2] + 1

    def test_walk_holds_one_chord_of_stops_at_a_time(self):
        # Each chord's stop dict is dropped as the chord is taken.  Holding
        # all of them, the walk's tracemalloc peak was 35.6 MiB on Python
        # 3.11; one at a time, 20.9-21.6 MiB on Python 3.10-3.13.
        arr = generic_arrangement(40, seed=1)
        tracemalloc.start()
        try:
            faces = count_faces(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert faces == count_regions(arr)[2] + 1 == 92172
        assert peak < 28 * 2**20, peak

    def test_geometry_imports_no_fraction(self):
        # The build, the counts and the walk work on integer triples alone,
        # the kernel's side values among them: their modules bind nothing
        # from fractions, neither by import statement nor in their namespace.
        import fractions

        banned = {"fractions"} | {
            name for name, value in vars(fractions).items()
            if getattr(value, "__module__", None) == fractions.__name__
        }
        found = []
        for module in (arrangement_module, facewalk_module, _kernel):
            found += imports_of(Path(module.__file__), banned)
            found += [
                (module.__name__, name) for name, value in vars(module).items()
                if value is fractions or getattr(value, "__module__", None) == fractions.__name__
            ]
        assert found == []
        arr = generic_arrangement(6, seed=3)
        assert count_faces(arr) == count_regions(arr)[2] + 1
        assert count_faces(hexagon_arrangement()) == 31


class TestDegenerateHexagon:
    def test_three_diagonals_meet_at_center(self):
        arr = hexagon_arrangement()
        center = [p for p in arr.interior_points if p.triple == (0, 0, 1)]
        assert len(center) == 1
        assert len(center[0].chords) == 3
        # Those three chords are exactly the main diagonals (antipodal pairs).
        for chord_index in center[0].chords:
            a, b = arr.chords[chord_index]
            x, y, w = arr.points[a].triple
            assert arr.points[b].triple == (-x, -y, w)

    def test_thirteen_interior_points(self):
        arr = hexagon_arrangement()
        assert len(arr.interior_points) == 13
        assert not arr.general_position
        assert arr.concurrent == ((2, 7, 11),)
        assert [p.triple for p in arr.interior_points if len(p.chords) >= 3] == [(0, 0, 1)]
        assert arr.describe_degeneracy() == (
            "1 concurrent intersection point(s) (up to 3 chords through one point)"
        )

    def test_region_count_drops_by_one(self):
        arr = hexagon_arrangement()
        vertices, edges, regions = count_regions(arr)
        assert (vertices, edges) == (19, 48)
        assert regions == 30 == regions_binomial(6) - 1
        assert not arr.general_position

    def test_regular_approx_six_is_degenerate_too(self):
        arr = intersect_chords(_regular_approx_points(6))
        assert not arr.general_position
        assert count_regions(arr)[2] == 30


class TestVerifyAgainstFormula:
    """One call is one trial: one build, counted and checked at every k and
    freed on return; it hands back ``(counts, mismatch)``.  ``verify`` takes
    the smallest k over its trials (``tests/test_cli.py``, ``TestVerify``)."""

    def test_small_sweep_passes(self):
        for m in (1, 4, 7):
            for trial in (0, 1):
                # None: every count of the layout, for every k = 1..m, matched.
                assert verify_against_formula(moser_terms(m), trial=trial) == (moser_terms(m), None)

    def test_ten_points_two_layouts(self):
        for trial in (0, 1):
            assert verify_against_formula(moser_terms(10), trial=trial) == (moser_terms(10), None)
        assert regions_binomial(10) == 256

    def test_seeded_layouts(self):
        for trial in (0, 1):
            assert verify_against_formula(moser_terms(6), trial=trial, seed=2026) == (moser_terms(6), None)

    def test_geometry_imports_no_formula(self):
        # The counts are checked against the formulas, so the geometry must
        # not reach them.  Importing recurlab loads moser_formulas anyway, so
        # this reads the import statements instead of sys.modules.
        formulas = {"moser_formulas"} | {
            name for name, value in vars(moser_formulas).items()
            if getattr(value, "__module__", None) == moser_formulas.__name__
        }
        paths = sorted(Path(arrangement_module.__file__).parent.glob("*.py"))
        assert {"arrangement.py", "points.py"} <= {path.name for path in paths}
        assert [found for path in paths for found in imports_of(path, formulas)] == []

    def test_planted_wrong_expectation_is_reported(self):
        # The geometry counts f(6) = 31 whatever it is told: an expectation
        # of 32 fails at k=6, with the 6-prefix of the trial's layout.
        # The counts handed back are the geometry's, not the expectation.
        expected = moser_terms(8)
        expected[5] = 32
        generic = ("1/1", "2/1", "4/1", "8/1", "16/1", "32/1")
        assert verify_against_formula(expected) == (moser_terms(8), (6, 31, 32, generic))
        variant = ("2/1", "3/1", "5/1", "9/1", "17/1", "33/1")
        assert verify_against_formula(expected, trial=1) == (moser_terms(8), (6, 31, 32, variant))
        prefix = seeded_parameters(8, 3)[:6]
        seeded = build_arrangement(map(CirclePoint, prefix))
        assert [p.t for p in seeded] != prefix
        assert verify_against_formula(expected, seed=3) == (
            moser_terms(8), (6, 31, 32, tuple(p.parameter_text for p in seeded))
        )

    @staticmethod
    def _record_builds(monkeypatch):
        builds = []
        build = arrangement_module.generic_arrangement

        def recording(m, *, trial=0, seed=None):
            builds.append((m, trial, seed))
            return build(m, trial=trial, seed=seed)

        monkeypatch.setattr(arrangement_module, "generic_arrangement", recording)
        return builds

    def test_one_build_per_trial(self, monkeypatch):
        builds = self._record_builds(monkeypatch)
        for trial in (0, 1):
            assert verify_against_formula(moser_terms(12), trial=trial) == (moser_terms(12), None)
        for trial in (0, 1, 2):
            assert verify_against_formula(moser_terms(8), trial=trial, seed=5) == (moser_terms(8), None)
        assert builds == [(12, 0, None), (12, 1, None), (8, 0, 5), (8, 1, 5), (8, 2, 5)]

    def test_mismatch_reuses_the_counted_build(self, monkeypatch):
        # A dropped crossing fails both trials at m=7 with seed 3.  The
        # reported layout is read off the build that was counted, with no
        # rebuild at m=7, and the arrangement is freed when the call returns.
        intersect_pairs = _kernel.intersect_pairs
        monkeypatch.setattr(_kernel, "intersect_pairs", lambda *args: drop_last_crossing(intersect_pairs(*args)))
        builds = self._record_builds(monkeypatch)
        recording = arrangement_module.generic_arrangement
        held = []

        def tracked(m, *, trial=0, seed=None):
            arr = recording(m, trial=trial, seed=seed)
            held.append(weakref.ref(arr))
            return arr

        monkeypatch.setattr(arrangement_module, "generic_arrangement", tracked)
        for trial in (0, 1):
            counts, (k, counted, expected, _) = verify_against_formula(moser_terms(8), trial=trial, seed=3)
            assert (k, counted, expected) == (7, 56, 57)
            assert counts == [f - (i >= 6) for i, f in enumerate(moser_terms(8))]
            assert held[-1]() is None, f"trial {trial}: the layout outlived the call"
        assert builds == [(8, 0, 3), (8, 1, 3)]

    def test_seeded_trial_draws_once(self, monkeypatch):
        # Each trial's parameters are drawn once, by its one build.
        draws = []
        draw = arrangement_module.seeded_parameters

        def recording(m, seed):
            draws.append((m, seed))
            return draw(m, seed=seed)

        monkeypatch.setattr(arrangement_module, "seeded_parameters", recording)
        for trial in (0, 1):
            assert verify_against_formula(moser_terms(12), trial=trial, seed=3) == (moser_terms(12), None)
        assert draws == [(12, 3), (12, 4)]

    @pytest.mark.parametrize("seed, births", [(3, [7, 7]), (7, [8, 7, 8])])
    def test_failing_prefix_is_the_dropped_crossings_birth(self, monkeypatch, seed, births):
        # Seeded parameters are not in angular order, so this checks the
        # birth bookkeeping: dropping the kernel's last crossing fails a
        # trial first at the prefix that holds all four of its chords'
        # endpoints.
        found = []
        for s in range(seed, seed + len(births)):
            params = seeded_parameters(8, s)
            arr = generic_arrangement(8, seed=s)
            assert arr.births == tuple(params.index(p.t) + 1 for p in arr.points)
            ends = {i for c in arr.crossings[-1] for i in arr.chords[c]}
            found.append(max(arr.births[i] for i in ends))
        assert found == births

        intersect_pairs = _kernel.intersect_pairs
        monkeypatch.setattr(_kernel, "intersect_pairs", lambda *args: drop_last_crossing(intersect_pairs(*args)))
        for trial, m in enumerate(births):
            counts, mismatch = verify_against_formula(moser_terms(8), trial=trial, seed=seed)
            k, counted, expected, parameters = mismatch
            assert (k, counted, expected) == (m, regions_binomial(m) - 1, regions_binomial(m))
            assert counts == [f - (i >= m - 1) for i, f in enumerate(moser_terms(8))]
            assert parameters == tuple(
                p.parameter_text
                for p in build_arrangement(map(CirclePoint, seeded_parameters(m, seed + trial)))
            )


class TestCountedDifferenceTable:
    """Newton's reading of the counted regions' difference table, with no
    solver: a table whose row 4 is constant gives f(m) = sum over k <= 4 of
    its leading diagonal's entry k times C(m - 1, k)."""

    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("K", [7, 15, 25])
    def test_constant_row_diagonal_and_newton_sum(self, K, seed):
        counts, mismatch = verify_against_formula(moser_terms(K), seed=seed)
        assert mismatch is None
        table = build_difference_table(counts)
        assert (table.constant_depth, table.denominator) == (4, 1)
        assert table.rows[4] == (1,) * (K - 4)
        diagonal = tuple(row[0] for row in table.rows)
        assert diagonal == (1, 1, 1, 1, 1)
        for m, count in enumerate(counts, 1):
            assert count == sum(d * math.comb(m - 1, k) for k, d in enumerate(diagonal))
            assert count == sum(math.comb(m - 1, k) for k in range(5))


class TestOneBuild:
    # Both families are proven free of triple points (TestUnseededGeneralPosition
    # and TestSeededBaseSet), so each is built once: a triple point there is a
    # failed assertion after one build, not a redraw.
    def test_unseeded_layout_is_built_once(self, monkeypatch):
        calls = []

        def degenerate(m, variant=0):
            calls.append((m, variant))
            return hexagon_parameters()

        monkeypatch.setattr(arrangement_module, "generic_parameters", degenerate)
        with pytest.raises(AssertionError, match="m=6, trial 2, seed None has a triple point"):
            generic_arrangement(6, trial=2)
        assert calls == [(6, 2)]

    def test_seeded_layout_is_built_once(self, monkeypatch):
        calls = []

        def degenerate(m, seed):
            calls.append((m, seed))
            return hexagon_parameters()

        monkeypatch.setattr(arrangement_module, "seeded_parameters", degenerate)
        with pytest.raises(AssertionError, match="m=6, trial 1, seed 4 has a triple point"):
            generic_arrangement(6, trial=1, seed=4)
        assert calls == [(6, 5)]


class TestSeededBaseSet:
    """Every seeded layout is a subset of one base set in general position.

    A point of three chords among a subset of the points is one among all
    of them, so the one build of the base set proves every seeded layout.
    """

    def test_base_set_is_in_general_position(self):
        base = base_parameters()
        arr = intersect_chords(map(CirclePoint, base))
        assert arr.general_position
        assert count_regions(arr)[2] == regions_binomial(len(base)) == regions_binomial(80)

    def test_seeded_layouts_are_nested_subsets_of_the_base_set(self):
        base = set(base_parameters())
        for seed in (0, 1, 7, 11, -5, 10**6):
            layout = seeded_parameters(80, seed)
            assert set(layout) == base
            for k, m in ((1, 2), (7, 25), (25, 40), (40, 60)):
                assert seeded_parameters(k, seed) == seeded_parameters(m, seed)[:k]
        with pytest.raises(ValueError, match="^a seeded layout has at most 80 points, got m=81$"):
            seeded_parameters(81, 1)


class TestUnseededGeneralPosition:
    """``generic_parameters`` has no triple point, proven by exhaustion.

    Three chords through one point are paired (0, 3), (1, 4), (2, 5) on six
    of the points (``pairing_determinants``), and meet exactly when the
    determinant of their chord vectors is 0.  Every prefix of the m-point
    layout is a subset of it, and a variant's vectors are the variant 0
    ones moved by one unimodular matrix, so checking variant 0 at the
    largest m covers every trial.  CI runs the same check up to
    ``MAX_GEOM_M``.
    """

    def test_no_triple_point_up_to_30(self):
        dets = Counter(det == 0 for det in pairing_determinants(generic_parameters(30)))
        assert dets == {False: math.comb(30, 6)} == {False: 593_775}

    def test_variant_keeps_every_determinant(self):
        base = list(pairing_determinants(generic_parameters(10)))
        assert len(base) == math.comb(10, 6)
        for variant in (1, 7, 99):
            assert list(pairing_determinants(generic_parameters(10, variant=variant))) == base

    def test_a_designed_triple_point_has_determinant_zero(self):
        # The check sees a triple point: three chords designed through one
        # point (seed 0's draw is finite) give the six-subset's one zero.
        params = sorted(designed_parameters((3,), seed=0))
        assert list(pairing_determinants(params)) == [0]
        assert intersect_chords(map(CirclePoint, params)).concurrent == ((2, 7, 11),)
        assert list(pairing_determinants(params[:5] + [params[5] + 1])) != [0]


class TestSerialization:
    def test_arrangement_json_shape(self):
        arr = generic_arrangement(4)
        payload = arrangement_to_json_dict(arr)
        assert payload["schema_version"] == 1
        assert payload["m"] == 4
        assert len(payload["chords"]) == 6
        assert payload["general_position"] is True
        assert payload["degeneracy"] is None
        (point,) = payload["interior_points"]
        # Exact rationals ride as p/q strings.
        for coord in (point["x"], point["y"]):
            numerator, denominator = coord.split("/")
            int(numerator)
            assert int(denominator) > 0
        assert json.dumps(payload)  # round-trips through the json module

    def test_degeneracy_serialized(self):
        payload = arrangement_to_json_dict(hexagon_arrangement())
        assert payload["general_position"] is False
        assert payload["degeneracy"] is not None
        assert len(payload["degeneracy"]["concurrent"]) == 1
        assert payload["degeneracy"]["concurrent"][0]["chords"] == [2, 7, 11]
        # A crossing never lies on the circle; schema v1 keeps the empty key.
        assert payload["degeneracy"]["on_circle"] == []


    # sha256 of json.dumps(arrangement_to_json_dict(arr)) for the
    # regular-approx m-gon, m = 1..24.  Those layouts have off-center
    # concurrent points (47 concurrent points in all at m = 20) that no CLI
    # command reaches, so these pins fix each point's triple, chords and
    # order there.
    REGULAR_APPROX_JSON_SHA256 = [
        "096d516ff0d3dd184e3350ce4806f7b75f7f479df787c25d39240d1095674738",
        "0e35768ec3e431bda15e37768d59f67c3c6ad7dfb28ab0b511f1f42a0ff0a3a9",
        "5e09cef990cc1f9a74349a4de3b61bda81b90b010b667a7201fd2b4b7c006bb1",
        "f972ffa824fa925616d4e852c2da0fd16819f4f32f72d83b178e6f5de271f706",
        "073fd0b32dc1fbd4ca16b3903595f48ae25c103f394a80210b00c30597de3677",
        "8180fc5115eb811411fbe082ffb14d8edea79176f4844af831ef593e12b56195",
        "e5663a13d11e6a7aafb9613353a496b603f19f62e24b5b6c4abab5547624a318",
        "dc9e1f38ae069881b772a6db2c69033466c1885b9bce02d2611744ecde8cad33",
        "6097b47d78e3ad5efe4bcd3df8571e41deb0ddac127ad2d76a17f0601789c41a",
        "1546ea797e69360f444c86b40227a7de8d8b14cec7f175af16f5a5cca8d5fc2a",
        "a2337154b3703321fa87911e83684fc057dc6657b60b06c97b69cb9d5a1b02f2",
        "7dd2a0706496ccaa2ca47ce9f4209e2cda9f19a011009f4b5d522d532504301c",
        "1523eb1a3eccaf060cc75f795c1fcb1409ebcec6bc838985cb0a1bb3e3ac96b0",
        "b6c4beaf8ac31a18cb90433516f18e8b32b48d395531a5256c5c652ec5d8c2df",
        "38270b91807bf653c26235624491e9100c5b08e253204d6d467175c8fbf28757",
        "1474571b3d9c46ee435657b4f71b328538b7d1fa67f6bb8e5c8437f90ce202ad",
        "4366e12384ec9aa30b649372535cfd106180aa85d46de335ac9192b56287541a",
        "22abb8e22c1419270ef3ca05b3cffde19856afec7d7290e5511ae4562a4f060a",
        "a1811203691a591d66193d37880314dc40025cb0397c7afdb032833bf3c4dcec",
        "110d43adaada804a7a79a6c3d0d5b906f91abbec53035f854038c70608647702",
        "9b9529f95e9a100bc43af471569deec57731c4942e584830a79bbb7ab47829bc",
        "2d53d86350bf1a13662f2cf5e3dcd9fafb2179af81ed83c1fedaf46c3597ab2f",
        "af9fa37007d86d23ed403aecc355b261f66dcfc5c000459ec8ba3f9e63caea23",
        "e543c10556ab3993517a3ba1439e8d328f04f29c5c8480467d3586909e5a893d",
    ]

    def test_regular_approx_json_pins(self):
        for m, pin in enumerate(self.REGULAR_APPROX_JSON_SHA256, start=1):
            arr = intersect_chords(_regular_approx_points(m))
            text = json.dumps(arrangement_to_json_dict(arr))
            assert hashlib.sha256(text.encode()).hexdigest() == pin, m


class TestCrossingCountInvariant:
    def test_crossing_pairs_always_binomial_even_when_degenerate(self):
        # Count properly crossing chord PAIRS (not points): C(m, 4) holds
        # for any placement, including the degenerate hexagon and the
        # regular-approx polygons with four or more chords through a point,
        # because every 4 points determine exactly one crossing pair.  A
        # point with k chords through it holds C(k, 2) of those pairs.
        layouts = [hexagon_arrangement(), generic_arrangement(6), generic_arrangement(7)]
        layouts += [intersect_chords(_regular_approx_points(m)) for m in (8, 10, 12)]
        for arr in layouts:
            result = _kernel.intersect_pairs(*_kernel_args(arr.points), 0, len(arr.chords), [])
            pairs = sum(binomial(len(chords), 2) for chords in kernel_crossings(result))
            assert pairs == binomial(arr.m, 4), arr.m


class TestDesignedDegeneracy:
    """Layouts whose concurrency, and so whose region count, is known before
    the build (``designed_parameters``).

    A k-fold point replaces C(k, 2) simple crossings by one vertex, so the
    arrangement has f(m) - sum C(k - 1, 2) regions over the designed points,
    with f(m) = 1 + C(m, 2) + C(m, 4): a count from the design, not from the
    kernel.
    """

    ONE_POINT = {(k,): r for k, r in zip(range(2, 9), (8, 30, 96, 250, 552, 1078, 1920))}
    TWO_POINTS = {(3, 3): 560, (4, 3): 1089, (5, 4): 3205, (6, 6): 10883}

    @staticmethod
    def _build(sizes, seed, centered):
        """The designed arrangement.  A draw whose concurrency is not the
        design's is checked against the four-sign reference, then redrawn,
        so a kernel fault cannot pass as bad luck."""
        designed = sorted(k for k in sizes if k >= 3)
        for attempt in range(4):
            params = designed_parameters(sizes, seed=seed, centered=centered, attempt=attempt)
            arr = intersect_chords(map(CirclePoint, params))
            if sorted(map(len, arr.concurrent)) == designed:
                return arr
            args = _kernel_args(arr.points)
            reference = _merge_hits(_four_sign_reference(*args, 0, len(args[-1])))
            assert arr.crossings == tuple(reference.values())
        pytest.fail(f"no draw of {sizes} (seed {seed}) had exactly the designed concurrency")

    def _check_layout(self, sizes, seed, centered):
        """Check one designed layout (its concurrency is checked by _build)
        and return its region count, f(m) - sum C(k - 1, 2)."""
        m = 2 * sum(sizes)
        regions = regions_binomial(m) - sum(binomial(k - 1, 2) for k in sizes)
        arr = self._build(sizes, seed, centered)
        assert arr.m == m
        assert count_regions(arr)[2] == regions, (sizes, seed)
        assert count_faces(arr) == regions + 1, (sizes, seed)
        points = binomial(m, 4) - sum(binomial(k, 2) - 1 for k in sizes)
        assert len(arr.crossings) == points, (sizes, seed)
        assert sum(binomial(len(s), 2) for s in arr.crossings) == binomial(m, 4)
        return regions

    def _check(self, layouts):
        for sizes, regions in layouts.items():
            for seed, centered in ((0, True), (1, False), (2, False)):
                assert self._check_layout(sizes, seed, centered) == regions, (sizes, seed)

    def test_one_designed_point(self):
        self._check(self.ONE_POINT)

    def test_two_designed_points(self):
        self._check(self.TWO_POINTS)

    @given(st.lists(st.integers(2, 6), min_size=1, max_size=2), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_drawn_designs(self, sizes, seed, centered):
        self._check_layout(tuple(sizes), seed, centered)

    def test_centered_layout_has_its_point_at_the_center(self):
        arr = self._build((4,), 0, True)
        (center,) = [p for p in arr.interior_points if len(p.chords) == 4]
        assert center.triple == (0, 0, 1)
        moved = self._build((4,), 1, False)
        assert [p.triple for p in moved.interior_points if len(p.chords) == 4] != [(0, 0, 1)]


class TestNearDegenerateLayouts:
    """Distinct crossings very close together, where a rounded oracle fails.

    One point of the degenerate hexagon or regular-approx polygon is moved
    by 10^-k, which splits a concurrent point into near-concurrent ones; the
    antipodal layouts have concurrent points at and off the center.  Each
    needs the exact keys' bound 2^shift > 4 big^2, in the kernel and in the
    walk alike.
    """

    MOVES = (3, 6, 10, 20, 40, 80)

    @staticmethod
    def _check(points):
        """The kernel against the four-sign reference, both face walks
        against Euler, and the crossing pairs against C(m, 4)."""
        arr = intersect_chords(points)
        args = _kernel_args(arr.points)
        reference = _merge_hits(_four_sign_reference(*args, 0, len(args[-1])))
        assert arr.crossings == tuple(reference.values())
        assert sum(binomial(len(through), 2) for through in arr.crossings) == binomial(arr.m, 4)
        faces = count_regions(arr)[2] + 1
        assert count_faces(arr) == _reference_count_faces(arr) == _rank_sort_count_faces(arr) == faces
        return arr

    def test_moved_hexagon(self):
        # 1/2 -> 1/2 + 10^-k breaks the center's triple point into three
        # crossings, all within about 10^-k of each other.
        for k in self.MOVES:
            params = [t + F(1, 10**k) if t == F(1, 2) else t for t in hexagon_parameters()]
            arr = self._check(build_arrangement(map(CirclePoint, params)))
            assert arr.general_position, k
            assert len(arr.crossings) == 15, k
            assert count_faces(arr) == 32, k

    def test_moved_regular_approx(self):
        # Point 1 moves off its diameter; the other diameters still meet
        # at the center, next to the moved one's crossings.
        for m in (6, 8, 10, 12):
            params = regular_approx_parameters(m)
            for k in self.MOVES:
                moved = params[:1] + [params[1] + F(1, 10**k)] + params[2:]
                arr = self._check(build_arrangement(map(CirclePoint, moved)))
                assert (m == 6) == arr.general_position, (m, k)

    @given(antipodal_layouts())
    @settings(max_examples=40, deadline=None)
    def test_antipodal_layouts(self, params):
        points = [CirclePoint(t) for t in params]
        arr = self._check(points)
        per_prefix = [
            count_regions(intersect_chords(points[:k]))[2] for k in range(1, len(points) + 1)
        ]
        assert prefix_region_counts(arr) == per_prefix


@st.composite
def oracle_layouts(draw):
    """Up to 25 points: seeded, unseeded, designed, near-degenerate (the
    hexagon or a regular-approx polygon with one point moved by 10^-k) or
    regular-approx, in a random order."""
    kind = draw(st.sampled_from(["seeded", "unseeded", "designed", "near-degenerate", "regular-approx"]))
    m = draw(st.integers(1, 25))
    if kind == "seeded":
        params = seeded_parameters(m, seed=draw(st.integers(0, 10**6)))
    elif kind == "unseeded":
        params = generic_parameters(m, variant=draw(st.integers(0, 99)))
    elif kind == "designed":
        sizes = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
        params = designed_parameters(sizes, seed=draw(st.integers(0, 10**6)), centered=draw(st.booleans()))
    elif kind == "near-degenerate":
        params = draw(st.sampled_from([hexagon_parameters()] + [regular_approx_parameters(n) for n in (6, 8, 10, 12)]))
        params = params[:1] + [params[1] + F(1, 10 ** draw(st.sampled_from(TestNearDegenerateLayouts.MOVES)))] + params[2:]
    else:
        params = regular_approx_parameters(m)
    return draw(st.permutations(params))


class TestInvolutionOracle:
    """The kernel's crossings against ``involution_crossings``, which reads
    only the points' parameters: no triple, line, side value or key of the
    arrangement, and no index order."""

    @staticmethod
    def _check(points):
        arr = intersect_chords(points)
        assert list(arr.crossings) == involution_crossings([p.t for p in arr.points])
        return arr

    @given(oracle_layouts())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_kernel(self, params):
        self._check([CirclePoint(t) for t in params])

    def test_hexagon(self):
        arr = self._check(map(CirclePoint, hexagon_parameters()))
        assert (2, 7, 11) in arr.crossings and len(arr.crossings) == 13


@st.composite
def bitset_layouts(draw):
    """Up to 25 points: seeded, unseeded, designed (its draws have
    concurrent points) or the hexagon, given in their own order or
    shuffled, so that births need not follow angular order."""
    kind = draw(st.sampled_from(["seeded", "unseeded", "designed", "hexagon"]))
    m = draw(st.integers(1, 25))
    if kind == "seeded":
        params = seeded_parameters(m, seed=draw(st.integers(0, 10**6)))
    elif kind == "unseeded":
        params = generic_parameters(m, variant=draw(st.integers(0, 99)))
    elif kind == "designed":
        sizes = tuple(draw(st.lists(st.integers(3, 5), min_size=1, max_size=2)))
        params = designed_parameters(sizes, seed=draw(st.integers(0, 10**6)), centered=draw(st.booleans()))
    else:
        params = hexagon_parameters()
    return draw(st.permutations(params)) if draw(st.booleans()) else params


class TestCrossingBitsets:
    """The arrangement keeps the kernel's row bitsets and concurrent tuples;
    the crossing tuples are built only when ``crossings`` is read."""

    @given(bitset_layouts())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_the_tuple_algorithms(self, params):
        # The materialized crossings are the four-sign reference's, and
        # every count over the bitsets is that of the tuple algorithms.
        points = [CirclePoint(t) for t in params]
        arr = intersect_chords(points)
        args = _kernel_args(arr.points)
        reference = _merge_hits(_four_sign_reference(*args, 0, len(args[-1])))
        assert arr.crossings == tuple(reference.values())
        birth = {p: i for i, p in enumerate(points, 1)}
        births = [birth[p] for p in arr.points]
        assert arr.births == tuple(births)
        assert count_regions(arr) == _tuple_count_regions(arr)
        # The birth-bitset prefix counts against one step per crossing, by
        # row bit and by tuple.
        assert prefix_region_counts(arr) == per_partner_prefix_region_counts(arr) == _tuple_prefix_region_counts(arr, births)
        assert count_faces(arr) == _tuple_count_faces(arr) == count_regions(arr)[2] + 1

    def test_count_paths_build_no_crossing_tuples(self, monkeypatch, capsys):
        # Euler's count, the prefix counts, the face walk, the degeneracy
        # verdict and the CLI's regions and verify read the bitsets; only
        # the crossings view, for JSON and library callers, builds tuples.
        def forbidden(self):
            raise AssertionError("crossing tuples were built")

        monkeypatch.setattr(ChordArrangement, "crossings", property(forbidden))
        hexagon_summary = "1 concurrent intersection point(s) (up to 3 chords through one point)"
        for arr, regions, summary in (
            (generic_arrangement(12, seed=3), 562, "none"),
            (hexagon_arrangement(), 30, hexagon_summary),
        ):
            assert arr.describe_degeneracy() == summary
            assert count_regions(arr)[2] == regions
            assert prefix_region_counts(arr)[-1] == regions
            assert count_faces(arr) == regions + 1
        for argv in (
            ["regions", "--m", "12", "--method", "geometric", "--json"],
            ["regions", "--m", "6", "--method", "geometric", "--degenerate", "hexagon"],
            ["verify", "--max-m", "12", "--geom-cap", "10"],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()
        with pytest.raises(AssertionError, match="crossing tuples were built"):
            hexagon_arrangement().interior_points

    def test_concurrent_pair_left_in_its_row_is_counted(self, monkeypatch):
        # A kernel that finds a concurrent point but leaves its pairs in the
        # row's bitset lists each of them twice: the hexagon's center adds
        # two vertices and four edges, 32 regions instead of 30, and the
        # face walk no longer agrees.
        intersect_pairs = _kernel.intersect_pairs

        def pairs_kept(*args):
            pairs, concurrent = intersect_pairs(*args)
            for first, *rest in concurrent:
                for j in rest:
                    pairs[first] |= 1 << j - first - 1
            return pairs, concurrent

        monkeypatch.setattr(_kernel, "intersect_pairs", pairs_kept)
        arr = hexagon_arrangement()
        assert arr.crossings.count((2, 7)) == 1 and (2, 7, 11) in arr.crossings
        assert count_regions(arr) == (21, 52, 32)
        assert count_faces(arr) != count_regions(arr)[2] + 1
