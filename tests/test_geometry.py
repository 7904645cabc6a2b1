"""Exact geometry: circle points, chord intersection, region counting.

Two independent counting routes — Euler bookkeeping (count_regions) and
explicit face tracing (count_faces) — are checked against each other and
against the combinatorial formulas.  The degenerate hexagon pins the
oracle's sensitivity: a single triple point must change the counts.
"""

import dataclasses
import itertools
import json
import math
from fractions import Fraction
from functools import cmp_to_key

import pytest

from recurlab import (
    DegeneracyBudgetError,
    binomial,
    count_faces,
    count_regions,
    hexagon_arrangement,
    intersect_chords,
    regions_binomial,
    verify_against_formula,
)
from recurlab.cli import main
from recurlab.geometry import (
    CirclePoint,
    antipode_parameter,
    arrangement_to_json_dict,
    build_arrangement,
    generic_arrangement,
    generic_parameters,
    hexagon_parameters,
    prefix_region_counts,
    regular_approx_parameters,
    seeded_parameters,
)
from recurlab.geometry import _kernel
from recurlab.geometry import arrangement as arrangement_module
from recurlab.geometry.arrangement import (
    RETRY_BUDGET,
    ChordArrangement,
    InteriorPoint,
    _chord_lines,
)

F = Fraction


def _kernel_args(points):
    """The kernel's leading arguments (px, py, pw, lx, ly, lw, ca, cb)."""
    chords = list(itertools.combinations(range(len(points)), 2))
    px, py, pw = (list(column) for column in zip(*(p.triple for p in points)))
    lx, ly, lw = _chord_lines(points, chords)
    return px, py, pw, lx, ly, lw, [a for a, _ in chords], [b for _, b in chords]


def _four_sign_reference(px, py, pw, lx, ly, lw, ca, cb, start, stop):
    """The kernel without its side bitmasks: four sign evaluations per pair."""
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


def _regular_approx_points(m):
    """The regular-approx m-gon's points, in angular order."""
    return build_arrangement(map(CirclePoint, regular_approx_parameters(m)))


class TestCirclePoint:
    def test_parametrization_samples(self):
        p = CirclePoint(F(1, 2))
        assert (p.x, p.y) == (F(3, 5), F(4, 5))
        assert p.triple == (3, 4, 5)
        assert CirclePoint(F(0)).triple == (1, 0, 1)
        assert CirclePoint(F(1)).triple == (0, 1, 1)
        assert CirclePoint(None).triple == (-1, 0, 1)

    def test_all_points_on_unit_circle(self):
        params = [None, F(0), F(1), F(-1), F(1, 2), F(-7, 3), F(22, 7), F(1000003, 17)]
        for t in params:
            p = CirclePoint(t)
            assert p.x * p.x + p.y * p.y == 1, t
            x, y, w = p.triple
            assert x * x + y * y == w * w
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

    def test_immutable(self):
        p = CirclePoint(F(1))
        with pytest.raises(AttributeError):
            p.x = F(0)

    def test_stores_only_parameter_and_triple(self):
        assert CirclePoint.__slots__ == ("t", "triple")
        p = CirclePoint(F(-7, 3))
        assert (p.x, p.y) == (F(-20, 29), F(-21, 29))

    def test_antipode(self):
        assert antipode_parameter(F(2)) == F(-1, 2)
        assert antipode_parameter(None) == F(0)
        assert antipode_parameter(F(0)) is None
        # Antipodal points have exactly opposite coordinates.
        for t in (F(2), F(-1, 3), F(0), None):
            p = CirclePoint(t)
            q = CirclePoint(antipode_parameter(t))
            assert (q.x, q.y) == (-p.x, -p.y)


class TestPlacement:
    def test_generic_counts_and_order(self):
        points = generic_arrangement(6).points
        assert len(points) == 6
        assert [p.angle_key for p in points] == sorted(p.angle_key for p in points)

    def test_generic_variants_differ(self):
        a = generic_arrangement(5, variant=0).points
        b = generic_arrangement(5, variant=1).points
        assert {p.triple for p in a} != {p.triple for p in b}

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
                assert p.x**2 + p.y**2 == 1

    def test_regular_approx_even_m_has_exact_antipodes(self):
        params = regular_approx_parameters(8)
        pts = [CirclePoint(t) for t in params]
        for k in range(4):
            p, q = pts[k], pts[k + 4]
            assert (q.x, q.y) == (-p.x, -p.y)

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
        assert count_faces(arr) == count_regions(arr).regions + 1 == 17

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError, match="duplicate circle point at parameter 1/1"):
            intersect_chords(CirclePoint(F(t)) for t in (0, 1, 1, 3))

    def test_kernel_row_ranges_concatenate(self):
        # Pairs are tested in (i, j) order, so splitting the outer chord
        # range at any k and extending the first map by the second, uniting
        # the chords of a repeated point, gives the full map, key order
        # included.
        for arr in (hexagon_arrangement(), generic_arrangement(9, seed=7)):
            args = _kernel_args(arr.points)
            n = len(arr.chords)
            whole = _kernel.intersect_pairs(*args, 0, n)
            assert whole
            for k in range(n + 1):
                merged = _kernel.intersect_pairs(*args, 0, k)
                for triple, chords in _kernel.intersect_pairs(*args, k, n).items():
                    merged[triple] = tuple(sorted({*merged.get(triple, ()), *chords}))
                assert list(merged.items()) == list(whole.items()), (arr.m, k)

    def test_kernel_matches_four_sign_reference(self):
        # The side bitmasks hoist the same exact signs out of the pair loop,
        # so the kernel's map is the reference's hits under the merge rule,
        # key order included, on general-position and degenerate
        # (concurrent) layouts alike.
        layouts = [hexagon_arrangement().points]
        layouts += [_regular_approx_points(m) for m in range(1, 17)]
        layouts += [
            build_arrangement(map(CirclePoint, seeded_parameters(m, seed=seed)))
            for m in (1, 2, 4, 9, 12, 20)
            for seed in range(3)
        ]
        for points in layouts:
            args = _kernel_args(points)
            n = len(args[-1])
            expected = _four_sign_reference(*args, 0, n)
            crossings = _kernel.intersect_pairs(*args, 0, n)
            assert list(crossings.items()) == list(_merge_hits(expected).items()), len(points)
            assert len(expected) == binomial(len(points), 4), len(points)

    def test_merge_on_concurrent_points(self):
        for m in (8, 10, 12):
            arr = intersect_chords(_regular_approx_points(m))
            through: dict = {}
            for i, j, *triple in _four_sign_reference(*_kernel_args(arr.points), 0, len(arr.chords)):
                through.setdefault(tuple(triple), set()).update((i, j))
            assert [p.triple for p in arr.interior_points] == list(through), m
            for p in arr.interior_points:
                assert p.chords == tuple(sorted(through[p.triple])), (m, p)
            expected = {triple: tuple(sorted(chords)) for triple, chords in through.items()}
            assert arr.crossings == expected, m
            assert list(arr.crossings) == list(expected), m
            concurrent = [triple for triple, chords in expected.items() if len(chords) >= 3]
            assert concurrent, m
            assert list(arr.concurrent) == concurrent, m
            assert not arr.general_position
            assert count_faces(arr) == count_regions(arr).regions + 1, m

    def test_count_paths_build_no_interior_points(self, monkeypatch, capsys):
        # The counts, the degeneracy verdict and the CLI read the merge's
        # crossings dict; only the interior_points view builds InteriorPoints.
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
            assert count_regions(arr).regions == regions
            assert count_faces(arr) == regions + 1
            assert arr.describe_degeneracy() == summary
        assert main(["regions", "--m", "12", "--method", "geometric", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["counts"]["geometric"] == 562
        with pytest.raises(AssertionError, match="InteriorPoint was built"):
            hexagon_arrangement().interior_points

    def test_interior_point_stores_only_its_triple(self):
        assert [f.name for f in dataclasses.fields(InteriorPoint)] == ["chords", "triple"]
        point = InteriorPoint(chords=(0, 5), triple=(-3, 4, 10))
        assert (point.x, point.y) == (F(-3, 10), F(2, 5))


class TestRegionCounts:
    def test_tiny_cases(self):
        assert count_regions(generic_arrangement(1)).regions == 1
        assert count_regions(generic_arrangement(2)).regions == 2
        assert count_regions(generic_arrangement(3)).regions == 4

    def test_matches_formula_up_to_twelve(self):
        for m in range(1, 13):
            report = count_regions(generic_arrangement(m))
            assert report.regions == regions_binomial(m), m
            assert report.general_position

    def test_vertices_edges_match_counting_rules(self):
        from recurlab import euler_counts

        for m in range(1, 10):
            report = count_regions(generic_arrangement(m))
            expected = euler_counts(m)
            assert report.vertices == expected.vertices, m
            assert report.edges == expected.edges, m


class TestPrefixRegionCounts:
    @staticmethod
    def _both_ways(params):
        """Prefix counts off one build, and count_regions of each prefix built alone."""
        points = [CirclePoint(t) for t in params]
        arr = intersect_chords(build_arrangement(points))
        birth = {p: i for i, p in enumerate(points, 1)}
        counts = prefix_region_counts(arr, [birth[p] for p in arr.points])
        per_prefix = [
            count_regions(intersect_chords(build_arrangement(points[:k]))).regions
            for k in range(1, len(points) + 1)
        ]
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
        arr = hexagon_arrangement()
        for births in ([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [3, 1, 4, 6, 2, 5]):
            assert prefix_region_counts(arr, births)[-1] == count_regions(arr).regions == 30


class TestFaceWalk:
    def test_matches_euler_route_in_general_position(self):
        for m in range(1, 8):
            arr = generic_arrangement(m)
            assert count_faces(arr) == count_regions(arr).regions + 1, m
        for seed in range(5):
            arr = generic_arrangement(12, seed=seed)
            assert count_faces(arr) == count_regions(arr).regions + 1 == 563, seed

    def test_matches_euler_route_on_degenerate_input(self):
        arr = hexagon_arrangement()
        assert count_faces(arr) == count_regions(arr).regions + 1 == 31
        # Four diameters of the regular-approx octagon meet at the center.
        arr = intersect_chords(_regular_approx_points(8))
        assert max(len(p.chords) for p in arr.interior_points) == 4
        assert count_faces(arr) == count_regions(arr).regions + 1

    def test_empty_arrangement_rejected(self):
        # No arrangement without points reaches count_faces or count_regions.
        with pytest.raises(ValueError, match="at least one point"):
            intersect_chords([])

    def test_regular_approx_odd_m(self):
        arr = intersect_chords(_regular_approx_points(7))
        assert count_faces(arr) == count_regions(arr).regions + 1

    def test_rotation_matches_angle_sort_reference(self):
        # The circle-order rotation against the exact angle sort, on general
        # and degenerate layouts; at m = 24 twelve diameters meet at the
        # center of the regular-approx polygon.
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
        assert max(len(p.chords) for p in corpus[24][1].interior_points) == 12
        for name, arr in corpus:
            faces = count_faces(arr)
            assert faces == _reference_count_faces(arr) == count_regions(arr).regions + 1, name

    def test_reads_only_integer_triples(self, monkeypatch):
        # The walk works on the homogeneous triples alone: the rational
        # coordinates of circle and interior points are never read.
        arr = generic_arrangement(6, seed=3)
        hexagon = hexagon_arrangement()
        expected = count_regions(arr).regions + 1

        def no_rationals(self):
            raise AssertionError("count_faces read a rational coordinate")

        for cls in (CirclePoint, InteriorPoint):
            monkeypatch.setattr(cls, "x", property(no_rationals))
            monkeypatch.setattr(cls, "y", property(no_rationals))
        assert count_faces(arr) == expected
        assert count_faces(hexagon) == 31


class TestDegenerateHexagon:
    def test_three_diagonals_meet_at_center(self):
        arr = hexagon_arrangement()
        center = [p for p in arr.interior_points if p.triple == (0, 0, 1)]
        assert len(center) == 1
        assert len(center[0].chords) == 3
        # Those three chords are exactly the main diagonals (antipodal pairs).
        for chord_index in center[0].chords:
            a, b = arr.chords[chord_index]
            pa, pb = arr.points[a], arr.points[b]
            assert (pa.x, pa.y) == (-pb.x, -pb.y)

    def test_thirteen_interior_points(self):
        arr = hexagon_arrangement()
        assert len(arr.interior_points) == 13
        assert not arr.general_position
        assert arr.concurrent == ((0, 0, 1),)
        assert arr.describe_degeneracy() == (
            "1 concurrent intersection point(s) (up to 3 chords through one point)"
        )

    def test_region_count_drops_by_one(self):
        report = count_regions(hexagon_arrangement())
        assert (report.vertices, report.edges) == (19, 48)
        assert report.regions == 30 == regions_binomial(6) - 1
        assert not report.general_position

    def test_regular_approx_six_is_degenerate_too(self):
        arr = intersect_chords(_regular_approx_points(6))
        assert not arr.general_position
        assert count_regions(arr).regions == 30


class TestVerifyAgainstFormula:
    def test_small_sweep_passes(self):
        for m in (1, 4, 7):
            verdict = verify_against_formula(m, trials=2)
            assert verdict.passed
            assert verdict.counts == (regions_binomial(m),) * 2
            assert verdict.failing_parameters is None

    def test_ten_points_two_layouts(self):
        verdict = verify_against_formula(10, trials=2)
        assert verdict.passed
        assert verdict.expected == 256

    def test_seeded_layouts(self):
        verdict = verify_against_formula(6, trials=2, seed=2026)
        assert verdict.passed

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_against_formula(5, trials=0)

    @staticmethod
    def _record_builds(monkeypatch):
        builds = []
        build = arrangement_module.generic_arrangement

        def recording(m, *, variant=0, seed=None):
            builds.append((m, variant, seed))
            return build(m, variant=variant, seed=seed)

        monkeypatch.setattr(arrangement_module, "generic_arrangement", recording)
        return builds

    def test_one_build_per_trial(self, monkeypatch):
        builds = self._record_builds(monkeypatch)
        assert verify_against_formula(12, trials=2).passed
        assert verify_against_formula(8, trials=3, seed=5).passed
        assert builds == [(12, 0, None), (12, 1, None), (8, 0, 5), (8, 1, 6), (8, 2, 7)]

    def test_retried_layout_falls_back_to_one_build_per_m(self, monkeypatch):
        # Make trial 0's attempt-0 layout at m=6 the degenerate hexagon.  The
        # 6-point build then retries, its points are not the attempt-0 ones,
        # and that trial is checked with one generic_arrangement per m.
        attempts = []
        parameters = arrangement_module.generic_parameters

        def hexagon_at_six(m, variant=0, attempt=0):
            if (m, variant) == (6, 0):
                attempts.append(attempt)
                if attempt == 0:
                    return hexagon_parameters()
            return parameters(m, variant=variant, attempt=attempt)

        monkeypatch.setattr(arrangement_module, "generic_parameters", hexagon_at_six)
        builds = self._record_builds(monkeypatch)
        verdict = verify_against_formula(6, trials=2)
        assert verdict.passed
        assert (verdict.m, verdict.expected, verdict.counts) == (6, 31, (31, 31))
        assert builds == [(6, 0, None)] + [(m, 0, None) for m in range(1, 7)] + [(6, 1, None)]
        # births, the 6-point build (0 then 1), the fallback's own 6-point build
        assert attempts == [0, 0, 1, 0, 1]

    @pytest.mark.parametrize("seed, births", [(3, [6, 6]), (7, [8, 7])])
    def test_failing_prefix_is_the_dropped_crossings_birth(self, monkeypatch, seed, births):
        # Seeded parameters are not in angular order, so this checks the
        # birth bookkeeping: dropping the kernel's last crossing fails first
        # at the prefix that holds all four of its chords' endpoints.  With
        # seed 3 both trials first fail at m=6 and trial 0 is reported; with
        # seed 7, trial 1 fails at m=7, before trial 0 does at m=8.
        found = []
        for s in (seed, seed + 1):
            params = seeded_parameters(8, s)
            arr = generic_arrangement(8, seed=s)
            ends = {i for c in list(arr.crossings.values())[-1] for i in arr.chords[c]}
            found.append(max(params.index(arr.points[i].t) + 1 for i in ends))
        assert found == births
        m, trial = min((b, t) for t, b in enumerate(births))

        intersect_pairs = _kernel.intersect_pairs
        monkeypatch.setattr(
            _kernel, "intersect_pairs", lambda *args: dict(list(intersect_pairs(*args).items())[:-1])
        )
        verdict = verify_against_formula(8, trials=2, seed=seed)
        assert (verdict.passed, verdict.m, verdict.expected) == (False, m, regions_binomial(m))
        assert verdict.counts == tuple(regions_binomial(m) - (b == m) for b in births[: trial + 1])
        assert verdict.failing_parameters == tuple(
            p.parameter_text
            for p in build_arrangement(map(CirclePoint, seeded_parameters(m, seed + trial)))
        )


class TestRetryBudget:
    def test_exhaustion_raises(self, monkeypatch):
        # Degeneracy is never hit by the generic family, so exercise the
        # budget by forcing every candidate layout to be the degenerate
        # hexagon, and record the attempt index of each candidate.
        attempts = []

        def degenerate(m, variant=0, attempt=0):
            attempts.append(attempt)
            return hexagon_parameters()

        monkeypatch.setattr(arrangement_module, "generic_parameters", degenerate)
        with pytest.raises(DegeneracyBudgetError, match="within 16 attempts"):
            generic_arrangement(6)
        assert RETRY_BUDGET == 16
        assert attempts == list(range(16))


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
            crossings = _kernel.intersect_pairs(*_kernel_args(arr.points), 0, len(arr.chords))
            pairs = sum(binomial(len(chords), 2) for chords in crossings.values())
            assert pairs == binomial(arr.m, 4), arr.m
