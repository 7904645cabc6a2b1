"""Shared test oracles and corpus fixtures.

The oracles here are deliberately primitive — subset enumeration, direct
series recurrences, forward iteration — so they are independent of the
implementations they check.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest

from recurlab import (
    LinearRecurrence,
    Polynomial,
    binomial,
    build_difference_table,
    infer_recurrence,
    moser_terms,
)


def brute_binomial(n: int, k: int) -> int:
    """C(n, k) by literally enumerating k-subsets of an n-set."""
    if k < 0 or k > n:
        return 0
    return sum(1 for _ in combinations(range(n), k))


def brute_regions(m: int) -> int:
    """1 + C(m,2) + C(m,4) with the binomials counted by enumeration."""
    return 1 + brute_binomial(m, 2) + brute_binomial(m, 4)


def series_from_terms(terms, depth: int) -> list[Fraction]:
    """Series coefficients of partial-fraction terms (root, power, coeff).

    [x^n] coeff/(1 - r x)^p = coeff * C(n + p - 1, p - 1) * r^n, summed
    term by term, so a decomposition can be checked against its source.
    """
    return [
        sum((c * binomial(n + p - 1, p - 1) * r**n for r, p, c in terms), Fraction(0))
        for n in range(depth)
    ]


@pytest.fixture(scope="session")
def moser_recurrence() -> LinearRecurrence:
    """The order-4 recurrence inferred from the first 7 region counts."""
    return infer_recurrence(build_difference_table(moser_terms(7)))


def solver_corpus() -> list[tuple[str, LinearRecurrence]]:
    """Recurrences with all-rational nonzero characteristic roots.

    Used to cross-check the two solver routes against forward iteration
    and against each other.  Covers: repeated root 1 with constant and
    polynomial right-hand sides, distinct integer roots, a negative root,
    a fractional root, mixed root-1/root-2 with forcing, and repeated
    non-unit roots (integer, negative fractional) with and without forcing.
    """
    F = Fraction
    P = Polynomial

    def monic(*factors):
        """Coefficients (c_d, ..., c_0) of prod (r - root)^power."""
        chi = P.one()
        for root, power in factors:
            chi = chi * P((-root, 1)) ** power
        return tuple(reversed(chi.coefficients))

    corpus = [
        (
            "regions-order-4",
            LinearRecurrence((F(1), F(-4), F(6), F(-4), F(1)), P.constant(1), (F(1), F(2), F(4), F(8))),
        ),
        (
            "constant",
            LinearRecurrence((F(1), F(-1)), P.zero(), (F(7),)),
        ),
        (
            "squares",  # second difference constant 2
            LinearRecurrence((F(1), F(-2), F(1)), P.constant(2), (F(0), F(1))),
        ),
        (
            "triangular-ramp",  # a_{n+1} - a_n = n
            LinearRecurrence((F(1), F(-1)), P((0, 1)), (F(0),)),
        ),
        (
            "geometric-2",
            LinearRecurrence((F(1), F(-2)), P.zero(), (F(1),)),
        ),
        (
            "distinct-roots-2-3",
            LinearRecurrence((F(1), F(-5), F(6)), P.zero(), (F(2), F(5))),
        ),
        (
            "alternating",
            LinearRecurrence((F(1), F(1)), P.zero(), (F(3),)),
        ),
        (
            "half-root",
            LinearRecurrence((F(1), F(-1, 2)), P.zero(), (F(4),)),
        ),
        (
            "doubling-with-forcing",  # a_{n+1} - 2a_n = 1 -> 2^n - 1 from a_0 = 0
            LinearRecurrence((F(1), F(-2)), P.constant(1), (F(0),)),
        ),
        (
            "double-root-quadratic-rhs",  # (r-1)^2 with rhs n^2
            LinearRecurrence((F(1), F(-2), F(1)), P((0, 0, 1)), (F(0), F(1))),
        ),
        (
            "repeated-2-and-1-with-half",  # (r-1)^2 (r-2)^3 (r+1/2), rhs n^2 + 1/3
            LinearRecurrence(
                monic((F(1), 2), (F(2), 3), (F(-1, 2), 1)),
                P((F(1, 3), 0, 1)),
                (F(0), F(1), F(-1), F(2), F(1, 2), F(3)),
            ),
        ),
        (
            "repeated-3-and-minus-two-thirds",  # (r-3)^2 (r+2/3)^2, rhs 0
            LinearRecurrence(
                monic((F(3), 2), (F(-2, 3), 2)), P.zero(), (F(1), F(0), F(2), F(-1, 3))
            ),
        ),
    ]
    return corpus


# ---------------------------------------------------------------------------
# Rational approximations of pi and tan, for the regular-polygon layout.
# Everything stays in Fraction; floats never appear.
# ---------------------------------------------------------------------------


def _atan_reciprocal(k: int, terms: int) -> Fraction:
    """arctan(1/k) by its alternating Taylor series, truncated after ``terms``.

    The series alternates with decreasing magnitude, so the truncation
    error is below the first omitted term.
    """
    x = Fraction(1, k)
    xx = x * x
    power = x
    total = Fraction(0)
    for i in range(terms):
        term = power / (2 * i + 1)
        total += term if i % 2 == 0 else -term
        power *= xx
    return total


@lru_cache(maxsize=1)
def _pi_fraction() -> Fraction:
    """pi as an exact fraction via Machin's formula, accurate beyond 10^-50."""
    return 16 * _atan_reciprocal(5, 40) - 4 * _atan_reciprocal(239, 12)


def _tan_fraction(x: Fraction, depth: int = 30) -> Fraction:
    """tan(x) by Lambert's continued fraction, exact rational arithmetic.

    tan x = x / (1 - x^2 / (3 - x^2 / (5 - ...))).  For |x| < pi/2 and
    ``depth`` around 30 the error is far below the 10^-6 granularity the
    callers round to.
    """
    xx = x * x
    acc = Fraction(2 * depth + 1)
    for k in range(depth, 0, -1):
        acc = (2 * k - 1) - xx / acc
    return x / acc


def antipode_parameter(t: Fraction | None) -> Fraction | None:
    """Parameter of the diametrically opposite point: t -> -1/t.

    The poles of the parametrization swap: infinity <-> 0.
    """
    if t is None:
        return Fraction(0)
    if t == 0:
        return None
    return -1 / t


def mobius_parameter(t: Fraction | None, a: int, b: int, c: int, d: int) -> Fraction | None:
    """Image of t under t -> (a t + b)/(c t + d), with None for infinity.

    The circle's parametrization t -> (1 - t^2, 2t, 1 + t^2) is a conic, so
    with ad - bc != 0 the map extends to a projective map of the plane that
    fixes the unit circle.  It keeps lines and their concurrency, and the
    inside of the disk.
    """
    if t is None:
        return Fraction(a, c) if c else None
    den = c * t + d
    return (a * t + b) / den if den else None


def designed_parameters(
    sizes: tuple[int, ...], *, seed: int, centered: bool = False, attempt: int = 0
) -> list[Fraction | None]:
    """A layout with one designed concurrent point per entry k of ``sizes``.

    Each family is k antipodal pairs (t, -1/t): k diameters through the
    center.  Each family is then moved by a Möbius map of its own
    (coefficients in [-50, 50]), which takes its k-fold point anywhere
    inside the disk; with ``centered``, the first family stays at the
    center.  A draw that repeats a point is redrawn.  The design fixes
    which concurrencies exist, not that no other does; a generic draw has
    none.
    """
    rng = random.Random(f"recurlab-designed:{sizes}:{seed}:{centered}:{attempt}")
    params: list[Fraction | None] = []
    for i, k in enumerate(sizes):
        coefficients = (1, 0, 0, 1)
        while i or not centered:
            coefficients = tuple(rng.randint(-50, 50) for _ in range(4))
            a, b, c, d = coefficients
            if a * d != b * c:
                break
        family: list[Fraction | None] = []
        while len(family) < 2 * k:
            t = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            pair = [mobius_parameter(u, *coefficients) for u in (t, antipode_parameter(t))]
            if not any(u in params or u in family for u in pair):
                family += pair
        params += family
    return params


def regular_approx_parameters(m: int) -> list[Fraction | None]:
    """Rational points near the vertices of a regular m-gon.

    Point k sits at angle 2*pi*k/m, i.e. half-angle parameter
    t = tan(pi*k/m), computed through the rational pi and tan
    approximations and rounded with ``Fraction.limit_denominator``.  The
    parameter is exactly infinity when 2k = m (the vertex at angle pi).

    For even m the second half of the points is generated as the exact
    antipodes of the first half, so diametrically opposite vertex pairs
    are exactly opposite.  Consequence: for even m >= 6 the main diagonals
    all pass through the center exactly, and the layout is degenerate —
    that is its purpose, as a source of concurrency test cases.  Odd m
    stays in general position in practice.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    pi = _pi_fraction()

    def vertex_parameter(k: int) -> Fraction | None:
        if 2 * k == m:
            return None
        # Fold pi*k/m into (-pi/2, pi/2); the fold test 2k > m is exact.
        psi = pi * Fraction(k, m)
        if 2 * k > m:
            psi -= pi
        return _tan_fraction(psi).limit_denominator(10**6)

    if m % 2 == 0:
        half = [vertex_parameter(k) for k in range(m // 2)]
        return half + [antipode_parameter(t) for t in half]
    return [vertex_parameter(k) for k in range(m)]


def kernel_crossings(result, start: int = 0) -> list[tuple[int, ...]]:
    """The kernel's ``(pairs, concurrent)`` of rows from ``start`` as one
    ascending list of chord tuples: (i, j) for bit j - i - 1 of row i, and
    the concurrent tuples.  Reads each bit by a shift, not as the kernel
    does."""
    pairs, concurrent = result
    simple = [
        (i, i + 1 + k)
        for i, row in enumerate(pairs, start)
        for k in range(row.bit_length())
        if row >> k & 1
    ]
    return sorted(simple + list(concurrent))


def per_partner_prefix_region_counts(arr) -> list[int]:
    """``prefix_region_counts`` one step per crossing, reading each row bit
    by a shift: every chord adds 1 at its birth, every point of two chords
    1 at the later birth of the two, and every other point 1 at each birth
    of its chords but the earliest."""
    chord_birth = [max(arr.births[a], arr.births[b]) for a, b in arr.chords]
    step = [0] * (arr.m + 1)
    for t in chord_birth:
        step[t] += 1
    for i, j in kernel_crossings((arr.pairs, ())):
        step[max(chord_birth[i], chord_birth[j])] += 1
    for through in arr.concurrent:
        for t in sorted(chord_birth[c] for c in through)[1:]:
            step[t] += 1
    counts = [1]
    for k in range(1, arr.m + 1):
        counts.append(counts[-1] + step[k])
    return counts[1:]


def drop_last_crossing(result):
    """The kernel's result with its last crossing in ascending order taken
    out, in place: the top bit of its last nonzero row, which must come
    after every concurrent point."""
    before = kernel_crossings(result)
    pairs, concurrent = result
    i = max(i for i, row in enumerate(pairs) if row)
    pairs[i] ^= 1 << pairs[i].bit_length() - 1
    assert kernel_crossings(result) == before[:-1]
    return result


def drop_first_born(result, cb):
    """The kernel's result with the first crossing, in ascending order,
    whose last chord ends before circle point 4 taken out, in place."""
    before = kernel_crossings(result)
    i, j = next(through for through in before if cb[through[-1]] < 4)
    result[0][i] ^= 1 << j - i - 1
    assert kernel_crossings(result) == [t for t in before if t != (i, j)]
    return result


# ---------------------------------------------------------------------------
# A crossing oracle read off the circle parameters alone.  On the unit circle
# x = (1 - t^2)/(1 + t^2), y = 2t/(1 + t^2), the chord through parameters a
# and b is the line x(1 - ab) + y(a + b) = 1 + ab, that is the vector
# (ab, a + b, 1).  The lines through a point cut the circle in the pairs of
# one involution A tt' + B(t + t') + C = 0 (Coxeter, "Projective Geometry",
# involutions on a conic), and for two chords that involution is the cross
# product of their vectors.  No point triple, line, side value or key of
# the library is read.
# ---------------------------------------------------------------------------


def chord_vector(s, t) -> tuple[int, int, int]:
    """The chord through circle parameters s and t (None for infinity), as
    (p_s p_t, p_s q_t + p_t q_s, q_s q_t) with s = p_s/q_s, t = p_t/q_t and
    infinity = 1/0: q_s q_t (st, s + t, 1) when both are finite."""
    ps, qs = (1, 0) if s is None else (s.numerator, s.denominator)
    pt, qt = (1, 0) if t is None else (t.numerator, t.denominator)
    return ps * pt, ps * qt + pt * qs, qs * qt


def _vector_cross(u, v):
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def involution_crossings(params) -> list[tuple[int, ...]]:
    """The crossings of all chords between circle points with parameters
    ``params``, given in angular order, as ascending chord tuples, chords
    numbered as the point-index pairs in lexicographic order.

    Two chords with four distinct endpoints cross inside the disk exactly
    when their involution (A, B, C) is elliptic, A C > B^2: their lines
    then meet strictly inside the circle, where each line is its chord.
    The gcd-reduced (A, B, C) with A > 0 names the crossing point, so the
    chords through one point share it.
    """
    chords = list(combinations(range(len(params)), 2))
    vectors = [chord_vector(params[a], params[b]) for a, b in chords]
    through: dict[tuple[int, int, int], set[int]] = {}
    for (i, (a, b)), (j, (c, d)) in combinations(enumerate(chords), 2):
        if a == c or a == d or b == c or b == d:
            continue
        A, B, C = _vector_cross(vectors[i], vectors[j])
        if A * C > B * B:
            g = gcd(A, B, C) if A > 0 else -gcd(A, B, C)
            through.setdefault((A // g, B // g, C // g), set()).update((i, j))
    return sorted(tuple(sorted(chords)) for chords in through.values())


def pairing_determinants(params):
    """det(v(t0, t3), v(t1, t4), v(t2, t5)) for every six-subset t0 < ... <
    t5 of the finite, ascending ``params``, as a generator, v the chord
    vector.

    Three chords through one interior point cross pairwise, so their six
    endpoints are distinct and, in angular order, paired (0, 3), (1, 4),
    (2, 5): the only pairing of six points on a circle in which all three
    chords cross.  Their lines meet at one point exactly when their vectors
    are dependent.  So a layout has no triple point when no determinant
    yielded here is 0.  The subsets come grouped by (t0, t1, t3, t4), whose
    two vectors' cross product is dotted with every v(t2, t5).
    """
    n = len(params)
    v = [[chord_vector(s, t) for t in params] for s in params]
    for i0, i1, i3, i4 in combinations(range(n), 4):
        if i3 - i1 < 2:
            continue
        c0, c1, c2 = _vector_cross(v[i0][i3], v[i1][i4])
        for i2 in range(i1 + 1, i3):
            yield from (c0 * x + c1 * y + c2 * z for x, y, z in v[i2][i4 + 1:])
