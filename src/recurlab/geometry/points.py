"""Exact rational points on the unit circle, and placement strategies.

Points are generated by the tangent half-angle parametrization

    t  ->  ( (1 - t^2) / (1 + t^2),  2t / (1 + t^2) )

which hits every rational point of the unit circle except (-1, 0); that
one point is represented by the parameter "infinity" (``t = None``).  As
t sweeps -oo -> +oo the point sweeps the circle counterclockwise from
just below (-1, 0) around to just above it (t = -1000 gives y < 0), so
sorting finite parameters ascending (infinity last) sorts points by angle.

Each point also carries integer homogeneous coordinates (X, Y, W) with
x = X/W, y = Y/W, gcd = 1 and W > 0 — the representation the intersection
kernels and all orientation tests work on, keeping the geometry entirely
in integer arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from ..core_numeric import Rational, RationalLike, as_rational


class CirclePoint:
    """A point on the unit circle with exact rational coordinates.

    Construct with a finite rational parameter or ``None`` for the point
    at parameter infinity, (-1, 0).  Instances are immutable; equality and
    hashing use the canonical homogeneous triple, and the rational
    coordinates ``x``/``y`` are derived from it on each access.
    """

    __slots__ = ("t", "triple")

    def __init__(self, t: RationalLike | None):
        if t is None:
            triple = (-1, 0, 1)
        else:
            t = as_rational(t)
            p, q = t.numerator, t.denominator
            raw_x, raw_y, raw_w = q * q - p * p, 2 * p * q, q * q + p * p
            g = math.gcd(math.gcd(abs(raw_x), abs(raw_y)), raw_w)
            triple = (raw_x // g, raw_y // g, raw_w // g)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "triple", triple)

    def __setattr__(self, name, value):
        raise AttributeError("CirclePoint is immutable")

    @property
    def x(self) -> Rational:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def y(self) -> Rational:
        return Fraction(self.triple[1], self.triple[2])

    @property
    def parameter_text(self) -> str:
        """The parameter as ``p/q`` or ``inf`` — the JSON wire form."""
        if self.t is None:
            return "inf"
        return f"{self.t.numerator}/{self.t.denominator}"

    @property
    def angle_key(self) -> tuple[int, Rational]:
        """Sort key putting points in counterclockwise angular order."""
        if self.t is None:
            return (1, Fraction(0))
        return (0, self.t)

    def __eq__(self, other) -> bool:
        if isinstance(other, CirclePoint):
            return self.triple == other.triple
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.triple)

    def __repr__(self) -> str:
        return f"CirclePoint({self.parameter_text})"


def antipode_parameter(t: Fraction | None) -> Fraction | None:
    """Parameter of the diametrically opposite point: t -> -1/t.

    The poles of the parametrization swap: infinity <-> 0.
    """
    if t is None:
        return Fraction(0)
    if t == 0:
        return None
    return -1 / t


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


def hexagon_parameters() -> list[Fraction | None]:
    """An exactly symmetric hexagon: the canonical degenerate layout.

    Three antipodal parameter pairs — (0, inf), (1/2, -2), (2, -1/2) —
    whose main diagonals are three diameters meeting at the center, so
    the arrangement has a triple point and one region fewer than the
    general-position count (30 instead of 31).
    """
    return [
        Fraction(0),
        Fraction(1, 2),
        Fraction(2),
        None,
        Fraction(-2),
        Fraction(-1, 2),
    ]


def generic_parameters(m: int, variant: int = 0, attempt: int = 0) -> list[Fraction]:
    """A deterministic general-position candidate layout.

    Base parameters t_i = 2^i + variant give distinct points with no
    intended symmetry; distinct ``variant`` values give distinct layouts
    for repeated verification runs.  ``attempt`` > 0 adds a small
    deterministic perturbation, used by the placement retry loop in the
    (never yet observed) event a candidate layout turns out degenerate.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    params = []
    for i in range(m):
        t = Fraction(2**i + variant)
        if attempt:
            t += Fraction(attempt, (attempt + 1) * (i + 2))
        params.append(t)
    return params


def seeded_parameters(m: int, seed: int, attempt: int = 0) -> list[Fraction]:
    """A reproducible pseudo-random layout: same seed, same points.

    Draws numerator/denominator pairs from a seeded PRNG, rejecting
    duplicates, so layouts vary with the seed while runs stay
    deterministic.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = random.Random(f"recurlab:{seed}:{attempt}")
    seen: set[Fraction] = set()
    params: list[Fraction] = []
    while len(params) < m:
        t = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 997))
        if t not in seen:
            seen.add(t)
            params.append(t)
    return params
