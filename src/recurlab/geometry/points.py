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

Two layout families place m points: ``generic_parameters``, proven free of
triple points up to m = 60, and ``seeded_parameters``, a seeded shuffle of
one base set of 80 points whose one build has no triple point.  A subset of
points in general position is in general position, so that one build
proves every seeded layout.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ..core_numeric import Rational, RationalLike, as_rational


class CirclePoint:
    """A point on the unit circle with exact rational coordinates.

    Construct with a finite rational parameter or ``None`` for the point
    at parameter infinity, (-1, 0).  Instances are immutable and hold only
    the parameter and the canonical homogeneous triple (X, Y, W), the point
    (X/W, Y/W); equality and hashing use the triple.
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


def generic_parameters(m: int, variant: int = 0) -> list[Fraction]:
    """A deterministic layout in general position: t_i = 2^i + variant.

    Distinct ``variant`` values give distinct layouts for repeated
    verification runs.  No three chords meet at one interior point.
    Three such chords would have six endpoints, paired (0, 3), (1, 4),
    (2, 5) in angular order, and the chord through parameters a and b is
    the vector (ab, a + b, 1); the chords meet at one point only when their
    three vectors are dependent.  Shifting every parameter by ``variant``
    maps those vectors by one unimodular matrix, so it keeps each
    determinant, and for t_i = 2^i an exhaustive check finds none that is 0
    up to m = 60 (``tests/conftest.py``, ``pairing_determinants``).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return [Fraction(2**i + variant) for i in range(m)]


@functools.cache
def base_parameters() -> tuple[Fraction, ...]:
    """The 80 parameters every seeded layout is drawn from, drawn once.

    Numerator/denominator pairs from a PRNG with a fixed seed, duplicates
    dropped.  The arrangement of all 80 points has no concurrent point
    (``tests/test_geometry.py``, ``TestSeededBaseSet``), so no subset has.
    """
    import random  # only the seeded family draws: unseeded runs never load it

    rng = random.Random("recurlab:1:0")
    params: dict[Fraction, None] = {}
    while len(params) < 80:
        params[Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 997))] = None
    return tuple(params)


def seeded_parameters(m: int, seed: int) -> list[Fraction]:
    """A reproducible pseudo-random layout: same seed, same points.

    The first m parameters of ``base_parameters`` after a seeded shuffle of
    all of them, so the k-point layout of a seed is the prefix of its
    m-point one, and every layout is in general position.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    params = list(base_parameters())
    if m > len(params):
        raise ValueError(f"a seeded layout has at most {len(params)} points, got m={m}")
    import random

    random.Random(f"recurlab:{seed}").shuffle(params)
    return params[:m]
