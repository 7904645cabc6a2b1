"""Closed-form counts for the circle-division (Moser) problem.

Place m points on a circle in general position (no three chords through
one interior point) and draw all C(m, 2) chords.  The number of regions
the disk is cut into is

    f(m) = 1 + C(m, 2) + C(m, 4)
         = (m^4 - 6m^3 + 23m^2 - 18m + 24) / 24

which runs 1, 2, 4, 8, 16, 31, 57, ... — doubling stops at m = 6.  This
module provides that count through several independent routes (binomial
form, expanded polynomial, a truncated row-sum of Pascal's triangle, and
Euler's formula applied to the chord arrangement), so each can serve as an
oracle for the others.
"""

from __future__ import annotations

from .core_numeric import Polynomial, binomial, binomial_rising


def _require_positive_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def regions_binomial(m: int) -> int:
    """f(m) = 1 + C(m, 2) + C(m, 4)."""
    _require_positive_m(m)
    return 1 + binomial(m, 2) + binomial(m, 4)


def moser_polynomial() -> Polynomial:
    """The region count as a polynomial in m: (m^4 - 6m^3 + 23m^2 - 18m + 24)/24.

    Assembled from the binomial form: C(m, 2) is binomial_rising(2) shifted
    by -2 (since C((m-2)+2, 2) = C(m, 2)), and likewise C(m, 4) with shift
    -4.
    """
    return (
        Polynomial.one()
        + binomial_rising(2).compose_shift(-2)
        + binomial_rising(4).compose_shift(-4)
    )


_MOSER_POLYNOMIAL = moser_polynomial()


def regions_polynomial(m: int) -> int:
    """f(m) via the expanded quartic; always an exact integer (asserted)."""
    _require_positive_m(m)
    value = _MOSER_POLYNOMIAL.evaluate(m)
    assert value.denominator == 1, "quartic must evaluate to an integer"
    return int(value)


def regions_binomial_sum(m: int) -> int:
    """f(m) = sum_{j=0..4} C(m-1, j), a truncated Pascal row-sum.

    The upper limit is fixed at 4 for every m: extending the sum over all
    j <= m-1 would give 2^(m-1), which already disagrees at m = 6
    (32 vs 31).  For m <= 5 the two readings coincide because the extra
    binomials vanish, which is exactly why the counts double at first.
    """
    _require_positive_m(m)
    return sum(binomial(m - 1, j) for j in range(5))


def chord_count(m: int) -> int:
    """Number of chords: C(m, 2)."""
    _require_positive_m(m)
    return binomial(m, 2)


def intersection_count(m: int) -> int:
    """Interior intersection points in general position: C(m, 4).

    Each interior point is made by exactly one pair of crossing chords,
    and each crossing pair is determined by its 4 endpoints, so the count
    is the number of 4-subsets of the m circle points.
    """
    _require_positive_m(m)
    return binomial(m, 4)


def euler_counts(m: int) -> tuple[int, int, int]:
    """(V, E, regions) of the general-position arrangement, by counting rules.

    V: the m circle points plus C(m, 4) interior intersections.
    E: each of the m circle arcs is one edge, and each chord is split into
       one more edge than the interior points on it; summing over chords
       gives C(m, 2) + 2 C(m, 4) chord edges (each interior point splits
       two chords).
    regions: Euler's formula on the sphere gives F = 2 - V + E faces, and
       all but the one outside the circle lie in the disk, so regions =
       F - 1 = E - V + 1.  This route never consults the closed form it is
       checked against.
    """
    _require_positive_m(m)
    vertices = m + binomial(m, 4)
    edges = m + binomial(m, 2) + 2 * binomial(m, 4)
    return vertices, edges, edges - vertices + 1


def moser_terms(count: int) -> list[int]:
    """The first ``count`` region counts f(1), f(2), ..., f(count)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [regions_binomial(m) for m in range(1, count + 1)]
