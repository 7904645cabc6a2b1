"""Shared test oracles and corpus fixtures.

The oracles here are deliberately primitive — subset enumeration, direct
series recurrences, forward iteration — so they are independent of the
implementations they check.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from recurlab import LinearRecurrence, Polynomial, Sequence, build_difference_table, infer_recurrence, moser_terms


def brute_binomial(n: int, k: int) -> int:
    """C(n, k) by literally enumerating k-subsets of an n-set."""
    if k < 0 or k > n:
        return 0
    return sum(1 for _ in combinations(range(n), k))


def brute_regions(m: int) -> int:
    """1 + C(m,2) + C(m,4) with the binomials counted by enumeration."""
    return 1 + brute_binomial(m, 2) + brute_binomial(m, 4)


@pytest.fixture(scope="session")
def moser_recurrence() -> LinearRecurrence:
    """The order-4 recurrence inferred from the first 7 region counts."""
    seq = Sequence(tuple(Fraction(v) for v in moser_terms(7)))
    return infer_recurrence(build_difference_table(seq))


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
