"""Exact scalars and dense univariate polynomials.

The scalar type is :class:`fractions.Fraction`, re-exported as ``Rational``.
It already guarantees the canonical form every algorithm here relies on:
lowest terms, positive denominator, zero stored as 0/1, and lossless mixed
arithmetic with ``int``.  Nothing in this package touches floating point.

``Polynomial`` is an immutable dense polynomial over ``Rational`` with the
operations the solvers need: ring arithmetic, exact division, evaluation,
and composition with a variable shift ``x -> x + s``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction

RationalLike = Union[Fraction, int]

#: Degree of the zero polynomial — a marker strictly below every int degree.
NEG_INFINITY = float("-inf")


def as_rational(value: RationalLike) -> Rational:
    """Coerce ``value`` to an exact ``Rational``.

    Accepts ``Fraction`` and ``int`` only; floats are rejected because they
    would silently break exactness guarantees.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected Fraction or int, got {type(value).__name__}")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) as an exact integer.

    Requires ``n >= 0``.  Out-of-range ``k`` (negative or above ``n``)
    yields 0, so sums over binomials can be written without edge guards.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_rising(r: int) -> "Polynomial":
    """The degree-``r`` polynomial ``p`` with ``p(n) = C(n + r, r)``.

    Built as (n+1)(n+2)···(n+r) / r!, so for example::

        r=1 -> n + 1
        r=2 -> (n^2 + 3n + 2) / 2
        r=4 -> (n^4 + 10n^3 + 35n^2 + 50n + 24) / 24

    These are the coefficient sequences of 1/(1-x)^(r+1), which is what the
    generating-function route extracts term formulas from.  Requires r >= 1.
    """
    if r < 1:
        raise ValueError(f"binomial_rising requires r >= 1, got {r}")
    poly = Polynomial.one()
    for j in range(1, r + 1):
        poly = poly * Polynomial((j, 1))
    return poly * Fraction(1, math.factorial(r))


class Polynomial:
    """Immutable dense univariate polynomial over ``Rational``.

    Coefficients are stored ascending (index i holds the coefficient of
    x^i) with trailing zeros stripped, so equal polynomials have equal
    coefficient tuples.  The zero polynomial stores no coefficients and
    reports degree ``NEG_INFINITY``, keeping degree comparisons meaningful
    without special-casing.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        return cls((as_rational(value),))

    @classmethod
    def monomial(cls, degree: int, coefficient: RationalLike = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        return cls((0,) * degree + (as_rational(coefficient),))

    # -- structure ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Rational, ...]:
        """Ascending coefficient tuple, trailing zeros stripped."""
        return self._coeffs

    @property
    def degree(self):
        """Degree as an int, or ``NEG_INFINITY`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int) -> Rational:
        """Coefficient of x^i (0 beyond the stored degree)."""
        if i < 0:
            raise ValueError(f"coefficient index must be >= 0, got {i}")
        return self._coeffs[i] if i < len(self._coeffs) else Fraction(0)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if isinstance(other, (Fraction, int)):
            scalar = as_rational(other)
            return Polynomial(tuple(c * scalar for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be an int >= 0, got {exponent}")
        result = Polynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __divmod__(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact long division over the rationals: quotient and remainder."""
        if not isinstance(divisor, Polynomial):
            return NotImplemented
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self._coeffs)
        dlen = len(divisor._coeffs)
        lead = divisor._coeffs[-1]
        quotient = [Fraction(0)] * max(len(remainder) - dlen + 1, 0)
        for i in range(len(remainder) - dlen, -1, -1):
            factor = remainder[i + dlen - 1] / lead
            quotient[i] = factor
            if factor:
                for j, c in enumerate(divisor._coeffs):
                    remainder[i + j] -= factor * c
        return Polynomial(quotient), Polynomial(remainder)

    # -- evaluation and composition -----------------------------------

    def evaluate(self, value: RationalLike) -> Rational:
        """Evaluate at an exact point by Horner's rule."""
        point = as_rational(value)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def compose_shift(self, shift: RationalLike) -> "Polynomial":
        """The polynomial q with q(x) = self(x + shift).

        Horner's rule applied with the linear polynomial (x + shift) in
        place of the evaluation point, so the result is exact and costs
        O(degree^2) coefficient operations.
        """
        step = Polynomial((as_rational(shift), 1))
        acc = Polynomial.zero()
        for c in reversed(self._coeffs):
            acc = acc * step + Polynomial.constant(c)
        return acc

    # -- comparisons / hashing / display -------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def format_rational(value: RationalLike) -> str:
    """Render as ``p/q`` with the denominator always explicit (``3`` -> ``3/1``).

    This is the wire format used in every JSON report, chosen so consumers
    can parse one shape unconditionally.
    """
    value = as_rational(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse an integer or ``p/q`` string into an exact ``Rational``."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_polynomial(poly: Polynomial, variable: str = "n") -> str:
    """Human-readable polynomial, descending powers, common denominator.

    Examples::

        (24, -18, 23, -6, 1)/24  ->  (m^4 - 6*m^3 + 23*m^2 - 18*m + 24)/24
        (2, 3)                   ->  3*n + 2
        ()                       ->  0
    """
    if poly.is_zero:
        return "0"
    denominator = math.lcm(*(c.denominator for c in poly.coefficients))
    monomials = ["", variable] + [f"{variable}^{k}" for k in range(2, poly.degree + 1)]
    scaled = [int(c * denominator) for c in poly.coefficients]
    text = format_signed_terms(reversed(list(zip(scaled, monomials))))
    if denominator == 1:
        return text
    return f"({text})/{denominator}"


def format_signed_terms(terms: Iterable[tuple[RationalLike, str]]) -> str:
    """Join (coefficient, monomial) pairs into a sum like ``x - 5/2*y + 3``.

    Zero terms are skipped, a unit coefficient is implicit, and "" marks
    the constant term.
    """
    text = ""
    for coeff, monomial in terms:
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        if not monomial:
            body = str(magnitude)
        else:
            body = monomial if magnitude == 1 else f"{magnitude}*{monomial}"
        if text:
            text += f" {'-' if coeff < 0 else '+'} {body}"
        else:
            text = f"-{body}" if coeff < 0 else body
    return text
