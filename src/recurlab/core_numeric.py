"""Exact scalars and dense univariate polynomials.

The scalar type is :class:`fractions.Fraction`, re-exported as ``Rational``.
It already guarantees the canonical form every algorithm here relies on:
lowest terms, positive denominator, zero stored as 0/1, and lossless mixed
arithmetic with ``int``.  Nothing in this package touches floating point.

``Polynomial`` is an immutable dense polynomial over ``Rational`` with the
operations the solvers need: ring arithmetic, evaluation, and composition
with a variable shift ``x -> x + s``.  Inside, it is integers over one
denominator, so all of these run in ``int``; ``Fraction`` is only at the
edges: the constructor, ``coefficients`` and ``evaluate``.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable
from fractions import Fraction

Rational = Fraction

RationalLike = Fraction | int


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
    generating-function route extracts term formulas from.  The product is
    in integers, divided once by r!.  Requires r >= 1.
    """
    if r < 1:
        raise ValueError(f"binomial_rising requires r >= 1, got {r}")
    num = [1]
    for j in range(1, r + 1):  # times (n + j)
        num = [a * j + b for a, b in zip(num + [0], [0] + num)]
    return Polynomial._make(num, math.factorial(r))


class Polynomial:
    """Immutable dense univariate polynomial over ``Rational``.

    Stored as integer numerators ``_num`` (ascending, trailing zeros
    stripped) over one positive denominator ``_den`` that shares no factor
    with all of them, so equal polynomials have equal representations.  The
    zero polynomial stores no numerators over 1 and has no degree: test it
    with ``is_zero`` first.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        self._set(*clear_denominators(tuple(map(as_rational, coefficients))))

    def _set(self, num: list[int], den: int) -> None:
        """Store sum num[i] x^i / den (integers, ``den`` positive), normalised."""
        while num and not num[-1]:
            num.pop()
        common = math.gcd(den, *num)
        if common != 1:
            num, den = [c // common for c in num], den // common
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, num: list[int], den: int) -> "Polynomial":
        poly = object.__new__(cls)
        poly._set(num, den)
        return poly

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
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """``(nums, den)``: coefficient i is nums[i] / den, with den as in the class."""
        return self._num, self._den

    @property
    def degree(self) -> int:
        """Degree as an int; raises ValueError on the zero polynomial."""
        if not self._num:
            raise ValueError("the zero polynomial has no degree")
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, i: int) -> Rational:
        """Coefficient of x^i (0 beyond the stored degree)."""
        if i < 0:
            raise ValueError(f"coefficient index must be >= 0, got {i}")
        return Fraction(self._num[i], self._den) if i < len(self._num) else Fraction(0)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a = [c * (den // self._den) for c in self._num]
        b = [c * (den // other._den) for c in other._num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Polynomial._make(a, den)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make([-c for c in self._num], self._den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other) if isinstance(other, Polynomial) else NotImplemented

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self._num, other._num
            out = [0] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return Polynomial._make(out, self._den * other._den)
        if isinstance(other, (Fraction, int)):
            scalar = as_rational(other)
            num = [c * scalar.numerator for c in self._num]
            return Polynomial._make(num, self._den * scalar.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be an int >= 0, got {exponent}")
        result = Polynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- evaluation and composition -----------------------------------

    def evaluate(self, value: RationalLike) -> Rational:
        """Evaluate at p/q: sum num_i p^i q^(d-i) by integer Horner, over den q^d."""
        point = as_rational(value)
        p, q = point.numerator, point.denominator
        acc, scale = 0, 1
        for c in reversed(self._num):
            acc, scale = acc * p + c * scale, scale * q
        return Fraction(acc * q, self._den * scale)  # scale is q^(d+1)

    def compose_shift(self, shift: RationalLike) -> "Polynomial":
        """The polynomial q with q(x) = self(x + shift), by an integer Taylor shift.

        With shift = p/q, self(x + p/q) = h(q x + p) / (den q^d) for the
        integer h(z) = sum num_i q^(d-i) z^i.  Horner's scheme shifts h by p
        in O(d^2) additions (von zur Gathen & Gerhard 1997, "Fast algorithms
        for Taylor shifts"); w = q x then scales coefficient j by q^j.
        """
        d = len(self._num) - 1
        if d < 1:
            return self
        point = as_rational(shift)
        p, q = point.numerator, point.denominator
        h = [c * q ** (d - i) for i, c in enumerate(self._num)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                h[j] += p * h[j + 1]
        return Polynomial._make([c * q**j for j, c in enumerate(h)], self._den * q**d)

    # -- comparisons / hashing / display -------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def clear_denominators(values: tuple[Rational, ...]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators.

    ``(1/2, 3, -5/6)`` -> ``([3, 18, -5], 6)``; the lcm is 1 for integers.
    """
    denominator = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def format_rational(value: RationalLike) -> str:
    """Render as ``p/q`` with the denominator always explicit (``3`` -> ``3/1``).

    This is the wire format used in every JSON report, chosen so consumers
    can parse one shape unconditionally.
    """
    value = as_rational(value)
    return format_quotient(value.numerator, value.denominator)


def format_quotient(numerator: int, denominator: int, wire: bool = True) -> str:
    """Render the integer quotient ``numerator/denominator`` in lowest terms.

    ``denominator`` must be positive.  With ``wire`` the denominator is
    always explicit, as in :func:`format_rational` (``6, 2`` -> ``3/1``);
    without it a whole number prints bare, as ``str`` of a ``Fraction``
    does (``6, 2`` -> ``3``, ``3, 6`` -> ``1/2``).
    """
    if denominator != 1:
        common = math.gcd(numerator, denominator)
        numerator //= common
        denominator //= common
        if denominator != 1:
            return f"{numerator}/{denominator}"
    return f"{numerator}/1" if wire else str(numerator)


_NOT_IN_TERM = re.compile(r"[eE_\s]")


def parse_rational(text: str) -> Rational:
    """Parse an integer, decimal or ``p/q`` string into an exact ``Rational``.

    The stripped term is an optional sign and then digits, digits with one
    decimal point, or digits ``/`` digits.  Exponent notation (``1e5``) is
    rejected: ``Fraction`` would accept it, and a term like ``1e99999999``
    would build an integer of that many digits.  So are ``_`` separators
    (``1_000``) and whitespace inside the term (``1 /2``), which
    ``Fraction`` accepts on some Python versions and not on others.
    A rejected term longer than ``sys.get_int_max_str_digits()`` is named by its length.
    An integer term is read by ``int``; ``Fraction`` parses only what ``int``
    refuses (a decimal, a quotient or an invalid term).
    """
    term = text.strip()
    try:
        if _NOT_IN_TERM.search(term):
            raise ValueError("exponent, separator or inner whitespace")
        try:
            return Fraction(int(term))
        except ValueError:
            return Fraction(term)
    except (ValueError, ZeroDivisionError) as exc:
        shown = repr(text)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
        if 0 < limit < len(text):
            shown = f"a {len(text)}-character term (Python's integer-string limit is {limit} digits)"
        raise ValueError(f"not a rational number: {shown}") from exc


def format_polynomial(poly: Polynomial, variable: str = "n") -> str:
    """Human-readable polynomial, descending powers, common denominator.

    Examples::

        (24, -18, 23, -6, 1)/24  ->  (m^4 - 6*m^3 + 23*m^2 - 18*m + 24)/24
        (2, 3)                   ->  3*n + 2
        ()                       ->  0
    """
    if poly.is_zero:
        return "0"
    scaled, denominator = poly.integer_form
    monomials = ["", variable] + [f"{variable}^{k}" for k in range(2, poly.degree + 1)]
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
