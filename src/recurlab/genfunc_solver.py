"""Closed forms via ordinary generating functions.

Independent second route to the same answers as the characteristic-
polynomial solver:

1. ``build_ogf`` turns a recurrence into the rational function
   f(x) = sum a_n x^n.  Multiplying the recurrence by x^{n+d} and summing
   over n gives f(x) * D(x) = N(x), where D(x) = x^d chi(1/x) factors as
   prod (1 - r_i x)^{m_i} over the characteristic roots, and N collects the
   initial conditions plus the transformed right-hand side.
2. ``partial_fractions`` decomposes the proper f into the terms
   (r, k, coeff) of sum coeff / (1 - r x)^k by local expansion at each
   root: the substitution x = (1 - y)/r turns the factor (1 - r x) into
   y, and the series in y of what is left gives the coefficients of that
   root's terms.  No linear system is solved.
3. ``extract_coefficient_formula`` reads coefficients off each term with
   [x^n] 1/(1 - r x)^k = C(n + k - 1, k - 1) r^n, yielding a ClosedForm
   tagged "genfunc".

``RationalFunction.series`` provides the ground truth the decomposition
is checked against: exact power-series coefficients straight from the
rational function.

The route shares no solver with the characteristic-polynomial route.  It
does share ``characteristic_roots``: both routes factor chi with the same
root finder, so both accept exactly the recurrences whose characteristic
roots are all rational and nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core_numeric import Polynomial, Rational, as_rational
from .difference_engine import LinearRecurrence
from .recurrence_solver import ClosedForm, characteristic_roots


@dataclass(frozen=True)
class RationalFunction:
    """numerator(x) / prod (1 - r x)^power, with the denominator kept factored.

    Factors with the same r are merged, r = 0 factors are dropped (they
    equal 1), and factors are sorted by r, so structural equality compares
    meaningfully.
    """

    numerator: Polynomial
    denominator_factors: tuple[tuple[Rational, int], ...]

    def __post_init__(self):
        merged: dict[Rational, int] = {}
        for root, power in self.denominator_factors:
            root = as_rational(root)
            if power < 1:
                raise ValueError(f"factor power must be >= 1, got {power}")
            if root == 0:
                continue
            merged[root] = merged.get(root, 0) + power
        factors = tuple(sorted(merged.items()))
        object.__setattr__(self, "denominator_factors", factors)

    def denominator_polynomial(self) -> Polynomial:
        """The denominator expanded into a polynomial (constant term 1)."""
        poly = Polynomial.one()
        for root, power in self.denominator_factors:
            poly = poly * Polynomial((1, -root)) ** power
        return poly

    @property
    def denominator_degree(self) -> int:
        return sum(power for _, power in self.denominator_factors)

    def series(self, depth: int) -> list[Rational]:
        """First ``depth`` exact power-series coefficients.

        Solves numerator = series * denominator coefficient by coefficient;
        the denominator's constant term is 1 by construction, so every step
        is a subtraction, no division.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        den = self.denominator_polynomial().coefficients
        out: list[Rational] = []
        for n in range(depth):
            value = self.numerator.coefficient(n)
            for k in range(1, min(n, len(den) - 1) + 1):
                value -= den[k] * out[n - k]
            out.append(value)
        return out


def build_ogf(rec: LinearRecurrence) -> RationalFunction:
    """The ordinary generating function of the recurrence's solution.

    Multiply sum_k c_k a_{n+k} = rhs(n) by x^{n+d} and sum over n >= 0:

        f(x) * D(x) = x^d * R(x) + N_init(x)

    where D(x) = x^d chi(1/x) = prod (1 - r_i x)^{m_i} over the
    characteristic roots, N_init(x) = sum_{k=1..d} c_k x^{d-k} (a_0 + a_1 x
    + ... + a_{k-1} x^{k-1}) collects the initial-condition boundary terms,
    and R(x) = sum_n rhs(n) x^n.

    A polynomial right-hand side of degree e makes R rational with
    denominator (1-x)^{e+1}, and R(x) (1-x)^{e+1} is a polynomial of degree
    at most e, so it equals (sum_{n<=e} rhs(n) x^n) (1-x)^{e+1} truncated
    after x^e.  Clearing denominators yields a fully factored result.
    The roots come from ``characteristic_roots``, which raises
    UnsupportedRootsError unless all of them are rational and nonzero.

    The result is proper: with no root 0, D has degree d, so the
    denominator has degree d + e + 1 and the numerator degree at most d + e
    (for a zero right-hand side, d and at most d - 1).
    """
    d = rec.order
    factors = list(characteristic_roots(rec).items())

    # N_init is D(x) (a_0 + ... + a_(d-1) x^(d-1)) cut after x^(d-1), and
    # D(x) = sum_k c_k x^(d-k) is the stored (c_d, ..., c_0) read ascending.
    product = Polynomial(rec.coefficients) * Polynomial(rec.initial_conditions)
    init_poly = Polynomial(product.coefficients[:d])

    rhs = rec.rhs
    if rhs.is_zero:
        return RationalFunction(init_poly, tuple(factors))

    degree = rhs.degree
    one_minus_x = Polynomial((1, -1))
    head = Polynomial(rhs.evaluate(n) for n in range(degree + 1)) * one_minus_x ** (degree + 1)
    forcing = Polynomial(head.coefficients[: degree + 1])
    numerator = Polynomial.monomial(d) * forcing + init_poly * one_minus_x ** (degree + 1)
    factors.append((Fraction(1), degree + 1))
    return RationalFunction(numerator, tuple(factors))


def partial_fractions(rf: RationalFunction) -> tuple[tuple[Rational, int, Rational], ...]:
    """The terms (root, power, coeff) of rf = sum coeff/(1 - root x)^power.

    ``rf`` must be proper (numerator degree below the denominator's); an
    improper one raises ValueError.  Each factor (r, p) is expanded
    locally.  The substitution x = (1 - y)/r turns (1 - r x) into y and
    every other factor (1 - s x) into ((r - s)/r) (1 - (s/(s - r)) y), so
    rf becomes g(y)/y^p with g = numerator((1 - y)/r) / scale over factors
    (1 - (s/(s - r)) y), analytic at y = 0.  Its first p series
    coefficients g_0 .. g_(p-1) are the coefficients of 1/(1 - r x)^p down
    to 1/(1 - r x).  s -> s/(s - r) is injective and never 0, so the new
    factors stay distinct.  The terms are sorted by (root, power), with
    zero coefficients dropped.
    """
    numerator = rf.numerator
    if not numerator.is_zero and numerator.degree >= rf.denominator_degree:
        raise ValueError(
            f"need a proper rational function, got numerator degree {numerator.degree} "
            f"over denominator degree {rf.denominator_degree}"
        )

    terms = []
    for root, power in rf.denominator_factors:
        step = -1 / root
        at_root = Polynomial(c * step**i for i, c in enumerate(numerator.coefficients))
        scale = Fraction(1)
        others = []
        for other, other_power in rf.denominator_factors:
            if other != root:
                scale *= ((root - other) / root) ** other_power
                others.append((other / (other - root), other_power))
        local = RationalFunction(at_root.compose_shift(-1) * (1 / scale), tuple(others))
        coeffs = local.series(power)[::-1]  # of 1/(1 - r x)^1 .. 1/(1 - r x)^p
        terms.extend((root, k, coeff) for k, coeff in enumerate(coeffs, 1) if coeff)
    return tuple(terms)


def extract_coefficient_formula(terms: tuple[tuple[Rational, int, Rational], ...]) -> ClosedForm:
    """Closed form for the series coefficients of partial-fraction terms.

    Each term (r, p, coeff), standing for coeff/(1 - r x)^p, contributes
    coeff * C(n+p-1, p-1) * r^n.  The polynomials rising[k] = C(n+k, k) in
    n are built once, each from the one before as rising[k-1] * (n+k)/k,
    so a pole of order p costs O(p^2) and not O(p^3).  ClosedForm sums
    the terms sharing a root into one polynomial per root.
    """
    rising = [Polynomial.one()]
    summands = []
    for root, power, coeff in terms:
        for k in range(len(rising), power):
            rising.append(rising[-1] * Polynomial((1, Fraction(1, k))))
        summands.append((root, coeff * rising[power - 1]))
    return ClosedForm(terms=tuple(summands), method="genfunc")
