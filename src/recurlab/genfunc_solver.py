"""Closed forms via ordinary generating functions.

Independent second route to the same answers as the characteristic-
polynomial solver:

1. ``build_ogf`` turns a recurrence into the rational function
   f(x) = sum a_n x^n, as the pair (numerator, {root: power}) standing
   for numerator(x) / prod (1 - root x)^power.  Multiplying the
   recurrence by x^{n+d} and summing over n gives f(x) * D(x) = N(x),
   where D(x) = x^d chi(1/x) factors as prod (1 - r_i x)^{m_i} over the
   characteristic roots, and N collects the initial conditions plus the
   transformed right-hand side.
2. ``partial_fractions`` decomposes the proper f into the terms
   (r, k, coeff) of sum coeff / (1 - r x)^k by local expansion at each
   root: the substitution x = (1 - y)/r turns the factor (1 - r x) into
   y, and the series in y of what is left gives the coefficients of that
   root's terms.  No linear system is solved.
3. ``extract_coefficient_formula`` reads coefficients off each term with
   [x^n] 1/(1 - r x)^k = C(n + k - 1, k - 1) r^n, yielding a ClosedForm
   tagged "genfunc".

``ogf_series`` provides the ground truth the decomposition is checked
against: exact power-series coefficients straight from a (numerator,
factors) pair.  ``partial_fractions`` reads each local expansion off it.

The route shares no solver with the characteristic-polynomial route.  It
does share ``characteristic_roots``: both routes factor chi with the same
root finder, so both accept exactly the recurrences whose characteristic
roots are all rational and nonzero.
"""

from __future__ import annotations

from fractions import Fraction

from .core_numeric import Polynomial, Rational, as_rational
from .difference_engine import LinearRecurrence
from .recurrence_solver import ClosedForm, characteristic_roots


def ogf_series(numerator: Polynomial, factors: dict[Rational, int], depth: int) -> list[Rational]:
    """First ``depth`` power-series coefficients of numerator / prod (1 - r x)^p.

    ``factors`` maps each root r to its power p.  The expanded denominator
    has constant term 1, so solving numerator = series * denominator
    coefficient by coefficient needs a subtraction per step, no division.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    denominator = Polynomial.one()
    for root, power in factors.items():
        denominator = denominator * Polynomial((1, -root)) ** power
    den = denominator.coefficients
    out: list[Rational] = []
    for n in range(depth):
        value = numerator.coefficient(n)
        for k in range(1, min(n, len(den) - 1) + 1):
            value -= den[k] * out[n - k]
        out.append(value)
    return out


def build_ogf(rec: LinearRecurrence) -> tuple[Polynomial, dict[Rational, int]]:
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

    Returns (numerator, factors): ``factors`` is ``characteristic_roots``'
    ascending {root: multiplicity} dict, with the power of root 1 raised by
    e + 1.  ``characteristic_roots`` raises UnsupportedRootsError unless
    every root is rational and nonzero.  The result is proper: the
    denominator has degree d + e + 1 and the numerator degree at most
    d + e (for a zero right-hand side, d and at most d - 1).
    """
    d = rec.order
    factors = characteristic_roots(rec)

    # N_init is D(x) (a_0 + ... + a_(d-1) x^(d-1)) cut after x^(d-1), and
    # D(x) = sum_k c_k x^(d-k) is the stored (c_d, ..., c_0) read ascending.
    product = Polynomial(rec.coefficients) * Polynomial(rec.initial_conditions)
    init_poly = Polynomial(product.coefficients[:d])

    rhs = rec.rhs
    if rhs.is_zero:
        return init_poly, factors

    degree = rhs.degree
    one_minus_x = Polynomial((1, -1))
    head = Polynomial(rhs.evaluate(n) for n in range(degree + 1)) * one_minus_x ** (degree + 1)
    forcing = Polynomial(head.coefficients[: degree + 1])
    numerator = Polynomial.monomial(d) * forcing + init_poly * one_minus_x ** (degree + 1)
    factors[Fraction(1)] = factors.get(1, 0) + degree + 1
    return numerator, dict(sorted(factors.items()))


def partial_fractions(
    ogf: tuple[Polynomial, dict[Rational, int]],
) -> tuple[tuple[Rational, int, Rational], ...]:
    """The terms (root, power, coeff) of f = sum coeff/(1 - root x)^power.

    ``ogf`` is a (numerator, {r: p}) pair as ``build_ogf`` returns it, with
    nonzero roots r, each an ``int`` or a ``Fraction``.  f must be proper
    (numerator degree below the denominator's); an improper one raises
    ValueError.  Each factor (r, p) is expanded locally.  The substitution x = (1 - y)/r turns (1 - r x)
    into y and every other factor (1 - s x) into ((r - s)/r) (1 - (s/(s -
    r)) y), so f becomes g(y)/y^p with g = numerator((1 - y)/r) / scale
    over factors (1 - (s/(s - r)) y), analytic at y = 0.  Its first p
    series coefficients g_0 .. g_(p-1), read off ``ogf_series``, are the
    coefficients of 1/(1 - r x)^p down to 1/(1 - r x).  s -> s/(s - r) is
    injective and never 0, so the new factors stay distinct.  The terms
    follow the order of the factors, each root's powers ascending, with
    zero coefficients dropped.
    """
    numerator, factors = ogf
    factors = {as_rational(root): power for root, power in factors.items()}
    degree = sum(factors.values())
    if not numerator.is_zero and numerator.degree >= degree:
        raise ValueError(
            f"need a proper rational function, got numerator degree {numerator.degree} "
            f"over denominator degree {degree}"
        )

    terms = []
    for root, power in factors.items():
        step = -1 / root
        at_root = Polynomial(c * step**i for i, c in enumerate(numerator.coefficients))
        scale = Fraction(1)
        others = {}
        for other, other_power in factors.items():
            if other != root:
                scale *= ((root - other) / root) ** other_power
                others[other / (other - root)] = other_power
        local = at_root.compose_shift(-1) * (1 / scale)
        coeffs = ogf_series(local, others, power)[::-1]  # of 1/(1 - r x)^1 .. 1/(1 - r x)^p
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
