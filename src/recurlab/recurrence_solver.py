"""Closed forms via the characteristic polynomial and undetermined coefficients.

The route, entirely in exact rational arithmetic:

1. Read the characteristic polynomial chi(r) = sum c_k r^k off the
   recurrence coefficients.
2. Factor it over the rationals (rational-root theorem + synthetic
   division), keeping multiplicities.
3. Build a particular solution for the polynomial right-hand side with the
   resonance-aware ansatz n^s * q(n), where s is the multiplicity of the
   root 1.  The power moments mu_t = sum_k c_k k^t make the coefficient
   match triangular, so q comes from back-substitution, with no linear
   system.
4. Fit the homogeneous coefficients to the initial conditions by exact
   Gaussian elimination.

Only recurrences whose characteristic roots are all rational and nonzero
are solvable here; anything else raises UnsupportedRootsError naming the
obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence as SequenceABC

from .core_numeric import (
    Polynomial,
    Rational,
    RationalLike,
    as_rational,
    binomial,
    format_polynomial,
    format_rational,
)
from .difference_engine import LinearRecurrence
from .errors import SingularMatrixError, UnsupportedRootsError


@dataclass(frozen=True)
class RootMultiplicity:
    """A rational root together with its multiplicity (>= 1)."""

    root: Rational
    multiplicity: int

    def __post_init__(self):
        object.__setattr__(self, "root", as_rational(self.root))
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")


@dataclass(frozen=True)
class ExactMatrix:
    """A rectangular matrix of exact rationals."""

    rows: tuple[tuple[Rational, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_rational(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(row) != width for row in rows):
            raise ValueError("matrix rows must be non-empty and equal length")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[RationalLike]]) -> "ExactMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])


@dataclass(frozen=True)
class ClosedForm:
    """An exponential-polynomial closed form sum_i p_i(n) * r_i^n.

    ``terms`` pairs each distinct root with its polynomial coefficient;
    zero polynomials are dropped and roots are sorted, so two closed forms
    describe the same function exactly when their normalized terms match.
    ``variable_offset`` records how the formula's variable relates to the
    0-based sequence index n: the formula is written in v = n + offset.
    ``method`` tags which solver produced it ("charpoly" or "genfunc").
    """

    terms: tuple[tuple[Rational, Polynomial], ...]
    method: str
    variable_offset: int = 0

    def __post_init__(self):
        cleaned = []
        for root, poly in self.terms:
            root = as_rational(root)
            if not poly.is_zero:
                cleaned.append((root, poly))
        cleaned.sort(key=lambda item: item[0])
        object.__setattr__(self, "terms", tuple(cleaned))

    def evaluate(self, n: int) -> Rational:
        """Exact value at sequence index n >= 0 (the formula variable is n + offset)."""
        if n < 0:
            raise ValueError(f"index must be >= 0, got {n}")
        v = n + self.variable_offset
        total = Fraction(0)
        for root, poly in self.terms:
            total += poly.evaluate(v) * root**v
        return total

    def normalized_terms(self) -> dict[Rational, tuple[Rational, ...]]:
        """Map root -> ascending polynomial coefficients, for comparisons."""
        return {root: poly.coefficients for root, poly in self.terms}

    def agrees_with(self, other: "ClosedForm") -> bool:
        """True when both describe the same function of the same variable."""
        return (
            self.variable_offset == other.variable_offset
            and self.normalized_terms() == other.normalized_terms()
        )

    def polynomial_form(self) -> Polynomial | None:
        """The closed form as a plain polynomial, or None if any root != 1."""
        if not self.terms:
            return Polynomial.zero()
        if len(self.terms) == 1 and self.terms[0][0] == 1:
            return self.terms[0][1]
        return None

    def describe(self) -> str:
        """Human-readable formula in the variable implied by the offset."""
        variable = "m" if self.variable_offset == 1 else "n"
        if not self.terms:
            return "0"
        pieces = []
        for root, poly in self.terms:
            body = format_polynomial(poly, variable)
            if root == 1:
                pieces.append(body)
            else:
                base = f"({root})" if root < 0 or root.denominator != 1 else str(root)
                factor = f"{base}^{variable}"
                pieces.append(factor if body == "1" else f"({body}) * {factor}")
        return " + ".join(pieces)


def characteristic_polynomial(rec: LinearRecurrence) -> Polynomial:
    """chi(r) = sum_{k=0..d} c_k r^k, monic of degree d.

    The recurrence stores (c_d, ..., c_0); reversing gives the ascending
    coefficients of chi.  Example: coefficients (1, -4, 6, -4, 1) give
    r^4 - 4r^3 + 6r^2 - 4r + 1.
    """
    return Polynomial(tuple(reversed(rec.coefficients)))


def _divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _deflate(poly: Polynomial, root: Rational) -> Polynomial:
    """Exact synthetic division of ``poly`` by (x - root); the root must divide."""
    descending = list(reversed(poly.coefficients))
    out = [descending[0]]
    for c in descending[1:-1]:
        out.append(c + root * out[-1])
    remainder = descending[-1] + root * out[-1]
    if remainder != 0:
        raise ValueError(f"{root} is not a root; synthetic division leaves {remainder}")
    return Polynomial(tuple(reversed(out)))


def rational_roots(poly: Polynomial) -> tuple[list[RootMultiplicity], Polynomial]:
    """All rational roots with multiplicities, plus the unfactored residual.

    Uses the rational-root theorem on the primitive integer form of the
    polynomial: every rational root p/q (lowest terms) has p dividing the
    constant term and q dividing the leading coefficient.  Each candidate
    is divided out repeatedly by synthetic division, so multiplicities are
    exact.  The residual polynomial has no rational roots; a residual of
    degree >= 1 means the input does not factor completely over Q.

    Roots are returned sorted ascending.  Multiplicities plus the residual
    degree always account for the full degree of the input.
    """
    if poly.is_zero:
        raise ValueError("cannot extract roots of the zero polynomial")
    work = poly
    roots: list[RootMultiplicity] = []

    zero_mult = 0
    while not work.is_zero and work.coefficient(0) == 0:
        work = Polynomial(work.coefficients[1:])
        zero_mult += 1
    if zero_mult:
        roots.append(RootMultiplicity(Fraction(0), zero_mult))

    if work.degree >= 1:
        denom_lcm = math.lcm(*(c.denominator for c in work.coefficients))
        ints = [int(c * denom_lcm) for c in work.coefficients]
        content = math.gcd(*ints)
        constant = abs(ints[0]) // content
        leading = abs(ints[-1]) // content
        candidates = sorted(
            {
                sign * Fraction(p, q)
                for p in _divisors(constant)
                for q in _divisors(leading)
                for sign in (1, -1)
            }
        )
        for candidate in candidates:
            if work.degree < 1:
                break
            multiplicity = 0
            while work.degree >= 1 and work.evaluate(candidate) == 0:
                work = _deflate(work, candidate)
                multiplicity += 1
            if multiplicity:
                roots.append(RootMultiplicity(candidate, multiplicity))

    roots.sort(key=lambda rm: rm.root)
    return roots, work


def gaussian_solve(matrix: ExactMatrix, rhs: SequenceABC[RationalLike]) -> list[Rational]:
    """Solve a square exact linear system by elimination with exact pivots.

    Pivoting picks the first row with a nonzero entry in the current
    column — exact arithmetic needs no magnitude-based pivoting.  Raises
    SingularMatrixError (carrying the achieved rank) when the system has
    no unique solution.
    """
    n_rows, n_cols = matrix.shape
    if n_rows != n_cols:
        raise ValueError(f"need a square system, got shape {matrix.shape}")
    if len(rhs) != n_rows:
        raise ValueError(f"right-hand side length {len(rhs)} != {n_rows}")

    n = n_rows
    aug = [list(row) + [as_rational(rhs[i])] for i, row in enumerate(matrix.rows)]
    rank = 0
    for col in range(n):
        pivot_row = next((r for r in range(rank, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        pivot = aug[rank][col]
        for r in range(rank + 1, n):
            factor = aug[r][col] / pivot
            if factor:
                for c in range(col, n + 1):
                    aug[r][c] -= factor * aug[rank][c]
        rank += 1
    if rank < n:
        raise SingularMatrixError(
            f"system is singular (rank {rank} of {n}); no unique solution", rank=rank
        )

    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc -= aug[i][j] * solution[j]
        solution[i] = acc / aug[i][i]
    return solution


def particular_solution(
    rec: LinearRecurrence, roots: SequenceABC[RootMultiplicity]
) -> tuple[Polynomial, int]:
    """Particular solution for a polynomial right-hand side, with its shift.

    With s the multiplicity of the characteristic root 1 and e the degree
    of the right-hand side, the ansatz is p(n) = n^s * q(n) with deg q = e:
    the extra n^s absorbs the resonance where plain polynomial ansatzes are
    annihilated.  With the power moments mu_t = sum_k c_k k^t, the operator
    maps n^j to sum_t C(j, t) mu_t n^(j-t), and mu_t = 0 for t < s exactly
    when (r - 1)^s divides chi.  So n^(s+i) maps to a polynomial of degree
    i with leading coefficient C(s+i, i) mu_s, and matching coefficients
    from the top down gives each coefficient of q by back-substitution:

        a_q = (rhs_q - sum_{i>q} a_i C(s+i, q) mu_(s+i-q)) / (C(s+q, q) mu_s)

    Returns (p, s).  A zero right-hand side returns (0, s).
    """
    rhs = rec.rhs
    shift = next((rm.multiplicity for rm in roots if rm.root == 1), 0)
    if rhs.is_zero:
        return Polynomial.zero(), shift

    degree = rhs.degree
    ascending = tuple(reversed(rec.coefficients))  # c_0 .. c_d
    mu = [
        sum(c_k * k**t for k, c_k in enumerate(ascending))
        for t in range(shift + degree + 1)
    ]
    # mu_0 .. mu_(s-1) vanish and mu_s does not exactly when 1 is a root of
    # multiplicity s; anything else means the roots misstate it.
    assert not any(mu[:shift]) and mu[shift], "roots misstate the multiplicity of root 1"

    amplitudes = [Fraction(0)] * (degree + 1)
    for q in range(degree, -1, -1):
        acc = rhs.coefficients[q] - sum(
            amplitudes[i] * binomial(shift + i, q) * mu[shift + i - q]
            for i in range(q + 1, degree + 1)
        )
        amplitudes[q] = acc / (binomial(shift + q, q) * mu[shift])
    return Polynomial((0,) * shift + tuple(amplitudes)), shift


def solve_charpoly(rec: LinearRecurrence) -> ClosedForm:
    """Exact closed form by the characteristic-polynomial route.

    Requires every characteristic root to be rational and nonzero.  The
    homogeneous basis {n^j r^n} is completed with the particular solution,
    and the basis amplitudes are fitted to the initial conditions by exact
    elimination (that system is a generalized Vandermonde matrix and is
    never singular for distinct nonzero roots).
    """
    chi = characteristic_polynomial(rec)
    roots, residual = rational_roots(chi)
    if residual.degree >= 1:
        raise UnsupportedRootsError(
            "characteristic polynomial has an unfactored part with no rational "
            f"roots: {format_polynomial(residual, 'r')}",
            residual=residual,
        )
    for rm in roots:
        if rm.root == 0:
            raise UnsupportedRootsError(
                "characteristic root 0 (vanishing trailing coefficient): the "
                "recurrence is degenerate and has no exponential-polynomial basis",
                residual=Polynomial((0, 1)),
            )

    particular, _ = particular_solution(rec, roots)
    d = rec.order
    basis = [(rm.root, j) for rm in roots for j in range(rm.multiplicity)]
    assert len(basis) == d, "root multiplicities must sum to the order"

    rows = []
    target = []
    for n in range(d):
        point = Fraction(n)
        rows.append([point**j * root**n for root, j in basis])
        target.append(rec.initial_conditions[n] - particular.evaluate(n))
    try:
        amplitudes = gaussian_solve(ExactMatrix.from_rows(rows), target)
    except SingularMatrixError as exc:  # fundamental system: cannot happen
        raise AssertionError("initial-condition system cannot be singular") from exc

    # Each root's amplitudes, ascending in j, are its polynomial's
    # coefficients; the particular solution belongs to root 1.
    polys = {Fraction(1): particular}
    start = 0
    for rm in roots:
        stop = start + rm.multiplicity
        polys[rm.root] = Polynomial(amplitudes[start:stop]) + polys.get(rm.root, Polynomial.zero())
        start = stop
    return ClosedForm(terms=tuple(polys.items()), method="charpoly")


def to_moser_variable(form: ClosedForm) -> ClosedForm:
    """Rewrite a purely polynomial closed form from index n to m = n + 1.

    The corpus sequences index regions by the number of circle points m,
    while solvers work in the 0-based index n = m - 1; substituting
    n = m - 1 gives the conventional presentation.  Raises ValueError for
    forms with any root other than 1 (the substitution only makes sense
    for polynomials).
    """
    poly = form.polynomial_form()
    if poly is None:
        raise ValueError("closed form is not purely polynomial; cannot shift variable")
    shifted = poly.compose_shift(-1)
    return ClosedForm(
        terms=((Fraction(1), shifted),),
        method=form.method,
        variable_offset=form.variable_offset + 1,
    )
