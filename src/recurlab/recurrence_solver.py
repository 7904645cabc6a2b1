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
4. Fit the homogeneous coefficients to the initial conditions by
   fraction-free (Bareiss) elimination in integers, in the binomial basis
   C(n, j) r^n (Newton's forward-difference form, the basis of Moser's
   1 + C(m, 2) + C(m, 4)) rather than n^j r^n.  For each root both bases
   span the same functions, through an invertible triangular change of
   basis, so the system stays nonsingular and the closed form is the same;
   for chi = (r - 1)^d, the only shape a difference table infers, the
   matrix is Pascal's lower unitriangular one and its minors stay small.

``solve_charpoly`` returns a ``ClosedForm`` in n; ``to_moser_variable``
turns a polynomial one into the plain ``Polynomial`` in m = n + 1, which
for the region counts is Moser's polynomial.

Only recurrences whose characteristic roots are all rational and nonzero
are solvable here; anything else raises UnsupportedRootsError naming the
obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core_numeric import (
    Polynomial,
    Rational,
    RationalLike,
    as_rational,
    binomial,
    clear_denominators,
    format_polynomial,
)
from .difference_engine import LinearRecurrence
from .errors import SingularMatrixError, UnsupportedRootsError


@dataclass(frozen=True)
class ClosedForm:
    """An exponential-polynomial closed form sum_i p_i(n) * r_i^n.

    ``terms`` pairs each root with its polynomial coefficient.  Entries
    sharing a root are summed into one, zero polynomials are dropped and
    roots are sorted, so two closed forms describe the same function
    exactly when their terms are equal.  The variable is the 0-based
    sequence index n.  ``method`` tags which solver produced it
    ("charpoly" or "genfunc").
    """

    terms: tuple[tuple[Rational, Polynomial], ...]
    method: str

    def __post_init__(self):
        merged: dict[Rational, Polynomial] = {}
        for root, poly in self.terms:
            root = as_rational(root)
            merged[root] = merged[root] + poly if root in merged else poly
        terms = tuple((root, poly) for root, poly in sorted(merged.items()) if not poly.is_zero)
        object.__setattr__(self, "terms", terms)

    def evaluate(self, n: int) -> Rational:
        """Exact value at sequence index n >= 0."""
        if n < 0:
            raise ValueError(f"index must be >= 0, got {n}")
        total = Fraction(0)
        for root, poly in self.terms:
            total += poly.evaluate(n) * root**n
        return total

    def agrees_with(self, other: "ClosedForm") -> bool:
        """True when both describe the same function of n."""
        return self.terms == other.terms

    def polynomial_form(self) -> Polynomial | None:
        """The closed form as a plain polynomial, or None if any root != 1."""
        if not self.terms:
            return Polynomial.zero()
        if len(self.terms) == 1 and self.terms[0][0] == 1:
            return self.terms[0][1]
        return None

    def describe(self) -> str:
        """Human-readable formula in n."""
        if not self.terms:
            return "0"
        pieces = []
        for root, poly in self.terms:
            body = format_polynomial(poly)
            if root == 1:
                pieces.append(body)
            else:
                base = f"({root})" if root < 0 or root.denominator != 1 else str(root)
                factor = f"{base}^n"
                pieces.append(factor if body == "1" else f"({body}) * {factor}")
        # Only a root-1 polynomial can lead with a sign; join it by that sign.
        text = pieces[0]
        for piece in pieces[1:]:
            text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return text


def characteristic_polynomial(rec: LinearRecurrence) -> Polynomial:
    """chi(r) = sum_{k=0..d} c_k r^k, monic of degree d.

    The recurrence stores (c_d, ..., c_0); reversing gives the ascending
    coefficients of chi.  Example: coefficients (1, -4, 6, -4, 1) give
    r^4 - 4r^3 + 6r^2 - 4r + 1.
    """
    return Polynomial(tuple(reversed(rec.coefficients)))


def characteristic_roots(rec: LinearRecurrence) -> dict[Rational, int]:
    """chi's roots as {root: multiplicity}, in ascending order.

    Both solver routes start here, so they share one domain: every root
    rational and nonzero.  A residual with no rational roots, or a root 0,
    raises UnsupportedRootsError naming the obstruction.
    """
    roots, residual = rational_roots(characteristic_polynomial(rec))
    if residual.degree >= 1:
        raise UnsupportedRootsError(
            "characteristic polynomial has an unfactored part with no rational "
            f"roots: {format_polynomial(residual, 'r')}",
            residual=residual,
        )
    if 0 in roots:
        raise UnsupportedRootsError(
            "characteristic root 0 (vanishing trailing coefficient): the "
            "recurrence is degenerate and has no exponential-polynomial basis",
            residual=Polynomial((0, 1)),
        )
    return roots


def _divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return sorted({*small, *(n // i for i in small)})


def _deflate(ints: list[int], p: int, q: int) -> list[int]:
    """``ints`` (ascending) divided by (q x - p), integral by Gauss's lemma."""
    out = [ints[-1] // q]
    for c in reversed(ints[1:-1]):
        out.append((c + p * out[-1]) // q)
    return out[::-1]


def rational_roots(poly: Polynomial) -> tuple[dict[Rational, int], Polynomial]:
    """All rational roots as {root: multiplicity}, plus the unfactored residual.

    Uses the rational-root theorem on the primitive integer form of the
    polynomial: every rational root p/q (lowest terms) has p dividing the
    constant term and q dividing the leading coefficient.  A candidate is a
    root when sum c_i p^i q^(d-i) = 0, and each root is divided out
    repeatedly as (q x - p) in integers, so multiplicities are exact.  The
    residual, the input over (x - r) for each root r counted, has no
    rational roots; a residual of degree >= 1 means the input does not
    factor completely over Q.

    The roots are listed in ascending order.  Multiplicities plus the
    residual degree always account for the full degree of the input.
    """
    if poly.is_zero:
        raise ValueError("cannot extract roots of the zero polynomial")
    ints, denominator = poly.integer_form
    zero_mult = next(i for i, c in enumerate(ints) if c)
    content = math.gcd(*ints)
    work = [c // content for c in ints[zero_mult:]]
    lost = content  # dividing by q x - p, not x - p/q, leaves out a q each time
    roots = {Fraction(0): zero_mult} if zero_mult else {}

    pairs = []
    if len(work) >= 2:
        pairs = [(p, q) for p in _divisors(abs(work[0])) for q in _divisors(abs(work[-1]))]
    for candidate in sorted({sign * Fraction(p, q) for p, q in pairs for sign in (1, -1)}):
        p, q = candidate.numerator, candidate.denominator
        multiplicity = 0
        while len(work) >= 2:
            acc, scale = 0, 1
            for c in reversed(work):
                acc, scale = acc * p + c * scale, scale * q
            if acc:
                break
            work = _deflate(work, p, q)
            lost *= q
            multiplicity += 1
        if multiplicity:
            roots[candidate] = multiplicity

    return dict(sorted(roots.items())), Polynomial(Fraction(c * lost, denominator) for c in work)


def gaussian_solve(rows: list[list[RationalLike]], rhs: list[RationalLike]) -> list[Rational]:
    """Solve a square exact linear system by fraction-free elimination.

    ``rows`` lists the matrix's rows of ``int``s or ``Fraction``s.  The
    right-hand side is scaled once by its common denominator R, so the
    system solves for R x, and each matrix row by the lcm of its own
    denominators, so an integer row stays as it is.  The augmented rows are
    eliminated by Bareiss's rule: each update is divided exactly by the
    previous pivot, since by Sylvester's identity every entry is a minor.
    Pivoting picks the first row with a nonzero entry in the current column.
    When a pivot equals the previous one, the update of a column where the
    pivot row holds 0 is (pivot * x - factor * 0) // pivot = x, so only the
    pivot row's nonzero columns are updated: the same integers, with less
    work.  Every pivot of an integer unit lower-triangular system (Pascal's,
    as ``solve_charpoly`` builds on the root 1) is 1, and its pivot row is
    0 past the diagonal, so elimination there costs O(n^2), not O(n^3),
    whatever the right-hand side's denominators.  The last pivot D is the
    determinant, so by Cramer's rule each D R x_i is an integer:
    back-substitution finds them by exact division, and ``Fraction``
    appears once per unknown.  Raises SingularMatrixError
    (carrying the achieved rank) when the system has no unique solution.
    """
    n = len(rows)
    widths = {len(row) for row in rows}
    if widths != {n}:
        raise ValueError(f"need a square system, got {n} rows of lengths {sorted(widths)}")
    if len(rhs) != n:
        raise ValueError(f"right-hand side length {len(rhs)} != {n}")

    targets, common = clear_denominators(tuple(map(as_rational, rhs)))
    aug = []
    for row, b in zip(rows, targets):
        if not all(isinstance(x, (int, Fraction)) for x in row):
            raise TypeError("matrix entries must be Fraction or int")
        ints, scale = clear_denominators(row)
        aug.append([*ints, b * scale])
    rank, previous = 0, 1
    for col in range(n):
        pivot_row = next((r for r in range(rank, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        top = aug[rank]
        pivot = top[col]
        columns = range(col + 1, n + 1)
        if pivot == previous:
            columns = [c for c in columns if top[c]]
        for r in range(rank + 1, n):
            row = aug[r]
            factor = row[col]
            # Entries at or left of col are never read again; not cleared.
            for c in columns:
                row[c] = (pivot * row[c] - factor * top[c]) // previous
        previous = pivot
        rank += 1
    if rank < n:
        raise SingularMatrixError(
            f"system is singular (rank {rank} of {n}); no unique solution", rank=rank
        )

    scaled = [0] * n  # previous * common * x_i
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = previous * row[n] - sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = acc // row[i]
    return [Fraction(v, previous * common) for v in scaled]


def particular_solution(rec: LinearRecurrence, roots: dict[Rational, int]) -> Polynomial:
    """Particular solution for a polynomial right-hand side.

    With s the multiplicity of the characteristic root 1 and e the degree
    of the right-hand side, the ansatz is p(n) = n^s * q(n) with deg q = e:
    the extra n^s absorbs the resonance where plain polynomial ansatzes are
    annihilated.  With the power moments mu_t = sum_k c_k k^t, the operator
    maps n^j to sum_t C(j, t) mu_t n^(j-t), and mu_t = 0 for t < s exactly
    when (r - 1)^s divides chi.  So n^(s+i) maps to a polynomial of degree
    i with leading coefficient C(s+i, i) mu_s, and matching coefficients
    from the top down gives each coefficient of q by back-substitution:

        a_q = (rhs_q - sum_{i>q} a_i C(s+i, q) mu_(s+i-q)) / (C(s+q, q) mu_s)

    A zero right-hand side returns 0.
    """
    rhs = rec.rhs
    shift = roots.get(1, 0)
    if rhs.is_zero:
        return Polynomial.zero()

    degree = rhs.degree
    # c_0 .. c_d as integers over L: the moments of L * c give amplitudes / L.
    ascending, scale = clear_denominators(tuple(reversed(rec.coefficients)))
    mu = [sum(c_k * k**t for k, c_k in enumerate(ascending)) for t in range(shift + degree + 1)]
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
    return Polynomial((0,) * shift + tuple(amplitudes)) * scale


def _binomial_basis_polynomial(amplitudes: list[Rational]) -> Polynomial:
    """The polynomial sum_j a_j C(n, j) for amplitudes a_0 .. a_(k-1).

    With K = (k-1)!, each K C(n, j) = (K / j!) n(n-1)...(n-j+1) is an
    integer polynomial: the falling factorial's coefficients are the signed
    Stirling numbers of the first kind, built one factor (n - j) at a time.
    The sum is then integers over the one denominator K times the
    amplitudes' common denominator.
    """
    scaled, den = clear_denominators(tuple(amplitudes))
    top = math.factorial(len(scaled) - 1)
    num = [0] * len(scaled)
    falling = [1]  # n(n-1)...(n-j+1), ascending
    for j, a in enumerate(scaled):
        weight = a * (top // math.factorial(j))
        for i, c in enumerate(falling):
            num[i] += weight * c
        falling = [b - j * c for b, c in zip([0, *falling], [*falling, 0])]
    return Polynomial._make(num, den * top)


def solve_charpoly(rec: LinearRecurrence) -> ClosedForm:
    """Exact closed form by the characteristic-polynomial route.

    Requires every characteristic root to be rational and nonzero.  The
    homogeneous basis {C(n, j) r^n} is completed with the particular
    solution, and the basis amplitudes are fitted to the initial conditions
    by exact elimination.  For each root, C(n, j) is n^j / j! plus lower
    powers, so this basis and the generalized Vandermonde basis {n^j r^n}
    differ by an invertible triangular matrix: the system is never singular
    for distinct nonzero roots.  On the root 1 the matrix is Pascal's
    triangle, whose minors stay small where those of n^j grow.
    """
    roots = characteristic_roots(rec)
    particular = particular_solution(rec, roots)
    d = rec.order
    basis = [(root, j) for root, multiplicity in roots.items() for j in range(multiplicity)]
    assert len(basis) == d, "root multiplicities must sum to the order"

    # Row n is scaled by scale^n, which keeps the solution and makes every
    # entry C(n, j) * (scale * root)^n an integer.
    scaled_roots, scale = clear_denominators(tuple(root for root, _ in basis))
    rows = []
    target = []
    for n in range(d):
        rows.append([math.comb(n, j) * r**n for r, (_, j) in zip(scaled_roots, basis)])
        target.append((rec.initial_conditions[n] - particular.evaluate(n)) * scale**n)
    try:
        amplitudes = gaussian_solve(rows, target)
    except SingularMatrixError as exc:  # fundamental system: cannot happen
        raise AssertionError("initial-condition system cannot be singular") from exc

    # Each root's amplitudes, ascending in j, weigh C(n, j); the particular
    # solution belongs to root 1, and ClosedForm adds it to that root's
    # polynomial.
    terms, start = [(Fraction(1), particular)], 0
    for root, multiplicity in roots.items():
        poly = _binomial_basis_polynomial(amplitudes[start : start + multiplicity])
        terms.append((root, poly))
        start += multiplicity
    return ClosedForm(terms=tuple(terms), method="charpoly")


def to_moser_variable(form: ClosedForm) -> Polynomial:
    """A purely polynomial closed form as the polynomial in m = n + 1.

    The corpus sequences index regions by the number of circle points m,
    while solvers work in the 0-based index n = m - 1; substituting
    n = m - 1 gives the conventional presentation, Moser's polynomial for
    the region counts.  Raises ValueError for forms with any root other
    than 1 (the substitution only makes sense for polynomials).
    """
    poly = form.polynomial_form()
    if poly is None:
        raise ValueError("closed form is not purely polynomial; cannot shift variable")
    return poly.compose_shift(-1)
