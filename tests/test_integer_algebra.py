"""The integer algebra against the ``Fraction`` versions it replaced.

``_reference_build_difference_table``, ``_reference_gaussian_solve``,
``_ReferencePolynomial``, ``_reference_binomial_rising`` and
``_reference_rational_roots`` (with its ``_reference_divisors`` and
``_reference_deflate``) are the earlier implementations, copied verbatim
apart from their names, the reference table returning
``(rows, constant_depth)`` in place of a ``DifferenceTable`` and reading a
plain tuple of terms, the reference root finder returning
``(root, multiplicity)`` pairs in place of a record class, the reference
elimination taking the row lists that replaced ``ExactMatrix``, and the
reference polynomial leaving out ``__str__`` and ``__divmod__`` (the
library's ``Polynomial`` no longer divides).  They work in ``Fraction``
cells, so they share no integer scaling, gcd normalisation, pivot division
or Taylor shift with the code under test.
"""

import math
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    Polynomial,
    Rational,
    SingularMatrixError,
    binomial_rising,
    build_difference_table,
    gaussian_solve,
    infer_recurrence,
    predict_next,
    rational_roots,
)
from recurlab.core_numeric import RationalLike, as_rational, clear_denominators


def _reference_is_constant(row):
    """Constancy certified only with >= 2 entries; a single entry never counts."""
    return len(row) >= 2 and all(entry == row[0] for entry in row)


def _reference_build_difference_table(seq, max_depth=None):
    """Difference the sequence until a row is certified constant.

    Stops at the first constant row, at ``max_depth``, or when the next row
    would be empty — whichever comes first.  ``max_depth`` defaults to
    ``len(seq) - 2``, the deepest row that can still hold two entries.

    Examples::

        (1, 2, 4, 8, 16, 31) -> rows down to (1, 1), constant_depth 4
        (5, 5, 5, 5)         -> constant_depth 0
        (1, 2, 4, 8, 16)     -> constant_depth None (no certified row)
    """
    if len(seq) < 2:
        raise ValueError(f"need at least 2 terms to difference, got {len(seq)}")
    if max_depth is None:
        max_depth = max(1, len(seq) - 2)
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")

    rows = [tuple(seq)]
    depth = 0 if _reference_is_constant(rows[0]) else None
    while depth is None and len(rows) - 1 < max_depth and len(rows[-1]) >= 2:
        current = rows[-1]
        nxt = tuple(current[i + 1] - current[i] for i in range(len(current) - 1))
        rows.append(nxt)
        if _reference_is_constant(nxt):
            depth = len(rows) - 1
    return tuple(rows), depth


def _reference_gaussian_solve(rows, rhs):
    """Solve a square exact linear system by elimination with exact pivots.

    Pivoting picks the first row with a nonzero entry in the current
    column — exact arithmetic needs no magnitude-based pivoting.  Raises
    SingularMatrixError (carrying the achieved rank) when the system has
    no unique solution.
    """
    shape = (len(rows), len(rows[0]))
    n_rows, n_cols = shape
    if n_rows != n_cols:
        raise ValueError(f"need a square system, got shape {shape}")
    if len(rhs) != n_rows:
        raise ValueError(f"right-hand side length {len(rhs)} != {n_rows}")

    n = n_rows
    aug = [[as_rational(x) for x in row] + [as_rational(rhs[i])] for i, row in enumerate(rows)]
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


class _ReferencePolynomial:
    """Immutable dense univariate polynomial over ``Rational``.

    Coefficients are stored ascending (index i holds the coefficient of
    x^i) with trailing zeros stripped, so equal polynomials have equal
    coefficient tuples.  The zero polynomial stores no coefficients and
    has no degree.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "_ReferencePolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "_ReferencePolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, value: RationalLike) -> "_ReferencePolynomial":
        return cls((as_rational(value),))

    @classmethod
    def monomial(cls, degree: int, coefficient: RationalLike = 1) -> "_ReferencePolynomial":
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        return cls((0,) * degree + (as_rational(coefficient),))

    # -- structure ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Rational, ...]:
        """Ascending coefficient tuple, trailing zeros stripped."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree as an int; raises ValueError on the zero polynomial."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int) -> Rational:
        """Coefficient of x^i (0 beyond the stored degree)."""
        if i < 0:
            raise ValueError(f"coefficient index must be >= 0, got {i}")
        return self._coeffs[i] if i < len(self._coeffs) else Fraction(0)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "_ReferencePolynomial") -> "_ReferencePolynomial":
        if not isinstance(other, _ReferencePolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return _ReferencePolynomial(merged)

    def __neg__(self) -> "_ReferencePolynomial":
        return _ReferencePolynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "_ReferencePolynomial") -> "_ReferencePolynomial":
        if not isinstance(other, _ReferencePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "_ReferencePolynomial":
        if isinstance(other, _ReferencePolynomial):
            if self.is_zero or other.is_zero:
                return _ReferencePolynomial.zero()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return _ReferencePolynomial(out)
        if isinstance(other, (Fraction, int)):
            scalar = as_rational(other)
            return _ReferencePolynomial(tuple(c * scalar for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "_ReferencePolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be an int >= 0, got {exponent}")
        result = _ReferencePolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- evaluation and composition -----------------------------------

    def evaluate(self, value: RationalLike) -> Rational:
        """Evaluate at an exact point by Horner's rule."""
        point = as_rational(value)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def compose_shift(self, shift: RationalLike) -> "_ReferencePolynomial":
        """The polynomial q with q(x) = self(x + shift).

        Horner's rule applied with the linear polynomial (x + shift) in
        place of the evaluation point, so the result is exact and costs
        O(degree^2) coefficient operations.
        """
        step = _ReferencePolynomial((as_rational(shift), 1))
        acc = _ReferencePolynomial.zero()
        for c in reversed(self._coeffs):
            acc = acc * step + _ReferencePolynomial.constant(c)
        return acc

    # -- comparisons / hashing / display -------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _ReferencePolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"_ReferencePolynomial({list(self._coeffs)!r})"


def _reference_binomial_rising(r: int) -> "_ReferencePolynomial":
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
    poly = _ReferencePolynomial.one()
    for j in range(1, r + 1):
        poly = poly * _ReferencePolynomial((j, 1))
    return poly * Fraction(1, math.factorial(r))


def _reference_divisors(n: int) -> list[int]:
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


def _reference_deflate(poly: _ReferencePolynomial, root: Rational) -> _ReferencePolynomial:
    """Exact synthetic division of ``poly`` by (x - root); the root must divide."""
    descending = list(reversed(poly.coefficients))
    out = [descending[0]]
    for c in descending[1:-1]:
        out.append(c + root * out[-1])
    remainder = descending[-1] + root * out[-1]
    if remainder != 0:
        raise ValueError(f"{root} is not a root; synthetic division leaves {remainder}")
    return _ReferencePolynomial(tuple(reversed(out)))


def _reference_rational_roots(
    poly: _ReferencePolynomial,
) -> tuple[list[tuple[Rational, int]], _ReferencePolynomial]:
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
    roots: list[tuple[Rational, int]] = []

    zero_mult = 0
    while not work.is_zero and work.coefficient(0) == 0:
        work = _ReferencePolynomial(work.coefficients[1:])
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))

    if work.degree >= 1:
        ints, _ = clear_denominators(work.coefficients)
        content = math.gcd(*ints)
        constant = abs(ints[0]) // content
        leading = abs(ints[-1]) // content
        candidates = sorted(
            {
                sign * Fraction(p, q)
                for p in _reference_divisors(constant)
                for q in _reference_divisors(leading)
                for sign in (1, -1)
            }
        )
        for candidate in candidates:
            if work.degree < 1:
                break
            multiplicity = 0
            while work.degree >= 1 and work.evaluate(candidate) == 0:
                work = _reference_deflate(work, candidate)
                multiplicity += 1
            if multiplicity:
                roots.append((candidate, multiplicity))

    roots.sort(key=lambda rm: rm[0])
    return roots, work


# Mixed-sign rationals; integers are the denominator-1 case.
integers = st.builds(Fraction, st.integers(-60, 60))
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
scalars = st.one_of(integers, rationals)


@st.composite
def sequences(draw):
    """Raw term lists (rarely certify a row) or polynomial values (always do)."""
    if draw(st.booleans()):
        terms = draw(st.lists(draw(st.sampled_from([integers, rationals])), min_size=2, max_size=12))
    else:
        poly = Polynomial(draw(st.lists(scalars, min_size=1, max_size=5)))
        length = draw(st.integers(2, 10))
        terms = [poly.evaluate(i) for i in range(length)]
    max_depth = draw(st.one_of(st.none(), st.integers(1, 12)))
    return tuple(terms), max_depth


@st.composite
def systems(draw):
    """Square systems: integer, rational, singular or needing a row swap."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["integer", "rational", "singular", "row-swap"]))
    entries = integers if kind == "integer" else scalars
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "singular":
        # A zero column, or one row a rational combination of the others.
        if n == 1 or draw(st.booleans()):
            col = draw(st.integers(0, n - 1))
            for row in rows:
                row[col] = Fraction(0)
        else:
            weights = draw(st.lists(scalars, min_size=n - 1, max_size=n - 1))
            rows[-1] = [sum(w * row[c] for w, row in zip(weights, rows)) for c in range(n)]
    elif kind == "row-swap":
        # A zero top-left pivot: elimination must swap at the first column
        # when any other row has a nonzero entry there.
        rows[0][0] = Fraction(0)
    rhs = draw(st.lists(scalars, min_size=n, max_size=n))
    return rows, rhs


@st.composite
def triangular(draw):
    """Lower-triangular systems, where the pivot row is 0 past the diagonal.

    ``binomial`` is the charpoly route's C(n, j) r^n on one root: Pascal's
    unit triangle on the root 1 (also after scaling on 1/q), pivots of
    alternating sign on -1, and growing pivots elsewhere.  ``unit`` has a
    unit diagonal, so every pivot equals the previous one; ``diagonal``
    has any diagonal, so pivots differ from the previous one and may be 0.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["binomial", "unit", "diagonal"]))
    if kind == "binomial":
        root = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]))
        rows = [[math.comb(i, j) * root**i for j in range(n)] for i in range(n)]
    else:
        rows = [[draw(scalars) if j < i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = 1 if kind == "unit" else draw(st.integers(-4, 4))
    rhs = draw(st.lists(scalars, min_size=n, max_size=n))
    return rows, rhs


def assert_solves_as_reference(matrix, rhs):
    """Same solution, or the same SingularMatrixError and rank."""
    try:
        expected = _reference_gaussian_solve(matrix, rhs)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as new:
            gaussian_solve(matrix, rhs)
        assert new.value.rank == exc.rank
        assert str(new.value) == str(exc)
    else:
        assert gaussian_solve(matrix, rhs) == expected


class TestIntegerTable:
    @given(sequences())
    @settings(max_examples=200, deadline=None)
    def test_rows_over_denominator_match_reference(self, case):
        seq, max_depth = case
        table = build_difference_table(seq, max_depth)
        ref_rows, ref_depth = _reference_build_difference_table(seq, max_depth)
        assert table.denominator == math.lcm(*(t.denominator for t in seq))
        assert all(isinstance(v, int) for row in table.rows for v in row)
        assert tuple(
            tuple(Fraction(v, table.denominator) for v in row) for row in table.rows
        ) == ref_rows
        assert table.constant_depth == ref_depth
        if ref_depth is not None:
            assert predict_next(table) == sum(row[-1] for row in ref_rows[: ref_depth + 1])
            rec = infer_recurrence(table)
            assert rec.initial_conditions == ref_rows[0][: max(ref_depth, 1)]
            assert rec.rhs == Polynomial.constant(ref_rows[ref_depth][0] if ref_depth else 0)

    def test_errors_unchanged(self):
        for args in (((Fraction(1, 3),),), ((1, 2), 0)):
            with pytest.raises(ValueError) as new:
                build_difference_table(*args)
            with pytest.raises(ValueError) as ref:
                _reference_build_difference_table(*args)
            assert str(new.value) == str(ref.value)


class TestFractionFreeElimination:
    @given(systems())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        assert_solves_as_reference(*case)

    @given(triangular())
    @settings(max_examples=200, deadline=None)
    def test_triangular_matches_reference(self, case):
        # A pivot equal to the previous one skips the pivot row's zero
        # columns; any other pivot must still update them.
        assert_solves_as_reference(*case)

    def test_skipped_column_then_exact_division(self):
        # Column 0 has no pivot and is skipped, so the pivots sit off the
        # diagonal and the last update divides by the previous pivot 2.
        matrix = [[0, 2, 3], [0, 4, 7], [0, 6, 5]]
        with pytest.raises(SingularMatrixError) as new:
            gaussian_solve(matrix, [1, 2, 3])
        with pytest.raises(SingularMatrixError) as ref:
            _reference_gaussian_solve(matrix, [1, 2, 3])
        assert new.value.rank == ref.value.rank == 2

    def test_vandermonde_order_32(self):
        # The charpoly initial-condition system at order 32, rational rhs.
        matrix = [[n**j for j in range(32)] for n in range(32)]
        rhs = [Fraction((-1) ** n * (n * n + 1), 7 + n) for n in range(32)]
        assert gaussian_solve(matrix, rhs) == _reference_gaussian_solve(matrix, rhs)

    def test_pascal_order_32(self):
        # The charpoly route's system on the root 1 at order 32.
        matrix = [[math.comb(n, j) for j in range(32)] for n in range(32)]
        rhs = [Fraction((-1) ** n * (n * n + 1), 7 + n) for n in range(32)]
        assert gaussian_solve(matrix, rhs) == _reference_gaussian_solve(matrix, rhs)


polys = st.lists(scalars, max_size=7)


def assert_same(new, ref):
    """``new`` is ``ref`` in canonical integer form, equal in value and hash."""
    num, den = new.integer_form
    assert den > 0 and math.gcd(den, *num) == 1 and (not num or num[-1] != 0)
    assert new.coefficients == ref.coefficients
    assert all(type(c) is Fraction for c in new.coefficients)
    assert new.is_zero == ref.is_zero and (new.is_zero or new.degree == ref.degree)
    assert new == Polynomial(ref.coefficients)
    assert hash(new) == hash(ref)


class TestIntegerPolynomial:
    @given(polys, polys, scalars)
    @settings(max_examples=300, deadline=None)
    def test_ring_operations_match_reference(self, a, b, c):
        p, q, rp, rq = Polynomial(a), Polynomial(b), _ReferencePolynomial(a), _ReferencePolynomial(b)
        assert_same(p, rp)
        assert_same(p + q, rp + rq)
        assert_same(p - q, rp - rq)
        assert_same(-p, -rp)
        assert_same(p * q, rp * rq)
        for scalar in (c, c.numerator, 0):
            assert_same(p * scalar, rp * scalar)
            assert_same(scalar * p, scalar * rp)
        assert (p == q) == (rp == rq)
        assert (p - p).is_zero and (p - p).integer_form == ((), 1)

    @given(polys, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_power_matches_reference(self, a, exponent):
        assert_same(Polynomial(a) ** exponent, _ReferencePolynomial(a) ** exponent)

    @given(polys, scalars)
    @settings(max_examples=300, deadline=None)
    def test_evaluate_and_compose_shift_match_reference(self, a, point):
        p, rp = Polynomial(a), _ReferencePolynomial(a)
        value = p.evaluate(point)
        assert type(value) is Fraction and value == rp.evaluate(point)
        assert p.evaluate(point.numerator) == rp.evaluate(point.numerator)
        assert_same(p.compose_shift(point), rp.compose_shift(point))
        assert_same(p.compose_shift(point.numerator), rp.compose_shift(point.numerator))

    def test_binomial_rising_matches_reference(self):
        for r in range(1, 25):
            assert_same(binomial_rising(r), _reference_binomial_rising(r))

    def test_edges_unchanged(self):
        zero = Polynomial.zero()
        assert zero.coefficients == ()
        for poly in (zero, _ReferencePolynomial.zero()):
            with pytest.raises(ValueError, match="zero polynomial has no degree"):
                poly.degree
        assert zero.evaluate(Fraction(3, 7)) == 0 and zero.compose_shift(5) == zero
        assert repr(Polynomial((Fraction(1, 2), 1))) == "Polynomial([Fraction(1, 2), Fraction(1, 1)])"
        with pytest.raises(TypeError):
            Polynomial((1, 0.5))
        with pytest.raises(TypeError):
            Polynomial((1, 2)) * 0.5


@st.composite
def factored(draw):
    """c * prod (q x - p)^m over distinct roots p/q, times an optional irreducible part."""
    roots = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), max_size=3))
    poly = _ReferencePolynomial.constant(draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)])))
    for p, q in roots:
        poly = poly * _ReferencePolynomial((-p, q)) ** draw(st.integers(1, 3))
    extra = draw(st.sampled_from([(), (1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, 0, 0, 2)]))
    if extra:
        poly = poly * _ReferencePolynomial(extra)
    return poly


class TestIntegerRationalRoots:
    @given(factored())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, ref_poly):
        roots, residual = rational_roots(Polynomial(ref_poly.coefficients))
        ref_roots, ref_residual = _reference_rational_roots(ref_poly)
        assert list(roots.items()) == ref_roots
        assert_same(residual, ref_residual)

    def test_errors_unchanged(self):
        with pytest.raises(ValueError) as new:
            rational_roots(Polynomial.zero())
        with pytest.raises(ValueError) as ref:
            _reference_rational_roots(_ReferencePolynomial.zero())
        assert str(new.value) == str(ref.value)
