"""The integer difference table and fraction-free elimination against the
``Fraction`` versions they replaced.

``_reference_build_difference_table`` and ``_reference_gaussian_solve`` are
the earlier implementations, copied verbatim apart from the reference
table returning ``(rows, constant_depth)`` in place of a
``DifferenceTable``.  They difference and eliminate in ``Fraction`` cells,
so they share no integer scaling and no pivot division with the code under
test.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    ExactMatrix,
    Polynomial,
    Sequence,
    SingularMatrixError,
    build_difference_table,
    gaussian_solve,
    infer_recurrence,
    predict_next,
)
from recurlab.core_numeric import as_rational


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

    rows = [tuple(seq.terms)]
    depth = 0 if _reference_is_constant(rows[0]) else None
    while depth is None and len(rows) - 1 < max_depth and len(rows[-1]) >= 2:
        current = rows[-1]
        nxt = tuple(current[i + 1] - current[i] for i in range(len(current) - 1))
        rows.append(nxt)
        if _reference_is_constant(nxt):
            depth = len(rows) - 1
    return tuple(rows), depth


def _reference_gaussian_solve(matrix, rhs):
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
    return Sequence(tuple(terms)), max_depth


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
    return ExactMatrix.from_rows(rows), rhs


class TestIntegerTable:
    @given(sequences())
    @settings(max_examples=200, deadline=None)
    def test_rows_over_denominator_match_reference(self, case):
        seq, max_depth = case
        table = build_difference_table(seq, max_depth)
        ref_rows, ref_depth = _reference_build_difference_table(seq, max_depth)
        assert table.denominator == math.lcm(*(t.denominator for t in seq.terms))
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
        for args in ((Sequence((Fraction(1, 3),)),), (Sequence((1, 2)), 0)):
            with pytest.raises(ValueError) as new:
                build_difference_table(*args)
            with pytest.raises(ValueError) as ref:
                _reference_build_difference_table(*args)
            assert str(new.value) == str(ref.value)


class TestFractionFreeElimination:
    @given(systems())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        matrix, rhs = case
        try:
            expected = _reference_gaussian_solve(matrix, rhs)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as new:
                gaussian_solve(matrix, rhs)
            assert new.value.rank == exc.rank
            assert str(new.value) == str(exc)
        else:
            assert gaussian_solve(matrix, rhs) == expected

    def test_skipped_column_then_exact_division(self):
        # Column 0 has no pivot and is skipped, so the pivots sit off the
        # diagonal and the last update divides by the previous pivot 2.
        matrix = ExactMatrix.from_rows([[0, 2, 3], [0, 4, 7], [0, 6, 5]])
        with pytest.raises(SingularMatrixError) as new:
            gaussian_solve(matrix, [1, 2, 3])
        with pytest.raises(SingularMatrixError) as ref:
            _reference_gaussian_solve(matrix, [1, 2, 3])
        assert new.value.rank == ref.value.rank == 2

    def test_vandermonde_order_32(self):
        # The charpoly initial-condition system at order 32, rational rhs.
        matrix = ExactMatrix.from_rows([[n**j for j in range(32)] for n in range(32)])
        rhs = [Fraction((-1) ** n * (n * n + 1), 7 + n) for n in range(32)]
        assert gaussian_solve(matrix, rhs) == _reference_gaussian_solve(matrix, rhs)
