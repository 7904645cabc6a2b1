"""Difference tables, next-term prediction, and recurrence inference.

Ground truth throughout is the defining identity of differencing
(row k+1 entries are adjacent differences of row k) plus forward
iteration: an inferred recurrence must regenerate its own sequence.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    LinearRecurrence,
    NoConstantRowError,
    Polynomial,
    Sequence,
    binomial,
    build_difference_table,
    infer_recurrence,
    iterate_recurrence,
    predict_next,
)

from conftest import brute_regions


def seq(*values) -> Sequence:
    return Sequence(tuple(Fraction(v) for v in values))


class TestBuildTable:
    def test_region_counts_six_terms(self):
        table = build_difference_table(seq(1, 2, 4, 8, 16, 31))
        assert table.rows == (
            (1, 2, 4, 8, 16, 31),
            (1, 2, 4, 8, 15),
            (1, 2, 4, 7),
            (1, 2, 3),
            (1, 1),
        )
        assert table.constant_depth == 4

    def test_already_constant(self):
        table = build_difference_table(seq(5, 5, 5, 5))
        assert table.constant_depth == 0
        assert table.rows == ((5, 5, 5, 5),)

    def test_squares(self):
        table = build_difference_table(seq(0, 1, 4, 9, 16))
        assert table.constant_depth == 2
        assert table.rows[2] == (2, 2, 2)

    def test_no_constant_row(self):
        # Doubling forever: every difference row is the row above, shifted.
        table = build_difference_table(seq(1, 2, 4, 8, 16))
        assert table.constant_depth is None

    def test_rows_satisfy_difference_identity(self):
        table = build_difference_table(seq(3, 1, 4, 1, 5, 9, 2, 6))
        for upper, lower in zip(table.rows, table.rows[1:]):
            assert lower == tuple(upper[i + 1] - upper[i] for i in range(len(upper) - 1))

    def test_max_depth_caps_search(self):
        table = build_difference_table(seq(1, 2, 4, 8, 16, 31), max_depth=2)
        assert table.constant_depth is None
        assert len(table.rows) == 3

    def test_single_entry_never_certifies(self):
        # Row 3 of this table is a single entry; it must not count as constant.
        table = build_difference_table(seq(0, 1, 3, 8), max_depth=3)
        assert table.rows[3] == (2,)
        assert table.constant_depth is None

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_difference_table(seq(42))
        with pytest.raises(ValueError):
            build_difference_table(seq(1, 2), max_depth=0)

    def test_rational_entries(self):
        table = build_difference_table(
            Sequence((Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)))
        )
        assert table.constant_depth == 1
        assert table.rows[1] == (1, 1)


class TestPredictNext:
    def test_region_counts(self):
        assert predict_next(build_difference_table(seq(1, 2, 4, 8, 16, 31))) == 57

    def test_constant(self):
        assert predict_next(build_difference_table(seq(5, 5, 5))) == 5

    def test_squares(self):
        assert predict_next(build_difference_table(seq(0, 1, 4, 9, 16, 25))) == 36

    def test_seven_region_counts_predict_the_eighth(self):
        assert predict_next(build_difference_table(seq(1, 2, 4, 8, 16, 31, 57))) == 99
        assert brute_regions(8) == 99

    def test_no_constant_row_raises(self):
        with pytest.raises(NoConstantRowError):
            predict_next(build_difference_table(seq(1, 2, 4, 8, 16)))

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=8), st.integers(0, 30))
    @settings(max_examples=100)
    def test_prediction_extends_polynomial_sequences(self, coeffs, extra):
        # Sample a polynomial, generate its value sequence, and check the
        # prediction equals the polynomial's next value.
        poly = Polynomial(coeffs)
        length = max(len(coeffs) + 2, 3) + extra % 3
        values = seq(*[poly.evaluate(i) for i in range(length)])
        table = build_difference_table(values)
        assert table.constant_depth is not None
        assert predict_next(table) == poly.evaluate(length)


class TestInferRecurrence:
    def test_region_counts_order_four(self):
        rec = infer_recurrence(build_difference_table(seq(1, 2, 4, 8, 16, 31)))
        assert rec.order == 4
        assert rec.coefficients == (1, -4, 6, -4, 1)
        assert rec.rhs == Polynomial.constant(1)
        assert rec.initial_conditions == (1, 2, 4, 8)

    def test_constant_sequence_normalized_to_order_one(self):
        rec = infer_recurrence(build_difference_table(seq(5, 5, 5, 5)))
        assert rec.order == 1
        assert rec.coefficients == (1, -1)
        assert rec.rhs.is_zero
        assert rec.initial_conditions == (5,)

    def test_squares(self):
        rec = infer_recurrence(build_difference_table(seq(0, 1, 4, 9, 16)))
        assert rec.coefficients == (1, -2, 1)
        assert rec.rhs == Polynomial.constant(2)
        assert rec.initial_conditions == (0, 1)

    def test_coefficients_are_alternating_binomials(self):
        for degree in range(1, 7):
            poly = Polynomial((0,) * degree + (1,))  # x^degree
            values = seq(*[poly.evaluate(i) for i in range(degree + 3)])
            rec = infer_recurrence(build_difference_table(values))
            assert rec.order == degree
            expected = tuple(Fraction((-1) ** k * binomial(degree, k)) for k in range(degree + 1))
            assert rec.coefficients == expected

    def test_no_constant_row_raises(self):
        with pytest.raises(NoConstantRowError):
            infer_recurrence(build_difference_table(seq(1, 2, 4, 8, 16)))

    def test_describe_text_is_pinned(self):
        # Literal text: rational, negative and zero coefficients, and
        # non-constant right-hand sides.
        F = Fraction
        cases = [
            ((1, F(-5, 2), F(3, 2)), (F(1, 3), -2), "a[{v}+2] - 5/2*a[{v}+1] + 3/2*a[{v}] = (-6*{v} + 1)/3"),
            ((1, 0, -1), (0, 0, F(-1, 4)), "a[{v}+2] - a[{v}] = (-{v}^2)/4"),
            ((1, 0, F(2, 7), 0, -3), (), "a[{v}+4] + 2/7*a[{v}+2] - 3*a[{v}] = 0"),
            ((1, -1), (5,), "a[{v}+1] - a[{v}] = 5"),
            ((1, 1, -2), (-1, F(3, 5)), "a[{v}+2] + a[{v}+1] - 2*a[{v}] = (3*{v} - 5)/5"),
        ]
        for coefficients, rhs, text in cases:
            order = len(coefficients) - 1
            rec = LinearRecurrence(coefficients, Polynomial(rhs), tuple(range(order)))
            assert rec.describe() == text.format(v="n")
            assert rec.describe("m") == text.format(v="m")


class TestIterateRecurrence:
    def test_regenerates_region_counts(self):
        rec = infer_recurrence(build_difference_table(seq(1, 2, 4, 8, 16, 31, 57)))
        assert tuple(iterate_recurrence(rec, 7)) == (1, 2, 4, 8, 16, 31, 57)

    def test_tenth_region_count(self):
        rec = infer_recurrence(build_difference_table(seq(1, 2, 4, 8, 16, 31)))
        iterated = iterate_recurrence(rec, 11)
        assert iterated[9] == 256
        assert iterated[9] == brute_regions(10)

    def test_count_below_order_rejected(self):
        rec = infer_recurrence(build_difference_table(seq(1, 2, 4, 8, 16, 31)))
        with pytest.raises(ValueError):
            iterate_recurrence(rec, 3)

    def test_polynomial_roundtrip_many_cases(self):
        # 120 seeded random polynomials: values -> table -> recurrence ->
        # iterate must reproduce and extend the values exactly.
        rng = random.Random(20260815)
        for case in range(120):
            degree = rng.randrange(0, 7)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
            poly = Polynomial(coeffs)
            length = (poly.degree if not poly.is_zero else 0) + 2
            length = max(length, 2) + rng.randrange(0, 4)
            values = [poly.evaluate(i) for i in range(length + 5)]
            table = build_difference_table(Sequence(tuple(values[:length])))
            if table.constant_depth is None:
                # Possible only when the sample was too short to certify.
                continue
            rec = infer_recurrence(table)
            regenerated = iterate_recurrence(rec, length + 5)
            assert list(regenerated) == values, f"case {case}"
