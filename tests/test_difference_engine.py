"""Difference tables, next-term prediction, and recurrence inference.

Ground truth throughout is the defining identity of differencing
(row k+1 entries are adjacent differences of row k) plus forward
iteration: an inferred recurrence must regenerate its own sequence.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    ClosedForm,
    DifferenceTable,
    LinearRecurrence,
    NoConstantRowError,
    Polynomial,
    binomial,
    build_difference_table,
    infer_recurrence,
    iterate_recurrence,
    predict_next,
)
from recurlab.difference_engine import _is_constant

from conftest import brute_regions


def seq(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


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

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            build_difference_table([1.0, 2.0, 3.0])

    def test_any_iterable_of_ints(self):
        table = build_difference_table(iter([1, 2, 4, 8, 16, 31]))
        assert table == build_difference_table(seq(1, 2, 4, 8, 16, 31))
        assert table.constant_depth == 4

    def test_rational_entries(self):
        table = build_difference_table((Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)))
        assert table.constant_depth == 1
        # Rows are integer numerators over the terms' common denominator.
        assert table.denominator == 2
        assert table.rows[1] == (2, 2)

    def test_constant_depth_is_read_off_the_rows(self):
        # The depth is derived from the rows, so a hand-built table cannot
        # claim a constant row it does not hold.
        assert [f.name for f in dataclasses.fields(DifferenceTable)] == ["rows", "denominator"]
        table = DifferenceTable(((1, 2, 4),), 1)
        assert table.constant_depth is None
        with pytest.raises(NoConstantRowError):
            predict_next(table)
        with pytest.raises(NoConstantRowError):
            infer_recurrence(table)
        assert DifferenceTable(((1, 2, 4), (1, 2), (1,)), 1).constant_depth is None
        assert DifferenceTable(((5, 5),), 1).constant_depth == 0
        assert DifferenceTable(((1, 2, 4, 7), (1, 2, 3), (1, 1)), 1).constant_depth == 2

    def test_constancy_compares_the_ends_then_counts(self):
        # Equal ends alone certify nothing: the whole row must be one value.
        assert not _is_constant((3, 1, 3))
        assert not _is_constant((0, 5, -5, 0))
        assert DifferenceTable(((3, 1, 3),), 1).constant_depth is None
        assert _is_constant((7, 7)) and _is_constant((-2, -2, -2))
        assert DifferenceTable(((7, 7),), 1).constant_depth == 0
        assert not _is_constant((4,))
        assert not _is_constant((1, 2, 2)) and not _is_constant((2, 2, 1))

    def test_row_with_equal_ends_keeps_differencing(self):
        table = build_difference_table(seq(0, 1, 1, 2), max_depth=3)
        assert table.rows == ((0, 1, 1, 2), (1, 0, 1), (-1, 1), (2,))
        assert table.constant_depth is None


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
            table = build_difference_table(values[:length])
            if table.constant_depth is None:
                # Possible only when the sample was too short to certify.
                continue
            rec = infer_recurrence(table)
            regenerated = iterate_recurrence(rec, length + 5)
            assert list(regenerated) == values, f"case {case}"


# Input checks of the library that no CLI path reaches: each raises
# ValueError with its message.  The short sequence is a hand-built table,
# since a certified row at depth d built from terms keeps at least 2 entries.
@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: LinearRecurrence((1,), Polynomial.zero(), ()),
            "a recurrence needs order >= 1 (at least two coefficients)",
        ),
        (
            lambda: LinearRecurrence((2, -1), Polynomial.zero(), (0,)),
            "recurrence must be monic, got leading coefficient 2",
        ),
        (
            lambda: LinearRecurrence((1, -2, 1), Polynomial.zero(), (0,)),
            "expected 2 initial conditions, got 1",
        ),
        (
            lambda: infer_recurrence(DifferenceTable(((1,), (1, 1)), 1)),
            "sequence has 1 terms; need 2 for an order-1 recurrence",
        ),
        (lambda: Polynomial.monomial(-1), "monomial degree must be >= 0, got -1"),
        (lambda: Polynomial((1, 1)) ** -1, "polynomial exponent must be an int >= 0, got -1"),
        (lambda: ClosedForm(((1, Polynomial.one()),), "charpoly").evaluate(-1), "index must be >= 0, got -1"),
    ],
    ids=["order-0", "not-monic", "initial-conditions", "short-sequence", "monomial", "power", "evaluate"],
)
def test_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
