"""Exact scalar and polynomial layer.

Binomial values are checked against literal subset enumeration; the
polynomial algebra is checked by evaluation homomorphisms (an operation on
polynomials must commute with evaluating at any point).
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    Polynomial,
    as_rational,
    binomial,
    binomial_rising,
    format_polynomial,
    format_rational,
    parse_rational,
)

from conftest import brute_binomial

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)
points = st.fractions(min_value=-20, max_value=20, max_denominator=20)


class TestBinomial:
    def test_matches_subset_enumeration(self):
        for n in range(0, 12):
            for k in range(-2, n + 3):
                assert binomial(n, k) == brute_binomial(n, k), (n, k)

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 0) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_identity(self):
        for n in range(1, 65):
            for k in range(0, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestBinomialRising:
    def test_small_expansions(self):
        assert binomial_rising(1) == Polynomial((1, 1))
        assert binomial_rising(2) == Polynomial((1, Fraction(3, 2), Fraction(1, 2)))
        twentyfourths = [Fraction(c, 24) for c in (24, 50, 35, 10, 1)]
        assert binomial_rising(4) == Polynomial(twentyfourths)

    def test_evaluation_matches_binomial(self):
        for r in range(1, 7):
            poly = binomial_rising(r)
            for j in range(0, 51):
                assert poly.evaluate(j) == binomial(j + r, r), (r, j)

    def test_requires_positive_r(self):
        with pytest.raises(ValueError):
            binomial_rising(0)


class TestPolynomialStructure:
    def test_zero_polynomial_degree_marker(self):
        zero = Polynomial.zero()
        assert zero.is_zero
        with pytest.raises(ValueError, match="zero polynomial has no degree"):
            zero.degree

    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
        assert Polynomial((0, 0)) == Polynomial.zero()
        # Equal only to a Polynomial: a constant one is not its int.
        assert (Polynomial((1,)) == 1) is False

    def test_coefficient_beyond_degree(self):
        p = Polynomial((1, 2))
        assert p.coefficient(5) == 0
        with pytest.raises(ValueError):
            p.coefficient(-1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((1.5,))
        with pytest.raises(TypeError):
            as_rational(0.5)
        # A sum takes Polynomials only; an int is not lifted to one.
        with pytest.raises(TypeError):
            Polynomial((1,)) + 1

    def test_monomial(self):
        assert Polynomial.monomial(3, 2) == Polynomial((0, 0, 0, 2))
        assert Polynomial.monomial(0) == Polynomial.one()


class TestPolynomialAlgebra:
    @given(small_polys, small_polys, points)
    @settings(max_examples=120)
    def test_addition_commutes_with_evaluation(self, p, q, x):
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)

    @given(small_polys, small_polys, points)
    @settings(max_examples=120)
    def test_multiplication_commutes_with_evaluation(self, p, q, x):
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)

    @given(small_polys, rationals, points)
    @settings(max_examples=80)
    def test_scalar_multiplication(self, p, c, x):
        assert (c * p).evaluate(x) == c * p.evaluate(x)
        assert (p * c) == (c * p)

    @given(small_polys, small_polys)
    @settings(max_examples=80)
    def test_degree_of_product(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree

    def test_power(self):
        x_plus_1 = Polynomial((1, 1))
        assert x_plus_1**4 == Polynomial((1, 4, 6, 4, 1))
        assert x_plus_1**0 == Polynomial.one()


class TestComposeShift:
    def test_square_shift(self):
        # (x - 1)^2 = x^2 - 2x + 1
        square = Polynomial((0, 0, 1))
        assert square.compose_shift(-1) == Polynomial((1, -2, 1))

    def test_quartic_region_formula_shift(self):
        # The n-indexed region formula becomes the m-indexed quartic
        # under n -> n - 1.
        in_n = Polynomial([Fraction(c, 24) for c in (24, 14, 11, -2, 1)])
        in_m = Polynomial([Fraction(c, 24) for c in (24, -18, 23, -6, 1)])
        assert in_n.compose_shift(-1) == in_m

    @given(small_polys, rationals, points)
    @settings(max_examples=120)
    def test_shift_commutes_with_evaluation(self, p, s, x):
        assert p.compose_shift(s).evaluate(x) == p.evaluate(x + s)

    @given(small_polys, rationals)
    @settings(max_examples=80)
    def test_shift_roundtrip(self, p, s):
        assert p.compose_shift(s).compose_shift(-s) == p

    def test_shift_zero_is_identity(self):
        p = Polynomial((3, -2, 5))
        assert p.compose_shift(0) == p


class TestFormatting:
    def test_format_rational_always_has_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-5, 7)) == "-5/7"

    def test_parse_rational(self):
        assert parse_rational("14/24") == Fraction(7, 12)
        assert parse_rational("-3") == Fraction(-3)
        with pytest.raises(ValueError):
            parse_rational("zebra")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_parse_rational_decimal_and_no_exponent(self):
        assert parse_rational("1.5") == Fraction(3, 2)
        assert parse_rational(" 7 ") == 7
        # Separators and inner whitespace: accepted by Fraction on some
        # Python versions only, so rejected on all of them.
        for text in ("1e5", "2E3", "1.5e-2", "1e99999999", "1_000", "1_0/2_0", "1 /2"):
            with pytest.raises(ValueError, match="not a rational number"):
                parse_rational(text)

    def test_parse_rational_integer_terms_match_fraction(self):
        # Integer terms are read by int; the value and type are Fraction's.
        # The long term is at Python's integer-string limit (4300 by default).
        long_term = "7" * sys.get_int_max_str_digits()
        for text in ("+12", "-0", "0007", "\u0661\u0662", "\uff11\uff12", long_term):
            value = parse_rational(text)
            assert type(value) is Fraction
            assert value == Fraction(text)
        assert parse_rational("\u0661\u0662") == 12
        for text, value in (("12.", 12), (".5", Fraction(1, 2)), ("1/2", Fraction(1, 2))):
            assert parse_rational(text) == value

    def test_parse_rational_rejects_keep_their_messages(self):
        for text in ("1/0", "+-1", "\u00b2", "\u066b5"):
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == f"not a rational number: {text!r}"
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as info:
            parse_rational("7" * (limit + 1))
        assert str(info.value) == (
            f"not a rational number: a {limit + 1}-character term"
            f" (Python's integer-string limit is {limit} digits)"
        )

    def test_format_polynomial_common_denominator(self):
        quartic = Polynomial([Fraction(c, 24) for c in (24, -18, 23, -6, 1)])
        assert format_polynomial(quartic, "m") == "(m^4 - 6*m^3 + 23*m^2 - 18*m + 24)/24"

    def test_format_polynomial_integer_coefficients(self):
        assert format_polynomial(Polynomial((2, 3))) == "3*n + 2"
        assert format_polynomial(Polynomial((0, -1, 1))) == "n^2 - n"
        assert format_polynomial(Polynomial.zero()) == "0"
        assert format_polynomial(Polynomial((0, 1))) == "n"
        assert str(Polynomial((1, 2))) == "2*n + 1"
