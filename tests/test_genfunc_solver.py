"""Generating-function solver route.

Ground truth is the exact power series: a rational function's series (by
the linear-recursion extraction in ``ogf_series``) must match
(a) forward iteration of the source recurrence, (b) the reconstruction
from any partial-fraction decomposition of it, and (c) evaluation of the
extracted closed form.  All comparisons are exact.
"""

from fractions import Fraction

import pytest

from recurlab import (
    LinearRecurrence,
    Polynomial,
    UnsupportedRootsError,
    binomial,
    build_ogf,
    extract_coefficient_formula,
    iterate_recurrence,
    ogf_series,
    partial_fractions,
    solve_charpoly,
)

from conftest import series_from_terms, solver_corpus

F = Fraction


def one_minus_x_power(numerator: Polynomial, power: int):
    return numerator, {F(1): power}


def denominator_polynomial(factors) -> Polynomial:
    """prod (1 - r x)^p, expanded."""
    poly = Polynomial.one()
    for root, power in factors.items():
        poly = poly * Polynomial((1, -root)) ** power
    return poly


def equivalent(a, b) -> bool:
    """Exact equality of two (numerator, factors) rational functions (cross-multiplied)."""
    return a[0] * denominator_polynomial(b[1]) == b[0] * denominator_polynomial(a[1])


class TestRationalFunction:
    """numerator / prod (1 - r x)^p as a (numerator, {r: p}) pair."""

    def test_factors_merged_and_sorted(self, moser_recurrence):
        # build_ogf's factors ascend, and the right-hand side's (1 - x)^(e+1)
        # joins root 1's power, whether chi has the root 1 or not.
        assert build_ogf(moser_recurrence)[1] == {F(1): 5}
        # chi = (r - 2)(r - 3) with a constant right-hand side: 1 is new and first.
        rec = LinearRecurrence((F(1), F(-5), F(6)), Polynomial.constant(2), (F(0), F(1)))
        factors = build_ogf(rec)[1]
        assert list(factors.items()) == [(F(1), 1), (F(2), 1), (F(3), 1)]
        # chi = (r + 1)(r - 1)^2 with right-hand side n: root 1's power 2 + 2.
        chi = Polynomial((1, 1)) * Polynomial((-1, 1)) ** 2
        rec = LinearRecurrence(tuple(reversed(chi.coefficients)), Polynomial((0, 1)), (F(0),) * 3)
        assert list(build_ogf(rec)[1].items()) == [(F(-1), 1), (F(1), 4)]

    def test_denominator_polynomial(self):
        # ogf_series inverts the same product: its series times (1-x)^5 is 1.
        numerator, factors = one_minus_x_power(Polynomial.one(), 5)
        assert denominator_polynomial(factors) == Polynomial((1, -1)) ** 5
        series = ogf_series(numerator, factors, 12)
        product = Polynomial(series) * Polynomial((1, -1)) ** 5
        assert product.coefficients[:12] == (1,) + (0,) * 11

    def test_geometric_series(self):
        assert ogf_series(Polynomial.one(), {F(1): 1}, 5) == [1, 1, 1, 1, 1]
        assert ogf_series(Polynomial.one(), {F(2): 1}, 5) == [1, 2, 4, 8, 16]

    def test_shifted_series(self):
        assert ogf_series(Polynomial.monomial(4), {F(1): 1}, 6) == [0, 0, 0, 0, 1, 1]

    def test_binomial_coefficient_series(self):
        # 1/(1-x)^(r+1) has coefficients C(n+r, r).
        for r in range(0, 5):
            rf = one_minus_x_power(Polynomial.one(), r + 1)
            assert ogf_series(*rf, 12) == [binomial(n + r, r) for n in range(12)]

    def test_equivalent_to_cross_multiplies(self):
        # x^2/(1-x)^2 == (x^2 - x^3)/(1-x)^3
        a = one_minus_x_power(Polynomial((0, 0, 1)), 2)
        b = one_minus_x_power(Polynomial((0, 0, 1, -1)), 3)
        assert equivalent(a, b)
        assert not equivalent(a, one_minus_x_power(Polynomial((0, 0, 1)), 3))


class TestBuildOgf:
    def test_region_recurrence(self, moser_recurrence):
        numerator, factors = build_ogf(moser_recurrence)
        assert factors == {F(1): 5}
        assert numerator == Polynomial((1, -3, 4, -2, 1))

    def test_region_recurrence_against_boundary_assembly(self, moser_recurrence):
        # Independent assembly: f * (1-x)^4 = x^4/(1-x) + (initial-condition
        # boundary polynomial), cleared to the common denominator (1-x)^5.
        boundary = Polynomial((1, -2, 2))  # from the first four terms 1, 2, 4, 8
        expected_numerator = Polynomial.monomial(4) + boundary * Polynomial((1, -1))
        expected = one_minus_x_power(expected_numerator, 5)
        built = build_ogf(moser_recurrence)
        assert equivalent(built, expected)
        assert built[0] == expected_numerator

    def test_series_matches_iteration_on_corpus(self):
        for name, rec in solver_corpus():
            assert ogf_series(*build_ogf(rec), 60) == list(iterate_recurrence(rec, 60)), name

    def test_distinct_roots_factored(self):
        rec = LinearRecurrence((F(1), F(-5), F(6)), Polynomial.zero(), (F(2), F(5)))
        numerator, factors = build_ogf(rec)
        assert list(factors.items()) == [(F(2), 1), (F(3), 1)]
        assert numerator == Polynomial((2, -5))

    def test_forcing_adds_root_one_factor(self):
        rec = LinearRecurrence((F(1), F(-2)), Polynomial.constant(1), (F(0),))
        rf = build_ogf(rec)
        assert list(rf[1].items()) == [(F(1), 1), (F(2), 1)]
        assert ogf_series(*rf, 8) == [2**n - 1 for n in range(8)]

    def test_irrational_roots_rejected(self):
        rec = LinearRecurrence((F(1), F(-1), F(-1)), Polynomial.zero(), (F(0), F(1)))
        with pytest.raises(UnsupportedRootsError):
            build_ogf(rec)

    def test_root_zero_rejected_as_by_charpoly(self):
        # chi = r^2 - r has the root 0; the sequence 5, 7, 7, ... has no
        # exponential-polynomial closed form valid from n = 0.
        rec = LinearRecurrence((F(1), F(-1), F(0)), Polynomial.zero(), (F(5), F(7)))
        assert list(iterate_recurrence(rec, 4)) == [5, 7, 7, 7]
        with pytest.raises(UnsupportedRootsError) as charpoly_error:
            solve_charpoly(rec)
        with pytest.raises(UnsupportedRootsError) as genfunc_error:
            build_ogf(rec)
        assert str(genfunc_error.value) == str(charpoly_error.value)
        assert "characteristic root 0" in str(genfunc_error.value)

    def test_result_is_proper_on_corpus(self):
        for name, rec in solver_corpus():
            numerator, factors = build_ogf(rec)
            assert numerator.degree < sum(factors.values()), name


class TestPartialFractions:
    def test_quartic_over_quintic_pole(self):
        # x^4/(1-x)^5 spreads over all five pole orders.
        terms = partial_fractions(one_minus_x_power(Polynomial.monomial(4), 5))
        assert terms == (
            (F(1), 1, F(1)),
            (F(1), 2, F(-4)),
            (F(1), 3, F(6)),
            (F(1), 4, F(-4)),
            (F(1), 5, F(1)),
        )

    def test_linear_over_quartic_pole(self):
        # -2x/(1-x)^4 = 2/(1-x)^3 - 2/(1-x)^4
        terms = partial_fractions(one_minus_x_power(Polynomial((0, -2)), 4))
        assert terms == ((F(1), 3, F(2)), (F(1), 4, F(-2)))

    def test_quadratic_over_quartic_pole(self):
        # 2x^2/(1-x)^4 = 2/(1-x)^2 - 4/(1-x)^3 + 2/(1-x)^4
        terms = partial_fractions(one_minus_x_power(Polynomial((0, 0, 2)), 4))
        assert terms == ((F(1), 2, F(2)), (F(1), 3, F(-4)), (F(1), 4, F(2)))

    def test_region_ogf_decomposition(self, moser_recurrence):
        terms = partial_fractions(build_ogf(moser_recurrence))
        assert terms == (
            (F(1), 1, F(1)),
            (F(1), 2, F(-2)),
            (F(1), 3, F(4)),
            (F(1), 4, F(-3)),
            (F(1), 5, F(1)),
        )

    def test_distinct_roots(self):
        # (2-5x)/((1-2x)(1-3x)) = 1/(1-2x) + 1/(1-3x)
        rf = (Polynomial((2, -5)), {F(2): 1, F(3): 1})
        assert partial_fractions(rf) == ((F(2), 1, F(1)), (F(3), 1, F(1)))

    def test_int_roots(self):
        # 1/((1-2x)(1-x)) = 2/(1-2x) - 1/(1-x) and 1/(1-x)^2, with the roots
        # given as ints: each is taken as an exact rational, never a float.
        for factors, terms in (({2: 1, 1: 1}, ((2, 1, 2), (1, 1, -1))), ({1: 2}, ((1, 2, 1),))):
            found = partial_fractions((Polynomial((1,)), factors))
            assert found == terms
            assert all(type(value) is F for term in found for value in (term[0], term[2]))

    @pytest.mark.parametrize(
        "numerator, factors",
        [
            ((5, -4), {F(1): 1}),  # (5-4x)/(1-x) = 4 + 1/(1-x)
            ((1, 0, 0, 0, 1), {F(1): 2}),
            ((3, 0, 1), {}),  # a polynomial over the empty product
        ],
    )
    def test_improper_function_rejected(self, numerator, factors):
        with pytest.raises(ValueError, match="proper"):
            partial_fractions((Polynomial(numerator), factors))

    def test_zero_over_empty_product(self):
        assert partial_fractions((Polynomial.zero(), {})) == ()

    def test_reconstruction_is_exact_on_corpus(self):
        for name, rec in solver_corpus():
            rf = build_ogf(rec)
            assert series_from_terms(partial_fractions(rf), 60) == ogf_series(*rf, 60), name


class TestExtractCoefficientFormula:
    def test_region_closed_form(self, moser_recurrence):
        form = extract_coefficient_formula(partial_fractions(build_ogf(moser_recurrence)))
        assert form.method == "genfunc"
        assert form.polynomial_form() == Polynomial([F(c, 24) for c in (24, 14, 11, -2, 1)])

    def test_single_poles(self):
        form = extract_coefficient_formula(((F(1), 1, F(-1)), (F(2), 1, F(1))))
        # 2^n - 1
        assert form.terms == ((F(1), Polynomial.constant(-1)), (F(2), Polynomial.one()))

    def test_higher_pole_gives_binomial_polynomial(self):
        # 1/(1-x)^3 -> C(n+2, 2) = (n^2 + 3n + 2)/2
        form = extract_coefficient_formula(((F(1), 3, F(1)),))
        assert form.polynomial_form() == Polynomial((1, F(3, 2), F(1, 2)))

    def test_pole_of_order_forty_matches_series(self):
        # Every power 1..40 at one root, after a lower pole at another root,
        # so the C(n+k, k) polynomials are built up across the whole order.
        terms = [(F(-1), p, F(p)) for p in range(1, 6)]
        terms += [(F(3, 2), p, F(p, 7) - 2) for p in range(1, 41)]
        form = extract_coefficient_formula(tuple(terms))
        assert [form.evaluate(n) for n in range(60)] == series_from_terms(terms, 60)

    def test_agrees_with_charpoly_route_on_corpus(self):
        for name, rec in solver_corpus():
            genfunc_form = extract_coefficient_formula(partial_fractions(build_ogf(rec)))
            charpoly_form = solve_charpoly(rec)
            assert genfunc_form.agrees_with(charpoly_form), name

    def test_extracted_formula_matches_series(self):
        for name, rec in solver_corpus():
            rf = build_ogf(rec)
            form = extract_coefficient_formula(partial_fractions(rf))
            series = ogf_series(*rf, 50)
            for n in range(50):
                assert form.evaluate(n) == series[n], (name, n)


class TestSeries:
    def test_region_counts(self, moser_recurrence):
        assert ogf_series(*build_ogf(moser_recurrence), 7) == [1, 2, 4, 8, 16, 31, 57]

    def test_depth_validated(self, moser_recurrence):
        with pytest.raises(ValueError):
            ogf_series(*build_ogf(moser_recurrence), 0)


class TestBinomialExtractionLemma:
    def test_coefficients_of_reciprocal_powers(self):
        # [x^n] 1/(1-x)^(r+1) == C(n+r, r) for r <= 6, n <= 40, exactly.
        for r in range(0, 7):
            rf = one_minus_x_power(Polynomial.one(), r + 1)
            series = ogf_series(*rf, 41)
            for n in range(41):
                assert series[n] == binomial(n + r, r), (r, n)
