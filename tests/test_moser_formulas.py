"""Combinatorial region-count formulas.

The reference values for small m are fixed by brute-force subset
enumeration (see conftest) — the combinatorial definition itself — and
the four formula routes are required to agree with them and each other.
"""

import pytest

from recurlab import (
    Polynomial,
    Rational,
    chord_count,
    euler_counts,
    intersection_count,
    moser_polynomial,
    moser_terms,
    regions_binomial,
    regions_binomial_sum,
    regions_polynomial,
)

from conftest import brute_binomial, brute_regions

# The classic table: doubling up to m = 5, then 31, 57.
REFERENCE_COUNTS = {1: 1, 2: 2, 3: 4, 4: 8, 5: 16, 6: 31, 7: 57}


class TestReferenceTable:
    def test_brute_force_oracle_agrees_with_table(self):
        for m, expected in REFERENCE_COUNTS.items():
            assert brute_regions(m) == expected

    @pytest.mark.parametrize("route", [regions_binomial, regions_polynomial, regions_binomial_sum])
    def test_each_route_reproduces_the_table(self, route):
        for m, expected in REFERENCE_COUNTS.items():
            assert route(m) == expected, (route.__name__, m)

    def test_euler_route_reproduces_the_table(self):
        for m, expected in REFERENCE_COUNTS.items():
            assert euler_counts(m)[2] == expected

    def test_doubling_breaks_at_six(self):
        assert [regions_binomial(m) for m in range(1, 6)] == [1, 2, 4, 8, 16]
        assert regions_binomial(6) == 31 != 32


class TestFormulaEquivalence:
    def test_all_routes_agree_to_200(self):
        for m in range(1, 201):
            reference = regions_binomial(m)
            assert regions_polynomial(m) == reference, m
            assert regions_binomial_sum(m) == reference, m
            assert euler_counts(m)[2] == reference, m

    def test_binomial_route_matches_enumeration(self):
        for m in range(1, 13):
            assert regions_binomial(m) == brute_regions(m)

    def test_quartic_is_integral_despite_denominator_24(self):
        poly = moser_polynomial()
        for m in range(1, 201):
            value = poly.evaluate(m)
            assert value.denominator == 1, m


class TestMoserPolynomial:
    def test_expanded_coefficients(self):
        expected = Polynomial([Rational(c, 24) for c in (24, -18, 23, -6, 1)])
        assert moser_polynomial() == expected

    def test_spot_values(self):
        poly = moser_polynomial()
        assert poly.evaluate(6) == 31
        assert poly.evaluate(7) == 57
        assert poly.evaluate(10) == 256


class TestTruncatedRowSum:
    def test_coincides_with_full_row_only_below_six(self):
        # For m <= 5 the truncated sum equals 2^(m-1); from m = 6 on it
        # falls strictly below, which is where doubling stops.
        for m in range(1, 6):
            assert regions_binomial_sum(m) == 2 ** (m - 1)
        for m in range(6, 20):
            assert regions_binomial_sum(m) < 2 ** (m - 1)

    def test_matches_term_by_term_enumeration(self):
        for m in range(1, 15):
            assert regions_binomial_sum(m) == sum(brute_binomial(m - 1, j) for j in range(5))


class TestCountingHelpers:
    def test_chords(self):
        assert [chord_count(m) for m in range(1, 8)] == [0, 1, 3, 6, 10, 15, 21]

    def test_interior_intersections(self):
        assert [intersection_count(m) for m in range(1, 8)] == [0, 0, 0, 1, 5, 15, 35]
        for m in range(1, 12):
            assert intersection_count(m) == brute_binomial(m, 4)

    def test_moser_terms(self):
        assert moser_terms(7) == [1, 2, 4, 8, 16, 31, 57]
        with pytest.raises(ValueError):
            moser_terms(0)


class TestEulerCounts:
    # (V, E, regions); the faces on the sphere are regions + 1, the outside.
    def test_four_points(self):
        assert euler_counts(4) == (5, 12, 8)  # 9 faces

    def test_single_point(self):
        assert euler_counts(1) == (1, 1, 1)  # 2 faces

    def test_six_points(self):
        assert euler_counts(6) == (21, 51, 31)  # 32 faces

    def test_faces_do_not_consult_the_closed_form(self, monkeypatch):
        import recurlab.moser_formulas as moser

        monkeypatch.setattr(moser, "regions_binomial", lambda m: 0)
        assert euler_counts(7)[2] == 57

    def test_identity_holds_across_sweep(self):
        for m in range(1, 101):
            vertices, edges, regions = euler_counts(m)
            assert vertices - edges + (regions + 1) == 2


class TestValidation:
    @pytest.mark.parametrize(
        "fn",
        [regions_binomial, regions_polynomial, regions_binomial_sum, euler_counts, chord_count, intersection_count],
    )
    def test_m_below_one_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0)
