"""Characteristic-polynomial solver route.

The ground truth for closed forms is forward iteration: a closed form is
correct iff it reproduces the recurrence's own sequence term by term.
Root extraction is checked by reconstruction (multiply the factors back
together) and by Vieta-style spot values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    ClosedForm,
    ExactMatrix,
    LinearRecurrence,
    Polynomial,
    RootMultiplicity,
    SingularMatrixError,
    UnsupportedRootsError,
    characteristic_polynomial,
    gaussian_solve,
    iterate_recurrence,
    particular_solution,
    rational_roots,
    solve_charpoly,
    to_moser_variable,
)

from conftest import solver_corpus

F = Fraction


class TestCharacteristicPolynomial:
    def test_region_recurrence(self, moser_recurrence):
        chi = characteristic_polynomial(moser_recurrence)
        assert chi == Polynomial((1, -4, 6, -4, 1))
        assert chi == Polynomial((1, -1)) ** 4

    def test_two_distinct_roots(self):
        rec = LinearRecurrence((F(1), F(-5), F(6)), Polynomial.zero(), (F(2), F(5)))
        assert characteristic_polynomial(rec) == Polynomial((6, -5, 1))

    def test_order_one(self):
        rec = LinearRecurrence((F(1), F(-1)), Polynomial.zero(), (F(7),))
        assert characteristic_polynomial(rec) == Polynomial((-1, 1))


class TestRationalRoots:
    def test_quadruple_root_one(self):
        roots, residual = rational_roots(Polynomial((1, -4, 6, -4, 1)))
        assert roots == [RootMultiplicity(F(1), 4)]
        assert residual.degree == 0

    def test_distinct_integer_roots(self):
        roots, residual = rational_roots(Polynomial((6, -5, 1)))
        assert roots == [RootMultiplicity(F(2), 1), RootMultiplicity(F(3), 1)]
        assert residual.degree == 0

    def test_fractional_root(self):
        # (2r - 1)(r + 3) = 2r^2 + 5r - 3
        roots, residual = rational_roots(Polynomial((-3, 5, 2)))
        assert roots == [RootMultiplicity(F(-3), 1), RootMultiplicity(F(1, 2), 1)]
        assert residual.degree == 0

    def test_zero_roots_counted(self):
        # r^3 (r - 2)
        roots, residual = rational_roots(Polynomial((0, 0, 0, -2, 1)))
        assert roots == [RootMultiplicity(F(0), 3), RootMultiplicity(F(2), 1)]
        assert residual.degree == 0

    def test_irrational_residual(self):
        # r^2 - r - 1 has golden-ratio roots, no rational ones.
        roots, residual = rational_roots(Polynomial((-1, -1, 1)))
        assert roots == []
        assert residual == Polynomial((-1, -1, 1))

    def test_mixed_rational_and_irrational(self):
        # (1 - r)(r^2 - 2): only the rational root comes out; the residual
        # keeps the original leading coefficient, so deflating the root
        # factor from it reproduces the input exactly.
        poly = Polynomial((1, -1)) * Polynomial((-2, 0, 1))
        roots, residual = rational_roots(poly)
        assert roots == [RootMultiplicity(F(1), 1)]
        assert residual == Polynomial((2, 0, -1))
        assert residual * Polynomial((-1, 1)) == poly

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(Polynomial.zero())

    @given(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=1, max_size=5),
        st.fractions(min_value=1, max_value=5, max_denominator=2),
    )
    @settings(max_examples=100)
    def test_reconstruction(self, root_values, lead):
        # Build a polynomial from known roots, extract, and compare:
        # multiplicities must sum correctly and the factors must multiply
        # back to the original.
        poly = Polynomial.constant(lead)
        for r in root_values:
            poly = poly * Polynomial((-r, 1))
        roots, residual = rational_roots(poly)
        assert residual.degree == 0
        assert sum(rm.multiplicity for rm in roots) == len(root_values)
        rebuilt = residual
        for rm in roots:
            rebuilt = rebuilt * Polynomial((-rm.root, 1)) ** rm.multiplicity
        assert rebuilt == poly


class TestGaussianSolve:
    def test_three_by_three_quartic_fit(self):
        # The system that pins the quartic's n^2, n^3, n^4-free corrections.
        matrix = ExactMatrix.from_rows([[1, 1, 1], [2, 4, 8], [3, 9, 27]])
        rhs = [F(23, 24), F(56, 24), F(87, 24)]
        assert gaussian_solve(matrix, rhs) == [F(14, 24), F(11, 24), F(-2, 24)]

    def test_identity(self):
        matrix = ExactMatrix.from_rows([[1, 0], [0, 1]])
        assert gaussian_solve(matrix, [F(3), F(4)]) == [3, 4]

    def test_pivot_swap_needed(self):
        matrix = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert gaussian_solve(matrix, [F(5), F(6)]) == [6, 5]

    def test_singular_reports_rank(self):
        matrix = ExactMatrix.from_rows([[1, 1], [2, 2]])
        with pytest.raises(SingularMatrixError) as exc_info:
            gaussian_solve(matrix, [F(1), F(2)])
        assert exc_info.value.rank == 1

    def test_non_square_rejected(self):
        matrix = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            gaussian_solve(matrix, [F(1), F(2)])

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_solution_satisfies_system(self, rows, rhs):
        matrix = ExactMatrix.from_rows(rows)
        try:
            solution = gaussian_solve(matrix, rhs)
        except SingularMatrixError:
            return
        for row, target in zip(matrix.rows, rhs):
            assert sum(a * x for a, x in zip(row, solution)) == target


class TestParticularSolution:
    def test_region_recurrence_resonant_quartic(self, moser_recurrence):
        roots, _ = rational_roots(characteristic_polynomial(moser_recurrence))
        particular, shift = particular_solution(moser_recurrence, roots)
        assert shift == 4
        assert particular == Polynomial.monomial(4, F(1, 24))

    def test_geometric_with_constant_forcing(self):
        rec = LinearRecurrence((F(1), F(-2)), Polynomial.constant(1), (F(0),))
        roots, _ = rational_roots(characteristic_polynomial(rec))
        particular, shift = particular_solution(rec, roots)
        assert shift == 0
        assert particular == Polynomial.constant(-1)

    def test_double_root_constant_forcing(self):
        rec = LinearRecurrence((F(1), F(-2), F(1)), Polynomial.constant(2), (F(0), F(0)))
        roots, _ = rational_roots(characteristic_polynomial(rec))
        particular, shift = particular_solution(rec, roots)
        assert shift == 2
        assert particular == Polynomial.monomial(2)  # n^2

    def test_zero_rhs(self):
        rec = LinearRecurrence((F(1), F(-2)), Polynomial.zero(), (F(1),))
        roots, _ = rational_roots(characteristic_polynomial(rec))
        particular, shift = particular_solution(rec, roots)
        assert particular.is_zero
        assert shift == 0

    def test_particular_satisfies_recurrence_symbolically(self):
        # Substituting p(n + k) into the recurrence and summing must give
        # exactly the right-hand side as polynomials, not just pointwise.
        for name, rec in solver_corpus():
            roots, residual = rational_roots(characteristic_polynomial(rec))
            assert residual.degree == 0, name
            particular, _ = particular_solution(rec, roots)
            ascending = tuple(reversed(rec.coefficients))
            total = Polynomial.zero()
            for k, c in enumerate(ascending):
                if c:
                    total = total + c * particular.compose_shift(k)
            assert total == rec.rhs, name


class TestSolveCharpoly:
    def test_region_recurrence_closed_form(self, moser_recurrence):
        form = solve_charpoly(moser_recurrence)
        assert form.method == "charpoly"
        expected = Polynomial([F(c, 24) for c in (24, 14, 11, -2, 1)])
        assert form.polynomial_form() == expected

    def test_constant_sequence(self):
        rec = LinearRecurrence((F(1), F(-1)), Polynomial.zero(), (F(3),))
        form = solve_charpoly(rec)
        assert form.polynomial_form() == Polynomial.constant(3)

    def test_distinct_roots_sum_of_powers(self):
        rec = LinearRecurrence((F(1), F(-5), F(6)), Polynomial.zero(), (F(2), F(5)))
        form = solve_charpoly(rec)
        # a_n = 2^n + 3^n
        assert form.normalized_terms() == {F(2): (F(1),), F(3): (F(1),)}

    def test_fibonacci_rejected(self):
        rec = LinearRecurrence((F(1), F(-1), F(-1)), Polynomial.zero(), (F(0), F(1)))
        with pytest.raises(UnsupportedRootsError) as exc_info:
            solve_charpoly(rec)
        assert exc_info.value.residual.degree == 2

    def test_zero_root_rejected(self):
        # a_{n+2} = a_{n+1} has characteristic polynomial r^2 - r.
        rec = LinearRecurrence((F(1), F(-1), F(0)), Polynomial.zero(), (F(5), F(1)))
        with pytest.raises(UnsupportedRootsError):
            solve_charpoly(rec)

    def test_closed_forms_match_iteration_on_corpus(self):
        for name, rec in solver_corpus():
            form = solve_charpoly(rec)
            sequence = iterate_recurrence(rec, 60)
            for n in range(60):
                assert form.evaluate(n) == sequence[n], (name, n)

    def test_initial_conditions_reproduced(self):
        for name, rec in solver_corpus():
            form = solve_charpoly(rec)
            for n, a_n in enumerate(rec.initial_conditions):
                assert form.evaluate(n) == a_n, name


class TestClosedForm:
    def test_zero_polynomials_dropped_and_roots_sorted(self):
        form = ClosedForm(
            terms=((F(3), Polynomial.zero()), (F(2), Polynomial.one()), (F(1), Polynomial((0, 1)))),
            method="charpoly",
        )
        assert form.terms == ((F(1), Polynomial((0, 1))), (F(2), Polynomial.one()))

    def test_agreement_requires_same_offset(self):
        a = ClosedForm(terms=((F(1), Polynomial.one()),), method="charpoly")
        b = ClosedForm(terms=((F(1), Polynomial.one()),), method="genfunc", variable_offset=1)
        assert not a.agrees_with(b)

    def test_polynomial_form_none_for_exponentials(self):
        form = ClosedForm(terms=((F(2), Polynomial.one()),), method="charpoly")
        assert form.polynomial_form() is None

    def test_empty_form_is_zero(self):
        form = ClosedForm(terms=(), method="charpoly")
        assert form.evaluate(17) == 0
        assert form.polynomial_form() == Polynomial.zero()

    def test_describe_text_is_pinned(self):
        # Literal text: every root shape (integer, negative, fractional, 1),
        # polynomial and constant coefficients, in both variables.
        P = Polynomial
        cases = [
            (
                (
                    (F(3), P((2,))),
                    (F(-2), P((0, F(-1, 2)))),
                    (F(1, 2), P((F(1, 3), 0, 5))),
                    (F(-1, 3), P((-1,))),
                    (F(1), P((4, -1))),
                ),
                "((-{v})/2) * (-2)^{v} + (-1) * (-1/3)^{v} + ((15*{v}^2 + 1)/3) * (1/2)^{v}"
                " + -{v} + 4 + (2) * 3^{v}",
            ),
            (((F(-2), P((1,))),), "(-2)^{v}"),
            (((F(1, 2), P((0, 1))),), "({v}) * (1/2)^{v}"),
            (((F(-1, 3), P((F(-7, 3),))),), "((-7)/3) * (-1/3)^{v}"),
            (((F(1), P((1,))),), "1"),
            (((F(3), P((F(1, 6), F(-1, 2)))),), "((-3*{v} + 1)/6) * 3^{v}"),
            ((), "0"),
            (((F(2), P.zero()),), "0"),
        ]
        for terms, text in cases:
            for offset, v in ((0, "n"), (1, "m")):
                form = ClosedForm(terms=terms, method="charpoly", variable_offset=offset)
                assert form.describe() == text.format(v=v)


class TestToMoserVariable:
    def test_region_quartic(self, moser_recurrence):
        form = to_moser_variable(solve_charpoly(moser_recurrence))
        assert form.variable_offset == 1
        expected = Polynomial([F(c, 24) for c in (24, -18, 23, -6, 1)])
        assert form.polynomial_form() == expected
        # Evaluation is index-consistent: index n = m - 1 still feeds n.
        for m in range(1, 30):
            assert form.evaluate(m - 1) == solve_charpoly(moser_recurrence).evaluate(m - 1)

    def test_constant_form_unchanged(self):
        form = ClosedForm(terms=((F(1), Polynomial.constant(9)),), method="charpoly")
        shifted = to_moser_variable(form)
        assert shifted.polynomial_form() == Polynomial.constant(9)

    def test_exponential_rejected(self):
        form = ClosedForm(terms=((F(2), Polynomial.one()),), method="charpoly")
        with pytest.raises(ValueError):
            to_moser_variable(form)
