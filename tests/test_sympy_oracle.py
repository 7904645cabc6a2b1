"""sympy as an outside oracle for both solver routes (skipped without sympy).

``sympy.rsolve`` solves each corpus recurrence on its own, and its answer
must equal both routes' closed forms symbolically.  ``sympy.apart``
decomposes each corpus OGF, and ``partial_fractions`` must find the same
terms.  sympy is a test-only dependency; the library itself imports
nothing outside the standard library.
"""

import pytest

from recurlab import build_ogf, extract_coefficient_formula, partial_fractions, solve_charpoly

from conftest import solver_corpus

sympy = pytest.importorskip("sympy")

n, x = sympy.symbols("n x")


def exact(value):
    return sympy.Rational(value.numerator, value.denominator)


def polynomial_expr(poly, variable):
    return sympy.Add(*(exact(c) * variable**i for i, c in enumerate(poly.coefficients)))


def closed_form_expr(form):
    return sympy.Add(*(polynomial_expr(poly, n) * exact(root) ** n for root, poly in form.terms))


def apart_terms(expr):
    """(r, p, c) for each term c/(1 - r x)^p of a sympy decomposition, sorted."""
    terms = []
    for term in sympy.Add.make_args(expr):
        ((pole, power),) = sympy.roots(sympy.denom(term), x).items()
        root = 1 / pole
        terms.append((root, power, sympy.cancel(term * (1 - root * x) ** power)))
    return sorted(terms)


@pytest.mark.parametrize("name, rec", solver_corpus(), ids=[name for name, _ in solver_corpus()])
def test_rsolve_matches_both_routes(name, rec):
    a = sympy.Function("a")
    ascending = reversed(rec.coefficients)
    equation = sympy.Add(*(exact(c) * a(n + k) for k, c in enumerate(ascending)))
    equation -= polynomial_expr(rec.rhs, n)
    initial = {a(i): exact(v) for i, v in enumerate(rec.initial_conditions)}
    expected = sympy.rsolve(equation, a(n), initial)
    assert expected is not None, name
    charpoly = solve_charpoly(rec)
    genfunc = extract_coefficient_formula(partial_fractions(build_ogf(rec)))
    for form in (charpoly, genfunc):
        assert sympy.simplify(closed_form_expr(form) - expected) == 0, (name, form.method)


@pytest.mark.parametrize("name, rec", solver_corpus(), ids=[name for name, _ in solver_corpus()])
def test_partial_fractions_match_apart(name, rec):
    rf = build_ogf(rec)
    numerator, factors = rf
    denominator = sympy.Mul(*((1 - exact(r) * x) ** p for r, p in factors.items()))
    expected = sympy.apart(polynomial_expr(numerator, x) / denominator, x)
    assert [(exact(r), p, exact(c)) for r, p, c in partial_fractions(rf)] == apart_terms(expected), name
