"""The structural solvers against the dense linear systems they replaced.

``particular_solution`` (power moments) and ``partial_fractions`` (local
expansion at each root) used to build a square exact system and hand it
to ``gaussian_solve``.  Test-local copies of those dense versions serve as
references here: on the solver corpus and on seeded random recurrences
with repeated, negative and fractional roots, both results must be
identical, not merely equivalent.

``solve_charpoly`` fits its initial conditions in the binomial basis
C(n, j) r^n and converts each root's amplitudes to a polynomial; that
conversion is checked against ``math.comb`` directly, and the whole route
against the generating-function route and forward iteration.
"""

import math
import random
from fractions import Fraction

import pytest

from recurlab import (
    LinearRecurrence,
    Polynomial,
    build_ogf,
    characteristic_polynomial,
    extract_coefficient_formula,
    gaussian_solve,
    iterate_recurrence,
    ogf_series,
    particular_solution,
    partial_fractions,
    rational_roots,
    solve_charpoly,
)
from recurlab.recurrence_solver import _binomial_basis_polynomial

from conftest import solver_corpus

F = Fraction

ROOT_POOL = (F(1), F(2), F(-1), F(3), F(1, 2), F(-2, 3), F(5))
RANDOM_CASES = 300


def dense_particular_solution(rec, roots):
    """Undetermined coefficients by composing shifted monomials and elimination."""
    rhs = rec.rhs
    shift = roots.get(1, 0)
    if rhs.is_zero:
        return Polynomial.zero()
    degree = rhs.degree
    ascending = tuple(reversed(rec.coefficients))
    images = []
    for i in range(degree + 1):
        monomial = Polynomial.monomial(shift + i)
        image = Polynomial.zero()
        for k, c_k in enumerate(ascending):
            if c_k:
                image = image + c_k * monomial.compose_shift(k)
        assert image.degree <= degree
        images.append(image)
    matrix = [[img.coefficient(j) for img in images] for j in range(degree + 1)]
    amplitudes = gaussian_solve(matrix, [rhs.coefficient(j) for j in range(degree + 1)])
    particular = Polynomial.zero()
    for i, amplitude in enumerate(amplitudes):
        particular = particular + Polynomial.monomial(shift + i, amplitude)
    return particular


def dense_partial_fractions(rf):
    """Partial-fraction terms of a proper (numerator, factors) ``rf`` from the
    confluent-Vandermonde system."""
    numerator, factors = rf
    total = sum(factors.values())
    layout = [(root, k) for root, power in factors.items() for k in range(1, power + 1)]
    basis_polys = []
    for root, k in layout:
        poly = Polynomial.one()
        for other_root, power in factors.items():
            reduced = power - k if other_root == root else power
            if reduced:
                poly = poly * Polynomial((1, -other_root)) ** reduced
        basis_polys.append(poly)
    matrix = [[poly.coefficient(j) for poly in basis_polys] for j in range(total)]
    coeffs = gaussian_solve(matrix, [numerator.coefficient(j) for j in range(total)])
    return tuple((root, k, coeff) for (root, k), coeff in zip(layout, coeffs) if coeff)


def random_rational(rng, bound=9, max_denominator=4):
    return F(rng.randint(-bound, bound), rng.randint(1, max_denominator))


def random_recurrence(rng):
    """1-4 distinct roots from ROOT_POOL, multiplicities 1-3, rhs degree <= 3."""
    chi = Polynomial.one()
    for root in rng.sample(ROOT_POOL, rng.randint(1, 4)):
        chi = chi * Polynomial((-root, 1)) ** rng.randint(1, 3)
    degree = rng.randint(-1, 3)
    rhs = Polynomial(random_rational(rng) for _ in range(degree + 1))
    order = chi.degree
    initial = tuple(random_rational(rng) for _ in range(order))
    return LinearRecurrence(tuple(reversed(chi.coefficients)), rhs, initial)


def roots_of(rec):
    roots, residual = rational_roots(characteristic_polynomial(rec))
    assert residual.degree == 0
    return roots


@pytest.fixture(scope="module")
def random_cases():
    """(recurrence, its roots, its OGF) for RANDOM_CASES seeded recurrences."""
    rng = random.Random(20240606)
    recs = [random_recurrence(rng) for _ in range(RANDOM_CASES)]
    return [(rec, roots_of(rec), build_ogf(rec)) for rec in recs]


class TestParticularSolutionMatchesDenseSystem:
    def test_corpus(self):
        for name, rec in solver_corpus():
            roots = roots_of(rec)
            assert particular_solution(rec, roots) == dense_particular_solution(rec, roots), name

    def test_random_recurrences(self, random_cases):
        for rec, roots, _ in random_cases:
            assert particular_solution(rec, roots) == dense_particular_solution(rec, roots), rec

    @pytest.mark.parametrize("claimed", [0, 3, 5])
    def test_misstated_multiplicity_of_one_rejected(self, moser_recurrence, claimed):
        # chi = (r - 1)^4; any other multiplicity of 1 must be refused.
        roots = {F(1): claimed} if claimed else {}
        with pytest.raises(AssertionError):
            particular_solution(moser_recurrence, roots)

    def test_misstated_multiplicity_with_other_roots(self):
        # (r - 1)^2 (r - 2) with rhs n: claiming 1 or 3 for root 1 is wrong.
        chi = Polynomial((-1, 1)) ** 2 * Polynomial((-2, 1))
        rec = LinearRecurrence(tuple(reversed(chi.coefficients)), Polynomial((0, 1)), (F(0),) * 3)
        for claimed in (1, 3):
            roots = {F(1): claimed, F(2): 1}
            with pytest.raises(AssertionError):
                particular_solution(rec, roots)


class TestPartialFractionsMatchDenseSystem:
    def test_corpus(self):
        for name, rec in solver_corpus():
            rf = build_ogf(rec)
            assert partial_fractions(rf) == dense_partial_fractions(rf), name

    def test_random_recurrences(self, random_cases):
        for rec, _, rf in random_cases:
            assert ogf_series(*rf, 40) == list(iterate_recurrence(rec, 40)), rec
            assert rf[0].degree < sum(rf[1].values()), rec
            assert partial_fractions(rf) == dense_partial_fractions(rf), rec


class TestBinomialBasis:
    def test_conversion_matches_comb(self):
        rng = random.Random(20261019)
        for length in range(1, 41):
            amplitudes = [random_rational(rng, bound=99, max_denominator=12) for _ in range(length)]
            poly = _binomial_basis_polynomial(amplitudes)
            for n in range(length + 6):
                expected = sum(a * math.comb(n, j) for j, a in enumerate(amplitudes))
                assert poly.evaluate(n) == expected, (amplitudes, n)

    def test_resonant_recurrences_match_genfunc_and_iteration(self):
        # Root 1 is always present, so the polynomial right-hand side
        # resonates; the other roots are negative, fractional or both, and
        # every root has multiplicity up to 6.
        rng = random.Random(20261020)
        pool = (F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4))
        for _ in range(40):
            chi = Polynomial((-1, 1)) ** rng.randint(1, 6)
            for root in rng.sample(pool, rng.randint(0, 2)):
                chi = chi * Polynomial((-root, 1)) ** rng.randint(1, 6)
            lead = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            rhs = Polynomial([*(random_rational(rng) for _ in range(rng.randint(0, 3))), lead])
            initial = tuple(random_rational(rng) for _ in range(chi.degree))
            rec = LinearRecurrence(tuple(reversed(chi.coefficients)), rhs, initial)
            form = solve_charpoly(rec)
            genfunc = extract_coefficient_formula(partial_fractions(build_ogf(rec)))
            assert form.terms == genfunc.terms, rec
            assert [form.evaluate(n) for n in range(40)] == list(iterate_recurrence(rec, 40)), rec
