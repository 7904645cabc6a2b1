"""Acceptance gate: nine end-to-end criteria, each with a pass/fail line.

Every equality below is exact rational arithmetic — there are no
tolerances anywhere.  Criteria with a runtime budget assert it.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from recurlab import (
    LinearRecurrence,
    Polynomial,
    binomial,
    build_difference_table,
    count_faces,
    count_regions,
    euler_counts,
    hexagon_arrangement,
    infer_recurrence,
    iterate_recurrence,
    moser_terms,
    regions_binomial,
    regions_binomial_sum,
    regions_polynomial,
    solve_charpoly,
    to_moser_variable,
)
from recurlab.genfunc_solver import (
    build_ogf,
    extract_coefficient_formula,
    ogf_series,
    partial_fractions,
)
from recurlab.geometry import generic_arrangement

from conftest import series_from_terms

F = Fraction

REFERENCE_COUNTS = (1, 2, 4, 8, 16, 31, 57)


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    """Time a criterion's body and print exactly one PASS/FAIL line."""
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and not elapsed < budget:
            raise AssertionError(
                f"criterion {number} exceeded its runtime budget: "
                f"{elapsed:.3f}s >= {budget:.0f}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number}: {status} ({elapsed:.3f}s) — {label}")


def region_recurrence(n_terms: int = 7) -> LinearRecurrence:
    return infer_recurrence(build_difference_table(moser_terms(n_terms)))


def test_criterion_1_reference_table_all_symbolic_methods():
    with criterion(
        1,
        "all four symbolic methods give (1,2,4,8,16,31,57) for m=1..7",
        budget=1.0,
    ):
        for m, expected in enumerate(REFERENCE_COUNTS, start=1):
            assert regions_binomial(m) == expected
            assert regions_polynomial(m) == expected
            assert regions_binomial_sum(m) == expected
            assert euler_counts(m)[2] == expected
        assert moser_terms(7) == list(REFERENCE_COUNTS)


def test_criterion_2_recurrence_inference_from_six_terms():
    with criterion(
        2,
        "six terms infer coefficients (1,-4,6,-4,1), rhs 1, init (1,2,4,8)",
        budget=1.0,
    ):
        rec = region_recurrence(6)
        assert rec.coefficients == (F(1), F(-4), F(6), F(-4), F(1))
        assert rec.rhs == Polynomial.constant(1)
        assert rec.initial_conditions == (F(1), F(2), F(4), F(8))
        assert rec.order == 4


def test_criterion_3_characteristic_polynomial_route():
    with criterion(
        3,
        "charpoly route gives the exact quartic in n and in m",
    ):
        form = solve_charpoly(region_recurrence())
        assert form.method == "charpoly"
        expected_in_n = Polynomial((F(1), F(14, 24), F(11, 24), F(-2, 24), F(1, 24)))
        assert form.polynomial_form() == expected_in_n

        in_m = to_moser_variable(form)
        expected_in_m = Polynomial(
            (F(24, 24), F(-18, 24), F(23, 24), F(-6, 24), F(1, 24))
        )
        assert in_m == expected_in_m


def test_criterion_4_generating_function_route():
    with criterion(
        4,
        "OGF is (1-3x+4x^2-2x^3+x^4)/(1-x)^5; partial fractions "
        "(1,-2,4,-3,1) on powers 1..5; same quartic in m",
    ):
        rec = region_recurrence()
        rf = build_ogf(rec)
        assert rf == (Polynomial((1, -3, 4, -2, 1)), {F(1): 5})

        terms = partial_fractions(rf)
        assert terms == (
            (F(1), 1, F(1)),
            (F(1), 2, F(-2)),
            (F(1), 3, F(4)),
            (F(1), 4, F(-3)),
            (F(1), 5, F(1)),
        )

        form = extract_coefficient_formula(terms)
        in_m = to_moser_variable(form)
        assert in_m == Polynomial(
            (F(24, 24), F(-18, 24), F(23, 24), F(-6, 24), F(1, 24))
        )
        # Final values, not just the structure: the series reproduces the
        # reference counts term by term.
        assert ogf_series(*rf, 7) == [F(v) for v in REFERENCE_COUNTS]


def test_criterion_5_oracle_equivalence_sweep():
    with criterion(
        5,
        "m=1..200: all symbolic methods and both closed forms agree "
        "pairwise; m=1..100: forward iteration matches",
        budget=5.0,
    ):
        rec = region_recurrence()
        charpoly_form = solve_charpoly(rec)
        genfunc_form = extract_coefficient_formula(partial_fractions(build_ogf(rec)))
        assert charpoly_form.agrees_with(genfunc_form)

        for m in range(1, 201):
            reference = regions_binomial(m)
            assert regions_polynomial(m) == reference, m
            assert regions_binomial_sum(m) == reference, m
            assert euler_counts(m)[2] == reference, m
            assert charpoly_form.evaluate(m - 1) == reference, m
            assert genfunc_form.evaluate(m - 1) == reference, m

        iterated = iterate_recurrence(rec, 100)
        for i in range(100):
            assert iterated[i] == regions_binomial(i + 1), i + 1


def test_criterion_6_geometric_verification():
    with criterion(
        6,
        "m=1..12: exact construction matches the formula on two distinct "
        "layouts each, with V and E equal to the symbolic counts",
        budget=30.0,
    ):
        for m in range(1, 13):
            layouts = []
            for trial in (0, 1):
                arr = generic_arrangement(m, trial=trial)
                assert arr.general_position, (m, trial)
                vertices = m + binomial(m, 4)
                edges = m + binomial(m, 2) + 2 * binomial(m, 4)
                assert count_regions(arr) == (vertices, edges, regions_binomial(m)), (m, trial)
                layouts.append({p.triple for p in arr.points})
            assert layouts[0] != layouts[1], f"layouts for m={m} must differ"


def test_criterion_7_degeneracy_sensitivity():
    with criterion(
        7,
        "symmetric hexagon: 30 regions, general_position False, exactly "
        "one less than the formula's 31",
    ):
        arr = hexagon_arrangement()
        regions = count_regions(arr)[2]
        assert regions == 30
        assert arr.general_position is False
        assert regions_binomial(6) == 31
        assert regions_binomial(6) - regions == 1

        triple_points = [p for p in arr.interior_points if len(p.chords) == 3]
        assert len(triple_points) == 1
        assert triple_points[0].triple == (0, 0, 1)


def test_criterion_8_partial_fraction_identities():
    with criterion(
        8,
        "three pole decompositions verified by series expansion to depth 60",
    ):
        depth = 60
        cases = [
            # x^4/(1-x)^5 = 1/(1-x) - 4/(1-x)^2 + 6/(1-x)^3 - 4/(1-x)^4 + 1/(1-x)^5
            (
                (Polynomial.monomial(4), {F(1): 5}),
                ((F(1), 1, F(1)), (F(1), 2, F(-4)), (F(1), 3, F(6)),
                 (F(1), 4, F(-4)), (F(1), 5, F(1))),
            ),
            # -2x/(1-x)^4 = 2/(1-x)^3 - 2/(1-x)^4
            (
                (Polynomial((0, -2)), {F(1): 4}),
                ((F(1), 3, F(2)), (F(1), 4, F(-2))),
            ),
            # the full region OGF:
            # (1-3x+4x^2-2x^3+x^4)/(1-x)^5
            #   = 1/(1-x) - 2/(1-x)^2 + 4/(1-x)^3 - 3/(1-x)^4 + 1/(1-x)^5
            (
                (Polynomial((1, -3, 4, -2, 1)), {F(1): 5}),
                ((F(1), 1, F(1)), (F(1), 2, F(-2)), (F(1), 3, F(4)),
                 (F(1), 4, F(-3)), (F(1), 5, F(1))),
            ),
        ]
        for rf, expected_terms in cases:
            # The identity itself: both sides have the same series.
            assert series_from_terms(expected_terms, depth) == ogf_series(*rf, depth)
            # And the decomposer finds exactly the stated form.
            assert partial_fractions(rf) == expected_terms


def test_criterion_9_property_suites():
    with criterion(
        9,
        "Pascal (n<=64); series-coefficient identity (r<=6, n<=40); 100 "
        "random polynomial round trips; Euler identities",
    ):
        # Pascal's identity, exhaustively for n <= 64.
        for n in range(1, 65):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

        # [x^n] 1/(1-x)^r == C(n+r-1, n) for r <= 6, n <= 40.
        for r in range(1, 7):
            series = ogf_series(Polynomial.one(), {F(1): r}, 41)
            for n in range(41):
                assert series[n] == binomial(n + r - 1, n), (r, n)

        # Difference-table round trip on 100 random polynomials, degree <= 6.
        rng = random.Random(424242)
        for case in range(100):
            degree = rng.randint(0, 6)
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
            coeffs[-1] = coeffs[-1] if coeffs[-1] != 0 else F(1)
            poly = Polynomial(coeffs)
            length = degree + 4
            rec = infer_recurrence(build_difference_table(poly.evaluate(n) for n in range(length)))
            total = length + 10
            regenerated = iterate_recurrence(rec, total)
            for n in range(total):
                assert regenerated[n] == poly.evaluate(n), (case, n)

        # V - E + F = 2 for the symbolic counts...
        for m in range(1, 51):
            vertices, edges, regions = euler_counts(m)
            assert vertices - edges + (regions + 1) == 2

        # ...and for every constructed arrangement (disk Euler identity,
        # with F counted by an explicit face walk).
        arrangements = [generic_arrangement(m) for m in range(1, 9)]
        arrangements.append(hexagon_arrangement())
        for arr in arrangements:
            vertices, edges, regions = count_regions(arr)
            faces = count_faces(arr)
            assert faces == regions + 1
            assert vertices - edges + faces == 2
