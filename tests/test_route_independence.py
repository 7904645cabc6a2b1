"""Each solver route survives a fault planted in the other route's solver.

The characteristic-polynomial route fits its initial conditions with
``gaussian_solve`` and turns the binomial-basis amplitudes into
polynomials with ``_binomial_basis_polynomial``; the generating-function
route reads its partial fractions off ``ogf_series``.
Neither calls the other's, so a broken solver must move only its own
route, and ``solve --method both`` must then report a disagreement
(exit 1) instead of two routes agreeing on the same wrong answer.
"""

import sys

import pytest

import recurlab
from recurlab import (
    Polynomial,
    build_ogf,
    extract_coefficient_formula,
    ogf_series,
    partial_fractions,
    solve_charpoly,
)
from recurlab.cli import main
from recurlab.recurrence_solver import _binomial_basis_polynomial

from conftest import solver_corpus

DEPTH = 40


def genfunc_form(rec):
    return extract_coefficient_formula(partial_fractions(build_ogf(rec)))


def patch_every_binding(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every loaded recurlab module."""
    patched = 0
    for name, module in list(sys.modules.items()):
        if name != "recurlab" and not name.startswith("recurlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                patched += 1
    assert patched, "nothing to patch"


@pytest.fixture
def corpus_forms():
    """Both routes' closed forms for the corpus, computed before any fault."""
    return [(name, rec, solve_charpoly(rec), genfunc_form(rec)) for name, rec in solver_corpus()]


@pytest.fixture
def broken_gaussian_solve(monkeypatch):
    original = recurlab.gaussian_solve

    def off_by_one(matrix, rhs):
        return [x + 1 for x in original(matrix, rhs)]

    patch_every_binding(monkeypatch, original, off_by_one)


@pytest.fixture
def broken_series(monkeypatch):
    def off_by_one(numerator, factors, depth):
        return [x + 1 for x in ogf_series(numerator, factors, depth)]

    patch_every_binding(monkeypatch, ogf_series, off_by_one)


@pytest.fixture
def flipped_stirling_sign(monkeypatch):
    def flipped(amplitudes):
        # Stirling's s(2, 1) = -1 read as +1: C(n, 2) becomes n(n + 1)/2,
        # which is the true C(n, 2) plus n.
        poly = _binomial_basis_polynomial(amplitudes)
        if len(amplitudes) > 2:
            poly = poly + Polynomial((0, amplitudes[2]))
        return poly

    patch_every_binding(monkeypatch, _binomial_basis_polynomial, flipped)


def solve_moser_both(capsys):
    code = main(["solve", "--moser", "8", "--method", "both"])
    return code, capsys.readouterr().out


class TestBrokenGaussianSolve:
    def test_genfunc_route_unchanged(self, corpus_forms, broken_gaussian_solve):
        for name, rec, charpoly, genfunc in corpus_forms:
            form = genfunc_form(rec)
            assert form == genfunc, name
            series = ogf_series(*build_ogf(rec), DEPTH)
            assert [form.evaluate(n) for n in range(DEPTH)] == series, name
            assert not solve_charpoly(rec).agrees_with(charpoly), name

    def test_cli_reports_disagreement(self, broken_gaussian_solve, capsys):
        code, out = solve_moser_both(capsys)
        assert code == 1
        assert "methods agree: NO" in out.splitlines()


class TestBrokenSeries:
    def test_charpoly_route_unchanged(self, corpus_forms, broken_series):
        for name, rec, charpoly, genfunc in corpus_forms:
            assert solve_charpoly(rec) == charpoly, name
            assert not genfunc_form(rec).agrees_with(genfunc), name

    def test_cli_reports_disagreement(self, broken_series, capsys):
        code, out = solve_moser_both(capsys)
        assert code == 1
        assert "methods agree: NO" in out.splitlines()


class TestFlippedStirlingSign:
    def test_genfunc_route_unchanged(self, corpus_forms, flipped_stirling_sign):
        moved = 0
        for name, rec, charpoly, genfunc in corpus_forms:
            assert genfunc_form(rec) == genfunc, name
            moved += not solve_charpoly(rec).agrees_with(charpoly)
        assert moved

    def test_cli_reports_disagreement(self, flipped_stirling_sign, capsys):
        code, out = solve_moser_both(capsys)
        assert code == 1
        assert "methods agree: NO" in out.splitlines()

    def test_verify_fails_solver_routes_agree(self, flipped_stirling_sign, capsys):
        code = main(["verify", "--max-m", "12", "--geom-cap", "10"])
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert code == 1
        assert any(line.startswith("FAIL solver-routes-agree") for line in failed), failed
