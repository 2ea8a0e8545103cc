from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probdowling import (Bernoulli, Binomial, Custom, DiscreteUniform,
                         Geometric, Params, PointMass, Poisson, PolyX,
                         check_bell_expansion,
                         check_bell_rwhitney, check_binom_bell,
                         check_binomial_inversion, check_convolution,
                         check_derivative, check_recurrence,
                         check_stirling_bell, check_sum_identity, dowling_poly,
                         whitney_prob)
from probdowling import dowling as dowling_mod
from probdowling import identities
from probdowling.cli import CHECK_X_POINTS

from oracles import convolution_monomials

MODELS = [PointMass(Fraction(1)), Bernoulli(Fraction(1, 2)),
          DiscreteUniform(2), Poisson(Fraction(1))]
PARAM_GRID = [Params(m, lam, 1) for m in (1, 2)
              for lam in (Fraction(0), Fraction(1, 2), Fraction(-1, 3))]
XS = [Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(3)]

# Broad coverage at full bounds lives in the acceptance suite; these grids
# keep per-module feedback fast.


@pytest.mark.parametrize("params", PARAM_GRID)
def test_sum_identity(params):
    for Y in MODELS:
        for n in range(5):
            for N in range(5):
                rep = check_sum_identity(Y, params, n, N)
                assert rep.passed, rep
                assert rep.lhs == rep.rhs


def test_sum_identity_frozen_value():
    rep = check_sum_identity(PointMass(Fraction(1)), Params(1, 0, 1), 2, 2)
    # copies are deterministic: (1)^2 + (2)^2 + (3)^2.
    assert rep.lhs == 14 and rep.passed
    rep0 = check_sum_identity(Bernoulli(Fraction(1, 2)), Params(2, 0, 1), 0, 3)
    assert rep0.lhs == 4 and rep0.passed


@pytest.mark.parametrize("n, N, value", [
    (4, 30, Fraction(63901726, 9)), (5, 2, Fraction(11690, 27))])
def test_sum_identity_reads_whitney_columns_up_to_n_only(monkeypatch, n, N,
                                                        value):
    # W(n, l) = 0 for l > n, so the right side reads min(n, N) + 1 columns
    # however large N is; the pinned values are those of the full sum.
    calls = []

    def counted(*args):
        calls.append(args)
        return whitney_prob(*args)

    monkeypatch.setattr(identities, "whitney_prob", counted)
    Y, params = Bernoulli(Fraction(1, 2)), Params(2, Fraction(1, 3), 1)
    rep = check_sum_identity(Y, params, n, N)
    assert len(calls) == min(n, N) + 1
    assert rep.passed and rep.lhs == rep.rhs == value
    assert rep.bounds == {"n": n, "N": N}


@pytest.mark.parametrize("params", PARAM_GRID)
def test_bell_expansion(params):
    for Y in MODELS:
        for n in range(5):
            rep = check_bell_expansion(Y, params, n)
            assert rep.passed, rep
            assert rep.rhs == dowling_poly(Y, params, n)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_recurrence(params):
    for Y in MODELS:
        for n in range(5):
            assert check_recurrence(Y, params, n).passed


@pytest.mark.parametrize("params", PARAM_GRID)
def test_convolution(params):
    for Y in MODELS:
        for n in range(5):
            assert check_convolution(Y, params, n).passed


KIND_MODELS = [PointMass(Fraction(2, 3)), Bernoulli(Fraction(1, 3)),
               Binomial(3, Fraction(2, 5)), DiscreteUniform(3),
               Poisson(Fraction(7, 3)), Geometric(Fraction(2, 3)),
               Custom(tuple(Fraction(v) for v in (
                   "1", "2/5", "3/11", "7/5", "13/11", "9/5", "24/11",
                   "16/5", "41/11")))]


@pytest.mark.parametrize("model", KIND_MODELS, ids=[
    "pointmass", "bernoulli", "binomial", "uniform", "poisson", "geometric",
    "custom"])
def test_convolution_sides_match_the_monomial_expansion(model):
    # Both sides, built as rows per power of y, equal the expansion of
    # every monomial x^i y^j, coefficient for coefficient.
    for m in (1, 2, 3):
        for lam in (Fraction(0), Fraction(-1, 2), Fraction(4, 3)):
            params = Params(m, lam, 1)
            for n in range(9):
                rows = [dowling_poly(model, params, k).coeffs
                        for k in range(n + 1)]
                rep = check_convolution(model, params, n)
                assert (rep.lhs, rep.rhs) == \
                    convolution_monomials(rows, lam), (m, lam, n)
                assert rep.passed


def test_convolution_defect_in_one_row_fails(monkeypatch):
    # D(3, x) gains x^2.  At n = 4 the left side gains 4 (x+y)^2 and the
    # right side 4 D(1, x) y^2 + 4 x^2 D(1, y), which has no x y term.
    real = identities.dowling_poly

    def perturbed(model, params, n):
        row = real(model, params, n)
        return row + PolyX((0, 0, 1)) if n == 3 else row

    monkeypatch.setattr(identities, "dowling_poly", perturbed)
    Y, params = Geometric(Fraction(1, 2)), Params(3, Fraction(1, 2))
    assert check_convolution(Y, params, 2).passed
    rep = check_convolution(Y, params, 4)
    assert not rep.passed


@pytest.mark.parametrize("params", PARAM_GRID)
def test_binom_bell(params):
    for Y in MODELS:
        for n in range(4):
            for x in XS:
                assert check_binom_bell(Y, params, n, x).passed


@pytest.mark.parametrize("params", PARAM_GRID)
def test_bell_rwhitney(params):
    for Y in MODELS:
        for n in range(4):
            for k in range(n + 1):
                for x in XS[:3]:
                    assert check_bell_rwhitney(Y, params, n, k, x).passed


@pytest.mark.parametrize("params", PARAM_GRID)
def test_stirling_bell(params):
    for Y in MODELS:
        for n in range(4):
            for k in range(n + 1):
                for x in XS[:3]:
                    assert check_stirling_bell(Y, params, n, k, x).passed


@pytest.mark.parametrize("params", PARAM_GRID)
def test_derivative(params):
    for Y in MODELS:
        for n in range(1, 5):
            for k in range(1, n + 1):
                assert check_derivative(Y, params, n, k).passed
    with pytest.raises(ValueError):
        check_derivative(MODELS[0], PARAM_GRID[0], 2, 3)


def test_checks_hold_at_degree_ten_spot():
    # The module invariant reaches n <= 10 (n <= 8 bivariate); the full
    # grid at n <= 8 runs in the acceptance suite, so spot-check the top.
    params = Params(2, Fraction(-1, 3), 1)
    for Y in (PointMass(Fraction(1)), Bernoulli(Fraction(1, 2))):
        assert check_sum_identity(Y, params, 10, 4).passed
        assert check_bell_expansion(Y, params, 10).passed
        assert check_recurrence(Y, params, 9).passed
        assert check_convolution(Y, params, 8).passed
        assert check_binom_bell(Y, params, 10, Fraction(5, 2)).passed
        assert check_bell_rwhitney(Y, params, 10, 4, Fraction(2)).passed
        assert check_stirling_bell(Y, params, 10, 4, Fraction(2)).passed
        assert check_derivative(Y, params, 10, 3).passed


@pytest.fixture
def cold_dowling_caches():
    # The proven sides are memoized per degree: start cold, and drop
    # whatever the test computed from a patched input.
    dowling_mod.clear_caches()
    yield
    dowling_mod.clear_caches()


def test_defect_vanishing_at_the_check_points_fails(monkeypatch,
                                                    cold_dowling_caches):
    # D(6, x) gains (7/5) prod (x - x_i) over the points `check` prints.  The
    # two sides still agree at each of those points, so a pass read off
    # the values would hide the defect; the polynomials differ.
    coeffs = [Fraction(7, 5)]
    for xi in CHECK_X_POINTS:
        # multiply by (x - xi)
        coeffs = [a - xi * b for a, b in zip([0] + coeffs, coeffs + [0])]
    bump = PolyX(tuple(coeffs))
    assert all(bump.evaluate(xi) == 0 for xi in CHECK_X_POINTS)
    assert len(bump.coeffs) == len(CHECK_X_POINTS) + 1
    real = identities.dowling_poly

    def perturbed(model, params, n):
        row = real(model, params, n)
        return row + bump if n == 6 else row

    monkeypatch.setattr(identities, "dowling_poly", perturbed)
    Y, params = Geometric(Fraction(1, 2)), Params(3, Fraction(1, 2))
    for x in CHECK_X_POINTS:
        for rep in (check_stirling_bell(Y, params, 6, 1, x),
                    check_bell_rwhitney(Y, params, 7, 1, x)):
            assert rep.lhs == rep.rhs
            assert not rep.passed, rep


@pytest.mark.parametrize("call,name", [
    (lambda Y, P: check_binom_bell(Y, P, -1, 2), "n"),
    (lambda Y, P: check_bell_rwhitney(Y, P, -1, 0, 2), "n"),
    (lambda Y, P: check_bell_rwhitney(Y, P, 3, -1, 2), "k"),
    (lambda Y, P: check_stirling_bell(Y, P, -1, 0, 2), "n"),
    (lambda Y, P: check_stirling_bell(Y, P, 3, -1, 2), "k"),
    (lambda Y, P: check_convolution(Y, P, -1), "n"),
    (lambda Y, P: check_sum_identity(Y, P, 3, -1), "N"),
    (lambda Y, P: check_recurrence(Y, P, -1), "n"),
    (lambda Y, P: check_bell_expansion(Y, P, -1), "n"),
], ids=["binom_bell-n", "bell_rwhitney-n", "bell_rwhitney-k",
        "stirling_bell-n", "stirling_bell-k", "convolution-n",
        "sum_identity-N", "recurrence-n", "bell_expansion-n"])
def test_x_identities_reject_negative_indices(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
        call(MODELS[1], PARAM_GRID[1])


def test_x_identity_verdict_is_stored_once(monkeypatch, cold_dowling_caches):
    # The sides of one degree are compared once, when they are built; the
    # checks at each printed x read that verdict.
    calls = []
    real_eq = PolyX.__eq__

    def counted_eq(self, other):
        calls.append(1)
        return real_eq(self, other)

    Y, params = Geometric(Fraction(1, 2)), Params(3, Fraction(1, 2))
    monkeypatch.setattr(PolyX, "__eq__", counted_eq)
    reports = [check_binom_bell(Y, params, 4, x) for x in CHECK_X_POINTS]
    assert all(rep.passed for rep in reports)
    assert len(calls) == 1


def test_each_bell_row_is_built_once(monkeypatch, cold_dowling_caches):
    # The Bell rows are memoized by argument prefix, so the battery's
    # degrees 0..12 in turn multiply as many polynomials as one cold
    # call at degree 12 does.
    calls = []
    real_mul = PolyX.__mul__

    def counted_mul(self, other):
        if isinstance(other, PolyX):
            calls.append(1)
        return real_mul(self, other)

    Y, params = Geometric(Fraction(1, 2)), Params(3, Fraction(1, 2))
    x = Fraction(1, 2)
    monkeypatch.setattr(PolyX, "__mul__", counted_mul)
    for n in range(13):
        check_stirling_bell(Y, params, n, 0, x)
    ascending = len(calls)
    dowling_mod.clear_caches()
    calls.clear()
    check_stirling_bell(Y, params, 12, 0, x)
    assert ascending == len(calls) > 0


def test_equal_sides_are_evaluated_once(monkeypatch, cold_dowling_caches):
    # A passing x-report evaluates one side and reports its value twice.
    Y, params = Geometric(Fraction(1, 2)), Params(3, Fraction(1, 2))
    check_binom_bell(Y, params, 4, Fraction(0))    # build the sides first
    calls = []
    real_evaluate = PolyX.evaluate

    def counted_evaluate(self, x):
        calls.append(1)
        return real_evaluate(self, x)

    monkeypatch.setattr(PolyX, "evaluate", counted_evaluate)
    rep = check_binom_bell(Y, params, 4, Fraction(3, 2))
    assert rep.passed and rep.lhs == rep.rhs
    assert len(calls) == 1


def test_binomial_inversion_frozen():
    assert check_binomial_inversion([1, 0, 0, 0]).passed
    assert check_binomial_inversion([1, 2, 4, 8]).passed
    rep = check_binomial_inversion([Fraction(5, 3)])
    assert rep.lhs == rep.rhs == (Fraction(5, 3),)


@given(seq=st.lists(st.fractions(min_value=-9, max_value=9,
                                 max_denominator=12), min_size=1, max_size=10))
def test_binomial_inversion_round_trip(seq):
    assert check_binomial_inversion(seq).passed


def test_reports_carry_both_sides():
    rep = check_recurrence(MODELS[1], PARAM_GRID[1], 3)
    assert rep.lhs == rep.rhs
    assert rep.theorem_id == "recurrence"
    assert rep.bounds == {"n": 3}
    assert rep.model == MODELS[1]
    assert rep.params == PARAM_GRID[1]
