import ast
import math
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probdowling import (Bernoulli, Binomial, Custom, DiscreteUniform,
                         Geometric, Params, PointMass, Poisson, PolyX,
                         bell_partial_series, clear_caches, degen_falling,
                         dobinski_eval, dowling_poly, dowling_poly_r,
                         egf_coeff, egf_const, egf_degen_exp, egf_mul,
                         egf_scale,
                         egf_mgf_degen, model_from_config,
                         model_to_config, raw_moment, stirling2,
                         stirling2_degen, stirling2_prob, sum_degen_moment,
                         whitney_prob, whitney_prob_r)
from probdowling import bell as bell_mod
from probdowling import dowling as dowling_mod
from probdowling import moments as moments_mod
from probdowling.moments import falling_row
from probdowling.dowling import WHITNEY_ROUTES, POLY_ZERO
from probdowling.series import egf_mul_coeff

from oracles import (bell_numbers, egf_exp, egf_pow, egf_sub, poly_add,
                     poly_derivative, poly_eval, poly_mul, poly_scale,
                     poly_shift_up, stirling2_brute, stirling2_degen_carlitz)

PM1 = PointMass(Fraction(1))
BE = Bernoulli(Fraction(1, 2))
P213 = Params(2, Fraction(1, 3), 1)
lam_values = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]

# Evaluation points for polynomial-identity checks: degree+1 distinct
# points pin a polynomial of that degree exactly.
def xpoints(degree):
    return [Fraction(i, 2) for i in range(-1, degree + 1)]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_returns_the_values_it_states():
    # Run README's library example statement by statement: each
    # expression's value must be the Fraction its comment names.
    text = README.read_text().split("## Library example", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        stated = re.search(r"#.*Fraction\((\d+), (\d+)\)",
                           lines[stmt.lineno - 1])
        if stated:
            assert value == Fraction(int(stated[1]), int(stated[2])), code
        values.append(value)
    assert values == [Fraction(11, 6), Fraction(11, 6), Fraction(23, 6),
                      Fraction(11, 4)]


def test_polyx_behavior():
    p = PolyX((Fraction(1), Fraction(2), Fraction(0)))
    assert p.coeffs == (1, 2)
    assert p == PolyX((1, 2))
    assert p.evaluate(Fraction(1, 2)) == 2
    assert p.derivative() == PolyX((2,))
    assert p.shift_up() == PolyX((0, 1, 2))
    assert (p + PolyX((0, -2))) == PolyX((1,))
    assert 3 * p == PolyX((3, 6))
    assert PolyX(()).coeffs == (0,)


def test_polyx_product():
    p = PolyX((1, 2, 0))
    assert p * PolyX((-1, 2)) == PolyX((-1, 0, 4))
    assert p * POLY_ZERO == POLY_ZERO
    assert (p * p).evaluate(Fraction(-3, 2)) == p.evaluate(Fraction(-3, 2))**2


# Coefficient lists with ints and Fractions mixed, zeros and trailing
# zeros common, and some large numerators and denominators.
POLY_COEFFS = st.one_of(st.integers(-3, 3),
                        st.fractions(-3, 3, max_denominator=6),
                        st.fractions(max_denominator=10 ** 12))
POLY_LISTS = st.lists(POLY_COEFFS, max_size=6)


def _trimmed(ref):
    # The canonical coefficient list: no trailing zeros, [0] for zero.
    ref = list(ref)
    while ref and not ref[-1]:
        ref.pop()
    return ref or [Fraction(0)]


def _matches(poly, ref):
    # Equal to the reference as a polynomial, and holding exactly its
    # coefficients without trailing zeros.
    ref = _trimmed(ref)
    return poly == PolyX(tuple(ref)) and list(poly.coeffs) == ref


@given(a=POLY_LISTS, b=POLY_LISTS, c=POLY_COEFFS,
       x=st.fractions(-4, 4, max_denominator=7), order=st.integers(0, 7))
def test_polyx_matches_the_fraction_list_reference(a, b, c, x, order):
    p, q = PolyX(tuple(a)), PolyX(tuple(b))
    a, b = a or [0], b or [0]
    assert _matches(p + q, poly_add(a, b))
    assert _matches(p * q, poly_mul(a, b))
    assert _matches(c * p, poly_scale(c, a))
    assert _matches(p * c, poly_scale(c, a))
    assert p.evaluate(x) == poly_eval(a, x)
    assert (p * q).evaluate(x) == poly_eval(a, x) * poly_eval(b, x)
    assert _matches(p.derivative(order), poly_derivative(a, order))
    assert _matches(p.shift_up(), poly_shift_up(a))
    assert list(p.coeffs) == _trimmed(a)


@given(a=POLY_LISTS, zeros=st.integers(1, 3))
def test_polyx_equal_by_any_path_compare_and_hash_equal(a, zeros):
    p = PolyX(tuple(a))
    for other in (PolyX(tuple(a) + (0,) * zeros),
                  PolyX(tuple(a) + (Fraction(0),) * zeros),
                  p * Fraction(1, 2) * 2, 2 * (Fraction(1, 2) * p),
                  p + POLY_ZERO, POLY_ZERO + p, p * PolyX((1, 0))):
        assert p == other and other == p and not p != other
        assert hash(p) == hash(other)
    zero = p * 0
    for other in (POLY_ZERO, PolyX(()), PolyX((0, 0)), p + (-1) * p,
                  zero.shift_up(), PolyX((5,)).derivative()):
        assert zero == other and hash(zero) == hash(other)
        assert other.coeffs == (0,) and other.evaluate(3) == 0


def test_polyx_derivative_past_the_degree_is_zero_at_once():
    # Each coefficient is read once, whatever the order.
    p = PolyX((1, 2, 3))
    assert p.derivative(10 ** 12) == POLY_ZERO
    assert list(p.derivative(10 ** 12).coeffs) == [0]
    assert list(p.derivative(2).coeffs) == [6]


def test_polyx_arithmetic_builds_one_fraction_per_value(monkeypatch):
    # Products, sums, scalar multiples, shifts and derivatives work on the
    # integer numerators; a value at x builds its one Fraction at the end.
    a = [Fraction(1, 3), -2, Fraction(5, 7)]
    b = [Fraction(-3, 4), 0, 1, Fraction(2, 9)]
    p, q, x = PolyX(tuple(a)), PolyX(tuple(b)), Fraction(-5, 2)
    sixth = Fraction(1, 6)
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    r = (p * q + q) * 3 + p.shift_up().derivative(2) * sixth
    assert built == []
    value = r.evaluate(x)
    assert len(built) == 1
    monkeypatch.undo()
    ref = poly_add(poly_scale(3, poly_add(poly_mul(a, b), b)),
                   poly_scale(sixth, poly_derivative(poly_shift_up(a), 2)))
    assert value == poly_eval(ref, x)
    assert _matches(r, ref)


def test_stirling2_frozen_and_brute():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(3, 5) == 0
    for n in range(8):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_brute(n, k)


def test_stirling2_degen_frozen():
    lam = Fraction(1, 3)
    for n in range(6):
        assert stirling2_degen(n, n, lam) == 1
    assert stirling2_degen(2, 1, lam) == Fraction(2, 3)
    for n in range(9):
        for k in range(n + 1):
            assert stirling2_degen(n, k, Fraction(0)) == stirling2(n, k)
    with pytest.raises(ValueError):
        stirling2_degen(-1, 0, lam)
    with pytest.raises(ValueError):
        stirling2_degen(3, -1, lam)


@pytest.mark.parametrize("lam", lam_values)
def test_stirling2_degen_defining_relation(lam):
    # (x)_{n,lam} = sum_k S2_lam(n,k) (x)_k as a polynomial identity in x.
    for n in range(9):
        for x in xpoints(n):
            expanded = sum(stirling2_degen(n, k, lam)
                           * degen_falling(x, k, 1) for k in range(n + 1))
            assert expanded == degen_falling(x, n, lam)


@pytest.mark.parametrize("lam", lam_values)
def test_stirling2_prob_point_mass_bridge(lam):
    for n in range(9):
        for k in range(n + 1):
            assert stirling2_prob(PM1, n, k, lam) == \
                stirling2_degen(n, k, lam)


@pytest.mark.parametrize("lam", [Fraction(-3, 2), Fraction(-1, 3),
                                 Fraction(0), Fraction(2, 5), Fraction(1)])
def test_stirling2_degen_matches_the_fraction_carlitz_rows(lam):
    # The stored row holds the integers den(lam)^(n-k) S(n, k); each read
    # divides once, and must equal the recurrence run in Fractions.
    for n in range(13):
        assert [stirling2_degen(n, k, lam) for k in range(n + 1)] == \
            stirling2_degen_carlitz(n, lam), n
        assert all(type(t) is int for t in dowling_mod._stirling2_degen_row(
            n, lam.numerator, lam.denominator)), n


def test_stirling_bridge_sides_reach_different_memo_tables():
    # stirling2_degen reads its own recurrence row; only stirling2_prob goes
    # through the series power, so the bridge compares two computations.
    lam = Fraction(1, 3)
    dowling_mod.clear_caches()
    bell_mod.clear_caches()
    degen = stirling2_degen(6, 3, lam)
    assert bell_partial_series.cache_info().misses == 0
    assert stirling2_prob(PM1, 6, 3, lam) == degen
    assert bell_partial_series.cache_info().misses > 0


def test_cold_deep_stirling2_degen_row_stays_shallow():
    # A cold row 200 must not recurse row by row down to row 0.
    lam = Fraction(-1, 3)
    dowling_mod.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        first = stirling2_degen(200, 1, lam)
    finally:
        sys.setrecursionlimit(limit)
    # S(n, 1) is coefficient n of e_lam(t) - 1, i.e. (1)_{n,lam}.
    assert first == degen_falling(1, 200, lam)
    assert stirling2_degen(200, 200, lam) == 1


def test_cold_deep_falling_row_stays_shallow():
    # The first-kind row: a cold row 200 must not recurse row by row either.
    lam = Fraction(-1, 3)
    moments_mod.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        row = falling_row(2, 200, lam)
    finally:
        sys.setrecursionlimit(limit)
    assert row[0] == degen_falling(2, 200, lam)
    assert row[200] == 1


def test_cold_deep_bell_rows_stay_shallow():
    # A cold Bell row 120 must not recurse row by row down to row 0.  At
    # x_i = 1, B_{n,k} is the Stirling number S(n, k).
    dowling_mod.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        rows = bell_mod.bell_partial_rows(120, [1] * 120, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert rows[120] == tuple(stirling2(120, k) for k in range(121))


def test_stirling2_prob_examples():
    assert stirling2_prob(BE, 0, 0, Fraction(2, 7)) == 1
    assert stirling2_prob(BE, 1, 1, Fraction(2, 7)) == Fraction(1, 2)


@pytest.mark.parametrize("n,k", [(-1, 0), (0, -1), (-2, -1), (3, -1)])
def test_stirling2_prob_rejects_negative_indices(n, k):
    # Like stirling2 and stirling2_degen, and before the k > n shortcut.
    with pytest.raises(ValueError, match="nonnegative"):
        stirling2_prob(PM1, n, k, 0)


def test_whitney_frozen_values():
    assert whitney_prob(BE, P213, 0, 0) == 1
    for route in WHITNEY_ROUTES:
        assert whitney_prob(PM1, P213, 2, 1, route) == Fraction(11, 3)
        assert whitney_prob(BE, P213, 2, 1, route) == Fraction(11, 6)
    assert whitney_prob(BE, P213, 2, 5) == 0


def test_whitney_four_route_agreement_small_grid():
    # Exhaustive r = 1 coverage at full bounds lives in the acceptance suite.
    Y = Poisson(Fraction(1))
    for r in (0, 1, 2, 3):
        for m in (1, 2):
            for lam in (Fraction(0), Fraction(-1, 3)):
                params = Params(m, lam, r)
                for n in range(6):
                    for k in range(n + 1):
                        values = {route: whitney_prob_r(Y, params, n, k, route)
                                  for route in WHITNEY_ROUTES}
                        assert len(set(values.values())) == 1, \
                            (r, m, lam, n, k, values)


@pytest.mark.parametrize("r", [0, 2])
@pytest.mark.parametrize("model", [
    Geometric(Fraction(1, 3)),
    Custom((Fraction(1),) + tuple(Fraction(j + 2, j + 1) for j in range(16))),
], ids=["geometric", "custom"])
def test_whitney_four_route_agreement_deep(model, r):
    # Every W(n, k) for n <= 16; the custom list declares moments up to
    # order 16 only, so no route may read a moment past n.
    params = Params(2, Fraction(1, 3), r)
    for n in range(17):
        for k in range(n + 1):
            values = {route: whitney_prob_r(model, params, n, k, route)
                      for route in WHITNEY_ROUTES}
            assert len(set(values.values())) == 1, (n, k, values)


@pytest.mark.parametrize("r", [0, 2])
def test_whitney_four_route_agreement_mixed_denominators(r):
    # Moments over 5 and 11 and lam = 2/7 give terms with coprime
    # denominators, so every inner sum grows its common denominator.
    model = Custom(tuple(Fraction(v) for v in (
        "1", "2/5", "3/11", "7/5", "13/11", "9/5", "24/11", "16/5", "41/11",
        "27/5", "68/11")))
    params = Params(3, Fraction(2, 7), r)
    for n in range(11):
        for k in range(n + 1):
            values = {route: whitney_prob_r(model, params, n, k, route)
                      for route in WHITNEY_ROUTES}
            assert len(set(values.values())) == 1, (n, k, values)


STORE_MODELS = [PointMass(Fraction(2, 3)), Bernoulli(Fraction(1, 3)),
                Binomial(3, Fraction(2, 5)), DiscreteUniform(3),
                Poisson(Fraction(7, 3)), Geometric(Fraction(2, 3)),
                Custom(tuple(Fraction(v) for v in (
                    "1", "2/5", "3/11", "7/5", "13/11", "9/5", "24/11",
                    "16/5", "41/11", "27/5", "68/11")))]


@pytest.mark.parametrize("model", STORE_MODELS, ids=[
    "pointmass", "bernoulli", "binomial", "uniform", "poisson", "geometric",
    "custom"])
def test_whitney_store_holds_scaled_numbers(model):
    # Column k of the store holds T(n, k) = L^n W(n, k), n = k, k + 1, ...,
    # with L the kernel's scale and W read from the bell_form route.
    for m in (1, 2, 3):
        for lam in (Fraction(0), Fraction(-1, 2), Fraction(4, 3)):
            base = moments_mod.scaled_kernel(model, m, lam, 0)[1]
            for r in (0, 1, 3):
                params = Params(m, lam, r)
                dowling_poly_r(model, params, 10)
                cols = dowling_mod._whitney_rows(model, params)[1]
                for k in range(11):
                    assert cols[k][:11 - k] == [
                        base ** n * whitney_prob_r(model, params, n, k,
                                                   "bell_form")
                        for n in range(k, 11)], (m, lam, r, k)


def test_whitney_growth_refuses_a_weight_m_does_not_divide(monkeypatch):
    # Every true kernel makes G_j = K_(j+1) + j lam L K_j a multiple of m.
    # With K_3 off by one, G_2 is not: the growth must raise, never store
    # or return a truncated row.
    model, params = Poisson(Fraction(7, 3)), Params(2, Fraction(1, 3), 1)
    dowling_mod.clear_caches()
    kernel = dowling_mod.scaled_kernel

    def skewed(model, scale, lam, order):
        ints, base = kernel(model, scale, lam, order)
        return ints[:3] + (ints[3] + 1,) + ints[4:], base

    monkeypatch.setattr(dowling_mod, "scaled_kernel", skewed)
    with pytest.raises(ArithmeticError):
        dowling_poly_r(model, params, 5)
    monkeypatch.undo()
    assert list(dowling_poly_r(model, params, 5).coeffs) == [
        whitney_prob_r(model, params, 5, k, "bell_form") for k in range(6)]


def test_whitney_prob_passes_r1_params_through(monkeypatch):
    # Params with r = 1 reach the routes as the same object, whose kept
    # hash serves every memo lookup; other shifts are replaced by r = 1.
    seen = []
    monkeypatch.setattr(dowling_mod, "whitney_prob_r",
                        lambda model, params, n, k, route: seen.append(params))
    shifted = Params(2, Fraction(1, 3), 2)
    whitney_prob(BE, P213, 3, 1)
    whitney_prob(BE, shifted, 3, 1)
    assert seen[0] is P213
    assert seen[1] == P213 and seen[1] is not shifted


@pytest.mark.parametrize("r", [0, 1, 3])
def test_whitney_four_route_agreement_descending_rows(r):
    # Rows asked from the top down: the first request grows each stored
    # kernel and chain entry to its full length, and every later one reads
    # a prefix.
    moments_mod.clear_caches()
    model, params = Poisson(Fraction(2, 3)), Params(2, Fraction(-1, 3), r)
    for n in range(10, -1, -1):
        for k in range(n + 1):
            values = {route: whitney_prob_r(model, params, n, k, route)
                      for route in WHITNEY_ROUTES}
            assert len(set(values.values())) == 1, (n, k, values)


def test_warm_route_calls_do_no_moment_work(monkeypatch):
    # Once bell_form and alt_sum have run at (n, k), the kernel and the
    # chain entries they read are long enough for every row n' <= n.
    Y, params = Geometric(Fraction(1, 3)), Params(2, Fraction(1, 3), 2)
    n, k = 9, 4
    moments_mod.clear_caches()
    for route in ("bell_form", "alt_sum"):
        whitney_prob_r(Y, params, n, k, route)
    calls = []
    degen_moment = moments_mod.degen_moment

    def counted(*args):
        calls.append(args)
        return degen_moment(*args)

    monkeypatch.setattr(moments_mod, "degen_moment", counted)
    got = {(row, col, route): whitney_prob_r(Y, params, row, col, route)
           for row in range(n + 1) for col in range(row + 1)
           for route in ("bell_form", "alt_sum")}
    assert calls == []
    monkeypatch.undo()
    for (row, col, route), value in got.items():
        assert value == whitney_prob_r(Y, params, row, col, "egf"), \
            (row, col, route)


def _count_store_reads(monkeypatch):
    """Clear the caches and patch moments._store to record the lam of every
    lookup, which the store takes as its numerator and denominator."""
    clear_caches()
    reads = []
    store = moments_mod._store

    def counted(model, scale, p, q):
        reads.append(Fraction(p, q))
        return store(model, scale, p, q)

    monkeypatch.setattr(moments_mod, "_store", counted)
    return reads


def test_stirling_expand_reads_one_chain_entry_per_copy_count(monkeypatch):
    # The route reads every order up to n of the lam = 1 chain entries for
    # the copy counts l <= k in one store lookup, not one per copy count,
    # and a cold call grows the kernel in the slot it already holds.
    Y, params, n, k = Geometric(Fraction(1, 3)), P213, 9, 4
    reads = _count_store_reads(monkeypatch)
    got = whitney_prob_r(Y, params, n, k, "stirling_expand")
    assert reads == [Fraction(1)]
    assert got == whitney_prob_r(Y, params, n, k, "egf")


def test_alt_sum_reads_the_chain_once(monkeypatch):
    # Column n of the chain entries 0..k comes from one store lookup, not
    # one sum_degen_moment call per copy count, cold as well as warm.
    Y, params, n, k = Geometric(Fraction(1, 3)), P213, 9, 4
    reads = _count_store_reads(monkeypatch)
    got = whitney_prob_r(Y, params, n, k, "alt_sum")
    assert reads == [params.lam]
    assert got == whitney_prob_r(Y, params, n, k, "egf")


def test_threaded_routes_match_sequential():
    # Four threads grow each cold store at once, each from its own order n
    # upward, with a thread switch forced every microsecond: a thread that
    # grows to a lower order must never store a shorter kernel or chain
    # entry over a longer one, so every value (or error) equals the
    # sequential one.
    Y = Poisson(Fraction(3, 2))
    calls = [(n, n // 2, WHITNEY_ROUTES[n % 4]) for n in range(25)]
    orders = [calls[6 * t:] + calls[:6 * t] for t in range(4)]

    def run(params, order, out, start=None):
        if start:
            start.wait()
        for n, k, route in order:
            try:
                out[n, k, route] = whitney_prob_r(Y, params, n, k, route)
            except Exception as exc:  # an error is a wrong value too
                out[n, k, route] = repr(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for j in range(1, 9):
            params = Params(2, Fraction(j, 7), j % 3)
            clear_caches()
            got = [{} for _ in orders]
            start = threading.Barrier(len(orders), timeout=60)
            threads = [threading.Thread(target=run,
                                        args=(params, order, out, start))
                       for order, out in zip(orders, got)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            clear_caches()
            expected = {}
            run(params, calls, expected)
            assert got == [expected] * len(orders), params
    finally:
        sys.setswitchinterval(interval)


VANISHING_MODELS = [
    PointMass(Fraction(3, 2)), Bernoulli(Fraction(1, 3)),
    Binomial(3, Fraction(2, 5)), DiscreteUniform(3), Poisson(Fraction(4, 3)),
    Geometric(Fraction(2, 3)),
    Custom(tuple(Fraction(v) for v in (
        "1", "2/5", "3/11", "7/5", "13/11", "9/5", "24/11", "16/5", "41/11"))),
]


@pytest.mark.parametrize("model", VANISHING_MODELS, ids=[
    "pointmass", "bernoulli", "binomial", "discreteuniform", "poisson",
    "geometric", "custom"])
def test_stirling_expand_skips_only_vanishing_orders(model):
    # stirling_expand sums orders j >= k only: column j of the lam = 1
    # chain, E[(m S_l + r)_j] for l = 0..k, has an alternating sum of
    # exactly 0 for every j < k.
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            rows = [[sum_degen_moment(model, l, m, r, j, 1)
                     for j in range(8)] for l in range(9)]
            for k in range(1, 9):
                signed = [(-1) ** (k - l) * math.comb(k, l)
                          for l in range(k + 1)]
                for j in range(k):
                    assert sum(w * rows[l][j]
                               for l, w in enumerate(signed)) == 0, \
                        (m, r, k, j)
            params = Params(m, Fraction(-2, 5), r)
            for n in range(9):
                for k in range(n + 1):
                    assert whitney_prob_r(model, params, n, k,
                                          "stirling_expand") == \
                        whitney_prob_r(model, params, n, k, "egf"), \
                        (m, r, n, k)


def test_warm_bell_form_hashes_no_bell_argument(monkeypatch):
    # The enumeration memo is keyed by integer numerators and denominators,
    # so a warm call hashes no kernel coefficient, and the kernel and chain
    # stores take lam as its numerator and denominator: no Fraction is
    # hashed at all.
    Y, params, n, k = Geometric(Fraction(1, 3)), Params(2, Fraction(1, 3), 2), 10, 3
    expected = whitney_prob_r(Y, params, n, k, "bell_form")
    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    got = whitney_prob_r(Y, params, n, k, "bell_form")
    monkeypatch.undo()
    assert calls == []
    assert got == expected == whitney_prob_r(Y, params, n, k, "egf")


def test_warm_calls_do_no_fraction_work_in_their_lookups(monkeypatch):
    # A library session rebuilds the model and the params from each
    # request.  The stores are keyed by integers and a Frozen value keeps
    # an integer key, so a warm call on fresh but equal values neither
    # hashes nor compares a Fraction.
    n = 7

    def calls(model, params):
        m, lam, r = params.m, params.lam, params.r
        values = [whitney_prob(model, params, n, k, route)
                  for k in range(n + 1) for route in WHITNEY_ROUTES]
        values += [whitney_prob_r(model, params, n, k, route)
                   for k in range(n + 1) for route in WHITNEY_ROUTES]
        values += [stirling2_degen(n, k, lam) for k in range(n + 1)]
        values += [sum_degen_moment(model, k, m, r, n, lam)
                   for k in range(n + 1)]
        return values

    for model in VANISHING_MODELS:
        expected = calls(model, Params(2, Fraction("-2/5"), 2))
        fresh = model_from_config(model_to_config(model))
        params = Params(2, Fraction("-2/5"), 2)
        hashed, compared = [], []
        fraction_hash, fraction_eq = Fraction.__hash__, Fraction.__eq__

        def counting_hash(self):
            hashed.append(self)
            return fraction_hash(self)

        def counting_eq(self, other):
            compared.append(self)
            return fraction_eq(self, other)

        monkeypatch.setattr(Fraction, "__hash__", counting_hash)
        monkeypatch.setattr(Fraction, "__eq__", counting_eq)
        got = calls(fresh, params)
        monkeypatch.undo()
        assert (hashed, compared) == ([], []), model
        assert got == expected, model


def test_unknown_route_is_rejected_for_every_index():
    for k in (1, 5):   # k <= n and k > n
        with pytest.raises(ValueError, match="unknown route"):
            whitney_prob(BE, P213, 2, k, "bogus")
        with pytest.raises(ValueError, match="unknown route"):
            whitney_prob_r(BE, Params(2, Fraction(1, 3), 2), 2, k, "bogus")


def test_whitney_r_boundaries_and_reduction():
    lam = Fraction(1, 2)
    for r in (0, 1, 2):
        params = Params(3, lam, r)
        for n in range(7):
            assert whitney_prob_r(BE, params, n, 0) == degen_falling(r, n, lam)
    for n in range(6):
        for k in range(n + 1):
            assert whitney_prob_r(BE, Params(2, lam, 1), n, k) == \
                whitney_prob(BE, Params(2, lam, 77), n, k)


@pytest.mark.parametrize("lam", lam_values)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_whitney_defining_relation_point_mass(lam, r):
    # (mx+r)_{n,lam} = sum_k W(n,k) m^k (x)_k for the deterministic model,
    # checked as a polynomial identity in x; lam=0 is the classical law
    # for powers (mx+r)^n.
    m = 2
    params = Params(m, lam, r)
    for n in range(7):
        for x in xpoints(n):
            expanded = sum(whitney_prob_r(PM1, params, n, k)
                           * Fraction(m)**k * degen_falling(x, k, 1)
                           for k in range(n + 1))
            assert expanded == degen_falling(m * x + r, n, lam)


def test_dowling_poly_frozen():
    assert dowling_poly(BE, P213, 0) == PolyX((1,))
    assert dowling_poly(BE, P213, 1) == PolyX((1, Fraction(1, 2)))
    assert dowling_poly(PM1, P213, 2) == \
        PolyX((Fraction(2, 3), Fraction(11, 3), 1))
    assert dowling_poly(PM1, P213, 2).evaluate(1) == \
        Fraction(2, 3) + Fraction(11, 3) + 1


def test_dowling_poly_r_reduction_and_generating_function():
    lam = Fraction(-1, 3)
    for n in range(5):
        assert dowling_poly_r(BE, Params(2, lam, 1), n) == \
            dowling_poly(BE, Params(2, lam, 5), n)
    # The EGF of the evaluated polynomials is
    # e_lam^r(t) * exp(x (E[e_lam^{mY}(t)] - 1)/m) for rational x.
    m, r, order = 2, 2, 8
    params = Params(m, lam, r)
    for x in (Fraction(1, 2), Fraction(3)):
        kernel = egf_scale(Fraction(1, m),
                           egf_sub(egf_mgf_degen(BE, m, lam, order),
                                   egf_const(1, order)))
        rhs = egf_mul(egf_degen_exp(r, lam, order),
                      egf_exp(egf_scale(x, kernel)))
        for n in range(order + 1):
            assert dowling_poly_r(BE, params, n).evaluate(x) == \
                egf_coeff(rhs, n)


def test_whitney_triangle_boundary_laws():
    # Row n of the triangle is the coefficient row of dowling_poly_r.
    lam = Fraction(1, 2)
    for r in (0, 1, 2):
        for n in range(9):
            row = dowling_poly_r(BE, Params(2, lam, r), n)
            assert row.coeff(0) == degen_falling(r, n, lam)
            assert row.coeff(n + 1) == 0
    for n in range(9):
        row = dowling_poly_r(BE, Params(2, lam, 1), n)
        assert row.coeff(n) == raw_moment(BE, 1) ** n


def test_whitney_triangle_rejects_a_negative_size():
    # A negative degree has no row; row 0 is the constant 1.
    with pytest.raises(ValueError, match="^degree must be nonnegative"):
        dowling_poly_r(BE, P213, -1)
    assert dowling_poly_r(BE, P213, 0).coeffs == (Fraction(1),)


def test_dobinski_matches_exact_evaluation():
    assert dobinski_eval(BE, P213, 0, Fraction(3, 2), 1e-12) == \
        pytest.approx(1.0, rel=1e-12)
    # classical shifted set-partition numbers: m=1, lam=0, r=1.
    params = Params(1, Fraction(0), 1)
    exact = dowling_poly(PM1, params, 3).evaluate(1)
    assert dobinski_eval(PM1, params, 3, 1, 1e-12) == \
        pytest.approx(float(exact), rel=1e-10)
    exact2 = dowling_poly(BE, P213, 2).evaluate(1)
    assert dobinski_eval(BE, P213, 2, 1, 1e-12) == \
        pytest.approx(float(exact2), rel=1e-10)


def test_dobinski_domain_and_cap_errors(monkeypatch):
    with pytest.raises(ValueError):
        dobinski_eval(BE, P213, 2, Fraction(-1), 1e-10)
    with pytest.raises(ValueError):
        dobinski_eval(BE, P213, 2, 1, 0.0)
    # An infinite tolerance stops at once (6.56 where the value is 20), and
    # a NaN one never stops; both are rejected up front.
    params = Params(1, Fraction(1, 2), 1)
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="rel_tol"):
            dobinski_eval(Poisson(Fraction(1)), params, 2, 3, tol)
    monkeypatch.setattr(dowling_mod, "DOBINSKI_MAX_TERMS", 5)
    with pytest.raises(RuntimeError):
        dobinski_eval(BE, P213, 2, 40, 1e-12)


def test_dobinski_rejects_a_negative_term_cap():
    # The cap is a module constant, not an argument a caller could set
    # below zero.
    assert dowling_mod.DOBINSKI_MAX_TERMS == 400
    with pytest.raises(TypeError, match="max_terms"):
        dobinski_eval(BE, Params(2, Fraction(1, 3)), 2, 1, 1e-10, max_terms=-1)


def test_dowling_derivative():
    assert dowling_poly(BE, P213, 1).derivative(1) == PolyX((Fraction(1, 2),))
    assert dowling_poly(PM1, P213, 2).derivative(1) == \
        PolyX((Fraction(11, 3), 2))
    assert dowling_poly(BE, P213, 3).derivative(4) == POLY_ZERO
    assert dowling_poly(BE, P213, 3).derivative(0) == dowling_poly(BE, P213, 3)
    # Coefficient j of the k-th derivative is (j + k)!/j! W(n, j + k).
    for lam in lam_values:
        params = Params(3, lam, 1)
        for n in range(1, 6):
            poly = dowling_poly(Poisson(Fraction(1)), params, n)
            for k in range(1, n + 1):
                assert poly.derivative(k) == PolyX(tuple(
                    math.perm(j + k, k) * poly.coeff(j + k)
                    for j in range(n - k + 1)))


def test_rows_are_memoized_until_caches_clear():
    params = Params(3, Fraction(-1, 2), 2)
    row = dowling_poly_r(BE, params, 7)
    assert dowling_poly_r(BE, params, 7) is row
    assert [whitney_prob_r(BE, params, 7, k) for k in range(8)] == \
        list(row.coeffs)
    dowling_mod.clear_caches()
    again = dowling_poly_r(BE, params, 7)
    assert again is not row and again == row


GF_MODELS = [Poisson(Fraction(7, 3)), Geometric(Fraction(1, 3)),
             Binomial(3, Fraction(2, 3)),
             Custom(tuple(Fraction(1, j + 1) for j in range(13)))]
GF_PARAMS = [Params(1, Fraction(0), 1), Params(2, Fraction(-4, 3), 3),
             Params(3, Fraction(5, 2), 0)]


@pytest.mark.parametrize("params", GF_PARAMS, ids=["m1-lam0-r1",
                                                   "m2-lam-4/3-r3",
                                                   "m3-lam5/2-r0"])
@pytest.mark.parametrize("model", GF_MODELS, ids=["poisson", "geometric",
                                                  "binomial", "custom"])
def test_rows_match_the_generating_function(model, params):
    # The rows come from a recurrence; the definition is the oracle:
    # W(n, k) is coefficient n of (1/k!) K^k e_lam^r(t) with
    # K = (E[e_lam^(mY)(t)] - 1)/m.
    m, lam, order = params.m, params.lam, 12
    kernel = egf_scale(Fraction(1, m),
                       egf_sub(egf_mgf_degen(model, m, lam, order),
                               egf_const(1, order)))
    shift = egf_degen_exp(params.r, lam, order)
    for k in range(order + 1):
        series = egf_mul(bell_partial_series(k, kernel), shift)
        for n in range(order + 1):
            assert dowling_poly_r(model, params, n).coeff(k) == \
                egf_coeff(series, n), (n, k)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_cold_deep_row_stays_shallow():
    # A cold row 60 must not recurse row by row down to row 0.
    dowling_mod.clear_caches()
    moments_mod.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        row = dowling_poly_r(Geometric(Fraction(1, 2)),
                             Params(2, Fraction(-1, 3), 2), 60)
    finally:
        sys.setrecursionlimit(limit)
    assert row.coeff(0) == degen_falling(2, 60, Fraction(-1, 3))
    assert row.coeff(60) == 1   # E[Y]^60 with E[Y] = 1


def test_cold_many_copies_stay_shallow():
    # A cold power 400 of the moment series must not recurse power by power;
    # with Y ~ Bernoulli(1/2), S_400 is binomial(400, 1/2).
    lam = Fraction(-1, 3)
    moments_mod.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        got = sum_degen_moment(BE, 400, 2, 1, 6, lam)
    finally:
        sys.setrecursionlimit(limit)
    assert got == sum(Fraction(math.comb(400, j), 2**400)
                      * degen_falling(2 * j + 1, 6, lam) for j in range(401))


def test_cold_shifted_chain_stays_shallow():
    # A cold entry 1200 of the sum-moment chain at shift 3 is grown upward
    # from entry 0, not by one frame per copy.
    lam = Fraction(1, 3)
    moments_mod.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        got = sum_degen_moment(BE, 1200, 2, 3, 2, lam)
    finally:
        sys.setrecursionlimit(limit)
    assert got == egf_mul_coeff(egf_pow(egf_mgf_degen(BE, 2, lam, 2), 1200),
                                egf_degen_exp(3, lam, 2), 2)


def test_cold_deep_raw_moment_stays_shallow():
    # Touchard's recurrence reads every lower moment; a cold moment 1500
    # must fill them upward, not recurse one frame per order.  Poisson(1)
    # moments are the Bell numbers.
    moments_mod.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        got = raw_moment(Poisson(Fraction(1)), 1500)
    finally:
        sys.setrecursionlimit(limit)
    assert got == bell_numbers(1500)[1500]


def test_stirling2_far_down_a_column():
    # S(n, 3) = (3^(n-1) - 2^n + 1)/2; n = 1500 is past the default
    # recursion limit for a row-by-row recursion.
    assert stirling2(1500, 3) == (3**1499 - 2**1500 + 1) // 2
