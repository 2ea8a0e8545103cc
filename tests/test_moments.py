from fractions import Fraction
from math import comb, factorial, lcm

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probdowling import (Bernoulli, Binomial, Custom, DiscreteUniform,
                         Geometric, MomentOrderError, Params, PointMass,
                         Poisson, clear_caches, degen_falling, degen_moment,
                         dobinski_eval, dowling_poly_r, egf_coeff,
                         egf_degen_exp, egf_mgf_degen, model_from_config,
                         model_to_config, raw_moment, stirling2,
                         sum_degen_moment, whitney_prob_r)
import probdowling.moments as moments_mod
from probdowling.ratcore import exact_int
from probdowling.moments import falling_row
from probdowling.series import egf_mul_coeff

from oracles import bell_brute, egf_pow, raw_moment_brute, \
    stirling2_brute, sum_moment_brute

FINITE_MODELS = [PointMass(Fraction(1)), Bernoulli(Fraction(1, 2)),
                 Binomial(3, Fraction(1, 3)), DiscreteUniform(2)]
lam_values = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]


def test_raw_moment_frozen_values():
    assert raw_moment(Bernoulli(Fraction(1, 2)), 3) == Fraction(1, 2)
    assert raw_moment(Bernoulli(Fraction(1, 2)), 0) == 1
    assert raw_moment(PointMass(Fraction(1)), 9) == 1
    # Poisson second moment is rate + rate^2.
    for rate in (Fraction(1), Fraction(1, 2), Fraction(3)):
        assert raw_moment(Poisson(rate), 2) == rate + rate**2


def test_poisson_rate_one_moments_count_set_partitions():
    Y = Poisson(Fraction(1))
    for n in range(7):
        assert raw_moment(Y, n) == bell_brute(n)


def test_poisson_moment_recurrence():
    # E[Y^{n+1}] = rate * sum_k C(n,k) E[Y^k], an independent recurrence.
    from probdowling import binom
    rate = Fraction(2, 3)
    Y = Poisson(rate)
    for n in range(8):
        assert raw_moment(Y, n + 1) == \
            rate * sum(binom(n, k) * raw_moment(Y, k) for k in range(n + 1))


def test_geometric_half_moments_are_fubini_numbers():
    # p = 1/2 makes (1-p)/p = 1, so E[Y^n] = sum_k S2(n,k) k!:
    # the ordered set-partition counts 1, 1, 3, 13, 75, 541.
    Y = Geometric(Fraction(1, 2))
    for n in range(6):
        expected = sum(stirling2_brute(n, k) * factorial(k)
                       for k in range(n + 1))
        assert raw_moment(Y, n) == expected
    assert [raw_moment(Y, n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


@pytest.mark.parametrize("model", [
    Poisson(Fraction(0)), Poisson(Fraction(7, 3)),
    Geometric(Fraction(1, 3)), Geometric(Fraction(1)),
], ids=["poisson-0", "poisson-7/3", "geometric-1/3", "geometric-1"])
def test_poisson_and_geometric_moments_match_stirling_sums(model):
    # The recurrences against the explicit forms they replaced: Touchard's
    # sum_k S2(n,k) rate^k, and sum_k S2(n,k) k! ((1-p)/p)^k.
    clear_caches()
    for n in range(41):
        if isinstance(model, Poisson):
            expected = sum(stirling2(n, k) * model.rate ** k
                           for k in range(n + 1))
        else:
            ratio = (1 - model.p) / model.p
            expected = sum(stirling2(n, k) * factorial(k) * ratio ** k
                           for k in range(n + 1))
        assert raw_moment(model, n) == expected, n


def test_geometric_general_p_first_moments():
    p = Fraction(1, 3)
    q = 1 - p
    Y = Geometric(p)
    assert raw_moment(Y, 1) == q / p
    assert raw_moment(Y, 2) == q / p + 2 * (q / p) ** 2


SUPPORT_P = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
             Fraction(2, 7), Fraction(9, 10), Fraction(1, 97)]
# Binomial and uniform moments come from factorial moments through S(n, k);
# the reference sums over the support.
SUPPORT_GRID = ([DiscreteUniform(size) for size in range(9)]
                + [Binomial(size, p) for size in range(1, 9)
                   for p in SUPPORT_P])


@pytest.mark.parametrize("model", FINITE_MODELS + SUPPORT_GRID)
def test_finite_models_match_support_enumeration(model):
    for n in range(13):
        assert raw_moment(model, n) == raw_moment_brute(model, n), n


def test_huge_binomial_moments_take_min_n_N_terms():
    # A sum over 2^63 support points would never finish.
    N, p = 2 ** 63 - 1, Fraction(1, 3)
    Y = Binomial(N, p)
    assert raw_moment(Y, 1) == N * p
    mu, m2, m3 = (raw_moment(Y, n) for n in (1, 2, 3))
    assert m2 - mu ** 2 == N * p * (1 - p)
    assert m3 - 3 * mu * m2 + 2 * mu ** 3 == N * p * (1 - p) * (1 - 2 * p)
    assert raw_moment(Y, 30) > mu ** 30
    U = DiscreteUniform(N)
    assert raw_moment(U, 1) == Fraction(N, 2)
    assert raw_moment(U, 2) == Fraction(N * (2 * N + 1), 6)


def test_degen_moment_frozen_and_zero_lambda():
    Y = Bernoulli(Fraction(1, 2))
    assert degen_moment(Y, 0, Fraction(7)) == 1
    assert degen_moment(Y, 1, Fraction(1, 3)) == Fraction(1, 2)
    assert degen_moment(Y, 2, Fraction(1, 3)) == Fraction(1, 3)
    for n in range(8):
        assert degen_moment(Y, n, Fraction(0)) == raw_moment(Y, n)


@pytest.mark.parametrize("model", FINITE_MODELS)
@pytest.mark.parametrize("lam", lam_values)
def test_degen_moment_matches_support_enumeration(model, lam):
    # E[(Y)_{n,lam}] = sum over support of prob * product.
    from oracles import finite_support
    for n in range(7):
        expected = sum(prob * degen_falling(v, n, lam)
                       for v, prob in finite_support(model))
        assert degen_moment(model, n, lam) == expected


def test_egf_mgf_degen_collapses_for_point_mass():
    lam = Fraction(1, 3)
    for m in (1, 2, 3):
        got = egf_mgf_degen(PointMass(Fraction(1)), m, lam, 6)
        assert got == egf_degen_exp(m, lam, 6)


def test_egf_mgf_degen_first_coefficients():
    Y = Bernoulli(Fraction(1, 2))
    s = egf_mgf_degen(Y, 2, Fraction(1, 3), 3)
    assert egf_coeff(s, 0) == 1
    assert egf_coeff(s, 1) == 1          # 2 * E[Y]
    # E[(2Y)_{2,1/3}] = 4E[Y^2] - (2/3)E[Y] = 2 - 1/3.
    assert egf_coeff(s, 2) == Fraction(5, 3)


@pytest.mark.parametrize("model", FINITE_MODELS)
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(-2, 3),
                                 Fraction(5, 2)])
def test_egf_mgf_degen_matches_support_enumeration(model, lam):
    # Coefficient n is E[(scale*Y)_{n,lam}], summed over the support; the
    # code reads it as scale^n E[(Y)_{n,lam/scale}].
    from oracles import finite_support
    for scale in (1, 2, 3):
        got = egf_mgf_degen(model, scale, lam, 8)
        for n in range(9):
            expected = sum(prob * degen_falling(scale * v, n, lam)
                           for v, prob in finite_support(model))
            assert egf_coeff(got, n) == expected, (scale, n)


@pytest.mark.parametrize("model", FINITE_MODELS)
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(-2, 3),
                                 Fraction(5, 2)], ids=str)
def test_kernel_store_is_independent_of_request_order(model, lam):
    # One stored kernel serves every order: whichever order comes first,
    # each request is the prefix the support enumeration gives.
    from oracles import finite_support
    orders = list(range(9))
    shuffled = random.Random(f"{model}/{lam}").sample(orders, len(orders))
    for scale in (1, 2, 3):
        expected = [sum(prob * degen_falling(scale * v, n, lam)
                        for v, prob in finite_support(model))
                    for n in orders]
        for sequence in (orders, orders[::-1], shuffled):
            clear_caches()
            for order in sequence:
                got = egf_mgf_degen(model, scale, lam, order)
                assert got.coeffs == tuple(expected[:order + 1]), \
                    (scale, sequence, order)
            assert moments_mod._mgf_kernel.cache_info().currsize == 1


def test_kernel_past_a_custom_list_fails_and_keeps_its_prefix():
    Y = Custom((Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    lam = Fraction(1, 3)
    clear_caches()
    egf_mgf_degen(Y, 2, lam, 1)
    with pytest.raises(MomentOrderError):
        egf_mgf_degen(Y, 2, lam, 5)
    assert len(moments_mod._mgf_kernel(Y, 2, 1, 3)[0]) == 2
    # E[(2Y)_{n,lam}] = 2^n E[(Y)_{n,lam/2}] from the declared moments.
    expected = tuple(2 ** n * degen_moment(Y, n, lam / 2) for n in range(4))
    assert egf_mgf_degen(Y, 2, lam, 3).coeffs == expected
    assert egf_mgf_degen(Y, 2, lam, 2).coeffs == expected[:3]


KERNEL_MODELS = [
    PointMass(Fraction(-3, 2)), Bernoulli(Fraction(2, 5)),
    Binomial(4, Fraction(1, 3)), DiscreteUniform(3), Poisson(Fraction(3, 2)),
    Geometric(Fraction(2, 3)),
    Custom((Fraction(1),) + tuple(Fraction((-1) ** j * j, j + 2)
                                  for j in range(1, 13)))]


@pytest.mark.parametrize("model", KERNEL_MODELS,
                         ids=lambda model: type(model).__name__)
def test_integer_kernel_matches_degen_moment(model):
    # The kernel grows as sum_j t(n, j) R_j in integers; each K_n must be
    # the Fraction expectation E[(mY)_{n,lam}] = m^n E[(Y)_{n,lam/m}]
    # times L^n.
    for m in (1, 2, 3):
        for lam in (Fraction(0), Fraction(-1, 2), Fraction(2, 3)):
            clear_caches()
            ints, base = moments_mod.scaled_kernel(model, m, lam, 12)
            assert ints == tuple(
                exact_int(degen_moment(model, n, lam / m), (m * base) ** n)
                for n in range(13)), (m, lam)


@pytest.mark.parametrize("call", [
    lambda Y: egf_mgf_degen(Y, 0, Fraction(1, 3), 3),
    lambda Y: egf_mgf_degen(Y, -2, Fraction(1, 3), 3),
    lambda Y: egf_mgf_degen(Y, 2, Fraction(1, 3), -1),
], ids=["scale-0", "scale-negative", "order"])
def test_invalid_kernel_requests_leave_no_store_entry(call):
    clear_caches()
    with pytest.raises(ValueError, match="must be"):
        call(Bernoulli(Fraction(1, 2)))
    assert moments_mod._mgf_kernel.cache_info().currsize == 0


def test_sum_degen_moment_frozen_values():
    lam = Fraction(1, 5)
    assert sum_degen_moment(Bernoulli(Fraction(1, 2)), 0, 2, 1, 3, lam) == \
        degen_falling(1, 3, lam)
    assert sum_degen_moment(Bernoulli(Fraction(1, 2)), 2, 2, 1, 1, lam) == 3
    for k in range(4):
        for n in range(5):
            assert sum_degen_moment(PointMass(Fraction(1)), k, 2, 1, n, lam) \
                == degen_falling(2 * k + 1, n, lam)


@pytest.mark.parametrize("model", FINITE_MODELS)
@pytest.mark.parametrize("lam", lam_values)
def test_sum_degen_moment_matches_joint_enumeration(model, lam):
    for k in (0, 1, 2, 3):
        for n in (0, 1, 2, 4):
            for scale, shift in ((1, 0), (2, 1), (3, 2)):
                assert sum_degen_moment(model, k, scale, shift, n, lam) == \
                    sum_moment_brute(model, k, scale, shift, n, lam)


def test_point_mass_expectations_are_deterministic_products():
    c = Fraction(3, 2)
    Y = PointMass(c)
    for lam in lam_values:
        for n in range(13):
            assert degen_moment(Y, n, lam) == degen_falling(c, n, lam)
            assert sum_degen_moment(Y, 3, 2, 1, n, lam) == \
                degen_falling(2 * 3 * c + 1, n, lam)


def test_sum_single_copy_consistency():
    # k=1, shift=0 must agree with the scaled-variable moment series.
    Y = Binomial(3, Fraction(1, 3))
    lam = Fraction(-1, 3)
    for n in range(7):
        assert sum_degen_moment(Y, 1, 2, 0, n, lam) == \
            egf_coeff(egf_mgf_degen(Y, 2, lam, n), n)


def test_sum_plain_falling_moment():
    # The ordinary falling factorial is the degenerate one at lam = 1.
    one = Fraction(1)
    assert sum_degen_moment(Poisson(one), 2, 2, 1, 0, one) == 1
    assert sum_degen_moment(Poisson(one), 0, 2, 1, 2, one) == 0
    assert sum_degen_moment(PointMass(one), 1, 2, 1, 2, one) == 6
    Y = Bernoulli(Fraction(1, 2))
    for k in range(3):
        for j in range(5):
            assert sum_degen_moment(Y, k, 2, 1, j, one) == \
                sum_moment_brute(Y, k, 2, 1, j, one)


def test_custom_model():
    Y = Custom((Fraction(1), Fraction(1, 2), Fraction(1, 2)))
    assert raw_moment(Y, 2) == Fraction(1, 2)
    with pytest.raises(MomentOrderError) as exc:
        raw_moment(Y, 3)
    assert "order 3" in str(exc.value)
    with pytest.raises(ValueError):
        Custom((Fraction(2),))


def test_models_keep_their_hash_and_share_memo_entries(monkeypatch):
    moments = (1, Fraction(2, 5), Fraction(3, 11))
    a, b = Custom(moments), Custom(tuple(Fraction(v) for v in moments))
    assert a is not b and a == b and hash(a) == hash(b)
    clear_caches()
    raw_moment(a, 2)
    before = raw_moment.cache_info()
    assert raw_moment(b, 2) == Fraction(3, 11)
    after = raw_moment.cache_info()
    assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)

    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    first = hash(a)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    assert hash(a) == first and calls == []
    monkeypatch.undo()
    assert list(a.fields) == ["moments"]
    assert repr(a) == \
        "Custom(moments=(Fraction(1, 1), Fraction(2, 5), Fraction(3, 11)))"
    assert model_to_config(a) == {"kind": "custom",
                                  "moments": ["1", "2/5", "3/11"]}
    assert a != Custom((1, Fraction(2, 5)))


def test_model_validation():
    with pytest.raises(ValueError):
        Bernoulli(Fraction(3, 2))
    with pytest.raises(ValueError):
        Geometric(Fraction(0))
    with pytest.raises(ValueError):
        Poisson(Fraction(-1))
    with pytest.raises(ValueError):
        Binomial(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        DiscreteUniform(-1)


def test_config_round_trip():
    models = FINITE_MODELS + [Poisson(Fraction(1)), Geometric(Fraction(1, 2)),
                              Custom((Fraction(1), Fraction(1, 2)))]
    for Y in models:
        assert model_from_config(model_to_config(Y)) == Y
    assert model_to_config(Binomial(3, Fraction(1, 3))) == \
        {"kind": "binomial", "trials": 3, "p": "1/3"}
    assert model_to_config(DiscreteUniform(4)) == \
        {"kind": "discreteuniform", "max": 4}
    assert model_to_config(Custom((Fraction(1), Fraction(-1, 2)))) == \
        {"kind": "custom", "moments": ["1", "-1/2"]}
    with pytest.raises(TypeError):
        model_to_config(Fraction(1, 2))
    assert model_from_config({"kind": "bernoulli", "p": "1/2"}) == \
        Bernoulli(Fraction(1, 2))
    with pytest.raises(ValueError):
        model_from_config({"kind": "zeta"})
    with pytest.raises(ValueError):
        model_from_config({"kind": "bernoulli"})
    with pytest.raises(ValueError):
        model_from_config({"kind": "bernoulli", "p": 0.5})
    with pytest.raises(ValueError):
        model_from_config({"kind": "bernoulli", "p": "3/2"})


@given(n=st.integers(min_value=0, max_value=8))
def test_memo_warm_equals_cold(n):
    Y = Poisson(Fraction(2, 3))
    lam = Fraction(1, 2)
    warm = degen_moment(Y, n, lam)
    moments_mod.clear_caches()
    assert degen_moment(Y, n, lam) == warm


def test_sum_of_many_copies_past_the_recursion_limit():
    # E[2 S_1200] = 2 * 1200 * E[Y]; the 1200-th power of the kernel
    # series must not recurse once per copy.
    assert sum_degen_moment(Bernoulli(Fraction(1, 2)), 1200, 2, 0, 1,
                            Fraction(1, 3)) == 1200


@pytest.mark.parametrize("shift", [-1, 0, Fraction(3, 2)], ids=str)
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(-2, 3),
                                 Fraction(5, 2)], ids=str)
def test_falling_row_matches_the_scalar_falling_factorial(shift, lam):
    rng = random.Random(f"{shift}/{lam}")
    for n in range(13):
        row = falling_row(shift, n, lam)
        assert len(row) == n + 1
        for _ in range(3):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            value = sum((c * x**j for j, c in enumerate(row)), Fraction(0))
            assert value == degen_falling(x + shift, n, lam), (n, x)


@pytest.mark.parametrize("model", [
    PointMass(Fraction(3, 2)), Bernoulli(Fraction(1, 3)), Poisson(Fraction(1)),
    Custom(tuple(Fraction(v) for v in ("1", "1/3", "2/5", "1/2", "3/4", "1",
                                       "2", "5", "9", "-7/2", "11")))],
    ids=["pointmass", "bernoulli", "poisson", "custom"])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(-2, 3),
                                 Fraction(5, 2)], ids=str)
def test_sum_moment_is_independent_of_request_order(model, lam):
    # One power chain serves every truncation order: whichever (n, k) comes
    # first, each value equals the same coefficient of a power built from
    # scratch at order n.
    cells = [(n, k) for n in range(11) for k in range(7)]
    shuffled = random.Random(f"{model}/{lam}").sample(cells, len(cells))
    for scale in (1, 2, 3):
        expected = {}
        for n, k in cells:
            power = egf_pow(egf_mgf_degen(model, scale, lam, n), k)
            for shift in range(4):
                expected[n, k, shift] = egf_mul_coeff(
                    power, egf_degen_exp(shift, lam, n), n)
        for order in (cells, cells[::-1], shuffled):
            clear_caches()
            for n, k in order:
                for shift in range(4):
                    assert sum_degen_moment(model, k, scale, shift, n, lam) \
                        == expected[n, k, shift], (scale, n, k, shift)


def test_dobinski_rows_share_one_power_chain():
    clear_caches()
    Y, params = Poisson(Fraction(1)), Params(1, Fraction(1, 3), 2)
    for n in range(13):
        dobinski_eval(Y, params, n, Fraction(9, 2), 1e-10)
    assert moments_mod._mgf_chain.cache_info().currsize == 1


def test_one_more_copy_reads_only_the_entry_below(monkeypatch):
    # Entries 0..k-1 already reach order n: the call for copy count k
    # reads entry k - 1 and grows entry k, so a sweep over k is linear.
    Y, lam = Bernoulli(Fraction(1, 2)), Fraction(1, 3)
    clear_caches()
    for k in range(60):
        sum_degen_moment(Y, k, 2, 1, 3, lam)
    base, chain = moments_mod._mgf_chain(Y, 2, 1, 1, 3)
    reads = []

    class Counted(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(moments_mod, "_mgf_chain",
                        lambda *key: (base, Counted(chain)))
    got = sum_degen_moment(Y, 60, 2, 1, 3, lam)
    assert set(reads) == {59, 60}
    # S_60 of Bernoulli(1/2) is binomial(60, 1/2).
    assert got == sum(Fraction(comb(60, j), 2 ** 60)
                      * degen_falling(2 * j + 1, 3, lam) for j in range(61))


@pytest.mark.parametrize("call", [
    lambda Y: sum_degen_moment(Y, 2, 0, 1, 3, Fraction(1, 3)),
    lambda Y: sum_degen_moment(Y, 2, 2, 1, -1, Fraction(1, 3)),
    lambda Y: sum_degen_moment(Y, 0, 0, 1, 3, Fraction(1, 3)),
    lambda Y: sum_degen_moment(Y, -1, 2, 1, 3, Fraction(1, 3)),
    lambda Y: sum_degen_moment(Y, 1, 2, -1, 3, Fraction(1, 3)),
], ids=["scale", "order", "scale-k0", "copies", "row-shift"])
def test_invalid_chain_requests_leave_no_chain_entry(call):
    clear_caches()
    with pytest.raises(ValueError, match="must be"):
        call(Bernoulli(Fraction(1, 2)))
    assert moments_mod._mgf_chain.cache_info().currsize == 0


def test_no_copies_read_no_moment():
    # Entry 0 of the chain is the shift's degenerate exponential alone, so
    # a custom model that declares only E[Y^0] still serves k = 0.
    lam = Fraction(1, 3)
    assert sum_degen_moment(Custom((Fraction(1),)), 0, 1, 2, 3, lam) \
        == degen_falling(2, 3, lam)


@pytest.mark.parametrize("call,name", [
    (lambda Y: degen_moment(Y, -1, Fraction(1, 3)), "n"),
    (lambda Y: egf_mgf_degen(Y, 1, Fraction(1, 3), -1), "order"),
    (lambda Y: sum_degen_moment(Y, 2, 2, 1, -1, Fraction(1, 3)), "n"),
    (lambda Y: sum_degen_moment(Y, -1, 2, 1, 3, Fraction(1, 3)), "copy count"),
    (lambda Y: sum_degen_moment(Y, 2, 2, -1, 3, Fraction(1, 3)), "shift"),
], ids=["degen_moment", "egf_mgf_degen-order", "sum_degen_moment-n",
        "sum_degen_moment-k", "sum_degen_moment-shift"])
def test_negative_arguments_are_rejected_by_name(call, name):
    # A negative n is not the empty product: it must not read as 1.
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
        call(Bernoulli(Fraction(1, 2)))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=9)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)
MODELS = st.one_of(
    st.builds(PointMass, small_fractions),
    st.builds(Bernoulli, unit_fractions),
    st.builds(Binomial, st.integers(min_value=1, max_value=6), unit_fractions),
    st.builds(DiscreteUniform, st.integers(min_value=0, max_value=6)),
    st.builds(Poisson, st.fractions(min_value=0, max_value=4,
                                    max_denominator=9)),
    st.builds(Geometric, unit_fractions.filter(bool)),
    st.builds(Custom, st.lists(small_fractions, min_size=30, max_size=30)
              .map(lambda tail: (Fraction(1), *tail))))
LAMBDAS = st.one_of(st.just(Fraction(0)), small_fractions)


@given(model=MODELS, n=st.integers(min_value=0, max_value=30))
def test_moment_base_clears_every_raw_moment(model, n):
    base = moments_mod.moment_base(model)
    assert base >= 1
    for j in range(n + 1):
        assert (base ** j * raw_moment(model, j)).denominator == 1, j


@given(model=MODELS, m=st.integers(min_value=1, max_value=4), lam=LAMBDAS,
       n=st.integers(min_value=0, max_value=30))
def test_scaled_kernel_holds_the_kernel_times_the_scale(model, m, lam, n):
    # K_j = c_j L^j is an integer, with L = lcm(den lam, D); the store
    # keeps exactly those integers, and the series is K_j / L^j.
    ints, base = moments_mod.scaled_kernel(model, m, lam, n)
    assert base == lcm(lam.denominator, moments_mod.moment_base(model))
    assert len(ints) > n and all(type(K) is int for K in ints)
    # The series reads the store; both are checked against the
    # definition E[(mY)_{j,lam}] = m^j E[(Y)_{j,lam/m}].
    series = egf_mgf_degen(model, m, lam, n)
    assert series.order == n
    for j, c in enumerate(series.coeffs):
        assert c == Fraction(ints[j], base ** j), j
        assert c == m ** j * degen_moment(model, j, lam / m), j


@pytest.mark.parametrize("call", [
    lambda Y: egf_mgf_degen(Y, 1, 0, 3),
    lambda Y: sum_degen_moment(Y, 2, 1, 1, 3, 0),
    lambda Y: dowling_poly_r(Y, Params(1, 0, 1), 3),
    lambda Y: whitney_prob_r(Y, Params(1, 0, 1), 3, 1, "alt_sum"),
    lambda Y: whitney_prob_r(Y, Params(1, 0, 1), 3, 1, "stirling_expand"),
], ids=["kernel", "sum-moment", "rows", "alt_sum", "stirling_expand"])
def test_a_scale_too_small_raises_instead_of_truncating(monkeypatch, call):
    # Poisson(1/2) needs D = 2: with D = 1, K_1 = 1/2 is no integer.
    clear_caches()
    monkeypatch.setattr(moments_mod, "moment_base", lambda model: 1)
    try:
        with pytest.raises(ArithmeticError, match="not an integer"):
            call(Poisson(Fraction(1, 2)))
    finally:
        clear_caches()
