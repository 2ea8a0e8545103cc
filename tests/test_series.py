from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probdowling import (EgfSeries, degen_falling, egf_coeff, egf_const,
                         egf_degen_exp, egf_mul, egf_scale, egf_sub)
from probdowling.series import egf_mul_coeff

from oracles import bell_brute, egf_add, egf_exp, egf_pow

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10)


def series_strategy(order, zero_const=False):
    first = st.just(Fraction(0)) if zero_const else rationals
    return st.tuples(first, *([rationals] * order)).map(EgfSeries)


def test_degen_exp_coefficients():
    s = egf_degen_exp(2, Fraction(1, 3), 4)
    assert egf_coeff(s, 0) == 1
    assert egf_coeff(s, 2) == Fraction(10, 3)      # 2*(2 - 1/3)
    classical = egf_degen_exp(1, 0, 3)
    assert classical.coeffs == (1, 1, 1, 1)


@given(lam=rationals, x=rationals, n=st.integers(min_value=0, max_value=8))
def test_degen_exp_matches_degen_falling(lam, x, n):
    s = egf_degen_exp(x, lam, 8)
    assert egf_coeff(s, n) == degen_falling(x, n, lam)


def test_mul_identity_and_exponential_law():
    one = egf_const(1, 5)
    e = egf_degen_exp(1, 0, 5)
    assert egf_mul(one, e) == e
    # e^t * e^t = e^{2t}: coefficient n is 2^n.
    assert egf_mul(e, e).coeffs == tuple(Fraction(2)**n for n in range(6))
    # at lam=1 the square has coefficient 2 equal to (2)_{2,1} = 2.
    e1 = egf_degen_exp(1, 1, 4)
    assert egf_coeff(egf_mul(e1, e1), 2) == degen_falling(2, 2, 1) == 2


def test_mul_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        egf_mul(egf_const(1, 3), egf_const(1, 4))


def test_negative_order_is_an_error():
    # Not an order-0 series: the requested coefficients do not exist.
    with pytest.raises(ValueError, match="^order must be nonnegative"):
        egf_const(1, -3)
    with pytest.raises(ValueError, match="^order must be nonnegative"):
        egf_degen_exp(2, Fraction(1, 3), -2)


@given(a=series_strategy(5), b=series_strategy(5))
def test_mul_commutative(a, b):
    assert egf_mul(a, b) == egf_mul(b, a)


@given(a=series_strategy(4), b=series_strategy(4), c=series_strategy(4))
def test_mul_associative(a, b, c):
    assert egf_mul(egf_mul(a, b), c) == egf_mul(a, egf_mul(b, c))


@given(a=series_strategy(5), b=series_strategy(3))
def test_mul_coeff_is_one_product_coefficient(a, b):
    # The operands may differ in order; coefficients up to the lower
    # order match the product of the truncated operands.
    product = egf_mul(EgfSeries(a.coeffs[:4]), b)
    assert [egf_mul_coeff(a, b, n) for n in range(4)] == list(product.coeffs)


def test_pow_conventions():
    s = egf_degen_exp(1, Fraction(1, 2), 4)
    assert egf_pow(s, 0) == egf_const(1, 4)
    assert egf_pow(s, 1) == s
    assert egf_coeff(egf_pow(s, 3), 1) == 3     # (3)_{1,lam} = 3


def test_exp_of_zero_and_two_term_series():
    zero = egf_const(0, 4)
    assert egf_exp(zero) == egf_const(1, 4)
    # exp with only x1, x2 nonzero: coefficient 2 is x1^2 + x2
    # (partitions of a 2-set: two singletons, or one pair).
    x1, x2 = Fraction(3, 2), Fraction(-5)
    s = EgfSeries((0, x1, x2, 0, 0))
    assert egf_coeff(egf_exp(s), 2) == x1**2 + x2


def test_exp_of_all_ones_gives_set_partition_counts():
    expected = [bell_brute(n) for n in range(7)]   # 1,1,2,5,15,52,203
    assert expected[:4] == [1, 1, 2, 5]
    inner = EgfSeries((0,) + (1,) * 6)
    assert list(egf_exp(inner).coeffs) == expected


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        egf_exp(egf_const(1, 3))


@given(a=series_strategy(5, zero_const=True),
       b=series_strategy(5, zero_const=True))
def test_exp_turns_sums_into_products(a, b):
    assert egf_exp(egf_add(a, b)) == egf_mul(egf_exp(a), egf_exp(b))


def test_coeff_bounds_and_linearity():
    s = egf_const(1, 2)
    with pytest.raises(IndexError):
        egf_coeff(s, 3)
    a = egf_degen_exp(2, Fraction(1, 3), 4)
    b = egf_degen_exp(1, Fraction(1, 3), 4)
    for n in range(5):
        assert egf_coeff(egf_add(a, b), n) == egf_coeff(a, n) + egf_coeff(b, n)
        assert egf_coeff(egf_sub(a, b), n) == egf_coeff(a, n) - egf_coeff(b, n)
    assert egf_scale(Fraction(1, 2), a).coeffs == \
        tuple(c / 2 for c in a.coeffs)


def test_hash_is_computed_once(monkeypatch):
    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    s = EgfSeries((1, Fraction(1, 2), Fraction(2, 3)))
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    first = hash(s)
    calls.clear()
    assert hash(s) == first and calls == []
    monkeypatch.undo()
    twin = EgfSeries(s.coeffs)
    assert twin == s and hash(twin) == first
    assert repr(twin) == repr(s) == \
        "EgfSeries(coeffs=(Fraction(1, 1), Fraction(1, 2), Fraction(2, 3)))"


def test_mul_coeff_index_bounds():
    # Same rule as egf_coeff: a negative index or one past either operand's
    # order is an IndexError, never a zero or a truncated sum.
    a = egf_degen_exp(2, Fraction(1, 3), 4)
    b = egf_degen_exp(1, Fraction(1, 3), 2)
    for n in (-1, -3, 3, 5):
        with pytest.raises(IndexError):
            egf_mul_coeff(a, b, n)
        with pytest.raises(IndexError):
            egf_mul_coeff(b, a, n)
    with pytest.raises(IndexError):
        egf_coeff(a, -1)
