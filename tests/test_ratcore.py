from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probdowling import (Params, binom, degen_falling, falling,
                         format_rational, rat)
from probdowling.moments import pascal_row
from probdowling.ratcore import binomial_row, dot, pair_sum

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
small_n = st.integers(min_value=0, max_value=9)


def test_falling_frozen_values():
    assert falling(5, 0) == 1
    assert falling(5, 3) == 60            # 5*4*3
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)   # (1/2)(-1/2)


def test_degen_falling_frozen_values():
    assert degen_falling(3, 0, 7) == 1
    assert degen_falling(3, 2, Fraction(1, 2)) == Fraction(15, 2)  # 3*(5/2)
    assert degen_falling(2, 3, 0) == 8


@given(x=rationals, n=small_n)
def test_degen_falling_lambda_one_is_falling(x, n):
    assert degen_falling(x, n, 1) == falling(x, n)


@given(x=rationals, n=small_n)
def test_degen_falling_lambda_zero_is_power(x, n):
    assert degen_falling(x, n, 0) == x**n


@given(x=rationals, n=st.integers(min_value=1, max_value=9), lam=rationals)
def test_degen_falling_product_recurrence(x, n, lam):
    assert degen_falling(x, n, lam) == \
        degen_falling(x, n - 1, lam) * (x - (n - 1) * lam)


def test_binom_frozen_values():
    assert binom(4, 2) == 6
    assert binom(3, 0) == 1
    assert binom(2, 5) == 0


@given(n=st.integers(min_value=1, max_value=12),
       k=st.integers(min_value=1, max_value=12))
def test_binom_pascal(n, k):
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


@given(x=rationals, n=small_n, lam=rationals)
def test_canonical_form_closure(x, n, lam):
    v = degen_falling(x, n, lam)
    assert v.denominator > 0
    assert gcd(v.numerator, v.denominator) == 1


def test_rat_and_format_round_trip():
    assert rat("1/3") == Fraction(1, 3)
    assert rat("-7") == -7
    assert format_rational(Fraction(11, 3)) == "11/3"
    assert format_rational(Fraction(4, 2)) == "2"
    assert rat(format_rational(Fraction(-5, 15))) == Fraction(-1, 3)
    with pytest.raises(TypeError):
        rat(0.5)


def test_params_validation():
    p = Params(2, "1/3", 0)
    assert p.lam == Fraction(1, 3) and p.r == 0
    with pytest.raises(ValueError):
        Params(0, Fraction(1))
    with pytest.raises(ValueError):
        Params(1, Fraction(1), -1)


def test_params_reject_bool_counts():
    with pytest.raises(ValueError,
                       match="m must be a positive integer, got True"):
        Params(True, 0, 0)
    with pytest.raises(ValueError,
                       match="r must be a nonnegative integer, got True"):
        Params(1, 0, True)
    with pytest.raises(ValueError, match="got False"):
        Params(1, 0, False)


# Ints, zeros, and Fractions whose denominators are sometimes coprime and
# sometimes share factors (2, 3 and 5 divide many of 1..60).
scalars = st.one_of(st.integers(min_value=-30, max_value=30),
                    st.fractions(min_value=-30, max_value=30,
                                 max_denominator=60),
                    st.sampled_from([0, Fraction(0)]))
triples = st.lists(st.tuples(scalars, scalars, scalars), max_size=12)


@given(terms=triples)
def test_dot_equals_the_fraction_sum(terms):
    ws, xs, ys = ([t[i] for t in terms] for i in range(3))
    plain = sum((Fraction(x) * y for x, y in zip(xs, ys)), Fraction(0))
    weighted = sum((Fraction(w) * x * y for w, x, y in terms), Fraction(0))
    for got, want in ((dot(xs, ys), plain), (dot(xs, ys, ws), weighted)):
        assert type(got) is Fraction and got == want
        assert gcd(got.numerator, got.denominator) == 1


@given(pairs=st.lists(st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                                st.integers(min_value=1, max_value=720)),
                      max_size=12))
def test_pair_sum_equals_the_fraction_sum(pairs):
    got = pair_sum(pairs)
    assert type(got) is Fraction
    assert got == sum((Fraction(n, d) for n, d in pairs), Fraction(0))


def test_dot_of_nothing_is_zero_and_lengths_must_match():
    assert dot([], []) == 0 and type(dot([], [], [])) is Fraction
    assert pair_sum([]) == 0
    with pytest.raises(ValueError):
        dot([1, 2], [Fraction(1, 3)])
    with pytest.raises(ValueError):
        dot([1], [2, 3])
    with pytest.raises(ValueError):
        dot([1, 2], [3, 4], [5])


@given(n=st.integers(min_value=0, max_value=40))
def test_binomial_row(n):
    assert binomial_row(n) == [binom(n, j) for j in range(n + 1)]
    assert pascal_row(n) == tuple(binomial_row(n))


@pytest.mark.parametrize("row", [binomial_row, pascal_row])
def test_a_negative_row_index_is_rejected(row):
    # range(n) is empty for n < 0, so a row built without the check reads
    # [1] there, and the stored row would keep it.
    with pytest.raises(ValueError, match="^row index must be nonnegative"):
        row(-3)
