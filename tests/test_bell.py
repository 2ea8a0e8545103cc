import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probdowling import (EgfSeries, PolyX, bell_partial, bell_partial_series,
                         egf_coeff)
from probdowling import bell as bell_mod
from probdowling.bell import _index_vectors, bell_partial_rows
from probdowling.dowling import POLY_ONE

from oracles import (bell_args_series, bell_brute, bell_complete,
                     bell_partial_brute, egf_exp, index_vectors_unpruned)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def random_args(rng, length):
    return [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            for _ in range(length)]


def test_partial_frozen_values():
    assert bell_partial(0, 0, []) == 1
    assert bell_partial(3, 2, [2, 5]) == 30     # 3 * x1 * x2
    assert bell_partial(5, 6, []) == 0
    for n in range(1, 6):
        args = [0] * (n - 1) + [7]
        assert bell_partial(n, 1, args) == 7    # B_{n,1} = x_n


def test_partial_matches_set_partition_enumeration():
    rng = random.Random(7)
    for n in range(9):
        args = random_args(rng, max(n, 1))
        for k in range(n + 1):
            assert bell_partial(n, k, args) == bell_partial_brute(n, k, args)


def test_partial_with_mixed_denominators_matches_set_partitions():
    # The arguments are scaled to one common denominator (here 2520) and
    # the integer sum is divided by its k-th power once.
    args = [Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 7), "-1/4",
            Fraction(7, 9), Fraction(-11, 6), Fraction(3, 5)]
    for n in range(9):
        for k in range(n + 1):
            assert bell_partial(n, k, args) == bell_partial_brute(n, k, args)


def test_shape_table_is_keyed_by_shape_not_by_arguments():
    # A second argument list for the same (n, k) reads the same shapes:
    # the table gains no entry, and the values differ as they should.
    first = [Fraction(1, 2), 2, Fraction(-3, 5), 4, 5]
    second = [3, Fraction(-1, 4), 1, Fraction(2, 9), 7]
    bell_mod.clear_caches()
    assert bell_partial(7, 3, first) == bell_partial_brute(7, 3, first)
    size = bell_mod._bell_shapes.cache_info().currsize
    assert size > 0
    assert bell_partial(7, 3, second) == bell_partial_brute(7, 3, second)
    assert bell_mod._bell_shapes.cache_info().currsize == size


def test_partial_matches_series_route():
    rng = random.Random(11)
    for trial in range(10):
        args = random_args(rng, 10)
        inner = bell_args_series(args, 10)
        for k in range(11):
            series = bell_partial_series(k, inner)
            for n in range(k, 11):
                assert egf_coeff(series, n) == bell_partial(n, k, args)


def test_series_route_conventions():
    inner = bell_args_series([2, 5], 4)
    assert bell_partial_series(0, inner).coeffs[0] == 1
    assert bell_partial_series(1, inner) == inner
    assert egf_coeff(bell_partial_series(2, inner), 3) == 30
    with pytest.raises(ValueError):
        bell_partial_series(2, EgfSeries((1, 2, 3)))


def test_complete_frozen_values():
    assert bell_complete(0, []) == 1
    x1, x2 = Fraction(2, 3), Fraction(-5)
    assert bell_complete(2, [x1, x2]) == x1**2 + x2
    assert bell_complete(3, [1, 1, 1]) == bell_brute(3) == 5


def test_complete_matches_exponential():
    rng = random.Random(13)
    args = random_args(rng, 10)
    inner = bell_args_series(args, 10)
    expseries = egf_exp(inner)
    for n in range(11):
        assert bell_complete(n, args) == egf_coeff(expseries, n)


@given(a=rationals, n=st.integers(min_value=0, max_value=8))
def test_partial_homogeneity_in_block_count(a, n):
    rng = random.Random(17)
    args = random_args(rng, max(n, 1))
    scaled = [a * v for v in args]
    for k in range(n + 1):
        assert bell_partial(n, k, scaled) == a**k * bell_partial(n, k, args)


def test_argument_length_errors():
    with pytest.raises(ValueError) as exc:
        bell_partial(5, 2, [1, 2, 3])
    assert "4 arguments" in str(exc.value)
    with pytest.raises(ValueError):
        bell_complete(3, [1, 1])


def test_series_power_far_past_the_recursion_limit():
    # (t)^k / k! truncated at order 1 vanishes for every k >= 2.
    assert bell_partial_series(1200, EgfSeries((0, 1))).coeffs == (0, 0)


def test_polynomial_chain_matches_the_rational_chain_at_random_points():
    # Arguments that are polynomials in x: the chain's B_{n,k}, evaluated at
    # x, must equal the rational chain of the evaluated arguments.
    rng = random.Random(23)
    for n in range(9):
        args = [PolyX(tuple(random_args(rng, rng.randint(1, 4))))
                for _ in range(n)]
        row = bell_partial_rows(n, args, POLY_ONE)[n]
        assert len(row) == n + 1
        for _ in range(3):
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            inner = bell_args_series([a.evaluate(x) for a in args], max(n, 1))
            for k in range(n + 1):
                assert row[k].evaluate(x) == \
                    egf_coeff(bell_partial_series(k, inner), n)


def test_rational_chain_matches_enumeration():
    rng = random.Random(29)
    for n in range(9):
        args = random_args(rng, n)
        row = bell_partial_rows(n, args, Fraction(1))[n]
        assert row == tuple(bell_partial(n, k, args) for k in range(n + 1))
    with pytest.raises(ValueError, match="4 arguments"):
        bell_partial_rows(4, [1, 2, 3], Fraction(1))


def test_rows_follow_the_callers_ring():
    # 1 == Fraction(1) and both hash alike, so the memo key must hold the
    # ring as well as the values: the int call must not answer the
    # Fraction call that follows it.
    bell_mod.clear_caches()
    ints = bell_partial_rows(3, [1, 2, 3], 1)
    fracs = bell_partial_rows(3, [Fraction(1), Fraction(2), Fraction(3)],
                              Fraction(1))
    assert ints == fracs
    assert {type(b) for row in ints for b in row} == {int}
    assert {type(b) for row in fracs for b in row} == {Fraction}


@given(prefix=st.lists(rationals, max_size=6), last=rationals,
       other=rationals)
def test_rows_sharing_a_prefix_match_enumeration(prefix, last, other):
    # The rows are memoized by argument prefix: two lists that differ in
    # their last entry only share every row but the last.
    n = len(prefix) + 1
    for args in (prefix + [last], prefix + [other]):
        rows = bell_partial_rows(n, args, Fraction(1))
        assert rows == tuple(
            tuple(bell_partial(l, k, args) for k in range(l + 1))
            for l in range(n + 1))


def test_pruned_index_walk_matches_the_unpruned_walk():
    # The walk stops a branch that cannot close and yields as soon as no
    # block is left; it must still yield every vector, in the same order.
    for n in range(17):
        for k in range(n + 1):
            for width in range(n + 2):
                assert list(_index_vectors(n, k, width)) == \
                    list(index_vectors_unpruned(n, k, width)), (n, k, width)
