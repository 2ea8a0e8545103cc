from fractions import Fraction

import numpy as np
import pytest

from probdowling import (Bernoulli, Custom, DiscreteUniform, Geometric,
                         PointMass, Poisson, estimate_sum_degen_moment,
                         sample_Y)
from probdowling import montecarlo
from probdowling.montecarlo import SamplerUnsupportedError


def test_point_mass_samples():
    got = sample_Y(PointMass(Fraction(1)), 123, 5)
    assert got.tolist() == [1.0] * 5


def test_sampling_is_deterministic_per_seed():
    Y = Poisson(Fraction(1))
    a = sample_Y(Y, 42, 1000)
    b = sample_Y(Y, 42, 1000)
    c = sample_Y(Y, 43, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_support_checks():
    u = sample_Y(DiscreteUniform(3), 7, 4000)
    assert set(np.unique(u)) <= {0.0, 1.0, 2.0, 3.0}
    g = sample_Y(Geometric(Fraction(1, 2)), 7, 4000)
    assert g.min() >= 0.0          # failures before first success
    b = sample_Y(Bernoulli(Fraction(1, 2)), 7, 4000)
    assert set(np.unique(b)) <= {0.0, 1.0}


def test_bernoulli_law_of_large_numbers_five_sigma():
    n = 100_000
    draws = sample_Y(Bernoulli(Fraction(1, 2)), 2024, n)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - 0.5) <= 5 * se


def test_geometric_mean_five_sigma():
    # mean of failures-before-success at p = 1/2 is 1.
    n = 100_000
    draws = sample_Y(Geometric(Fraction(1, 2)), 99, n)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - 1.0) <= 5 * se


def test_custom_model_has_no_sampler():
    with pytest.raises(SamplerUnsupportedError):
        sample_Y(Custom((Fraction(1), Fraction(1))), 0, 10)


def test_estimate_deterministic_model_is_exact():
    # dyadic lambda keeps every float operation exact, so the estimate
    # must match the target bit for bit with zero spread.
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        est = estimate_sum_degen_moment(PointMass(Fraction(1)), 2, 2, 1, 2,
                                        lam, samples=2000, seed=5)
        assert est.std_error == 0.0
        assert est.mean == float(est.target)
        assert est.gap <= 5 * est.std_error
    est = estimate_sum_degen_moment(PointMass(Fraction(1)), 2, 2, 1, 1,
                                    Fraction(1, 3), samples=2000, seed=5)
    assert est.mean == 5.0 and est.std_error == 0.0
    assert est.target == 5


def test_estimate_bernoulli_within_five_sigma():
    est = estimate_sum_degen_moment(Bernoulli(Fraction(1, 2)), 2, 2, 1, 1,
                                    Fraction(1, 3), samples=100_000, seed=11)
    assert est.target == 3
    assert est.gap <= 5 * est.std_error


def test_estimate_poisson_within_five_sigma():
    est = estimate_sum_degen_moment(Poisson(Fraction(1)), 3, 1, 0, 2,
                                    Fraction(1, 2), samples=100_000, seed=17)
    assert est.gap <= 5 * est.std_error


def test_estimate_validates_sample_count():
    with pytest.raises(ValueError):
        estimate_sum_degen_moment(Bernoulli(Fraction(1, 2)), 1, 1, 0, 1,
                                  0, samples=1, seed=0)


@pytest.mark.parametrize("k, scale, shift, n, message", [
    (3, 0, 1, 3, "scale must be a positive integer"),
    (-1, 1, 1, 3, "copy count must be nonnegative"),
    (3, 1, -1, 3, "shift must be nonnegative"),
    (3, 1, 1, -1, "n must be nonnegative"),
])
def test_invalid_target_is_rejected_before_any_draw(monkeypatch, k, scale,
                                                     shift, n, message):
    def no_draw(*args):
        raise AssertionError("sampled before checking the target")

    monkeypatch.setattr(montecarlo, "_draw", no_draw)
    with pytest.raises(ValueError, match=message):
        estimate_sum_degen_moment(Bernoulli(Fraction(1, 2)), k, scale, shift,
                                  n, Fraction(1, 3), 2_000_000, 1)
