"""Sampling cross-validation of the exact moment pipeline.

Samplers exist for every built-in distribution (not for custom moment
lists, which do not determine one).  Estimates carry the exact target
value alongside the empirical mean and standard error, so acceptance is
a 5-sigma comparison, plus a float-rounding allowance, against an
independently computed rational.  All randomness flows from an explicit
64-bit seed through numpy's seedable, splittable PCG64 generator; a run
is reproducible bit for bit.  numpy is imported on the first draw, not
with this module, so the exact commands never load it.  A parameter, or
an exact target, that leaves float range (int64 range for binomial
trials) is a ValueError that names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .moments import (Bernoulli, Binomial, Custom, DiscreteUniform, Geometric,
                      MomentModel, PointMass, Poisson, require_sum_args,
                      sum_degen_moment)
from .ratcore import RationalLike, rat

if TYPE_CHECKING:
    import numpy as np


_INT64_MAX = 2 ** 63 - 1


class SamplerUnsupportedError(ValueError):
    """Raised for models that declare moments only and cannot be sampled."""


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and the exact target."""

    mean: float
    std_error: float
    samples: int
    target: Fraction

    @property
    def gap(self) -> float:
        """Absolute distance between the float mean and the exact target."""
        return abs(self.mean - float(self.target))

    def within(self, sigmas: float) -> bool:
        """Gap within `sigmas` standard errors (exact match when sigma=0)."""
        if self.std_error == 0.0:
            return self.gap == 0.0
        return self.gap <= sigmas * self.std_error

    def passes(self) -> bool:
        """The acceptance rule: gap <= 5 std_error + 1e-12 max(1, |target|).
        The relative term absorbs float rounding, which the standard error
        of a deterministic model (zero or noise) does not cover."""
        target = float(self.target)
        return self.gap <= 5.0 * self.std_error + 1e-12 * max(1.0, abs(target))


def _draw(model: MomentModel, rng: np.random.Generator,
          count: int) -> np.ndarray:
    import numpy as np

    if isinstance(model, PointMass):
        return np.full(count, _float("point mass c", model.c))
    if isinstance(model, Bernoulli):
        return (rng.random(count) < float(model.p)).astype(np.float64)
    if isinstance(model, Binomial):
        if model.trials > _INT64_MAX:
            raise ValueError(f"binomial trials {model.trials} leave the "
                             "sampler's int64 range")
        return rng.binomial(model.trials, float(model.p), count).astype(np.float64)
    if isinstance(model, DiscreteUniform):
        return rng.integers(0, model.max + 1, size=count).astype(np.float64)
    if isinstance(model, Poisson):
        rate = _float("poisson rate", model.rate)
        return rng.poisson(rate, count).astype(np.float64)
    if isinstance(model, Geometric):
        # numpy counts trials up to and including the first success; shift
        # to failures-before-success, supported on {0, 1, 2, ...}.
        return rng.geometric(float(model.p), count).astype(np.float64) - 1.0
    if isinstance(model, Custom):
        raise SamplerUnsupportedError(
            "custom moment lists do not determine a distribution to sample")
    raise TypeError(f"not a moment model: {model!r}")


def _float(name: str, value: Fraction | int) -> float:
    """float(value), or a ValueError that names the value and its size if
    it leaves float range."""
    try:
        return float(value)
    except OverflowError:
        size = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise ValueError(f"{name} of magnitude about 10^{size:.0f} leaves "
                         "float range") from None


def sample_Y(model: MomentModel, rng_seed: int, count: int) -> np.ndarray:
    """i.i.d. samples of a built-in model, deterministic given the seed."""
    import numpy as np

    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return _draw(model, np.random.default_rng(rng_seed), count)


def estimate_sum_degen_moment(model: MomentModel, k: int, scale: int,
                              shift: int, n: int, lam: RationalLike,
                              samples: int, seed: int) -> McEstimate:
    """Estimate E[(scale*S_k + shift)_{n,lam}] by simple averaging.

    Each sample draws k independent copies, forms the generalized falling
    factorial of scale*sum + shift in float arithmetic, and the estimate
    is compared against the exact value from the moment pipeline, which
    is attached as the target.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, "
                         f"got {samples}")
    # Check the target's indices before the draw, but compute it after:
    # a custom model fails in the sampler, not on a short moment list.
    require_sum_args(k, scale, shift, n)
    import numpy as np

    lam = rat(lam)
    rng = np.random.default_rng(seed)
    lam_f = _float("lambda", lam)
    try:
        totals = np.zeros(samples)
        for _ in range(k):
            totals += _draw(model, rng, samples)
        arg = _float("scale", scale) * totals + _float("shift", shift)
        values = np.ones(samples)
        for i in range(n):
            values = values * (arg - i * lam_f)
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / math.sqrt(samples))
    except MemoryError as exc:
        raise ValueError(f"{samples} samples do not fit in memory") from exc
    target = sum_degen_moment(model, k, scale, shift, n, lam)
    # McEstimate reads the target as a float.
    _float(f"exact target E[({scale} S_{k} + {shift})_{{{n},{lam}}}]", target)
    return McEstimate(mean=mean, std_error=std_error, samples=samples,
                      target=target)
