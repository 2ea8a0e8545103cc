"""Exact moment oracles for a random variable Y and i.i.d. sums of it.

A moment model is a small frozen value object mapping n to the exact raw
moment E[Y^n].  Built-in models all have a moment generating function in a
neighborhood of 0.  Sums S_k = Y_1 + ... + Y_k of independent copies are
handled through EGF powers: the series with coefficient n equal to
E[(scale*Y)_{n,lam}] is raised to the k-th power, which is exactly the
expectation of the product over independent copies.  Truncation is
lossless, so one chain of these powers per (model, scale, lam),
``_mgf_chain``, serves every truncation order: a request at a higher
order extends the powers it needs upward instead of rebuilding them.

Every expectation is built on ``falling_row``: (x + shift)_{n,lam} in
powers of x, the degenerate Stirling numbers of the first kind at shift 0.
Expectations are memoized by value (``ratcore.memo``); models compare and
hash by their parameters, so equal models share cache entries.
``clear_caches`` drops every memo table; recomputation is identical.

The geometric model counts failures before the first success, i.e. it is
supported on {0, 1, 2, ...}.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Sequence, Union

from .ratcore import (RationalLike, clear_caches, format_rational, memo, rat,
                      stirling2)
# egf_mul is imported but unused: the benchmark's tracer self-test patches
# and reads it as moments.egf_mul.
from .series import (EgfSeries, egf_const, egf_degen_exp, egf_mul,  # noqa: F401
                     egf_mul_coeff)


class MomentOrderError(ValueError):
    """A custom model was asked for a moment beyond its declared list."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"moment of order {needed} required, but the custom model only "
            f"declares moments up to order {available - 1}")


@dataclass(frozen=True)
class PointMass:
    """Deterministic variable equal to c."""

    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", rat(self.c))


@dataclass(frozen=True)
class Bernoulli:
    """Indicator variable: 1 with probability p, else 0."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", rat(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class Binomial:
    """Number of successes in `trials` independent Bernoulli(p) trials."""

    trials: int
    p: Fraction

    def __post_init__(self) -> None:
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        object.__setattr__(self, "p", rat(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform on the integers {0, 1, ..., max}."""

    max: int

    def __post_init__(self) -> None:
        if type(self.max) is not int or self.max < 0:
            raise ValueError(f"max must be a nonnegative integer, got {self.max!r}")


@dataclass(frozen=True)
class Poisson:
    """Poisson with rational rate >= 0."""

    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", rat(self.rate))
        if self.rate < 0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")


@dataclass(frozen=True)
class Geometric:
    """Failures before the first success, success probability p.

    Supported on {0, 1, 2, ...}; p must be positive so the MGF exists
    near 0.
    """

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", rat(self.p))
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class Custom:
    """Explicit moment list; entry n is E[Y^n], entry 0 must be 1.

    Asking for a moment past the end of the list is an error, never an
    extrapolation.
    """

    moments: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ms = tuple(rat(v) for v in self.moments)
        if not ms or ms[0] != 1:
            raise ValueError("a custom model needs moments[0] == 1 (E[Y^0] = 1)")
        object.__setattr__(self, "moments", ms)


MomentModel = Union[PointMass, Bernoulli, Binomial, DiscreteUniform,
                    Poisson, Geometric, Custom]


@memo
def raw_moment(model: MomentModel, n: int) -> Fraction:
    """Exact raw moment E[Y^n] of a moment model."""
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    if isinstance(model, PointMass):
        return model.c ** n
    if isinstance(model, Bernoulli):
        return Fraction(1) if n == 0 else model.p
    if isinstance(model, Binomial):
        p, q, N = model.p, 1 - model.p, model.trials
        return sum((comb(N, j) * p**j * q**(N - j) * Fraction(j)**n
                    for j in range(N + 1)), Fraction(0))
    if isinstance(model, DiscreteUniform):
        return sum((Fraction(j)**n for j in range(model.max + 1)),
                   Fraction(0)) / (model.max + 1)
    if isinstance(model, Poisson):
        # Touchard expansion: E[Y^n] = sum_k S2(n,k) rate^k.
        return sum((stirling2(n, k) * model.rate**k for k in range(n + 1)),
                   Fraction(0))
    if isinstance(model, Geometric):
        # Factorial moments E[(Y)_k] = k! ((1-p)/p)^k, then expand over the
        # falling-factorial basis.
        ratio = (1 - model.p) / model.p
        return sum((stirling2(n, k) * factorial(k) * ratio**k
                    for k in range(n + 1)), Fraction(0))
    if isinstance(model, Custom):
        if n >= len(model.moments):
            raise MomentOrderError(n, len(model.moments))
        return model.moments[n]
    raise TypeError(f"not a moment model: {model!r}")


@memo
def falling_row(shift: int | Fraction, n: int,
                lam: Fraction) -> tuple[Fraction, ...]:
    """(x + shift)_{n,lam} = prod_{i<n} (x + shift - i*lam) as coefficients
    a_0..a_n in powers of x, built as row n - 1 times x + shift - (n-1)*lam;
    at shift 0, the degenerate Stirling numbers of the first kind."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return (Fraction(1),)
    # Fill the lower rows upward first, so the call for row n - 1 is a memo
    # hit (or one frame deep) however large n is.
    for l in range(n - 1):
        falling_row(shift, l, lam)
    prev = (Fraction(0),) + falling_row(shift, n - 1, lam) + (Fraction(0),)
    root = shift - (n - 1) * lam
    return tuple(prev[j] + root * prev[j + 1] for j in range(n + 1))


@memo
def degen_moment(model: MomentModel, n: int, lam: Fraction) -> Fraction:
    """E[Y(Y-lam)(Y-2*lam)...(Y-(n-1)*lam)], exactly.

    Expands the product into powers of Y and applies raw moments linearly.
    """
    coeffs = falling_row(0, n, rat(lam))
    return sum((c * raw_moment(model, j) for j, c in enumerate(coeffs) if c),
               Fraction(0))


@memo
def egf_mgf_degen(model: MomentModel, scale: int, lam: Fraction,
                  order: int) -> EgfSeries:
    """Series whose n-th coefficient is E[(scale*Y)_{n,lam}].

    This is the expectation of the degenerate exponential of scale*Y,
    the generating kernel of the probabilistic Whitney families.
    """
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    lam = rat(lam)
    out = []
    for n in range(order + 1):
        coeffs = falling_row(0, n, lam)
        out.append(sum((c * Fraction(scale)**j * raw_moment(model, j)
                        for j, c in enumerate(coeffs) if c), Fraction(0)))
    return EgfSeries(tuple(out))


@memo
def _mgf_chain(model: MomentModel, scale: int,
               lam: Fraction) -> dict[int, EgfSeries]:
    """The power chain of P = egf_mgf_degen(model, scale, lam, ·), one per
    (model, scale, lam) and shared by every truncation order.

    Entry k >= 2 holds P^k up to the highest order asked of it so far;
    ``_chain_power`` grows it.  Truncation is lossless, so coefficient n
    of an entry is the same at every order >= n.  An entry is replaced
    whole by a longer immutable series, never changed in place, so a
    reader sees a complete prefix, and a race between two growers can
    only recompute coefficients, never corrupt them.
    """
    return {}


def _chain_power(model: MomentModel, scale: int, lam: Fraction, order: int,
                 k: int) -> EgfSeries:
    """P^k to at least the given order, the kernel of S_k: read from
    ``_mgf_chain`` and grown there first if it is too short."""
    if k == 0:
        return egf_const(1, order)
    # egf_mgf_degen checks scale and order before the chain gets an entry.
    base = egf_mgf_degen(model, scale, lam, order)
    chain = _mgf_chain(model, scale, lam)
    # Start from the highest power already long enough (P^1 is the base),
    # so a warm request reads one entry and a cold one fills only the gap.
    start = next((j for j in range(k, 1, -1)
                  if j in chain and chain[j].order >= order), 1)
    power = chain[start] if start > 1 else base
    for j in range(start + 1, k + 1):
        # Coefficient n of P^j is sum_i C(n, i) P_i [P^(j-1)]_(n-i); keep
        # the coefficients the entry already has and append the rest.
        done = chain[j].coeffs if j in chain else ()
        power = EgfSeries(done + tuple(egf_mul_coeff(base, power, n)
                                       for n in range(len(done), order + 1)))
        chain[j] = power
    return power


def sum_degen_moment(model: MomentModel, k: int, scale: int, shift: int,
                     n: int, lam: RationalLike) -> Fraction:
    """Exact E[(scale*S_k + shift)_{n,lam}] with S_k = Y_1 + ... + Y_k.

    Extracted as coefficient n of (E-series)^k times the degenerate
    exponential of the shift, where E-series is the scaled degenerate MGF;
    its powers come from the one chain per (model, scale, lam) in
    ``_mgf_chain``, whatever n is asked.
    """
    for name, value in (("copy count", k), ("shift", shift), ("n", n)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return _sum_degen_moment_cached(model, k, scale, shift, n, rat(lam))


@memo
def _sum_degen_moment_cached(model: MomentModel, k: int, scale: int,
                             shift: int, n: int, lam: Fraction) -> Fraction:
    return egf_mul_coeff(_chain_power(model, scale, lam, n, k),
                         egf_degen_exp(shift, lam, n), n)


def sum_plain_falling_moment(model: MomentModel, k: int, scale: int,
                             shift: int, j: int) -> Fraction:
    """Exact E[(scale*S_k + shift)_j] with the ordinary falling factorial."""
    return sum_degen_moment(model, k, scale, shift, j, Fraction(1))


_KIND_TO_CLS = {
    "pointmass": PointMass,
    "bernoulli": Bernoulli,
    "binomial": Binomial,
    "discreteuniform": DiscreteUniform,
    "poisson": Poisson,
    "geometric": Geometric,
    "custom": Custom,
}


def model_from_config(config: Mapping[str, object]) -> MomentModel:
    """Build a moment model from its JSON object form.

    Rationals are "num/den" strings (plain "num" for integers), e.g.
    {"kind": "bernoulli", "p": "1/2"} or
    {"kind": "custom", "moments": ["1", "1/2", "1/2"]}.  The fields are
    those of the model's dataclass, no more and no fewer; the counts
    "trials" and "max" must be JSON integers.
    """
    if not isinstance(config, Mapping):
        raise ValueError(f"model config must be a JSON object, got {config!r}")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_TO_CLS:
        raise ValueError(f"unknown model kind {kind!r}; "
                         f"expected one of {sorted(_KIND_TO_CLS)}")
    cls = _KIND_TO_CLS[kind]
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(config) - set(names) - {"kind"})
    if unknown:
        raise ValueError(f"model config for {kind!r} has unknown fields {unknown}")
    missing = [name for name in names if name not in config]
    if missing:
        raise ValueError(f"model config for {kind!r} is missing fields {missing}")
    if cls is Custom:
        moments = config["moments"]
        if not isinstance(moments, Sequence) or isinstance(moments, str):
            raise ValueError("custom moments must be a list of rational strings")
        return Custom(tuple(rat(_str_or_int(v)) for v in moments))
    # Counts go to the dataclass checks as given; the rest are rationals.
    return cls(*(config[name] if name in ("trials", "max")
                 else rat(_str_or_int(config[name])) for name in names))


_CLS_TO_KIND = {cls: kind for kind, cls in _KIND_TO_CLS.items()}


def model_to_config(model: MomentModel) -> dict:
    """Inverse of model_from_config; rationals become "num/den" strings."""
    if type(model) not in _CLS_TO_KIND:
        raise TypeError(f"not a moment model: {model!r}")
    config: dict = {"kind": _CLS_TO_KIND[type(model)]}
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, int):
            config[f.name] = value
        elif isinstance(value, tuple):
            config[f.name] = [format_rational(v) for v in value]
        else:
            config[f.name] = format_rational(value)
    return config


def _str_or_int(value: object) -> RationalLike:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"rationals must be given as strings or ints, got {value!r}")
    if not isinstance(value, (str, int)):
        raise ValueError(f"cannot read {value!r} as a rational")
    return value
