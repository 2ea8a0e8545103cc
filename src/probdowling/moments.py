"""Exact moment oracles for a random variable Y and i.i.d. sums of it.

A moment model is a small frozen value object mapping n to the exact raw
moment E[Y^n].  Built-in models all have a moment generating function in a
neighborhood of 0.  Sums S_k = Y_1 + ... + Y_k of independent copies are
handled through EGF powers: the series with coefficient n equal to
E[(scale*Y)_{n,lam}] is raised to the k-th power, which is exactly the
expectation of the product over independent copies.  That series, the
Whitney kernel ``egf_mgf_degen``, is stored once per (model, scale, lam),
``_mgf_kernel``, grown to the highest order asked with one ``degen_moment``
per new coefficient, and read whole or as a prefix; ``stored_kernel``
returns the stored series itself, for callers that slice it.  Its powers
times the degenerate exponential of a shift are the sum moments
themselves, stored once in one chain per (model, scale, shift, lam),
``_mgf_chain``, grown the same way, so nothing is rebuilt or kept per
order.  ``sum_degen_moment_rows`` is the one reader of a chain: one
argument check and one chain lookup return the coefficients 0..n of
entries 0..k, grown first if entry k is too short.
``sum_degen_moment_row`` (one entry) and ``sum_degen_moment`` (one
coefficient) index what it returns.

Poisson and geometric raw moments follow from the lower ones by a
binomial recurrence (Touchard's for Poisson), one ``ratcore.dot`` each.

Every expectation is built on ``falling_row``: (x + shift)_{n,lam} in
powers of x, the degenerate Stirling numbers of the first kind at shift 0.
Expectations are memoized by value (``ratcore.memo``); models compare and
hash by their parameters, so equal models share cache entries, and each
model keeps its hash after the first lookup (``ratcore.hash_once``).
``clear_caches`` drops every memo table; recomputation is identical.

The geometric model counts failures before the first success, i.e. it is
supported on {0, 1, 2, ...}.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

from .ratcore import (RationalLike, binomial_row, clear_caches, dot,
                      format_rational, hash_once, memo, rat)
# egf_mul is imported but unused: the benchmark's tracer self-test patches
# and reads it as moments.egf_mul.
from .series import (EgfSeries, egf_degen_exp, egf_mul,  # noqa: F401
                     egf_mul_coeff)


class MomentOrderError(ValueError):
    """A custom model was asked for a moment beyond its declared list."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"moment of order {needed} required, but the custom model only "
            f"declares moments up to order {available - 1}")


@hash_once
@dataclass(frozen=True)
class PointMass:
    """Deterministic variable equal to c."""

    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", rat(self.c))


@hash_once
@dataclass(frozen=True)
class Bernoulli:
    """Indicator variable: 1 with probability p, else 0."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", rat(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@hash_once
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


@hash_once
@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform on the integers {0, 1, ..., max}."""

    max: int

    def __post_init__(self) -> None:
        if type(self.max) is not int or self.max < 0:
            raise ValueError(f"max must be a nonnegative integer, got {self.max!r}")


@hash_once
@dataclass(frozen=True)
class Poisson:
    """Poisson with rational rate >= 0."""

    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", rat(self.rate))
        if self.rate < 0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")


@hash_once
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


@hash_once
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
    if isinstance(model, (Poisson, Geometric)):
        if n == 0:
            return Fraction(1)
        # Ascending calls: each lower moment finds its own predecessors
        # memoized, so a cold call at large n never nests more than two deep.
        lower = [raw_moment(model, j) for j in range(n)]
        if isinstance(model, Poisson):
            # Touchard: E[Y^n] = rate sum_j C(n-1, j) E[Y^j].
            return model.rate * dot(binomial_row(n - 1), lower)
        # Geometric: E[Y^n] = ((1-p)/p) sum_{j<n} C(n, j) E[Y^j].
        return (1 - model.p) / model.p * dot(binomial_row(n)[:n], lower)
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


def degen_moment(model: MomentModel, n: int, lam: Fraction) -> Fraction:
    """E[Y(Y-lam)(Y-2*lam)...(Y-(n-1)*lam)], exactly.

    Expands the product into powers of Y and applies raw moments linearly;
    a zero coefficient reads no raw moment.  Not memoized: the kernel
    store ``_mgf_kernel`` runs it once per coefficient it grows.
    """
    coeffs = falling_row(0, n, rat(lam))
    return dot(coeffs, [raw_moment(model, j) if c else 0
                        for j, c in enumerate(coeffs)])


def egf_mgf_degen(model: MomentModel, scale: int, lam: Fraction,
                  order: int) -> EgfSeries:
    """Series whose n-th coefficient is E[(scale*Y)_{n,lam}].

    This is the expectation of the degenerate exponential of scale*Y,
    the generating kernel of the probabilistic Whitney families: the
    stored kernel (``stored_kernel``) whole, or its prefix.
    """
    kernel = stored_kernel(model, scale, lam, order)
    if kernel.order == order:
        return kernel
    return EgfSeries(kernel.coeffs[:order + 1])


def stored_kernel(model: MomentModel, scale: int, lam: Fraction,
                  order: int) -> EgfSeries:
    """The one kernel per (model, scale, lam), ``_mgf_kernel``, grown there
    first if it is shorter than `order`: coefficient n is
    E[(scale*Y)_{n,lam}] for every n up to its order, which may exceed
    `order`.  The arguments are checked before the store is read, so a
    caller that slices the coefficients builds no prefix series.
    """
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    lam = rat(lam)
    store = _mgf_kernel(model, scale, lam)
    kernel = store[0]
    if kernel.order < order:
        kernel = store[0] = _grow_kernel(model, scale, lam, kernel, order)
    return kernel


@memo
def _mgf_kernel(model: MomentModel, scale: int,
                lam: Fraction) -> list[EgfSeries]:
    """The kernel of (model, scale, lam), shared by every truncation order.

    One slot holding the series of E[(scale*Y)_{n,lam}] up to the highest
    order asked so far; it starts at order 0, whose coefficient 1 reads no
    moment.  Like an ``_mgf_chain`` entry, the slot is replaced whole by a
    longer immutable series (``_grow_kernel``), never changed in place, so
    a failed growth leaves it as it was and a reader in another thread sees
    an old or a new series, both correct.
    """
    return [EgfSeries((Fraction(1),))]


def _grow_kernel(model: MomentModel, scale: int, lam: Fraction,
                 kernel: EgfSeries, order: int) -> EgfSeries:
    """kernel extended to `order`: coefficient n is E[(scale*Y)_{n,lam}]
    = scale^n E[(Y)_{n,lam/scale}], one ``degen_moment`` per new n."""
    mu = lam / scale
    done = kernel.coeffs
    return EgfSeries(done + tuple(scale ** n * degen_moment(model, n, mu)
                                  for n in range(len(done), order + 1)))


@memo
def _mgf_chain(model: MomentModel, scale: int, shift: int,
               lam: Fraction) -> dict[int, EgfSeries]:
    """The sum moments of (model, scale, shift, lam), shared by every copy
    count and truncation order.

    Entry k is P^k e_lam^shift, P = egf_mgf_degen(model, scale, lam, ·), up
    to the highest order asked so far: coefficient n is
    E[(scale*S_k + shift)_{n,lam}].  Entry 0 is egf_degen_exp(shift, lam, ·);
    ``sum_degen_moment_rows`` grows entries 0..k together, so entries
    0..k - 1 are at least as long as entry k.  Truncation is lossless, so
    coefficient n is the same at every order >= n.  An entry is replaced
    whole by a longer immutable series, never changed in place.
    """
    return {}


def sum_degen_moment(model: MomentModel, k: int, scale: int, shift: int,
                     n: int, lam: RationalLike) -> Fraction:
    """Exact E[(scale*S_k + shift)_{n,lam}] with S_k = Y_1 + ... + Y_k:
    coefficient n of row k of ``sum_degen_moment_rows``."""
    return sum_degen_moment_rows(model, k, scale, shift, n, lam)[k][n]


def sum_degen_moment_row(model: MomentModel, k: int, scale: int, shift: int,
                         n: int, lam: RationalLike) -> tuple[Fraction, ...]:
    """E[(scale*S_k + shift)_{i,lam}] for i = 0..n: row k of
    ``sum_degen_moment_rows``."""
    return sum_degen_moment_rows(model, k, scale, shift, n, lam)[k]


def sum_degen_moment_rows(model: MomentModel, k: int, scale: int, shift: int,
                          n: int, lam: RationalLike
                          ) -> list[tuple[Fraction, ...]]:
    """E[(scale*S_j + shift)_{i,lam}] for j = 0..k (row j) and i = 0..n.

    The rows are the coefficients of entries 0..k of ``_mgf_chain``, read
    with one argument check and one chain lookup.  If entry k is missing
    or too short, entries 0..k are grown to order n first, in order.
    """
    require_sum_args(k, scale, shift, n)
    lam = rat(lam)
    chain = _mgf_chain(model, scale, shift, lam)
    if k not in chain or chain[k].order < n:
        entry = chain.get(0)
        if entry is None or entry.order < n:
            entry = chain[0] = egf_degen_exp(shift, lam, n)
        # Entry 0 reads no moment, so a custom list of one moment serves it.
        base = stored_kernel(model, scale, lam, n) if k else None
        for j in range(1, k + 1):
            below, entry = entry, chain.get(j)
            done = entry.coeffs if entry is not None else ()
            if len(done) <= n:
                # Coefficient i of entry j is
                # sum_l C(i, l) P_l [entry j-1]_(i-l); keep the coefficients
                # the entry already has and append the rest.
                entry = chain[j] = EgfSeries(done + tuple(
                    egf_mul_coeff(base, below, i)
                    for i in range(len(done), n + 1)))
    stop = n + 1
    return [chain[j].coeffs[:stop] for j in range(k + 1)]


def require_sum_args(k: int, scale: int, shift: int, n: int) -> None:
    """ValueError unless E[(scale*S_k + shift)_n] names a sum moment: the
    copy count, shift and n nonnegative, the scale a positive integer."""
    for name, value in (("copy count", k), ("shift", shift), ("n", n)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")


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
