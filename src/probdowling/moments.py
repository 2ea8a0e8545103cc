"""Exact moment oracles for a random variable Y and i.i.d. sums of it.

A moment model is a small frozen value object mapping n to the exact raw
moment E[Y^n].  Built-in models all have a moment generating function in a
neighborhood of 0.  Sums S_k = Y_1 + ... + Y_k of independent copies are
handled through EGF powers: the series with coefficient n equal to
E[(scale*Y)_{n,lam}] is raised to the k-th power, which is exactly the
expectation of the product over independent copies.

Each model has a denominator base D (``moment_base``) with D^n E[Y^n]
an integer for every n, and L = lcm(den lam, D) is one scale per
(model, lam).  The Whitney kernel is stored once per (model, scale, lam),
``_mgf_kernel``, as integers only: K_n = L^n E[(scale*Y)_{n,lam}], grown
to the highest order asked in integers: each new K_n is the integer
falling row of prod_{i<n} (x - i lam L) against the raw moments scaled
to R_j = (scale L)^j E[Y^j], checked as they are scaled (a non-integer
raises ArithmeticError, never truncates).  ``scaled_kernel`` returns K
and L, and ``egf_mgf_degen``, its one Fraction reader, divides K_n by
L^n into the series whole or as a prefix.  The kernel's powers times
the degenerate exponential of a shift are the sum moments, stored once,
as the integers L^n E[(scale*S_k + shift)_{n,lam}], in one chain per
(model, scale, shift, lam), ``_mgf_chain``, grown the same way by
integer binomial convolutions, so nothing is rebuilt or kept per order.
``scaled_chain`` is the one chain function: one argument check and one
chain lookup return the integer entries 0..k to order n, grown first if
entry k is too short.  ``sum_degen_moment``, its one Fraction reader,
divides one coefficient by L^n.

Poisson and geometric raw moments follow from the lower ones by a
binomial recurrence (Touchard's for Poisson), one ``ratcore.dot`` each;
binomial and discrete-uniform ones from their factorial moments through
the Stirling numbers of the second kind, never by a sum over the support.

Every expectation is built on one integer table of falling rows,
``_falling_ints``: prod_{i<n} (y + root - i*step) in powers of y for
integers root and step.  ``falling_row`` divides it into the rational
(x + shift)_{n,lam}, the degenerate Stirling numbers of the first kind at
shift 0, and the kernel reads it at step lam L.  The binomial
convolutions of the stores, here and in ``dowling``, read their Pascal
rows from one table, ``pascal_row``, so no call rebuilds a row that
depends only on its index.  Expectations are memoized by value
(``ratcore.memo``), and every table keyed by lam takes integers (its
numerator and denominator, or lam scaled to an integer); models are
``ratcore.Frozen`` values that compare and hash by their kind and
parameters, so equal models share cache entries, and each model keeps its
hash and integer key after the first lookup.
``clear_caches`` drops every memo table; recomputation is identical.

The geometric model counts failures before the first success, i.e. it is
supported on {0, 1, 2, ...}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from math import lcm

from .ratcore import (Frozen, RationalLike, binomial_row, clear_caches, dot,
                      exact_int, format_rational, memo, rat, stirling2,
                      sumprod)
# egf_mul is imported but unused: the benchmark's tracer self-test patches
# and reads it as moments.egf_mul.
from .series import EgfSeries, egf_mul  # noqa: F401


class MomentOrderError(ValueError):
    """A custom model was asked for a moment beyond its declared list."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"moment of order {needed} required, but the custom model only "
            f"declares moments up to order {available - 1}")


class PointMass(Frozen):
    """Deterministic variable equal to c."""

    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", rat(self.c))


class Bernoulli(Frozen):
    """Indicator variable: 1 with probability p, else 0."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", rat(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


class Binomial(Frozen):
    """Number of successes in `trials` independent Bernoulli(p) trials."""

    trials: int
    p: Fraction

    def __post_init__(self) -> None:
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        object.__setattr__(self, "p", rat(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


class DiscreteUniform(Frozen):
    """Uniform on the integers {0, 1, ..., max}."""

    max: int

    def __post_init__(self) -> None:
        if type(self.max) is not int or self.max < 0:
            raise ValueError(f"max must be a nonnegative integer, got {self.max!r}")


class Poisson(Frozen):
    """Poisson with rational rate >= 0."""

    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", rat(self.rate))
        if self.rate < 0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")


class Geometric(Frozen):
    """Failures before the first success, success probability p.

    Supported on {0, 1, 2, ...}; p must be positive so the MGF exists
    near 0.
    """

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", rat(self.p))
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")


class Custom(Frozen):
    """Explicit moment list; entry n is E[Y^n], entry 0 must be 1.

    Asking for a moment past the end of the list is an error, never an
    extrapolation.
    """

    moments: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ms = tuple(map(rat, self.moments))
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
    if isinstance(model, (Binomial, DiscreteUniform)):
        # E[Y^n] = sum_k S(n, k) E[(Y)_k] over k <= min(n, N), from the
        # factorial moments (N)_k p^k of a binomial and (N)_k / (k + 1) of
        # the uniform on {0..N}: min(n, N) + 1 terms, however large N is.
        binomial = isinstance(model, Binomial)
        N = model.trials if binomial else model.max
        top = min(n, N)
        falling_N = [1]
        for k in range(top):
            falling_N.append(falling_N[-1] * (N - k))
        factorial_moments = [
            c * model.p ** k if binomial else Fraction(c, k + 1)
            for k, c in enumerate(falling_N)]
        return dot([stirling2(n, k) for k in range(top + 1)],
                   factorial_moments)
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
def pascal_row(n: int) -> tuple[int, ...]:
    """C(n, 0), ..., C(n, n), built once per n (``ratcore.binomial_row``)
    and read by every binomial convolution of the stores; ValueError for
    a negative n."""
    return tuple(binomial_row(n))


def falling_row(shift: RationalLike, n: int,
                lam: RationalLike) -> tuple[Fraction, ...]:
    """(x + shift)_{n,lam} = prod_{i<n} (x + shift - i*lam) as coefficients
    a_0..a_n in powers of x; at shift 0, the degenerate Stirling numbers of
    the first kind.  With d the lcm of the denominators of shift and lam,
    a_j = u_j / d^(n-j) for the stored integer row
    u = ``_falling_ints(d*shift, n, d*lam)``, divided here."""
    shift, lam = rat(shift), rat(lam)
    d = lcm(shift.denominator, lam.denominator)
    row = _falling_ints(exact_int(shift, d), n, exact_int(lam, d))
    return tuple(Fraction(u, d ** (n - j)) for j, u in enumerate(row))


@memo
def _falling_ints(root: int, n: int, step: int) -> tuple[int, ...]:
    """prod_{i<n} (y + root - i*step) as integer coefficients u_0..u_n in
    powers of y, built as row n - 1 times y + root - (n-1)*step.  Keyed by
    integers only: ``falling_row`` reads it at a rational shift and lam
    scaled by d, and the kernel (``_grow_kernel``) at root 0 and step
    lam L."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return (1,)
    # Fill the lower rows upward first, so the call for row n - 1 is a memo
    # hit (or one frame deep) however large n is.
    for l in range(n - 1):
        _falling_ints(root, l, step)
    prev = (0,) + _falling_ints(root, n - 1, step) + (0,)
    shift = root - (n - 1) * step
    return tuple(prev[j] + shift * prev[j + 1] for j in range(n + 1))


def degen_moment(model: MomentModel, n: int, lam: Fraction) -> Fraction:
    """E[Y(Y-lam)(Y-2*lam)...(Y-(n-1)*lam)], exactly.

    Expands the product into powers of Y and applies raw moments linearly;
    a zero coefficient reads no raw moment.  Not memoized, and not called
    in the package: the kernel store ``_mgf_kernel`` sums the same
    expansion in integers, and tests compare it with this one.
    """
    coeffs = falling_row(0, n, rat(lam))
    return dot(coeffs, [raw_moment(model, j) if c else 0
                        for j, c in enumerate(coeffs)])


def egf_mgf_degen(model: MomentModel, scale: int, lam: Fraction,
                  order: int) -> EgfSeries:
    """Series whose n-th coefficient is E[(scale*Y)_{n,lam}].

    This is the expectation of the degenerate exponential of scale*Y,
    the generating kernel of the probabilistic Whitney families: the
    integers K_n of ``scaled_kernel`` for n up to `order`, each divided
    by L^n, with the power of L kept as a running product.
    """
    ints, base = scaled_kernel(model, scale, lam, order)
    coeffs, power = [], 1
    for K in ints[:order + 1]:
        coeffs.append(Fraction(K, power))
        power *= base
    return EgfSeries(coeffs)


def scaled_kernel(model: MomentModel, scale: int, lam: Fraction, order: int
                  ) -> tuple[tuple[int, ...], int]:
    """(K, L) of the ``_mgf_kernel`` slot of (model, scale, lam), grown
    there first if it is shorter than `order`: the integers
    K_n = L^n E[(scale*Y)_{n,lam}] for every n up to at least `order`,
    and L = lcm(den lam, D) with D the model's ``moment_base``.
    The arguments are checked before the store is read.
    """
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    lam = rat(lam)
    slot = _mgf_kernel(model, scale, lam.numerator, lam.denominator)
    if len(slot[0]) <= order:
        _grow_kernel(model, scale, lam, slot, order)
    return tuple(slot)


def moment_base(model: MomentModel) -> int:
    """A positive integer D with D^n E[Y^n] an integer for every n: the
    denominator of c for a point mass, of p for Bernoulli and binomial, of
    the rate for Poisson, the numerator of p for the geometric (whose
    factorial moments are n! ((1-p)/p)^n), max + 1 for the discrete
    uniform, and the lcm of the list's denominators for a custom model."""
    if isinstance(model, PointMass):
        return model.c.denominator
    if isinstance(model, (Bernoulli, Binomial)):
        return model.p.denominator
    if isinstance(model, DiscreteUniform):
        return model.max + 1
    if isinstance(model, Poisson):
        return model.rate.denominator
    if isinstance(model, Geometric):
        return model.p.numerator
    if isinstance(model, Custom):
        return lcm(*(v.denominator for v in model.moments))
    raise TypeError(f"not a moment model: {model!r}")


@memo
def _mgf_kernel(model: MomentModel, scale: int, p: int, q: int) -> list:
    """The kernel of (model, scale, lam = p/q), shared by every truncation
    order; lam is keyed by its numerator and denominator, so a lookup
    hashes and compares integers (and the model's integer key).

    One slot [K, L]: the integers K_n = L^n E[(scale*Y)_{n,lam}] up to the
    highest order asked so far, and the scale L = lcm(q, D) of
    (model, lam), with D the ``moment_base``: every E[(scale*Y)_{n,lam}]
    is a sum of terms lam^(n-i) scale^i E[Y^i] with integer weights, so
    L^n clears its denominator.  It starts at order 0, whose coefficient
    1 reads no moment.  Like an ``_mgf_chain`` entry, K is replaced whole,
    in one step, by a longer tuple (``_grow_kernel``), never changed in
    place, so a failed growth leaves the slot as it was and a reader in
    another thread sees the old or the new K, both correct.
    """
    return [(1,), lcm(q, moment_base(model))]


def _grow_kernel(model: MomentModel, scale: int, lam: Fraction,
                 slot: list, order: int) -> None:
    """slot's K extended to `order`, in integers: with X = scale L Y,
    K_n = L^n E[(scale*Y)_{n,lam}] = E[prod_{i<n} (X - i lam L)]
    = sum_j t(n, j) R_j, where t(n, .) is the integer row
    ``_falling_ints(0, n, lam L)`` and R_j = (scale L)^j E[Y^j], each
    scaled once and checked integral (``ratcore.exact_int``).  Every
    moment is scaled before K changes, so a custom list that runs out
    leaves K as it was."""
    ints, base = slot
    step, unit = exact_int(lam, base), scale * base
    scaled, power = [], 1
    for j in range(order + 1):
        scaled.append(exact_int(raw_moment(model, j), power))
        power *= unit
    slot[0] = ints + tuple(sumprod(_falling_ints(0, n, step), scaled)
                           for n in range(len(ints), order + 1))


@memo
def _mgf_chain(model: MomentModel, scale: int, shift: int, p: int,
               q: int) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The sum moments of (model, scale, shift, lam = p/q), shared by every
    copy count and truncation order, scaled to integers; lam is keyed by
    its numerator and denominator, like the kernel's.

    (L, entries): L is the kernel's scale lcm(den lam, D), and coefficient i
    of entry k is A_k[i] = L^i E[(scale*S_k + shift)_{i,lam}], the
    coefficients of P^k e_lam^shift with P the kernel, up to the highest
    order asked so far.  Entry 0 is prod_{t<i} (shift L - t lam L) and reads
    no moment; ``scaled_chain`` grows entries 0..k together, so entries
    0..k - 1 are at least as long as entry k.  Truncation is lossless, so
    coefficient i is the same at every order >= i.  An entry is replaced
    whole by a longer tuple, never changed in place.
    """
    return lcm(q, moment_base(model)), {}


def scaled_chain(model: MomentModel, k: int, scale: int, shift: int, n: int,
                 lam: RationalLike
                 ) -> tuple[dict[int, tuple[int, ...]], int]:
    """(entries, L) of the ``_mgf_chain`` of (model, scale, shift, lam),
    read with one argument check and one chain lookup: entries 0..k hold
    the integers L^i E[(scale*S_j + shift)_{i,lam}] for every i up to at
    least n.  If entry k is missing or too short, entries 0..k are grown
    to order n first, in order, by
    A_j[i] = sum_l C(i, l) K_l A_(j-1)[i - l] over the kernel's K.
    """
    require_sum_args(k, scale, shift, n)
    lam = rat(lam)
    base, chain = _mgf_chain(model, scale, shift, lam.numerator,
                             lam.denominator)
    if k not in chain or len(chain[k]) <= n:
        # Entries get no longer as j grows, so every entry from the first
        # short one through k is grown, and none below it is read twice.
        first = k
        while first and len(chain.get(first - 1, ())) <= n:
            first -= 1
        if first == 0:
            root, step = shift * base, exact_int(lam, base)
            entry = [1]
            for t in range(n):
                entry.append(entry[-1] * (root - t * step))
            chain[0] = tuple(entry)
            first = 1
        if first <= k:
            # Entry 0 reads no moment, so a custom list of one moment
            # serves it.  weighted[i][l] = C(i, l) K_l, the same for every
            # entry; entry k is the shortest, so rows below its length are
            # never read.
            ints = scaled_kernel(model, scale, lam, n)[0]
            start = len(chain.get(k, ()))
            weighted = [()] * start + [
                [c * K for c, K in zip(pascal_row(i), ints)]
                for i in range(start, n + 1)]
        for j in range(first, k + 1):
            below, entry = chain[j - 1], chain.get(j, ())
            chain[j] = entry + tuple(sumprod(weighted[i], below[i::-1])
                                     for i in range(len(entry), n + 1))
    return chain, base


def sum_degen_moment(model: MomentModel, k: int, scale: int, shift: int,
                     n: int, lam: RationalLike) -> Fraction:
    """Exact E[(scale*S_k + shift)_{n,lam}] with S_k = Y_1 + ... + Y_k:
    coefficient n of entry k of ``scaled_chain``, divided by L^n."""
    chain, base = scaled_chain(model, k, scale, shift, n, lam)
    return Fraction(chain[k][n], base ** n)


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
    the model class's ``fields``, no more and no fewer; the counts
    "trials" and "max" must be JSON integers.
    """
    if not isinstance(config, Mapping):
        raise ValueError(f"model config must be a JSON object, got {config!r}")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_TO_CLS:
        raise ValueError(f"unknown model kind {kind!r}; "
                         f"expected one of {sorted(_KIND_TO_CLS)}")
    cls = _KIND_TO_CLS[kind]
    names = cls.fields
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
    # Counts go to the model's checks as given; the rest are rationals.
    return cls(*(config[name] if name in ("trials", "max")
                 else rat(_str_or_int(config[name])) for name in names))


_CLS_TO_KIND = {cls: kind for kind, cls in _KIND_TO_CLS.items()}


def model_to_config(model: MomentModel) -> dict:
    """Inverse of model_from_config; rationals become "num/den" strings."""
    if type(model) not in _CLS_TO_KIND:
        raise TypeError(f"not a moment model: {model!r}")
    config: dict = {"kind": _CLS_TO_KIND[type(model)]}
    for name in model.fields:
        value = getattr(model, name)
        if isinstance(value, int):
            config[name] = value
        elif isinstance(value, tuple):
            config[name] = [format_rational(v) for v in value]
        else:
            config[name] = format_rational(value)
    return config


def _str_or_int(value: object) -> RationalLike:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"rationals must be given as strings or ints, got {value!r}")
    if not isinstance(value, (str, int)):
        raise ValueError(f"cannot read {value!r} as a rational")
    return value
