"""Exact rational scalars, factorial-family primitives, and the memo registry.

Every number in this package is a ``fractions.Fraction``: arithmetic is
exact, results are always in lowest terms with a positive denominator, and
values are immutable (safe to share between threads).  Hot sums of
products do not add Fractions term by term, which reduces by a gcd at
every step: ``dot`` and ``pair_sum`` accumulate integer numerators over
one running common denominator (the lcm of the terms') and reduce once,
returning the same Fraction.

Memo tables hold immutable values too; the one table whose entries
grow, the sum-moment chain ``moments._mgf_chain`` (one per model, scale,
shift and lam, whose entry k is the series of
E[(scale*S_k + shift)_{n,lam}]), replaces each entry whole by a longer
immutable series, so a reader in another thread sees an old or a new
entry, both correct, and never a half-built one.
The degeneracy parameter ``lam`` may be any rational including 0, which
recovers the classical (non-degenerate) objects, and 1, which recovers
ordinary falling factorials.

The lowest layer also holds what higher layers share: ``stirling2``,
``binomial_row``, ``hash_once``, which keeps a frozen dataclass's field
hash after the first call, and ``memo``, which makes and registers every
memo table for ``clear_caches``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Callable, Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

_MEMO_TABLES: list = []


def memo(fn: Callable) -> Callable:
    """``lru_cache(maxsize=None)`` on fn, registered for ``clear_caches``."""
    table = lru_cache(maxsize=None)(fn)
    _MEMO_TABLES.append(table)
    return table


def clear_caches() -> None:
    """Drop every memo table (recomputation yields identical values)."""
    for table in _MEMO_TABLES:
        table.cache_clear()


def hash_once(cls: type) -> type:
    """Class decorator for a frozen dataclass used as a memo key: keep its
    field hash after the first call instead of rehashing every field (a
    pure-Python ``Fraction.__hash__`` each) on every lookup.  Equality,
    ``fields()`` and ``repr`` are the dataclass's own."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", field_hash(self))
            return self._hash

    cls.__hash__ = __hash__
    return cls


def pair_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """sum of num/den over integer pairs (num, den) with den > 0.

    Numerators accumulate over a running common denominator, the lcm of
    the pairs' denominators so far, and the total is reduced once.
    """
    num, den = 0, 1
    for n, d in pairs:
        if not n:
            continue
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def dot(xs: Sequence[Fraction | int], ys: Sequence[Fraction | int],
        weights: Sequence[Fraction | int] | None = None) -> Fraction:
    """sum_i w_i x_i y_i (w_i = 1 without weights) for ints and Fractions,
    exactly, through ``pair_sum``.  Operands of different lengths raise
    ValueError, so a short one never truncates the sum."""
    if weights is None:
        return pair_sum((x.numerator * y.numerator,
                         x.denominator * y.denominator)
                        for x, y in zip(xs, ys, strict=True))
    return pair_sum((w.numerator * x.numerator * y.numerator,
                     w.denominator * x.denominator * y.denominator)
                    for w, x, y in zip(weights, xs, ys, strict=True))


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact Fraction;
    a string with a zero denominator raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: RationalLike) -> str:
    """Render a rational as "num" or "num/den", omitting denominator 1."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def falling(x: RationalLike, n: int) -> Fraction:
    """Falling factorial x(x-1)...(x-n+1); the empty product (n=0) is 1."""
    return degen_falling(x, n, 1)


def degen_falling(x: RationalLike, n: int, lam: RationalLike) -> Fraction:
    """Generalized falling factorial x(x-lam)(x-2*lam)...(x-(n-1)*lam).

    lam=0 gives x**n and lam=1 the ordinary falling factorial.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    x = rat(x)
    lam = rat(lam)
    out = Fraction(1)
    for i in range(n):
        out *= x - i * lam
    return out


def binom(n: int, k: int) -> Fraction:
    """Binomial coefficient n!/(k!(n-k)!), zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    return Fraction(comb(n, k))


def binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n), each stepped from the one before."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def stirling2(n: int, k: int) -> Fraction:
    """Stirling number of the second kind, by the explicit alternating sum
    (1/k!) sum_j (-1)^(k-j) C(k, j) j^n, so no call recurses."""
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    return Fraction(sum((-1) ** (k - j) * comb(k, j) * j ** n
                        for j in range(k + 1)) // factorial(k))


def binom_general(x: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient falling(x, k) / k! for rational x."""
    if k < 0:
        raise ValueError(f"index must be nonnegative, got {k}")
    return falling(x, k) / factorial(k)


@hash_once
@dataclass(frozen=True)
class Params:
    """Shared parameter bundle: group order m >= 1, degeneracy lam, shift r >= 0.

    The shift r only matters to the r-generalized families; the plain
    families behave as r=1.
    """

    m: int
    lam: Fraction
    r: int = 1

    def __post_init__(self) -> None:
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if type(self.r) is not int or self.r < 0:
            raise ValueError(f"r must be a nonnegative integer, got {self.r!r}")
        object.__setattr__(self, "lam", rat(self.lam))
