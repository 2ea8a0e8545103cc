"""Exact rational scalars, factorial-family primitives, and the memo registry.

Every number in this package is a ``fractions.Fraction``: arithmetic is
exact, results are always in lowest terms with a positive denominator, and
values are immutable (safe to share between threads).  Memo tables hold
immutable values too; the one table whose entries grow, the power chain
``moments._mgf_chain``, replaces each entry whole by a longer immutable
series, so a reader in another thread sees an old or a new entry, both
correct, and never a half-built one.  The degeneracy
parameter ``lam`` may be any rational including 0, which recovers the
classical (non-degenerate) objects, and 1, which recovers ordinary falling
factorials.

The lowest layer also holds what higher layers share: ``stirling2``, and
``memo``, which makes and registers every memo table for ``clear_caches``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Union

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
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError(f"r must be a nonnegative integer, got {self.r!r}")
        object.__setattr__(self, "lam", rat(self.lam))
