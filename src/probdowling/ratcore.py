"""Exact rational scalars, factorial-family primitives, and the memo registry.

Every value this package returns is a ``fractions.Fraction`` (or an int):
arithmetic is exact, results are always in lowest terms with a positive
denominator, and values are immutable (safe to share between threads).
The growing stores keep integers over one known denominator instead and
divide when a value leaves them: ``sumprod`` is their integer dot
product, and ``exact_int`` scales a Fraction to an integer, raising
ArithmeticError rather than truncating.  Hot sums of Fraction products
do not add Fractions term by term, which reduces by a gcd at every step:
``dot`` and ``pair_sum`` accumulate integer numerators over one running
common denominator (the lcm of the terms') and reduce once, returning
the same Fraction.

Memo tables hold immutable values too.  Three tables hold entries that
grow, integers over one known denominator: the Whitney kernel
``moments._mgf_kernel`` (one per model, scale and lam, the scaled
integers of E[(scale*Y)_{n,lam}]), the sum-moment chain
``moments._mgf_chain`` (one per model, scale, shift and lam, whose entry
k holds the scaled integers of E[(scale*S_k + shift)_{n,lam}]) and the
Whitney rows ``dowling._whitney_rows`` (one per model and parameters,
the scaled integers beside the ``PolyX`` rows divided from them).  Each replaces
an entry whole by a longer immutable one, so a reader in another thread
sees an old or a new entry, both correct, and never a half-built one.
Every table keyed by lam takes it as integers (its numerator and
denominator, or lam scaled to an integer), so a lookup hashes and
compares integers only.
The degeneracy parameter ``lam`` may be any rational including 0, which
recovers the classical (non-degenerate) objects, and 1, which recovers
ordinary falling factorials.

The lowest layer also holds what higher layers share: ``stirling2``,
``binomial_row``, ``memo``, which makes and registers every memo table
for ``clear_caches``, and ``Frozen``, the base of every value class (the
moment models, ``Params``, series, polynomials, reports): immutable
fields named by the class annotations, equality within one class, and a
hash computed once over a key made of integers, so a memo key hashes its
fields on its first lookup only and a hit compares integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from operator import attrgetter, mul
from typing import Callable, Iterable, Sequence, Union

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
    """sum_i w_i x_i y_i (w_i = 1 without weights) for ints and
    Fractions, exactly, through ``pair_sum``.  Operands of different
    lengths raise ValueError, so a short one never truncates the sum."""
    if weights is None:
        pairs = ((x.numerator * y.numerator, x.denominator * y.denominator)
                 for x, y in zip(xs, ys, strict=True))
    else:
        pairs = ((w.numerator * x.numerator * y.numerator,
                  w.denominator * x.denominator * y.denominator)
                 for w, x, y in zip(weights, xs, ys, strict=True))
    return pair_sum(pairs)


def sumprod(xs: Iterable[int], ys: Iterable[int]) -> int:
    """sum_i x_i y_i over two integer sequences of one length, the
    integer dot product of the scaled stores, which hold no Fraction and
    so need no common denominator.  Unlike ``dot`` it does not check the
    lengths: its callers build both operands to one length."""
    return sum(map(mul, xs, ys))


def exact_int(value: Fraction | int, factor: int) -> int:
    """value * factor, which must be an integer: ArithmeticError if it is
    not, so a wrong scale raises instead of truncating."""
    whole, rest = divmod(value.numerator * factor, value.denominator)
    if rest:
        raise ArithmeticError(f"{value} times {factor} is not an integer")
    return whole


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
    """C(n, 0), ..., C(n, n), each stepped from the one before; ValueError
    for a negative n, which has no row."""
    if n < 0:
        raise ValueError(f"row index must be nonnegative, got {n}")
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


_set_field = object.__setattr__


def _int_key(value: object) -> object:
    """value with every Fraction in it, also inside tuples, replaced by
    its numerator when whole and by (numerator, denominator) otherwise,
    so it hashes without ``Fraction.__hash__``.  Two keys of one class,
    whose fields hold Fractions or ints where the other's do, are equal
    exactly when the values are: a Fraction is in lowest terms, and a
    whole one equals its numerator."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return value.numerator, value.denominator
    if type(value) is tuple:
        return tuple(map(_int_key, value))
    return value


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields as class annotations, in order, gives a
    default as a class attribute, and may check or coerce the fields in
    ``__post_init__`` (with ``object.__setattr__``).  It is built from
    positional or keyword fields.  Equality and the hash read one key,
    the field value (one field) or the tuple of field values; the first
    hash keeps the key and its hash, so a memo lookup reads the fields
    once, and a value never hashed (or a class with its own equality and
    hash) never stores one.  The kept key holds integers in place of
    Fractions (``_int_key``), so a memo hit on a fresh but equal value
    compares integers in C, with no ``Fraction.__hash__`` or
    ``Fraction.__eq__``; equality keeps its meaning, because a Fraction
    is in lowest terms.  Values of different classes never compare
    equal, so models of two kinds with equal parameters share no memo
    entry.  Assignment and
    deletion raise AttributeError.  ``fields`` is the tuple of field
    names; ``replace`` builds a copy with some fields changed, through
    the same checks.
    """

    fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls.fields
                         if name in cls.__dict__}
        # An attrgetter binds to no instance: self._read_key(self).
        cls._read_key = attrgetter(*cls.fields)

    def __init__(self, *args, **kwargs) -> None:
        names = self.fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set_field(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from positional and keyword arguments
        and the class defaults; TypeError for an unknown, repeated or
        missing field."""
        values = list(args)
        for name in cls.fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs or len(args) > len(cls.fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls.fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            try:
                return self._key == other._key
            except AttributeError:  # a side not hashed yet
                return self._read_key(self) == other._read_key(other)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            key = _int_key(self._read_key(self))
            _set_field(self, "_key", key)
            _set_field(self, "_hash", hash(key))
            return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.fields)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes) -> "Frozen":
        """A copy with the given fields changed, checked again."""
        return type(self)(**{**{name: getattr(self, name)
                                for name in self.fields}, **changes})


class Params(Frozen):
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
