"""Truncated exponential-generating-function algebra over exact rationals.

An ``EgfSeries`` of order N holds coefficients c_0..c_N of the series
sum_n c_n t^n / n!, truncated after t^N.  Products are binomial
convolutions, so every retained coefficient of a result equals the
corresponding coefficient of the untruncated series: truncation is
lossless for the indices kept.  Binary operations require equal order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ratcore import RationalLike, binom, rat


@dataclass(frozen=True)
class EgfSeries:
    """Immutable coefficient vector c_0..c_N of sum c_n t^n / n!."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = tuple(rat(c) for c in self.coeffs)
        if not coerced:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coerced)

    def __hash__(self) -> int:
        # Memo tables key on series; hash the coefficients once, not per lookup.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.coeffs))
            return self._hash

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        return egf_coeff(self, n)


def egf_const(value: RationalLike, order: int) -> EgfSeries:
    """Constant series value + 0*t + ... up to the given order."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    v = rat(value)
    return EgfSeries((v,) + (Fraction(0),) * order)


def egf_degen_exp(x: RationalLike, lam: RationalLike, order: int) -> EgfSeries:
    """Degenerate exponential (1 + lam*t)^(x/lam), whose n-th EGF coefficient
    is the generalized falling factorial x(x-lam)...(x-(n-1)*lam).

    lam=0 yields the ordinary exponential e^(x*t).
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    x = rat(x)
    lam = rat(lam)
    coeffs = [Fraction(1)]
    for i in range(order):
        coeffs.append(coeffs[-1] * (x - i * lam))
    return EgfSeries(tuple(coeffs))


def egf_add(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    _require_same_order(a, b, "egf_add")
    return EgfSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def egf_sub(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    _require_same_order(a, b, "egf_sub")
    return EgfSeries(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def egf_scale(c: RationalLike, a: EgfSeries) -> EgfSeries:
    c = rat(c)
    return EgfSeries(tuple(c * x for x in a.coeffs))


def egf_mul(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """Product series, one ``egf_mul_coeff`` per coefficient; the operands
    must share one order, checked once here."""
    _require_same_order(a, b, "egf_mul")
    return EgfSeries(tuple(egf_mul_coeff(a, b, n) for n in range(len(a.coeffs))))


def egf_mul_coeff(a: EgfSeries, b: EgfSeries, n: int) -> Fraction:
    """Coefficient n of the product a*b, sum_j C(n,j) a_j b_{n-j}.  Reads
    only a_0..a_n and b_0..b_n and forms no other coefficient."""
    ac, bc = a.coeffs, b.coeffs
    return sum((binom(n, j) * ac[j] * bc[n - j] for j in range(n + 1)),
               Fraction(0))


def egf_pow(a: EgfSeries, k: int) -> EgfSeries:
    """k-fold product of a with itself; k=0 is the constant-1 series."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    out = egf_const(1, a.order)
    for _ in range(k):
        out = egf_mul(out, a)
    return out


def egf_exp(a: EgfSeries) -> EgfSeries:
    """Exponential of a series with zero constant term.

    Coefficient n of the result is the complete Bell polynomial
    B_n(a_1, ..., a_n), obtained from the recurrence
    B_{n+1} = sum_j C(n,j) a_{j+1} B_{n-j} with B_0 = 1.
    """
    if a.coeffs[0] != 0:
        raise ValueError(
            "egf_exp requires a zero constant term; "
            f"got {a.coeffs[0]} (the result would not be rational)")
    bs = [Fraction(1)]
    for n in range(a.order):
        nxt = sum((binom(n, j) * a.coeffs[j + 1] * bs[n - j] for j in range(n + 1)),
                  Fraction(0))
        bs.append(nxt)
    return EgfSeries(tuple(bs))


def egf_coeff(a: EgfSeries, n: int) -> Fraction:
    """The n-th EGF coefficient c_n, i.e. n! times the Taylor coefficient."""
    if n < 0 or n > a.order:
        raise IndexError(f"coefficient index {n} out of range for order {a.order}")
    return a.coeffs[n]


def _require_same_order(a: EgfSeries, b: EgfSeries, op: str) -> None:
    if a.order != b.order:
        raise ValueError(f"{op}: order mismatch ({a.order} vs {b.order}); "
                         "operands must share one truncation order")
