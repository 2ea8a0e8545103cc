"""Truncated exponential-generating-function algebra over exact rationals.

An ``EgfSeries`` of order N holds coefficients c_0..c_N of the series
sum_n c_n t^n / n!, truncated after t^N.  Products are binomial
convolutions, so every retained coefficient of a result equals the
corresponding coefficient of the untruncated series: truncation is
lossless for the indices kept.  Binary operations require equal order.
Each product coefficient is one ``ratcore.dot`` over a binomial row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ratcore import RationalLike, binomial_row, dot, hash_once, rat


# Memo tables key on series; hash_once hashes the coefficients once, not
# per lookup.
@hash_once
@dataclass(frozen=True)
class EgfSeries:
    """Immutable coefficient vector c_0..c_N of sum c_n t^n / n!."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = tuple(rat(c) for c in self.coeffs)
        if not coerced:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coerced)

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
    only a_0..a_n and b_0..b_n and forms no other coefficient; IndexError
    unless 0 <= n <= both orders."""
    if n < 0 or n > min(a.order, b.order):
        raise IndexError(f"coefficient index {n} out of range for orders "
                         f"{a.order} and {b.order}")
    return dot(a.coeffs[:n + 1], b.coeffs[n::-1], binomial_row(n))


def egf_coeff(a: EgfSeries, n: int) -> Fraction:
    """The n-th EGF coefficient c_n, i.e. n! times the Taylor coefficient."""
    if n < 0 or n > a.order:
        raise IndexError(f"coefficient index {n} out of range for order {a.order}")
    return a.coeffs[n]


def _require_same_order(a: EgfSeries, b: EgfSeries, op: str) -> None:
    if a.order != b.order:
        raise ValueError(f"{op}: order mismatch ({a.order} vs {b.order}); "
                         "operands must share one truncation order")
