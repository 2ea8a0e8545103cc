"""Partial and complete Bell polynomials on rational argument lists.

Two independent routes are provided on purpose.  ``bell_partial``
enumerates partition index vectors directly (Comtet, *Advanced
Combinatorics*, 3.3): tuples (l_1, ..., l_{n-k+1}) with l_1 + l_2 + ... = k
blocks and l_1 + 2*l_2 + ... = n elements, each contributing the integer
n!/prod(i!^{l_i} l_i!) times prod x_i^{l_i}, kept as one integer pair
(numerator, denominator) so the terms add over one common denominator
(``ratcore.pair_sum``).  The walk drops a branch as soon as its remaining
blocks cannot hold its remaining elements.  The series route
``bell_partial_series`` reads the same numbers off the k-th power of an
EGF; ``dowling.stirling2_prob`` reads it.  ``bell_partial_row`` runs the
same power chain unmemoized for every k of one n, over rationals or
polynomials in x; the identity battery reads its Bell sides from it.  The
enumeration is the oracle for both, and the ``bell_form`` Whitney route.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence, TypeVar

from .ratcore import RationalLike, clear_caches, memo, pair_sum, rat
from .series import EgfSeries, egf_const, egf_mul, egf_scale

BellArgs = Sequence[RationalLike]
Ring = TypeVar("Ring")


def bell_partial(n: int, k: int, args: BellArgs) -> Fraction:
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    args[i-1] holds x_i; zero when k > n, and B_{0,0} = 1.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    needed = n - k + 1 if k > 0 else 0
    if len(args) < needed:
        raise ValueError(
            f"B_({n},{k}) needs {needed} arguments x_1..x_{needed}, "
            f"got {len(args)}")
    xs = tuple(rat(v) for v in args[:needed])
    return _bell_partial_cached(n, k, xs)


@memo
def _bell_partial_cached(n: int, k: int, xs: tuple[Fraction, ...]) -> Fraction:
    n_fact, terms = factorial(n), []
    for ls in _index_vectors(n, k, len(xs)):
        # n!/prod(i!^l_i l_i!) set partitions have l_i blocks of size i;
        # each contributes prod x_i^l_i = prod p_i^l_i / prod q_i^l_i.
        count, num, den = 1, 1, 1
        for i, (x, l) in enumerate(zip(xs, ls), start=1):
            if l:
                count *= factorial(i) ** l * factorial(l)
                num *= x.numerator ** l
                den *= x.denominator ** l
        terms.append((n_fact // count * num, den))
    return pair_sum(terms)


def _index_vectors(n: int, k: int, width: int):
    """Yield (l_1..l_width) with sum l_i = k and sum i*l_i = n."""
    def rec(pos: int, blocks: int, weight: int, acc: list[int]):
        # Each block left has between pos and width elements.
        if blocks * pos > weight or weight > blocks * width:
            return
        if blocks == 0:
            yield tuple(acc) + (0,) * (width - len(acc))
            return
        # l_pos can use at most weight // pos of the remaining weight.
        for l in range(min(blocks, weight // pos) + 1):
            acc.append(l)
            yield from rec(pos + 1, blocks - l, weight - pos * l, acc)
            acc.pop()
    yield from rec(1, k, n, [])


@memo
def bell_partial_series(k: int, inner: EgfSeries) -> EgfSeries:
    """Series whose coefficient n is B_{n,k}(inner_1, ..., inner_{n-k+1}).

    The k-th power of `inner` divided by k!, built incrementally so
    successive k values over one inner series cost one product each.
    `inner` must have zero constant term.
    """
    if k < 0:
        raise ValueError(f"block count must be nonnegative, got {k}")
    if inner.coeffs[0] != 0:
        raise ValueError(
            f"inner series must have zero constant term, got {inner.coeffs[0]}")
    if k == 0:
        return egf_const(1, inner.order)
    # Fill the lower powers upward first, so the call for k - 1 is a memo
    # hit (or one frame deep) however large k is.
    for j in range(k - 1):
        bell_partial_series(j, inner)
    prev = bell_partial_series(k - 1, inner)
    return egf_scale(Fraction(1, k), egf_mul(prev, inner))


def bell_partial_row(n: int, args: Sequence[Ring],
                     one: Ring) -> tuple[Ring, ...]:
    """B_{n,k}(x_1, ..., x_{n-k+1}) for k = 0..n, from one power chain.

    The x_i may come from any commutative ring over the rationals, such as
    polynomials in a second variable; ``one`` is that ring's unit.  `args`
    holds x_1..x_n in full, so every k reads the same chain: power k of
    sum_i x_i t^i / i!, over k!, is power k - 1 times that series over k,
    filled upward as in ``bell_partial_series`` but not memoized.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if len(args) < n:
        raise ValueError(
            f"B_({n},k) needs {n} arguments x_1..x_{n}, got {len(args)}")
    zero = 0 * one
    # weighted[j][i] = C(j, i) x_i, the same for every power.
    weighted = [[zero] + [comb(j, i) * args[i - 1] for i in range(1, j + 1)]
                for j in range(n + 1)]
    power = [one] + [zero] * n          # power 0: the constant series 1
    row = [power[n]]
    for k in range(1, n + 1):
        # Coefficients of power k - 1 below t^(k-1) vanish, so coefficient
        # j of power k reads x_1..x_(j-k+1) only.
        power = [zero] * k + [
            sum((weighted[j][i] * power[j - i] for i in range(1, j - k + 2)),
                zero) * Fraction(1, k)
            for j in range(k, n + 1)]
        row.append(power[n])
    return tuple(row)


def bell_complete(n: int, args: BellArgs) -> Fraction:
    """Complete Bell polynomial B_n(x_1, ..., x_n) = sum_k B_{n,k}."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if len(args) < n:
        raise ValueError(f"B_{n} needs {n} arguments x_1..x_{n}, got {len(args)}")
    return sum((bell_partial(n, k, args) for k in range(n + 1)), Fraction(0))


def bell_args_series(args: BellArgs, order: int) -> EgfSeries:
    """Pack x_1..x_order into the EGF 0 + x_1 t + x_2 t^2/2! + ...

    Missing trailing arguments are taken as zero, which leaves every
    B_{n,k} needing only x_1..x_{n-k+1} unchanged.
    """
    xs = tuple(rat(v) for v in args[:order])
    return EgfSeries((Fraction(0),) + xs + (Fraction(0),) * (order - len(xs)))
