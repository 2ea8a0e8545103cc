"""Partial Bell polynomials on rational or integer argument lists.

Two independent routes are provided on purpose.  ``bell_partial``
enumerates partition index vectors directly (Comtet, *Advanced
Combinatorics*, 3.3): tuples (l_1, ..., l_{n-k+1}) with l_1 + l_2 + ... = k
blocks and l_1 + 2*l_2 + ... = n elements, each contributing the integer
n!/prod(i!^{l_i} l_i!) times prod x_i^{l_i}.  The walk drops a branch as
soon as its remaining blocks cannot hold its remaining elements.  The
shapes of one (n, k, width), each vector's nonzero block counts with its
integer count, are enumerated once and memoized (``_bell_shapes``), so
the table does not grow with the argument lists it is evaluated on.  A
value is an integer sum over the shapes at integer arguments
(``_shape_sum``); rational arguments are scaled to their common
denominator q first, and since B_{n,k} is homogeneous of degree k
(B_{n,k}(a x) = a^k B_{n,k}(x)) the sum is divided by q^k once.
``bell_partial`` is the one reader at rational arguments, and
``bell_column_ints`` gives one integer column B_{l,k}, l = k..n, for the
``bell_form`` Whitney route, which passes the kernel's scaled integers.
The series route ``bell_partial_series`` reads the same numbers off the k-th
power of an EGF; ``dowling.stirling2_prob`` reads it.
``bell_partial_rows`` runs the same power chain unmemoized for every k
up to one n, over rationals or polynomials in x, and returns every row
l <= n; ``bell_partial_row`` is its last row.  The identity battery reads
its Bell sides from them.  The enumeration is the oracle for both, and the
``bell_form`` Whitney route.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence, TypeVar

from .ratcore import RationalLike, clear_caches, memo, rat
from .series import EgfSeries, egf_const, egf_mul, egf_scale

BellArgs = Sequence[RationalLike]
Ring = TypeVar("Ring")
# One shape of B_{n,k}: its integer count n!/prod(i!^l_i l_i!) and the
# pairs (i - 1, l_i) of its nonzero block counts.
Shape = tuple[int, tuple[tuple[int, int], ...]]


def bell_partial(n: int, k: int, args: BellArgs) -> Fraction:
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    args[i-1] holds x_i; zero when k > n, and B_{0,0} = 1.
    """
    width = _require_bell_args(n, k, args)
    if k > n:
        return Fraction(0)
    ys, q = _common_scale([rat(v) for v in args[:width]])
    return Fraction(_shape_sum(n, k, ys), q ** k)


def bell_column_ints(n: int, k: int, ys: Sequence[int]) -> list[int]:
    """B_{l,k}(y_1, ..., y_{l-k+1}) for l = k..n at integer arguments, as
    ints (empty when k > n); ys[i-1] holds y_i, read up to n - k + 1."""
    ys = ys[:_require_bell_args(n, k, ys)]
    return [_shape_sum(l, k, ys[:l - k + 1]) for l in range(k, n + 1)]


def _require_bell_args(n: int, k: int, args: Sequence) -> int:
    """The number of arguments B_{n,k} reads, n - k + 1 for 1 <= k <= n
    and none otherwise; ValueError for a negative index, or for fewer
    arguments than that."""
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    width = n - k + 1 if 0 < k <= n else 0
    if len(args) < width:
        raise ValueError(
            f"B_({n},{k}) needs {width} arguments x_1..x_{width}, "
            f"got {len(args)}")
    return width


def _common_scale(xs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(y, q): q the lcm of the x_i's denominators, and y_i = q x_i."""
    q = lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (q // x.denominator) for x in xs), q


def _shape_sum(n: int, k: int, ys: Sequence[int]) -> int:
    """B_{n,k} at the integers ys, over the shapes of (n, k, len(ys)):
    sum of count * prod y_i^l_i, in integers."""
    total = 0
    for count, blocks in _bell_shapes(n, k, len(ys)):
        for i, l in blocks:
            count *= ys[i] ** l
        total += count
    return total


@memo
def _bell_shapes(n: int, k: int, width: int) -> tuple[Shape, ...]:
    """The shapes of B_{n,k} over `width` arguments, one per index vector:
    n!/prod(i!^l_i l_i!) set partitions have l_i blocks of size i."""
    n_fact, shapes = factorial(n), []
    for ls in _index_vectors(n, k, width):
        count, blocks = 1, []
        for i, l in enumerate(ls):
            if l:
                count *= factorial(i + 1) ** l * factorial(l)
                blocks.append((i, l))
        shapes.append((n_fact // count, tuple(blocks)))
    return tuple(shapes)


def _index_vectors(n: int, k: int, width: int) -> list[tuple[int, ...]]:
    """(l_1..l_width) with sum l_i = k and sum i*l_i = n, in lexicographic
    order, filled into one list by a depth-first walk."""
    found: list[tuple[int, ...]] = []
    acc: list[int] = []

    def walk(pos: int, blocks: int, weight: int) -> None:
        # Each block left has between pos and width elements.
        if blocks * pos > weight or weight > blocks * width:
            return
        if blocks == 0:
            found.append(tuple(acc) + (0,) * (width - len(acc)))
            return
        # l_pos can use at most weight // pos of the remaining weight.
        for l in range(min(blocks, weight // pos) + 1):
            acc.append(l)
            walk(pos + 1, blocks - l, weight - pos * l)
            acc.pop()

    walk(1, k, n)
    return found


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


def bell_partial_rows(n: int, args: Sequence[Ring],
                      one: Ring) -> tuple[tuple[Ring, ...], ...]:
    """B_{l,k}(x_1, ..., x_{l-k+1}) for l = 0..n, row l holding k = 0..l,
    from one power chain.

    The x_i may come from any commutative ring over the rationals, such as
    polynomials in a second variable; ``one`` is that ring's unit.  `args`
    holds x_1..x_n in full, so every k reads the same chain: power k of
    sum_i x_i t^i / i!, over k!, is power k - 1 times that series over k,
    filled upward as in ``bell_partial_series`` but not memoized, and its
    coefficient l is B_{l,k}.  The program only adds and multiplies, so
    it has no branch on the values: over ``dowling.PolyX`` every step is
    integer arithmetic on numerators over one denominator, and over
    Fractions it is Fraction arithmetic.
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
    powers = [[one] + [zero] * n]       # power 0: the constant series 1
    for k in range(1, n + 1):
        # Coefficients of power k - 1 below t^(k-1) vanish, so coefficient
        # j of power k reads x_1..x_(j-k+1) only.
        power = powers[-1]
        powers.append([zero] * k + [
            sum((weighted[j][i] * power[j - i] for i in range(1, j - k + 2)),
                zero) * Fraction(1, k)
            for j in range(k, n + 1)])
    return tuple(tuple(power[l] for power in powers[:l + 1])
                 for l in range(n + 1))


def bell_partial_row(n: int, args: Sequence[Ring],
                     one: Ring) -> tuple[Ring, ...]:
    """B_{n,k}(x_1, ..., x_{n-k+1}) for k = 0..n: the last row of
    ``bell_partial_rows``."""
    return bell_partial_rows(n, args, one)[n]
