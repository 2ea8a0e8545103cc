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
``bell_partial_rows`` gives every row l <= n over rationals or
polynomials in x, by Comtet's row recurrence, which builds row l from
the rows below it; the rows are memoized by argument prefix
(``_bell_rows``), so the battery's calls at n = 0, 1, 2, ... on one
argument list add one row each.  The identity battery reads its Bell
sides from them.  The enumeration is the oracle for both, and the
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
    """B_{l,k}(x_1, ..., x_{l-k+1}) for l = 0..n, row l holding k = 0..l.

    The x_i may come from any commutative ring over the rationals, such as
    polynomials in a second variable; ``one`` is that ring's unit, and
    `args` holds x_1..x_n.  Row l reads x_1..x_l only, so the rows are
    memoized by argument prefix (``_bell_rows``): after a call at n - 1
    on the same arguments, the call at n adds one row.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if len(args) < n:
        raise ValueError(
            f"B_({n},k) needs {n} arguments x_1..x_{n}, got {len(args)}")
    xs = (one, *args[:n])
    return _bell_rows(xs, tuple(map(type, xs)))


@memo
def _bell_rows(xs: tuple, ring: tuple[type, ...]) -> tuple[tuple, ...]:
    """Rows l = 0..n of B_{l,k}, n = len(xs) - 1, for xs = (one, x_1, ...,
    x_n), by Comtet's row recurrence (*Advanced Combinatorics*, 3.3)

        B_{n,k} = sum_{i=1}^{n-k+1} C(n-1, i-1) x_i B_{n-i,k-1},

    so row n reads the rows of the prefix xs[:n], its own memo entry.
    The key holds `ring`, the types of xs, beside their values: 1 and
    Fraction(1) are equal and hash equal, so a key of values alone would
    hand int rows to a Fraction caller.  The program only adds and
    multiplies, with integer weights, so it has no branch on the values:
    over ``dowling.PolyX`` every step is integer arithmetic on numerators
    over one denominator, and over Fractions it is Fraction arithmetic.
    """
    n = len(xs) - 1
    if n == 0:
        return ((xs[0],),)
    # Fill the shorter prefixes upward first, so the call for xs[:n] is a
    # memo hit (or one frame deep) however large n is.
    for l in range(1, n):
        _bell_rows(xs[:l], ring[:l])
    rows = _bell_rows(xs[:n], ring[:n])
    weighted = [comb(n - 1, i - 1) * xs[i] for i in range(1, n + 1)]
    zero = 0 * xs[0]
    row = (zero,) + tuple(
        sum((weighted[i - 1] * rows[n - i][k - 1]
             for i in range(1, n - k + 2)), zero)
        for k in range(1, n + 1))
    return rows + (row,)
