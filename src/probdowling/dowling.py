"""Stirling, Whitney, and Dowling families, exact and multi-route.

The central object is the triangle W(n, k) of probabilistic degenerate
Whitney numbers attached to a moment model Y: coefficient n of
(1/k!) ((E[e_lam^(mY)(t)] - 1)/m)^k e_lam^r(t), with r = 1 for the plain
family.  The production route ("egf", the default) does not expand that
generating function: ``dowling_poly_r`` builds each row from the earlier
rows by the paper's degree-raising recurrence, and the generating
function itself is a test oracle.  The rows are grown in integers,
T(n, k) = L^n W(n, k) with L the kernel's scale
(``moments.scaled_kernel``), in one store per (model, params), and row
n is those integers over L^n as one ``PolyX``, reduced by one content
gcd.  The same numbers fall out of three other computations (an
alternating binomial sum over sums of copies, an expansion through
degenerate Stirling numbers, and a partial-Bell-polynomial form), which
are kept as first-class routes of ``whitney_prob_r`` for every shift
r >= 0: agreement of the routes is the library's correctness argument,
so none of them is allowed to decay into a wrapper around another.  The
oracle routes read the integer sum-moment chain
(``moments.scaled_chain``) and divide once.

Dowling polynomials are the row polynomials sum_k W(n, k) x^k; their
value at x = 1 is a Dowling number.  ``dobinski_eval`` sums the
exponentially weighted moment series for the same polynomial numerically,
with the exact polynomial value available as the oracle.

The memo tables here come from ``ratcore.memo``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Callable, Sequence

from .bell import bell_column_ints, bell_partial_series
from .moments import (MomentModel, egf_mgf_degen, pascal_row, scaled_chain,
                      scaled_kernel, sum_degen_moment)
from .ratcore import (Frozen, Params, RationalLike, brief, clear_caches,
                      exact_int, memo, rat, sumprod)
from .series import EgfSeries, egf_coeff

WHITNEY_ROUTES = ("egf", "alt_sum", "stirling_expand", "bell_form")

# The lam = 1 chain key of "stirling_expand": its chain holds the ordinary
# falling-factorial moments.
_PLAIN_LAM = Fraction(1)

# The last term index ``dobinski_eval`` sums before it gives up.
DOBINSKI_MAX_TERMS = 400


class PolyX(Frozen):
    """Dense polynomial in the Dowling argument x, ascending powers.

    Trailing zeros are tolerated; equality and degree ignore them.  It is
    held as in FLINT's ``fmpq_poly``: integer numerators over one positive
    denominator, with no common factor left between all of them (the
    content removed), so equal polynomials hold equal integers.  Products,
    sums, scalar multiples, derivatives and values at x work on those
    integers: a product is an integer convolution, a sum brings both sides
    over one denominator, and each result is reduced by one gcd.
    ``coeffs`` holds the Fraction coefficients: those it was built from,
    or, for a computed polynomial, built once, when first read.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[RationalLike]) -> None:
        coerced = tuple(map(rat, coeffs)) or (Fraction(0),)
        # Over the lcm of the denominators, the content is already 1.
        den = math.lcm(*(c.denominator for c in coerced))
        object.__setattr__(self, "_nums", tuple(
            c.numerator * (den // c.denominator) for c in coerced))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "coeffs", coerced)

    @classmethod
    def _reduced(cls, nums: Sequence[int], den: int) -> "PolyX":
        """nums / den (den > 0) with the content removed."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        poly = object.__new__(cls)
        object.__setattr__(poly, "_nums", tuple(nums))
        object.__setattr__(poly, "_den", den)
        return poly

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @property
    def degree(self) -> int:
        """Largest power with nonzero coefficient; -1 for the zero polynomial."""
        nums = self._nums
        for k in range(len(nums) - 1, -1, -1):
            if nums[k]:
                return k
        return -1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self._nums) else Fraction(0)

    def evaluate(self, x: RationalLike) -> Fraction:
        """The value at x = p/q: Horner's rule on the integers
        sum_i a_i p^i q^(d-i), over den q^d, as one Fraction."""
        x = rat(x)
        p, q = x.numerator, x.denominator
        nums = self._nums[:self.degree + 1] or (0,)
        acc, scale = nums[-1], 1
        for c in nums[-2::-1]:
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, self._den * scale)

    def derivative(self, order: int = 1) -> "PolyX":
        """The order-th derivative in one pass: coefficient i is
        (i + order)! / i! times coefficient i + order, and an order past
        the stored length leaves the zero polynomial."""
        if order < 0:
            raise ValueError(f"derivative order must be nonnegative, got {order}")
        nums = self._nums
        return PolyX._reduced([math.perm(k, order) * nums[k]
                               for k in range(order, len(nums))] or [0],
                              self._den)

    def shift_up(self) -> "PolyX":
        """Multiply by x."""
        return PolyX._reduced((0,) + self._nums, self._den)

    def __add__(self, other: "PolyX") -> "PolyX":
        if not isinstance(other, PolyX):
            return NotImplemented
        a, b, den = self._nums, other._nums, self._den
        if other._den != den:
            g = math.gcd(den, other._den)
            up_a, up_b = other._den // g, den // g
            a, b, den = ([c * up_a for c in a], [c * up_b for c in b],
                         den * up_a)
        if len(a) < len(b):
            a, b = b, a
        return PolyX._reduced(list(map(add, a, b)) + list(a[len(b):]), den)

    def __mul__(self, other: "RationalLike | PolyX") -> "PolyX":
        """Product with a rational scalar or with another polynomial."""
        if isinstance(other, PolyX):
            # The integer convolution, one row a_i * b per nonzero a_i
            # added into the slice of the product it overlaps.
            b = other._nums
            width = len(b)
            out = [0] * (len(self._nums) + width - 1)
            for i, c in enumerate(self._nums):
                if c:
                    out[i:i + width] = map(add, out[i:i + width],
                                           map(c.__mul__, b))
            return PolyX._reduced(out, self._den * other._den)
        if type(other) is int:
            p, q = other, 1
        else:
            c = rat(other)
            p, q = c.numerator, c.denominator
        return PolyX._reduced([p * v for v in self._nums], self._den * q)

    __rmul__ = __mul__

    def _key_ints(self) -> tuple:
        """The numerators without trailing zeros, and the denominator."""
        return self._nums[:self.degree + 1], self._den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyX):
            return NotImplemented
        return self._key_ints() == other._key_ints()

    def __hash__(self) -> int:
        return hash(self._key_ints())

    def __repr__(self) -> str:
        return f"PolyX({list(self.coeffs)!r})"


POLY_ZERO = PolyX((Fraction(0),))
POLY_ONE = PolyX((Fraction(1),))


def stirling2_degen(n: int, k: int, lam: RationalLike) -> Fraction:
    """Degenerate Stirling number of the second kind.

    Coefficient n of (1/k!) (e_lam(t) - 1)^k; connects the generalized
    falling factorial to the ordinary falling-factorial basis, and
    reduces to stirling2 at lam = 0.  Read off a memoized integer row
    built by Carlitz's recurrence, entry k over den(lam)^(n-k), so it
    shares no computation with stirling2_prob.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    lam = rat(lam)
    q = lam.denominator
    return Fraction(_stirling2_degen_row(n, lam.numerator, q)[k],
                    q ** (n - k))


@memo
def _stirling2_degen_row(n: int, p: int, q: int) -> tuple[int, ...]:
    """Row n of the degenerate Stirling numbers of the second kind for
    lam = p/q, keyed by the integers p and q, each entry scaled to the
    integer T(n, j) = q^(n-j) S(n, j).

    Carlitz's recurrence S(n, j) = S(n-1, j-1) + (j - (n-1) lam) S(n-1, j),
    times q^(n-j), is T(n, j) = T(n-1, j-1) + (j q - (n-1) p) T(n-1, j),
    which has no division.
    """
    if n == 0:
        return (1,)
    # Fill the lower rows upward first, so the call for row n - 1 is a memo
    # hit (or one frame deep) however large n is.
    for l in range(n - 1):
        _stirling2_degen_row(l, p, q)
    prev = _stirling2_degen_row(n - 1, p, q) + (0,)
    shift = (n - 1) * p
    return (0,) + tuple(prev[j - 1] + (j * q - shift) * prev[j]
                        for j in range(1, n + 1))


def stirling2_prob(model: MomentModel, n: int, k: int,
                   lam: RationalLike) -> Fraction:
    """Probabilistic degenerate Stirling number attached to a moment model.

    Coefficient n of (1/k!) (E[e_lam^Y(t)] - 1)^k; equals stirling2_degen
    when Y is the point mass at 1.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    # The kernel E[e_lam^Y(t)] at order n, less its constant term 1.
    inner = EgfSeries((0,) + egf_mgf_degen(model, 1, lam, n).coeffs[1:])
    return egf_coeff(bell_partial_series(k, inner), n)


def whitney_prob(model: MomentModel, params: Params, n: int, k: int,
                 route: str = "egf") -> Fraction:
    """Probabilistic degenerate Whitney number W(n, k): the r = 1 family.

    ``whitney_prob_r`` with shift 1 (params.r is ignored), by any of the
    same four routes; params with r = 1 pass through as they are.  A
    ``Params`` keeps its hash and an integer key after its first lookup,
    and the stores are keyed by lam's numerator and denominator, so every
    memo lookup of a warm call, on fresh but equal params or model too,
    hashes and compares integers only.
    """
    if params.r != 1:
        params = Params(params.m, params.lam, 1)
    return whitney_prob_r(model, params, n, k, route)


def whitney_prob_r(model: MomentModel, params: Params, n: int, k: int,
                   route: str = "egf") -> Fraction:
    """Probabilistic degenerate r-Whitney number W(n, k) with shift params.r.

    All four routes return the same rational for every r >= 0:

    - "egf": entry k of the stored row ``dowling_poly_r``, which the
      degree-raising recurrence builds from the earlier rows in integers
      (production path; the name is kept because every caller passes it);
    - "alt_sum": (1/(m^k k!)) sum_j C(k,j) (-1)^(k-j) E[(m S_j + r)_{n,lam}],
      column n of the integer chain entries 0..k, L^n E[(m S_j + r)_{n,lam}],
      read in one chain lookup (``scaled_chain``) and weighted by the
      signed stored Pascal row of k (``moments.pascal_row``);
    - "stirling_expand": the same alternating sum pushed through the
      degenerate Stirling expansion of the falling factorial, so only
      ordinary falling-factorial moments of the copy sums appear: it
      reads the lam = 1 integer chain entries of copy counts 0..k, every
      order up to n, in one lookup (``scaled_chain``), and the integer
      Carlitz row ``_stirling2_degen_row`` of (n, lam) once, whose entry j is
      den(lam)^(n-j) S(n, j), weighted by powers of den(lam) and of the
      chain's scale grown by running products, and sums only the orders
      j >= k (the alternating sum of every lower order vanishes);
    - "bell_form": partial Bell polynomials of the kernel coefficients
      c_i = E[(mY)_{i,lam}], evaluated by partition enumeration at the
      kernel's integers K_i = L^i c_i (``scaled_kernel``) through one
      ``bell_column_ints`` call: B_{l,k}(c) = B_{l,k}(K) / L^l by
      homogeneity.  Each is weighted by C(n, l) (r)_{n-l,lam}, read as
      the integers L^i (r)_{i,lam} of entry 0 of the sum-moment chain
      (``scaled_chain`` with no copies), the degenerate exponential of r,
      which reads no moment, so every term is an integer over L^n.

    Each oracle route builds one Fraction from an integer sum at its end:
    "alt_sum" and "bell_form" over m^k L^n (times k! for "alt_sum"), and
    "stirling_expand" over den(lam)^(n-k) D^n m^k k!, with D the scale
    of the lam = 1 chain.

    k > n returns 0: the generating kernel's series starts at t^k.
    """
    if route not in WHITNEY_ROUTES:
        raise ValueError(f"unknown route {route!r}; "
                         f"expected one of {WHITNEY_ROUTES}")
    m, lam, r = params.m, params.lam, params.r
    if k < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    if route == "egf":
        return dowling_poly_r(model, params, n).coeff(k)
    if route == "alt_sum":
        chain, base = scaled_chain(model, k, m, r, n, lam)
        return Fraction(_alternating(k, [chain[j][n] for j in range(k + 1)]),
                        m ** k * math.factorial(k) * base ** n)
    if route == "stirling_expand":
        # Column j of the lam = 1 chain holds D^j E[(m S_l + r)_j] for
        # l = 0..k, a polynomial of degree <= j in l (coefficient j of
        # P^l e_1^r, P_0 = 1), so its k-th difference, the signed sum, is
        # 0 for j < k: only the columns j = k..n are summed.  Column j
        # weighs S(n, j) / D^j = T(n, j) / (den(lam)^(n-j) D^j) with the
        # Carlitz integer T(n, j), so over den(lam)^(n-k) D^n its weight
        # is T(n, j) den(lam)^(j-k) D^(n-j), both powers grown by products.
        # The double sum is taken entry by entry: each copy count's weighted
        # sum over j, then one signed sum over the copy counts.
        chain, base = scaled_chain(model, k, m, r, n, _PLAIN_LAM)
        den = lam.denominator
        ups, downs = [1], [1]
        for _ in range(n - k):
            ups.append(ups[-1] * den)
            downs.append(downs[-1] * base)
        carlitz = _stirling2_degen_row(n, lam.numerator, den)
        scaled = [t * u * d for t, u, d in
                  zip(carlitz[k:], ups, reversed(downs))]
        weighted = [sumprod(scaled, chain[l][k:n + 1]) for l in range(k + 1)]
        return Fraction(_alternating(k, weighted),
                        ups[-1] * base ** n * m ** k * math.factorial(k))
    # route == "bell_form"
    # B_{l,k} reads K_1..K_(l-k+1) for k >= 1, and no argument for k = 0.
    width = n - k + 1 if k else 0
    ints = scaled_kernel(model, m, lam, width)[0]
    # Entry 0 of the chain: L^i (r)_{i,lam}, the degenerate exponential of
    # r, which reads no moment.  Its L is the kernel's, so term l,
    # C(n, l) L^(n-l) (r)_{n-l,lam} B_{l,k}(K), is over L^n.
    chain, base = scaled_chain(model, 0, m, r, n - k, lam)
    shifted = chain[0]
    weights = [c * shifted[n - l]
               for l, c in enumerate(pascal_row(n)[k:], start=k)]
    bells = bell_column_ints(n, k, ints[1:width + 1])
    return Fraction(sumprod(weights, bells), m ** k * base ** n)


def _alternating(k: int, xs: Sequence[int]) -> int:
    """sum_j (-1)^(k-j) C(k, j) xs[j] over j = 0..k (xs of length k + 1),
    in integers, from the stored Pascal row of k: the terms j = k, k-2,
    ... add and the others subtract, so no signed row is built."""
    row, plus = pascal_row(k), k % 2
    return (sumprod(row[plus::2], xs[plus::2])
            - sumprod(row[1 - plus::2], xs[1 - plus::2]))


class WhitneyTriangle(Frozen):
    """Materialized lower-triangular table of r-Whitney numbers.

    Row n holds W(n, 0), ..., W(n, n); column 0 is (r)_{n,lam} and the
    diagonal is E[Y]^n.
    """

    model: MomentModel
    params: Params
    max_n: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def build(cls, model: MomentModel, params: Params,
              max_n: int) -> "WhitneyTriangle":
        if max_n < 0:
            raise ValueError(f"max_n must be nonnegative, got {max_n}")
        return cls(model, params, max_n, tuple(
            dowling_poly_r(model, params, n).coeffs for n in range(max_n + 1)))

    def entry(self, n: int, k: int) -> Fraction:
        if not 0 <= n <= self.max_n:
            raise IndexError(f"row {n} out of range for max_n {self.max_n}")
        if k < 0:
            raise IndexError(f"column {k} out of range")
        return self.entries[n][k] if k <= n else Fraction(0)


def dowling_poly(model: MomentModel, params: Params, n: int) -> PolyX:
    """Dowling polynomial of degree n: coefficient k is W(n, k), r = 1
    (params.r is ignored; params with r = 1 pass through as they are)."""
    if params.r != 1:
        params = Params(params.m, params.lam, 1)
    return dowling_poly_r(model, params, n)


def dowling_poly_r(model: MomentModel, params: Params, n: int) -> PolyX:
    """r-Dowling polynomial: coefficient k is the r-Whitney number W(n, k).

    The one producer of exact Whitney rows, read from the store
    ``_whitney_rows`` of (model, params) and grown there first if row n
    is missing (``_grow_whitney``, in integers).  Row n comes from rows
    0..n-1 by the degree-raising recurrence, which is (1 + lam t) d/dt
    applied to (1/k!) K^k e_lam^r(t) with K = (E[e_lam^(mY)(t)] - 1)/m:

        W(n, k) = (r - (n-1) lam) W(n-1, k)
                  + (1/m) sum_l C(n-1, l) W(l, k-1) g_(n-1-l),

    with g_j = E[mY (mY)_{j,lam}] = c_(j+1) + j lam c_j and
    c_j = E[(mY)_{j,lam}], coefficient j of the stored kernel.  Row n is
    grown as T(n, k) = L^n W(n, k), an integer, and kept as one PolyX:
    T(n, 0..n) over L^n, reduced by one content gcd; its Fractions are
    built when first read.  A table up to N costs about N^3/6 integer
    products.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    store = _whitney_rows(model, params)
    polys = store[0]
    if len(polys) <= n:
        cols, base = _grow_whitney(model, params, store[1], n)
        # T(row, k) sits at index row - k of column k.
        polys = polys + tuple(
            PolyX._reduced([cols[k][row - k] for k in range(row + 1)],
                           base ** row)
            for row in range(len(polys), n + 1))
        store[:] = polys, cols
    return polys[n]


@memo
def _whitney_rows(model: MomentModel, params: Params) -> list:
    """The Whitney rows of (model, params), shared by every degree.

    One slot [polys, cols]: polys[n] is the ``dowling_poly_r`` row n, and
    cols[k] holds T(n, k) = L^n W(n, k) for n = k, k + 1, ... up
    to the highest row grown, with L the kernel's scale.  Both are
    replaced whole, in one step, by longer ones, never changed in place,
    so a failed growth leaves the store as it was.
    """
    return [(POLY_ONE,), [[1]]]


def _grow_whitney(model: MomentModel, params: Params,
                  cols: list[list[int]], n: int
                  ) -> tuple[list[list[int]], int]:
    """New columns of T through row n, and the scale L.

    T(n, k) = (rL - (n-1) lam L) T(n-1, k)
              + sum_l C(n-1, l) G'_(n-1-l) T(l, k-1),
    G'_j = G_j / m with G_j = K_(j+1) + j lam L K_j, K the kernel's scaled
    integers (``scaled_kernel``): W's recurrence times L^n.  The division
    by m is exact: G_j = L^(j+1) E[mY (mY)_{j,lam}]
    = m sum_a c_a m^a (lam L)^(j-a) L^(a+1) E[Y^(a+1)] with integers c_a,
    and lam L and L^(a+1) E[Y^(a+1)] are integers, because den(lam) and
    D (``moments.moment_base``) divide L.  ``exact_int`` checks it all the
    same: ArithmeticError, never a truncated row, if a G_j is not a
    multiple of m.  The stored columns are copied, never extended in place.
    """
    ints, base = scaled_kernel(model, params.m, params.lam, n)
    step = exact_int(params.lam, base)
    per_m = Fraction(1, params.m)
    G = [exact_int(per_m, ints[j + 1] + j * step * ints[j]) for j in range(n)]
    cols = [col[:] for col in cols]
    for row in range(len(cols), n + 1):
        # weights[l] = C(row-1, l) G'_(row-1-l); column k-1 holds
        # T(l, k-1) for l = k-1..row-1, the terms of column k.
        weights = [b * G[row - 1 - l]
                   for l, b in enumerate(pascal_row(row - 1))]
        shift = params.r * base - (row - 1) * step
        cols.append([])
        # k runs downward, so column k - 1 is read before it gains its
        # entry of this row.
        for k in range(row, 0, -1):
            carried = shift * cols[k][-1] if k < row else 0
            cols[k].append(carried + sumprod(weights[k - 1:], cols[k - 1]))
        cols[0].append(shift * cols[0][-1])
    return cols, base


def dobinski_eval(model: MomentModel, params: Params, n: int,
                  x: RationalLike, rel_tol: float) -> float:
    """Evaluate the r-Dowling polynomial at x >= 0 by its moment series.

    Sums e^(-x/m) sum_k x^k / (m^k k!) E[(m S_k + r)_{n,lam}] with exact
    rational terms from ``sum_degen_moment``, stopping once the current
    term is below rel_tol times the running partial sum in absolute value
    for three consecutive terms and k exceeds n, and giving up after
    ``DOBINSKI_MAX_TERMS`` terms with a RuntimeError.  The exact polynomial
    evaluation is the correctness oracle for this number; the truncation
    rule only serves standalone numeric use.  ValueError if the series
    leaves float range.
    """
    x = rat(x)
    if x < 0:
        raise ValueError(
            f"series argument must be nonnegative, got {brief(str(x))}")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    m, lam, r = params.m, params.lam, params.r

    partial = Fraction(0)
    weight = Fraction(1)         # x^k / (m^k k!)
    small_streak = 0
    try:
        for k in range(DOBINSKI_MAX_TERMS + 1):
            if k > 0:
                weight = weight * x / (m * k)
            term = weight * sum_degen_moment(model, k, m, r, n, lam)
            partial += term
            if abs(float(term)) <= rel_tol * abs(float(partial)):
                small_streak += 1
            else:
                small_streak = 0
            if small_streak >= 3 and k > n:
                return math.exp(-float(x) / m) * float(partial)
    except OverflowError as exc:
        raise ValueError(f"moment series at x = {brief(str(x))} leaves "
                         f"float range at term {k}") from exc
    raise RuntimeError(
        f"moment series did not settle within {DOBINSKI_MAX_TERMS} terms; "
        f"last term magnitude {abs(float(term)):.3e}")


@memo
def polynomial_sides(sides: Callable[[MomentModel, Params, int], tuple],
                     model: MomentModel, params: Params, n: int) -> tuple:
    """``sides(model, params, n)`` with each pair's verdict, memoized.

    ``identities`` proves each of its identities in the argument x once per
    degree n: `sides` builds both sides as PolyX polynomials, one pair per
    column k, and each pair is stored as (lhs, rhs, lhs == rhs), so the
    scalar checks at each x read the sides and the verdict from here.
    The formulas stay in ``identities``; the table lives here because the
    benchmark totals memo sizes for ``moments``, ``bell`` and ``dowling``
    only, and fails on a memo table in any other module.
    """
    return tuple((lhs, rhs, lhs == rhs) for lhs, rhs in sides(model, params, n))
