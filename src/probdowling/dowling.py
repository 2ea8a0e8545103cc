"""Stirling, Whitney, and Dowling families, exact and multi-route.

The central object is the triangle W(n, k) of probabilistic degenerate
Whitney numbers attached to a moment model Y: coefficient n of
(1/k!) ((E[e_lam^(mY)(t)] - 1)/m)^k e_lam^r(t), with r = 1 for the plain
family.  The production route ("egf", the default) does not expand that
generating function: ``dowling_poly_r`` builds each row from the earlier
rows by the paper's degree-raising recurrence, and the generating
function itself is a test oracle.  The same numbers fall out of three
other computations (an alternating binomial sum over sums of copies, an
expansion through degenerate Stirling numbers, and a partial-Bell-
polynomial form), which are kept as first-class routes of
``whitney_prob_r`` for every shift r >= 0: agreement of the routes is the
library's correctness argument, so none of them is allowed to decay into
a wrapper around another.

Dowling polynomials are the row polynomials sum_k W(n, k) x^k; their
value at x = 1 is a Dowling number.  ``dobinski_eval`` sums the
exponentially weighted moment series for the same polynomial numerically,
with the exact polynomial value available as the oracle.

``stirling2`` lives in ``ratcore``, which ``identities`` also reads, and
is re-exported here; the memo tables here come from ``ratcore.memo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bell import bell_partial_column, bell_partial_series
from .moments import (MomentModel, egf_mgf_degen, stored_kernel,
                      sum_degen_moment, sum_degen_moment_row,
                      sum_degen_moment_rows)
from .ratcore import (Params, RationalLike, binomial_row, clear_caches, dot,
                      memo, pair_sum, rat, stirling2)
from .series import egf_coeff, egf_const, egf_sub

WHITNEY_ROUTES = ("egf", "alt_sum", "stirling_expand", "bell_form")

# The lam = 1 chain key of "stirling_expand": its chain holds the ordinary
# falling-factorial moments.
_PLAIN_LAM = Fraction(1)

# The last term index ``dobinski_eval`` sums before it gives up.
DOBINSKI_MAX_TERMS = 400


@dataclass(frozen=True, eq=False)
class PolyX:
    """Dense polynomial in the Dowling argument x, ascending powers.

    Trailing zeros are tolerated; equality and degree ignore them.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = tuple(rat(c) for c in self.coeffs) or (Fraction(0),)
        object.__setattr__(self, "coeffs", coerced)

    @property
    def degree(self) -> int:
        """Largest power with nonzero coefficient; -1 for the zero polynomial."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return -1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def evaluate(self, x: RationalLike) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, order: int = 1) -> "PolyX":
        if order < 0:
            raise ValueError(f"derivative order must be nonnegative, got {order}")
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(k * c for k, c in enumerate(coeffs))[1:] or (Fraction(0),)
        return PolyX(coeffs)

    def shift_up(self) -> "PolyX":
        """Multiply by x."""
        return PolyX((Fraction(0),) + self.coeffs)

    def __add__(self, other: "PolyX") -> "PolyX":
        if not isinstance(other, PolyX):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return PolyX(tuple(merged))

    def __mul__(self, other: "RationalLike | PolyX") -> "PolyX":
        """Product with a rational scalar or with another polynomial."""
        if isinstance(other, PolyX):
            b = other.coeffs
            out = [Fraction(0)] * (len(self.coeffs) + len(b) - 1)
            for i, ca in enumerate(self.coeffs):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return PolyX(tuple(out))
        c = rat(other)
        return PolyX(tuple(c * v for v in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyX):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    def __hash__(self) -> int:
        return hash(self.coeffs[:self.degree + 1])

    def __repr__(self) -> str:
        return f"PolyX({list(self.coeffs)!r})"


POLY_ZERO = PolyX((Fraction(0),))
POLY_ONE = PolyX((Fraction(1),))


def stirling2_degen(n: int, k: int, lam: RationalLike) -> Fraction:
    """Degenerate Stirling number of the second kind.

    Coefficient n of (1/k!) (e_lam(t) - 1)^k; connects the generalized
    falling factorial to the ordinary falling-factorial basis, and
    reduces to stirling2 at lam = 0.  Read off a memoized row built by
    Carlitz's recurrence, so it shares no computation with stirling2_prob.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    return _stirling2_degen_row(n, rat(lam))[k]


@memo
def _stirling2_degen_row(n: int, lam: Fraction) -> tuple[Fraction, ...]:
    """Row n of the degenerate Stirling numbers of the second kind, by
    S(n, k) = S(n-1, k-1) + (k - (n-1) lam) S(n-1, k)."""
    if n == 0:
        return (Fraction(1),)
    # Fill the lower rows upward first, so the call for row n - 1 is a memo
    # hit (or one frame deep) however large n is.
    for l in range(n - 1):
        _stirling2_degen_row(l, lam)
    prev = _stirling2_degen_row(n - 1, lam) + (Fraction(0),)
    shift = (n - 1) * lam
    return (Fraction(0),) + tuple(prev[k - 1] + (k - shift) * prev[k]
                                  for k in range(1, n + 1))


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
    lam = rat(lam)
    inner = egf_sub(egf_mgf_degen(model, 1, lam, n), egf_const(1, n))
    return egf_coeff(bell_partial_series(k, inner), n)


def whitney_prob(model: MomentModel, params: Params, n: int, k: int,
                 route: str = "egf") -> Fraction:
    """Probabilistic degenerate Whitney number W(n, k): the r = 1 family.

    ``whitney_prob_r`` with shift 1 (params.r is ignored), by any of the
    same four routes; params with r = 1 pass through as they are, so their
    kept hash serves every memo lookup.
    """
    if params.r != 1:
        params = Params(params.m, params.lam, 1)
    return whitney_prob_r(model, params, n, k, route)


def whitney_prob_r(model: MomentModel, params: Params, n: int, k: int,
                   route: str = "egf") -> Fraction:
    """Probabilistic degenerate r-Whitney number W(n, k) with shift params.r.

    All four routes return the same rational for every r >= 0:

    - "egf": entry k of the memoized row ``dowling_poly_r``, which the
      degree-raising recurrence builds from the earlier rows (production
      path; the name is kept because every caller passes it);
    - "alt_sum": (1/(m^k k!)) sum_j C(k,j) (-1)^(k-j) E[(m S_j + r)_{n,lam}],
      column n of the rows of chain entries 0..k, read in one chain
      lookup (``sum_degen_moment_rows``) and weighted by signed integers;
    - "stirling_expand": the same alternating sum pushed through the
      degenerate Stirling expansion of the falling factorial, so only
      ordinary falling-factorial moments of the copy sums appear: it
      reads the lam = 1 chain rows of copy counts 0..k, every order up to
      n, in one lookup (``sum_degen_moment_rows``), and the Carlitz row
      ``_stirling2_degen_row(n, lam)`` once, and sums only the orders
      j >= k (the alternating sum of every lower order vanishes);
    - "bell_form": partial Bell polynomials of the kernel coefficients
      E[(mY)_{j,lam}], sliced from the stored kernel (``stored_kernel``)
      and evaluated by partition enumeration through one
      ``bell_partial_column`` call, whose memo lookups hash no Fraction,
      weighted by (r)_{n-l,lam}, read off the stored row
      ``sum_degen_moment_row(model, 0, m, r, n - k, lam)``: entry 0 of the
      sum-moment chain, the degenerate exponential of r, which reads no
      moment.

    Each oracle route ends with one sum over a common denominator
    (``ratcore.dot`` or ``pair_sum``) that divides by m^k k! (m^k for
    "bell_form") in the same reduction.

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
        rows = sum_degen_moment_rows(model, k, m, r, n, lam)
        return dot(_signed_binomials(k), [row[n] for row in rows],
                   divisor=m ** k * math.factorial(k))
    if route == "stirling_expand":
        s = _stirling2_degen_row(n, lam)[k:]
        signed = _signed_binomials(k)
        rows = sum_degen_moment_rows(model, k, m, r, n, _PLAIN_LAM)
        # Column j holds E[(m S_l + r)_j] for l = 0..k, a polynomial of
        # degree <= j in l (coefficient j of P^l e_1^r, P_0 = 1), so its
        # k-th difference, the signed sum, is 0 for j < k: only the
        # columns j = k..n are summed, every term s_j w_l E[(m S_l + r)_j]
        # in one sum over a common denominator.
        columns = zip(*(row[k:] for row in rows))
        return pair_sum(((sj.numerator * w * e.numerator,
                          sj.denominator * e.denominator)
                         for sj, column in zip(s, columns) if sj
                         for w, e in zip(signed, column)),
                        m ** k * math.factorial(k))
    # route == "bell_form"
    # B_{l,k} reads x_1..x_(l-k+1) for k >= 1, and no argument for k = 0.
    width = n - k + 1 if k else 0
    kernel = stored_kernel(model, m, lam, width).coeffs
    shifted = sum_degen_moment_row(model, 0, m, r, n - k, lam)  # (r)_{i,lam}
    bells = bell_partial_column(n, k, kernel[1:width + 1])
    return dot(bells, shifted[::-1], binomial_row(n)[k:], divisor=m ** k)


def _signed_binomials(k: int) -> list[int]:
    """(-1)^(k-j) C(k, j) for j = 0..k, the alternating-sum weights."""
    return [(-1) ** (k - j) * c for j, c in enumerate(binomial_row(k))]


@dataclass(frozen=True)
class WhitneyTriangle:
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
    """Dowling polynomial of degree n: coefficient k is W(n, k), r = 1."""
    return dowling_poly_r(model, Params(params.m, params.lam, r=1), n)


@memo
def dowling_poly_r(model: MomentModel, params: Params, n: int) -> PolyX:
    """r-Dowling polynomial: coefficient k is the r-Whitney number W(n, k).

    The one memoized producer of exact Whitney rows.  Row n comes from
    rows 0..n-1 by the degree-raising recurrence, which is (1 + lam t) d/dt
    applied to (1/k!) K^k e_lam^r(t) with K = (E[e_lam^(mY)(t)] - 1)/m:

        W(n, k) = (r - (n-1) lam) W(n-1, k)
                  + (1/m) sum_l C(n-1, l) W(l, k-1) g_(n-1-l),

    with g_j = E[mY (mY)_{j,lam}] = c_(j+1) + j lam c_j and
    c_j = E[(mY)_{j,lam}], coefficient j of the stored kernel
    (``stored_kernel``, the series of ``egf_mgf_degen``).  A table
    up to N costs about N^3/6 products.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n == 0:
        return POLY_ONE
    m, lam = params.m, params.lam
    # Ascending calls: each earlier row finds its own predecessors memoized,
    # so a cold call at large n never nests more than two rows deep.
    rows = [dowling_poly_r(model, params, l).coeffs for l in range(n)]
    c = stored_kernel(model, m, lam, n).coeffs
    # weights[l] = C(n-1, l) g_(n-1-l) / m
    weights = [b * (c[n - l] + (n - 1 - l) * lam * c[n - 1 - l]) / m
               for l, b in enumerate(binomial_row(n - 1))]
    shift = params.r - (n - 1) * lam
    prev = rows[n - 1]
    row = [shift * prev[0]]
    for k in range(1, n + 1):
        carried = shift * prev[k] if k < n else Fraction(0)
        row.append(carried + dot(weights[k - 1:],
                                 [rows[l][k - 1] for l in range(k - 1, n)]))
    return PolyX(tuple(row))


def dowling_number(model: MomentModel, params: Params, n: int) -> Fraction:
    """Dowling number: the Dowling polynomial evaluated at x = 1."""
    return dowling_poly(model, params, n).evaluate(1)


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
        raise ValueError(f"series argument must be nonnegative, got {x}")
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
        raise ValueError(f"moment series at x = {x} leaves float range "
                         f"at term {k}") from exc
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
