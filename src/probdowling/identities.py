"""Identity checks: every structural law of the Whitney/Dowling families,
verified to exact rational equality at caller-chosen parameter points.

Each check computes both sides of one identity through routes that share
as little code as possible and returns an ``IdentityReport`` carrying the
two exact values, so a failure is diagnosable without re-running.

The three laws in the polynomial argument x (``check_binom_bell``,
``check_bell_rwhitney``, ``check_stirling_bell``) are proven, not
sampled: both sides are built once per degree n as PolyX polynomials in
x, for every column k at once, and memoized with their verdict in
``dowling.polynomial_sides``.  Their Bell sides are row n of
``bell.bell_partial_rows``, at polynomials in x (at rationals, the
Dowling numbers, for ``check_binom_bell``); those rows are memoized by
argument prefix, so degree n adds one row to degree n - 1's.
``check_bell_expansion`` reads every row l <= n of one such triangle
over rationals.  The r-Whitney sides read the stored rows
``dowling_poly_r`` of shift k, one row per column k.

``check_bell_expansion``, ``check_recurrence``, ``check_derivative``
and ``check_convolution`` sum whole rows, Bell rows or Dowling rows
D(k, x), times scalar weights, as PolyX.  ``check_convolution``'s
bivariate sides are built as rows per power of y: row j is the
coefficient of y^j as a PolyX in x, on the left the Taylor coefficient
E^(j)(x) / j! of one polynomial E.
A PolyX holds integer numerators over one denominator, so the battery
multiplies and adds integers, with one gcd per result and no Fraction
per coefficient.  A call at one x reports the two sides' values there,
and ``passed`` is equality of the polynomials, so the verdict is the
same at every x.

Check functions are pure and independent of one another.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Sequence

from .bell import bell_partial_rows
from .dowling import (POLY_ONE, POLY_ZERO, PolyX, dowling_poly, dowling_poly_r,
                      polynomial_sides, stirling2_prob, whitney_prob)
from .moments import (MomentModel, egf_mgf_degen, falling_row,
                      sum_degen_moment)
from .ratcore import (Frozen, Params, RationalLike, binom, degen_falling, rat,
                      stirling2)


class IdentityReport(Frozen):
    """Outcome of checking one identity at one parameter point.

    ``lhs`` and ``rhs`` are exact (a Fraction, a PolyX, or a bivariate
    coefficient dict); ``passed`` is exact equality of the two, except
    for the x-identities, whose values at x are reported and whose
    ``passed`` is equality of the two sides as polynomials in x.
    """

    theorem_id: str
    model: Optional[MomentModel]
    params: Optional[Params]
    bounds: dict
    lhs: object
    rhs: object
    passed: bool


def _report(theorem_id: str, model, params, bounds, lhs, rhs) -> IdentityReport:
    return IdentityReport(theorem_id, model, params, bounds, lhs, rhs,
                          lhs == rhs)


def check_sum_identity(model: MomentModel, params: Params, n: int,
                       N: int) -> IdentityReport:
    """Partial sums of E[(m S_k + 1)_{n,lam}] against weighted Whitney numbers.

    sum_{k<=N} E[(m S_k + 1)_{n,lam}]
        = sum_{l<=N} l! m^l C(N+1, l+1) W(n, l),

    whose terms with l > n vanish (W(n, l) = 0), so the right side sums
    l <= min(n, N) only.
    """
    _require_indices(n=n, N=N)
    m, lam = params.m, params.lam
    lhs = sum((sum_degen_moment(model, k, m, 1, n, lam) for k in range(N + 1)),
              Fraction(0))
    rhs = sum((factorial(l) * Fraction(m)**l * binom(N + 1, l + 1)
               * whitney_prob(model, params, n, l)
               for l in range(min(n, N) + 1)),
              Fraction(0))
    return _report("sum_moment_identity", model, params, {"n": n, "N": N},
                   lhs, rhs)


def check_bell_expansion(model: MomentModel, params: Params,
                         n: int) -> IdentityReport:
    """Dowling polynomial as a double sum of partial Bell polynomials.

    The Bell arguments (x/m) E[(mY)_{i,lam}] carry the x dependence only
    through degree-k homogeneity, so each (l, k) term contributes
    C(n,l) (1)_{n-l,lam} B_{l,k}(E[(mY)_{1,lam}]/m, ...) x^k.
    """
    _require_indices(n=n)
    m, lam = params.m, params.lam
    args = [c / m for c in egf_mgf_degen(model, m, lam, n).coeffs[1:]]
    rows = bell_partial_rows(n, args, Fraction(1))
    # (1)_{j,lam} is 0 for every j > 1/lam at lam = 1/2, 1/3, ...: those
    # rows are skipped, not converted.
    rhs = sum((w * PolyX(row) for l, row in enumerate(rows)
               if (w := binom(n, l) * degen_falling(1, n - l, lam))),
              POLY_ZERO)
    return _report("bell_expansion", model, params, {"n": n},
                   dowling_poly(model, params, n), rhs)


def check_recurrence(model: MomentModel, params: Params,
                     n: int) -> IdentityReport:
    """Degree-raising recurrence for Dowling polynomials.

    D(n+1, x) = sum_k (-lam)^(n-k) n!/k! D(k, x)
              + (x/m) sum_k C(n,k) D(k, x) E[(mY)_{n-k+1,lam}].
    """
    _require_indices(n=n)
    m, lam = params.m, params.lam
    c = egf_mgf_degen(model, m, lam, n + 1).coeffs
    rows = [dowling_poly(model, params, k) for k in range(n + 1)]
    plain = sum(((-lam) ** (n - k) * Fraction(factorial(n), factorial(k)) * dk
                 for k, dk in enumerate(rows)), POLY_ZERO)
    weighted = sum((binom(n, k) * c[n - k + 1] * dk
                    for k, dk in enumerate(rows)), POLY_ZERO)
    rhs = plain + Fraction(1, m) * weighted.shift_up()
    return _report("recurrence", model, params, {"n": n},
                   dowling_poly(model, params, n + 1), rhs)


def check_convolution(model: MomentModel, params: Params,
                      n: int) -> IdentityReport:
    """The twisted convolution law that replaces the binomial identity.

    sum_k C(n,k) (1)_{n-k,lam} D(k, x+y)
        = sum_k C(n,k) D(n-k, x) D(k, y),
    as an exact bivariate polynomial identity.  Each side is built as its
    rows, row j its coefficient of y^j as a PolyX in x: the left side is
    E(x+y) with E = sum_k C(n,k) (1)_{n-k,lam} D(k, x), so its row j is
    the Taylor coefficient E^(j)(x) / j!, and row j of the right side is
    sum_k C(n,k) [y^j]D(k, y) D(n-k, x).  Each side is reported as a dict
    {(i, j): coefficient of x^i y^j} with zero entries dropped.
    """
    _require_indices(n=n)
    rows = [dowling_poly(model, params, k) for k in range(n + 1)]
    whole = sum((binom(n, k) * degen_falling(1, n - k, params.lam) * dk
                 for k, dk in enumerate(rows)), POLY_ZERO)
    lhs = [Fraction(1, factorial(j)) * whole.derivative(j)
           for j in range(n + 1)]
    rhs = [sum((binom(n, k) * dk.coeff(j) * rows[n - k]
                for k, dk in enumerate(rows)), POLY_ZERO)
           for j in range(n + 1)]
    return _report("convolution", model, params, {"n": n},
                   _by_monomial(lhs), _by_monomial(rhs))


def _by_monomial(rows: Sequence[PolyX]) -> dict:
    """{(i, j): coefficient of x^i y^j}, zeros dropped, from rows[j], the
    coefficient of y^j as a polynomial in x."""
    return {(i, j): c for j, row in enumerate(rows)
            for i, c in enumerate(row.coeffs) if c}


def check_binom_bell(model: MomentModel, params: Params, n: int,
                     x: RationalLike) -> IdentityReport:
    """Dowling numbers inside partial Bell polynomials, at a scalar x.

    sum_k C(n,k) (x-1)_{n-k,lam} D(k, x)
        = sum_k C(x,k) k! B_{n,k}(D(1), ..., D(n-k+1)),
    where D(j) are Dowling numbers (the polynomials at 1).
    """
    return _x_report("binomial_bell", _binom_bell_sides, model, params, x,
                     n=n)


def _binom_bell_sides(model: MomentModel, params: Params,
                      n: int) -> tuple[tuple[PolyX, PolyX]]:
    # (x-1)_{j,lam}, and (x)_j = C(x,j) j!, as polynomials in x
    shifted = [PolyX(falling_row(-1, j, params.lam)) for j in range(n + 1)]
    plain = [PolyX(falling_row(0, j, Fraction(1))) for j in range(n + 1)]
    lhs = sum((binom(n, k) * shifted[n - k] * dowling_poly(model, params, k)
               for k in range(n + 1)), POLY_ZERO)
    numbers = [dowling_poly(model, params, j).evaluate(1)
               for j in range(1, n + 1)]
    bell = bell_partial_rows(n, numbers, Fraction(1))[n]
    rhs = sum((bell[k] * plain[k] for k in range(n + 1)), POLY_ZERO)
    return ((lhs, rhs),)


def check_bell_rwhitney(model: MomentModel, params: Params, n: int, k: int,
                        x: RationalLike) -> IdentityReport:
    """r-Whitney numbers with shift r = k against Bell polynomials of
    staircase-weighted Dowling polynomial values.

    sum_{j<=n-k} C(n,k) k^j x^j W_(r=k)(n-k, j)
        = B_{n,k}(1*D(0,x), 2*D(1,x), ..., (n-k+1)*D(n-k,x)).
    """
    return _x_report("bell_r_whitney", _bell_rwhitney_sides, model, params,
                     x, n=n, k=k)


def _bell_rwhitney_sides(model: MomentModel, params: Params,
                         n: int) -> tuple[tuple[PolyX, PolyX], ...]:
    args = [i * dowling_poly(model, params, i - 1) for i in range(1, n + 1)]
    bell = bell_partial_rows(n, args, POLY_ONE)[n]
    sides = []
    for k in range(n + 1):
        row = dowling_poly_r(model, Params(params.m, params.lam, k), n - k)
        lhs = PolyX(tuple(binom(n, k) * Fraction(k)**j * w
                          for j, w in enumerate(row.coeffs)))
        sides.append((lhs, bell[k]))
    return tuple(sides)


def check_stirling_bell(model: MomentModel, params: Params, n: int, k: int,
                        x: RationalLike) -> IdentityReport:
    """Bell polynomial of centered Dowling values against a Stirling-weighted
    r-Whitney sum (shift r = k).

    B_{n,k}(D(1,x) - (1)_{1,lam}, ..., D(n-k+1,x) - (1)_{n-k+1,lam})
        = sum_{j=k}^n S2(j,k) W_(r=k)(n, j) x^j.
    """
    return _x_report("stirling_bell", _stirling_bell_sides, model, params,
                     x, n=n, k=k)


def _stirling_bell_sides(model: MomentModel, params: Params,
                         n: int) -> tuple[tuple[PolyX, PolyX], ...]:
    args = [dowling_poly(model, params, i)
            + PolyX((-degen_falling(1, i, params.lam),))
            for i in range(1, n + 1)]
    bell = bell_partial_rows(n, args, POLY_ONE)[n]
    sides = []
    for k in range(n + 1):
        row = dowling_poly_r(model, Params(params.m, params.lam, k), n)
        rhs = PolyX(tuple(stirling2(j, k) * w
                          for j, w in enumerate(row.coeffs)))
        sides.append((bell[k], rhs))
    return tuple(sides)


def _x_report(theorem_id: str, sides: Callable, model: MomentModel,
              params: Params, x: RationalLike,
              **indices: int) -> IdentityReport:
    """Check the indices (n, and k if given), then report the two sides of
    column k (0 without k) of ``sides`` at degree n, valued at x.
    ``passed`` is the stored equality of the polynomials, so it holds for
    every x or for none, and equal polynomials are evaluated once."""
    _require_indices(**indices)
    x = rat(x)
    lhs, rhs, equal = polynomial_sides(sides, model, params,
                                       indices["n"])[indices.get("k", 0)]
    value = lhs.evaluate(x)
    return IdentityReport(theorem_id, model, params, {**indices, "x": x},
                          value, value if equal else rhs.evaluate(x), equal)


def _require_indices(**indices: int) -> None:
    """ValueError naming the first negative index, or for k > n."""
    for name, value in indices.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if indices.get("k", 0) > indices["n"]:
        raise ValueError("need k <= n, got k={k}, n={n}".format(**indices))


def check_derivative(model: MomentModel, params: Params, n: int,
                     k: int) -> IdentityReport:
    """Higher x-derivatives of Dowling polynomials.

    (d/dx)^k D(n, x) = k! sum_j C(n,j) D(j, x) S_{Y,lam/m}(n-j, k) m^(n-k-j);
    for k = 1 the factor collapses to E[(mY)_{n-j,lam}]/m, read off
    ``egf_mgf_degen``, and that first derivative is checked on every call.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    m, lam = params.m, params.lam
    rows = [dowling_poly(model, params, j) for j in range(n + 1)]
    rhs = factorial(k) * sum((
        binom(n, j) * stirling2_prob(model, n - j, k, lam / m)
        * Fraction(m)**(n - k - j) * rows[j]
        for j in range(n - k + 1)), POLY_ZERO)
    c = egf_mgf_degen(model, m, lam, n).coeffs
    first = sum((binom(n, j) * c[n - j] / m * rows[j] for j in range(n)),
                POLY_ZERO)
    lhs = rows[n].derivative(k)
    ok = lhs == rhs and rows[n].derivative(1) == first
    return IdentityReport("derivative", model, params, {"n": n, "k": k},
                          lhs, rhs, ok)


def check_binomial_inversion(seq: Sequence[RationalLike]) -> IdentityReport:
    """Round trip of the binomial transform and its alternating inverse."""
    a = tuple(rat(v) for v in seq)
    b = [sum(((-1) ** (k - l) * binom(k, l) * a[l] for l in range(k + 1)),
             Fraction(0)) for k in range(len(a))]
    back = tuple(sum((binom(k, l) * b[l] for l in range(k + 1)), Fraction(0))
                 for k in range(len(a)))
    return _report("binomial_inversion", None, None, {"length": len(a)},
                   a, back)
