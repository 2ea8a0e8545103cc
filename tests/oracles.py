"""Independent oracles used to pin expected values.

The brute-force ones do not touch the library's series pipeline: set
partitions are enumerated directly, and expectations over finite-support
models are computed by walking the joint support with exact probabilities.

The series and Bell references at the end (``egf_add``, ``egf_sub``,
``egf_pow``, ``egf_exp``, ``bell_complete``, ``bell_args_series``) are
built on the library's series type and products; no production path
needs them, so they live here, next to the tests that compare against
them.
"""

from fractions import Fraction
from itertools import product
from math import comb

from probdowling import (Bernoulli, Binomial, DiscreteUniform, EgfSeries,
                         PointMass, bell_partial, degen_falling, egf_const,
                         egf_mul, rat)
from probdowling.bell import BellArgs
from probdowling.ratcore import binomial_row, dot
from probdowling.series import _require_same_order


def set_partitions(n):
    """All partitions of {0, ..., n-1} as tuples of blocks."""
    if n == 0:
        return [()]
    out = []
    for smaller in set_partitions(n - 1):
        elem = n - 1
        for i in range(len(smaller)):
            out.append(smaller[:i] + (smaller[i] + (elem,),) + smaller[i + 1:])
        out.append(smaller + ((elem,),))
    return out


def stirling2_brute(n, k):
    return sum(1 for p in set_partitions(n) if len(p) == k)


def bell_brute(n):
    return len(set_partitions(n))


def bell_partial_brute(n, k, args):
    """B_{n,k} as a sum over set partitions into k blocks of prod x_|B|."""
    total = Fraction(0)
    for p in set_partitions(n):
        if len(p) != k:
            continue
        term = Fraction(1)
        for block in p:
            term *= Fraction(args[len(block) - 1])
        total += term
    return total


def finite_support(model):
    """[(value, probability)] with exact rational probabilities."""
    if isinstance(model, PointMass):
        return [(model.c, Fraction(1))]
    if isinstance(model, Bernoulli):
        return [(Fraction(0), 1 - model.p), (Fraction(1), model.p)]
    if isinstance(model, Binomial):
        N, p = model.trials, model.p
        return [(Fraction(j), comb(N, j) * p**j * (1 - p)**(N - j))
                for j in range(N + 1)]
    if isinstance(model, DiscreteUniform):
        w = Fraction(1, model.max + 1)
        return [(Fraction(j), w) for j in range(model.max + 1)]
    raise ValueError(f"no finite support for {model!r}")


def raw_moment_brute(model, n):
    return sum(prob * value**n for value, prob in finite_support(model))


def sum_moment_brute(model, k, scale, shift, n, lam):
    """E[(scale*S_k + shift)_{n,lam}] by joint-support enumeration."""
    support = finite_support(model)
    total = Fraction(0)
    for combo in product(support, repeat=k):
        prob = Fraction(1)
        s = Fraction(0)
        for value, p in combo:
            prob *= p
            s += value
        total += prob * degen_falling(scale * s + shift, n, lam)
    return total


def index_vectors_unpruned(n, k, width):
    """(l_1..l_width) with sum l_i = k and sum i*l_i = n, by walking every
    position to the end and filtering only there."""
    def rec(pos, blocks, weight, acc):
        if pos > width:
            if blocks == 0 and weight == 0:
                yield tuple(acc)
            return
        for l in range(min(blocks, weight // pos) + 1):
            yield from rec(pos + 1, blocks - l, weight - pos * l, acc + [l])
    yield from rec(1, k, n, [])


def bell_numbers(n):
    """Bell numbers B_0..B_n by Aitken's array: additions only."""
    out, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        out.append(row[0])
    return out


def stirling2_degen_carlitz(n, lam):
    """Row n of the degenerate Stirling numbers of the second kind, in
    Fractions, by Carlitz's recurrence
    S(n, k) = S(n-1, k-1) + (k - (n-1) lam) S(n-1, k)."""
    lam = Fraction(lam)
    row = [Fraction(1)]
    for top in range(1, n + 1):
        prev = row + [Fraction(0)]
        row = [Fraction(0)] + [prev[k - 1] + (k - (top - 1) * lam) * prev[k]
                               for k in range(1, top + 1)]
    return row


def egf_add(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    _require_same_order(a, b, "egf_add")
    return EgfSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def egf_sub(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    _require_same_order(a, b, "egf_sub")
    return EgfSeries(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


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
        bs.append(dot(a.coeffs[1:n + 2], bs[::-1], binomial_row(n)))
    return EgfSeries(tuple(bs))


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
