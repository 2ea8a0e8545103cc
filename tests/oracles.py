"""Independent brute-force oracles used to pin expected values.

Nothing here touches the library's series pipeline: set partitions are
enumerated directly, and expectations over finite-support models are
computed by walking the joint support with exact probabilities.
"""

from fractions import Fraction
from itertools import product
from math import comb

from probdowling import (Bernoulli, Binomial, DiscreteUniform, PointMass,
                         degen_falling)


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
