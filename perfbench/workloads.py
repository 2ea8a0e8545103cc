"""Seeded request generators for the three benchmark workloads.

A workload is an endless stream of requests made of fixed-length cycles.
The sizes and commands of a cycle come from a fixed ladder, so every seed
asks for the same amount of work; the seed only draws the parameter
points (model kind and parameters, m, lambda, r, x, format, sampler
seed).  Kinds and lambda signs are dealt out evenly within each cycle
(a shuffled deck, not independent draws), which keeps the cost of a cycle
nearly the same from seed to seed.

The program under test receives only what this module generates: an
argv list for the CLI workloads, a call description for the library
session.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import count, groupby, islice

KINDS = ("pointmass", "bernoulli", "binomial", "discreteuniform", "poisson",
         "geometric", "custom")
# mc draws no point mass: for a constant whose float value is inexact
# (c = 1/3), the sample standard error comes out as rounding noise instead
# of 0, and the CLI's 5-sigma rule then rejects a correct estimate.
MC_KINDS = KINDS[1:-1]
BUILTIN_KINDS = KINDS[:-1]

# table-cold: (command, max-n) per request; the Fraction work grows as
# about N^4 on top of roughly 0.3 s of interpreter start.
TABLE_LADDER = (("table", 12), ("eval", 12), ("table", 13), ("table", 14),
                ("eval", 14), ("table", 15), ("table", 16), ("eval", 16),
                ("table", 17), ("table", 18), ("eval", 19), ("table", 20),
                ("table", 22), ("eval", 24), ("table", 27), ("table", 30))

# verify-cold: (command, size); size is --max-n for check and dobinski and
# the copy count --max-k for mc.
VERIFY_LADDER = (("check", 4), ("dobinski", 6), ("mc", 1), ("check", 5),
                 ("dobinski", 8), ("mc", 2), ("check", 6), ("dobinski", 10),
                 ("mc", 3), ("check", 7), ("dobinski", 12), ("mc", 2),
                 ("check", 8), ("check", 9))

# oracle-warm: one cycle is a grid of seed-drawn models x m x lambda
# points (lambda: zero, one negative, one positive); each point is walked
# row by row up to the next N of the ladder.
ORACLE_N_LADDER = (12, 13, 14)
ORACLE_GRID = {"models": 3, "m": 2}
M_VALUES = (1, 2, 3)

LADDERS = {"table-cold": TABLE_LADDER, "verify-cold": VERIFY_LADDER}


def fr(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def _small(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational num/den with den <= 3 in [lo, hi]; small denominators
    keep the cost of a parameter point close to that of any other."""
    while True:
        q = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        if lo <= q <= hi:
            return q


def draw_model(rng: random.Random, kind: str, order: int) -> dict:
    """A model config of the given kind; custom models declare `order`
    moments beyond E[Y^0]."""
    if kind == "pointmass":
        return {"kind": kind, "c": fr(_small(rng, Fraction(1, 3), Fraction(3)))}
    if kind == "bernoulli":
        return {"kind": kind, "p": fr(_small(rng, Fraction(0), Fraction(2, 3)))}
    if kind == "binomial":
        return {"kind": kind, "trials": rng.randint(2, 4),
                "p": fr(_small(rng, Fraction(0), Fraction(2, 3)))}
    if kind == "discreteuniform":
        return {"kind": kind, "max": rng.randint(2, 4)}
    if kind == "poisson":
        return {"kind": kind, "rate": fr(_small(rng, Fraction(1, 3), Fraction(3)))}
    if kind == "geometric":
        return {"kind": kind, "p": fr(_small(rng, Fraction(1, 3), Fraction(2, 3)))}
    # Moments of a uniform pick from a small multiset of halves, so the
    # list is the moment sequence of a real distribution.
    atoms = [Fraction(rng.randint(0, 4), 2) for _ in range(3)]
    moments = [sum(a ** j for a in atoms) / len(atoms)
               for j in range(order + 1)]
    return {"kind": kind, "moments": [fr(v) for v in moments]}


def mean_of(config: dict) -> Fraction:
    """E[Y] in closed form, independent of the library."""
    kind = config["kind"]
    if kind == "pointmass":
        return Fraction(config["c"])
    if kind == "bernoulli":
        return Fraction(config["p"])
    if kind == "binomial":
        return config["trials"] * Fraction(config["p"])
    if kind == "discreteuniform":
        return Fraction(config["max"], 2)
    if kind == "poisson":
        return Fraction(config["rate"])
    if kind == "geometric":
        p = Fraction(config["p"])
        return (1 - p) / p
    return Fraction(config["moments"][1])


def _lambda(rng: random.Random, sign: int) -> Fraction:
    if sign == 0:
        return Fraction(0)
    return sign * _small(rng, Fraction(1, 3), Fraction(3, 2))


def _deck(rng: random.Random, items, length: int) -> list:
    """`length` items dealt round-robin from `items`, then shuffled."""
    out = [items[i % len(items)] for i in range(length)]
    rng.shuffle(out)
    return out


def _common_flags(config: dict, m: int, lam: Fraction, r: int) -> list[str]:
    return ["--model", json.dumps(config, sort_keys=True), "--m", str(m),
            f"--lambda={fr(lam)}", "--r", str(r)]


def cli_requests(workload: str, seed: int, ladder=None):
    """Endless stream of request dicts {"argv", "command", "size", "model",
    "m", "lam", "r", "x", "fmt"} for a CLI workload; "fmt" only matters to
    table and eval."""
    ladder = LADDERS[workload] if ladder is None else ladder
    rng = random.Random(f"{workload}:{seed}")
    while True:
        kinds = _deck(rng, KINDS, len(ladder))
        mc_kinds = _deck(rng, MC_KINDS, len(ladder))
        signs = _deck(rng, (0, -1, 1), len(ladder))
        formats = _deck(rng, ("csv", "json"), len(ladder))
        for i, (command, size) in enumerate(ladder):
            kind = mc_kinds[i] if command == "mc" else kinds[i]
            yield _cli_request(rng, command, size, kind, signs[i], formats[i])


def _cli_request(rng, command, size, kind, sign, fmt) -> dict:
    m, r = rng.randint(1, 3), rng.randint(0, 3)
    lam = _lambda(rng, sign)
    x = None
    if command in ("table", "eval"):
        config = draw_model(rng, kind, size)
        argv = ["--command", command, *_common_flags(config, m, lam, r),
                "--max-n", str(size), "--format", fmt]
        if command == "eval":
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            argv.append(f"--x={fr(x)}")
    elif command == "check":
        config = draw_model(rng, kind, 4 * size + 8)
        argv = ["--command", "check", *_common_flags(config, m, lam, r),
                "--max-n", str(size), "--seed", str(rng.randint(0, 2**31))]
    elif command == "dobinski":
        config = draw_model(rng, kind, size)
        x = Fraction(rng.randint(1, 20), 2)
        argv = ["--command", "dobinski", *_common_flags(config, m, lam, r),
                "--max-n", str(size), f"--x={fr(x)}", "--tol", "1e-10"]
    else:
        config = draw_model(rng, kind, 0)
        argv = ["--command", "mc", *_common_flags(config, m, lam, r),
                "--max-n", str(rng.randint(1, 3)), "--max-k", str(size),
                "--samples", "50000", "--seed", str(rng.randint(0, 2**31))]
    return {"argv": argv, "command": command, "size": size, "model": config,
            "m": m, "lam": lam, "r": r, "x": x, "fmt": fmt}


def oracle_requests(seed: int, n_ladder=ORACLE_N_LADDER, grid=ORACLE_GRID):
    """Endless stream of library calls {"model", "m", "lam", "n", "grid"}:
    each asks for row n of W(n, k), k <= n, by all four routes.  Rows of
    one grid point arrive in order n = 0..N; "grid" numbers the grid."""
    rng = random.Random(f"oracle-warm:{seed}")
    sizes = count()
    kinds: list[str] = []
    for index in count():
        if len(kinds) < grid["models"]:
            kinds += _deck(rng, BUILTIN_KINDS, len(BUILTIN_KINDS))
        models = [draw_model(rng, kinds.pop(), max(n_ladder))
                  for _ in range(grid["models"])]
        ms = rng.sample(M_VALUES, grid["m"])
        lambdas = [_lambda(rng, s) for s in (0, -1, 1)]
        points = [(model, m, lam) for model in models for m in ms
                  for lam in lambdas]
        rng.shuffle(points)
        for model, m, lam in points:
            top = n_ladder[next(sizes) % len(n_ladder)]
            for n in range(top + 1):
                yield {"model": model, "m": m, "lam": lam, "n": n,
                       "grid": index}


def cycles(workload: str, seed: int, **kw):
    """Endless stream of cycles, each a list of requests: one pass over the
    ladder for a CLI workload, one grid for oracle-warm."""
    if workload == "oracle-warm":
        for _, rows in groupby(oracle_requests(seed, **kw),
                               key=lambda req: req["grid"]):
            yield list(rows)
    else:
        stream = cli_requests(workload, seed, **kw)
        size = len(kw.get("ladder") or LADDERS[workload])
        while True:
            yield list(islice(stream, size))
