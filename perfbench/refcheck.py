"""Response checks, run after the timed region.

Each check returns (error, items): error is None for a correct response,
else a one-line reason; items counts the work the response delivered.

Table and eval rows are checked against closed forms that share no code
with the library: column 0 of the r-Whitney triangle is the generalized
falling factorial (r)_{n,lam}, the diagonal is E[Y]^n, and the r-Dowling
polynomial of degree 1 is r + E[Y] x.  A seeded sample of further
entries is compared with the library's "alt_sum" route, which the CLI
does not use.  The verification commands are judged by their own exit
code and JSON verdicts; any traceback on stderr is a failure.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

from workloads import fr, mean_of

TRACEBACK = b"Traceback (most recent call last)"
_RATIONAL = re.compile(r'(?:^|[",\s\[])(-?\d+)(?:/(\d+))?(?=[",\s\]]|$)', re.M)


def degen_falling(x: Fraction, n: int, lam: Fraction) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x - i * lam
    return out


def max_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the integers and
    num/den rationals of a response."""
    return max((abs(int(g)).bit_length() for pair in _RATIONAL.findall(text)
                for g in pair if g), default=0)


def check_cli(req: dict, code: int, out: bytes, err: bytes,
              sample_seed: int):
    if TRACEBACK in err:
        return "traceback on stderr", 0
    if code != 0:
        return f"exit code {code}", 0
    text = out.decode()
    command = req["command"]
    try:
        if command == "table":
            return _check_table(req, text, sample_seed)
        if command == "eval":
            return _check_eval(req, text, sample_seed)
        payload = json.loads(text)
        error = _check_header(req, payload)
        if error:
            return error, 0
        if command == "check":
            reports = payload["reports"]
            if not reports or not payload["all_pass"] \
                    or not all(r["pass"] for r in reports):
                return "identity report failed", 0
            return None, len(reports)
        if command == "dobinski":
            return _check_dobinski(req, payload)
        return _check_mc(req, payload)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}", 0


def check_row(req: dict, agree: bool, row: list[str]):
    """A row of the oracle-warm session: all four routes must agree, and
    the ends of the row must match their closed forms."""
    n = req["n"]
    if not agree:
        return "routes disagree", 0
    if len(row) != n + 1:
        return f"row {n} has {len(row)} entries", 0
    values = [Fraction(v) for v in row]
    if values[0] != degen_falling(Fraction(1), n, req["lam"]):
        return f"W({n},0) != (1)_(n,lam)", 0
    if values[n] != mean_of(req["model"]) ** n:
        return f"W({n},{n}) != E[Y]^n", 0
    return None, n + 1


def _check_header(req: dict, payload: dict):
    expect = {"command": req["command"], "model": req["model"], "m": req["m"],
              "lambda": fr(req["lam"]), "r": req["r"]}
    for key, value in expect.items():
        if payload.get(key) != value:
            return f"header {key}={payload.get(key)!r}, expected {value!r}"
    return None


def _alt_sum(req: dict, n: int, k: int) -> Fraction:
    from probdowling import Params, model_from_config, whitney_prob_r
    params = Params(req["m"], req["lam"], req["r"])
    return whitney_prob_r(model_from_config(req["model"]), params, n, k,
                          "alt_sum")


def _check_table(req: dict, text: str, sample_seed: int):
    N = req["size"]
    if req["fmt"] == "csv":
        rows = [line.split(",") for line in text.splitlines()]
    else:
        payload = json.loads(text)
        error = _check_header(req, payload)
        if error:
            return error, 0
        rows = payload["rows"]
    if [len(row) for row in rows] != list(range(1, N + 2)):
        return "triangle has the wrong shape", 0
    W = [[Fraction(v) for v in row] for row in rows]
    mean, r, lam = mean_of(req["model"]), Fraction(req["r"]), req["lam"]
    for n in range(N + 1):
        if W[n][0] != degen_falling(r, n, lam):
            return f"W({n},0) != (r)_(n,lam)", 0
        if W[n][n] != mean ** n:
            return f"W({n},{n}) != E[Y]^n", 0
    rng = random.Random(sample_seed)
    for _ in range(2):
        n = rng.randint(2, N)
        k = rng.randint(1, n - 1)
        if W[n][k] != _alt_sum(req, n, k):
            return f"W({n},{k}) differs from the alt_sum route", 0
    return None, (N + 1) * (N + 2) // 2


def _check_eval(req: dict, text: str, sample_seed: int):
    N, x = req["size"], req["x"]
    if req["fmt"] == "csv":
        pairs = [line.split(",") for line in text.splitlines()]
        if [int(n) for n, _ in pairs] != list(range(N + 1)):
            return "eval rows are not n = 0..N", 0
        values = [Fraction(v) for _, v in pairs]
    else:
        payload = json.loads(text)
        error = _check_header(req, payload) or (
            None if payload["x"] == fr(x) else "header x differs")
        if error:
            return error, 0
        values = [Fraction(v) for v in payload["values"]]
    if len(values) != N + 1:
        return f"{len(values)} values for max-n {N}", 0
    if values[0] != 1 or values[1] != req["r"] + mean_of(req["model"]) * x:
        return "D_0 or D_1 differs from its closed form", 0
    n = random.Random(sample_seed).randint(2, min(N, 10))
    expect = sum((_alt_sum(req, n, k) * x ** k for k in range(n + 1)),
                 Fraction(0))
    if values[n] != expect:
        return f"D_{n}(x) differs from the alt_sum route", 0
    return None, N + 1


def _check_dobinski(req: dict, payload: dict):
    rows = payload["rows"]
    if not payload["all_pass"] or not all(row["pass"] for row in rows):
        return "series evaluation outside tolerance", 0
    if [row["n"] for row in rows] != list(range(req["size"] + 1)):
        return "dobinski rows are not n = 0..max-n", 0
    exact1 = req["r"] + mean_of(req["model"]) * req["x"]
    if Fraction(rows[0]["exact"]) != 1 or Fraction(rows[1]["exact"]) != exact1:
        return "exact D_0 or D_1 differs from its closed form", 0
    return None, len(rows)


def _check_mc(req: dict, payload: dict):
    if not payload["pass"]:
        return "Monte Carlo estimate outside 5 sigma", 0
    argv = req["argv"]
    n = int(argv[argv.index("--max-n") + 1])
    k = payload["k"]
    if k != req["size"] or payload["n"] != n:
        return "mc answered a different (k, n)", 0
    if n == 1:
        expect = req["m"] * k * mean_of(req["model"]) + req["r"]
        if Fraction(payload["target"]) != expect:
            return "exact target differs from m k E[Y] + r", 0
    return None, 1
