"""Command-line surface: tables, polynomial evaluation, the identity
battery, and the numeric validations, with machine-readable output.

Exit codes form a contract for scripted use: 0 success, 1 an identity or
tolerance failure, 2 a configuration error, 3 a moment-order shortfall.
Rationals serialize as "num/den" strings in both CSV and JSON; output is
deterministic given the configuration (plus seed for sampling), byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .dowling import PolyX, WhitneyTriangle, dobinski_eval, dowling_poly_r
from .identities import (IdentityReport, check_bell_expansion,
                         check_bell_rwhitney, check_binom_bell,
                         check_binomial_inversion, check_convolution,
                         check_derivative, check_recurrence,
                         check_stirling_bell, check_sum_identity)
from .moments import (MomentModel, MomentOrderError, model_from_config,
                      model_to_config)
from .montecarlo import estimate_sum_degen_moment
from .ratcore import Params, format_rational, rat

COMMANDS = ("table", "eval", "check", "dobinski", "mc")

# x values at which `check` prints the sides of the identities in x.  Each
# verdict is polynomial equality, so the points choose only what is printed.
CHECK_X_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
                  Fraction(-1, 2))


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: MomentModel
    params: Params
    max_n: int
    max_k: Optional[int]
    N: Optional[int]
    x: Fraction
    fmt: str
    seed: int
    tol: float
    samples: int
    out: str
    corrupt: bool = False


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="probdowling",
        description="Exact probabilistic degenerate Whitney/Dowling "
                    "computations and identity checks.")
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--model", default='{"kind": "pointmass", "c": "1"}',
                   help="moment model as inline JSON or a path to a JSON file")
    p.add_argument("--m", type=int, default=1, help="group-order parameter m >= 1")
    p.add_argument("--lambda", dest="lam", default="0",
                   help='degeneracy parameter as "num/den" (use --lambda=-1/3 '
                        "for negative values)")
    p.add_argument("--r", type=int, default=1, help="shift parameter r >= 0")
    p.add_argument("--max-n", type=int, default=6, help="largest row/degree n")
    p.add_argument("--max-k", type=int, default=None,
                   help="column cap for tables; copy count for mc")
    p.add_argument("--N", type=int, default=None,
                   help="summation bound for the partial-sum identity")
    p.add_argument("--x", default="1", help='polynomial argument as "num/den"')
    p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                   default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.add_argument("--corrupt", action="store_true",
                   help="fault-injection hook: perturb the first identity "
                        "report to exercise the failure exit path")
    return p


def parse_config(argv: Optional[Sequence[str]]) -> RunConfig:
    args = build_parser().parse_args(argv)
    model_text = args.model
    if not model_text.lstrip().startswith("{"):
        try:
            model_text = Path(model_text).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read model file: {exc}") from exc
    try:
        model_obj = json.loads(model_text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model is not valid JSON: {exc}") from exc
    model = model_from_config(model_obj)
    params = Params(args.m, rat(args.lam), args.r)
    if args.max_n < 0:
        raise ValueError(f"--max-n must be nonnegative, got {args.max_n}")
    if args.max_k is not None and args.max_k < 0:
        raise ValueError(f"--max-k must be nonnegative, got {args.max_k}")
    if args.N is not None and args.N < 0:
        raise ValueError(f"--N must be nonnegative, got {args.N}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    return RunConfig(command=args.command, model=model, params=params,
                     max_n=args.max_n, max_k=args.max_k, N=args.N,
                     x=rat(args.x), fmt=args.fmt, seed=args.seed,
                     tol=args.tol, samples=args.samples, out=args.out,
                     corrupt=args.corrupt)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(cfg.out).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


def _encode(value: object) -> object:
    """JSON-encode exact values: rationals as strings, polys as lists."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, PolyX):
        return [format_rational(c) for c in value.coeffs]
    if isinstance(value, dict):
        return {f"{i},{j}": format_rational(c)
                for (i, j), c in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _json_dump(cfg: RunConfig, body: dict) -> str:
    """One JSON document: the command/model/m/lambda/r header plus body."""
    header = {"command": cfg.command, "model": model_to_config(cfg.model),
              "m": cfg.params.m, "lambda": format_rational(cfg.params.lam),
              "r": cfg.params.r}
    return json.dumps({**header, **body}, sort_keys=True, indent=2) + "\n"


def cmd_table(cfg: RunConfig) -> int:
    """Emit the r-Whitney triangle (equivalently the Dowling coefficient
    rows) for n <= max_n."""
    cap = None if cfg.max_k is None else cfg.max_k + 1
    triangle = WhitneyTriangle.build(cfg.model, cfg.params, cfg.max_n)
    rows = [[format_rational(c) for c in row[:cap]]
            for row in triangle.entries]
    if cfg.fmt == "csv":
        _emit(cfg, "".join(",".join(r) + "\n" for r in rows))
    else:
        _emit(cfg, _json_dump(cfg, {"rows": rows}))
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    """Evaluate the r-Dowling polynomials at the configured x, n <= max_n."""
    values = [format_rational(
                  dowling_poly_r(cfg.model, cfg.params, n).evaluate(cfg.x))
              for n in range(cfg.max_n + 1)]
    if cfg.fmt == "csv":
        _emit(cfg, "".join(f"{n},{v}\n" for n, v in enumerate(values)))
    else:
        _emit(cfg, _json_dump(cfg, {"x": format_rational(cfg.x),
                                    "values": values}))
    return 0


def _check_reports(cfg: RunConfig) -> list[IdentityReport]:
    Y, params, max_n = cfg.model, cfg.params, cfg.max_n
    N = cfg.N if cfg.N is not None else max_n
    reports: list[IdentityReport] = []
    for n in range(max_n + 1):
        reports += [check_sum_identity(Y, params, n, N),
                    check_bell_expansion(Y, params, n),
                    check_recurrence(Y, params, n)]
    reports += [check_convolution(Y, params, n)
                for n in range(min(max_n, 6) + 1)]
    for n in range(max_n + 1):
        for x in CHECK_X_POINTS:
            reports.append(check_binom_bell(Y, params, n, x))
            for k in range(n + 1):
                reports += [check_bell_rwhitney(Y, params, n, k, x),
                            check_stirling_bell(Y, params, n, k, x)]
    reports += [check_derivative(Y, params, n, k)
                for n in range(1, max_n + 1) for k in range(1, n + 1)]
    rng = random.Random(cfg.seed)
    for _ in range(5):
        reports.append(check_binomial_inversion(
            [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
             for _ in range(8)]))
    return reports


def cmd_check(cfg: RunConfig) -> int:
    """Run the identity battery; exit 0 only if every report passes."""
    reports = _check_reports(cfg)
    if cfg.corrupt and reports:
        first = reports[0]
        bad_lhs = first.lhs + 1
        reports[0] = replace(first, lhs=bad_lhs, passed=(bad_lhs == first.rhs))
    ok = all(r.passed for r in reports)
    _emit(cfg, _json_dump(cfg, {
        "all_pass": ok,
        "reports": [{
            "theorem": r.theorem_id,
            "bounds": {key: _encode(v) for key, v in r.bounds.items()},
            "lhs": _encode(r.lhs),
            "rhs": _encode(r.rhs),
            "pass": r.passed,
        } for r in reports],
    }))
    return 0 if ok else 1


def cmd_dobinski(cfg: RunConfig) -> int:
    """Compare the truncated moment series against exact evaluation."""
    rows = []
    ok = True
    for n in range(cfg.max_n + 1):
        approx = dobinski_eval(cfg.model, cfg.params, n, cfg.x, cfg.tol)
        exact = dowling_poly_r(cfg.model, cfg.params, n).evaluate(cfg.x)
        exact_f = float(exact)
        abs_gap = abs(approx - exact_f)
        rel_gap = abs_gap / abs(exact_f) if exact_f else abs_gap
        passed = rel_gap <= cfg.tol
        ok = ok and passed
        rows.append({"n": n, "series": approx, "exact": format_rational(exact),
                     "exact_float": exact_f, "abs_gap": abs_gap,
                     "rel_gap": rel_gap, "pass": passed})
    _emit(cfg, _json_dump(cfg, {
        "x": format_rational(cfg.x),
        "tol": cfg.tol,
        "all_pass": ok,
        "rows": rows,
    }))
    return 0 if ok else 1


def cmd_mc(cfg: RunConfig) -> int:
    """Monte Carlo estimate vs the exact sum-moment, judged by the one
    acceptance rule, ``McEstimate.passes``."""
    k = cfg.max_k if cfg.max_k is not None else 2
    est = estimate_sum_degen_moment(
        cfg.model, k, cfg.params.m, cfg.params.r, cfg.max_n, cfg.params.lam,
        cfg.samples, cfg.seed)
    passed = est.passes()
    _emit(cfg, _json_dump(cfg, {
        "k": k,
        "n": cfg.max_n,
        "samples": est.samples,
        "seed": cfg.seed,
        "mean": est.mean,
        "std_error": est.std_error,
        "target": format_rational(est.target),
        "target_float": float(est.target),
        "abs_gap": est.gap,
        "pass": passed,
    }))
    return 0 if passed else 1


_DISPATCH = {
    "table": cmd_table,
    "eval": cmd_eval,
    "check": cmd_check,
    "dobinski": cmd_dobinski,
    "mc": cmd_mc,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_config(argv)
        return _DISPATCH[cfg.command](cfg)
    except MomentOrderError as exc:
        print(f"moment shortfall: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
