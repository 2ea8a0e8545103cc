"""Command-line surface: tables, polynomial evaluation, the identity
battery, and the numeric validations, with machine-readable output.

Exit codes form a contract for scripted use: 0 success, 1 an identity or
tolerance failure, 2 a configuration error (a request that does not fit
in memory included), 3 a moment-order shortfall.
Rationals serialize as "num/den" strings in both CSV and JSON, whole at
any length: ``main`` lifts Python's limit on the digits of an int
written as text while a command runs, after the inputs are read under
it, and restores it after.  Output is deterministic given the
configuration (plus seed for sampling), byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .dowling import PolyX, dobinski_eval, dowling_poly_r
from .identities import (IdentityReport, check_bell_expansion,
                         check_bell_rwhitney, check_binom_bell,
                         check_binomial_inversion, check_convolution,
                         check_derivative, check_recurrence,
                         check_stirling_bell, check_sum_identity)
from .moments import MomentOrderError, model_from_config, model_to_config
from .montecarlo import estimate_sum_degen_moment
from .ratcore import Params, format_rational, rat

# x values at which `check` prints the sides of the identities in x.  Each
# verdict is polynomial equality, so the points choose only what is printed.
CHECK_X_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
                  Fraction(-1, 2))


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
    return p


def parse_config(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The parsed options, with ``model``, ``x`` and ``params`` (from
    --m, --lambda and --r, which leave the namespace) as exact values."""
    args = build_parser().parse_args(argv)
    model_text = args.model
    if not model_text.lstrip().startswith(("{", "[")):
        try:
            model_text = Path(model_text).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read model file: {exc}") from exc
    try:
        model_obj = json.loads(model_text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model is not valid JSON: {exc}") from exc
    except ValueError:
        # Its one other ValueError: an int past Python's digit limit.
        raise ValueError("model JSON holds an integer too long to read"
                         ) from None
    except RecursionError:
        # Raised while the decoder is deep in the nesting; here the stack
        # has unwound, so the report itself has room.
        raise ValueError("model JSON is nested too deeply to read") from None
    args.model = model_from_config(model_obj)
    args.params = Params(args.m, rat(args.lam), args.r)
    del args.m, args.lam, args.r
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
    args.x = rat(args.x)
    return args


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(cfg.out).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


def _encode(value: object) -> object:
    """JSON-encode exact values: rationals as strings, polys as lists
    of their canonical coefficients (``["0"]`` for zero)."""
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


def _json_dump(cfg: argparse.Namespace, body: dict) -> str:
    """One JSON document: the command/model/m/lambda/r header plus body.
    A non-finite float is a ValueError: JSON has no Infinity or NaN."""
    header = {"command": cfg.command, "model": model_to_config(cfg.model),
              "m": cfg.params.m, "lambda": format_rational(cfg.params.lam),
              "r": cfg.params.r}
    return json.dumps({**header, **body}, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def cmd_table(cfg: argparse.Namespace) -> int:
    """Emit the r-Whitney triangle (equivalently the Dowling coefficient
    rows) for n <= max_n."""
    cap = cfg.max_n if cfg.max_k is None else cfg.max_k
    # Every row is built before any is formatted, so a table too large
    # for memory fails while computing, with nothing written.  Row n has
    # the entries k <= min(n, max_k), trailing zeros included.
    polys = [dowling_poly_r(cfg.model, cfg.params, n)
             for n in range(cfg.max_n + 1)]
    rows = [[format_rational(poly.coeff(k)) for k in range(min(n, cap) + 1)]
            for n, poly in enumerate(polys)]
    if cfg.fmt == "csv":
        _emit(cfg, "".join(",".join(r) + "\n" for r in rows))
    else:
        _emit(cfg, _json_dump(cfg, {"rows": rows}))
    return 0


def cmd_eval(cfg: argparse.Namespace) -> int:
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


def _check_reports(cfg: argparse.Namespace) -> list[IdentityReport]:
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


def cmd_check(cfg: argparse.Namespace) -> int:
    """Run the identity battery; exit 0 only if every report passes."""
    reports = _check_reports(cfg)
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


def cmd_dobinski(cfg: argparse.Namespace) -> int:
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


def cmd_mc(cfg: argparse.Namespace) -> int:
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

COMMANDS = tuple(_DISPATCH)


# Python limits the digits of an int read from or written as a string
# (3.10.7 on; earlier releases have no limit and no setter).
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    request = "the request"
    limit = _get_digit_limit()
    try:
        cfg = parse_config(argv)
        request = f"--command {cfg.command} with --max-n {cfg.max_n}"
        _set_digit_limit(0)
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
    except MemoryError:
        pass
    finally:
        _set_digit_limit(limit)
    # Reported once the handler has let go of the failed frames and what
    # they held, so the message itself finds memory.
    print(f"configuration error: {request} does not fit in memory",
          file=sys.stderr)
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
