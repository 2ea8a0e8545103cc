"""Repo benchmark for probdowling: one seeded, closed-loop, single-client
run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Requests run one at a time from one process.  A run serves whole cycles
of its workload (a pass over the size ladder, or one grid) and stops at
the cycle boundary nearest to S seconds, so every run measures the same
mix of request sizes.  Every response is checked after the timed region (see
``refcheck``), and the sha256 of every response is written to
``.perfbench/<workload>-seed<N>-trace<T>.json`` so two commits' outputs
can be compared byte for byte.

With --trace 0 the last stdout line reports the end-to-end metrics.
With --trace 1 the run serves the first cycle twice, untraced and then
under the outside layer tracer (``layertrace``), checks that both passes
produced the same bytes, and reports the per-layer metrics.

Workloads:
  table-cold   CLI table/eval, one fresh interpreter per request.
  verify-cold  CLI check/dobinski/mc, one fresh interpreter per request.
  oracle-warm  one library session per grid, imported once, computing
               every W(n, k) of the grid by all four routes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

import refcheck  # noqa: E402
import workloads  # noqa: E402
from layertrace import MODULES  # noqa: E402

WORKLOADS = ("table-cold", "verify-cold", "oracle-warm")
# Highest percentile with at least ten requests beyond it in a run of
# this commit at 30 seconds (32-48, 56-70 and 756-1008 requests).
TAIL_PERCENTILE = {"table-cold": 65, "verify-cold": 75, "oracle-warm": 98}
# Set-up is sampled before every cycle, so its median spans the run.
SETUP_PER_CYCLE = 3
SETUP_ARGV = ["--command", "table", "--max-n", "0"]
REQUEST_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# Functions reported with calls and self time; memoized functions also
# get hits, misses and hit_ratio from cache_info().
TIMED_FUNCS = (
    "series.egf_mul", "series.egf_degen_exp",
    "moments.raw_moment", "moments.degen_moment", "moments.egf_mgf_degen",
    "moments.sum_degen_moment",
    "bell.bell_partial", "bell.bell_partial_series",
    "dowling.whitney_prob", "dowling.whitney_prob_r",
    "dowling.stirling2_degen",
    "identities.check_sum_identity", "identities.check_bell_expansion",
    "identities.check_recurrence", "identities.check_convolution",
    "identities.check_binom_bell", "identities.check_bell_rwhitney",
    "identities.check_stirling_bell", "identities.check_derivative",
    "identities.check_binomial_inversion",
    "montecarlo.estimate_sum_degen_moment",
)
COUNTED_FUNCS = ("ratcore.binom", "dowling.dowling_poly_r")
MEMO_FUNCS = (
    "moments.raw_moment", "moments._monomial_expansion",
    "moments.degen_moment", "moments.egf_mgf_degen", "moments._mgf_power",
    "moments._sum_degen_moment_cached",
    "bell._bell_partial_cached", "bell.bell_partial_series",
    "dowling.stirling2", "dowling._centered_kernel", "dowling._whitney_series",
)
MEMO_MODULES = ("moments", "bell", "dowling")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for key in TIMED_FUNCS:
        spec += [(f"{key}.calls", "count", "lower"),
                 (f"{key}.self_s", "s", "lower")]
    spec += [(f"{key}.calls", "count", "lower") for key in COUNTED_FUNCS]
    for key in MEMO_FUNCS:
        spec += [(f"{key}.hits", "count", "higher"),
                 (f"{key}.misses", "count", "lower"),
                 (f"{key}.hit_ratio", "ratio", "higher")]
    spec += [(f"{mod}.self_s", "s", "lower") for mod in MODULES]
    spec += [(f"{mod}.memo_currsize", "count", "lower") for mod in MEMO_MODULES]
    spec += [("cli.main.total_s", "s", "lower"),
             ("cli.output_bytes", "bytes", "lower"),
             ("cli.output_max_bits", "bits", "lower"),
             ("trace.overhead_frac", "ratio", "lower")]
    return spec


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DOWLING_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: list[str], tmp: Path, traced: bool) -> dict:
    """One CLI request in a fresh interpreter; wall time from spawn to exit."""
    trace_path = tmp / "trace.json"
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path),
               *argv]
        trace_path.unlink(missing_ok=True)
    else:
        cmd = [sys.executable, "-m", "probdowling", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += b"\nperfbench: request timed out"
    seconds = time.perf_counter() - start
    trace = json.loads(trace_path.read_text()) \
        if traced and trace_path.exists() else None
    return {"code": proc.returncode, "out": out, "err": err,
            "seconds": seconds, "trace": trace}


class Session:
    """A lib_session.py process; setup_s is spawn-to-ready time."""

    def __init__(self, tmp: Path, traced: bool) -> None:
        cmd = [sys.executable, str(HERE / "lib_session.py")]
        if traced:
            cmd.append("--trace")
        self.err_path = tmp / "session.err"
        start = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, env=child_env(), cwd=ROOT, text=True)
        try:
            ready = self.proc.stdout.readline()
            if not ready:
                raise RuntimeError("library session exited before ready: "
                                   + self.err_path.read_text()[-2000:])
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def call(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("library session died: "
                               + self.err_path.read_text()[-2000:])
        return json.loads(line)

    def close(self) -> dict:
        """Stop the session; returns its stats reply and stderr."""
        try:
            stats = self.call({"op": "stats"})
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        stats["err"] = self.err_path.read_bytes()
        return stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def serve_cycle(workload: str, cycle: list[dict], tmp: Path,
                traced: bool) -> tuple[list[dict], list[dict]]:
    """Serve one cycle; returns its records and the tracer snapshots."""
    if workload != "oracle-warm":
        records = [dict(run_cli(req["argv"], tmp, traced), req=req)
                   for req in cycle]
        return records, [r["trace"] for r in records if r["trace"]]
    session = Session(tmp, traced)
    records = []
    try:
        for req in cycle:
            reply = session.call({"model": req["model"], "m": req["m"],
                                  "lam": workloads.fr(req["lam"]),
                                  "n": req["n"]})
            out = json.dumps(reply["row"]).encode()
            records.append({"req": req, "code": 0, "out": out, "err": b"",
                            "agree": reply["agree"],
                            "seconds": reply["seconds"]})
    finally:
        stats = session.close()
    if refcheck.TRACEBACK in stats["err"] and records:
        records[-1]["err"] = stats["err"]
    return records, [stats["trace"]] if traced else []


def check_records(records: list[dict], seed: int) -> list[str]:
    """Check every record in place (sets "error" and "items"); returns the
    failure reasons."""
    failures = []
    for i, rec in enumerate(records):
        req = rec["req"]
        if "agree" in rec:
            error, items = refcheck.check_row(req, rec["agree"],
                                              json.loads(rec["out"]))
            if error is None and refcheck.TRACEBACK in rec["err"]:
                error, items = "traceback on stderr", 0
        else:
            error, items = refcheck.check_cli(req, rec["code"], rec["out"],
                                              rec["err"], seed * 100003 + i)
        rec["error"], rec["items"] = error, items
        if error:
            failures.append(f"request {i}: {error}")
    return failures


def setup_once(workload: str, tmp: Path) -> float:
    """Time until a fresh process can serve its first request."""
    if workload == "oracle-warm":
        session = Session(tmp, traced=False)
        session.close()
        return session.setup_s
    rec = run_cli(SETUP_ARGV, tmp, traced=False)
    if rec["code"] != 0:
        raise RuntimeError("set-up request failed: "
                           + rec["err"].decode()[-2000:])
    return rec["seconds"]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload: str, records: list[dict], wall: float,
               setup: list[float]) -> dict:
    latencies = [rec["seconds"] for rec in records]
    items = sum(rec["items"] for rec in records)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, TAIL_PERCENTILE[workload]),
        "items_per_s": items / wall,
        "peak_rss_mb": peak_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(records: list[dict], traces: list[dict],
              overhead_frac: float) -> dict:
    funcs: dict[str, dict] = {}
    memo: dict[str, dict] = {}
    currsize = {mod: 0 for mod in MEMO_MODULES}
    for snap in traces:
        for key, rec in snap["funcs"].items():
            acc = funcs.setdefault(key, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            for field in acc:
                acc[field] += rec[field]
        sizes = dict.fromkeys(MEMO_MODULES, 0)
        for key, info in snap["memo"].items():
            acc = memo.setdefault(key, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            sizes[key.split(".")[0]] += info["currsize"]
        for mod in MEMO_MODULES:
            currsize[mod] = max(currsize[mod], sizes[mod])

    values = {}
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for key in TIMED_FUNCS:
        values[f"{key}.calls"] = funcs.get(key, zero)["calls"]
        values[f"{key}.self_s"] = funcs.get(key, zero)["self_s"]
    for key in COUNTED_FUNCS:
        values[f"{key}.calls"] = funcs.get(key, zero)["calls"]
    for key in MEMO_FUNCS:
        info = memo.get(key, {"hits": 0, "misses": 0})
        lookups = info["hits"] + info["misses"]
        values[f"{key}.hits"] = info["hits"]
        values[f"{key}.misses"] = info["misses"]
        values[f"{key}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    for mod in MODULES:
        values[f"{mod}.self_s"] = sum(rec["self_s"] for key, rec in funcs.items()
                                      if key.split(".")[0] == mod)
    for mod in MEMO_MODULES:
        values[f"{mod}.memo_currsize"] = currsize[mod]
    cli_records = [rec for rec in records if "agree" not in rec]
    values["cli.main.total_s"] = funcs.get("cli.main", zero)["total_s"]
    values["cli.output_bytes"] = sum(len(rec["out"]) for rec in cli_records)
    values["cli.output_max_bits"] = max(
        (refcheck.max_bits(rec["out"].decode()) for rec in cli_records),
        default=0)
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


def digests(records: list[dict]) -> list[str]:
    return [hashlib.sha256(rec["out"]).hexdigest() for rec in records]


def run(workload: str, seed: int, seconds: float, trace: bool,
        **ladder) -> dict:
    """One benchmark run; returns the result object (the last stdout line).
    `ladder` passes smaller ladders to the generator for self-tests."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpname:
        tmp = Path(tmpname)
        stream = workloads.cycles(workload, seed, **ladder)
        setup_once(workload, tmp)  # leaves compiled bytecode behind
        if trace:
            cycle = next(stream)
            start = time.perf_counter()
            plain, _ = serve_cycle(workload, cycle, tmp, traced=False)
            plain_wall = time.perf_counter() - start
            start = time.perf_counter()
            traced, traces = serve_cycle(workload, cycle, tmp, traced=True)
            traced_wall = time.perf_counter() - start
            records = plain + traced
            failures = check_records(records, seed)
            mismatched = sum(a != b for a, b in zip(digests(plain),
                                                    digests(traced)))
            if mismatched:
                failures.append(f"{mismatched} traced responses differ "
                                "from untraced ones")
            failed = sum(1 for rec in records if rec["error"]) + mismatched
            metrics = per_layer(traced, traces, traced_wall / plain_wall - 1)
            recorded = plain
        else:
            setup, records, wall = [], [], 0.0
            for done, cycle in enumerate(stream, start=1):
                setup += [setup_once(workload, tmp)
                          for _ in range(SETUP_PER_CYCLE)]
                start = time.perf_counter()
                records += serve_cycle(workload, cycle, tmp, traced=False)[0]
                wall += time.perf_counter() - start
                # Stop at the cycle boundary nearest to `seconds`.
                if wall + wall / done / 2 >= seconds:
                    break
            failures = check_records(records, seed)
            failed = sum(1 for rec in records if rec["error"])
            metrics = end_to_end(workload, records, wall, setup)
            recorded = records
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "sha256": digests(recorded)}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics,
            "failures": failures,
            "combined_sha256": hashlib.sha256(
                "".join(record["sha256"]).encode()).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "probdowling" / "__init__.py").is_file():
        print(f"perfbench: no probdowling sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in result.pop("failures")[:20]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    fail_frac = result["failed"] / result["attempted"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} requests, fail_frac {fail_frac:.4g}, "
          f"responses sha256 {result.pop('combined_sha256')}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
