"""Long-lived probdowling library session for the oracle-warm workload.

    python lib_session.py [--trace]

Imports the library once, prints one ready line, then answers one JSON
request per stdin line with one JSON reply line.  A request
{"model", "m", "lam", "n"} asks for row n of the Whitney triangle by all
four routes; the reply carries the row, whether the routes agreed, and
the in-process compute time.  {"op": "stats"} returns the tracer
counters (with --trace) and the session's peak RSS.  Memo tables stay
warm across requests, as in a notebook or a test run.
"""

import json
import resource
import sys
import time
from fractions import Fraction


def main() -> int:
    from probdowling import dowling, moments, ratcore
    tracer = None
    if "--trace" in sys.argv[1:]:
        from layertrace import LayerTrace
        tracer = LayerTrace().install()
    print(json.dumps({"ready": True}), flush=True)
    clock = time.perf_counter
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("op") == "stats":
            reply = {"maxrss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply["trace"] = tracer.snapshot()
            print(json.dumps(reply), flush=True)
            continue
        start = clock()
        model = moments.model_from_config(req["model"])
        params = ratcore.Params(req["m"], Fraction(req["lam"]), 1)
        n, row, agree = req["n"], [], True
        for k in range(n + 1):
            values = [dowling.whitney_prob(model, params, n, k, route)
                      for route in dowling.WHITNEY_ROUTES]
            agree = agree and all(v == values[0] for v in values)
            row.append(values[0])
        elapsed = clock() - start
        print(json.dumps({"agree": agree, "seconds": elapsed,
                          "row": [ratcore.format_rational(v) for v in row]}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
