"""One probdowling CLI request with the layer tracer installed.

    python cli_child.py TRACE_OUT CLI_ARG...

Runs ``probdowling.cli.main`` on the given arguments exactly as
``python -m probdowling`` would, then writes the tracer's counters as
JSON to TRACE_OUT and exits with the CLI's exit code.
"""

import json
import sys

from layertrace import LayerTrace


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import probdowling.cli
    tracer = LayerTrace().install()
    try:
        return probdowling.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
