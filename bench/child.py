"""One workload round in a fresh interpreter: ``phasecode.cli.main`` on the given arguments.

Usage: python3 child.py RECORD_JSON TRACE(0|1) CLI_ARG...

Writes RECORD_JSON with the exit code of ``main``, its wall time, the
process's peak resident memory and, with TRACE=1, the per-layer self times
of ``tracer.Tracer``. The package is found through PYTHONPATH.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import phasecode.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - t0
    record = {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = tracer.layers()
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
