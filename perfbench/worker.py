"""Query process for the library workloads: the one process whose time and
peak RSS the benchmark reports.

Run by ``run.py`` (and ``sweep.py``) as

    python3 perfbench/worker.py --workload series|exact [--trace]

It imports ``partitions`` from the checkout's ``src/``, prints a ready
line, then answers one JSON request per stdin line, closed loop:

    {"i": 3, "n": 1234}  ->  {"i": 3, "n": 1234, "s": 0.21, "probe_s": [...], "value": "...", "error": null}
    {"end": true}        ->  {"maxrss_kb": ..., "trace": {...} or null}

``s`` is the wall time of the library call alone; ``probe_s`` are the
times of the speed probe (``speed.py``) just before and just after it.  With ``--trace`` the
calls are traced (see ``tracing.py``) and the end reply carries the summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import partitions.exact as exact  # noqa: E402
import partitions.rademacher as rademacher  # noqa: E402
import speed  # noqa: E402


def query(workload: str, n: int) -> int:
    # attribute lookups at call time, so traced wrappers are the ones called
    if workload == "series":
        return rademacher.p_series(n).rounded
    return exact.p_exact(n, exact.PartitionCache())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("series", "exact"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("end"):
            break
        error = value = None
        before = speed.probe()
        t0 = time.perf_counter()
        try:
            result = query(args.workload, request["n"])
        except Exception as exc:  # a failed query is reported, not fatal
            t1 = time.perf_counter()
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}"
        else:
            t1 = time.perf_counter()
            value = str(result)
        after = speed.probe()
        reply = {
            "i": request["i"], "n": request["n"], "s": t1 - t0,
            "probe_s": [before, after], "value": value, "error": error,
        }
        print(json.dumps(reply), flush=True)
    summary = None
    if tracer:
        summary = tracer.summary()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss, "trace": summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
