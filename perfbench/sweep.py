"""On-demand size sweep of the two exact routes (not a gated workload).

    python3 perfbench/sweep.py

Times cold ``p_exact(n)`` and ``p_series(n)`` for n = 1e2, 3e2, ..., 1e5,
each measurement in a fresh ``worker.py`` process, so no cache survives
from one measurement to the next.  Before each size it predicts the time
from the two sizes below it (a power law); a size predicted to take more
than BUDGET_S seconds is recorded as skipped, with the prediction, and
so are the larger sizes of that route.  A case still running after three
budgets is stopped and recorded as a timeout.  Cases under one second are
repeated REPEATS times (median, min, max).  Series answers are
checked against the recurrence.  The crossover is the n where the series becomes
faster than the recurrence, interpolated in log-log between grid sizes.

Writes ``.perfbench_out/sweep.json`` and prints it.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

from run import OUT, SRC, QueryTimeout, Worker, environment

GRID = (100, 300, 1000, 3000, 10_000, 30_000, 100_000)
BUDGET_S = 30  # per-case time budget
REPEATS = 5  # runs of each sub-second case


def measure(route: str, n: int) -> dict:
    times, value = [], None
    while len(times) < REPEATS:
        worker = Worker(route)
        try:
            reply = worker.ask(0, n, time.perf_counter() + 3 * BUDGET_S)
        except QueryTimeout:
            return {"n": n, "status": "timeout", "limit_s": 3 * BUDGET_S}
        finally:
            worker.stop()
        if reply["error"]:
            return {"n": n, "status": "error", "error": reply["error"]}
        times.append(reply["s"])
        value = reply["value"]
        if reply["s"] >= 1.0:
            break
    return {
        "n": n, "status": "ok", "runs": len(times), "median_s": statistics.median(times),
        "min_s": min(times), "max_s": max(times), "value": value,
    }


def predict(done: list[dict], n: int) -> float | None:
    ok = [r for r in done if r["status"] == "ok"]
    if len(ok) < 2:
        return None
    a, b = ok[-2], ok[-1]
    slope = math.log(b["median_s"] / a["median_s"]) / math.log(b["n"] / a["n"])
    return b["median_s"] * (n / b["n"]) ** max(slope, 1.0)


def crossover(exact: dict, series: dict):
    """First grid interval where series/exact drops below 1, log-log interpolated."""
    common = [n for n in GRID if n in exact and n in series]
    ratios = [(n, series[n] / exact[n]) for n in common]
    for (n0, r0), (n1, r1) in zip(ratios, ratios[1:]):
        if r0 > 1 >= r1:
            t = math.log(r0) / (math.log(r0) - math.log(r1))
            return {"n": round(math.exp(math.log(n0) + t * math.log(n1 / n0))), "between": [n0, n1]}
    return {"n": None, "series_over_exact": dict(ratios),
            "note": "no crossover on the measured grid" if ratios else "no common sizes"}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import partitions.exact as exact

    results = {}
    for route in ("exact", "series"):
        done = []
        for n in GRID:
            guess = predict(done, n)
            if done and (done[-1]["status"] != "ok" or (guess is not None and guess > BUDGET_S)):
                done.append({"n": n, "status": "skipped", "predicted_s": guess})
                continue
            started = time.perf_counter()
            done.append(measure(route, n))
            print(f"{route} {n}: {done[-1]['status']} in {time.perf_counter() - started:.2f} s",
                  file=sys.stderr)
        results[route] = done
    reference = exact.PartitionCache()
    for row in results["series"]:
        if row["status"] == "ok":
            row["matches_exact"] = row["value"] == str(exact.p_exact(row["n"], reference))
    for rows in results.values():
        for row in rows:
            row.pop("value", None)
    timed = {route: {r["n"]: r["median_s"] for r in rows if r["status"] == "ok"}
             for route, rows in results.items()}
    report = {
        "environment": environment(),
        "budget_s": BUDGET_S,
        "repeats": REPEATS,
        "routes": results,
        "crossover": crossover(timed["exact"], timed["series"]),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
