"""The repository benchmark: three seeded, closed-loop, single-client
workloads against the ``partitions`` library and its CLI.

    python3 perfbench/run.py --workload series|exact|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``partitions`` from
``src/`` there and writes only under ``.perfbench_out/``.

Workloads (inputs come from ``--seed`` alone; see ``BENCHMARK.json``):

* ``series`` -- ``p_series(n)`` in one worker process for distinct n,
  log-uniform over [1e2, 1.5e4].  The process-global Dedekind kernel cache
  warms across queries as it would for a library user.
* ``exact``  -- ``p_exact(n, PartitionCache())``, cold, n uniform over
  [1e4, 5e4]: the recurrence and the memory of its table.
* ``cli``    -- ``partitions`` subprocesses sharing one ``--cache`` file
  that starts empty: mostly ``exact n`` (n <= 5e4), plus ``table --set
  paper``, ``series n`` (n <= 2000), ``verify eta``, ``ford N``, ``bessel x``.

Each block of queries is a stratified sample: one draw per equal slice of
each input range, shuffled.  Blocks come in antithetic pairs: the second
block of a pair puts each draw at the mirror position (u -> 1 - u) of its
slice, so a pair covers every slice evenly whatever the seed.  A run is a
fixed query set of whole pairs: the blocks that come nearest to filling
``--seconds`` at the seed commit's speed (NOMINAL_BLOCK_S), so the sample
count, and with it the tail percentile, does not depend on how fast the
code under test is.

The benchmark and its query processes run on one CPU.  Next to every query
a fixed reference loop is timed on that CPU (``speed.py``), and the query
latencies are reported at the reference speed, which takes out the host's
changes of CPU speed; the measured latencies are in the detail line.

Set-up builds a reference table of p(0..max n) with ``p_exact`` and starts
the query process; it is repeated SETUP_REPS times and ``setup_s`` is the
median, at the reference speed.  The table is validated once per run
against the DP oracle up to ``ORACLE_LIMIT`` and against Ramanujan's
congruences mod 5, 7 and 11 up to max n; every answer is then checked
against it (CLI output also against independent mpmath and Farey-count
references).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the first TRACE_BLOCKS blocks run untraced and then
traced, in fresh query processes, and the line carries the per-layer
metrics (see ``tracing.py``).

Every query must end within the run's time limit, which grows with the
planned query set (see ``run_limit``); a query still running then is
stopped, and it and every query not yet started count as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("series", "exact", "cli")
# reserved for confirming a claimed gain on inputs the change was not tuned on
CONFIRM_SEED = 1_000_003
SETUP_REPS = 5
TRACE_BLOCKS = {"series": 1, "exact": 1, "cli": 2}
# the run's time limit: set-up allowance plus this multiple of the planned
# query set's time at seed speed (see run_limit)
SETUP_ALLOWANCE_S = 30
LIMIT_FACTOR = 3

# per workload: (kind, low, high, draws per block, spacing of the draws)
MIX = {
    "series": (("series", 100, 15_000, 20, "log"),),
    "exact": (("exact", 10_000, 50_000, 16, "int"),),
    "cli": (  # two thirds `exact`, most of them cache hits
        ("exact", 1, 50_000, 21, "int"),
        ("series", 100, 2_000, 3, "log"),
        ("table", None, None, 1, None),
        ("verify", None, None, 2, None),
        ("ford", 5, 100, 2, "int"),
        ("bessel", 0.5, 50.0, 3, "decimal"),
    ),
}
# State that grows with the largest argument so far -- the process-global
# Dedekind kernel cache under `series`, the shared cache file under `cli` --
# is filled by the block's largest query of this kind, which goes first, so
# the block's other queries all see the grown state whatever the seed's
# order.  `series` arguments also never repeat within a run.
LARGEST_FIRST = {"series": "series", "cli": "exact"}
DISTINCT = {"series"}
# seconds one block took at the seed commit, as measured (2 vCPUs, x86-64,
# Python 3.11.7, mpmath 1.3.0 on its pure-Python backend)
NOMINAL_BLOCK_S = {"series": 10.5, "exact": 6.7, "cli": 8.7}
VERIFY_SAMPLES = 24
PAPER_GRID = (10, 50, 100, 200, 500, 1000, 2000, 3000, 4000, 5000,
              6000, 7000, 8000, 9000, 10000, 12000, 15000)
TABLE_MAX = {"series": 15_000, "exact": 50_000, "cli": 50_000}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, broken query process)."""


class QueryTimeout(Exception):
    """A query was still running at the run's time limit."""


# --------------------------------------------------------------- generator

def _shuffled(rng, items):
    # Fisher-Yates on rng.random() alone, whose stream Python keeps stable
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _place(low, high, spacing, slot, slots, u):
    """The point at fraction u of slice ``slot`` of ``slots`` of [low, high]."""
    if spacing == "log":
        x = math.exp(math.log(low) + math.log(high / low) * (slot + u) / slots)
    else:
        x = low + (high - low) * (slot + u) / slots
    if spacing == "decimal":
        return f"{x:.2f}"
    return min(high, max(low, round(x)))


def query_blocks(workload: str, seed: int):
    """Endless stream of query blocks; the same seed gives the same stream."""
    rng = random.Random(seed)
    mix = MIX[workload]
    seen = set()
    while True:
        draws = [[rng.random() for _ in range(count)] for *_, count, _ in mix]
        for pair_half in (draws, [[1 - u for u in row] for row in draws]):
            block = []
            for (kind, low, high, count, spacing), row in zip(mix, pair_half):
                for slot, u in enumerate(row):
                    arg = _place(low, high, spacing, slot, count, u) if spacing else None
                    if workload in DISTINCT:
                        for _ in range(64):
                            if arg not in seen:
                                break
                            arg = _place(low, high, spacing, slot, count, rng.random())
                        seen.add(arg)
                    block.append((kind, arg))
            block = _shuffled(rng, block)
            if workload in LARGEST_FIRST:
                growing = [query for query in block if query[0] == LARGEST_FIRST[workload]]
                largest = max(growing, key=lambda query: query[1])
                block.remove(largest)
                block.insert(0, largest)
            yield block


def blocks_for(workload: str, seconds: float) -> int:
    """The whole antithetic pairs of blocks that come nearest to filling
    ``seconds`` at seed speed, and one pair at least."""
    return 2 * max(1, round(seconds / (2 * NOMINAL_BLOCK_S[workload])))


def run_limit(workload: str, seconds: float, trace: int) -> float:
    """Seconds after the start by which every query must have ended.

    A query still running then is stopped, so slow or hung code ends the
    run in time (82-110 s for ``--seconds 25``)."""
    blocks = 2 * TRACE_BLOCKS[workload] if trace else blocks_for(workload, seconds)
    return SETUP_ALLOWANCE_S + LIMIT_FACTOR * blocks * NOMINAL_BLOCK_S[workload]


def query_list_bytes(workload: str, seed: int, blocks: int = 4) -> bytes:
    stream = query_blocks(workload, seed)
    return json.dumps([next(stream) for _ in range(blocks)]).encode()


def generator_selftest(workload: str, seed: int) -> dict:
    """Same seed -> byte-identical list; the confirm seed -> another list."""
    first = query_list_bytes(workload, seed)
    other_seed = CONFIRM_SEED if seed != CONFIRM_SEED else 0
    return {
        "repeatable": first == query_list_bytes(workload, seed),
        "confirm_seed": CONFIRM_SEED,
        "confirm_differs": first != query_list_bytes(workload, other_seed),
    }


# ------------------------------------------------------------- environment

def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "partitions").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------- oracles

def validate_table(table: list[int], exact) -> list[str]:
    """DP oracle up to ORACLE_LIMIT, Ramanujan congruences up to max n."""
    problems = []
    limit = min(exact.ORACLE_LIMIT, len(table) - 1)
    if exact.partition_table_dp(limit) != table[: limit + 1]:
        problems.append(f"table differs from partition_table_dp below {limit}")
    for mod, start in ((5, 4), (7, 5), (11, 6)):
        bad = [n for n in range(start, len(table), mod) if table[n] % mod]
        if bad:
            problems.append(f"p({bad[0]}) breaks the congruence mod {mod}")
    return problems


def farey_length(order: int) -> int:
    """|F_N| = 1 + sum_{k<=N} phi(k), by a totient sieve."""
    phi = list(range(order + 1))
    for p in range(2, order + 1):
        if phi[p] == p:
            for m in range(p, order + 1, p):
                phi[m] -= phi[m] // p
    return 1 + sum(phi[1:])


def check_cli(kind: str, arg, rc: int, out: str, table: list[int]) -> str | None:
    """None when the CLI answer is right, else the reason it is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.strip().splitlines()
    if kind == "exact":
        return None if lines == [str(table[arg])] else "wrong p(n)"
    if kind == "series":
        return None if json.loads(out)["rounded"] == str(table[arg]) else "wrong rounded value"
    if kind == "verify":
        all_ok = len(lines) == VERIFY_SAMPLES + 1 and lines[-1].endswith("all ok")
        return None if all_ok else "verify not all ok"
    if kind == "ford":
        rows = len(lines) - 1
        expected = farey_length(arg) - 1
        return None if rows == expected else f"{rows} ford rows, expected {expected}"
    if kind == "bessel":
        values = dict(line.split(" = ") for line in lines)
        with mpmath.workprec(160):
            ref = mpmath.besseli(1.5, mpmath.mpf(arg))
            for route in ("series", "closed"):
                if abs(mpmath.mpf(values[route]) / ref - 1) > mpmath.mpf("1e-25"):
                    return f"bessel {route} route off"
        return None
    # table --set paper: exact p(n) per row, L(n) and eps(n) to their printed digits
    if lines[0] != "n,p_n,L_n,eps_percent" or len(lines) != len(PAPER_GRID) + 1:
        return "table shape"
    with mpmath.workprec(160):
        for n, line in zip(PAPER_GRID, lines[1:]):
            row_n, p_n, l_n, eps = line.split(",")
            if int(row_n) != n or int(p_n) != table[n]:
                return f"table row for n={n}"
            ref_l = mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(2) * n / 3)) / (4 * n * mpmath.sqrt(3))
            ref_eps = (table[n] - ref_l) / table[n] * 100
            if abs(mpmath.mpf(l_n) / ref_l - 1) > mpmath.mpf("1e-18") or abs(float(eps) - ref_eps) > 0.0051:
                return f"table L or eps for n={n}"
    return None


# --------------------------------------------------------- query processes

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PARTITIONS_CACHE", None)
    return env


class Worker:
    """A ``worker.py`` process for the library workloads (closed loop)."""

    def __init__(self, workload: str, trace: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=_child_env(),
        )
        if not json.loads(self._read()).get("ready"):
            raise BenchError("worker did not start")

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return line

    def ask(self, i: int, n: int, deadline: float) -> dict:
        self.proc.stdin.write(json.dumps({"i": i, "n": n}) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            self.proc.kill()
            self.proc.wait()
            raise QueryTimeout
        return json.loads(self._read())

    def close(self) -> dict:
        self.proc.stdin.write('{"end": true}\n')
        self.proc.stdin.flush()
        summary = json.loads(self._read())
        self.stop()
        return summary

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def launch(args: list[str], workdir: Path, deadline: float, trace: bool = False):
    """One CLI process: (latency_s, exit code, stdout, launcher report)."""
    report = workdir / "launch-report.json"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launcher.py"), "--report", str(report)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", str(time.monotonic_ns()), "--", *args],
            capture_output=True, text=True, cwd=ROOT, env=_child_env(),
            timeout=max(0.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise QueryTimeout from None
    latency = time.perf_counter() - t0
    try:
        info = json.loads(report.read_text())
    except FileNotFoundError:  # died before it could report: a failed query
        return latency, proc.returncode or 1, proc.stdout, {"startup_s": 0.0, "maxrss_kb": 0, "trace": None}
    return latency, proc.returncode, proc.stdout, info


def cli_args(kind: str, arg, cache: Path) -> list[str]:
    if kind == "exact":
        return ["--cache", str(cache), "exact", str(arg)]
    if kind == "table":
        return ["--cache", str(cache), "table", "--set", "paper"]
    if kind == "verify":
        return ["verify", "eta", "--samples", str(VERIFY_SAMPLES)]
    return [kind, str(arg)]


# ------------------------------------------------------------------ passes

class Pass:
    """Outcome of running a list of queries through one query-process set-up."""

    def __init__(self):
        self.log: list[tuple] = []  # (kind, argument, latency_s) per query
        self.failures: list[str] = []
        self.maxrss_kb = 0
        self.summaries: list[dict] = []
        self.startups: list[float] = []
        self.skipped = 0  # queries not started before the time limit: failed too
        # per query in the log: the mean of the speed probes just before and
        # just after it (see speed.py)
        self.probes: list[float] = []

    @property
    def latencies(self) -> list[float]:
        return [entry[2] for entry in self.log]

    @property
    def attempted(self) -> int:
        return len(self.log) + self.skipped

    @property
    def failed(self) -> int:
        return len(self.failures) + self.skipped


def run_pass(queries, table, workdir: Path, deadline: float, worker=None, trace=False):
    """Run ``queries`` in order, closed loop, one client.

    ``worker`` is an already started Worker for the library workloads (the
    caller ends it, see ``close_worker``); without one every query is a CLI
    process and the shared cache file starts empty.  A query still running
    at ``deadline`` is stopped and counted failed, and so is every query of
    the pass not started by then.
    """
    result = Pass()
    cache = workdir / "cache.txt"
    cache.unlink(missing_ok=True)
    for index, (kind, arg) in enumerate(queries):
        t0 = time.perf_counter()
        if t0 >= deadline:
            result.skipped = len(queries) - index
            break
        try:
            if worker:
                reply = worker.ask(index, arg, deadline)
                latency = reply["s"]
                probe_s = statistics.mean(reply["probe_s"])
                wrong = reply["error"] or (None if reply["value"] == str(table[arg]) else "wrong p(n)")
            else:
                argv = cli_args(kind, arg, cache)
                before = speed.probe()
                latency, rc, out, report = launch(argv, workdir, deadline, trace)
                probe_s = (before + speed.probe()) / 2
                result.maxrss_kb = max(result.maxrss_kb, report["maxrss_kb"])
                result.startups.append(report["startup_s"])
                if report["trace"]:
                    result.summaries.append(report["trace"])
                try:
                    wrong = check_cli(kind, arg, rc, out, table)
                except (ValueError, KeyError, IndexError) as exc:
                    wrong = f"unparsable output: {exc!r}"
        except QueryTimeout:
            result.log.append((kind, arg, time.perf_counter() - t0))
            result.probes.append(speed.REFERENCE_S)  # no probe after it: left unscaled
            result.failures.append(f"{kind} {arg}: still running at the run's time limit")
            result.skipped = len(queries) - index - 1
            break
        result.log.append((kind, arg, latency))
        result.probes.append(probe_s)
        if wrong:
            result.failures.append(f"{kind} {arg}: {wrong}")
    return result


def close_worker(worker, result: Pass) -> None:
    """End ``worker``; its peak RSS and trace summary go into ``result``."""
    try:
        if worker.proc.poll() is None:
            summary = worker.close()
            result.maxrss_kb = summary["maxrss_kb"]
            if summary["trace"]:
                result.summaries.append(summary["trace"])
    finally:
        worker.stop()


def build_table(max_n: int, exact) -> list[int]:
    cache = exact.PartitionCache()
    exact.p_exact(max_n, cache)
    return [cache[n] for n in range(max_n + 1)]


def setup(workload: str, workdir: Path, exact, deadline: float):
    """SETUP_REPS x (reference table + query process start): the times, the
    speed probes next to them, the table and the last rep's worker."""
    times, probes, table, worker = [], [], None, None
    try:
        for _ in range(SETUP_REPS):
            if worker:
                worker.stop()
            before = speed.probe()
            t0 = time.perf_counter()
            rep_table = build_table(TABLE_MAX[workload], exact)
            if workload == "cli":
                launch([], workdir, deadline)
            else:
                worker = Worker(workload)
            times.append(time.perf_counter() - t0)
            probes.append((before + speed.probe()) / 2)
            if table is None:
                table = rep_table
            elif rep_table != table:
                raise BenchError("p_exact gave different tables on repeated set-up")
    except BaseException:
        if worker:
            worker.stop()
        raise
    return times, probes, table, worker


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """``times`` at the reference speed: each times REFERENCE_S over the
    probe time measured next to it (see ``speed.py``)."""
    return [t * speed.REFERENCE_S / p for t, p in zip(times, probes)]


# ----------------------------------------------------------------- metrics

def harrell_davis(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` of sorted samples.

    A Beta((m+1)q, (m+1)(1-q))-weighted mean of all order statistics, so a
    burst of machine noise on the one or two queries next to the quantile
    moves it far less than it moves the plain order statistic.
    """
    m = len(ordered)
    if m == 1:
        return ordered[0]
    a, b = (m + 1) * q, (m + 1) * (1 - q)
    with mpmath.workdps(15):
        weights = [mpmath.betainc(a, b, i / m, (i + 1) / m, regularized=True) for i in range(m)]
    return float(sum(w * x for w, x in zip(weights, ordered)))


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with >= 10 samples beyond it, as
    Harrell-Davis estimates; the plain order statistics are kept alongside."""
    ordered = sorted(latencies)
    m = len(ordered)
    j = max(0, m - 11)
    return {
        "count": m,
        "p50_s": harrell_davis(ordered, 0.5),
        "tail_s": harrell_davis(ordered, (j + 1) / m),
        "tail_percentile": 100.0 * (j + 1) / m,
        "tail_beyond": m - 1 - j,
        "p50_order_s": statistics.median(ordered),
        "tail_order_s": ordered[j],
        "total_s": sum(ordered),
    }


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the trace summaries of several query processes."""
    spans, counters = {}, {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += row[key]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def layer_metrics(traced: Pass, untraced: Pass) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, and how much of its wall
    time the spans' self times cover."""
    merged = merge_summaries(traced.summaries)
    spans, counters = merged["spans"], merged["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_ns", 0) / 1e9

    def total_s(name):
        return spans.get(name, {}).get("total_ns", 0) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    r_k_calls = calls("rademacher.r_k")
    saves = calls("exact.cache_save")
    values = {
        "rademacher.r_k.calls": (r_k_calls, "count"),
        "rademacher.terms_used": (counters.get("rademacher.terms_used", 0), "count"),
        "rademacher.term_yield": (ratio(counters.get("rademacher.terms_used", 0), r_k_calls), "ratio"),
        "rademacher.r_k.self_s": (self_s("rademacher.r_k"), "s"),
        "rademacher.p_series.self_s": (self_s("rademacher.p_series"), "s"),
        "rademacher.prec_bits_mean": (ratio(counters.get("rademacher.prec_bits_sum", 0), r_k_calls), "bits"),
    }
    for fn in ("a_k", "dedekind_sum", "cos_pi_rational"):
        values[f"dedekind.{fn}.calls"] = (calls(f"dedekind.{fn}"), "count")
        values[f"dedekind.{fn}.self_s"] = (self_s(f"dedekind.{fn}"), "s")
    values.update({
        "exact.extend_to.calls": (calls("exact.extend_to"), "count"),
        "exact.extend_to.self_s": (self_s("exact.extend_to"), "s"),
        "exact.values_added": (counters.get("exact.values_added", 0), "count"),
        "exact.cache_load.s": (total_s("exact.cache_load"), "s"),
        "exact.cache_load.bytes": (counters.get("exact.cache_load.bytes", 0), "bytes"),
        "exact.cache_save.s": (total_s("exact.cache_save"), "s"),
        "exact.cache_save.bytes": (counters.get("exact.cache_save.bytes", 0), "bytes"),
        "exact.cache_save.calls": (saves, "count"),
        "exact.cache_save.useful_ratio": (ratio(counters.get("exact.cache_save.useful", 0), saves), "ratio"),
        "cli.startup_s": (sum(traced.startups), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "asymptotics.relative_error_table.self_s": (self_s("asymptotics.relative_error_table"), "s"),
        "asymptotics.leading_term.calls": (calls("asymptotics.leading_term"), "count"),
        "eta.verify_eta.self_s": (self_s("eta.verify_eta"), "s"),
        "eta.eta.calls": (calls("eta.eta"), "count"),
        "farey.farey_sequence.self_s": (self_s("farey.farey_sequence"), "s"),
        "farey.w_chord.calls": (calls("farey.w_chord"), "count"),
        "bessel.bessel_i_series.self_s": (self_s("bessel.bessel_i_series"), "s"),
        "bessel.bessel_i_3_2_closed.self_s": (self_s("bessel.bessel_i_3_2_closed"), "s"),
        "trace.overhead_ratio": (ratio(sum(traced.latencies), sum(untraced.latencies)), "ratio"),
    })
    traced_wall = sum(traced.latencies)
    layer_self = {}
    for name, row in spans.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + row["self_ns"] / 1e9
    coverage = {
        "traced_wall_s": traced_wall,
        "layer_self_s": layer_self,
        "self_share_of_wall": ratio(sum(layer_self.values()), traced_wall),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, coverage


# -------------------------------------------------------------------- runs

def timed_run(workload, seed, seconds, table, workdir, worker, deadline):
    """End-to-end metrics over the fixed query set for ``seconds``.

    Latencies are reported at the reference CPU speed: each is multiplied
    by ``speed.REFERENCE_S`` over the time of the speed probes taken just
    before and after it (see ``speed.py``).  The measured latencies stay in
    the detail line.
    """
    stream = query_blocks(workload, seed)
    queries = [q for _ in range(blocks_for(workload, seconds)) for q in next(stream)]
    run = Pass()
    try:
        run = run_pass(queries, table, workdir, deadline, worker)
    finally:
        if worker:
            close_worker(worker, run)
    if not run.latencies:
        raise BenchError("no query started before the run's time limit")
    lat = latency_summary(at_reference_speed(run.latencies, run.probes))
    metrics = {
        "query_p50_s": {"value": lat["p50_s"], "unit": "s"},
        "query_tail_s": {"value": lat["tail_s"], "unit": "s"},
        "queries_per_s": {"value": lat["count"] / lat["total_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": run.maxrss_kb / 1024, "unit": "MB"},
        "ok_rate": {"value": 1 - run.failed / run.attempted, "unit": "ratio"},
    }
    details = {
        "latency": lat,
        "measured_latency": latency_summary(run.latencies),
        "probe_median_s": statistics.median(run.probes),
        "fail_rate": run.failed / run.attempted,
    }
    return [run], metrics, details


def traced_run(workload, seed, table, workdir, worker, deadline):
    """The first TRACE_BLOCKS blocks untraced, then traced: per-layer metrics."""
    stream = query_blocks(workload, seed)
    queries = [q for _ in range(TRACE_BLOCKS[workload]) for q in next(stream)]
    untraced = traced = Pass()
    try:
        untraced = run_pass(queries, table, workdir, deadline, worker)
    finally:
        if worker:
            close_worker(worker, untraced)
    tracer_worker = None if workload == "cli" else Worker(workload, trace=True)
    try:
        traced = run_pass(queries, table, workdir, deadline, tracer_worker, trace=True)
    finally:
        if tracer_worker:
            close_worker(tracer_worker, traced)
    metrics, coverage = layer_metrics(traced, untraced)
    details = {"queries": len(queries), "coverage": coverage}
    return [untraced, traced], metrics, details


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.perf_counter() + run_limit(args.workload, args.seconds, args.trace)
    if not (SRC / "partitions" / "__init__.py").is_file():
        print(f"error: no partitions sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import partitions.exact as exact

    if not Path(exact.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: partitions imported from {exact.__file__}, not {SRC}", file=sys.stderr)
        return 2

    selftest = generator_selftest(args.workload, args.seed)
    env = environment()
    # one CPU for this process and every process it starts, so the speed
    # probes run where the queries run (vCPUs change speed independently)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        workdir = Path(tmp)
        setup_times, setup_probes, table, worker = setup(args.workload, workdir, exact, deadline)
        try:
            table_problems = validate_table(table, exact)
            if args.trace:
                passes, metrics, details = traced_run(
                    args.workload, args.seed, table, workdir, worker, deadline
                )
            else:
                passes, metrics, details = timed_run(
                    args.workload, args.seed, args.seconds, table, workdir, worker, deadline
                )
                setup_s = statistics.median(at_reference_speed(setup_times, setup_probes))
                metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
                details["measured_setup_s"] = setup_times
        finally:
            if worker:
                worker.stop()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    correct = not failed and not table_problems and selftest["repeatable"] and selftest["confirm_differs"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "generator_selftest": selftest,
        "table_problems": table_problems,
        "failures": failures[:20],
        "skipped": sum(p.skipped for p in passes),
        "details": details,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            **report, "result": result,
            "queries": [p.log for p in passes], "probes": [p.probes for p in passes],
        })
    )
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
