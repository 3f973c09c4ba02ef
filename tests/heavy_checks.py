"""Checks heavier than tier-1, each under its own time limit.

The file name is outside pytest's ``test_*.py`` pattern, so the tier-1 run
does not collect it; a run that names it does:

    PYTHONPATH=src python -m pytest -q tests/heavy_checks.py

Each check launches its command through ``launch``: the installed
``partitions`` script when the suite runs against an installed package,
``python -m partitions.cli`` from a checkout.  A command that outlives its
limit raises ``subprocess.TimeoutExpired`` and fails its check.
"""

import hashlib
import json
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import pytest

import launch
from partitions import cli
from partitions.precision import unlimited_int_str

RESIDUES = {row["n"]: row for row in json.loads(Path(__file__).with_name("partition_residues.json").read_text())}


@pytest.fixture(autouse=True)
def no_cache_from_environment(monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)


def run_cli(*args, timeout=60):
    """The CLI run with ``args``, killed after ``timeout`` seconds."""
    return launch.run([*launch.cli_commands()[-1], *args], timeout=timeout)


def answer(*args, timeout=60):
    """The stdout of a CLI run that exits 0 and writes nothing to stderr."""
    done = run_cli(*args, timeout=timeout)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout


def refusal(*args):
    """The stderr of a CLI run that exits 2 and writes nothing to stdout."""
    done = run_cli(*args)
    assert done.returncode == 2 and done.stdout == "", (done.returncode, done.stdout)
    return done.stderr


def assert_reference(decimal, n):
    """``decimal`` is p(n) by sympy's residues mod 2^64 and 10^9 + 7 and bit length."""
    with unlimited_int_str():
        value = int(decimal)
    row = RESIDUES[n]
    assert (value % 2**64, value % (10**9 + 7), value.bit_length()) == (
        row["mod_2_64"], row["mod_1e9_7"], row["bit_length"]), n


def run_script(source, *args, timeout):
    """Run ``source`` with ``sys.argv[1:]`` = ``args`` in a fresh interpreter;
    it fails by an assertion."""
    done = launch.python("-c", textwrap.dedent(source), *args, timeout=timeout)
    assert done.returncode == 0, done.stderr


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# tier-1 checks the series up to 10^7 with no time limit. p(10^8) has 11,132
# digits, past the interpreter's 4300-digit limit on int-to-str conversion;
# 10^9 is the series' ceiling and its widest working width (117,106 bits)
@pytest.mark.parametrize("n", [10**8, 10**9])
def test_series_matches_reference_residue(n):
    assert_reference(json.loads(answer("series", str(n)))["rounded"], n)


def test_terms_needed_matches_walk_up_from_fewest_terms():
    # terms_needed doubles N from 20 and halves the last interval, which holds
    # as T falls as N grows: it must give the N of the walk up from N = 20
    run_script("""
        from partitions.rademacher import _FEWEST_TERMS, terms_needed, truncation_bound
        def walk(n):
            n_terms = _FEWEST_TERMS
            while truncation_bound(n, n_terms) >= 0.25:
                n_terms += 1
            return n_terms
        wrong = [n for n in (*range(1, 200_001), 10**9) if terms_needed(n) != walk(n)]
        assert not wrong, wrong[:10]
    """, timeout=60)


def test_series_matches_recurrence_up_to_its_ceiling():
    # the one end-to-end check that every certified value in the recurrence's
    # range is the right integer. It takes 80 to 290 s of CPU on one vCPU, by
    # the machine, so the odd and the even n run in two processes at once
    script = """
        import sys
        from partitions.exact import PartitionCache
        from partitions.rademacher import p_series
        table = PartitionCache()
        table.extend_to(10**5)
        wrong = [n for n in range(int(sys.argv[1]), 10**5 + 1, 2) if p_series(n).rounded != table[n]]
        assert not wrong, wrong[:10]
    """
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda start: run_script(script, str(start), timeout=300), (1, 2)))


def test_exact_at_its_ceiling_matches_reference_residue():
    assert_reference(answer("exact", "100000"), 100000)


def test_ak_with_most_roots_at_width_ceiling():
    # k = 3137^2 has 6274 Selberg roots, near the most found for k <= 10^7
    # (6310), at the context's width ceiling; A_k(n) = 0, so it prints a tiny mpf
    out = answer("ak", "9840769", "9430737", "--prec", "4096")
    assert abs(mpmath.mpf(out.strip())) < mpmath.mpf(2) ** -1000


@pytest.mark.parametrize("law", ["eta", "ftransform"])
def test_verify_at_its_ceilings(law):
    # tier-1 runs 2 samples at 4096 bits; this is verify's 32-sample ceiling
    out = answer("verify", law, "--samples", "32", "--prec", "4096")
    assert len(out.splitlines()) == 33 and out.endswith("all ok\n"), out[-200:]


def test_cut_short_cache_serves_the_head_and_refuses_past_it(tmp_path):
    # an exact hit bisects the file and reads only the lines its probes land
    # on, the line for n among them: a damaged tail past n is not read, and a
    # call that reads it, for p(200) itself or past it, exits 2
    path = tmp_path / "c.txt"
    answer("--cache", str(path), "exact", "200")
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 3)
    assert answer("--cache", str(path), "exact", "10") == "42\n"
    for n in ("200", "300"):
        refusal("--cache", str(path), "exact", n)


@pytest.fixture(scope="module")
def full_cache(tmp_path_factory):
    """A cache file of p(0..10^5) and the CLI's p(10^5) line."""
    path = tmp_path_factory.mktemp("cache") / "c5.txt"
    value = answer("--cache", str(path), "exact", "100000")
    assert_reference(value, 100000)
    return path, value


def test_full_cache_hits_answer_quickly_and_leave_the_file_as_it_was(full_cache):
    # exact, asym and table each look their p(n) up in the file
    path, value = full_cache
    digest = sha256(path)
    assert answer("--cache", str(path), "exact", "100000", timeout=5) == value
    answer("--cache", str(path), "asym", "15000", timeout=5)
    answer("--cache", str(path), "table", "--set", "paper", timeout=5)
    assert sha256(path) == digest


def test_damage_on_line_2_is_seen_only_by_the_calls_that_read_it(full_cache, tmp_path):
    # damage on line 2 is below every probe of the bisection for the last n,
    # which starts at half the file: that hit still answers, and exact 1, whose
    # line is damaged, finds no p(1), so the whole-file read names line 2
    source, value = full_cache
    lines = source.read_bytes().split(b"\n")
    lines[1] = b"1,x"
    path = tmp_path / "c5.txt"
    path.write_bytes(b"\n".join(lines))
    assert answer("--cache", str(path), "exact", "100000", timeout=5) == value
    assert refusal("--cache", str(path), "exact", "1").endswith(": line 2: malformed integer\n")
