import _thread
import json
import multiprocessing
import os
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schedule import WAIT_S, Stop

from partitions.exact import (
    CacheFormatError,
    ORACLE_LIMIT,
    PartitionCache,
    cache_load,
    cache_lookup,
    cache_save,
    p_exact,
    p_oracle_dp,
    partition_table_dp,
    pentagonal,
)

# reference values: OEIS A000041
P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]


def _extend_oracle(vals, n):
    """Reference for ``PartitionCache.extend_to``: the recurrence with one
    Python step per term, appending p(len(vals)..n) to ``vals``."""
    pairs = []
    k = 1
    while True:
        w1 = (3 * k * k - k) // 2
        if w1 > n:
            break
        pairs.append((w1, w1 + k, k & 1))
        k += 1
    for m in range(len(vals), n + 1):
        total = 0
        for w1, w2, odd in pairs:
            if w1 > m:
                break
            t = vals[m - w1]
            if w2 <= m:
                t += vals[m - w2]
            if odd:
                total += t
            else:
                total -= t
        vals.append(total)
    return vals


ORACLE_TOP = 1300
P_ORACLE = _extend_oracle([1], ORACLE_TOP)
# w1(k), w2(k) and their neighbours: where the kernel's set of offsets changes
PENTAGONAL_EDGES = sorted(
    {w + d for k in range(1, 30) for w in pentagonal(k)[1:] for d in (-1, 0, 1)}
)


def test_pentagonal_small():
    assert pentagonal(1) == (1, 1, 2)
    assert pentagonal(2) == (2, 5, 7)
    assert pentagonal(3) == (3, 12, 15)


def test_pentagonal_k100():
    pair = pentagonal(100)
    assert (pair.omega1, pair.omega2) == (14950, 15050)


def test_pentagonal_rejects_nonpositive():
    with pytest.raises(ValueError):
        pentagonal(0)
    with pytest.raises(ValueError):
        pentagonal(-3)


def test_pentagonal_interleaving():
    # w1(k) < w2(k) < w1(k+1), with gaps k and 2k+1
    for k in range(1, 10_001):
        pair = pentagonal(k)
        nxt = pentagonal(k + 1)
        assert pair.omega1 < pair.omega2 < nxt.omega1
        assert pair.omega2 - pair.omega1 == k
        assert nxt.omega1 - pair.omega2 == 2 * k + 1


def test_small_values():
    cache = PartitionCache()
    for n, expected in enumerate(P_SMALL):
        assert p_exact(n, cache) == expected


def test_cache_refuses_negative_index():
    # p(-1) is meant, not the last value in the table
    cache = PartitionCache()
    p_exact(10, cache)
    for n in (-1, -11, -12):
        with pytest.raises(IndexError, match="nonnegative"):
            cache[n]
    with pytest.raises(IndexError, match=r"^no p\(11\) in the table: max_n is 10$"):
        cache[11]
    assert cache[0] == 1 and cache[10] == 42


def test_p7_and_p0():
    assert p_exact(7) == 15
    assert p_exact(0) == 1


def test_p200():
    assert p_exact(200) == 3972999029388


def test_negative_rejected():
    with pytest.raises(ValueError):
        p_exact(-1)
    cache = PartitionCache([1, 1, 2])
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        cache.extend_to(-1)
    assert cache == PartitionCache([1, 1, 2])


def test_ceiling_refused_before_any_work():
    cache = PartitionCache()
    for call in (lambda: cache.extend_to(10**5 + 1), lambda: p_exact(10**7, cache)):
        with pytest.raises(ValueError, match="at most 100000"):
            call()
    assert cache.max_n == 0


def test_one_positioned_iterator_per_offset_per_call(monkeypatch):
    # each extend_to call positions one iterator per generalised pentagonal
    # number <= n (72 of them <= 2000, 88 <= 3000), not one per offset per run
    import partitions.exact as exact

    calls = []
    iter_at = exact._iter_at
    monkeypatch.setattr(exact, "_iter_at", lambda seq, i: calls.append(i) or iter_at(seq, i))
    cache = PartitionCache()
    assert p_exact(2000, cache) == 4720819175619413888601432406799959512200344166
    assert len(calls) == 72 and set(calls) == {0}
    calls.clear()
    p_exact(3000, cache)
    # the resumed call positions the 72 old offsets w at 2001 - w, the 16 new ones at 0
    old = [w for k in range(1, 37) for w in pentagonal(k)[1:]]
    assert max(old) <= 2000 and sorted(calls) == sorted([2001 - w for w in old] + [0] * 16)
    assert [cache[n] for n in range(3001)] == _extend_oracle([1], 3000)


def test_ceiling_is_inclusive(monkeypatch):
    monkeypatch.setattr("partitions.exact._MAX_N", 50)
    cache = PartitionCache()
    assert p_exact(50, cache) == P_ORACLE[50]
    with pytest.raises(ValueError, match="at most 50"):
        cache.extend_to(51)
    assert cache.max_n == 50


# the reference rows the recurrence reaches, up to its ceiling of 10^5
RESIDUES = [row for row in json.loads(Path(__file__).with_name("partition_residues.json").read_text())
            if row["n"] <= 10**5]


@pytest.mark.parametrize("row", RESIDUES, ids=[str(row["n"]) for row in RESIDUES])
def test_p_exact_matches_reference_residues(row):
    value = p_exact(row["n"])
    assert value % 2**64 == row["mod_2_64"]
    assert value % (10**9 + 7) == row["mod_1e9_7"]
    assert value.bit_length() == row["bit_length"]


def test_monotonic():
    cache = PartitionCache()
    p_exact(500, cache)
    for n in range(1, 500):
        assert cache[n + 1] > cache[n]


def test_dp_oracle_values():
    assert p_oracle_dp(7) == 15
    assert p_oracle_dp(10) == 42
    assert p_oracle_dp(1) == 1
    assert p_oracle_dp(0) == 1


def test_dp_oracle_limit():
    with pytest.raises(ValueError, match=f"^n_max must be at most {ORACLE_LIMIT}$"):
        p_oracle_dp(ORACLE_LIMIT + 1)
    with pytest.raises(ValueError):
        partition_table_dp(-1)


def test_recurrence_matches_dp_table():
    cache = PartitionCache()
    p_exact(2000, cache)
    table = partition_table_dp(2000)
    assert [cache[n] for n in range(2001)] == _extend_oracle([1], 2000) == table


@given(st.integers(min_value=0, max_value=250))
@settings(max_examples=30, deadline=None)
def test_recurrence_matches_dp_random(n):
    assert p_exact(n) == p_oracle_dp(n)


@given(
    targets=st.lists(
        st.sampled_from(PENTAGONAL_EDGES) | st.integers(0, ORACLE_TOP), min_size=1, max_size=8
    ),
    prefix=st.none() | st.sampled_from(PENTAGONAL_EDGES) | st.integers(0, ORACLE_TOP),
)
@settings(max_examples=40, deadline=None)
def test_extend_in_steps_matches_one_pass_and_oracle(targets, prefix):
    targets.sort()
    if prefix is None:
        cache = PartitionCache()
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prefix.csv")
            cache_save(PartitionCache(P_ORACLE[: prefix + 1]), path)
            cache = cache_load(path)
    for target in targets:
        cache.extend_to(target)
        assert cache.max_n == max(target, prefix or 0)
    top = cache.max_n
    one_pass = PartitionCache()
    one_pass.extend_to(top)
    assert cache == one_pass
    assert [cache[n] for n in range(top + 1)] == P_ORACLE[: top + 1]


def test_cache_constructor_validation():
    with pytest.raises(ValueError):
        PartitionCache([2])
    with pytest.raises(ValueError):
        PartitionCache([])
    with pytest.raises(ValueError):
        PartitionCache([1, 0])
    # a value that is not an int is refused, not truncated by int(), even when integral
    for values in ([1, 1.9, 2.7], [1, 1, 2.5], [1, float("inf")], [1, float("nan")], [1, Fraction(3, 2)],
                   [1, 1.0, Fraction(2)]):
        with pytest.raises(TypeError):
            PartitionCache(values)
    assert PartitionCache([1, 1, 2]) == PartitionCache(iter([1, 1, 2]))
    # a cache equals no list of the same values, and its repr names its largest n
    assert PartitionCache([1, 1, 2]) != [1, 1, 2]
    assert repr(PartitionCache([1, 1, 2])) == "PartitionCache(max_n=2)"


def test_cache_extend_is_idempotent():
    cache = PartitionCache()
    cache.extend_to(50)
    first = cache[50]
    cache.extend_to(10)
    assert cache.max_n == 50 and cache[50] == first


def test_cache_save_format(tmp_path):
    cache = PartitionCache()
    cache.extend_to(2)
    path = tmp_path / "p.csv"
    cache_save(cache, path)
    assert path.read_bytes() == b"0,1\n1,1\n2,2\n"


def test_cache_round_trip(tmp_path):
    cache = PartitionCache()
    cache.extend_to(123)
    path = tmp_path / "p.csv"
    cache_save(cache, path)
    loaded = cache_load(path)
    assert loaded == cache


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=20, deadline=None)
def test_cache_round_trip_random(n_max):
    cache = PartitionCache()
    cache.extend_to(n_max)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.csv")
        cache_save(cache, path)
        assert cache_load(path) == cache


def test_cache_load_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CacheFormatError, match="empty"):
        cache_load(path)


def test_cache_load_wrong_p0(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,2\n")
    with pytest.raises(CacheFormatError, match="p\\(0\\)"):
        cache_load(path)


def test_cache_save_unwritable(tmp_path):
    cache = PartitionCache()
    with pytest.raises(OSError):
        cache_save(cache, tmp_path / "no" / "such" / "dir" / "p.csv")


def test_cache_save_failure_keeps_old_file(tmp_path):
    path = tmp_path / "p.csv"
    old = PartitionCache()
    old.extend_to(5)
    cache_save(old, path)
    before = path.read_bytes()

    def values_then_failure():
        yield from (1, 1, 2)
        raise OSError("disk full")

    broken = PartitionCache()
    broken.extend_to(50)
    broken._values = values_then_failure()
    with pytest.raises(OSError, match="disk full"):
        cache_save(broken, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]


# damage to the line for p(n), as (new lines for it, message after "line L: ");
# "truncated" also ends the file there
LINE_DAMAGE = {
    "truncated": (lambda n: [f"{n},{P_ORACLE[n]}"], lambda n: "truncated (no line end)"),
    "blank": (lambda n: ["\n"], lambda n: "expected 'n,p(n)'"),
    "one_field": (lambda n: [f"{n}\n"], lambda n: "expected 'n,p(n)'"),
    "three_fields": (lambda n: [f"{n},{P_ORACLE[n]},1\n"], lambda n: "expected 'n,p(n)'"),
    "bad_n": (lambda n: [f"x{n},{P_ORACLE[n]}\n"], lambda n: "malformed integer"),
    "bad_value": (lambda n: [f"{n},{P_ORACLE[n]}.5\n"], lambda n: "malformed integer"),
    "plus_sign": (lambda n: [f"{n},+{P_ORACLE[n]}\n"], lambda n: "malformed integer"),
    "underscore": (lambda n: [f"{n},0_{P_ORACLE[n]}\n"], lambda n: "malformed integer"),
    # int() strips both around a field, the rules take only spaces and tabs
    "vertical_tab": (lambda n: [f"\x0b{n},{P_ORACLE[n]}\n"], lambda n: "malformed integer"),
    "form_feed": (lambda n: [f"{n},{P_ORACLE[n]}\x0c\n"], lambda n: "malformed integer"),
    "gap": (lambda n: [], lambda n: f"gap in n (expected {n}, found {n + 1})"),
    "repeated_n": (  # at n = 0 the line starts "-1,": a sign is no digit
        lambda n: [f"{n - 1},{P_ORACLE[n]}\n"],
        lambda n: f"n out of order (expected {n}, found {n - 1})" if n else "malformed integer",
    ),
    "signed_n": (lambda n: [f"-{n},{P_ORACLE[n]}\n"], lambda n: "malformed integer"),
    "zero": (lambda n: [f"{n},0\n"], lambda n: "p(n) must be positive"),
    "negative": (lambda n: [f"{n},-{P_ORACLE[n]}\n"], lambda n: "malformed integer"),
    # two faults on one line: the rule named is the first broken, in the order above
    "truncated_bad_value": (lambda n: [f"{n},x"], lambda n: "truncated (no line end)"),
    "three_fields_bad_value": (lambda n: [f"{n},x,1\n"], lambda n: "expected 'n,p(n)'"),
    "repeated_n_bad_value": (lambda n: [f"{n - 1},x\n"], lambda n: "malformed integer"),
    "gap_zero": (lambda n: [f"{n + 1},0\n"], lambda n: f"gap in n (expected {n}, found {n + 1})"),
}


@pytest.mark.parametrize("n", [0, 5, 10], ids=["first", "middle", "last_read"])
@pytest.mark.parametrize("kind", LINE_DAMAGE)
def test_cache_load_messages(tmp_path, kind, n):
    damage, message = LINE_DAMAGE[kind]
    lines = [f"{m},{P_ORACLE[m]}\n" for m in range(21)]
    lines[n:n + 1] = damage(n)
    if not lines[n].endswith("\n"):  # a line with no line end is the file's last
        del lines[n + 1:]
    path = tmp_path / "p.csv"
    path.write_text("".join(lines), newline="")
    with pytest.raises(CacheFormatError) as info:
        cache_load(path)
    assert str(info.value) == f"{path}: line {n + 1}: {message(n)}"


def test_cache_load_accepts_spaces_and_crlf(tmp_path):
    path = tmp_path / "p.csv"
    text = "".join(f" {m} ,\t{P_ORACLE[m]} \r\n" for m in range(21))
    path.write_text(text, newline="")
    assert cache_load(path) == PartitionCache(P_ORACLE[:21])


@given(st.lists(st.integers(1, 10**80), max_size=300))
@settings(max_examples=30, deadline=None)
def test_cache_lookup_matches_cache_load(tail):
    # a table of random positive values with p(0) = 1, as cache_save writes it
    # and rewritten with spaces and CRLF line ends: the lines differ in length
    cache = PartitionCache([1, *tail])
    max_n = cache.max_n
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        cache_save(cache, path)
        saved = Path(path).read_text()
        spaced = "".join(f" {n} ,\t{v} \r\n" for n, v in enumerate(cache._values))
        for text in (saved, spaced):
            Path(path).write_text(text, newline="")
            loaded = cache_load(path)
            assert [cache_lookup(path, n) for n in range(max_n + 1)] == [loaded[n] for n in range(max_n + 1)]
            assert [cache_lookup(path, n) for n in range(max_n + 1, max_n + 6)] == [None] * 5


def test_cache_lookup_of_an_empty_file_or_a_wrong_p0_is_none(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("")
    assert [cache_lookup(path, n) for n in range(3)] == [None] * 3
    path.write_text("0,2\n1,1\n")
    assert [cache_lookup(path, n) for n in range(3)] == [None, 1, None]


@pytest.mark.parametrize("n, message", [(-1, "n must be nonnegative"),
                                        (10**5 + 1, "n must be at most 100000")])
def test_cache_lookup_reads_n_before_the_file(tmp_path, n, message):
    # p_exact's own refusals, raised before the missing file is opened
    for call in (p_exact, lambda n: cache_lookup(tmp_path / "missing.csv", n)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(n)


def test_both_readers_refuse_bare_cr_and_non_ascii_digits(tmp_path):
    # both read bytes: a file with bare CR line ends is one line with no line
    # end, and a digit outside ASCII is no digit
    path = tmp_path / "p.csv"
    for text, message in (("".join(f"{m},{P_ORACLE[m]}\r" for m in range(21)), "line 1: truncated (no line end)"),
                          ("".join(f"{m},{P_ORACLE[m]}\n" for m in range(21)).replace("7", "\u0667"),
                           "line 6: malformed integer")):
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(CacheFormatError) as info:
            cache_load(path)
        assert str(info.value) == f"{path}: {message}"
        assert cache_lookup(path, 20) is None


@pytest.mark.parametrize("n", [0, 5, 10], ids=["first", "middle", "last_read"])
@pytest.mark.parametrize("kind", LINE_DAMAGE)
def test_damage_on_the_line_for_n_refuses_both_readers(tmp_path, kind, n):
    # the invariant the CLI relies on: a lookup that finds no p(n) in a file
    # that holds n sends the call to a whole read, which must raise
    damage, _ = LINE_DAMAGE[kind]
    lines = [f"{m},{P_ORACLE[m]}\n" for m in range(21)]
    lines[n:n + 1] = damage(n)
    if not lines[n].endswith("\n"):  # a line with no line end is the file's last
        del lines[n + 1:]
    path = tmp_path / "p.csv"
    path.write_text("".join(lines), newline="")
    assert cache_lookup(path, n) is None
    with pytest.raises(CacheFormatError, match=f"line {n + 1}: "):
        cache_load(path)


@given(st.sampled_from(sorted(LINE_DAMAGE)), st.integers(2, 80), st.data())
@settings(max_examples=60, deadline=None)
def test_a_lookup_in_a_damaged_file_answers_right_or_not_at_all(kind, max_n, data):
    # one damaged line before the last of p(0..max_n): the whole read raises,
    # and a lookup of any n returns the true p(n) or None
    m = data.draw(st.integers(0, max_n - 1), label="damaged line")
    lines = [f"{k},{P_ORACLE[k]}\n" for k in range(max_n + 1)]
    lines[m:m + 1] = LINE_DAMAGE[kind][0](m)
    if not lines[m].endswith("\n"):  # a line with no line end is the file's last
        del lines[m + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        Path(path).write_text("".join(lines), newline="")
        with pytest.raises(CacheFormatError):
            cache_load(path)
        for n in range(max_n + 3):
            assert cache_lookup(path, n) in (None, P_ORACLE[n]), n


def test_cache_lookup_skips_damage_it_does_not_read(tmp_path):
    # the bisection for the last n reads only the upper half of the file, so
    # damage on line 2 refuses the whole read but not that hit
    path = tmp_path / "p.csv"
    lines = [f"{m},{P_ORACLE[m]}\n" for m in range(21)]
    lines[1] = "1,x\n"
    path.write_text("".join(lines))
    assert cache_lookup(path, 20) == P_ORACLE[20]
    assert cache_lookup(path, 1) is None
    with pytest.raises(CacheFormatError, match="line 2: malformed integer"):
        cache_load(path)


# the calling writer's two stops: ``half``, with half of its table handed to
# its temporary file, and ``whole``, with that file written, before os.replace
_STOPS = threading.local()


class _PausingList(list):
    """A table whose iteration stops at ``_STOPS.half`` halfway through."""

    def __iter__(self):
        for i, v in enumerate(list.__iter__(self)):
            if i == len(self) // 2:
                _STOPS.half.pause()
            yield v


def _replace_at_stop(src, dst, replace=os.replace):
    _STOPS.whole.pause()
    replace(src, dst)


def _write(max_n, path, stops):
    """``cache_save`` p(0..max_n) to ``path``, pausing at both ``stops``."""
    _STOPS.half, _STOPS.whole = stops
    cache = PartitionCache(P_ORACLE[: max_n + 1])
    cache._values = _PausingList(cache._values)
    cache_save(cache, path)


def _write_in_process(max_n, path, stops):
    # one thread ident in every writer: only the pid keeps their temporary names apart
    _thread.get_ident = lambda: 0
    os.replace = _replace_at_stop
    _write(max_n, path, stops)


@pytest.mark.parametrize("kind", ["process", "thread"])
def test_two_writers_never_expose_a_partial_file(kind, tmp_path, monkeypatch):
    # Writers a and b save p(0..600) and p(0..1200) over p(0..300) in a fixed
    # order.  Each stops with half of its table handed to its temporary file,
    # then with that file written, and the test loads the cache at every stop
    # and after each replace.  Writing in place fails the first load.  A
    # temporary name that both writers share makes a's replace publish a file
    # that b also wrote, and b's replace find no file.  Spawned processes
    # share a pinned thread ident, so they catch a name without the pid;
    # threads share one pid, so they catch a name without the thread ident.
    path = tmp_path / "p.csv"
    cache_save(PartitionCache(P_ORACLE[:301]), path)
    if kind == "process":
        spawn = multiprocessing.get_context("spawn")
        event, writer, target = spawn.Event, spawn.Process, _write_in_process
    else:
        monkeypatch.setattr(os, "replace", _replace_at_stop)
        errors = []
        monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_value))
        event, writer, target = threading.Event, threading.Thread, _write
    sizes = (600, 1200)
    stops = [(Stop(event), Stop(event)) for _ in sizes]
    a, b = writers = [writer(target=target, args=(m, str(path), s)) for m, s in zip(sizes, stops)]
    (a_half, a_whole), (b_half, b_whole) = stops
    # each step lets one writer go on, then waits for it at its next stop or its end
    schedule = [
        (a.start, a_half),
        (b.start, b_half),
        (a_half.resume.set, a_whole),
        (b_half.resume.set, b_whole),
        (a_whole.resume.set, a),
        (b_whole.resume.set, b),
    ]
    expected = [PartitionCache(P_ORACLE[: m + 1]) for m in (300, 300, 300, 300, 600, 1200)]
    loads = []
    try:
        for go, then in schedule:
            go()
            if isinstance(then, Stop):
                assert then.reached.wait(WAIT_S), f"no writer reached step {len(loads) + 1}"
            else:
                then.join(WAIT_S)
                assert not then.is_alive(), f"a writer outlived step {len(loads) + 1}"
            loads.append(cache_load(path))
            assert loads == expected[: len(loads)]
    finally:
        for stop in (a_half, a_whole, b_half, b_whole):
            stop.resume.set()
        for w in writers:
            if w.is_alive():
                w.join(WAIT_S)
    if kind == "process":
        assert [w.exitcode for w in writers] == [0, 0]
    else:
        assert errors == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]
