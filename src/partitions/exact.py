"""Exact integer partition counts.

The workhorse is Euler's pentagonal-number recurrence

    p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - w1(k)) + p(n - w2(k)) ]

with w1(k) = (3k^2-k)/2, w2(k) = (3k^2+k)/2 and p(m) = 0 for m < 0, which
needs only O(sqrt(n)) previous values per step.  A bounded-parts dynamic
program over the generating product serves as an independent, slower
cross-check at oracle scale.

Values are plain Python ints (arbitrary precision); caches are contiguous
tables p(0..max_n) saved one ``n,p(n)`` line per value, and one check,
``_read_line``, decides a line for both readers of a cache file.
"""

from __future__ import annotations

import _thread
import contextlib
import itertools
import os
from operator import index, sub
from typing import NamedTuple

from ._integers import read_int

# the quadratic-time DP oracle is only meant for cross-checking
ORACLE_LIMIT = 5000
# the recurrence refuses larger n: a cold p_exact took 1.0 s of CPU at 10^5 on one
# vCPU of an AMD EPYC VM (best of 6), and on a Xeon VM had not finished after 300 s
# at 10^6 (its table, about 0.3 n^1.5 bytes, then held 290 MB)
_MAX_N = 10**5
# every byte a cache line may hold
_LINE_BYTES = b"0123456789, \t\r\n"


class PentagonalPair(NamedTuple):
    k: int
    omega1: int
    omega2: int


def pentagonal(k: int) -> PentagonalPair:
    """The pentagonal pair (w1(k), w2(k)) = ((3k^2-k)/2, (3k^2+k)/2)."""
    k = read_int(k, "k")
    w1 = (3 * k * k - k) // 2
    return PentagonalPair(k, w1, w1 + k)


def _signed_pentagonal():
    """Generalised pentagonal numbers w1(1), w2(1), w1(2), ... in increasing
    order, each with the sign of its term in the recurrence (1 for +, 0 for -)."""
    for k in itertools.count(1):
        _, w1, w2 = pentagonal(k)
        yield w1, k & 1
        yield w2, k & 1


class CacheFormatError(ValueError):
    """A partition cache file is malformed (bad integer, gap, wrong order)."""


class PartitionCache:
    """Contiguous table of p(0..max_n), grown on demand.

    The recurrence needs every predecessor, so the table never has holes.
    Single writer; reads are safe once a value exists.
    """

    def __init__(self, values=None):
        vals = [1] if values is None else [index(v) for v in values]
        if not vals or vals[0] != 1:
            raise ValueError("cache must start with p(0) = 1")
        if any(v < 1 for v in vals):
            raise ValueError("partition values are positive")
        self._values = vals

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    def __getitem__(self, n: int) -> int:
        n = index(n)
        if n < 0:  # a negative n would count from the end of the list
            raise IndexError(f"no p({n}) in the table: n must be nonnegative")
        try:
            return self._values[n]
        except IndexError:
            raise IndexError(f"no p({n}) in the table: max_n is {self.max_n}") from None

    def __eq__(self, other):
        if not isinstance(other, PartitionCache):
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        return f"PartitionCache(max_n={self.max_n})"

    def extend_to(self, n: int) -> None:
        """Run the pentagonal recurrence until p(n) is in the table; n < 0 or
        n > ``_MAX_N`` = 10^5 is refused, and a refused n leaves the table unchanged."""
        n = read_int(n, "n", low=0, high=_MAX_N)
        append = self._values.append
        for v in _recurrence(self._values, n):
            append(v)


def _recurrence(vals: list, n: int):
    """Yield p(len(vals)), ..., p(n) by the pentagonal recurrence over the live
    table ``vals``, to which the caller appends each value before it asks for the next.

    The offsets w <= m change only when m reaches the next generalised
    pentagonal number.  Each offset gets one iterator over the live
    table when it first applies, positioned at index m - w (0 on a
    growing table, where m = w), and keeps it for the rest of the call.
    Each run [m, stop) between two pentagonal numbers pulls exactly
    stop - m items from every iterator through ``islice``, which pulls
    nothing past its count, so each ends the run at index stop - w,
    where the next run reads first.  Each p(m) is two C-level sums, one
    per sign, with no Python bytecode per term and no copy of the table.
    """
    m = len(vals)
    offsets = _signed_pentagonal()
    w, odd = next(offsets)
    # largest offset first, so that each sum adds the smallest values first
    plus, minus = [], []
    while m <= n:
        while w <= m:
            (plus if odd else minus).insert(0, _iter_at(vals, m - w))
            w, odd = next(offsets)
        stop = min(w, n + 1)
        # repeat(0) keeps a sign with no offsets yet going, as zeros
        adds, subs = (map(sum, zip(itertools.repeat(0), *its)) for its in (plus, minus))
        yield from itertools.islice(map(sub, adds, subs), stop - m)
        m = stop


def _iter_at(seq: list, i: int):
    """An iterator over ``seq`` that starts at index ``i``, in O(1)."""
    it = iter(seq)
    it.__setstate__(i)
    return it


def p_exact(n: int, cache: PartitionCache | None = None) -> int:
    """p(n) by the pentagonal recurrence, extending ``cache`` through n; a refused n leaves it unchanged."""
    n = read_int(n, "n", low=0)
    cache = PartitionCache() if cache is None else cache
    cache.extend_to(n)
    return cache[n]


def partition_table_dp(n_max: int) -> list[int]:
    """p(0..n_max) by counting bounded-part partitions (coin-style DP).

    One pass per part size m expands the factor 1/(1-x^m) of the generating
    product; O(n^2) big-integer additions overall.  Independent of the
    recurrence path on purpose.
    """
    n_max = read_int(n_max, "n_max", low=0, high=ORACLE_LIMIT)
    table = [0] * (n_max + 1)
    table[0] = 1
    for part in range(1, n_max + 1):
        for m in range(part, n_max + 1):
            table[m] += table[m - part]
    return table


def p_oracle_dp(n: int) -> int:
    return partition_table_dp(n)[n]


def cache_save(cache: PartitionCache, path) -> None:
    """Write ``n,p(n)`` lines, ascending n, UTF-8 with LF endings.

    A temporary file next to ``path`` replaces it in one step, so a failed
    or concurrent write never leaves a partial file.  The file is named for
    the process and the thread, so no two live writers share one.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.{_thread.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{n},{v}\n" for n, v in enumerate(cache._values))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read_line(raw: bytes, n: int | None = None) -> tuple[int, int] | str:
    """(n, p(n)) from the cache line ``raw``, or the first rule it breaks: a line
    end, the 'n,p(n)' shape and integer syntax (ASCII digits, leading zeros, spaces
    and tabs around a field, CRLF; not the vertical tab, form feed, '_', '+' or '-'
    that ``int`` takes), n = ``n`` if given, p(n) >= 1."""
    if raw[-1] != 10:  # 10 is the byte b"\n"
        return "truncated (no line end)"
    # a second comma ends up in ``right`` and a missing one leaves it empty: int() refuses both
    left, _, right = raw.partition(b",")
    try:
        key, value = int(left), int(right)
    except ValueError:
        return "expected 'n,p(n)'" if raw.count(b",") != 1 else "malformed integer"
    if raw.translate(None, _LINE_BYTES):
        return "malformed integer"
    if n is not None and key != n:
        order = "gap in n" if key > n else "n out of order"
        return f"{order} (expected {n}, found {key})"
    if value < 1:
        return "p(n) must be positive"
    return key, value


def cache_load(path) -> PartitionCache:
    """Read a whole cache file: line i must pass :func:`_read_line` with
    n = i - 1, and the error names the first rule it breaks."""
    values = []
    with open(path, "rb") as fh:
        for i, raw in enumerate(fh, 1):
            line = _read_line(raw, i - 1)
            if isinstance(line, str):
                raise CacheFormatError(f"{path}: line {i}: {line}")
            values.append(line[1])
    if not values:
        raise CacheFormatError(f"{path}: empty cache file")
    if values[0] != 1:
        raise CacheFormatError(f"{path}: line 1: p(0) must be 1")
    cache = PartitionCache()
    cache._values = values  # checked line by line above; the constructor would check again
    return cache


def cache_lookup(path, n: int) -> int | None:
    """p(n) from the cache file at ``path``, found by bisection over its bytes.

    n is read by p_exact's rules before the file is opened.  The lines are
    sorted by n, so about log2(file size) lines are read: the probes and
    the line for n; damage on a line it does not read goes unseen.  Each
    line read must pass :func:`_read_line`, as in :func:`cache_load` but for
    the line number, and the value comes from the line for n (p(0) = 1).
    So None means that n lies past the end of a file :func:`cache_load`
    accepts, or that :func:`cache_load` refuses the file and names the fault.
    """
    n = read_int(n, "n", low=0, high=_MAX_N)
    found = None  # p(n) from the line the probe at byte hi read, if that line is for n
    with open(path, "rb") as fh:
        lo, hi = 0, fh.seek(0, os.SEEK_END)
        while lo < hi:
            mid = (lo + hi) // 2
            fh.seek(mid)
            if mid:
                fh.readline()  # on to the first line that starts after byte mid
            raw = fh.readline()
            if not raw:  # mid lies on the last line, so no probe has found a line yet
                hi = mid
                continue
            line = _read_line(raw)
            if isinstance(line, str):
                return None
            key, value = line
            if key < n:
                lo = mid + 1
            else:
                hi, found = mid, value if key == n else None
    return found if n or found == 1 else None
