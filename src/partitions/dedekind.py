"""Dedekind sums in exact rational arithmetic, and the integer roots of
Selberg's formula for A_k(n).

The Dedekind sum is

    s(h,k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)),

with the sawtooth ((x)) = x - floor(x) - 1/2 for non-integer x and
((x)) = 0 for integer x.  It depends only on h mod k, satisfies
s(gh, gk) = s(h, k), and s(0, k) = 0.  For coprime h, k >= 1 the
reciprocity law (Apostol, *Modular Functions and Dirichlet Series*, ch. 3)

    s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12

together with s(k,h) = s(k mod h, h) evaluates the sum along Euclid's
algorithm in O(log k) exact Fraction steps.  No floating point is involved.

A_k(n) = sum over 1 <= h <= k, gcd(h,k) = 1 of exp(pi i (s(h,k) - 2nh/k)).
Selberg's formula (proved by Whiteman, Pacific J. Math. 6(1), 1956;
Johansson, arXiv 1205.5991, section 2.2)

    A_k(n) = sqrt(k/3) * sum (-1)^l cos(pi (6l+1)/(6k)),

sums over the 0 <= l < 2k with l(3l+1)/2 = -n (mod k).  Finding those l
(:func:`selberg_roots`) takes integer arithmetic only, and on average about
two of them satisfy the congruence, so a term costs a couple of cosines
instead of phi(k)/2.  The roots depend on n only through n mod k, so for
k <= ``_TABLE_K`` they are read from a per-k table of every residue, built
on first use; above it one pass over k residues finds them.  The floating
sum over the roots, and the error model that counts its operations, live
in :mod:`partitions.rademacher`; this module imports only ``functools``,
``math``, ``operator`` and ``fractions``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

# selberg_roots refuses larger k: above _TABLE_K it scans k residues, which took
# 0.6 s at k = 10^7 on one vCPU of a Xeon VM; the series needs k <= 10364 (n <= 10^9)
_MAX_K = 10**7
# selberg_roots reads k <= _TABLE_K from tables: they serve every term of
# p_series(n) for n <= 5e4 (N = 125) and hold about 0.7 MB in all
_TABLE_K = 128
# -l(3l+1)/2 for l in [0, 2 _TABLE_K): mod k, the n mod k whose table entry holds l
_NEG_PENTAGONAL = [-(l * (3 * l + 1) // 2) for l in range(2 * _TABLE_K)]


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h,k) as an exact Fraction, for any integer h and k >= 1."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    h %= k
    g = math.gcd(h, k)
    h, k = h // g, k // g
    total = Fraction(0)
    sign = 1
    while h:
        # s(h,k) = [s(h,k) + s(k,h)] - s(k mod h, h)
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k = k % h, h
        sign = -sign
    return total


def reciprocity_defect(h: int, k: int) -> Fraction:
    """s(h,k) + s(k,h) - (-1/4 + (h/k + k/h + 1/(hk))/12), exactly.

    Zero for every coprime pair; a check on the exact arithmetic.
    """
    if h < 1 or k < 1:
        raise ValueError("h and k must be positive integers")
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    closed = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12
    return dedekind_sum(h, k) + dedekind_sum(k, h) - closed


@functools.cache
def _root_table(k: int) -> list[list[int]]:
    """k's table, for 1 <= k <= ``_TABLE_K``: entry r lists the l in [0, 2k)
    with l(3l+1)/2 = -r (mod k), ascending."""
    table = [[] for _ in range(k)]
    for l, residue in enumerate(_NEG_PENTAGONAL[:2 * k]):
        table[residue % k].append(l)
    return table


def selberg_roots(k: int, n: int) -> list[int]:
    """The l in [0, 2k) with l(3l+1)/2 = -n (mod k), ascending: the
    summation indices of Selberg's formula for A_k(n); k above ``_MAX_K``
    = 10^7 is refused.

    For k <= ``_TABLE_K`` = 128 they are a copy of entry n mod k of k's
    table, which is built on first use and stored by ``functools.cache``
    only once whole.  Above it, one pass over l in [0, k) finds them all:
    with f(l) = l(3l+1)/2 + n, f(l + k) = f(l) + k(3k+1)/2, which is
    f(l) + k/2 (mod k) for even k and f(l) (mod k) for odd k.  So l + k is
    a root exactly when f(l) is k/2 (even k) or 0 (odd k) mod k.
    """
    # a float or Fraction raises TypeError: n = 3.5 would find no roots
    k, n = operator.index(k), operator.index(n)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > _MAX_K:
        raise ValueError(f"k must be at most {_MAX_K}")
    if k <= _TABLE_K:
        return _root_table(k)[n % k][:]  # a copy, so that a caller cannot change the table
    low, high = [], []
    shift = k // 2 if k % 2 == 0 else 0  # f(l + k) - f(l) mod k
    residue = n % k  # f(l) mod k, for l = 0, 1, ...
    for l in range(k):
        if residue == 0:
            low.append(l)
        if residue == shift:
            high.append(l + k)
        residue = (residue + 3 * l + 2) % k
    return low + high
