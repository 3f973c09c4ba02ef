"""Convergent-series evaluation of p(n) with certified rounding.

The series is p(n) = sum_{k>=1} R_k(n) with

    R_k(n) = (pi sqrt(k) / (3 sqrt(2) sqrt(m))) * A_k(n)
             * ((a/k) cosh(a/k) - sinh(a/k)) / a^2,
    m = n - 1/24,  a = alpha(n) = pi sqrt(2m/3),

the hyperbolic form of the derivative expression sqrt(k)/(pi sqrt(2))
* A_k(n) * d/dn (sinh(alpha(n)/k)/sqrt(n - 1/24)).  As 2m = 3a^2/pi^2,
the prefactor is P sqrt(k) with P = pi^2/(3 sqrt(3) a^3); a and P depend
on n alone and are computed once per series, not once per term.  Since R_1
is of size e^alpha / (4 sqrt(3) n), the working precision must cover
alpha*log2(e) bits of integer magnitude before any fractional accuracy is
left over; ``default_precision`` adds 80 guard bits on top of that.

Truncation bound T(n, N) >= |sum_{k>N} R_k(n)|.  For n >= 2 it is
Lehmer's estimate (Johansson, arXiv 1205.5991, eq. 1.8)

    T = 44 pi^2/(225 sqrt 3) N^(-1/2) + pi sqrt 2/75 sqrt(N/(n-1)) sinh(pi sqrt(2n/3)/N).

For n = 1, |A_k| <= k and u cosh u - sinh u <= (u^3/3) cosh u give
|R_k(1)| <= pi^2/(9 sqrt 3) k^(-3/2) cosh(a/k), so T = 2 pi^2/(9 sqrt 3)
N^(-1/2) cosh(a/(N+1)).  T falls as N grows; the series uses the smallest
N with T < 1/4.  T is evaluated in floats, rounded up by a relative 2^-32,
and is +inf where sinh would overflow (it is then far above 1/4).

That N lies in [20, isqrt(n) + 40], the range :func:`terms_needed` bisects.
Lower end: for N <= 19 and n >= 2, T >= C1 N^(-1/2) >= C1/sqrt 19 = 0.2556
> 1/4 with C1 = 44 pi^2/(225 sqrt 3); for n = 1, cosh >= 1 gives T(1, N) >=
2 pi^2/(9 sqrt 3 sqrt 19) = 0.2905.  Upper end: N = isqrt(n) + 40 lies in
(sqrt n + 39, sqrt n + 40], so the first term of T is below C1/sqrt(sqrt n
+ 39), sqrt(N/(n-1)) is at most sqrt((sqrt n + 40)/(n-1)), which falls for
n >= 2, and sinh(pi sqrt(2n/3)/N) < sinh(pi sqrt(2/3)) = 6.4625.  This bound
on T falls as n grows and is 0.2351 at n = 1000, room enough for the 2^-32
rounding; for n < 1000, T evaluated is at most 0.2077 (at n = 2).  At n =
10^9 the range ends at N = 31662, below the ceiling on N, and bisection
evaluates T 15 times to find N = 10364.

Floating-error bound E.  Every term comes from one evaluator, :func:`_term`,
which runs the same statements in hardware floats (:mod:`math`) or on
``mpmath.libmp`` at a width of p bits, rounding to nearest, and returns
the term with its own bound E_k = eps C_k.  Model: each operation used
(arithmetic, sqrt, exp, cos, pi, the one rounding of fsum, and rounding a
value to the term's width) is exact for its computed operands up to a
relative eps.  In floats eps = 2^-50, a 4-ulp margin over the 1-ulp error
glibc's libm documents for exp and cos (arithmetic and sqrt are correctly
rounded, within 2^-53); at p bits eps = 2^(1-p), twice the
correct-rounding bound.  Integers below 2^53 and 2^p convert exactly,
which covers 6l + 1 < 12k.  a and P are computed once,
8 bits above the full width (off by 4.1 and 21 of that width's eps, under
0.02 and 0.09 eps of any term) and rounded to each term's width, so they
are off by at most 1.02 and 1.09 eps.  With S the number of l in Selberg's
sum, to first order in eps:

* A_k = (sqrt(k)/sqrt(3)) sum (-1)^l cos(pi (6l+1)/(6k)) for k >= 3, and
  A_1 = 1, A_2 = (-1)^n exactly, by :func:`selberg_sum`.
  The cosine argument (< 2 pi) is rounded three times (pi, the product, the
  quotient), so each summand is off by (6 pi + 1) eps; fsum rounds the sum
  once, by at most S eps; sqrt(k), sqrt(3), the quotient and the product
  add 4 eps relatively.  With |A_k| <= S sqrt(k/3) (true for k <= 2 too),
  |computed A_k - A_k| <= eps S sqrt(k/3)(6 pi + 6).
* u = a/k is off by 2.1 eps, so e^u by (1 + 2.1u) eps relatively and u -+ 1
  by (3.1u + 1) eps absolutely.  The factor u cosh u - sinh u is computed
  as ((u - 1) e^u + (u + 1)/e^u)/2: each product is off by
  eps (2.1u^2 + 7.2u + 3) e^u, and the factor by eps (2.1u + 6.1)(1 + u) e^u.
* P, sqrt(k) and the three products add 5.1 eps relatively.

So, with u = a/k and 6.1 + 6 pi + 6 + 5.1 < 37,

    E_k = eps C_k,  C_k = 2 P k S (1 + u) e^u (2.1u + 37) / sqrt(3),

bounds |computed R_k - R_k|; the factor 2 absorbs the second-order terms.
C_k is evaluated in log space, as e^u overflows a float for the head terms
from n ~ 7.7e4, and E_k is rounded up and raised to at least e^-700.

The sum.  Each nonzero term is m 2^e with an integer m: a float by frexp,
with a 53-bit m, an mpf from its mantissa and exponent.  The m are added as
one integer at the smallest e, so the partial sum S is exact, and so are
nint(S) and the gap |S - nint(S)|.  E = the sum of the term bounds, added
by math.fsum and rounded up.  selberg_sum's libmp tier keeps libmp's
mpf_sum, for its cosines at one width.

Routing.  Term k runs at the fewest bits p_k = ceil(2 + log2(C_k/B)) with
eps C_k <= B/2, B = (1/4 - T)/(2N) being its share of the slack and the
factor 2 a margin for the floating evaluation of E_k.  Floats count as 51
bits: the term runs in floats if p_k <= 51, else in mpmath at p_k bits,
capped at the full width.  B is a share of the slack, not a fixed size,
because the slack can be small: 3.3e-7 at n = 13312 and 3.8e-9 at
n = 184570.  No term with roots meets floats past u = 700, where e^u
nears overflow: there, with S >= 1 and k = a/u, C_k = 2 pi^2 S (1 + u)
(2.1u + 37) e^u/(9 a^2 u) > 3305 e^u/a^2, and a < 81117 for n <= 10^9,
so log C_k > u - 14.5 > 685; as B <= 1/8, p_k > 2 + 687.5/log 2 > 993,
so p_k >= 994 (measured, the least is 1027, 1247, 1076, 1038 and 1031 at
n = 7.5e4, 1e6, 1e7, 1e8 and 1e9).  A term with no Selberg roots is 0
exactly (A_k = 0), and at any u :func:`p_series` writes it down as 0.0,
0.0 and the floor e^-700 of every bound, rounded up.

Certification: the sum S lies within T + E of p(n).
:func:`p_series` returns nint(S) only if T + E < 1/4 and T + E + gap < 1/2,
gap = |S - nint(S)|, which also gives gap < 1/4; otherwise it raises
:class:`CertificationError`.  Unless a term hits the cap, the bounds sum to
at most N B = (1/4 - T)/2 by construction, so T + E < 1/4, nint(S) = p(n)
and gap < 1/4.  So :func:`p_series` raises only when a term hits the cap,
and there is no retry; measured, the k = 1 term routes 48 or more bits
below the width at every n <= 2e5, and 63 at 10^9.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, from_man_exp, ftwo, mpf_abs, mpf_add, mpf_cos, mpf_div, mpf_exp,
                          mpf_mul, mpf_mul_int, mpf_neg, mpf_nint, mpf_pi, mpf_pow_int, mpf_sqrt, mpf_sub,
                          mpf_sum, normalize, round_nearest as _RND, to_int)

from ._integers import read_int
from .dedekind import _MAX_K, selberg_roots
from .precision import GUARD_BITS, PrecisionContext, DEFAULT_CONTEXT, _read_real

_LN2 = math.log(2)
_ROOT3 = math.sqrt(3)
_LEHMER_C1 = 44 * math.pi**2 / (225 * _ROOT3)
_LEHMER_C2 = math.pi * math.sqrt(2) / 75
# relative margin rounding the float-evaluated bounds upward
_ROUND_UP = 1 + 2.0**-32
# the float tier's eps = 2^-50, written as eps = 2^(1 - p) with p = 51
_FLOAT_BITS = 51
# the series functions refuse larger n, for time: 10^9 takes seconds (117,106 working
# bits; README gives measured times), most of it in selberg_roots' O(k) scans.  Each
# series entry reads n against it, as the float bounds overflow from n ~ 10^308
_MAX_N = 10**9
# the bound of a term with A_k = 0: e^-700, the floor of every bound, rounded up
_ZERO_TERM_BOUND = math.exp(-700) * _ROUND_UP


class SeriesTerm(NamedTuple):
    """Term k: A_k(n) and R_k(n), as float or mpf as the term was computed,
    and ``bound`` >= the error of R_k."""

    k: int
    a_k: mpf | float
    r_k: mpf | float
    bound: float


class SeriesReport(NamedTuple):
    """One certified series evaluation: its width ``prec``, terms, exact partial
    sum, rounded value and error budget (truncation bound T, floating-error bound E)."""

    n: int
    prec: int
    terms: tuple[SeriesTerm, ...]
    partial_sum: mpf
    rounded: int
    gap: mpf
    n_terms_used: int
    truncation_bound: float
    float_error_bound: float


class CertificationError(RuntimeError):
    """The error budget T + E does not certify the rounded partial sum."""


def _alpha_float(n: int) -> float:
    """alpha(n) = pi sqrt((2/3)(n - 1/24)) in floats, for the bounds."""
    return math.pi * math.sqrt(2 / 3 * (n - 1 / 24))


def default_precision(n: int) -> int:
    """The width ``p_series(n)`` runs at and reports as ``prec``: ceil(alpha(n) log2 e)
    bits for the magnitude, plus 80."""
    return math.ceil(_alpha_float(read_int(n, "n", high=_MAX_N)) / _LN2) + 80


def alpha(n, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """alpha(n) = pi sqrt((2/3)(n - 1/24)) for a real n >= 1; positive, increasing in n."""
    with ctx.workprec():
        n = _read_real(n, "n", low=1)
        return mp.pi * mp.sqrt((mpf(2) * n - mpf(1) / 12) / 3)


def _alpha_p(n: int, width: int) -> tuple[mpf, mpf]:
    """alpha(n) and P = pi^2/(3 sqrt(3) alpha^3), on ``mpmath.libmp`` at
    ``width`` + 8 bits, rounding to nearest."""
    bits = width + 8
    m = mpf_sub(from_int(n, bits, _RND), mpf_div(fone, from_int(24), bits, _RND), bits, _RND)  # n - 1/24
    root = mpf_sqrt(mpf_div(mpf_mul_int(m, 2, bits, _RND), from_int(3), bits, _RND), bits, _RND)
    pi = mpf_pi(bits, _RND)
    a = mpf_mul(pi, root, bits, _RND)
    three_root3 = mpf_mul_int(mpf_sqrt(from_int(3), bits, _RND), 3, bits, _RND)
    p = mpf_div(mpf_pow_int(pi, 2, bits, _RND),
                mpf_mul(three_root3, mpf_pow_int(a, 3, bits, _RND), bits, _RND), bits, _RND)
    return mp.make_mpf(a), mp.make_mpf(p)


def _log_c(k: int, s: int, u: float, p: float) -> float:
    """log C_k: term k with S = ``s`` Selberg roots, u = a/k and P = ``p``
    is off by at most E_k = eps C_k; -inf when S = 0, as A_k = 0 exactly."""
    if not s:
        return -math.inf
    return u + math.log(2 * p * k * s * (1 + u) * (2.1 * u + 37) / _ROOT3)


def selberg_sum(k: int, roots: list[int], root_k: float | tuple, bits: int | None) -> float | tuple:
    """A_k(n) from ``roots`` = ``selberg_roots(k, n)`` and ``root_k`` =
    sqrt(k): in floats (:mod:`math`) when ``bits`` is None, else as a raw
    mpmath value (an ``_mpf_`` tuple, as are ``root_k`` and the result)
    computed on ``mpmath.libmp`` at ``bits`` bits, rounding to nearest.
    Both tiers run the same operations in the same order, which the error
    model above counts."""
    if k <= 2:
        # A_1 = 1 and A_2 = (-1)^n exactly: the roots are [0, 1], or [2, 3] for k = 2 and odd n
        one = -1 if roots[0] else 1
        return float(one) if bits is None else from_int(one)
    if bits is None:
        pi = math.pi
        summands = []
        for l in roots:
            c = math.cos(pi * (6 * l + 1) / (6 * k))
            summands.append(-c if l % 2 else c)
        return root_k / _ROOT3 * math.fsum(summands)
    pi = mpf_pi(bits, _RND)
    den = from_int(6 * k)
    summands = []
    for l in roots:
        c = mpf_cos(mpf_div(mpf_mul_int(pi, 6 * l + 1, bits, _RND), den, bits, _RND), bits, _RND)
        summands.append(mpf_neg(c) if l % 2 else c)  # exact: c has at most ``bits`` bits
    root3 = mpf_sqrt(from_int(3), bits, _RND)
    return mpf_mul(mpf_div(root_k, root3, bits, _RND), mpf_sum(summands, bits, _RND), bits, _RND)


def _term(k: int, roots: list[int], a: mpf | float, p: mpf | float, bits: int | None,
          log_c: float) -> SeriesTerm:
    """Term k from Selberg's ``roots``, alpha = ``a`` and P = ``p``, rounded
    to floats and run in :mod:`math` when ``bits`` is None, else rounded to
    ``bits`` and run on ``mpmath.libmp`` at ``bits``, rounding to nearest
    (the same statements in both tiers); and its bound E_k = eps C_k from
    log C_k = ``log_c``, rounded up, +inf above e^700 and at least e^-700."""
    if bits is None:
        a, p = float(a), float(p)
        root_k = math.sqrt(k)
        weight = selberg_sum(k, roots, root_k, None)
        u = a / k
        x = math.exp(u)
        head = p * root_k * weight
        low = (u - 1) * x
        high = (u + 1) / x
        value = head * (low + high) / 2
    else:
        a, p = normalize(*a._mpf_, bits, _RND), normalize(*p._mpf_, bits, _RND)
        root_k = mpf_sqrt(from_int(k), bits, _RND)
        weight = selberg_sum(k, roots, root_k, bits)
        u = mpf_div(a, from_int(k), bits, _RND)
        x = mpf_exp(u, bits, _RND)
        head = mpf_mul(mpf_mul(p, root_k, bits, _RND), weight, bits, _RND)
        low = mpf_mul(mpf_sub(u, fone, bits, _RND), x, bits, _RND)
        high = mpf_div(mpf_add(u, fone, bits, _RND), x, bits, _RND)
        value = mpf_div(mpf_mul(head, mpf_add(low, high, bits, _RND), bits, _RND), ftwo, bits, _RND)
        weight, value = mp.make_mpf(weight), mp.make_mpf(value)
    log_bound = log_c + (1 - (bits or _FLOAT_BITS)) * _LN2
    bound = math.inf if log_bound > 700 else math.exp(max(log_bound, -700)) * _ROUND_UP
    return SeriesTerm(k, weight, value, bound)


def a_k(k: int, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """A_k(n) by Selberg's formula at the width of ``ctx``; real, |A_k(n)| <= k.

    A_1(n) = 1 and A_2(n) = (-1)^n are returned exactly.
    """
    n, k = read_int(n, "n"), read_int(k, "k", high=_MAX_K)
    bits = ctx.bits + GUARD_BITS
    return mp.make_mpf(selberg_sum(k, selberg_roots(k, n), mpf_sqrt(from_int(k), bits, _RND), bits))


def r_k(n: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> SeriesTerm:
    """The k-th series term R_k(n), its A_k(n) weight and its error bound,
    computed at the width of ``ctx``."""
    n, k = read_int(n, "n", high=_MAX_N), read_int(k, "k", high=_MAX_K)
    roots = selberg_roots(k, n)
    width = ctx.bits + GUARD_BITS
    a, p = _alpha_p(n, width)
    return _term(k, roots, a, p, width, _log_c(k, len(roots), float(a) / k, float(p)))


def truncation_bound(n: int, n_terms: int) -> float:
    """T(n, N) >= |sum_{k>N} R_k(n)|, rounded up, for N <= ``_MAX_K``; +inf where sinh overflows."""
    n, n_terms = read_int(n, "n", high=_MAX_N), read_int(n_terms, "N", high=_MAX_K)
    if n == 1:
        a = _alpha_float(1)
        t = 2 * math.pi**2 / (9 * _ROOT3 * math.sqrt(n_terms)) * math.cosh(a / (n_terms + 1))
    else:
        x = math.pi * math.sqrt(2 * n / 3) / n_terms
        if x > 700:
            return math.inf
        t = _LEHMER_C1 / math.sqrt(n_terms) + _LEHMER_C2 * math.sqrt(n_terms / (n - 1)) * math.sinh(x)
    return t * _ROUND_UP


def terms_needed(n: int) -> int:
    """The smallest N with truncation_bound(n, N) < 1/4, by bisection over
    20 <= N <= isqrt(n) + 40, the range proved above."""
    n = read_int(n, "n", high=_MAX_N)
    return 20 + bisect.bisect_left(range(20, math.isqrt(n) + 41), True,
                                   key=lambda n_terms: truncation_bound(n, n_terms) < 0.25)


def _term_bits(log_c: float, log_budget: float, width: int) -> int | None:
    """The fewest bits p with eps C_k <= B/2 for a term with log C_k =
    ``log_c``, B = e^``log_budget``: None (floats) if p <= 51, else p for
    mpmath, at most ``width``."""
    bits = 2 + (log_c - log_budget) / _LN2
    return None if bits <= _FLOAT_BITS else min(width, math.ceil(bits))


def p_series(n: int) -> SeriesReport:
    """Sum the series for p(n) once and certify the rounded integer.

    Everything is fixed by n, which must lie in 1..``_MAX_N`` = 10^9: N =
    ``terms_needed(n)`` terms at a width of ``default_precision(n)`` bits, the
    report's ``prec``, summed exactly; each term runs at the fewest bits whose
    bound fits B = (1/4 - T)/(2N), in floats when their bound does.
    """
    n = read_int(n, "n", high=_MAX_N)
    width = default_precision(n)
    n_terms = terms_needed(n)
    t = truncation_bound(n, n_terms)
    log_budget = math.log((0.25 - t) / (2 * n_terms))
    a, p = _alpha_p(n, width)
    a_float, p_float = float(a), float(p)
    terms = []
    for k in range(1, n_terms + 1):
        roots = selberg_roots(k, n)
        if not roots:  # A_k = 0 exactly: the term is 0 and its bound the floor
            terms.append(SeriesTerm(k, 0.0, 0.0, _ZERO_TERM_BOUND))
            continue
        log_c = _log_c(k, len(roots), a_float / k, p_float)
        term_bits = _term_bits(log_c, log_budget, width)
        if term_bits is None:  # a and P rounded to floats once per series, not once per term
            terms.append(_term(k, roots, a_float, p_float, None, log_c))
        else:
            terms.append(_term(k, roots, a, p, term_bits, log_c))
    parts = []  # each nonzero term as (m, e), worth m 2^e exactly
    for x in (term.r_k for term in reversed(terms) if term.r_k):  # tail first: most additions stay narrow
        if type(x) is float:
            m, e = math.frexp(x)
            parts.append((int(m * 2.0**53), e - 53))
        else:
            sign, m, e, _ = x._mpf_
            parts.append((-m if sign else m, e))
    low = min(e for _, e in parts)  # the k = 1 term is never zero
    total = from_man_exp(sum(m << (e - low) for m, e in parts), low)  # no precision given: exact
    rounded = to_int(mpf_nint(total))
    gap = mp.make_mpf(mpf_abs(mpf_sub(total, from_int(rounded))))
    e = math.fsum(term.bound for term in terms) * _ROUND_UP
    if not (t + e < 0.25 and t + e + gap < 0.5):
        raise CertificationError(
            f"series for n={n} with N={n_terms} terms at {width} bits is not certified: "
            f"T={t:.4g}, E={e:.4g}, gap={mp.nstr(gap, 8)} "
            "(needs T+E < 1/4 and T+E+gap < 1/2)"
        )
    return SeriesReport(
        n=n,
        prec=width,
        terms=tuple(terms),
        partial_sum=mp.make_mpf(total),
        rounded=rounded,
        gap=gap,
        n_terms_used=n_terms,
        truncation_bound=t,
        float_error_bound=e,
    )
