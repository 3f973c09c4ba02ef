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
left over; ``default_precision`` adds 64 guard bits on top of that.

Truncation bound T(n, N) >= |sum_{k>N} R_k(n)|.  For n >= 2 it is
Lehmer's estimate (Johansson, arXiv 1205.5991, eq. 1.8)

    T = 44 pi^2/(225 sqrt 3) N^(-1/2) + pi sqrt 2/75 sqrt(N/(n-1)) sinh(pi sqrt(2n/3)/N).

For n = 1, |A_k| <= k and u cosh u - sinh u <= (u^3/3) cosh u give
|R_k(1)| <= pi^2/(9 sqrt 3) k^(-3/2) cosh(a/k), so T = 2 pi^2/(9 sqrt 3)
N^(-1/2) cosh(a/(N+1)).  T falls as N grows; the series uses the smallest
N with T < 1/4.  T is evaluated in floats, rounded up by a relative 2^-32,
and is +inf where sinh would overflow (it is then far above 1/4).

Floating-error bound E.  Each term carries its own bound, set by the
route that computed it; E is their sum plus one rounding of the sum.

Wide terms.  The terms k = 1, 2 and every term routed away from floats
(below) are computed by :func:`r_k` at p = bits + GUARD_BITS.  Model: each
mpmath operation used (arithmetic, integer power, sqrt, pi, exp, cospi) is
exact for its computed operands up to a relative eps = 2^(1-p), twice the
correct-rounding bound; integers below 2^p convert exactly.  To first order
in eps:

* A_k, by Selberg's formula (see :mod:`partitions.dedekind`).  A_1 and A_2
  are exact.  For k >= 3 the sum has S <= 2k summands, one per l at most.
  Each cosine argument (6l+1)/(6k) < 2 is rounded once, so each summand is
  off by (2 pi + 1) eps; the j-th partial sum has modulus <= j, so the
  S - 1 additions add eps (2 + ... + S) <= eps k (2k + 1); sqrt(k/3) is off
  by 3/2 eps relatively and the final product by eps.  With |A_k| <= k,
  |computed A_k - A_k| <= eps k (5/2 + sqrt(k/3)(2k + 4 pi + 3))
  <= eps k sqrt(k/3)(2k + 19).
* a is off by 4.1 eps relatively and P by 21 eps; u = a/k is off by
  5.1 eps, so e^u is off by (1 + 5.1u) eps relatively.  The factor
  u cosh u - sinh u is computed as ((u - 1) e^u + (u + 1)/e^u)/2, so
  each of the two products is off by eps (5.1u^2 + 13.2u + 3) e^u and the
  factor by eps (9.1 + 5.1u)(1 + u) e^u; sqrt(k) and the three products
  add 4 eps.

So, with H = P k^(3/2) (1 + u) e^u bounding the magnitudes that cancel,
P sqrt(k) |A_k| (u cosh u + sinh u),

    bound = 2 eps H (35 + 5.1u + sqrt(k/3)(2k + 19))

bounds |computed R_k - R_k|; the factor 2 absorbs the second-order terms.
It is evaluated in log space, as e^u overflows a float for the head terms
from n ~ 7.7e4, rounded up and raised to at least e^-700.

Float terms.  Term k >= 3 is far smaller than the sum (about e^(a/k)), so
most terms are computed in hardware floats (:mod:`math`) instead.  Model:
each float operation used (arithmetic, sqrt, exp, cos, and rounding an mpf
to float) is exact for its computed operands up to a relative eps = 2^-50.
That is a 4-ulp margin over the 1-ulp error glibc's libm documents for exp
and cos; arithmetic and sqrt are correctly rounded, within 2^-53.  Integers
below 2^53 convert exactly, which covers 6l + 1 < 12k <= 12N.  a and P are
rounded from their full-width values, each off by eps relatively, so n
itself never enters float arithmetic.  With S the number of l in
Selberg's sum:

* A_k = sqrt(k/3) sum (-1)^l cos(pi (6l+1)/(6k)).  The cosine argument
  (< 2 pi) is rounded three times (pi, the product, the quotient), so each
  summand is off by (6 pi + 1) eps; math.fsum rounds the sum once, by at
  most S eps; sqrt(k/3) and the product add 5/2 eps relatively.  With
  |A_k| <= S sqrt(k/3), |computed A_k - A_k| <= eps S sqrt(k/3)(6 pi + 4.5).
* u = a/k is off by 2 eps, so e^u by (1 + 2u) eps relatively and u -+ 1 by
  (3u + 1) eps absolutely; each of (u - 1) e^u and (u + 1)/e^u is off by
  eps (2u^2 + 7u + 3) e^u, and the factor by eps (2u + 6)(1 + u) e^u.
* P, sqrt(k) and the three products add 5 eps relatively.

So, with u = a/k,

    E_k = 2 eps P k S (1 + u) e^u (2u + 35) / sqrt(3)

bounds |computed R_k - R_k|; the factor 2 absorbs the second-order terms
and the rounding of E_k itself.

The sum.  Every term enters mp.fsum exactly: an mpf term has p bits, and a
float is a dyadic rational.  mp.fsum forms the sum S exactly (it drops only
a term over 2p bits below its last bit) and rounds once, by less than
2 eps |S| with eps = 2^(1-p).  So E = the sum of the term bounds + 2 eps |S|,
added by math.fsum and rounded up.

Routing.  Term k >= 3 is computed in floats when E_k <= B = (1/4 - T)/(2N);
otherwise, and whenever u > 700 (e^u would overflow), by :func:`r_k`.  The
float terms' bounds thus take at most half the slack 1/4 - T.  B is a share
of the slack, not a fixed size, because the slack can be small: 3.3e-7 at
n = 13312 and 3.8e-9 at n = 184570.

Certification: the computed sum S lies within T + E of p(n).
:func:`p_series` returns nint(S) only if T + E < 1/4 and T + E + gap < 1/2,
gap = |S - nint(S)|, which also gives gap < 1/4; otherwise it raises
:class:`CertificationError`.  There is no retry: at ``default_precision``
the wide terms' bounds summed to at most 1e-22 (at n = 1) for every
n <= 3000 and 41 n log-spaced up to 10^6, and 2 eps |S| is below 2^-76, far
inside the other half of the slack; so a failure means too few bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .dedekind import a_k, selberg_roots
from .precision import GUARD_BITS, PrecisionContext, DEFAULT_CONTEXT

_LEHMER_C1 = 44 * math.pi**2 / (225 * math.sqrt(3))
_LEHMER_C2 = math.pi * math.sqrt(2) / 75
# relative margin rounding the float-evaluated bounds upward
_ROUND_UP = 1 + 2.0**-32
# E_k = _FLOAT_TERM_C P k S (1 + u) e^u (2u + 35), for the float model's eps = 2^-50
_FLOAT_TERM_C = 2 * 2.0**-50 / math.sqrt(3)


@dataclass(frozen=True)
class SeriesTerm:
    """Term k: A_k(n) and R_k(n), as mpf from :func:`r_k` or as float from
    the float route of :func:`p_series`, and ``bound`` >= the error of R_k."""

    k: int
    a_k: mpf | float
    r_k: mpf | float
    bound: float


@dataclass(frozen=True)
class SeriesReport:
    """One certified series evaluation: terms, partial sum, rounded value,
    and the error budget (truncation bound T, floating-error bound E)."""

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
    """Working bits: ceil(alpha(n) log2 e) for the magnitude, plus 64."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return max(64, math.ceil(_alpha_float(n) / math.log(2)) + 64)


def alpha(n: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """alpha(n) = pi sqrt((2/3)(n - 1/24)); positive, increasing in n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    with ctx.workprec():
        return mp.pi * mp.sqrt((mpf(n) - mpf(1) / 24) * 2 / 3)


@lru_cache(maxsize=1)
def _per_n(n: int, ctx: PrecisionContext) -> tuple[mpf, mpf]:
    """alpha(n) and P = pi^2/(3 sqrt(3) alpha^3) at ``ctx``.

    One entry suffices: :func:`p_series` and the :func:`r_k` calls it makes
    share one (n, ctx), so these are computed once per series.
    """
    a = alpha(n, ctx)
    with ctx.workprec():
        return a, mp.pi**2 / (3 * mp.sqrt(3) * a**3)


def r_k(n: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> SeriesTerm:
    """The k-th series term R_k(n), its A_k(n) weight and its error bound."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    with ctx.workprec():
        weight = a_k(k, n, ctx)
        a, prefactor = _per_n(n, ctx)
        u = a / k
        x = mp.exp(u)
        value = prefactor * mp.sqrt(k) * weight * ((u - 1) * x + (u + 1) / x) / 2
    # bound = 2 eps P k^(3/2) (1 + u) e^u (35 + 5.1u + sqrt(k/3)(2k + 19)), eps = 2^(1-p),
    # raised to at least e^-700 so that it never underflows
    u = float(u)
    log_bound = u + (2 - ctx.bits - GUARD_BITS) * math.log(2) + math.log(
        float(prefactor) * k**1.5 * (1 + u) * (35 + 5.1 * u + math.sqrt(k / 3) * (2 * k + 19))
    )
    bound = math.inf if log_bound > 700 else math.exp(max(log_bound, -700)) * _ROUND_UP
    return SeriesTerm(k, weight, value, bound)


def truncation_bound(n: int, n_terms: int) -> float:
    """T(n, N) >= |sum_{k>N} R_k(n)|, rounded up; +inf where sinh overflows."""
    if n < 1 or n_terms < 1:
        raise ValueError("n and N must be positive integers")
    if n == 1:
        a = _alpha_float(1)
        t = 2 * math.pi**2 / (9 * math.sqrt(3) * math.sqrt(n_terms)) * math.cosh(a / (n_terms + 1))
    else:
        x = math.pi * math.sqrt(2 * n / 3) / n_terms
        if x > 700:
            return math.inf
        t = _LEHMER_C1 / math.sqrt(n_terms) + _LEHMER_C2 * math.sqrt(n_terms / (n - 1)) * math.sinh(x)
    return t * _ROUND_UP


def terms_needed(n: int) -> int:
    """The smallest N with truncation_bound(n, N) < 1/4."""
    n_terms = 1
    while truncation_bound(n, n_terms) >= 0.25:
        n_terms += 1
    return n_terms


def _float_term(n: int, k: int, a: float, p: float, budget: float) -> SeriesTerm | None:
    """Term k >= 3 in floats, with bound E_k, from ``a`` = alpha(n) and ``p`` = P
    rounded to floats; None when E_k > ``budget`` or e^(a/k) would overflow."""
    u = a / k
    if u > 700:
        return None
    roots = selberg_roots(k, n)
    x = math.exp(u)
    bound = _FLOAT_TERM_C * p * k * len(roots) * (1 + u) * x * (2 * u + 35)
    if bound > budget:
        return None
    weight = math.sqrt(k / 3) * math.fsum(
        math.cos(math.pi * (6 * l + 1) / (6 * k)) * (-1 if l % 2 else 1) for l in roots
    )
    return SeriesTerm(k, weight, p * math.sqrt(k) * weight * ((u - 1) * x + (u + 1) / x) / 2, bound)


def p_series(n: int) -> SeriesReport:
    """Sum the series for p(n) once and certify the rounded integer.

    Everything is fixed by n: N = ``terms_needed(n)`` terms, summed at
    ``default_precision(n)`` bits (which rejects n < 1); each term k >= 3
    whose float bound E_k fits B = (1/4 - T)/(2N) is computed in floats.
    """
    bits = default_precision(n)
    n_terms = terms_needed(n)
    ctx = PrecisionContext(bits)
    t = truncation_bound(n, n_terms)
    budget = (0.25 - t) / (2 * n_terms)
    a, prefactor = (float(v) for v in _per_n(n, ctx))
    terms = [
        (_float_term(n, k, a, prefactor, budget) if k >= 3 else None) or r_k(n, k, ctx)
        for k in range(1, n_terms + 1)
    ]
    with ctx.workprec():
        total = mp.fsum(term.r_k for term in terms)
        rounded = int(mp.nint(total))
        gap = abs(total - rounded)
        # the one rounding of mp.fsum, 2 eps |S| with eps = 2^(1-p)
        sum_rounding = float(mp.ldexp(abs(total), 2 - bits - GUARD_BITS))
    e = (math.fsum(term.bound for term in terms) + sum_rounding) * _ROUND_UP
    if not (t + e < 0.25 and t + e + gap < 0.5):
        raise CertificationError(
            f"series for n={n} with N={n_terms} terms at {bits} bits is not certified: "
            f"T={t:.4g}, E={e:.4g}, gap={mp.nstr(gap, 8)} "
            "(needs T+E < 1/4 and T+E+gap < 1/2)"
        )
    return SeriesReport(
        n=n,
        prec=bits,
        terms=tuple(terms),
        partial_sum=total,
        rounded=rounded,
        gap=gap,
        n_terms_used=n_terms,
        truncation_bound=t,
        float_error_bound=e,
    )
