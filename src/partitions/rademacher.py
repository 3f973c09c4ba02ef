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

Floating-error bound E.  Terms and sum are computed at p = bits +
GUARD_BITS.  Model: each mpmath operation used (arithmetic, integer power,
sqrt, pi, cosh, sinh, cospi) is exact for its computed operands up to a
relative eps = 2^(1-p), twice the correct-rounding bound; integers below
2^p convert exactly.  To first order in eps:

* A_k, by Selberg's formula (see :mod:`partitions.dedekind`).  A_1 and A_2
  are exact.  For k >= 3 the sum has S <= 2k summands, one per l at most.
  Each cosine argument (6l+1)/(6k) < 2 is rounded once, so each summand is
  off by (2 pi + 1) eps; the j-th partial sum has modulus <= j, so the
  S - 1 additions add eps (2 + ... + S) <= eps k (2k + 1); sqrt(k/3) is off
  by 3/2 eps relatively and the final product by eps.  With |A_k| <= k,
  |computed A_k - A_k| <= eps k (5/2 + sqrt(k/3)(2k + 4 pi + 3))
  <= eps k sqrt(k/3)(2k + 19).
* a is off by 4.1 eps relatively and P by 21 eps; u = a/k is off by
  5.1 eps, so u cosh u - sinh u is off by eps (3 + 5.1u)(u cosh u + sinh u);
  sqrt(k) and the three products add 4 eps.

So |computed R_k - R_k| <= eps H_k (28 + 5.1 u_k + sqrt(k/3)(2k + 19)),
where H_k = P k^(3/2) (1 + u_k) e^(u_k) bounds the magnitudes that cancel,
P sqrt(k) |A_k| (u_k cosh u_k + sinh u_k); and, each partial sum being at
most sum H_k, the N - 1 additions of the sum add eps (N - 1) sum H_k.  As
k <= N and u_k <= a, with H_N* the value of H_k at k = N, u_k = a,

    E = 2 eps N H_N* (N + 27 + 5.1a + sqrt(N/3)(2N + 19))

bounds the total; the factor 2 absorbs the second-order terms.  E is
evaluated in log space and rounded up.

Certification: the computed sum S lies within T + E of p(n).
:func:`p_series` returns nint(S) only if T + E < 1/4 and T + E + gap < 1/2,
gap = |S - nint(S)|, which also gives gap < 1/4; otherwise it raises
:class:`CertificationError`.  There is no retry: at ``default_precision``
E < 2^-47 for every n up to 10^12, so a failure means too few bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .dedekind import a_k
from .precision import GUARD_BITS, PrecisionContext, DEFAULT_CONTEXT

_LEHMER_C1 = 44 * math.pi**2 / (225 * math.sqrt(3))
_LEHMER_C2 = math.pi * math.sqrt(2) / 75
# relative margin rounding the float-evaluated bounds upward
_ROUND_UP = 1 + 2.0**-32


@dataclass(frozen=True)
class SeriesTerm:
    k: int
    a_k: mpf
    r_k: mpf


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


def default_precision(n: int) -> int:
    """Working bits: ceil(alpha(n) log2 e) for the magnitude, plus 64."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    a = math.pi * math.sqrt(2.0 / 3.0 * (n - 1.0 / 24.0))
    return max(64, math.ceil(a / math.log(2)) + 64)


def alpha(n: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """alpha(n) = pi sqrt((2/3)(n - 1/24)); positive, increasing in n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    with ctx.workprec():
        return mp.pi * mp.sqrt((mpf(n) - mpf(1) / 24) * 2 / 3)


@lru_cache(maxsize=1)
def _per_n(n: int, ctx: PrecisionContext) -> tuple[mpf, mpf]:
    """alpha(n) and P = pi^2/(3 sqrt(3) alpha^3) at ``ctx``.

    One entry suffices: :func:`p_series` asks :func:`r_k` for every term
    with the same (n, ctx), so these are computed once per series.
    """
    a = alpha(n, ctx)
    with ctx.workprec():
        return a, mp.pi**2 / (3 * mp.sqrt(3) * a**3)


def r_k(n: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> SeriesTerm:
    """The k-th series term R_k(n) together with its A_k(n) weight."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    with ctx.workprec():
        weight = a_k(k, n, ctx)
        a, prefactor = _per_n(n, ctx)
        u = a / k
        value = prefactor * mp.sqrt(k) * weight * (u * mp.cosh(u) - mp.sinh(u))
        return SeriesTerm(k, weight, value)


def truncation_bound(n: int, n_terms: int) -> float:
    """T(n, N) >= |sum_{k>N} R_k(n)|, rounded up; +inf where sinh overflows."""
    if n < 1 or n_terms < 1:
        raise ValueError("n and N must be positive integers")
    if n == 1:
        a = math.pi * math.sqrt(2 / 3 * (1 - 1 / 24))
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


def _float_error_bound(n: int, n_terms: int, bits: int) -> float:
    """E >= |computed - exact| for the sum of R_1..R_N at bits + GUARD_BITS."""
    a = math.pi * math.sqrt(2 / 3 * (n - 1 / 24))
    coeff = n_terms + 27 + 5.1 * a + math.sqrt(n_terms / 3) * (2 * n_terms + 19)
    log_e = (1 - bits - GUARD_BITS) * math.log(2) + math.log1p(a) + a + math.log(
        2 * math.pi**2 * n_terms**2.5 * coeff / (3 * math.sqrt(3) * a**3)
    )
    return math.inf if log_e > 700 else math.exp(log_e) * _ROUND_UP


def p_series(n: int) -> SeriesReport:
    """Sum the series for p(n) once and certify the rounded integer.

    Everything is fixed by n: N = ``terms_needed(n)`` terms, summed at
    ``default_precision(n)`` bits (which rejects n < 1).
    """
    bits = default_precision(n)
    n_terms = terms_needed(n)
    ctx = PrecisionContext(bits)
    terms = tuple(r_k(n, k, ctx) for k in range(1, n_terms + 1))
    with ctx.workprec():
        total = mpf(0)
        for term in terms:  # fixed ascending order for reproducibility
            total += term.r_k
        rounded = int(mp.nint(total))
        gap = abs(total - rounded)
    t = truncation_bound(n, n_terms)
    e = _float_error_bound(n, n_terms, bits)
    if not (t + e < 0.25 and t + e + gap < 0.5):
        raise CertificationError(
            f"series for n={n} with N={n_terms} terms at {bits} bits is not certified: "
            f"T={t:.4g}, E={e:.4g}, gap={mp.nstr(gap, 8)} "
            "(needs T+E < 1/4 and T+E+gap < 1/2)"
        )
    return SeriesReport(
        n=n,
        prec=bits,
        terms=terms,
        partial_sum=total,
        rounded=rounded,
        gap=gap,
        n_terms_used=n_terms,
        truncation_bound=t,
        float_error_bound=e,
    )
