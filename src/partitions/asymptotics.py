"""Leading asymptotic of p(n) and relative-error diagnostics.

L(n) = exp(pi sqrt(2n/3)) / (4 n sqrt(3)) is the leading term;
eps(n) = (p(n) - L(n))/p(n) * 100 is its percentage relative error,
negative and shrinking in magnitude over the reference grid.

tail_ratio_bound gives (2 C pi^2 n / 3) exp(-(pi/2) sqrt(2n/3)) with
C = zeta(3/2) - 1, an upper bound for |p(n) - R_1(n)| / L(n) that decays
to zero.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

from mpmath import mp, mpf

from ._integers import read_int
from .exact import PartitionCache, p_exact
from .precision import DEFAULT_CONTEXT, PrecisionContext, _read_real

# reference grid used by the error table and the CLI `table --set paper`
TABLE_NS = (
    10, 50, 100, 200, 500, 1000, 2000, 3000, 4000, 5000,
    6000, 7000, 8000, 9000, 10000, 12000, 15000,
)


class AsymptoticRow(NamedTuple):
    n: int
    p_n: int
    l_n: mpf
    eps_percent: mpf


def leading_term(n, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """L(n) = exp(pi sqrt(2n/3)) / (4 n sqrt(3))."""
    with ctx.workprec():
        n = _read_real(n, "n")
        if not 1 <= n < math.inf:  # nan fails this too
            raise ValueError("n must be a finite real number >= 1")
        return mp.exp(mp.pi * mp.sqrt(mpf(2) * n / 3)) / (4 * n * mp.sqrt(3))


def error_row(n: int, p_n: int) -> AsymptoticRow:
    """The row (n, p(n), L(n), eps(n)) for a given exact p(n).

    eps is kept at full precision; use :func:`display_eps` for the
    two-decimal presentation.  n and p(n) are positive integers.
    """
    n, p_n = read_int(n, "n"), read_int(p_n, "p_n")
    with DEFAULT_CONTEXT.workprec():
        l_value = leading_term(n)
        eps = (mpf(p_n) - l_value) / mpf(p_n) * 100
    return AsymptoticRow(n=n, p_n=p_n, l_n=l_value, eps_percent=eps)


def relative_error_table(ns, cache: PartitionCache | None = None) -> list[AsymptoticRow]:
    """:func:`error_row` for each n in ``ns``, with p(n) computed on demand in ``cache``."""
    cache = PartitionCache() if cache is None else cache
    return [error_row(n, p_exact(n, cache)) for n in ns]


def display_eps(eps) -> str:
    """Two decimals, ties away from zero (table presentation rounding)."""
    quantized = Decimal(mp.nstr(eps, 30)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return str(quantized)


def error_table_csv(rows) -> str:
    """``rows`` as n,p_n,L_n,eps_percent CSV lines, header first: the CLI's table."""
    lines = [f"{r.n},{r.p_n},{mp.nstr(r.l_n, 20)},{display_eps(r.eps_percent)}" for r in rows]
    return "\n".join(["n,p_n,L_n,eps_percent", *lines])


def zeta_three_halves(ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """zeta(3/2) = 2.6123753486..., correct to the working precision of ``ctx``."""
    with ctx.workprec():
        return mp.zeta(mpf(3) / 2)


def tail_ratio_bound(n, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """(2 C pi^2 n / 3) exp(-(pi/2) sqrt(2n/3)), C = zeta(3/2) - 1."""
    with ctx.workprec():
        n = _read_real(n, "n")
        if not 1 <= n < math.inf:  # nan fails this too
            raise ValueError("n must be a finite real number >= 1")
        c = zeta_three_halves(ctx) - 1
        return 2 * c * mp.pi**2 * n / 3 * mp.exp(-mp.pi / 2 * mp.sqrt(mpf(2) * n / 3))
