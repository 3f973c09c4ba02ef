"""Dedekind eta, the partition generating product, and their transformation
laws checked numerically.

eta(tau) = exp(pi i tau / 12) * prod_{m>=1} (1 - q^m),  q = exp(2 pi i tau),
for tau in the upper half-plane.  F(x) = prod_{m>=1} 1/(1 - x^m) is the
partition generating function, related by eta(tau) = exp(pi i tau/12) /
F(q).  Both products are Euler's function phi(q) = prod_{m>=1} (1 - q^m),
which ``mp.qp(q)`` sums by Euler's pentagonal theorem (the identity behind
the recurrence in :mod:`partitions.exact`) until a term falls below the
working precision.  Its cost grows as tau nears the real axis: at 128 bits
on a 2-vCPU Xeon VM it took 0.12 s at Im tau = 10^-4 and 1.8 s at 10^-5,
and at 10^-6 it raises mpmath's ``NoConvergence`` after 50 terms per
working bit, some 4 s later.  So ``eta`` refuses Im tau < 10^-5 and
``generating_function`` the same |q|, |x| > exp(-2 pi 10^-5), with a
``ValueError`` before any summing.

``verify_eta`` evaluates both sides of the modular transformation

  eta((a tau + b)/(c tau + d))
      = exp(pi i ((a+d)/(12 c) + s(-d, c))) * sqrt(-i (c tau + d)) * eta(tau)

and reports the residual.  ``verify_f_transform`` does the same for the
behaviour of F near a root of unity exp(2 pi i h / k):

  F(w) = exp(pi i s(h,k)) (z/k)^(1/2) exp(pi/(12 z) - pi z/(12 k^2)) F(w')

with w = exp(2 pi i h/k - 2 pi z/k^2), w' = exp(2 pi i H/k - 2 pi/z) and
h H = -1 (mod k), 1 <= H <= k.  The rational phases multiplying the two
sides, (a+d)/(12 c) + s(-d, c) and s(h, k), are kept exact (reduced mod 2)
before any floating call; w and w' themselves are formed in floating
point at the working precision.  For Re z > 0 and c > 0 every square root
argument stays in the right half-plane, so the principal branch is the
correct one throughout.  ``eta_verification_cases`` and ``f_transform_cases``
are the deterministic streams of cases for the two verifiers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from ._integers import read_int
from .dedekind import dedekind_sum
from .precision import DEFAULT_CONTEXT, PrecisionContext, _read_number

# least Im tau that eta accepts (see the module docstring)
_IM_TAU_FLOOR = 1e-5


def exp_i_pi_rational(t, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpc:
    """exp(i*pi*t) for t read exactly by ``Fraction(t)`` (so an mpf raises
    ``TypeError``), reduced mod 2 before evaluation."""
    t = Fraction(t) % 2
    with ctx.workprec():
        return mp.expjpi(_read_number(t))


def generating_function(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """F(x) = prod_{m>=1} 1/(1 - x^m) for finite |x| <= exp(-2 pi 10^-5) (real or complex)."""
    with ctx.workprec():
        x = _read_number(x)
        if not mp.isfinite(x):  # nan passes every comparison below
            raise ValueError("x must be finite")
        if abs(x) >= 1:
            raise ValueError("generating product diverges for |x| >= 1")
        if abs(x) > mp.exp(-2 * mp.pi * _IM_TAU_FLOOR):
            raise ValueError(f"|x| must be at most exp(-2 pi {_IM_TAU_FLOOR:g})")
        return 1 / mp.qp(x)


def eta(tau, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpc:
    """Dedekind eta, exp(pi i tau/12) times Euler's function of exp(2 pi i tau),
    for finite tau with Im tau >= 10^-5."""
    with ctx.workprec():
        tau = mpc(_read_number(tau))
        if not mp.isfinite(tau):  # nan passes every comparison below
            raise ValueError("tau must be finite")
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half-plane")
        if tau.imag < _IM_TAU_FLOOR:
            raise ValueError(f"Im tau must be at least {_IM_TAU_FLOOR:g}")
        return mp.expjpi(tau / 12) * mp.qp(mp.expjpi(2 * tau))


class EtaCheckReport(NamedTuple):
    matrix: tuple[int, int, int, int]
    tau: mpc
    lhs: mpc
    rhs: mpc
    residual: mpf


def verify_eta(matrix, tau, ctx: PrecisionContext = DEFAULT_CONTEXT) -> EtaCheckReport:
    """Two-sided evaluation of the eta transformation law for one case."""
    a, b, c, d = map(index, matrix)
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if c <= 0:
        raise ValueError("c must be positive")
    with ctx.workprec():
        tau = mpc(_read_number(tau))
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half-plane")
        image = (a * tau + b) / (c * tau + d)
        lhs = eta(image, ctx)
        phase = Fraction(a + d, 12 * c) + dedekind_sum(-d, c)
        rhs = exp_i_pi_rational(phase, ctx) * mp.sqrt(-1j * (c * tau + d)) * eta(tau, ctx)
        residual = abs(lhs - rhs)
    return EtaCheckReport((a, b, c, d), tau, lhs, rhs, residual)


def eta_verification_cases(count: int):
    """Deterministic (matrix, tau) stream: determinant-1 matrices with c > 0.
    Each tau comes from float literals: the same at any mpmath precision >= 53 bits."""
    taus = (mpc(0, 1), mpc(0.3, 0.8), mpc(-0.25, 1.1), mpc(0.5, 0.6), mpc(0.7, 1.4), mpc(-0.4, 0.9))
    cases = []
    for j in range(count):
        c = j % 6 + 1
        d = j // 6 + 1
        while math.gcd(c, d) != 1:
            d += 1
        a = pow(d, -1, c) if c > 1 else 1
        b = (a * d - 1) // c
        cases.append(((a, b, c, d), taus[j % len(taus)]))
    return cases


def conjugate_inverse(h: int, k: int) -> int:
    """The unique H with 1 <= H <= k and h*H = -1 (mod k)."""
    h, k = index(h), read_int(k, "k")
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    H = (-pow(h, -1, k)) % k
    return H if H else k


def verify_f_transform(h: int, k: int, z, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """|F(w) - transformed F(w')| for the generating function near
    exp(2 pi i h / k); zero in exact arithmetic."""
    h, k = read_int(h, "h"), index(k)
    if h > k:  # with h >= 1, this refuses k < 1 too
        raise ValueError("need 1 <= h <= k")
    H = conjugate_inverse(h, k)
    with ctx.workprec():
        z = mpc(_read_number(z))
        if not mp.isfinite(z):  # nan passes every comparison below
            raise ValueError("z must be finite")
        if z.real <= 0:
            raise ValueError("Re z must be positive")
        w = mp.exp(2j * mp.pi * h / k - 2 * mp.pi * z / k**2)
        w_far = mp.exp(2j * mp.pi * H / k - 2 * mp.pi / z)
        lhs = generating_function(w, ctx)
        rhs = (
            exp_i_pi_rational(dedekind_sum(h, k), ctx)
            * mp.sqrt(z / k)
            * mp.exp(mp.pi / (12 * z) - mp.pi * z / (12 * k * k))
            * generating_function(w_far, ctx)
        )
        return abs(lhs - rhs)


def f_transform_cases(count: int):
    """Deterministic (h, k, z) stream with Re z > 0; z exact, as tau in
    ``eta_verification_cases``."""
    zs = (mpc(1), mpc(0.5), mpc(1, 0.4), mpc(0.8, -0.3), mpc(1.3, 0.2), mpc(0.6), mpc(0.9, 0.7))
    cases = []
    for j in range(count):
        k = j % 6 + 1
        coprime = [h for h in range(1, k + 1) if math.gcd(h, k) == 1]
        h = coprime[(j // 6) % len(coprime)]
        cases.append((h, k, zs[j % len(zs)]))
    return cases
