import hashlib
import json
import math
import random
from contextlib import nullcontext
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import FunctionType, SimpleNamespace

import pytest
from mpmath import iv, mp, mpf

from partitions.dedekind import selberg_roots
from partitions.exact import PartitionCache, p_exact
from partitions.precision import PrecisionContext
from partitions.rademacher import (
    CertificationError,
    a_k,
    alpha,
    default_precision,
    p_series,
    r_k,
    selberg_sum,
    terms_needed,
    truncation_bound,
)
from partitions.precision import GUARD_BITS, MAX_BITS
from partitions.rademacher import _FLOAT_BITS, _ROUND_UP, _alpha_p, _log_c, _term, _term_bits

CTX = PrecisionContext(128)


def test_alpha_n1():
    with CTX.workprec():
        expected = mp.pi * mp.sqrt(23) / 6
        assert abs(alpha(1, CTX) - expected) < mpf(2) ** -100


def test_alpha_monotone():
    assert alpha(2, CTX) > alpha(1, CTX)
    with CTX.workprec():
        expected = mp.pi * mp.sqrt(2 * (mpf(100) - mpf(1) / 24) / 3)
        assert abs(alpha(100, CTX) - expected) < mpf(2) ** -90


def test_alpha_rejects_zero():
    # and nan, which passes n < 1, and the other non-finite or sub-1 reals
    for n, rule in ((0, "at least 1"), (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
                    (0.5, "at least 1")):
        with pytest.raises(ValueError, match=f"^n must be {rule}$"):
            alpha(n, CTX)


def test_alpha_at_a_real_n():
    # a real n, which libmp's from_int would truncate to an integer, and the
    # rationals that leading_term and tail_ratio_bound take too
    with CTX.workprec():
        expected = mp.pi * mp.sqrt(mpf(2) / 3 * (mpf(1.5) - mpf(1) / 24))
        for n in (1.5, Fraction(3, 2), Decimal("1.5")):
            assert abs(alpha(n, CTX) - expected) < mpf(2) ** -100, n


def test_default_precision_policy():
    assert default_precision(1) >= 64
    assert default_precision(10_000) > default_precision(100) > 64
    # the widths README and _MAX_N's comment cite
    assert default_precision(10**8) == 37087
    assert default_precision(10**9) == 117106


@pytest.mark.parametrize("n", [0, -3])
def test_default_precision_rejects_nonpositive(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        default_precision(n)


def test_r1_positive():
    for n in range(1, 101):
        term = r_k(n, 1, CTX)
        assert term.a_k == 1
        assert term.r_k > 0


def test_r_k_term_bound():
    # |R_k(n)| <= (pi^2 / (6 sqrt 3)) k^{-3/2} exp(alpha(n)/k)
    with CTX.workprec():
        lead = mp.pi**2 / (6 * mp.sqrt(3))
        for n in (1, 10, 50, 200):
            ctx = PrecisionContext(max(128, default_precision(n)))
            a = alpha(n, ctx)
            for k in range(1, 51):
                term = r_k(n, k, ctx)
                bound = lead * mpf(k) ** mpf("-1.5") * mp.exp(a / k)
                assert abs(term.r_k) <= bound


def _r_k_derivative_form(n, k, ctx):
    """sqrt(k)/(pi sqrt 2) * A_k * d/dn [sinh(alpha(n)/k)/sqrt(n - 1/24)],
    written out via the chain rule; an independent expression of the term."""
    with ctx.workprec():
        m = mpf(n) - mpf(1) / 24
        c = mp.pi * mp.sqrt(mpf(2) / 3)
        u = c * mp.sqrt(m) / k
        derivative = c * mp.cosh(u) / (2 * k * m) - mp.sinh(u) / (2 * m ** mpf("1.5"))
        return a_k(k, n, ctx) * mp.sqrt(k) / (mp.pi * mp.sqrt(2)) * derivative


def test_r_k_matches_derivative_form():
    tol = mpf(2) ** -64
    with CTX.workprec():
        for n in (1, 7, 50, 300):
            for k in (1, 2, 3, 5, 13):
                direct = r_k(n, k, CTX).r_k
                alt = _r_k_derivative_form(n, k, CTX)
                scale = max(abs(direct), mpf(1))
                assert abs(direct - alt) / scale < tol


def test_p_series_small_values():
    cache = PartitionCache()
    for n in range(1, 21):
        report = p_series(n)
        assert report.rounded == p_exact(n, cache)
        assert report.gap < 0.25
        assert report.n_terms_used == len(report.terms)
    with pytest.raises(AttributeError):
        report.rounded = 0
    with pytest.raises(AttributeError):
        report.terms[0].bound = 0.0


def test_p_series_known_values():
    assert p_series(7).rounded == 15
    assert p_series(100).rounded == 190569292
    assert p_series(1000).rounded == 24061467864032622473692149727991


def test_p_series_last_term_is_small():
    report = p_series(100)
    assert abs(report.terms[-1].r_k) < mpf("1e-3")


def _at_bits(monkeypatch, bits):
    """Make p_series work at ``bits`` instead of default_precision(n)."""
    monkeypatch.setattr("partitions.rademacher.default_precision", lambda n: bits)


def test_p_series_precision_robustness(monkeypatch):
    base = default_precision(50)
    for bits in (2 * base, 4 * base):
        _at_bits(monkeypatch, bits)
        report = p_series(50)
        assert report.prec == bits
        assert report.rounded == p_exact(50)


def test_p_series_validation():
    with pytest.raises(ValueError):
        p_series(0)
    with pytest.raises(TypeError):
        p_series(100.0)


def test_low_precision_raises_instead_of_guessing(monkeypatch):
    # 64 bits cannot hold p(1000) ~ 2^104: E exceeds the budget, no integer comes back
    _at_bits(monkeypatch, 64)
    with pytest.raises(CertificationError) as info:
        p_series(1000)
    message = str(info.value)
    assert "T=" in message and "E=" in message and "gap=" in message
    # below the default, every precision either certifies the right integer or raises
    for n in (100, 1000):
        for bits in range(64, default_precision(n) + 1, 8):
            _at_bits(monkeypatch, bits)
            try:
                assert p_series(n).rounded == p_exact(n)
            except CertificationError:
                pass


def test_truncation_bound_hand_value():
    # 44 pi^2/(225 sqrt 3)/sqrt 10 + pi sqrt 2/75 sqrt(10/99) sinh(pi sqrt(200/3)/10)
    exact = 0.474049655066703995
    t = truncation_bound(100, 10)
    assert exact <= t <= exact * (1 + 1e-9)


def test_truncation_bound_n1_own_bound():
    # T(1, N) = 2 pi^2/(9 sqrt 3) N^(-1/2) cosh(a/(N+1)), a = alpha(1)
    with CTX.workprec():
        a = alpha(1, CTX)
        for n_terms in (1, 5, 26):
            exact = 2 * mp.pi**2 / (9 * mp.sqrt(3) * mp.sqrt(n_terms)) * mp.cosh(a / (n_terms + 1))
            assert exact <= truncation_bound(1, n_terms) <= exact * (1 + mpf("1e-9"))
    report = p_series(1)
    assert report.rounded == 1
    assert report.n_terms_used == terms_needed(1)
    assert report.truncation_bound < 0.25


def test_truncation_bound_decreasing_in_n_terms():
    for n in (1, 2, 50, 1000, 10**5):
        values = [truncation_bound(n, n_terms) for n_terms in range(1, 400)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


def test_terms_needed_is_minimal():
    for n in (1, 2, 3, 10, 100, 1000, 2000, 10**4):
        n_terms = terms_needed(n)
        assert truncation_bound(n, n_terms) < 0.25 <= truncation_bound(n, n_terms - 1)
    for n in (1, 10, 1000):
        assert p_series(n).n_terms_used == terms_needed(n)
    # terms_needed doubles N and halves the last interval: it finds the N of
    # the walk up from N = 1, which only holds as T falls as N grows
    rng = random.Random(20261019)
    for n in (13312, 184570, 10**7, 10**9, *(rng.randrange(1, 10**9 + 1) for _ in range(100))):
        n_terms = terms_needed(n)
        assert truncation_bound(n, n_terms) < 0.25 <= truncation_bound(n, n_terms - 1), n
        walk = 1
        while truncation_bound(n, walk) >= 0.25:
            walk += 1
        assert n_terms == walk, n


def test_terms_needed_evaluates_few_bounds(monkeypatch):
    # 28 evaluations of T at the ceiling, where the walk up from N = 1 takes 10,364
    calls = []

    def counted(n, n_terms):
        calls.append(n_terms)
        return truncation_bound(n, n_terms)

    monkeypatch.setattr("partitions.rademacher.truncation_bound", counted)
    assert terms_needed(10**9) == 10364
    assert 0 < len(calls) <= 30


def test_terms_needed_large_n_does_not_overflow():
    # sinh(pi sqrt(2n/3)/N) overflows a float at N = 1 from n ~ 7.6e4 on
    assert truncation_bound(10**6, 1) == math.inf
    for n in (10**5, 10**6):
        n_terms = terms_needed(n)
        assert truncation_bound(n, n_terms) < 0.25 <= truncation_bound(n, n_terms - 1)
    assert terms_needed(10**5) < terms_needed(10**6) < 1000


def test_truncation_bound_validation():
    with pytest.raises(ValueError):
        truncation_bound(0, 1)
    with pytest.raises(ValueError):
        truncation_bound(1, 0)
    # N has the ceiling on k, rather than an OverflowError in float arithmetic
    for n in (1, 100):
        for n_terms in (10**7 + 1, 10**400):
            with pytest.raises(ValueError, match="^N must be at most 10000000$"):
                truncation_bound(n, n_terms)
        assert type(truncation_bound(n, 10**7)) is float


def test_float_error_bound_covers_double_precision_rerun():
    for n in (1, 7, 100, 1000, 3000):
        report = p_series(n)
        ctx2 = PrecisionContext(2 * report.prec)
        rerun = [r_k(n, k, ctx2) for k in range(1, report.n_terms_used + 1)]
        with ctx2.workprec():
            total = mp.fsum(term.r_k for term in rerun)
            diff = abs(report.partial_sum - total)
            # the rerun carries its own, far smaller, error bound: its terms' and one rounding
            rounding = abs(total) * mpf(2) ** (2 - ctx2.bits - GUARD_BITS)
        assert diff <= report.float_error_bound + math.fsum(term.bound for term in rerun) + rounding


@pytest.mark.parametrize("n", [7, 1000, 13312, 184570])
def test_error_bound_is_the_sum_of_term_bounds(n):
    # E = the terms' own bounds, as the sum of the terms is exact
    report = p_series(n)
    assert report.float_error_bound == math.fsum(term.bound for term in report.terms) * _ROUND_UP
    t = report.truncation_bound
    assert all(0 <= term.bound <= (0.25 - t) / (2 * report.n_terms_used) for term in report.terms)


def test_float_terms_within_their_bounds():
    # the one evaluator in both tiers, floats and mpmath, against r_k at twice the bits
    tiers = set()
    for n in (7, 1000, 13312, 184570, 10**5):
        report = p_series(n)
        ctx2 = PrecisionContext(2 * report.prec)
        a, p = _alpha_p(n, report.prec)
        budget = (0.25 - report.truncation_bound) / (2 * report.n_terms_used)
        for term in report.terms:
            k = term.k
            roots = selberg_roots(k, n)
            log_c = _log_c(k, len(roots), float(a) / k, float(p))
            # any width: the bound holds for every k, not only at the route p_series took
            computed = [term, _term(k, roots, a, p, 64, log_c)]
            if float(a) / k <= 700:
                computed.append(_term(k, roots, a, p, None, log_c))
            reference = r_k(n, k, ctx2)
            for value in computed:
                with ctx2.workprec():
                    assert abs(mpf(value.r_k) - reference.r_k) <= value.bound + reference.bound, (n, k)
                    assert abs(mpf(value.a_k) - reference.a_k) <= 2.0**-40 * k, (n, k)
            assert term.bound <= budget, (n, k)
            tiers.add(type(term.r_k))
        assert sum(isinstance(term.r_k, float) for term in report.terms) > len(report.terms) // 2, n
    assert tiers == {float, mpf}


def _fraction(x):
    """A float or finite mpf, exactly."""
    if isinstance(x, float):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * (Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp))


def _enclosure(n, k, roots, bits):
    """R_k(n) and A_k(n), each as the two ends of an interval that holds it
    (Fractions), by mpmath.iv at ``bits`` bits from n, k and Selberg's
    ``roots`` of k alone:

        R_k = pi sqrt(k) / (3 sqrt(2) sqrt(m)) A_k (u cosh u - sinh u) / a^2,
        A_k = sqrt(k/3) sum (-1)^l cos(pi (6l + 1)/(6k)),
        m = n - 1/24, a = pi sqrt(2m/3), u = a/k,

    with u cosh u - sinh u as ((u - 1) e^u + (u + 1) e^-u)/2, as iv has no
    cosh or sinh. This uses neither libm nor the error model; its one
    premise is that iv's functions return enclosures."""
    saved, iv.prec = iv.prec, bits
    try:
        m = iv.mpf(n) - iv.mpf(1) / 24
        a = iv.pi * iv.sqrt(2 * m / 3)
        weight = iv.sqrt(iv.mpf(k) / 3) * sum(
            (-1) ** l * iv.cos(iv.pi * (6 * l + 1) / (6 * k)) for l in roots
        )
        u = a / k
        e = iv.exp(u)
        value = iv.pi * iv.sqrt(k) / (3 * iv.sqrt(2) * iv.sqrt(m)) * weight * ((u - 1) * e + (u + 1) / e) / 2 / a**2
        return [tuple(_fraction(mp.make_mpf(end)) for end in x._mpi_) for x in (value, weight)]
    finally:
        iv.prec = saved


def _off_by_at_most(computed, ends, bound):
    """|computed - x| <= bound for every x between the two ``ends``."""
    return max(abs(_fraction(computed) - end) for end in ends) <= Fraction(bound)


@pytest.mark.parametrize("n", [7, 1000, 13312, 184570, 10**6])
def test_terms_and_sum_within_their_bounds_of_interval_enclosures(n):
    # each term against an enclosure at the full working width + 64 bits, at
    # least as tight as one at the term's own width, and the exact sum against
    # the sum of the enclosures, within E = the terms' bounds
    report = p_series(n)
    bits = report.prec + 64
    low = high = 0
    for term in report.terms:
        (r_low, r_high), _ = _enclosure(n, term.k, selberg_roots(term.k, n), bits)
        assert _off_by_at_most(term.r_k, (r_low, r_high), term.bound), (n, term.k)
        low, high = low + r_low, high + r_high
    assert _off_by_at_most(report.partial_sum, (low, high), report.float_error_bound)


def test_widest_terms_within_their_bounds_of_interval_enclosures():
    # the head terms of n = 10^8, at 37,087 bits by default_precision, the
    # widest the suite encloses
    n = 10**8
    report = p_series(n)
    assert report.prec == 37087
    for term in report.terms[:2]:
        (r_low, r_high), _ = _enclosure(n, term.k, selberg_roots(term.k, n), report.prec + 64)
        assert _off_by_at_most(term.r_k, (r_low, r_high), term.bound), term.k


@pytest.mark.parametrize("bits", [64, 128, 256, 1024, 4096])
def test_a_k_within_its_model_bound_of_interval_enclosures(bits):
    # a_k at the context's width p = bits + GUARD_BITS is off by at most
    # eps S sqrt(k/3) (6 pi + 6) to first order, eps = 2^(1 - p); the factor
    # 2 absorbs the second-order terms, as in C_k
    eps = Fraction(2) ** (1 - bits - GUARD_BITS)
    ctx = PrecisionContext(bits)
    for k, n in ((1, 7), (2, 7), (3, 2), (6, 4), (25, 24), (49, 47), (121, 116), (1000, 1000),
                 (9999, 123457), (5**2 * 7**2 * 11**2, 6742)):
        roots = selberg_roots(k, n)
        _, ends = _enclosure(n, k, roots, bits + GUARD_BITS + 64)
        bound = 2 * eps * len(roots) * Fraction(math.sqrt(k / 3) * (6 * math.pi + 6) * _ROUND_UP)
        assert _off_by_at_most(a_k(k, n, ctx), ends, bound), (bits, k, n)


class _Running:
    """A value and a first-order bound on its error, for running error
    analysis (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 3.3) under the error model of partitions.rademacher: each operation
    returns its exact result for the computed operands, off by a relative
    ``eps``; negation is exact, and so is an int operand."""

    def __init__(self, value, error, eps):
        self.value, self.error, self.eps = mpf(value), mpf(error), eps

    def _rounded(self, value, error):
        return _Running(value, error + self.eps * abs(value), self.eps)

    def _of(self, x):
        return x if isinstance(x, _Running) else _Running(x, 0, self.eps)

    def __add__(self, other):
        other = self._of(other)
        return self._rounded(self.value + other.value, self.error + other.error)

    def __sub__(self, other):
        return self + -self._of(other)

    def __mul__(self, other):
        other = self._of(other)
        return self._rounded(self.value * other.value,
                             abs(self.value) * other.error + abs(other.value) * self.error)

    def __truediv__(self, other):
        other = self._of(other)
        value = self.value / other.value
        return self._rounded(value, (self.error + abs(value) * other.error) / abs(other.value))

    def __neg__(self):
        return _Running(-self.value, self.error, self.eps)

    def __pos__(self):  # +pi: the constant, rounded once already
        return self


def _running_term(k, roots, a, p, bits, eps):
    """R_k as a _Running pair, from _term_in_context's own statements in
    the tier of ``bits`` (None for floats), with ``math`` or ``mp`` in them
    replaced by pairs: pi, sqrt, cos, exp and fsum round once each, and so
    does ``float`` or ``mpf``, which rounds a and P to the term's width from
    their 0.02 and 0.09 eps off at the full width + 8 bits."""
    rounded = _Running(0, 0, eps)._rounded

    def real(x):
        return rounded(x.value, x.error) if isinstance(x, _Running) else _Running(x, 0, eps)

    lib = SimpleNamespace(
        pi=rounded(mp.pi, 0), mpf=real, workprec=lambda bits: nullcontext(),
        sqrt=lambda i: rounded(mp.sqrt(i), 0),
        cos=lambda x: rounded(mp.cos(x.value), abs(mp.sin(x.value)) * x.error),
        exp=lambda x: rounded(mp.exp(x.value), mp.exp(x.value) * x.error),
        fsum=lambda xs: rounded(mp.fsum(x.value for x in xs), mp.fsum(x.error for x in xs)),
    )
    statements = FunctionType(_term_in_context.__code__,
                              {**globals(), "math": lib, "float": real, "mp": lib, "mpf": real})
    _, value = statements(k, roots, _Running(a, 0.02 * eps * a, eps), _Running(p, 0.09 * eps * p, eps), bits)
    return value


@pytest.mark.parametrize("n", [2, 7, 30, 100, 1000, 13312, 50000, 184570])
def test_running_error_within_half_the_model_bound(n):
    # the first-order error of each term with roots, by running error analysis
    # under the error model, is at most eps C_k/2 (C_k doubles it to absorb the
    # second-order terms): in floats where u <= 700, eps = 2^-50, and on libmp
    # at the bits p_series would give the term there (51 for a float term),
    # eps = 2^(1 - p). This checks the algebra from the model to C_k, which the
    # interval enclosures, measuring real errors far below C_k, do not
    n_terms = terms_needed(n)
    width = default_precision(n)
    log_budget = math.log((0.25 - truncation_bound(n, n_terms)) / (2 * n_terms))
    a, p = _alpha_p(n, width)
    checked = 0
    for k in range(1, n_terms + 1):
        roots = selberg_roots(k, n)
        if not roots:
            continue
        u = float(a) / k
        log_c = _log_c(k, len(roots), u, float(p))
        for bits in (_term_bits(log_c, log_budget, width) or _FLOAT_BITS, *([None] if u <= 700 else [])):
            eps = mpf(2) ** (1 - (bits or _FLOAT_BITS))
            error = _running_term(k, roots, a, p, bits, eps).error
            assert error <= eps * mp.exp(log_c) / 2, (n, k, bits, error / (eps * mp.exp(log_c) / 2))
            checked += 1
    assert checked > n_terms // 2


def test_float_term_declines_where_exp_overflows():
    # past u = 700 e^u nears a float's overflow, and the module docstring's bound
    # routes every term with roots there to at least 994 bits: checked with S = 1,
    # the least log C_k, by the routing functions alone, so 10^9 runs no series
    for n in (75_000, 10**6, 10**7, 10**8, 10**9):
        n_terms = terms_needed(n)
        width = default_precision(n)
        log_budget = math.log((0.25 - truncation_bound(n, n_terms)) / (2 * n_terms))
        a, p = (float(x) for x in _alpha_p(n, width))
        ks = [k for k in range(1, n_terms + 1) if a / k > 700]
        assert ks, n
        for k in ks:
            assert _term_bits(_log_c(k, 1, a / k, p), log_budget, width) >= 994, (n, k)
    a = float(alpha(10**6, CTX))
    assert all(not isinstance(term.r_k, float) for term in p_series(10**6).terms
               if a / term.k > 700 and selberg_roots(term.k, 10**6))


def test_every_term_routes_32_bits_below_the_width():
    # with the sum exact, p_series raises only where a term hits the width
    # (module docstring): every mpmath term at n <= 600, at the n of least
    # slack, at 10^5 and at 10^6, and k = 1, the widest, up to the ceiling,
    # route 32 or more bits below it; a float term has no cap (measured: 48
    # bits below at n = 184570, the least, and 63 to 66 at 10^7..10^9)
    for n, ks in [*((n, None) for n in (*range(1, 601), 6742, 7798, 13312, 184570, 10**5, 10**6)),
                  *((n, [1]) for n in (10**7, 10**8, 10**9))]:
        width = default_precision(n)
        n_terms = terms_needed(n)
        log_budget = math.log((0.25 - truncation_bound(n, n_terms)) / (2 * n_terms))
        a, p = (float(x) for x in _alpha_p(n, width))
        for k in ks or range(1, n_terms + 1):
            roots = selberg_roots(k, n)
            if roots:
                bits = _term_bits(_log_c(k, len(roots), a / k, p), log_budget, width)
                assert bits is None or bits <= width - 32, (n, k, bits, width)


def test_every_term_in_floats_is_not_certified(monkeypatch):
    # routing the wide head terms to floats too must fail loudly, not round a wrong sum;
    # alpha(5 10^4) = 573.6, so every u <= 700 and e^u is a float
    monkeypatch.setattr("partitions.rademacher._term_bits", lambda log_c, log_budget, width: None)
    with pytest.raises(CertificationError):
        p_series(5 * 10**4)


def test_head_term_at_64_bits_is_not_certified(monkeypatch):
    # one head term at too few bits must fail loudly too: k = 1 at 64 bits at n = 10^6
    term_bits = _term_bits
    calls = []

    def head_at_64(log_c, log_budget, width):
        calls.append(log_c)
        return 64 if len(calls) == 1 else term_bits(log_c, log_budget, width)

    monkeypatch.setattr("partitions.rademacher._term_bits", head_at_64)
    with pytest.raises(CertificationError):
        p_series(10**6)


def test_zero_weight_terms_are_the_float_evaluators():
    # p_series skips the evaluator for A_k = 0 (no Selberg roots); where u <= 700
    # each such term must be bit for bit what _term returns for it in floats
    skipped = 0
    for n in (*range(1, 301), 6742, 13312, 184570, 999_999):
        report = p_series(n)
        a, p = _alpha_p(n, report.prec)
        for term in report.terms:
            u = float(a) / term.k
            if u > 700 or selberg_roots(term.k, n):
                continue
            expected = _term(term.k, [], float(a), float(p), None, _log_c(term.k, 0, u, float(p)))
            got = (type(term.a_k), term.a_k.hex(), type(term.r_k), term.r_k.hex(), term.bound)
            assert got == (float, expected.a_k.hex(), float, expected.r_k.hex(), expected.bound), (n, term.k)
            skipped += 1
    assert skipped > 1000
    # above u = 700 e^u is no float, but a term with no roots is written down the same
    n = 10**7
    assert not selberg_roots(7, n) and float(alpha(n, CTX)) / 7 > 700
    term = p_series(n).terms[6]
    assert (term.k, type(term.a_k), term.a_k, type(term.r_k), term.r_k) == (7, float, 0.0, float, 0.0)
    assert term.bound == math.exp(-700) * _ROUND_UP


def _exact(x):
    """A float or mpf as the Fraction it is worth."""
    if type(x) is float:
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@pytest.mark.parametrize("n", [1, 7, 24, 1000, 13312, 184570, 999_999, 10**7])
def test_partial_sum_is_the_exact_sum_rounded_once(n):
    # float tails, libmp head terms, zero terms and head terms with u > 700
    # (n = 10^7) are summed exactly, at n = 24 and 999,999 past the full
    # width, and that sum alone is rounded, once, to the nearest integer
    report = p_series(n)
    total = sum(_exact(term.r_k) for term in report.terms)
    assert _exact(report.partial_sum) == total
    assert _exact(report.gap) == abs(total - report.rounded) < Fraction(1, 4)


# The mpmath-context evaluator that the libmp tier replaced, kept as its
# oracle: mpf arithmetic at the ambient precision, rounding to nearest.
def _selberg_sum_in_context(k, roots, root_k, lib):
    if k <= 2:
        return (float if lib is math else lib.mpf)(-1 if roots[0] else 1)
    pi = +lib.pi
    summands = []
    for l in roots:
        c = lib.cos(pi * (6 * l + 1) / (6 * k))
        summands.append(-c if l % 2 else c)
    return root_k / lib.sqrt(3) * lib.fsum(summands)


def _term_in_context(k, roots, a, p, bits):
    """A_k and R_k as _term computes them: in floats when ``bits`` is None,
    else in mpmath at ``bits``."""
    lib, real = (math, float) if bits is None else (mp, mpf)
    with nullcontext() if bits is None else mp.workprec(bits):
        a, p, root_k = real(a), real(p), lib.sqrt(k)
        weight = _selberg_sum_in_context(k, roots, root_k, lib)
        u = a / k
        x = lib.exp(u)
        return weight, p * root_k * weight * ((u - 1) * x + (u + 1) / x) / 2


def _alpha_p_in_context(n, width):
    with mp.workprec(width + 8):
        a = mp.pi * mp.sqrt((mpf(n) - mpf(1) / 24) * 2 / 3)
        return a, mp.pi**2 / (3 * mp.sqrt(3) * a**3)


def test_alpha_p_is_the_context_evaluator_bit_for_bit():
    # and alpha(n, ctx), which runs at ctx.bits + GUARD_BITS, where _alpha_p adds 8 bits,
    # at every width a context takes
    for n in (1, 2, 7, 47, 1000, 13312, 184570, 999_999, 10**7, 10**9):
        for width in (72, 100, 128, 1000, default_precision(n)):
            expected = _alpha_p_in_context(n, width)
            assert tuple(x._mpf_ for x in _alpha_p(n, width)) == tuple(x._mpf_ for x in expected), (n, width)
            if width + 8 - GUARD_BITS <= MAX_BITS:
                ctx = PrecisionContext(width + 8 - GUARD_BITS)
                assert alpha(n, ctx)._mpf_ == expected[0]._mpf_, (n, width)


def test_libmp_tier_is_the_context_evaluator_bit_for_bit():
    # _term and selberg_sum against the mpmath-context oracle, as _mpf_ tuples:
    # k <= 2, a term with no roots and u > 700 (n = 10^7, k = 7), and widths
    # from 52 bits up to the full width at 10^7; the float tier, as float.hex,
    # against the same statements in math
    assert not selberg_roots(7, 10**7) and float(_alpha_p(10**7, 64)[0]) / 7 > 700
    for n in (1, 2, 47, 1000, 13312, 184570, 10**7):
        width = default_precision(n)
        a, p = _alpha_p(n, width)
        for k in (1, 2, 3, 7, 25, 49, 120, 129, 500):
            roots = selberg_roots(k, n)
            log_c = _log_c(k, len(roots), float(a) / k, float(p))
            for bits in (52, 53, 64, 100, 128, 257, 1000, width):
                term = _term(k, roots, a, p, bits, log_c)
                weight, value = _term_in_context(k, roots, a, p, bits)
                assert (term.a_k._mpf_, term.r_k._mpf_) == (weight._mpf_, value._mpf_), (n, k, bits)
                with mp.workprec(bits):
                    root_k = mp.sqrt(k)
                    expected = _selberg_sum_in_context(k, roots, root_k, mp)
                assert selberg_sum(k, roots, root_k._mpf_, bits) == expected._mpf_, (n, k, bits)
            if float(a) / k <= 700:
                term = _term(k, roots, a, p, None, log_c)
                weight, value = _term_in_context(k, roots, a, p, None)
                assert (term.a_k.hex(), term.r_k.hex()) == (weight.hex(), value.hex()), (n, k)
                assert selberg_sum(k, roots, math.sqrt(k), None).hex() == weight.hex(), (n, k)


def test_a_k_is_the_context_evaluator_bit_for_bit():
    for bits in (64, 128, 4096):
        ctx = PrecisionContext(bits)
        for k in (*range(1, 41), 121, 128, 129, 500, 9999):
            for n in (1, 2, 24, 47, 116, 1000, 123457):
                with ctx.workprec():
                    expected = _selberg_sum_in_context(k, selberg_roots(k, n), mp.sqrt(k), mp)
                got = a_k(k, n, ctx)
                assert type(got) is mpf and got._mpf_ == expected._mpf_, (bits, k, n)


def _report_field(x):
    """A float as float.hex, an mpf as its exact (sign, mantissa, exponent, bit count)."""
    if isinstance(x, float):
        return x.hex()
    sign, man, exp, bc = x._mpf_
    return f"({sign}, {man:#x}, {exp}, {bc})"


def test_p_series_reports_are_pinned():
    # every bit of every report: per term k, type, A_k, R_k and bound; per
    # report prec, partial sum, rounded value, gap, N, T and E
    digest = hashlib.sha256()
    for n in (*range(1, 601), 6742, 7798, 13312, 184570, 10**5):
        r = p_series(n)
        for t in r.terms:
            digest.update(f"{t.k} {type(t.r_k).__name__} {_report_field(t.a_k)} {_report_field(t.r_k)} "
                          f"{t.bound.hex()}\n".encode())
        digest.update(f"{n} {r.prec} {_report_field(r.partial_sum)} {r.rounded:#x} {_report_field(r.gap)} "
                      f"{r.n_terms_used} {r.truncation_bound.hex()} {r.float_error_bound.hex()}\n".encode())
    assert digest.hexdigest() == "ad1827701dc98bf6a5029d113e39c953dd843b8a59599d779c03995c098d5264"


def test_report_error_budget():
    report = p_series(1000)
    t, e = report.truncation_bound, report.float_error_bound
    assert t == truncation_bound(1000, report.n_terms_used)
    assert t + e < 0.25
    assert report.gap <= t + e


@pytest.fixture(scope="module")
def exact_table():
    cache = PartitionCache()
    cache.extend_to(50_000)
    return cache


def test_p_series_matches_exact_through_500(exact_table):
    assert all(p_series(n).rounded == exact_table[n] for n in range(1, 501))


def test_p_series_matches_exact_from_501_to_2000(exact_table):
    assert all(p_series(n).rounded == exact_table[n] for n in range(501, 2001))


@pytest.mark.parametrize("n", [13312, 7798, 6742])
def test_p_series_smallest_slack_in_table(n, exact_table):
    # the n <= 5e4 with the least slack 1/4 - T, so the smallest float budget
    assert p_series(n).rounded == exact_table[n]


def test_p_series_smallest_slack_below_200000():
    # 1/4 - T is 3.8e-9 here, the least for n <= 2e5; compare an all-r_k sum
    n = 184570
    report = p_series(n)
    ctx = PrecisionContext(report.prec)
    with ctx.workprec():
        total = mpf(0)
        for k in range(1, report.n_terms_used + 1):
            total += r_k(n, k, ctx).r_k
        assert report.rounded == int(mp.nint(total))


def test_p_series_matches_exact_seeded_sample(exact_table):
    rng = random.Random(20240521)
    sample = sorted(rng.sample(range(501, 15001), 10))
    for n in sample:
        assert p_series(n).rounded == exact_table[n], n


def test_p_series_matches_exact_up_to_50000(exact_table):
    rng = random.Random(20261018)
    for n in sorted(rng.sample(range(15001, 50001), 4)):
        assert p_series(n).rounded == exact_table[n], n


def test_p_exact_ramanujan_congruences_through_50000(exact_table):
    # p(5j+4) = 0 mod 5, p(7j+5) = 0 mod 7, p(11j+6) = 0 mod 11 for every
    # such n up to 5e4; 49999 = 5 * 9999 + 4 is the last of the first kind
    for modulus, residue in ((5, 4), (7, 5), (11, 6)):
        assert all(exact_table[n] % modulus == 0 for n in range(residue, 50_001, modulus)), modulus


def test_p_series_wide_bounds_in_log_space():
    # alpha(999999)/k > 700 for k = 1..3: e^u is no float, so these terms'
    # bounds exist only in log space; 999999 = 5 * 199999 + 4 (Ramanujan)
    report = p_series(999_999)
    budget = (0.25 - report.truncation_bound) / (2 * report.n_terms_used)
    assert all(0 < term.bound <= budget for term in report.terms[:3])
    assert report.rounded % 5 == 0


def test_p_series_ramanujan_congruences():
    # p(5j+4) = 0 mod 5, p(7j+5) = 0 mod 7, p(11j+6) = 0 mod 11: a check
    # beyond the range of the exact table
    rng = random.Random(5711)
    for modulus, residue in ((5, 4), (7, 5), (11, 6)):
        for _ in range(3):
            n = modulus * rng.randrange(20_000 // modulus, 200_000 // modulus) + residue
            assert p_series(n).rounded % modulus == 0, n


# p(n) mod 2^64, mod 10^9 + 7 and its bit length, from sympy's partition and,
# for n <= 10^5, p_exact (tests/make_partition_residues.py); checked through
# 10^7, where p_series takes under a second
RESIDUES = [row for row in json.loads(Path(__file__).with_name("partition_residues.json").read_text())
            if row["n"] <= 10**7]


@pytest.mark.parametrize("row", RESIDUES, ids=[str(row["n"]) for row in RESIDUES])
def test_p_series_matches_reference_residues(row):
    value = p_series(row["n"]).rounded
    assert value % 2**64 == row["mod_2_64"]
    assert value % (10**9 + 7) == row["mod_1e9_7"]
    assert value.bit_length() == row["bit_length"]


@pytest.mark.parametrize("n", [10**9 + 1, 10**20, 10**400])
def test_p_series_ceiling(n):
    with pytest.raises(ValueError, match="at most 1000000000"):
        p_series(n)


# the four share p_series' range check instead of failing in float arithmetic
# (OverflowError, "math domain error") for n around 10^400
N_CHECKED = {
    "default_precision": default_precision,
    "r_k": lambda n: r_k(n, 1),
    "truncation_bound": lambda n: truncation_bound(n, 1),
    "terms_needed": terms_needed,
}


@pytest.mark.parametrize("n,message", [
    (0, "n must be a positive integer"),
    (-3, "n must be a positive integer"),
    (10**9 + 1, "n must be at most 1000000000"),
    (10**400, "n must be at most 1000000000"),
], ids=["0", "-3", "1e9+1", "1e400"])
@pytest.mark.parametrize("name", list(N_CHECKED))
def test_series_functions_check_n(name, n, message):
    with pytest.raises(ValueError, match=message):
        N_CHECKED[name](n)


def test_r_k_checks_k():
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            r_k(5, k)
