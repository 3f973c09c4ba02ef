"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
per-criterion timings.  The frozen p(n) digit strings are classical values
(OEIS A000041) and agree with both independent engines in this package;
relative errors are matched within +-0.01 absolute.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from partitions.asymptotics import (
    TABLE_NS,
    leading_term,
    relative_error_table,
    tail_ratio_bound,
)
from partitions.bessel import bessel_i_3_2_closed, bessel_i_series
from partitions.dedekind import dedekind_sum, reciprocity_defect
from partitions.exact import PartitionCache, partition_table_dp
from partitions.farey import farey_sequence, rademacher_path, w_chord, chord_bounds_check, ford_circle
from partitions.modular import eta_verification_cases, f_transform_cases, verify_eta, verify_f_transform
from partitions.precision import PrecisionContext
from partitions.rademacher import a_k, default_precision, p_series, r_k

# p(n) digit strings for the reference grid
P_TABLE = {
    10: "42",
    50: "204226",
    100: "190569292",
    200: "3972999029388",
    500: "2300165032574323995027",
    1000: "24061467864032622473692149727991",
    2000: "4720819175619413888601432406799959512200344166",
    3000: "496025142797537184410324879054927095334462742231683423624",
    4000: "1024150064776551375119256307915896842122498030313150910234889093895",
    5000: "16982016882544212185197510168930643136175768304982923332220382465232"
          "9144349",
    6000: "46717275319702090929710246439736906433646291532700370338566055289250"
          "72405349246129",
    7000: "32856930803440615786280925635924166861950151574532240659699032157432"
          "236394374450791229199",
    8000: "78360264351568349490593145013364599719010769352985864331118600209417"
          "827764524450990388402844164",
    9000: "77133638117808884907320791427403134961639798322072034262647713694605"
          "367979684296948790335590435626459",
    10000: "3616725132563629398882047189095369549501603033931565042208186860588"
           "7952568754066420592310556052906916435144",
    12000: "1294107667757322067493842620367467386268131006205640080126511905905"
           "017060058126929125027069901623662251809128853180610",
    15000: "2626337936403790841371023191659066988029320559654372494065885879713"
           "75120081791056718639088570913175942816125969709246029351672130266",
}

# percentage relative errors of L(n), two-decimal reference values
EPS_TABLE = {
    10: "-14.53", 50: "-6.54", 100: "-4.57", 200: "-3.2", 500: "-2.01",
    1000: "-1.42", 2000: "-1", 3000: "-0.81", 4000: "-0.7", 5000: "-0.63",
    6000: "-0.57", 7000: "-0.53", 8000: "-0.5", 9000: "-0.47",
    10000: "-0.44", 12000: "-0.41", 15000: "-0.36",
}


@contextmanager
def criterion(label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"\nACCEPTANCE {label}: PASS ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def big_cache():
    cache = PartitionCache()
    cache.extend_to(15000)
    return cache


def test_criterion_1_exact_engine_reference_table(big_cache):
    with criterion("1 exact engine reference table"):
        start = time.time()
        for n, digits in P_TABLE.items():
            assert str(big_cache[n]) == digits, f"p({n}) mismatch"
        fresh = PartitionCache()
        fresh.extend_to(15000)
        elapsed = time.time() - start
        assert fresh[15000] == big_cache[15000]
        assert elapsed < 30, f"table took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence(big_cache):
    with criterion("2 oracle equivalence to n=2000"):
        start = time.time()
        table = partition_table_dp(2000)
        assert all(table[n] == big_cache[n] for n in range(2001))
        elapsed = time.time() - start
        assert elapsed < 60, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_3_series_certification(big_cache):
    with criterion("3 series certification"):
        start = time.time()
        grid = list(range(1, 51)) + [100, 200, 500, 1000, 2000]
        for n in grid:
            report = p_series(n)
            assert report.gap < 0.25
            assert report.rounded == big_cache[n], f"series p({n}) mismatch"
        elapsed = time.time() - start
        assert elapsed < 60, f"series grid took {elapsed:.1f}s"


def test_criterion_4_asymptotic_errors(big_cache):
    with criterion("4 asymptotic relative errors"):
        rows = relative_error_table(TABLE_NS, big_cache)
        for row in rows:
            expected = mpf(EPS_TABLE[row.n])
            assert abs(row.eps_percent - expected) <= mpf("0.01"), (
                f"eps({row.n}) = {mp.nstr(row.eps_percent, 8)} vs {expected}"
            )
        # the error magnitude shrinks monotonically across the grid
        magnitudes = [abs(row.eps_percent) for row in rows]
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))


def test_criterion_5_dedekind_suite():
    with criterion("5 Dedekind sums and A_k bound"):
        for k in range(2, 51):
            for h in range(1, k):
                if math.gcd(h, k) != 1:
                    continue
                assert reciprocity_defect(h, k) == 0
                assert dedekind_sum(k - h, k) == -dedekind_sum(h, k)
        ctx = PrecisionContext(128)
        slack = mpf(2) ** -64
        for k in range(1, 101):
            for n in range(1, 51):
                assert abs(a_k(k, n, ctx)) <= k + slack


def test_criterion_6_farey_ford_suite():
    with criterion("6 Farey/Ford geometry"):
        for order in range(1, 101):
            seq = farey_sequence(order)
            brute = sorted(
                {Fraction(h, k) for k in range(1, order + 1) for h in range(k + 1)}
            )
            assert seq == brute
            for left, right in zip(seq, seq[1:]):
                det = left.denominator * right.numerator - left.numerator * right.denominator
                assert det == 1
        sizes = [len(farey_sequence(order)) for order in range(1, 101)]
        for order in range(2, 101):
            phi = sum(1 for m in range(1, order + 1) if math.gcd(m, order) == 1)
            assert sizes[order - 1] - sizes[order - 2] == phi
        for order in range(1, 31):
            for pair in rademacher_path(order):
                circle = ford_circle(pair.frac)
                for point in (pair.alpha1, pair.alpha2):
                    dx = point.re - circle.center.re
                    dy = point.im - circle.center.im
                    assert dx * dx + dy * dy == circle.radius * circle.radius
        for order in range(1, 51):
            seq = farey_sequence(order)
            extended = seq + [Fraction(order + 1, order)]
            for j in range(1, len(seq)):
                chord = w_chord(extended[j - 1], extended[j], extended[j + 1], order)
                assert chord_bounds_check(chord)


def test_criterion_7_bessel_routes():
    with criterion("7 Bessel series vs closed form"):
        ctx = PrecisionContext(128)
        with ctx.workprec():
            for x in ("0.1", "0.5", "1", "2", "5", "10", "30"):
                series = bessel_i_series(Fraction(3, 2), x, ctx)
                closed = bessel_i_3_2_closed(x, ctx)
                assert abs(series - closed) / closed <= mpf(10) ** -12
            reference = mp.sqrt(2 / mp.pi) * mp.exp(-1)
            assert abs(bessel_i_series(Fraction(3, 2), 1, ctx) - reference) <= mpf(10) ** -12


def test_criterion_8_transformation_laws():
    with criterion("8 eta and generating-function transformation laws"):
        ctx = PrecisionContext(128)
        tol = mpf(10) ** -10
        eta_cases = eta_verification_cases(24)
        assert len(eta_cases) >= 20
        for matrix, tau in eta_cases:
            report = verify_eta(matrix, tau, ctx)
            assert report.residual < tol, f"eta residual {report.residual} at {matrix}"
        f_cases = f_transform_cases(24)
        assert len(f_cases) >= 20
        for h, k, z in f_cases:
            residual = verify_f_transform(h, k, z, ctx)
            assert residual < tol, f"ftransform residual {residual} at ({h},{k})"


def test_criterion_9_tail_behavior(big_cache):
    with criterion("9 tail ratio bounds"):
        for n in range(10, 201):
            ctx = PrecisionContext(max(128, default_precision(n)))
            with ctx.workprec():
                actual = abs(mpf(big_cache[n]) - r_k(n, 1, ctx).r_k) / leading_term(n, ctx)
                assert actual <= tail_ratio_bound(n, ctx), f"tail bound violated at n={n}"
        n = 10_000
        ctx = PrecisionContext(max(128, default_precision(n)))
        with ctx.workprec():
            ratio = r_k(n, 1, ctx).r_k / leading_term(n, ctx)
            assert abs(ratio - 1) < mpf("0.01")
