import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, mpf_sqrt, round_nearest

from partitions import cli, dedekind
from partitions.dedekind import _TABLE_K, dedekind_sum, reciprocity_defect, selberg_roots
from partitions.precision import PrecisionContext
from partitions.rademacher import a_k, p_series, r_k, selberg_sum

CTX = PrecisionContext(128)


def coprime_pairs(limit):
    for k in range(2, limit + 1):
        for h in range(1, k):
            if math.gcd(h, k) == 1:
                yield h, k


def test_dedekind_sum_known_values():
    assert dedekind_sum(5, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(1, 4) == Fraction(1, 8)
    assert dedekind_sum(1, 5) == Fraction(1, 5)


def test_dedekind_sum_periodic_in_h():
    for h, k in [(1, 3), (2, 7), (5, 12)]:
        assert dedekind_sum(h + k, k) == dedekind_sum(h, k)
        assert dedekind_sum(h - k, k) == dedekind_sum(h, k)


def test_dedekind_sum_negation():
    # s(-h, k) = s(k-h, k) = -s(h, k)
    assert dedekind_sum(-1, 3) == -Fraction(1, 18)
    for h, k in coprime_pairs(30):
        assert dedekind_sum(k - h, k) == -dedekind_sum(h, k)


def _dedekind_sum_kernel(h, k):
    """The O(k) definition for coprime h, k, where hr/k is never an integer
    for 0 < r < k: k^2 s(h,k) = sum r (hr mod k) - k^2 (k-1)/4."""
    return Fraction(sum(r * ((h * r) % k) for r in range(1, k)), k * k) - Fraction(k - 1, 4)


def test_dedekind_sum_matches_kernel_up_to_150():
    for h, k in coprime_pairs(150):
        assert dedekind_sum(h, k) == _dedekind_sum_kernel(h, k), (h, k)


def test_dedekind_sum_non_coprime():
    # the sawtooth vanishes at integers: s(2,4) = s(1,2) = 0 and s(0,k) = 0
    assert dedekind_sum(2, 4) == 0
    assert dedekind_sum(0, 3) == 0
    assert dedekind_sum(6, 3) == 0
    assert dedekind_sum(6, 14) == dedekind_sum(3, 7) == Fraction(-1, 14)


@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=100, deadline=None)
def test_dedekind_sum_scaling(h, k, g):
    assert dedekind_sum(g * h, g * k) == dedekind_sum(h, k)


def test_dedekind_sum_rejects_bad_k():
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)
    with pytest.raises(ValueError):
        dedekind_sum(1, -2)


def test_reciprocity_hand_cases():
    # s(1,3) + s(3,1) = 1/18 and -1/4 + (1/3 + 3 + 1/3)/12 = 1/18
    assert reciprocity_defect(1, 2) == 0
    assert reciprocity_defect(1, 3) == 0
    assert reciprocity_defect(2, 3) == 0


def test_reciprocity_defect_zero_up_to_30():
    for h, k in coprime_pairs(30):
        assert reciprocity_defect(h, k) == 0


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
@settings(max_examples=50, deadline=None)
def test_reciprocity_defect_random(a, b):
    g = math.gcd(a, b)
    h, k = a // g, b // g
    assert reciprocity_defect(h, k) == 0


def test_reciprocity_rejects_non_coprime():
    with pytest.raises(ValueError):
        reciprocity_defect(2, 4)
    with pytest.raises(ValueError):
        reciprocity_defect(0, 5)


def test_a1_is_one():
    for n in (1, 2, 17, 1000, 123456):
        assert a_k(1, n, CTX) == 1


def test_a2_alternates():
    assert a_k(2, 3, CTX) == -1
    assert a_k(2, 4, CTX) == 1


def test_a_k_input_validation():
    with pytest.raises(ValueError):
        a_k(0, 5, CTX)
    with pytest.raises(ValueError):
        a_k(3, 0, CTX)


def test_selberg_roots_solve_the_congruence():
    # the one pass over [0, k) against the scan of [0, 2k): every residue of
    # n mod k for k <= 60, both parities of k, and a few n for each k <= 300
    for k in range(1, 301):
        for n in range(1, k + 1) if k <= 60 else (1, 2, 47, 1000, 123457, 10**9):
            assert selberg_roots(k, n) == _selberg_roots(k, n), (k, n)
    # near 10^4 and 10^6, n chosen so that l = 3 or l = k + 7 is a root
    for k in (9999, 10**4, 10364, 999_999, 10**6):
        for root in (3, k + 7):
            n = -(root * (3 * root + 1) // 2) % k or k
            roots = selberg_roots(k, n)
            assert root in roots and roots == _selberg_roots(k, n), (k, n)
    with pytest.raises(ValueError):
        selberg_roots(0, 5)


def test_selberg_root_tables_match_the_scan():
    # the tables at every k <= _TABLE_K and every residue of n mod k, and the
    # one pass above them at k = _TABLE_K + 1, against the scan of [0, 2k)
    for k in range(1, _TABLE_K + 2):
        for n in range(1, k + 1):
            assert selberg_roots(k, n) == _selberg_roots(k, n), (k, n)
            assert selberg_roots(k, n + 7 * k) == _selberg_roots(k, n), (k, n)


def test_selberg_roots_cannot_change_a_table():
    # a caller gets a copy: changing it leaves the next answer right
    for k, n in ((25, 24), (1, 5), (_TABLE_K, 3), (_TABLE_K + 1, 3)):
        roots = selberg_roots(k, n)
        roots.append(7)
        roots[0] = -1
        assert selberg_roots(k, n) == selberg_roots(k, n + k) == _selberg_roots(k, n), (k, n)
        selberg_roots(k, n).clear()
        assert selberg_roots(k, n) == _selberg_roots(k, n), (k, n)


def test_threads_read_only_whole_root_tables():
    # eight threads build the tables at once, switching every microsecond; a
    # table another thread has yet to fill would give too few roots. Each
    # thread asks for a root near 2k, which a table gets last
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    got = []
    start = threading.Barrier(8, timeout=60)

    def ask(i):
        start.wait()
        for k in range(1, _TABLE_K + 1):
            l = (2 * k - 1 - i) % (2 * k)
            n = -(l * (3 * l + 1) // 2) % k
            got.append((k, n, selberg_roots(k, n)))

    try:
        for _ in range(5):
            dedekind._root_table.cache_clear()
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 5 * 8 * _TABLE_K
    assert [(k, n, roots) for k, n, roots in got if roots != _selberg_roots(k, n)] == []


def test_no_root_table_above_the_table_ceiling():
    # p_series(10^7) needs N = 1250 terms: the tables stop at _TABLE_K, which
    # bounds their memory whatever n is asked for
    assert p_series(10**7).n_terms_used == 1250
    assert dedekind._root_table.cache_info().currsize == _TABLE_K


def test_k_ceiling_refused_before_any_work(capsys):
    # the scan of 2k residues would run for days at k = 10^12 if it were not refused
    for call in (
        lambda: selberg_roots(10**7 + 1, 1),
        lambda: selberg_roots(10**12, 1),
        lambda: a_k(10**12, 1, CTX),
        lambda: r_k(5, 10**12),
    ):
        with pytest.raises(ValueError, match="at most 10000000"):
            call()
    assert cli.main(["ak", str(10**12), "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at most 10000000" in err


def test_k_ceiling_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr("partitions.dedekind._MAX_K", 5)
    assert selberg_roots(5, 7) == _selberg_roots(5, 7)
    for call in (lambda: selberg_roots(6, 7), lambda: a_k(6, 7, CTX), lambda: r_k(7, 6)):
        with pytest.raises(ValueError, match="at most 5"):
            call()
    assert cli.main(["ak", "5", "7"]) == 0
    capsys.readouterr()
    assert cli.main(["ak", "6", "7"]) == 2
    assert capsys.readouterr().out == ""


def test_a_k_bound():
    slack = mpf(2) ** -64
    for k in range(1, 41):
        for n in range(1, 21):
            assert abs(a_k(k, n, CTX)) <= k + slack


def _a_k_h_sum(k, n):
    """A_k(n) from its definition, h paired with k - h so that each pair
    gives 2 cos(pi t_h); h = k/2 (k = 2 alone) is self-paired."""
    total = mpf(0)
    for h in range(1, k // 2 + 1):
        if math.gcd(h, k) != 1:
            continue
        t = (dedekind_sum(h, k) - Fraction(2 * n * h, k)) % 2
        c = mp.cospi(mpf(t.numerator) / t.denominator)
        total += c if 2 * h == k else 2 * c
    return total if k > 1 else mpf(1)


def _selberg_roots(k, n):
    return [l for l in range(2 * k) if (l * (3 * l + 1) // 2 + n) % k == 0]


SELBERG_CTX = PrecisionContext(200)
SELBERG_TOL = mpf(2) ** -100


def _check_against_h_sum(k, n):
    with SELBERG_CTX.workprec():
        assert abs(a_k(k, n, SELBERG_CTX) - _a_k_h_sum(k, n)) <= SELBERG_TOL, (k, n)


def test_a_k_selberg_matches_h_sum_every_k_to_120():
    for k in range(1, 121):
        for n in (1, 2, 47, 1000, 123457):
            _check_against_h_sum(k, n)


def test_series_a_k_within_its_error_model_in_both_tiers():
    # selberg_sum in floats (eps = 2^-50) and on mpmath.libmp at 64 bits (eps = 2^-63)
    # against the definition, within the A_k term of rademacher.py's error
    # model, eps S sqrt(k/3) (6 pi + 6), plus the 200-bit reference's own error
    for k in range(1, 121):
        for n in (1, 2, 47, 1000, 123457):
            roots = selberg_roots(k, n)
            in_floats = selberg_sum(k, roots, math.sqrt(k), None)
            in_mp = mp.make_mpf(selberg_sum(k, roots, mpf_sqrt(from_int(k), 64, round_nearest), 64))
            with SELBERG_CTX.workprec():
                exact = _a_k_h_sum(k, n)
                model = len(roots) * mp.sqrt(mpf(k) / 3) * (6 * mp.pi + 6)
                assert abs(in_floats - exact) <= 2.0**-50 * model + SELBERG_TOL, (k, n)
                assert abs(in_mp - exact) <= mpf(2) ** -63 * model + SELBERG_TOL, (k, n)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_a_k_selberg_matches_h_sum_random(k, n):
    _check_against_h_sum(k, n)


def test_a_k_selberg_extra_roots():
    # k = p^2 with p^2 | 24n - 1: the congruence has 2p roots, not 2 or 0
    for k, n, roots in ((25, 24, 10), (49, 47, 14), (121, 116, 22)):
        assert (24 * n - 1) % k == 0
        assert len(_selberg_roots(k, n)) == roots
        _check_against_h_sum(k, n)


def _a_k_naive(k, n):
    """Unpaired complex-exponential sum; independent check of the pairing."""
    total = mpc(0)
    for h in range(1, k + 1):
        if math.gcd(h, k) != 1:
            continue
        t = (dedekind_sum(h, k) - Fraction(2 * n * h, k)) % 2
        x = mpf(t.numerator) / t.denominator
        total += mpc(mp.cospi(x), mp.sinpi(x))
    return total


def test_a_k_pairing_matches_naive_sum():
    tol = mpf(2) ** -64
    with CTX.workprec():
        for k in range(1, 26):
            for n in (1, 5, 12, 30):
                naive = _a_k_naive(k, n)
                assert abs(naive.imag) <= tol
                assert abs(a_k(k, n, CTX) - naive.real) <= tol
                assert abs(_a_k_h_sum(k, n) - naive.real) <= tol
