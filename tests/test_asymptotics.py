import math

import pytest
from mpmath import mp, mpf

from partitions.asymptotics import (
    TABLE_NS,
    display_eps,
    error_row,
    leading_term,
    relative_error_table,
    tail_ratio_bound,
    zeta_three_halves,
)
from partitions.exact import PartitionCache, p_exact
from partitions.precision import PrecisionContext
from partitions.rademacher import default_precision, r_k

CTX = PrecisionContext(128)


def test_leading_term_at_10():
    value = leading_term(10, CTX)
    assert mpf("48.10") < value < mpf("48.11")


def test_leading_term_positive_and_growing():
    assert leading_term(1, CTX) > 0
    with CTX.workprec():
        # quadrupling n roughly doubles the exponent
        ratio = leading_term(400, CTX) / leading_term(100, CTX)
        expected = mp.exp(mp.pi * (mp.sqrt(mpf(800) / 3) - mp.sqrt(mpf(200) / 3))) / 4
        assert abs(ratio / expected - 1) < mpf(10) ** -20


def test_leading_term_validation():
    # nan passes n < 1, and inf would yield nan
    for n, rule in ((0, "at least 1"), (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
                    (0.5, "at least 1")):
        with pytest.raises(ValueError, match=f"^n must be {rule}$"):
            leading_term(n, CTX)


def test_error_row_validation():
    # p(n) = 0 would divide by zero, and a negative p(n) would give a row
    for p_n in (0, -5):
        with pytest.raises(ValueError, match="^p_n must be a positive integer$"):
            error_row(10, p_n)
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        error_row(0, 1)


def test_relative_errors_match_reference():
    rows = relative_error_table([10, 100, 1000])
    for row, expected in zip(rows, ("-14.53", "-4.57", "-1.42")):
        assert abs(row.eps_percent - mpf(expected)) <= mpf("0.01")
    with pytest.raises(AttributeError):
        rows[0].p_n = 0


def test_relative_error_display():
    rows = relative_error_table([10, 50])
    assert display_eps(rows[0].eps_percent) == "-14.53"
    assert display_eps(rows[1].eps_percent) == "-6.54"


def test_relative_error_uses_cache():
    cache = PartitionCache()
    relative_error_table([30], cache)
    assert cache.max_n >= 30


def test_display_eps_ties_away_from_zero():
    assert display_eps(mpf("-3.125")) == "-3.13"
    assert display_eps(mpf("0.125")) == "0.13"
    assert display_eps(mpf("-14.534")) == "-14.53"


# zeta(3/2) to 80 digits (OEIS A078434): enough to check 2^-248 at 256 bits
ZETA_THREE_HALVES = (
    "2.6123753486854883433485675679240716305708"
    "006524000634075733282488149277676882729"
)


def test_zeta_three_halves_against_mpmath():
    for bits in (128, 256):
        ctx = PrecisionContext(bits)
        with mp.workprec(bits + 64):
            error = abs(zeta_three_halves(ctx) - mpf(ZETA_THREE_HALVES))
            assert error < mpf(2) ** -(bits - 8)


def test_tail_ratio_bound_decreasing():
    values = [tail_ratio_bound(n, CTX) for n in (10, 20, 50, 100, 1000)]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))


def test_tail_ratio_bound_vanishes():
    assert tail_ratio_bound(10_000, CTX) < mpf(10) ** -6 * tail_ratio_bound(100, CTX)


def test_tail_ratio_bound_validation():
    # nan passes n < 1, and inf would yield nan
    for n, rule in ((0, "at least 1"), (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
                    (0.5, "at least 1")):
        with pytest.raises(ValueError, match=f"^n must be {rule}$"):
            tail_ratio_bound(n, CTX)


def test_actual_tail_below_bound_spot_checks():
    cache = PartitionCache()
    for n in (10, 25, 50, 100, 150, 200):
        ctx = PrecisionContext(max(128, default_precision(n)))
        with ctx.workprec():
            p = mpf(p_exact(n, cache))
            actual = abs(p - r_k(n, 1, ctx).r_k) / leading_term(n, ctx)
            assert actual <= tail_ratio_bound(n, ctx)


def test_r1_over_l_approaches_one():
    n = 1000
    ctx = PrecisionContext(max(128, default_precision(n)))
    with ctx.workprec():
        ratio = r_k(n, 1, ctx).r_k / leading_term(n, ctx)
        assert abs(ratio - 1) < mpf("0.05")


def test_table_grid_is_the_reference_grid():
    assert TABLE_NS[0] == 10 and TABLE_NS[-1] == 15000 and len(TABLE_NS) == 17
