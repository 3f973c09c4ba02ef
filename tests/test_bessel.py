from fractions import Fraction

import pytest
from mpmath import mp, mpf

from partitions.bessel import bessel_i_3_2_closed, bessel_i_series
from partitions.precision import MAX_BITS, PrecisionContext

CTX = PrecisionContext(128)
CTX256 = PrecisionContext(256)
GRID = ("0.1", "0.5", "1", "2", "5", "10", "30")


def test_series_at_zero():
    assert bessel_i_series(Fraction(3, 2), 0, CTX) == 0
    assert bessel_i_series(0, 0, CTX) == 1
    # I_nu(0) = +inf for -1 < nu < 0, as (x/2)^nu is
    for nu in (Fraction(-1, 2), Fraction(-1, 3)):
        assert bessel_i_series(nu, 0, CTX) == mp.inf == mp.besseli(mpf(nu.numerator) / nu.denominator, 0)


def test_series_value_at_one():
    # I_{3/2}(1) = sqrt(2/pi) e^{-1}, since cosh 1 - sinh 1 = e^{-1}
    with CTX.workprec():
        expected = mp.sqrt(2 / mp.pi) * mp.exp(-1)
        value = bessel_i_series(Fraction(3, 2), 1, CTX)
        assert abs(value - expected) < mpf(2) ** -100


def test_closed_value_at_one():
    with CTX.workprec():
        expected = mp.sqrt(2 / mp.pi) * mp.exp(-1)
        value = bessel_i_3_2_closed(1, CTX)
        assert abs(value - expected) < mpf(2) ** -100


@pytest.mark.parametrize("ctx", [CTX, CTX256], ids=["128", "256"])
def test_series_closed_agreement(ctx):
    tol = mpf(2) ** (-ctx.bits // 2)
    with ctx.workprec():
        for x in GRID:
            series = bessel_i_series(Fraction(3, 2), x, ctx)
            closed = bessel_i_3_2_closed(x, ctx)
            assert abs(series - closed) / closed < tol


def test_series_against_mpmath_reference():
    # external cross-check, including non-half-integer orders
    with CTX.workprec():
        for nu in (-0.5, 0, 0.5, 1, 1.5, 2.75):
            for x in ("0.3", "2", "11"):
                mine = bessel_i_series(nu, x, CTX)
                ref = mp.besseli(mpf(nu), mpf(x))
                assert abs(mine - ref) / ref < mpf(10) ** -25


def test_small_x_leading_order():
    # closed form ~ (x/2)^{3/2} * 4/(3 sqrt(pi)) as x -> 0+
    with CTX.workprec():
        x = mpf(1) / 10**4
        lead = (x / 2) ** mpf("1.5") * 4 / (3 * mp.sqrt(mp.pi))
        ratio = bessel_i_3_2_closed(x, CTX) / lead
        assert abs(ratio - 1) < mpf(10) ** -7


def test_hyperbolic_inequality():
    # (u cosh u - sinh u)/u^2 <= (u cosh u)/2 on (0, 20]
    with CTX.workprec():
        for i in range(1, 81):
            u = mpf(i) / 4
            lhs = (u * mp.cosh(u) - mp.sinh(u)) / (u * u)
            assert lhs > 0
            assert lhs <= u * mp.cosh(u) / 2


def test_precision_doubling_stability():
    with CTX256.workprec():
        for x in ("0.7", "3", "12"):
            v128 = bessel_i_series(Fraction(3, 2), x, CTX)
            v256 = bessel_i_series(Fraction(3, 2), x, CTX256)
            assert abs(v128 - v256) / v256 < mpf(10) ** -15


def test_input_validation():
    with pytest.raises(ValueError):
        bessel_i_series(Fraction(3, 2), -1, CTX)
    with pytest.raises(ValueError):
        bessel_i_series(-1, 1, CTX)
    # the series costs about x terms, so it stops at 10^5; the closed form goes on
    with pytest.raises(ValueError):
        bessel_i_series(Fraction(3, 2), "1e6", CTX)
    assert bessel_i_3_2_closed("1e6", CTX) > 0
    # both routes take every width up to the context's MAX_BITS, and the context refuses more
    assert bessel_i_series(Fraction(3, 2), 1, PrecisionContext(MAX_BITS)) > 0
    assert bessel_i_3_2_closed(1, PrecisionContext(MAX_BITS)) > 0
    with pytest.raises(ValueError, match=f"at most {MAX_BITS} bits"):
        bessel_i_series(Fraction(3, 2), 1, PrecisionContext(MAX_BITS + 1))
    with pytest.raises(ValueError, match=f"at most {MAX_BITS} bits"):
        bessel_i_3_2_closed(1, PrecisionContext(MAX_BITS + 1))
    with pytest.raises(ValueError):
        bessel_i_3_2_closed(0, CTX)
    with pytest.raises(ValueError):
        bessel_i_3_2_closed(-2, CTX)
    # the series' stop test never passes for nan or +inf, so both routes refuse them
    for x in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError):
            bessel_i_series(Fraction(3, 2), x, CTX)
        with pytest.raises(ValueError):
            bessel_i_3_2_closed(x, CTX)
    # nor for nu = +inf, where term and total stay 0; at x = 0 it would return 0
    for nu in ("inf", mpf("inf"), float("inf"), "nan"):
        for x in (1, 0):
            with pytest.raises(ValueError, match="finite"):
                bessel_i_series(nu, x, CTX)


@pytest.mark.parametrize("bits", [100, MAX_BITS])
def test_series_converts_nu_and_x_at_the_context_width(bits):
    # every spelling of an order or argument becomes the same mpf at the context's width
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        third, x = mpf(1) / 3, mpf("0.1")
    values = {bessel_i_series(nu, "2.5", ctx)._mpf_ for nu in (Fraction(3, 2), 1.5, "1.5")}
    assert len(values) == 1
    assert bessel_i_series(Fraction(1, 3), "2.5", ctx)._mpf_ == bessel_i_series(third, "2.5", ctx)._mpf_
    series, closed = bessel_i_series(Fraction(3, 2), "0.1", ctx), bessel_i_3_2_closed("0.1", ctx)
    assert series._mpf_ == bessel_i_series(Fraction(3, 2), x, ctx)._mpf_
    assert closed._mpf_ == bessel_i_3_2_closed(x, ctx)._mpf_
    # and the width is the context's, not the ambient 53 bits: the two routes agree far past 2^-53
    with ctx.workprec():
        assert abs(series - closed) <= closed * mpf(2) ** -(bits - 8)


@pytest.mark.parametrize("bits", [128, MAX_BITS])
def test_closed_form_keeps_its_width_as_x_goes_to_zero(bits):
    # x cosh x - sinh x ~ x^3/3 cancels about 2 log2(1/x) bits, which the numerator gets back
    ctx = PrecisionContext(bits)
    for x in ("1e-3", "1e-12", "1e-30", "1e-300", "1e-1200", mpf(2) ** -4096):
        closed = bessel_i_3_2_closed(x, ctx)
        with mp.workprec(bits + 64):
            reference = mp.besseli(mpf("1.5"), mpf(x))
            assert abs(closed - reference) <= reference * mpf(2) ** -bits, x
    # below 2^-4096 the extra width would pass 8192 bits, so the closed form refuses
    for x in ("1e-1300", mpf(2) ** -4097):
        with pytest.raises(ValueError, match="2\\^-4096"):
            bessel_i_3_2_closed(x, ctx)
