from fractions import Fraction

import pytest
from mpmath import mp, mpf

from partitions import rademacher
from partitions.precision import DEFAULT_CONTEXT, MAX_BITS, PrecisionContext


def test_bits_floor():
    with pytest.raises(ValueError):
        PrecisionContext(63)
    assert PrecisionContext(64).bits == 64
    assert DEFAULT_CONTEXT.bits == 128


def test_bits_ceiling():
    assert PrecisionContext(MAX_BITS).bits == MAX_BITS == 2**17
    with pytest.raises(ValueError, match="at most 131072 bits"):
        PrecisionContext(MAX_BITS + 1)


def test_series_fits_under_the_bits_ceiling():
    # the widest context the series builds is _alpha_p's, 8 bits above
    # default_precision; a higher series ceiling of n must fail here first
    assert rademacher.default_precision(rademacher._MAX_N) + 8 <= MAX_BITS


def test_workprec_scopes_precision():
    ctx = PrecisionContext(200)
    before = mp.prec
    with ctx.workprec():
        assert mp.prec == 216  # bits + guard
    assert mp.prec == before


def test_real_parses_strings_exactly_enough():
    ctx = PrecisionContext(128)
    x = ctx.real("0.1")
    with ctx.workprec():
        assert abs(x - mpf(1) / 10) < mpf(2) ** -120


def test_real_accepts_fractions():
    ctx = PrecisionContext(128)
    with ctx.workprec():
        assert abs(ctx.real(Fraction(1, 3)) - mpf(1) / 3) < mpf(2) ** -120


def test_tail_threshold():
    ctx = PrecisionContext(100)
    assert ctx.tail_threshold == mpf(2) ** -108
