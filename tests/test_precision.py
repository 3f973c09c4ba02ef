from fractions import Fraction

import pytest
from mpmath import mp, mpf

from partitions.precision import DEFAULT_CONTEXT, PrecisionContext


def test_bits_floor():
    with pytest.raises(ValueError):
        PrecisionContext(63)
    assert PrecisionContext(64).bits == 64
    assert DEFAULT_CONTEXT.bits == 128


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
