from fractions import Fraction

import pytest
from mpmath import mp

from partitions import rademacher
from partitions.precision import DEFAULT_CONTEXT, MAX_BITS, PrecisionContext


def test_bits_floor():
    for build in (lambda: PrecisionContext(63), lambda: DEFAULT_CONTEXT._replace(bits=63),
                  lambda: PrecisionContext._make([63])):
        with pytest.raises(ValueError, match="^precision must be at least 64 bits, got 63$"):
            build()
    assert PrecisionContext(64).bits == 64
    assert DEFAULT_CONTEXT.bits == 128
    with pytest.raises(AttributeError):
        PrecisionContext(64).bits = 128


def test_bits_ceiling():
    assert PrecisionContext(MAX_BITS).bits == MAX_BITS == 2**12
    for build in (lambda: PrecisionContext(MAX_BITS + 1), lambda: DEFAULT_CONTEXT._replace(bits=MAX_BITS + 1),
                  lambda: PrecisionContext._make([MAX_BITS + 1])):
        with pytest.raises(ValueError, match="^precision must be at most 4096 bits, got 4097$"):
            build()


def test_bits_must_be_integral():
    # a fractional width once reached libmp, whose integer code then failed
    for bits in (100.5, Fraction(256)):
        for build in (lambda: PrecisionContext(bits), lambda: DEFAULT_CONTEXT._replace(bits=bits),
                      lambda: PrecisionContext._make([bits])):
            with pytest.raises(TypeError):
                build()

    class Width:
        def __index__(self):
            return 256

    context = PrecisionContext(Width())
    assert context.bits == 256 and type(context.bits) is int


def test_the_bits_ceiling_bounds_only_the_callers_choice(monkeypatch):
    # r_k works above the caller's widest context: its own guard bits are not a context
    term = rademacher.r_k(5, 1, PrecisionContext(MAX_BITS))
    reference = rademacher.r_k(5, 1, DEFAULT_CONTEXT)
    with mp.workprec(200):
        assert abs(term.r_k - reference.r_k) <= term.bound + reference.bound
    # the series sets its own width from n, wider here than the ceiling, and still certifies
    monkeypatch.setattr("partitions.precision.MAX_BITS", 1024)
    assert rademacher.default_precision(10**5) > 1024
    with pytest.raises(ValueError, match="at most 1024 bits"):
        PrecisionContext(1025)
    # p(10^5) mod 2^64, from tests/partition_residues.json
    assert rademacher.p_series(10**5).rounded % 2**64 == 1552493300098067991


def test_workprec_scopes_precision():
    ctx = PrecisionContext(200)
    before = mp.prec
    with ctx.workprec():
        assert mp.prec == 216  # bits + guard
    assert mp.prec == before

