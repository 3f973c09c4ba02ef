import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpc

from schedule import run_a_then_b

from partitions import precision, rademacher
from partitions.asymptotics import leading_term
from partitions.bessel import bessel_i_series
from partitions.modular import eta
from partitions.precision import DEFAULT_CONTEXT, MAX_BITS, PrecisionContext, unlimited_int_str


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


@pytest.mark.parametrize("limit", [4300, 0])
def test_unlimited_int_str_restores_the_callers_limit_after_a_raise(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(RuntimeError, match="^inside$"):
            with unlimited_int_str():
                assert sys.get_int_max_str_digits() == 0
                assert len(str(10**5000)) == 5001
                raise RuntimeError("inside")
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def test_precision_is_the_one_writer_of_process_wide_state():
    # the int-to-str limit and the lock that guards it and mpmath's precision
    source = Path(precision.__file__).parent
    for path in sorted(source.glob("*.py")):
        if path.name != "precision.py":
            text = path.read_text()
            assert "set_int_max_str_digits" not in text and "STATE_LOCK" not in text, path.name


@pytest.mark.parametrize("function, args, stop_at", [
    (leading_term, (5000,), "exp"),
    (eta, (mpc(0.3, 0.8),), "qp"),
    (bessel_i_series, (Fraction(3, 2), 20), "gamma"),
], ids=["leading_term", "eta", "bessel_i_series"])
def test_two_threads_each_compute_at_their_own_width(function, args, stop_at, monkeypatch):
    # Thread a stops inside its block at 4096 bits, where its body calls
    # mp.<stop_at>; then thread b runs at 64 bits.  If b's block could start
    # then, b would set 80 bits under a, and a's exit would restore 53 under
    # b, so both results would be wrong.  workprec's lock makes b wait for
    # a's whole block instead.
    wide, narrow = PrecisionContext(4096), PrecisionContext(64)
    expected = function(*args, wide), function(*args, narrow)
    before = mp.prec
    results = run_a_then_b(monkeypatch, mp, stop_at,
                           lambda: function(*args, wide), lambda: function(*args, narrow))
    assert results == expected
    assert mp.prec == before
