"""Precision bookkeeping for high-precision floating evaluation.

A :class:`PrecisionContext` is a checked width and nothing more: it pins the
working precision in bits; functions returning mpmath values compute inside
``with ctx.workprec():`` and own their stop rules.  Their real and complex
arguments are read there by one rule, ``_read_number``: once, to nearest,
at the working width, and a NaN or an infinity is refused by name;
``_read_real`` also refuses a complex one where only a real is meant, and
one outside the caller's closed range.
This module holds the package's two writers of process-wide state, each
holding the private re-entrant ``_STATE_LOCK`` for its whole block, so
threads' blocks run one at a time: ``workprec`` sets mpmath's precision
(mpmath is pure Python under the GIL, so that loses no parallelism), and
``unlimited_int_str`` lifts the interpreter's int-to-str limit.
mpmath values are immutable and keep the precision they were computed at,
so results can be mixed freely afterwards (comparisons and follow-up
arithmetic should run inside a context of their own if they need more than
the ambient precision).
A context carries a caller's choice of precision (``--prec``, or a library
caller's); the certified series sets its own width from n and needs none.
A context is a one-field named tuple that checks bits is an integer with
64 <= bits <= ``MAX_BITS`` on every construction path: the constructor,
``_make`` and ``_replace``.
``MAX_BITS`` is the one bound on a caller's width: at 4096 bits the slowest
``--prec`` run, ``verify eta --samples 32``, took 27 to 30 s of CPU on one Intel
Xeon vCPU, and every one prints under the default 4300-digit int-to-str limit.
"""

from __future__ import annotations

import sys
import threading
from collections import namedtuple
from contextlib import contextmanager
from math import inf
from numbers import Rational
from operator import index

from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

# extra working bits inside evaluation loops, so accumulated rounding stays
# below the advertised precision
GUARD_BITS = 16

# the widest context a caller may ask for, so that a --prec runs for a bounded time
MAX_BITS = 2**12

# held around each write of process-wide state: mpmath's precision, the int-to-str limit
_STATE_LOCK = threading.RLock()


class PrecisionContext(namedtuple("PrecisionContext", "bits")):
    """Evaluation context: precision in bits, nearest-even rounding."""

    __slots__ = ()

    def __new__(cls, bits: int = 128):
        bits = index(bits)  # a float or Fraction width would reach libmp's integer code
        if bits < 64:
            raise ValueError(f"precision must be at least 64 bits, got {bits}")
        if bits > MAX_BITS:
            raise ValueError(f"precision must be at most {MAX_BITS} bits, got {bits}")
        return super().__new__(cls, bits)

    @classmethod
    def _make(cls, iterable):  # namedtuple's own, which _replace calls, skips __new__
        return cls(*iterable)

    @contextmanager
    def workprec(self):
        """Run the block at ``bits + GUARD_BITS`` precision, holding ``_STATE_LOCK``."""
        with _STATE_LOCK, mp.workprec(self.bits + GUARD_BITS):
            yield


DEFAULT_CONTEXT = PrecisionContext(128)


def _read_number(x, name: str, real: bool = False):
    """``x`` as an mpf or mpc, rounded once to nearest at the working precision
    of the caller's ``workprec()`` block: an int or ``Fraction`` from its exact
    p/q, a str as a real decimal or p/q (else ``ValueError``), and a float,
    complex, ``Decimal``, mpf or mpc through ``mp.convert``.  A NaN or an
    infinity of any of these (a str p/0 too) raises ``ValueError`` naming
    ``name``, after the ``TypeError`` for a complex ``x`` if ``real`` is set."""
    if isinstance(x, Rational):
        return mp.make_mpf(from_rational(int(x.numerator), int(x.denominator), mp.prec, round_nearest))
    try:
        x = mp.mpf(x) if isinstance(x, str) else +mp.convert(x)
    except ZeroDivisionError:  # a str p/0: an infinity, or a NaN for 0/0, refused below
        x = mp.nan
    if real and isinstance(x, mp.mpc):
        raise TypeError(f"{name} must be real")
    if not mp.isfinite(x):  # nan passes every range comparison
        raise ValueError(f"{name} must be finite")
    return x


def _read_real(x, name: str, low=-inf, high=inf):
    """``x`` read by :func:`_read_number` as a real, and ``ValueError`` naming
    ``name`` below ``low`` or above ``high``, in the words of ``read_int``."""
    x = _read_number(x, name, real=True)
    if x < low:
        raise ValueError(f"{name} must be at least {low}")
    if x > high:
        raise ValueError(f"{name} must be at most {high}")
    return x


@contextmanager
def unlimited_int_str():
    """No limit on int-to-decimal conversion inside the block, and the
    caller's limit (4300 digits by default) again after it: the series
    report prints p(n) and mpf terms of more digits from n ~ 1.6e7.  The
    --prec subcommands need no lift, as a context carries at most 4096 + 16
    bits.  The block holds ``_STATE_LOCK``, so no other thread lifts or
    restores the limit while it runs."""
    with _STATE_LOCK:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(limit)
