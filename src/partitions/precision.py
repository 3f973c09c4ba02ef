"""Precision bookkeeping for high-precision floating evaluation.

A :class:`PrecisionContext` governs the mpmath work: it pins the working
precision in bits; functions returning mpmath values compute inside
``with ctx.workprec():``.  mpmath values are immutable and keep the
precision they were computed at, so results can be mixed freely afterwards
(comparisons and follow-up arithmetic should run inside a context of their
own if they need more than the ambient precision).  mpmath is imported
inside the methods, so modules that only need the type stay mpmath-free.
A context carries a caller's choice of precision (``--prec``, or a library
caller's); the certified series sets its own width from n and needs none.
A context is a one-field named tuple that checks 64 <= bits <= ``MAX_BITS``
on every construction path: the constructor, ``_make`` and ``_replace``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

# extra working bits inside evaluation loops, so accumulated rounding stays
# below the advertised precision
GUARD_BITS = 16

# series stop once a term drops below 2^-(bits + TAIL_GUARD_BITS)
TAIL_GUARD_BITS = 8

# the widest context a caller may ask for, so that a --prec runs for a bounded time
MAX_BITS = 2**17


class PrecisionContext(namedtuple("PrecisionContext", "bits")):
    """Evaluation context: precision in bits, nearest-even rounding."""

    __slots__ = ()

    def __new__(cls, bits: int = 128):
        if bits < 64:
            raise ValueError(f"precision must be at least 64 bits, got {bits}")
        if bits > MAX_BITS:
            raise ValueError(f"precision must be at most {MAX_BITS} bits, got {bits}")
        return super().__new__(cls, bits)

    @classmethod
    def _make(cls, iterable):  # namedtuple's own, which _replace calls, skips __new__
        return cls(*iterable)

    def workprec(self):
        """mpmath context manager running at ``bits + GUARD_BITS`` precision."""
        from mpmath import mp
        return mp.workprec(self.bits + GUARD_BITS)

    @property
    def tail_threshold(self) -> mpf:
        """Truncation threshold for convergent series."""
        from mpmath import mpf
        return mpf(2) ** (-self.bits - TAIL_GUARD_BITS)

    def real(self, x) -> mpf:
        """Convert ``x`` (number, decimal string, or Fraction) to mpf."""
        from mpmath import mpf
        with self.workprec():
            if isinstance(x, Fraction):
                return mpf(x.numerator) / x.denominator
            return mpf(x)


DEFAULT_CONTEXT = PrecisionContext(128)
