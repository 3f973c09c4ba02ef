"""Farey sequences, Ford circles, and the circle-method contour geometry.

Everything here is exact rational arithmetic (``fractions.Fraction``); no
floating point enters, as the bound checks rest on proofs, not evaluation.

F_N is generated in one ascending pass by the next-term rule: it starts
0/1, 1/N, and if a/b < c/d are adjacent in F_N, the term after c/d is
(tc - a)/(td - b) with t = floor((N + b)/d).  Adjacent entries always
satisfy bc - ad = 1.

The Ford circle C(h,k) has center (h/k, 1/(2k^2)) and radius 1/(2k^2);
circles of distinct reduced fractions are tangent exactly when the pair
determinant is +-1, i.e. exactly for Farey neighbours.  For a consecutive
triple h1/k1 < h/k < h2/k2 the tangency points on C(h,k) are

    alpha1 = h/k - k1/(k(k^2+k1^2)) + i/(k^2+k1^2),
    alpha2 = h/k + k2/(k(k^2+k2^2)) + i/(k^2+k2^2),

and the map w = -i k^2 (tau - h/k) sends them to

    w1 = k^2/(k^2+k1^2) + i k k1/(k^2+k1^2),
    w2 = k^2/(k^2+k2^2) - i k k2/(k^2+k2^2)

on the circle |w - 1/2| = 1/2.  The chord joining w1 and w2 satisfies
|w| <= sqrt(2) k/(N+1) and Re(1/w) > 1/4, the two bounds that drive the
convergence of the series evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import NamedTuple

from ._integers import read_int

# farey_sequence refuses larger orders: |F_N| grows as 3N^2/pi^2, and on a
# 2-vCPU VM `partitions ford 1000` took 6.7 s and 92 MB, `ford 2000` 29 s
# and 324 MB
_MAX_ORDER = 1000


class QPoint(NamedTuple):
    """Point of the complex plane with exact rational coordinates."""

    re: Fraction
    im: Fraction

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


class FordCircle(NamedTuple):
    frac: Fraction
    center: QPoint
    radius: Fraction


class TangencyPair(NamedTuple):
    """Tangency points of C(h,k) with its two Farey-neighbour circles."""

    frac: Fraction
    alpha1: QPoint
    alpha2: QPoint
    left_k: int
    right_k: int


class WChord(NamedTuple):
    """Chord endpoints in the w-plane for one consecutive triple of F_N."""

    w1: QPoint
    w2: QPoint
    k: int
    k1: int
    k2: int
    order: int


def farey_sequence(order: int) -> list[Fraction]:
    """F_order in ascending order, by the next-term rule from 0/1, 1/order;
    an order above ``_MAX_ORDER`` = 1000 is refused."""
    order = read_int(order, "order", high=_MAX_ORDER)
    a, b, c, d = 0, 1, 1, order
    seq = [Fraction(0)]
    while c <= d:
        t = (order + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
        seq.append(Fraction(a, b))
    return seq


def farey_neighbors_check(seq) -> bool:
    """True iff every adjacent pair a/b, c/d satisfies bc - ad = 1."""
    for left, right in zip(seq, seq[1:]):
        if left.denominator * right.numerator - left.numerator * right.denominator != 1:
            return False
    return True


def ford_circle(frac) -> FordCircle:
    frac = Fraction(frac)
    k = frac.denominator
    radius = Fraction(1, 2 * k * k)
    return FordCircle(frac, QPoint(frac, radius), radius)


def ford_tangency_class(c1: FordCircle, c2: FordCircle) -> str:
    """'tangent' or 'disjoint', decided by comparing D^2 with S^2 exactly.

    D is the center distance, S the radius sum; distinct Ford circles never
    overlap, since D^2 - S^2 = ((bc - ad)^2 - 1)/(b^2 d^2) >= 0.
    """
    if c1.frac == c2.frac:
        raise ValueError("circles coincide")
    dx = c1.center.re - c2.center.re
    dy = c1.center.im - c2.center.im
    d2 = dx * dx + dy * dy
    s = c1.radius + c2.radius
    if d2 == s * s:
        return "tangent"
    if d2 > s * s:
        return "disjoint"
    raise ValueError("overlapping circles: inputs are not reduced fractions")


def _consecutive(prev, mid, nxt) -> tuple[Fraction, int, int, int]:
    """``mid`` as a Fraction and the denominators k1, k, k2 of the triple,
    which must be consecutive in some Farey sequence."""
    prev, mid, nxt = Fraction(prev), Fraction(mid), Fraction(nxt)
    d1 = prev.denominator * mid.numerator - prev.numerator * mid.denominator
    d2 = mid.denominator * nxt.numerator - mid.numerator * nxt.denominator
    if d1 != 1 or d2 != 1:
        raise ValueError(
            f"{prev} < {mid} < {nxt} is not a consecutive Farey triple "
            f"(adjacent determinants {d1}, {d2})"
        )
    return mid, prev.denominator, mid.denominator, nxt.denominator


def tangency_points(prev, mid, nxt) -> TangencyPair:
    """Tangency points of C(mid) with the circles of its two neighbours."""
    mid, k1, k, k2 = _consecutive(prev, mid, nxt)
    alpha1 = QPoint(mid - Fraction(k1, k * (k * k + k1 * k1)), Fraction(1, k * k + k1 * k1))
    alpha2 = QPoint(mid + Fraction(k2, k * (k * k + k2 * k2)), Fraction(1, k * k + k2 * k2))
    return TangencyPair(mid, alpha1, alpha2, k1, k2)


def contour_triples(order: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Consecutive triples (prev, mid, next) of the contour P(order), one per
    fraction of F_order except 0/1.

    The two half arcs at 0/1 and 1/1 fuse into a single arc for 1/1 whose
    right neighbour is the extended fraction (order+1)/order, so the path
    consists of exactly |F_order| - 1 arcs chained by shared tangency
    points.
    """
    order = index(order)  # farey_sequence checks its range
    extended = farey_sequence(order) + [Fraction(order + 1, order)]
    return list(zip(extended, extended[1:], extended[2:]))


def rademacher_path(order: int) -> list[TangencyPair]:
    """Arc records of the contour P(order), one per :func:`contour_triples`."""
    return [tangency_points(*triple) for triple in contour_triples(order)]


def w_chord(prev, mid, nxt, order: int) -> WChord:
    """Images of the tangency points under w = -i k^2 (tau - h/k)."""
    order = read_int(order, "order")
    _, k1, k, k2 = _consecutive(prev, mid, nxt)
    w1 = QPoint(Fraction(k * k, k * k + k1 * k1), Fraction(k * k1, k * k + k1 * k1))
    w2 = QPoint(Fraction(k * k, k * k + k2 * k2), Fraction(-k * k2, k * k + k2 * k2))
    return WChord(w1, w2, k, k1, k2, order)


def chord_bounds_check(chord: WChord) -> bool:
    """Exact check of |w| <= sqrt(2) k/(N+1) and Re(1/w) > 1/4 on the chord.

    Both inequalities are checked squared, at w1 and w2 only.  That decides
    the whole chord: |w|^2 <= 2k^2/(N+1)^2 is a closed disk about 0, and
    Re(1/w) = Re(w)/|w|^2 > 1/4, that is 4 Re w > |w|^2 or |w - 2|^2 < 4, an
    open disk about 2.  Disks are convex, so a segment whose endpoints lie
    in both lies in both.
    """
    norm_bound = Fraction(2 * chord.k * chord.k, (chord.order + 1) ** 2)
    for w in (chord.w1, chord.w2):
        n2 = w.norm2()
        if n2 > norm_bound or 4 * w.re <= n2:
            return False
    return True


def arc_length_bound_check(w: QPoint) -> bool:
    """Minor-arc length from 0 to w on |z - 1/2| = 1/2 is at most pi|w|/2.

    Membership of w on the circle, and w != 0, are checked exactly; the
    bound itself always holds.  Proof: the circle has radius 1/2, so a
    chord of length |w| subtends the central angle 2 asin|w| and the minor
    arc from 0 to w has length asin|w|, with 0 < |w| <= 1.  asin is convex
    on [0, 1] with asin 0 = 0 and asin 1 = pi/2, so it lies below that
    chord: asin|w| <= pi|w|/2, with equality at w = 1.
    """
    w = QPoint(Fraction(w[0]), Fraction(w[1]))
    if (w.re - Fraction(1, 2)) ** 2 + w.im * w.im != Fraction(1, 4):
        raise ValueError("w does not lie on the circle |z - 1/2| = 1/2")
    if w.re == 0 and w.im == 0:
        raise ValueError("w must differ from the origin")
    return True
