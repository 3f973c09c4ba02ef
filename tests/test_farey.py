import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partitions import cli
from partitions.farey import (
    QPoint,
    arc_length_bound_check,
    chord_bounds_check,
    contour_triples,
    farey_neighbors_check,
    farey_sequence,
    ford_circle,
    ford_tangency_class,
    rademacher_path,
    tangency_points,
    w_chord,
)

F = Fraction


def brute_force_farey(order):
    return sorted({F(h, k) for k in range(1, order + 1) for h in range(k + 1)})


def mediant_insertion(max_order):
    """F_1, ..., F_max_order by the paper's construction: F_N is F_(N-1) with
    the mediant (a+c)/(b+d) inserted between every adjacent pair a/b < c/d
    with b + d = N."""
    seq = [F(0), F(1)]
    yield seq
    for order in range(2, max_order + 1):
        grown = []
        for left, right in zip(seq, seq[1:]):
            grown.append(left)
            if left.denominator + right.denominator == order:
                grown.append(F(left.numerator + right.numerator, order))
        grown.append(seq[-1])
        seq = grown
        yield seq


def euler_phi(n):
    count = 0
    for m in range(1, n + 1):
        if math.gcd(m, n) == 1:
            count += 1
    return count


def test_farey_first_orders():
    assert farey_sequence(1) == [F(0), F(1)]
    assert farey_sequence(2) == [F(0), F(1, 2), F(1)]
    assert farey_sequence(5) == [
        F(0), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2),
        F(3, 5), F(2, 3), F(3, 4), F(4, 5), F(1),
    ]


def test_farey_order_10_count():
    assert len(farey_sequence(10)) == 33


def test_farey_matches_mediant_insertion():
    for order, expected in enumerate(mediant_insertion(200), start=1):
        assert farey_sequence(order) == expected


def test_contour_triples_end_at_extended_fraction():
    for order in (1, 2, 5, 37):
        triples = contour_triples(order)
        assert len(triples) == len(farey_sequence(order)) - 1
        assert triples[-1][1:] == (F(1), F(order + 1, order))


def test_farey_matches_brute_force():
    for order in range(1, 41):
        assert farey_sequence(order) == brute_force_farey(order)


def test_farey_phi_increment():
    previous = farey_sequence(1)
    for order in range(2, 61):
        current = farey_sequence(order)
        assert len(current) - len(previous) == euler_phi(order)
        previous = current


def test_farey_rejects_bad_order():
    for call in (farey_sequence, contour_triples, rademacher_path):
        with pytest.raises(ValueError, match="positive integer"):
            call(0)


def test_ceiling_refused_before_any_work(capsys):
    # |F_N| ~ 3N^2/pi^2: any of these would run for hours if it were not refused
    for call in (
        lambda: farey_sequence(1001),
        lambda: farey_sequence(10**12),
        lambda: contour_triples(10**12),
        lambda: rademacher_path(10**12),
    ):
        with pytest.raises(ValueError, match="at most 1000"):
            call()
    for command in ("farey", "ford"):
        assert cli.main([command, str(10**12)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "at most 1000" in err


def test_ceiling_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr("partitions.farey._MAX_ORDER", 5)
    assert farey_sequence(5) == brute_force_farey(5)
    assert len(contour_triples(5)) == len(rademacher_path(5)) == 10
    for call in (lambda: farey_sequence(6), lambda: contour_triples(6)):
        with pytest.raises(ValueError, match="at most 5"):
            call()
    assert cli.main(["ford", "5"]) == 0
    capsys.readouterr()
    assert cli.main(["ford", "6"]) == 2
    assert capsys.readouterr().out == ""


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=20, deadline=None)
def test_farey_random_orders(order):
    seq = farey_sequence(order)
    assert seq == brute_force_farey(order)
    assert farey_neighbors_check(seq)


def test_neighbors_check_fragments():
    assert farey_neighbors_check([F(0), F(1, 3), F(1, 2)])
    assert not farey_neighbors_check([F(0), F(2, 5), F(1, 2)])


def test_ford_circle_values():
    c = ford_circle(F(0, 1))
    assert c.center == (F(0), F(1, 2)) and c.radius == F(1, 2)
    c = ford_circle(F(1, 2))
    assert c.center == (F(1, 2), F(1, 8)) and c.radius == F(1, 8)
    c = ford_circle(F(1, 3))
    assert c.center == (F(1, 3), F(1, 18)) and c.radius == F(1, 18)


def test_ford_tangency_examples():
    assert ford_tangency_class(ford_circle(F(0)), ford_circle(F(1, 2))) == "tangent"
    assert ford_tangency_class(ford_circle(F(0)), ford_circle(F(1))) == "tangent"
    assert ford_tangency_class(ford_circle(F(1, 3)), ford_circle(F(2, 3))) == "disjoint"
    with pytest.raises(ValueError):
        ford_tangency_class(ford_circle(F(1, 2)), ford_circle(F(1, 2)))


def test_ford_consecutive_circles_tangent():
    for order in range(2, 31):
        seq = farey_sequence(order)
        for left, right in zip(seq, seq[1:]):
            assert ford_tangency_class(ford_circle(left), ford_circle(right)) == "tangent"


def test_ford_tangency_matches_determinant():
    # all pairs at order 30 (covers every smaller order as a subset):
    # tangent iff the pair determinant is +-1, disjoint otherwise
    seq = farey_sequence(30)
    circles = [ford_circle(f) for f in seq]
    for i, left in enumerate(seq):
        for j in range(i + 1, len(seq)):
            right = seq[j]
            det = left.denominator * right.numerator - left.numerator * right.denominator
            expected = "tangent" if det * det == 1 else "disjoint"
            assert ford_tangency_class(circles[i], circles[j]) == expected


def _on_circle(point, circle):
    dx = point.re - circle.center.re
    dy = point.im - circle.center.im
    return dx * dx + dy * dy == circle.radius * circle.radius


def test_tangency_points_example():
    pair = tangency_points(F(0), F(1, 2), F(1))
    assert pair.alpha1 == (F(2, 5), F(1, 5))
    assert pair.alpha2 == (F(3, 5), F(1, 5))
    # mirror symmetry about Re = 1/2 when k1 = k2
    assert pair.alpha1.re + pair.alpha2.re == 1
    assert pair.alpha1.im == pair.alpha2.im
    assert _on_circle(pair.alpha1, ford_circle(F(1, 2)))
    assert _on_circle(pair.alpha2, ford_circle(F(1, 2)))
    with pytest.raises(AttributeError):
        pair.left_k = 2


def test_tangency_points_rejects_non_consecutive():
    with pytest.raises(ValueError):
        tangency_points(F(0), F(2, 5), F(1, 2))


def test_tangency_points_on_circles_exhaustive():
    for order in range(1, 13):
        for pair in rademacher_path(order):
            circle = ford_circle(pair.frac)
            assert _on_circle(pair.alpha1, circle)
            assert _on_circle(pair.alpha2, circle)


def test_path_order_one():
    arcs = rademacher_path(1)
    assert len(arcs) == 1
    arc = arcs[0]
    assert arc.frac == 1
    assert arc.left_k == 1 and arc.right_k == 1
    assert arc.alpha1 == (F(1, 2), F(1, 2))
    assert arc.alpha2 == (F(3, 2), F(1, 2))


def test_path_order_three():
    arcs = rademacher_path(3)
    assert [arc.frac for arc in arcs] == [F(1, 3), F(1, 2), F(2, 3), F(1)]


# `partitions ford 5` as printed before the contour triples moved into farey
FORD_5_CSV = """\
h,k,k1,k2,w1_re,w1_im,w2_re,w2_im
1,5,1,4,25/26,5/26,25/41,-20/41
1,4,5,3,16/41,20/41,16/25,-12/25
1,3,4,5,9/25,12/25,9/34,-15/34
2,5,3,2,25/34,15/34,25/29,-10/29
1,2,5,5,4/29,10/29,4/29,-10/29
3,5,2,3,25/29,10/29,25/34,-15/34
2,3,5,4,9/34,15/34,9/25,-12/25
3,4,3,5,16/25,12/25,16/41,-20/41
4,5,4,1,25/41,20/41,25/26,-5/26
1,1,5,5,1/26,5/26,1/26,-5/26
"""


def test_ford_cli_golden_order_5(capsys):
    assert cli.main(["ford", "5"]) == 0
    out, err = capsys.readouterr()
    assert out == FORD_5_CSV
    assert err == ""


def test_path_arcs_chain():
    for order in (2, 5, 8):
        arcs = rademacher_path(order)
        for first, second in zip(arcs, arcs[1:]):
            assert first.alpha2 == second.alpha1


def test_w_chord_example():
    chord = w_chord(F(0), F(1, 2), F(1), 2)
    assert chord.w1 == (F(4, 5), F(2, 5))
    assert chord.w2 == (F(4, 5), F(-2, 5))
    # |w1|^2 = k^2/(k^2+k1^2) = 4/5
    assert chord.w1.norm2() == F(4, 5)
    for w in (chord.w1, chord.w2):
        assert (w.re - F(1, 2)) ** 2 + w.im * w.im == F(1, 4)
    with pytest.raises(AttributeError):
        chord.order = 3


def test_w_chord_validation():
    with pytest.raises(ValueError):
        w_chord(F(0), F(2, 5), F(1, 2), 5)
    with pytest.raises(ValueError):
        w_chord(F(0), F(1, 2), F(1), 0)


def test_chord_bounds_hold():
    for order in (5, 20):
        seq = farey_sequence(order)
        extended = seq + [F(order + 1, order)]
        for j in range(1, len(seq)):
            chord = w_chord(extended[j - 1], extended[j], extended[j + 1], order)
            assert chord_bounds_check(chord)


def test_chord_bounds_hold_at_interior_points():
    # the endpoints decide the chord, as both bounds are disks: every
    # w1 + (j/8)(w2 - w1) meets |w|^2 <= 2k^2/(N+1)^2 and 4 Re w > |w|^2
    for order in range(1, 31):
        for triple in contour_triples(order):
            chord = w_chord(*triple, order)
            assert chord_bounds_check(chord)
            norm_bound = F(2 * chord.k * chord.k, (order + 1) ** 2)
            for j in range(9):
                t = F(j, 8)
                w = QPoint(
                    chord.w1.re + t * (chord.w2.re - chord.w1.re),
                    chord.w1.im + t * (chord.w2.im - chord.w1.im),
                )
                assert w.norm2() <= norm_bound
                assert 4 * w.re > w.norm2()


def test_chord_bounds_can_fail_for_wrong_order():
    # a triple from F_2 pretending to come from a much finer sequence
    chord = w_chord(F(0), F(1, 2), F(1), 50)
    assert not chord_bounds_check(chord)


def test_arc_length_bound_equality_case():
    assert arc_length_bound_check(QPoint(F(1), F(0)))


def test_arc_length_bound_sample():
    assert arc_length_bound_check(QPoint(F(1, 2), F(1, 2)))


def test_arc_length_bound_sweep():
    # rational parametrization of the circle: (1/(1+t^2), t/(1+t^2))
    for i in range(-32, 33):
        t = F(i, 4)
        w = QPoint(1 / (1 + t * t), t / (1 + t * t))
        assert arc_length_bound_check(w)


def test_arc_length_bound_rejects_bad_points():
    with pytest.raises(ValueError):
        arc_length_bound_check(QPoint(F(0), F(0)))
    with pytest.raises(ValueError):
        arc_length_bound_check(QPoint(F(1, 3), F(1, 3)))
