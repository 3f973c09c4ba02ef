"""Farey fractions, Ford circles, and the contour the circle method rides.

Everything is exact rational arithmetic: the Farey sequences, tangency,
the path arcs, and the w-plane chord bounds that make the series converge.
"""

from fractions import Fraction

from partitions import (
    arc_length_bound_check,
    chord_bounds_check,
    farey_neighbors_check,
    farey_sequence,
    ford_circle,
    ford_tangency_class,
    rademacher_path,
    tangency_points,
    w_chord,
    QPoint,
)

print("Farey sequences by the next-term rule:")
for order in (1, 2, 3, 5):
    row = " ".join(str(f) for f in farey_sequence(order))
    print(f"  F_{order}: {row}")
print()

seq = farey_sequence(7)
print(f"F_7 has {len(seq)} entries; adjacent determinants all 1: "
      f"{farey_neighbors_check(seq)}")
print()

print("Ford circles touch the axis at their fraction; neighbours touch each other:")
for a, b in [(Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)),
             (Fraction(1, 3), Fraction(2, 3))]:
    cls = ford_tangency_class(ford_circle(a), ford_circle(b))
    print(f"  C({a}) vs C({b}): {cls}")
print()

pair = tangency_points(Fraction(0), Fraction(1, 2), Fraction(1))
print(f"Tangency points on C(1/2): alpha1 = {pair.alpha1.re} + {pair.alpha1.im}i, "
      f"alpha2 = {pair.alpha2.re} + {pair.alpha2.im}i")
print()

arcs = rademacher_path(3)
print(f"The order-3 contour has {len(arcs)} arcs, one per fraction:")
for arc in arcs:
    print(f"  arc at {arc.frac} (neighbour denominators {arc.left_k}, {arc.right_k})")
print()

order = 5
seq = farey_sequence(order)
extended = seq + [Fraction(order + 1, order)]
chords = [w_chord(extended[j - 1], extended[j], extended[j + 1], order)
          for j in range(1, len(seq))]
print(f"All {len(chords)} w-plane chords of order {order} satisfy "
      f"|w| <= sqrt(2) k/(N+1) and Re(1/w) > 1/4: "
      f"{all(chord_bounds_check(c) for c in chords)}")
example = chords[0]
print(f"  example chord for {seq[1]}: w1 = ({example.w1.re}, {example.w1.im}), "
      f"w2 = ({example.w2.re}, {example.w2.im})")
print()

sweep = []
for i in range(-12, 13):
    t = Fraction(i, 3)
    sweep.append(QPoint(1 / (1 + t * t), t / (1 + t * t)))
print(f"Minor-arc length <= pi |w|/2 along the unit-circle image: "
      f"{all(arc_length_bound_check(w) for w in sweep)} "
      f"({len(sweep)} sampled points)")
