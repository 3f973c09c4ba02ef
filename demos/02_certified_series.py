"""Summing the convergent series for p(n) and certifying the rounding.

Each term couples an exponential-sum weight A_k(n) with a hyperbolic
factor; the partial sum converges onto the integer p(n).  The term count
N is the smallest for which Lehmer's truncation bound T falls below 1/4,
and the report carries T, the floating-error bound E (each term's own
bound plus one rounding of the sum), and the distance to the nearest
integer: T + E < 1/4 proves the rounding.
"""

from mpmath import mp

from partitions import p_exact, p_series

report = p_series(7)
print(f"Series evaluation for n = 7 (precision {report.prec} bits):")
print(f"  {'k':>3} {'A_k(7)':>24} {'R_k(7)':>24}")
for term in report.terms[:8]:
    print(f"  {term.k:>3} {mp.nstr(term.a_k, 8):>24} {mp.nstr(term.r_k, 8):>24}")
print(f"  partial sum over {report.n_terms_used} terms = {mp.nstr(report.partial_sum, 20)}")
print(f"  rounded: {report.rounded}   gap: {mp.nstr(report.gap, 5)}")
print(f"  truncation bound T = {report.truncation_bound:.4g}, "
      f"float error bound E = {report.float_error_bound:.3g} (T + E < 1/4 certifies)")
print()

print("The same machinery scales to large n; the terms needed grow slowly:")
print(f"  {'n':>6} {'terms':>6} {'T':>8} {'E':>10} {'gap':>12}  match")
for n in (10, 100, 1000, 2000, 10000):
    report = p_series(n)
    ok = report.rounded == p_exact(n)
    print(f"  {n:>6} {report.n_terms_used:>6} {report.truncation_bound:>8.5f} "
          f"{report.float_error_bound:>10.2e} {mp.nstr(report.gap, 3):>12}  {ok}")
print()

report = p_series(1000)
value = str(report.rounded)
print(f"p(1000) from the series, certified digit-for-digit:")
print(f"  {value}")
print(f"  ({len(value)} digits, gap {mp.nstr(report.gap, 3)})")
