"""The modulus that Ramanujan's congruences, as proved by G. N. Watson (J. reine
angew. Math. 179, 1938) and A. O. L. Atkin (Glasgow Math. J. 8, 1967), make
divide p(n), a check on p(n) that needs neither its value nor sympy:

- if 24n = 1 (mod 5^a), then 5^a divides p(n);
- if 24n = 1 (mod 7^a), then 7^(floor(a/2) + 1) divides p(n);
- if 24n = 1 (mod 11^a), then 11^a divides p(n).
"""


def _valuation(m: int, prime: int) -> int:
    """The largest a with prime^a dividing m != 0."""
    a = 0
    while m % prime == 0:
        m //= prime
        a += 1
    return a


def guaranteed_modulus(n: int) -> int:
    """The product of the powers of 5, 7 and 11 that the theorems above make divide p(n)."""
    a5, a7, a11 = (_valuation(24 * n - 1, prime) for prime in (5, 7, 11))
    return 5**a5 * (7 ** (a7 // 2 + 1) if a7 else 1) * 11**a11
