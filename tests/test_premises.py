"""The premises of the series' certificate (see :mod:`partitions.rademacher`):
each exp and cos that a term runs is within a relative eps of the exact
value at its computed argument, with eps = 2^-50 for :mod:`math` and
eps = 2^(1 - p) for ``mpmath.libmp`` at p bits.  A libm or an mpmath that
breaks this would certify wrong values silently, so these tests sample the
series' own argument shapes and require half of each eps."""

import math
import random

import pytest
from mpmath.libmp import (from_float, from_int, from_man_exp, mpf_abs, mpf_cos, mpf_div, mpf_exp, mpf_mul_int,
                          mpf_le, mpf_pi, mpf_sub, round_nearest as RND)

from partitions.rademacher import _FLOAT_BITS, _alpha_float

# the largest k the series uses (N at n = 10^9) and the float tier's largest u
K_MAX = 10364
U_FLOAT_MAX = 700
# exact values for the float samples come from 120 bits, for a width p from p + 64
REF_BITS = 120
REF_GUARD = 64


def _within(value, exact, log2_bound: int) -> bool:
    """|value - exact| <= 2^log2_bound |exact|, for raw mpmath values."""
    _, man, exp, _ = exact
    return mpf_le(mpf_abs(mpf_sub(value, exact)), from_man_exp(man, exp + log2_bound))


def _cos_cases(rng, count):
    """(k, l) from the series' cosines pi (6l + 1)/(6k), l < 2k, k >= 3: for
    each random k, a random l and the l whose arguments lie nearest pi/2 and
    3 pi/2, where |cos| is smallest."""
    cases = []
    for _ in range(count):
        k = rng.randrange(3, K_MAX + 1)
        cases += [(k, rng.randrange(2 * k)), (k, round((3 * k - 1) / 6)), (k, round((9 * k - 1) / 6))]
    return cases


def test_math_cos_and_exp_within_half_the_float_eps():
    rng = random.Random(20231)
    log2_bound = -_FLOAT_BITS  # half of eps = 2^(1 - 51)
    for k, l in _cos_cases(rng, 5000):
        x = math.pi * (6 * l + 1) / (6 * k)  # as selberg_sum computes it
        assert _within(from_float(math.cos(x)), mpf_cos(from_float(x), REF_BITS, RND), log2_bound), (k, l)
    for _ in range(10000):
        u = rng.uniform(0, U_FLOAT_MAX)
        assert _within(from_float(math.exp(u)), mpf_exp(from_float(u), REF_BITS, RND), log2_bound), u


@pytest.mark.parametrize("bits", [51, 64, 128, 1024, 4096])
def test_libmp_cos_and_exp_within_half_their_eps(bits):
    rng = random.Random(bits)
    ref_bits = bits + REF_GUARD
    log2_bound = -bits  # half of eps = 2^(1 - p)
    count = 400 if bits <= 128 else 40
    pi = mpf_pi(bits, RND)
    for k, l in _cos_cases(rng, count):
        # as selberg_sum computes it at ``bits``
        x = mpf_div(mpf_mul_int(pi, 6 * l + 1, bits, RND), from_int(6 * k), bits, RND)
        assert _within(mpf_cos(x, bits, RND), mpf_cos(x, ref_bits, RND), log2_bound), (k, l)
    # u = a/k up to the float tier's 700, and up to alpha(10^9) for the head terms
    for top in (U_FLOAT_MAX, math.ceil(_alpha_float(10**9))) * count:
        u = mpf_mul_int(from_man_exp(rng.getrandbits(bits), -bits), top, bits, RND)
        assert _within(mpf_exp(u, bits, RND), mpf_exp(u, ref_bits, RND), log2_bound), (top, u)
