import time
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from partitions.eta import (
    conjugate_inverse,
    eta,
    exp_i_pi_rational,
    generating_function,
    verify_eta,
    verify_f_transform,
)
from partitions.exact import PartitionCache, p_exact
from partitions.precision import PrecisionContext

CTX = PrecisionContext(128)
CTX256 = PrecisionContext(256)


def test_generating_function_near_zero():
    with CTX.workprec():
        x = mpf(2) ** -60
        assert generating_function(x, CTX) - 1 < mpf(2) ** -55
        assert generating_function(x, CTX) - 1 > 0


def test_generating_function_rejects_big_arguments():
    with pytest.raises(ValueError):
        generating_function(1, CTX)
    with pytest.raises(ValueError):
        generating_function(mpf("1.5"), CTX)
    with pytest.raises(ValueError):
        generating_function(mpc(0.8, 0.7), CTX)
    # nan passes every comparison, and would end in mpmath's NoConvergence
    for x in (mpf("nan"), mpc(0, "nan"), mpf("inf")):
        with pytest.raises(ValueError, match="finite"):
            generating_function(x, CTX)


def _product_coefficients(degree):
    """Expand prod_{m=1}^{degree} 1/(1-x^m) to x^degree with exact ints."""
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for m in range(1, degree + 1):
        # multiply by the geometric series 1 + x^m + x^{2m} + ...
        for j in range(m, degree + 1):
            coeffs[j] += coeffs[j - m]
    return coeffs


def test_product_coefficients_are_partition_numbers():
    cache = PartitionCache()
    coeffs = _product_coefficients(10)
    assert coeffs == [p_exact(n, cache) for n in range(11)]


def test_generating_function_matches_series_at_small_x():
    # F(1/100) against the degree-10 polynomial; coefficients grow slowly
    # enough that the tail is far below the comparison tolerance.
    cache = PartitionCache()
    with CTX.workprec():
        x = mpf(1) / 100
        poly = mpf(0)
        for n in range(10, -1, -1):
            poly = poly * x + p_exact(n, cache)
        assert abs(generating_function(x, CTX) - poly) < mpf(10) ** -18


def test_generating_function_reference_point():
    # F(e^{-pi/48}) - 1 compared with the exact-coefficient series
    # sum p(n) x^n, an independent route to the same number.
    cache = PartitionCache()
    cache.extend_to(6000)
    ctx = PrecisionContext(160)
    with ctx.workprec():
        x = mp.exp(-mp.pi / 48)
        series = mpf(0)
        for n in range(6000, 0, -1):
            series += cache[n] * x**n
        product = generating_function(x, ctx) - 1
        assert product > 0
        assert abs(product - series) / series < mpf(10) ** -30


def _euler_product_oracle(q, ctx):
    """prod_{m>=1} (1 - q^m) by the truncated product, stopped once |q|^m
    falls below 2^-(bits+8): an independent route to mp.qp(q)."""
    with ctx.workprec():
        thresh = mpf(2) ** -(ctx.bits + 8)
        prod = q * 0 + 1  # one of the same type as q
        power = prod
        while True:
            power *= q
            prod *= 1 - power
            if abs(power) < thresh:
                return prod


def _assert_close(value, reference):
    """value, computed at CTX, within 2^-(bits-8) of the 2x-bits reference."""
    with CTX256.workprec():
        assert abs(value - reference) <= abs(reference) * mpf(2) ** -(CTX.bits - 8)


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.3 + 0.002j, 0.001j])
def test_eta_matches_product_oracle(tau):
    tau = mpc(tau)
    with CTX256.workprec():
        reference = mp.expjpi(tau / 12) * _euler_product_oracle(mp.expjpi(2 * tau), CTX256)
    _assert_close(eta(tau, CTX), reference)


def test_generating_function_matches_product_oracle():
    with CTX.workprec():
        xs = [mpf(0), mpf(2) ** -60, mp.exp(-mp.pi / 48), mpf("0.8") * mp.expj(mpf("0.3"))]
    for x in xs:
        with CTX256.workprec():
            reference = 1 / _euler_product_oracle(x, CTX256)
        _assert_close(generating_function(x, CTX), reference)


def test_eta_known_value_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4}), a classical closed form
    with CTX.workprec():
        expected = mp.gamma(mpf(1) / 4) / (2 * mp.pi ** mpf("0.75"))
        value = eta(mpc(0, 1), CTX)
        assert abs(value.imag) < mpf(2) ** -100
        assert abs(value.real - expected) < mpf(2) ** -100


def test_near_real_axis_fails_fast():
    # Im tau = 10^-6 would run qp for seconds before NoConvergence; refused at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Im tau"):
        eta(mpc(0.3, 1e-6), CTX)
    with pytest.raises(ValueError, match=r"\|x\|"):
        generating_function(1 - mpf(10) ** -7, CTX)
    assert time.perf_counter() - start < 0.5


def test_eta_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        eta(mpc(0, -1), CTX)
    with pytest.raises(ValueError):
        eta(mpf(2), CTX)
    for tau in (mpc("nan", 1), mpc(0, "nan"), mpc("inf", 1), mpc(0, "inf")):
        with pytest.raises(ValueError, match="finite"):
            eta(tau, CTX)


def test_verify_eta_inversion_at_i():
    report = verify_eta((0, -1, 1, 0), mpc(0, 1), CTX)
    assert report.residual < mpf(10) ** -10
    with pytest.raises(AttributeError):
        report.residual = mpf(0)


def test_verify_eta_translation_like_case():
    report = verify_eta((1, 0, 1, 1), mpc(0, 1), CTX)
    assert report.residual < mpf(10) ** -10
    assert report.matrix == (1, 0, 1, 1)


def test_verify_eta_general_cases():
    for matrix, tau in [
        ((2, 1, 1, 1), mpc("0.3", "0.8")),
        ((1, -1, 2, -1), mpc("0.25", "0.5")),
        ((3, 1, 5, 2), mpc("-0.2", "1.2")),
    ]:
        assert verify_eta(matrix, tau, CTX).residual < mpf(10) ** -10


def test_verify_eta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_eta((1, 0, 0, 1), mpc(0, 1), CTX)  # c = 0
    with pytest.raises(ValueError):
        verify_eta((1, 1, 1, 1), mpc(0, 1), CTX)  # det 0
    with pytest.raises(ValueError):
        verify_eta((0, -1, 1, 0), mpc(0, -2), CTX)
    with pytest.raises(ValueError, match="finite"):
        verify_eta((1, 0, 1, 1), mpc("inf", 1), CTX)


def test_verify_eta_residual_shrinks_with_precision():
    tau = mpc("0.3", "0.8")
    r128 = verify_eta((2, 1, 1, 1), tau, CTX).residual
    r256 = verify_eta((2, 1, 1, 1), tau, CTX256).residual
    assert r256 < r128


def test_conjugate_inverse():
    assert conjugate_inverse(1, 1) == 1
    assert conjugate_inverse(1, 2) == 1
    assert conjugate_inverse(1, 3) == 2
    assert conjugate_inverse(3, 5) == 3
    for h, k in [(1, 2), (2, 3), (5, 12), (7, 11)]:
        H = conjugate_inverse(h, k)
        assert 1 <= H <= k
        assert (h * H) % k == (-1) % k
    for h, k in ((2, 4), (1, 0)):
        with pytest.raises(ValueError):
            conjugate_inverse(h, k)


def test_exp_i_pi_rational():
    # t is reduced mod 2 before evaluation, so t and t +- 2 give the same bits
    with CTX.workprec():
        eps = mp.eps
        for t in (Fraction(1, 3), Fraction(-5, 7), Fraction(7, 2), Fraction(0)):
            value = exp_i_pi_rational(t)
            assert exp_i_pi_rational(t + 2) == value == exp_i_pi_rational(t - 2), t
        assert abs(exp_i_pi_rational(Fraction(1, 2)) - 1j) <= eps
        assert abs(exp_i_pi_rational(Fraction(1)) + 1) <= eps


def test_exp_i_pi_rational_runs_at_its_context_width():
    # the ambient precision, which another thread may have set, changes no bit
    t = Fraction(-5, 7)
    values = []
    for prec in (53, 300):
        with mp.workprec(prec):
            values.append(exp_i_pi_rational(t, CTX256)._mpc_)
    assert values[0] == values[1]
    assert exp_i_pi_rational(t)._mpc_ == exp_i_pi_rational(t, CTX)._mpc_


def test_verify_f_transform_cases():
    assert verify_f_transform(1, 1, mpf(1), CTX) < mpf(10) ** -10
    assert verify_f_transform(1, 2, mpf("0.5"), CTX) < mpf(10) ** -10
    assert verify_f_transform(1, 3, mpf(1), CTX) < mpf(10) ** -10
    assert verify_f_transform(2, 3, mpc(1, "0.3"), CTX) < mpf(10) ** -10


def test_verify_f_transform_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_f_transform(1, 2, mpf(-1), CTX)
    with pytest.raises(ValueError):
        verify_f_transform(1, 2, mpc(0, 1), CTX)
    with pytest.raises(ValueError, match="coprime"):
        verify_f_transform(2, 4, mpf(1), CTX)
    with pytest.raises(ValueError):
        verify_f_transform(5, 3, mpf(1), CTX)
    with pytest.raises(ValueError, match="finite"):
        verify_f_transform(1, 1, mpc(1, "inf"), CTX)
    for k in (0, -1):  # no 1 <= h <= k exists
        with pytest.raises(ValueError, match="need 1 <= h <= k"):
            verify_f_transform(1, k, mpf(1), CTX)
