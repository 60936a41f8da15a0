import math

import mpmath
import numpy as np
import pytest

from qflow.qmath import (
    DomainError,
    c0_const,
    c1_const,
    gamma_ratio,
    in_q_domain,
    make_params,
    q_domain_upper,
    q_exp,
    q_log,
    q_log_pow,
)

# Reference values computed with 50-digit arithmetic (mpmath), independent
# of the log-gamma evaluation under test.
FROZEN_C0 = {
    (0.8, 1): 0.3753976913907068,
    (1.2, 1): 0.4399902295225912,
    (0.5, 2): 0.11936620731892150,
    (4.0 / 3.0, 2): 0.31830988618379067,
    (-1.0, 2): 0.09549296585513720,
}
FROZEN_C = {
    (0.8, 1): 1.5934053364708408,
    (1.2, 1): 2.674893497895293,
}
FROZEN_B_12_1 = -0.06944444444444445


@pytest.mark.parametrize("key", sorted(FROZEN_C0, key=repr))
def test_c0_frozen(key):
    q, d = key
    assert c0_const(q, d) == pytest.approx(FROZEN_C0[key], rel=1e-14)


@pytest.mark.parametrize("key", sorted(FROZEN_C, key=repr))
def test_big_c_frozen(key):
    q, d = key
    assert make_params(q, d).C == pytest.approx(FROZEN_C[key], rel=1e-14)


def test_big_b_frozen():
    assert make_params(1.2, 1).B == pytest.approx(FROZEN_B_12_1, rel=1e-14)


def _mp_c0(q, d):
    """C0(q, d) from 50-digit Gamma functions, same formula as c0_const."""
    with mpmath.workdps(50):
        q, half_d = mpmath.mpf(q), mpmath.mpf(d) / 2
        c1 = 2 / (2 + (d + 2) * (1 - q))
        if q < 1:
            z = (2 - q) / (1 - q)
            return mpmath.gamma(z + half_d) / mpmath.gamma(z) * ((1 - q) * c1 / (2 * mpmath.pi)) ** half_d
        z = 1 / (q - 1)
        return mpmath.gamma(z) / mpmath.gamma(z - half_d) * ((q - 1) * c1 / (2 * mpmath.pi)) ** half_d


def _mp_rel_err(value, ref):
    with mpmath.workdps(50):
        return float(abs((mpmath.mpf(value) - ref) / ref))


# q on a 0.05 grid over Q_d, at least 0.05 away from the q = 1 pole
_C0_GRID = [
    (q, d)
    for d in (1, 2)
    for q in (round(0.05 * k, 2) for k in range(1, 34))
    if in_q_domain(q, d) and abs(q - 1.0) >= 0.05
]

# Next to q = 1 the Gamma arguments are of order 1/|1-q| and the ratio is
# the exponential of a difference of two large log-gammas, which cancels
# (the FOUND line on qmath.c0_const in CHANGES.md).  These cases miss the
# grid's bound until that is mended; strict, so a fix shows up as XPASS.
_NEAR_POLE = pytest.mark.xfail(strict=True, reason="c0_const cancels next to q = 1")


@pytest.mark.parametrize(
    "q,d",
    _C0_GRID + [pytest.param(q, d, marks=_NEAR_POLE) for q, d in [(0.999, 1), (1.001, 1), (1.0001, 2)]],
)
def test_c0_matches_mpmath(q, d):
    assert _mp_rel_err(c0_const(q, d), _mp_c0(q, d)) <= 2e-14


@_NEAR_POLE
def test_gamma_ratio_large_arguments_full_precision():
    with mpmath.workdps(50):
        ref = mpmath.gamma(mpmath.mpf(1e4 + 0.5)) / mpmath.gamma(mpmath.mpf(1e4))
    assert _mp_rel_err(gamma_ratio(1e4 + 0.5, 1e4), ref) <= 2e-14


def test_gamma_ratio_large_arguments():
    # Gamma(1e4) overflows; the log route survives q -> 1, within the error
    # of rounding log Gamma(1e4 + 0.5) ~ 8.2e4 to a double
    a, b = 1e4 + 0.5, 1e4
    with mpmath.workdps(50):
        ref = mpmath.gamma(mpmath.mpf(a)) / mpmath.gamma(mpmath.mpf(b))
    assert _mp_rel_err(gamma_ratio(a, b), ref) <= 2.0 * math.lgamma(a) * 2.0**-52


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_gamma_domain_errors(bad):
    with pytest.raises(DomainError):
        gamma_ratio(bad, 1.5)
    with pytest.raises(DomainError):
        gamma_ratio(1.5, bad)


def test_q_exp_exact_rational_point():
    # [1 - 0.2]^(-5) = 0.8^-5 is exactly representable
    assert q_exp(1.0, 1.2) == 3.0517578125


def test_q_exp_edges():
    assert q_exp(-10.0, 0.5) == 0.0
    assert q_exp(5.0, 1.5) == math.inf
    assert q_exp(1e6, 1.2) == math.inf
    assert q_exp(2.0, 1.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    assert q_exp(1e4, 1.0) == math.inf


def test_q_log_inverts_q_exp():
    rng = np.random.default_rng(90210)
    for _ in range(200):
        q = float(rng.uniform(0.05, 1.6))
        if abs(q - 1.0) < 1e-3:
            continue
        t = float(rng.uniform(0.02, 50.0))
        assert q_exp(q_log(t, q), q) == pytest.approx(t, rel=1e-12)
        u = float(rng.uniform(-1.0, 1.0))
        assert q_log(q_exp(u, q), q) == pytest.approx(u, rel=1e-12, abs=1e-14)


def test_q_log_product_rule():
    rng = np.random.default_rng(90211)
    for _ in range(200):
        q = float(rng.uniform(0.05, 1.6))
        x = float(rng.uniform(0.1, 5.0))
        y = float(rng.uniform(0.1, 5.0))
        lhs = q_log(x * y, q)
        rhs = q_log(x, q) + x ** (1.0 - q) * q_log(y, q)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_q_log_near_one_precision():
    # expm1 route: log_q(1 + u) = u + O(u^2) with full relative precision
    for q in (0.8, 1.2):
        u = 1e-12
        assert q_log(1.0 + u, q) == pytest.approx(u, rel=1e-3)
    assert q_log(1.0, 0.8) == 0.0


def test_q_log_domain():
    with pytest.raises(DomainError):
        q_log(0.0, 0.8)
    with pytest.raises(DomainError):
        q_log(-2.0, 1.2)


def test_q_log_pow_consistency():
    rng = np.random.default_rng(90212)
    for _ in range(50):
        q = float(rng.uniform(0.1, 1.55))
        x = float(rng.uniform(0.2, 4.0))
        p = float(rng.uniform(-3.0, 3.0))
        assert q_log_pow(x, p, q) == pytest.approx(q_log(x**p, q), rel=1e-12, abs=1e-13)
    assert q_log_pow(2.0, 3.0, 1.0) == pytest.approx(3.0 * math.log(2.0), rel=1e-15)


def test_domain_predicate():
    assert q_domain_upper(1) == pytest.approx(5.0 / 3.0)
    assert q_domain_upper(2) == 1.5
    assert in_q_domain(0.5, 1)
    assert in_q_domain(1.6, 1)
    assert not in_q_domain(1.0, 1)
    assert not in_q_domain(0.0, 1)
    assert not in_q_domain(5.0 / 3.0, 1)
    assert not in_q_domain(1.5, 2)


@pytest.mark.parametrize("q", [0.0, -0.3, 1.0, 5.0 / 3.0, 2.0])
def test_make_params_rejects_bad_q(q):
    with pytest.raises(DomainError):
        make_params(q, 1)


def test_make_params_rejects_bad_d():
    with pytest.raises(DomainError):
        make_params(0.8, 0)
    with pytest.raises(DomainError):
        make_params(0.8, 1.0)  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "q,d,message",
    [
        (0.0, 1, "q=0.0 outside Q_1 = (0, 1) u (1, 1.6666666666666667)"),
        (1.0, 1, "q=1.0 outside Q_1 = (0, 1) u (1, 1.6666666666666667)"),
        (5.0 / 3.0, 1, "q=1.6666666666666667 outside Q_1 = (0, 1) u (1, 1.6666666666666667)"),
        (math.nan, 1, "q=nan outside Q_1 = (0, 1) u (1, 1.6666666666666667)"),
        (0.8, 0, "d must be a positive integer, got 0"),
        (0.8, 1.5, "d must be a positive integer, got 1.5"),
    ],
)
def test_make_params_domain_messages(q, d, message):
    # the domain is checked before the constants pipeline runs, so q = 1
    # reports Q_1 and not the c0_const pole
    with pytest.raises(DomainError) as exc:
        make_params(q, d)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "q,d",
    [
        (1.000001, 150),  # the Gamma ratio overflows next to q = 1
        (0.5, 400),  # the Gamma ratio overflows
        (1.000001, 100),  # C0 underflows to 0, then meets a negative power
        (0.999999, 100),  # C0, A and C underflow to 0.0
        (0.5, 300),
    ],
)
def test_make_params_large_d_raises_domain_error(q, d):
    with pytest.raises(DomainError, match="not a positive finite double"):
        make_params(q, d)


def test_constant_pipeline_cross_relations():
    for q in (0.3, 0.8, 1.2, 1.6):
        p = make_params(q, 1)
        assert p.m == pytest.approx(3.0 - 2.0 / q, rel=1e-15)
        assert p.alpha == pytest.approx(1.0 / (3.0 - q), rel=1e-15)
        assert p.c1_q_d == pytest.approx(c1_const(q, 1), rel=1e-15)
        assert p.c0_q_d == pytest.approx(c0_const(q, 1), rel=1e-15)
        assert p.B == pytest.approx((1.0 - q) * p.alpha / (2.0 * (2.0 - q)), rel=1e-15)
        assert p.C == pytest.approx((2.0 - q) * p.c1_q_d * p.A / p.alpha, rel=1e-14)


def test_constant_identity():
    # C^((3-q)/2) = (3-q)(2-q) C1 C0^(1-q) ties the full pipeline together
    for q in np.arange(0.1, 1.65, 0.1):
        q = round(float(q), 10)
        if q == 1.0:
            continue
        p = make_params(q, 1)
        lhs = p.C ** ((3.0 - q) / 2.0)
        rhs = (3.0 - q) * (2.0 - q) * p.c1_q_d * p.c0_q_d ** (1.0 - q)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_c1_c0_wider_domain_for_conjugate_exponent():
    # the step coefficients evaluate these at m = 3 - 2/q, which can be <= 0
    assert c1_const(-1.0, 2) == pytest.approx(0.2, rel=1e-15)
    assert c0_const(-1.0, 2) > 0.0
    with pytest.raises(DomainError):
        c1_const(1.5, 2)
    with pytest.raises(DomainError):
        c0_const(1.0, 1)
