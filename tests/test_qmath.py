import math

import numpy as np
import pytest

from qflow.qmath import (
    DomainError,
    alpha_const,
    c0_const,
    c1_const,
    gamma_pos,
    gamma_ratio,
    in_q_domain,
    lgamma_pos,
    make_params,
    q_domain_upper,
    q_exp,
    q_log,
    q_log_pow,
)

# Reference values computed with 50-digit arithmetic (mpmath), independent
# of the Lanczos evaluation under test.
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


def test_lanczos_matches_stdlib():
    xs = np.concatenate([
        np.linspace(0.05, 0.45, 9),
        np.linspace(0.5, 10.0, 39),
        np.geomspace(10.0, 170.0, 25),
    ])
    for x in xs:
        x = float(x)
        assert gamma_pos(x) == pytest.approx(math.gamma(x), rel=1e-13)
        assert lgamma_pos(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def test_gamma_pos_overflow_saturates():
    assert gamma_pos(172.0) == math.inf
    assert gamma_pos(171.6) != math.inf


def test_gamma_ratio_large_arguments():
    # direct Gamma would overflow; the log route must survive q -> 1
    assert gamma_ratio(1e4 + 0.5, 1e4) == pytest.approx(
        math.exp(math.lgamma(1e4 + 0.5) - math.lgamma(1e4)), rel=1e-12
    )


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_gamma_domain_errors(bad):
    with pytest.raises(DomainError):
        gamma_pos(bad)
    with pytest.raises(DomainError):
        lgamma_pos(bad)


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


def test_constant_pipeline_cross_relations():
    for q in (0.3, 0.8, 1.2, 1.6):
        p = make_params(q, 1)
        assert p.m == pytest.approx(3.0 - 2.0 / q, rel=1e-15)
        assert p.alpha == pytest.approx(alpha_const(q, 1), rel=1e-15)
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
