import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflow import oracle
from qflow.checks import moment_identity_error
from qflow.pme_flow import (
    barenblatt_density,
    evolve_sigma,
    sigma_sq_gap,
    theta_map_1d,
)
from qflow.qgaussian import QGaussian1D
from qflow.qmath import DomainError, make_params

# Reference value computed with 50-digit arithmetic (mpmath).
FROZEN_SIGMA_SQ = 1.0090867918077359  # evolve_sigma(1, 0.01, 0.8)^2


def test_evolve_sigma_frozen():
    s = evolve_sigma(1.0, 0.01, 0.8)
    assert s * s == pytest.approx(FROZEN_SIGMA_SQ, rel=1e-14)


def test_evolve_sigma_at_zero_time():
    for q in (0.5, 1.2):
        assert evolve_sigma(1.3, 0.0, q) == pytest.approx(1.3, rel=1e-15)


def test_semigroup_property():
    rng = np.random.default_rng(777)
    for _ in range(50):
        q = float(rng.uniform(0.05, 1.6))
        s0 = float(rng.uniform(0.3, 3.0))
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = float(rng.uniform(0.0, 2.0))
        direct = evolve_sigma(s0, t1 + t2, q)
        composed = evolve_sigma(evolve_sigma(s0, t1, q), t2, q)
        assert composed == pytest.approx(direct, rel=1e-13)


def test_sigma_sq_gap_no_cancellation():
    # at h = 1e-14 the naive difference sigma_h^2 - sigma0^2 has ~2 digits
    q = 0.8
    h = 1e-14
    gap = sigma_sq_gap(1.0, h, q)
    assert gap == pytest.approx(2.0 * h / (3.0 - q), rel=1e-10)
    naive = evolve_sigma(1.0, h, q) ** 2 - 1.0
    assert abs(naive / gap - 1.0) > 1e-6


@pytest.mark.parametrize("sigma0,h", [(1e300, 0.1), (1e-300, 0.1), (1e-120, 1e300)])
def test_unrepresentable_growth_raises_domain_error(sigma0, h):
    # sigma0^(3-q) overflows, underflows to 0, or h / sigma0^(3-q) overflows
    for fn in (evolve_sigma, sigma_sq_gap):
        with pytest.raises(DomainError):
            fn(sigma0, h, 0.8)


def test_theta_map_consistency():
    for q in (0.5, 0.8, 1.2):
        s0, t = 1.4, 0.9
        v = s0 ** (3.0 - q) + t
        assert theta_map_1d(v, q) == pytest.approx(evolve_sigma(s0, t, q) ** 2, rel=1e-14)
    with pytest.raises(DomainError):
        theta_map_1d(0.0, 0.8)


@pytest.mark.parametrize("q", [0.8, 1.2])
def test_barenblatt_is_family_member(q):
    p = make_params(q, 1)
    t = 0.7
    g = QGaussian1D(mu=0.0, sigma=t ** (1.0 / (3.0 - q)), params=p)
    for x in np.linspace(-3.0, 3.0, 61):
        assert barenblatt_density(t, float(x), p) == pytest.approx(
            g.density(float(x)), rel=1e-13, abs=1e-300
        )
    with pytest.raises(DomainError):
        barenblatt_density(0.0, 1.0, p)


def test_barenblatt_support_radius_frozen():
    # edge sqrt(A/B) t^alpha at t=1; reference from 50-digit arithmetic
    p = make_params(0.8, 1)
    assert math.sqrt(p.A / p.B) == pytest.approx(4.551293154052036, rel=1e-13)
    assert barenblatt_density(1.0, 4.5513, p) == 0.0
    assert barenblatt_density(1.0, 4.5512, p) > 0.0


def test_mass_conserved_along_flow():
    for q in (0.8, 1.2):
        p = make_params(q, 1)
        for t in (0.1, 1.0):
            g = QGaussian1D(mu=0.0, sigma=evolve_sigma(1.0, t, q), params=p)
            assert oracle.mass_quad(g).value == pytest.approx(1.0, abs=1e-10)


def test_moment_identity_holds_across_q_and_sigma():
    # d/dt int x^2 rho = 2 int rho^(2-q) holds across the compact edge; the
    # worst gap, 1.13e-12, is at q = 0.05, sigma = 1e3, where 1 + (1-q) S
    # cancels to 1.4e-3.  nan (a failed quadrature) fails the bound too.
    cfgs = (None, oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15))
    for q in (0.05, 0.3, 0.8, 0.99, 0.9999, 1.0001, 1.01, 1.2, 1.45, 1.6, 1.66):
        for sigma in (1e-3, 0.7, 1.3, 1e3):
            g = QGaussian1D(mu=0.0, sigma=sigma, params=make_params(q, 1))
            for cfg in cfgs:
                assert moment_identity_error(g, cfg) <= 1e-11, (q, sigma, cfg)


_Q1 = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1.0, max_value=5.0 / 3.0, exclude_min=True, exclude_max=True),
)
_FINITE_SCALE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(q=_Q1, t=_FINITE_SCALE, x=_FINITE)
# t^(-2 alpha) overflowed while x^2 t^(-2 alpha) does not: OverflowError
@example(q=1.4317721068501226, t=8.90465737006433e-310, x=1.56083997812504e-99)
# x^2 overflowed and t^(-2 alpha) underflowed: nan
@example(q=1.5972353154828913, t=1.5564285409984245e264, x=5.2345642277806013e290)
# v^(2/(3-q)) = 1.95e354 overflowed: OverflowError
@example(q=1.3305824561821653, t=5.363211624658431e295, x=0.0)
def test_flow_returns_or_raises_domain_error(q, t, x):
    # with t as the scale, the variable V and the time, and x as the step and
    # the point, a public function of the flow returns a finite value or
    # raises DomainError, never another exception
    p = make_params(q, 1)
    calls = (
        lambda: evolve_sigma(t, x, q),
        lambda: sigma_sq_gap(t, x, q),
        lambda: theta_map_1d(t, q),
        lambda: barenblatt_density(t, x, p),
    )
    for call in calls:
        try:
            value = call()
        except DomainError:
            continue
        assert math.isfinite(value)


def test_barenblatt_past_the_direct_powers_matches_mpmath():
    # t^(-2 alpha) = 1e395 overflows; the density, from 50-digit arithmetic
    # on the double constants A, B and alpha, is an ordinary double.  The log
    # form is 1.7e-15 off here.
    p = make_params(1.4317721068501226, 1)
    value = barenblatt_density(8.90465737006433e-310, 1.56083997812504e-99, p)
    assert value == pytest.approx(2.1557565225179959e-257, rel=1e-14)
    # x^2 t^(-2 alpha) = inf * 0 was nan; the density is 1.9e-531
    p = make_params(1.5972353154828913, 1)
    assert barenblatt_density(1.5564285409984245e264, 5.2345642277806013e290, p) == 0.0
    # the bracket overflows to inf; the bracket 6.4e77 has a power below the
    # double range, against t^(-alpha) = 2e97: both read 0.0 on the direct
    # powers.  Where 1/(1-q) amplifies the rounding of logs near 500, the
    # log form is 1.7e-13 and 2.2e-13 off; its worst over 14k such draws
    # was 2.2e-12.
    p = make_params(1.453184943320259, 1)
    value = barenblatt_density(9.034113384401798e230, 1.2486929276036785e155, p)
    assert value == pytest.approx(2.6149450440471603e-174, rel=1e-12)
    p = make_params(1.2097041372956745, 1)
    value = barenblatt_density(6.388931745992822e-175, -1.4801074274856048e-58, p)
    assert value == pytest.approx(1.8075500214244208e-274, rel=1e-12)
