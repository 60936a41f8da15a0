import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import _tanhsinh, checks, oracle
from qflow.functionals import StepPair, entropy_diff, jh, jko_step, q0h
from qflow.qgaussian import (
    QGaussian1D,
    entropy_diff_closed,
    m_rel_entropy_closed,
    make_bivariate,
)
from qflow.qmath import DomainError, make_params


def test_truncation_policy_recorded():
    compact = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(0.8, 1))
    heavy = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1))
    assert oracle.mass_quad(compact).note == "two half-lines from the mean, to the support edge"
    for res in (oracle.mass_quad(heavy), oracle.moment2_quad(heavy), oracle.entropy_quad(heavy)):
        assert res.note == "two half-lines from the mean, untruncated"
    # a quad message rides along after the policy
    tight = oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=2)
    res = oracle.entropy_quad(QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.66, 1)), tight)
    assert not res.converged
    assert res.note.startswith("two half-lines from the mean, untruncated; ")


@pytest.mark.parametrize("q", [0.02, 0.5, 0.95, 1.001, 1.3, 1.6, 1.65, 1.66, 1.666])
def test_line_quad_converges_across_q1(q):
    # N(0.2, C 1.3^2): compact, near-Gaussian and barely integrable tails
    params = make_params(q, 1)
    g = QGaussian1D(mu=0.2, sigma=1.3, params=params)
    wide = QGaussian1D(mu=0.2, sigma=1.5 * 1.3, params=params)
    mass, moment2 = oracle.mass_quad(g), oracle.moment2_quad(g)
    ent, ent_wide = oracle.entropy_quad(g), oracle.entropy_quad(wide)
    assert mass.converged and moment2.converged and ent.converged and ent_wide.converged
    assert abs(mass.value - 1.0) <= 1e-12
    assert moment2.value == pytest.approx(g.variance, rel=1e-11)
    assert ent_wide.value - ent.value == pytest.approx(entropy_diff(wide, g), rel=1e-9)


@pytest.mark.parametrize("q", [0.5, 1.3])
def test_line_quad_scale_below_resolution_of_mean(q):
    # mu + sigma rounds to mu here: the rule must integrate about the offset
    g = QGaussian1D(mu=10.0, sigma=1e-100, params=make_params(q, 1))
    res = oracle.mass_quad(g)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-12


@pytest.mark.parametrize("q", [0.5, 1.666])
@pytest.mark.parametrize("sigma", [1e-100, 1e50])
def test_moment2_quad_relative_accuracy_at_extreme_scales(q, sigma):
    # the second moment C sigma^2 is far from 1: the tolerance must follow it
    g = QGaussian1D(mu=0.0, sigma=sigma, params=make_params(q, 1))
    res = oracle.moment2_quad(g)
    assert res.converged
    assert abs(res.value / g.variance - 1.0) <= 1e-9


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    q=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=1.0, max_value=5.0 / 3.0, exclude_min=True, exclude_max=True),
    ),
    log_sigma=st.floats(min_value=-3.0, max_value=3.0),
    mu=st.floats(min_value=-1e3, max_value=1e3),
)
def test_line_quad_finite_or_domain_error(q, log_sigma, mu):
    g = QGaussian1D(mu=mu, sigma=10.0**log_sigma, params=make_params(q, 1))
    for oracle_1d in (oracle.mass_quad, oracle.moment2_quad, oracle.entropy_quad):
        try:
            value = oracle_1d(g).value
        except DomainError:
            continue
        assert math.isfinite(value)


def test_mrel_two_integrand_forms_agree():
    # nested compact supports: narrow member inside a wide one
    f = make_bivariate(0.05, -0.02, 0.5, 0.4, 0.2, 0.5)
    g = make_bivariate(0.0, 0.0, 1.1, 1.0, -0.1, 0.5)
    assert oracle.support_included(f, g)
    first = oracle.m_rel_entropy_quad(f, g, form="first").value
    second = oracle.m_rel_entropy_quad(f, g, form="second").value
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    assert first == pytest.approx(second, rel=1e-8)
    assert second == pytest.approx(closed, rel=1e-6)

    fh = make_bivariate(0.2, 0.1, 0.9, 1.1, 0.3, 4.0 / 3.0)
    gh = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 4.0 / 3.0)
    first = oracle.m_rel_entropy_quad(fh, gh, form="first").value
    second = oracle.m_rel_entropy_quad(fh, gh, form="second").value
    closed = m_rel_entropy_closed(fh.mparams, fh.mean, fh.cov, gh.mean, gh.cov)
    assert first == pytest.approx(second, rel=1e-7)
    assert second == pytest.approx(closed, rel=1e-6)


def test_mrel_quad_near_upper_exponent():
    # close to m = 3/2 the tails are barely integrable; the wings policy
    # must still land inside the closed-form tolerance
    m = 1.48
    f = make_bivariate(0.1, 0.0, 0.9, 1.1, 0.25, m)
    g = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, m)
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    quad = oracle.m_rel_entropy_quad(f, g).value
    assert quad == pytest.approx(closed, rel=1e-6)


def test_mrel_quad_honest_outside_nesting():
    # with supports not nested the defining integral and the closed form
    # are different quantities; the oracle must report the integral
    f = make_bivariate(0.0, 0.0, 2.0, 2.0, 0.0, 0.5)
    g = make_bivariate(0.0, 0.0, 0.5, 0.5, 0.0, 0.5)
    assert not oracle.support_included(f, g)
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    quad = oracle.m_rel_entropy_quad(f, g).value
    assert abs(quad - closed) > 1e-3 * abs(closed)


def test_mrel_zero_at_equal_and_exponent_mismatch():
    nu = make_bivariate(0.1, -0.2, 1.0, 0.8, 0.3, 1.2)
    assert abs(oracle.m_rel_entropy_quad(nu, nu).value) < 1e-12
    other = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 1.3)
    with pytest.raises(DomainError):
        oracle.m_rel_entropy_quad(nu, other)
    with pytest.raises(ValueError):
        oracle.m_rel_entropy_quad(nu, nu, form="third")


# Criterion 3's configuration for the 2D cross-checks.
CRIT3_CFG = oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)


def test_entropy_quad_2d_near_upper_exponent():
    # the box-plus-wings rule missed this by 4.5e-3 to 1.3e-2, unconverged
    m = 1.45
    nu_a = make_bivariate(0.2, -0.1, 0.75, 0.8, 0.3, m)
    nu_b = make_bivariate(-0.1, 0.25, 1.3, 1.2, -0.4, m)
    res_a = oracle.entropy_quad_2d(nu_a, CRIT3_CFG)
    res_b = oracle.entropy_quad_2d(nu_b, CRIT3_CFG)
    assert res_a.converged and res_b.converged
    closed = entropy_diff_closed(nu_a.mparams, nu_a.det_cov, nu_b.det_cov)
    assert res_a.value - res_b.value == pytest.approx(closed, rel=1e-6)


def test_mrel_quad_heavy_tail_criterion_geometry():
    m = 1.45
    f = make_bivariate(0.28, 0.09, 1.25, 0.72, -0.45, m)
    g = make_bivariate(-0.27, 0.18, 0.82, 1.18, 0.48, m)
    res = oracle.m_rel_entropy_quad(f, g, CRIT3_CFG)
    assert res.converged
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    assert res.value == pytest.approx(closed, rel=1e-6)
    assert "polar" in res.note and "angles" in res.note and "centre (0.28, 0.09)" in res.note


def test_mrel_forms_agree_on_crossing_supports():
    # the ellipses cross: neither support holds the other and the centres differ
    f = make_bivariate(0.1, 0.05, 1.2, 0.5, 0.3, 0.5)
    g = make_bivariate(-0.1, 0.0, 0.6, 1.1, -0.2, 0.5)
    assert not oracle.support_included(f, g)
    assert not oracle.support_included(g, f)
    first = oracle.m_rel_entropy_quad(f, g, CRIT3_CFG, form="first")
    second = oracle.m_rel_entropy_quad(f, g, CRIT3_CFG, form="second")
    assert first.converged and second.converged
    assert first.value == pytest.approx(second.value, rel=1e-8)


def test_small_budget_reports_unconverged():
    # needs far more than one block of angles at this tolerance
    f = make_bivariate(0.0, 0.0, 1.6, 1.5, -0.86, 4.0 / 3.0)
    g = make_bivariate(0.0, 0.0, 1.6, 1.7, 0.97, 4.0 / 3.0)
    tight = oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=1)
    res = oracle.m_rel_entropy_quad(f, g, tight)
    assert not res.converged
    assert oracle.m_rel_entropy_quad(f, g, CRIT3_CFG).converged


def test_theta_family_minimizer_stationarity():
    p_biv = q0h(QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1)), 0.05)
    m = p_biv.m
    kappa = (3.0 - m) / 2.0

    def s(e):
        return e * (1.0 - e * e) ** (-kappa)

    for xi1, xi2 in [(1.7, 1.5), (1.2, 1.9), (0.9, 1.1)]:
        eta = oracle.theta_family_minimizer(p_biv, xi1, xi2)
        rhs = s(p_biv.theta) * (xi1 * xi2 / (p_biv.s1 * p_biv.s2)) ** (2.0 - m)
        assert s(eta) == pytest.approx(rhs, rel=1e-12)
    # matching scales reproduce the reference correlation itself
    eta = oracle.theta_family_minimizer(p_biv, p_biv.s1, p_biv.s2)
    assert eta == pytest.approx(p_biv.theta, rel=1e-12)


def test_minimize_theta_matches_analytic():
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1))
    p_biv = q0h(g0, 0.05)
    xi1, xi2 = 1.7, 1.5
    res = oracle.minimize_theta(p_biv, 0.0, xi1, 0.0, xi2)
    eta = oracle.theta_family_minimizer(p_biv, xi1, xi2)
    assert res.theta == pytest.approx(eta, abs=1e-5)
    assert res.value > 0.0
    assert res.converged


def test_minimize_theta_extends_past_the_grid_at_small_step():
    # the flow coupling's correlation lies beyond the grid's |theta| <= 0.9995
    p = make_params(1.2, 1)
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=p)
    g = QGaussian1D(mu=0.0, sigma=1.3, params=p)
    h = 1e-3
    root_c = math.sqrt(p.C)
    res = oracle.minimize_theta(q0h(g0, h), 0.0, root_c, 0.0, 1.3 * root_c)
    assert res.converged
    assert res.theta == pytest.approx(1.0 - StepPair(g, g0, h).delta, abs=1e-6)
    assert res.value == pytest.approx(jh(g, g0, h), rel=1e-9)


def _theta_objective(monkeypatch, value_of_t, converged_at=lambda t: True):
    """Replace the search's quadrature by value_of_t(atanh(theta)); return
    the reference coupling and the list of t at which the search evaluates
    the objective."""
    p_biv = q0h(QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1)), 0.05)
    seen = []

    def fake(qv, _ref):
        t = math.atanh(qv.theta)
        seen.append(t)
        return oracle.QuadResult(value_of_t(t), 0.0, converged_at(t), "")

    monkeypatch.setattr(oracle, "m_rel_entropy_quad", fake)
    return p_biv, seen


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_minimize_theta_extends_only_the_argmin_side(monkeypatch, side):
    t_max = math.atanh(0.9995)
    p_biv, seen = _theta_objective(monkeypatch, lambda t: (t - side * 5.0) ** 2)
    res = oracle.minimize_theta(p_biv, 0.0, 1.0, 0.0, 1.0)
    assert math.atanh(res.theta) == pytest.approx(side * 5.0, abs=1e-5)
    assert res.converged
    assert min(side * t for t in seen) >= -t_max * (1.0 + 1e-12)


def test_minimize_theta_reports_any_unconverged_evaluation(monkeypatch):
    # only the grid's first point fails, far from the minimizer
    p_biv, _ = _theta_objective(monkeypatch, lambda t: (t - 1.0) ** 2, lambda t: t > -3.0)
    res = oracle.minimize_theta(p_biv, 0.0, 1.0, 0.0, 1.0)
    assert math.atanh(res.theta) == pytest.approx(1.0, abs=1e-5)
    assert not res.converged


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_minimize_theta_raises_when_the_minimizer_rounds_to_one(monkeypatch, side):
    p_biv, seen = _theta_objective(monkeypatch, lambda t: -side * t)
    with pytest.raises(DomainError):
        oracle.minimize_theta(p_biv, 0.0, 1.0, 0.0, 1.0)
    assert min(side * t for t in seen) >= -math.atanh(0.9995) * (1.0 + 1e-12)


def test_pythagorean_identity_spot():
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1))
    p_biv = q0h(g0, 0.05)
    xi1, xi2 = 1.4, 1.6
    eta = oracle.theta_family_minimizer(p_biv, xi1, xi2)
    qstar_biv = make_bivariate(0.0, 0.0, xi1, xi2, eta, p_biv.m)
    member = make_bivariate(0.0, 0.0, xi1, xi2, 0.3, p_biv.m)
    res = oracle.pythagorean_gap(member, qstar_biv, p_biv)
    assert abs(res.gap) <= 1e-6
    assert res.h_q_p > 0.0 and res.h_q_qstar > 0.0 and res.h_qstar_p > 0.0
    # the cached member-independent term short-circuits one quadrature
    again = oracle.pythagorean_gap(member, qstar_biv, p_biv, h_qstar_p=res.h_qstar_p)
    assert again.gap == pytest.approx(res.gap, abs=1e-12)


@pytest.mark.parametrize("bad_call", [0, 1, 2])
def test_pythagorean_gap_reports_any_unconverged_quadrature(monkeypatch, bad_call):
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1))
    p_biv = q0h(g0, 0.05)
    qstar_biv = make_bivariate(0.0, 0.0, 1.4, 1.6, 0.5, p_biv.m)
    member = make_bivariate(0.0, 0.0, 1.4, 1.6, 0.3, p_biv.m)
    assert oracle.pythagorean_gap(member, qstar_biv, p_biv).converged
    calls = []
    quad = oracle.m_rel_entropy_quad

    def one_unconverged(*args):
        res = quad(*args)
        calls.append(res)
        return res._replace(converged=False) if len(calls) - 1 == bad_call else res

    monkeypatch.setattr(oracle, "m_rel_entropy_quad", one_unconverged)
    res = oracle.pythagorean_gap(member, qstar_biv, p_biv)
    assert len(calls) == 3 and not res.converged


def test_minimize_kh_grid_matches_implicit_step():
    g0 = QGaussian1D(mu=0.5, sigma=1.0, params=make_params(0.8, 1))
    h = 0.05
    grid = oracle.minimize_kh_grid(g0, h)
    step = jko_step(g0, h)
    assert grid.sigma == pytest.approx(step.sigma, abs=1e-6)
    assert abs(grid.mu - g0.mu) <= grid.mu_resolution
    assert grid.value <= 0.0
    assert 0.0 < grid.sigma_resolution < 1e-4
    with pytest.raises(DomainError):
        oracle.minimize_kh_grid(g0, 0.0)


def test_support_included_geometry():
    inner = make_bivariate(0.0, 0.0, 0.5, 0.5, 0.0, 0.5)
    outer = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 0.5)
    assert oracle.support_included(inner, outer)
    assert not oracle.support_included(outer, inner)
    # a margin shrinks the admissible region
    near = make_bivariate(0.0, 0.0, 0.99, 0.99, 0.0, 0.5)
    assert oracle.support_included(near, outer)
    assert not oracle.support_included(near, outer, margin=0.05)
    heavy = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 1.2)
    with pytest.raises(DomainError):
        oracle.support_included(inner, heavy)


def test_quadrature_config_defaults():
    cfg = oracle.QuadratureConfig()
    assert cfg.rel_tol == 1e-10
    assert cfg.abs_tol == 1e-13
    assert cfg.max_subdivisions == 200


# The radial rule of the polar oracle: a tanh-sinh with scipy's nodes and schedule.


@pytest.mark.parametrize(
    "f, lo, hi, exact",
    [
        (lambda x: x**-0.5, 0.0, 1.0, 2.0),
        (lambda x: x**-2.0, 1.0, math.inf, 1.0),
        (lambda x: np.exp(-x), 0.0, math.inf, 1.0),
    ],
    ids=["endpoint-singularity", "power-tail", "exponential-tail"],
)
def test_tanhsinh_known_integrals(f, lo, hi, exact):
    cfg = oracle.QuadratureConfig()
    integral, error, converged = _tanhsinh.tanhsinh(
        f, np.array([lo]), np.array([hi]), (), cfg.rel_tol, cfg.abs_tol)
    assert converged[0]
    assert abs(integral[0] / exact - 1.0) <= 1e-12
    assert error[0] <= 1e-10


# the verify pairs and a compact pair whose support ellipses cross
_RAY_PAIRS = [*checks.MREL_PAIRS, ((0.1, 0.05, 1.2, 0.5, 0.3, 0.5), (-0.1, 0.0, 0.6, 1.1, -0.2, 0.5))]


@pytest.mark.parametrize("pair", _RAY_PAIRS, ids=["compact", "heavy-tailed", "crossing"])
def test_tanhsinh_matches_scipy_ray_by_ray(monkeypatch, pair):
    from scipy.integrate import tanhsinh

    f, g = (make_bivariate(*args) for args in pair)
    calls = []
    rule = _tanhsinh.tanhsinh

    def record(*args):
        out = rule(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(_tanhsinh, "tanhsinh", record)
    cfg = oracle.QuadratureConfig()
    assert oracle.m_rel_entropy_quad(f, g, cfg).converged
    assert calls
    for (ray, lo, hi, args, rtol, atol), (integral, error, converged) in calls:
        assert (hi == math.inf).all() == (f.m > 1.0)
        ref = tanhsinh(ray, lo, hi, args=args, rtol=rtol, atol=atol, minlevel=4)
        np.testing.assert_allclose(integral, ref.integral, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(converged, ref.success)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: np.sin(50.0 * x), [0.0, 1.0], [3.0, 9.0]),
        (lambda x: (x > 0.3) * 1.0, [0.0], [1.0]),
        (lambda x: 1.0 / (1.0 + x**1.01), [0.0], [math.inf]),
    ],
    ids=["oscillating", "step", "slow-tail"],
)
def test_tanhsinh_matches_scipy_past_the_first_level(f, lo, hi):
    # levels 5 to 10: the oscillating integrals converge there, the other two run out
    from scipy.integrate import tanhsinh

    lo, hi = np.array(lo), np.array(hi)
    cfg = oracle.QuadratureConfig()
    integral, error, converged = _tanhsinh.tanhsinh(f, lo, hi, (), cfg.rel_tol, cfg.abs_tol)
    ref = tanhsinh(f, lo, hi, rtol=cfg.rel_tol, atol=cfg.abs_tol, minlevel=4)
    assert (ref.maxlevel > 4).all()
    np.testing.assert_allclose(integral, ref.integral, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(error, ref.error, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(converged, ref.success)


def test_nan_integrand_not_converged():
    cfg = oracle.QuadratureConfig()
    integral, _, converged = _tanhsinh.tanhsinh(
        lambda x: np.full_like(x, np.nan), np.array([0.0, 0.0]), np.array([1.0, math.inf]), (),
        cfg.rel_tol, cfg.abs_tol)
    assert not converged.any()
    assert np.isnan(integral).all()
    for m in (0.5, 4.0 / 3.0):
        nu = make_bivariate(0.1, -0.2, 0.9, 1.4, 0.35, m)
        assert not oracle._polar_quad(lambda x, y: np.full_like(x, np.nan), [nu], cfg).converged


@pytest.mark.parametrize("pair", checks.MREL_PAIRS, ids=["compact", "heavy-tailed"])
def test_verify_pairs_converge_in_64_angles(pair):
    f, g = (make_bivariate(*args) for args in pair)
    res = oracle.m_rel_entropy_quad(f, g)
    assert res.converged
    assert ", 64 angles," in res.note
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    assert abs(res.value / closed - 1.0) <= 1e-12
