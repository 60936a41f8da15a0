import collections
import dataclasses
import math
import subprocess
import sys
import textwrap
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflow import _kronrod, checks, oracle, qmath
from qflow.functionals import StepPair, entropy_diff, jh, jko_step, q0h
from qflow.qgaussian import (
    MBivariate,
    QGaussian1D,
    entropy_diff_closed,
    m_rel_entropy_closed,
    make_bivariate,
)
from qflow.qmath import DomainError, make_params, q_log


def test_truncation_policy_recorded():
    compact = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(0.8, 1))
    heavy = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1))
    assert oracle.mass_quad(compact).note == "two half-lines from the mean, to the support edge"
    for res in (oracle.mass_quad(heavy), oracle.moment2_quad(heavy), oracle.entropy_quad(heavy)):
        assert res.note == "two half-lines from the mean, untruncated"
    # a quad message rides along after the policy: each piece's estimate is
    # at least 50 eps of its |f|-integral, so this tolerance is out of reach
    tight = oracle.QuadratureConfig(rel_tol=1e-16, abs_tol=0.0)
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


_ONE_D = (("mass", oracle.mass_quad), ("moment", oracle.moment2_quad), ("entropy", oracle.entropy_quad))


def _mp_line(weight, g):
    """The 1d oracles' integral of g at 50 digits, for g's own double
    constants: with b = 1 - (1-q) C1 u^2/2 in scale units u, the half-line
    integrals of u^(2k) b^p are Beta functions.  The entropy's weight is
    log_q f = (norm^(1-q) b - 1)/(1-q) with norm = C0/sqrt(v)."""
    p = g.params
    with mpmath.workdps(50):
        c0, om, v = mpmath.mpf(p.c0_q_d), 1 - mpmath.mpf(p.q), mpmath.mpf(g.variance)
        a = abs(om) * mpmath.mpf(p.c1_q_d) / 2
        half = mpmath.mpf(1) / 2

        def integral(k, power):
            rest = power + 1 if om > 0 else -power - k - half
            return mpmath.beta(k + half, rest) / (2 * a ** (k + half))

        if weight == "mass":
            value = 2 * c0 * integral(0, 1 / om)
        elif weight == "moment":
            value = 2 * c0 * integral(1, 1 / om) * v
        else:
            norm = c0 / mpmath.sqrt(v)
            value = 2 * c0 * (norm**om * integral(0, 1 / om + 1) - integral(0, 1 / om)) / om
        return float(value)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    q=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=1.0, max_value=5.0 / 3.0, exclude_min=True, exclude_max=True),
    ),
    # every finite positive sigma, 5e-324 to 1.8e308
    log_sigma=st.floats(min_value=-323.3, max_value=308.25),
    mu=st.floats(min_value=-1e3, max_value=1e3),
)
def test_line_quad_finite_or_domain_error(q, log_sigma, mu):
    # DomainError exactly where the variance v leaves the domain; inside it
    # a finite value, within its error estimate of the 50-digit integral
    # when it reports convergence
    g = QGaussian1D(mu=mu, sigma=10.0**log_sigma, params=make_params(q, 1))
    in_domain = sys.float_info.min <= g.variance and 2.0 * g.variance < math.inf
    for weight, oracle_1d in _ONE_D:
        if not in_domain:
            with pytest.raises(DomainError):
                oracle_1d(g)
            continue
        res = oracle_1d(g)
        assert math.isfinite(res.value)
        if res.converged:
            assert abs(res.value - _mp_line(weight, g)) <= res.error_estimate, (weight, res)


def _quadpack(weight, g):
    """The integral by QUADPACK (scipy.integrate.quad) at epsrel 1e-13 on
    the scalar density and q_log, over two half-lines from the mean in
    scale units: the value and the error estimate."""
    centred = dataclasses.replace(g, mu=0.0)
    edge, q = centred.support().hi / g.scale, g.params.q

    def integrand(u):
        d = g.scale * u
        f = centred.density(d)
        if weight == "mass":
            return f
        if weight == "moment":
            return d * d * f
        return f * q_log(f, q) if f > 0.0 else 0.0

    value = err = 0.0
    for side in (1.0, -1.0):
        out = scipy.integrate.quad(lambda u: integrand(side * u), 0.0, edge,
                                   epsabs=0.0, epsrel=1e-13, limit=1000, full_output=True)
        value, err = value + out[0], err + out[1]
    return g.scale * value, g.scale * err


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    q=st.one_of(st.floats(min_value=0.02, max_value=0.999), st.floats(min_value=1.001, max_value=1.6)),
    mu=st.floats(min_value=-1e3, max_value=1e3),
    log_sigma=st.floats(min_value=-20.0, max_value=20.0),
)
@example(q=0.5, mu=10.0, log_sigma=-20.0)
@example(q=1.6, mu=10.0, log_sigma=-20.0)
@example(q=0.999, mu=0.0, log_sigma=0.0)
@example(q=1.001, mu=0.0, log_sigma=0.0)
def test_line_quad_within_its_error_of_quadpack(q, mu, log_sigma):
    # the library's Chebyshev rule against QUADPACK's adaptive one; the
    # bound carries 1e-12 of the reference, since against 50 digits
    # QUADPACK misses its own estimate up to 13-fold on heavy-tail
    # entropies.  Nearer q = 5/3 it misses by more (5e-11 on the entropy
    # at q = 1.666, sigma = 1e-20), so the 50-digit tests cover that band
    g = QGaussian1D(mu=mu, sigma=10.0**log_sigma, params=make_params(q, 1))
    for weight, oracle_1d in _ONE_D:
        res = oracle_1d(g)
        value, err = _quadpack(weight, g)
        assert res.converged
        assert abs(res.value - value) <= res.error_estimate + err + 1e-12 * abs(value), (weight, res, value)


@pytest.mark.parametrize("q", [1.6, 1.65, 1.666])
@pytest.mark.parametrize("sigma", [1.3, 1e-18])
def test_line_quad_matches_mpmath_near_five_thirds(q, sigma):
    # the tails shrink like u^-1.003 at q = 1.666: the tail rule's weight
    # takes them whole; at sigma = 1e-18 the entropy's slow part is 1e-9 of it
    g = QGaussian1D(mu=0.2, sigma=sigma, params=make_params(q, 1))
    cfg = oracle.QuadratureConfig()
    for weight, oracle_1d in _ONE_D:
        res, exact = oracle_1d(g, cfg), _mp_line(weight, g)
        magnitude = g.variance if weight == "moment" else 1.0
        assert res.converged
        assert abs(res.value - exact) <= res.error_estimate
        assert abs(res.value - exact) <= max(2.0 * cfg.abs_tol * magnitude, cfg.rel_tol * abs(exact))


@pytest.mark.parametrize("q, sigma", [(1.666, 1e150), (1.666, 1e152), (1.2643, 5.09e153), (1.5, 1e153)])
def test_heavy_tails_at_huge_scales(q, sigma):
    # u = d/scale stays small where d*d would overflow
    g = QGaussian1D(mu=0.0, sigma=sigma, params=make_params(q, 1))
    for weight, oracle_1d in _ONE_D:
        res = oracle_1d(g)
        assert res.converged
        assert abs(res.value - _mp_line(weight, g)) <= res.error_estimate
    assert abs(oracle.mass_quad(g).value - 1.0) <= 1e-13


@pytest.mark.parametrize("q, sigma", [(0.999999, 1e153), (0.01, 1e154)])
def test_compact_edge_at_huge_scales(q, sigma):
    # the support edge in scale units stays small where its offset overflows
    g = QGaussian1D(mu=0.0, sigma=sigma, params=make_params(q, 1))
    assert g.support().hi == math.inf
    for weight, oracle_1d in _ONE_D:
        res = oracle_1d(g)
        assert res.converged and res.note == "two half-lines from the mean, to the support edge"
        assert abs(res.value - _mp_line(weight, g)) <= res.error_estimate


@pytest.mark.parametrize("q", [1.6666, 1.66666])
@pytest.mark.parametrize("sigma", [0.1, 3.16])
def test_line_quad_heavy_tail_next_to_five_thirds(q, sigma):
    # the moment's and the entropy's tails fall like z^-1.0001 and z^-1.00001:
    # the tail rule's weight tau^s takes them whole, at the default config
    g = QGaussian1D(mu=0.0, sigma=sigma, params=make_params(q, 1))
    for weight, oracle_1d in _ONE_D:
        res = oracle_1d(g)
        assert res.converged and res.note == "two half-lines from the mean, untruncated"
        assert abs(res.value - _mp_line(weight, g)) <= res.error_estimate, (weight, res)


@pytest.mark.parametrize("q", [0.85, 0.9, 0.99, 0.9999])
def test_line_quad_tight_config_next_to_q1(q):
    # at criterion 3's config the moments and entropies next to q = 1, whose
    # core is a few dyadic pieces wide, converge on the fixed partition
    tight = oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
    for sigma in (1e-150, 0.37, 3.16, 1e150):
        g = QGaussian1D(mu=0.0, sigma=sigma, params=make_params(q, 1))
        for weight, oracle_1d in _ONE_D:
            res = oracle_1d(g, tight)
            assert res.converged, (sigma, weight, res)
            assert abs(res.value - _mp_line(weight, g)) <= res.error_estimate, (sigma, weight, res)


@pytest.mark.parametrize("q", [0.9, 0.999, 1.0001, 1.001, 1.01, 1.05, 1.3, 1.45, 1.6])
def test_line_quad_converges_where_it_crosses_zero(q):
    # the 1D mirror of test_entropy_quad_2d_converges_where_it_crosses_zero:
    # as sigma moves the entropy crosses zero, and there rel 1e-12 asks for
    # an error below abs_tol.  Every result converges, on the halved heavy
    # pieces next to q = 1 and with finite()'s tests where the half-line's
    # own misses, and every tenth scale lies within its estimate
    params = make_params(q, 1)
    for k, sigma in enumerate(np.geomspace(0.01, 20.0, 200)):
        g = QGaussian1D(mu=0.0, sigma=float(sigma), params=params)
        for weight, oracle_1d in _ONE_D:
            res = oracle_1d(g, CRIT3_CFG)
            assert res.converged, (sigma, weight, res)
            if k % 10 == 0:
                assert abs(res.value - _mp_line(weight, g)) <= res.error_estimate, (sigma, weight, res)


_TAIL_S = [-0.999, -0.556, 0.0, 1.0 - 2e-16, 1.0 + 2e-16, 8.0 + 2e-15, 38.0, 195.0, 2e4]


@pytest.mark.parametrize("s", _TAIL_S)
def test_tail_rule_against_closed_form(s):
    # int_0^a tau^s (1 + 3 tau - 2 tau^2) dtau, a = 1/16.  Next to an integer
    # s the weight's exponent stays in (-1, 1); at s = 2e4 every term
    # underflows.  The interpolant resolves the integer power tau^floor(s)
    # up to about s = 27; past it the rule misses (3e-12 relative at s = 38,
    # 2e-3 at s = 195, where the integral is 16^-196/196), inside its estimate
    a = _kronrod.TAIL_END
    tau = _kronrod.TAIL_TAU
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, err = _kronrod.tail((tau**s * (1.0 + 3.0 * tau - 2.0 * tau * tau))[None], s)
    with mpmath.workdps(50):
        am, sm = mpmath.mpf(a), mpmath.mpf(s)
        exact = float(am ** (sm + 1) * (1 / (sm + 1) + 3 * am / (sm + 2) - 2 * am * am / (sm + 3)))
    assert math.isfinite(value[0]) and math.isfinite(err[0])
    assert abs(value[0] - exact) <= err[0]
    if s < 27.0:
        assert abs(value[0] - exact) <= 16 * sys.float_info.epsilon * exact
        assert err[0] <= 1e-11 * exact
    if s == 2e4:
        assert value[0] == exact == 0.0


def test_tail_rule_rows_are_independent():
    # a block of rows gives each row's bits, as each row alone
    tau = _kronrod.TAIL_TAU
    fa = np.stack([tau**0.3 * np.cos(k * tau) for k in range(5)])
    block = _kronrod.tail(fa, 0.3)
    for j in range(len(fa)):
        alone = _kronrod.tail(fa[j:j + 1], 0.3)
        assert all(b[j] == a_[0] for b, a_ in zip(block, alone))


def test_line_quad_partition_miss_keeps_its_value():
    # the partition is fixed by q and the weight: below what it reaches,
    # the result reads unconverged with the default config's value and
    # estimate (here the moment's tail next to q = 5/3)
    g = QGaussian1D(mu=0.0, sigma=1e-150, params=make_params(1.6666, 1))
    tight = oracle.moment2_quad(g, oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15))
    default = oracle.moment2_quad(g)
    assert default.converged and not tight.converged
    assert tight.note == ("two half-lines from the mean, untruncated; "
                          "the partition's error estimate did not reach the tolerance")
    assert (tight.value, tight.error_estimate) == (default.value, default.error_estimate)


def test_line_quad_one_sweep_whatever_the_tolerance(monkeypatch):
    # one sweep of the per-piece rule over the fixed partition, converged or not
    sweeps, sweep = [], _kronrod._rule
    monkeypatch.setattr(_kronrod, "_rule", lambda fv, scale: sweeps.append(fv.shape) or sweep(fv, scale))
    for cfg in (None, oracle.QuadratureConfig(rel_tol=1e-16, abs_tol=0.0)):
        for q in (0.01, 0.85, 0.9999, 1.2, 1.5, 1.6666):
            g = QGaussian1D(mu=0.0, sigma=1e-150, params=make_params(q, 1))
            for _, oracle_1d in _ONE_D:
                sweeps.clear()
                oracle_1d(g, cfg)
                assert len(sweeps) == 1, (q, oracle_1d.__name__, cfg)


def test_line_quad_one_rule_call(monkeypatch):
    # one call of the array rule per integral, whose integrand calls none
    # of the scalar density and deformed-log functions at its nodes
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_kronrod, "half_line", counted("half_line", _kronrod.half_line))
    monkeypatch.setattr(QGaussian1D, "density", counted("density", QGaussian1D.density))
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qflow"]:
        for name in ("q_exp", "q_log"):
            if getattr(module, name, None) is getattr(qmath, name):
                monkeypatch.setattr(module, name, counted(name, getattr(qmath, name)))
    for q in (0.8, 1.2, 1.65):
        g = QGaussian1D(mu=0.3, sigma=1.3, params=make_params(q, 1))
        for _, oracle_1d in _ONE_D:
            calls.clear()
            assert oracle_1d(g).converged
            assert calls == {"half_line": 1}, (q, oracle_1d.__name__, calls)


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


def test_small_budget_reports_unconverged(monkeypatch):
    # needs far more than 64 angles at this tolerance
    f = make_bivariate(0.0, 0.0, 1.6, 1.5, -0.86, 4.0 / 3.0)
    g = make_bivariate(0.0, 0.0, 1.6, 1.7, 0.97, 4.0 / 3.0)
    tight = oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_MAX_ANGLES", 64)
        res = oracle.m_rel_entropy_quad(f, g, tight)
    assert not res.converged and ", 64 angles," in res.note
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


def _theta_family_root(p_biv, xi1, xi2):
    """50-digit root of s(e) = s(theta_P) (xi1 xi2 / (s1 s2))^(2-m), s(e) =
    e (1-e^2)^(-(3-m)/2), by bisection in u = log(-log|e|), over which log s
    decreases."""
    with mpmath.workdps(50):
        theta, m = mpmath.mpf(p_biv.theta), mpmath.mpf(p_biv.m)
        kappa = (3 - m) / 2
        ratio = mpmath.mpf(xi1) * xi2 / (mpmath.mpf(p_biv.s1) * p_biv.s2)
        log_r = (mpmath.log(abs(theta)) - kappa * mpmath.log(1 - theta * theta)
                 + (2 - m) * mpmath.log(ratio))
        # u from -800 to 8 spans every root |e| in [e^-2981, 1); 90 halvings
        # leave a relative error below 1e-18 in e
        lo, hi = mpmath.mpf(-800), mpmath.mpf(8)
        for _ in range(90):
            mid = (lo + hi) / 2
            w = -mpmath.exp(mid)
            if w - kappa * mpmath.log(-mpmath.expm1(2 * w)) > log_r:
                lo = mid
            else:
                hi = mid
        return mpmath.sign(theta) * mpmath.exp(-mpmath.exp((lo + hi) / 2))


def _theta_family_draws(n, seed):
    # m on both branches; theta_P uniform, within 1e-3 of +-1, or down to 1e-16
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = float(rng.uniform(0.05, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.45))
        kind = rng.integers(3)
        if kind == 0:
            theta = float(rng.uniform(-0.999, 0.999))
        elif kind == 1:
            theta = float(rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** rng.uniform(-15.9, -3.0)))
        else:
            theta = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -3.0))
        s1, s2 = (float(s) for s in rng.uniform(0.5, 2.0, 2))
        p_biv = MBivariate(0.0, 0.0, s1, s2, theta, make_params(m, 2))
        yield p_biv, s1 * float(rng.uniform(0.8, 1.2)), s2 * float(rng.uniform(0.8, 1.2))


def test_theta_family_minimizer_matches_mpmath_root():
    # the first three once fell outside a fixed root bracket [1e-15, 1 - 1e-15]
    p_flow = q0h(QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1)), 1e-15)
    named = [
        (MBivariate(0.0, 0.0, 1.0, 1.0, 0.9999999999999999, make_params(1.15, 2)), 1.0, 1.0),
        (MBivariate(0.0, 0.0, 1.0, 1.0, 1e-16, make_params(1.15, 2)), 1.0, 1.0),
        (p_flow, p_flow.s1, p_flow.s2),
        (p_flow, 1.1 * p_flow.s1, 0.9 * p_flow.s2),
    ]
    worst = 0.0
    for p_biv, xi1, xi2 in named + list(_theta_family_draws(60, 3)):
        eta = oracle.theta_family_minimizer(p_biv, xi1, xi2)
        worst = max(worst, float(abs(eta / _theta_family_root(p_biv, xi1, xi2) - 1)))
    # 4000 such draws read at most 3.3e-16
    assert worst <= 1e-15


@pytest.mark.parametrize("theta, xi1", [(5e-324, 1.0), (1e-300, 1.0), (0.5, 0.0), (0.5, math.inf)])
def test_theta_family_minimizer_outside_double_range_raises(theta, xi1):
    p_biv = MBivariate(0.0, 0.0, 1.0, 1.0, theta, make_params(1.15, 2))
    with pytest.raises(DomainError):
        oracle.theta_family_minimizer(p_biv, xi1, 1.0)


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


def _scipy_bounded(monkeypatch):
    """Record each bounded search of minimize_theta with scipy's on the same
    objective and bracket, the objective memoized so scipy's repeated
    points cost nothing."""
    from scipy.optimize import minimize_scalar

    pairs = []
    search = oracle._bounded_brent

    def both(func, a, b, xatol):
        seen = {}

        def memo(t):
            if t not in seen:
                seen[t] = func(t)
            return seen[t]

        ours = search(memo, a, b, xatol)
        ref = minimize_scalar(memo, bounds=(a, b), method="bounded", options={"xatol": xatol})
        pairs.append((ours, (float(ref.x), float(ref.fun))))
        return ours

    monkeypatch.setattr(oracle, "_bounded_brent", both)
    return pairs


@pytest.mark.parametrize(
    "case", ["analytic", "small-step", "argmin+", "argmin-", "unconverged"])
def test_minimize_theta_matches_scipy_bounded_search(monkeypatch, case):
    # the bounded Brent port takes scipy's steps: the same theta and value bits
    if case == "analytic":
        p_biv, args = q0h(QGaussian1D(mu=0.0, sigma=1.0, params=make_params(1.2, 1)), 0.05), (1.7, 1.5)
    elif case == "small-step":
        p = make_params(1.2, 1)
        root_c = math.sqrt(p.C)
        p_biv, args = q0h(QGaussian1D(mu=0.0, sigma=1.0, params=p), 1e-3), (root_c, 1.3 * root_c)
    else:
        centre = {"argmin+": 5.0, "argmin-": -5.0, "unconverged": 1.0}[case]
        p_biv, _ = _theta_objective(monkeypatch, lambda t: (t - centre) ** 2, lambda t: t > -3.0)
        args = (1.0, 1.0)
    pairs = _scipy_bounded(monkeypatch)
    oracle.minimize_theta(p_biv, 0.0, args[0], 0.0, args[1])
    (ours, ref), = pairs
    assert [v.hex() for v in ours] == [v.hex() for v in ref]


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


@pytest.mark.parametrize("m", [0.5, 1.15])
@pytest.mark.parametrize("s", [1e-80, 1e-100, 1e-150, 1e-160, 1e-173, 1e78, 1e150, 1e155])
def test_bivariate_functions_finite_or_domain_error(s, m):
    # det Sigma is subnormal at s = 1e-80 and overflows from 1e78; the
    # scale-matrix entries are subnormal at 1e-160, 0 at 1e-173 and inf at 1e155
    f = make_bivariate(0.0, 0.0, s, s, 0.2, m)
    g = make_bivariate(0.1 * s, 0.0, 1.2 * s, 1.1 * s, 0.0, m)
    calls = {
        "det_cov": lambda: f.det_cov,
        "m_rel_entropy_closed": lambda: m_rel_entropy_closed(f.mparams, f.mean, f.cov,
                                                             g.mean, g.cov),
        "entropy_diff_closed": lambda: entropy_diff_closed(f.mparams, f.det_cov, g.det_cov),
        "entropy_quad_2d": lambda: oracle.entropy_quad_2d(f),
        "m_rel_entropy_quad": lambda: oracle.m_rel_entropy_quad(f, g),
    }
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, call in calls.items():
            try:
                out[name] = call()
            except DomainError:
                continue
            value = out[name].value if isinstance(out[name], oracle.QuadResult) else out[name]
            assert math.isfinite(value), name
    if s in (1e-80, 1e-100, 1e150):
        assert {"entropy_quad_2d", "m_rel_entropy_quad"} <= out.keys()
    if "m_rel_entropy_quad" in out:
        # the bracket of H_m is scale-free; its prefactor scales as det^(-(1-m)/2)
        unit_f, unit_g = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.2, m), \
            make_bivariate(0.1, 0.0, 1.2, 1.1, 0.0, m)
        ref = m_rel_entropy_closed(unit_f.mparams, unit_f.mean, unit_f.cov,
                                   unit_g.mean, unit_g.cov) * s ** (-2.0 * (1.0 - m))
        res, cfg = out["m_rel_entropy_quad"], oracle.QuadratureConfig()
        assert abs(res.value - ref) <= max(cfg.abs_tol, cfg.rel_tol * abs(ref)) + res.error_estimate


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


@pytest.mark.parametrize("q, sigma0", [(0.1, 1e20), (0.1, 1e-20), (0.05, 1e10)])
@pytest.mark.parametrize("h_rel", [0.05, 1e-4])
def test_minimize_kh_grid_where_coefficient_a_overflows(q, sigma0, h_rel):
    # the grid reads b alone; a = coefficients(q, sigma0).a leaves the double range here
    g0 = QGaussian1D(mu=0.0, sigma=sigma0, params=make_params(q, 1))
    h = h_rel * sigma0 ** (3.0 - q)
    grid = oracle.minimize_kh_grid(g0, h)
    assert abs(grid.sigma - jko_step(g0, h).sigma) <= grid.sigma_resolution


def test_minimize_kh_grid_resolutions_where_the_window_is_below_the_mean():
    # the mu window +-max(0.05 sigma0, 5hb/sigma0) is below the spacing of
    # doubles at mu0 = 0.5: every grid mu rounds to 0.5
    sigma0 = 1e-20
    g0 = QGaussian1D(mu=0.5, sigma=sigma0, params=make_params(0.1, 1))
    grid = oracle.minimize_kh_grid(g0, 0.05 * sigma0**2.9)
    assert grid.mu == 0.5
    assert type(grid.mu_resolution) is float and type(grid.sigma_resolution) is float
    assert grid.mu_resolution == math.ulp(0.5)
    assert grid.sigma_resolution >= math.ulp(grid.sigma)


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
    # extreme scales: whitened entries past the doubles read as outside, a
    # tiny member inside a huge one as inside, and an inner s1^2 that is not
    # a normal double as a DomainError
    big = make_bivariate(0.0, 0.0, 1e154, 1e154, 0.0, 0.5)
    tiny = make_bivariate(0.0, 0.0, 1e-154, 1e-154, 0.0, 0.5)
    assert not oracle.support_included(big, tiny)
    assert not oracle.support_included(inner, make_bivariate(0.0, 0.0, 5e-324, 5e-324, 0.9, 0.5))
    assert oracle.support_included(make_bivariate(0.0, 0.0, 1e-150, 1e-150, 0.2, 0.5),
                                   make_bivariate(0.0, 0.0, 1e300, 1e300, 0.2, 0.5))
    with pytest.raises(DomainError):
        oracle.support_included(make_bivariate(0.0, 0.0, 1e200, 1e200, 0.0, 0.5), tiny)
    # an offset of 1e-20, nonzero in whitened units but below the rounding
    # of the scales: a term of the secular equation that rounds away
    assert not oracle.support_included(make_bivariate(1e-20, 0.0, 1.0, 1.0, 0.0, 0.5), outer)
    assert oracle.support_included(make_bivariate(1e-20, 0.0, 0.5, 0.5, 0.0, 0.5), outer)


@pytest.mark.parametrize("m", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("psi", [0.0, 0.3, 2.0])
@pytest.mark.parametrize("poke", [-1e-12, 1e-12])
def test_support_included_decided_exactly(m, psi, poke):
    # a thin ellipse, its long axis along psi, reaches (1 + poke) of the outer
    # unit support's radius at one point between any boundary sweep's samples
    # (2e-6 out still read as inside on a 720-point sweep)
    outer = make_bivariate(0.3, -0.2, 1.0, 1.0, 0.0, m)
    a, b, c = 0.6, 0.05, 0.4 * (1.0 + poke) + 0.6 * poke
    cs, sn = math.cos(psi), math.sin(psi)
    v1, v2 = a * a * cs * cs + b * b * sn * sn, a * a * sn * sn + b * b * cs * cs
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    radius = math.sqrt(outer.support_threshold())
    inner = make_bivariate(0.3 + c * radius * cs, -0.2 + c * radius * sn, s1, s2,
                           (a * a - b * b) * cs * sn / (s1 * s2), m)
    assert oracle.support_included(inner, outer) == (poke < 0.0)
    # a margin moves the decision by its own relative size
    assert not oracle.support_included(inner, outer, margin=1e-9)
    assert oracle.support_included(inner, outer, margin=-1e-9)
    # concentric circles: the hard case of the secular equation
    ring = make_bivariate(0.3, -0.2, 1.0 + poke, 1.0 + poke, 0.0, m)
    assert oracle.support_included(ring, outer) == (poke < 0.0)
    # means one ulp apart, below the rounding of the whitened scales: a term
    # of the secular equation that rounds away, read as the 720-point sweep
    # read it
    assert 0.1 + 0.2 != 0.3
    assert not oracle.support_included(make_bivariate(0.1 + 0.2, -0.2, 1.0, 1.0, 0.0, m), outer)
    shrunk = 1.0 + poke - 1e-9
    assert oracle.support_included(make_bivariate(0.1 + 0.2, -0.2, shrunk, shrunk, 0.0, m), outer)


def test_quadrature_config_defaults(monkeypatch):
    cfg = oracle.QuadratureConfig()
    assert cfg.rel_tol == 1e-10
    assert cfg.abs_tol == 1e-13
    assert [field.name for field in dataclasses.fields(cfg)] == ["rel_tol", "abs_tol"]
    # the polar rule doubles its angles up to a module constant; a patched
    # cap stops it there
    assert oracle._MAX_ANGLES == 8192
    monkeypatch.setattr(oracle, "_MAX_ANGLES", 32)
    res = oracle.m_rel_entropy_quad(*(make_bivariate(*args) for args in checks.MREL_PAIRS[1]))
    assert ", 32 angles," in res.note and not res.converged


# The radial rule of the polar oracle: the tail rule's nodes at weight 1 on
# each piece of a row, halved where a row misses its tolerance.


def _quad_row(f, lo, hi, args=()):
    """scipy's QUADPACK on one row of finite(), at its own tolerances."""
    def point(x):
        return float(f(np.array([[x]]), *(np.array([[a]]) for a in args))[0, 0])

    return scipy.integrate.quad(point, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)


@pytest.mark.parametrize(
    "f, lo, hi, exact",
    [
        (lambda x: np.sqrt(x * (1.0 - x)), 0.0, 1.0, math.pi / 8.0),
        # tails up to r = 15, where the tail rule takes a heavy-tailed ray over
        (lambda x: x**-2.0, 1.0, 16.0, 15.0 / 16.0),
        (lambda x: np.exp(-x), 0.0, 15.0, -math.expm1(-15.0)),
    ],
    ids=["infinite-slope-ends", "power-tail", "exponential-tail"],
)
def test_finite_known_integrals(f, lo, hi, exact):
    cfg = oracle.QuadratureConfig()
    ref, ref_err = _quad_row(f, lo, hi)
    assert abs(ref - exact) <= ref_err + 1e-15
    for crowd in (True, False):
        integral, error, converged = _kronrod.finite(
            f, np.array([lo]), np.array([hi]), (), cfg.rel_tol, cfg.abs_tol, np.array([crowd]))
        assert converged[0]
        assert abs(integral[0] / exact - 1.0) <= 1e-12
        assert abs(integral[0] - ref) <= error[0] + ref_err + 1e-15
        assert error[0] <= 1e-10


# the verify pairs and a compact pair whose support ellipses cross
_RAY_PAIRS = [*checks.MREL_PAIRS, ((0.1, 0.05, 1.2, 0.5, 0.3, 0.5), (-0.1, 0.0, 0.6, 1.1, -0.2, 0.5))]


@pytest.mark.parametrize("pair", _RAY_PAIRS, ids=["compact", "heavy-tailed", "crossing"])
def test_finite_matches_quad_ray_by_ray(monkeypatch, pair):
    f, g = (make_bivariate(*args) for args in pair)
    calls = []
    rule = _kronrod.finite

    def record(*args):
        out = rule(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(_kronrod, "finite", record)
    cfg = oracle.QuadratureConfig()
    assert oracle.m_rel_entropy_quad(f, g, cfg).converged
    assert calls
    (ray, lo, hi, args, rtol, atol, crowd), (integral, error, converged) = calls[0]
    assert converged.all()
    if f.m > 1.0:
        # heavy-tailed rays: the core r in [0, 15], as tau in [1/16, 1], on
        # the 1D heavy partition's tau-pieces, with no cosine map
        assert (lo == _kronrod.TAIL_END).all() and (hi == 1.0).all() and not crowd.any()
    else:
        assert crowd.all()
    # every eighth row: quad's and the rule's integrals agree within the
    # summed estimates
    for j in range(0, len(lo), 8):
        ref, ref_err = _quad_row(ray, lo[j], hi[j], [a[j] for a in args])
        assert abs(integral[j] - ref) <= error[j] + ref_err + 4 * sys.float_info.epsilon * abs(ref)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: np.sin(50.0 * x), [0.0, 1.0], [3.0, 9.0]),
        (lambda x: (x > 0.31) * 1.0, [0.0], [1.0]),
    ],
    ids=["oscillating", "step"],
)
def test_finite_bisects_past_the_first_round(monkeypatch, f, lo, hi):
    # the oscillating rows converge after a few rounds of halving; the step
    # halves the piece that holds it until the rounds run out, unconverged
    # (at 0.31 it never falls on a piece's end)
    rounds = []
    pieces = _kronrod._pieces

    def record(*args):
        rounds.append(len(args[-1]))
        return pieces(*args)

    monkeypatch.setattr(_kronrod, "_pieces", record)
    lo, hi = np.array(lo), np.array(hi)
    cfg = oracle.QuadratureConfig()
    for crowd in (True, False):
        rounds.clear()
        integral, error, converged = _kronrod.finite(f, lo, hi, (), cfg.rel_tol, cfg.abs_tol,
                                                     np.full(len(lo), crowd))
        assert len(rounds) > 2
        if len(lo) == 1:
            assert len(rounds) == _kronrod._ROUNDS + 1
        for j in range(len(lo)):
            ref, ref_err = _quad_row(f, lo[j], hi[j])
            assert abs(integral[j] - ref) <= error[j] + ref_err
            assert converged[j] == (len(lo) > 1)


def test_finite_rows_are_independent_bit_for_bit():
    # a block of rows gives each row's integral, error and flag bits as a
    # call on that row alone: the fused polar sweep relies on it.  The rows
    # stop in the first round, past it (the oscillating one) or never (the
    # divergent one); crowded and uncrowded rows share the block
    def f(x, c, p):
        return np.cos(c * x) * np.abs(x) ** -p

    rows = [(0.0, 1.0, 0.0, 0.5), (0.0, 3.0, 50.0, 0.0), (1.0, 9.0, 1.0, 1.0), (0.0, 1.0, 0.0, 1.0),
            (0.5, 2.0, 3.0, 0.0)]
    cfg = oracle.QuadratureConfig()
    lo, hi, c, p = (np.array(col) for col in zip(*rows))
    crowd = np.array([True, False, True, False, False])
    block = _kronrod.finite(f, lo, hi, (c, p), cfg.rel_tol, cfg.abs_tol, crowd)
    for j in range(len(rows)):
        one = slice(j, j + 1)
        alone = _kronrod.finite(f, lo[one], hi[one], (c[one], p[one]), cfg.rel_tol, cfg.abs_tol,
                                crowd[one])
        for out_block, out_alone in zip(block, alone):
            assert out_block[one].tobytes() == out_alone.tobytes()
    assert block[2].any() and not block[2].all()


_HEAVY = (0.1, -0.1, 0.8, 1.2, 0.3, 1.15)
# an m = 0.2 pair whose compact supports cross: the angle error is not
# predicted there, and the rule doubles to 1024 angles at the default config
_CROSSING_02 = ((0.0, 0.0, 1.0106117026074521, 0.7015564354231305, 0.4801748474925821, 0.2),
                (-0.30773166882387115, 0.17393454805449346, 1.2571409295652494,
                 0.6519845346605048, -0.011036899524194399, 0.2))


@pytest.mark.parametrize(
    "members, cfg, max_angles, angles, rows",
    [
        (checks.MREL_PAIRS[0], oracle.QuadratureConfig(), None, 64, [128]),
        (checks.MREL_PAIRS[1], oracle.QuadratureConfig(), None, 64, [64]),
        ((_HEAVY, (-0.1, 0.05, 1.0, 0.9, -0.2, 1.15)),
         oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15), None, 64, [64]),
        (_CROSSING_02, oracle.QuadratureConfig(), None, 1024, [128] * 16),
        (checks.MREL_PAIRS[0], oracle.QuadratureConfig(), 0, 16, [32]),
    ],
    ids=["verify-compact", "verify-heavy-tailed",
         "mrel-heavy-tailed-predicted-64", "mrel-crossing-1024", "mrel-no-refinement"],
)
def test_polar_radial_calls(monkeypatch, members, cfg, max_angles, angles, rows):
    # the 16 coarsest angles and the midpoints of the first two refinements
    # share one radial call of 64 rays; each further refinement takes one
    # call per block of midpoints.  A compact ray from f's mean inside
    # supp g has two pieces, f's support and the rest of g's; a heavy-tailed
    # ray one.  The heavy pair's angle error is predicted at 64 angles; the
    # crossing pair's supports cross, so it keeps doubling to 1024
    calls = []
    rule = _kronrod.finite

    def record(*args):
        calls.append(len(args[1]))
        return rule(*args)

    monkeypatch.setattr(_kronrod, "finite", record)
    if max_angles is not None:
        monkeypatch.setattr(oracle, "_MAX_ANGLES", max_angles)
    nus = [make_bivariate(*args) for args in members]
    res = oracle.m_rel_entropy_quad(*nus, cfg)
    assert f", {angles} angles," in res.note
    assert calls == rows
    assert res.converged == (angles > 16)


# a nested band-lt1 pair of the oracle-xcheck design that converges at 32 angles
_NESTED_32 = ((0.8277608722922297, -0.7418088880940095, 0.3322131933234943, 0.3481492216117921,
               -0.011157317222770975, 0.49865999704628966),
              (0.146656191260216, -0.18757867523081156, 0.813454573299699, 0.8036269667096013,
               -0.03345955520344013, 0.49865999704628966))


@pytest.mark.parametrize("form", ["first", "second"])
def test_first_call_rays_past_the_result_never_leak(monkeypatch, form):
    # the first radial call also integrates the 32 midpoints of the second
    # refinement; a result that stops at 32 angles must read the same bits
    # as where the cap leaves them out of the call
    f, g = (make_bivariate(*args) for args in _NESTED_32)
    rows, results = [], []
    rule = _kronrod.finite

    def record(*args):
        rows.append(len(args[1]))
        return rule(*args)

    monkeypatch.setattr(_kronrod, "finite", record)
    for cap in (oracle._MAX_ANGLES, 32):
        monkeypatch.setattr(oracle, "_MAX_ANGLES", cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results.append(oracle.m_rel_entropy_quad(f, g, form=form))
    # one call each: 64 rays, then 32, of two pieces each (f's mean lies inside both supports)
    assert rows == [128, 64]
    full, capped = results
    assert full.converged and ", 32 angles," in full.note
    assert full.value.hex() == capped.value.hex()
    assert full.error_estimate.hex() == capped.error_estimate.hex()
    assert (full.converged, full.note) == (capped.converged, capped.note)


def test_crowd_map_table_is_the_map_at_the_halves():
    # the first round of a crowded row reads t = sin(pi x/2)^2 and dt/dx =
    # pi sin(pi x/2) cos(pi x/2) from a table; it holds the bits the map
    # gives at the halves' nodes x0 + dx frac, x0 = 0 or 1/2, dx = 1/2, here
    # formed among other rows' nodes as a bisection round forms them
    table = _kronrod._crowd_halves()
    assert table.shape == (2, 2, 27) and not table.flags.writeable
    x0 = np.array([0.25, 0.0, 0.5, 0.125])
    dx = np.array([0.125, 0.5, 0.5, 0.0625])
    x = x0[:, None] + dx[:, None] * _kronrod._FRAC
    s, c = np.sin((0.5 * math.pi) * x), np.sin((0.5 * math.pi) * (1.0 - x))
    for expect, got in zip((s * s, math.pi * s * c), table):
        assert expect[1:3].tobytes() == got.tobytes()
    for expect, got in zip(_kronrod._crowd_map(x[1:3]), table):
        assert expect.tobytes() == got.tobytes()


def _entropy_50(nu):
    """The entropy [(2-m) C1 (C0/sqrt(det Sigma))^(1-m) - 1]/(1-m) of nu,
    to 50 digits from the member's own doubles."""
    with mpmath.workdps(50):
        m, c0, c1 = (mpmath.mpf(v) for v in (nu.m, nu.mparams.c0_q_d, nu.mparams.c1_q_d))
        det = (mpmath.mpf(nu.s1) * nu.s2) ** 2 * (1 - mpmath.mpf(nu.theta) ** 2)
        return ((2 - m) * c1 * (c0 / mpmath.sqrt(det)) ** (1 - m) - 1) / (1 - m)


def _entropy_of_doubles_50(nu):
    """The integral f log_m f = (P - M)/(1-m) of the density that nu's own
    doubles define, to 50 digits: its mass M = 2 pi C0/((2-m) C1), which
    C0's rounding moves off 1, and P, the integral of f^(2-m), N^(1-m) 2 pi
    C0/((3-2m) C1) with N = C0/sqrt(det Sigma).  Next to m = 1, where C0's
    mass error over |1-m| is larger than the quadrature's estimate, only
    this value is the integral the oracle computes."""
    with mpmath.workdps(50):
        m, c0, c1 = (mpmath.mpf(v) for v in (nu.m, nu.mparams.c0_q_d, nu.mparams.c1_q_d))
        det = (mpmath.mpf(nu.s1) * nu.s2) ** 2 * (1 - mpmath.mpf(nu.theta) ** 2)
        mass = 2 * mpmath.pi * c0 / ((2 - m) * c1)
        p = (c0 / mpmath.sqrt(det)) ** (1 - m) * 2 * mpmath.pi * c0 / ((3 - 2 * m) * c1)
        return (p - mass) / (1 - m)


@pytest.mark.parametrize("member", [(0.2, -0.1, 0.7, 1.3, 0.4, 0.5), _HEAVY,
                                    (0.1, 0.2, 0.9, 1.1, 0.3, 1.45)],
                         ids=["compact", "heavy-tailed", "m-1.45"])
def test_entropy_quad_2d_integrates_one_ray(monkeypatch, member):
    # the member's own frame makes the integrand radial: one half-line, the
    # 1D oracle's, with no finite-rule row and no polar angles at all, and
    # on a heavy tail one tail-rule call
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("half_line", "finite", "tail"):
        monkeypatch.setattr(_kronrod, name, counted(name, getattr(_kronrod, name)))
    monkeypatch.setattr(oracle, "_MAX_ANGLES", 0)
    nu = make_bivariate(*member)
    res = oracle.entropy_quad_2d(nu)
    assert res.converged is True
    assert calls == ({"half_line": 1, "tail": 1} if nu.m > 1.0 else {"half_line": 1})
    assert abs(res.value - _entropy_50(nu)) <= res.error_estimate


_M145_PAIR = ((0.3, 0.1, 0.9, 1.1, 0.25, 1.45), (0.0, 0.0, 1.0, 1.0, 0.0, 1.45))


@pytest.mark.parametrize("pair", [*_RAY_PAIRS, _M145_PAIR],
                         ids=["compact", "heavy-tailed", "crossing", "m-1.45"])
def test_ray_log_density_matches_public_density(monkeypatch, pair):
    # at every node of the first radial call, exp(l) of each member, from the
    # rule's per-ray quadratic, is MBivariate.density at the node's (x, y);
    # heavy-tailed rays run in tau = 1/(1 + r)
    f, g = (make_bivariate(*args) for args in pair)
    rule, log_density = _kronrod.finite, oracle._log_density
    nodes, dens = [], []

    def first_call(ray, *rest):
        def record(r, *slopes):
            nodes.append((r, slopes[:2]))
            return ray(r, *slopes)

        out = rule(record, *rest)
        monkeypatch.setattr(_kronrod, "finite", rule)
        monkeypatch.setattr(oracle, "_log_density", log_density)
        return out

    def record_density(log_b, nu):
        fv, lm = log_density(log_b, nu)
        dens.append(fv.copy())
        return fv, lm

    monkeypatch.setattr(_kronrod, "finite", first_call)
    monkeypatch.setattr(oracle, "_log_density", record_density)
    assert oracle.m_rel_entropy_quad(f, g).converged
    assert len(dens) == 2 * len(nodes) > 0
    # the node in f's whitened coordinates, scaled by k: the rule centres at f's mean
    k = math.sqrt(0.5 * abs(1.0 - f.m) * f.mparams.c1_q_d)
    eps = sys.float_info.epsilon
    for j, (r, (du, dw)) in enumerate(nodes):
        if f.m > 1.0:
            r = 1.0 / r - 1.0
        u, w = r * du / k, r * dw / k
        x = f.mu1 + f.s1 * u
        y = f.mu2 + f.s2 * (f.theta * u + math.sqrt(1.0 - f.theta**2) * w)
        for nu, ray_dens in zip((f, g), dens[2 * j: 2 * j + 2]):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                public = np.broadcast_to(nu.density(x, y), ray_dens.shape)
                big = np.maximum(ray_dens, public)
                # l = L/(1-m) + log norm: its sum rounds by eps (1 + |l|), and L
                # carries the bracket b's rounding, eps Q/|b|, over |1-m|
                kq = 0.5 * abs(1.0 - nu.m) * nu.mparams.c1_q_d * nu.quadratic_form(x, y)
                bracket = 1.0 - kq if nu.m < 1.0 else 1.0 + kq
                tol = 8.0 * eps * (1.0 + np.abs(np.log(big)) + kq / np.abs(bracket) / abs(1.0 - nu.m))
                # a subnormal density keeps only a few 2^-1074 of absolute accuracy
                close = np.abs(ray_dens - public) <= tol * big + 8.0 * math.ulp(0.0)
                assert ((ray_dens == public) | close).all()
            if nu.m > 1.0:
                # heavy tails: b >= 1, so the bound is about eps (1 + |l|)
                assert (bracket >= 1.0).all()


# an m = 1.05 pair: its tail falls as r^-40, so its densities underflow early on a ray
_M105_PAIR = ((0.3, 0.1, 0.9, 1.1, 0.25, 1.05), (0.0, 0.0, 1.0, 1.0, 0.0, 1.05))


@pytest.mark.parametrize("pair", [_M145_PAIR, _M105_PAIR], ids=["m-1.45", "m-1.05"])
def test_far_tail_reads_zero_not_nan(monkeypatch, pair):
    # both 2d oracles converge to finite values with every RuntimeWarning an
    # error; the H_m integrand is finite at the tail rule's nodes, and reads
    # 0, not nan, far out on the rays (tau = 1e-100), where both densities
    # underflow
    f, g = (make_bivariate(*args) for args in pair)
    calls = []
    rule = _kronrod.finite

    def record(ray, lo, hi, args, *rest):
        calls.append((ray, args))
        return rule(ray, lo, hi, args, *rest)

    monkeypatch.setattr(_kronrod, "finite", record)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for res in (oracle.m_rel_entropy_quad(f, g), oracle.m_rel_entropy_quad(f, g, form="first"),
                    oracle.entropy_quad_2d(f), oracle.entropy_quad_2d(g)):
            assert res.converged and math.isfinite(res.value)
    ray, args = calls[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(ray(_kronrod.TAIL_TAU, *(v[:, None] for v in args))).all()
    with np.errstate(over="ignore"):
        assert (ray(np.array([1e-100]), *(v[:, None] for v in args)) == 0.0).all()


@pytest.mark.parametrize("m", [0.5, 1.15, 1.3, 1.45])
@pytest.mark.parametrize("cfg", [oracle.QuadratureConfig(), CRIT3_CFG], ids=["default", "crit3"])
def test_entropy_quad_2d_at_every_scale(m, cfg):
    # the ray runs in the member's unit frame, where only (1-m) log norm
    # reads the scale: from s = 1e-150, where f is about 1e300, to 1e150,
    # every result converges within its own estimate of the 50-digit value
    for s in (1e-150, 1e-100, 1e-30, 1.0, 1e30, 1e100, 1e150):
        nu = make_bivariate(0.0, 0.0, s, s, 0.2, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = oracle.entropy_quad_2d(nu, cfg)
        assert res.converged, (s, res)
        assert abs(res.value - _entropy_50(nu)) <= res.error_estimate, (s, res)


@pytest.mark.parametrize("m", [0.97, 0.99, 1.01, 1.05])
@pytest.mark.parametrize("cfg", [oracle.QuadratureConfig(), CRIT3_CFG], ids=["default", "crit3"])
def test_entropy_quad_2d_next_to_m_1(m, cfg):
    # next to m = 1 the entropy is the integral of the density nu's doubles
    # define, whose mass is off 1 by C0's rounding: every result converges
    # within its own estimate of that integral, at every scale
    for s in (1e-150, 1e-100, 1e-30, 1.0, 1e30, 1e100, 1e150):
        nu = make_bivariate(0.0, 0.0, s, s, 0.2, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = oracle.entropy_quad_2d(nu, cfg)
        assert res.converged, (s, res)
        assert abs(res.value - _entropy_of_doubles_50(nu)) <= res.error_estimate, (s, res)


@pytest.mark.parametrize("m", [0.9, 0.999, 1.0001, 1.001, 1.01, 1.05, 1.3, 1.45, 1.499])
def test_entropy_quad_2d_converges_where_it_crosses_zero(m):
    # as the scale moves the entropy crosses zero, and there rel 1e-12 asks
    # for an error below abs_tol: the half-line's one sweep gets there, on
    # the halved heavy pieces next to m = 1 and with finite()'s tests where
    # its own misses (test_line_quad_converges_where_it_crosses_zero)
    for shape in ((1.0, 1.0, 0.2), (0.3, 1.0, 0.95)):
        for s in np.geomspace(0.06, 1.2, 200):
            nu = make_bivariate(0.0, 0.0, shape[0] * s, shape[1] * s, shape[2], m)
            assert oracle.entropy_quad_2d(nu, CRIT3_CFG).converged, (shape, s)


def test_entropy_quad_2d_estimate_holds_next_to_m_1():
    # converged within its estimate, where the entropy's own ray read an
    # estimate of 1.8e-16 relative against an error of 8e-16
    nu = make_bivariate(0.0, 0.0, 0.11081716761317745, 0.11081716761317745, 0.2, 1.01)
    res = oracle.entropy_quad_2d(nu, CRIT3_CFG)
    assert res.converged
    assert abs(res.value - _entropy_of_doubles_50(nu)) <= res.error_estimate


@pytest.mark.parametrize("m", [1.001, 1.01, 1.49])
@pytest.mark.parametrize("cfg", [oracle.QuadratureConfig(), CRIT3_CFG], ids=["default", "crit3"])
def test_heavy_tails_next_to_the_exponent_ends(m, cfg):
    # _M145_PAIR's geometry at m next to 1, where the tails fall like r^-2000,
    # and next to 3/2, where H_m's integrand falls like r^-1.08: both forms
    # of H_m and both entropies converge, with every RuntimeWarning an error
    (f_args, g_args) = ((*args[:5], m) for args in _M145_PAIR)
    f, g = make_bivariate(*f_args), make_bivariate(*g_args)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        forms = [oracle.m_rel_entropy_quad(f, g, cfg, form=form) for form in ("first", "second")]
        ent_f, ent_g = oracle.entropy_quad_2d(f, cfg), oracle.entropy_quad_2d(g, cfg)
    assert all(res.converged for res in (*forms, ent_f, ent_g))
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    for res in forms:
        assert abs(res.value - closed) <= 1e-11, (res, closed)
    ent_closed = entropy_diff_closed(f.mparams, f.det_cov, g.det_cov)
    assert abs(ent_f.value - ent_g.value - ent_closed) <= 1e-11


@pytest.mark.parametrize("distance", [5.0, 40.0])
@pytest.mark.parametrize("m", [1.3, 1.45, 1.49])
def test_heavy_rays_cut_where_they_pass_a_far_mean(monkeypatch, m, distance):
    # g's mean lies 5 or 40 frame units out: a ray that passes it is cut
    # there, so g's peak sits at a piece's end, where the cosine map crowds
    # the nodes, and the tail rule starts past twice its distance.  Without the
    # cut m = 1.45 read 1.5e-10 off at 5 units; with the tail at r = 15
    # whatever the peak, every pair 20 or more units apart was unconverged
    f = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.2, m)
    g = make_bivariate(0.6 * distance, 0.8 * distance, 0.9, 1.2, 0.3, m)
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    rows, crowded = [], []
    rule = _kronrod.finite

    def record(ray, lo, hi, args, rtol, atol, crowd):
        rows.append(len(lo))
        crowded.append(int(crowd.sum()))
        return rule(ray, lo, hi, args, rtol, atol, crowd)

    monkeypatch.setattr(_kronrod, "finite", record)
    for cfg in (oracle.QuadratureConfig(), CRIT3_CFG):
        for form in ("first", "second"):
            res = oracle.m_rel_entropy_quad(f, g, cfg, form=form)
            assert res.converged
            assert abs(res.value - closed) <= 1e-13 * closed, (res, closed)
    # the first radial call holds 64 rays, and those toward g's mean carry a
    # cut; only their pieces crowd their nodes
    assert rows[0] > 64
    assert 0 < crowded[0] == 2 * (rows[0] - 64)


def test_tangent_supports():
    # supports that touch from inside (m = 0.5) and from outside (m = 0.9):
    # a ray meets a piece one ulp long at the point of contact, whose nodes
    # round onto its ends.  The inner pair's closed form holds, as supp f
    # lies in supp g
    f = make_bivariate(math.sqrt(8.0) / 2.0, 0.0, 0.5, 0.5, 0.0, 0.5)
    g = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 0.5)
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    assert closed == pytest.approx(0.3886809181552526, rel=1e-15)
    res = oracle.m_rel_entropy_quad(f, g)
    assert res.converged
    assert abs(res.value - closed) <= 1e-13
    f = make_bivariate(1.5 * math.sqrt(24.0), 0.0, 0.5, 0.5, 0.0, 0.9)
    g = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 0.9)
    first, second = (oracle.m_rel_entropy_quad(f, g, form=form) for form in ("first", "second"))
    assert first.converged and second.converged
    assert abs(first.value - second.value) <= max(first.error_estimate, second.error_estimate)


@pytest.mark.parametrize("field", range(4), ids=["mu1", "mu2", "s1", "s2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_bivariate_fields_raise_domain_error(field, bad):
    # a member is built only from finite means and scales, so neither 2d
    # oracle meets a non-finite one
    good = (0.1, -0.2, 0.9, 1.4, 0.35, 4.0 / 3.0)
    args = list(good)
    args[field] = bad
    other = make_bivariate(*good)
    calls = [lambda: make_bivariate(*args),
             lambda: oracle.entropy_quad_2d(make_bivariate(*args)),
             lambda: oracle.m_rel_entropy_quad(make_bivariate(*args), other),
             lambda: oracle.m_rel_entropy_quad(other, make_bivariate(*args))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(DomainError):
                call()


def test_nan_integrand_not_converged():
    cfg = oracle.QuadratureConfig()
    for crowd in (True, False):
        integral, _, converged = _kronrod.finite(
            lambda x: np.full_like(x, np.nan), np.array([0.0]), np.array([1.0]), (),
            cfg.rel_tol, cfg.abs_tol, np.array([crowd]))
        assert not converged.any()
        assert np.isnan(integral).all()
    value, err = _kronrod.tail(np.full((1, len(_kronrod.TAIL_TAU)), np.nan), 0.5)
    assert np.isnan(value).all() and np.isnan(err).all()
    for m in (0.5, 4.0 / 3.0):
        nu = make_bivariate(0.1, -0.2, 0.9, 1.4, 0.35, m)
        assert not oracle._polar_quad(lambda log_b: np.full_like(log_b, np.nan), [nu], cfg).converged


@pytest.mark.parametrize("pair", checks.MREL_PAIRS, ids=["compact", "heavy-tailed"])
def test_verify_pairs_converge_in_64_angles(pair):
    f, g = (make_bivariate(*args) for args in pair)
    res = oracle.m_rel_entropy_quad(f, g)
    assert res.converged
    assert ", 64 angles," in res.note
    closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    assert abs(res.value / closed - 1.0) <= 1e-12


# Every first-round layout of the radial rule, both H_m forms, the 2D
# entropy's ray on both branches and the 1D half-lines on both branches,
# under both configs: value, estimate, flag and note, as hex literals
_POLAR = "polar trapezoid x Chebyshev rule, "
_RAY = "one ray in the member's unit frame, "
_LINE = "two half-lines from the mean, "
_PIN_PAIRS = {
    "compact": checks.MREL_PAIRS[0],
    "heavy": checks.MREL_PAIRS[1],
    "crossing": _RAY_PAIRS[2],
    # test_heavy_rays_cut_where_they_pass_a_far_mean's m = 1.3, distance-5 pair
    "far-mean": ((0.0, 0.0, 1.0, 1.0, 0.2, 1.3), (3.0, 4.0, 0.9, 1.2, 0.3, 1.3)),
    "nested-32": _NESTED_32,
}
_PIN_MEMBERS = {"compact": (0.2, -0.1, 0.7, 1.3, 0.4, 0.5), "heavy": _HEAVY}
_PINNED = {
    ("mrel", "compact", "first", "default"):
        ("0x1.3a8ac7da28af5p-3", "0x1.c339afe37fdeap-48",
         True, _POLAR + "64 angles, centre (0, 0)"),
    ("mrel", "compact", "second", "default"):
        ("0x1.3a8ac7da28af5p-3", "0x1.c40eb9efe8289p-48",
         True, _POLAR + "64 angles, centre (0, 0)"),
    ("mrel", "heavy", "first", "default"):
        ("0x1.cb05b76356ad8p-2", "0x1.036bf0dfe02bep-46",
         True, _POLAR + "64 angles, centre (0.3, 0.1)"),
    ("mrel", "heavy", "second", "default"):
        ("0x1.cb05b76356ad8p-2", "0x1.03be9ccd3782cp-46",
         True, _POLAR + "64 angles, centre (0.3, 0.1)"),
    ("mrel", "crossing", "first", "default"):
        ("0x1.868c701d57aacp-3", "0x1.bc043e99d2628p-40",
         True, _POLAR + "1024 angles, centre (0.1, 0.05)"),
    ("mrel", "crossing", "second", "default"):
        ("0x1.868c701d57aadp-3", "0x1.bc0435ee993d4p-40",
         True, _POLAR + "1024 angles, centre (0.1, 0.05)"),
    ("mrel", "far-mean", "first", "default"):
        ("0x1.fd0ebd5963106p+4", "0x1.320e84e8edc1ap-33",
         True, _POLAR + "128 angles, predicted, centre (0, 0)"),
    ("mrel", "far-mean", "second", "default"):
        ("0x1.fd0ebd5963104p+4", "0x1.320ea70a50c5ep-33",
         True, _POLAR + "128 angles, predicted, centre (0, 0)"),
    ("mrel", "nested-32", "first", "default"):
        ("0x1.10fa810281197p-1", "0x1.042d18f27a19ap-40",
         True, _POLAR + "32 angles, centre (0.827761, -0.741809)"),
    ("mrel", "nested-32", "second", "default"):
        ("0x1.10fa810281197p-1", "0x1.042b5ccdf4a48p-40",
         True, _POLAR + "32 angles, centre (0.827761, -0.741809)"),
    ("ent2d", "compact", "default"):
        ("-0x1.6eba696b4f9dfp+0", "0x1.3628f2e6f039fp-46",
         True, _RAY + "to the support edge"),
    ("ent2d", "heavy", "default"):
        ("-0x1.c735158fc2f98p+1", "0x1.6a451e373b09ap-45",
         True, _RAY + "untruncated"),
    ("1d", "mass", 0.3, "default"):
        ("0x1.ffffffffffffap-1", "0x1.91589cf98ff5dp-47",
         True, _LINE + "to the support edge"),
    ("1d", "moment", 0.3, "default"):
        ("0x1.c4cbbc87c7556p+0", "0x1.6790dc032dd06p-46",
         True, _LINE + "to the support edge"),
    ("1d", "entropy", 0.3, "default"):
        ("-0x1.ef7a03c2cf77ep-1", "0x1.a228f702ddedfp-47",
         True, _LINE + "to the support edge"),
    ("1d", "mass", 0.8, "default"):
        ("0x1.ffffffffffff4p-1", "0x1.921085ffcfd1ep-47",
         True, _LINE + "to the support edge"),
    ("1d", "moment", 0.8, "default"):
        ("0x1.58af7926f4770p+1", "0x1.2cb065ae5d710p-45",
         True, _LINE + "to the support edge"),
    ("1d", "entropy", 0.8, "default"):
        ("-0x1.9051d5480ac6fp+0", "0x1.484b6e3d34929p-46",
         True, _LINE + "to the support edge"),
    ("1d", "mass", 1.2, "default"):
        ("0x1.ffffffffffff0p-1", "0x1.90000015bb177p-47",
         True, _LINE + "untruncated"),
    ("1d", "moment", 1.2, "default"):
        ("0x1.215104e19b46bp+2", "0x1.c40eb4b592831p-45",
         True, _LINE + "untruncated"),
    ("1d", "entropy", 1.2, "default"):
        ("-0x1.6a4fb289e7af2p+1", "0x1.2230b497d77f0p-45",
         True, _LINE + "untruncated"),
    ("1d", "mass", 1.5, "default"):
        ("0x1.0000000000001p+0", "0x1.8fec2ed11d1d4p-47",
         True, _LINE + "untruncated"),
    ("1d", "moment", 1.5, "default"):
        ("0x1.3c300ba242a39p+3", "0x1.d0714bfeac111p-44",
         True, _LINE + "untruncated"),
    ("1d", "entropy", 1.5, "default"):
        ("-0x1.b8d9e54f197dap+2", "0x1.604b61e44ef69p-44",
         True, _LINE + "untruncated"),
    ("mrel", "compact", "first", "crit3"):
        ("0x1.3a8ac7da28af5p-3", "0x1.c339afe37fdeap-48",
         True, _POLAR + "64 angles, centre (0, 0)"),
    ("mrel", "compact", "second", "crit3"):
        ("0x1.3a8ac7da28af5p-3", "0x1.c40eb9efe8289p-48",
         True, _POLAR + "64 angles, centre (0, 0)"),
    ("mrel", "heavy", "first", "crit3"):
        ("0x1.cb05b76356ad8p-2", "0x1.e9e1e15804b50p-47",
         True, _POLAR + "64 angles, centre (0.3, 0.1)"),
    ("mrel", "heavy", "second", "crit3"):
        ("0x1.cb05b76356ad8p-2", "0x1.ea76f08397fd0p-47",
         True, _POLAR + "64 angles, centre (0.3, 0.1)"),
    ("mrel", "crossing", "first", "crit3"):
        ("0x1.868c701d58453p-3", "0x1.3a682f976c2e5p-44",
         True, _POLAR + "2048 angles, centre (0.1, 0.05)"),
    ("mrel", "crossing", "second", "crit3"):
        ("0x1.868c701d58452p-3", "0x1.3a2bc2ece8d9ep-44",
         True, _POLAR + "2048 angles, centre (0.1, 0.05)"),
    ("mrel", "far-mean", "first", "crit3"):
        ("0x1.fd0ebd5963106p+4", "0x1.24013d750a50bp-35",
         True, _POLAR + "128 angles, predicted, centre (0, 0)"),
    ("mrel", "far-mean", "second", "crit3"):
        ("0x1.fd0ebd5963104p+4", "0x1.2401787f2345ep-35",
         True, _POLAR + "128 angles, predicted, centre (0, 0)"),
    ("mrel", "nested-32", "first", "crit3"):
        ("0x1.10fa810281197p-1", "0x1.ab7f2031ac12ep-42",
         True, _POLAR + "64 angles, centre (0.827761, -0.741809)"),
    ("mrel", "nested-32", "second", "crit3"):
        ("0x1.10fa810281197p-1", "0x1.ab781fea5929ap-42",
         True, _POLAR + "64 angles, centre (0.827761, -0.741809)"),
    ("ent2d", "compact", "crit3"):
        ("-0x1.6eba696b4f9dfp+0", "0x1.3628f2e6f039fp-46",
         True, _RAY + "to the support edge"),
    ("ent2d", "heavy", "crit3"):
        ("-0x1.c735158fc2f98p+1", "0x1.6a451e373b09ap-45",
         True, _RAY + "untruncated"),
    ("1d", "mass", 0.3, "crit3"):
        ("0x1.ffffffffffffap-1", "0x1.91589cf98ff5dp-47",
         True, _LINE + "to the support edge"),
    ("1d", "moment", 0.3, "crit3"):
        ("0x1.c4cbbc87c7556p+0", "0x1.6790dc032dd06p-46",
         True, _LINE + "to the support edge"),
    ("1d", "entropy", 0.3, "crit3"):
        ("-0x1.ef7a03c2cf77ep-1", "0x1.a228f702ddedfp-47",
         True, _LINE + "to the support edge"),
    ("1d", "mass", 0.8, "crit3"):
        ("0x1.ffffffffffff4p-1", "0x1.921085ffcfd1ep-47",
         True, _LINE + "to the support edge"),
    ("1d", "moment", 0.8, "crit3"):
        ("0x1.58af7926f4770p+1", "0x1.2cb065ae5d710p-45",
         True, _LINE + "to the support edge"),
    ("1d", "entropy", 0.8, "crit3"):
        ("-0x1.9051d5480ac6fp+0", "0x1.484b6e3d34929p-46",
         True, _LINE + "to the support edge"),
    ("1d", "mass", 1.2, "crit3"):
        ("0x1.ffffffffffff0p-1", "0x1.90000015bb177p-47",
         True, _LINE + "untruncated"),
    ("1d", "moment", 1.2, "crit3"):
        ("0x1.215104e19b46bp+2", "0x1.c40eb4b592831p-45",
         True, _LINE + "untruncated"),
    ("1d", "entropy", 1.2, "crit3"):
        ("-0x1.6a4fb289e7af2p+1", "0x1.2230b497d77f0p-45",
         True, _LINE + "untruncated"),
    ("1d", "mass", 1.5, "crit3"):
        ("0x1.0000000000001p+0", "0x1.8fec2ed11d1d4p-47",
         True, _LINE + "untruncated"),
    ("1d", "moment", 1.5, "crit3"):
        ("0x1.3c300ba242a39p+3", "0x1.d0714bfeac111p-44",
         True, _LINE + "untruncated"),
    ("1d", "entropy", 1.5, "crit3"):
        ("-0x1.b8d9e54f197dap+2", "0x1.604b61e44ef69p-44",
         True, _LINE + "untruncated"),

}


def test_oracle_results_keep_their_bits():
    cfgs = {"default": oracle.QuadratureConfig(), "crit3": CRIT3_CFG}
    got = {}
    for cname, cfg in cfgs.items():
        for pname, pair in _PIN_PAIRS.items():
            f, g = (make_bivariate(*args) for args in pair)
            for form in ("first", "second"):
                got["mrel", pname, form, cname] = oracle.m_rel_entropy_quad(f, g, cfg, form=form)
        for name, member in _PIN_MEMBERS.items():
            got["ent2d", name, cname] = oracle.entropy_quad_2d(make_bivariate(*member), cfg)
        for q in (0.3, 0.8, 1.2, 1.5):
            g = QGaussian1D(mu=0.25, sigma=1.3, params=make_params(q, 1))
            for weight, quad in _ONE_D:
                got["1d", weight, q, cname] = quad(g, cfg)
    assert got.keys() == _PINNED.keys()
    for key, res in got.items():
        bits = (res.value.hex(), res.error_estimate.hex(), res.converged, res.note)
        assert bits == _PINNED[key], key


# Pairs on which the polar rule may predict its angle error (nested compact,
# heavy near and heavy far-mean pairs, two of them at m = 1.05) and pairs on
# which it may not (compact supports that cross, or touch from inside)
_PREDICTION_PAIRS = {
    "nested": ((0.3315250563215599, -0.024778047635256623, 0.5616207937204554,
                0.4428805356527784, 0.5247058876039506, 0.50288109962552),
               (0.06879178326818824, 0.14141005927466277, 1.0781935085047523,
                1.175443025089963, 0.3457049002859217, 0.50288109962552)),
    "heavy-near": ((-0.2571625462811252, -0.13810192258106796, 0.8847040597387821,
                    0.7905333328075778, 0.17819828482924527, 1.2993630278822663),
                   (0.04339222052348346, 0.20274890490088054, 1.0734044046369513,
                    0.8545533217728571, -0.38397598164986235, 1.2993630278822663)),
    "heavy-far-mean": _PIN_PAIRS["far-mean"],
    # T_64 is 1.7e-11 off, where d_64^2/d_32 is 1.3e-11
    "m1.05": ((0.0, 0.0, 0.6546673134430792, 1.1400629738759496, 0.06058655934732515, 1.05),
              (0.054670400936913686, -0.27615239461214364, 1.6877931840218716,
               0.8893190236139401, 0.5499155566395165, 1.05)),
    # d_64 falls 2.2e-6-fold from d_32, where d_32 fell only 0.03-fold from
    # d_16; T_64 is then 1.2e-11 off, 120 times d_64^2/d_32
    "m1.05-far": ((0.0, 0.0, 2.032603697516329, 0.6729301790227464, 0.03206558132975679, 1.05),
                  (-1.5859940580381888, -0.11007327891123822, 1.1738812562367993,
                   1.503627754797876, -0.5857095328595451, 1.05)),
    "crossing": _CROSSING_02,
    "inner-tangent": ((math.sqrt(8.0) / 2.0, 0.0, 0.5, 0.5, 0.0, 0.5), (0.0, 0.0, 1.0, 1.0, 0.0, 0.5)),
}
_PREDICTION_PINS = {
    ("m1.05", "default", "first"):
        ("0x1.0c71dc2cdb90ap+0", "0x1.2b35bf9fc3ec9p-36", _POLAR + "128 angles, centre (0, 0)"),
    ("m1.05", "default", "second"):
        ("0x1.0c71dc2cdb90ap+0", "0x1.2b35e56470602p-36", _POLAR + "128 angles, centre (0, 0)"),
    ("m1.05", "crit3", "first"):
        ("0x1.0c71dc2cdb90ap+0", "0x1.2ddf4d95c0c4fp-45",
         _POLAR + "128 angles, predicted, centre (0, 0)"),
    ("m1.05", "crit3", "second"):
        ("0x1.0c71dc2cdb90ap+0", "0x1.2e1f28f94b0f4p-45",
         _POLAR + "128 angles, predicted, centre (0, 0)"),
    ("crossing", "default", "first"):
        ("0x1.5936019820454p-6", "0x1.c6f6e4aebc3fdp-38", _POLAR + "1024 angles, centre (0, 0)"),
    ("crossing", "default", "second"):
        ("0x1.5936019820452p-6", "0x1.c6f6e8845917dp-38", _POLAR + "1024 angles, centre (0, 0)"),
    ("crossing", "crit3", "first"):
        ("0x1.593601981cfbap-6", "0x1.26de948436cbdp-44", _POLAR + "4096 angles, centre (0, 0)"),
    ("crossing", "crit3", "second"):
        ("0x1.593601981cfb8p-6", "0x1.26e5cc349c5afp-44", _POLAR + "4096 angles, centre (0, 0)"),
}


def test_polar_angle_prediction_holds(monkeypatch):
    # where no ray bearing or support crossing breaks the angular integrand's
    # analyticity, the rule stops once T_n's error is predicted within the
    # tolerance; every result whose note says so lies within its estimate,
    # and within the tolerance, of the trapezoid rule at 4 times its angles.
    # The crossing and tangent pairs keep the fixed rule (at m = 0.2 the
    # crossing pair's prediction would stop at 256 angles, 8 tolerances off)
    cfgs = {"default": oracle.QuadratureConfig(), "crit3": CRIT3_CFG}
    predicted = set()
    for name, pair in _PREDICTION_PAIRS.items():
        f, g = (make_bivariate(*args) for args in pair)
        for cname, cfg in cfgs.items():
            for form in ("first", "second"):
                res = oracle.m_rel_entropy_quad(f, g, cfg, form=form)
                assert res.converged, (name, cname, form)
                pin = _PREDICTION_PINS.get((name, cname, form))
                if pin is not None:
                    assert (res.value.hex(), res.error_estimate.hex(), res.note) == pin
                if ", predicted," not in res.note:
                    continue
                predicted.add(name)
                angles = int(res.note.split(" angles")[0].rsplit(" ", 1)[1])
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "_MIN_ANGLES", 4 * angles)
                    patch.setattr(oracle, "_MAX_ANGLES", 4 * angles)
                    reference = oracle.m_rel_entropy_quad(f, g, cfg, form=form).value
                off = abs(res.value - reference)
                assert off <= res.error_estimate, (name, cname, form, off, res)
                assert off <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value)), (name, cname, form)
    assert predicted == {"nested", "heavy-near", "heavy-far-mean", "m1.05", "m1.05-far"}
