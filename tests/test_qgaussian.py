import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflow import oracle
from qflow.qgaussian import (
    OutsideVerifiedRangeError,
    QGaussian1D,
    _spd_det,
    entropy_diff_closed,
    m_rel_entropy_closed,
    make_bivariate,
)
from qflow.qmath import DomainError, make_params, q_exp


def _g(q, mu=0.0, sigma=1.0):
    return QGaussian1D(mu=mu, sigma=sigma, params=make_params(q, 1))


@pytest.mark.parametrize("q,sigma", [(0.1, 0.6), (0.5, 1.0), (0.9, 2.3), (1.1, 0.4), (1.4, 1.7), (1.6, 1.0)])
def test_mass_is_one(q, sigma):
    g = _g(q, mu=0.7, sigma=sigma)
    res = oracle.mass_quad(g)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("q,sigma", [(0.3, 0.9), (0.8, 1.5), (1.2, 0.5), (1.5, 1.2)])
def test_second_moment_is_c_sigma_sq(q, sigma):
    g = _g(q, mu=-1.1, sigma=sigma)
    res = oracle.moment2_quad(g)
    assert res.value == pytest.approx(g.variance, rel=1e-8)
    assert g.variance == pytest.approx(g.params.C * sigma * sigma, rel=1e-15)


def test_density_shape():
    g = _g(0.8, mu=0.5, sigma=1.3)
    assert g.density(0.5) == pytest.approx(g.peak_density(), rel=1e-15)
    assert g.density(1.7) == pytest.approx(g.density(-0.7), rel=1e-14)
    assert g.density(0.5) > g.density(1.5) > g.density(2.5)
    w = g.params.c1_q_d * 0.4**2 / (2.0 * g.variance)
    assert g.density(0.9) == pytest.approx(g.peak_density() * q_exp(-w, 0.8), rel=1e-14)


def test_compact_support_edge():
    g = _g(0.5, mu=0.0, sigma=1.0)
    s = g.support()
    assert s.is_finite
    assert g.density(s.hi + 1e-12) == 0.0
    assert g.density(s.hi - 1e-6) > 0.0
    assert s.contains(0.0) and not s.contains(s.hi + 1.0)
    # edge radius solves c1 r^2 / (2 C sigma^2) = 1/(1-q)
    r = math.sqrt(2.0 * g.variance / ((1.0 - 0.5) * g.params.c1_q_d))
    assert s.hi == pytest.approx(r, rel=1e-15)


def test_heavy_tail_support():
    g = _g(1.3)
    s = g.support()
    assert not s.is_finite
    assert g.density(50.0) > 0.0
    # power-law decay: doubling x should cut the density by ~2^(-2/(q-1))
    ratio = g.density(200.0) / g.density(100.0)
    assert ratio == pytest.approx(2.0 ** (-2.0 / 0.3), rel=1e-2)


def test_sigma_and_params_validation():
    with pytest.raises(DomainError):
        QGaussian1D(mu=0.0, sigma=0.0, params=make_params(0.8, 1))
    with pytest.raises(DomainError):
        QGaussian1D(mu=0.0, sigma=1.0, params=make_params(0.8, 2))
    for mu, sigma in [(0.0, math.inf), (0.0, math.nan), (math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(DomainError):
            QGaussian1D(mu=mu, sigma=sigma, params=make_params(0.8, 1))


def test_entropy_diff_closed_vs_quadrature_1d():
    for q, s0, s1 in [(0.6, 1.0, 1.7), (1.2, 0.8, 1.1), (1.45, 1.0, 1.3)]:
        p = make_params(q, 1)
        g0 = _g(q, mu=0.1, sigma=s0)
        g1 = _g(q, mu=-0.4, sigma=s1)
        quad = oracle.entropy_quad(g1).value - oracle.entropy_quad(g0).value
        closed = entropy_diff_closed(p, g1.variance, g0.variance)
        assert quad == pytest.approx(closed, rel=1e-8)


def test_entropy_diff_closed_vs_quadrature_2d():
    for m in (0.5, 4.0 / 3.0):
        nu_a = make_bivariate(0.2, -0.1, 1.0, 0.8, 0.3, m)
        nu_b = make_bivariate(0.0, 0.0, 1.2, 1.1, -0.2, m)
        quad = oracle.entropy_quad_2d(nu_a).value - oracle.entropy_quad_2d(nu_b).value
        closed = entropy_diff_closed(nu_a.mparams, nu_a.det_cov, nu_b.det_cov)
        assert quad == pytest.approx(closed, rel=1e-7)


def test_entropy_diff_closed_mean_independent():
    p = make_params(0.8, 1)
    assert entropy_diff_closed(p, 2.0, 3.0) == entropy_diff_closed(p, 2.0, 3.0)
    with pytest.raises(DomainError):
        entropy_diff_closed(p, -1.0, 3.0)


def test_m_rel_closed_zero_at_equal_args():
    for m in (0.5, 1.3):
        mp = make_params(m, 2)
        cov = np.array([[1.0, 0.2], [0.2, 0.9]])
        val = m_rel_entropy_closed(mp, [0.1, 0.2], cov, [0.1, 0.2], cov)
        assert abs(val) < 1e-15


def test_m_rel_closed_positive():
    rng = np.random.default_rng(555)
    for _ in range(20):
        m = float(rng.choice([0.4, 0.8, 1.2, 1.4]))
        mp = make_params(m, 2)
        mu_a = rng.uniform(-1.0, 1.0, 2)
        mu_b = rng.uniform(-1.0, 1.0, 2)
        th_a, th_b = rng.uniform(-0.8, 0.8, 2)
        sa = np.diag(rng.uniform(0.5, 2.0, 2))
        sb = np.diag(rng.uniform(0.5, 2.0, 2))
        sa[0, 1] = sa[1, 0] = th_a * math.sqrt(sa[0, 0] * sa[1, 1])
        sb[0, 1] = sb[1, 0] = th_b * math.sqrt(sb[0, 0] * sb[1, 1])
        assert m_rel_entropy_closed(mp, mu_a, sa, mu_b, sb) > 0.0


def test_m_rel_closed_scalar_d1():
    mp = make_params(0.8, 1)
    a = m_rel_entropy_closed(mp, 0.3, 1.2, 0.0, 1.0)
    b = m_rel_entropy_closed(mp, [0.3], [[1.2]], [0.0], [[1.0]])
    assert a == pytest.approx(b, rel=1e-15)
    assert a > 0.0


def test_m_rel_closed_rejects_bad_inputs():
    mp = make_params(0.8, 2)
    good = np.eye(2)
    with pytest.raises(DomainError):
        m_rel_entropy_closed(mp, [0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]), [0.0, 0.0], good)
    with pytest.raises(DomainError):
        m_rel_entropy_closed(mp, [0.0], good, [0.0, 0.0], good)


@pytest.mark.parametrize("m", [0.5, 1.15])
@pytest.mark.parametrize("s", [1.0, 1e30, 1e-30, 1e60, 1e-60])
def test_m_rel_closed_matches_mpmath_at_every_scale(m, s):
    # the determinants come from the entries, not from exp(log|det|),
    # so the closed form keeps a few eps of error far from unit scale
    f = make_bivariate(0.0, 0.0, s, s, 0.2, m)
    g = make_bivariate(0.1 * s, 0.0, 1.2 * s, 1.1 * s, 0.0, m)
    value = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
    with mpmath.workdps(50):
        sig_a, sig_b = (mpmath.matrix(nu.cov.tolist()) for nu in (f, g))
        inv_b = sig_b**-1
        dmu = mpmath.matrix((f.mean - g.mean).tolist())
        det_a, det_b, mq = mpmath.det(sig_a), mpmath.det(sig_b), mpmath.mpf(m)
        bracket = (sum((inv_b * sig_a)[i, i] for i in range(2)) + (dmu.T * inv_b * dmu)[0]
                   + 2 * (mpmath.sqrt(det_b / det_a) ** (1 - mq) - 1) / (1 - mq) - 2)
        exact = (mpmath.mpf(f.mparams.c1_q_d) / 2
                 * (mpmath.mpf(f.mparams.c0_q_d) / mpmath.sqrt(det_b)) ** (1 - mq) * bracket)
        assert abs(value / exact - 1) <= 2e-14


def test_m_rel_closed_where_the_diagonal_product_overflows():
    # det Sigma is a normal double although a e overflows: the determinant
    # is then a (e - b (c / a)); the second matrix's a e / det is 5e12, and
    # its determinant reads 5e-14 off
    near_singular = 1e160 * (1.0 - 1e-13)
    cases = [(np.array([[1e200, 3e154], [3e154, 1e109]]), 4 * sys.float_info.epsilon),
             (np.array([[1e160, near_singular], [near_singular, 1e160]]), 1e-13)]
    mp = make_params(0.5, 2)
    for sigma, rel in cases:
        with mpmath.workdps(50):
            (a, b), (c, e) = (map(mpmath.mpf, row) for row in sigma.tolist())
            exact = a * e - b * c
            assert abs(_spd_det(sigma, 2, "sigma") / exact - 1) <= rel
        assert 0.0 < m_rel_entropy_closed(mp, [0.0, 0.0], 0.5 * sigma, [0.0, 0.0], sigma) < math.inf
    # the first is well conditioned: it agrees with a diagonal matrix of its determinant
    sigma = cases[0][0]
    diag = np.eye(2) * math.sqrt(_spd_det(sigma, 2, "sigma"))
    assert (m_rel_entropy_closed(mp, [0.0, 0.0], 0.5 * sigma, [0.0, 0.0], sigma)
            == pytest.approx(m_rel_entropy_closed(mp, [0.0, 0.0], 0.5 * diag, [0.0, 0.0], diag),
                             rel=1e-14))


def test_spd_det_symmetry_is_relative_at_1e_12():
    # the off-diagonal entries may differ by 1e-12 of either, not more; both
    # orders of the pair, and the closed form, read the same rule
    mp = make_params(0.5, 2)
    for near, symmetric in ((0.2 * (1.0 + 5e-13), True), (0.2 * (1.0 + 1e-11), False)):
        for b, c in ((0.2, near), (near, 0.2)):
            sigma = np.array([[1.0, b], [c, 1.5]])
            if symmetric:
                assert _spd_det(sigma, 2, "sigma") == 1.5 - b * c
                assert m_rel_entropy_closed(mp, [0.0, 0.0], sigma, [0.1, 0.0], 2.0 * sigma) > 0.0
                continue
            with pytest.raises(DomainError, match="must be symmetric"):
                _spd_det(sigma, 2, "sigma")
            with pytest.raises(DomainError, match="sigma_b must be symmetric"):
                m_rel_entropy_closed(mp, [0.0, 0.0], np.eye(2), [0.1, 0.0], sigma)


def test_m_rel_closed_takes_d_up_to_two():
    mp = make_params(0.8, 3)
    with pytest.raises(DomainError):
        m_rel_entropy_closed(mp, np.zeros(3), np.eye(3), np.zeros(3), np.eye(3))


def test_make_bivariate_domain():
    nu = make_bivariate(0.0, 0.0, 1.0, 2.0, 0.5, 0.5)
    assert nu.m == 0.5
    assert nu.mparams.d == 2
    for m in (1.5, 1.0, 0.0, -0.2, 2.0):
        with pytest.raises(OutsideVerifiedRangeError):
            make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, m)
    with pytest.raises(DomainError):
        make_bivariate(0.0, 0.0, 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        make_bivariate(0.0, 0.0, -1.0, 1.0, 0.0, 0.5)


def test_bivariate_geometry():
    nu = make_bivariate(0.5, -0.3, 1.2, 0.7, 0.4, 0.5)
    assert nu.det_cov == pytest.approx(float(np.linalg.det(nu.cov)), rel=1e-14)
    inv = np.linalg.inv(nu.cov)
    z = np.array([1.1, 0.4]) - nu.mean
    assert nu.quadratic_form(1.1, 0.4) == pytest.approx(float(z @ inv @ z), rel=1e-12)
    # density from the normalization and quadratic form directly
    w = 0.5 * nu.mparams.c1_q_d * nu.quadratic_form(1.1, 0.4)
    expect = nu.mparams.c0_q_d / math.sqrt(nu.det_cov) * q_exp(-w, nu.m)
    assert nu.density(1.1, 0.4) == pytest.approx(expect, rel=1e-14)


def test_bivariate_support_threshold():
    compact = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 0.5)
    thr = compact.support_threshold()
    assert math.isfinite(thr)
    r = math.sqrt(thr)
    assert compact.density(r * 1.000001, 0.0) == 0.0
    assert compact.density(r * 0.999999, 0.0) > 0.0
    heavy = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 1.3)
    assert heavy.support_threshold() == math.inf
    assert heavy.density(30.0, -40.0) > 0.0


def test_bivariate_mass():
    cfg = oracle.QuadratureConfig()
    for m in (0.5, 1.3, 1.45):
        nu = make_bivariate(0.1, -0.2, 0.9, 1.4, 0.35, m)
        # the polar rule hands its integrand the member's log-bracket at each node
        res = oracle._polar_quad(lambda log_b: oracle._log_density(log_b, nu)[0], [nu], cfg)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)


def test_bivariate_density_on_arrays():
    for m in (0.5, 1.3):
        nu = make_bivariate(0.1, -0.2, 0.9, 1.4, 0.35, m)
        xs = np.linspace(-4.0, 4.0, 17)
        ys = np.linspace(3.0, -5.0, 17)
        loop = [nu.density(float(x), float(y)) for x, y in zip(xs, ys)]
        assert nu.density(xs, ys) == pytest.approx(loop, rel=1e-15, abs=0.0)
        if m < 1.0:
            assert nu.density(xs, ys)[0] == 0.0
    # far points give density 0, never nan
    heavy = make_bivariate(0.0, 0.0, 1.0, 1.0, 0.9, 1.3)
    assert heavy.density(np.array([1e300]), np.array([1e300]))[0] == 0.0


# the bivariate member of the repros below; its normalization overflows
_TINY_BIV = (-2.224336150228073, -3.29349526210264e-06, 2.1146938227215098e-160,
             4.227758212593557e-160, -0.925770231301719, 0.9999996304955706)
# f and g of a pair whose sigma_b LAPACK calls singular although det = 7.0e216 is normal;
# the determinant of the double entries is 3.98e216, and _spd_det's rounding reads 5.5e216
_SINGULAR_PAIR = (
    (0.02244915872085437, 6.031990004568223, 2.1101978186449926e-78, 9.823985771790828e46,
     -0.9999999999999996, 1.280835391169577),
    (-2.3456988267279745e-05, -32.42726710773594, 4.2620312500787626e126, 4.1653270571980776e-11,
     -0.9999999999999999, 1.280835391169577),
)


def _mp_density(q, sigma, mu, x):
    # 50 digits on the member's double constants
    p = make_params(q, 1)
    with mpmath.workdps(50):
        mq, c0, c1, v = mpmath.mpf(q), mpmath.mpf(p.c0_q_d), mpmath.mpf(p.c1_q_d), \
            mpmath.mpf(p.C) * mpmath.mpf(sigma) ** 2
        dx = mpmath.mpf(x) - mpmath.mpf(mu)
        bracket = 1 - (1 - mq) * c1 * dx * dx / (2 * v)
        return c0 / mpmath.sqrt(v) * (bracket ** (1 / (1 - mq)) if bracket > 0 else 0)


@pytest.mark.parametrize("q, sigma, x, rel", [
    # C sigma^2 underflows to 0: the parent divided by it
    (0.5, 1e-200, 0.0, 1e-15),
    # C sigma^2 overflows: the peak read 0.0
    (1.2, 1e200, 0.0, 1e-15),
    # the bracket's argument overflows under a normal C sigma^2: it read 0.0
    (1.2, 1e153, 2e154, 1e-14),
    # exp_q(-w) = 1.4e-327 underflows under a peak of 2.8e149: it read 0.0
    (0.999, 1e-150, 4.6e-149, 1e-12),
    # a heavy tail past the overflow of w, under a peak of 1e300, from logs
    (1.66, 1e-300, 1e-146, 2e-13),
])
def test_density_at_extreme_scales_matches_mpmath(q, sigma, x, rel):
    g = _g(q, sigma=sigma)
    ref = _mp_density(q, sigma, 0.0, x)
    assert abs(g.density(x) / ref - 1) <= rel
    if x == 0.0:
        assert abs(g.peak_density() / ref - 1) <= rel


def test_density_at_extreme_scales_underflows_or_raises():
    # 6.2e-695 at 50 digits: the parent read nan from inf/inf
    assert _g(1.2, sigma=1e200).density(1e250) == 0.0
    # the peak C0/(sqrt(C) sigma) = 3.2e309 exceeds the double range
    tiny = _g(0.5, sigma=1e-310)
    with pytest.raises(DomainError):
        tiny.peak_density()
    with pytest.raises(DomainError):
        tiny.density(0.0)
    # the normalization, 4.7e318, exceeds the double range: it read inf, and inf * 0 read nan
    with pytest.raises(DomainError):
        make_bivariate(*_TINY_BIV).density(-4.97660475284834e89, 7.807494244807658e135)
    f, g = (make_bivariate(*args) for args in _SINGULAR_PAIR)
    with pytest.raises(DomainError):
        m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)


_Q1 = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1.0, max_value=5.0 / 3.0, exclude_min=True, exclude_max=True),
)
_M = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1.0, max_value=1.5, exclude_min=True, exclude_max=True),
)
_SCALE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_THETA = st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True)
_BIV = st.tuples(_FINITE, _FINITE, _SCALE, _SCALE, _THETA)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(one=st.tuples(_Q1, _SCALE, _FINITE, _FINITE), m=_M, f=_BIV, g=_BIV, point=st.tuples(_FINITE, _FINITE))
# 1/(C sigma^2) divided by zero; the tiny member's normalization overflowed and its density read nan
@example(one=(0.5, 1e-200, 0.0, 0.0), m=_TINY_BIV[5], f=_TINY_BIV[:5], g=_TINY_BIV[:5],
         point=(-4.97660475284834e89, 7.807494244807658e135))
# C sigma^2 overflowed: density(1e250) read nan; LAPACK raised LinAlgError on sigma_b
@example(one=(1.2, 1e200, 0.0, 1e250), m=_SINGULAR_PAIR[0][5], f=_SINGULAR_PAIR[0][:5],
         g=_SINGULAR_PAIR[1][:5], point=(0.0, 0.0))
def test_densities_and_closed_forms_return_or_raise_domain_error(one, m, f, g, point):
    # over every finite scale, mean and point, each returns a finite value or raises
    # DomainError, never another exception, nan or a RuntimeWarning
    q, sigma, mu, x = one
    member = QGaussian1D(mu=mu, sigma=sigma, params=make_params(q, 1))
    nu_f, nu_g = make_bivariate(*f, m), make_bivariate(*g, m)
    calls = (
        member.peak_density,
        lambda: member.density(x),
        lambda: nu_f.density(*point),
        lambda: m_rel_entropy_closed(nu_f.mparams, nu_f.mean, nu_f.cov, nu_g.mean, nu_g.cov),
    )
    for call in calls:
        try:
            value = call()
        except DomainError:
            continue
        assert math.isfinite(value)
