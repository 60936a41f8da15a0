import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflow import functionals
from qflow.functionals import (
    coefficients,
    entropy_diff,
    f_h,
    f_limit,
    jh,
    jko_step,
    kh,
    q0h,
    qstar,
    rescaled_first,
    rescaled_second,
    rescaled_third,
    wasserstein2_sq,
)
from qflow.pme_flow import evolve_sigma, sigma_sq_gap
from qflow.qgaussian import OutsideVerifiedRangeError, QGaussian1D, m_rel_entropy_closed
from qflow.qmath import DomainError, c0_const, c1_const, make_params, q_log

# Reference values computed with 50-digit arithmetic (mpmath).
FROZEN_A = {
    (0.5, 1.0): 1966.7432545500569,
    (0.8, 1.0): 23.286740030067614,
    (1.2, 1.0): 0.8771282797004958,
}
FROZEN_A_NEAR_ONE = {0.9999: 4.00311996227238, 1.0001: 3.99688273226948}


def _g(q, mu=0.0, sigma=1.0):
    return QGaussian1D(mu=mu, sigma=sigma, params=make_params(q, 1))


def test_wasserstein_formula():
    g0 = _g(0.8, mu=0.1, sigma=1.0)
    g1 = _g(0.8, mu=0.4, sigma=1.5)
    c = g0.params.C
    assert wasserstein2_sq(g1, g0) == pytest.approx(c * 0.25 + 0.09, rel=1e-13)
    assert wasserstein2_sq(g0, g0) == 0.0
    assert wasserstein2_sq(g1, g0) == wasserstein2_sq(g0, g1)
    with pytest.raises(DomainError):
        wasserstein2_sq(g0, _g(0.9))


def test_wasserstein_squares_correctly_rounded():
    # x * x is correctly rounded; x ** 2 goes through the C library pow, which may
    # be an ulp off for this x
    x = 0.18036881288066048
    assert wasserstein2_sq(_g(0.8, mu=x), _g(0.8)) == float(Fraction(x) ** 2)


@pytest.mark.parametrize("key", sorted(FROZEN_A))
def test_coefficient_a_frozen(key):
    q, sigma0 = key
    assert coefficients(q, sigma0).a == pytest.approx(FROZEN_A[key], rel=1e-12)


def test_coefficient_identity():
    # (3-q) b sigma0^(1-q) = 1 ties b to the constants pipeline exactly
    for q in np.arange(0.1, 1.65, 0.1):
        q = round(float(q), 10)
        if q == 1.0:
            continue
        for sigma0 in (0.7, 1.0, 1.9):
            b = coefficients(q, sigma0).b
            assert (3.0 - q) * b * sigma0 ** (1.0 - q) == pytest.approx(1.0, abs=1e-10)


def test_coefficients_near_one_limits():
    for q, frozen in FROZEN_A_NEAR_ONE.items():
        c = coefficients(q, 1.0)
        assert c.a == pytest.approx(frozen, rel=1e-10)
        assert abs(c.a - 4.0) < 1e-2
        assert abs(c.b - 0.5) < 1e-3


def test_coefficient_a_outside_bivariate_range():
    # the conjugate exponent m = 3 - 2/q leaves the d=2 domain at q = 4/3
    for q in (4.0 / 3.0, 1.4, 1.6):
        c = coefficients(q, 1.0)
        assert math.isnan(c.a)
        assert c.b > 0.0
    assert not math.isnan(coefficients(1.3, 1.0).a)
    with pytest.raises(DomainError):
        coefficients(1.0, 1.0)
    with pytest.raises(DomainError):
        coefficients(0.8, 0.0)


def test_entropy_diff_sign_and_zero():
    g0 = _g(0.8, sigma=1.0)
    spread = _g(0.8, sigma=1.5)
    assert entropy_diff(g0, g0) == 0.0
    # spreading decreases the entropy functional (b C log_q(sigma0/sigma) < 0)
    assert entropy_diff(spread, g0) < 0.0
    b = coefficients(0.8, 1.0).b
    expect = b * g0.params.C * q_log(1.0 / 1.5, 0.8)
    assert entropy_diff(spread, g0) == pytest.approx(expect, rel=1e-14)


def test_kh_composition():
    g0 = _g(1.2, mu=0.0, sigma=1.0)
    g1 = _g(1.2, mu=0.3, sigma=1.2)
    h = 0.05
    assert kh(g0, g0, h) == 0.0
    assert kh(g1, g0, h) == pytest.approx(
        wasserstein2_sq(g1, g0) / (4.0 * h) + 0.5 * entropy_diff(g1, g0), rel=1e-15
    )
    with pytest.raises(DomainError):
        kh(g1, g0, 0.0)


def test_solve_eta_residual_and_flow_point():
    # StepPair(g, g0, h).delta is the one entry to the root delta = 1 - eta of
    # eta^q / (1 - eta^2) = sigma0^q sigma^(2-q) / D, here with sigma0 = 1
    for q in (0.5, 0.8, 1.2, 1.5):
        g0 = _g(q)
        for h in (1e-1, 1e-4, 1e-8, 1e-10):
            step = functionals.StepPair(_g(q, sigma=1.3), g0, h)
            delta = step.delta
            lhs = math.exp(q * math.log1p(-delta)) / (delta * (2.0 - delta))
            assert abs(lhs / (1.3 ** (2.0 - q) / step.gap) - 1.0) <= 1e-12
            assert 0.0 < 1.0 - delta < 1.0
            # the coupling of g0 with its own evolution has eta = sigma0/sigma_h
            sigma_h = evolve_sigma(1.0, h, q)
            at_flow = functionals.StepPair(_g(q, sigma=sigma_h), g0, h)
            assert 1.0 - at_flow.delta == pytest.approx(1.0 / sigma_h, rel=1e-12)
    with pytest.raises(DomainError):
        functionals.StepPair(_g(0.8, sigma=1.3), _g(0.8), 0.0)


def _eta_root_mp(rhs, q):
    """50-digit root delta of (1-delta)^q = delta (2-delta) rhs, by Newton in
    t = logit(delta) from the better asymptote, with log(1 - delta) formed
    as -log1p(e^t) so that no digit is lost next to delta = 1."""
    with mpmath.workdps(50):
        log_rhs, q = mpmath.log(rhs), mpmath.mpf(q)

        def f(t):
            return (-mpmath.log1p(mpmath.exp(-t)) + mpmath.log1p(1 / (1 + mpmath.exp(t)))
                    + q * mpmath.log1p(mpmath.exp(t)) + log_rhs)

        t0 = min(-mpmath.log(2) - log_rhs, -log_rhs / q, key=lambda t: abs(f(t)))
        t = mpmath.findroot(f, t0)
        return 1 / (1 + mpmath.exp(-t)), 1 / (1 + mpmath.exp(t))


def _solve_eta(sigma, sigma0, gap, q):
    """_solve_eta_gap, with the numerator that the step kernel forms once per table."""
    num = functionals._coupling_num(sigma, sigma0, q)
    return functionals._solve_eta_gap(sigma, sigma0, gap, q, num)


def test_eta_solve_matches_mpmath_root():
    # sigma0 in [1e-3, 1e3], sigma/sigma0 in [0.1, 10], h/sigma0^(3-q) in
    # [1e-12, 1e2], q on both branches.  The reference solves for the rhs
    # the library forms (its exponent 2 - q is rounded), so the bound is the
    # solve's own error; the sweep reads at most 2.8e-16.
    rng = np.random.default_rng(20130719)
    solved = 0
    for i in range(400):
        q = rng.uniform(0.02, 0.999) if i % 2 else rng.uniform(1.001, 5.0 / 3.0 - 1e-3)
        sigma0 = 10.0 ** rng.uniform(-3.0, 3.0)
        sigma = sigma0 * 10.0 ** rng.uniform(-1.0, 1.0)
        gap = sigma_sq_gap(sigma0, 10.0 ** rng.uniform(-12.0, 2.0) * sigma0 ** (3.0 - q), q)
        delta_ref, eta_ref = _eta_root_mp(sigma0**q * sigma ** (2.0 - q) / gap, q)
        try:
            delta, _, evals = _solve_eta(sigma, sigma0, gap, q)
        except DomainError:
            # the root rounds to delta = 1
            assert eta_ref < 2.0**-53
            continue
        solved += 1
        assert abs(delta / delta_ref - 1) <= 1e-15
        # the docstring's bound
        assert evals <= 9
    assert solved > 350


@pytest.mark.parametrize("q", [1e-3, 1e-6, 1e-12, 1e-30, 5e-324])
def test_eta_solve_small_q(q):
    # the slope of the equation in log eta falls to q as eta -> 0, and at
    # log rhs = 0 the root sits where log(1 - eta^2) is as small as q log eta.
    # The reference bisects F(t) in 50 digits over t in [-800, 60].
    def f(t, log_rhs):
        return (-mpmath.log1p(mpmath.exp(-t)) + mpmath.log1p(1 / (1 + mpmath.exp(t)))
                + q * mpmath.log1p(mpmath.exp(t)) + log_rhs)

    with mpmath.workdps(50):
        for log_rhs in (-20.0, -0.5, 0.0, 0.01, 0.5, 3.0, 30.0):
            lo, hi = mpmath.mpf(-800), mpmath.mpf(60)
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid, mpmath.mpf(log_rhs)) < 0 else (lo, mid)
            try:
                delta, _, evals = _solve_eta(1.0, 1.0, math.exp(-log_rhs), q)
            except DomainError:
                # the root rounds to delta = 1
                assert 1 / (1 + mpmath.exp(lo)) < 2.0**-53
                continue
            assert abs(delta / (1 / (1 + mpmath.exp(-lo))) - 1) <= 1e-15
            assert evals <= 9


@pytest.mark.parametrize("q", [3.0, 700.0, 1500.0])
@pytest.mark.parametrize("rhs", [1e-3, 1.0, 1e3])
def test_eta_solve_large_q(q, rhs):
    # beyond Q_1, where e^(-q/2) in the first start bound would leave the
    # start next to w = 0 (or at it, once it underflows)
    delta, _, evals = _solve_eta(1.0, 1.0, 1.0 / rhs, q)
    lhs = math.exp(q * math.log1p(-delta)) / (delta * (2.0 - delta))
    assert lhs / rhs == pytest.approx(1.0, abs=1e-13)
    assert evals <= 9


@pytest.mark.parametrize("eta", [8e-17, 1.05e-16, 1.2e-16, 2e-16])
def test_eta_solve_cut_off_at_eta_2_pow_minus_53(eta):
    # below eta = 2^-53, delta = 1 - eta no longer resolves eta and the solve raises
    q = 0.5
    rhs = eta**q / (1.0 - eta * eta)
    if eta < 2.0**-53:
        with pytest.raises(DomainError):
            _solve_eta(1.0, 1.0, 1.0 / rhs, q)
    else:
        delta, _, _ = _solve_eta(1.0, 1.0, 1.0 / rhs, q)
        assert abs((1.0 - delta) - eta) <= 2.0**-53


def test_eta_solve_log_path_where_a_power_overflows():
    # sigma^(2-q) = 1e450 overflows while rhs = 1.35e300 does not; the
    # 50-digit root is 3.7055056329612407e-301
    p = make_params(0.5, 1)
    g0 = QGaussian1D(mu=0.0, sigma=1e100, params=p)
    g = QGaussian1D(mu=0.0, sigma=1e300, params=p)
    delta = functionals.StepPair(g, g0, 1e250).delta
    assert delta == pytest.approx(3.7055056329612407e-301, rel=1e-12)


@pytest.mark.parametrize(
    "sigma, sigma0, sigma_h",
    [
        (1e300, 1.0, 1.0 + 1e-10),  # rhs ~ e^851 is beyond the double range
        (1e-300, 1.0, 2.0),  # rhs ~ 1e-360 is below it
        (1e-50, 1.0, 2.0),  # 1 - delta ~ 1e-76 rounds to delta = 1
    ],
)
def test_eta_solve_outside_double_range_raises(sigma, sigma0, sigma_h):
    gap = (sigma_h - sigma0) * (sigma_h + sigma0)
    with pytest.raises(DomainError):
        _solve_eta(sigma, sigma0, gap, 0.8)


def test_eta_solve_newton_cap_raises(monkeypatch):
    # at rhs ~ 1 neither asymptote is within 2^-27 of the root
    gap = (1.5 - 1.0) * (1.5 + 1.0)
    assert _solve_eta(1.3, 1.0, gap, 0.8)[2] > 3
    monkeypatch.setattr(functionals, "_NEWTON_MAXITER", 1)
    with pytest.raises(RuntimeError):
        _solve_eta(1.3, 1.0, gap, 0.8)


def test_eta_solve_matches_mpmath_root_where_the_start_applies():
    # above rhs = 4 the descent starts with the Newton step from the
    # asymptote.  Draws concentrate on rhs in (4, 100], where that step lands
    # farthest from the root, on large rhs, and on q next to 0 and 5/3; a
    # third of them cover rhs over [1e-300, 1e300].  The error is taken at
    # 50 digits; the polish's own roundings put it at up to 4.1e-16, two
    # units in the last place at 1 being 2^-51 = 4.4e-16.
    rng = np.random.default_rng(4520)
    bands = ((math.log10(4.0), 2.0), (2.0, 300.0), (-300.0, 300.0))
    solved = 0
    for i in range(3000):
        lo, hi = bands[i % 3]
        rhs = 10.0 ** rng.uniform(lo, hi)
        q = (rng.uniform(1e-3, 5.0 / 3.0), 10.0 ** rng.uniform(-12.0, -1.0),
             5.0 / 3.0 - 10.0 ** rng.uniform(-12.0, -1.0))[i // 3 % 3]
        try:
            delta, rhs, evals = _solve_eta(1.0, 1.0, 1.0 / rhs, q)
        except DomainError:
            # the root rounds to delta = 1
            assert i % 3 == 2 and _eta_root_mp(rhs, q)[1] < 2.0**-53
            continue
        solved += 1
        delta_ref = _eta_root_mp(rhs, q)[0]
        with mpmath.workdps(50):
            assert abs(delta / delta_ref - 1) <= 2.0**-51, (q, rhs)
        assert evals <= 9
    assert solved > 2500


def _root_evals(rhs, q):
    return functionals._coupling_root(math.log(rhs), rhs, q, functionals._W_MIN)[1]


def test_coupling_root_evaluations_on_a_sweep():
    # the start takes exactly 2 evaluations from rhs = 100 up and at most 4
    # above rhs = 4; the most, 8, is next to rhs = 1, where it does not apply
    qs = [*np.linspace(0.01, 5.0 / 3.0, 24), 1e-3, 1e-6, 1e-12]
    counts = {"le4": 0, "gt4": 0}
    for q in qs:
        for log_rhs in np.arange(-700.0, 700.0, 0.5):
            rhs = math.exp(log_rhs)
            evals = _root_evals(rhs, float(q))
            if rhs >= 100.0:
                assert evals == 2, (q, rhs)
            band = "gt4" if rhs > 4.0 else "le4"
            counts[band] = max(counts[band], evals)
    assert counts == {"le4": 8, "gt4": 4}


@settings(max_examples=300, deadline=None)
@given(
    q=st.one_of(st.floats(1e-12, 5.0 / 3.0), st.sampled_from([1e-12, 1e-3, 5.0 / 3.0])),
    log_rhs=st.one_of(st.floats(-700.0, 700.0), st.floats(math.log(4.0), 10.0)),
)
@example(q=1.45, log_rhs=math.log(4.5))
@example(q=1e-3, log_rhs=1.45)
def test_coupling_root_iterates_fall_after_the_start(q, log_rhs):
    # H is convex, so the step from the start lands at or above the root:
    # every later iterate lies below the one before it, and above the result
    # but for the resolution of H's evaluation, about |log rhs| eps relative
    rhs = math.exp(log_rhs)
    iterates = []

    def expm1(x):
        iterates.append(0.5 * x)
        return math.expm1(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "math", type(math)("math"))
        vars(functionals.math).update(vars(math), expm1=expm1)
        w, evals = functionals._coupling_root(log_rhs, rhs, q, functionals._W_MIN)
    assert len(iterates) == evals
    after = iterates[1:]
    assert all(b < a for a, b in zip(after, after[1:]))
    assert all(v >= w + w * 2.0**-40 for v in after)


def test_eta_solve_newton_cap_counts_the_start(monkeypatch):
    # at rhs = 1e3 the step from the asymptote is the first of 2 evaluations
    gap = 1e-3
    delta, _, evals = _solve_eta(1.0, 1.0, gap, 0.8)
    assert evals == 3  # with the polish
    monkeypatch.setattr(functionals, "_NEWTON_MAXITER", 2)
    assert _solve_eta(1.0, 1.0, gap, 0.8)[0] == delta
    monkeypatch.setattr(functionals, "_NEWTON_MAXITER", 1)
    with pytest.raises(RuntimeError):
        _solve_eta(1.0, 1.0, gap, 0.8)


def test_q0h_and_qstar_geometry():
    q = 1.2
    g0 = _g(q, mu=0.5, sigma=1.0)
    h = 0.05
    sigma_h = evolve_sigma(1.0, h, q)
    p = g0.params
    cpl = q0h(g0, h)
    assert cpl.m == pytest.approx(p.m, rel=1e-15)
    assert cpl.theta == pytest.approx(1.0 / sigma_h, rel=1e-14)
    assert cpl.s1 == pytest.approx(math.sqrt(p.C), rel=1e-14)
    assert cpl.s2 == pytest.approx(math.sqrt(p.C) * sigma_h, rel=1e-14)
    assert cpl.mu1 == cpl.mu2 == 0.5
    # at the flow target the optimal coupling coincides with the pair coupling
    g_flow = _g(q, mu=0.5, sigma=sigma_h)
    opt = qstar(g_flow, g0, h)
    assert opt.theta == pytest.approx(cpl.theta, rel=1e-12)


def test_couplings_need_bivariate_range():
    # q outside (2/3, 4/3) sends m = 3 - 2/q outside (0, 3/2)
    g0 = _g(0.5)
    with pytest.raises(OutsideVerifiedRangeError):
        q0h(g0, 0.05)
    with pytest.raises(OutsideVerifiedRangeError):
        qstar(_g(0.5, sigma=1.2), g0, 0.05)


@pytest.mark.parametrize("q", [0.5, 0.8, 1.2])
def test_jh_zero_exactly_on_flow(q):
    g0 = _g(q, mu=0.2, sigma=1.0)
    for h in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        g_h = _g(q, mu=0.2, sigma=evolve_sigma(1.0, h, q))
        assert abs(jh(g_h, g0, h)) <= 1e-10


def test_jh_positive_off_flow():
    q = 0.8
    g0 = _g(q, mu=0.0, sigma=1.0)
    h = 0.01
    sigma_h = evolve_sigma(1.0, h, q)
    for g in (_g(q, sigma=1.2), _g(q, sigma=sigma_h * 1.001), _g(q, sigma=sigma_h, mu=0.1)):
        assert jh(g, g0, h) > 0.0


def test_jh_matches_general_bivariate_closed_form():
    # jh is a hand-reduced formula; the general relative-entropy closed form
    # applied to the two couplings is an independent route to the same number
    for q, sig in [(0.8, 1.4), (1.2, 1.4), (0.75, 0.9), (1.3, 1.1)]:
        p = make_params(q, 1)
        g0 = QGaussian1D(mu=0.1, sigma=1.0, params=p)
        g = QGaussian1D(mu=0.4, sigma=sig, params=p)
        for h in (0.05, 1e-3):
            opt = qstar(g, g0, h)
            cpl = q0h(g0, h)
            closed = m_rel_entropy_closed(opt.mparams, opt.mean, opt.cov, cpl.mean, cpl.cov)
            assert jh(g, g0, h) == pytest.approx(closed, rel=1e-12)


def test_f_h_forms_agree():
    for q in (0.5, 0.8, 1.2, 1.5):
        g0 = _g(q, sigma=1.0)
        g = _g(q, mu=0.3, sigma=1.4)
        for h in (1e-1, 1e-4, 1e-7, 1e-10):
            assert f_h(g, g0, h, form="q") == pytest.approx(
                f_h(g, g0, h, form="m"), rel=1e-12, abs=1e-14
            )
    with pytest.raises(ValueError):
        f_h(g, g0, 0.1, form="x")


def test_f_h_converges_linearly_to_limit():
    g0 = _g(0.8, sigma=1.0)
    g = _g(0.8, mu=0.3, sigma=1.4)
    lim = f_limit(g, g0)
    assert lim == pytest.approx(q_log(1.0 / 1.4, 0.8), rel=1e-14)
    e1 = f_h(g, g0, 1e-3) - lim
    e2 = f_h(g, g0, 5e-4) - lim
    assert e1 / e2 == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("q", [0.8, 1.2])
def test_rescaled_first_matches_literal_definition(q):
    # the shipped evaluation is the reduced form W2^2 + C D F_h; the literal
    # definition a D^(1/q) J_h must agree where both are well conditioned
    g0 = _g(q, sigma=1.0)
    g = _g(q, mu=0.3, sigma=1.4)
    a = coefficients(q, 1.0).a
    for h in (1e-1, 1e-2, 1e-3):
        gap = sigma_sq_gap(1.0, h, q)
        literal = a * gap ** (1.0 / q) * jh(g, g0, h)
        assert rescaled_first(g, g0, h) == pytest.approx(literal, rel=1e-9)


@pytest.mark.parametrize("q", [0.8, 1.2])
def test_rescaled_second_matches_literal_definition(q):
    g0 = _g(q, sigma=1.0)
    g = _g(q, mu=0.3, sigma=1.4)
    c = coefficients(q, 1.0)
    w2 = wasserstein2_sq(g, g0)
    for h in (1e-1, 1e-2, 1e-3):
        gap = sigma_sq_gap(1.0, h, q)
        literal = c.a * c.b * gap ** ((1.0 - q) / q) * jh(g, g0, h) - c.b / gap * w2
        assert rescaled_second(g, g0, h) == pytest.approx(literal, rel=1e-8)


@pytest.mark.parametrize("q", [0.8, 1.2])
def test_rescaled_third_matches_literal_definition(q):
    g0 = _g(q, sigma=1.0)
    g = _g(q, mu=0.3, sigma=1.4)
    c = coefficients(q, 1.0)
    w2 = wasserstein2_sq(g, g0)
    for h in (1e-1, 1e-2):
        gap = sigma_sq_gap(1.0, h, q)
        literal = c.a * c.b * gap ** ((1.0 - q) / q) * jh(g, g0, h) - w2 / (2.0 * h)
        assert rescaled_third(g, g0, h) == pytest.approx(literal, rel=1e-7)


def test_rescaled_limits():
    for q in (0.8, 1.2):
        g0 = _g(q, sigma=1.0)
        g = _g(q, mu=0.3, sigma=1.4)
        w2 = wasserstein2_sq(g, g0)
        ed = entropy_diff(g, g0)
        hs = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        e1 = [abs(rescaled_first(g, g0, h) - w2) for h in hs]
        e2 = [abs(rescaled_second(g, g0, h) - ed) for h in hs]
        s1 = np.polyfit(np.log(hs), np.log(e1), 1)[0]
        s2 = np.polyfit(np.log(hs), np.log(e2), 1)[0]
        assert 0.9 <= s1 <= 1.1
        assert 0.9 <= s2 <= 1.1


def test_third_gap_sign_and_limit():
    g0 = _g(0.8, sigma=1.0)
    g = _g(0.8, mu=0.3, sigma=1.4)
    w2 = wasserstein2_sq(g, g0)
    eps = 2.0 / (3.0 - 0.8)
    expect = (1.0 - eps) * w2 / 4.0
    for h in (1e-1, 1e-3, 1e-6):
        gap = rescaled_third(g, g0, h) - rescaled_second(g, g0, h)
        assert gap >= 0.0
    assert rescaled_third(g, g0, 1e-6) - rescaled_second(g, g0, 1e-6) == pytest.approx(
        expect, rel=1e-3
    )
    # for q > 1 the Bernoulli inequality reverses and the bound term flips sign
    g0p = _g(1.2, sigma=1.0)
    gp = _g(1.2, mu=0.3, sigma=1.4)
    assert rescaled_third(gp, g0p, 1e-4) - rescaled_second(gp, g0p, 1e-4) < 0.0


def test_jko_step_properties():
    for q in (0.8, 1.2, 1.5):
        g0 = _g(q, mu=0.4, sigma=1.0)
        h = 0.05
        step = jko_step(g0, h)
        assert step.mu == g0.mu
        assert step.sigma > g0.sigma
        # stationarity: sigma - sigma0 = h b sigma0^(1-q) sigma^(q-2)
        b = coefficients(q, 1.0).b
        resid = (step.sigma - 1.0) - h * b * step.sigma ** (q - 2.0)
        assert abs(resid) <= 1e-13
        assert kh(step, g0, h) < 0.0
    with pytest.raises(DomainError):
        jko_step(_g(0.8), 0.0)


def test_jko_step_second_order_in_h():
    g0 = _g(0.8, sigma=1.0)
    errs = []
    for h in (2e-2, 1e-2):
        exact = evolve_sigma(1.0, h, 0.8)
        errs.append(abs(jko_step(g0, h).sigma - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def _jko_reference(q, sigma0, h):
    """sigma0 (1 + u) and u for the root of u (1 + u)^(2-q) = r, 50 digits.

    Newton on the convex, increasing t + (2-q) log1p(e^t) - log r from
    t = log r, where it is nonnegative, so the iterates fall monotonically.
    The root is checked against the stationarity equation in sigma itself,
    delta = h (sigma0 + delta)^(q-2) / (3-q) with delta = sigma - sigma0.
    """
    with mpmath.workdps(50):
        q, sigma0, h = mpmath.mpf(q), mpmath.mpf(sigma0), mpmath.mpf(h)
        log_r = mpmath.log(h / sigma0 ** (3 - q) / (3 - q))
        t = log_r
        for _ in range(100):
            f = t + (2 - q) * mpmath.log1p(mpmath.exp(t)) - log_r
            step = f / (1 + (2 - q) / (1 + mpmath.exp(-t)))
            t -= step
            if abs(step) <= mpmath.mpf(10) ** -45 * max(1, abs(t)):
                break
        u = mpmath.exp(t)
        delta = sigma0 * u
        assert abs(delta - h * (sigma0 + delta) ** (q - 2) / (3 - q)) <= delta * 1e-40
        return sigma0 + delta, u


def test_jko_step_matches_mpmath_or_raises_domain_error():
    worst_ulps = worst_rel = 0.0
    for q in (0.3, 0.5, 0.8, 1.2, 1.6):
        for sigma0 in (1e-300, 1.0, 1e300):
            g0 = _g(q, sigma=sigma0)
            for k in range(-300, 201, 4):
                h = 10.0**k
                try:
                    sigma = jko_step(g0, h).sigma
                except DomainError:
                    # only where the exact flow rejects the same scales
                    with pytest.raises(DomainError):
                        evolve_sigma(sigma0, h, q)
                    continue
                ref, u = _jko_reference(q, sigma0, h)
                err = abs(mpmath.mpf(sigma) - ref)
                if u <= 1:
                    worst_ulps = max(worst_ulps, float(err) / math.ulp(float(ref)))
                else:
                    worst_rel = max(worst_rel, float(err / ref))
    assert worst_ulps <= 2.0
    assert worst_rel <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    q=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=1.0, max_value=5.0 / 3.0, exclude_min=True, exclude_max=True),
    ),
    log_sigma0=st.floats(min_value=-300.0, max_value=300.0),
    log_h=st.floats(min_value=math.log10(5e-324), max_value=200.0),
)
def test_jko_step_bracket_monotone_and_improving(q, log_sigma0, log_h):
    g0 = _g(q, mu=0.25, sigma=10.0**log_sigma0)
    sigma0 = g0.sigma
    h = max(10.0**log_h, 5e-324)
    try:
        step = jko_step(g0, h)
    except DomainError:
        return
    assert step.mu == g0.mu
    # sigma0 < sigma0 (1 + u) and u < r; the step may round to sigma0 only
    # where the stationarity lower bound r (1 + r)^(q-2) is below sigma0's
    # resolution (the rule of perfbench's check_jko)
    r = h / sigma0 ** (3.0 - q) / (3.0 - q)
    hi = sigma0 * r
    lo = hi * (1.0 + r) ** (q - 2.0)
    assert sigma0 <= step.sigma <= sigma0 + hi
    if sigma0 + lo > sigma0:
        assert step.sigma > sigma0
    # K_h(g0 | g0) = 0 bounds the minimum, up to the roundoff of its terms.
    # entropy_diff rounds the ratio sigma0/sigma once, so its relative
    # error is about eps sigma / (sigma - sigma0): near the resolution of
    # sigma0 it is of order one.
    if step.sigma == sigma0:
        assert kh(step, g0, h) == 0.0
        return
    transport = wasserstein2_sq(step, g0) / (4.0 * h)
    entropy = 0.5 * entropy_diff(step, g0) * step.sigma / (step.sigma - sigma0)
    assert kh(step, g0, h) <= 4.0 * 2.0**-52 * (abs(transport) + abs(entropy))


_GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize("q", ["0.3", "0.8", "1.2", "1.6"])
def test_jko_golden_trajectory_steps_match_mpmath(q):
    # the golden jko trajectories (sigma0 = 1, h = 0.01, 300 steps), step by
    # step: jko_step from each row's sigma reproduces the next row, within
    # one ulp of the 50-digit root started from that row
    with open(_GOLDEN / f"jko-q{q}.csv") as f:
        sigmas = [float(line.split(",")[2]) for line in f if line[0].isdigit()]
    assert len(sigmas) == 301 and sigmas[0] == 1.0
    worst = 0.0
    for prev, sigma in zip(sigmas, sigmas[1:]):
        assert jko_step(_g(float(q), mu=0.5, sigma=prev), 0.01).sigma == sigma
        ref, _ = _jko_reference(float(q), prev, 0.01)
        worst = max(worst, float(abs(mpmath.mpf(sigma) - ref)) / math.ulp(float(ref)))
    assert worst <= 1.0


@pytest.mark.parametrize(
    "q, sigma0, h, steps",
    [
        (1.2, 1.0, 5e-324, 5),
        (0.3, 1e-100, 1e-300, 5),  # the increment is far below sigma0's resolution
        pytest.param(0.34, 1.0, 2.7e182, 5, marks=pytest.mark.xfail(
            strict=True,
            reason="the rounding of 3 - q reaches x through sigma^(3-q): 47 ulps at step 2",
        )),
        (1.5, 1e150, 1e200, 4),
    ],
)
def test_jko_edge_trajectory_steps_match_mpmath(q, sigma0, h, steps):
    # the trajectory kernel behind jko_step and the jko table, at the edges
    # of the h range: each scale is the 50-digit root started from the one
    # before it, within the kernel's bounds (2 ulps for u <= 1, 1e-12 above)
    sigmas = list(functionals._jko_scales(sigma0, h, q, steps))
    assert len(sigmas) == steps
    for prev, sigma in zip([sigma0, *sigmas], sigmas):
        ref, u = _jko_reference(q, prev, h)
        err = abs(mpmath.mpf(sigma) - ref)
        if u <= 1:
            assert float(err) <= 2.0 * math.ulp(float(ref))
        else:
            assert float(err / ref) <= 1e-12


def test_jko_step_newton_cap_raises(monkeypatch):
    # h = 0.01 from sigma0 = 1 takes more than one Newton evaluation
    monkeypatch.setattr(functionals, "_NEWTON_MAXITER", 1)
    with pytest.raises(RuntimeError):
        jko_step(_g(0.8), 0.01)


_EPS = 2.0**-52
_Q1 = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1.0, max_value=5.0 / 3.0, exclude_min=True, exclude_max=True),
)


def _jh_prefactor(g, g0, h):
    """(1/2) C1(m,2) (C0(m,2)/(C sigma0 sqrt(D)))^(1-m), the prefactor of jh
    as its docstring writes it."""
    p = g.params
    gap = sigma_sq_gap(g0.sigma, h, p.q)
    return 0.5 * c1_const(p.m, 2) * (c0_const(p.m, 2) / (p.C * g0.sigma * math.sqrt(gap))) ** (
        1.0 - p.m
    )


def _jh_allowance(g, g0, h):
    # Near the flow jh's bracket W2^2/(C D) + t1 + t2 - 1 is a sum of four
    # terms of size at most 1 + W2^2/(C D) that cancel (on the flow
    # t1 = 2 sigma0/(sigma_h + sigma0) and t2 = 0), each carrying a few
    # ulps; the prefactor multiplies that roundoff.  16 eps is four terms
    # of four ulps each; 3000 draws of the sweep below read at most 2.4 eps
    # on the flow, and no negative value off it.
    gap = sigma_sq_gap(g0.sigma, h, g.params.q)
    size = 1.0 + wasserstein2_sq(g, g0) / (g.params.C * gap)
    return 16.0 * _EPS * _jh_prefactor(g, g0, h) * size


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    q=_Q1,
    log_h=st.floats(min_value=-8.0, max_value=-1.0),
    log2_ratio=st.floats(min_value=-1.0, max_value=1.0),
    dmu=st.floats(min_value=-1.0, max_value=1.0),
)
def test_jh_nonnegative_and_zero_on_flow(q, log_h, log2_ratio, dmu):
    h = 10.0**log_h
    g0 = _g(q, mu=0.25)
    g = _g(q, mu=0.25 + dmu, sigma=2.0**log2_ratio)
    on_flow = _g(q, mu=0.25, sigma=evolve_sigma(1.0, h, q))
    try:
        value = jh(g, g0, h)
    except DomainError:
        # m = 3 - 2/q >= 3/2, or m or the prefactor beyond the double range
        if q < 4.0 / 3.0:
            with pytest.raises((OverflowError, DomainError)):
                _jh_prefactor(g, g0, h)
        return
    assert value >= -_jh_allowance(g, g0, h)
    assert abs(jh(on_flow, g0, h)) <= _jh_allowance(on_flow, g0, h)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    log_h=st.floats(min_value=-8.0, max_value=-1.0),
    log2_ratio=st.floats(min_value=-1.0, max_value=1.0),
    dmu=st.floats(min_value=-1.0, max_value=1.0),
)
# near q = 1 roundoff takes the computed difference below zero: -2.4e-10 here
@example(q=0.999999999, log_h=-7.0, log2_ratio=0.5, dmu=0.3)
def test_rescaled_third_not_below_second_for_q_below_one(q, log_h, log2_ratio, dmu):
    h = 10.0**log_h
    g0 = _g(q, mu=0.25)
    g = _g(q, mu=0.25 + dmu, sigma=2.0**log2_ratio)
    # third - second = (b/D - 1/(2h)) W2^2 >= 0 by Bernoulli's inequality.
    # Its numerator eps x - expm1(eps log1p(x)) (eps = 2/(3-q), x = h here)
    # subtracts two terms of size eps x, one rounded once and one up to
    # three times, so it carries 4 eps of eps x; near q = 1 that is all of
    # it (40k random draws with q down to 1 - 1e-15 read at most 1.3 of the
    # 4).  The precision lost there is a defect of the shipped formula; the
    # allowance is its roundoff, not a margin.
    gap = sigma_sq_gap(1.0, h, q)
    allowance = 4.0 * _EPS * (2.0 / (3.0 - q)) * h / (2.0 * h * gap) * wasserstein2_sq(g, g0)
    assert rescaled_third(g, g0, h) - rescaled_second(g, g0, h) >= -allowance


_CLOSED_FORMS = (
    lambda g, g0, h: wasserstein2_sq(g, g0),
    lambda g, g0, h: entropy_diff(g, g0),
    kh,
    lambda g, g0, h: coefficients(g.params.q, g0.sigma),
    lambda g, g0, h: q0h(g0, h),
    qstar,
    jh,
    f_h,
    lambda g, g0, h: f_h(g, g0, h, form="m"),
    lambda g, g0, h: f_limit(g, g0),
    rescaled_first,
    rescaled_second,
    rescaled_third,
    lambda g, g0, h: jko_step(g0, h),
)
_FINITE_SCALE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(q=_Q1, sigma=_FINITE_SCALE, sigma0=_FINITE_SCALE, mu=_FINITE, mu0=_FINITE, h=_FINITE_SCALE)
# log(sigma0/sigma) of an underflowed ratio raised a raw math domain error
@example(q=1.2, sigma=1.7e308, sigma0=1e-20, mu=0.0, mu0=0.0, h=1.0)
# (C0(m,2)/sigma0)^(m-1) overflowed at m = 3 - 2/q just below 0
@example(q=0.6666666676666666, sigma=1.0, sigma0=1.7e308, mu=0.0, mu0=0.0, h=1.0)
# C0/sigma0 overflowed for a subnormal sigma0: b was inf (q < 1) or 0.0 (q > 1)
@example(q=0.5, sigma=1e-310, sigma0=1e-310, mu=0.0, mu0=0.0, h=0.1)
@example(q=1.5, sigma=1e-310, sigma0=1e-310, mu=0.0, mu0=0.0, h=0.1)
# sigma0/sigma overflowed: entropy_diff, f_limit and kh returned inf
@example(q=0.5, sigma=1e-20, sigma0=1.7e308, mu=0.0, mu0=0.0, h=1.0)
# sigma0/sigma overflowed: F_h in the q-form returned inf
@example(q=0.9557432470229523, sigma=1.389718251696264e-282, sigma0=1.271699804723392e34,
         mu=0.0, mu0=0.0, h=3.2254689089615906e-249)
# sigma0/sigma underflowed and (sigma0/sigma)^(1-q) = exp(710.1) overflows inside F_h
@example(q=1.665558014128859, sigma=1.880844584491682e305, sigma0=1.8673144766077192e-160,
         mu=0.0, mu0=0.0, h=5.483588907334475e-193)
# the third rescaling returned inf
@example(q=0.3212572260215228, sigma=1.1525989043119636e107, sigma0=1.9516205546973847e-95,
         mu=0.3117896046709327, mu0=0.0, h=4.830490341381342e-122)
def test_closed_forms_return_or_raise_domain_error(q, sigma, sigma0, mu, mu0, h):
    # over every finite scale, mean and step a public closed form returns a
    # finite value or raises DomainError, never another exception
    p = make_params(q, 1)
    g = QGaussian1D(mu=mu, sigma=sigma, params=p)
    g0 = QGaussian1D(mu=mu0, sigma=sigma0, params=p)
    for call in _CLOSED_FORMS:
        try:
            value = call(g, g0, h)
        except DomainError:
            continue
        if isinstance(value, float):
            assert math.isfinite(value)
    try:
        assert entropy_diff(g0, g0) == 0.0
        assert 0.0 < coefficients(q, sigma0).b < math.inf
    except DomainError:
        pass


def test_entropy_diff_and_f_limit_where_sigma0_over_sigma_overflows_match_mpmath():
    # sigma0/sigma = 1.7e328 overflows; log(sigma0/sigma) = log sigma0 - log sigma does not
    q, sigma0, sigma = 0.5, 1.7e308, 1e-20
    p = make_params(q, 1)
    g, g0 = _g(q, sigma=sigma), _g(q, sigma=sigma0)
    with mpmath.workdps(50):
        mq, ratio = mpmath.mpf(q), mpmath.mpf(sigma0) / mpmath.mpf(sigma)
        limit = (ratio ** (1 - mq) - 1) / (1 - mq)
        # b = sigma0^(q-1)/(3-q) exactly; the library's b is its printed-pipeline twin
        diff = mpmath.mpf(sigma0) ** (mq - 1) / (3 - mq) * mpmath.mpf(p.C) * limit
        assert abs(f_limit(g, g0) / limit - 1) <= 1e-14  # 2.60768e164
        assert abs(entropy_diff(g, g0) / diff - 1) <= 1e-14  # 9.71971e9


def test_f_h_where_sigma0_over_sigma_overflows_matches_mpmath():
    # sigma0/sigma = 9.2e315 overflows; F_h, about log_q(sigma0/sigma), does not
    q, sigma, sigma0, h = 0.9557432470229523, 1.389718251696264e-282, 1.271699804723392e34, \
        3.2254689089615906e-249
    step = functionals.StepPair(_g(q, sigma=sigma), _g(q, sigma=sigma0), h)
    with mpmath.workdps(50):
        mq, delta = mpmath.mpf(q), mpmath.mpf(step.delta)
        eta, ratio = 1 - delta, mpmath.mpf(sigma0) / mpmath.mpf(sigma)
        m = 3 - 2 / mq
        m_form = (2 * mpmath.mpf(sigma0) * mpmath.mpf(sigma) * delta / mpmath.mpf(step.gap)
                  + 2 * ((ratio / eta) ** ((1 - m) / (3 - m)) - 1) / (1 - m) - 1)
        # at the solved delta
        exact = (2 * eta**mq / (2 - delta) * ratio ** (1 - mq)
                 + mq * ((ratio / eta) ** (1 - mq) - 1) / (1 - mq) - 1)
        # the forms agree up to the root's rounding (1.5e-18)
        assert abs(m_form / exact - 1) <= 1e-16
        assert abs(step.f_h() / exact - 1) <= 1e-14  # 7.2572027638363008e15
        # the m-form's log term is the q-form's, with the exponent (1-q) L = 33
        # formed from q, not from the rounded m = 3 - 2/q: 2.9e-15 of F_h
        assert abs(step.f_h("m") / exact - 1) <= 3e-15


@pytest.mark.parametrize("q", [0.5, 1.5])
@pytest.mark.parametrize("sigma0", [1e-310, 5e-324])
def test_entropy_b_at_subnormal_sigma0_matches_mpmath(q, sigma0):
    # C0/sigma0 overflows for a subnormal sigma0 while b = sigma0^(q-1)/(3-q)
    # is an ordinary double (4e154 at q = 0.5, sigma0 = 1e-310)
    b = functionals._entropy_b(make_params(q, 1), sigma0)
    with mpmath.workdps(50):
        exact = mpmath.mpf(sigma0) ** (mpmath.mpf(q) - 1) / (3 - mpmath.mpf(q))
        assert abs(b / exact - 1) <= 1e-15


@pytest.mark.parametrize("q", [0.5, 1.2])
def test_coefficients_reject_infinite_sigma0(q):
    with pytest.raises(DomainError):
        coefficients(q, math.inf)
