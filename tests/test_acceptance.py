"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
line carries the measured quantity, the pinned tolerance, and the elapsed
time against the criterion's runtime budget.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qflow import oracle
from qflow.checks import moment_identity_error
from qflow.functionals import (
    coefficients,
    entropy_diff,
    jh,
    jko_step,
    q0h,
    rescaled_first,
    rescaled_second,
    rescaled_third,
    wasserstein2_sq,
)
from qflow.pme_flow import evolve_sigma
from qflow.qgaussian import (
    QGaussian1D,
    entropy_diff_closed,
    m_rel_entropy_closed,
    make_bivariate,
)
from qflow.qmath import make_params


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _g(q, mu=0.0, sigma=1.0):
    return QGaussian1D(mu=mu, sigma=sigma, params=make_params(q, 1))


@pytest.fixture
def polar_results(monkeypatch):
    """Every result of the 2D oracles computed during the test: the polar
    rule's and entropy_quad_2d's one-ray results."""
    results = []

    def recorder(rule):
        def record(*args):
            res = rule(*args)
            results.append(res)
            return res
        return record

    for name in ("_polar_quad", "entropy_quad_2d"):
        monkeypatch.setattr(oracle, name, recorder(getattr(oracle, name)))
    return results


def _converged_detail(results):
    return f"{sum(r.converged for r in results)}/{len(results)} 2D quadratures converged"


def _slope(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def test_criterion_01_coefficient_identities():
    t0 = time.perf_counter()
    qs = [round(0.1 * k, 10) for k in range(1, 10)] + [round(1.0 + 0.1 * k, 10) for k in range(1, 7)]
    worst = 0.0
    for q in qs:
        for sigma0 in (0.7, 1.0, 1.9):
            b = coefficients(q, sigma0).b
            worst = max(worst, abs((3.0 - q) * b * sigma0 ** (1.0 - q) - 1.0))
    lim_ok = True
    for q in (1.0 - 1e-4, 1.0 + 1e-4):
        c = coefficients(q, 1.0)
        lim_ok = lim_ok and abs(c.a - 4.0) < 1e-2 and abs(c.b - 0.5) < 1e-3
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and lim_ok and dt < 1.0
    _report(1, ok, f"(3-q) b sigma0^(1-q) = 1: max dev {worst:.2e} (tol 1e-10) over "
                   f"{len(qs)}x3 (q, sigma0); a,b at q=1+-1e-4 within 1e-2/1e-3: {lim_ok}; "
                   f"{dt:.2f}s (budget 1s)")


def test_criterion_02_mass_and_variance_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250201)
    worst_mass = 0.0
    worst_var = 0.0
    for _ in range(20):
        if rng.uniform() < 0.5:
            q = float(rng.uniform(0.05, 0.95))
        else:
            q = float(rng.uniform(1.05, 1.62))
        sigma = float(rng.uniform(0.3, 2.5))
        g = _g(q, mu=float(rng.uniform(-1.0, 1.0)), sigma=sigma)
        worst_mass = max(worst_mass, abs(oracle.mass_quad(g).value - 1.0))
        worst_var = max(worst_var, abs(oracle.moment2_quad(g).value / g.variance - 1.0))
    dt = time.perf_counter() - t0
    ok = worst_mass <= 1e-10 and worst_var <= 1e-8 and dt < 10.0
    _report(2, ok, f"20 random (q, sigma): max |mass-1| {worst_mass:.2e} (tol 1e-10), "
                   f"max var rel dev {worst_var:.2e} (tol 1e-8); {dt:.2f}s (budget 10s)")


def _draw_m(rng):
    # valid range with a conditioning margin: (0.05, 0.95) u (1.05, 1.45)
    u = float(rng.uniform(0.0, 1.3))
    return 0.05 + u if u < 0.9 else 1.05 + (u - 0.9)


def test_criterion_03_closed_entropies_vs_quadrature(polar_results):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250303)
    # tighter than the default config, so the 1e-6 check below sits far
    # above the oracle's own error across the whole m range
    mrel_cfg = oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
    worst_mrel = 0.0
    worst_ent = 0.0
    for i in range(50):
        m = _draw_m(rng)
        if i % 2 == 0:
            # relative m-entropy instance
            if m < 1.0:
                for _ in range(200):
                    f = make_bivariate(
                        float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)),
                        float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 0.7)),
                        float(rng.uniform(-0.5, 0.5)), m,
                    )
                    g = make_bivariate(
                        float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)),
                        float(rng.uniform(1.0, 1.5)), float(rng.uniform(1.0, 1.5)),
                        float(rng.uniform(-0.5, 0.5)), m,
                    )
                    if oracle.support_included(f, g, margin=0.02):
                        break
                else:
                    raise RuntimeError("no nested instance found")
            else:
                f = make_bivariate(
                    float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)),
                    float(rng.uniform(0.7, 1.3)), float(rng.uniform(0.7, 1.3)),
                    float(rng.uniform(-0.5, 0.5)), m,
                )
                g = make_bivariate(
                    float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)),
                    float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.8, 1.2)),
                    float(rng.uniform(-0.5, 0.5)), m,
                )
            closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
            quad = oracle.m_rel_entropy_quad(f, g, mrel_cfg).value
            worst_mrel = max(worst_mrel, abs(quad / closed - 1.0))
        else:
            # entropy difference instance
            nu_a = make_bivariate(
                float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)),
                float(rng.uniform(0.6, 0.9)), float(rng.uniform(0.6, 0.9)),
                float(rng.uniform(-0.5, 0.5)), m,
            )
            nu_b = make_bivariate(
                float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)),
                float(rng.uniform(1.1, 1.5)), float(rng.uniform(1.1, 1.5)),
                float(rng.uniform(-0.5, 0.5)), m,
            )
            closed = entropy_diff_closed(nu_a.mparams, nu_a.det_cov, nu_b.det_cov)
            quad = oracle.entropy_quad_2d(nu_a).value - oracle.entropy_quad_2d(nu_b).value
            worst_ent = max(worst_ent, abs(quad / closed - 1.0))
    dt = time.perf_counter() - t0
    converged = all(r.converged for r in polar_results)
    ok = worst_mrel <= 1e-6 and worst_ent <= 1e-6 and converged and dt < 120.0
    _report(3, ok, f"50 instances, m in (0.05,0.95)u(1.05,1.45): max rel dev "
                   f"m-rel {worst_mrel:.2e}, entropy-diff {worst_ent:.2e} (tol 1e-6); "
                   f"{_converged_detail(polar_results)}; {dt:.1f}s (budget 120s)")


def test_criterion_04_theta_minimization_and_pythagoras(polar_results):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250404)
    member_cfg = oracle.QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)
    worst_theta = 0.0
    worst_gap = 0.0
    gaps_converged = True
    for m in (1.15, 4.0 / 3.0):
        q = 2.0 / (3.0 - m)
        p_biv = q0h(_g(q), 0.05)
        m_p = p_biv.m
        xi1 = p_biv.s1 * float(rng.uniform(0.85, 1.15))
        xi2 = p_biv.s2 * float(rng.uniform(0.85, 1.15))
        res = oracle.minimize_theta(p_biv, 0.0, xi1, 0.0, xi2)
        eta = oracle.theta_family_minimizer(p_biv, xi1, xi2)
        worst_theta = max(worst_theta, abs(res.theta - eta))
        qstar_biv = make_bivariate(0.0, 0.0, xi1, xi2, eta, m_p)
        h_qstar_p = oracle.m_rel_entropy_quad(qstar_biv, p_biv, member_cfg)
        gaps_converged = gaps_converged and h_qstar_p.converged
        for _ in range(20):
            theta = float(rng.uniform(-0.9, 0.9))
            member = make_bivariate(0.0, 0.0, xi1, xi2, theta, m_p)
            gap = oracle.pythagorean_gap(member, qstar_biv, p_biv, member_cfg, h_qstar_p.value)
            worst_gap = max(worst_gap, abs(gap.gap))
            gaps_converged = gaps_converged and gap.converged
    dt = time.perf_counter() - t0
    converged = gaps_converged and all(r.converged for r in polar_results)
    ok = worst_theta <= 1e-5 and worst_gap <= 1e-6 and converged and dt < 120.0
    _report(4, ok, f"2 instances (m=1.15, 4/3): max |theta*-analytic| {worst_theta:.2e} "
                   f"(tol 1e-5), max Pythagorean gap {worst_gap:.2e} (tol 1e-6) over "
                   f"20 members each; {_converged_detail(polar_results)}; "
                   f"{dt:.1f}s (budget 120s)")


def test_criterion_05_rate_functional_vanishes_on_flow():
    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.8, 1.2):
        g0 = _g(q, mu=0.2)
        for h in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            g_h = _g(q, mu=0.2, sigma=evolve_sigma(1.0, h, q))
            worst = max(worst, abs(jh(g_h, g0, h)))
    # the flow solves the PDE: d/dt int x^2 rho = 2 int rho^(2-q) at t = 0.5
    gaps = [moment_identity_error(_g(q, sigma=evolve_sigma(1.0, 0.5, q))) for q in (0.8, 1.2)]
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and all(gap <= 1e-11 for gap in gaps) and dt < 30.0
    _report(5, ok, f"|J_h| on exact flow: max {worst:.2e} (tol 1e-10) over q in (0.8, 1.2), "
                   f"h in 1e-1..1e-5; x^2 moment identity at t = 0.5: gaps "
                   f"{[f'{gap:.2e}' for gap in gaps]} (tol 1e-11); {dt:.1f}s (budget 30s)")


def test_criterion_06_first_rescaling_to_transport_cost():
    t0 = time.perf_counter()
    hs = np.geomspace(1e-1, 1e-6, 11)
    details = []
    ok = True
    for q in (0.8, 1.2):
        g0 = _g(q)
        g = _g(q, mu=0.3, sigma=1.4)
        w2 = wasserstein2_sq(g, g0)
        errs = [abs(rescaled_first(g, g0, float(h)) - w2) for h in hs]
        s = _slope(hs, errs)
        tail_ok = errs[-1] < 1e-4 * w2
        ok = ok and 0.9 <= s <= 1.1 and tail_ok
        details.append(f"q={q}: slope {s:.3f}, err(1e-6)/W2^2 {errs[-1] / w2:.1e}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    _report(6, ok, f"first rescaling -> W2^2: {'; '.join(details)} "
                   f"(slope range 0.9-1.1, tail tol 1e-4); {dt:.1f}s (budget 5s)")


def test_criterion_07_second_rescaling_rate_constant():
    t0 = time.perf_counter()
    hs = np.geomspace(1e-1, 1e-6, 11)
    details = []
    ok = True
    for q in (0.8, 1.2):
        g0 = _g(q)
        g = _g(q, mu=0.3, sigma=1.4)
        ed = entropy_diff(g, g0)
        errs = np.array([abs(rescaled_second(g, g0, float(h)) - ed) for h in hs])
        ks = errs * 1.4 ** (3.0 - 2.0 * q) / hs
        spread = float(np.max(np.abs(ks / np.median(ks) - 1.0)))
        s = _slope(hs, errs)
        ok = ok and 0.9 <= s <= 1.1 and spread <= 0.2
        details.append(f"q={q}: slope {s:.3f}, K {np.median(ks):.4f} spread {spread:.1%}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    _report(7, ok, f"second rescaling linear rate: {'; '.join(details)} "
                   f"(slope 0.9-1.1, K stability +-20%); {dt:.1f}s (budget 5s)")


def test_criterion_08_third_rescaling_one_sided():
    t0 = time.perf_counter()
    q = 0.8
    g0 = _g(q)
    g = _g(q, mu=0.3, sigma=1.4)
    limit = entropy_diff(g, g0)
    hs = np.geomspace(1e-1, 1e-6, 11)
    min_gap = min(
        rescaled_third(g, g0, float(h)) - rescaled_second(g, g0, float(h)) for h in hs
    )
    rng = np.random.default_rng(20250808)
    worst_defect = -math.inf
    for _ in range(100):
        xi_sigma = float(rng.uniform(-0.3, 0.3))
        xi_mu = float(rng.uniform(-0.3, 0.3))
        for h in (1e-5, 1e-6):
            g_h = _g(q, mu=0.3 + xi_mu * math.sqrt(h), sigma=1.4 * (1.0 + xi_sigma * math.sqrt(h)))
            defect = limit - rescaled_third(g_h, g0, h)
            worst_defect = max(worst_defect, defect)
    dt = time.perf_counter() - t0
    ok = min_gap >= -1e-12 and worst_defect <= 1e-8 and dt < 30.0
    _report(8, ok, f"one-sided bound: min(third-second) {min_gap:.2e} (tol -1e-12) on the grid; "
                   f"liminf defect over 100 perturbed sequences {worst_defect:.2e} (tol 1e-8); "
                   f"{dt:.1f}s (budget 30s)")


def test_criterion_09_jko_convergence():
    t0 = time.perf_counter()
    details = []
    ok = True
    for q in (0.8, 1.2):
        g0 = _g(q)
        hs = [1e-1, 1e-2, 1e-3, 1e-4]
        errs = [abs(jko_step(g0, h).sigma - evolve_sigma(1.0, h, q)) for h in hs]
        s_single = _slope(hs, errs)
        traj_hs = [0.05, 0.025, 0.0125]
        traj_errs = []
        for h in traj_hs:
            gl = g0
            n = round(0.5 / h)
            for _ in range(n):
                gl = jko_step(gl, h)
            traj_errs.append(abs(gl.sigma - evolve_sigma(1.0, 0.5, q)))
        s_traj = _slope(traj_hs, traj_errs)
        ok = ok and s_single >= 1.8 and 0.8 <= s_traj <= 1.2
        details.append(f"q={q}: single-step slope {s_single:.2f}, trajectory slope {s_traj:.2f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report(9, ok, f"implicit step: {'; '.join(details)} (single >= 1.8, trajectory ~1); "
                   f"{dt:.1f}s (budget 30s)")


def test_criterion_10_cli_byte_determinism():
    args = [sys.executable, "-m", "qflow.cli", "gamma", "--statement", "2",
            "--q", "0.8", "--sigma0", "1.0", "--mu0", "0.0", "--mu", "0.3",
            "--sigma", "1.4", "--h-grid", "1e-1:1e-6:11", "--format", "csv"]
    one = subprocess.run(args, capture_output=True, timeout=120)
    two = subprocess.run(args, capture_output=True, timeout=120)
    ok = one.returncode == 0 and two.returncode == 0 and one.stdout == two.stdout and one.stdout
    _report(10, bool(ok), f"two identical gamma invocations: {len(one.stdout)} bytes, "
                          f"byte-identical {one.stdout == two.stdout}")
