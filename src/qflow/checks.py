"""The check table of ``qflow verify``: measure functions and their rows.

Each row is data: a name, a tolerance, a detail text, one measure function
and, for an order check, the target slope.  cli.run_checks runs the rows
and judges them; this module imports nothing from cli.  Most measures run
the quadrature oracle; cli imports this module only when verify runs, so
the table commands load neither.  The flow is checked against the PDE by
its x^2 moment identity, which holds across the compact edge: the 1D
entropy quadrature gives int rho^(2-q), and sigma_sq_gap gives the rate.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import oracle
from .functionals import (
    StepPair,
    entropy_diff,
    jh,
    jko_step,
    rescaled_first,
    rescaled_second,
    wasserstein2_sq,
)
from .pme_flow import barenblatt_density, evolve_sigma, sigma_sq_gap, theta_map_1d
from .qgaussian import QGaussian1D, m_rel_entropy_closed, make_bivariate
from .qmath import make_params, q_exp, q_log


class Check(NamedTuple):
    """One row of the check table; cli.run_checks states the pass rule."""

    name: str
    tolerance: float
    detail: str
    measure: Callable
    target: float | None = None


def _loglog_slope(hs: Sequence[float], errs: Sequence[float]) -> float:
    lh = np.log(np.asarray(hs))
    le = np.log(np.asarray(errs))
    return float(np.polyfit(lh, le, 1)[0])


def _roundtrip_errors():
    # columns q, t; rows with q next to 1 are dropped
    draws = np.random.default_rng(20240817).uniform((0.05, 0.05), (1.6, 20.0), size=(200, 2))
    for q, t in draws[np.abs(draws[:, 0] - 1.0) >= 1e-3].tolist():
        yield abs(q_exp(q_log(t, q), q) / t - 1.0)


def _product_rule_errors():
    # columns q, x, y
    draws = np.random.default_rng(20240818).uniform((0.05, 0.1, 0.1), (1.6, 5.0, 5.0), size=(200, 3))
    for q, x, y in draws.tolist():
        lhs = q_log(x * y, q)
        rhs = q_log(x, q) + x ** (1.0 - q) * q_log(y, q)
        yield abs(lhs - rhs) / max(1.0, abs(lhs))


def _constant_identity_errors():
    for q in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6):
        p = make_params(q, 1)
        lhs = p.C ** ((3.0 - q) / 2.0)
        rhs = (3.0 - q) * (2.0 - q) * p.c1_q_d * p.c0_q_d ** (1.0 - q)
        yield abs(lhs / rhs - 1.0)


_MOMENT_INSTANCES = [(0.3, 0.8), (0.8, 1.3), (1.2, 0.7), (1.5, 1.1)]


def _mass_errors():
    for q, sigma in _MOMENT_INSTANCES:
        g = QGaussian1D(mu=0.4, sigma=sigma, params=make_params(q, 1))
        yield abs(oracle.mass_quad(g).value - 1.0)


def _variance_errors():
    for q, sigma in _MOMENT_INSTANCES:
        g = QGaussian1D(mu=-0.2, sigma=sigma, params=make_params(q, 1))
        yield abs(oracle.moment2_quad(g).value / g.variance - 1.0)


def _entropy_closed_errors():
    for q, s0, s1 in [(0.8, 1.0, 1.5), (1.2, 0.7, 1.1), (0.5, 0.6, 0.9)]:
        p = make_params(q, 1)
        g0 = QGaussian1D(mu=0.3, sigma=s0, params=p)
        g1 = QGaussian1D(mu=0.3, sigma=s1, params=p)
        quad = oracle.entropy_quad(g1).value - oracle.entropy_quad(g0).value
        yield abs(quad - entropy_diff(g1, g0))


# make_bivariate arguments of the relative-entropy pairs: nested compact, heavy-tailed
MREL_PAIRS = (
    ((0.0, 0.0, 0.6, 0.5, 0.2, 0.5), (0.1, -0.05, 1.0, 0.9, -0.1, 0.5)),
    ((0.3, 0.1, 0.9, 1.1, 0.25, 4.0 / 3.0), (0.0, 0.0, 1.0, 1.0, 0.0, 4.0 / 3.0)),
)


def _mrel_closed_errors():
    for f_args, g_args in MREL_PAIRS:
        f, g = make_bivariate(*f_args), make_bivariate(*g_args)
        closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
        yield abs(oracle.m_rel_entropy_quad(f, g).value / closed - 1.0)


def _eta_residual_errors():
    # StepPair's root in eta^q / (1 - eta^2) = sigma0^q sigma^(2-q) / D,
    # with 1 - eta^2 = delta (2 - delta)
    for q in (0.5, 0.8, 1.2):
        p = make_params(q, 1)
        g0 = QGaussian1D(mu=0.0, sigma=1.0, params=p)
        g = QGaussian1D(mu=0.0, sigma=1.3, params=p)
        for h in (1e-1, 1e-4, 1e-8):
            step = StepPair(g, g0, h)
            delta = step.delta
            lhs = math.exp(q * math.log1p(-delta)) / (delta * (2.0 - delta))
            yield abs(lhs / (g0.sigma**q * g.sigma ** (2.0 - q) / step.gap) - 1.0)


def _jh_zero_errors():
    for q in (0.8, 1.2):
        p = make_params(q, 1)
        for h in (1e-1, 1e-3, 1e-5):
            g0 = QGaussian1D(mu=0.2, sigma=1.0, params=p)
            g = QGaussian1D(mu=0.2, sigma=evolve_sigma(1.0, h, q), params=p)
            yield abs(jh(g, g0, h))


def _fh_forms_errors():
    for q in (0.5, 0.8, 1.2):
        p = make_params(q, 1)
        g0 = QGaussian1D(mu=0.0, sigma=1.0, params=p)
        g = QGaussian1D(mu=0.3, sigma=1.4, params=p)
        for h in (1e-1, 1e-4, 1e-7):
            step = StepPair(g, g0, h)
            yield abs(step.f_h("q") - step.f_h("m"))


def _rescaled_slope(which: Callable[[QGaussian1D, QGaussian1D, float], float], limit_fn) -> float:
    p = make_params(0.8, 1)
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=p)
    g = QGaussian1D(mu=0.3, sigma=1.4, params=p)
    limit = limit_fn(g, g0)
    hs = [1e-2, 1e-3, 1e-4, 1e-5]
    errs = [abs(which(g, g0, h) - limit) for h in hs]
    return _loglog_slope(hs, errs)


def _jko_grid_errors():
    g0 = QGaussian1D(mu=0.5, sigma=1.0, params=make_params(0.8, 1))
    stepped = jko_step(g0, 0.05)
    yield abs(oracle.minimize_kh_grid(g0, 0.05).sigma - stepped.sigma)


def _semigroup_errors():
    for q in (0.5, 0.8, 1.2, 1.5):
        one = evolve_sigma(0.9, 0.7, q)
        two = evolve_sigma(evolve_sigma(0.9, 0.3, q), 0.4, q)
        yield abs(one / two - 1.0)


def _self_similar_errors():
    for q in (0.8, 1.2):
        p = make_params(q, 1)
        t = 0.7
        g = QGaussian1D(mu=0.0, sigma=math.sqrt(theta_map_1d(t, q)), params=p)
        for x in np.linspace(-2.0, 2.0, 41):
            yield abs(barenblatt_density(t, float(x), p) - g.density(float(x)))


def moment_identity_error(g: QGaussian1D, cfg: oracle.QuadratureConfig | None = None) -> float:
    """Relative gap of d/dt int x^2 rho = 2 int rho^(2-q) at the member g.

    The left side is C d/dt sigma^2 along the flow, a central difference of
    sigma_sq_gap over a relative step of 1e-6; the right side is
    2 (1 + (1-q) S), with S = int rho log_q rho by quadrature.  nan if the
    quadrature did not converge.
    """
    p = g.params
    q = p.q
    entropy = oracle.entropy_quad(g, cfg)
    if not entropy.converged:
        return math.nan
    h = 1e-6 * g.sigma ** (3.0 - q)
    rate = p.C * (sigma_sq_gap(g.sigma, h, q) - sigma_sq_gap(g.sigma, -h, q)) / (2.0 * h)
    return abs(rate / (2.0 * (1.0 + (1.0 - q) * entropy.value)) - 1.0)


# (q, sigma) of the moment identity: q = 0.8 and 1.2 at t = 0.5 from sigma = 1,
# then both ends of Q_1 and next to q = 1, with sigma three decades either side of 1
_IDENTITY_INSTANCES = [
    *((q, evolve_sigma(1.0, 0.5, q)) for q in (0.8, 1.2)),
    (0.05, 1e3), (0.3, 1e-3), (0.99, 1e3), (1.01, 1e-3), (1.45, 1e3), (1.66, 1e-3),
]


def _moment_identity_errors():
    for q, sigma in _IDENTITY_INSTANCES:
        yield moment_identity_error(QGaussian1D(mu=0.0, sigma=sigma, params=make_params(q, 1)))


def _flow_mass_errors():
    for q in (0.8, 1.2):
        g = QGaussian1D(mu=0.0, sigma=evolve_sigma(1.0, 0.5, q), params=make_params(q, 1))
        yield abs(oracle.mass_quad(g).value - 1.0)


_SLOPE_DETAIL = "log-log slope of |value - limit| in h, target 1"

# The check table: scope -> rows.
CHECKS: dict[str, tuple[Check, ...]] = {
    "qmath": (
        Check("qexp-qlog-roundtrip", 1e-12,
              "exp_q(log_q(t)) over {n} seeded draws", _roundtrip_errors),
        Check("qlog-product-rule", 1e-12,
              "log_q(xy) = log_q x + x^(1-q) log_q y over {n} seeded draws", _product_rule_errors),
        Check("constant-identity", 1e-10,
              "C^((3-q)/2) = (3-q)(2-q) C1 C0^(1-q) over {n} parameter sets",
              _constant_identity_errors),
    ),
    "qgaussian": (
        Check("mass-quadrature", 1e-9,
              "density mass over 4 (q, sigma) instances", _mass_errors),
        Check("variance-quadrature", 1e-7,
              "second moment = C sigma^2 over 4 (q, sigma) instances", _variance_errors),
        Check("entropy-closed-vs-quad", 1e-8,
              "1d entropy difference, closed form vs quadrature, 3 instances", _entropy_closed_errors),
        Check("mrel-closed-vs-quad", 1e-6,
              "relative m-entropy closed form vs quadrature, compact and heavy-tailed",
              _mrel_closed_errors),
    ),
    "functionals": (
        Check("eta-equation-residual", 1e-12,
              "coupling correlation equation over 9 (q, h) instances", _eta_residual_errors),
        Check("jh-zero-at-flow", 1e-10,
              "step functional vanishes on the exact evolution, 6 instances", _jh_zero_errors),
        Check("fh-two-forms", 1e-12,
              "q-form and m-form of the correction agree, 9 instances", _fh_forms_errors),
        Check("rescaled-first-order", 0.1, _SLOPE_DETAIL,
              lambda: _rescaled_slope(rescaled_first, wasserstein2_sq), target=1.0),
        Check("rescaled-second-order", 0.1, _SLOPE_DETAIL,
              lambda: _rescaled_slope(rescaled_second, entropy_diff), target=1.0),
        Check("jko-vs-grid", 1e-5,
              "implicit step agrees with brute-force grid minimizer", _jko_grid_errors),
    ),
    "pme_flow": (
        Check("semigroup-composition", 1e-12,
              "evolving 0.3 then 0.4 equals evolving 0.7, 4 exponents", _semigroup_errors),
        Check("self-similar-family-match", 1e-12,
              "source solution equals the evolving family member pointwise", _self_similar_errors),
        # worst instance 1.13e-12: q = 0.05, sigma = 1e3, where 1 + (1-q) S cancels to 1.4e-3
        Check("pde-moment-identity", 1e-11,
              "d/dt int x^2 rho = 2 int rho^(2-q) along the flow, {n} (q, sigma) instances",
              _moment_identity_errors),
        Check("flow-mass-conservation", 1e-9,
              "evolved density still integrates to 1", _flow_mass_errors),
    ),
}
