"""Quadrature and grid-search oracles, independent of the closed forms.

Everything here evaluates densities pointwise and integrates or searches
numerically, so the closed-form entropies, couplings and minimizers in the
rest of the package can be cross-checked against a path that shares no
algebra with them.

One-dimensional integrals use adaptive Gauss-Kronrod (scipy.integrate.quad)
on two half-lines from the mean, in units of the member's scale.  Domain
policy:

* compact 1d supports (q < 1): each half-line ends at the support edge;
* one-dimensional heavy tails (q > 1): each half-line runs to infinity
  untruncated, through QUADPACK's own infinite-interval map;
* every bivariate integral goes through one polar rule whose frame comes
  from the members alone: centred at the first member's mean, whitened by
  the Cholesky factor of the members' average scale matrix.  Periodic
  trapezoid in angle, tanh-sinh in radius: the radial nodes and weights
  are the library's own tables (qflow._tanhsinh), run on
  scipy.integrate.tanhsinh's schedule (levels 4 to 10, Bailey's error
  estimate), all rays of a block of angles in one array.  Heavy tails
  (m > 1) run each ray to infinity untruncated (near m = 3/2 an envelope
  radius for any useful bound overflows); compact supports (m < 1) split
  each ray where it crosses a support ellipse, so non-nested supports
  stay exact.

Each result records the policy applied in its note.

The grid searches are deterministic (no randomness): minimize_kh_grid uses
nested refinement, minimize_theta uses a coarse grid + bounded Brent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
# scipy.optimize before scipy.integrate: scipy imports measurably faster in this order
from scipy.optimize import brentq, minimize_scalar
from scipy.integrate import quad

from .functionals import coefficients
from .qgaussian import MBivariate, QGaussian1D
from .qmath import DomainError, q_log

__all__ = [
    "QuadratureConfig",
    "QuadResult",
    "mass_quad",
    "moment2_quad",
    "entropy_quad",
    "entropy_quad_2d",
    "m_rel_entropy_quad",
    "ThetaMin",
    "minimize_theta",
    "theta_family_minimizer",
    "PythagoreanGap",
    "pythagorean_gap",
    "KhGrid",
    "minimize_kh_grid",
    "support_included",
]

@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the quadrature oracle.

    max_subdivisions caps the subintervals of quad on each 1d half-line and
    the blocks of angles the polar rule may evaluate in 2d.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 200


class QuadResult(NamedTuple):
    """Integral value with the adaptive error estimate.

    converged is False when the budget ran out before the requested
    tolerance or a radial solve failed; note carries the domain policy
    applied (the 1d half-lines, or the polar rule with its final angle
    count and centre) and any quadrature message.
    """

    value: float
    error_estimate: float
    converged: bool
    note: str


def _line_quad(
    integrand: Callable[[float, float], float],
    g: QGaussian1D,
    cfg: QuadratureConfig | None,
    magnitude: float = 1.0,
) -> QuadResult:
    """Integral over the real line of integrand(d, f), f = g's density at mu + d.

    Two half-lines from the mean, d = +-scale u, with u from 0 to the
    support edge (q < 1) or to +inf untruncated (q > 1, QUADPACK's own
    infinite-interval map).  The density is read at the offset d from a
    centred copy of g, so a scale far below the resolution of mu stays
    exact.  The absolute tolerance is relative to magnitude, the size of
    the integral (g.variance for the second moment), and rescaled to the u
    units, so a tiny or huge integral keeps its relative accuracy.
    """
    cfg = cfg or QuadratureConfig()
    centred = replace(g, mu=0.0)
    edge = centred.support().hi / g.scale
    policy = "to the support edge" if edge < math.inf else "untruncated"
    notes = [f"two half-lines from the mean, {policy}"]
    value = err = 0.0
    converged = True
    for step in (g.scale, -g.scale):
        out = quad(lambda u: integrand(step * u, centred.density(step * u)), 0.0, edge,
                   epsabs=cfg.abs_tol * magnitude / g.scale, epsrel=cfg.rel_tol,
                   limit=cfg.max_subdivisions, full_output=True)
        value, err = value + out[0], err + out[1]
        if len(out) > 3:
            converged = False
            notes.append(str(out[3]).strip().replace("\n", " "))
    return QuadResult(g.scale * value, g.scale * err, converged, "; ".join(notes))


def mass_quad(g: QGaussian1D, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Total mass of the density by quadrature (should be 1)."""
    return _line_quad(lambda d, f: f, g, cfg)


def moment2_quad(g: QGaussian1D, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Second moment about the mean by quadrature (should be C sigma^2)."""
    return _line_quad(lambda d, f: d * d * f, g, cfg, g.variance)


def entropy_quad(g: QGaussian1D, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Tsallis entropy integral f log_q f of a 1d member, by quadrature."""
    return _line_quad(lambda d, f: f * q_log(f, g.params.q) if f > 0.0 else 0.0, g, cfg)


# Angles per block of rays: bounds the size of the radial rule's arrays.
_ANGLE_BLOCK = 64
# Angle count of the coarsest periodic trapezoid rule.
_MIN_ANGLES = 16


def _polar_quad(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    members: Sequence[MBivariate],
    cfg: QuadratureConfig,
) -> QuadResult:
    """Integral of a vectorized integrand over the plane, in polar form.

    The frame comes from the members alone: z = c + r L (cos phi, sin phi),
    Jacobian det(L) r, with c the first member's mean and L the Cholesky
    factor of the members' average scale matrix.  Balancing the frame keeps
    every member near isotropic in it, which keeps the angular integrand's
    strip of analyticity wide.  In phi: the periodic trapezoid rule
    (Trefethen and Weideman, SIAM Rev. 56, 2014), doubling on nested nodes
    until two totals agree within max(abs_tol, rel_tol |I|), up to
    max_subdivisions blocks of angles.  In r: tanh-sinh (Takahasi and Mori,
    1974) on the library's own nodes with scipy.integrate.tanhsinh's
    schedule (qflow._tanhsinh), one call per block of angles, each ray split
    where it crosses the support ellipse of a compact member and ended at
    the last crossing; heavy-tailed rays run to inf.
    """
    # imported at the first polar integral; see that module's docstring
    from . import _tanhsinh

    cx, cy = members[0].mean
    chol = np.linalg.cholesky(sum(nu.cov for nu in members) / len(members))
    det = chol[0, 0] * chol[1, 1]
    compact = [nu for nu in members if math.isfinite(nu.support_threshold())]

    def ray(r, vx, vy):
        return integrand(cx + r * vx, cy + r * vy) * (det * r)

    def sweep(phis: np.ndarray) -> tuple[float, float, bool]:
        """Sums of the radial integrals and their errors over the rays at phis."""
        total = err = 0.0
        ok = True
        for block in np.split(phis, range(_ANGLE_BLOCK, len(phis), _ANGLE_BLOCK)):
            vx, vy = chol @ np.stack([np.cos(block), np.sin(block)])
            lo, hi = np.zeros_like(vx), np.full_like(vx, math.inf)
            if compact:
                ends = [lo]
                for nu in compact:
                    # Q(c + r v) = a r^2 + 2 b r + q0 meets the support threshold
                    q0 = nu.quadratic_form(cx, cy)
                    qp = nu.quadratic_form(cx + vx, cy + vy)
                    qm = nu.quadratic_form(cx - vx, cy - vy)
                    a, b = 0.5 * (qp + qm) - q0, 0.25 * (qp - qm)
                    disc = np.sqrt(np.maximum(b * b - a * (q0 - nu.support_threshold()), 0.0))
                    ends += [np.maximum((-b - disc) / a, 0.0), np.maximum((-b + disc) / a, 0.0)]
                cuts = np.sort(np.stack(ends, axis=-1), axis=-1)
                lo, hi = cuts[:, :-1], cuts[:, 1:]
            # only the pieces of positive length are integrated; the others hold 0,
            # so a block sums the same array, in the same order, as scipy's tanhsinh
            live = lo < hi
            at = np.nonzero(live)[0]
            integral, error = np.zeros(live.shape), np.zeros(live.shape)
            integral[live], error[live], success = _tanhsinh.tanhsinh(
                ray, lo[live], hi[live], (vx[at], vy[at]), cfg.rel_tol, cfg.abs_tol)
            total, err = total + float(integral.sum()), err + float(error.sum())
            ok = ok and bool(success.all())
        return total, err, ok

    n, step = _MIN_ANGLES, 2.0 * math.pi / _MIN_ANGLES
    total, radial_err, converged = sweep(step * np.arange(n))
    value, angle_err = step * total, math.inf
    while 2 * n <= _ANGLE_BLOCK * cfg.max_subdivisions:
        # the refined rule adds the midpoints and keeps every earlier node
        more, more_err, ok = sweep(step * (np.arange(n) + 0.5))
        total, radial_err, converged = total + more, radial_err + more_err, converged and ok
        n, step = 2 * n, 0.5 * step
        angle_err, value = abs(step * total - value), step * total
        if angle_err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            break
    else:
        converged = False
    note = f"polar trapezoid x tanh-sinh rule, {n} angles, centre ({cx:.6g}, {cy:.6g})"
    return QuadResult(value, angle_err + step * radial_err, converged, note)


def _xlogm(a: np.ndarray, b: np.ndarray, m: float) -> np.ndarray:
    """a log_m b elementwise, 0 where a = 0.  For m > 1 a density is 0 (or
    nan) only where it underflowed far out in the tail, where the limit is 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = a * np.expm1((1.0 - m) * np.log(b)) / (1.0 - m)
    return np.where((a > 0.0) & ((b > 0.0) | (m < 1.0)), val, 0.0)


def entropy_quad_2d(nu: MBivariate, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Entropy integral f log_m f of a bivariate member, by quadrature.

    The polar rule's frame is the member's own, so the integrand is radial.
    """
    cfg = cfg or QuadratureConfig()

    def integrand(x, y):
        fv = nu.density(x, y)
        return _xlogm(fv, fv, nu.m)

    return _polar_quad(integrand, [nu], cfg)


def m_rel_entropy_quad(
    f_biv: MBivariate,
    g_biv: MBivariate,
    cfg: QuadratureConfig | None = None,
    form: str = "second",
) -> QuadResult:
    """Relative m-entropy H_m(f || g) of two bivariates, by quadrature.

    form selects between the two pointwise-identical integrand
    arrangements

        (1/(2-m)) [f log_m f - g log_m g - (2-m) log_m(g) (f - g)],
        (1/(2-m)) [f log_m f + (1-m) g log_m g - (2-m) f log_m g],

    which share no cancellation pattern and therefore cross-check each
    other.  The polar rule is centred at f's mean (inside both supports
    when supp f lies inside supp g) and whitened by the average of f's and
    g's scale matrices.  For m < 1 this is the honest integral even when
    the supports are not nested (the closed form then differs).
    """
    cfg = cfg or QuadratureConfig()
    if f_biv.m != g_biv.m:
        raise DomainError("relative entropy needs a common exponent m")
    if form not in ("first", "second"):
        raise ValueError(f"form must be 'first' or 'second', got {form!r}")
    m = f_biv.m

    def integrand(x, y):
        fv, gv = f_biv.density(x, y), g_biv.density(x, y)
        glg = _xlogm(gv, gv, m)
        if form == "first":
            t = _xlogm(fv, fv, m) - glg - (2.0 - m) * (_xlogm(fv, gv, m) - glg)
        else:
            t = _xlogm(fv, fv, m) + (1.0 - m) * glg - (2.0 - m) * _xlogm(fv, gv, m)
        return t / (2.0 - m)

    return _polar_quad(integrand, [f_biv, g_biv], cfg)


class ThetaMin(NamedTuple):
    """Minimizer and minimum; converged is False when any quadrature the
    search evaluated did not converge."""

    theta: float
    value: float
    converged: bool


def minimize_theta(p_biv: MBivariate, nu1: float, xi1: float, nu2: float, xi2: float) -> ThetaMin:
    """Minimize theta -> H_m(N_m(nu1, xi1^2, nu2, xi2^2, theta) || P) by
    grid search and bounded Brent.

    The search runs in t = atanh(theta): minimizers cluster near |theta|
    = 1 (the reference coupling's own correlation approaches 1 as the step
    size shrinks), where a uniform theta grid has no resolution.  A 17-point
    grid on |theta| <= 0.9995 brackets the argmin; when it sits at a grid
    end, that side alone is extended a grid step at a time until the
    objective turns up again.  scipy's bounded Brent then resolves the
    vertex to 1e-5 in t (and therefore in theta) within one grid step of
    the best point.  Raises DomainError when the objective is flat over the
    grid (degenerate family) or the walk reaches a correlation that rounds
    to +-1.
    """
    converged = True

    def obj(t: float) -> float:
        nonlocal converged
        qv = MBivariate(nu1, nu2, xi1, xi2, math.tanh(t), p_biv.mparams)
        res = m_rel_entropy_quad(qv, p_biv)
        converged = converged and res.converged
        return res.value

    t_max = math.atanh(0.9995)
    grid = np.linspace(-t_max, t_max, 17)
    vals = [obj(float(t)) for t in grid]
    if max(vals) - min(vals) < 1e-13:
        raise DomainError("flat objective over the correlation grid")
    i = int(np.argmin(vals))
    t, f, dt = float(grid[i]), vals[i], float(grid[1] - grid[0])
    step = dt if i else -dt
    # an argmin at a grid end walks outward on that side alone until the
    # objective turns up; MBivariate raises DomainError once tanh rounds to 1
    while i in (0, len(grid) - 1) and (f_out := obj(t + step)) < f:
        t, f = t + step, f_out
    res = minimize_scalar(obj, bounds=(t - dt, t + dt), method="bounded", options={"xatol": 1e-5})
    return ThetaMin(theta=math.tanh(res.x), value=float(res.fun), converged=converged)


def theta_family_minimizer(p_biv: MBivariate, xi1: float, xi2: float) -> float:
    """Analytic minimizer over the theta-family with scales xi1, xi2.

    Solves s(eta) = s(theta_P) (xi1 xi2 / (s1 s2))^(2-m) with
    s(e) = e (1 - e^2)^(-(3-m)/2), the stationarity condition of the
    objective minimized by minimize_theta.
    """
    m = p_biv.m
    kappa = (3.0 - m) / 2.0

    def s(e: float) -> float:
        return e * (1.0 - e * e) ** (-kappa)

    rhs = s(p_biv.theta) * (xi1 * xi2 / (p_biv.s1 * p_biv.s2)) ** (2.0 - m)
    if rhs == 0.0:
        return 0.0
    sign = 1.0 if rhs > 0.0 else -1.0
    target = math.log(abs(rhs))
    root = brentq(
        lambda e: math.log(s(e)) - target,
        1e-15,
        1.0 - 1e-15,
        xtol=1e-300,
        rtol=8.881784197001252e-16,
        maxiter=300,
    )
    return sign * root


class PythagoreanGap(NamedTuple):
    gap: float
    h_q_p: float
    h_q_qstar: float
    h_qstar_p: float
    converged: bool


def pythagorean_gap(
    q_biv: MBivariate,
    qstar_biv: MBivariate,
    p_biv: MBivariate,
    cfg: QuadratureConfig | None = None,
    h_qstar_p: float | None = None,
) -> PythagoreanGap:
    """H(Q||P) - H(Q||Q*) - H(Q*||P), each term by quadrature.

    h_qstar_p caches the member-independent term across a family sweep.
    converged is the AND of the flags of the quadratures run here, so a
    cached term's own flag is the caller's to check.
    """
    cfg = cfg or QuadratureConfig()
    runs = [m_rel_entropy_quad(q_biv, p_biv, cfg), m_rel_entropy_quad(q_biv, qstar_biv, cfg)]
    if h_qstar_p is None:
        runs.append(m_rel_entropy_quad(qstar_biv, p_biv, cfg))
        h_qstar_p = runs[2].value
    h_q_p, h_q_qstar = runs[0].value, runs[1].value
    return PythagoreanGap(
        gap=h_q_p - h_q_qstar - h_qstar_p,
        h_q_p=h_q_p,
        h_q_qstar=h_q_qstar,
        h_qstar_p=h_qstar_p,
        converged=all(r.converged for r in runs),
    )


class KhGrid(NamedTuple):
    mu: float
    sigma: float
    value: float
    mu_resolution: float
    sigma_resolution: float


def minimize_kh_grid(g0: QGaussian1D, h: float) -> KhGrid:
    """Minimize K_h(. | g0) over (mu, sigma) by nested grid refinement.

    Deterministic: each of 3 rounds re-grids a window of +-2 cells (101
    points per axis) around the running argmin.  The returned resolutions
    are the final grid steps.
    """
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h!r}")
    p = g0.params
    q = p.q
    big_c = p.C
    sigma0 = g0.sigma
    mu0 = g0.mu
    b = coefficients(q, sigma0).b
    bc = b * big_c

    step = h * b / sigma0
    w_sigma = max(0.05 * sigma0, 5.0 * step)
    w_mu = max(0.05 * sigma0, 5.0 * step)
    mu_lo, mu_hi = mu0 - w_mu, mu0 + w_mu
    sig_lo, sig_hi = max(1e-3 * sigma0, sigma0 - w_sigma), sigma0 + w_sigma

    best = (mu0, sigma0, 0.0)
    dmu = dsig = 0.0
    for _ in range(3):
        mus = np.linspace(mu_lo, mu_hi, 101)
        sigs = np.linspace(sig_lo, sig_hi, 101)
        mm, ss = np.meshgrid(mus, sigs, indexing="ij")
        w2 = big_c * (ss - sigma0) ** 2 + (mm - mu0) ** 2
        ent = bc * ((sigma0 / ss) ** (1.0 - q) - 1.0) / (1.0 - q)
        vals = w2 / (4.0 * h) + 0.5 * ent
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        dmu = mus[1] - mus[0]
        dsig = sigs[1] - sigs[0]
        best = (float(mus[i]), float(sigs[j]), float(vals[i, j]))
        mu_lo, mu_hi = best[0] - 2.0 * dmu, best[0] + 2.0 * dmu
        sig_lo, sig_hi = max(1e-3 * sigma0, best[1] - 2.0 * dsig), best[1] + 2.0 * dsig
    return KhGrid(
        mu=best[0],
        sigma=best[1],
        value=best[2],
        mu_resolution=dmu,
        sigma_resolution=dsig,
    )


def support_included(inner: MBivariate, outer: MBivariate, margin: float = 0.0) -> bool:
    """True when the support ellipse of inner lies inside outer's.

    Sweeps 720 points of the boundary of inner (exact parametrization via
    Cholesky) and requires outer's quadratic form to stay below its
    threshold by the given relative margin.  Both exponents must be < 1.
    """
    thr_i = inner.support_threshold()
    thr_o = outer.support_threshold()
    if not (math.isfinite(thr_i) and math.isfinite(thr_o)):
        raise DomainError("support_included needs compactly supported members (m < 1)")
    chol = np.linalg.cholesky(inner.cov)
    phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    circle = np.stack([np.cos(phis), np.sin(phis)])
    boundary = inner.mean[:, None] + math.sqrt(thr_i) * (chol @ circle)
    return bool(np.all(outer.quadratic_form(*boundary) < thr_o * (1.0 - margin)))
