"""Exact evolution of q-Gaussians under the porous medium equation.

The flow d/dt rho = Lap(rho^(2-q)) preserves the q-Gaussian family and
acts on the shape scale alone:

    sigma_t = (t + sigma_0^(3-q))^(1/(3-q)),    mu_t = mu_0,

i.e. V(t) := sigma_t^(3-q) grows linearly at unit rate and the variance is
recovered through Theta(V) = V^(2/(3-q)).  The self-similar source-type
solution started from a point mass is

    rho(t, x) = [A - B x^2 t^(-2 alpha)]_+^(1/(1-q)) * t^(-alpha)

(d = 1 exponents; A, B, alpha from the parameter set), which coincides
with the q-Gaussian N_q(0, C t^(2 alpha)) at every t > 0.

``pde_residual`` checks the equation directly: central differences in t
(using the exact semigroup) and in x on rho^(2-q), evaluated on interior
points where the density stays above a threshold fraction of its peak, so
the compact-support edge (q < 1), where rho^(2-q) loses smoothness, is
excluded.
"""

from __future__ import annotations

import math

import numpy as np

from .qgaussian import QGaussian1D
from .qmath import DomainError, QParams, q_log

__all__ = [
    "evolve_sigma",
    "sigma_sq_gap",
    "theta_map_1d",
    "barenblatt_density",
    "pde_residual",
]


def _relative_growth(sigma0: float, h: float, q: float) -> float:
    """x = h / sigma0^(3-q), validated: sigma_h^(3-q) = sigma0^(3-q) (1 + x).

    The one source of x for the flow and the step kernels.  Raises
    DomainError for sigma0 <= 0, for h at or past extinction, and when
    sigma0^(3-q) is not a positive finite double or x is not finite.
    """
    if not sigma0 > 0.0:
        raise DomainError(f"sigma0 must be positive, got {sigma0!r}")
    try:
        v0 = sigma0 ** (3.0 - q)
    except OverflowError:
        v0 = math.inf
    if not 0.0 < v0 < math.inf:
        raise DomainError(f"sigma0^(3-q) is not a positive finite double for sigma0={sigma0!r}")
    if not h > -v0:
        raise DomainError(f"h={h!r} reaches extinction (needs h > {-v0!r})")
    x = h / v0
    if not math.isfinite(x):
        raise DomainError(f"h / sigma0^(3-q) is not finite for h={h!r}, sigma0={sigma0!r}")
    return x


def evolve_sigma(sigma0: float, h: float, q: float) -> float:
    """Scale parameter after time h: (h + sigma0^(3-q))^(1/(3-q)).

    h = 0 returns sigma0 (up to roundoff); h may not be negative past
    extinction, so h > -sigma0^(3-q) is required.
    """
    return math.exp(math.log1p(_relative_growth(sigma0, h, q)) / (3.0 - q)) * sigma0


def sigma_sq_gap(sigma0: float, h: float, q: float) -> float:
    """sigma_h^2 - sigma0^2 without cancellation.

    Computed as sigma0^2 * expm1((2/(3-q)) log1p(h / sigma0^(3-q))), which
    keeps full relative precision down to h ~ 1e-300; squaring and
    subtracting evolve_sigma would keep ~6 digits at h = 1e-10.  Raises
    DomainError where the gap exceeds the double range.
    """
    log_growth = math.log1p(_relative_growth(sigma0, h, q))
    try:
        gap = sigma0 * sigma0 * math.expm1(2.0 / (3.0 - q) * log_growth)
    except OverflowError:
        gap = math.inf
    if not math.isfinite(gap):
        raise DomainError(f"sigma_h^2 - sigma0^2 overflows for sigma0={sigma0!r}, h={h!r}")
    return gap


def theta_map_1d(v: float, q: float) -> float:
    """Variance map Theta(V) = V^(2/(3-q)) of the linear-in-time variable.

    theta_map_1d(sigma0^(3-q) + t, q) equals evolve_sigma(sigma0, t, q)^2.
    """
    if not v > 0.0:
        raise DomainError(f"theta_map_1d requires v > 0, got {v!r}")
    return v ** (2.0 / (3.0 - q))


def barenblatt_density(t: float, x: float, p: QParams) -> float:
    """Source-type solution [A - B x^2 t^(-2 alpha)]_+^(1/(1-q)) t^(-d alpha).

    For q > 1, B < 0 and the bracket is positive everywhere (heavy tails);
    for q < 1 the bracket clips to 0 outside |x| < sqrt(A/B) t^alpha.
    Requires t > 0.
    """
    if not t > 0.0:
        raise DomainError(f"barenblatt_density requires t > 0, got {t!r}")
    q = p.q
    bracket = p.A - p.B * x * x * t ** (-2.0 * p.alpha)
    if bracket <= 0.0:
        return 0.0 if q < 1.0 else math.inf
    return bracket ** (1.0 / (1.0 - q)) * t ** (-p.d * p.alpha)


_MIN_DENSITY_RATIO = 1e-3


def _density_grid(mu: float, sigma: float, p: QParams, x: np.ndarray) -> np.ndarray:
    v = p.C * sigma * sigma
    w = p.c1_q_d * (x - mu) ** 2 / (2.0 * v)
    om = 1.0 - p.q
    bracket = 1.0 - om * w
    if p.q < 1.0:
        bracket = np.maximum(bracket, 0.0)
    return p.c0_q_d / math.sqrt(v) * bracket ** (1.0 / om)


def pde_residual(g0: QGaussian1D, t: float, dx: float, dt: float) -> float:
    """Max abs residual of d/dt rho - d2/dx2 rho^(2-q) at time t.

    rho(s, .) is the exactly evolved density started from g0 at time 0;
    the time derivative is a centered difference over [t-dt, t+dt] and the
    space derivative a three-point stencil on rho^(2-q).  A stencil point
    is admitted only if all five density evaluations exceed
    _MIN_DENSITY_RATIO times the peak of rho(t, .).  Raises DomainError if
    the grid is degenerate (no admitted points, nonpositive steps, or
    t - dt <= 0).
    """
    if not (dx > 0.0 and dt > 0.0):
        raise DomainError("dx and dt must be positive")
    if not t - dt > 0.0:
        raise DomainError(f"need t - dt > 0, got t={t!r}, dt={dt!r}")
    p = g0.params
    q = p.q
    mu = g0.mu
    sig_lo = evolve_sigma(g0.sigma, t - dt, q)
    sig_c = evolve_sigma(g0.sigma, t, q)
    sig_hi = evolve_sigma(g0.sigma, t + dt, q)

    v_c = p.C * sig_c * sig_c
    peak = p.c0_q_d / math.sqrt(v_c)
    # radius where rho(t, .) falls to the threshold fraction of its peak
    w_edge = -q_log(_MIN_DENSITY_RATIO, q)
    radius = math.sqrt(2.0 * v_c * w_edge / p.c1_q_d)
    n = int(math.floor(2.0 * radius / dx))
    if n < 4:
        raise DomainError("degenerate grid: fewer than 5 interior points")
    # centered grid with one extra point on each side for the space stencil
    xs_ext = mu + (np.arange(n + 3) - (n + 2) / 2.0) * dx
    xs = xs_ext[1:-1]

    rho_lo = _density_grid(mu, sig_lo, p, xs)
    rho_hi = _density_grid(mu, sig_hi, p, xs)
    rho_c_ext = _density_grid(mu, sig_c, p, xs_ext)
    u = rho_c_ext ** (2.0 - q)

    dt_term = (rho_hi - rho_lo) / (2.0 * dt)
    dxx_term = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)

    thr = _MIN_DENSITY_RATIO * peak
    mask = (
        (rho_lo >= thr)
        & (rho_hi >= thr)
        & (rho_c_ext[1:-1] >= thr)
        & (rho_c_ext[2:] >= thr)
        & (rho_c_ext[:-2] >= thr)
    )
    if not mask.any():
        raise DomainError("degenerate grid: no admitted interior points")
    return float(np.max(np.abs(dt_term[mask] - dxx_term[mask])))
