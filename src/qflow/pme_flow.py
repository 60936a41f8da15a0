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

``qflow verify`` checks the flow against the equation through its x^2
moment identity d/dt int x^2 rho = 2 int rho^(2-q) (see qflow.checks).
"""

from __future__ import annotations

import math

from .qmath import _DBL_MIN, DomainError, QParams

__all__ = [
    "evolve_sigma",
    "sigma_sq_gap",
    "theta_map_1d",
    "barenblatt_density",
]


def _relative_growth(sigma0: float, h: float, q: float, v0: float | None = None) -> float:
    """x = h / sigma0^(3-q), validated: sigma_h^(3-q) = sigma0^(3-q) (1 + x).

    The one source of x for the flow and the step kernels.  A kernel over
    many h passes v0 = _volume(sigma0, q), formed once; otherwise
    sigma0^(3-q) is formed here.  Raises DomainError for sigma0 <= 0, for
    h at or past extinction, and when sigma0^(3-q) is not a positive
    finite double or x is not finite.
    """
    if v0 is None:
        if not sigma0 > 0.0:
            raise DomainError(f"sigma0 must be positive, got {sigma0!r}")
        try:
            v0 = sigma0 ** (3.0 - q)
        except OverflowError:
            v0 = math.inf
        if not 0.0 < v0 < math.inf:
            raise DomainError(
                f"sigma0^(3-q) is not a positive finite double for sigma0={sigma0!r}"
            )
    if not h > -v0:
        raise DomainError(f"h={h!r} reaches extinction (needs h > {-v0!r})")
    x = h / v0
    if not math.isfinite(x):
        raise DomainError(f"h / sigma0^(3-q) is not finite for h={h!r}, sigma0={sigma0!r}")
    return x


def _volume(sigma0: float, q: float) -> float:
    """sigma0^(3-q), the h-free piece of x = _relative_growth(sigma0, h, q),
    formed once by a kernel over many h.  Raises _relative_growth's
    DomainError where sigma0 or sigma0^(3-q) is not valid.
    """
    _relative_growth(sigma0, 0.0, q)
    return sigma0 ** (3.0 - q)


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
    return _gap(_relative_growth(sigma0, h, q), sigma0 * sigma0, 2.0 / (3.0 - q), sigma0, h)


def _gap(x: float, sigma0_sq: float, eps: float, sigma0: float, h: float) -> float:
    """D = sigma0_sq expm1(eps log1p(x)) with eps = 2/(3-q): sigma_sq_gap from
    its h-free pieces sigma0^2 and eps, which a kernel over many h forms once.

    Raises DomainError where D exceeds the double range.
    """
    try:
        gap = sigma0_sq * math.expm1(eps * math.log1p(x))
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
    try:
        return v ** (2.0 / (3.0 - q))
    except OverflowError:
        raise DomainError(f"theta_map_1d({v!r}, {q!r}) exceeds the double range") from None


def barenblatt_density(t: float, x: float, p: QParams) -> float:
    """Source-type solution [A - B x^2 t^(-2 alpha)]_+^(1/(1-q)) t^(-d alpha).

    For q > 1, B < 0 and the bracket is positive everywhere (heavy tails);
    for q < 1 the bracket clips to 0 outside |x| < sqrt(A/B) t^alpha.
    Requires t > 0.  Where a power of t, the bracket or the product
    overflows, or the bracket's power underflows, the value is formed in
    logs; DomainError if it exceeds the double range.
    """
    if not t > 0.0:
        raise DomainError(f"barenblatt_density requires t > 0, got {t!r}")
    try:
        bracket = p.A - p.B * x * x * t ** (-2.0 * p.alpha)
        if bracket <= 0.0:
            return 0.0
        power = bracket ** (1.0 / (1.0 - p.q))
        if power >= _DBL_MIN:
            value = power * t ** (-p.d * p.alpha)
            if value < math.inf:
                return value
    except OverflowError:
        pass
    return _barenblatt_in_logs(t, x, p)


def _barenblatt_in_logs(t: float, x: float, p: QParams) -> float:
    # the bracket is A (1 - r) with r = (B/A) x^2 t^(-2 alpha), formed from log r
    log_t = math.log(t)
    log_w = 2.0 * (math.log(abs(x)) - p.alpha * log_t) if x else -math.inf
    try:
        r = p.B / p.A * math.exp(log_w)
    except OverflowError:
        r = math.copysign(math.inf, p.B)
    if r >= 1.0:
        return 0.0
    # where r overflows (q > 1), the bracket is |B| w to rounding
    log_bracket = math.log(-p.B) + log_w if r == -math.inf else math.log(p.A) + math.log1p(-r)
    try:
        return math.exp(log_bracket / (1.0 - p.q) - p.d * p.alpha * log_t)
    except OverflowError:
        raise DomainError(f"barenblatt_density({t!r}, {x!r}) exceeds the double range") from None
