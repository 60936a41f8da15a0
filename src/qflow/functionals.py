"""Transport cost, entropies, minimizing-movement functionals, and the
small-step expansion of the rate functional on the q-Gaussian family.

For two members N_q(mu, C sigma^2), N_q(mu0, C sigma0^2) of the family the
squared Wasserstein distance and the Tsallis entropy difference are closed
forms:

    W2^2 = C (sigma - sigma0)^2 + (mu - mu0)^2,
    E_q(N) - E_q(N_0) = b C log_q(sigma0 / sigma),

with b = b(sigma0, q) the entropy coefficient below.  The implicit-step
functional is

    K_h(N | N_0) = W2^2 / (4h) + (E_q(N) - E_q(N_0)) / 2,

minimized by jko_step: one Newton descent onto the root of its
stationarity equation, written in the logarithm of the relative scale
increment, where it is increasing and convex.  The rate-like functional
J_h is the relative m-entropy (m = 3 - 2/q) of the optimal pair coupling
Q* against the flow coupling Q_{0->h}; its value reduces to the scalar
root eta_h of

    eta^q / (1 - eta^2) = sigma0^q sigma^(2-q) / (sigma_h^2 - sigma0^2),

solved here for delta = 1 - eta (the root sits near 1 as h -> 0, where eta
itself cannot hold relative precision): the same kind of Newton descent,
in w = log eta, where the equation is also increasing and convex, started
at the least of three closed-form upper bounds on the root and read out
as delta = -expm1(w), with one final step on the direct form for delta <
1/2 (at most 8 evaluations; see _solve_eta_gap).  The closed forms need
no scipy.  The three rescalings of J_h obey exact algebraic reductions

    a D^(1/q) J_h                    = W2^2 + C D F_h,
    a b D^((1-q)/q) J_h - b/D W2^2   = b C F_h,
    a b D^((1-q)/q) J_h - W2^2/(2h)  = b C F_h + (b/D - 1/(2h)) W2^2,

with D = sigma_h^2 - sigma0^2 and F_h the bounded correction

    F_h = 2 eta^q / (1 + eta) (sigma0/sigma)^(1-q)
          + q log_q(sigma0 / (sigma eta)) - 1   -->   log_q(sigma0/sigma),

used as the computation paths: they stay conditioned uniformly in h while
the defining expressions lose all digits below h ~ 1e-8.  StepPair(g, g0,
h) computes D, delta, the q-form of F_h and b once; J_h, F_h, the
optimal coupling and the three rescalings all read those numbers from
it.  The coefficients

    a = 2 C^(2-m) / C1(m,2) * (C0(m,2)/sigma0)^(m-1),
    b = (2-q) C1(q,1) / C^((3-q)/2) * (C0(q,1)/sigma0)^(1-q)

satisfy (3-q) b sigma0^(1-q) = 1 identically, with a -> 4 and b -> 1/2 as
q -> 1; every reader of b evaluates it from the member's own parameter
set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .pme_flow import _log_growth, evolve_sigma, sigma_sq_gap
from .qgaussian import MBivariate, QGaussian1D, make_bivariate
from .qmath import DomainError, QParams, c0_const, c1_const, make_params, q_log

__all__ = [
    "EtaSolve",
    "GammaCoefficients",
    "StepPair",
    "wasserstein2_sq",
    "entropy_diff",
    "kh",
    "solve_eta",
    "q0h",
    "qstar",
    "jh",
    "coefficients",
    "f_h",
    "f_limit",
    "rescaled_first",
    "rescaled_second",
    "rescaled_third",
    "jko_step",
]

# jko_step and the eta solve need at most 9 evaluations over the documented
# domain; the cap stops a defect
_NEWTON_MAXITER = 64
# a Newton step below 2^-27 |w| leaves an error of the order of its square, 2^-54 w^2
_W_STEP = 2.0**-27
# below w = -53 log 2, eta < 2^-53 and delta = 1 - eta no longer resolves eta; such a
# root is rejected
_W_MIN = -53.0 * math.log(2.0)
_DBL_MIN = sys.float_info.min
_LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EtaSolve:
    """Root of the correlation equation.

    one_minus_eta carries the full relative precision of the solve (eta is
    provided for convenience but flattens to 1.0 - one_minus_eta);
    residual is the relative residual of the defining equation at the
    root; iterations counts the evaluations of the solve.
    """

    eta: float
    one_minus_eta: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class GammaCoefficients:
    """Rescaling coefficients a, b for a given base scale sigma0."""

    a: float
    b: float
    sigma0: float
    q: float


def _require_same_family(g: QGaussian1D, g0: QGaussian1D) -> None:
    if g.params != g0.params:
        raise DomainError("both densities must share one parameter set")


def _require_h(h: float) -> None:
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h!r}")


def wasserstein2_sq(g1: QGaussian1D, g2: QGaussian1D) -> float:
    """Squared 2-Wasserstein distance C (sigma1-sigma2)^2 + (mu1-mu2)^2.

    Raises DomainError where it exceeds the double range.
    """
    _require_same_family(g1, g2)
    ds = g1.sigma - g2.sigma
    dm = g1.mu - g2.mu
    w2 = g1.params.C * (ds * ds) + dm * dm
    if w2 == math.inf:
        raise DomainError(f"W2^2 exceeds the double range for sigma={g1.sigma!r}, mu={g1.mu!r}")
    return w2


def _entropy_b(p: QParams, sigma0: float) -> float:
    """Entropy coefficient b(sigma0, q) of the parameter set p.

    Computed from the printed constant formula (not from the algebraic
    shortcut b = sigma0^(q-1)/(3-q), which the identity tests compare
    against).
    """
    q = p.q
    return (2.0 - q) * p.c1_q_d / p.C ** ((3.0 - q) / 2.0) * (p.c0_q_d / sigma0) ** (1.0 - q)


def coefficients(q: float, sigma0: float) -> GammaCoefficients:
    """Evaluate the rescaling coefficients a(q, sigma0) and b(sigma0, q).

    b comes from _entropy_b.  The conjugate constants C1(m,2), C0(m,2)
    behind a are evaluated at m = 3 - 2/q and exist for every m < 3/2
    (m <= 0 included); for q >= 4/3, where m reaches 3/2 and the bivariate
    normalization blows up, a is nan, while b (a purely one-dimensional
    quantity) stays valid on all of Q_1.
    """
    p = make_params(q, 1)
    if not sigma0 > 0.0:
        raise DomainError(f"sigma0 must be positive, got {sigma0!r}")
    m = p.m
    if m < 1.5:
        c1m = c1_const(m, 2)
        c0m = c0_const(m, 2)
        a = 2.0 * p.C ** (2.0 - m) / c1m * (c0m / sigma0) ** (m - 1.0)
    else:
        a = math.nan
    return GammaCoefficients(a=a, b=_entropy_b(p, sigma0), sigma0=sigma0, q=q)


def entropy_diff(g: QGaussian1D, g0: QGaussian1D) -> float:
    """Tsallis entropy difference E_q(g) - E_q(g0) = b C log_q(sigma0/sigma).

    Exactly 0.0 at sigma == sigma0 (log_q(1) evaluates to 0 exactly).
    """
    _require_same_family(g, g0)
    b = _entropy_b(g.params, g0.sigma)
    return b * g.params.C * q_log(g0.sigma / g.sigma, g.params.q)


def kh(g: QGaussian1D, g0: QGaussian1D, h: float) -> float:
    """Implicit-step functional W2^2/(4h) + (E_q(g) - E_q(g0))/2."""
    _require_h(h)
    return wasserstein2_sq(g, g0) / (4.0 * h) + 0.5 * entropy_diff(g, g0)


def _solve_eta_gap(sigma: float, sigma0: float, gap: float, q: float) -> tuple[float, float, int]:
    """Root delta = 1 - eta of eta^q/(1-eta^2) = rhs = sigma0^q sigma^(2-q)/gap.

    Returns delta, rhs and the number of evaluations.  Newton's method
    solves H(w) = q w - log(1 - e^(2w)) - log rhs = 0 for w = log eta < 0.
    H increases strictly, with H' = q + 2e^(2w)/(1 - e^(2w)) > 0, and it is
    convex, with H'' = 4e^(2w)/(1 - e^(2w))^2 > 0.  So the iterates started
    at or above the root fall monotonically onto it.  The start is the
    least of three closed-form upper bounds on the root:

    - max(-1/2, -e^(-q/2)/(2 rhs)), always, because 1 - e^(2w) <= -2w
      (above q = 2, -min(s, e^(-q s/2)/rhs)/2 with s = 2/q, which stays
      off w = 0 for large q);
    - (log rhs)/q when rhs < 1, because -log(1 - e^(2w)) >= 0;
    - log(x)/2 with x = log rhs + 53 q log 2 when x lies in (0, 1),
      because -log(1 - x) >= x.

    log(1 - e^(2w)) is formed as log1p(-e^(2w)) where e^(2w) < 1/2, which
    keeps the relative precision of its small values as q -> 0, and as
    log(-expm1(2w)) next to w = 0.  The descent stops at a step below
    2^-27 |w|, which it applies (its square is below the resolution of w),
    at the first iterate that does not decrease, where roundoff has taken
    over, or below w = -53 log 2; delta = -expm1(w).  For delta < 1/2 the
    rounding of log rhs and of log(1 - e^(2w)) (about |log delta| eps)
    would show in delta, so one Newton step on the direct form
    rhs delta (2-delta) / (1-delta)^q = 1, which carries only relative
    roundings, polishes it.

    The solve takes at most 7 evaluations, the polishing one included,
    over 200k random draws of sigma0 in [1e-3, 1e3], sigma/sigma0 in
    [0.1, 10] and h/sigma0^(3-q) in [1e-12, 1e2] over Q_1, at most 8 on
    a dense sweep of log rhs over [-700, 700] for q from 0.01 to 5/3, and
    at most 7 on the same sweep for q from 1e-3 down to 5e-324.  Against
    the 50-digit root for the same rhs, delta is within 3.4e-16 relative
    over 3k random draws.  Reaching _NEWTON_MAXITER raises RuntimeError.

    rhs is formed directly where its powers and quotient are normal
    doubles, and in logs where one of them is not.  A right-hand side
    outside the normal double range, a root below w = -53 log 2 (eta <
    2^-53, which delta = 1 - eta no longer resolves) and a delta below the
    normal range raise DomainError.
    """
    if not (sigma > 0.0 and sigma0 > 0.0):
        raise DomainError("sigma and sigma0 must be positive")
    if not gap > 0.0:
        raise DomainError(f"variance gap must be positive, got {gap!r}")
    if not q > 0.0:
        raise DomainError(f"q must be positive, got {q!r}")
    try:
        pow0, pow1 = sigma0**q, sigma ** (2.0 - q)
    except OverflowError:
        pow0 = pow1 = 0.0
    num = pow0 * pow1
    rhs = num / gap
    if pow0 >= _DBL_MIN and pow1 >= _DBL_MIN and num >= _DBL_MIN and _DBL_MIN <= rhs < math.inf:
        log_rhs = math.log(rhs)
    else:
        log_rhs = q * math.log(sigma0) + (2.0 - q) * math.log(sigma) - math.log(gap)
        rhs = math.exp(log_rhs) if log_rhs < _LOG_DBL_MAX else math.inf
        if not _DBL_MIN <= rhs < math.inf:
            raise DomainError(
                f"coupling equation leaves the double range for sigma={sigma!r}, gap={gap!r}"
            )

    s = min(1.0, 2.0 / q)
    w = -0.5 * min(s, math.exp(-0.5 * q * s) / rhs)
    if rhs < 1.0:
        w = min(w, log_rhs / q)
    x = log_rhs - _W_MIN * q
    if 0.0 < x < 1.0:
        w = min(w, 0.5 * math.log(x))
    evals = 0
    while w >= _W_MIN:
        if evals >= _NEWTON_MAXITER:
            raise RuntimeError(f"eta solve: no Newton convergence for q={q!r}, rhs={rhs!r}")
        evals += 1
        e = math.exp(2.0 * w)
        om = -math.expm1(2.0 * w)
        step = (log_rhs - q * w + (math.log1p(-e) if e < 0.5 else math.log(om))) / (
            q + 2.0 * e / om
        )
        if abs(step) <= -_W_STEP * w:
            w += step
            break
        if not step < 0.0:
            break
        w += step

    delta = -math.expm1(w)
    if not (w >= _W_MIN and _DBL_MIN <= delta < 1.0):
        raise DomainError(
            f"eta or 1 - eta is below double resolution for sigma={sigma!r}, "
            f"sigma0={sigma0!r}, gap={gap!r}"
        )
    if delta < 0.5:
        ratio = rhs * delta * (2.0 - delta) / math.exp(q * math.log1p(-delta))
        slope = 2.0 * (1.0 - delta) / (2.0 - delta) + q * delta / (1.0 - delta)
        delta -= delta * (ratio - 1.0) / slope
        evals += 1
    return delta, rhs, evals


def solve_eta(sigma: float, sigma0: float, sigma_h: float, q: float) -> EtaSolve:
    """Correlation of the optimal pair coupling, from an explicit sigma_h.

    Requires sigma_h > sigma0 > 0.  The variance gap is formed as the
    product (sigma_h - sigma0)(sigma_h + sigma0); when sigma_h comes from a
    step size h, prefer StepPair, whose expm1 gap does not lose digits to
    the subtraction.
    """
    if not sigma_h > sigma0:
        raise DomainError(f"need sigma_h > sigma0, got {sigma_h!r} <= {sigma0!r}")
    gap = (sigma_h - sigma0) * (sigma_h + sigma0)
    delta, rhs, evals = _solve_eta_gap(sigma, sigma0, gap, q)
    lhs = math.exp(q * math.log1p(-delta)) / (delta * (2.0 - delta))
    return EtaSolve(
        eta=1.0 - delta, one_minus_eta=delta, residual=lhs / rhs - 1.0, iterations=evals
    )


def q0h(g0: QGaussian1D, h: float) -> MBivariate:
    """Pair coupling of g0 with its time-h evolution.

    N_m(mu0, C sigma0^2, mu0, C sigma_h^2, theta_h) with theta_h =
    sigma0/sigma_h and m = 3 - 2/q; raises OutsideVerifiedRangeError when
    m is outside the bivariate range (q outside (2/3, 4/3)).
    """
    _require_h(h)
    p = g0.params
    sigma_h = evolve_sigma(g0.sigma, h, p.q)
    root_c = math.sqrt(p.C)
    return make_bivariate(
        g0.mu, g0.mu, root_c * g0.sigma, root_c * sigma_h, g0.sigma / sigma_h, p.m
    )


def _f_h_from_delta(delta: float, sigma: float, sigma0: float, q: float) -> float:
    """F_h in the q-form, given delta = 1 - eta_h."""
    eta_pow_q = math.exp(q * math.log1p(-delta))
    ratio_pow = math.exp((1.0 - q) * math.log(sigma0 / sigma))
    t1 = 2.0 * eta_pow_q / (2.0 - delta) * ratio_pow
    ell = math.log(sigma0 / sigma) - math.log1p(-delta)
    t2 = q * math.expm1((1.0 - q) * ell) / (1.0 - q)
    return t1 + t2 - 1.0


def _f_h_from_delta_mform(
    delta: float, sigma: float, sigma0: float, gap: float, m: float
) -> float:
    """F_h in the raw m-form: 2 sigma0 sigma (1-eta)/D + 2 log_m(.) - 1."""
    t1 = 2.0 * sigma0 * sigma * delta / gap
    ell = math.log(sigma0 / sigma) - math.log1p(-delta)
    t2 = 2.0 * math.expm1((1.0 - m) * ell / (3.0 - m)) / (1.0 - m)
    return t1 + t2 - 1.0


def _third_gap_coeff(sigma0: float, h: float, q: float, b: float, gap: float) -> float:
    """b/D - 1/(2h) = (2hb - D)/(2hD), formed without cancellation.

    With eps = 2/(3-q) and x = h/sigma0^(3-q),
    2 h b_exact = sigma0^2 eps x and D = sigma0^2 expm1(eps log1p(x)), so
    the difference is sigma0^2 (eps x - expm1(eps log1p(x))), nonnegative
    for q < 1 by Bernoulli's inequality; a final term corrects for the
    printed-pipeline b differing from sigma0^(q-1)/(3-q) by roundoff.
    Raises DomainError where 2 h D underflows to 0.
    """
    eps = 2.0 / (3.0 - q)
    x = h / sigma0 ** (3.0 - q)
    b_exact = sigma0 ** (q - 1.0) / (3.0 - q)
    num = sigma0 * sigma0 * (eps * x - math.expm1(eps * math.log1p(x))) + 2.0 * h * (b - b_exact)
    den = 2.0 * h * gap
    if not den > 0.0:
        raise DomainError(f"2 h D underflows to 0 for h={h!r}, gap={gap!r}")
    return num / den


@dataclass(frozen=True)
class StepPair:
    """One step (g | g0, h): the variance gap D = sigma_h^2 - sigma0^2, the
    coupling root delta = 1 - eta_h, the q-form of F_h and the entropy
    coefficient b(sigma0, q), each computed once.

    J_h, F_h, the optimal coupling and the three rescalings are readers
    of these numbers.
    """

    g: QGaussian1D
    g0: QGaussian1D
    h: float
    gap: float = field(init=False)
    delta: float = field(init=False)
    fh_q: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self) -> None:
        _require_same_family(self.g, self.g0)
        _require_h(self.h)
        p = self.g.params
        sigma, sigma0 = self.g.sigma, self.g0.sigma
        gap = sigma_sq_gap(sigma0, self.h, p.q)
        delta = _solve_eta_gap(sigma, sigma0, gap, p.q)[0]
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "fh_q", _f_h_from_delta(delta, sigma, sigma0, p.q))
        object.__setattr__(self, "b", _entropy_b(p, sigma0))

    def f_h(self, form: str = "q") -> float:
        if form == "q":
            return self.fh_q
        if form == "m":
            g, g0 = self.g, self.g0
            return _f_h_from_delta_mform(self.delta, g.sigma, g0.sigma, self.gap, g.params.m)
        raise ValueError(f"form must be 'q' or 'm', got {form!r}")

    def jh(self) -> float:
        p = self.g.params
        m = p.m
        log_scale = (1.0 - m) * (
            math.log(c0_const(m, 2)) - math.log(p.C * self.g0.sigma) - 0.5 * math.log(self.gap)
        )
        try:
            pref = 0.5 * c1_const(m, 2) * math.exp(log_scale)
        except OverflowError:
            raise DomainError(
                f"J_h prefactor exceeds the double range for q={p.q!r}, gap={self.gap!r}"
            ) from None
        return pref * (wasserstein2_sq(self.g, self.g0) / (p.C * self.gap) + self.f_h("m"))

    def qstar(self) -> MBivariate:
        g, g0 = self.g, self.g0
        root_c = math.sqrt(g.params.C)
        return make_bivariate(
            g0.mu, g.mu, root_c * g0.sigma, root_c * g.sigma, 1.0 - self.delta, g.params.m
        )

    def first(self) -> float:
        return wasserstein2_sq(self.g, self.g0) + self.g.params.C * self.gap * self.fh_q

    def second(self) -> float:
        return self.b * self.g.params.C * self.fh_q

    def third(self) -> float:
        coeff = _third_gap_coeff(self.g0.sigma, self.h, self.g.params.q, self.b, self.gap)
        return self.second() + coeff * wasserstein2_sq(self.g, self.g0)


def qstar(g: QGaussian1D, g0: QGaussian1D, h: float) -> MBivariate:
    """Optimal coupling N_m(mu0, C sigma0^2, mu, C sigma^2, eta_h)."""
    return StepPair(g, g0, h).qstar()


def jh(g: QGaussian1D, g0: QGaussian1D, h: float) -> float:
    """Rate-like functional J_h(g | g0): relative m-entropy of the optimal
    coupling against the flow coupling, in closed form.

        (1/2) C1(m,2) (C0(m,2)/(C sigma0 sqrt(D)))^(1-m)
        * [ W2^2/(C D) + 2 sigma0 sigma (1-eta)/D
            + 2 log_m (sigma0/(sigma eta))^(1/(3-m)) - 1 ],

    D = sigma_h^2 - sigma0^2; the last three terms are F_h in its m-form.
    Vanishes exactly at the time-h evolution of g0 (where eta =
    sigma0/sigma_h) and is positive elsewhere.  Raises DomainError for
    q >= 4/3 (m >= 3/2) and where the prefactor exceeds the double range
    (q near 0 at small h, where 1 - m = 2/q - 2 is large).
    """
    return StepPair(g, g0, h).jh()


def f_h(g: QGaussian1D, g0: QGaussian1D, h: float, form: str = "q") -> float:
    """Bounded correction F_h with F_h -> log_q(sigma0/sigma) as h -> 0.

    form="q" evaluates 2 eta^q/(1+eta) (sigma0/sigma)^(1-q)
    + q log_q(sigma0/(sigma eta)) - 1; form="m" evaluates the equivalent
    2 sigma0 sigma (1-eta)/D + 2 log_m (sigma0/(sigma eta))^(1/(3-m)) - 1.
    Both agree to roundoff at the solved eta.
    """
    return StepPair(g, g0, h).f_h(form)


def f_limit(g: QGaussian1D, g0: QGaussian1D) -> float:
    """Limit of F_h as h -> 0: log_q(sigma0/sigma)."""
    _require_same_family(g, g0)
    return q_log(g0.sigma / g.sigma, g.params.q)


def rescaled_first(g: QGaussian1D, g0: QGaussian1D, h: float) -> float:
    """a D^(1/q) J_h, evaluated as W2^2 + C D F_h (exact reduction)."""
    return StepPair(g, g0, h).first()


def rescaled_second(g: QGaussian1D, g0: QGaussian1D, h: float) -> float:
    """a b D^((1-q)/q) J_h - (b/D) W2^2, evaluated as b C F_h."""
    return StepPair(g, g0, h).second()


def rescaled_third(g: QGaussian1D, g0: QGaussian1D, h: float) -> float:
    """a b D^((1-q)/q) J_h - W2^2/(2h).

    Evaluated as b C F_h + (b/D - 1/(2h)) W2^2; for q < 1 the second term
    is nonnegative, which is what puts this rescaling above the second one
    pointwise.
    """
    return StepPair(g, g0, h).third()


def jko_step(g0: QGaussian1D, h: float) -> QGaussian1D:
    """One minimizing-movement step: argmin of K_h(. | g0) over the family.

    The minimizer keeps mu = mu0; its scale is _jko_sigma(sigma0, h, q).
    """
    return QGaussian1D(mu=g0.mu, sigma=_jko_sigma(g0.sigma, h, g0.params.q), params=g0.params)


def _jko_sigma(sigma0: float, h: float, q: float) -> float:
    """Scale of the minimizing-movement step from sigma0: the float kernel of jko_step.

    K_h is strictly convex along sigma, and with b sigma0^(1-q) = 1/(3-q)
    its stationarity equation in the relative increment u = sigma/sigma0 - 1
    reads

        u (1 + u)^(2-q) = r,    r = h / sigma0^(3-q) / (3-q).

    Newton's method solves f(t) = t + (2-q) log1p(e^t) - log r = 0 for
    t = log u.  f increases strictly, with f' = 1 + (2-q)/(1+e^-t) in
    (1, 3-q); it is convex; and f(log r) = (2-q) log1p(r) >= 0.  So the
    iterates started at t = log r fall monotonically onto the root, each
    shrinking the distance to it by at least the factor (2-q)/(3-q) and
    quadratically near it.  The descent stops at the first iterate that
    does not decrease, where roundoff has taken over, and returns the last
    one that did: at most 9 evaluations on a dense sweep of log r over its
    whole range [-1500, 710], and at most 8 over 400k random draws of the
    documented domain.  Reaching _NEWTON_MAXITER raises RuntimeError.
    log r is formed in logs where h / sigma0^(3-q) underflows; such an
    increment, far below sigma0's resolution, rounds the step to sigma0.
    u is resolved to about |log u| eps, so sigma is within 2 ulps for
    u <= 1 and 1e-12 relative above.  h <= 0 raises DomainError, and
    scales that evolve_sigma rejects raise its DomainError.  The result
    is finite: u <= r^(1/(3-q)) once u >= 1, so sigma < 2 sigma0 or
    sigma <= 2 (h/(3-q))^(1/(3-q)).
    """
    _require_h(h)
    _log_growth(sigma0, h, q)
    v0 = sigma0 ** (3.0 - q)
    x = h / v0
    log_r = (math.log(x) if x > 0.0 else math.log(h) - math.log(v0)) - math.log(3.0 - q)
    # t <= log r < log(DBL_MAX) once _log_growth has passed, so e^t is finite
    t = log_r
    for _ in range(_NEWTON_MAXITER):
        e = math.exp(t)
        t_next = t - (t + (2.0 - q) * math.log1p(e) - log_r) / (1.0 + (2.0 - q) * e / (1.0 + e))
        if not t_next < t:
            return sigma0 + sigma0 * math.exp(t)
        t = t_next
    raise RuntimeError(f"jko_step: no Newton convergence for q={q!r}, sigma0={sigma0!r}, h={h!r}")
