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
increment, where it is increasing and convex.  A jko table, a whole
trajectory of such steps, is one call of the kernel _jko_scales, which
yields the steps one at a time, and jko_step is its one-step case.  The
rate-like functional J_h is the relative m-entropy (m = 3 - 2/q) of the
optimal pair coupling Q* against the flow coupling Q_{0->h}; its value
reduces to the scalar root eta_h of

    eta^q / (1 - eta^2) = sigma0^q sigma^(2-q) / (sigma_h^2 - sigma0^2),

solved here for delta = 1 - eta (the root sits near 1 as h -> 0, where eta
itself cannot hold relative precision): the same kind of Newton descent,
in w = log eta, where the equation is also increasing and convex, started
at the least of three closed-form upper bounds on the root and read out
as delta = -expm1(w), with one final step on the direct form for delta <
1/2 (at most 8 evaluations; see _solve_eta_gap).  That descent,
_coupling_root, is the one solver of the coupling equation in the
package: the oracle's analytic theta-family minimizer, whose stationarity
equation is the same equation with q' = 2/(3-m), reads it too.  The
closed forms need no scipy.  The three rescalings of J_h obey exact
algebraic reductions

    a D^(1/q) J_h                    = W2^2 + C D F_h,
    a b D^((1-q)/q) J_h - b/D W2^2   = b C F_h,
    a b D^((1-q)/q) J_h - W2^2/(2h)  = b C F_h + (b/D - 1/(2h)) W2^2,

with D = sigma_h^2 - sigma0^2 and F_h the bounded correction

    F_h = 2 eta^q / (1 + eta) (sigma0/sigma)^(1-q)
          + q log_q(sigma0 / (sigma eta)) - 1   -->   log_q(sigma0/sigma),

used as the computation paths: they stay conditioned uniformly in h while
the defining expressions lose all digits below h ~ 1e-8.  J_h reads F_h
in its m-form,

    F_h = 2 sigma0 sigma (1 - eta)/D + q log_q(sigma0 / (sigma eta)) - 1,

whose log term is the q-form's, since 2 log_m(x^(1/(3-m))) = q log_q x
at m = 3 - 2/q; the two forms differ only in their first terms, which
agree at the solved eta alone.  D, delta, the shared log term and the
q-form of F_h come from one kernel, _step_terms, the only entry to
eta_h: a gamma table, one rescaling over a whole h-grid, is one call of
it, which forms the h-free pieces once and yields the steps one h at a
time, and StepPair(g, g0, h) is its one-h case.  Each rescaling has one
row function, _first, _second or _third, that StepPair and the gamma
table both call.  StepPair adds b at its first read, and J_h, F_h, the
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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .pme_flow import _relative_growth, evolve_sigma, sigma_sq_gap
from .qgaussian import MBivariate, QGaussian1D, make_bivariate
from .qmath import (
    _DBL_MIN,
    _LOG_DBL_MAX,
    DomainError,
    QParams,
    _finite,
    c0_const,
    c1_const,
    make_params,
)

__all__ = [
    "GammaCoefficients",
    "StepPair",
    "wasserstein2_sq",
    "entropy_diff",
    "kh",
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


@dataclass(frozen=True)
class GammaCoefficients:
    """Rescaling coefficients a, b for a given base scale sigma0."""

    a: float
    b: float
    sigma0: float
    q: float


def _require_same_family(g: QGaussian1D, g0: QGaussian1D) -> None:
    # one shared parameter set is equal to itself without a field-by-field compare
    if g.params is not g0.params and g.params != g0.params:
        raise DomainError("both densities must share one parameter set")


def _require_h(h: float) -> None:
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h!r}")


def _log_ratio(sigma0: float, sigma: float) -> float:
    """L = log(sigma0/sigma) of two positive finite doubles.

    Where the quotient is a normal double, L is the log of the quotient;
    where it overflows, underflows or is subnormal, L is formed as
    log sigma0 - log sigma, which is finite for any such pair.
    """
    ratio = sigma0 / sigma
    if _DBL_MIN <= ratio < math.inf:
        return math.log(ratio)
    return math.log(sigma0) - math.log(sigma)


def _q_log_ratio(sigma0: float, sigma: float, q: float) -> float:
    """log_q(sigma0/sigma) = expm1((1-q) L)/(1-q) with L = _log_ratio(sigma0, sigma).

    Where the quotient is a normal double this is q_log's evaluation, bit
    for bit.  Raises DomainError where the value exceeds the double range.
    """
    om = 1.0 - q
    try:
        value = math.expm1(om * _log_ratio(sigma0, sigma)) / om
    except OverflowError:
        value = math.inf
    return _finite(value, "log_q(sigma0/sigma)")


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
    against).  Where C0/sigma0 is not a normal double, as for subnormal or
    huge sigma0, its power is formed as C0^(1-q) sigma0^(q-1).  Raises
    DomainError where b itself is not a positive finite double.
    """
    q = p.q
    try:
        ratio = p.c0_q_d / sigma0
        if _DBL_MIN <= ratio < math.inf:
            power = ratio ** (1.0 - q)
        else:
            power = p.c0_q_d ** (1.0 - q) * sigma0 ** (q - 1.0)
        b = (2.0 - q) * p.c1_q_d / p.C ** ((3.0 - q) / 2.0) * power
    except (OverflowError, ZeroDivisionError):
        b = math.inf
    if not 0.0 < b < math.inf:
        raise DomainError(f"entropy coefficient b leaves the double range for sigma0={sigma0!r}")
    return b


def coefficients(q: float, sigma0: float) -> GammaCoefficients:
    """Evaluate the rescaling coefficients a(q, sigma0) and b(sigma0, q).

    b comes from _entropy_b.  The conjugate constants C1(m,2), C0(m,2)
    behind a are evaluated at m = 3 - 2/q and exist for every m < 3/2
    (m <= 0 included); for q >= 4/3, where m reaches 3/2 and the bivariate
    normalization blows up, a is nan, while b (a purely one-dimensional
    quantity) stays valid on all of Q_1.  Raises DomainError for sigma0
    that is not positive and finite, and where a or b is not a positive
    finite double.
    """
    p = make_params(q, 1)
    if not 0.0 < sigma0 < math.inf:
        raise DomainError(f"sigma0 must be positive and finite, got {sigma0!r}")
    m = p.m
    if m < 1.5:
        c1m = c1_const(m, 2)
        c0m = c0_const(m, 2)
        try:
            a = 2.0 * p.C ** (2.0 - m) / c1m * (c0m / sigma0) ** (m - 1.0)
        except (OverflowError, ZeroDivisionError):
            a = math.inf
        if not 0.0 < a < math.inf:
            raise DomainError(
                f"coefficient a leaves the double range for q={q!r}, sigma0={sigma0!r}"
            )
    else:
        a = math.nan
    return GammaCoefficients(a=a, b=_entropy_b(p, sigma0), sigma0=sigma0, q=q)


def entropy_diff(g: QGaussian1D, g0: QGaussian1D) -> float:
    """Tsallis entropy difference E_q(g) - E_q(g0) = b C log_q(sigma0/sigma).

    Exactly 0.0 at sigma == sigma0 (log_q(1) evaluates to 0 exactly).
    Raises DomainError where b is not a positive finite double (see
    _entropy_b) and where the difference exceeds the double range.
    """
    _require_same_family(g, g0)
    b = _entropy_b(g.params, g0.sigma)
    value = b * g.params.C * _q_log_ratio(g0.sigma, g.sigma, g.params.q)
    return _finite(value, "E_q(g) - E_q(g0)")


def kh(g: QGaussian1D, g0: QGaussian1D, h: float) -> float:
    """Implicit-step functional W2^2/(4h) + (E_q(g) - E_q(g0))/2.

    Raises DomainError where it exceeds the double range.
    """
    _require_h(h)
    return _finite(wasserstein2_sq(g, g0) / (4.0 * h) + 0.5 * entropy_diff(g, g0), "K_h")


def _coupling_root(log_rhs: float, rhs: float, q: float, w_min: float) -> tuple[float, int]:
    """Root w = log eta < 0 of eta^q/(1 - eta^2) = rhs, and the number of evaluations.

    rhs must be a normal double and log_rhs its logarithm.  Newton's
    method solves H(w) = q w - log(1 - e^(2w)) - log rhs = 0.  H increases
    strictly, with H' = q + 2e^(2w)/(1 - e^(2w)) > 0, and it is convex,
    with H'' = 4e^(2w)/(1 - e^(2w))^2 > 0.  So the iterates started at or
    above the root fall monotonically onto it.  The start is the least of
    three closed-form upper bounds on the root:

    - max(-1/2, -e^(-q/2)/(2 rhs)), always, because 1 - e^(2w) <= -2w
      (above q = 2, -min(s, e^(-q s/2)/rhs)/2 with s = 2/q, which stays
      off w = 0 for large q);
    - (log rhs)/q when rhs < 1, because -log(1 - e^(2w)) >= 0;
    - log(x)/2 with x = log rhs - q w_min when x lies in (0, 1), because
      -log(1 - x) >= x; where log(x)/2 < w_min, the root is below w_min
      too.

    log(1 - e^(2w)) is formed as log1p(-e^(2w)) where e^(2w) < 1/2, which
    keeps the relative precision of its small values as q -> 0, and as
    log(-expm1(2w)) next to w = 0.  The descent stops at a step below
    2^-27 |w|, which it applies (its square is below the resolution of w),
    at the first iterate that does not decrease, where roundoff has taken
    over, or below w_min, the caller's floor: a result below w_min means
    that the root is below it.  Reaching _NEWTON_MAXITER raises
    RuntimeError.
    """
    s = min(1.0, 2.0 / q)
    w = -0.5 * min(s, math.exp(-0.5 * q * s) / rhs)
    if rhs < 1.0:
        w = min(w, log_rhs / q)
    x = log_rhs - w_min * q
    if 0.0 < x < 1.0:
        w = min(w, 0.5 * math.log(x))
    evals = 0
    while w >= w_min:
        if evals >= _NEWTON_MAXITER:
            raise RuntimeError(f"coupling root: no Newton convergence for q={q!r}, rhs={rhs!r}")
        evals += 1
        e = math.exp(2.0 * w)
        om = -math.expm1(2.0 * w)
        step = (log_rhs - q * w + (math.log1p(-e) if e < 0.5 else math.log(om))) / (
            q + 2.0 * e / om
        )
        if abs(step) <= -_W_STEP * w:
            return w + step, evals
        if not step < 0.0:
            break
        w += step
    return w, evals


def _solve_eta_gap(sigma: float, sigma0: float, gap: float, q: float) -> tuple[float, float, int]:
    """Root delta = 1 - eta of eta^q/(1-eta^2) = rhs = sigma0^q sigma^(2-q)/gap.

    Returns delta, rhs and the number of evaluations.  _coupling_root
    solves for w = log eta, with this solve's floor w_min = -53 log 2;
    delta = -expm1(w).  For delta < 1/2 the rounding of log rhs and of
    log(1 - e^(2w)) (about |log delta| eps) would show in delta, so one
    Newton step on the direct form rhs delta (2-delta) / (1-delta)^q = 1,
    which carries only relative roundings, polishes it.

    The solve takes at most 7 evaluations, the polishing one included,
    over 200k random draws of sigma0 in [1e-3, 1e3], sigma/sigma0 in
    [0.1, 10] and h/sigma0^(3-q) in [1e-12, 1e2] over Q_1, at most 8 on
    a dense sweep of log rhs over [-700, 700] for q from 0.01 to 5/3, and
    at most 7 on the same sweep for q from 1e-3 down to 5e-324.  Against
    the 50-digit root for the same rhs, delta is within 3.4e-16 relative
    over 3k random draws.

    rhs is formed directly where its powers and quotient are normal
    doubles, and in logs where one of them is not.  A right-hand side
    outside the normal double range, a root below w = -53 log 2 (eta <
    2^-53, which delta = 1 - eta no longer resolves) and a delta below the
    normal range raise DomainError.
    """
    # sigma_sq_gap underflows to 0 where sigma0^2 or the step leaves the double range
    if not gap > 0.0:
        raise DomainError(f"variance gap must be positive, got {gap!r}")
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

    w, evals = _coupling_root(log_rhs, rhs, q, _W_MIN)
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


def _step_terms(
    sigma: float, sigma0: float, q: float, hs: Sequence[float]
) -> Iterator[tuple[float, float, float, float]]:
    """Yield (gap, delta, fh_log, fh_q) of the step (sigma | sigma0, h) for each h
    of hs in turn: the float kernel of StepPair and of the gamma table.

    gap is D = sigma_h^2 - sigma0^2 and delta = 1 - eta_h the root of
    _solve_eta_gap.  fh_log = q log_q(sigma0/(sigma eta_h)) is the log term
    that both forms of F_h share, and fh_q = 2 eta^q/(2-delta)
    (sigma0/sigma)^(1-q) + fh_log - 1 is the q-form; each term is inf where
    its own power overflows.  log(sigma0/sigma) and (sigma0/sigma)^(1-q)
    do not depend on h and are formed once.  Each h is checked by
    _require_h before its gap, and a step is formed only when the one
    before it has been taken, so a reader that forms each row as its step
    arrives raises at its first failing row, in the order of the one-h case.
    """
    om = 1.0 - q
    log_ratio = _log_ratio(sigma0, sigma)
    try:
        ratio_pow = math.exp(om * log_ratio)
    except OverflowError:
        ratio_pow = math.inf
    for h in hs:
        _require_h(h)
        gap = sigma_sq_gap(sigma0, h, q)
        delta = _solve_eta_gap(sigma, sigma0, gap, q)[0]
        log_eta = math.log1p(-delta)
        # eta >= 2^-53, so eta^q > 0 and an overflowing power makes the first term inf
        first = 2.0 * math.exp(q * log_eta) / (2.0 - delta) * ratio_pow
        try:
            fh_log = q * math.expm1(om * (log_ratio - log_eta)) / om
        except OverflowError:
            fh_log = math.inf
        yield gap, delta, fh_log, first + fh_log - 1.0


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
    x = _relative_growth(sigma0, h, q)
    b_exact = sigma0 ** (q - 1.0) / (3.0 - q)
    num = sigma0 * sigma0 * (eps * x - math.expm1(eps * math.log1p(x))) + 2.0 * h * (b - b_exact)
    den = 2.0 * h * gap
    if not den > 0.0:
        raise DomainError(f"2 h D underflows to 0 for h={h!r}, gap={gap!r}")
    return num / den


def _first(c: float, w2: float, gap: float, fh_q: float) -> float:
    """The first rescaling W2^2 + C D F_h of one step."""
    return _finite(w2 + c * gap * fh_q, "the first rescaling")


def _second(c: float, b: float, fh_q: float) -> float:
    """The second rescaling b C F_h of one step."""
    return _finite(b * c * fh_q, "the second rescaling")


def _third(
    g: QGaussian1D, g0: QGaussian1D, h: float, b: float, gap: float, fh_q: float
) -> tuple[float, float]:
    """The third rescaling b C F_h + (b/D - 1/(2h)) W2^2 of one step, and the
    second rescaling b C F_h it adds to.

    The gap coefficient is checked first, then the second rescaling, then
    W2^2.
    """
    coeff = _third_gap_coeff(g0.sigma, h, g.params.q, b, gap)
    second = _second(g.params.C, b, fh_q)
    return _finite(second + coeff * wasserstein2_sq(g, g0), "the third rescaling"), second


@dataclass(frozen=True)
class StepPair:
    """One step (g | g0, h): the variance gap D = sigma_h^2 - sigma0^2, the
    coupling root delta = 1 - eta_h, the log term fh_log = q
    log_q(sigma0/(sigma eta_h)) that both forms of F_h share and the q-form
    fh_q of F_h, each computed once as _step_terms' one-h case.  The
    entropy coefficient b(sigma0, q) is formed at its first read, by the
    second or third rescaling.

    The two forms of F_h differ only in their first terms, 2 eta^q/(2 -
    delta) (sigma0/sigma)^(1-q) and 2 sigma0 sigma delta/D, which agree at
    the solved root alone.  J_h, F_h, the optimal coupling and the three
    rescalings are readers of these numbers; the rescalings are the row
    functions _first, _second and _third, which the gamma table calls too,
    so its row at h holds the same bits.
    """

    g: QGaussian1D
    g0: QGaussian1D
    h: float
    gap: float = field(init=False)
    delta: float = field(init=False)
    fh_log: float = field(init=False)
    fh_q: float = field(init=False)

    def __post_init__(self) -> None:
        _require_same_family(self.g, self.g0)
        q = self.g.params.q
        ((gap, delta, fh_log, fh_q),) = _step_terms(self.g.sigma, self.g0.sigma, q, (self.h,))
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "fh_log", fh_log)
        object.__setattr__(self, "fh_q", fh_q)

    @cached_property
    def b(self) -> float:
        return _entropy_b(self.g.params, self.g0.sigma)

    def f_h(self, form: str = "q") -> float:
        if form == "q":
            return _finite(self.fh_q, "F_h in the q-form")
        if form == "m":
            first = 2.0 * self.g0.sigma * self.g.sigma * self.delta / self.gap
            return _finite(first + self.fh_log - 1.0, "F_h in the m-form")
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
        return _finite(
            pref * (wasserstein2_sq(self.g, self.g0) / (p.C * self.gap) + self.f_h("m")), "J_h"
        )

    def qstar(self) -> MBivariate:
        g, g0 = self.g, self.g0
        root_c = math.sqrt(g.params.C)
        return make_bivariate(
            g0.mu, g.mu, root_c * g0.sigma, root_c * g.sigma, 1.0 - self.delta, g.params.m
        )

    def first(self) -> float:
        return _first(self.g.params.C, wasserstein2_sq(self.g, self.g0), self.gap, self.fh_q)

    def second(self) -> float:
        return _second(self.g.params.C, self.b, self.fh_q)

    def third(self) -> float:
        return _third(self.g, self.g0, self.h, self.b, self.gap, self.fh_q)[0]


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
    2 sigma0 sigma (1-eta)/D + 2 log_m (sigma0/(sigma eta))^(1/(3-m)) - 1,
    whose log term is the q-form's, read from StepPair.  The first terms
    agree at the solved eta, so both forms agree to roundoff.
    """
    return StepPair(g, g0, h).f_h(form)


def f_limit(g: QGaussian1D, g0: QGaussian1D) -> float:
    """Limit of F_h as h -> 0: log_q(sigma0/sigma).

    Raises DomainError where it exceeds the double range.
    """
    _require_same_family(g, g0)
    return _q_log_ratio(g0.sigma, g.sigma, g.params.q)


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

    The minimizer keeps mu = mu0; its scale is the one step of
    _jko_scales(sigma0, h, q, 1).
    """
    (sigma,) = _jko_scales(g0.sigma, h, g0.params.q, 1)
    return QGaussian1D(mu=g0.mu, sigma=sigma, params=g0.params)


def _jko_scales(sigma0: float, h: float, q: float, steps: int) -> Iterator[float]:
    """Yield the scales of `steps` minimizing-movement steps from sigma0, one
    step at a time: the float kernel of jko_step and of the jko table.

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
    does not decrease, where roundoff has taken over, and takes the last
    one that did: at most 9 evaluations on a dense sweep of log r over its
    whole range [-1500, 710], and at most 8 over 400k random draws of the
    documented domain.  Reaching _NEWTON_MAXITER raises RuntimeError.
    x = h / sigma0^(3-q) comes from _relative_growth at each step; log r is
    formed in logs where x underflows, an increment so far below sigma0's
    resolution that the step rounds to sigma0.
    u is resolved to about |log u| eps, so sigma is within 2 ulps for
    u <= 1 and 1e-12 relative above, for the exponent 3 - q as a double.
    Where 3 - q is not a double, its rounding moves x by about
    |log sigma0| eps relative: 47 ulps of sigma for q = 0.34 at sigma0 =
    2.6e68, where u = 0.5.  h <= 0 raises DomainError before the first
    step, and scales that _relative_growth rejects raise its DomainError at
    the step that starts from them; no step is formed before the one ahead
    of it has been read.  Each scale is finite: u <= r^(1/(3-q)) once
    u >= 1, so sigma < 2 sigma0 or sigma <= 2 (h/(3-q))^(1/(3-q)).
    """
    _require_h(h)
    a = 2.0 - q
    log_c = math.log(3.0 - q)
    sigma = sigma0
    for _ in range(steps):
        x = _relative_growth(sigma, h, q)
        log_x = math.log(x) if x > 0.0 else math.log(h) - math.log(sigma ** (3.0 - q))
        log_r = log_x - log_c
        # t <= log r < log x and _relative_growth has checked that x is finite, so e^t is finite
        t = log_r
        for _ in range(_NEWTON_MAXITER):
            e = math.exp(t)
            t_next = t - (t + a * math.log1p(e) - log_r) / (1.0 + a * e / (1.0 + e))
            if not t_next < t:
                break
            t = t_next
        else:
            raise RuntimeError(
                f"jko_step: no Newton convergence for q={q!r}, sigma0={sigma!r}, h={h!r}"
            )
        sigma = sigma + sigma * math.exp(t)
        yield sigma
