"""Quadrature and search oracles, independent of the closed forms.

The quadratures and searches here evaluate densities pointwise and
integrate or search numerically, so the closed-form entropies, couplings
and minimizers in the rest of the package can be cross-checked against a
path that shares no algebra with them.  There are two exceptions.  The
analytic theta-family minimizer solves its stationarity equation with the
closed forms' own coupling root (functionals._coupling_root), and the
checks compare it with minimize_theta, which never uses that equation.
minimize_kh searches the closed-form K_h itself (functionals.kh), so it
checks jko_step's solve of the stationarity equation, which the search
never reads, and not the entropy's closed form.

Every one-member integral, the 1d oracles and the 2d entropy, is one
half-line of the package's one quadrature rule (qflow._kronrod: 27
first-kind Chebyshev nodes per piece, with the error estimate from the
interpolant's last two coefficients, over a partition fixed by q and the
weight, every piece of a call in one array), from the mean, in units of
the member's scale, where the integrand reads only the bracket b = 1 +
(1-q) t of exp_q (_radial_quad).  In 1d the second half-line is the
mirror of the first: each integrand reads the offset only through its
square, so one run gives both halves; in 2d the half-line is a radius.
Its integrand is one array expression per integral that computes the
density and its weight (1, the squared offset, or log_q of the density)
from b, with no library call per node.  The 1d oracles raise DomainError
where the variance C sigma^2 is not a normal double or twice it
overflows, and where an integral is not finite; the 2d oracles where a
diagonal entry of a member's scale matrix is not a normal double, and
where an integral is not finite.  Domain policy:

* compact supports (q < 1): each half-line ends at the support edge,
  sqrt(2/((1-q) C1)) in scale units, which a map makes smooth;
* heavy tails (q > 1 in 1d, m > 1 in 2d) run to infinity untruncated:
  mapped onto tau in (0, 1], the integrand is tau^s times a function
  analytic at tau = 0, and qflow._kronrod's tail rule, with the weight
  tau^s built into its moments, integrates (0, 1/16];
* a 2d member's entropy is one ray in its own frame, times 2 pi: the
  integrand is radial there, and it is the 1D entropy integrand times r,
  on the 1D half-line and its partition (and the tail rule on a heavy
  tail, with the exponent the factor r lowers);
* every two-member integral goes through one polar rule whose frame comes
  from the members alone: centred at the first member's mean, whitened by
  the Cholesky factor of the members' average scale matrix.  Periodic
  trapezoid in angle, doubled until two totals agree or, where no ray
  bearing or support crossing breaks the angular integrand's analyticity
  (every heavy pair, and compact pairs with nested supports around the
  centre), until the geometric rate of the differences predicts the
  error within the tolerance; in radius, the tail rule's 27 Chebyshev nodes at
  weight 1 on every piece of a ray (qflow._kronrod.finite), halved where
  a piece misses the tolerance, all rays of a block of angles in one
  array; the coarsest 16 angles and the midpoints of the first two
  refinements, 16 and 32, form one block of 64 rays, so a 32- or
  64-angle result takes one radial call.  Each member is evaluated along
  a ray through its own quadratic in r, from the centre's whitened offset
  and the ray's whitened slope, formed once per radial call: the rule
  hands the integrand each member's log-bracket per node, and the
  integrand forms one rounded log-density per member, from which it takes
  both the density and its deformed log.  Heavy tails (m > 1) run each
  ray to infinity untruncated: in tau = 1/(1 + r), the finite rule takes
  r up to 15 (or past twice the distance of a far member's mean, where
  the ray is also cut) and the tail rule the rest; compact supports
  (m < 1) split each ray where it crosses a support ellipse, at the exact
  roots of the member's quadratic, so non-nested supports stay exact.

Each result records the policy applied in its note.

The searches are deterministic (no randomness): minimize_theta uses a
coarse grid + the library's own bounded Brent search, and minimize_kh that
search alone.  Nothing here imports scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _kronrod
from .functionals import _coupling_root, _entropy_b, kh
from .qgaussian import MBivariate, QGaussian1D
from .qmath import _DBL_MIN, _LOG_DBL_MAX, DomainError, QParams, _finite

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
    "minimize_kh",
    "support_included",
]

_LOG_DBL_MIN = math.log(_DBL_MIN)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the quadrature oracle."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13


_DEFAULT_CFG = QuadratureConfig()


class QuadResult(NamedTuple):
    """Integral value with the adaptive error estimate.

    converged is False when the half-line's partition (the 1d oracles and
    the 2d entropy) or the 2d budget of angles missed the requested
    tolerance; note carries the domain policy applied (the 1d half-lines,
    the 2d entropy's one ray, or the polar rule with its final angle count,
    ", predicted" where the angle error was predicted, and centre) and any
    half-line message.

    error_estimate is the half-line's summed piece and tail estimates
    (qflow._kronrod.half_line) for the one-member integrals.  For the polar
    rule it is the angle error plus the step times the summed radial
    estimates, where the angle error is |T_n - T_(n/2)| of the last two
    trapezoid totals, or, on a result whose note says "predicted", the
    prediction that stopped the rule (see _polar_quad).
    """

    value: float
    error_estimate: float
    converged: bool
    note: str


def _radial_quad(weight: str, params: QParams, log_norm: float, v: float, frame: str,
                 cfg: QuadratureConfig | None) -> QuadResult:
    """Integral over R^d, d = params.d (1 or 2), of w f, f the density of a
    member whose density at its mean is exp(log_norm), by one half-line;
    frame opens the note.

    weight names w: "mass" (1), "moment" (the squared offset, in 1D, whose
    variance is v) or "entropy" (log_q f).  In the member's whitened frame,
    in units of unit = sqrt(2/((1-q) C1)), the support edge (q < 1), or
    sqrt(2/C1) (q > 1), f is radial, norm b^(1/(1-q)) with norm =
    exp(log_norm) and the bracket b = 1 - (1-q) s^2 of exp_q at radius s,
    so the integral is |S^(d-1)| C0 unit^d times one half-line of w f/norm
    s^(d-1) ds: 2 C0 unit in 1D, 2 pi C0 unit^2 in 2D.  b is the half-line
    rule's own variable (qflow._kronrod.half_line), so no offset is formed:
    a scale far below the resolution of the mean stays exact, and a huge
    one cannot overflow.  The integrand is one array expression per
    weight: exp_q = exp(log b/(1-q)), the squared offset v s^2 unit^2 and,
    for the entropy, (1-q) log f = shift + log b, shift = (1-q) log norm,
    so log_q f = expm1((1-q) log f)/(1-q) keeps its relative accuracy next
    to q = 1; in 2D it gains the factor s, so the tail's power gains 1/2.
    The half-line is about 1 for every weight and scale (the moment is v
    times it), and the absolute tolerance is relative to that, so a tiny
    or huge integral keeps its relative accuracy: abs_tol bounds each
    half-line in 1D and the whole integral in 2D.  expm1 cannot overflow:
    (1-q) log f is at most (1-q) log norm < 355 for q < 1; for q > 1,
    (q-1) log(1/norm) < 237, and log b < 20 at the tail rule's nodes
    (s < 1.9e4).  The entropy's estimate adds 4 eps |shift I|: shift is
    rounded, and its error moves every node's log_q f alike.

    Raises DomainError where the integral is not finite.
    """
    cfg = cfg or _DEFAULT_CFG
    c0, c1, om, plane = params.c0_q_d, params.c1_q_d, 1.0 - params.q, params.d == 2
    unit = math.sqrt(2.0 / (om * c1)) if om > 0.0 else math.sqrt(2.0 / c1)
    inv_om, shift = 1.0 / om, om * log_norm

    def integrand(log_b, s2, jac):
        fv = np.exp(log_b * inv_om)
        if weight == "entropy":
            fv *= np.expm1(log_b + shift)
            fv *= inv_om
        elif weight == "moment":
            fv *= s2
        if plane:
            fv *= np.sqrt(s2)
        fv *= jac
        return fv

    # one half-line in final units, but for the sphere's area and the moment's factor v
    pref = c0 * (unit * unit if plane else unit) * (unit * unit if weight == "moment" else 1.0)
    sphere = 2.0 * math.pi if plane else 2.0
    # abs_tol bounds each half-line in 1D, and the whole integral in 2D
    value, err, message = _kronrod.half_line(integrand, om, int(weight != "mass") + 0.5 * plane,
                                             cfg.abs_tol / (sphere * pref if plane else pref), cfg.rel_tol)
    value, err = sphere * pref * value, sphere * pref * err
    if weight == "entropy":
        err += 4.0 * _EPS * abs(shift * value)
    elif weight == "moment":
        value, err = value * v, err * v
    if not math.isfinite(value):
        raise DomainError(f"the {params.d}d {weight} integral is not finite: {value!r}")
    note = frame + ("to the support edge" if om > 0.0 else "untruncated")
    return QuadResult(value, err, message is None, f"{note}; {message}" if message else note)


def _line_quad(weight: str, g: QGaussian1D, cfg: QuadratureConfig | None) -> QuadResult:
    """Integral over the real line of w(d) f(mu + d), f = g's density, by
    _radial_quad: two half-lines from the mean, to the support edge (q < 1)
    or to +inf untruncated (q > 1), in scale units.  The second half-line
    is the mirror of the first (the integrand reads the offset only
    through its square), so it is integrated once and counted twice.

    Raises DomainError where v is not a normal double or 2v overflows (at
    q = 0.5, sigma outside [1.4e-154, 8.6e153]), and where the integral is
    not finite.
    """
    v = g.variance
    if not (_DBL_MIN <= v and 2.0 * v < math.inf):
        raise DomainError(f"1d oracle needs a normal variance with 2v finite, got v={v!r}")
    return _radial_quad(weight, g.params, math.log(g.params.c0_q_d) - 0.5 * math.log(v), v,
                        "two half-lines from the mean, ", cfg)


def mass_quad(g: QGaussian1D, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Total mass of the density by quadrature (should be 1)."""
    return _line_quad("mass", g, cfg)


def moment2_quad(g: QGaussian1D, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Second moment about the mean by quadrature (should be C sigma^2)."""
    return _line_quad("moment", g, cfg)


def entropy_quad(g: QGaussian1D, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Tsallis entropy integral f log_q f of a 1d member, by quadrature."""
    return _line_quad("entropy", g, cfg)


# Angles per block of rays: bounds the size of the radial rule's arrays.
_ANGLE_BLOCK = 64
# Angle count of the coarsest periodic trapezoid rule, and the most it may reach.
_MIN_ANGLES = 16
_MAX_ANGLES = 8192


def _polar_quad(
    integrand: Callable[..., np.ndarray],
    members: Sequence[MBivariate],
    cfg: QuadratureConfig,
) -> QuadResult:
    """Integral over the plane of integrand(L_1, ..., L_n), in polar form,
    where L_k is the log-bracket of member k at each node: the rule of the
    two-member integrals (a single member's entropy is one half-line, see
    entropy_quad_2d).

    The frame comes from the members alone: z = c + r L (cos phi, sin phi),
    Jacobian det(L) r, with c the first member's mean and L the Cholesky
    factor of the members' average scale matrix.  Balancing the frame keeps
    every member near isotropic in it, which keeps the angular integrand's
    strip of analyticity wide.  The members share one m.  Member k is
    evaluated along each ray through its own quadratic Q_k(r) =
    (u0 + r du)^2 + (w0 + r dw)^2: (u0, w0) is c's offset from the member's
    mean and (du, dw) the ray's direction, both in the member's whitened
    coordinates scaled by sqrt(|1-m| C1/2), so that the bracket of exp_m is
    1 - Q_k (m < 1) or 1 + Q_k (m > 1).  The integrand reads L_k =
    log1p(-Q_k), -inf off the support, or log1p(Q_k); no node's x or y is
    formed.
    In phi: the periodic trapezoid rule (Trefethen and Weideman, SIAM Rev.
    56, 2014), doubling on nested nodes up to _MAX_ANGLES angles.  It stops
    where two totals agree, d_n = |T_n - T_(n/2)| <= tol = max(abs_tol,
    rel_tol |T_n|), and reports d_n as the angle error.  Where the angular
    integrand is analytic in a strip, T_n converges geometrically, so its
    error is about the next difference, d_n times the next ratio of
    differences, far below d_n.  So where d_n misses tol but has fallen at
    least 8-fold from d_(n/2) (n >= 64), the rule also stops where
    d_n max(4 d_n/d_(n/2), (d_(n/2)/d_(n/4))^2) <= tol, and reports that
    prediction as the angle error, and its note says "predicted".  The next
    ratio is taken as 4 times the last one, or as the square of the one
    before it, which geometric convergence makes the last one: a
    difference that fell far faster than that samples a Fourier
    coefficient near a zero of its oscillation, and the next one need not
    fall as fast (at m = 1.05 an error 120 times d_n^2/d_(n/2) was seen).
    At n = 64, T_8 is read from every other ray of the coarsest rule.  The
    prediction applies only where no ray bearing or support crossing breaks
    analyticity: on every heavy pair (m > 1), and on compact pairs whose
    centre lies strictly inside every support and whose supports nest
    (support_included, in either direction; an exactly tangent pair is not
    nested).  That is decided once, where a prediction first passes; elsewhere
    the convergence can be algebraic, and crossing supports at m = 0.2 were
    seen to stop 8 tolerances off.  In r:
    qflow._kronrod.finite, the tail rule's 27 first-kind Chebyshev nodes at
    weight 1 on each piece, halved where a piece misses the tolerance, one
    call per set of blocks of angles, whose ray geometry is formed once.
    The call's first round is one integrand call on the rule's node tables
    (qflow._kronrod._pieces), with the slopes as columns.
    Each ray is split where it crosses the support ellipse Q_k = 1 of a
    compact member, at the roots of a r^2 + 2 b r + q0 = 1 with the exact
    coefficients a = du^2 + dw^2, b = u0 du + w0 dw and q0 = u0^2 + w0^2,
    and ended at the last crossing.  Its pieces take the map r = lo + (hi -
    lo)(1 - cos(pi x))/2, whose nodes crowd at both ends, where a density
    goes to 0 and log_m of it to -1/(1-m); no node lies on an end, so a
    piece one ulp long, where two supports touch, reads a finite value.  A
    heavy-tailed ray runs in tau = 1/(1 + r), with Jacobian r/tau^2: the
    tail rule on (0, split], its estimate judged against the larger of the
    tail and the ray's pieces, and the finite rule on [split, 1], split =
    1/16 (r = 15), on the 1D heavy partition's coarse tau-pieces.  Where
    the ray passes closest to a member's mean beyond r = 1, at tau*, the
    piece is cut there and its two pieces take the cosine map (off the
    frame's unit scale the member's peak is narrow in tau, and a cut puts
    it at a piece's end, where the map crowds the nodes), and split is at most tau*/2, so the peak, a near pole of the
    integrand, stays out of the tail; the tail rule runs on lam F(lam t),
    lam = 16 split.  Where no member's peak lies beyond r = 1, every ray
    is the one piece [1/16, 1] in tau and split = 1/16, with no cuts to
    sort: the first round reads one (piece, node) array of tau for every
    ray, and the tail one row of TAIL_TAU, so r = 1/tau - 1 and r/tau^2
    are formed once per call, not per ray.  A centre member's offsets are
    0, and are not added.  There 1 + Q_k = P_k(tau)/tau^2 with P_k a quadratic
    positive on [0, 1], so f_k is tau^(2/(m-1)) times a function analytic at
    0, and every term of the integrands, times the Jacobian, is tau^s times
    one, s = 2(2-m)/(m-1) - 3, as f^(2-m) r dr is; the terms' exponents
    differ by integers.  The rule always reaches 32 angles and mostly 64,
    so the first call holds the 16 coarsest angles and the midpoints of the
    first two refinements, 16 and 32, as far as _MAX_ANGLES lets the rule
    go: 64 rays, one _ANGLE_BLOCK.  Each refinement's midpoints are then
    summed on their own, in the order of a call of their own, and read only
    when the rule reaches them.  The radial rule's rows are independent, so
    this fusion gives the same bits as one call per refinement: a 32- or
    64-angle result takes one call and a 128-angle result two.  A result
    that stops at 32 angles integrates 32 rays it does not read.
    """
    cx, cy = centre = members[0].mean
    # each term is divided before the sum, which then cannot overflow
    chol = np.linalg.cholesky(sum(nu.cov / len(members) for nu in members))
    det = chol[0, 0] * chol[1, 1]
    # per member: the centre's offset (u0, w0) and the frame's columns in the
    # member's whitened coordinates, scaled by sqrt(|1-m| C1/2)
    frames = []
    for nu in members:
        white = math.sqrt(0.5 * abs(1.0 - nu.m) * nu.mparams.c1_q_d) * _whitening(nu)
        frames.append((white @ (centre - nu.mean), white @ chol))
    # the members share m; compact supports split each ray where it crosses them
    m = members[0].m
    compact = m < 1.0

    def ray(x, *slopes):
        # x is r on compact rays, and tau = 1/(1 + r) on heavy-tailed ones
        r = x if compact else 1.0 / x - 1.0
        logs = []
        for ((u0, w0), _), du, dw in zip(frames, slopes[::2], slopes[1::2]):
            # Q = (du r + u0)^2 + (dw r + w0)^2; a zero offset (the centre
            # member's) is not added, which changes no bit of Q
            q, p = du * r, dw * r
            if u0:
                q += u0
            if w0:
                p += w0
            np.square(q, out=q)
            q += np.square(p, out=p)
            # L = log1p(-Q), with the bracket clipped to 0 off a compact support, or log1p(Q)
            if compact:
                np.maximum(np.negative(q, out=q), -1.0, out=q)
            logs.append(np.log1p(q, out=q))
        fv = integrand(*logs)
        if compact:
            fv *= det * r
        else:
            # det r/tau^2 overflows at large scales: det goes first
            fv *= det
            fv *= r / (x * x)
        return fv

    def radial(blocks: list[np.ndarray]) -> tuple[list[tuple[float, float, bool]], np.ndarray]:
        """One finite-rule call over the rays at every block of angles; per
        block, the sums of the radial integrals and of their errors, and
        whether all converged; and the first block's (ray, piece) integrals."""
        phis = np.concatenate(blocks)
        unit = np.array([np.cos(phis), np.sin(phis)])
        slopes = [mat @ unit for _, mat in frames]
        if compact:
            ends = [np.zeros_like(phis)]
        else:
            # in tau: the tail rule takes (0, split], split = 1/16 (r = 15)
            # unless a member's peak lies beyond r = 7
            ends, split = [np.ones_like(phis)], np.full_like(phis, _kronrod.TAIL_END)
        for ((u0, w0), _), (du, dw) in zip(frames, slopes):
            # Q(r) = a r^2 + 2 b r + q0
            a, b = du * du + dw * dw, u0 * du + w0 * dw
            if compact:
                # the support edge Q = 1
                disc = np.sqrt(np.maximum(b * b - a * (u0 * u0 + w0 * w0 - 1.0), 0.0))
                ends += [np.maximum((-b - disc) / a, 0.0), np.maximum((-b + disc) / a, 0.0)]
            elif u0 or w0:
                # Q is least at r = -b/a, the member's peak along the ray: a cut
                # where it lies off the frame's unit scale (r > 1), and the tail
                # starts at half its tau, so the peak stays out of the tail
                tau = a / (a - np.minimum(b, 0.0))
                ends.append(np.where(tau < 0.5, tau, 1.0))
                split = np.minimum(split, 0.5 * tau)
        args = tuple(v for s in slopes for v in s)
        if not compact and all((end == 1.0).all() for end in ends):
            # no peak lies beyond r = 1: every ray is the one piece [1/16, 1]
            # in tau, in the first column of the cut layout, and its first
            # round and its tail (split = 1/16 on every ray) each read one
            # array of nodes for every ray
            live = np.zeros((len(phis), len(ends)), dtype=bool)
            live[:, 0] = True
            lo, hi, crowd = split, np.ones_like(phis), np.zeros(len(phis), dtype=bool)
            split = split[:1]
        else:
            if not compact:
                ends.append(split)
            cuts = np.array(ends).T
            cuts.sort(axis=-1)
            lo, hi = cuts[:, :-1], cuts[:, 1:]
            live = lo < hi
            at = np.nonzero(live)[0]
            # compact pieces crowd their nodes at both ends, and so do the pieces
            # of a heavy-tailed ray cut at a far mean, the rays with more than one
            crowd = np.ones(len(at), dtype=bool) if compact else (live.sum(axis=1) > 1)[at]
            lo, hi, args = lo[live], hi[live], tuple(v[at] for v in args)
        out = _kronrod.finite(ray, lo, hi, args, cfg.rel_tol, cfg.abs_tol, crowd)
        # only the pieces of positive length are integrated; the others hold 0
        integral, error, success = np.zeros(live.shape), np.zeros(live.shape), np.ones_like(live)
        integral[live], error[live], success[live] = out
        if not compact:
            # the tail rule on (0, split] in tau, on lam F(lam t), t in (0, 1/16],
            # lam = 16 split, with s = 2(2-m)/(m-1) - 3, the exponent of
            # f^(2-m) r dr; its estimate is judged against the larger of the
            # tail and the ray's pieces: where H_m's terms cancel far out, the
            # tail's rounding is eps times the terms, not times the tail
            lam = (split / _kronrod.TAIL_END)[:, None]
            fa = ray(lam * _kronrod.TAIL_TAU, *(v[:, None] for s in slopes for v in s)) * lam
            tail, tail_err = _kronrod.tail(fa, 2.0 * (2.0 - m) / (m - 1.0) - 3.0)
            scale = np.maximum(np.abs(tail), np.abs(integral).max(axis=1))
            success[:, 0] &= tail_err <= np.maximum(cfg.abs_tol, cfg.rel_tol * scale)
            integral[:, 0] += tail
            error[:, 0] += tail_err
        edges = list(accumulate((len(block) for block in blocks), initial=0))
        return ([(float(integral[a:b].sum()), float(error[a:b].sum()), bool(success[a:b].all()))
                 for a, b in zip(edges, edges[1:])], integral[:edges[1]])

    def sweep(sums: list[tuple[float, float, bool]]) -> tuple[float, float, bool]:
        """Totals over the blocks of one set of angles, in block order."""
        totals, errs, oks = zip(*sums)
        return sum(totals), sum(errs), all(oks)

    def analytic() -> bool:
        """Whether no ray bearing or support crossing breaks the angular
        integrand's analyticity: every heavy pair, and a compact pair whose
        centre lies strictly inside every support and whose supports nest."""
        if not compact:
            return True
        return (all(u0 * u0 + w0 * w0 < 1.0 for (u0, w0), _ in frames)
                and all(support_included(a, b) or support_included(b, a)
                        for i, a in enumerate(members) for b in members[i + 1:]))

    n, step = _MIN_ANGLES, 2.0 * math.pi / _MIN_ANGLES
    # the coarsest rule and the midpoints of its first two refinements, 16 + 16
    # + 32 rays, share one radial call, as far as the cap lets the rule go
    blocks = [step * np.arange(n)]
    blocks += [(step / k) * (np.arange(k * n) + 0.5) for k in (1, 2) if 2 * k * n <= _MAX_ANGLES]
    (first, *ready), coarse = radial(blocks)
    total, radial_err, converged = sweep([first])
    value, angle_err, predicted, smooth = step * total, math.inf, False, None
    # d_n = |T_n - T_(n/2)| for n = 2 _MIN_ANGLES, 4 _MIN_ANGLES, ...
    diffs = []
    while 2 * n <= _MAX_ANGLES:
        # the refined rule adds the midpoints and keeps every earlier node
        if ready:
            mids = [ready.pop(0)]
        else:
            phis = step * (np.arange(n) + 0.5)
            mids = [radial([block])[0][0]
                    for block in np.split(phis, range(_ANGLE_BLOCK, n, _ANGLE_BLOCK))]
        more, more_err, ok = sweep(mids)
        total, radial_err, converged = total + more, radial_err + more_err, converged and ok
        n, step = 2 * n, 0.5 * step
        angle_err, value = abs(step * total - value), step * total
        diffs.append(angle_err)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if angle_err <= tol:
            break
        # where the differences fall 8-fold, T_n's error is predicted from the
        # next ratio of differences: 4 times the last, or the square of the
        # one before it, whichever is larger
        if len(diffs) > 1 and angle_err <= 0.125 * diffs[-2]:
            # d_(n/4); at n = 4 _MIN_ANGLES it is |T_(_MIN_ANGLES) -
            # T_(_MIN_ANGLES/2)|, the latter from every other ray of the coarsest rule
            prior = diffs[-3] if len(diffs) > 2 else (
                (2.0 * math.pi / _MIN_ANGLES) * abs(first[0] - 2.0 * float(coarse[::2].sum())))
            rate = diffs[-2] / prior if prior else math.inf
            guess = angle_err * max(4.0 * (angle_err / diffs[-2]), rate * rate)
            if guess <= tol:
                # support_included costs about 40 us: decided once, and only here
                smooth = analytic() if smooth is None else smooth
                if smooth:
                    angle_err, predicted = guess, True
                    break
    else:
        converged = False
    stop = ", predicted" if predicted else ""
    note = f"polar trapezoid x Chebyshev rule, {n} angles{stop}, centre ({cx:.6g}, {cy:.6g})"
    return QuadResult(value, angle_err + step * radial_err, converged, note)


def _whitening(nu: MBivariate) -> np.ndarray:
    """The inverse of the Cholesky factor of nu's scale matrix: it takes an
    offset from nu's mean to nu's whitened coordinates."""
    # numpy, so a product that underflows to 0 divides to inf, not ZeroDivisionError
    root = np.sqrt(1.0 - nu.theta * nu.theta)
    return np.array([[1.0 / nu.s1, 0.0], [-nu.theta / (root * nu.s1), 1.0 / (root * nu.s2)]])


def _log_norm(nu: MBivariate) -> float:
    """log norm = log C0 - log s1 - log s2 - log1p(-theta^2)/2, the log of
    nu's density at its mean, C0/sqrt(det Sigma), from logs that cannot
    overflow."""
    return (math.log(nu.mparams.c0_q_d) - math.log(nu.s1) - math.log(nu.s2)
            - 0.5 * math.log1p(-nu.theta * nu.theta))


def _log_density(log_b: np.ndarray, nu: MBivariate) -> tuple[np.ndarray, np.ndarray]:
    """The density f of nu and (1-m) log_m f at the nodes of a polar
    integrand, from nu's log-bracket log_b there.

    Both read one rounded log-density l = log_b/(1-m) + log norm
    (_log_norm): f = exp(l) and (1-m) log_m f = expm1((1-m) l).  Reading
    the same l keeps the cancellation between the terms of H_m.  The second array is log_b's,
    overwritten.  For m > 1 it reads 0 where f underflows, so a product
    x log_m y is 0 where either density is 0, never 0 * inf.  Runs only in
    integrands, so inside the radial rule, whose np.errstate masks the
    overflow it meets.
    """
    om = 1.0 - nu.m
    ell = np.add(np.divide(log_b, om, out=log_b), _log_norm(nu), out=log_b)
    dens = np.exp(ell)
    lm = np.expm1(np.multiply(ell, om, out=ell), out=ell)
    if om < 0.0 and not dens.all():
        np.putmask(lm, dens == 0.0, 0.0)
    return dens, lm


def entropy_quad_2d(nu: MBivariate, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Entropy integral f log_m f of a bivariate member, by quadrature.

    In the member's own frame the integrand is radial, so one ray, times
    2 pi, gives the integral: the d = 2 case of the 1D oracle's half-line
    (_radial_quad), whose integrand gains the factor r and whose tail's
    exponent falls by 1.  The ray runs in the whitened radius in units of
    sqrt(2/((1-m) C1)) (m < 1, to the support edge) or sqrt(2/C1) (m > 1,
    untruncated), and only (1-m) log norm, norm = C0/sqrt(det Sigma), reads
    the scale: log norm is formed from logs (_log_norm), so the entropy
    returns at every scale of normal s1^2 and s2^2.  The estimate adds
    4 eps |shift I|, the rounding of (1-m) log norm, as the 1D entropy does.
    Raises DomainError where s1^2 or s2^2 is not a normal double and where
    the integral is not finite.
    """
    nu.cov  # DomainError where s1^2 or s2^2 is not a normal double
    return _radial_quad("entropy", nu.mparams, _log_norm(nu), 1.0,
                        "one ray in the member's unit frame, ", cfg)


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
    other.  Each member's density and deformed log come once per node
    from its one rounded log-density (_log_density): g log_m g and
    f log_m g read the same log_m g.  The polar rule is centred at f's
    mean (inside both supports when supp f lies inside supp g) and
    whitened by the average of f's and g's scale matrices.  For m < 1 this
    is the honest integral even when the supports are not nested (the
    closed form then differs).  Raises DomainError where a diagonal entry
    of either scale matrix is not a normal double and where the integral
    is not finite.
    """
    cfg = cfg or _DEFAULT_CFG
    if f_biv.m != g_biv.m:
        raise DomainError("relative entropy needs a common exponent m")
    if form not in ("first", "second"):
        raise ValueError(f"form must be 'first' or 'second', got {form!r}")
    m = f_biv.m

    def integrand(log_bf, log_bg):
        fv, lf = _log_density(log_bf, f_biv)
        gv, lg = _log_density(log_bg, g_biv)
        # x log_m y = x (1-m) log_m y / (1-m); the forms' operations in
        # place, each in its order, on the four arrays of the two densities
        lf *= fv
        fv *= lg
        gv *= lg
        if form == "first":
            lf -= gv
            fv -= gv
        else:
            lf += np.multiply(gv, 1.0 - m, out=gv)
        fv *= 2.0 - m
        lf -= fv
        lf /= (1.0 - m) * (2.0 - m)
        return lf

    res = _polar_quad(integrand, [f_biv, g_biv], cfg)
    _finite(res.value, "the relative m-entropy integral")
    return res


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
    objective turns up again.  A bounded Brent search (_bounded_brent,
    scipy.optimize.fminbound's steps) then resolves the vertex to 1e-5 in
    t (and therefore in theta) within one grid step of the best point.
    Raises DomainError when the objective is flat over the grid
    (degenerate family) or the walk reaches a correlation that rounds to
    +-1.
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
    t, f = _bounded_brent(obj, t - dt, t + dt, 1e-5)
    return ThetaMin(theta=math.tanh(t), value=f, converged=converged)


def _bounded_brent(func: Callable[[float], float], a: float, b: float,
                   xatol: float) -> tuple[float, float]:
    """Minimizer of func on [a, b] and its value, by Brent's bounded search
    (Brent 1973, ch. 5): golden-section steps, and parabolic steps through
    the three best points where they shrink.  Step for step the search of
    scipy.optimize.fminbound, whose variable names it keeps (xf is the best
    point, nfc and fulc the second and third best) and whose cap of 500
    evaluations it keeps.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < 500:
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx


def theta_family_minimizer(p_biv: MBivariate, xi1: float, xi2: float) -> float:
    """Analytic minimizer over the theta-family with scales xi1, xi2.

    Solves s(eta) = R = s(theta_P) (xi1 xi2 / (s1 s2))^(2-m) with
    s(e) = e (1 - e^2)^(-(3-m)/2), the stationarity condition of the
    objective minimized by minimize_theta.  With q' = 2/(3-m) it reads
    |eta|^q' / (1 - eta^2) = |R|^q', the coupling equation of the closed
    forms, so its root comes from their own solver
    (functionals._coupling_root, a Newton descent in w = log|eta|), with
    log|R| formed in logs.  eta = sign(R) e^w; below |eta| = 1/2 the
    rounding of log|theta_P| (about |w| eps) would show in eta, so one
    Newton step on log(eta/theta_P) - (3-m)/2 log(1 - eta^2) = log|R| -
    log|theta_P|, which carries only relative roundings, polishes it.  A
    root within half an ulp of 1 rounds to +-1.0.  Raises DomainError
    where xi1/s1, xi2/s2, |R|^q' or the root leaves the double range.
    """
    theta = p_biv.theta
    rho1, rho2 = xi1 / p_biv.s1, xi2 / p_biv.s2
    if not (0.0 < rho1 < math.inf and 0.0 < rho2 < math.inf):
        raise DomainError(f"scale ratios must be positive and finite, got {rho1!r}, {rho2!r}")
    if theta == 0.0:
        return 0.0
    m = p_biv.m
    q = 2.0 / (3.0 - m)
    kappa = 0.5 * (3.0 - m)
    t = abs(theta)
    # log|R| - log t, free of the rounding of log t
    c = (2.0 - m) * (math.log(rho1) + math.log(rho2)) - kappa * (math.log1p(-t) + math.log1p(t))
    log_rhs = q * (math.log(t) + c)
    if not _LOG_DBL_MIN <= log_rhs < _LOG_DBL_MAX:
        raise DomainError(f"|R|^q' = exp({log_rhs!r}) leaves the normal double range")
    w, _ = _coupling_root(log_rhs, math.exp(log_rhs), q, _LOG_DBL_MIN)
    if w < _LOG_DBL_MIN:
        raise DomainError(f"theta-family root below the normal double range for theta={theta!r}")
    eta = math.exp(w)
    # eta/t stays finite for a normal t
    if eta < 0.5 and t >= _DBL_MIN:
        e2 = eta * eta
        phi = math.log(eta / t) - kappa * math.log1p(-e2) - c
        eta -= eta * phi / (1.0 + 2.0 * kappa * e2 / (1.0 - e2))
    return math.copysign(eta, theta)


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
    cfg = cfg or _DEFAULT_CFG
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


def minimize_kh(g0: QGaussian1D, h: float) -> QGaussian1D:
    """Minimizer of K_h(. | g0) over the family, by a bounded Brent search
    (_bounded_brent) on the public functionals.kh.

    K_h is separable in mu: W2^2 = C (sigma - sigma0)^2 + (mu - mu0)^2 and
    the entropy difference reads sigma alone, so the mean's term (mu -
    mu0)^2/(4h) is least at mu = mu0 for every sigma, and the search runs
    over the scale only, at mu = mu0.  It searches the increment d = sigma
    - sigma0 on [-min(w, 0.999 sigma0), w], w = max(0.05 sigma0, 5 h
    b/sigma0), which holds the minimizer: K_h is convex in sigma, and its
    slope is positive at every sigma > sigma0 + h b/sigma0.  With xatol =
    0 Brent's stop is relative to d, so the minimizer is resolved to a
    fraction of its increment however small the step.  Raises DomainError
    where kh does, as for h <= 0.
    """
    p = g0.params
    sigma0 = g0.sigma
    w = max(0.05 * sigma0, 5.0 * h * _entropy_b(p, sigma0) / sigma0)
    d, _ = _bounded_brent(lambda d: kh(QGaussian1D(g0.mu, sigma0 + d, p), g0, h),
                          -min(w, 0.999 * sigma0), w, 0.0)
    return QGaussian1D(mu=g0.mu, sigma=sigma0 + d, params=p)


def support_included(inner: MBivariate, outer: MBivariate, margin: float = 0.0) -> bool:
    """True when the support ellipse of inner lies inside outer's, with
    outer's quadratic form below its threshold by the relative margin.

    Decided exactly, not by sampling.  In outer's whitened frame, inner's
    support ellipse is e + A c over unit vectors c, and the largest value
    of outer's form on it, max |e + A c|^2, is a 2x2 trust-region boundary
    problem (Moré and Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983).  With
    A = U S V^T, h_k = S_k^2 and g_k = S_k |(U^T e)_k|, the maximizer in
    V's basis is c_k = g_k/(mu - h_k), at the root mu >= h_1 of the
    secular equation sum c_k^2 = 1, and the largest value is |e|^2 + mu +
    sum g_k c_k, every term non-negative.  Newton's method on 1/|c(mu)|,
    concave in mu, rises to the root from below, from max_k (h_k + g_k).
    A term with g_k below h_k's rounding adds less than that rounding and
    drops; where every term drops, the root is h_1 (the hard case).  A and e
    are taken in units of outer's support radius, so equal shapes compare
    exactly, and then of the power of two at or below their largest entry,
    so nothing below overflows.  Both exponents must be < 1, and inner's
    s1^2 and s2^2 normal doubles; an entry of A or e past the doubles then
    puts inner's support beyond outer's.
    """
    thr_i = inner.support_threshold()
    thr_o = outer.support_threshold()
    if not (math.isfinite(thr_i) and math.isfinite(thr_o)):
        raise DomainError("support_included needs compactly supported members (m < 1)")
    inner.cov  # DomainError where s1^2 or s2^2 is not a normal double
    root = math.sqrt(1.0 - inner.theta * inner.theta)
    chol = np.array([[inner.s1, 0.0], [inner.theta * inner.s2, root * inner.s2]])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        white = _whitening(outer)
        a = math.sqrt(thr_i / thr_o) * (white @ chol)
        d = (white @ (inner.mean - outer.mean)) / math.sqrt(thr_o)
    if not (np.isfinite(a).all() and np.isfinite(d).all()):
        return False
    unit = math.ldexp(1.0, math.frexp(max(float(np.abs(a).max()), float(np.abs(d).max())))[1] - 1)
    u, s, _ = np.linalg.svd(a / unit)
    e = u.T @ (d / unit)
    terms = [(abs(float(sk * ek)), float(sk * sk)) for sk, ek in zip(s, e)]
    terms = [(gk, hk) for gk, hk in terms if hk + gk > hk]
    h1 = float(s[0] * s[0])
    mu = max([h1] + [hk + gk for gk, hk in terms])
    while mu > h1:
        c2 = [(gk / (mu - hk)) ** 2 for gk, hk in terms]
        norm2 = sum(c2)
        slope = sum(ck2 / (mu - hk) for ck2, (_, hk) in zip(c2, terms))
        # 1/|c| is concave, so each Newton step stays below the root
        after = mu + (math.sqrt(norm2) - 1.0) * norm2 / slope
        if not after > mu:
            break
        mu = after
    largest = float(e @ e) + mu + sum(gk * (gk / (mu - hk)) for gk, hk in terms)
    return largest * unit * unit < 1.0 - margin
