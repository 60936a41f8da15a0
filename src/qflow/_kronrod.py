"""Gauss-Kronrod quadrature over one half-line of a 1D q-Gaussian, the
algebraic-weight rule for heavy tails, and the same rule at weight 1 on
the finite pieces of the 2D oracle's rays.

The rule of the 1D oracle.  Each subinterval gets QUADPACK's qk21: the
21-point Kronrod extension of the 10-point Gauss rule, with QUADPACK's
error estimate from the two (Piessens et al., 1983).  The integrands
are functions of the member's bracket b = 1 + (1-q) t, t = -c1 u^2/2
in scale units u, so the half-line is mapped once per branch, every
subinterval of a call is one array, and the partitions' nodes are
tabulated at their first use:

* compact members (q < 1) run over y = u/edge in [0, 1], edge =
  sqrt(2/((1-q) c1)), where b = 1 - y^2 vanishes like (1-y)^(1/(1-q)).
  The map y = sin((pi/2)(1 - (1-x)^2)), x in [0, 1], raises that
  contact to (1-x)^(4/(1-q) + 3), so the edge needs no subdivision.
  The core, of width about sqrt(1-q) in y, gets dyadic subintervals
  [2^-j, 2^-(j-1)] of x down to one about as wide as it;
* heavy tails (q > 1) run over z = u sqrt(c1/2), where b = 1 + (q-1)
  z^2, mapped by z = 1/tau - 1 onto tau in (0, 1].  The four dyadic
  pieces [2^-(k+1), 2^-k] of [1/16, 1] get qk21, and (0, 1/16] the tail
  rule below: with b = P(tau)/tau^2, P = tau^2 + (q-1)(1-tau)^2 > 0, a
  weight growing like z^(2p) makes the integrand tau^s times a function
  analytic at 0, s = 2/(q-1) - 2 - 2p.

The tail rule, tail(), integrates any F = tau^s A(tau) over (0, 1/16]
whose A is analytic there: it also takes the 2D oracle's heavy-tailed
rays past r = 15.  It interpolates A's integer-power part at 27
first-kind Chebyshev nodes, none of them at tau = 0, and integrates the
interpolant against the weight tau^sigma, sigma = s - max(0, floor(s))
in (-1, 1), through the modified Chebyshev moments of QUADPACK's qmomo.
The error estimate comes from the interpolant's last two coefficients.

finite() runs that rule at sigma = 0, the weight 1, on every finite
piece of a 2D ray, so every piece of every ray and every 1D tail is one
interpolatory rule with weight tau^sigma.  A row that misses its
tolerance halves the pieces above their share of it, for a fixed number
of rounds; where a compact support or a far member's peak ends a piece,
the map t = (1 - cos(pi x))/2 crowds the nodes at its ends.  Such a row
starts on the halves of [0, 1], whose mapped nodes are one table.

half_line()'s partition is fixed by q and the weight before anything is
evaluated, so a call is one qk21 sweep and one tail rule; where it
misses the tolerance, the result is reported unconverged.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
# qk21 abscissae on [-1, 1] (x_0 > ... > x_10 = 0) and the Kronrod weights;
# the Gauss weights belong to x_1, x_3, ..., x_9
_X = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
      0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
      0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
      0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
      0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525478160, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array([-x for x in _X[:-1]] + list(_X[::-1]))
_WK = np.array(_WGK[:-1] + _WGK[::-1])
_WG21 = np.zeros(21)
_WG21[1:10:2], _WG21[11:20:2] = _WG, _WG[::-1]
_W = np.stack([_WK, _WG21], axis=1)

# Core subintervals of a compact member: the first, [0, 2^-j] in x, is at
# most sqrt(1-q)/_CORE wide, about twice the core's width sqrt(1-q)/pi
_CORE = 1.5
# The tail rule's interval (0, TAIL_END] in tau and its nodes, tau_j =
# TAIL_END cos(theta_j/2)^2 for the first-kind Chebyshev angles theta_j
TAIL_END = 1.0 / 16.0
_THETA = [(j + 0.5) * (math.pi / 27) for j in range(27)]
TAIL_TAU = np.array([TAIL_END * math.cos(0.5 * t) ** 2 for t in _THETA])
# log(TAIL_END/tau_j), and the matrix taking the values at the nodes to the
# interpolant's Chebyshev coefficients in x = 2 tau/TAIL_END - 1 (built with
# math: an importer that never integrates does not page in numpy's cos and log)
_LOG_RATIO = np.array([-2.0 * math.log(math.cos(0.5 * t)) for t in _THETA])
_CHEB = np.array([[math.cos(k * t) * (2.0 / 27) for t in _THETA] for k in range(27)])
_CHEB[0] *= 0.5
_LOG_END = math.log(1.0 / TAIL_END)


def _nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk21 nodes (subinterval, node) of the subintervals [lo, hi] and
    their half widths as a column."""
    h = 0.5 * (hi - lo)[:, None]
    return 0.5 * (lo + hi)[:, None] + h * _NODES, h


def _edge_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """log b, y^2 and dy/dx times the half width at the nodes of [lo, hi]
    in x, with y = sin(phi), phi = (pi/2)(1 - (1-x)^2) and b = cos(phi)^2.

    pi/2 - phi is formed as (pi/2)(1-x)^2, so b keeps its relative
    accuracy at the edge; where phi < pi/4, log b comes from
    log1p(-2 sin(phi/2)^2), so it keeps it at the centre too.
    """
    x, h = _nodes(lo, hi)
    w = 1.0 - x
    phi = (0.5 * math.pi) * x * (1.0 + w)
    cos_phi = np.sin((0.5 * math.pi) * w * w)
    log_b = 2.0 * np.where(phi < 0.25 * math.pi,
                           np.log1p(-2.0 * np.sin(0.5 * phi) ** 2), np.log(cos_phi))
    y = np.sin(phi)
    return log_b, y * y, (math.pi * w * cos_phi) * h


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, locked: every call shares a cached partition's."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _edge_partition(j: int) -> tuple[np.ndarray, ...]:
    """Nodes of [0, 2^-j], [2^-j, 2^-(j-1)], ..., [1/2, 1] in x."""
    ends = np.concatenate([[0.0], 2.0 ** -np.arange(j, -1, -1.0)])
    return _read_only(*_edge_nodes(ends[:-1], ends[1:]))


@lru_cache(maxsize=None)
def _tail_partition() -> tuple[np.ndarray, ...]:
    """z^2 and dz/dtau, z = (1 - tau)/tau, at the nodes of the dyadic
    pieces [2^-(i+1), 2^-i] in tau, i < 4, times the half width, and then
    at the tail rule's nodes, flat."""
    hi = 2.0 ** -np.arange(4.0)
    tau, h = _nodes(0.5 * hi, hi)
    tau = np.concatenate([tau.ravel(), TAIL_TAU])
    z = (1.0 - tau) / tau
    return _read_only(z * z, np.concatenate([np.repeat(h.ravel(), 21), np.ones(27)]) / (tau * tau))


def _qk21(fh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod integral and QUADPACK's error estimate per subinterval from
    the weighted values fh (subinterval, node) of its integrand.

    With K and G the Kronrod and Gauss integrals, the estimate is
    asc min(1, (200 |K - G| / asc)^1.5), at least 50 eps |f|-integral,
    where asc integrates |f - K/(2h)|.
    """
    kg = fh @ _W
    k = kg[:, 0]
    asc = np.abs(fh - 0.5 * k[:, None]) @ _WK
    ratio = np.minimum(200.0 * np.abs(k - kg[:, 1]), asc)
    ratio /= asc + _TINY
    return k, np.maximum(asc * ratio**1.5, (50.0 * _EPS) * (np.abs(fh) @ _WK))


@lru_cache(maxsize=64)
def _tail_rows(sigma: float) -> tuple[np.ndarray, float]:
    """The tail rule's weights on F for the weight tau^sigma and the rows
    giving the interpolant's last two coefficients c_25 and c_26 from F,
    each with TAIL_END^(sigma+1) / tau^sigma folded in, as a (3, node)
    array, and r_0.  Cached: every 1D integral of one q and weight reads
    one sigma, and so does every 2D tail of one m (the entropy's ray and
    each radial call of a two-member integral); finite() reads sigma = 0 on
    every piece."""
    r0 = 1.0 / (sigma + 1.0)
    r = [r0, r0 * sigma / (sigma + 2.0)]
    for k in range(2, 27):
        r.append(-(1.0 + k * (k - sigma - 2.0) * r[-1]) / ((k - 1.0) * (k + sigma + 1.0)))
    rows = np.concatenate([[np.dot(r, _CHEB)], _CHEB[-2:]])
    rows *= TAIL_END * np.exp(sigma * _LOG_RATIO)
    return _read_only(rows)[0], r0


def tail(fa: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over tau in (0, TAIL_END] of F = tau^s A(tau), s > -1,
    with A analytic there, from F's values fa (row, node) at TAIL_TAU, and
    their error estimates.

    F/tau^sigma, sigma = s - max(0, floor(s)) in (-1, 1), is A times an
    integer power of tau: its interpolant at the nodes is integrated
    against tau^sigma by the modified moments r_k = int (1+x)^sigma T_k(x)
    dx / 2^(sigma+1) on [-1, 1], from qmomo's recurrence (Piessens et al.,
    1983) divided by 2^(sigma+1), which keeps them within [-1/(sigma+1),
    1/(sigma+1)].  The estimate is 2 r_0 (|c_25| + |c_26|), from the
    interpolant's last coefficients c_k, plus eps (|s| + 4)(1/(s+1) +
    log 16) |I|, the change of I under the rounding of an exponent of
    that size.  Where floor(s) is large the integer power is more than
    the interpolant resolves (at s = 195 it reads 2e-3 off), and the
    estimate says so; such a tail is 16^-s of F's scale.  Each row is
    summed on its own, so a block of rows gives each row's bits.
    """
    rows, r0 = _tail_rows(s - max(0.0, math.floor(s)))
    value, c25, c26 = (fa[:, None, :] * rows).sum(-1).T
    err = (2.0 * r0) * (np.abs(c25) + np.abs(c26))
    err += _EPS * (abs(s) + 4.0) * (1.0 / (s + 1.0) + _LOG_END) * np.abs(value)
    return value, err


# finite()'s pieces: the tail rule's nodes as fractions of a piece, the
# x-ends of an uncrowded row's first pieces (the 1D heavy partition's
# tau-pieces on the core [1/16, 1]), and the caps on bisection rounds and
# on pieces per row
_FRAC = TAIL_TAU / TAIL_END
_CORE_X = np.array([0.0, 1.0, 3.0, 7.0, 15.0]) / 15.0
_ROUNDS = 16
_PIECES = 512


def _crowd_map(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = sin(pi x/2)^2 and dt/dx = pi sin(pi x/2) cos(pi x/2) at x, the
    cosine as sin(pi (1 - x)/2): 1 - x is exact for x >= 1/2, so the
    Jacobian keeps its relative accuracy at both ends of the row."""
    s, c = np.sin((0.5 * math.pi) * x), np.sin((0.5 * math.pi) * (1.0 - x))
    return s * s, math.pi * s * c


@lru_cache(maxsize=None)
def _crowd_halves() -> np.ndarray:
    """_crowd_map at the nodes of the halves [0, 1/2] and [1/2, 1] of x,
    where every crowded row starts, as a (map, half, node) array."""
    return _read_only(np.stack(_crowd_map(0.5 * np.arange(2.0)[:, None] + 0.5 * _FRAC)))[0]


def _pieces(f, lo, span, args, crowd, row, x0, dx, half=None):
    """Integrals of f over the pieces [x0, x0 + dx] in x of the rows row,
    their estimates and their |f|-integrals, by the tail rule at sigma = 0.

    A crowded row's nodes go through _crowd_map.  Where half is given, the
    index of each piece among its row's first pieces, a crowded row reads
    the map from the table of its two halves (_crowd_halves) instead."""
    on = crowd[row]
    if half is not None and on.all():
        # every row crowded, on its first pieces: the table holds every node
        t, dt = _crowd_halves()[:, half]
    else:
        t, dt = x0[:, None] + dx[:, None] * _FRAC, 1.0
        if on.any():
            dt = np.ones_like(t)
            t[on], dt[on] = _crowd_map(t[on]) if half is None else _crowd_halves()[:, half[on]]
    jac = span[row, None]
    fv = f(lo[row, None] + jac * t, *(v[row, None] for v in args)) * (jac * dt)
    rows, _ = _tail_rows(0.0)
    scale = dx / TAIL_END
    value, c25, c26 = np.einsum("pj,kj->kp", fv, rows) * scale
    return value, 2.0 * (np.abs(c25) + np.abs(c26)), np.einsum("pj,j->p", np.abs(fv), rows[0]) * scale


def finite(
    f: Callable[..., np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    args: tuple[np.ndarray, ...],
    rtol: float,
    atol: float,
    crowd: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of f over the finite intervals [lo, hi], per row, and their
    error estimates and convergence flags.

    lo < hi elementwise.  f(t, *args) is elementwise, with one row of t per
    piece and args as column arrays.  Each row runs in x in [0, 1]: where
    crowd is set, t = lo + (hi - lo)(1 - cos(pi x))/2, whose nodes crowd at
    both ends, and the row starts on the halves of [0, 1], whose map is
    read from a table (_crowd_halves); elsewhere t = lo + (hi - lo) x, and
    the row starts on the pieces between _CORE_X, graded toward lo.  Each
    piece gets the tail rule at sigma = 0: 27 first-kind Chebyshev nodes,
    none at its ends, and the estimate 2 (|c_25| + |c_26|).

    A row converges where its summed estimate is at most the largest of
    atol, rtol |I| and 50 eps times its |f|-integral, the rounding floor of
    QUADPACK's qk21.  Until then, each of its pieces whose estimate is
    above its share of that bound, by width, is halved, for up to _ROUNDS
    rounds and _PIECES pieces.  Where the halves' estimate stays within
    1000 eps of their |f|-integral and does not fall below half their
    piece's, it measures f's rounding, not the rule's error, and it is then
    at most their change, |halves - piece|.  A row whose integral is not
    finite stops unconverged.

    A row's pieces are summed in their order along it, so each row's
    results depend on its own row alone: a block of rows gives the same
    bits as each row run alone.
    """
    n, span = len(lo), hi - lo
    count = np.where(crowd, 2, 4)
    row = np.repeat(np.arange(n), count)
    j = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    x0 = np.where(crowd[row], 0.5 * j, _CORE_X[j])
    dx = np.where(crowd[row], 0.5, _CORE_X[j + 1] - _CORE_X[j])
    value, error, conv = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    # log(0), 0 * inf and overflow are expected in f (far out on a ray)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val, err, mag = _pieces(f, lo, span, args, crowd, row, x0, dx, j)
        for rounds in range(_ROUNDS + 1):
            # the rows still running, each a run of pieces from starts
            starts = np.cumsum(count) - count
            r = row[starts]
            value[r], error[r] = np.add.reduceat(val, starts), np.add.reduceat(err, starts)
            bound = np.maximum(np.maximum(atol, rtol * np.abs(value[r])),
                               (50.0 * _EPS) * np.add.reduceat(mag, starts))
            conv[r] = error[r] <= bound
            if rounds == _ROUNDS or conv[r].all():
                break
            seg = np.repeat(np.arange(len(r)), count)
            split = (err > bound[seg] * dx) & (~conv[r] & np.isfinite(value[r]))[seg]
            halved = np.add.reduceat(split, starts, dtype=int)
            # a row goes on while it halves a piece and stays within the cap
            go = (halved > 0) & (count + halved <= _PIECES)
            if not go.any():
                break
            split &= go[seg]
            # each piece of a row that goes on stays in place, or makes way
            # for its two halves
            reps = go[seg] + split.astype(int)
            at = np.cumsum(reps)[split] - 2
            half = 0.5 * dx[split]
            kids = (np.repeat(row[split], 2), np.stack([x0[split], x0[split] + half], -1).ravel(),
                    np.repeat(half, 2))
            kids_val, kids_err, kids_mag = _pieces(f, lo, span, args, crowd, *kids)
            pair_val, pair_err = kids_val.reshape(-1, 2).sum(-1), kids_err.reshape(-1, 2).sum(-1)
            change = np.abs(pair_val - val[split])
            floor = ((pair_err >= 0.5 * err[split]) & (change < pair_err)
                     & (pair_err <= (1000.0 * _EPS) * kids_mag.reshape(-1, 2).sum(-1)))
            kids_err.reshape(-1, 2)[floor] *= (change[floor] / pair_err[floor])[:, None]
            idx = np.repeat(np.arange(len(row)), reps)
            row, x0, dx, val, err, mag = (v[idx] for v in (row, x0, dx, val, err, mag))
            at = np.stack([at, at + 1], -1).ravel()
            x0[at], dx[at], val[at], err[at], mag[at] = *kids[1:], kids_val, kids_err, kids_mag
            count = (count + halved)[go]
    return value, error, conv


def half_line(
    integrand: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    om: float,
    power: int,
    atol: float,
    rtol: float,
) -> tuple[float, float, str | None]:
    """Integral over the half-line of a member with 1 - q = om.

    integrand(log_b, s2, jh) returns the weighted integrand jh f at node
    arrays, where s2 is y^2 (compact) or z^2 (heavy tail), b = 1 - om s2
    and jh the map's Jacobian, times the half width on a qk21 piece; f
    may grow like s2^power, which sets the tail's exponent.  The answer
    converges where its estimate is at most max(atol, rtol |I|).  Returns
    the integral over y or z, its error estimate and None, or a message
    when it did not converge.
    """
    if om > 0.0:
        log_b, s2, jh = _edge_partition(max(1, math.ceil(math.log2(_CORE / math.sqrt(om)))))
        values, errors = _qk21(integrand(log_b, s2, jh))
        value, err = float(values.sum()), float(errors.sum())
    else:
        s2, jh = _tail_partition()
        fh = integrand(np.log1p(-om * s2), s2, jh)
        n = len(TAIL_TAU)
        values, errors = _qk21(fh[:-n].reshape(-1, 21))
        rest, rest_err = tail(fh[None, -n:], -2.0 / om - 2.0 - 2.0 * power)
        value, err = float(values.sum()) + float(rest[0]), float(errors.sum()) + float(rest_err[0])
    if err <= max(atol, rtol * abs(value)):
        return value, err, None
    return value, err, "the partition's error estimate did not reach the tolerance"
