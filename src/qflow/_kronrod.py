"""Gauss-Kronrod quadrature over one half-line of a 1D q-Gaussian.

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
  z^2, mapped by z = 1/tau - 1 onto tau in (0, 1] and cut into the
  dyadic pieces [2^-(k+1), 2^-k].  A weight growing like z^(2p) then
  decays like tau^(gamma-1) at tau = 0, gamma = 2/(q-1) - 1 - 2p, so
  each piece is about 2^-gamma times the last.  Where gamma >= 2.5 the
  pieces reach 2^-56 of the first, and one last subinterval (0, 2^-k]
  takes the rest.  Nearer q = 5/3 the pieces shrink too slowly
  (2^-0.006 per piece for the second moment at q = 1.666), so Wynn's
  epsilon algorithm (Wynn, 1956) extrapolates their partial sums, as
  QUADPACK's qagi does.

The partition is fixed by q and the weight before anything is
evaluated, so a call is one qk21 sweep; where it misses the tolerance,
the result is reported unconverged.
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
# Tail pieces reach 2^-_TAIL_BITS of the first where gamma >= _DIRECT_GAMMA
_TAIL_BITS = 56.0
_DIRECT_GAMMA = 2.5
# Wynn's epsilon runs on the last _WYNN_SUMS partial sums of _WYNN_PIECES
# pieces (2^-28 of tau is z = 2.7e8): enough for the default tolerance up
# to q = 1.666 at every scale, not always at q = 1.6666
_WYNN_PIECES, _WYNN_SUMS = 28, 12


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
def _tail_partition(k: int, rest: bool) -> tuple[np.ndarray, ...]:
    """z^2 and dz/dtau times the half width, z = (1 - tau)/tau, at the
    nodes of the dyadic pieces [2^-(i+1), 2^-i] in tau, i < k; with rest,
    the last piece is (0, 2^-(k-1)] instead."""
    hi = 2.0 ** -np.arange(k, dtype=float)
    lo = 0.5 * hi
    if rest:
        lo[-1] = 0.0
    tau, h = _nodes(lo, hi)
    z = (1.0 - tau) / tau
    return _read_only(z * z, h / (tau * tau))


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


def _spread(col: list[float]) -> float:
    last = col[-1]
    return abs(last - col[-2]) + abs(last - col[-3]) + abs(last - col[-4])


def _wynn(sums: list[float]) -> tuple[float, float]:
    """Limit of the partial sums by Wynn's epsilon algorithm, and its error.

    The even columns of the epsilon table hold the extrapolated sums; the
    answer is the last entry of the column whose last four entries spread
    least, and its error that spread.  The table stops at a zero
    difference: the column before it has converged.  It does not stop at
    a small spread, which a slow component of small weight (the entropy's
    at tiny scales near q = 5/3) can show long before it has converged.
    """
    best, spread = sums[-1], _spread(sums)
    prev, col = [0.0] * (len(sums) + 1), sums
    for k in range(1, len(sums) - 3):
        diffs = [b - a for a, b in zip(col, col[1:])]
        if 0.0 in diffs:
            break
        prev, col = col, [p + 1.0 / d for p, d in zip(prev[1:], diffs)]
        if k % 2 == 0 and (s := _spread(col)) < spread:
            best, spread = col[-1], s
    return best, spread


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
    and jh the map's Jacobian times the half width; f may grow like
    s2^power, which sets the decay of the tail pieces.  The answer
    converges where its estimate is at most max(atol, rtol |I|).  Returns
    the integral over y or z, its error estimate and None, or a message
    when it did not converge.
    """
    sums = 0
    if om > 0.0:
        log_b, s2, jh = _edge_partition(max(1, math.ceil(math.log2(_CORE / math.sqrt(om)))))
    else:
        gamma = -2.0 / om - 1.0 - 2.0 * power
        if gamma >= _DIRECT_GAMMA:
            k = 4 * math.ceil((5.0 + _TAIL_BITS / gamma) / 4.0)
        else:
            k, sums = _WYNN_PIECES, _WYNN_SUMS
        s2, jh = _tail_partition(k, not sums)
        log_b = np.log1p(-om * s2)
    values, errors = _qk21(integrand(log_b, s2, jh))
    if sums:
        # the partial sums restart at the first one the table reads, so
        # their differences keep the relative accuracy of the pieces
        value, x_err = _wynn(np.cumsum(values[-sums:]).tolist())
        value += float(values[:-sums].sum())
    else:
        value, x_err = float(values.sum()), 0.0
    err = x_err + float(errors.sum())
    tol = max(atol, rtol * abs(value))
    if err <= tol:
        return value, err, None
    if sums and x_err >= tol:
        return value, err, "the tail extrapolation did not reach the tolerance"
    return value, err, "the partition's error estimate did not reach the tolerance"
