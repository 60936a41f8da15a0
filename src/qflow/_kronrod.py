"""One interpolatory quadrature rule: 27 first-kind Chebyshev nodes with
the weight tau^sigma, on the half-lines of the one-member integrals, on
the heavy tails of those and of the two-member rays, and at weight 1 on
every finite piece.

The tail rule, tail(), integrates any F = tau^s A(tau) over (0, 1/16]
whose A is analytic there.  It interpolates A's integer-power part at 27
first-kind Chebyshev nodes, none of them at tau = 0, and integrates the
interpolant against the weight tau^sigma, sigma = s - max(0, floor(s))
in (-1, 1), through the modified Chebyshev moments of QUADPACK's qmomo.
The error estimate comes from the interpolant's last two coefficients.

At sigma = 0, the weight 1, the same rule integrates every finite piece
(_rule, the one per-piece evaluation): its nodes are the same fractions
of the piece, and its estimate is 2 (|c_25| + |c_26|) (Trefethen, SIAM
Rev. 50, 2008, on why such an interpolatory rule gives up nothing to
Gauss-Kronrod).

Every one-member integral is one half_line(): the 1D oracle's mass,
moment and entropy, and the 2D entropy, whose member is radial in its
own frame.  Their integrands are functions of the member's bracket b =
1 + (1-q) t, t = -c1 u^2/2 in scale units u (in 2D, u is the whitened
radius), so the half-line is mapped once per branch onto a partition
fixed by q and the weight, tabulated at its first use, and a call is one
sweep of _rule over every piece as one array (and one tail rule on a
heavy tail):

* compact members (q < 1) run over y = u/edge in [0, 1], edge =
  sqrt(2/((1-q) c1)), where b = 1 - y^2 vanishes like (1-y)^(1/(1-q)).
  The map y = sin((pi/2)(1 - (1-x)^2)), x in [0, 1], raises that
  contact to (1-x)^(4/(1-q) + 3), so the edge needs no subdivision.
  The core, of width about sqrt(1-q) in y, gets dyadic pieces
  [2^-j, 2^-(j-1)] of x down to one about as wide as it;
* heavy tails (q > 1) run over z = u sqrt(c1/2), where b = 1 + (q-1)
  z^2, mapped by z = 1/tau - 1 onto tau in (0, 1].  The four dyadic
  pieces [2^-(k+1), 2^-k] of [1/16, 1] get _rule, each cut in two where
  2/(q-1) > 15 (there the member is near-Gaussian in z), and (0, 1/16]
  the tail rule: with b = P(tau)/tau^2, P = tau^2 + (q-1)(1-tau)^2 > 0, a
  weight growing like z^(2p) makes the integrand tau^s times a function
  analytic at 0, s = 2/(q-1) - 2 - 2p (p = 3/2 for the 2D entropy: its
  weight log_q f grows like z^2, and the radius adds z).

A half-line converges by its own sweep's estimate, or else by finite()'s
tests on its pieces and its tail; one that misses both is reported
unconverged.

finite() runs only the two-member rays of the 2D polar rule (H_m).  A row
that misses its tolerance halves the pieces above their share of it, for
a fixed number of rounds; where a compact support or a far member's peak
ends a piece, the map t = (1 - cos(pi x))/2 crowds the nodes at its
ends.  Every row starts on fixed pieces of x in [0, 1], so the first
round of a call is one integrand call on node tables built at their
first use: _crowd_halves holds the mapped nodes and dt/dx on the halves
of [0, 1], where crowded rows start, and _core_nodes the nodes on the
pieces between _CORE_X, where the others start.  Where every row starts
alike, its table is broadcast against the rows' ends, and rows on one
interval (the heavy rays with no far peak, all on tau in [1/16, 1])
share one array of nodes.  The rule's contractions call einsum's C core,
and its estimates are formed in place.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np

try:
    # einsum's C core: np.einsum's Python wrapper costs as much as a small contraction
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

_EPS = sys.float_info.epsilon
# Core pieces of a compact member: the first, [0, 2^-j] in x, is at most
# sqrt(1-q)/_CORE wide, about twice the core's width sqrt(1-q)/pi
_CORE = 1.5
# The tail rule's interval (0, TAIL_END] in tau and its nodes, tau_j =
# TAIL_END cos(theta_j/2)^2 for the first-kind Chebyshev angles theta_j;
# as fractions of a piece, they are every finite piece's nodes
TAIL_END = 1.0 / 16.0
_THETA = [(j + 0.5) * (math.pi / 27) for j in range(27)]
TAIL_TAU = np.array([TAIL_END * math.cos(0.5 * t) ** 2 for t in _THETA])
_FRAC = TAIL_TAU / TAIL_END
# log(TAIL_END/tau_j), and the matrix taking the values at the nodes to the
# interpolant's Chebyshev coefficients in x = 2 tau/TAIL_END - 1 (built with
# math: an importer that never integrates does not page in numpy's cos and log)
_LOG_RATIO = np.array([-2.0 * math.log(math.cos(0.5 * t)) for t in _THETA])
_CHEB = np.array([[math.cos(k * t) * (2.0 / 27) for t in _THETA] for k in range(27)])
_CHEB[0] *= 0.5
_LOG_END = math.log(1.0 / TAIL_END)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, locked: every call shares a cached partition's."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _edge_partition(j: int) -> tuple[np.ndarray, ...]:
    """log b, y^2 and dy/dx at the nodes (piece, node) of the pieces [0,
    2^-j], [2^-j, 2^-(j-1)], ..., [1/2, 1] in x, with y = sin(phi), phi =
    (pi/2)(1 - (1-x)^2) and b = cos(phi)^2, and the pieces' widths over
    TAIL_END.

    pi/2 - phi is formed as (pi/2)(1-x)^2, so b keeps its relative
    accuracy at the edge; where phi < pi/4, log b comes from
    log1p(-2 sin(phi/2)^2), so it keeps it at the centre too.
    """
    ends = np.concatenate([[0.0], 2.0 ** -np.arange(j, -1, -1.0)])
    width = ends[1:] - ends[:-1]
    x = ends[:-1, None] + width[:, None] * _FRAC
    w = 1.0 - x
    phi = (0.5 * math.pi) * x * (1.0 + w)
    cos_phi = np.sin((0.5 * math.pi) * w * w)
    log_b = 2.0 * np.where(phi < 0.25 * math.pi,
                           np.log1p(-2.0 * np.sin(0.5 * phi) ** 2), np.log(cos_phi))
    y = np.sin(phi)
    return _read_only(log_b, y * y, math.pi * w * cos_phi, width / TAIL_END)


@lru_cache(maxsize=None)
def _tail_partition(cuts: int) -> tuple[np.ndarray, ...]:
    """z^2 and dz/dtau, z = (1 - tau)/tau, at the nodes (piece, node) of
    the dyadic pieces [2^-(i+1), 2^-i] in tau, i < 4, each cut into cuts
    equal pieces, and then of the tail rule, and the pieces' widths over
    TAIL_END."""
    width = ((0.5 / cuts) * 2.0 ** -np.arange(4.0)).repeat(cuts)
    lo = (cuts + np.tile(np.arange(cuts), 4)) * width
    tau = np.concatenate([lo[:, None] + width[:, None] * _FRAC, TAIL_TAU[None]])
    z = (1.0 - tau) / tau
    return _read_only(z * z, 1.0 / (tau * tau), width / TAIL_END)


@lru_cache(maxsize=64)
def _tail_rows(sigma: float) -> tuple[np.ndarray, float]:
    """The tail rule's weights on F for the weight tau^sigma and the rows
    giving the interpolant's last two coefficients c_25 and c_26 from F,
    each with TAIL_END^(sigma+1) / tau^sigma folded in, as a (3, node)
    array, and r_0.  Cached: every half-line of one q and weight reads one
    sigma, and so does every radial call of a two-member integral of one
    m; _rule reads sigma = 0 on every piece."""
    r0 = 1.0 / (sigma + 1.0)
    r = [r0, r0 * sigma / (sigma + 2.0)]
    rk = r[-1]
    for k in range(2, 27):
        rk = -(1.0 + k * (k - sigma - 2.0) * rk) / ((k - 1.0) * (k + sigma + 1.0))
        r.append(rk)
    rows = _CHEB[-3:].copy()
    rows[0] = np.dot(r, _CHEB)
    rows *= TAIL_END * np.exp(sigma * _LOG_RATIO)
    return _read_only(rows)[0], r0


def tail(fa: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over tau in (0, TAIL_END] of F = tau^s A(tau), s > -1,
    with A analytic there, from F's values fa (row, node) at TAIL_TAU, and
    their error estimates; for one row of values fa (node), two scalars.

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
    value, c25, c26 = np.add.reduce(fa[..., None, :] * rows, axis=-1).T
    err = (2.0 * r0) * (abs(c25) + abs(c26))
    err += _EPS * (abs(s) + 4.0) * (1.0 / (s + 1.0) + _LOG_END) * abs(value)
    return value, err


# finite()'s pieces: the x-ends of an uncrowded row's first pieces (the 1D
# heavy partition's tau-pieces on the core [1/16, 1]), and the caps on
# bisection rounds and on pieces per row
_CORE_X = np.array([0.0, 1.0, 3.0, 7.0, 15.0]) / 15.0
_CORE_DX = _CORE_X[1:] - _CORE_X[:-1]
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


@lru_cache(maxsize=None)
def _core_nodes() -> np.ndarray:
    """The nodes x of the pieces between _CORE_X, where every uncrowded row
    starts, as a (piece, node) array."""
    return _read_only(_CORE_X[:-1, None] + _CORE_DX[:, None] * _FRAC)[0]


def _rule(fv: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Integrals of the pieces whose integrand, times the Jacobian, reads fv
    (piece, node) at the nodes, their estimates 2 (|c_25| + |c_26|) and
    their |f|-integrals, as the rows of one (3, piece) array, by the tail
    rule at sigma = 0: scale is each piece's width over TAIL_END.  The one
    per-piece evaluation of the package's finite pieces."""
    rows, _ = _tail_rows(0.0)
    out = c_einsum("pj,kj->kp", fv, rows)
    out *= scale
    # rows taken by index: unpacking iterates the array, at about 0.5 us
    err, c26 = out[1], out[2]
    np.abs(err, out=err)
    err += np.abs(c26, out=c26)
    err *= 2.0
    # the |f|-integrals take c_26's row
    c_einsum("pj,j->p", np.abs(fv), rows[0], out=c26)
    c26 *= scale
    return out


def _pieces(f, lo, span, args, crowd, row, x0, dx, half=None):
    """Integrals of f over the pieces [x0, x0 + dx] in x of the rows row,
    their estimates and their |f|-integrals, by the tail rule at sigma = 0.

    A crowded row's nodes go through _crowd_map, on the whole array where
    every row is crowded.  Where half is given, the index of each piece
    among its row's first pieces, and every row is crowded or none is, the
    nodes come from the table of their first pieces (_crowd_halves or
    _core_nodes), broadcast against the rows' ends with no per-piece
    gather, and rows on one interval share one array of nodes: f gets a
    (1, piece, node) t and (row, 1, 1) args.  The tables hold the bits that
    x0 + dx frac and its map give."""
    if half is not None and crowd.all() == crowd.any():
        t, dt = _crowd_halves() if crowd[0] else (_core_nodes(), 1.0)
        jac = span[:, None, None]
        one = (lo == lo[0]).all() and (span == span[0]).all()
        base, width = (lo[:1, None, None], jac[:1]) if one else (lo[:, None, None], jac)
        fv = f(base + width * t, *(v[:, None, None] for v in args)) * (jac * dt)
        return _rule(fv.reshape(-1, len(_FRAC)), dx / TAIL_END)
    on = crowd[row]
    t, dt = x0[:, None] + dx[:, None] * _FRAC, 1.0
    if on.all():
        t, dt = _crowd_map(t)
    elif on.any():
        dt = np.ones_like(t)
        t[on], dt[on] = _crowd_map(t[on])
    jac = span[row, None]
    fv = f(lo[row, None] + jac * t, *(v[row, None] for v in args)) * (jac * dt)
    return _rule(fv, dx / TAIL_END)


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
    error estimates and convergence flags: the two-member rays of the 2D
    polar rule (every one-member integral is a half_line()).

    lo < hi elementwise.  f(t, *args) is elementwise and broadcasts: t
    holds the nodes with one row per piece, or a (row, piece, node) array
    in the first round, and args are column arrays of a matching shape.
    Each row runs in x in [0, 1]: where crowd is set, t = lo + (hi -
    lo)(1 - cos(pi x))/2, whose nodes crowd at both ends, and the row
    starts on the halves of [0, 1]; elsewhere t = lo + (hi - lo) x, and the
    row starts on the pieces between _CORE_X, graded toward lo.  The first
    round reads its nodes from the tables of those pieces (_pieces), one
    integrand call for every row.  Each piece gets _rule, the tail rule at
    sigma = 0: 27 first-kind Chebyshev nodes, none at its ends, and the
    estimate 2 (|c_25| + |c_26|).

    A row converges where its summed estimate is at most the largest of
    atol, rtol |I| and 50 eps times its |f|-integral, the rounding floor
    that half_line() puts on each piece's estimate.  Until then, each of
    its pieces whose estimate is above its share of that bound, by width,
    is halved, for up to _ROUNDS rounds and _PIECES pieces.  Where the
    halves' estimate stays within 1000 eps of their |f|-integral and does
    not fall below half their piece's, it measures f's rounding, not the
    rule's error, and it is then at most their change, |halves - piece|.
    A row whose integral is not finite stops unconverged.

    A row's pieces are summed in their order along it, so each row's
    results depend on its own row alone: a block of rows gives the same
    bits as each row run alone.
    """
    n, span = len(lo), hi - lo
    count = np.where(crowd, 2, 4)
    starts = count.cumsum() - count
    row = np.arange(n).repeat(count)
    j = np.arange(len(row)) - starts[row]
    on = crowd[row]
    x0, dx = np.where(on, 0.5 * j, _CORE_X[j]), np.where(on, 0.5, _CORE_DX[j])
    value, error, conv = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    # log(0), 0 * inf and overflow are expected in f (far out on a ray)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val, err, mag = _pieces(f, lo, span, args, crowd, row, x0, dx, j)
        for rounds in range(_ROUNDS + 1):
            # the rows still running, r, each a run of pieces from starts
            r = row[starts]
            v, e = np.add.reduceat(val, starts), np.add.reduceat(err, starts)
            bound = np.maximum(np.maximum(atol, rtol * np.abs(v)),
                               (50.0 * _EPS) * np.add.reduceat(mag, starts))
            done = e <= bound
            value[r], error[r], conv[r] = v, e, done
            if rounds == _ROUNDS or done.all():
                break
            seg = np.arange(len(r)).repeat(count)
            split = (err > bound[seg] * dx) & (~done & np.isfinite(v))[seg]
            halved = np.add.reduceat(split, starts, dtype=int)
            # a row goes on while it halves a piece and stays within the cap
            go = (halved > 0) & (count + halved <= _PIECES)
            if not go.any():
                break
            split &= go[seg]
            # each piece of a row that goes on stays in place, or makes way
            # for its two halves, which start at x0 and x0 + dx/2
            reps = go[seg] + split.astype(int)
            at = reps.cumsum()[split] - 2
            half = 0.5 * dx[split]
            kids = (row[split].repeat(2), x0[split].repeat(2), half.repeat(2))
            kids[1][1::2] += half
            kids_val, kids_err, kids_mag = _pieces(f, lo, span, args, crowd, *kids)
            pair_val = np.add.reduce(kids_val.reshape(-1, 2), -1)
            pair_err = np.add.reduce(kids_err.reshape(-1, 2), -1)
            change = np.abs(pair_val - val[split])
            floor = ((pair_err >= 0.5 * err[split]) & (change < pair_err)
                     & (pair_err <= (1000.0 * _EPS) * np.add.reduce(kids_mag.reshape(-1, 2), -1)))
            if floor.any():
                kids_err.reshape(-1, 2)[floor] *= (change[floor] / pair_err[floor])[:, None]
            idx = np.arange(len(row)).repeat(reps)
            row, x0, dx, val, err, mag = (a[idx] for a in (row, x0, dx, val, err, mag))
            at = at.repeat(2)
            at[1::2] += 1
            x0[at], dx[at], val[at], err[at], mag[at] = *kids[1:], kids_val, kids_err, kids_mag
            count = (count + halved)[go]
            starts = count.cumsum() - count
    return value, error, conv


def half_line(
    integrand: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    om: float,
    power: float,
    atol: float,
    rtol: float,
) -> tuple[float, float, str | None]:
    """Integral over the half-line of a member with 1 - q = om, in 1D or,
    radially, in 2D.

    integrand(log_b, s2, jac) returns the integrand f times the map's
    Jacobian jac at node arrays (piece, node), where s2 is y^2 (compact) or
    z^2 (heavy tail) and b = 1 - om s2; f may grow like s2^power, which sets
    the tail's exponent (a half-integer power where a 2D radius adds
    sqrt(s2)).  The heavy partition is halved where 2/(q-1) > 15: there
    the coarse pieces' estimates are hundreds of times their errors.
    Each finite piece's estimate is at least 50 eps of its |f|-integral,
    the rounding of the sum, and the answer converges where its estimate
    is at most max(atol, rtol |I|).  Where it is not, the answer still
    converges where the pieces and the tail each pass finite()'s tests:
    the pieces' summed estimate, without that floor, is at most the
    largest of atol, rtol |pieces| and 50 eps R, R the integral of |f| (1 +
    |log b/om|), which counts the rounding that exp(log b/om) carries next
    to q = 1; and the tail's estimate is at most max(atol, rtol max(|tail|,
    max |piece|)), as a two-member ray's tail is judged.  Either way the
    estimate is the floored one.  Returns the integral over y or z, its
    error estimate and None, or a message when it did not converge.
    """
    if om > 0.0:
        log_b, s2, jac, scale = _edge_partition(max(1, math.ceil(math.log2(_CORE / math.sqrt(om)))))
        fv = integrand(log_b, s2, jac)
        out = _rule(fv, scale)
        rest = rest_err = 0.0
    else:
        # the pieces are halved where 2/(q-1) > 15
        s2, jac, scale = _tail_partition(2 if om > -2.0 / 15.0 else 1)
        log_b = np.log1p(-om * s2)
        fv = integrand(log_b, s2, jac)
        out = _rule(fv[:-1], scale)
        rest, rest_err = tail(fv[-1], -2.0 / om - 2.0 - 2.0 * power)
    # each piece's estimate, floored, takes its |f|-integral's row
    errors, mags = out[1], out[2]
    np.maximum(errors, np.multiply(mags, 50.0 * _EPS, out=mags), out=mags)
    pieces, raw, floored = np.add.reduce(out, axis=1).tolist()
    value, err = pieces + float(rest), floored + float(rest_err)
    if err <= max(atol, rtol * abs(value)):
        return value, err, None
    # finite()'s tests, on the pieces and the tail apart
    n = len(scale)
    weight = np.abs(fv[:n]) * (1.0 + np.abs(log_b[:n] / om))
    rounding = float(c_einsum("pj,j,p->", weight, _tail_rows(0.0)[0][0], scale))
    if (raw <= max(atol, rtol * abs(pieces), 50.0 * _EPS * rounding)
            and rest_err <= max(atol, rtol * max(abs(rest), float(np.abs(out[0]).max())))):
        return value, err, None
    return value, err, "the partition's error estimate did not reach the tolerance"
