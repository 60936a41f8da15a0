"""Tanh-sinh quadrature over many finite intervals at once, as arrays.

The radial rule of the 2D polar oracle.  Its schedule and error estimate
are scipy.integrate.tanhsinh's (Takahasi and Mori, 1974; Bailey's error
estimate), on this module's own node table, and a whole block of
intervals runs as one array instead of scipy's per-call elementwise
machinery.  The intervals are finite: the oracle hands heavy-tailed
rays' tails to qflow._kronrod's tail rule.  A row keeps only the nodes
whose complement 1 - x is at least 2^-53, about half of them: the others
round onto the upper end, with weight 0, or lie within 2^-53 alpha of
the lower one.  Its integrals agree with scipy's within 1e-14 relative,
not bit for bit.

The oracle imports this module at its first polar integral, so
importers that never integrate in 2D do not compile it or touch numpy's
cosh, sinh and exp.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

# First level allowed to stop: the error estimate of levels 2 and 3 can
# pass on polar rays whose mass sits off the whitened unit scale.
MIN_LEVEL = 4
# Last level (scipy's default); an interval not converged there is reported unconverged.
MAX_LEVEL = 10
_EPS = sys.float_info.epsilon
# Level-0 step: 1/8 of the t where the node complement 1 - tanh((pi/2) sinh t)
# falls to 4x the least normal double.
_H0 = math.asinh(math.log(2.0 / (4.0 * sys.float_info.min) - 1.0) / math.pi) / 8


def _level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complements 1 - x_j and weights of the nodes new at level k.

    Nodes x_j = tanh((pi/2) sinh(j h)) on [-1, 1], h = _H0 / 2^k: level 0
    holds j = 0..8, level k > 0 the odd j up to 8 2^k.  The rule counts the
    centre node on both sides, so its weight is halved.
    """
    jh = (np.arange(9) if k == 0 else np.arange(1, 8 * 2**k + 1, 2)) * (_H0 / 2**k)
    u1, u2 = 0.5 * np.pi * np.cosh(jh), 0.5 * np.pi * np.sinh(jh)
    with np.errstate(over="ignore"):
        wj = u1 / np.cosh(u2) ** 2
        xjc = 1.0 / (np.exp(u2) * np.cosh(u2))
    if k == 0:
        wj[0] /= 2
    return xjc, wj


def _stages(levels: list[tuple[np.ndarray, np.ndarray]]) -> tuple[list, np.ndarray]:
    """The nodes of each call of f, and the count nodes[k] of levels 0..k
    per side.  Stage 0 holds levels 0..MIN_LEVEL in level order, so levels
    0..k are its first nodes[k] nodes; each further level k is stage
    k - MIN_LEVEL."""
    stages = [tuple(np.concatenate(part) for part in zip(*levels[: MIN_LEVEL + 1])),
              *levels[MIN_LEVEL + 1 :]]
    return stages, np.cumsum([len(x) for x, _ in levels])


_LEVELS = [_level(k) for k in range(MAX_LEVEL + 1)]
# the nodes at least 2^-53 alpha from both ends, a prefix of each level
_STAGES, _NODES = _stages([(xjc[xjc >= 2.0**-53], wj[xjc >= 2.0**-53]) for xjc, wj in _LEVELS])


_SIDES = np.array([0, 1])
_OUTSIDE = np.array([[-np.inf], [np.inf]])


def tanhsinh(
    f: Callable[..., np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    args: tuple[np.ndarray, ...],
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of f over the finite intervals [lo, hi], per interval.

    lo < hi elementwise.  f(x, *args) is elementwise, with one row of x per
    interval and args as column arrays.  A row's nodes lie at least 2^-53
    (hi - lo)/2 from both ends, so f must be bounded near the ends: an
    integrable singularity there is cut at that distance (x^-1/2 on [0, 1]
    reads 2 - 1.5e-8), reported converged.

    Levels 0..MIN_LEVEL are evaluated in one call of f, and each further
    level, up to MAX_LEVEL, only on the intervals not yet converged.  At
    level k the estimate S_k stops when its error estimate (Bailey's,
    from S_k - S_(k-1), S_k - S_(k-2), the largest term and the
    outermost valid term at each end) is below atol or rtol |S_k|.  A
    non-finite term is replaced by the value at the outermost valid node
    of its side; a non-finite S_k ends its interval unconverged.  Returns
    the integrals, their error estimates and the convergence flags.

    Each interval's results depend on its own row alone, so a block of
    intervals gives the same bits as each interval run alone.
    """
    n = len(lo)
    alpha = (hi - lo) / 2
    # abscissa t, value and weight of the outermost valid node of each side
    # (the right side's is its largest t, the left side's its least)
    ext_t = np.tile([-np.inf, np.inf], (n, 1))
    ext_f = np.full((n, 2), np.nan)
    ext_w = np.zeros((n, 2))

    def terms(rows, stage):
        """Weighted terms (row, side, node) of a stage and the largest end term."""
        col = (rows, None, None)
        xjc, wj = _STAGES[stage]
        al = alpha[rows, None]
        t = np.stack([hi[rows, None] - al * xjc, al * xjc + lo[rows, None]], axis=1)
        w = np.where((t <= lo[col]) | (t >= hi[col]), 0.0, (wj * al)[:, None])
        fj = f(t, *(v[col] for v in args))
        valid = np.isfinite(fj) & (w != 0.0)
        out = np.where(valid, t, _OUTSIDE)
        r = np.arange(len(rows))[:, None]
        i = np.stack([out[:, 0].argmax(-1), out[:, 1].argmin(-1)], axis=-1)
        t_i = out[r, _SIDES, i]
        new = np.stack([t_i[:, 0] > ext_t[rows, 0], t_i[:, 1] < ext_t[rows, 1]], axis=-1)
        r_new, side = np.nonzero(new)
        ext_t[rows[r_new], side] = t_i[new]
        ext_f[rows[r_new], side] = fj[r, _SIDES, i][new]
        ext_w[rows[r_new], side] = w[r, _SIDES, i][new]
        fw = np.where(valid, fj, ext_f[rows, :, None]) * w
        return fw, np.abs(ext_f[rows] * ext_w[rows]).max(axis=-1)

    def judge(rows, s, s1, s2, fw, d4):
        """Bailey's error estimate of S_k; returns the rows that go on."""
        d1, d2, d3 = np.abs(s - s1), np.abs(s - s2), _EPS * np.abs(fw).max(axis=(1, 2))
        temp = np.where(d1 > 0.0, d1 ** (np.log(d1) / np.log(d2)), 0.0)
        aerr = np.clip(np.maximum(np.maximum(temp, d1 * d1), np.maximum(d3, d4)),
                       _EPS * np.abs(s), d1)
        done = (aerr / np.abs(s) < rtol) | (aerr < atol)
        err[rows], conv[rows] = aerr, done
        return rows[~done & np.isfinite(s)]

    err, conv = np.full(n, np.nan), np.zeros(n, dtype=bool)
    rows = np.arange(n)
    # log(0), 0 * inf and overflow are expected in f (far out on a ray):
    # such terms are masked, as in scipy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fw, d4 = terms(rows, 0)
        # S_k = h_k (sum of the terms of levels 0..k), for k = MIN_LEVEL - 2..MIN_LEVEL,
        # each summed in scipy's order
        s2, prev, integral = (fw[:, :, : _NODES[k]].reshape(n, -1).sum(-1) * (_H0 / 2**k)
                              for k in range(MIN_LEVEL - 2, MIN_LEVEL + 1))
        rows = judge(rows, integral, prev, s2, fw, d4)
        for k in range(MIN_LEVEL + 1, MAX_LEVEL + 1):
            if not len(rows):
                break
            fw, d4 = terms(rows, k - MIN_LEVEL)
            s2, s1 = prev[rows], integral[rows]
            s = 0.5 * s1 + fw.reshape(len(rows), -1).sum(-1) * (_H0 / 2**k)
            prev[rows], integral[rows] = s1, s
            rows = judge(rows, s, s1, s2, fw, d4)
    return integral, err, conv
