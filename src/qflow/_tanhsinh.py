"""Tanh-sinh quadrature over many intervals at once, as arrays.

The radial rule of the 2D polar oracle.  Rule and schedule are those of
scipy.integrate.tanhsinh (Takahasi and Mori, 1974; Bailey's error
estimate), so each integral, error estimate and convergence flag is
scipy's; the nodes and weights are this module's own tables, built at
import, and a whole block of intervals runs as one array instead of
scipy's per-call elementwise machinery.  The oracle imports this module
at its first polar integral, so importers that never integrate in 2D do
not compile it or touch numpy's cosh, sinh and exp (about 1 MB of
resident memory).
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


_LEVELS = [_level(k) for k in range(MAX_LEVEL + 1)]
# levels 0..MIN_LEVEL are evaluated together, in level order; the nodes of
# levels 0..k are the first _NODES[k] of each side
_FIRST = tuple(np.concatenate(part) for part in zip(*_LEVELS[: MIN_LEVEL + 1]))
_NODES = np.cumsum([len(x) for x, _ in _LEVELS])


def tanhsinh(
    f: Callable[..., np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    args: tuple[np.ndarray, ...],
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of f over the intervals [lo, hi], per interval.

    lo < hi elementwise, hi finite or inf.  f(x, *args) is elementwise,
    with one row of x per interval and args as column arrays.  [a, inf)
    maps to [0, 1] by x = a + 1/t - 1 with weight 1/t^2.  Levels
    0..MIN_LEVEL are evaluated in one call of f, and each further level,
    up to MAX_LEVEL, only on the intervals not yet converged.  At level k
    the estimate S_k stops when its error estimate (Bailey's, from
    S_k - S_(k-1), S_k - S_(k-2), the largest term and the outermost valid
    term at each end) is below atol or rtol |S_k|.  A non-finite term is
    replaced by the value at the outermost valid node of its side; a
    non-finite S_k ends its interval unconverged.  Returns the integrals,
    their error estimates and the convergence flags.
    """
    binf = np.isinf(hi)
    any_inf = bool(binf.any())
    a, b = np.where(binf, 0.0, lo), np.where(binf, 1.0, hi)
    alpha = (b - a) / 2
    n = len(lo)
    # abscissa t, value and weight of the outermost valid node of each side
    # (the right side's is its largest t, the left side's its least)
    ext_t = np.tile([-np.inf, np.inf], (n, 1))
    ext_f = np.full((n, 2), np.nan)
    ext_w = np.zeros((n, 2))

    def terms(rows, xjc, wj):
        """Weighted terms (row, side, node) of some levels and the largest end term."""
        al, col = alpha[rows, None], (rows, None, None)
        t = np.stack([b[rows, None] - al * xjc, al * xjc + a[rows, None]], axis=1)
        w = np.where((t <= a[col]) | (t >= b[col]), 0.0, (wj * al)[:, None])
        arg = tuple(v[col] for v in args)
        if any_inf:
            fj = f(np.where(binf[col], 1.0 / t - 1.0 + lo[col], t), *arg)
            fj = np.where(binf[col], fj * t**-2.0, fj)
        else:
            fj = f(t, *arg)
        valid = np.isfinite(fj) & (w != 0.0)
        out = np.where(valid, t, np.array([-np.inf, np.inf])[:, None])
        i = np.stack([out[:, 0].argmax(-1), out[:, 1].argmin(-1)], axis=-1)[..., None]
        t_i = np.take_along_axis(out, i, -1)[..., 0]
        new = np.stack([t_i[:, 0] > ext_t[rows, 0], t_i[:, 1] < ext_t[rows, 1]], axis=-1)
        r, side = np.nonzero(new)
        ext_t[rows[r], side] = t_i[new]
        ext_f[rows[r], side] = np.take_along_axis(fj, i, -1)[..., 0][new]
        ext_w[rows[r], side] = np.take_along_axis(w, i, -1)[..., 0][new]
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
    # log(0), 0 * inf and overflow past the ends are expected here (and in f
    # far out on a ray): such terms are masked, as in scipy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fw, d4 = terms(rows, *_FIRST)
        # S_k = h_k (sum of the terms of levels 0..k), for k = MIN_LEVEL - 2..MIN_LEVEL,
        # each summed in scipy's order
        s2, prev, integral = (fw[:, :, : _NODES[k]].reshape(n, -1).sum(-1) * (_H0 / 2**k)
                              for k in range(MIN_LEVEL - 2, MIN_LEVEL + 1))
        rows = judge(rows, integral, prev, s2, fw, d4)
        for k in range(MIN_LEVEL + 1, MAX_LEVEL + 1):
            if not len(rows):
                break
            fw, d4 = terms(rows, *_LEVELS[k])
            s2, s1 = prev[rows], integral[rows]
            s = 0.5 * s1 + fw.reshape(len(rows), -1).sum(-1) * (_H0 / 2**k)
            prev[rows], integral[rows] = s1, s
            rows = judge(rows, s, s1, s2, fw, d4)
    return integral, err, conv
