"""q-Gaussian densities in one and two dimensions and their entropies.

One-dimensional family, parametrized by a shape scale sigma (the actual
variance is C sigma^2 with C the profile constant):

    f(x) = C0 / sqrt(C sigma^2) * exp_q(-C1 (x - mu)^2 / (2 C sigma^2)).

For q < 1 the support is the interval |x - mu| < sqrt(2 C sigma^2 /
((1-q) C1)); for q >= 1 it is the whole line with a power tail
f ~ |x|^(-2/(q-1)).

Two-dimensional family with exponent m, raw scale matrix
Sigma = [[s1^2, th s1 s2], [th s1 s2, s2^2]]:

    nu(x, y) = C0(m,2) / (s1 s2 sqrt(1-th^2))
               * exp_m(-(1/2) C1(m,2) <z - mean, Sigma^(-1) (z - mean)>).

The closed-form entropy expressions evaluated here are the difference of
m-entropies E_m(rho) = integral rho log_m rho between members with equal
means, and the relative m-entropy

    H_m(f || g) = (1/(2-m)) integral [f log_m f - g log_m g
                                      - (2-m) log_m(g) (f - g)],

both reduced to determinants, traces and a single deformed logarithm.
For m < 1 the closed relative entropy represents the integral only when
supp f lies inside supp g; callers on the compact branch must ensure
inclusion (the quadrature oracle checks it geometrically).  The bivariate
functions raise DomainError where a diagonal entry of a scale matrix or a
determinant is not a normal double, and the closed forms where their value
is not finite; the relative entropy also where LAPACK finds Sigma_b
singular or an intermediate of its trace or quadratic form overflows.  The
densities raise DomainError only where their peak or normalization exceeds
the double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import (
    _DBL_MIN,
    DomainError,
    QParams,
    _finite,
    in_q_domain,
    make_params,
    q_domain_upper,
    q_exp,
    q_log_pow,
)

__all__ = [
    "OutsideVerifiedRangeError",
    "SupportInterval",
    "QGaussian1D",
    "MBivariate",
    "make_bivariate",
    "entropy_diff_closed",
    "m_rel_entropy_closed",
]


class OutsideVerifiedRangeError(DomainError):
    """Exponent outside the range where the closed forms are established."""


@dataclass(frozen=True)
class SupportInterval:
    """Closed-form support of a 1d density: [lo, hi], infinite ends allowed."""

    lo: float
    hi: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class QGaussian1D:
    """q-Gaussian N_q(mu, C sigma^2) in shape-scale parametrization.

    sigma is the scale parameter; the second moment about mu is exactly
    C sigma^2 (params.C).  params must be a d=1 parameter set; mu and
    sigma must be finite.
    """

    mu: float
    sigma: float
    params: QParams

    def __post_init__(self) -> None:
        if self.params.d != 1:
            raise DomainError(f"QGaussian1D needs d=1 params, got d={self.params.d}")
        if not 0.0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")

    @property
    def variance(self) -> float:
        return self.params.C * self.sigma * self.sigma

    @property
    def scale(self) -> float:
        return math.sqrt(self.variance)

    def support(self) -> SupportInterval:
        q = self.params.q
        if q >= 1.0:
            return SupportInterval(-math.inf, math.inf)
        r = math.sqrt(2.0 * self.variance / ((1.0 - q) * self.params.c1_q_d))
        return SupportInterval(self.mu - r, self.mu + r)

    def peak_density(self) -> float:
        """C0 / sqrt(C sigma^2); DomainError where it exceeds the double range.

        Formed in units of sigma where C sigma^2 is not a normal double or
        twice it overflows.
        """
        v = self.variance
        if _DBL_MIN <= v and 2.0 * v < math.inf:
            return self.params.c0_q_d / self.scale
        return _finite(self.params.c0_q_d / math.sqrt(self.params.C) / self.sigma,
                       "the peak density")

    def density(self, x: float) -> float:
        """Pointwise density; DomainError where the peak density exceeds the
        double range.

        peak * exp_q(-w) with w = C1 (x - mu)^2 / (2 C sigma^2), formed from
        C sigma^2 where it is a normal double, twice it is finite and w is
        finite; elsewhere w is formed in units of sigma.  Where exp_q(-w)
        underflows under a peak above 1 the product is taken from logs, and
        past the overflow of w the bracket 1 + (q-1) w of a heavy tail is
        taken as (q-1) w, from log|x - mu|: its 1 is below the rounding.
        """
        p = self.params
        q = p.q
        v = self.variance
        dx = x - self.mu
        peak = self.peak_density()
        w = p.c1_q_d * dx * dx / (2.0 * v) if _DBL_MIN <= v and 2.0 * v < math.inf else math.inf
        if w == math.inf:
            z = dx / self.sigma / math.sqrt(p.C)
            w = 0.5 * p.c1_q_d * z * z
        e = q_exp(-w, q)
        if e >= _DBL_MIN or peak <= 1.0 or (q - 1.0) * w <= -1.0:
            return peak * e
        if w < math.inf:
            log_bracket = math.log1p((q - 1.0) * w)
        else:
            log_bracket = (math.log(0.5 * (q - 1.0) * p.c1_q_d / p.C)
                           + 2.0 * (math.log(abs(dx)) - math.log(self.sigma)))
        return math.exp(math.log(peak) - log_bracket / (q - 1.0))


@dataclass(frozen=True)
class MBivariate:
    """Bivariate m-Gaussian with raw scales s1, s2 and correlation theta.

    The scale matrix is Sigma = [[s1^2, th s1 s2], [th s1 s2, s2^2]]; for
    m < 3/2 second moments are finite (a multiple of Sigma).  mparams must
    be a d=2 parameter set whose q is the exponent m; the means and scales
    must be finite.
    """

    mu1: float
    mu2: float
    s1: float
    s2: float
    theta: float
    mparams: QParams

    def __post_init__(self) -> None:
        if self.mparams.d != 2:
            raise DomainError(f"MBivariate needs d=2 params, got d={self.mparams.d}")
        if not (0.0 < self.s1 < math.inf and 0.0 < self.s2 < math.inf):
            raise DomainError(f"scales must be positive and finite, got {self.s1!r}, {self.s2!r}")
        if not (math.isfinite(self.mu1) and math.isfinite(self.mu2)):
            raise DomainError(f"means mu1, mu2 must be finite, got {self.mu1!r}, {self.mu2!r}")
        if not -1.0 < self.theta < 1.0:
            raise DomainError(f"theta must lie in (-1, 1), got {self.theta!r}")

    @property
    def m(self) -> float:
        return self.mparams.q

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2])

    @property
    def cov(self) -> np.ndarray:
        """Sigma; DomainError where s1^2 or s2^2 is not a normal double."""
        v1, v2 = self.s1 * self.s1, self.s2 * self.s2
        if not (_DBL_MIN <= v1 < math.inf and _DBL_MIN <= v2 < math.inf):
            raise DomainError(f"s1^2 = {v1!r} or s2^2 = {v2!r} is not a normal double")
        off = self.theta * self.s1 * self.s2
        return np.array([[v1, off], [off, v2]])

    @property
    def det_cov(self) -> float:
        """det Sigma; DomainError where it is not a normal double."""
        try:
            det = (self.s1 * self.s2) ** 2 * (1.0 - self.theta * self.theta)
        except OverflowError:
            det = math.inf
        if not _DBL_MIN <= det < math.inf:
            raise DomainError(f"det Sigma = {det!r} is not a normal double")
        return det

    def support_threshold(self) -> float:
        """Bound R^2 with support = {<z-mean, Sigma^(-1)(z-mean)> < R^2}.

        +inf for m >= 1 (full plane).
        """
        m = self.m
        if m >= 1.0:
            return math.inf
        return 2.0 / ((1.0 - m) * self.mparams.c1_q_d)

    def quadratic_form(self, x, y):
        """<z - mean, Sigma^(-1) (z - mean)>, elementwise on arrays.

        Summed in whitened coordinates u and w, so far points give +inf.
        Where u overflows, w = v - th u can be inf - inf; the form is at
        least u^2 = inf there.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            u = (x - self.mu1) / self.s1
            v = (y - self.mu2) / self.s2
            th = self.theta
            w = v - th * u
            uu = u * u
            return np.fmax(uu, uu + w * w / (1.0 - th * th))

    def density(self, x, y):
        """Pointwise density, elementwise on arrays (0.0 off a compact support).

        DomainError where the normalization C0 / (s1 s2 sqrt(1 - th^2))
        exceeds the double range.
        """
        th = self.theta
        den = self.s1 * self.s2 * math.sqrt(1.0 - th * th)
        norm = _finite(self.mparams.c0_q_d / den if den else math.inf, "the normalization")
        om = 1.0 - self.m
        # exp_m(-w) = [1 - (1-m) w]_+^(1/(1-m)), the scalar q_exp on arrays;
        # far points overflow w to +inf and get density 0
        with np.errstate(divide="ignore", over="ignore"):
            w = 0.5 * self.mparams.c1_q_d * self.quadratic_form(x, y)
            return norm * np.exp(np.log1p(np.maximum(-om * w, -1.0)) / om)


def make_bivariate(
    mu1: float, mu2: float, s1: float, s2: float, theta: float, m: float
) -> MBivariate:
    """Build a bivariate m-Gaussian, restricting m to the verified range.

    Raises OutsideVerifiedRangeError for m outside (0, 1) u (1, 3/2): there
    either normalization or second moments fail and none of the closed
    entropy formulas are established.
    """
    if not in_q_domain(m, 2):
        raise OutsideVerifiedRangeError(
            f"m={m!r} outside the verified range (0, 1) u (1, {q_domain_upper(2)!r}) "
            "for bivariate m-Gaussians"
        )
    return MBivariate(mu1=mu1, mu2=mu2, s1=s1, s2=s2, theta=theta, mparams=make_params(m, 2))


def _spd_det(mat: np.ndarray, d: int, name: str) -> float:
    """det mat of a symmetric positive definite scale matrix, d <= 2.

    Formed from the entries on Python floats, a for d = 1 and ae - bc for
    d = 2, so it carries a few eps of error at any scale; where ae
    overflows, as a(e - b(c/a)), so a nearly singular matrix with a normal
    determinant keeps it.  Either form's relative error is at most about
    ae/det eps.  At d <= 2 a
    symmetric matrix with a positive diagonal and a positive determinant
    is positive definite.  Raises DomainError for d > 2, where mat is not
    symmetric, an entry is not finite or a diagonal entry not a normal
    double, and where the determinant is not a normal double.
    """
    if d > 2:
        raise DomainError(f"{name}: the closed form takes d <= 2, got d={d}")
    if mat.shape != (d, d):
        raise DomainError(f"{name} must have shape ({d}, {d}), got {mat.shape}")
    if not (np.isfinite(mat).all() and (np.diagonal(mat) >= _DBL_MIN).all()):
        raise DomainError(f"{name} needs finite entries and normal diagonal entries")
    if d == 1:
        det = float(mat[0, 0])
    else:
        (a, b), (c, e) = mat.tolist()
        # np.allclose(mat, mat.T) at rtol 1e-12, atol 0, on the two floats it reads
        if not (abs(b - c) <= 1e-12 * abs(c) and abs(c - b) <= 1e-12 * abs(b)):
            raise DomainError(f"{name} must be symmetric")
        det = a * e - b * c if math.isfinite(a * e) else a * (e - b * (c / a))
    if not _DBL_MIN <= det < math.inf:
        raise DomainError(f"{name} needs a positive normal determinant, got {det!r}")
    return det


def entropy_diff_closed(mp: QParams, det_sigma: float, det_v: float) -> float:
    """E_m(N_m(mu, Sigma)) - E_m(N_m(mu, V)) from the determinants alone.

        (2-m) C1(m,d) (C0(m,d) / det(V)^(1/2))^(1-m)
            * log_m(det(V)^(1/2) / det(Sigma)^(1/2)).

    The mean drops out of the difference.  Raises DomainError where a
    determinant is not a normal double or the difference is not finite.
    """
    if not (_DBL_MIN <= det_sigma < math.inf and _DBL_MIN <= det_v < math.inf):
        raise DomainError("determinants must be normal doubles")
    m = mp.q
    pref = math.exp((1.0 - m) * (math.log(mp.c0_q_d) - 0.5 * math.log(det_v)))
    return _finite((2.0 - m) * mp.c1_q_d * pref * q_log_pow(det_v / det_sigma, 0.5, m),
                   "the m-entropy difference")


def m_rel_entropy_closed(mp, mu_a, sigma_a, mu_b, sigma_b) -> float:
    """Relative m-entropy H_m(N_m(mu_a, Sigma_a) || N_m(mu_b, Sigma_b)).

        (1/2) C1(m,d) (C0(m,d)/det(Sigma_b)^(1/2))^(1-m)
        * [tr(Sigma_b^-1 Sigma_a) + <mu_a - mu_b, Sigma_b^-1 (mu_a - mu_b)>
           + 2 log_m(det(Sigma_b)^(1/2) / det(Sigma_a)^(1/2)) - d].

    Scalars are accepted for d = 1.  Nonnegative, and 0 exactly at equal
    arguments.  For m < 1 it agrees with the defining integral only when
    supp of the first argument is contained in supp of the second.  Raises
    DomainError for d > 2, where a scale matrix is not symmetric positive
    definite, an entry of one is not finite or a diagonal entry not a
    normal double, a determinant is not a normal double, or the value is
    not finite.
    """
    d = mp.d
    m = mp.q
    mu_a = np.atleast_1d(np.asarray(mu_a, dtype=float))
    mu_b = np.atleast_1d(np.asarray(mu_b, dtype=float))
    sig_a = np.atleast_2d(np.asarray(sigma_a, dtype=float))
    sig_b = np.atleast_2d(np.asarray(sigma_b, dtype=float))
    if mu_a.shape != (d,) or mu_b.shape != (d,):
        raise DomainError(f"means must have shape ({d},)")
    det_a = _spd_det(sig_a, d, "sigma_a")
    det_b = _spd_det(sig_b, d, "sigma_b")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            inv_b = np.linalg.inv(sig_b)
        except np.linalg.LinAlgError:
            raise DomainError("sigma_b is singular to working precision") from None
        prod = inv_b @ sig_a
        dmu = mu_a - mu_b
        half = dmu @ inv_b
        quad = float(half @ dmu)
    if not (np.isfinite(prod).all() and np.isfinite(half).all() and math.isfinite(quad)):
        raise DomainError("an intermediate of the trace or the quadratic form is not finite")
    tr = float(np.trace(prod))
    pref = math.exp((1.0 - m) * (math.log(mp.c0_q_d) - 0.5 * math.log(det_b)))
    bracket = tr + quad + 2.0 * q_log_pow(det_b / det_a, 0.5, m) - d
    return _finite(0.5 * mp.c1_q_d * pref * bracket, "the relative m-entropy")
