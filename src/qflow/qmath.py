"""Scalar q-calculus and self-similar profile constants.

The deformed exponential/logarithm pair underlying Tsallis entropy:

    exp_q(t) = [1 + (1-q) t]_+^{1/(1-q)},    log_q(t) = (t^(1-q) - 1)/(1-q),

with exp_1 = exp and log_1 = log recovered in the limit.  For q < 1 the
bracket clips to exact 0 at the support edge; for q > 1 the exponent
1/(1-q) is negative and the convention 0^a = +inf (a < 0) applies, so the
pole returns +inf as a value rather than raising.

The porous medium equation d/dt rho = Lap(rho^(2-q)) has the self-similar
solution

    rho(t, x) = [A - B |x|^2 t^(-2 alpha)]_+^(1/(1-q)) * t^(-d alpha),

whose profile is a q-Gaussian once A, B and the scale constant C are chosen
to normalize mass.  ``make_params`` evaluates that constant pipeline:

    alpha = 1 / (d (1-q) + 2),
    C1    = 2 / (2 + (d+2)(1-q)),
    B     = (1-q) alpha / (2 (2-q)),
    A     = C0^(2 alpha (1-q)) * (alpha / ((2-q) C1))^(d alpha (1-q)),
    C     = (2-q) C1 A / alpha,

with C0 the normalization of the unit-scale q-Gaussian (a Gamma-function
ratio).  Parameters are valid on Q_d = (0, 1) u (1, (d+4)/(d+2)), where
the solution has finite mass and second moments.

Gamma-function ratios are evaluated with log-gamma from the standard
library (``math.lgamma``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "QParams",
    "q_domain_upper",
    "in_q_domain",
    "q_exp",
    "q_log",
    "q_log_pow",
    "gamma_ratio",
    "c1_const",
    "c0_const",
    "make_params",
]


class DomainError(ValueError):
    """Raised when an argument leaves the domain a formula is valid on."""


_DBL_MIN = sys.float_info.min
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _finite(value: float, name: str) -> float:
    """value, or DomainError where it is not a finite double."""
    if not math.isfinite(value):
        raise DomainError(f"{name} leaves the double range: {value!r}")
    return value


def _require_int(value: object, least: int, message: str, most: float = math.inf) -> None:
    """DomainError(f"{message}, got {value!r}") unless value is an int in [least, most].

    A bool is not an int here, nor is a float of integral value.
    """
    if isinstance(value, bool) or not (isinstance(value, int) and least <= value <= most):
        raise DomainError(f"{message}, got {value!r}")


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0, stable for large arguments.

    Goes through log-gamma so that arguments of order 1e4 (q near 1) stay
    representable.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"gamma_ratio requires a, b > 0, got {a!r}, {b!r}")
    return math.exp(math.lgamma(a) - math.lgamma(b))


def q_domain_upper(d: int) -> float:
    """Upper endpoint of the admissible exponent range Q_d."""
    return (d + 4.0) / (d + 2.0)


def in_q_domain(q: float, d: int) -> bool:
    """True iff q lies in Q_d = (0, 1) u (1, (d+4)/(d+2))."""
    return 0.0 < q < q_domain_upper(d) and q != 1.0


def q_exp(t: float, q: float) -> float:
    """Deformed exponential exp_q(t) = [1 + (1-q) t]_+^(1/(1-q)).

    Returns exact 0.0 beyond the support edge for q < 1 and +inf at (or
    beyond) the bracket pole for q > 1; overflow of the finite branch also
    saturates to +inf.  q = 1 falls back to exp.
    """
    if q == 1.0:
        try:
            return math.exp(t)
        except OverflowError:
            return math.inf
    om = 1.0 - q
    if 1.0 + om * t <= 0.0:
        return 0.0 if om > 0.0 else math.inf
    e = math.log1p(om * t) / om
    if e > 709.0:
        return math.inf
    return math.exp(e)


def q_log(t: float, q: float) -> float:
    """Deformed logarithm log_q(t) = (t^(1-q) - 1)/(1-q) for t > 0.

    Inverse of q_exp on (0, inf).  Computed as expm1((1-q) ln t)/(1-q) so
    values near t = 1 and q near 1 keep full relative precision.
    """
    if not t > 0.0:
        raise DomainError(f"q_log requires t > 0, got {t!r}")
    if q == 1.0:
        return math.log(t)
    om = 1.0 - q
    try:
        return math.expm1(om * math.log(t)) / om
    except OverflowError:
        return math.inf if om > 0.0 else -math.inf


def q_log_pow(x: float, p: float, q: float) -> float:
    """log_q(x^p) for x > 0, without forming the intermediate power.

    Equals expm1((1-q) p ln x)/(1-q); used where x^p would lose precision
    (p small) or overflow.
    """
    if not x > 0.0:
        raise DomainError(f"q_log_pow requires x > 0, got {x!r}")
    if q == 1.0:
        return p * math.log(x)
    om = 1.0 - q
    try:
        return math.expm1(om * p * math.log(x)) / om
    except OverflowError:
        return math.inf if om > 0.0 else -math.inf


def c1_const(q: float, d: int) -> float:
    """C1(q, d) = 2 / (2 + (d+2)(1-q)).

    Defined and positive for all q < (d+4)/(d+2), which is wider than Q_d:
    the small-step coefficient formulas evaluate it at the conjugate
    exponent m = 3 - 2/q, which can be <= 0.
    """
    den = 2.0 + (d + 2.0) * (1.0 - q)
    if not den > 0.0:
        raise DomainError(f"c1_const requires q < {(d + 4) / (d + 2)}, got q={q!r}")
    return 2.0 / den


def c0_const(q: float, d: int) -> float:
    """Normalization constant C0(q, d) of the unit-scale q-Gaussian.

        q < 1:  Gamma(z + d/2)/Gamma(z) * ((1-q) C1 / (2 pi))^(d/2),
                z = (2-q)/(1-q),
        q > 1:  Gamma(z)/Gamma(z - d/2) * ((q-1) C1 / (2 pi))^(d/2),
                z = 1/(q-1).

    Like c1_const this is evaluable on all q < (d+4)/(d+2) except q = 1
    (the Gamma arguments stay positive there), not only on Q_d.
    """
    if q == 1.0:
        raise DomainError("c0_const is not defined at q = 1")
    c1 = c1_const(q, d)
    if q < 1.0:
        z = (2.0 - q) / (1.0 - q)
        return gamma_ratio(z + d / 2.0, z) * ((1.0 - q) * c1 / (2.0 * math.pi)) ** (d / 2.0)
    z = 1.0 / (q - 1.0)
    return gamma_ratio(z, z - d / 2.0) * ((q - 1.0) * c1 / (2.0 * math.pi)) ** (d / 2.0)


@dataclass(frozen=True)
class QParams:
    """Exponent q, dimension d, and the derived profile constants.

    m is the conjugate exponent 3 - 2/q of the second-order formulation.
    Instances are built by make_params, which restricts q to Q_d before
    the constants pipeline runs; the cached constants re-evaluate from
    (q, d) alone.
    """

    q: float
    d: int
    m: float
    alpha: float
    c1_q_d: float
    c0_q_d: float
    A: float
    B: float
    C: float


def make_params(q: float, d: int) -> QParams:
    """Validate q in Q_d and evaluate the constant pipeline.

    Raises DomainError for q outside (0, 1) u (1, (d+4)/(d+2)) or d < 1,
    and where C0, A or C is not a positive finite double (large d).
    """
    _require_int(d, 1, "d must be a positive integer")
    if not in_q_domain(q, d):
        raise DomainError(
            f"q={q!r} outside Q_{d} = (0, 1) u (1, {q_domain_upper(d)!r})"
        )
    m = 3.0 - 2.0 / q
    # the self-similar scaling exponent; positive on Q_d
    alpha = 1.0 / (d * (1.0 - q) + 2.0)
    c1 = c1_const(q, d)
    om = 1.0 - q
    try:
        c0 = c0_const(q, d)
        big_a = c0 ** (2.0 * alpha * om) * (alpha / ((2.0 - q) * c1)) ** (d * alpha * om)
    except (OverflowError, ZeroDivisionError):
        c0 = big_a = math.nan
    big_b = om * alpha / (2.0 * (2.0 - q))
    big_c = (2.0 - q) * c1 * big_a / alpha
    if not (0.0 < c0 < math.inf and 0.0 < big_a < math.inf and 0.0 < big_c < math.inf):
        raise DomainError(f"C0, A or C of q={q!r}, d={d!r} is not a positive finite double")
    return QParams(q=q, d=d, m=m, alpha=alpha, c1_q_d=c1, c0_q_d=c0, A=big_a, B=big_b, C=big_c)
