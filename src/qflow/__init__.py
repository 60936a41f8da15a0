"""Wasserstein gradient-flow structure of the porous medium equation
restricted to the q-Gaussian family.

Exact semigroup, minimizing-movement (JKO) functionals, and the small-step
expansion of the rate functional, all in closed form with quadrature
oracles for cross-checking.
"""

from .qmath import (
    DomainError,
    QParams,
    make_params,
    q_exp,
    q_log,
)
from .qgaussian import (
    MBivariate,
    OutsideVerifiedRangeError,
    QGaussian1D,
    SupportInterval,
)
from .pme_flow import barenblatt_density, evolve_sigma, theta_map_1d
from .functionals import (
    GammaCoefficients,
    coefficients,
    entropy_diff,
    f_h,
    f_limit,
    jh,
    jko_step,
    kh,
    q0h,
    qstar,
    rescaled_first,
    rescaled_second,
    rescaled_third,
    wasserstein2_sq,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "QParams",
    "make_params",
    "q_exp",
    "q_log",
    "MBivariate",
    "OutsideVerifiedRangeError",
    "QGaussian1D",
    "SupportInterval",
    "barenblatt_density",
    "evolve_sigma",
    "theta_map_1d",
    "GammaCoefficients",
    "coefficients",
    "entropy_diff",
    "f_h",
    "f_limit",
    "jh",
    "jko_step",
    "kh",
    "q0h",
    "qstar",
    "rescaled_first",
    "rescaled_second",
    "rescaled_third",
    "wasserstein2_sq",
    "__version__",
]
