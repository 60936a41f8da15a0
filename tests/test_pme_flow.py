import math

import numpy as np
import pytest

from qflow import oracle
from qflow.pme_flow import (
    barenblatt_density,
    evolve_sigma,
    pde_residual,
    sigma_sq_gap,
    theta_map_1d,
)
from qflow.qgaussian import QGaussian1D
from qflow.qmath import DomainError, make_params

# Reference value computed with 50-digit arithmetic (mpmath).
FROZEN_SIGMA_SQ = 1.0090867918077359  # evolve_sigma(1, 0.01, 0.8)^2


def test_evolve_sigma_frozen():
    s = evolve_sigma(1.0, 0.01, 0.8)
    assert s * s == pytest.approx(FROZEN_SIGMA_SQ, rel=1e-14)


def test_evolve_sigma_at_zero_time():
    for q in (0.5, 1.2):
        assert evolve_sigma(1.3, 0.0, q) == pytest.approx(1.3, rel=1e-15)


def test_semigroup_property():
    rng = np.random.default_rng(777)
    for _ in range(50):
        q = float(rng.uniform(0.05, 1.6))
        s0 = float(rng.uniform(0.3, 3.0))
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = float(rng.uniform(0.0, 2.0))
        direct = evolve_sigma(s0, t1 + t2, q)
        composed = evolve_sigma(evolve_sigma(s0, t1, q), t2, q)
        assert composed == pytest.approx(direct, rel=1e-13)


def test_sigma_sq_gap_no_cancellation():
    # at h = 1e-14 the naive difference sigma_h^2 - sigma0^2 has ~2 digits
    q = 0.8
    h = 1e-14
    gap = sigma_sq_gap(1.0, h, q)
    assert gap == pytest.approx(2.0 * h / (3.0 - q), rel=1e-10)
    naive = evolve_sigma(1.0, h, q) ** 2 - 1.0
    assert abs(naive / gap - 1.0) > 1e-6


@pytest.mark.parametrize("sigma0,h", [(1e300, 0.1), (1e-300, 0.1), (1e-120, 1e300)])
def test_unrepresentable_growth_raises_domain_error(sigma0, h):
    # sigma0^(3-q) overflows, underflows to 0, or h / sigma0^(3-q) overflows
    for fn in (evolve_sigma, sigma_sq_gap):
        with pytest.raises(DomainError):
            fn(sigma0, h, 0.8)


def test_theta_map_consistency():
    for q in (0.5, 0.8, 1.2):
        s0, t = 1.4, 0.9
        v = s0 ** (3.0 - q) + t
        assert theta_map_1d(v, q) == pytest.approx(evolve_sigma(s0, t, q) ** 2, rel=1e-14)
    with pytest.raises(DomainError):
        theta_map_1d(0.0, 0.8)


@pytest.mark.parametrize("q", [0.8, 1.2])
def test_barenblatt_is_family_member(q):
    p = make_params(q, 1)
    t = 0.7
    g = QGaussian1D(mu=0.0, sigma=t ** (1.0 / (3.0 - q)), params=p)
    for x in np.linspace(-3.0, 3.0, 61):
        assert barenblatt_density(t, float(x), p) == pytest.approx(
            g.density(float(x)), rel=1e-13, abs=1e-300
        )
    with pytest.raises(DomainError):
        barenblatt_density(0.0, 1.0, p)


def test_barenblatt_support_radius_frozen():
    # edge sqrt(A/B) t^alpha at t=1; reference from 50-digit arithmetic
    p = make_params(0.8, 1)
    assert math.sqrt(p.A / p.B) == pytest.approx(4.551293154052036, rel=1e-13)
    assert barenblatt_density(1.0, 4.5513, p) == 0.0
    assert barenblatt_density(1.0, 4.5512, p) > 0.0


def test_mass_conserved_along_flow():
    for q in (0.8, 1.2):
        p = make_params(q, 1)
        for t in (0.1, 1.0):
            g = QGaussian1D(mu=0.0, sigma=evolve_sigma(1.0, t, q), params=p)
            assert oracle.mass_quad(g).value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("q", [0.8, 1.2])
def test_pde_residual_small_and_second_order(q):
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(q, 1))
    res = [pde_residual(g0, 0.5, dx, dx * dx) for dx in (0.04, 0.02, 0.01)]
    assert res[0] < 1e-2
    slope = np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(res), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_pde_residual_degenerate_grids():
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(0.8, 1))
    with pytest.raises(DomainError):
        pde_residual(g0, 0.5, 100.0, 0.01)
    with pytest.raises(DomainError):
        pde_residual(g0, 0.01, 0.01, 0.02)
    with pytest.raises(DomainError):
        pde_residual(g0, 0.5, -0.01, 0.01)
