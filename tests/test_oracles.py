"""Answer-level oracles of the coupled solver from the system's structure.

These check minimizers against a closed form and an exact identity, so
they hold whatever path the descent takes.
"""

import math

import numpy as np
import pytest

import nlskdv as nk

# (alpha, tau2, kappa) of the explicit coupled family below
SECH2_CASES = [(2.0, 1.0, 0.5), (1.0, 1.0, 0.7), (3.0, 2.0, 0.4),
               (1.0, 0.2, 0.6), (0.6, 1.0, 0.5)]


@pytest.mark.parametrize("alpha, tau2, kappa", SECH2_CASES)
def test_coupled_sech2_family(grid40, alpha, tau2, kappa):
    # with tau1 = 0, p = 1 and alpha > tau2/2, phi = a sech^2(kappa x),
    # psi = b sech^2(kappa x) solve the stationary system with
    # sigma = c = 4 kappa^2, b = 6 kappa^2/alpha and
    # a^2 = (12 kappa^2 b/alpha)(1 - tau2/(2 alpha)); the masses are
    # int sech^4 = 4/(3 kappa) times a^2 and b^2.  Measured at tol 1e-10:
    # fields within 1.2e-11, sigma and c within 4.6e-12
    prm = nk.PhysParams(alpha=alpha, tau1=0.0, tau2=tau2, p=1, q=1.0)
    b = 6.0 * kappa ** 2 / alpha
    a = math.sqrt(12.0 * kappa ** 2 * b / alpha * (1.0 - tau2 / (2.0 * alpha)))
    s, t = 4.0 * a * a / (3.0 * kappa), 4.0 * b * b / (3.0 * kappa)
    pair, _ = nk.minimize_I(s, t, prm, grid40, nk.MinimizeOptions(tol=1e-10))
    sech2 = 1.0 / np.cosh(kappa * grid40.x) ** 2
    assert np.max(np.abs(pair.phi.values - a * sech2)) <= 1e-10
    assert np.max(np.abs(pair.psi.values - b * sech2)) <= 1e-10
    assert abs(pair.sigma - 4.0 * kappa ** 2) <= 5e-11
    assert abs(pair.c - 4.0 * kappa ** 2) <= 5e-11


def _scaling_gap(pair) -> float:
    # (u, v) -> lambda^2 (u, v)(lambda x) takes the masses to lambda^3
    # times and E to lambda^5 times, so I(l^3 s, l^3 t) = l^5 I(s, t) and,
    # with dI/ds = -sigma and dI/dt = -c, 5 I + 3 (s sigma + t c) = 0
    i_val = pair.energy_value
    return abs(5.0 * i_val + 3.0 * (pair.s * pair.sigma + pair.t * pair.c)) \
        / abs(i_val)


# (alpha, tau1, tau2, q, s, t): p = 1 with q = 1 or tau1 = 0
SCALING_CASES = [
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 0.5, 2.0),
    (1.0, 1.0, 1.0, 1.0, 2.5, 0.7), (0.5, 1.0, 2.0, 1.0, 1.5, 1.0),
    (2.0, 0.5, 0.5, 1.0, 0.8, 1.2), (0.0, 1.0, 3.0, 1.0, 2.0, 1.0),
    (1.0, 0.0, 1.0, 2.0, 1.0, 1.0), (1.0, 0.0, 3.0, 2.5, 2.0, 0.6),
    (0.7, 0.0, 1.5, 3.0, 0.6, 1.8), (1.5, 2.0, 1.0, 1.0, 1.2, 0.4),
]


@pytest.mark.parametrize("alpha, tau1, tau2, q, s, t", SCALING_CASES)
def test_scaling_identity(grid40, alpha, tau1, tau2, q, s, t):
    # measured at tol 1e-10: <= 2.2e-10 relative to |I|
    prm = nk.PhysParams(alpha=alpha, tau1=tau1, tau2=tau2, p=1, q=q)
    pair, _ = nk.minimize_I(s, t, prm, grid40, nk.MinimizeOptions(tol=1e-10))
    assert _scaling_gap(pair) <= 2e-9


def test_scaling_identity_of_w_pair(prm_coupled):
    # the pair minimize_W returns is a minimizer of I at (s, a*): 5.1e-11
    sol = nk.minimize_W(1.0, 0.5, prm_coupled, nk.make_grid(30.0, 768),
                        nk.MinimizeOptions(tol=1e-10))
    assert _scaling_gap(sol.pair) <= 2e-9


def test_scaling_identity_fails_off_its_case(grid40):
    # at q = 2 with tau1 = 1 the short wave's self-interaction scales
    # as lambda^7, not lambda^5, and the identity is off by 1.2 here
    prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=2.0)
    pair, _ = nk.minimize_I(2.0, 0.5, prm, grid40,
                            nk.MinimizeOptions(tol=1e-10))
    assert _scaling_gap(pair) > 0.1
