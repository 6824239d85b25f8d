"""Shared fixtures and quadrature oracles for the test suite."""

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

import nlskdv as nk
from nlskdv.grid import apply_symbol

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def sech(x):
    return 1.0 / np.cosh(x)


def oracle_integral(fn, lo=-120.0, hi=120.0):
    """Adaptive quadrature oracle for decayed integrands on the line."""
    val, err = quad(fn, lo, hi, limit=400)
    assert err < 1e-8
    return val


@pytest.fixture(scope="session")
def grid40():
    return nk.make_grid(40.0, 1024)


@pytest.fixture(scope="session")
def grid30():
    return nk.make_grid(30.0, 512)


@pytest.fixture(scope="session")
def grid_small():
    return nk.make_grid(30.0, 256)


@pytest.fixture(scope="session")
def prm_coupled():
    return nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)


@pytest.fixture(scope="session")
def prm_nls():
    # decoupled cubic short wave: beta1 = 1/2
    return nk.PhysParams(alpha=0.0, tau1=1.0, tau2=1.0, p=1, q=2.0)


@pytest.fixture(scope="session")
def prm_kdv():
    # decoupled long wave: beta2 = 2
    return nk.PhysParams(alpha=0.0, tau1=0.0, tau2=6.0, p=1, q=1.0)


@pytest.fixture(scope="session")
def coupled_pair_30(prm_coupled):
    grid = nk.make_grid(30.0, 768)
    pair, report = nk.minimize_I(1.0, 1.0, prm_coupled, grid)
    return pair, report, grid


def shift_values(values, grid, y):
    """Translate samples so the output is f(x + y), using spectral phases."""
    return apply_symbol(values, grid, np.exp(1j * grid.wavenumbers * y))


def real_field(grid, fn):
    return nk.RealField(grid, fn(grid.x))


def complex_field(grid, fn):
    return nk.ComplexField(grid, fn(grid.x))
