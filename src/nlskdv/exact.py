"""Closed-form decoupled ground states.

With the coupling switched off, each equation has an explicit sech-power
ground state at every mass.  These profiles seed the constrained solver
and serve as oracles for multipliers, residuals, and traveling waves.
The width parameter is found by Brent's method on the grid-quadrature
mass rather than an analytic mass formula, so the construction is valid
for every admissible nonlinearity power.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._roots import brentq
from .errors import UnattainedInfimumError, ValidationError
from .functionals import PhysParams
from .grid import Grid1D, RealField

_LAM_LO = 1e-12
_LAM_HI = 1e12
_LOG_BRACKET = 1e-9     # half width in log(lam) of the first bracket


def _sech_pow(arg: np.ndarray, r: float) -> np.ndarray:
    """sech(arg)**r, evaluated in log form so huge arguments underflow to 0."""
    a = np.abs(arg)
    return np.exp(r * (np.log(2.0) - a - np.log1p(np.exp(-2.0 * a))))


@dataclass(frozen=True)
class SechProfile:
    """Profile A * sech(sqrt(lam) * x / r)**r.

    r is the exponent 2/p (or 2/q), so the argument scale sqrt(lam)/r
    equals sqrt(lam) * p / 2 for the corresponding nonlinearity power.
    """

    amplitude: float
    exponent: float
    lam: float

    def __post_init__(self):
        if self.amplitude <= 0 or self.exponent <= 0 or self.lam <= 0:
            raise ValidationError("sech profile parameters must be positive")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        arg = np.sqrt(self.lam) * x / self.exponent
        return self.amplitude * _sech_pow(arg, self.exponent)

    def sample(self, grid: Grid1D) -> RealField:
        return RealField(grid, self.evaluate(grid.x))


def _grid_mass(lam: float, power: float, beta: float, grid: Grid1D) -> float:
    amp = (lam / beta) ** (1.0 / power)
    vals = amp * _sech_pow(np.sqrt(lam) * power * grid.x / 2.0, 2.0 / power)
    return float(grid.dx * np.sum(vals ** 2))


def _line_log_lambda(target: float, power: float, beta: float) -> float:
    """log lam at which the profile's mass on the whole real line is target.

    That mass is (2/p) beta^(-2/p) B(2/p, 1/2) lam^(2/p - 1/2), with the
    Beta function B(r, 1/2) = Gamma(r) Gamma(1/2) / Gamma(r + 1/2).
    """
    r = 2.0 / power
    log_unit = (math.log(r) - r * math.log(beta) + math.lgamma(r)
                + math.lgamma(0.5) - math.lgamma(r + 0.5))
    return (math.log(target) - log_unit) / (r - 0.5)


def lambda_for_mass(target: float, power_p: float, beta: float,
                    grid: Grid1D) -> float:
    """Width parameter lam such that the sampled profile has squared norm target.

    The grid mass is strictly increasing in lam for powers below 4, so
    Brent's method on log(lam) (_roots.brentq) converges safely.  It
    starts from a tight bracket around the real-line width, where a
    resolved profile that fits the box has its root, and falls back to
    lam in [1e-12, 1e12] when that bracket misses it.  Each point,
    bracket ends included, costs one grid mass.
    """
    if not (target > 0):
        raise ValidationError(f"target mass must be positive, got {target}")
    if not (beta > 0):
        raise ValidationError(f"beta must be positive, got {beta}")
    if not (0 < power_p < 4):
        raise ValidationError(f"power must lie in (0, 4), got {power_p}")

    # memoized: brentq evaluates again the bracket ends checked below
    @functools.cache
    def f(loglam):
        return _grid_mass(np.exp(loglam), power_p, beta, grid) - target

    full = (math.log(_LAM_LO), math.log(_LAM_HI))
    guess = _line_log_lambda(target, power_p, beta)
    for lo, hi in ((max(guess - _LOG_BRACKET, full[0]),
                    min(guess + _LOG_BRACKET, full[1])), full):
        if lo < hi and f(lo) < 0 < f(hi):
            break
    else:
        raise ValidationError(
            f"target mass {target} not bracketable at power {power_p}, "
            f"beta {beta} on the grid L={grid.half_length}, n={grid.n} "
            f"(widths lam in [{_LAM_LO}, {_LAM_HI}])")
    loglam = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return float(np.exp(loglam))


def _ground_profile(mass: float, power: float, beta: float,
                    grid: Grid1D) -> SechProfile:
    """Sech profile of the given power and beta with grid mass mass."""
    lam = lambda_for_mass(mass, power, beta, grid)
    return SechProfile(amplitude=(lam / beta) ** (1.0 / power),
                       exponent=2.0 / power, lam=lam)


def kdv_profile(t_mass: float, prm: PhysParams, grid: Grid1D) -> SechProfile:
    """Ground-state profile of the decoupled long-wave action at mass t."""
    return _ground_profile(t_mass, prm.p_float, prm.beta2, grid)


def kdv_ground(t_mass: float, prm: PhysParams, grid: Grid1D) -> RealField:
    """Sampled long-wave ground state with grid mass t_mass."""
    return kdv_profile(t_mass, prm, grid).sample(grid)


def nls_profile(s_mass: float, prm: PhysParams, grid: Grid1D) -> SechProfile:
    """Ground-state profile of the decoupled short-wave action at mass s.

    Requires beta1 > 0; with beta1 = 0 the infimum is zero and no
    profile attains it.
    """
    if prm.beta1 == 0.0:
        raise UnattainedInfimumError(
            "decoupled short-wave ground state needs a focusing "
            "self-interaction (beta1 > 0); the infimum is 0 and unattained")
    return _ground_profile(s_mass, prm.q, prm.beta1, grid)


def nls_ground(s_mass: float, prm: PhysParams, grid: Grid1D) -> RealField:
    """Sampled short-wave ground state (positive representative)."""
    return nls_profile(s_mass, prm, grid).sample(grid)
