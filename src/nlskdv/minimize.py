"""Constrained energy minimization and multiplier extraction.

The core solver finds the minimizer of the energy over pairs with fixed
squared masses by projected gradient descent: step both components
against the energy gradient, rescale each back to its mass sphere, and
backtrack until the energy decreases.  The descent direction is
measured in the H1 metric (a spectral preconditioner), which leaves the
fixed points and the energy-descent structure unchanged but removes the
k^2 stiffness of the raw flow.  During an initial stabilization phase
iterates may be replaced by the rearrangement of their modulus, which
never raises the energy beyond discretization noise.

Lagrange multipliers come from pairing the energy gradient with the
profiles themselves (sigma = -<dE/dphi, phi>/2s, c = -<dE/dpsi, psi>/2t),
and the residuals dE/2 + multiplier * profile of the stationarity
system are the convergence certificates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BoundaryMinimumError, ConvergenceError,
                     DomainTooSmallError, UnattainedInfimumError,
                     ValidationError)
from .exact import kdv_profile, nls_ground
from .functionals import (PhysParams, energy_gradient_values,
                          gradient_values, nonlinearity)
from .grid import (ComplexField, Grid1D, RealField, apply_symbol,
                   boundary_leak, same_grid, shift_values)
from .rearrange import rearrange_values

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# fixed constants of the descent and the W search
_ARMIJO = 1e-4                    # sufficient-decrease fraction
_BACKTRACK = 0.5
_STEP0 = 0.25
_STEP_MAX = 4.0
_PG_SWITCH = 1e-4                 # below this, accept on gradient norm
_STABILIZE_EVERY = 25             # rearrangement swap period
_CONTINUATION_TOL = 1e-6          # exit tolerance of the ramp stages
_PRECOND_SHIFT = 1.0              # H1 preconditioner 1/(2 (k^2 + shift))
_W_SCAN_NODES = 33
_W_REFINE_WIDTH = 1e-6


@dataclass
class MinimizeOptions:
    """The settable knobs of the descent; the rest are module constants."""

    tol: float = 1e-8                 # projected-gradient L2 norm at exit
    max_iter: int = 200_000
    stabilize_iters: int = 300        # window for modulus/rearrangement swaps
    continuation_step: float = 0.25   # coupling ramp for cold coupled solves
    max_boundary_leak: float = 1e-6


@dataclass
class SolitaryWavePair:
    """A converged minimizer with its multipliers and diagnostics.

    phi is stored as a complex field whose global phase has been removed
    (values are real and nonnegative up to solver noise); psi is real.
    sigma and c are the multipliers of the two mass constraints; either
    is NaN when the corresponding constraint mass is zero.
    """

    phi: ComplexField
    psi: RealField
    sigma: float
    c: float
    s: float
    t: float
    energy_value: float
    el_residual_phi: float
    el_residual_psi: float
    boundary_leak: float

    @property
    def grid(self) -> Grid1D:
        return self.phi.grid


@dataclass
class MinimizeReport:
    """Record of one constrained descent."""

    iterations: int
    final_step: float
    energy_history: list
    termination: str
    I_value: float
    pg_norm: float
    stages: int = 1


@dataclass
class WSolution:
    """Minimizer of the two-invariant problem, via the 1-D mass split.

    a_star is the optimal long-wave mass, b the phase-twist slope
    (t - a_star)/s, and Phi the twisted short-wave profile.  omega and c
    are the multipliers of the twisted stationarity system; pair is the
    underlying mass-constrained minimizer.
    """

    a_star: float
    b: float
    Phi: ComplexField
    psi: RealField
    omega: float
    c: float
    W_value: float
    pair: SolitaryWavePair
    i_value: float
    n_solves: int
    twist_gap: float
    n_unavailable: int = 0


def _project(X, masses, dx):
    """Rescale each row of the stack X to its mass; zero-mass rows to +0."""
    live = masses > 0.0
    scale = np.divide(masses, dx * np.sum(X * X, axis=1),
                      out=np.zeros(2), where=live)
    out = X * np.sqrt(scale)[:, None]
    out[~live] = 0.0
    return out


def _descend(X, masses, prm, grid, tol, budget, stabilize_iters):
    """Projected, preconditioned descent at fixed parameters.

    X is the real (2, n) stack [phi; psi] and masses the pair (s, t).
    Each trial point is evaluated once (energy and projected gradient
    from one spectrum) and an accepted trial's evaluation is the new
    iterate's.  One backtracking loop takes an Armijo test on the energy
    far from the minimizer; once the projected gradient is small, energy
    differences sink below float rounding and a step must instead not
    raise the projected-gradient norm.

    Returns the updated stack plus (iterations, final_step, history,
    pg_norm, converged flag).  After a failed line search final_step is
    the step below the floor (Armijo phase) or the last accepted one.
    """
    dx = grid.dx
    live = masses > 0.0
    precond = 1.0 / (2.0 * (grid.rwavenumbers ** 2 + _PRECOND_SHIFT))

    def evaluate(X):
        e, G = energy_gradient_values(*X, prm, grid)
        G = np.array(G)
        coef = np.divide(dx * np.sum(G * X, axis=1), masses,
                         out=np.zeros(2), where=live)
        P = G - coef[:, None] * X
        P[~live] = 0.0
        return e, P, math.sqrt((dx * np.sum(P * P, axis=1)).sum())

    X = _project(X, masses, dx)
    e_cur, P, pgnorm = evaluate(X)
    history = [e_cur]
    eta = _STEP0
    it = 0
    while it < budget and pgnorm > tol:
        it += 1
        D = apply_symbol(P, grid, precond)
        armijo = pgnorm > _PG_SWITCH
        if armijo:
            gtd = dx * float(np.sum(P * D, axis=1).sum())
            slack = 1e-13 * (1.0 + abs(e_cur))
            trial = min(eta * 2.0, _STEP_MAX)
        else:
            trial = min(eta * 1.26, _STEP_MAX)
        while trial >= 1e-16:
            cand = _project(X - trial * D, masses, dx)
            e_new, P_new, pg_new = evaluate(cand)
            if (e_new <= e_cur - _ARMIJO * trial * gtd + slack if armijo
                    else pg_new <= pgnorm):
                break
            trial *= _BACKTRACK
        else:  # no trial above the step floor passed
            if armijo:
                eta = trial
            break
        X, e_cur, P, pgnorm, eta = cand, e_new, P_new, pg_new, trial
        history.append(e_cur)

        if armijo and it <= stabilize_iters and it % _STABILIZE_EVERY == 0:
            R = np.array([rearrange_values(np.abs(row)) if on else row
                          for row, on in zip(X, live)])
            e_r, P_r, pg_r = evaluate(R)
            if e_r <= e_cur + slack:
                X, e_cur, P, pgnorm = R, e_r, P_r, pg_r
                history.append(e_cur)
    return X, it, eta, history, pgnorm, pgnorm <= tol


def _initial_fields(s, t, prm, grid):
    """Product of decoupled ground profiles, with width fallbacks."""
    x = grid.x
    L = grid.half_length
    if t > 0.0:
        prof = kdv_profile(t, prm, grid)
        if math.sqrt(prof.lam) * L >= 16.0:
            psi = prof.evaluate(x)
        else:
            psi = 1.0 / np.cosh(x / 2.0) ** 2
    else:
        psi = np.zeros_like(x)
    if s > 0.0:
        if prm.beta1 > 0.0:
            phi = nls_ground(s, prm, grid).values.copy()
        else:
            phi = 1.0 / np.cosh(x / 2.0)
    else:
        phi = np.zeros_like(x)
    return phi, psi


def _circular_centroid(weights, grid):
    theta = np.pi * grid.x / grid.half_length
    z = np.sum(weights * np.exp(1j * theta))
    if abs(z) == 0.0:
        return 0.0
    return grid.half_length * float(np.angle(z)) / np.pi


def _pairing(a, b, dx) -> float:
    """Real L2 pairing Re int a conj(b) dx."""
    return float(dx * np.sum(np.real(a * np.conj(b))))


def _multipliers_arrays(gphi, gpsi, phi, psi, s, t, dx):
    sigma = -0.5 * _pairing(gphi, phi, dx) / s if s > 0.0 else math.nan
    c = -0.5 * _pairing(gpsi, psi, dx) / t if t > 0.0 else math.nan
    return sigma, c


def multipliers(pair: SolitaryWavePair, prm: PhysParams):
    """Multipliers recovered from the integral identities.

    sigma comes from pairing the energy gradient in phi with phi, c from
    pairing the one in psi with psi.  c is NaN (flagged undefined) when
    t = 0, and sigma is NaN when s = 0.
    """
    grid = same_grid(pair.phi, pair.psi)
    phi, psi = pair.phi.values, pair.psi.values
    return _multipliers_arrays(*gradient_values(phi, psi, prm, grid),
                               phi, psi, pair.s, pair.t, grid.dx)


def _residual_fields(phi, psi, sigma, c, prm, grid):
    """Stationarity residuals dE/2 + multiplier * profile (None if NaN)."""
    gphi, gpsi = gradient_values(phi, psi, prm, grid)
    rphi = 0.5 * gphi + sigma * phi if np.isfinite(sigma) else None
    rpsi = 0.5 * gpsi + c * psi if np.isfinite(c) else None
    return rphi, rpsi


def el_residual(pair: SolitaryWavePair, prm: PhysParams):
    """L2 norms of the two stationarity residuals (NaN where undefined)."""
    grid = same_grid(pair.phi, pair.psi)
    return tuple(
        math.nan if r is None else math.sqrt(_pairing(r, r, grid.dx))
        for r in _residual_fields(pair.phi.values, pair.psi.values,
                                  pair.sigma, pair.c, prm, grid))


def convolution_fixed_point_gap(pair: SolitaryWavePair,
                                prm: PhysParams) -> float:
    """L2 gap in phi = K_sigma * (tau1 |phi|^q phi + alpha phi psi).

    K_sigma inverts -d^2/dx^2 + sigma and is applied spectrally as
    multiplication by 1/(k^2 + sigma).
    """
    if not np.isfinite(pair.sigma) or pair.sigma <= 0:
        raise ValidationError("fixed-point form needs sigma > 0")
    grid = pair.grid
    phi = pair.phi.values
    rhs, _ = nonlinearity(phi, pair.psi.values, prm)
    conv = apply_symbol(rhs, grid,
                        1.0 / (pair.sigma - grid.deriv_symbol(2, False)))
    gap = phi - conv
    return float(np.sqrt(grid.dx * np.sum(np.abs(gap) ** 2)))


def minimize_I(s: float, t: float, prm: PhysParams, grid: Grid1D,
               opts: Optional[MinimizeOptions] = None, *,
               warm_start=None, recenter: bool = True):
    """Minimize the energy subject to |phi|^2 mass s and psi^2 mass t.

    Either mass may be zero (the corresponding component is frozen at
    zero); both zero is rejected.  A zero long-wave mass additionally
    requires beta1 > 0, otherwise the infimum is zero and unattained.
    Cold coupled solves ramp the coupling up from zero in steps of
    opts.continuation_step, each stage warm-starting the next.

    Returns (SolitaryWavePair, MinimizeReport).  The pair is recentred
    so the psi mass centroid sits at x = 0 and the global phase of phi
    is removed.
    """
    opts = opts or MinimizeOptions()
    if s < 0 or t < 0 or s + t <= 0:
        raise ValidationError(
            f"need s >= 0, t >= 0, s + t > 0; got s={s}, t={t}")
    if t == 0.0 and prm.beta1 == 0.0:
        raise UnattainedInfimumError(
            "with zero long-wave mass and no short-wave self-interaction "
            "the constrained infimum is 0 and is not attained")

    stages = [prm]
    if warm_start is not None:
        X = np.array(warm_start, dtype=np.float64)
    else:
        X = np.array(_initial_fields(s, t, prm, grid))
        if prm.alpha > 0.0 and s > 0.0 and t > 0.0 \
                and prm.alpha > opts.continuation_step:
            ramp = np.arange(opts.continuation_step, prm.alpha,
                             opts.continuation_step)
            stages = [dataclasses.replace(prm, alpha=float(a))
                      for a in ramp] + [prm]

    masses = np.array([s, t], dtype=np.float64)
    total_iters = 0
    history = []
    final_step = _STEP0
    pgnorm = math.nan
    converged = False
    for idx, stage_prm in enumerate(stages):
        last = idx == len(stages) - 1
        tol = opts.tol if last else max(opts.tol, _CONTINUATION_TOL)
        budget = opts.max_iter - total_iters
        if budget <= 0:
            break
        X, iters, final_step, history, pgnorm, converged = _descend(
            X, masses, stage_prm, grid, tol, budget,
            opts.stabilize_iters if warm_start is None else 0)
        total_iters += iters

    report = MinimizeReport(
        iterations=total_iters, final_step=final_step,
        energy_history=history,
        termination="converged" if converged else "max_iter",
        I_value=math.nan, pg_norm=pgnorm, stages=len(stages))
    if not converged:
        raise ConvergenceError(
            f"no convergence within {opts.max_iter} iterations "
            f"(projected gradient {pgnorm:.3e} > tol {opts.tol:.1e})",
            report=report)

    if recenter:
        weights = X[1] * X[1] if t > 0.0 else X[0] * X[0]
        y = _circular_centroid(weights, grid)
        if y != 0.0:
            X = _project(shift_values(X, grid, y), masses, grid.dx)
    phi, psi = X
    if s > 0.0 and float(np.sum(phi)) < 0.0:
        phi = -phi

    leak = max(boundary_leak(phi) if s > 0 else 0.0,
               boundary_leak(psi) if t > 0 else 0.0)
    if leak > opts.max_boundary_leak:
        raise DomainTooSmallError(
            f"boundary leak {leak:.3e} exceeds {opts.max_boundary_leak:.1e}; "
            "enlarge the box")

    e_val, grads = energy_gradient_values(phi, psi, prm, grid)
    sigma, c = _multipliers_arrays(*grads, phi, psi, s, t, grid.dx)
    pair = SolitaryWavePair(
        phi=ComplexField(grid, phi), psi=RealField(grid, psi),
        sigma=sigma, c=c, s=s, t=t, energy_value=e_val,
        el_residual_phi=math.nan, el_residual_psi=math.nan,
        boundary_leak=leak)
    pair.el_residual_phi, pair.el_residual_psi = el_residual(pair, prm)
    report.I_value = e_val
    return pair, report


def subadditivity_probe(s1: float, t1: float, s2: float, t2: float,
                        prm: PhysParams, grid: Grid1D,
                        opts: Optional[MinimizeOptions] = None) -> float:
    """Margin I(s1,t1) + I(s2,t2) - I(s1+s2,t1+t2), expected positive.

    Requires the sign pattern under which strict subadditivity is
    guaranteed: s1+s2 > 0, t1+t2 > 0, s1+t1 > 0, s2+t2 > 0.
    """
    for name, val in (("s1", s1), ("t1", t1), ("s2", s2), ("t2", t2)):
        if val < 0:
            raise ValidationError(f"{name} must be >= 0, got {val}")
    if not (s1 + s2 > 0 and t1 + t2 > 0 and s1 + t1 > 0 and s2 + t2 > 0):
        raise ValidationError(
            "subadditivity probe needs s1+s2 > 0, t1+t2 > 0, "
            "s1+t1 > 0, s2+t2 > 0")

    def ivalue(s_, t_):
        if t_ == 0.0 and prm.beta1 == 0.0:
            return 0.0  # infimum value on this branch, not attained
        pair, _ = minimize_I(s_, t_, prm, grid, opts)
        return pair.energy_value

    return (ivalue(s1, t1) + ivalue(s2, t2)
            - ivalue(s1 + s2, t1 + t2))


def minimize_W(s: float, t: float, prm: PhysParams, grid: Grid1D,
               opts: Optional[MinimizeOptions] = None) -> WSolution:
    """Minimize the energy at fixed mass s and momentum t.

    Reduces to a one-dimensional search over the long-wave mass a of
    I(s, a) + b(a)^2 s with b(a) = (t - a)/s: an adaptive scan locates
    the minimum, golden-section refines it, and the short-wave profile
    is reconstructed by the phase twist exp(-i b x).

    Restricted to long-wave powers below 4/3; beyond that the reduced
    objective is unbounded below and the problem has no minimizer.
    """
    opts = opts or MinimizeOptions()
    if s <= 0:
        raise ValidationError(f"s must be positive, got {s}")
    if not prm.stability_regime():
        raise ValidationError(
            f"momentum-constrained problem needs p < 4/3, got p={prm.p}")

    cache: dict = {}
    solves = 0
    unavailable = 0

    def solve_at(a: float):
        nonlocal solves, unavailable
        key = round(a, 15)
        if key in cache:
            return cache[key]
        if a == 0.0 and prm.beta1 == 0.0:
            entry = (t * t / s, None)      # I(s,0) = 0, unattained
            cache[key] = entry
            return entry
        warm = None
        done = [k for k, v in cache.items() if v[1] is not None]
        if done:
            nearest = min(done, key=lambda k: abs(k - a))
            ref = cache[nearest][1]
            psi_w = ref.psi.values
            if a > 0.0 and nearest > 0.0:
                psi_w = psi_w * math.sqrt(a / nearest)
            elif a > 0.0:
                psi_w = 1.0 / np.cosh(grid.x / 2.0) ** 2
            warm = (np.real(ref.phi.values), psi_w)
        try:
            pair, _ = minimize_I(s, a, prm, grid, opts, warm_start=warm)
        except (DomainTooSmallError, ConvergenceError):
            # profile too wide for the box (or no convergence) at this
            # node; record it as unavailable and keep scanning
            unavailable += 1
            entry = (math.inf, None)
            cache[key] = entry
            return entry
        solves += 1
        entry = (pair.energy_value + (t - a) ** 2 / s, pair)
        cache[key] = entry
        return entry

    a_max = abs(t) + 4.0 * math.sqrt(s * (1.0 + abs(t)))
    for _ in range(9):
        nodes = np.linspace(0.0, a_max, _W_SCAN_NODES)
        for a in nodes[::-1]:
            solve_at(float(a))
        vals = [solve_at(float(a))[0] for a in nodes]
        best = int(np.argmin(vals))
        if best < len(nodes) - 1:
            break
        a_max *= 2.0
    else:
        raise BoundaryMinimumError(
            f"scan minimum stuck at the upper endpoint a = {a_max}")
    for j in (best - 1, best + 1):
        if 0 <= j < len(nodes) and math.isinf(vals[j]):
            raise DomainTooSmallError(
                "the scan minimum abuts long-wave masses whose profiles do "
                "not fit the box; enlarge the box")

    lo = float(nodes[max(best - 1, 0)])
    hi = float(nodes[min(best + 1, len(nodes) - 1)])
    width = _W_REFINE_WIDTH * (1.0 + abs(t))
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = solve_at(x1)[0]
    f2 = solve_at(x2)[0]
    while hi - lo > width:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = solve_at(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = solve_at(x2)[0]

    a_star, (w_value, pair) = min(cache.items(), key=lambda kv: kv[1][0])
    if pair is None:
        if math.isinf(w_value):
            raise DomainTooSmallError(
                "every scan node produced a profile too wide for the box")
        raise UnattainedInfimumError(
            "the search settled on zero long-wave mass with no short-wave "
            "self-interaction; no minimizer exists there")

    b = (t - a_star) / s
    Phi_vals = np.exp(-1j * b * grid.x) * pair.phi.values
    omega = pair.sigma + b * b
    twist_gap = abs(pair.c + 2.0 * b) if np.isfinite(pair.c) else math.nan
    c_wave = pair.c if np.isfinite(pair.c) else -2.0 * b
    return WSolution(
        a_star=float(a_star), b=float(b),
        Phi=ComplexField(grid, Phi_vals), psi=pair.psi,
        omega=float(omega), c=float(c_wave),
        W_value=float(w_value), pair=pair,
        i_value=pair.energy_value, n_solves=solves,
        twist_gap=float(twist_gap), n_unavailable=unavailable)
