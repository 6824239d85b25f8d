"""Constrained energy minimization and multiplier extraction.

The core solver finds the minimizer of the energy over pairs with fixed
squared masses by projected gradient descent: step both components
against the energy gradient, rescale each back to its mass sphere, and
backtrack until the energy decreases.  The descent direction is
measured in the H1 metric (a spectral preconditioner), which leaves the
fixed points and the energy-descent structure unchanged but removes the
k^2 stiffness of the raw flow.  The iterate is held as the real
half spectrum of [phi; psi], so the metric, the mass projection and
every L2 pairing are sums over Fourier modes (Parseval) and a trial
point costs one transform each way, for the nonlinearity.

A cold solve is one descent at the full coupling, started from the
product of the decoupled ground profiles.  In the H1 metric the high
modes' curvature tends to 1, so a step of 2 leaves them undamped; the
Armijo fraction 0.2 (any c1 in (0, 1) is allowed, Nocedal & Wright
§3.1) refuses that step, where the customary 1e-4 accepts it and the
descent stalls for thousands of iterations.

Lagrange multipliers come from pairing the energy gradient with the
profiles themselves (sigma = -<dE/dphi, phi>/2s, c = -<dE/dpsi, psi>/2t),
and the residuals dE/2 + multiplier * profile of the stationarity
system are the convergence certificates.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.fft
from scipy.optimize import brentq

from .errors import (BoundaryMinimumError, ConvergenceError,
                     DomainTooSmallError, UnattainedInfimumError,
                     ValidationError, require_count)
from .exact import kdv_profile, nls_ground
from .functionals import (PhysParams, _potential_sum, energy_gradient_values,
                          gradient_values, nonlinearity)
from .grid import (ComplexField, Grid1D, RealField, apply_symbol,
                   boundary_leak, same_grid, shift_values)

# fixed constants of the descent and the W search
_ARMIJO = 0.2                     # sufficient decrease; refuses step 2
_BACKTRACK = 0.5
_STEP0 = 0.25
_STEP_MAX = 4.0
_STEP_MIN = 1e-16                 # a line search fails below this step
_PG_SWITCH = 1e-4                 # below this, accept on gradient norm
_CONTINUATION_TOL = 1e-6          # exit tolerance of minimize_W's scan nodes
_W_SCAN_NODES = 17


@dataclass
class MinimizeOptions:
    """The settable knobs of the descent.

    The line search's constants (Armijo fraction, step ladder, phase
    switch) are set at module level.  Construction checks the knobs as
    the CLI schema does: tol and max_boundary_leak finite and > 0,
    max_iter an integer >= 1.
    """

    tol: float = 1e-8                 # projected-gradient L2 norm at exit
    max_iter: int = 200_000
    max_boundary_leak: float = 1e-6

    def __post_init__(self):
        for name in ("tol", "max_boundary_leak"):
            val = getattr(self, name)
            if (isinstance(val, bool) or not isinstance(val, numbers.Real)
                    or not 0.0 < val < math.inf):
                raise ValidationError(
                    f"{name} must be finite and > 0, got {val!r}")
        self.max_iter = require_count("max_iter", self.max_iter)


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
    stages: int = 1                   # descents per solve; always one


@dataclass
class WSolution:
    """Minimizer of the two-invariant problem, via the 1-D mass split.

    a_star is the optimal long-wave mass, b the phase-twist slope
    (t - a_star)/s, and Phi the twisted short-wave profile.  omega and c
    are the multipliers of the twisted stationarity system; pair is the
    underlying mass-constrained minimizer.  twist_gap = |c + 2b| = |W'|
    is the residual of the root-find in a (NaN when c is undefined).
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
    scale = np.divide(masses, dx * (X * X).sum(axis=1),
                      out=np.zeros(2), where=live)
    out = X * np.sqrt(scale)[:, None]
    out[~live] = 0.0
    return out


def _half_weights(grid, order=0):
    """Parseval weights of the rfft half spectrum, for _pairings.

    For real rows a, b of even length n with half spectra A, B,
    dx sum(a b) = sum(w Re(A conj(B))) with w = dx/n [1, 2, ..., 2, 1].
    A derivative order > 0 multiplies w by |deriv_symbol(order)|^2, so
    the sum pairs the rows' spectral derivatives of that order.  Each
    weight is repeated for the real and the imaginary part.
    """
    w = np.full(grid.n // 2 + 1, 2.0 * grid.dx / grid.n)
    w[[0, -1]] *= 0.5
    if order:
        w *= np.abs(grid.deriv_symbol(order)[:w.size]) ** 2
    return np.repeat(w, 2)


def _pairings(A, B, w):
    """Row-wise pairings sum(w Re(A conj(B))) of half spectra.

    A and B are C-contiguous along their last axis; w comes from
    _half_weights.
    """
    return (A.view(np.float64) * B.view(np.float64)) @ w


def _descend(X, masses, prm, grid, tol, budget):
    """Projected, preconditioned descent at fixed parameters.

    X is the real (2, n) stack [phi; psi] and masses the pair (s, t).
    The iterate is held as the rfft half spectrum of the stack: the mass
    projection, the pairings, the kinetic energy and the projected
    gradient's norm come from Parseval, the gradient is
    -2 (d^2/dx^2 X + N) with the second derivative a symbol, and the H1
    preconditioner is a division by 1 + k^2.  Evaluating a trial point
    takes one inverse transform (for N and the potential energy) and one
    forward transform (of N).  An accepted trial's evaluation is the
    new iterate's.  One backtracking loop takes an Armijo test on the
    energy far from the minimizer; once the projected gradient is small,
    energy differences sink below float rounding and a step must instead
    not raise the projected-gradient norm.

    Returns the final real stack (zero-mass rows +0) plus (iterations,
    final_step, history, pg_norm, termination), termination being why
    the descent stopped: "converged", "max_iter" (budget spent) or
    "line_search" (no trial step of at least _STEP_MIN passed).  After a
    failed line search final_step is the step below the floor (Armijo
    phase) or the last accepted one.
    """
    n, half = grid.n, grid.n // 2 + 1
    live = masses > 0.0
    w = _half_weights(grid)
    # the kinetic weight zeroes the Nyquist entry, as the first
    # derivative does; the gradient's second derivative keeps it
    kinetic = _half_weights(grid, 1)
    laplacian = grid.deriv_symbol(2)[:half]
    precond = 0.5 / grid.h1_weights[:half]

    def project(Xh):
        scale = np.divide(masses, _pairings(Xh, Xh, w),
                          out=np.zeros(2), where=live)
        return Xh * np.sqrt(scale)[:, None]

    def evaluate(Xh):
        X = scipy.fft.irfft(Xh, n)
        NX = np.array(nonlinearity(*X, prm))
        e = (float(_pairings(Xh, Xh, kinetic).sum())
             - grid.dx * _potential_sum(*X, *NX, prm))
        G = -2.0 * (laplacian * Xh + scipy.fft.rfft(NX))
        coef = np.divide(_pairings(G, Xh, w), masses,
                         out=np.zeros(2), where=live)
        P = G - coef[:, None] * Xh
        P[~live] = 0.0
        return e, P, math.sqrt(_pairings(P, P, w).sum()), X

    Xh = project(scipy.fft.rfft(X))
    with np.errstate(over="ignore", invalid="ignore"):
        e_cur, P, pgnorm, X = evaluate(Xh)  # overflow is refused below
    if not (math.isfinite(e_cur) and math.isfinite(pgnorm)):
        raise ValidationError(
            f"energy {e_cur:.3e} or projected gradient {pgnorm:.3e} is not "
            "finite at the start; the parameters overflow double precision")
    history = [e_cur]
    eta = _STEP0
    it = 0
    stop = "max_iter"
    while it < budget and pgnorm > tol:
        it += 1
        D = precond * P
        armijo = pgnorm > _PG_SWITCH
        if armijo:
            gtd = float(_pairings(P, D, w).sum())
            slack = 1e-13 * (1.0 + abs(e_cur))
            trial = min(eta * 2.0, _STEP_MAX)
        else:
            trial = min(eta * 1.26, _STEP_MAX)
        while trial >= _STEP_MIN:
            cand = project(Xh - trial * D)
            e_new, P_new, pg_new, X_new = evaluate(cand)
            if (e_new <= e_cur - _ARMIJO * trial * gtd + slack if armijo
                    else pg_new <= pgnorm):
                break
            trial *= _BACKTRACK
        else:  # no trial above the step floor passed
            if armijo:
                eta = trial
            stop = "line_search"
            break
        Xh, X, e_cur, P, pgnorm = cand, X_new, e_new, P_new, pg_new
        eta = trial
        history.append(e_cur)
    X[~live] = 0.0
    stop = "converged" if pgnorm <= tol else stop
    return X, it, eta, history, pgnorm, stop


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


def _stationarity(grads, fields, masses, dx, mults=None):
    """Multipliers and stationarity residual norms from one gradient.

    grads is the energy gradient at fields = (phi, psi) of masses (s, t);
    no transform is taken here.  Unless mults = (sigma, c) is given, the
    multipliers come from the integral identities sigma = -<dE/dphi, phi>/2s
    and c = -<dE/dpsi, psi>/2t (NaN at zero mass).  Returns the
    multipliers and the L2 norms of the residuals dE/2 + multiplier *
    profile (NaN where the multiplier is).
    """
    if mults is None:
        mults = tuple(-0.5 * _pairing(g, f, dx) / m if m > 0.0 else math.nan
                      for g, f, m in zip(grads, fields, masses))

    def norm(r):
        return math.sqrt(_pairing(r, r, dx))
    # a NaN multiplier makes its residual, and so its norm, NaN
    return mults, tuple(norm(0.5 * g + lam * f)
                        for g, f, lam in zip(grads, fields, mults))


def multipliers(pair: SolitaryWavePair, prm: PhysParams):
    """Multipliers recovered from the integral identities.

    sigma comes from pairing the energy gradient in phi with phi, c from
    pairing the one in psi with psi.  c is NaN (flagged undefined) when
    t = 0, and sigma is NaN when s = 0.
    """
    grid = same_grid(pair.phi, pair.psi)
    fields = (pair.phi.values, pair.psi.values)
    return _stationarity(gradient_values(*fields, prm, grid), fields,
                         (pair.s, pair.t), grid.dx)[0]


def el_residual(pair: SolitaryWavePair, prm: PhysParams):
    """L2 norms of the two stationarity residuals (NaN where undefined).

    The residuals use the pair's stored multipliers.
    """
    grid = same_grid(pair.phi, pair.psi)
    fields = (pair.phi.values, pair.psi.values)
    return _stationarity(gradient_values(*fields, prm, grid), fields,
                         (pair.s, pair.t), grid.dx, (pair.sigma, pair.c))[1]


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
                        1.0 / (pair.sigma - grid.deriv_symbol(2)))
    gap = phi - conv
    return float(np.sqrt(grid.dx * np.sum(np.abs(gap) ** 2)))


def minimize_I(s: float, t: float, prm: PhysParams, grid: Grid1D,
               opts: Optional[MinimizeOptions] = None, *,
               warm_start=None):
    """Minimize the energy subject to |phi|^2 mass s and psi^2 mass t.

    The masses must be finite.  Either may be zero (the corresponding
    component is frozen at zero); both zero is rejected.  A zero
    long-wave mass additionally requires beta1 > 0, otherwise the
    infimum is zero and unattained (UnattainedInfimumError).  A
    warm_start is a pair of finite real arrays on the grid, nonzero
    where the mass is positive.  Without one the descent starts at the
    full coupling from the product of the decoupled ground profiles.
    A start whose energy or projected gradient is not finite (the
    parameters overflow double precision) raises ValidationError.

    Returns (SolitaryWavePair, MinimizeReport).  The pair is recentred
    so the psi mass centroid sits at x = 0 and the global phase of phi
    is removed.  Its energy, multipliers and residual norms all come
    from one evaluation of the energy and gradient on the final real
    profiles.
    """
    opts = opts or MinimizeOptions()
    if not (math.isfinite(s) and math.isfinite(t)
            and s >= 0 and t >= 0 and s + t > 0):
        raise ValidationError(
            f"need finite s >= 0, t >= 0, s + t > 0; got s={s}, t={t}")
    if t == 0.0 and prm.beta1 == 0.0:
        raise UnattainedInfimumError(
            "with zero long-wave mass and no short-wave self-interaction "
            "the constrained infimum is 0 and is not attained")

    masses = np.array([s, t], dtype=np.float64)
    if warm_start is not None:
        try:
            X = np.array(warm_start, dtype=np.float64)
        except ValueError as exc:
            raise ValidationError(f"malformed warm_start: {exc}") from exc
        if X.shape != (2, grid.n) or not np.all(np.isfinite(X)):
            raise ValidationError(
                f"warm_start needs two finite rows of {grid.n} samples")
        if np.any((masses > 0.0) & ~X.any(axis=1)):
            raise ValidationError(
                "warm_start has an all-zero row where the mass is positive")
    else:
        X = np.array(_initial_fields(s, t, prm, grid))

    X, iters, final_step, history, pgnorm, termination = _descend(
        X, masses, prm, grid, opts.tol, opts.max_iter)

    report = MinimizeReport(
        iterations=iters, final_step=final_step,
        energy_history=history, termination=termination,
        I_value=math.nan, pg_norm=pgnorm)
    if termination != "converged":
        cause = (f"no convergence within {opts.max_iter} iterations"
                 if termination == "max_iter" else
                 f"line search found no step >= {_STEP_MIN:.0e} at "
                 f"iteration {iters}")
        raise ConvergenceError(
            f"{cause} (projected gradient {pgnorm:.3e} > tol {opts.tol:.1e})",
            report=report)

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

    # one evaluation certifies the solve: energy, multipliers, residuals
    e_val, grads = energy_gradient_values(phi, psi, prm, grid)
    (sigma, c), (res_phi, res_psi) = _stationarity(
        grads, (phi, psi), (s, t), grid.dx)
    pair = SolitaryWavePair(
        phi=ComplexField(grid, phi), psi=RealField(grid, psi),
        sigma=sigma, c=c, s=s, t=t, energy_value=e_val,
        el_residual_phi=res_phi, el_residual_psi=res_psi,
        boundary_leak=leak)
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
        if not 0 <= val < math.inf:
            raise ValidationError(f"{name} must be finite and >= 0, "
                                  f"got {val}")
    if not (s1 + s2 > 0 and t1 + t2 > 0 and s1 + t1 > 0 and s2 + t2 > 0):
        raise ValidationError(
            "subadditivity probe needs s1+s2 > 0, t1+t2 > 0, "
            "s1+t1 > 0, s2+t2 > 0")

    def ivalue(s_, t_):
        try:
            pair, _ = minimize_I(s_, t_, prm, grid, opts)
        except UnattainedInfimumError:
            return 0.0  # infimum value on this branch, not attained
        return pair.energy_value

    return (ivalue(s1, t1) + ivalue(s2, t2)
            - ivalue(s1 + s2, t1 + t2))


def _stack(pair: SolitaryWavePair):
    """The real [phi; psi] stack of a solved pair."""
    return np.array([np.real(pair.phi.values), pair.psi.values])


def _warm_start(a: float, known: dict, grid: Grid1D):
    """Starting [phi; psi] stack at a parameter value a from solved ones.

    known maps solved parameter values to their pairs (solved to any
    tolerance).  Between two solved values the start interpolates their
    profiles linearly; above or below them all it extrapolates along the
    secant of the two nearest (the predictor of natural-parameter
    continuation); next to a single one it is that pair's profiles.  A
    psi row left all zero (the only neighbour is a = 0, with no long
    wave) becomes a sech^2 bump.  None when known is empty, as at the
    first available node of minimize_W's scan when a = 0 has no pair.
    """
    below = sorted((k for k in known if k < a), reverse=True)
    above = sorted(k for k in known if k > a)
    if below and above:
        lo, hi = below[0], above[0]
        w = (a - lo) / (hi - lo)
        X = (1.0 - w) * _stack(known[lo]) + w * _stack(known[hi])
    elif below or above:
        near = below or above
        X = _stack(known[near[0]])
        if len(near) > 1:
            X = X + (a - near[0]) / (near[0] - near[1]) \
                * (X - _stack(known[near[1]]))
    else:
        return None
    if not X[1].any():
        X[1] = 1.0 / np.cosh(grid.x / 2.0) ** 2
    return X


def minimize_W(s: float, t: float, prm: PhysParams, grid: Grid1D,
               opts: Optional[MinimizeOptions] = None) -> WSolution:
    """Minimize the energy at fixed mass s and momentum t.

    Reduces to a one-dimensional search over the long-wave mass a of
    W(a) = I(s, a) + b(a)^2 s, b(a) = (t - a)/s.  Along minimizers
    dI/da = -c, so each inner solve also gives the slope W' = -(c + 2b).
    A 17-node scan keeps W and W' per node.  The zoom step of a
    bracketing line search then refines the cell between the lowest node
    and its downhill neighbour: when W' turns from negative to positive
    across it, Brent's method finds the root of W' there; otherwise the
    cell is halved and the zoom repeats from the lowest node, at most
    once per scan node, after which the lowest node wins.  When W rises
    from a = 0, a* = 0.  A downhill neighbour with no profile in the box
    gets one midpoint solve before the search gives up.

    The search is a natural-parameter continuation in a.  The scan
    ascends from a = 0, which starts cold from its closed-form decoupled
    profile; every later solve starts from the profiles of the solved
    masses around it (interpolated, or extrapolated along the secant of
    the two nearest).  Only when a = 0 has no pair is the first
    available node solved cold.  Scan nodes, split points and the
    doubling of the range only place brackets and warm starts, so they
    are solved to the continuation tolerance max(opts.tol, 1e-6); the
    root-find's slope evaluations and the returned pair are solved to
    opts.tol, a coarse node warm from its own profiles.  The short-wave profile is
    reconstructed by the phase twist exp(-i b x).

    Restricted to long-wave powers below 4/3; beyond that the reduced
    objective is unbounded below and the problem has no minimizer.
    """
    opts = opts or MinimizeOptions()
    if not (0 < s < math.inf and math.isfinite(t)):
        raise ValidationError(
            f"need finite s > 0 and t; got s={s}, t={t}")
    if not prm.stability_regime():
        raise ValidationError(
            f"momentum-constrained problem needs p < 4/3, got p={prm.p}")

    # the twist term (t - a)^2/s must not overflow at any mass the scan,
    # its 8 range doublings or the root-find's one-cell widening reach
    a_max = abs(t) + 4.0 * math.sqrt(s * (1.0 + abs(t)))
    gap = 2.0 ** 9 * a_max - t      # >= |t - a| at every such mass
    if not math.isfinite(gap * gap / s):
        raise ValidationError(
            f"the twist term (t - a)^2/s overflows for s={s}, t={t}")

    # key -> (W, pair, final): final entries are solved to opts.tol, the
    # others to the continuation tolerance
    cache: dict = {}
    scan_opts = dataclasses.replace(opts,
                                    tol=max(opts.tol, _CONTINUATION_TOL))
    solves = 0
    unavailable = 0

    def solve_at(a: float, final: bool = False):
        nonlocal solves, unavailable
        key = round(a, 15)
        entry = cache.get(key)
        if entry is not None and (entry[2] or not final):
            return entry[:2]
        if entry is not None:      # a coarse node, refined from itself
            warm = _stack(entry[1])
        else:
            # a = 0 starts cold from its closed-form decoupled profile,
            # which converges in a few iterations
            warm = None if a == 0.0 else _warm_start(
                a, {k: v[1] for k, v in cache.items() if v[1] is not None},
                grid)
        try:
            pair, _ = minimize_I(s, a, prm, grid,
                                 opts if final else scan_opts,
                                 warm_start=warm)
        except UnattainedInfimumError:
            entry = (t * t / s, None, True)    # I(s,0) = 0, unattained
        except DomainTooSmallError:
            # profile too wide for the box at this node; record it as
            # unavailable and keep scanning
            unavailable += 1
            entry = (math.inf, None, True)
        else:
            solves += 1
            entry = (pair.energy_value + (t - a) ** 2 / s, pair,
                     final or scan_opts.tol == opts.tol)
        cache[key] = entry
        return entry[:2]

    def slope(a: float, final: bool = False) -> float:
        # -W'(a) = c + 2b; a = 0 has no long-wave multiplier, take a -> 0+
        if a == 0.0:
            return math.inf if prm.alpha > 0.0 else 2.0 * t / s
        pair = solve_at(a, final)[1]
        if pair is None:
            raise DomainTooSmallError(
                f"no profile at long-wave mass a = {a:.6g}; enlarge the box")
        return pair.c + 2.0 * (t - a) / s

    for _ in range(9):
        nodes = [float(a) for a in np.linspace(0.0, a_max, _W_SCAN_NODES)]
        vals = [solve_at(a)[0] for a in nodes]
        if np.argmin(vals) < len(nodes) - 1:
            break
        a_max *= 2.0
    else:
        raise BoundaryMinimumError(
            f"scan minimum stuck at the upper endpoint a = {a_max}")

    def root(lo, hi):
        # the root of W' to rounding in a (xtol ~ 0 leaves brentq's 4 eps
        # relative floor).  The bracket comes from coarse slopes; a root
        # within their error of one end may lie just past it, in the cell
        # of the same width on that side.
        if slope(lo, True) < 0.0:
            lo, hi = max(2.0 * lo - hi, 0.0), lo
        elif slope(hi, True) > 0.0:
            lo, hi = hi, 2.0 * hi - lo
        return brentq(slope, lo, hi, args=(True,), xtol=1e-15)

    # the zoom step of a bracketing line search (Nocedal & Wright, §3.5):
    # refine the cell between the best node and its downhill neighbour
    # by halving it until its slopes bracket a root of W'
    widened = False
    for _ in range(len(nodes)):
        best = int(np.argmin(vals))
        j = best + (1 if slope(nodes[best]) >= 0.0 else -1)
        if j < 0:                  # W rises from a = 0
            if math.isfinite(vals[1]):
                a_star = 0.0
                break
            j = 1
        lo = min(best, j)
        a0, a1 = nodes[lo], nodes[lo + 1]
        am = 0.5 * (a0 + a1)
        if math.isinf(vals[j]):
            # halve the gap to a node with no profile before giving up
            if widened:
                raise DomainTooSmallError(
                    "the scan minimum abuts long-wave masses whose profiles "
                    "do not fit the box; enlarge the box")
            widened = True
        elif slope(a0) > 0.0 > slope(a1):
            a_star = root(a0, a1)
            break
        else:
            slope(am)  # raises when the split point has no profile
        nodes.insert(lo + 1, am)
        vals.insert(lo + 1, solve_at(am)[0])
    else:
        a_star = nodes[int(np.argmin(vals))]
    w_value, pair = solve_at(a_star, True)
    cache.clear()  # brentq wraps slope in a reference cycle; free the pairs
    if pair is None:
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
