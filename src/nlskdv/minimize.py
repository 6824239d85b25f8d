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
point costs one transform each way, for the nonlinearity.  The first
trial step of each iteration is the two-point step of the last two
iterates in the same metric (Barzilai & Borwein 1988, the "short" step
<s, y>/<y, K y>), clamped to [1/2, 2] times the last accepted step, so
it usually passes and an iteration costs about one trial; the metric
and the other per-grid constants are built once per grid.

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
from typing import NamedTuple, Optional

import numpy as np
import scipy.fft
from scipy.optimize import brentq

from .errors import (BoundaryMinimumError, ConvergenceError,
                     DomainTooSmallError, UnattainedInfimumError,
                     ValidationError, require_count)
from .exact import kdv_profile, nls_ground
from .functionals import (PhysParams, _potential_sum, gradient_values,
                          nonlinearity)
from .grid import (ComplexField, Grid1D, RealField, apply_symbol,
                   boundary_leak, same_grid)

# fixed constants of the descent and the W search
_ARMIJO = 0.2                     # sufficient decrease; refuses step 2
_BACKTRACK = 0.5
_STEP0 = 0.25
_STEP_MAX = 4.0
_STEP_MIN = 1e-16                 # a line search fails below this step
_PG_SWITCH = 1e-4                 # below this, accept on gradient norm
_STALL = 100                      # gradient-norm iterations to halve pg in
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


class _GridConstants(NamedTuple):
    """Read-only per-grid constants of the descent and the recentring."""

    w: np.ndarray             # Parseval weights of the half spectrum
    kinetic: np.ndarray       # the same, times k^2
    laplacian: np.ndarray     # half symbol of d^2/dx^2
    precond: np.ndarray       # H1 preconditioner 0.5 / (1 + k^2)
    rotor: np.ndarray         # exp(i pi x / L) of the circular centroid


def _grid_constants(grid: Grid1D) -> _GridConstants:
    """The grid's constants, built by Grid1D.constants once per grid."""
    half = grid.n // 2 + 1
    return _GridConstants(
        w=_half_weights(grid),
        # the kinetic weight zeroes the Nyquist entry, as the first
        # derivative does; the gradient's second derivative keeps it
        kinetic=_half_weights(grid, 1),
        laplacian=grid.deriv_symbol(2)[:half],
        precond=0.5 / grid.h1_weights[:half],
        rotor=np.exp(1j * (np.pi * grid.x / grid.half_length)))


def _pairings(A, B, w):
    """Row-wise pairings sum(w Re(A conj(B))) of half spectra.

    A and B are C-contiguous along their last axis; w comes from
    _half_weights.
    """
    return (A.view(np.float64) * B.view(np.float64)) @ w


def _project(Xh, masses, w):
    """Scale each half-spectrum row to its mass; zero-mass rows to 0."""
    scale = np.divide(masses, _pairings(Xh, Xh, w),
                      out=np.zeros(2), where=masses > 0.0)
    return Xh * np.sqrt(scale)[:, None]


def _evaluate(Xh, masses, prm, grid):
    """(energy, P, coef, X) at the half spectrum Xh, X its real stack.

    The gradient G = -2 (d^2/dx^2 X + N) projects to P = G - coef Xh,
    coef = <G, Xh>/mass per row (0, and P = 0, at zero mass): the
    multipliers are -coef/2 and the stationarity residuals P/2.  Pairings
    and the kinetic energy come from Parseval; one inverse transform
    gives N and the potential energy, one forward transform N's spectrum.
    """
    w, kinetic, laplacian, _, _ = grid.constants(_grid_constants)
    live = masses > 0.0
    X = scipy.fft.irfft(Xh, grid.n)
    NX = np.array(nonlinearity(*X, prm))
    e = (float(_pairings(Xh, Xh, kinetic).sum())
         - grid.dx * _potential_sum(*X, *NX, prm))
    G = -2.0 * (laplacian * Xh + scipy.fft.rfft(NX))
    coef = np.divide(_pairings(G, Xh, w), masses,
                     out=np.zeros(2), where=live)
    P = G - coef[:, None] * Xh
    P[~live] = 0.0
    return e, P, coef, X


def _first_trial(S, Y, eta, precond, w):
    """First trial step of an iteration: the two-point step, clamped.

    S is the last accepted step of the half spectrum and Y the change of
    the projected gradient P across it; both are None before the first
    step and after a move below the iterate's rounding, whose
    differences are noise.  The short two-point step <S, Y> / <Y, K Y>
    (Barzilai & Borwein 1988), with K the preconditioner, is the step
    for which step * K Y best matches S (least squares in the 1/K
    metric), the secant equation of a preconditioned gradient step.  It
    is clamped to [eta/2, 2 eta] around the last accepted step eta and
    to at most _STEP_MAX.  Without a history, or where <S, Y> <= 0 (no
    positive curvature along the step), the last step grows by 1.26.
    """
    sy = float(_pairings(S, Y, w).sum()) if S is not None else 0.0
    if sy <= 0.0:
        return min(eta * 1.26, _STEP_MAX)
    bb = sy / float(_pairings(Y, precond * Y, w).sum())
    return min(max(bb, 0.5 * eta), 2.0 * eta, _STEP_MAX)


def _descend(X, masses, prm, grid, tol, budget):
    """Projected, preconditioned descent at fixed parameters.

    X is the real (2, n) stack [phi; psi] and masses the pair (s, t).
    The iterate is held as the rfft half spectrum of the stack, projected
    by _project and evaluated by _evaluate; the H1 preconditioner is a
    division by 1 + k^2.  An accepted trial's evaluation is the new
    iterate's.  The first trial of an iteration is _first_trial's
    two-point step from the last accepted step and the change of the
    projected gradient across it, clamped to [1/2, 2] times that step;
    the first iteration, and one after a move below the iterate's
    rounding, grow the last step by 1.26 instead.  One backtracking
    loop takes an Armijo test on the energy far from the minimizer; once
    the projected gradient is small, energy differences sink below
    float rounding and a step must instead not raise the
    projected-gradient norm.

    Returns the final half spectrum and its real stack plus (iterations,
    final_step, history, pg_norm, termination), termination being why
    the descent stopped: "converged", "max_iter" (budget spent),
    "line_search" (no trial step of at least _STEP_MIN passed) or
    "stalled" (in the gradient-norm phase the projected gradient has
    not halved in _STALL iterations and the last step moved the iterate
    by less than its rounding: the gradient is at its rounding floor,
    above tol).  After a failed line search final_step is the step below
    the floor (Armijo phase) or the last accepted one.
    """
    w, _, _, precond, _ = grid.constants(_grid_constants)
    Xh = _project(scipy.fft.rfft(X), masses, w)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is refused below
        e_cur, P, _, X = _evaluate(Xh, masses, prm, grid)
        pgnorm = math.sqrt(_pairings(P, P, w).sum())
    if not (math.isfinite(e_cur) and math.isfinite(pgnorm)):
        raise ValidationError(
            f"energy {e_cur:.3e} or projected gradient {pgnorm:.3e} is not "
            "finite at the start; the parameters overflow double precision")
    history = [e_cur]
    eta = _STEP0
    S = Y = None                  # the last step and its change of P
    mark = (0, pgnorm)            # iteration and pg norm of the last halving
    rounding = np.finfo(float).eps * math.sqrt(masses.sum())  # of |Xh|
    it = 0
    stop = "max_iter"
    while it < budget and pgnorm > tol:
        it += 1
        D = precond * P
        armijo = pgnorm > _PG_SWITCH
        if armijo:
            gtd = float(_pairings(P, D, w).sum())
            slack = 1e-13 * (1.0 + abs(e_cur))
        trial = _first_trial(S, Y, eta, precond, w)
        while trial >= _STEP_MIN:
            cand = _project(Xh - trial * D, masses, w)
            e_new, P_new, _, X_new = _evaluate(cand, masses, prm, grid)
            pg_new = math.sqrt(_pairings(P_new, P_new, w).sum())
            if (e_new <= e_cur - _ARMIJO * trial * gtd + slack if armijo
                    else pg_new <= pgnorm):
                break
            trial *= _BACKTRACK
        else:  # no trial above the step floor passed
            if armijo:
                eta = trial
            stop = "line_search"
            break
        # trial * pgnorm bounds the move (K <= 1/2); one below the
        # iterate's rounding leaves only noise in S and Y
        moved = trial * pgnorm > rounding
        S, Y = (cand - Xh, P_new - P) if moved else (None, None)
        Xh, X, e_cur, P, pgnorm = cand, X_new, e_new, P_new, pg_new
        eta = trial
        history.append(e_cur)
        if armijo or pgnorm <= 0.5 * mark[1]:
            mark = (it, pgnorm)
        elif it - mark[0] >= _STALL and not moved:
            stop = "stalled"
            break
    stop = "converged" if pgnorm <= tol else stop
    return Xh, X, it, eta, history, pgnorm, stop


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
    z = np.sum(weights * grid.constants(_grid_constants).rotor)
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
    on the half spectrum so the psi mass centroid sits at x = 0, and the
    global phase of phi is removed.  One _evaluate of it gives its energy,
    multipliers and residual norms (NaN at zero mass).  A pair whose
    boundary leak exceeds opts.max_boundary_leak raises
    DomainTooSmallError with the half length its decay rate asks for.
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

    Xh, X, iters, final_step, history, pgnorm, termination = _descend(
        X, masses, prm, grid, opts.tol, opts.max_iter)

    report = MinimizeReport(
        iterations=iters, final_step=final_step,
        energy_history=history, termination=termination,
        I_value=math.nan, pg_norm=pgnorm)
    if termination != "converged":
        cause = {
            "max_iter": f"no convergence within {opts.max_iter} iterations",
            "line_search": f"line search found no step >= {_STEP_MIN:.0e} "
                           f"at iteration {iters}",
            "stalled": f"projected gradient stalled, not halved in "
                       f"{_STALL} iterations, at iteration {iters}"
        }[termination]
        raise ConvergenceError(
            f"{cause} (projected gradient {pgnorm:.3e} > tol {opts.tol:.1e})",
            report=report)

    # recentre (f(x + y) is a phase per mode), re-project, and certify
    # the solve with one evaluation: energy, multipliers, residuals
    y = _circular_centroid(X[1] * X[1] if t > 0.0 else X[0] * X[0], grid)
    w = grid.constants(_grid_constants).w
    Xh = _project(Xh * np.exp(1j * grid.wavenumbers[:grid.n // 2 + 1] * y),
                  masses, w)
    e_val, P, coef, X = _evaluate(Xh, masses, prm, grid)
    live = masses > 0.0
    X[~live] = 0.0                # a projected zero row may hold -0.0
    (sigma, c), (res_phi, res_psi) = np.where(live, [
        -0.5 * coef, 0.5 * np.sqrt(_pairings(P, P, w))], math.nan).tolist()
    phi, psi = X
    if float(np.sum(phi)) < 0.0:
        phi = -phi

    leaks = (boundary_leak(phi), boundary_leak(psi))
    leak = max(leaks)
    if leak > opts.max_boundary_leak:
        # far out phi decays like exp(-sqrt(sigma) |x|) and psi like
        # exp(-sqrt(c) |x|), so the leakier row's rate gives the box
        rate = sigma if leaks[0] >= leaks[1] else c
        need = (grid.half_length + math.log(leak / opts.max_boundary_leak)
                / math.sqrt(rate) if 0.0 < rate < math.inf else None)
        raise DomainTooSmallError(
            f"boundary leak {leak:.3e} exceeds {opts.max_boundary_leak:.1e}; "
            "enlarge the box"
            + ("" if need is None else f" to L >= {need:.2f}"),
            half_length_needed=need)

    pair = SolitaryWavePair(
        phi=ComplexField(grid, phi), psi=RealField(grid, psi),
        sigma=sigma, c=c, s=s, t=t, energy_value=float(e_val),
        el_residual_phi=res_phi, el_residual_psi=res_psi,
        boundary_leak=leak)
    report.I_value = pair.energy_value
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
