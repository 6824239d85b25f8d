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
point costs one transform each way, for the nonlinearity.  Each of a
trial's squared spectra is reduced once, against two weights at a time:
the candidate's gives its row masses and kinetic pairings, the
projected gradient's its norm and the Armijo slope <P, K P>.  The first
trial step of each iteration is the two-point step of the last two
iterates in the same metric (Barzilai & Borwein 1988, the "short" step
<s, y>/<y, K y>), clamped to [1/2, 2] times the last accepted step, so
it usually passes and an iteration costs about one trial; the metric
and the other per-grid constants are built once per grid.

A cold solve is nested iteration at the full coupling (Briggs, Henson
& McCormick 2000, A Multigrid Tutorial, ch. 3): a descent from the
product of the decoupled ground profiles on a coarser grid of the same
box, then one on the solve's grid from its answer's zero-padded half
spectrum, which usually certifies it with no iteration.  In the H1
metric the high modes' curvature tends to 1, so a step of 2 leaves
them undamped; the Armijo fraction 0.2 (any c1 in (0, 1) is allowed,
Nocedal & Wright §3.1) refuses that step, where the customary 1e-4
accepts it and the descent stalls for thousands of iterations.

Lagrange multipliers come from pairing the energy gradient with the
profiles themselves (sigma = -<dE/dphi, phi>/2s, c = -<dE/dpsi, psi>/2t),
and the residuals dE/2 + multiplier * profile of the stationarity
system are the convergence certificates.  minimize_W runs the same
descent with psi's row free and the twist penalty (t - |psi|^2)^2/s,
and adds the penalty's rank-one curvature to psi's metric.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.fft

from .errors import (BoundaryMinimumError, ConvergenceError,
                     DomainTooSmallError, UnattainedInfimumError,
                     ValidationError, require_count)
from .exact import (_line_log_lambda, _require_reachable, kdv_profile,
                    nls_ground)
from .functionals import (PhysParams, _potential_sum, gradient_values,
                          nonlinearity)
from .grid import (ComplexField, Grid1D, RealField, apply_symbol,
                   boundary_leak, same_grid)

# fixed constants of the descent and the W search
_ARMIJO = 0.2                     # sufficient decrease; refuses step 2
_BACKTRACK = 0.5
_STEP0 = 0.25                     # initial step of a cold descent
_STEP_WARM = 1.0                  # and of a warm one: the H1 unit step
_STEP_MAX = 4.0
_STEP_MIN = 1e-16                 # a line search fails below this step
_PG_SWITCH = 1e-4                 # below this, accept on gradient norm
_STALL = 100                      # gradient-norm iterations to halve pg in
_CONTINUATION_TOL = 1e-6          # exit tolerance of minimize_W's scan nodes
_TWIST_TOL = 5e-13                # and of its descent on F, at most
_W_SCAN_NODES = 17
_COARSE_CELLS = 8                 # coarse cells per decoupled decay length
_COARSE_TOL = 1e-12               # a coarse descent's tolerance, at least


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
    """Record of a solve's descents; a cold solve's coarse one counts too."""

    iterations: int
    final_step: float                 # of the last descent, as termination
    energy_history: list              # at each start and accepted step
    termination: str
    I_value: float
    pg_norm: float
    stages: int = 1                   # coupling stages; always the full one
    evaluations: int = 0              # _evaluate calls, recentring included


@dataclass
class WSolution:
    """Minimizer of the two-invariant problem (see minimize_W).

    a_star is the optimal long-wave mass, b the phase-twist slope
    (t - a_star)/s, and Phi the twisted short-wave profile.  omega and c
    are the multipliers of the twisted stationarity system; pair is the
    underlying mass-constrained minimizer.  twist_gap = |c + 2b| = |W'|
    is the joint descent's residual along psi, <G_psi - 4b psi, psi>/2a*
    (NaN when c is undefined).  n_solves counts the inner minimize_I
    calls that returned a pair, n_unavailable those refused for the box.
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

    mass_kinetic: np.ndarray  # Parseval weights w and w k^2, for _squares
    mass_metric: np.ndarray   # w and w K, for _squares
    laplacian: np.ndarray     # half symbol of d^2/dx^2
    precond: np.ndarray       # H1 preconditioner K = 0.5 / (1 + k^2)
    rotor: np.ndarray         # exp(i pi x / L) of the circular centroid


def _grid_constants(grid: Grid1D) -> _GridConstants:
    """The grid's constants, built by Grid1D.constants once per grid."""
    half = grid.n // 2 + 1
    w, precond = _half_weights(grid), 0.5 / grid.h1_weights[:half]
    return _GridConstants(
        # the kinetic weight zeroes the Nyquist entry, as the first
        # derivative does; the gradient's second derivative keeps it
        mass_kinetic=np.array([w, _half_weights(grid, 1)]),
        mass_metric=np.array([w, w * np.repeat(precond, 2)]),
        laplacian=grid.deriv_symbol(2)[:half],
        precond=precond,
        rotor=np.exp(1j * (np.pi * grid.x / grid.half_length)))


def _pairings(A, B, w):
    """Row-wise pairings sum(w Re(A conj(B))) of half spectra.

    A and B are C-contiguous along their last axis; w comes from
    _half_weights.
    """
    return (A.view(np.float64) * B.view(np.float64)) @ w


def _total_pairing(A, B, w) -> float:
    """The two rows' _pairings summed, as a Python float."""
    a, b = _pairings(A, B, w).tolist()
    return a + b


def _squares(A, weights):
    """[[sum w|A0|^2, sum w'|A0|^2], [the same for A1]] for weights [w, w']."""
    a = A.view(np.float64)
    return ((a * a) @ weights.T).tolist()


def _project(Xh, masses, mass_kinetic):
    """Each half-spectrum row scaled to its mass (zero-mass rows to 0).

    A row of mass None is free and kept.  Returns the rows, their kinetic
    energy, sum (m / r) k over rows of mass m > 0 and k of a free row,
    with r and k the row's mass and kinetic pairing from one _squares
    product, and masses with a free row's r in place of None.  A zero
    row of mass m > 0 scales by inf.
    """
    scales, kinetic, rows = [0.0, 0.0], 0.0, list(masses)
    for i, (m, (r, k)) in enumerate(zip(masses, _squares(Xh, mass_kinetic))):
        if m is None:
            scales[i], kinetic, rows[i] = 1.0, kinetic + k, r
        elif m > 0.0:
            ratio = m / r if r else math.inf
            scales[i] = math.sqrt(ratio)
            kinetic += ratio * k
    return Xh * np.array(scales)[:, None], kinetic, rows


def _evaluate(Xh, kinetic, rows, prm, grid, twist=None):
    """(energy, P, coef, X) at the half spectrum Xh, X its real stack.

    Xh, its kinetic energy and row masses are as _project returns them.
    The gradient G = -2 (d^2/dx^2 X + N) projects to P = G - coef Xh,
    coef = <G, Xh>/mass per row, as floats (0, and P = 0, at zero mass):
    the multipliers are -coef/2 and the stationarity residuals P/2.  A
    twist t penalizes a free row 1 of mass r: the energy gains b^2 s,
    b = (t - r)/s, s = rows[0], and the row's coef is 4b, so its P is
    F's gradient G - 4b Xh.  One inverse transform gives N and the
    potential energy, one forward transform N's spectrum.  N is written
    into the (2, n) buffer the forward transform reads, and P is built
    in place on that transform's output.
    """
    mass_kinetic, _, laplacian, _, _ = grid.constants(_grid_constants)
    X = scipy.fft.irfft(Xh, grid.n)
    NX = nonlinearity(X[0], X[1], prm, np.empty_like(X))
    e = kinetic - grid.dx * _potential_sum(*X, *NX, prm)
    P = scipy.fft.rfft(NX)
    P += laplacian * Xh
    P *= -2.0
    coef = [g / m if m > 0.0 else 0.0 for g, m in
            zip(_pairings(P, Xh, mass_kinetic[0]).tolist(), rows)]
    if twist is not None:
        gap = twist - rows[1]
        e += gap * gap / rows[0]
        coef[1] = 4.0 * gap / rows[0]
    P -= np.array(coef)[:, None] * Xh
    if 0.0 in rows:
        P[[m == 0.0 for m in rows]] = 0.0
    return e, P, coef, X


def _first_trial(S, Y, eta, mass_metric, rank_one=None):
    """First trial step of an iteration: the two-point step, clamped.

    S is the last accepted step of the half spectrum and Y the change of
    the projected gradient P across it; both are None before the first
    step and after a move below the iterate's rounding, whose
    differences are noise.  The short two-point step <S, Y> / <Y, K Y>
    (Barzilai & Borwein 1988), with K the preconditioner, is the step
    for which step * K Y best matches S (least squares in the 1/K
    metric), the secant equation of a preconditioned gradient step;
    <Y, K Y> weights Y's squares by w K, so K Y is not formed; a
    rank_one = (c, K psi) of _twist_metric takes c <K psi, Y_psi>^2 off
    it, for <Y, M Y> in the twist metric M.  It is clamped to [eta/2,
    2 eta] around the last accepted step eta and to at most _STEP_MAX.
    Without a history, or where <S, Y> <= 0 (no positive curvature
    along the step), the last step grows by 1.26.
    """
    sy = _total_pairing(S, Y, mass_metric[0]) if S is not None else 0.0
    if sy <= 0.0:
        return min(eta * 1.26, _STEP_MAX)
    yky = _total_pairing(Y, Y, mass_metric[1])
    if rank_one is not None:
        c, Kpsi = rank_one
        yky -= c * float(_pairings(Kpsi, Y[1], mass_metric[0])) ** 2
    return min(max(sy / yky, 0.5 * eta), 2.0 * eta, _STEP_MAX)


def _twist_metric(D, P, Xh, s, precond, w):
    """Psi's row of D = K P, in place, in the metric of the descent on F.

    The metric (K^-1 + h psi psi^T)^-1 adds the rank-one part h psi psi^T,
    h = 8/s, of the penalty's Hessian; by Sherman-Morrison (Nocedal &
    Wright 2006, ch. 6) it is K - c (K psi)(K psi)^T with
    c = h / (1 + h <psi, K psi>).  In K alone psi's mass direction
    converged linearly.  Returns the slope's change -c <K psi, P>^2,
    from <P, K P> to <P, D>, and (c, K psi) for _first_trial.
    """
    Kpsi = precond * Xh[1]
    h = 8.0 / s
    c = h / (1.0 + h * float(_pairings(Kpsi, Xh[1], w)))
    kp = float(_pairings(Kpsi, P[1], w))
    D[1] -= c * kp * Kpsi
    return -c * kp * kp, (c, Kpsi)


def _descend(Xh, masses, prm, grid, tol, budget, step0, twist=None):
    """Projected, preconditioned descent at fixed parameters.

    Xh is the rfft half spectrum of the real (2, n) stack [phi; psi],
    and masses the floats (s, t),
    or (s, None) with a twist t: then psi's row is free, the objective
    is E + (t - |psi|^2)^2/s (see _evaluate) and psi's row is measured
    in the metric of _twist_metric.
    The iterate is held as that half spectrum, projected by _project
    and evaluated by _evaluate; the H1 preconditioner is a
    division by 1 + k^2.  An accepted trial's evaluation is the new
    iterate's; one _squares product of its P gives |P|^2, for the
    gradient-norm test, and <P, K P>, the next Armijo slope.  The first
    trial of an iteration is _first_trial's two-point step from the last
    accepted step and the change of the projected gradient across it,
    clamped to [1/2, 2] times that step; the first iteration, and one
    after a move below the iterate's rounding, grow the last step by
    1.26 instead; before the first iteration the last step is step0
    (minimize_I passes _STEP0 cold and _STEP_WARM warm).  One
    backtracking loop takes an Armijo test on the energy far from the
    minimizer; once the projected gradient is small, energy differences
    sink below float rounding and a step must instead not raise the
    projected-gradient norm.

    Returns the final half spectrum, the last accepted evaluation
    (energy, P, coef, X) at it, as _evaluate gives it, and (iterations,
    evaluations, final_step, history, pg_norm, termination), evaluations
    counting the _evaluate calls and termination being why the descent
    stopped: "converged", "max_iter" (budget spent), "line_search" (no
    trial step of at least _STEP_MIN passed) or "stalled" (in the
    gradient-norm phase the projected gradient has not halved in _STALL
    iterations and the last step moved the iterate by less than its
    rounding: the gradient is at its rounding floor, above tol).  After
    a failed line search final_step is the step below the floor (Armijo
    phase) or the last accepted one.
    """
    mass_kinetic, mass_metric, _, precond, _ = grid.constants(_grid_constants)
    Xh, kinetic, rows = _project(Xh, masses, mass_kinetic)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is refused below
        e_cur, P, coef, X = _evaluate(Xh, kinetic, rows, prm, grid, twist)
        (p0, g0), (p1, g1) = _squares(P, mass_metric)
    pgnorm, gtd = math.sqrt(p0 + p1), g0 + g1
    if not (math.isfinite(e_cur) and math.isfinite(pgnorm)):
        raise ValidationError(
            f"energy {e_cur:.3e} or projected gradient {pgnorm:.3e} is not "
            "finite at the start; the parameters overflow double precision")
    history = [e_cur]
    eta = step0
    S = Y = None                  # the last step and its change of P
    mark = (0, pgnorm)            # iteration and pg norm of the last halving
    rounding = np.finfo(float).eps * math.sqrt(sum(rows))  # of |Xh|
    it, evaluations = 0, 1
    stop = "max_iter"
    while it < budget and pgnorm > tol:
        it += 1
        D, rank_one = precond * P, None
        if twist is not None:
            slope, rank_one = _twist_metric(D, P, Xh, rows[0], precond,
                                            mass_metric[0])
            gtd += slope
        armijo = pgnorm > _PG_SWITCH
        slack = 1e-13 * (1.0 + abs(e_cur))
        trial = _first_trial(S, Y, eta, mass_metric, rank_one)
        while trial >= _STEP_MIN:
            cand, kinetic, rows = _project(Xh - trial * D, masses,
                                           mass_kinetic)
            e_new, P_new, coef_new, X_new = _evaluate(cand, kinetic, rows,
                                                      prm, grid, twist)
            evaluations += 1
            (p0, g0), (p1, g1) = _squares(P_new, mass_metric)
            pg_new = math.sqrt(p0 + p1)
            if (e_new <= e_cur - _ARMIJO * trial * gtd + slack if armijo
                    else pg_new <= pgnorm):
                break
            trial *= _BACKTRACK
        else:  # no trial above the step floor passed
            if armijo:
                eta = trial
            stop = "line_search"
            break
        # trial * pgnorm bounds the move (K <= 1/2, and the twist metric
        # lies below K); one below the iterate's rounding leaves only
        # noise in S and Y
        moved = trial * pgnorm > rounding
        S, Y = (cand - Xh, P_new - P) if moved else (None, None)
        Xh, X, e_cur, P, coef, pgnorm, gtd = (cand, X_new, e_new, P_new,
                                              coef_new, pg_new, g0 + g1)
        eta = trial
        history.append(e_cur)
        if armijo or pgnorm <= 0.5 * mark[1]:
            mark = (it, pgnorm)
        elif it - mark[0] >= _STALL and not moved:
            stop = "stalled"
            break
    stop = "converged" if pgnorm <= tol else stop
    return (Xh, (e_cur, P, coef, X), it, evaluations, eta, history, pgnorm,
            stop)


def _initial_fields(s, t, prm, grid):
    """Product of decoupled ground profiles, with width fallbacks.

    The long wave is the decoupled KdV ground profile at mass t unless
    that profile is wide for the box, sqrt(lam) L < 16, when it is
    sech^2(x/2).  The test reads lam from the closed-form real-line
    width (exact._line_log_lambda) in log space, where tau2 = 1e300
    cannot overflow, so the width is root-found on the grid only for a
    profile that is used; a fallback's mass is still checked reachable
    on the grid (exact._require_reachable, which the root-find runs).
    The short wave is its decoupled ground profile, or sech(x/2)
    without a self-interaction.
    """
    x = grid.x
    if t > 0.0:
        log_lam = _line_log_lambda(t, prm.p_float, prm.beta2)
        if 0.5 * log_lam + math.log(grid.half_length) >= math.log(16.0):
            psi = kdv_profile(t, prm, grid).evaluate(x)
        else:
            _require_reachable(t, prm.p_float, prm.beta2, grid)
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


_same_box = functools.lru_cache(maxsize=8)(Grid1D)  # one grid per (L, n)


def _coarse_grid(s, t, prm, grid):
    """The grid of a cold solve's coarse descent, or None if none is coarser.

    Its n / 2^k points (even, at least 8) on grid's box are the fewest
    that put _COARSE_CELLS cells in the decoupled decay length
    2 / (p sqrt(lam)) of the narrower row with a self-interaction (p
    its power, lam its real-line width, exact._line_log_lambda).
    """
    log_width = min(math.log(2.0 / power) - 0.5 * _line_log_lambda(
        mass, power, beta) for mass, power, beta in (
            (s, prm.q, prm.beta1), (t, prm.p_float, prm.beta2))
        if mass > 0.0 and beta > 0.0)
    n = grid.n
    while n % 4 == 0 and n >= 16 and math.log(
            4.0 * _COARSE_CELLS * grid.half_length / n) <= log_width:
        n //= 2
    return None if n == grid.n else _same_box(grid.half_length, n)


def _padded(Xh, n):
    """The half spectrum Xh of a coarser grid, zero-padded to n points.

    The amplitudes scale by n / n_c; the coarse Nyquist cosine is split
    between two modes of the finer grid, so its entry is halved.
    """
    m = Xh.shape[1] - 1
    out = np.zeros((Xh.shape[0], n // 2 + 1), dtype=Xh.dtype)
    out[:, :m + 1] = Xh * (n / (2 * m))
    out[:, m] *= 0.5
    return out


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


def _not_converged(stop, iters, pgnorm, tol, budget, report=None):
    """The ConvergenceError of a descent that stopped short of tol."""
    cause = {
        "max_iter": f"no convergence within {budget} iterations",
        "line_search": f"line search found no step >= {_STEP_MIN:.0e} "
                       f"at iteration {iters}",
        "stalled": f"projected gradient stalled, not halved in {_STALL} "
                   f"iterations, at iteration {iters}"
    }[stop]
    return ConvergenceError(
        f"{cause} (projected gradient {pgnorm:.3e} > tol {tol:.1e})",
        report=report)


def _enlarge(need: Optional[float]) -> str:
    """The close of a DomainTooSmallError message: the box to use, if known."""
    return "enlarge the box" + ("" if need is None else f" to L >= {need:.2f}")


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
    full coupling from the product of the decoupled ground profiles
    (_initial_fields), and a mass that no width of its ground profile
    gives on grid is refused first (ValidationError).
    A start whose energy or projected gradient is not finite (the
    parameters overflow double precision) raises ValidationError.

    A cold solve first descends on _coarse_grid's grid, if there is one,
    from the start's samples there to max(tol, 1e-12), and pads what
    that descent reached, converged or not, onto grid for a warm
    descent; both share opts.max_iter.  No boundary leak is judged on
    the coarse grid.

    A cold descent starts from the step _STEP0 = 0.25.  A warm one
    starts near a solution, so from _STEP_WARM = 1.0, the unit step of
    the H1 metric (its high modes' curvature tends to 1).

    Returns (SolitaryWavePair, MinimizeReport).  The last descent's last
    accepted evaluation certifies the pair: its energy, multipliers and
    residual norms (NaN at zero mass).  Only when the psi mass centroid
    (phi's without a long wave) lies beyond eps L, the rounding of the
    grid's own coordinates, is the half spectrum shifted to put it at
    x = 0, projected and evaluated once more.  The global phase of phi
    is removed.  A pair whose boundary leak exceeds
    opts.max_boundary_leak raises DomainTooSmallError with the half
    length its decay rate asks for.
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

    masses = (float(s), float(t))
    coarse, step0 = None, _STEP_WARM
    if warm_start is not None:
        try:
            X = np.array(warm_start, dtype=np.float64)
        except ValueError as exc:
            raise ValidationError(f"malformed warm_start: {exc}") from exc
        if X.shape != (2, grid.n) or not np.all(np.isfinite(X)):
            raise ValidationError(
                f"warm_start needs two finite rows of {grid.n} samples")
        if any(m > 0.0 and not row.any() for m, row in zip(masses, X)):
            raise ValidationError(
                "warm_start has an all-zero row where the mass is positive")
    else:
        X = np.array(_initial_fields(s, t, prm, grid))
        coarse, step0 = _coarse_grid(s, t, prm, grid), _STEP0

    iters, evaluations, history = 0, 0, []
    Xh = scipy.fft.rfft(X if coarse is None else X[:, ::grid.n // coarse.n])
    if coarse is not None:
        # nested iteration: descend on the coarse grid from the start's
        # samples there, and pad what it reached onto grid
        Xh, _, iters, evaluations, _, history, _, _ = _descend(
            Xh, masses, prm, coarse, max(opts.tol, _COARSE_TOL),
            opts.max_iter, _STEP0)
        Xh, step0 = _padded(Xh, grid.n), _STEP_WARM
    Xh, last, it, ev, final_step, hist, pgnorm, termination = _descend(
        Xh, masses, prm, grid, opts.tol, opts.max_iter - iters, step0)
    iters += it

    report = MinimizeReport(
        iterations=iters, final_step=final_step,
        energy_history=history + hist, termination=termination,
        I_value=math.nan, pg_norm=pgnorm, evaluations=evaluations + ev)
    if termination != "converged":
        raise _not_converged(termination, iters, pgnorm, opts.tol,
                             opts.max_iter, report)

    # the last evaluation certifies the solve (energy, multipliers,
    # residuals) unless the centroid must move by more than the
    # coordinates' rounding: then recentre (f(x + y) is a phase per
    # mode), re-project and evaluate again
    e_val, P, coef, X = last
    y = _circular_centroid(X[1] * X[1] if t > 0.0 else X[0] * X[0], grid)
    consts = grid.constants(_grid_constants)
    if abs(y) > np.finfo(float).eps * grid.half_length:
        Xh, kinetic, rows = _project(
            Xh * np.exp(1j * grid.wavenumbers[:grid.n // 2 + 1] * y),
            masses, consts.mass_kinetic)
        e_val, P, coef, X = _evaluate(Xh, kinetic, rows, prm, grid)
        report.evaluations += 1
    (sigma, res_phi), (c, res_psi) = (
        (-0.5 * k, 0.5 * math.sqrt(pg2)) if m > 0.0 else (math.nan,) * 2
        for k, (pg2, _), m in zip(coef, _squares(P, consts.mass_metric),
                                  masses))
    X[[m == 0.0 for m in masses]] = 0.0   # a projected zero row may hold -0.0
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
            + _enlarge(need), half_length_needed=need)

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
    profiles linearly.  Above or below them all it extrapolates with the
    polynomial through the nearest ones on that side, the predictor of
    natural-parameter continuation (Allgower & Georg 1990, ch. 2): of
    degree 4 through the five nearest, of lower degree through fewer,
    the one pair's profiles next to a single one.  It is Newton's form,
    the nearest pair's profiles plus one divided-difference term per
    further node.  a = 0 is a node only as the first or second: its psi
    is 0 and psi grows like sqrt(a), which no polynomial in a follows,
    so past the secant it is skipped.  A psi row left all zero (the
    only neighbour is a = 0, with no long wave) becomes a sech^2 bump.
    None when known is empty, as at the first available node of
    minimize_W's scan when a = 0 has no pair.
    """
    below = sorted((k for k in known if k < a), reverse=True)
    above = sorted(k for k in known if k > a)
    if below and above:
        lo, hi = below[0], above[0]
        w = (a - lo) / (hi - lo)
        X = (1.0 - w) * _stack(known[lo]) + w * _stack(known[hi])
    elif below or above:
        near = below or above
        near = near[:2] + [k for k in near[2:5] if k > 0.0]
        # diffs[i] holds the divided difference over near[i-j..i] after
        # pass j; diffs[j] is then the j-th Newton coefficient
        diffs = [_stack(known[k]) for k in near]
        X, basis = diffs[0], 1.0
        for j in range(1, len(near)):
            for i in range(len(near) - 1, j - 1, -1):
                diffs[i] = (diffs[i] - diffs[i - 1]) / (near[i] - near[i - j])
            basis *= a - near[j - 1]
            X = X + basis * diffs[j]
    else:
        return None
    if not X[1].any():
        X[1] = 1.0 / np.cosh(grid.x / 2.0) ** 2
    return X


def minimize_W(s: float, t: float, prm: PhysParams, grid: Grid1D,
               opts: Optional[MinimizeOptions] = None) -> WSolution:
    """Minimize the energy at fixed mass s and momentum t.

    With u = exp(-i b x) phi and b = (t - |psi|^2)/s (the twist
    identity), the minimum is that of F = E(phi, psi) + (t - |psi|^2)^2/s
    over real pairs with |phi|^2 = s, and of W(a) = I(s, a) + (t - a)^2/s
    over the long-wave mass a.  Along minimizers dI/da = -c, so each
    inner solve also gives the slope W' = -(c + 2b).  A 17-node scan
    keeps W and W' per node; the cell between the lowest node and its
    downhill neighbour places one descent on F (_descend with psi's row
    free, in the metric of _twist_metric).  It starts from the profiles
    where the cell's coarse c + 2b crosses zero (linearly; at the
    midpoint when the cell ends at a = 0 or its slopes keep their sign)
    and stops at a projected gradient of min(opts.tol, 5e-13).  Its
    |psi|^2 is a*, and one warm minimize_I(s, a*) at opts.tol certifies
    the pair (pair.t == a_star).  When W rises from a = 0, a* = 0 and
    the certificate re-solves that node.  A downhill neighbour with no
    profile in the box gets one midpoint solve before the search gives
    up; the error then names the largest box the unavailable inner
    solves asked for.

    The scan is a natural-parameter continuation in a: it ascends from
    a = 0, solved cold from its closed-form decoupled profile (or the
    first available node, when a = 0 has no pair), and every later node
    starts from the profiles of the solved masses around it:
    interpolated between two, and beyond them extrapolated by the
    polynomial through the nearest five, of degree 4 (see _warm_start).
    Scan nodes, the midpoint and the range doublings only place the
    descent, so they are solved to max(opts.tol, 1e-6).
    n_solves counts the minimize_I calls that returned a pair (scan
    nodes, midpoint, certificate), n_unavailable those refused for the
    box; the descent on F is neither.  The short-wave profile is
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

    # the twist term (t - a)^2/s must not overflow at any mass the scan
    # and its 8 range doublings reach, with one range to spare
    a_max = abs(t) + 4.0 * math.sqrt(s * (1.0 + abs(t)))
    gap = 2.0 ** 9 * a_max - t      # >= |t - a| at every such mass
    if not math.isfinite(gap * gap / s):
        raise ValidationError(
            f"the twist term (t - a)^2/s overflows for s={s}, t={t}")

    cache: dict = {}    # scan mass -> W
    pairs: dict = {}    # scan mass -> its pair, where it has one
    scan_opts = dataclasses.replace(opts,
                                    tol=max(opts.tol, _CONTINUATION_TOL))
    solves = 0
    unavailable = 0
    need = None       # the largest box an unavailable node asked for

    def solve(a: float, tol_opts: MinimizeOptions, warm):
        # (W, pair) at a; pair is None where there is none
        nonlocal solves, unavailable, need
        try:
            pair, _ = minimize_I(s, a, prm, grid, tol_opts, warm_start=warm)
        except UnattainedInfimumError:
            return t * t / s, None            # I(s,0) = 0, unattained
        except DomainTooSmallError as err:
            # profile too wide for the box at this mass; record it as
            # unavailable and keep scanning
            unavailable += 1
            if err.half_length_needed is not None:
                need = max(need or 0.0, err.half_length_needed)
            return math.inf, None
        solves += 1
        return pair.energy_value + (t - a) ** 2 / s, pair

    def solve_at(a: float) -> float:
        # W at a scan mass, solved once to the continuation tolerance;
        # a = 0 starts cold from its closed-form decoupled profile,
        # which converges in a few iterations
        key = round(a, 15)
        if key not in cache:
            cache[key], pair = solve(a, scan_opts, None if a == 0.0
                                     else _warm_start(a, pairs, grid))
            if pair is not None:
                pairs[key] = pair
        return cache[key]

    def slope(a: float) -> float:
        # -W'(a) = c + 2b at a scan mass with a profile; a = 0 has no
        # long-wave multiplier, take a -> 0+
        if a == 0.0:
            return math.inf if prm.alpha > 0.0 else 2.0 * t / s
        return pairs[round(a, 15)].c + 2.0 * (t - a) / s

    for _ in range(9):
        nodes = [float(a) for a in np.linspace(0.0, a_max, _W_SCAN_NODES)]
        vals = [solve_at(a) for a in nodes]
        if np.argmin(vals) < len(nodes) - 1:
            break
        a_max *= 2.0
    else:
        raise BoundaryMinimumError(
            f"scan minimum stuck at the upper endpoint a = {a_max}")

    # the cell between the best node and its downhill neighbour; a
    # neighbour with no profile gets one midpoint solve before the
    # search gives up
    widened = False
    while True:
        best = int(np.argmin(vals))
        j = best + (1 if slope(nodes[best]) >= 0.0 else -1)
        if j < 0:
            if math.isfinite(vals[1]):     # W rises from a = 0
                break
            j = 1
        lo = min(best, j)
        if math.isfinite(vals[j]):
            break
        if widened:
            raise DomainTooSmallError(
                "the scan minimum abuts long-wave masses whose profiles "
                "do not fit the box; " + _enlarge(need),
                half_length_needed=need)
        widened = True
        am = 0.5 * (nodes[lo] + nodes[lo + 1])
        nodes.insert(lo + 1, am)
        vals.insert(lo + 1, solve_at(am))

    if j < 0:
        a_star, pair = 0.0, pairs.get(0.0)
        if pair is None:
            raise UnattainedInfimumError(
                "the search settled on zero long-wave mass with no "
                "short-wave self-interaction; no minimizer exists there")
        warm = _stack(pair)
    else:
        # the descent on F from where the cell's coarse c + 2b crosses 0
        a0, a1 = nodes[lo], nodes[lo + 1]
        g0, g1 = slope(a0), slope(a1)
        w = g0 / (g0 - g1) if a0 > 0.0 and g0 > 0.0 > g1 else 0.5
        tol = min(opts.tol, _TWIST_TOL)
        Xh, last, iters, _, _, _, pgnorm, stop = _descend(
            scipy.fft.rfft(_warm_start(a0 + w * (a1 - a0), pairs, grid)),
            (s, None), prm, grid, tol, opts.max_iter, _STEP_WARM, twist=t)
        if stop != "converged":
            raise _not_converged(stop, iters, pgnorm, tol, opts.max_iter)
        a_star = _squares(Xh, grid.constants(_grid_constants)
                          .mass_kinetic)[1][0]
        warm = last[3]
    w_value, pair = solve(a_star, opts, warm)
    if pair is None:
        raise DomainTooSmallError(
            f"no profile at long-wave mass a = {a_star:.6g}; "
            + _enlarge(need), half_length_needed=need)

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
