"""Time integration of the coupled system and orbital diagnostics.

The stepper is an integrating-factor RK4 in Fourier space: the stiff
linear symbols (second derivative for the short wave, third for the
long wave) are applied exactly, the nonlinear terms are evaluated
pseudospectrally with 2/3-rule dealiasing, and the explicit stage
combination is classical RK4.  Trajectories are deterministic given the
seed, so independent runs can execute in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import BlowUpError, GridMismatchError, ValidationError
from .functionals import PhysParams, conserved_triple, nonlinearity
from .grid import ComplexField, Grid1D, RealField, same_grid
from .minimize import SolitaryWavePair


@dataclass
class EvolveState:
    """Instantaneous fields of the coupled system."""

    u: ComplexField
    v: RealField
    time: float
    prm: PhysParams

    def __post_init__(self):
        same_grid(self.u, self.v)

    @property
    def grid(self) -> Grid1D:
        return self.u.grid


@dataclass
class EvolveTrace:
    """Sampled conserved quantities and orbital distances along a run."""

    times: np.ndarray
    E: np.ndarray
    G: np.ndarray
    H: np.ndarray
    distance: Optional[np.ndarray]
    dt: float
    sample_every: int
    seed: Optional[int] = None
    scheme: str = "ifrk4/2-3-dealias"
    final_state: Optional[EvolveState] = field(default=None, repr=False)

    def drift(self, name: str) -> float:
        series = getattr(self, name)
        return float(np.max(np.abs(series - series[0])))

    def rel_drift(self, name: str) -> float:
        series = getattr(self, name)
        scale = max(abs(float(series[0])), 1e-300)
        return self.drift(name) / scale


def stable_dt_bound(state: EvolveState) -> float:
    """Step-size guidance from the grid and current field magnitudes.

    The bound is the explicit-RK4 imaginary-axis limit applied to the
    dealiased advection rate of the long wave plus the potential
    rotation rate of the short wave, with a safety factor.
    """
    grid = state.grid
    prm = state.prm
    k_eff = (2.0 / 3.0) * np.pi * (grid.n / 2) / grid.half_length
    vmax = float(np.max(np.abs(state.v.values)))
    umax = float(np.max(np.abs(state.u.values)))
    advect = prm.tau2 * vmax ** prm.p_float
    rotate = prm.tau1 * umax ** prm.q + prm.alpha * vmax
    return 2.0 / (k_eff * advect + rotate + 1e-12)


class _Stepper:
    """Precomputed propagators and dealiased nonlinearity for one dt."""

    def __init__(self, grid: Grid1D, prm: PhysParams, dt: float):
        self.prm = prm
        self.dt = dt
        n = grid.n
        self.n = n
        kr = grid.rwavenumbers
        self.eu_h = np.exp(-1j * grid.wavenumbers ** 2 * (dt / 2.0))
        self.eu_f = self.eu_h ** 2
        self.ev_h = np.exp(1j * kr ** 3 * (dt / 2.0))
        self.ev_f = self.ev_h ** 2
        cut = n // 3
        idx = np.abs(np.fft.fftfreq(n) * n)
        self.mask_u = (idx <= cut).astype(float)
        self.mask_v = (np.arange(kr.size) <= cut).astype(float)
        self.ikr = grid.deriv_symbol(1, True)

    def nonlinear(self, uh, vh):
        u = np.fft.ifft(uh * self.mask_u)
        v = np.fft.irfft(vh * self.mask_v, self.n)
        nu, w = nonlinearity(u, v, self.prm)
        nuh = np.fft.fft(1j * nu) * self.mask_u
        # long-wave nonlinearity in conservative form, one derivative
        nvh = -self.ikr * np.fft.rfft(w) * self.mask_v
        return nuh, nvh

    def step_spectral(self, uh, vh):
        # overflow here is how blow-up manifests; the caller checks for
        # non-finite samples after every step
        with np.errstate(over="ignore", invalid="ignore"):
            return self._step_spectral(uh, vh)

    def _step_spectral(self, uh, vh):
        dt = self.dt
        n1u, n1v = self.nonlinear(uh, vh)
        au = self.eu_h * (uh + (dt / 2.0) * n1u)
        av = self.ev_h * (vh + (dt / 2.0) * n1v)
        n2u, n2v = self.nonlinear(au, av)
        bu = self.eu_h * uh + (dt / 2.0) * n2u
        bv = self.ev_h * vh + (dt / 2.0) * n2v
        n3u, n3v = self.nonlinear(bu, bv)
        cu = self.eu_f * uh + dt * self.eu_h * n3u
        cv = self.ev_f * vh + dt * self.ev_h * n3v
        n4u, n4v = self.nonlinear(cu, cv)
        uh_new = self.eu_f * uh + (dt / 6.0) * (
            self.eu_f * n1u + 2.0 * self.eu_h * (n2u + n3u) + n4u)
        vh_new = self.ev_f * vh + (dt / 6.0) * (
            self.ev_f * n1v + 2.0 * self.ev_h * (n2v + n3v) + n4v)
        return uh_new, vh_new


def _check_dt(state: EvolveState, dt: float) -> None:
    if dt == 0.0 or not np.isfinite(dt):
        raise ValidationError(f"dt must be finite and nonzero, got {dt}")
    bound = stable_dt_bound(state)
    if abs(dt) > 2.0 * bound:
        raise ValidationError(
            f"dt={dt} exceeds twice the stability guidance {bound:.3e}")


def step(state: EvolveState, dt: float) -> EvolveState:
    """Advance one step; negative dt integrates backward."""
    _check_dt(state, dt)
    stepper = _Stepper(state.grid, state.prm, dt)
    uh = np.fft.fft(state.u.values)
    vh = np.fft.rfft(state.v.values)
    uh, vh = stepper.step_spectral(uh, vh)
    if not (np.all(np.isfinite(uh)) and np.all(np.isfinite(vh))):
        raise BlowUpError("non-finite samples after one step",
                          last_state=state)
    return EvolveState(
        u=ComplexField(state.grid, np.fft.ifft(uh)),
        v=RealField(state.grid, np.fft.irfft(vh, state.grid.n)),
        time=state.time + dt, prm=state.prm)


def evolve(state: EvolveState, T: float, dt: float,
           sample_every: int = 100,
           reference: Optional[SolitaryWavePair] = None,
           wavespeed: Optional[float] = None,
           seed: Optional[int] = None) -> EvolveTrace:
    """Integrate for duration T, sampling conserved quantities.

    When a reference pair is given, the distance to its symmetry orbit
    is recorded at each sample.  On blow-up the partial trace is
    attached to the raised error.
    """
    _check_dt(state, dt)
    if sample_every < 1:
        raise ValidationError("sample_every must be >= 1")
    nsteps = int(round(abs(T) / abs(dt)))
    stepper = _Stepper(state.grid, state.prm, dt)
    grid = state.grid
    uh = np.fft.fft(state.u.values)
    vh = np.fft.rfft(state.v.values)

    times, es, gs, hs, ds = [], [], [], [], []

    def record(t, uvals, vvals):
        uf = ComplexField(grid, uvals)
        vf = RealField(grid, vvals)
        trip = conserved_triple(uf, vf, state.prm)
        times.append(t)
        es.append(trip.E)
        gs.append(trip.G)
        hs.append(trip.H)
        if reference is not None:
            snap = EvolveState(u=uf, v=vf, time=t, prm=state.prm)
            ds.append(orbital_distance(snap, reference, wavespeed=wavespeed))

    def make_trace(final):
        return EvolveTrace(
            times=np.array(times), E=np.array(es), G=np.array(gs),
            H=np.array(hs),
            distance=np.array(ds) if reference is not None else None,
            dt=dt, sample_every=sample_every, seed=seed, final_state=final)

    record(state.time, state.u.values, state.v.values)
    u_last, v_last, t_last = state.u.values, state.v.values, state.time
    for i in range(1, nsteps + 1):
        uh_prev, vh_prev = uh, vh
        uh, vh = stepper.step_spectral(uh, vh)
        if not (np.all(np.isfinite(uh)) and np.all(np.isfinite(vh))):
            t_prev = state.time + (i - 1) * dt
            last = EvolveState(u=ComplexField(grid, np.fft.ifft(uh_prev)),
                               v=RealField(grid,
                                           np.fft.irfft(vh_prev, grid.n)),
                               time=t_prev, prm=state.prm)
            raise BlowUpError(f"blow-up at step {i} (t={t_prev + dt:.6g})",
                              last_state=last, trace=make_trace(last))
        if i % sample_every == 0 or i == nsteps:
            u_now = np.fft.ifft(uh)
            v_now = np.fft.irfft(vh, grid.n)
            t_now = state.time + i * dt
            record(t_now, u_now, v_now)
            u_last, v_last, t_last = u_now, v_now, t_now
    final = EvolveState(u=ComplexField(grid, u_last),
                        v=RealField(grid, v_last),
                        time=t_last, prm=state.prm)
    return make_trace(final)


def solitary_initial(pair: SolitaryWavePair, c: float,
                     omega: Optional[float] = None, *,
                     prm: PhysParams) -> EvolveState:
    """State at t = 0 of the traveling wave built on a converged pair.

    u carries the moving-frame phase exp(i c x / 2); v is the long-wave
    profile.  When omega is supplied it must match sigma + c^2/4.
    """
    grid = pair.grid
    if omega is not None and np.isfinite(pair.sigma):
        expected = pair.sigma + c * c / 4.0
        if abs(omega - expected) > 1e-8 * (1.0 + abs(expected)):
            raise ValidationError(
                f"omega={omega} inconsistent with sigma + c^2/4 = {expected}")
    u0 = np.exp(1j * (c / 2.0) * grid.x) * pair.phi.values
    return EvolveState(u=ComplexField(grid, u0), v=pair.psi, time=0.0,
                       prm=prm)


def y_norm(uvals: np.ndarray, vvals: np.ndarray, grid: Grid1D) -> float:
    """Product H1 norm of a pair of sample arrays."""
    w = grid.h1_weights
    scale = grid.dx / grid.n
    total = scale * (np.sum(w * np.abs(np.fft.fft(uvals)) ** 2)
                     + np.sum(w * np.abs(np.fft.fft(vvals)) ** 2))
    return float(np.sqrt(total))


def orbital_distance(state: EvolveState, reference: SolitaryWavePair,
                     wavespeed: Optional[float] = None) -> float:
    """Distance from the state to the symmetry orbit of one reference.

    Minimizes the product H1 norm over spatial shifts (coarse FFT
    cross-correlation, then sub-grid refinement) and the global phase of
    the short wave (closed form).  The reference short-wave profile is
    the stored pair twisted by exp(i c x / 2) with its own wavespeed,
    unless an explicit wavespeed is given.  Minimizing over a single
    orbit upper-bounds the distance to the full minimizer set.
    """
    grid = state.grid
    if reference.grid != grid:
        raise GridMismatchError("reference lives on a different grid")
    if wavespeed is None:
        wavespeed = reference.c if np.isfinite(reference.c) else 0.0
    Phi = np.exp(1j * (wavespeed / 2.0) * grid.x) * reference.phi.values
    psi = reference.psi.values
    u, v = state.u.values, state.v.values

    w = grid.h1_weights
    scale = grid.dx / grid.n
    Phih, uh = np.fft.fft(Phi), np.fft.fft(u)
    psih, vh = np.fft.fft(psi), np.fft.fft(v)
    c0 = float(scale * (np.sum(w * (np.abs(Phih) ** 2 + np.abs(uh) ** 2))
                        + np.sum(w * (np.abs(psih) ** 2 + np.abs(vh) ** 2))))

    zu = w * Phih * np.conj(uh)
    zv = w * psih * np.conj(vh)
    # correlation against all grid shifts at once locates the candidate
    cu = np.fft.fft(zu) * scale
    cv = np.fft.fft(zv) * scale
    d2 = c0 - 2.0 * np.abs(cu) - 2.0 * np.real(cv)
    m = int(np.argmin(d2))
    y0 = grid.x[m] + grid.half_length  # shift y_m = m * dx

    def dist2_at(y):
        # spectral difference at the phase-optimal theta; no large-term
        # cancellation, so the floor is machine precision
        ph = np.exp(-1j * grid.wavenumbers * y)
        cc = np.sum(zu * ph)
        rot = np.conj(cc) / abs(cc) if cc != 0 else 1.0
        du = rot * (Phih * ph) - uh
        dv = psih * ph - vh
        val = scale * (np.sum(w * np.abs(du) ** 2)
                       + np.sum(w * np.abs(dv) ** 2))
        return max(float(val), 0.0)

    # optimize the offset from the coarse candidate; the bounded scalar
    # solver resolves an argument only to sqrt(eps) times its magnitude
    res = minimize_scalar(lambda d: dist2_at(y0 + d),
                          bounds=(-grid.dx, grid.dx), method="bounded",
                          options={"xatol": 1e-13, "maxiter": 200})
    return math.sqrt(min(res.fun, dist2_at(y0)))


def perturbed_solitary_initial(pair: SolitaryWavePair, rel_eps: float,
                               seed: int, prm: PhysParams,
                               wavespeed: Optional[float] = None,
                               n_modes: int = 10):
    """Reference traveling-wave state plus a smooth seeded perturbation.

    The perturbation is a random low-mode field under a Gaussian
    envelope, scaled so its product H1 norm is rel_eps times the
    reference's, then the short wave is rescaled so its mass is exactly
    preserved (the experiment stays on the same mass sphere).

    Returns (state, eps_abs, reference_state) with eps_abs the realized
    perturbation norm after the projection.
    """
    grid = pair.grid
    c = wavespeed if wavespeed is not None else (
        pair.c if np.isfinite(pair.c) else 0.0)
    ref = solitary_initial(pair, c, prm=prm)
    Phi, psi = ref.u.values, ref.v.values

    rng = np.random.default_rng(seed)
    env = np.exp(-(grid.x / (grid.half_length / 3.0)) ** 2)
    base_k = np.pi / grid.half_length
    eta_u = np.zeros(grid.n, dtype=np.complex128)
    eta_v = np.zeros(grid.n)
    for mmode in range(1, n_modes + 1):
        amp = math.exp(-((mmode / 6.0) ** 2))
        au = (rng.standard_normal() + 1j * rng.standard_normal()) * amp
        av = rng.standard_normal() * amp
        ph = rng.uniform(0, 2 * np.pi)
        eta_u += au * np.exp(1j * mmode * base_k * grid.x)
        eta_v += av * np.cos(mmode * base_k * grid.x + ph)
    eta_u *= env
    eta_v *= env

    ref_norm = y_norm(Phi, psi, grid)
    raw = y_norm(eta_u, eta_v, grid)
    if rel_eps > 0 and raw > 0:
        factor = rel_eps * ref_norm / raw
        eta_u *= factor
        eta_v *= factor
    else:
        eta_u *= 0.0
        eta_v *= 0.0

    u0 = Phi + eta_u
    h_ref = grid.dx * float(np.sum(np.abs(Phi) ** 2))
    h_new = grid.dx * float(np.sum(np.abs(u0) ** 2))
    if h_new > 0:
        u0 = u0 * math.sqrt(h_ref / h_new)
    v0 = psi + eta_v
    eps_abs = y_norm(u0 - Phi, v0 - psi, grid)
    state = EvolveState(u=ComplexField(grid, u0), v=RealField(grid, v0),
                        time=0.0, prm=prm)
    return state, float(eps_abs), ref
