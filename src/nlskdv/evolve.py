"""Time integration of the coupled system and orbital diagnostics.

The stepper is an integrating-factor RK4 in Fourier space: the stiff
linear symbols (second derivative for the short wave, third for the
long wave) are applied exactly, the nonlinear terms are evaluated
pseudospectrally with 2/3-rule dealiasing, and the explicit stage
combination is classical RK4.  The spectral state is one (2, n) complex
array [u^; v^], v^ being the full spectrum of the real long wave, so
each transform is a single FFT call over both fields: 8 calls per step.
Trajectories are deterministic given the seed, so independent runs can
execute in parallel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

from .errors import (BlowUpError, GridMismatchError, ValidationError,
                     require_count)
from .functionals import (PhysParams, charge, conserved_triple,
                          nonlinearity)
from .grid import ComplexField, Grid1D, RealField, same_grid
from .minimize import SolitaryWavePair

_PERTURB_MODES = 10               # Fourier modes of the seeded perturbation
_SHIFT_TOL = 1e-10                # last Newton step of a shift, in cells
_SHIFT_MAX_ITER = 40              # bisection alone meets _SHIFT_TOL within it


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
    scheme: str = "ifrk4/2-3-dealias"
    final_state: Optional[EvolveState] = field(default=None, repr=False)

    def drift(self, name: str) -> float:
        series = getattr(self, name)
        return float(np.max(np.abs(series - series[0])))

    def rel_drift(self, name: str) -> float:
        series = getattr(self, name)
        scale = max(abs(float(series[0])), 1e-300)
        return self.drift(name) / scale


def _dealias_cutoff(grid: Grid1D) -> int:
    """Highest |mode| m the 2/3 rule keeps; its wavenumber is pi m / L."""
    return grid.n // 3


def stable_dt_bound(state: EvolveState) -> float:
    """Step-size guidance from the grid and current field magnitudes.

    The bound is the explicit-RK4 imaginary-axis limit applied to the
    dealiased advection rate of the long wave plus the potential
    rotation rate of the short wave, with a safety factor.
    """
    grid = state.grid
    prm = state.prm
    k_eff = np.pi * _dealias_cutoff(grid) / grid.half_length
    vmax = float(np.max(np.abs(state.v.values)))
    umax = float(np.max(np.abs(state.u.values)))
    advect = prm.tau2 * vmax ** prm.p_float
    rotate = prm.tau1 * umax ** prm.q + prm.alpha * vmax
    return 2.0 / (k_eff * advect + rotate + 1e-12)


class _Stepper:
    """Precomputed propagators and dealiased nonlinearity for one dt.

    Every array is a (2, n) stack over the short and long wave in full
    FFT ordering.  The propagators are built from Grid1D.deriv_symbol,
    whose odd-order symbols zero the Nyquist mode, so the real long wave
    keeps a real spectrum there.  The stage slopes and arguments live in
    buffers owned by the stepper, so a step allocates only the state it
    returns; the state passed in is never modified.
    """

    def __init__(self, grid: Grid1D, prm: PhysParams, dt: float):
        self.prm = prm
        self.dt = dt
        d2, d3 = grid.deriv_symbol(2), grid.deriv_symbol(3)
        # exact flows of i u_t + u_xx = 0 and v_t + v_xxx = 0 over dt/2
        self.e_h = np.exp(np.stack([1j * d2, -d3]) * (dt / 2.0))
        self.e_f = self.e_h ** 2
        self.two_e_h = 2.0 * self.e_h
        self.dt_e_h = dt * self.e_h
        modes = np.abs(scipy.fft.fftfreq(grid.n) * grid.n)
        keep = modes <= _dealias_cutoff(grid)
        # the 2/3 mask as a full complex stack: numpy multiplies two
        # complex (2, n) arrays faster than it broadcasts a real row
        self.mask = np.stack([keep, keep]).astype(np.complex128)
        # 2/3 mask, the i of i u_t = ..., and the -d/dx of the KdV flux
        self.out_symbol = np.stack(
            [1j * keep, -grid.deriv_symbol(1) * keep])
        self._slopes = np.empty((4, 2, grid.n), dtype=np.complex128)
        self._arg = np.empty((2, grid.n), dtype=np.complex128)
        self._lin = np.empty_like(self._arg)
        self._work = np.empty_like(self._arg)

    def nonlinear(self, S, out):
        """Write the dealiased spectral nonlinearity at S into out."""
        x = np.multiply(S, self.mask, out=self._work)
        x = scipy.fft.ifft(x, overwrite_x=True)
        x[0], x[1] = nonlinearity(x[0], x[1].real, self.prm)
        x = scipy.fft.fft(x, overwrite_x=True)
        return np.multiply(x, self.out_symbol, out=out)

    def step_spectral(self, S):
        """The spectral state one step after S, or None when it blew up.

        Overflow is how blow-up manifests.  One sum tests the new state:
        an inf or NaN entry makes it non-finite, and only a sum that is
        not finite sends the entries through the element-wise test (a
        finite state's sum can still overflow).
        """
        with np.errstate(over="ignore", invalid="ignore"):
            S = self._step_spectral(S)
            if cmath.isfinite(S.sum()) or np.all(np.isfinite(S)):
                return S
        return None

    def _step_spectral(self, S):
        half = self.dt / 2.0
        k1, k2, k3, k4 = self._slopes
        x, lin = self._arg, self._lin
        self.nonlinear(S, k1)
        np.multiply(k1, half, out=x)           # e_h (S + dt/2 k1)
        x += S
        x *= self.e_h
        self.nonlinear(x, k2)
        np.multiply(self.e_h, S, out=lin)      # e_h S + dt/2 k2
        np.multiply(k2, half, out=x)
        x += lin
        self.nonlinear(x, k3)
        np.multiply(self.e_f, S, out=lin)      # e_f S + dt e_h k3
        np.multiply(self.dt_e_h, k3, out=x)
        x += lin
        self.nonlinear(x, k4)
        # e_f S + dt/6 (e_f k1 + 2 e_h (k2 + k3) + k4)
        k2 += k3
        k2 *= self.two_e_h
        k1 *= self.e_f
        k1 += k2
        k1 += k4
        k1 *= self.dt / 6.0
        return k1 + lin


def _spectral(state: EvolveState) -> np.ndarray:
    return scipy.fft.fft(np.stack([state.u.values, state.v.values]))


def _state(S: np.ndarray, time: float, prm: PhysParams,
           grid: Grid1D) -> EvolveState:
    x = scipy.fft.ifft(S)
    return EvolveState(u=ComplexField(grid, x[0]),
                       v=RealField(grid, x[1].real), time=time, prm=prm)


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
    S = _Stepper(state.grid, state.prm, dt).step_spectral(_spectral(state))
    if S is None:
        raise BlowUpError(f"blow-up at step 1 (t={state.time + dt:.6g})",
                          last_state=state)
    return _state(S, state.time + dt, state.prm, state.grid)


def evolve(state: EvolveState, T: float, dt: float,
           sample_every: int = 100,
           reference: Optional[SolitaryWavePair] = None,
           wavespeed: Optional[float] = None) -> EvolveTrace:
    """Integrate for duration T, sampling conserved quantities.

    T must be a whole number of steps dt (to 1e-9 relative).  The run
    covers |T| in the direction of dt, so a negative dt integrates
    backward and a negative T is refused unless dt is negative too.
    When a reference pair is given, the distance to its symmetry orbit
    is recorded at each sample.  The run draws nothing at random: a
    seeded start comes from perturbed_solitary_initial.  On blow-up the
    partial trace is attached to the raised error.
    """
    _check_dt(state, dt)
    if not np.isfinite(T):
        raise ValidationError(f"duration T must be finite, got {T}")
    if T < 0.0 < dt:
        raise ValidationError(
            f"duration T={T} and step dt={dt} differ in sign; a negative "
            "T needs a negative dt")
    sample_every = require_count("sample_every", sample_every)
    ratio = abs(T) / abs(dt)  # inf when it overflows
    if not (ratio < math.inf and abs(ratio - round(ratio)) <= 1e-9 * ratio):
        raise ValidationError(
            f"duration T={T} is not a whole number of steps dt={dt} "
            f"(T/dt = {ratio:.12g})")
    nsteps = int(round(ratio))
    stepper = _Stepper(state.grid, state.prm, dt)
    grid = state.grid
    S = _spectral(state)

    orbit = None if reference is None \
        else _Orbit.of(reference, wavespeed, state.prm)
    times, es, gs, hs, ds = [], [], [], [], []

    def record(snap):
        trip = conserved_triple(snap.u, snap.v, state.prm)
        times.append(snap.time)
        es.append(trip.E)
        gs.append(trip.G)
        hs.append(trip.H)
        if orbit is not None:
            ds.append(orbital_distance(snap, orbit))

    def make_trace(final):
        return EvolveTrace(
            times=np.array(times), E=np.array(es), G=np.array(gs),
            H=np.array(hs),
            distance=np.array(ds) if reference is not None else None,
            dt=dt, sample_every=sample_every, final_state=final)

    snap = state
    record(snap)
    for i in range(1, nsteps + 1):
        S_next = stepper.step_spectral(S)
        if S_next is None:
            t_prev = state.time + (i - 1) * dt
            last = _state(S, t_prev, state.prm, grid)
            raise BlowUpError(f"blow-up at step {i} (t={t_prev + dt:.6g})",
                              last_state=last, trace=make_trace(last))
        S = S_next
        if i % sample_every == 0 or i == nsteps:
            snap = _state(S, state.time + i * dt, state.prm, grid)
            record(snap)
    return make_trace(snap)


def solitary_initial(pair: SolitaryWavePair, c: float, *,
                     prm: PhysParams) -> EvolveState:
    """State at t = 0 of the traveling wave built on a converged pair.

    u carries the moving-frame phase exp(i c x / 2); v is the long-wave
    profile.  Its frequency is omega = sigma + c^2/4.
    """
    grid = pair.grid
    u0 = np.exp(1j * (c / 2.0) * grid.x) * pair.phi.values
    return EvolveState(u=ComplexField(grid, u0), v=pair.psi, time=0.0,
                       prm=prm)


def traveling_wavespeed(pair: SolitaryWavePair,
                        wavespeed: Optional[float] = None) -> float:
    """wavespeed when given, else the pair's own c (0 where c is undefined)."""
    if wavespeed is not None:
        return wavespeed
    return pair.c if np.isfinite(pair.c) else 0.0


def _h1_sq(S: np.ndarray, grid: Grid1D) -> float:
    """Squared product H1 norm from the (2, n) full spectrum of a pair."""
    return (grid.dx / grid.n) * np.sum(grid.h1_weights * np.abs(S) ** 2)


def y_norm(uvals: np.ndarray, vvals: np.ndarray, grid: Grid1D) -> float:
    """Product H1 norm of a pair of sample arrays."""
    return float(np.sqrt(_h1_sq(scipy.fft.fft(np.stack([uvals, vvals])),
                                grid)))


@dataclass(frozen=True)
class _Orbit:
    """orbital_distance's reference: its (2, n) spectrum S and H1 norm^2."""

    grid: Grid1D
    S: np.ndarray
    h1_sq: float

    @classmethod
    def of(cls, reference: SolitaryWavePair, wavespeed: Optional[float],
           prm: PhysParams) -> "_Orbit":
        c = traveling_wavespeed(reference, wavespeed)
        S = _spectral(solitary_initial(reference, c, prm=prm))
        return cls(reference.grid, S, _h1_sq(S, reference.grid))


def _shift_derivatives(grid: Grid1D) -> tuple:
    """Symbols of 1, d/dy and d^2/dy^2 acting on exp(-i k y), one row each.

    The first uses -i k with the Nyquist wavenumber kept (deriv_symbol
    zeroes it), so it is exactly the derivative of the polynomial the
    distance evaluates.
    """
    return (np.stack([np.ones(grid.n), -1j * grid.wavenumbers,
                      grid.deriv_symbol(2)]),)


def _correlation_peak(Z: np.ndarray, grid: Grid1D, y0: float) -> float:
    """Shift in [y0 - dx, y0 + dx] that maximizes F(y) = |c_u| + Re c_v.

    c(y) = sum_k Z_k exp(-i k y) per row is a trigonometric polynomial,
    so F' and F'' are the same sums weighted by -i k and -k^2.  Newton's
    method on F' starts at the grid shift y0; a bisection step of the
    bracket on the sign of F' replaces any Newton step that would leave
    it or that F'' >= 0 (no maximum ahead) makes unsafe.  A row c_u = 0
    (no short wave) drops the |c_u| term.
    """
    sym, = grid.constants(_shift_derivatives)
    A = (Z[:, None, :] * sym).reshape(6, grid.n)
    lo, hi, y = y0 - grid.dx, y0 + grid.dx, y0
    for _ in range(_SHIFT_MAX_ITER):
        # einsum, not a BLAS mat-vec, whose first call maps a buffer
        cu, du, eu, cv, dv, ev = np.einsum(
            "ij,j->i", A, np.exp(-1j * grid.wavenumbers * y)).tolist()
        f1, f2 = dv.real, ev.real
        a = abs(cu)
        if a > 0.0:
            r = (cu.conjugate() * du).real / a
            f1 += r
            f2 += (abs(du) ** 2 + (cu.conjugate() * eu).real - r * r) / a
        if f1 > 0.0:
            lo = y
        elif f1 < 0.0:
            hi = y
        else:
            return y
        step = -f1 / f2 if f2 < 0.0 else math.inf
        if abs(step) <= _SHIFT_TOL * grid.dx:
            return y + step
        y = y + step if lo < y + step < hi else 0.5 * (lo + hi)
    return y


def orbital_distance(state: EvolveState, reference: SolitaryWavePair) -> float:
    """Distance from the state to the symmetry orbit of one reference.

    Minimizes the product H1 norm over spatial shifts and the global
    phase of the short wave (closed form).  An FFT cross-correlation
    against all grid shifts gives the best grid shift y0; a safeguarded
    Newton iteration on the correlation's analytic derivative then
    refines the shift inside [y0 - dx, y0 + dx] (_correlation_peak).
    The distance is evaluated directly at the refined shift; only when
    that exceeds the correlation's value at y0 is the distance at y0
    evaluated too, and the smaller one kept.  The reference is the
    traveling wave solitary_initial builds on the pair, with the pair's
    own wavespeed.  Minimizing over a single orbit upper-bounds the
    distance to the full minimizer set.  evolve passes the _Orbit it
    builds once per run, with the run's wavespeed, in place of the pair.
    """
    grid = state.grid
    if reference.grid != grid:
        raise GridMismatchError("reference lives on a different grid")
    orbit = reference if isinstance(reference, _Orbit) \
        else _Orbit.of(reference, None, state.prm)

    S = _spectral(state)
    c0 = float(orbit.h1_sq + _h1_sq(S, grid))
    Z = grid.h1_weights * orbit.S * np.conj(S)
    # correlation against all grid shifts at once locates the candidate
    cu, cv = scipy.fft.fft(Z) * (grid.dx / grid.n)
    d2 = c0 - 2.0 * np.abs(cu) - 2.0 * np.real(cv)
    m = int(np.argmin(d2))
    y0 = grid.x[m] + grid.half_length  # shift y_m = m * dx

    def dist2_at(y):
        # spectral difference at the phase-optimal theta; no large-term
        # cancellation, so the floor is machine precision
        ph = np.exp(-1j * grid.wavenumbers * y)
        cc = np.sum(Z[0] * ph)
        D = orbit.S * ph
        D[0] *= np.conj(cc) / abs(cc) if cc != 0 else 1.0
        D -= S
        return max(float(_h1_sq(D, grid)), 0.0)

    d2y = dist2_at(_correlation_peak(Z, grid, y0))
    if d2y > d2[m]:    # Newton may have left y0's peak for a lower one
        d2y = min(d2y, dist2_at(y0))
    return math.sqrt(d2y)


def perturbed_solitary_initial(pair: SolitaryWavePair, rel_eps: float,
                               seed: int, prm: PhysParams,
                               wavespeed: Optional[float] = None):
    """Reference traveling-wave state plus a smooth seeded perturbation.

    The perturbation is a random field of the lowest _PERTURB_MODES
    modes under a Gaussian envelope, scaled so its product H1 norm is
    rel_eps (finite, >= 0) times the reference's, then the short wave
    is rescaled so its mass is exactly preserved (the experiment stays
    on the same mass sphere).  At rel_eps = 0 the state holds the same
    samples as solitary_initial's.

    Returns (state, eps_abs, reference_state) with eps_abs the realized
    perturbation norm after the projection.
    """
    if not 0.0 <= rel_eps < math.inf:
        raise ValidationError(
            f"rel_eps must be finite and >= 0, got {rel_eps}")
    grid = pair.grid
    c = traveling_wavespeed(pair, wavespeed)
    ref = solitary_initial(pair, c, prm=prm)
    Phi, psi = ref.u.values, ref.v.values

    rng = np.random.default_rng(seed)
    env = np.exp(-(grid.x / (grid.half_length / 3.0)) ** 2)
    base_k = np.pi / grid.half_length
    eta_u = np.zeros(grid.n, dtype=np.complex128)
    eta_v = np.zeros(grid.n)
    for mmode in range(1, _PERTURB_MODES + 1):
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
    factor = rel_eps * ref_norm / raw if raw > 0 else 0.0
    eta_u *= factor
    eta_v *= factor

    u0 = Phi + eta_u
    h_new = charge(ComplexField(grid, u0))
    if h_new > 0:
        u0 = u0 * math.sqrt(charge(ref.u) / h_new)
    v0 = psi + eta_v
    eps_abs = y_norm(u0 - Phi, v0 - psi, grid)
    state = EvolveState(u=ComplexField(grid, u0), v=RealField(grid, v0),
                        time=0.0, prm=prm)
    return state, float(eps_abs), ref
