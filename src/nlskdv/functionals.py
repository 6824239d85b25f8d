"""Conserved functionals of the coupled NLS-KdV flow and their parameters.

The energy E, momentum-type functional G, and mass H are the quantities
the time integrator must preserve; the two single-equation actions J and
J~ drive the decoupled ground-state oracles.  All values are plain box
quadratures with no renormalization folded in.  E and G take their
derivative terms by Parseval from one forward transform of the stack
[u; v], and the energy's gradient is one symbol application to it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.fft

from .errors import ValidationError
from .grid import ComplexField, RealField, apply_symbol, same_grid


def parse_odd_denominator(p) -> Fraction:
    """Coerce p to a Fraction and require an odd denominator.

    Floats are rejected (binary floats have power-of-two denominators);
    pass ints, Fractions, or strings like "3/5".
    """
    if isinstance(p, float):
        raise ValidationError(
            "p must be an int, Fraction, or 'num/den' string so the odd "
            f"denominator is exact; got float {p}")
    try:
        frac = Fraction(p)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse p={p!r} as a rational") from exc
    if frac.denominator % 2 == 0:
        raise ValidationError(
            f"p must have an odd denominator, got {frac}")
    if frac <= 0:
        raise ValidationError(f"p must be positive, got {frac}")
    return frac


@dataclass(frozen=True)
class _SignedPower:
    """v**(a/b) with odd b, reduced to a float exponent and a parity flag.

    Truth table for v < 0 (b odd, so the real b-th root exists):
        a even -> +|v|**(a/b)     e.g. (-8)**(2/3) = +4
        a odd  -> -|v|**(a/b)     e.g. (-8)**(1/3) = -2
    For v >= 0 this is the ordinary power.  Built once per power, so
    evaluation in hot loops does no Fraction arithmetic.  An integer
    power k >= 2 is the plain product v * ... * v, which obeys the table
    by itself (libm pow is many times slower on negative bases).
    """

    exponent: float
    odd: bool
    whole: int = 0

    @classmethod
    def of(cls, power) -> "_SignedPower":
        power = Fraction(power)
        if power.denominator % 2 == 0:
            raise ValidationError(
                f"power {power} has an even denominator; sign is undefined")
        whole = power.numerator if (power.denominator == 1
                                    and power.numerator >= 2) else 0
        return cls(float(power), power.numerator % 2 == 1, whole)

    def __call__(self, values: np.ndarray, out=None) -> np.ndarray:
        """The power of values, written into out when given."""
        if self.whole:
            out = np.multiply(values, values, out=out)
            for _ in range(self.whole - 2):
                out *= values
            return out
        mag = np.power(np.abs(values), self.exponent, out=out)
        if self.odd:
            mag *= np.sign(values)
        return mag


def signed_power(values: np.ndarray, power: Fraction) -> np.ndarray:
    """Real rational power v**(a/b) with odd b, defined for negative v.

    Odd numerators keep the sign of v, even ones drop it; see _SignedPower.
    """
    return _SignedPower.of(power)(values)


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the coupled system.

    alpha is the coupling strength, tau1 and tau2 the self-interaction
    strengths, q the short-wave nonlinearity power and p the long-wave
    one (a positive rational with odd denominator so v**p makes sense
    for v < 0).  beta1 and beta2 are the derived energy coefficients,
    kdv_coeff = tau2/(p+1) and pow_p1 = v**(p+1) the long-wave
    nonlinearity's coefficient and signed power.  The derived values,
    p_float = float(p) and _potential_sum's coefficients among them, are
    computed once at construction, so evaluation in hot loops does no
    Fraction arithmetic.
    """

    alpha: float
    tau1: float
    tau2: float
    p: Fraction
    q: float
    beta1: float = field(init=False)
    beta2: float = field(init=False)
    kdv_coeff: float = field(init=False)
    pow_p1: _SignedPower = field(init=False, repr=False)
    p_float: float = field(init=False, repr=False)
    potential_coeffs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        p = parse_odd_denominator(self.p)
        object.__setattr__(self, "p", p)
        for name, ok, bound in (
                ("alpha", lambda x: 0 <= x < np.inf, "a finite real >= 0"),
                ("tau1", lambda x: 0 <= x < np.inf, "a finite real >= 0"),
                ("tau2", lambda x: 0 < x < np.inf, "a finite real > 0"),
                ("q", lambda x: 1 <= x < 4, "a real in [1, 4)")):
            val = getattr(self, name)
            if (isinstance(val, bool) or not isinstance(val, numbers.Real)
                    or not ok(val)):
                raise ValidationError(f"{name} must be {bound}, got {val!r}")
        if not (Fraction(1) <= p < Fraction(4)):
            raise ValidationError(f"p must lie in [1, 4), got {p}")
        q, pf = self.q, float(p)
        object.__setattr__(self, "p_float", pf)
        object.__setattr__(self, "beta1", 2.0 * self.tau1 / (q + 2.0))
        object.__setattr__(self, "beta2",
                           2.0 * self.tau2 / ((pf + 1.0) * (pf + 2.0)))
        object.__setattr__(self, "kdv_coeff", self.tau2 / (pf + 1.0))
        object.__setattr__(self, "pow_p1", _SignedPower.of(p + 1))
        object.__setattr__(self, "potential_coeffs", (
            2.0 / (q + 2.0), 2.0 / (pf + 2.0),
            self.alpha * (q * (pf + 1.0) - 2.0) / ((q + 2.0) * (pf + 2.0))))

    def stability_regime(self) -> bool:
        """True when the long-wave power sits in the proven stability range."""
        return self.p < Fraction(4, 3)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "tau1": self.tau1, "tau2": self.tau2,
            "p": f"{self.p.numerator}/{self.p.denominator}", "q": self.q,
            "beta1": self.beta1, "beta2": self.beta2,
        }


@dataclass(frozen=True)
class ConservedTriple:
    """Snapshot of the three conserved quantities."""

    E: float
    G: float
    H: float


def nonlinearity(u: np.ndarray, v: np.ndarray, prm: PhysParams, out=None):
    """The nonlinearity N = (N_u, N_v) of the coupled system.

        N_u = tau1 |u|^q u + alpha u v
        N_v = tau2/(p+1) v^(p+1) + alpha/2 |u|^2

    The flow is i u_t + u_xx = -N_u and v_t + v_xxx = -(N_v)_x; the
    energy's gradient and, by _potential_sum, its potential come from N.
    N_u is (tau1 |u|^q + alpha v) u, so q = 1 takes no power.  Returns
    the tuple (N_u, N_v), or, given a (2, n) array out that shares no
    memory with u or v, writes N_u and N_v into its rows with the same
    operations and returns out.
    """
    nu, nv = (None, None) if out is None else out
    au = np.abs(u)
    gain = prm.tau1 * (au if prm.q == 1 else au ** prm.q)
    gain += prm.alpha * v
    nv = prm.pow_p1(v, nv)
    nv *= prm.kdv_coeff
    au *= au
    au *= 0.5 * prm.alpha
    nv += au
    nu = np.multiply(gain, u, out=nu)
    return (nu, nv) if out is None else out


def _kinetic_twist(u: np.ndarray, v: np.ndarray, grid):
    """int |u_x|^2 + v_x^2 dx and Im int u conj(u_x) dx, by Parseval.

    One forward transform of the stack [u; v].  The wavenumbers come from
    deriv_symbol(1), so the Nyquist mode is zeroed as the derivative does.
    """
    k, scale = grid.deriv_symbol(1).imag, grid.dx / grid.n
    S = scipy.fft.fft(np.array([u, v]))
    power = S.real ** 2 + S.imag ** 2
    return (scale * float((k * k) @ (power[0] + power[1])),
            -scale * float(k @ power[0]))


def _potential_sum(u, v, nu, nv, prm: PhysParams) -> float:
    """Sum of beta1 |u|^(q+2) + beta2 v^(p+2) + alpha |u|^2 v over samples.

    By Euler's identity it is 2/(q+2) Re(conj(u) N_u) + 2/(p+2) v N_v
    + m |u|^2 v, m = alpha (q(p+1) - 2)/((q+2)(p+2)) (0 at q = p = 1);
    prm.potential_coeffs holds the three coefficients.
    """
    cu, cv, mixed = prm.potential_coeffs
    return float(cu * np.vdot(u, nu).real + cv * np.dot(v, nv)
                 + (mixed * np.vdot(u, u * v).real if mixed else 0.0))


def _energy(u, v, kinetic: float, prm: PhysParams, grid) -> float:
    """E from its kinetic term and the potential read off N."""
    return kinetic - grid.dx * _potential_sum(u, v, *nonlinearity(u, v, prm),
                                              prm)


def energy_values(u: np.ndarray, v: np.ndarray, prm: PhysParams,
                  grid) -> float:
    """Energy quadrature on raw sample arrays (u may be real or complex)."""
    return _energy(u, v, _kinetic_twist(u, v, grid)[0], prm, grid)


def gradient_values(u: np.ndarray, v: np.ndarray, prm: PhysParams, grid):
    """First variation of the energy on raw arrays: -2 ((u_xx, v_xx) + N).

    A complex u makes the stack [u; v] complex, so v_xx is its real part.
    """
    uxx, vxx = apply_symbol(np.array([u, v]), grid, grid.deriv_symbol(2))
    nu, nv = nonlinearity(u, v, prm)
    return -2.0 * (uxx + nu), -2.0 * (vxx.real + nv)


def energy(u: ComplexField, v: RealField, prm: PhysParams) -> float:
    """E(u, v): kinetic terms minus the three potential terms."""
    g = same_grid(u, v)
    return energy_values(u.values, v.values, prm, g)


def energy_gradient(phi: ComplexField, psi: RealField, prm: PhysParams):
    """First-variation fields of the energy.

    The pairing convention is Re int grad conj(h) dx, so a central
    difference of the energy along h matches the inner product of the
    returned fields with h.
    """
    grid = same_grid(phi, psi)
    gphi, gpsi = gradient_values(phi.values, psi.values, prm, grid)
    return ComplexField(grid, gphi), RealField(grid, gpsi)


def charge(u: ComplexField) -> float:
    """H(u) = int |u|^2 dx."""
    return float(u.grid.dx * np.sum(np.abs(u.values) ** 2))


def _momentum(v: np.ndarray, twist: float, grid) -> float:
    return float(grid.dx * np.dot(v, v)) + twist


def momentum(u: ComplexField, v: RealField) -> float:
    """G(u, v) = int v^2 dx + Im int u conj(u_x) dx."""
    g = same_grid(u, v)
    return _momentum(v.values, _kinetic_twist(u.values, v.values, g)[1], g)


def kdv_action(gfield: RealField, prm: PhysParams) -> float:
    """J(g) = int (g_x^2 - beta2 g^(p+2)) dx, the long-wave action."""
    grid = gfield.grid
    return energy_values(np.zeros(grid.n), gfield.values, prm, grid)


def nls_action(f: ComplexField, prm: PhysParams) -> float:
    """J~(f) = int (|f_x|^2 - beta1 |f|^(q+2)) dx, the short-wave action."""
    grid = f.grid
    return energy_values(f.values, np.zeros(grid.n), prm, grid)


def conserved_triple(u: ComplexField, v: RealField,
                     prm: PhysParams) -> ConservedTriple:
    """E, G and H of a pair; E and G share one transform of [u; v]."""
    g = same_grid(u, v)
    kinetic, twist = _kinetic_twist(u.values, v.values, g)
    return ConservedTriple(E=_energy(u.values, v.values, kinetic, prm, g),
                           G=_momentum(v.values, twist, g), H=charge(u))
