"""Symmetric decreasing rearrangement on sampled fields.

The rearrangement permutes the value multiset of a nonnegative field so
the largest value sits at x = 0 and successive values alternate right,
left (dx, -dx, 2dx, -2dx, ...).  Placement is right-first on ties and
stable under permutation of equal values, so every discrete Lp norm is
preserved exactly.  Kinetic-energy comparisons only hold up to a
discretization tolerance proportional to dx, which shrinks under grid
refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SupportOverlapError, ValidationError
from .grid import RealField, same_grid

# empirical constant for the kinetic-energy tolerance tol_ps = C * dx * scale
PS_TOL_COEFF = 4.0


@dataclass
class RearrangeReport:
    """Measured quantities from the rearrangement inequality checks."""

    lp_preserved: dict
    hardy_littlewood_gap: Optional[float] = None
    polya_szego_gap: Optional[float] = None
    garrisi_lhs: Optional[float] = None
    garrisi_rhs: Optional[float] = None
    tol_ps: Optional[float] = None


def placement_order(n: int) -> np.ndarray:
    """Index order: center n//2 first, then alternating right, left."""
    c = n // 2
    step = np.arange(1, c + 1)
    idx = np.concatenate(([c], np.column_stack((c + step, c - step)).ravel()))
    return idx[idx < n]


def rearrange_values(values: np.ndarray) -> np.ndarray:
    """Symmetric decreasing rearrangement of a raw nonnegative array."""
    values = np.asarray(values, dtype=np.float64)
    if values.min() < 0:
        raise ValidationError("rearrangement requires nonnegative values; "
                              "take the modulus first")
    out = np.empty_like(values)
    out[placement_order(values.size)] = np.sort(values)[::-1]
    return out


def decreasing_rearrangement(w: RealField) -> RealField:
    """Symmetric decreasing rearrangement of a nonnegative field."""
    return RealField(w.grid, rearrange_values(w.values))


def kinetic(values: np.ndarray, grid) -> float:
    """Discrete Dirichlet energy sum (w_{j+1} - w_j)^2 / dx (periodic).

    For sequences this energy can never increase under the symmetric
    decreasing rearrangement, so the inequality checks carry only the
    continuum-approximation error, not an extra differentiation
    artifact.  For smooth decayed fields it matches the spectral
    kinetic energy to second order in dx.
    """
    d = np.diff(values, append=values[:1])
    return float(np.sum(d * d) / grid.dx)


def ps_tolerance(grid, *kinetic_energies: float) -> float:
    """Discretization allowance for kinetic-energy comparisons."""
    scale = max(1.0, *(abs(k) for k in kinetic_energies))
    return PS_TOL_COEFF * grid.dx * scale


def _lp_sum_sorted(values: np.ndarray, power: float, dx: float) -> float:
    # summing in sorted order makes the comparison exact for permutations
    return float(dx * np.sum(np.sort(values) ** power))


def _lp_preserved(pairs, dx: float) -> dict:
    """{power: every (original, rearranged) pair has equal Lp sums}."""
    return {power: all(_lp_sum_sorted(orig, power, dx)
                       == _lp_sum_sorted(star, power, dx)
                       for orig, star in pairs)
            for power in (1.0, 2.0, 3.0, 4.0)}


def verify_rearrangement_inequalities(f: RealField,
                                      g: RealField) -> RearrangeReport:
    """Check Lp preservation, Hardy-Littlewood, and Polya-Szego for a pair.

    Lp preservation is a multiset identity and is reported exactly; the
    Hardy-Littlewood product comparison is exact for the similarly
    ordered placement; the kinetic comparison is reported against the
    dx-proportional tolerance.
    """
    grid = same_grid(f, g)
    if f.values.min() < 0 or g.values.min() < 0:
        raise ValidationError("inputs must be nonnegative")
    fstar = rearrange_values(f.values)
    gstar = rearrange_values(g.values)

    lp = _lp_preserved(((f.values, fstar), (g.values, gstar)), grid.dx)
    hl = float(grid.dx * (np.dot(fstar, gstar) - np.dot(f.values, g.values)))

    kin_f, kin_fs = kinetic(f.values, grid), kinetic(fstar, grid)
    kin_g, kin_gs = kinetic(g.values, grid), kinetic(gstar, grid)
    ps_gap = min(kin_f - kin_fs, kin_g - kin_gs)
    tol = ps_tolerance(grid, kin_f, kin_g)

    return RearrangeReport(lp_preserved=lp, hardy_littlewood_gap=hl,
                           polya_szego_gap=ps_gap, tol_ps=tol)


def _check_even(values: np.ndarray, n: int, name: str) -> None:
    mirrored = values[(-np.arange(n)) % n]
    peak = max(float(np.max(np.abs(values))), 1.0)
    if np.max(np.abs(values - mirrored)) > 1e-12 * peak:
        raise ValidationError(f"{name} must be even about x = 0")


def _check_decreasing(values: np.ndarray, n: int, name: str) -> None:
    right = values[n // 2:]
    if np.any(np.diff(right) > 1e-14 * max(1.0, right[0])):
        raise ValidationError(f"{name} must be non-increasing for x >= 0")


def garrisi_check(u: RealField, v: RealField,
                  separation: float) -> RearrangeReport:
    """Two-bump kinetic-energy drop under rearrangement.

    Builds w from disjoint translates of the two bumps, rearranges it,
    and compares the kinetic energy of the rearrangement against the
    kinetic energy of w minus three quarters of the smaller bump's.
    It only measures: the inequality holds when garrisi_lhs <=
    garrisi_rhs + tol_ps, and the caller judges that.
    """
    grid = same_grid(u, v)
    n = grid.n
    for name, fld in (("u", u), ("v", v)):
        if fld.values.min() < 0:
            raise ValidationError(f"{name} must be nonnegative")
        _check_even(fld.values, n, name)
        _check_decreasing(fld.values, n, name)

    half = int(round(0.5 * separation / grid.dx))
    u_sh = np.roll(u.values, half)
    v_sh = np.roll(v.values, -half)
    if np.any((u_sh != 0) & (v_sh != 0)):
        raise SupportOverlapError(
            "translated bumps overlap; increase the separation")

    w = u_sh + v_sh
    wstar = rearrange_values(w)

    lhs = kinetic(wstar, grid)
    kin_u, kin_v = kinetic(u.values, grid), kinetic(v.values, grid)
    kin_w = kinetic(w, grid)
    rhs = kin_w - 0.75 * min(kin_u, kin_v)
    tol = ps_tolerance(grid, kin_w)
    return RearrangeReport(lp_preserved=_lp_preserved(((w, wstar),), grid.dx),
                           garrisi_lhs=lhs, garrisi_rhs=rhs,
                           polya_szego_gap=kin_w - lhs, tol_ps=tol)
