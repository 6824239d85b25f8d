"""Invariant suites behind the verify and rearrange commands.

Each check returns a row with a status: pass, fail, tolerance-limited
(the inequality holds but the discretization allowance dominates the
measured quantity, as happens on deliberately coarse grids), or skipped
(preconditions not met).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConvergenceError, DomainTooSmallError, ValidationError
from .functionals import PhysParams, energy
from .grid import ComplexField, Grid1D, RealField, deriv, integrate
from .minimize import MinimizeOptions, subadditivity_probe
from .rearrange import (decreasing_rearrangement, garrisi_check,
                        ps_tolerance, verify_rearrangement_inequalities)

# kinetic-energy comparisons on grids coarser than this spacing carry a
# discretization allowance comparable to the quantities themselves; they
# are flagged as tolerance-limited rather than failed
_COARSE_DX = 0.25
_RANDOM_MODES = 6                 # cosine modes of random_nonneg_field


@dataclass
class CheckRow:
    name: str
    status: str          # pass | fail | tolerance-limited | skipped
    detail: str


def truncated_bump(grid: Grid1D, width: float, height: float) -> RealField:
    """Even, compactly supported, non-increasing bump centered at 0."""
    prof = height * np.exp(-((grid.x / width) ** 2))
    prof[prof < 1e-14 * height] = 0.0
    return RealField(grid, prof)


def random_nonneg_field(grid: Grid1D, rng) -> RealField:
    """Seeded smooth nonnegative decayed field.

    The construction draws a fixed number of random values, so the same
    generator state yields samples of the same continuum function at any
    resolution.
    """
    L = grid.half_length
    modes = _RANDOM_MODES
    coeff = rng.standard_normal(modes) * np.exp(-np.arange(1, modes + 1) / 3.0)
    phase = rng.uniform(0.0, 2.0 * np.pi, modes)
    vals = np.zeros(grid.n)
    for m in range(1, modes + 1):
        vals += coeff[m - 1] * np.cos(m * np.pi * grid.x / L + phase[m - 1])
    vals = np.abs(vals) * np.exp(-((grid.x / (L / 4.0)) ** 2))
    return RealField(grid, vals)


def random_complex_field(grid: Grid1D, rng) -> ComplexField:
    re = random_nonneg_field(grid, rng).values
    im = random_nonneg_field(grid, rng).values
    sign = np.cos(2.0 * np.pi * grid.x / grid.half_length)
    return ComplexField(grid, (re + 1j * im) * sign)


def run_grid_checks(grid: Grid1D, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    f = random_complex_field(grid, rng)
    # Parseval with the unnormalized transform convention
    fh = scipy.fft.fft(f.values)
    lhs = float(grid.dx * np.sum(np.abs(f.values) ** 2))
    rhs = float(grid.dx * np.sum(np.abs(fh) ** 2) / grid.n)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    rows.append(CheckRow("grid/parseval",
                         "pass" if rel <= 1e-12 else "fail",
                         f"relative gap {rel:.2e}"))
    g = random_complex_field(grid, rng)
    a, b = 1.7, -0.4
    combo = ComplexField(grid, a * f.values + b * g.values)
    gap = np.max(np.abs(deriv(combo).values
                        - a * deriv(f).values - b * deriv(g).values))
    scale = max(np.max(np.abs(deriv(f).values)), 1.0)
    rows.append(CheckRow("grid/deriv-linearity",
                         "pass" if gap <= 1e-12 * scale else "fail",
                         f"max gap {gap:.2e}"))
    circ = abs(integrate(deriv(f)))
    rows.append(CheckRow("grid/derivative-integral-zero",
                         "pass" if circ <= 1e-12 * scale else "fail",
                         f"|integral| {circ:.2e}"))
    return rows


def run_functional_checks(grid: Grid1D, prm: PhysParams,
                          seed: int = 1) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    f = random_complex_field(grid, rng)
    g = random_nonneg_field(grid, rng)
    gv = RealField(grid, g.values - float(np.mean(g.values)))
    e_fg = energy(f, gv, prm)
    mod_f = ComplexField(grid, np.abs(f.values).astype(complex))
    mod_g = RealField(grid, np.abs(gv.values))
    e_mod = energy(mod_f, mod_g, prm)
    scale = max(abs(e_fg), 1.0)
    ok = e_mod <= e_fg + 1e-10 * scale
    rows.append(CheckRow("functionals/modulus-lowers-energy",
                         "pass" if ok else "fail",
                         f"E(|f|,|g|)={e_mod:.6g} vs E(f,g)={e_fg:.6g}"))
    return rows


def run_rearrange_suite(grid: Grid1D, prm: PhysParams, seed: int = 2,
                        n_pairs: int = 20, n_garrisi: int = 5) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    lp_ok = True
    hl_min = math.inf
    ps_worst = math.inf
    tol = 0.0
    for _ in range(n_pairs):
        f = random_nonneg_field(grid, rng)
        g = random_nonneg_field(grid, rng)
        rep = verify_rearrangement_inequalities(f, g)
        lp_ok = lp_ok and all(rep.lp_preserved.values())
        hl_min = min(hl_min, rep.hardy_littlewood_gap)
        ps_worst = min(ps_worst, rep.polya_szego_gap)
        tol = max(tol, rep.tol_ps)
    rows.append(CheckRow("rearrange/lp-preservation",
                         "pass" if lp_ok else "fail",
                         f"{n_pairs} pairs, exact multiset identity"))
    rows.append(CheckRow("rearrange/hardy-littlewood",
                         "pass" if hl_min >= 0.0 else "fail",
                         f"min gap {hl_min:.3e}"))
    ps_status = "pass" if ps_worst >= -tol else "fail"
    if ps_status == "pass" and grid.dx > _COARSE_DX:
        ps_status = "tolerance-limited"
    rows.append(CheckRow("rearrange/polya-szego", ps_status,
                         f"worst gap {ps_worst:.3e}, tol {tol:.3e}"))

    worst_slack = math.inf
    g_tol = 0.0
    g_ok = True
    for i in range(n_garrisi):
        w1 = 0.5 + rng.uniform(0.0, 1.0)
        w2 = 0.5 + rng.uniform(0.0, 1.0)
        h1 = 0.5 + rng.uniform(0.0, 1.0)
        h2 = 0.5 + rng.uniform(0.0, 1.0)
        u = truncated_bump(grid, w1, h1)
        v = truncated_bump(grid, w2, h2)
        rep = garrisi_check(u, v, grid.half_length)
        g_ok = g_ok and rep.garrisi_lhs <= rep.garrisi_rhs + rep.tol_ps
        worst_slack = min(worst_slack, rep.garrisi_rhs - rep.garrisi_lhs)
        g_tol = max(g_tol, rep.tol_ps)
    status = "pass" if g_ok else "fail"
    if status == "pass" and grid.dx > _COARSE_DX:
        status = "tolerance-limited"
    rows.append(CheckRow("rearrange/two-bump-kinetic-drop", status,
                         f"min slack {worst_slack:.3e}, tol {g_tol:.3e}"))

    worst = -math.inf
    for _ in range(n_pairs):
        f = random_nonneg_field(grid, rng)
        g = random_nonneg_field(grid, rng)
        fc = ComplexField(grid, f.values.astype(complex))
        e0 = energy(fc, g, prm)
        fs = decreasing_rearrangement(f)
        gs = decreasing_rearrangement(g)
        e1 = energy(ComplexField(grid, fs.values.astype(complex)), gs, prm)
        tolce = ps_tolerance(grid, abs(e0))
        worst = max(worst, e1 - e0 - tolce)
    rows.append(CheckRow("rearrange/energy-never-increases",
                         "pass" if worst <= 0.0 else "fail",
                         f"worst excess {worst:.3e}"))
    return rows


def run_subadd_probes(prm: PhysParams, grid: Grid1D,
                      opts: MinimizeOptions, count: int = 2,
                      seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        s1, t1, s2, t2 = rng.uniform(0.5, 2.0, 4)
        try:
            margin = subadditivity_probe(s1, t1, s2, t2, prm, grid, opts)
        except (ValidationError, DomainTooSmallError,
                ConvergenceError) as exc:
            rows.append(CheckRow(f"subadd/probe-{i}", "skipped", str(exc)))
            continue
        rows.append(CheckRow(
            f"subadd/probe-{i}",
            "pass" if margin > 0.0 else "fail",
            f"({s1:.3f},{t1:.3f})+({s2:.3f},{t2:.3f}): margin {margin:.4e}"))
    return rows


def rows_to_table(rows: list) -> str:
    width = max(len(r.name) for r in rows) + 2
    lines = []
    for r in rows:
        lines.append(f"{r.name:<{width}}{r.status:<20}{r.detail}")
    return "\n".join(lines) + "\n"
