"""Acceptance suite: each release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Expensive solves are shared through session fixtures.
"""

import time

import numpy as np
import pytest

import nlskdv as nk
from nlskdv.rearrange import kinetic, ps_tolerance
from nlskdv.verify import random_nonneg_field, truncated_bump

from conftest import sech


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session")
def acc_grid40():
    return nk.make_grid(40.0, 1024)


@pytest.fixture(scope="session")
def acc_grid30():
    return nk.make_grid(30.0, 768)


@pytest.fixture(scope="session")
def acc_prm():
    return nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)


@pytest.fixture(scope="session")
def coupled_pair_acc(acc_grid30, acc_prm):
    return nk.minimize_I(1.0, 1.0, acc_prm, acc_grid30)


@pytest.fixture(scope="session")
def coupled_pair_40(acc_grid40, acc_prm):
    pair, _ = nk.minimize_I(1.0, 1.0, acc_prm, acc_grid40)
    return pair


@pytest.fixture(scope="session")
def wsol_ref(acc_grid30, acc_prm):
    return nk.minimize_W(1.0, 0.5, acc_prm, acc_grid30)


def test_criterion_01_decoupled_kdv_oracle(acc_grid40):
    t0 = time.time()
    prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=6.0, p=1, q=1.0)
    pair, _ = nk.minimize_I(0.0, 2.0 / 3.0, prm, acc_grid40)
    elapsed = time.time() - t0
    exact = 0.5 * sech(acc_grid40.x / 2) ** 2
    shape_err = float(np.max(np.abs(pair.psi.values - exact)))
    c_err = abs(pair.c - 1.0)
    ok = shape_err <= 1e-5 and c_err <= 1e-6 and elapsed <= 60.0
    report(1, "decoupled-kdv-oracle", ok,
           f"|psi - exact|_inf={shape_err:.2e} (<=1e-5), "
           f"|c-1|={c_err:.2e} (<=1e-6), {elapsed:.1f}s (<=60s)")


def test_criterion_02_decoupled_nls_oracle(acc_grid40):
    t0 = time.time()
    prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=1.0, p=1, q=2.0)
    pair, _ = nk.minimize_I(4.0, 0.0, prm, acc_grid40)
    elapsed = time.time() - t0
    exact = np.sqrt(2) * sech(acc_grid40.x)
    shape_err = float(np.max(np.abs(np.real(pair.phi.values) - exact)))
    s_err = abs(pair.sigma - 1.0)
    ok = shape_err <= 1e-5 and s_err <= 1e-6 and elapsed <= 60.0
    report(2, "decoupled-nls-oracle", ok,
           f"|phi - sqrt2 sech|_inf={shape_err:.2e} (<=1e-5), "
           f"|sigma-1|={s_err:.2e} (<=1e-6), {elapsed:.1f}s (<=60s)")


def test_criterion_03_coupled_solve(coupled_pair_acc, acc_prm):
    pair, _ = coupled_pair_acc
    gap = nk.convolution_fixed_point_gap(pair, acc_prm)
    phi_min = float(np.min(np.real(pair.phi.values)))
    psi_min = float(np.min(pair.psi.values))
    ok = (pair.el_residual_phi <= 1e-8 and pair.el_residual_psi <= 1e-8
          and pair.sigma > 0.0 and phi_min > 0.0 and psi_min > 0.0
          and pair.energy_value < 0.0 and gap <= 1e-8)
    report(3, "coupled-solve", ok,
           f"residuals=({pair.el_residual_phi:.2e},"
           f"{pair.el_residual_psi:.2e}) (<=1e-8), sigma={pair.sigma:.4f}>0, "
           f"min(phi)={phi_min:.2e}>0, min(psi)={psi_min:.2e}>0, "
           f"I={pair.energy_value:.6f}<0, fixed-point gap={gap:.2e} (<=1e-8)")


def test_criterion_04_gradient_check(acc_prm):
    grid = nk.make_grid(30.0, 512)
    env = np.exp(-grid.x ** 2 / 10)
    phi = nk.ComplexField(grid, env * (1.0 + 0.4j))
    psi = nk.RealField(grid, 0.8 * env)
    gphi, gpsi = nk.energy_gradient(phi, psi, acc_prm)
    rng = np.random.default_rng(2026)
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        hu = env * (rng.standard_normal(grid.n)
                    + 1j * rng.standard_normal(grid.n))
        hv = env * rng.standard_normal(grid.n)
        up = nk.ComplexField(grid, phi.values + eps * hu)
        um = nk.ComplexField(grid, phi.values - eps * hu)
        vp = nk.RealField(grid, psi.values + eps * hv)
        vm = nk.RealField(grid, psi.values - eps * hv)
        fd = (nk.energy(up, vp, acc_prm)
              - nk.energy(um, vm, acc_prm)) / (2 * eps)
        an = (grid.dx * np.sum(np.real(gphi.values * np.conj(hu)))
              + grid.dx * np.sum(gpsi.values * hv))
        worst = max(worst, abs(fd - an) / max(abs(an), 1e-300))
    ok = worst <= 1e-6
    report(4, "gradient-check", ok,
           f"50 directions, worst relative error={worst:.2e} (<=1e-6)")


def test_criterion_05_subadditivity(acc_prm):
    grid = nk.make_grid(40.0, 512)
    rng = np.random.default_rng(20260808)
    t0 = time.time()
    margins = []
    for _ in range(10):
        s1, t1, s2, t2 = rng.uniform(0.5, 2.0, 4)
        margins.append(nk.subadditivity_probe(s1, t1, s2, t2, acc_prm,
                                              grid))
    elapsed = time.time() - t0
    ok = all(m > 0.0 for m in margins) and elapsed <= 1800.0
    report(5, "subadditivity", ok,
           "10 quadruples in [0.5,2]^4, margins="
           + "[" + ", ".join(f"{m:.4f}" for m in margins) + "]"
           + f", all>0, {elapsed:.0f}s (<=1800s)")


def test_criterion_06_rearrangement_suite(acc_prm):
    grid = nk.make_grid(30.0, 512)
    rng = np.random.default_rng(99)

    lp_ok = True
    hl_min = np.inf
    for _ in range(100):
        f = random_nonneg_field(grid, rng)
        g = random_nonneg_field(grid, rng)
        rep = nk.verify_rearrangement_inequalities(f, g)
        lp_ok = lp_ok and all(rep.lp_preserved.values())
        hl_min = min(hl_min, rep.hardy_littlewood_gap)

    garrisi_ok = True
    monotone_ok = True
    case_rng = np.random.default_rng(7)
    params = [(0.5 + case_rng.uniform(0, 1.2), 0.5 + case_rng.uniform(0, 1.2),
               0.3 + case_rng.uniform(0, 1.0), 0.3 + case_rng.uniform(0, 1.0))
              for _ in range(20)]
    for w1, w2, h1, h2 in params:
        viols = []
        for n in (512, 1024):
            gn = nk.make_grid(30.0, n)
            u = truncated_bump(gn, w1, h1)
            v = truncated_bump(gn, w2, h2)
            rep = nk.garrisi_check(u, v, gn.half_length)
            garrisi_ok = garrisi_ok and (
                rep.garrisi_lhs <= rep.garrisi_rhs + rep.tol_ps)
            # plain kinetic comparison for the summed field
            w_field = (np.roll(u.values, gn.n // 4)
                       + np.roll(v.values, -(gn.n // 4)))
            ps_gap = kinetic(w_field, gn) - rep.garrisi_lhs
            garrisi_ok = garrisi_ok and ps_gap >= -ps_tolerance(
                gn, kinetic(w_field, gn))
            viols.append(max(0.0, rep.garrisi_lhs - rep.garrisi_rhs))
        monotone_ok = monotone_ok and viols[1] <= viols[0] + 1e-12

    energy_ok = True
    for _ in range(50):
        f = random_nonneg_field(grid, rng)
        g = random_nonneg_field(grid, rng)
        e0 = nk.energy(nk.ComplexField(grid, f.values + 0j), g, acc_prm)
        e1 = nk.energy(
            nk.ComplexField(grid,
                            nk.decreasing_rearrangement(f).values + 0j),
            nk.decreasing_rearrangement(g), acc_prm)
        energy_ok = energy_ok and e1 <= e0 + ps_tolerance(grid, abs(e0))

    ok = lp_ok and hl_min >= 0.0 and garrisi_ok and monotone_ok and energy_ok
    report(6, "rearrangement-suite", ok,
           f"Lp exact on 100 pairs: {lp_ok}; min HL gap={hl_min:.3e}>=0; "
           f"20 two-bump cases within tol and refinement-monotone: "
           f"{garrisi_ok and monotone_ok}; E(f*,g*)<=E(f,g)+tol on 50 "
           f"pairs: {energy_ok}")


def test_criterion_07_w_consistency(wsol_ref, acc_prm):
    sol = wsol_ref
    e = nk.energy(sol.Phi, sol.psi, acc_prm)
    e_gap = abs(e - (sol.i_value + sol.b ** 2 * 1.0))
    h_gap = abs(nk.charge(sol.Phi) - 1.0)
    g_gap = abs(nk.momentum(sol.Phi, sol.psi) - 0.5)

    grid60 = nk.make_grid(60.0, 1024)
    prm0 = nk.PhysParams(alpha=1.0, tau1=0.0, tau2=1.0, p=1, q=1.0)
    sol0 = nk.minimize_W(1.0, 0.5, prm0, grid60)
    ok = (e_gap <= 1e-8 and h_gap <= 1e-10 and g_gap <= 1e-8
          and sol0.a_star > 0.0)
    report(7, "w-consistency", ok,
           f"|E-(I+b^2 s)|={e_gap:.2e} (<=1e-8), |H-s|={h_gap:.2e} "
           f"(<=1e-10), |G-t|={g_gap:.2e} (<=1e-8), tau1=0 a*="
           f"{sol0.a_star:.4f}>0")


@pytest.mark.slow
def test_criterion_08_conservation(coupled_pair_40, acc_prm):
    state, _, _ = nk.perturbed_solitary_initial(coupled_pair_40, 0.02,
                                                seed=42, prm=acc_prm)
    tr = nk.evolve(state, 20.0, 1e-3, sample_every=2000)
    rel_h, rel_g, rel_e = (tr.rel_drift("H"), tr.rel_drift("G"),
                           tr.rel_drift("E"))
    # fourth-order scaling is checked where truncation dominates rounding;
    # at dt=1e-3 the drift is already at the double-precision floor
    tra = nk.evolve(state, 20.0, 8e-3, sample_every=250)
    trb = nk.evolve(state, 20.0, 4e-3, sample_every=500)
    ratio = tra.drift("E") / max(trb.drift("E"), 1e-300)
    ok = (rel_h <= 1e-6 and rel_g <= 1e-6 and rel_e <= 1e-5 and ratio >= 8.0)
    report(8, "conservation", ok,
           f"T=20 dt=1e-3: |dH|/H={rel_h:.2e} (<=1e-6), "
           f"|dG|/G={rel_g:.2e} (<=1e-6), |dE|/E={rel_e:.2e} (<=1e-5); "
           f"E-drift ratio dt=8e-3 vs 4e-3: {ratio:.1f}x (>=8x)")


@pytest.mark.slow
def test_criterion_09_orbital_stability(wsol_ref, acc_prm):
    pair = wsol_ref.pair
    sups = []
    eps_abs_list = []
    for rel in (0.01, 0.02, 0.04):
        t0 = time.time()
        state, eps_abs, _ = nk.perturbed_solitary_initial(
            pair, rel, seed=7, prm=acc_prm, wavespeed=wsol_ref.c)
        tr = nk.evolve(state, 50.0, 2e-3, sample_every=250,
                       reference=pair, wavespeed=wsol_ref.c)
        elapsed = time.time() - t0
        assert elapsed <= 1800.0
        sups.append(float(np.max(tr.distance)))
        eps_abs_list.append(eps_abs)
    bounds_ok = all(s <= 10.0 * e for s, e in zip(sups, eps_abs_list))
    monotone_ok = sups[0] <= sups[1] <= sups[2]
    ok = bounds_ok and monotone_ok
    detail = ", ".join(
        f"eps={e:.4f}: sup_dist={s:.4f} (<= {10 * e:.3f})"
        for e, s in zip(eps_abs_list, sups))
    report(9, "orbital-stability", ok,
           detail + f"; non-decreasing: {monotone_ok}")


@pytest.mark.slow
def test_criterion_10_traveling_wave_fidelity(acc_grid40):
    # long-wave soliton: peak speed within 1 percent of c = 1 over T=10
    prm_k = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=6.0, p=1, q=1.0)
    pair_k, _ = nk.minimize_I(0.0, 2.0 / 3.0, prm_k, acc_grid40)
    st = nk.solitary_initial(pair_k, 1.0, prm=prm_k)
    grid = acc_grid40
    times, peaks = [], []
    for chunk in range(20):
        tr = nk.evolve(st, 0.5, 1e-3, sample_every=500)
        st = tr.final_state
        v = st.v.values
        m = int(np.argmax(v))
        denom = v[m - 1] - 2 * v[m] + v[(m + 1) % grid.n]
        off = 0.5 * (v[m - 1] - v[(m + 1) % grid.n]) / denom
        times.append(st.time)
        peaks.append(grid.x[m] + off * grid.dx)
    peaks = np.unwrap(np.array(peaks), period=2 * grid.half_length)
    speed = float(np.polyfit(times, peaks, 1)[0])
    speed_ok = abs(speed - 1.0) <= 0.01

    # short-wave soliton: modulus stationary within 1e-6 over T=10
    prm_n = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=1.0, p=1, q=2.0)
    pair_n, _ = nk.minimize_I(4.0, 0.0, prm_n, acc_grid40)
    st = nk.solitary_initial(pair_n, 0.0, prm=prm_n)
    worst = 0.0
    for chunk in range(20):
        tr = nk.evolve(st, 0.5, 1e-3, sample_every=500)
        st = tr.final_state
        err = float(np.max(np.abs(np.abs(st.u.values)
                                  - np.real(pair_n.phi.values))))
        worst = max(worst, err)
    mod_ok = worst <= 1e-6
    ok = speed_ok and mod_ok
    report(10, "traveling-wave-fidelity", ok,
           f"peak speed={speed:.6f} (|err|<=1%), "
           f"max modulus drift={worst:.2e} (<=1e-6)")
