import dataclasses
import gc
import importlib.util
import json
import math
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

import nlskdv as nk
from nlskdv import exact as exact_mod
from nlskdv import functionals as functionals_mod
from nlskdv import minimize as minimize_mod
from nlskdv.grid import deriv_values
from nlskdv.minimize import MinimizeOptions

from conftest import sech, shift_values

GOLDEN = Path(__file__).parent / "data" / "minimize_golden.json"
DESCENT = Path(__file__).parent / "data" / "descent_golden.json"


class TestEnergyGradient:
    def test_zero_at_origin(self, grid30, prm_coupled):
        u = nk.ComplexField(grid30, np.zeros(grid30.n, dtype=complex))
        v = nk.RealField(grid30, np.zeros(grid30.n))
        gu, gv = nk.energy_gradient(u, v, prm_coupled)
        assert np.max(np.abs(gu.values)) == 0.0
        assert np.max(np.abs(gv.values)) == 0.0

    def test_matches_central_differences(self, grid30, prm_coupled):
        rng = np.random.default_rng(2)
        env = np.exp(-grid30.x ** 2 / 10)
        phi = nk.ComplexField(grid30, env * (1.0 + 0.4j))
        psi = nk.RealField(grid30, 0.8 * env)
        gphi, gpsi = nk.energy_gradient(phi, psi, prm_coupled)
        eps = 1e-5
        for _ in range(10):
            hu = env * (rng.standard_normal(grid30.n)
                        + 1j * rng.standard_normal(grid30.n))
            hv = env * rng.standard_normal(grid30.n)
            up = nk.ComplexField(grid30, phi.values + eps * hu)
            um = nk.ComplexField(grid30, phi.values - eps * hu)
            vp = nk.RealField(grid30, psi.values + eps * hv)
            vm = nk.RealField(grid30, psi.values - eps * hv)
            fd = (nk.energy(up, vp, prm_coupled)
                  - nk.energy(um, vm, prm_coupled)) / (2 * eps)
            an = (grid30.dx * np.sum(np.real(gphi.values * np.conj(hu)))
                  + grid30.dx * np.sum(gpsi.values * hv))
            assert fd == pytest.approx(an, rel=1e-6)

    def test_parallel_at_decoupled_grounds(self, grid40):
        # with no coupling, the gradient at the product of ground profiles
        # is componentwise parallel to the profiles
        prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=6.0, p=1, q=2.0)
        f0 = nk.nls_ground(4.0, prm, grid40)
        g0 = nk.kdv_ground(2.0 / 3.0, prm, grid40)
        gf, gg = nk.energy_gradient(
            nk.ComplexField(grid40, f0.values + 0j), g0, prm)
        # gradient = -2 lam * profile for each component
        for grad, prof in ((np.real(gf.values), f0.values),
                           (gg.values, g0.values)):
            lam = -0.5 * grid40.dx * np.sum(grad * prof) \
                / (grid40.dx * np.sum(prof ** 2))
            resid = grad + 2.0 * lam * prof
            assert np.sqrt(grid40.dx * np.sum(resid ** 2)) <= 1e-8


class TestMinimizeIDecoupled:
    def test_nls_oracle(self, grid30, prm_nls):
        pair, rep = nk.minimize_I(4.0, 0.0, prm_nls, grid30)
        assert pair.sigma == pytest.approx(1.0, abs=1e-6)
        assert np.isnan(pair.c)
        exact = np.sqrt(2) * sech(grid30.x)
        assert np.max(np.abs(np.real(pair.phi.values) - exact)) <= 1e-5
        assert rep.termination == "converged"
        assert pair.energy_value == pytest.approx(-4.0 / 3.0, abs=1e-8)

    def test_kdv_oracle(self, grid40, prm_kdv):
        pair, _ = nk.minimize_I(0.0, 2.0 / 3.0, prm_kdv, grid40)
        assert pair.c == pytest.approx(1.0, abs=1e-6)
        assert np.isnan(pair.sigma)
        exact = 0.5 * sech(grid40.x / 2) ** 2
        assert np.max(np.abs(pair.psi.values - exact)) <= 1e-5

    @pytest.mark.parametrize("s,t", [(1.0, 0.0), (0.0, 3.0)])
    def test_zero_mass_field_is_positive_zero(self, grid40, prm_coupled,
                                              s, t):
        # a warm start may carry a negative field whose mass is zero;
        # it comes back as exact +0.0 samples, not -0.0
        gauss = np.exp(-grid40.x ** 2 / 8.0)
        warm = (gauss, -gauss) if t == 0.0 else (-gauss, gauss)
        pair, _ = nk.minimize_I(s, t, prm_coupled, grid40, warm_start=warm)
        dead = pair.psi.values if t == 0.0 else pair.phi.values.real
        assert not np.any(dead) and not np.any(np.signbit(dead))

    def test_unattained_branch_rejected(self, grid30):
        prm = nk.PhysParams(alpha=1.0, tau1=0.0, tau2=1.0, p=1, q=1.0)
        with pytest.raises(nk.UnattainedInfimumError):
            nk.minimize_I(1.0, 0.0, prm, grid30)

    def test_empty_constraints_rejected(self, grid30, prm_coupled):
        with pytest.raises(nk.ValidationError):
            nk.minimize_I(0.0, 0.0, prm_coupled, grid30)
        with pytest.raises(nk.ValidationError):
            nk.minimize_I(-1.0, 1.0, prm_coupled, grid30)
        with pytest.raises(nk.ValidationError):
            nk.minimize_I(1.0, -0.5, prm_coupled, grid30)

    @pytest.mark.parametrize("bad", ["zero-row", "shape", "nan"])
    def test_bad_warm_start_rejected(self, grid30, prm_coupled, bad):
        # psi has positive mass, so an all-zero psi row cannot be
        # rescaled onto its mass sphere
        gauss = np.exp(-grid30.x ** 2 / 8.0)
        warm = {"zero-row": (gauss, np.zeros(grid30.n)),
                "shape": (gauss[:-2], gauss[:-2]),
                "nan": (gauss, np.where(grid30.x == 0.0, np.nan, gauss))}
        with pytest.raises(nk.ValidationError, match="warm_start"):
            nk.minimize_I(1.0, 1.0, prm_coupled, grid30,
                          warm_start=warm[bad])

    def test_iteration_budget_enforced(self, grid30, prm_coupled):
        opts = MinimizeOptions(max_iter=3)
        with pytest.raises(nk.ConvergenceError) as err:
            nk.minimize_I(1.0, 1.0, prm_coupled, grid30, opts)
        assert err.value.report is not None
        assert err.value.report.termination == "max_iter"

    def test_failed_line_search_reported(self, prm_coupled, monkeypatch):
        # an Armijo fraction no step can meet: the first line search
        # fails, and the report and the message say so, not the budget.
        # It fails in the coarse descent, and again in the descent on
        # the grid from its padded iterate: one iteration in each
        monkeypatch.setattr(minimize_mod, "_ARMIJO", 1e6)
        with pytest.raises(nk.ConvergenceError, match="line search") as err:
            nk.minimize_I(1.0, 1.0, prm_coupled, nk.make_grid(40.0, 512))
        assert "200000 iterations" not in str(err.value)
        rep = err.value.report
        assert rep.termination == "line_search"
        assert rep.iterations == 2
        assert rep.final_step < minimize_mod._STEP_MIN

    def test_rounding_floor_stops_early(self, grid40, prm_coupled):
        # the projected gradient stops at its rounding floor (~6e-16
        # here); the descent must give up long before the default
        # 200,000 iterations
        with pytest.raises(nk.ConvergenceError) as err:
            nk.minimize_I(1.0, 1.0, prm_coupled, grid40,
                          MinimizeOptions(tol=1e-16))
        rep = err.value.report
        assert rep.termination in ("line_search", "stalled")
        assert rep.iterations <= 1000

    def test_stalled_descent_reported(self, prm_coupled):
        # at (2, 1.5) on L=40, n=256, where no coarser grid resolves the
        # profile and the cold solve is one descent, the projected
        # gradient stops at 1.4e-15, its rounding floor; without the
        # stall test the descent keeps taking steps below the iterate's
        # rounding until its budget is spent
        grid = nk.make_grid(40.0, 256)
        assert minimize_mod._coarse_grid(2.0, 1.5, prm_coupled, grid) is None
        with pytest.raises(nk.ConvergenceError, match="stalled") as err:
            nk.minimize_I(2.0, 1.5, prm_coupled, grid,
                          MinimizeOptions(tol=1e-15))
        rep = err.value.report
        assert rep.termination == "stalled"
        assert rep.iterations <= minimize_mod._STALL + 100

    def test_floor_reached_from_padded_answer(self, grid40, prm_coupled):
        # the same solve on L=40, n=1024 descends on n=256 to 1e-12
        # first; from the padded answer the descent on grid40 meets the
        # rounding floor in a failed line search, not a stall
        with pytest.raises(nk.ConvergenceError, match="line search") as err:
            nk.minimize_I(2.0, 1.5, prm_coupled, grid40,
                          MinimizeOptions(tol=1e-15))
        rep = err.value.report
        assert rep.termination == "line_search"
        assert rep.iterations <= minimize_mod._STALL + 100


class TestMinimizeICoupled:
    def test_converged_diagnostics(self, coupled_pair_30, prm_coupled):
        pair, report, grid = coupled_pair_30
        assert report.termination == "converged"
        assert pair.energy_value < 0.0
        assert pair.sigma > 0.0
        assert pair.el_residual_phi <= 1e-8
        assert pair.el_residual_psi <= 1e-8
        # constraint masses to 1e-10
        assert nk.charge(pair.phi) == pytest.approx(1.0, abs=1e-10)
        psi_mass = grid.dx * np.sum(pair.psi.values ** 2)
        assert psi_mass == pytest.approx(1.0, abs=1e-10)

    def test_negated_phi_start_returns_nonneg_phi(self, grid30,
                                                  prm_coupled):
        # the energy is even in phi, so a start with phi negated descends
        # to -phi; the returned profile is flipped back to phi >= 0
        gauss = np.exp(-grid30.x ** 2 / 8.0)
        want, _ = nk.minimize_I(1.0, 1.0, prm_coupled, grid30,
                                warm_start=(gauss, gauss))
        pair, _ = nk.minimize_I(1.0, 1.0, prm_coupled, grid30,
                                warm_start=(-gauss, gauss))
        assert np.all(pair.phi.values.real >= 0.0)
        assert pair.energy_value == pytest.approx(want.energy_value,
                                                  rel=1e-12)

    def test_energy_history_monotone(self, coupled_pair_30):
        _, report, _ = coupled_pair_30
        hist = np.array(report.energy_history)
        rises = np.diff(hist)
        assert np.all(rises <= 1e-11 * (1.0 + np.abs(hist[:-1])))

    def test_residual_orthogonal_to_constraints(self, coupled_pair_30,
                                                prm_coupled):
        pair, _, grid = coupled_pair_30
        gphi, gpsi = nk.energy_gradient(pair.phi, pair.psi, prm_coupled)
        rphi = 0.5 * gphi.values + pair.sigma * pair.phi.values
        rpsi = 0.5 * gpsi.values + pair.c * pair.psi.values
        ip_phi = abs(grid.dx * np.sum(np.real(rphi * np.conj(
            pair.phi.values))))
        ip_psi = abs(grid.dx * np.sum(rpsi * pair.psi.values))
        assert ip_phi <= 1e-8
        assert ip_psi <= 1e-8

    def test_mixed_term_negative(self, coupled_pair_30, prm_coupled):
        pair, _, grid = coupled_pair_30
        phi = np.abs(pair.phi.values)
        psi = pair.psi.values
        phix = nk.deriv(pair.phi).values
        mixed = grid.dx * np.sum(
            np.abs(phix) ** 2 - prm_coupled.beta1 * phi ** (prm_coupled.q + 2)
            - prm_coupled.alpha * phi ** 2 * psi)
        assert mixed < 0.0

    def test_positive_profiles(self, coupled_pair_30):
        pair, _, _ = coupled_pair_30
        assert np.all(np.real(pair.phi.values) > 0.0)
        assert np.all(pair.psi.values > 0.0)

    def test_translation_invariant_energy(self, coupled_pair_30,
                                          prm_coupled):
        pair, _, grid = coupled_pair_30
        phi_w = shift_values(np.real(pair.phi.values), grid, 4.7)
        psi_w = shift_values(pair.psi.values, grid, 4.7)
        pair2, _ = nk.minimize_I(1.0, 1.0, prm_coupled, grid,
                                 warm_start=(phi_w, psi_w))
        assert pair2.energy_value == pytest.approx(pair.energy_value,
                                                   abs=1e-9)

    def test_fixed_point_form(self, coupled_pair_30, prm_coupled):
        pair, _, _ = coupled_pair_30
        assert nk.convolution_fixed_point_gap(pair, prm_coupled) <= 1e-8

    def test_multipliers_recomputed(self, coupled_pair_30, prm_coupled):
        pair, _, _ = coupled_pair_30
        sigma, c = nk.multipliers(pair, prm_coupled)
        assert sigma == pytest.approx(pair.sigma, rel=1e-12)
        assert c == pytest.approx(pair.c, rel=1e-12)

    def test_small_box_rejected(self, prm_coupled):
        grid = nk.make_grid(8.0, 64)
        with pytest.raises((nk.DomainTooSmallError, nk.ConvergenceError)):
            nk.minimize_I(1.0, 1.0, prm_coupled, grid)

    def test_random_field_residual_large(self, coupled_pair_30,
                                         prm_coupled):
        pair, _, grid = coupled_pair_30
        rng = np.random.default_rng(9)
        vals = np.exp(-grid.x ** 2 / 6) * (1 + 0.2 * rng.standard_normal(
            grid.n))
        vals *= np.sqrt(1.0 / (grid.dx * np.sum(vals ** 2)))
        import dataclasses
        fake = dataclasses.replace(
            pair, phi=nk.ComplexField(grid, vals + 0j),
            psi=nk.RealField(grid, vals))
        rphi, rpsi = nk.el_residual(fake, prm_coupled)
        assert rphi > 1e-3 and rpsi > 1e-3


def _assert_solver_matches_functionals(pair, prm):
    assert nk.energy(pair.phi, pair.psi, prm) == pytest.approx(
        pair.energy_value, rel=1e-13, abs=0.0)
    sigma, c = nk.multipliers(pair, prm)
    assert sigma == pytest.approx(pair.sigma, rel=1e-12, abs=0.0)
    assert c == pytest.approx(pair.c, rel=1e-12, abs=0.0)
    rphi, rpsi = nk.el_residual(pair, prm)
    assert abs(rphi - pair.el_residual_phi) <= 1e-12
    assert abs(rpsi - pair.el_residual_psi) <= 1e-12


class TestSolverMatchesFunctionals:
    # the values a solve stores agree with the public functionals
    # evaluated on the stored pair
    def test_coupled(self, coupled_pair_30, prm_coupled):
        pair, _, _ = coupled_pair_30
        _assert_solver_matches_functionals(pair, prm_coupled)

    def test_fractional_p(self):
        grid = nk.make_grid(30.0, 512)
        prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=2.0, p="7/5", q=2.5)
        pair, _ = nk.minimize_I(1.0, 1.0, prm, grid)
        _assert_solver_matches_functionals(pair, prm)


def _assert_certificate_matches(pair, prm):
    # the checks of _assert_solver_matches_functionals, where a zero mass
    # must make its row's multiplier and residual NaN on both sides
    assert nk.energy(pair.phi, pair.psi, prm) == pytest.approx(
        pair.energy_value, rel=1e-13, abs=0.0)
    assert nk.multipliers(pair, prm) == pytest.approx(
        (pair.sigma, pair.c), rel=1e-12, abs=0.0, nan_ok=True)
    assert nk.el_residual(pair, prm) == pytest.approx(
        (pair.el_residual_phi, pair.el_residual_psi), rel=0.0, abs=1e-12,
        nan_ok=True)
    # the recentred pair sits on the mass spheres
    grid = pair.grid
    for vals, mass in ((pair.phi.values, pair.s), (pair.psi.values, pair.t)):
        assert grid.dx * np.sum(np.abs(vals) ** 2) == pytest.approx(
            mass, rel=1e-13, abs=1e-300)


class TestCertificateMatchesReference:
    # minimize_I certifies a pair from the descent's last half-spectrum
    # evaluation; the public functionals recompute the certificate in
    # physical space
    def test_zero_short_wave_mass(self, prm_coupled):
        pair, _ = nk.minimize_I(0.0, 4.0, prm_coupled,
                                nk.make_grid(40.0, 1024))
        assert math.isnan(pair.sigma) and math.isnan(pair.el_residual_phi)
        assert not pair.phi.values.any()
        _assert_certificate_matches(pair, prm_coupled)

    def test_zero_long_wave_mass(self, prm_coupled, grid30):
        pair, _ = nk.minimize_I(1.0, 0.0, prm_coupled, grid30)
        assert math.isnan(pair.c) and math.isnan(pair.el_residual_psi)
        assert not pair.psi.values.any()
        _assert_certificate_matches(pair, prm_coupled)

    def test_gaussian_warm_start(self, prm_coupled, grid30):
        gauss = np.exp(-(grid30.x - 3.0) ** 2 / 8.0)
        pair, _ = nk.minimize_I(1.0, 1.0, prm_coupled, grid30,
                                warm_start=(gauss, gauss))
        _assert_certificate_matches(pair, prm_coupled)

    def test_w_solve_pair(self, prm_coupled, grid30):
        sol = nk.minimize_W(1.0, 0.5, prm_coupled, grid30)
        _assert_certificate_matches(sol.pair, prm_coupled)

    def test_shifted_warm_start_recentred(self, prm_coupled, grid40):
        # the certificate is the descent's last evaluation unless the
        # centroid lies beyond eps L; a start 2.5 cells off centre keeps
        # its centroid through the descent, so the pair is recentred to
        # x = 0, evaluated again, and matches the centred start's pair
        start = minimize_mod._stack(
            nk.minimize_I(1.0, 1.0, prm_coupled, grid40)[0])
        shifted = np.real(shift_values(start, grid40, 2.5 * grid40.dx))
        rounding = np.finfo(float).eps * grid40.half_length
        assert abs(minimize_mod._circular_centroid(
            shifted[1] ** 2, grid40)) > 1e3 * rounding
        pair, rep = nk.minimize_I(1.1, 0.9, prm_coupled, grid40,
                                  warm_start=shifted)
        assert rep.iterations > 0
        _assert_certificate_matches(pair, prm_coupled)
        assert abs(minimize_mod._circular_centroid(
            pair.psi.values ** 2, grid40)) <= rounding
        want, _ = nk.minimize_I(1.1, 0.9, prm_coupled, grid40,
                                warm_start=start)
        assert np.max(np.abs(pair.psi.values - want.psi.values)) <= 1e-8
        assert np.max(np.abs(pair.phi.values - want.phi.values)) <= 1e-8


class TestDescentStart:
    def test_cold_and_warm_first_trials(self, grid30, prm_coupled,
                                        monkeypatch):
        # a cold descent starts from the step 0.25, a warm one from the
        # unit step 1.0; the first iteration grows either by 1.26.  The
        # cold solve's coarse descent is cold, and the descent on grid30
        # from its padded answer is warm and needs no iteration
        starts = []
        descend, first_trial = minimize_mod._descend, minimize_mod._first_trial

        def recorded_descend(*args):
            starts.append([args[-1], None])
            return descend(*args)

        def recorded_trial(*args):
            step = first_trial(*args)
            if starts[-1][1] is None:
                starts[-1][1] = step
            return step
        monkeypatch.setattr(minimize_mod, "_descend", recorded_descend)
        monkeypatch.setattr(minimize_mod, "_first_trial", recorded_trial)
        cold, _ = nk.minimize_I(1.0, 1.0, prm_coupled, grid30)
        nk.minimize_I(1.1, 0.9, prm_coupled, grid30,
                      warm_start=minimize_mod._stack(cold))
        assert starts == [[0.25, 0.25 * 1.26], [1.0, None],
                          [1.0, 1.0 * 1.26]]

    @pytest.mark.parametrize("t, L, used", [
        (1.0, 30.0, False), (0.5, 40.0, False), (2.4, 40.0, True),
        (1.0, 60.0, True)])
    def test_long_wave_fallback_skips_root_find(self, prm_coupled, t, L,
                                                used, monkeypatch):
        # sqrt(lam) L < 16 by the closed-form width: the long wave starts
        # as sech^2(x/2).  Otherwise it starts at that width, as phi does
        # here (sqrt(lam) L >= 16 for both).  The decision is the one the
        # root-found width gives.  Either way no row is root-found: of
        # each row's grid masses only the two reachability ends are
        # evaluated, and only once per grid
        grid = nk.make_grid(L, 512)
        lam = exact_mod.kdv_profile(t, prm_coupled, grid).lam
        assert (math.sqrt(lam) * L >= 16.0) == used
        exact_mod._end_mass.cache_clear()
        masses = []
        mass = exact_mod._grid_mass

        def recorded_mass(lam, power, beta, grid):
            masses.append((beta, lam))
            return mass(lam, power, beta, grid)
        monkeypatch.setattr(exact_mod, "_grid_mass", recorded_mass)
        phi, psi = minimize_mod._initial_fields(1.0, t, prm_coupled, grid)
        beta1, beta2 = prm_coupled.beta1, prm_coupled.beta2
        assert beta1 != beta2
        ends = [exact_mod._LAM_LO, exact_mod._LAM_HI]
        assert [lam for beta, lam in masses if beta == beta2] == ends
        assert [lam for beta, lam in masses if beta == beta1] == ends
        if used:
            assert grid.dx * np.sum(psi ** 2) == pytest.approx(t, rel=1e-12)
        else:
            assert np.array_equal(psi, 1.0 / np.cosh(grid.x / 2.0) ** 2)
        assert grid.dx * np.sum(phi ** 2) == pytest.approx(1.0, rel=1e-12)
        masses.clear()
        again = minimize_mod._initial_fields(1.0, t, prm_coupled, grid)
        assert masses == []
        assert np.array_equal(again[0], phi) and np.array_equal(again[1], psi)

    def test_cold_solves_reuse_reachability_ends(self, prm_coupled,
                                                 monkeypatch):
        # a lattice of cold solves whose rows all fit their box: the
        # first solve on a grid pays the four reachability ends (two
        # rows, two ends), the rest make no grid mass at all.  A second
        # grid of the same physics pays its own
        exact_mod._end_mass.cache_clear()
        counts = []
        mass = exact_mod._grid_mass

        def recorded_mass(*args):
            counts[-1] += 1
            return mass(*args)
        monkeypatch.setattr(exact_mod, "_grid_mass", recorded_mass)
        for L in (60.0, 80.0):
            grid = nk.make_grid(L, 512)
            for s, t in ((1.0, 1.0), (0.6, 2.1), (2.3, 0.7)):
                assert all(minimize_mod._fits(exact_mod._line_log_lambda(
                    target, power, beta), grid) for target, power, beta in (
                        (s, prm_coupled.q, prm_coupled.beta1),
                        (t, prm_coupled.p_float, prm_coupled.beta2)))
                counts.append(0)
                nk.minimize_I(s, t, prm_coupled, grid)
        assert counts == [4, 0, 0, 4, 0, 0]

    @pytest.mark.parametrize("s, t, L, n, prm", [
        (1.0, 1.0, 60.0, 1024, dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1,
                                    q=1.0)),
        (2.5, 0.5, 30.0, 512, dict(alpha=0.5, tau1=1.0, tau2=3.0, p=1,
                                   q=2.0)),
        (2.0, 1.0, 60.0, 768, dict(alpha=2.0, tau1=2.0, tau2=2.0, p="7/5",
                                   q=2.5)),
        (2.0, 1.2, 25.0, 768, dict(alpha=0.0, tau1=3.0, tau2=6.0, p="9/7",
                                   q=1.5))])
    def test_closed_form_start_matches_ground_states(self, s, t, L, n, prm):
        # where both rows fit the box, the start samples each profile at
        # its closed-form real-line width; that is the root-found ground
        # state to 1e-12 relative
        prm = nk.PhysParams(**prm)
        grid = nk.make_grid(L, n)
        for mass, power, beta in ((s, prm.q, prm.beta1),
                                  (t, prm.p_float, prm.beta2)):
            log_lam = exact_mod._line_log_lambda(mass, power, beta)
            assert minimize_mod._fits(log_lam, grid)
        phi, psi = minimize_mod._initial_fields(s, t, prm, grid)
        for row, want in ((phi, nk.nls_ground(s, prm, grid).values),
                          (psi, nk.kdv_ground(t, prm, grid).values)):
            assert (np.max(np.abs(row - want))
                    <= 1e-12 * np.max(np.abs(want)))

    def test_flat_short_wave_is_root_found(self, monkeypatch):
        # a short wave flat on the box at its closed-form width
        # (sqrt(lam) L = 5.6e-4) starts at its root-found grid width, bit
        # for bit nls_ground's samples, with a width search past the
        # reachability ends
        prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=3.4)
        grid = nk.make_grid(40.0, 512)
        log_lam = exact_mod._line_log_lambda(0.413, prm.q, prm.beta1)
        assert math.exp(0.5 * log_lam) * 40.0 < 1e-3
        exact_mod._end_mass.cache_clear()
        lams = []
        mass = exact_mod._grid_mass

        def recorded_mass(lam, power, beta, grid):
            if beta == prm.beta1:
                lams.append(lam)
            return mass(lam, power, beta, grid)
        monkeypatch.setattr(exact_mod, "_grid_mass", recorded_mass)
        phi, _ = minimize_mod._initial_fields(0.413, 1.087, prm, grid)
        assert lams[:2] == [exact_mod._LAM_LO, exact_mod._LAM_HI]
        assert len(lams) > 2
        assert np.array_equal(phi, nk.nls_ground(0.413, prm, grid).values)

    def test_sech_starts_far_out_raise_no_overflow(self):
        # cosh(x/2) overflows for |x| > 1420: the sech(x/2) short wave
        # without a self-interaction, the sech^2(x/2) long-wave fallback
        # and the warm start's sech^2 bump are 0 there, and everywhere
        # the samples of 1/cosh^r, overflow to inf included.  The suite
        # turns the overflow warning into an error
        prm = nk.PhysParams(alpha=1.0, tau1=0.0, tau2=1.0, p=1, q=1.0)
        grid = nk.make_grid(1500.0, 8192)
        x = grid.x
        phi, psi = minimize_mod._initial_fields(1.0, 1e-6, prm, grid)
        zero_psi = SimpleNamespace(phi=SimpleNamespace(values=phi),
                                   psi=SimpleNamespace(values=0.0 * psi))
        bump = minimize_mod._warm_start(0.5, {0.0: zero_psi}, grid)[1]
        for row, power in ((phi, 1), (psi, 2), (bump, 2)):
            with np.errstate(over="ignore"):
                assert np.array_equal(row, 1.0 / np.cosh(x / 2.0) ** power)
            assert row[0] == 0.0 and row[len(x) // 2] == 1.0
        pair, _ = nk.minimize_I(1.0, 1.0, prm, grid)
        assert pair.boundary_leak < 1e-6

    def test_unreachable_mass_refused_before_descent(self, monkeypatch):
        # no width in [1e-12, 1e12] gives the short wave grid mass 1e-310,
        # nor the long wave 1e-30 or less: the cold start refuses it with
        # the inputs and the solve's own grid named, at once and without
        # a descent iteration, as nls_ground and kdv_ground refuse the
        # mass.  At n = 256 the solve has no coarse grid, at n = 512 it
        # has one; a long wave that small would start as sech^2(x/2)
        prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)
        descents = []
        monkeypatch.setattr(minimize_mod, "_descend",
                            lambda *args: descents.append(args))
        short, long = "0.6666666666666666", "0.3333333333333333"
        for n in (256, 512):
            grid = nk.make_grid(30.0, n)
            assert (minimize_mod._coarse_grid(1.0, 1.0, prm, grid)
                    is None) == (n == 256)
            text = ("target mass {} not bracketable at power 1.0, beta {} "
                    f"on the grid L=30.0, n={n} (widths lam in "
                    "[1e-12, 1000000000000.0])")
            cases = [
                (lambda: nk.minimize_I(1e-310, 1.0, prm, grid), 1e-310,
                 short),
                (lambda: nk.nls_ground(1e-310, prm, grid), 1e-310, short),
                (lambda: nk.kdv_ground(1e-310, prm, grid), 1e-310, long)]
            for t in (1e-30, 1e-200, 1e-300, 1e-310):
                cases += [
                    (lambda t=t: nk.minimize_I(1.0, t, prm, grid), t, long),
                    (lambda t=t: nk.kdv_ground(t, prm, grid), t, long)]
            for solve, mass, beta in cases:
                start = time.perf_counter()
                with pytest.raises(nk.ValidationError) as exc:
                    solve()
                assert time.perf_counter() - start < 0.1
                assert str(exc.value) == text.format(mass, beta)
        assert descents == []

    @pytest.mark.parametrize("n", [256, 512])
    def test_reachability_threshold(self, prm_coupled, n):
        # the long wave's lowest reachable mass on the grid is its grid
        # mass at lam = 1e-12 (5.4e-22 here).  A mass just below it is
        # refused up front; one just above it is not, and descends as
        # before the start checked reachability (no mass this small
        # solves in this box: its profile cannot fit)
        grid = nk.make_grid(30.0, n)
        floor = exact_mod._grid_mass(exact_mod._LAM_LO, prm_coupled.p_float,
                                     prm_coupled.beta2, grid)[0]
        opts = MinimizeOptions(max_iter=50)
        with pytest.raises(nk.ValidationError, match="not bracketable"):
            nk.minimize_I(1.0, 0.9999 * floor, prm_coupled, grid, opts)
        for t in (1.0001 * floor, 1.5 * floor, 2.0 * floor):
            with pytest.raises(nk.ConvergenceError):
                nk.minimize_I(1.0, t, prm_coupled, grid, opts)
        # the ends are cached per grid: on the box of twice the length
        # the floor doubles, and a mass this grid reaches is refused
        # there with that grid named, after this grid's ends are cached
        wide = nk.make_grid(60.0, n)
        assert (exact_mod._grid_mass(exact_mod._LAM_LO, prm_coupled.p_float,
                                     prm_coupled.beta2, wide)[0]
                > 1.5 * floor)
        with pytest.raises(nk.ValidationError,
                           match=f"on the grid L=60.0, n={n} "):
            nk.minimize_I(1.0, 1.5 * floor, prm_coupled, wide, opts)


class TestBoxPrediction:
    # a DomainTooSmallError names the half length at which the leaky
    # row's decay rate puts the leak under the limit; a re-solve at the
    # same spacing on that box, rounded up to whole points, passes
    @pytest.mark.parametrize("s,t,prm,L,n", [
        (0.5, 0.5, dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0), 30, 256),
        (0.3, 1.0, dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0), 20, 256),
        (0.5, 0.4, dict(alpha=0.3, tau1=1.0, tau2=1.0, p=1, q=2.0), 30, 256),
        (1.0, 0.0, dict(alpha=0.0, tau1=1.0, tau2=1.0, p=1, q=2.0), 12, 128),
    ], ids=["psi-row", "psi-row-L20", "weak-coupling", "phi-row"])
    def test_reported_box_passes(self, s, t, prm, L, n):
        prm = nk.PhysParams(**prm)
        grid = nk.make_grid(float(L), n)
        with pytest.raises(nk.DomainTooSmallError,
                           match=r"^boundary leak .* exceeds .*; enlarge "
                                 r"the box to L >= ") as err:
            nk.minimize_I(s, t, prm, grid)
        need = err.value.half_length_needed
        assert need > L
        n_need = 2 * math.ceil(need / grid.dx)
        pair, _ = nk.minimize_I(s, t, prm, nk.make_grid(
            0.5 * n_need * grid.dx, n_need))
        assert pair.boundary_leak <= MinimizeOptions().max_boundary_leak

    def test_no_rate_no_box(self, monkeypatch, prm_coupled):
        # a leaky row whose multiplier is not positive has no decay rate
        real_evaluate = minimize_mod._evaluate

        def negative_coef(*args):
            e, P, coef, X = real_evaluate(*args)
            return e, P, np.abs(coef), X
        monkeypatch.setattr(minimize_mod, "_evaluate", negative_coef)
        with pytest.raises(nk.DomainTooSmallError,
                           match="enlarge the box$") as err:
            nk.minimize_I(0.5, 0.5, prm_coupled, nk.make_grid(30.0, 256))
        assert err.value.half_length_needed is None


class TestGeneralPowers:
    def test_fractional_p_coupled_solve(self):
        grid = nk.make_grid(30.0, 768)
        prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=2.0, p="7/5", q=2.5)
        pair, rep = nk.minimize_I(1.5, 2.0, prm, grid)
        assert rep.termination == "converged"
        assert pair.el_residual_phi <= 1e-8
        assert pair.el_residual_psi <= 1e-8
        assert pair.sigma > 0.0
        assert pair.energy_value < 0.0

    def test_strong_coupling_continuation(self):
        grid = nk.make_grid(30.0, 768)
        prm = nk.PhysParams(alpha=2.0, tau1=1.0, tau2=1.0, p=1, q=1.0)
        pair, rep = nk.minimize_I(1.0, 1.0, prm, grid)
        assert rep.stages == 1          # one descent at the full coupling
        assert pair.el_residual_phi <= 1e-8
        assert pair.energy_value < 0.0


class TestSubadditivity:
    def test_positive_quadruple(self, prm_coupled):
        grid = nk.make_grid(30.0, 512)
        margin = nk.subadditivity_probe(0.8, 1.1, 1.3, 0.6, prm_coupled,
                                        grid)
        assert margin > 0.0

    def test_degenerate_branch(self):
        # no short-wave self-interaction and one zero long-wave mass
        grid = nk.make_grid(30.0, 512)
        prm = nk.PhysParams(alpha=1.0, tau1=0.0, tau2=1.0, p=1, q=1.0)
        margin = nk.subadditivity_probe(0.7, 0.0, 1.3, 0.9, prm, grid)
        assert margin > 0.0

    def test_precondition_violation(self, grid30, prm_coupled):
        with pytest.raises(nk.ValidationError):
            nk.subadditivity_probe(0.0, 0.0, 0.0, 0.0, prm_coupled, grid30)
        with pytest.raises(nk.ValidationError):
            nk.subadditivity_probe(1.0, 0.0, 1.0, 0.0, prm_coupled, grid30)


@pytest.mark.parametrize("entry", [
    lambda s, t, prm, g: nk.minimize_I(s, t, prm, g),
    lambda s, t, prm, g: nk.minimize_W(s, t, prm, g),
    lambda s, t, prm, g: nk.subadditivity_probe(s, t, 0.5, 0.5, prm, g),
], ids=["minimize_I", "minimize_W", "subadditivity_probe"])
def test_non_finite_mass_rejected(entry, grid_small, prm_coupled):
    # NaN fails every comparison, so sign checks alone let it through
    for s, t in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(nk.ValidationError, match="got .*nan"):
            entry(s, t, prm_coupled, grid_small)


@pytest.mark.parametrize("key,value", [
    ("tol", math.nan), ("tol", -1e-8), ("tol", 0.0), ("tol", math.inf),
    ("tol", True), ("tol", "1e-8"),
    ("max_boundary_leak", math.nan), ("max_boundary_leak", -1e-6),
    ("max_boundary_leak", 0.0),
    ("max_iter", 0), ("max_iter", 2.5), ("max_iter", True), ("max_iter", "3"),
])
def test_minimize_options_validated(key, value):
    # a NaN leak bound would pass every leak; a bad tol or budget would
    # end in a misleading ConvergenceError
    with pytest.raises(nk.ValidationError, match=f"{key} must be"):
        MinimizeOptions(**{key: value})


def test_minimize_options_accept_numpy_scalars():
    opts = MinimizeOptions(tol=np.float64(1e-9), max_iter=np.int64(5))
    assert opts.max_iter == 5 and type(opts.max_iter) is int


@pytest.mark.parametrize("t", [1e160, 1e200, 1e153, -1e153])
def test_overflowing_twist_rejected(grid_small, prm_coupled, t,
                                    monkeypatch):
    # (t - a)^2 / s overflows at a = 0 for |t| >= 1e160; at |t| = 1e153 it
    # overflows only on the doubled ranges.  Either way the search is
    # refused before its first inner solve
    def no_solve(*args, **kwargs):
        raise AssertionError("inner solve before the range check")

    monkeypatch.setattr(minimize_mod, "minimize_I", no_solve)
    with pytest.raises(nk.ValidationError, match="overflows"):
        nk.minimize_W(1.0, t, prm_coupled, grid_small)


@pytest.mark.parametrize("alpha", [1e300], ids=["huge-alpha"])
def test_overflowing_start_rejected(grid_small, alpha):
    # a start whose energy or projected gradient overflows is refused
    # after one evaluation, not descended from, and without numpy's
    # overflow warning (which -W error would turn into a traceback)
    prm = nk.PhysParams(alpha=alpha, tau1=1.0, tau2=1.0, p=1, q=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nk.ValidationError,
                           match="not finite at the start"):
            nk.minimize_I(1.0, 1.0, prm, grid_small)


def test_underflowing_warm_row_rejected(grid_small, prm_coupled):
    # a nonzero warm row whose squares underflow has zero norm; the
    # projection scales it by inf, as an array division would, and the
    # start is refused with a typed error, not a ZeroDivisionError
    gauss = np.exp(-grid_small.x ** 2 / 8.0)
    with np.errstate(all="ignore"):
        with pytest.raises(nk.ValidationError,
                           match="not finite at the start"):
            nk.minimize_I(1.0, 1.0, prm_coupled, grid_small,
                          warm_start=(1e-170 * gauss, gauss))


class TestSpectralDescent:
    # the descent holds the rfft half spectrum of [phi; psi]; its
    # quadratures come from Parseval and a trial costs two transforms

    @given(half=st.integers(4, 512), seed=st.integers(0, 2 ** 32 - 1))
    def test_parseval_helpers_match_quadrature(self, half, seed):
        grid = nk.make_grid(10.0 + seed % 31, 2 * half)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((2, grid.n))
        X[1] += rng.standard_normal() * (-1.0) ** np.arange(grid.n)
        Xh = scipy.fft.rfft(X)
        w = minimize_mod._half_weights(grid)
        dx = grid.dx

        def close(got, want, scale):
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

        mass = dx * np.sum(X * X, axis=1)
        close(minimize_mod._pairings(Xh, Xh, w), mass, mass)
        cross = dx * np.sum(X[0] * X[1])
        close(minimize_mod._pairings(Xh[0], Xh[1], w), cross,
              math.sqrt(mass[0] * mass[1]))
        close(math.sqrt(minimize_mod._pairings(Xh, Xh, w).sum()),
              math.sqrt(mass.sum()), math.sqrt(mass.sum()))
        DX = deriv_values(X, grid)
        kinetic = dx * np.sum(DX * DX)
        close(minimize_mod._pairings(Xh, Xh,
                                     minimize_mod._half_weights(grid, 1)).sum(),
              kinetic, kinetic)

    @given(half=st.integers(4, 512), seed=st.integers(0, 2 ** 32 - 1))
    def test_fused_weights_match_pairings(self, half, seed):
        # one product with a two-row weight stack gives what two
        # single-weight _pairings give, and <Y, K Y> from the weight w K
        # is the pairing of Y with K Y
        grid = nk.make_grid(10.0 + seed % 31, 2 * half)
        rng = np.random.default_rng(seed)
        Xh, Y = (scipy.fft.rfft(rng.standard_normal((2, grid.n))
                                * rng.lognormal(0.0, 2.0, (2, 1)))
                 for _ in range(2))
        consts = grid.constants(minimize_mod._grid_constants)
        w, kinetic = (minimize_mod._half_weights(grid, k) for k in (0, 1))
        KY = consts.precond * Y

        def close(got, want):
            got, want = np.asarray(got), np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

        pairings = minimize_mod._pairings
        close(minimize_mod._squares(Xh, consts.mass_kinetic),
              np.stack([pairings(Xh, Xh, w), pairings(Xh, Xh, kinetic)], 1))
        close(minimize_mod._squares(Y, consts.mass_metric),
              np.stack([pairings(Y, Y, w), pairings(Y, KY, w)], 1))
        close(minimize_mod._total_pairing(Y, Y, consts.mass_metric[1]),
              pairings(Y, KY, w).sum())
        # the projection's kinetic energy is that of its projected rows;
        # a zero-mass row is zeroed and adds nothing, a free row (None)
        # is kept and reports its own mass
        for masses in ((0.7, 1.9), (0.0, 1.3), (0.7, None)):
            proj, energy, rows = minimize_mod._project(Xh, masses,
                                                       consts.mass_kinetic)
            close(pairings(proj, proj, w), rows)
            close(energy, pairings(proj, proj, kinetic).sum())
            if masses[0] == 0.0:
                assert not proj[0].any()
        assert rows[0] == 0.7 and np.array_equal(proj[1], Xh[1])
        close(rows[1], pairings(Xh, Xh, w)[1])

    @given(half=st.integers(8, 16), seed=st.integers(0, 2 ** 32 - 1))
    def test_twist_metric_matches_dense_solve(self, half, seed):
        # psi's direction D solves (K^-1 + (8/s) psi psi^T) D = P, with
        # psi psi^T the L2 rank-one operator v -> psi <psi, v>, as a
        # dense solve on the half spectrum's real coordinates gives it;
        # phi's row stays K P bit for bit, the slope is <P, D> and the
        # first trial's two-point step is measured in the same metric
        grid = nk.make_grid(10.0 + seed % 31, 2 * half)
        rng = np.random.default_rng(seed)
        Xh, P, Y = (scipy.fft.rfft(rng.standard_normal((2, grid.n))
                                   * rng.lognormal(0.0, 1.0, (2, 1)))
                    for _ in range(3))
        s = rng.uniform(0.3, 3.0)
        consts = grid.constants(minimize_mod._grid_constants)
        w = consts.mass_metric[0]
        D = consts.precond * P
        slope, rank_one = minimize_mod._twist_metric(D, P, Xh, s,
                                                     consts.precond, w)
        assert np.array_equal(D[0], consts.precond * P[0])
        psi = Xh[1].view(np.float64)
        A = (np.diag(1.0 / np.repeat(consts.precond, 2))
             + 8.0 / s * np.outer(psi, w * psi))

        def solve(V):
            return np.linalg.solve(A, V.view(np.float64)).view(complex)
        want = solve(P[1])
        # the float64 reference is itself off by about eps cond(A); on
        # draws with cond(A) ~ 1e5 that passes 1e-12
        bound = max(1e-12, 4.0 * np.finfo(float).eps * np.linalg.cond(A))
        assert (np.linalg.norm(D[1] - want)
                <= bound * np.linalg.norm(want))
        pairings = minimize_mod._total_pairing
        assert (pairings(P, P, consts.mass_metric[1]) + slope
                == pytest.approx(pairings(P, D, w), rel=1e-12))
        # S = M Y makes the two-point step <S, Y>/<Y, M Y> exactly 1
        S = np.array([consts.precond * Y[0], solve(Y[1])])
        trial = minimize_mod._first_trial(S, Y, 1.0, consts.mass_metric,
                                          rank_one)
        assert trial == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("start", ["cold", "warm", "recentred"])
    def test_report_counts_evaluations(self, grid40, prm_coupled, start,
                                       monkeypatch):
        # MinimizeReport.evaluations counts the _evaluate calls of a
        # solve: the start, every trial and a recentring
        warm = None
        if start != "cold":
            warm = minimize_mod._stack(
                nk.minimize_I(1.0, 1.0, prm_coupled, grid40)[0])
            if start == "recentred":
                warm = np.real(shift_values(warm, grid40, 2.5 * grid40.dx))
        calls, descended = [], []
        evaluate, descend = minimize_mod._evaluate, minimize_mod._descend

        def recorded(*args):
            calls.append(args)
            return evaluate(*args)

        def recorded_descend(*args):
            out = descend(*args)
            descended.append(len(calls))
            return out
        monkeypatch.setattr(minimize_mod, "_evaluate", recorded)
        monkeypatch.setattr(minimize_mod, "_descend", recorded_descend)
        _, rep = nk.minimize_I(1.1, 0.9, prm_coupled, grid40,
                               warm_start=warm)
        assert rep.iterations > 0
        assert rep.evaluations == len(calls) > rep.iterations
        # only the shifted start is recentred, by one more evaluation
        # after the last descent (a cold solve's second)
        assert len(descended) == 1 + (start == "cold")
        assert len(calls) - descended[-1] == (start == "recentred")

    def test_two_transforms_per_trial(self, grid40, prm_coupled,
                                      monkeypatch):
        # one inverse transform (N and the potential energy) and one
        # forward one (of N) per evaluation; the start, the recentring
        # and the certifying evaluation add a few
        calls = {"transforms": 0, "evaluations": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(scipy.fft, name,
                                counted(getattr(scipy.fft, name),
                                        "transforms"))
        for mod in (minimize_mod, functionals_mod):
            monkeypatch.setattr(mod, "nonlinearity",
                                counted(mod.nonlinearity, "evaluations"))
        _, rep = nk.minimize_I(1.0, 1.0, prm_coupled, grid40)
        assert rep.iterations >= 20
        assert calls["transforms"] <= 2 * calls["evaluations"] + 6

    def test_first_trial_usually_passes(self, grid40, prm_coupled,
                                        monkeypatch):
        # the two-point first trial is rarely refused: a cold solve makes
        # about one evaluation per iteration (a fixed x2 / x1.26 growth
        # made 42 for 26)
        calls = []
        nonlinearity = minimize_mod.nonlinearity

        def counted(*args):
            calls.append(args)
            return nonlinearity(*args)
        monkeypatch.setattr(minimize_mod, "nonlinearity", counted)
        _, rep = nk.minimize_I(1.0, 1.0, prm_coupled, grid40)
        assert rep.iterations >= 20
        assert len(calls) <= 1.3 * rep.iterations + 2

    def test_grid_constants_shared(self, prm_coupled):
        # the descent's per-grid constants are built once per grid and
        # read-only, so repeated solves, on one grid or on equal grids,
        # are identical
        grids = [nk.make_grid(40.0, 512), nk.make_grid(40.0, 512)]
        pairs = [nk.minimize_I(1.0, 1.0, prm_coupled, g)[0]
                 for g in (grids[0], grids[0], grids[1])]
        for pair in pairs[1:]:
            assert np.array_equal(pair.phi.values, pairs[0].phi.values)
            assert np.array_equal(pair.psi.values, pairs[0].psi.values)
            assert (pair.energy_value, pair.sigma, pair.c) == (
                pairs[0].energy_value, pairs[0].sigma, pairs[0].c)
        consts = grids[0].constants(minimize_mod._grid_constants)
        assert consts is grids[0].constants(minimize_mod._grid_constants)
        for arr in consts:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestColdDescent:
    # cold solves are one descent at the full coupling; the Armijo test
    # must refuse the step 2 on which the high modes do not decay
    def test_marginal_step_refused(self, grid40, prm_coupled):
        # with a 1e-4 Armijo fraction this solve takes 24,343 iterations
        # at step 2; with 0.2 it takes 28
        pair, rep = nk.minimize_I(0.9, 2.5, prm_coupled, grid40)
        assert rep.iterations <= 200
        assert rep.stages == 1
        assert pair.el_residual_phi <= 1e-8
        assert pair.el_residual_psi <= 1e-8

    @pytest.mark.parametrize("alpha,energy", [
        (4.0, -2.1366074775877717), (10.0, -6.109238134124162)],
        ids=["alpha-4", "alpha-10"])
    def test_strong_coupling_matches_ramp(self, grid40, alpha, energy):
        # I(1, 1) as recorded from a solve that ramped the coupling up
        # from zero in steps of 0.25 (16 and 40 stages)
        prm = nk.PhysParams(alpha=alpha, tau1=1.0, tau2=1.0, p=1, q=1.0)
        pair, rep = nk.minimize_I(1.0, 1.0, prm, grid40)
        assert rep.stages == 1
        assert pair.energy_value == pytest.approx(energy, rel=1e-13, abs=0.0)


def _fine_only(s, t, prm, grid, opts=None):
    """The cold descent on grid alone: a cold solve without a coarse stage."""
    opts = opts or MinimizeOptions()
    start = scipy.fft.rfft(minimize_mod._initial_fields(s, t, prm, grid))
    return minimize_mod._descend(start, (s, t), prm, grid, opts.tol,
                                 opts.max_iter, minimize_mod._STEP0)


# three cases of the cold set of tests/data/compare_solver_answers.py,
# at L=40, n=512: two without a short-wave self-interaction (the coarse
# grid follows the long wave's width) and one with both widths
COLD_SET = {
    "cold-7-1": (0.3115836700442644, 2.1067025204420857, dict(
        alpha=2.3912082862561386, tau1=0.0, tau2=2.1666783475062243, p=1,
        q=1.6960640302519332)),
    "cold-7-26": (1.0318992102649147, 1.1762062312946153, dict(
        alpha=0.6087352566405486, tau1=0.0, tau2=1.6709950723643656, p=1,
        q=3.2886609928097705)),
    "cold-8-4": (0.3369205151137916, 0.699418662198005, dict(
        alpha=1.1840057438958085, tau1=1.0, tau2=3.8920036942385052, p=1,
        q=2.130666322067866)),
}


class TestNestedIteration:
    # a cold solve descends on a coarse grid of the same box, pads the
    # answer's half spectrum onto the solve's grid and certifies it there

    def test_padding_keeps_the_interpolant(self):
        # the padded half spectrum is the coarse rows' trigonometric
        # interpolant: it takes their values at the coarse points, and a
        # profile resolved on the coarse grid is its samples on the fine
        coarse, fine = nk.make_grid(40.0, 256), nk.make_grid(40.0, 1024)

        def rows(x):
            return np.array([np.exp(-x ** 2 / 8.0), np.exp(-x ** 2 / 18.0)])
        X = scipy.fft.irfft(minimize_mod._padded(
            scipy.fft.rfft(rows(coarse.x)), fine.n), fine.n)
        assert np.max(np.abs(X[:, ::4] - rows(coarse.x))) <= 1e-15
        assert np.max(np.abs(X - rows(fine.x))) <= 1e-15
        # the Nyquist cosine is split between the two fine modes next
        # to it, so it keeps its values at the coarse points
        nyquist = np.cos(np.pi * (coarse.x + 40.0) / coarse.dx)
        X = scipy.fft.irfft(minimize_mod._padded(
            scipy.fft.rfft([nyquist, nyquist]), fine.n), fine.n)
        assert np.max(np.abs(X[:, ::4] - nyquist)) <= 1e-14

    def test_coarse_size_rule(self, grid40, prm_coupled):
        # 8 coarse cells per decoupled decay length 2/(p sqrt(lam)) of
        # the narrower row: n/4 = 256 over the family lattice at L=40,
        # n=1024 (phi at s = 2.5 has 8.6 cells there, 4.3 at 128)
        for s in np.linspace(0.5, 2.5, 10):
            for t in np.linspace(0.5, 2.5, 10):
                coarse = minimize_mod._coarse_grid(s, t, prm_coupled, grid40)
                assert (coarse.half_length, coarse.n) == (40.0, 256)
        # built once per (L, n_c), whichever grid asks
        assert coarse is minimize_mod._coarse_grid(
            1.0, 1.0, prm_coupled, nk.make_grid(40.0, 512))
        # too narrow for any coarser grid: a large mass, or a grid with
        # no grid of half its points that resolves the profile
        assert minimize_mod._coarse_grid(40.0, 1.0, prm_coupled,
                                         grid40) is None
        assert minimize_mod._coarse_grid(1.0, 1.0, prm_coupled,
                                         nk.make_grid(40.0, 256)) is None

    @pytest.mark.parametrize("s, t, prm, L, n", [
        (1.0, 1.0, dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0), 40.0,
         256),
        (8.0, 0.0, dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0), 40.0,
         512)], ids=["n256", "t0-s8"])
    def test_declined_solve_unchanged(self, s, t, prm, L, n):
        # where no coarser grid resolves the profile, the solve is the
        # one cold descent on its grid: its report is that descent's
        prm = nk.PhysParams(**prm)
        grid = nk.make_grid(L, n)
        assert minimize_mod._coarse_grid(s, t, prm, grid) is None
        _, last, iters, evals, step, history, pgnorm, stop = _fine_only(
            s, t, prm, grid)
        pair, rep = nk.minimize_I(s, t, prm, grid)
        assert (rep.iterations, rep.final_step, rep.energy_history,
                rep.termination, rep.pg_norm) == (
                    iters, step, history, stop, pgnorm)
        assert rep.evaluations in (evals, evals + 1)    # recentred or not
        assert pair.energy_value == last[0] or rep.evaluations == evals + 1

    @pytest.mark.parametrize("case", [
        f"lattice-{s}-{t}" for s in (0.5, 1.5, 2.5) for t in (0.5, 1.5, 2.5)]
        + list(COLD_SET))
    def test_matches_fine_only_descent(self, case, grid40, prm_coupled,
                                       monkeypatch):
        # a 3x3 sub-lattice of the family lattice (L=40, n=1024) and
        # three cold-set cases: the coarse-to-fine solve finds the
        # minimizer of the cold descent on the grid alone, and the
        # certificate meets tol
        if case in COLD_SET:
            s, t, prm = COLD_SET[case]
            prm, grid = nk.PhysParams(**prm), nk.make_grid(40.0, 512)
        else:
            s, t = (float(v) for v in case.split("-")[1:])
            prm, grid = prm_coupled, grid40
        grids = []
        descend = minimize_mod._descend

        def recorded(*args):
            out = descend(*args)
            grids.append((args[3].n, out[-1]))
            return out
        monkeypatch.setattr(minimize_mod, "_descend", recorded)
        pair, rep = nk.minimize_I(s, t, prm, grid)
        assert grids == [(grid.n // 2 if case in COLD_SET else 256,
                          "converged"), (grid.n, "converged")]
        want = _fine_only(s, t, prm, grid)[1][0]
        assert abs(pair.energy_value - want) <= 1e-14 * abs(want)
        tol = MinimizeOptions().tol
        assert pair.el_residual_phi <= tol and pair.el_residual_psi <= tol
        assert rep.termination == "converged"

    def test_one_call_per_solve(self, prm_coupled, monkeypatch):
        # the coarse stage is a _descend call inside minimize_I, not a
        # call through the module's minimize_I, which the benchmark's
        # probes and minimize_W's solve counts see
        calls = []
        solve = minimize_mod.minimize_I

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return solve(*args, **kwargs)
        monkeypatch.setattr(minimize_mod, "minimize_I", counted)
        minimize_mod.minimize_I(1.0, 1.0, prm_coupled,
                                nk.make_grid(40.0, 1024))
        assert calls == [(1.0, 1.0)]
        calls.clear()
        sol = nk.minimize_W(1.0, 0.5, prm_coupled, nk.make_grid(30.0, 768))
        assert sol.n_solves == len(calls) == 18
        assert sol.n_unavailable == 0

    def test_coarse_answer_finished_on_grid(self, monkeypatch):
        # cold-7-0 (alpha 2.33, q 3.18) is narrower than its decoupled
        # width, so the coarse grid (n = 256) resolves it only to about
        # 1e-11; the descent on the grid finishes the padded answer in a
        # few iterations, at the grid-only cold descent's minimizer
        prm = nk.PhysParams(alpha=2.3270570707355804, tau1=1.0,
                            tau2=2.15091456701174, p=1,
                            q=3.1838836134906545)
        grid = nk.make_grid(40.0, 512)
        s, t = 1.6752100265302674, 2.2738703621330663
        want = _fine_only(s, t, prm, grid)[1][0]
        grids = []
        descend = minimize_mod._descend

        def recorded(*args):
            out = descend(*args)
            grids.append((args[3].n, out[2]))
            return out
        monkeypatch.setattr(minimize_mod, "_descend", recorded)
        pair, rep = nk.minimize_I(s, t, prm, grid)
        (n_c, coarse_iters), (n, fine_iters) = grids
        assert (n_c, n) == (256, 512) and 0 < fine_iters <= 10
        assert rep.iterations == coarse_iters + fine_iters
        assert abs(pair.energy_value - want) <= 1e-14 * abs(want)

    def test_coarse_failure_continues_on_grid(self, grid40, prm_coupled,
                                              monkeypatch):
        # a coarse descent that stops short (its budget cut to 5
        # iterations here) hands what it reached to the descent on the
        # grid, which ends with the status of the grid-only cold
        # descent.  Both share max_iter, and the report counts both
        fine = _fine_only(1.0, 1.0, prm_coupled, grid40)
        cold = scipy.fft.rfft(minimize_mod._initial_fields(
            1.0, 1.0, prm_coupled, grid40))
        start_pg = minimize_mod._descend(cold, (1.0, 1.0), prm_coupled,
                                         grid40, 0.0, 0, 0.25)[-2]
        descend = minimize_mod._descend

        def short(Xh, masses, prm, grid, tol, budget, step0, twist=None):
            if grid is not grid40:
                budget = min(budget, 5)
            return descend(Xh, masses, prm, grid, tol, budget, step0, twist)
        monkeypatch.setattr(minimize_mod, "_descend", short)
        pair, rep = nk.minimize_I(1.0, 1.0, prm_coupled, grid40)
        assert rep.termination == fine[-1] == "converged"
        assert abs(pair.energy_value - fine[1][0]) <= 1e-14 * abs(fine[1][0])
        assert rep.iterations > 5
        # a budget spent on the coarse grid reports the padded iterate's
        # state on the grid, not the cold start's
        for max_iter in (3, 5, 8):
            opts = MinimizeOptions(max_iter=max_iter)
            with pytest.raises(nk.ConvergenceError,
                               match=f"within {max_iter} iterations") as err:
                nk.minimize_I(1.0, 1.0, prm_coupled, grid40, opts)
            assert err.value.report.iterations == max_iter
            assert err.value.report.pg_norm < start_pg
        monkeypatch.undo()
        with pytest.raises(nk.DomainTooSmallError):
            nk.minimize_I(0.0, 1.0, prm_coupled, grid40)


class TestNestedW:
    # minimize_W scans, and descends on F, on _coarse_grid's grid for the
    # first scan range's top mass; the descent on F finishes on the
    # user's grid and the certificate is solved there

    @staticmethod
    def _record_grids(monkeypatch):
        # (a, point count) of every inner solve, through the module's
        # minimize_I as minimize_W calls it
        calls = []
        solve = minimize_mod.minimize_I

        def recorder(*args, **kwargs):
            calls.append((args[1], args[3].n))
            return solve(*args, **kwargs)
        monkeypatch.setattr(minimize_mod, "minimize_I", recorder)
        return calls

    @staticmethod
    def _grid_only(s, t, prm, grid, monkeypatch):
        # the W-solve with no coarse grid anywhere
        monkeypatch.undo()
        monkeypatch.setattr(minimize_mod, "_coarse_grid",
                            lambda *args: None)
        return nk.minimize_W(s, t, prm, grid)

    @pytest.mark.parametrize("s, t", [(1.0, 0.5), (1.0, 1.0), (1.5, 0.75),
                                      (2.0, 1.0)])
    def test_family_points_match_grid_only(self, s, t, prm_coupled,
                                           monkeypatch):
        # the family W points (L=30, n=768): 17 scan solves at n = 192
        # and the certificate at n = 768, with the grid-only W and a*
        grid = nk.make_grid(30.0, 768)
        calls = self._record_grids(monkeypatch)
        sol = nk.minimize_W(s, t, prm_coupled, grid)
        assert sol.n_solves == len(calls) == 18
        assert [n for _, n in calls] == [192] * 17 + [768]
        assert calls[-1][0] == sol.a_star == sol.pair.t
        assert sol.Phi.grid is sol.psi.grid is sol.pair.grid is grid
        want = self._grid_only(s, t, prm_coupled, grid, monkeypatch)
        assert abs(sol.W_value - want.W_value) <= 1e-14 * abs(want.W_value)
        assert abs(sol.a_star - want.a_star) <= 1e-9
        assert sol.twist_gap <= 1e-12

    def test_zero_minimum_padded(self, monkeypatch):
        # alpha = 0, t < 0: a* = 0, whose pair the scan solved on the
        # coarse grid (n = 384); it is padded onto the user's grid for
        # the certificate there
        prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=3.0, p=1, q=1.0)
        grid = nk.make_grid(30.0, 768)
        calls = self._record_grids(monkeypatch)
        sol = nk.minimize_W(1.0, -1.0, prm, grid)
        assert sol.a_star == 0.0
        assert [n for _, n in calls] == [384] * 17 + [768]
        assert calls[-1][0] == 0.0
        assert sol.Phi.grid is sol.psi.grid is sol.pair.grid is grid
        assert sol.pair.el_residual_phi <= MinimizeOptions().tol
        want = self._grid_only(1.0, -1.0, prm, grid, monkeypatch)
        assert abs(sol.W_value - want.W_value) <= 1e-14 * abs(want.W_value)

    def test_declined_w_solve_unchanged(self, prm_coupled, monkeypatch):
        # at L=30, n=256 no grid of half the points resolves the profiles:
        # every descent runs on the user's grid, and every field equals
        # the grid-only W-solve's, with the W and a* that solve had
        # before the scan moved to a coarse grid
        grid = nk.make_grid(30.0, 256)
        grids = []
        descend = minimize_mod._descend

        def recorded(*args, **kwargs):
            grids.append(args[3])
            return descend(*args, **kwargs)
        monkeypatch.setattr(minimize_mod, "_descend", recorded)
        sol = nk.minimize_W(1.0, 0.5, prm_coupled, grid)
        assert all(g is grid for g in grids) and len(grids) == 19
        want = self._grid_only(1.0, 0.5, prm_coupled, grid, monkeypatch)
        for field in dataclasses.fields(sol):
            got, ref = getattr(sol, field.name), getattr(want, field.name)
            if field.name == "pair":
                assert np.array_equal(got.phi.values, ref.phi.values)
                assert np.array_equal(got.psi.values, ref.psi.values)
                got, ref = (dataclasses.replace(p, phi=None, psi=None)
                            for p in (got, ref))
            if field.name in ("Phi", "psi"):
                assert np.array_equal(got.values, ref.values)
            else:
                assert got == ref, field.name
        assert abs(sol.W_value + 0.4950951232317497) <= 1e-15
        assert abs(sol.a_star - 0.66571263249033) <= 1e-14


class TestMinimizeW:
    def test_consistency(self, prm_coupled):
        grid = nk.make_grid(30.0, 768)
        sol = nk.minimize_W(1.0, 0.5, prm_coupled, grid)
        assert sol.a_star > 0.0
        b = (0.5 - sol.a_star) / 1.0
        assert sol.b == pytest.approx(b, rel=1e-12)
        assert nk.charge(sol.Phi) == pytest.approx(1.0, abs=1e-10)
        assert nk.momentum(sol.Phi, sol.psi) == pytest.approx(0.5, abs=1e-8)
        e = nk.energy(sol.Phi, sol.psi, prm_coupled)
        assert e == pytest.approx(sol.i_value + sol.b ** 2, abs=1e-8)
        assert sol.W_value == pytest.approx(e, abs=1e-8)
        assert sol.omega == pytest.approx(sol.pair.sigma + sol.b ** 2,
                                          rel=1e-12)
        assert sol.twist_gap <= 1e-12

    def test_inner_pairs_freed_on_return(self, prm_coupled):
        # only the returned pair outlives the call: the search's inner
        # solves are freed by reference counting, none waits in a cycle
        # for the collector
        grid = nk.make_grid(30.0, 256)

        def pairs():
            return sum(isinstance(o, nk.SolitaryWavePair)
                       for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = pairs()
            sol = nk.minimize_W(1.0, 0.5, prm_coupled, grid)
            after = pairs()
        finally:
            gc.enable()
        assert sol.n_solves > 1
        assert after == before + 1

    def test_negative_momentum(self, prm_coupled):
        grid = nk.make_grid(30.0, 768)
        # at t = -1.5 the optimum sits at a ~ 0.004, in the scan's first
        # cell, which ends at a = 0 (slope +inf): the descent on F
        # starts at that cell's midpoint
        for t in (-0.3, -1.5):
            sol = nk.minimize_W(1.0, t, prm_coupled, grid)
            assert sol.a_star >= 0.0
            assert nk.momentum(sol.Phi, sol.psi) == pytest.approx(t,
                                                                  abs=1e-8)
            e = nk.energy(sol.Phi, sol.psi, prm_coupled)
            assert e == pytest.approx(sol.i_value + sol.b ** 2, abs=1e-8)
            assert sol.twist_gap <= 1e-12, t

    # alpha = 0: the sech^2 KdV wave of mass a (beta2 = 2) has
    # c = (3a/2)^(2/3), so c + 2b = 0 puts the optimum at a = 9 s^3/32
    # for t = 0; for t < 0, W'(0+) = -2t/s > 0 and the optimum is a = 0.
    # At s = 3, a* = 7.59375 lies above the first scan range's top, 4 sqrt(3)
    @pytest.mark.parametrize("s,t,a_star", [(1.0, 0.0, 9.0 / 32.0),
                                            (1.0, -0.3, 0.0),
                                            (3.0, 0.0, 9.0 * 27.0 / 32.0)])
    def test_decoupled(self, s, t, a_star):
        prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=6.0, p=1, q=1.0)
        sol = nk.minimize_W(s, t, prm, nk.make_grid(40.0, 512))
        assert sol.a_star == pytest.approx(a_star, abs=1e-7)
        if a_star > 0.0:
            assert sol.twist_gap <= 1e-12
        else:  # no long-wave multiplier at a = 0
            assert math.isnan(sol.twist_gap)

    def test_unavailable_scan_node(self, prm_coupled):
        # the a = 0 node's uncoupled short wave is too wide for the box
        sol = nk.minimize_W(1.0, 0.5, prm_coupled, nk.make_grid(28.0, 512))
        assert sol.n_unavailable == 1
        assert sol.twist_gap <= 1e-12
        e = nk.energy(sol.Phi, sol.psi, prm_coupled)
        assert abs(e - (sol.i_value + sol.b ** 2)) <= 1e-8
        assert abs(nk.charge(sol.Phi) - 1.0) <= 1e-10
        assert abs(nk.momentum(sol.Phi, sol.psi) - 0.5) <= 1e-8

    def test_minimum_abuts_unavailable_nodes(self, prm_coupled):
        with pytest.raises(nk.DomainTooSmallError, match="abuts"):
            nk.minimize_W(1.0, 0.5, prm_coupled, nk.make_grid(26.0, 512))

    def test_zero_minimum_abuts_unavailable_node(self, monkeypatch):
        # alpha = 0, t < 0: a = 0 is the lowest node and W rises from it,
        # but node 1 has no profile in the box, so the search cannot tell
        # whether W falls again before it: one midpoint, then "abuts"
        calls = self._record_inner_solves(monkeypatch)
        prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=1.5, p=1, q=1.0)
        with pytest.raises(nk.DomainTooSmallError, match="abuts"):
            nk.minimize_W(0.9, -0.9, prm, nk.make_grid(40.0, 512))
        assert calls[1][3] is None      # node 1 has no profile
        assert len(calls) == minimize_mod._W_SCAN_NODES + 1

    def test_every_node_unavailable(self, grid_small, prm_coupled):
        # no profile has a boundary leak this small
        with pytest.raises(nk.DomainTooSmallError):
            nk.minimize_W(1.0, 0.5, prm_coupled, grid_small,
                          MinimizeOptions(max_boundary_leak=1e-300))

    def test_unavailable_trial_point(self, grid_small, prm_coupled,
                                     monkeypatch):
        # the inner solve past the scan's nodes (the certificate at a*)
        # fails as a profile too wide for the box would
        calls = []
        solve = minimize_mod.minimize_I
        nodes = minimize_mod._W_SCAN_NODES

        def failing_after_scan(*args, **kwargs):
            calls.append(args[1])
            if len(calls) > nodes:
                raise nk.DomainTooSmallError("too wide")
            return solve(*args, **kwargs)

        monkeypatch.setattr(minimize_mod, "minimize_I", failing_after_scan)
        with pytest.raises(nk.DomainTooSmallError, match="enlarge the box"):
            nk.minimize_W(1.0, 0.5, prm_coupled, grid_small)
        assert len(calls) == nodes + 1

    def test_abuts_names_the_box(self, monkeypatch):
        # every inner solve leaks here; the W-level error passes on the
        # largest box the unavailable nodes asked for
        needs = []
        solve = minimize_mod.minimize_I

        def recorder(*args, **kwargs):
            try:
                return solve(*args, **kwargs)
            except nk.DomainTooSmallError as err:
                needs.append(err.half_length_needed)
                raise
        monkeypatch.setattr(minimize_mod, "minimize_I", recorder)
        prm = nk.PhysParams(alpha=0.0906, tau1=1.0, tau2=0.7682, p=1,
                            q=3.4979)
        with pytest.raises(nk.DomainTooSmallError,
                           match=r"abuts .*; enlarge the box to L >= "
                                 r"\d+\.\d\d$") as err:
            nk.minimize_W(1.1434, -0.0703, prm, nk.make_grid(40.0, 512))
        assert len(needs) >= minimize_mod._W_SCAN_NODES
        assert err.value.half_length_needed == max(needs) > 40.0
        assert f"L >= {max(needs):.2f}" in str(err.value)

    def test_unavailable_trial_point_names_the_box(self, grid_small,
                                                   prm_coupled,
                                                   monkeypatch):
        # as test_unavailable_trial_point, with a box on the failure
        calls = []
        solve = minimize_mod.minimize_I
        nodes = minimize_mod._W_SCAN_NODES

        def failing_after_scan(*args, **kwargs):
            calls.append(args[1])
            if len(calls) > nodes:
                raise nk.DomainTooSmallError("too wide",
                                             half_length_needed=31.5)
            return solve(*args, **kwargs)

        monkeypatch.setattr(minimize_mod, "minimize_I", failing_after_scan)
        with pytest.raises(nk.DomainTooSmallError,
                           match=r"enlarge the box to L >= 31\.50$") as err:
            nk.minimize_W(1.0, 0.5, prm_coupled, grid_small)
        assert err.value.half_length_needed == 31.5
        assert len(calls) == nodes + 1

    def test_inner_solve_count(self, prm_coupled):
        # 18 inner solves: the 17 warm-started scan nodes and the
        # certificate at a*
        sol = nk.minimize_W(1.0, 0.5, prm_coupled, nk.make_grid(30.0, 768))
        assert sol.n_solves <= 24

    @pytest.mark.parametrize("s, t", [(1.0, 0.5), (1.0, 1.0), (1.5, 0.75),
                                      (2.0, 1.0)])
    def test_no_near_duplicate_final_solves(self, s, t, prm_coupled,
                                            monkeypatch):
        # the family W points: the scan's 17 nodes, then one solve to the
        # final tolerance, the certificate at a*, which the descent on F
        # leaves converged
        calls = self._record_inner_solves(monkeypatch)
        sol = nk.minimize_W(s, t, prm_coupled, nk.make_grid(30.0, 768))
        assert sol.pair.t == sol.a_star
        final = [(a, it) for a, _, tol, it in calls
                 if tol == MinimizeOptions().tol]
        assert final == [(sol.a_star, 0)]
        assert len(calls) == sol.n_solves <= minimize_mod._W_SCAN_NODES + 1

    @pytest.mark.parametrize("s, t", [(1.0, 0.5), (1.0, 1.0), (1.5, 0.75),
                                      (2.0, 1.0)])
    def test_descent_on_F_count(self, s, t, prm_coupled, monkeypatch):
        # the family W points: in the twist metric the descent on F
        # takes 21-28 iterations and 24-39 evaluations, summed over its
        # coarse (n = 192) and fine parts; the fine part makes 0-2
        # iterations.  On the grid alone it took 19-28 and 22-36; in the
        # plain H1 metric its tail was linear, 35-93 iterations and
        # 46-129 evaluations ((1, 1) took the most)
        counts, evaluations = [], []
        evaluate, descend = minimize_mod._evaluate, minimize_mod._descend

        def counted(*args, **kwargs):
            evaluations.append(None)
            return evaluate(*args, **kwargs)

        def recorded(*args, **kwargs):
            before = len(evaluations)
            out = descend(*args, **kwargs)
            if kwargs.get("twist") is not None:
                counts.append((out[2], len(evaluations) - before))
            return out
        monkeypatch.setattr(minimize_mod, "_evaluate", counted)
        monkeypatch.setattr(minimize_mod, "_descend", recorded)
        sol = nk.minimize_W(s, t, prm_coupled, nk.make_grid(30.0, 768))
        iterations, evals = (sum(c) for c in zip(*counts))
        assert iterations <= 40 and evals <= 40, (iterations, evals)
        assert sol.twist_gap <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, -1.5])
    def test_neighbours_not_lower(self, t, prm_coupled):
        # W(a*) is the minimum of I(s, a) + (t - a)^2/s: solved to the
        # same tolerance, the masses a* +- 1e-3 give no lower W, less
        # rounding (they lie ~1e-6 above, 2e-4 near a* = 0.004)
        grid = nk.make_grid(30.0, 768)
        sol = nk.minimize_W(1.0, t, prm_coupled, grid)
        for a in (sol.a_star - 1e-3, sol.a_star + 1e-3):
            if a > 0.0:
                pair, _ = nk.minimize_I(1.0, a, prm_coupled, grid)
                w = pair.energy_value + (t - a) ** 2
                assert w >= sol.W_value - 1e-14 * abs(sol.W_value), a

    @staticmethod
    def _record_inner_solves(monkeypatch):
        # [a, cold start, tolerance, iterations] of every inner solve of
        # minimize_W; iterations stay None when the solve raises
        calls = []
        solve = minimize_mod.minimize_I

        def recorder(*args, **kwargs):
            call = [args[1], kwargs.get("warm_start") is None, args[4].tol,
                    None]
            calls.append(call)
            pair, report = solve(*args, **kwargs)
            call[3] = report.iterations
            return pair, report

        monkeypatch.setattr(minimize_mod, "minimize_I", recorder)
        return calls

    def test_cold_solves(self, grid_small, prm_coupled, monkeypatch):
        # the scan ascends from a = 0, whose closed-form decoupled start
        # needs a few iterations; every later solve starts warm, so none
        # runs the coupling ramp
        calls = self._record_inner_solves(monkeypatch)
        nk.minimize_W(1.0, 0.5, prm_coupled, grid_small)
        cold = [a for a, is_cold, _, _ in calls if is_cold]
        assert cold == [0.0]

    def test_descent_iteration_budget(self, prm_coupled, monkeypatch):
        # every descent of the search, counted at _descend: 128 in the
        # warm scan nodes at the continuation tolerance, 28 on F and 0
        # in the certificate
        iterations = []
        descend = minimize_mod._descend

        def recorded(*args, **kwargs):
            out = descend(*args, **kwargs)
            iterations.append(out[2])
            return out
        monkeypatch.setattr(minimize_mod, "_descend", recorded)
        nk.minimize_W(1.0, 0.5, prm_coupled, nk.make_grid(30.0, 768))
        assert sum(iterations) <= 300

    def test_minimum_at_zero_refined(self, monkeypatch):
        # alpha = 0, t < 0: W' > 0 on (0, a_max), so a* = 0, the scan's
        # first node; its coarse solve is re-solved to the final tolerance
        calls = self._record_inner_solves(monkeypatch)
        prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=6.0, p=1, q=1.0)
        sol = nk.minimize_W(0.8, -0.5, prm, nk.make_grid(40.0, 512))
        assert sol.a_star == 0.0
        assert sol.W_value == pytest.approx(0.18722423548259634, rel=1e-13)
        assert sol.pair.el_residual_phi <= 1e-8
        tols = [tol for a, _, tol, _ in calls if a == 0.0]
        assert tols == [minimize_mod._CONTINUATION_TOL,
                        MinimizeOptions().tol]

    def test_zero_mass_unattained(self, monkeypatch):
        # tau1 = 0: a = 0 has no pair, so the first available node is the
        # one cold solve past it
        calls = self._record_inner_solves(monkeypatch)
        prm = nk.PhysParams(alpha=1.0, tau1=0.0, tau2=1.0, p=1, q=1.0)
        sol = nk.minimize_W(1.0, 0.5, prm, nk.make_grid(40.0, 512))
        assert sol.W_value == pytest.approx(-0.23512694761131447, rel=1e-13)
        assert sol.twist_gap <= 1e-12
        cold = [a for a, is_cold, _, _ in calls if is_cold]
        assert cold == [0.0, calls[1][0]] and calls[1][0] > 0.0
        assert calls[0][3] is None      # UnattainedInfimumError at a = 0

    def test_loose_tolerance_solves_once(self, grid_small, prm_coupled,
                                         monkeypatch):
        # a tolerance looser than the continuation tolerance makes every
        # scan node final: no mass is solved twice
        calls = self._record_inner_solves(monkeypatch)
        opts = MinimizeOptions(tol=1e-5)
        nk.minimize_W(1.0, 0.5, prm_coupled, grid_small, opts)
        masses = [a for a, _, _, _ in calls]
        assert len(set(masses)) == len(masses)
        assert {tol for _, _, tol, _ in calls} == {1e-5}

    @staticmethod
    def _biased_search(t, side, bias, prm, monkeypatch):
        # minimize_W(1, t) with the coarse c of one scan node moved by
        # bias: the first node right of the unbiased a* (side 0) or the
        # last left of it (side -1).  Returns the unbiased and biased
        # solutions
        grid = nk.make_grid(30.0, 768)
        want = nk.minimize_W(1.0, t, prm, grid)
        nodes = np.linspace(0.0, t + 4.0 * math.sqrt(1.0 + t),
                            minimize_mod._W_SCAN_NODES)
        node = float(nodes[np.searchsorted(nodes, want.a_star) + side])
        solve = minimize_mod.minimize_I

        def biased(*args, **kwargs):
            pair, report = solve(*args, **kwargs)
            if args[1] == node and args[4].tol > MinimizeOptions().tol:
                pair = dataclasses.replace(pair, c=pair.c + bias)
            return pair, report

        monkeypatch.setattr(minimize_mod, "minimize_I", biased)
        return want, nk.minimize_W(1.0, t, prm, grid)

    @pytest.mark.parametrize("side,bias", [(0, 1.0), (-1, -1.0)])
    def test_root_past_coarse_bracket(self, side, bias, prm_coupled,
                                      monkeypatch):
        # a coarse slope of the wrong sign at a node next to the root
        # moves the descent's start from the root's cell to a mass 0.05
        # to 0.3 away from a* (at t = 0.5 the lowest node lies right of
        # a*, at t = 0.7 left of it); the descent on F still ends at the
        # same minimizer
        for t in (0.5, 0.7):
            want, sol = self._biased_search(t, side, bias, prm_coupled,
                                            monkeypatch)
            monkeypatch.undo()
            # the descent starts elsewhere, so a* moves by up to ~1e-9;
            # W is flat there
            assert abs(sol.a_star - want.a_star) <= 1e-8, t
            assert sol.W_value == pytest.approx(want.W_value, rel=1e-13)
            assert sol.twist_gap <= 1e-12, t

    def test_minimum_between_hermite_nodes(self):
        # alpha = 0, t = 0: a* = (9/32) s^3 = 0.144 lies in the first scan
        # cell, whose end a = 0 has slope 2t/s = 0, so no slope sign change
        # brackets it; the descent on F starts at that cell's midpoint
        prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=6.0, p=1, q=1.0)
        sol = nk.minimize_W(0.8, 0.0, prm, nk.make_grid(40.0, 512))
        assert abs(sol.a_star - 0.144) <= 1e-7
        assert sol.twist_gap <= 1e-12

    def test_range_doubling(self, monkeypatch):
        # alpha = 0, t = 0: a* = (9/32) s^3 = 7.59375 lies above the first
        # scan's a_max = 4 sqrt(3), so the scan doubles its range
        calls = self._record_inner_solves(monkeypatch)
        prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=6.0, p=1, q=1.0)
        sol = nk.minimize_W(3.0, 0.0, prm, nk.make_grid(30.0, 256))
        assert abs(sol.a_star - 9.0 / 32.0 * 27.0) <= 1e-7
        assert sol.twist_gap <= 1e-12
        assert max(a for a, _, _, _ in calls) > 4.0 * math.sqrt(3.0)

    def test_warm_start_predictor(self, grid_small):
        # profiles linear in a: interpolation between two solved masses
        # and the secant extrapolation beyond them reproduce them exactly
        def pair(a):
            return SimpleNamespace(
                phi=nk.ComplexField(grid_small, 1.0 + a * phi),
                psi=nk.RealField(grid_small, a * psi))

        phi = np.exp(-grid_small.x ** 2)
        psi = np.exp(-grid_small.x ** 2 / 4.0)
        known = {0.5: pair(0.5), 1.0: pair(1.0)}
        for a in (0.75, 1.5, 0.25):
            X = minimize_mod._warm_start(a, known, grid_small)
            assert np.allclose(X, [1.0 + a * phi, a * psi], atol=1e-14)
        # one neighbour: its profiles, with a sech^2 long wave if it has none
        X = minimize_mod._warm_start(0.3, {0.0: pair(0.0)}, grid_small)
        assert np.array_equal(X[0], np.ones(grid_small.n))
        assert np.all(X[1] > 0.0)
        assert minimize_mod._warm_start(0.3, {}, grid_small) is None

    @staticmethod
    def _polynomial_pairs(grid, degree):
        # (stack, pair) of profiles polynomial in a of the given degree
        phi = np.exp(-grid.x ** 2)
        psi = np.exp(-grid.x ** 2 / 4.0)
        coef = [(1.0, 0.5), (1.0, 1.0), (1.0, -0.5), (-0.5, 0.25),
                (0.25, -0.5)][:degree + 1]

        def stack(a):
            return sum(a ** k * np.array([c0 * phi + (k == 0), c1 * psi])
                       for k, (c0, c1) in enumerate(coef))

        def pair(a):
            X = stack(a)
            return SimpleNamespace(phi=nk.ComplexField(grid, X[0]),
                                   psi=nk.RealField(grid, X[1]))
        return stack, pair

    def test_warm_start_quartic_predictor(self, grid_small):
        # profiles quartic in a: five equally spaced solved masses on one
        # side give them back one spacing beyond either end; fewer give
        # the polynomial of lower degree; between two it stays linear
        for degree in range(5):
            stack, pair = self._polynomial_pairs(grid_small, degree)
            nodes = 0.5 + 0.25 * np.arange(degree + 1)
            known = {float(a): pair(float(a)) for a in nodes}
            for a in (nodes[-1] + 0.25, nodes[0] - 0.25):
                X = minimize_mod._warm_start(a, known, grid_small)
                assert np.max(np.abs(X - stack(a))) <= 1e-14, (degree, a)
        X = minimize_mod._warm_start(0.875, known, grid_small)
        assert np.allclose(X, 0.5 * (stack(0.75) + stack(1.0)), atol=1e-15)
        # the polynomial takes the five nearest on the side of a: a sixth
        # mass off the quartic is not read
        known[2.5] = pair(0.0)
        X = minimize_mod._warm_start(0.25, known, grid_small)
        assert np.max(np.abs(X - stack(0.25))) <= 1e-14

    def test_warm_start_skips_zero_among_nearest_five(self, grid_small):
        # a = 0 among the five nearest masses below a is skipped: its
        # profiles, off the cubic of the other four, are not read, and
        # the cubic through those four comes back
        stack, pair = self._polynomial_pairs(grid_small, 3)
        known = {a: pair(a) for a in (0.25, 0.5, 0.75, 1.0)}
        known[0.0] = SimpleNamespace(
            phi=nk.ComplexField(grid_small, np.ones(grid_small.n)),
            psi=nk.RealField(grid_small, np.zeros(grid_small.n)))
        X = minimize_mod._warm_start(1.25, known, grid_small)
        assert np.max(np.abs(X - stack(1.25))) <= 1e-14

    def test_warm_start_skips_zero_as_third_node(self, grid_small):
        # psi grows like sqrt(a) from a = 0, so a = 0 is never the third
        # node of the quadratic: next to (a1, a2, 0) the start is the
        # secant through a1 and a2
        def pair(a):
            return SimpleNamespace(
                phi=nk.ComplexField(grid_small, 1.0 + a * a * phi),
                psi=nk.RealField(grid_small, a * a * psi))

        phi = np.exp(-grid_small.x ** 2)
        psi = np.exp(-grid_small.x ** 2 / 4.0)
        known = {a: pair(a) for a in (0.0, 0.5, 1.0)}
        X = minimize_mod._warm_start(1.5, known, grid_small)
        secant = 2.0 * (1.0 + 1.0 * phi) - (1.0 + 0.25 * phi)
        assert np.allclose(X[0], secant, atol=1e-14)

    def test_inner_budget_exhausted(self, grid_small, prm_coupled):
        # an inner solve out of iterations is no convergence, not a
        # profile too wide for the box
        with pytest.raises(nk.ConvergenceError):
            nk.minimize_W(1.0, 0.5, prm_coupled, grid_small,
                          MinimizeOptions(max_iter=5))

    def test_descent_on_F_budget_exhausted(self, prm_coupled):
        # the scan's nodes take at most 15 iterations here, the descent
        # on F 28: a budget of 20 stops the latter
        with pytest.raises(nk.ConvergenceError,
                           match=r"within 20 iterations .* > tol 5\.0e-13"):
            nk.minimize_W(1.0, 0.5, prm_coupled, nk.make_grid(30.0, 768),
                          MinimizeOptions(max_iter=20))

    def test_rejects_unstable_power(self, grid30):
        prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p=2, q=1.0)
        with pytest.raises(nk.ValidationError):
            nk.minimize_W(1.0, 0.5, prm, grid30)

    def test_rejects_zero_mass(self, grid30, prm_coupled):
        with pytest.raises(nk.ValidationError):
            nk.minimize_W(0.0, 0.5, prm_coupled, grid30)


def _assert_golden_scalar(got, want, key):
    # JSON null stands for NaN (an undefined multiplier or residual)
    if want is None:
        assert math.isnan(got), key
    else:
        assert abs(got - want) <= 1e-14 * abs(want), key


class TestGoldenMinimizers:
    """Solves against tests/data/minimize_golden.json.

    The minimize_I cases are written by tests/data/record_solver_goldens.py
    from the solver itself, so iterations and stages match exactly and
    every float to 1e-14 of its size, except el_residual_phi, which is
    checked absolutely (see below).  The -warm cases start from a
    Gaussian, so the descent runs with one field held at zero; the cold
    ones start from the closed-form profile.
    """

    @pytest.mark.parametrize("name", ["coupled-1-1", "p7_5-q5_2",
                                      "t0-branch", "t0-branch-warm",
                                      "s0-branch", "s0-branch-warm"])
    def test_minimize_I(self, name):
        gold = json.loads(GOLDEN.read_text())
        case = gold["cases"][name]
        grid = nk.make_grid(gold["L"], gold["n"])
        warm = None
        if case["warm_gauss"]:
            gauss, zero = np.exp(-grid.x ** 2 / 8.0), np.zeros(grid.n)
            warm = (gauss, zero) if case["s"] > 0 else (zero, gauss)
        pair, rep = nk.minimize_I(case["s"], case["t"],
                                  nk.PhysParams(**case["params"]), grid,
                                  warm_start=warm)
        assert rep.iterations == case["iterations"]
        assert rep.stages == case["stages"]
        for key, got in (("energy", pair.energy_value),
                         ("sigma", pair.sigma), ("c", pair.c),
                         ("el_residual_psi", pair.el_residual_psi)):
            _assert_golden_scalar(got, case[key], key)
        # a residual is a ~3e-9 norm of a difference of O(1) terms, so
        # transform rounding moves it by ~1e-14 absolute (an earlier
        # recording from a full complex transform of phi was 1.2e-14 off)
        want = case["el_residual_phi"]
        if want is None:
            assert math.isnan(pair.el_residual_phi)
        else:
            assert abs(pair.el_residual_phi - want) <= 1e-13
        stride = gold["state_stride"]
        for key, got in (("phi", pair.phi.values[::stride]),
                         ("psi", pair.psi.values[::stride])):
            want = np.array(case[key])
            assert got.shape == want.shape, key
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, key

    def test_minimize_W(self):
        # the recorded a_star and n_solves come from an earlier
        # golden-section search stopped at a width of 1e-6 (1 + |t|):
        # a_star is pinned to that width, and the scan with its descent
        # on F must use fewer inner solves and leave |c + 2b| at rounding
        case = json.loads(GOLDEN.read_text())["w_solve"]
        w = nk.minimize_W(case["s"], case["t"],
                          nk.PhysParams(**case["params"]),
                          nk.make_grid(case["L"], case["n"]))
        _assert_golden_scalar(w.W_value, case["W_value"], "W_value")
        assert w.twist_gap <= 1e-12
        assert abs(w.a_star - case["a_star"]) <= 1.5e-6
        assert w.n_solves < case["n_solves"]


class TestGoldenDescent:
    """Descent reports against tests/data/descent_golden.json.

    The data are written by tests/data/record_solver_goldens.py.  They
    pin the line search: iteration counts, the final step, the
    projected-gradient norm and the whole energy history (Armijo and
    gradient-norm phase entries alike), also for a solve stopped by its
    iteration budget.
    """

    @staticmethod
    def _assert_report(rep, want):
        assert rep.iterations == want["iterations"]
        assert rep.stages == want["stages"]
        assert rep.termination == want["termination"]
        assert len(rep.energy_history) == want["history_len"]
        for key in ("final_step", "pg_norm"):
            _assert_golden_scalar(getattr(rep, key), want[key], key)
        got = np.array(rep.energy_history)
        hist = np.array(want["energy_history"])
        assert np.all(np.abs(got - hist) <= 1e-14 * np.abs(hist))

    @pytest.mark.parametrize("name", ["coupled-1-1", "p7_5-q5_2",
                                      "t0-branch", "t0-branch-warm"])
    def test_minimize_I(self, name):
        gold = json.loads(DESCENT.read_text())
        case = gold["cases"][name]
        grid = nk.make_grid(gold["L"], gold["n"])
        warm = None
        if case["warm_gauss"]:
            warm = (np.exp(-grid.x ** 2 / 8.0), np.zeros(grid.n))
        _, rep = nk.minimize_I(case["s"], case["t"],
                               nk.PhysParams(**case["params"]), grid,
                               warm_start=warm)
        self._assert_report(rep, case)

    def test_budget_report(self):
        gold = json.loads(DESCENT.read_text())
        case = gold["max_iter_3"]
        with pytest.raises(nk.ConvergenceError) as err:
            nk.minimize_I(case["s"], case["t"],
                          nk.PhysParams(**case["params"]),
                          nk.make_grid(gold["L"], gold["n"]),
                          MinimizeOptions(max_iter=case["max_iter"]))
        self._assert_report(err.value.report, case)


def test_recorder_check_mode(tmp_path, monkeypatch, capsys):
    # record_solver_goldens.py --check lists what would change, writes
    # nothing and exits 1 only when a recorded key would change
    spec = importlib.util.spec_from_file_location(
        "record_solver_goldens", DESCENT.parent / "record_solver_goldens.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    monkeypatch.setattr(recorder, "DATA", tmp_path)
    gold = json.loads(DESCENT.read_text())
    (tmp_path / GOLDEN.name).write_text(GOLDEN.read_text())
    (tmp_path / DESCENT.name).write_text(DESCENT.read_text())
    assert recorder.main(["--check"]) == 0
    assert capsys.readouterr().out == ""

    iterations = gold["cases"]["coupled-1-1"]["iterations"]
    gold["cases"]["coupled-1-1"]["iterations"] += 1
    moved = json.dumps(gold)
    (tmp_path / DESCENT.name).write_text(moved)
    assert recorder.main(["--check"]) == 1
    assert capsys.readouterr().out == (
        f"{DESCENT.name} coupled-1-1.iterations: "
        f"{iterations + 1} -> {iterations}\n")
    assert (tmp_path / DESCENT.name).read_text() == moved
