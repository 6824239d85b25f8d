import json
import math
from pathlib import Path

import numpy as np
import pytest

import nlskdv as nk
from nlskdv.grid import shift_values
from nlskdv.minimize import MinimizeOptions

from conftest import sech

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

    def test_iteration_budget_enforced(self, grid30, prm_coupled):
        opts = MinimizeOptions(max_iter=3)
        with pytest.raises(nk.ConvergenceError) as err:
            nk.minimize_I(1.0, 1.0, prm_coupled, grid30, opts)
        assert err.value.report is not None
        assert err.value.report.termination == "max_iter"


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

    def test_energy_history_monotone(self, coupled_pair_30):
        _, report, _ = coupled_pair_30
        hist = np.array(report.energy_history)
        rises = np.diff(hist)
        assert np.all(rises <= 1e-11 * (1.0 + np.abs(hist[:-1])))

    def test_residual_orthogonal_to_constraints(self, coupled_pair_30,
                                                prm_coupled):
        pair, _, grid = coupled_pair_30
        from nlskdv.minimize import _residual_fields
        rphi, rpsi = _residual_fields(pair.phi.values, pair.psi.values,
                                      pair.sigma, pair.c, prm_coupled, grid)
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
        assert rep.stages == 8          # coupling ramped in steps of 0.25
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

    def test_negative_momentum(self, prm_coupled):
        grid = nk.make_grid(30.0, 768)
        sol = nk.minimize_W(1.0, -0.3, prm_coupled, grid)
        assert sol.a_star >= 0.0
        assert nk.momentum(sol.Phi, sol.psi) == pytest.approx(-0.3,
                                                              abs=1e-8)
        e = nk.energy(sol.Phi, sol.psi, prm_coupled)
        assert e == pytest.approx(sol.i_value + sol.b ** 2, abs=1e-8)

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

    The data were recorded with the solver that transformed phi and psi
    in separate calls.  A row of the stacked transforms equals the single
    call bit for bit, so iterations, stages and the stage count match
    exactly and every float to 1e-14 of its size (measured: identical).
    The -warm cases start from a Gaussian, so the descent runs with one
    field held at zero; the cold ones start from the closed-form profile.
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
                         ("el_residual_phi", pair.el_residual_phi),
                         ("el_residual_psi", pair.el_residual_psi)):
            _assert_golden_scalar(got, case[key], key)
        stride = gold["state_stride"]
        for key, got in (("phi", pair.phi.values[::stride]),
                         ("psi", pair.psi.values[::stride])):
            want = np.array(case[key])
            assert got.shape == want.shape, key
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, key

    def test_minimize_W(self):
        case = json.loads(GOLDEN.read_text())["w_solve"]
        w = nk.minimize_W(case["s"], case["t"],
                          nk.PhysParams(**case["params"]),
                          nk.make_grid(case["L"], case["n"]))
        assert w.n_solves == case["n_solves"]
        for key in ("a_star", "W_value"):
            _assert_golden_scalar(getattr(w, key), case[key], key)


class TestGoldenDescent:
    """Descent reports against tests/data/descent_golden.json.

    The data were recorded with the solver that evaluated the energy and
    the gradient of each iterate by separate transforms.  They pin the
    line search: iteration counts, the final step, the projected-gradient
    norm and the whole energy history (Armijo and gradient-norm phase
    entries alike), also for a solve stopped by its iteration budget.
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
