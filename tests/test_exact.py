import math

import numpy as np
import pytest
from scipy.optimize import brentq

import nlskdv as nk
from nlskdv import exact
from nlskdv.grid import deriv

from conftest import sech


def grid_mass(field):
    return field.grid.dx * float(np.sum(field.values ** 2))


class TestLambdaForMass:
    def test_closed_form_confirmed_then_inverted(self, grid40):
        # first confirm the p=1, beta=1 mass law (8/3) lam^{3/2} on the grid
        for lam in (1.0, 2.0, 0.5):
            prof = nk.SechProfile(amplitude=lam, exponent=2.0, lam=lam)
            mass = grid_mass(prof.sample(grid40))
            assert mass == pytest.approx((8.0 / 3.0) * lam ** 1.5, rel=1e-12)
        # then the matching (target, lam) pair
        lam = nk.lambda_for_mass(8.0 / 3.0, 1.0, 1.0, grid40)
        assert lam == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_target(self, grid40):
        lams = [nk.lambda_for_mass(t, 1.0, 1.0, grid40)
                for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("target", [0.0, -1.0])
    def test_rejects_nonpositive_target(self, grid40, target):
        with pytest.raises(nk.ValidationError):
            nk.lambda_for_mass(target, 1.0, 1.0, grid40)

    def test_truncated_profile_takes_full_bracket(self, grid40,
                                                  monkeypatch):
        # the root-find starts next to the real-line width; a profile
        # wider than the box has less mass on the grid than on the line,
        # so that bracket misses and the full one is searched.  No point,
        # bracket ends included, is evaluated twice, and lam is the root
        # Brent's method finds on the mass function without that memo
        lams, brackets = [], []
        mass = exact._grid_mass

        def recorded_mass(lam, *args):
            lams.append(lam)
            return mass(lam, *args)

        def recorded(f, lo, hi, **kwargs):
            brackets.append((lo, hi))
            return brentq(f, lo, hi, **kwargs)
        monkeypatch.setattr(exact, "_grid_mass", recorded_mass)
        monkeypatch.setattr(exact, "brentq", recorded)
        grid = nk.make_grid(8.0, 128)
        for target, g in ((8.0 / 3.0, grid40), (0.05, grid)):
            lams.clear()
            lam = nk.lambda_for_mass(target, 1.0, 1.0, g)
            assert len(lams) == len(set(lams))
            want = np.exp(brentq(
                lambda ll: mass(np.exp(ll), 1.0, 1.0, g) - target,
                *brackets[-1], xtol=1e-14, rtol=8.9e-16))
            assert lam == want
        assert brackets[0][1] - brackets[0][0] <= 1e-6
        full = (math.log(1e-12), math.log(1e12))
        assert brackets[1:] == [full]
        # the profile is cut off well above its tail
        prof = nk.SechProfile(amplitude=lam, exponent=2.0, lam=lam)
        assert prof.evaluate(grid.x[:1])[0] >= 0.1 * lam
        assert grid_mass(prof.sample(grid)) == pytest.approx(0.05, rel=1e-14)

    def test_rejects_unbracketable_target(self, grid40):
        with pytest.raises(nk.ValidationError):
            nk.lambda_for_mass(1e40, 1.0, 1.0, grid40)


class TestKdvGround:
    def test_profile_and_residual(self, grid40):
        # tau2 = 6 gives beta2 = 2, so the c = 1 profile is (1/2) sech^2(x/2)
        prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=6.0, p=1, q=1.0)
        psi = nk.kdv_ground(2.0 / 3.0, prm, grid40)
        assert np.max(np.abs(psi.values - 0.5 * sech(grid40.x / 2) ** 2)) \
            < 1e-12
        c = 1.0
        res = (-deriv(psi, 2).values + c * psi.values
               - 3.0 * psi.values ** 2)
        assert np.sqrt(grid40.dx * np.sum(res ** 2)) <= 1e-10

    def test_mass_and_shape(self, grid40, prm_kdv):
        for t in (0.4, 1.0, 3.0):
            psi = nk.kdv_ground(t, prm_kdv, grid40)
            assert grid_mass(psi) == pytest.approx(t, abs=1e-10)
            assert np.all(psi.values > 0)
            half = psi.values[grid40.n // 2:]
            assert np.all(np.diff(half) <= 0)
            sym = psi.values[(-np.arange(grid40.n)) % grid40.n]
            assert np.max(np.abs(psi.values - sym)) <= 1e-14

    def test_fixed_point_of_rearrangement(self, grid40, prm_kdv):
        psi = nk.kdv_ground(1.0, prm_kdv, grid40)
        star = nk.decreasing_rearrangement(psi)
        assert np.max(np.abs(star.values - psi.values)) <= 1e-14

    def test_action_negative(self, grid40, prm_kdv):
        for t in (0.3, 1.0, 2.5):
            psi = nk.kdv_ground(t, prm_kdv, grid40)
            assert nk.kdv_action(psi, prm_kdv) < 0.0

    def test_fractional_power(self, grid40):
        prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=2.0, p="7/5", q=1.0)
        psi = nk.kdv_ground(6.0, prm, grid40)
        assert grid_mass(psi) == pytest.approx(6.0, abs=1e-9)
        lam = nk.kdv_profile(6.0, prm, grid40).lam
        pf = prm.p_float
        res = (-2.0 * deriv(psi, 2).values
               - (pf + 2) * prm.beta2 * psi.values ** (pf + 1)
               + 2.0 * lam * psi.values)
        assert np.sqrt(grid40.dx * np.sum(res ** 2)) <= 1e-9


class TestNlsGround:
    def test_cubic_profile(self, grid40, prm_nls):
        phi = nk.nls_ground(4.0, prm_nls, grid40)
        assert np.max(np.abs(phi.values - np.sqrt(2) * sech(grid40.x))) \
            < 1e-12
        # stationarity: -phi'' + phi = phi^3
        res = -deriv(phi, 2).values + phi.values - phi.values ** 3
        assert np.sqrt(grid40.dx * np.sum(res ** 2)) <= 1e-9

    def test_lambda_recovered(self, grid40, prm_nls):
        prof = nk.nls_profile(4.0, prm_nls, grid40)
        assert prof.lam == pytest.approx(1.0, abs=1e-8)

    def test_beta1_zero_rejected(self, grid40):
        prm = nk.PhysParams(alpha=1.0, tau1=0.0, tau2=1.0, p=1, q=2.0)
        with pytest.raises(nk.UnattainedInfimumError):
            nk.nls_ground(1.0, prm, grid40)

    def test_residual_general_q(self, grid40):
        prm = nk.PhysParams(alpha=0.0, tau1=2.0, tau2=1.0, p=1, q=1.5)
        phi = nk.nls_ground(2.0, prm, grid40)
        lam = nk.nls_profile(2.0, prm, grid40).lam
        res = (-2.0 * deriv(phi, 2).values
               - (prm.q + 2) * prm.beta1 * phi.values ** (prm.q + 1)
               + 2.0 * lam * phi.values)
        assert np.sqrt(grid40.dx * np.sum(res ** 2)) <= 1e-9
        assert grid_mass(phi) == pytest.approx(2.0, abs=1e-10)


class TestSechProfile:
    def test_rejects_bad_parameters(self):
        with pytest.raises(nk.ValidationError):
            nk.SechProfile(amplitude=-1.0, exponent=2.0, lam=1.0)
        with pytest.raises(nk.ValidationError):
            nk.SechProfile(amplitude=1.0, exponent=2.0, lam=0.0)
