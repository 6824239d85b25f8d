import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import nlskdv as nk
from nlskdv.grid import shift_values

from conftest import sech

GOLDEN = Path(__file__).parent / "data" / "evolve_golden.json"


@pytest.fixture(scope="module")
def kdv_soliton(grid40):
    prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=6.0, p=1, q=1.0)
    pair, _ = nk.minimize_I(0.0, 2.0 / 3.0, prm, grid40)
    return pair, prm


@pytest.fixture(scope="module")
def nls_soliton(grid40):
    prm = nk.PhysParams(alpha=0.0, tau1=1.0, tau2=1.0, p=1, q=2.0)
    pair, _ = nk.minimize_I(4.0, 0.0, prm, grid40)
    return pair, prm


class TestSolitaryInitial:
    def test_zero_speed(self, nls_soliton):
        pair, prm = nls_soliton
        st = nk.solitary_initial(pair, 0.0, prm=prm)
        assert np.array_equal(st.u.values, pair.phi.values)
        assert np.array_equal(st.v.values, pair.psi.values)

    def test_momentum_twist(self, coupled_pair_30, prm_coupled):
        pair, _, grid = coupled_pair_30
        c = 0.8
        st = nk.solitary_initial(pair, c, prm=prm_coupled)
        assert nk.charge(st.u) == pytest.approx(pair.s, abs=1e-10)
        t_psi = grid.dx * np.sum(pair.psi.values ** 2)
        expect = t_psi - (c / 2.0) * pair.s
        assert nk.momentum(st.u, st.v) == pytest.approx(expect, abs=1e-10)


class TestStep:
    def test_dt_guidance_enforced(self, kdv_soliton):
        pair, prm = kdv_soliton
        st = nk.solitary_initial(pair, 1.0, prm=prm)
        bound = nk.stable_dt_bound(st)
        assert bound > 0.0
        with pytest.raises(nk.ValidationError):
            nk.step(st, 2.5 * bound)

    def test_linear_flow_unitary_per_mode(self):
        # no self-interactions and zero long wave: the short wave evolves
        # by the exact dispersive phases, so mode moduli are conserved
        g = nk.make_grid(40.0, 256)
        prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=1.0, p=1, q=1.0)
        rng = np.random.default_rng(3)
        spec = ((rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
                * np.exp(-np.abs(np.fft.fftfreq(g.n) * g.n) / 20.0))
        u0 = nk.ComplexField(g, np.fft.ifft(spec))
        st = nk.EvolveState(u=u0, v=nk.RealField(g, np.zeros(g.n)),
                            time=0.0, prm=prm)
        for _ in range(40):
            st = nk.step(st, 1e-2)
        m0 = np.abs(np.fft.fft(u0.values))
        m1 = np.abs(np.fft.fft(st.u.values))
        assert np.max(np.abs(m1 - m0)) <= 1e-13
        assert abs(nk.charge(st.u) - nk.charge(u0)) <= 1e-14

    def test_one_stepper_step(self, coupled_pair_30, prm_coupled,
                              monkeypatch):
        # step takes no samples, and equals a one-step evolve bit for bit
        pair, _, _ = coupled_pair_30
        st, _, _ = nk.perturbed_solitary_initial(pair, 0.02, seed=3,
                                                 prm=prm_coupled)
        want = nk.evolve(st, 1e-2, 1e-2).final_state
        calls = []
        evolve_mod = importlib.import_module("nlskdv.evolve")
        triple = evolve_mod.conserved_triple
        monkeypatch.setattr(evolve_mod, "conserved_triple",
                            lambda *a: calls.append(a) or triple(*a))
        got = nk.step(st, 1e-2)
        assert calls == []
        assert np.array_equal(got.u.values, want.u.values)
        assert np.array_equal(got.v.values, want.v.values)
        assert got.time == want.time

    def test_blowup_detection(self):
        g = nk.make_grid(40.0, 256)
        prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=6.0, p=1, q=1.0)
        # a large background advection rate that cannot disperse away,
        # stepped in the tolerated-but-unstable band above the guidance
        v0 = nk.RealField(
            g, 60.0 + 0.5 * np.cos(20 * np.pi * g.x / g.half_length))
        st = nk.EvolveState(u=nk.ComplexField(g, np.zeros(g.n, complex)),
                            v=v0, time=0.0, prm=prm)
        dt = 1.9 * nk.stable_dt_bound(st)
        with pytest.raises(nk.BlowUpError) as err:
            nk.evolve(st, 3000 * dt, dt, sample_every=100)
        assert err.value.trace is not None
        assert err.value.last_state is not None
        assert np.all(np.isfinite(err.value.last_state.v.values))


class TestTravelingWaves:
    def test_kdv_translation(self, kdv_soliton, grid40):
        pair, prm = kdv_soliton
        st = nk.solitary_initial(pair, 1.0, prm=prm)
        tr = nk.evolve(st, 2.0, 1e-3, sample_every=2000)
        exact = shift_values(pair.psi.values, grid40, -2.0)
        assert np.max(np.abs(tr.final_state.v.values - exact)) <= 1e-8

    def test_nls_phase_rotation(self, nls_soliton, grid40):
        pair, prm = nls_soliton
        st = nk.solitary_initial(pair, 0.0, prm=prm)
        tr = nk.evolve(st, 2.0, 1e-3, sample_every=2000)
        uT = tr.final_state.u.values
        assert np.max(np.abs(np.abs(uT) - np.real(pair.phi.values))) <= 1e-8
        predicted = np.exp(1j * pair.sigma * 2.0) * pair.phi.values
        assert np.max(np.abs(uT - predicted)) <= 1e-7

    def test_unperturbed_wave_stays_on_orbit(self, coupled_pair_30,
                                             prm_coupled):
        pair, _, _ = coupled_pair_30
        st = nk.solitary_initial(pair, pair.c, prm=prm_coupled)
        tr = nk.evolve(st, 2.0, 2e-3, sample_every=200, reference=pair)
        assert float(np.max(tr.distance)) <= 1e-6

    def test_time_reversal(self, coupled_pair_30, prm_coupled):
        pair, _, grid = coupled_pair_30
        st, _, _ = nk.perturbed_solitary_initial(pair, 0.02, seed=5,
                                                 prm=prm_coupled)
        fwd = nk.evolve(st, 1.0, 1e-3, sample_every=1000)
        back = nk.evolve(fwd.final_state, 1.0, -1e-3, sample_every=1000)
        err = nk.y_norm(back.final_state.u.values - st.u.values,
                        back.final_state.v.values - st.v.values, grid)
        assert err <= 1e-7


class TestGeneralPowersEvolve:
    def test_fractional_p_conserves(self):
        # exploratory regime above the proven stability range still
        # conserves the invariants of the discretized flow
        grid = nk.make_grid(30.0, 768)
        prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=2.0, p="7/5", q=2.5)
        pair, _ = nk.minimize_I(1.0, 1.0, prm, grid)
        st = nk.solitary_initial(pair, pair.c, prm=prm)
        tr = nk.evolve(st, 1.0, 1e-3, sample_every=500, reference=pair)
        assert tr.rel_drift("E") <= 1e-10
        assert tr.rel_drift("G") <= 1e-10
        assert np.max(tr.distance) <= 1e-5

    def test_distance_with_zero_long_wave_reference(self, nls_soliton):
        pair, prm = nls_soliton
        st = nk.solitary_initial(pair, 0.0, prm=prm)
        assert nk.orbital_distance(st, pair) <= 1e-10


class TestEvolveTrace:
    def test_zero_data_stays_zero(self, prm_coupled):
        g = nk.make_grid(40.0, 256)
        st = nk.EvolveState(u=nk.ComplexField(g, np.zeros(g.n, complex)),
                            v=nk.RealField(g, np.zeros(g.n)), time=0.0,
                            prm=prm_coupled)
        tr = nk.evolve(st, 1.0, 1e-2, sample_every=10)
        assert np.all(tr.E == 0.0) and np.all(tr.G == 0.0) \
            and np.all(tr.H == 0.0)
        assert np.max(np.abs(tr.final_state.u.values)) == 0.0

    def test_times_increasing_and_drift(self, coupled_pair_30,
                                        prm_coupled):
        pair, _, grid = coupled_pair_30
        st, _, _ = nk.perturbed_solitary_initial(pair, 0.02, seed=6,
                                                 prm=prm_coupled)
        tr = nk.evolve(st, 1.0, 2e-3, sample_every=100)
        assert np.all(np.diff(tr.times) > 0)
        assert tr.rel_drift("H") <= 1e-10
        assert tr.rel_drift("G") <= 1e-10
        assert tr.rel_drift("E") <= 1e-9

    def test_sample_every_validated(self, coupled_pair_30, prm_coupled):
        # an integer >= 1: 2.5 would record every third step and write 2.5
        # to the trace
        pair, _, _ = coupled_pair_30
        st = nk.solitary_initial(pair, 0.0, prm=prm_coupled)
        for every in (0, -1, 2.5, True, "3"):
            with pytest.raises(nk.ValidationError, match="sample_every"):
                nk.evolve(st, 1.0, 1e-3, sample_every=every)

    @pytest.mark.parametrize("T,dt", [(1.0, 0.064), (0.5, 3e-3)])
    def test_duration_whole_steps(self, coupled_pair_30, prm_coupled, T,
                                  dt):
        # a run ends at T or is refused; round(T/dt) steps would end at
        # 1.024 and 0.501
        pair, _, _ = coupled_pair_30
        st = nk.solitary_initial(pair, 0.0, prm=prm_coupled)
        with pytest.raises(nk.ValidationError, match="whole number"):
            nk.evolve(st, T, dt)

    def test_step_count_must_be_finite(self, coupled_pair_30, prm_coupled):
        # 1 / 1e-320 overflows to an infinite step count
        pair, _, _ = coupled_pair_30
        st = nk.solitary_initial(pair, 0.0, prm=prm_coupled)
        with pytest.raises(nk.ValidationError, match=r"T/dt = inf"):
            nk.evolve(st, 1.0, 1e-320)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_duration_must_be_finite(self, coupled_pair_30, prm_coupled, T):
        pair, _, _ = coupled_pair_30
        st = nk.solitary_initial(pair, 0.0, prm=prm_coupled)
        with pytest.raises(nk.ValidationError, match="finite"):
            nk.evolve(st, T, 1e-3)

    def test_negative_duration_needs_negative_dt(self, grid_small,
                                                 prm_coupled):
        # |T|/|dt| steps of a positive dt would end at -T
        g = grid_small
        st = nk.EvolveState(u=nk.ComplexField(g, sech(g.x).astype(complex)),
                            v=nk.RealField(g, 0.5 * sech(g.x) ** 2),
                            time=0.0, prm=prm_coupled)
        with pytest.raises(nk.ValidationError, match="sign"):
            nk.evolve(st, -0.1, 0.01)
        for T in (-0.1, 0.1):  # both run backward to t = -0.1
            tr = nk.evolve(st, T, -0.01)
            assert tr.final_state.time == pytest.approx(-0.1, abs=1e-15)


class TestOrbitalDistance:
    def test_zero_at_reference(self, coupled_pair_30, prm_coupled):
        pair, _, _ = coupled_pair_30
        st = nk.solitary_initial(pair, pair.c, prm=prm_coupled)
        assert nk.orbital_distance(st, pair) <= 1e-10

    def test_incommensurate_shift(self, coupled_pair_30, prm_coupled):
        pair, _, grid = coupled_pair_30
        st = nk.solitary_initial(pair, pair.c, prm=prm_coupled)
        us = shift_values(st.u.values, grid, 7.3)
        vs = shift_values(st.v.values, grid, 7.3)
        shifted = nk.EvolveState(u=nk.ComplexField(grid, us),
                                 v=nk.RealField(grid, vs), time=0.0,
                                 prm=prm_coupled)
        assert nk.orbital_distance(shifted, pair) <= 1e-6

    def test_phase_rotation_ignored(self, coupled_pair_30, prm_coupled):
        pair, _, grid = coupled_pair_30
        st = nk.solitary_initial(pair, pair.c, prm=prm_coupled)
        rot = nk.EvolveState(u=nk.ComplexField(grid,
                                               np.exp(1.3j) * st.u.values),
                             v=st.v, time=0.0, prm=prm_coupled)
        assert nk.orbital_distance(rot, pair) <= 1e-10

    def test_orthogonal_perturbation_size(self, coupled_pair_30,
                                          prm_coupled):
        # a perturbation orthogonal to the orbit tangents is measured at
        # its own norm, within a few percent
        pair, _, grid = coupled_pair_30
        st = nk.solitary_initial(pair, pair.c, prm=prm_coupled)
        Phi, psi = st.u.values, st.v.values

        def h1_inner(au, av, bu, bv):
            w = 1.0 + grid.wavenumbers ** 2
            sc = grid.dx / grid.n
            return float(np.real(
                sc * np.sum(w * np.fft.fft(au) * np.conj(np.fft.fft(bu)))
                + sc * np.sum(w * np.fft.fft(av)
                              * np.conj(np.fft.fft(bv)))))

        rng = np.random.default_rng(12)
        eta_u = np.exp(-grid.x ** 2 / 15) * (
            rng.standard_normal(grid.n) * 0.0
            + np.cos(3 * np.pi * grid.x / grid.half_length)
            + 1j * np.sin(2 * np.pi * grid.x / grid.half_length))
        eta_v = np.exp(-grid.x ** 2 / 15) \
            * np.cos(5 * np.pi * grid.x / grid.half_length)
        # project off the translation and phase tangents
        tangents = [(np.gradient(Phi, grid.dx), np.gradient(psi, grid.dx)),
                    (1j * Phi, np.zeros_like(psi))]
        for tu, tv in tangents:
            nrm2 = h1_inner(tu, tv, tu, tv)
            coef = h1_inner(eta_u, eta_v, tu, tv) / nrm2
            eta_u = eta_u - coef * tu
            eta_v = eta_v - coef * tv
        eps = 0.01 / nk.y_norm(eta_u, eta_v, grid)
        eta_u *= eps
        eta_v *= eps
        st2 = nk.EvolveState(u=nk.ComplexField(grid, Phi + eta_u),
                             v=nk.RealField(grid, psi + eta_v), time=0.0,
                             prm=prm_coupled)
        d = nk.orbital_distance(st2, pair)
        assert d == pytest.approx(0.01, rel=0.05)

    def test_grid_mismatch(self, coupled_pair_30, prm_coupled):
        pair, _, _ = coupled_pair_30
        g2 = nk.make_grid(40.0, 256)
        st = nk.EvolveState(u=nk.ComplexField(g2, np.zeros(g2.n, complex)),
                            v=nk.RealField(g2, np.zeros(g2.n)), time=0.0,
                            prm=prm_coupled)
        with pytest.raises(nk.GridMismatchError):
            nk.orbital_distance(st, pair)


class TestPerturbedInitial:
    def test_mass_projection(self, coupled_pair_30, prm_coupled):
        pair, _, grid = coupled_pair_30
        st, eps_abs, ref = nk.perturbed_solitary_initial(
            pair, 0.03, seed=1, prm=prm_coupled)
        assert nk.charge(st.u) == pytest.approx(nk.charge(ref.u), rel=1e-12)
        assert eps_abs > 0.0
        # realized size stays close to the requested relative size
        ref_norm = nk.y_norm(ref.u.values, ref.v.values, grid)
        assert eps_abs == pytest.approx(0.03 * ref_norm, rel=0.5)

    @pytest.mark.parametrize("rel_eps", [-0.02, math.nan, math.inf])
    def test_rel_eps_validated(self, coupled_pair_30, prm_coupled, rel_eps):
        # a negative or NaN size used to return the unperturbed wave
        pair, _, _ = coupled_pair_30
        with pytest.raises(nk.ValidationError, match="rel_eps"):
            nk.perturbed_solitary_initial(pair, rel_eps, seed=1,
                                          prm=prm_coupled)

    def test_seed_reproducible(self, coupled_pair_30, prm_coupled):
        pair, _, _ = coupled_pair_30
        st1, e1, _ = nk.perturbed_solitary_initial(pair, 0.02, seed=7,
                                                   prm=prm_coupled)
        st2, e2, _ = nk.perturbed_solitary_initial(pair, 0.02, seed=7,
                                                   prm=prm_coupled)
        assert np.array_equal(st1.u.values, st2.u.values)
        assert e1 == e2

    @pytest.mark.parametrize("wavespeed", [None, 0.3])
    def test_zero_size_is_the_reference(self, coupled_pair_30, prm_coupled,
                                        wavespeed):
        # rel_eps = 0 returns solitary_initial's samples, so one start
        # serves every epsilon
        pair, _, _ = coupled_pair_30
        st, eps_abs, _ = nk.perturbed_solitary_initial(
            pair, 0.0, seed=7, prm=prm_coupled, wavespeed=wavespeed)
        c = pair.c if wavespeed is None else wavespeed
        ref = nk.solitary_initial(pair, c, prm=prm_coupled)
        assert np.array_equal(st.u.values, ref.u.values)
        assert np.array_equal(st.v.values, ref.v.values)
        assert eps_abs == 0.0


def _golden_reference(grid, wavespeed):
    """Closed-form reference pair of the golden runs (no solver involved)."""
    nan = float("nan")
    return nk.SolitaryWavePair(
        phi=nk.ComplexField(grid, (1.0 / np.cosh(grid.x)).astype(complex)),
        psi=nk.RealField(grid, 0.8 / np.cosh(0.7 * grid.x) ** 2),
        sigma=nan, c=wavespeed, s=nan, t=nan, energy_value=nan,
        el_residual_phi=nan, el_residual_psi=nan, boundary_leak=nan)


def _golden_start(gold, case):
    grid = nk.make_grid(gold["L"], gold["n"])
    pair = _golden_reference(grid, gold["wavespeed"])
    prm = nk.PhysParams(**case["params"])
    st, _, _ = nk.perturbed_solitary_initial(pair, case["rel_eps"],
                                             seed=case["seed"], prm=prm)
    return st, pair


class TestGoldenTrajectory:
    """Seeded perturbed waves at n=256 against stored trajectories.

    tests/data/evolve_golden.json was recorded with the earlier stepper,
    which transformed u and v in separate calls (a real transform for
    v) and kept the Nyquist entry of the k^3 symbol.  The stacked
    stepper changes only the rounding, so every series and the final
    samples agree to 1e-12 of their size, once the recorded v is
    cleared of the Nyquist rotation (see test_matches_golden).
    """

    @pytest.mark.parametrize("name", ["p1-q1", "p7_5-q5_2"])
    def test_matches_golden(self, name):
        gold = json.loads(GOLDEN.read_text())
        case = gold["cases"][name]
        st, pair = _golden_start(gold, case)
        T = gold["steps"] * gold["dt"]
        tr = nk.evolve(st, T, gold["dt"],
                       sample_every=gold["sample_every"], reference=pair)
        stride = gold["state_stride"]
        got = {"times": tr.times, "E": tr.E, "G": tr.G, "H": tr.H,
               "distance": tr.distance,
               "u": tr.final_state.u.values[::stride],
               "v": tr.final_state.v.values[::stride]}
        # The recording stepper turned v's Nyquist coefficient N0 (real
        # at the start, untouched by the dealiased nonlinearity) by
        # exp(i k_N^3 T), and the real field kept Re(N0 exp(i k_N^3 T));
        # the stepper built on Grid1D.deriv_symbol leaves N0 in place.
        # At an even stride the mode (-1)^j / n is a constant, so the
        # recorded v carries (Re(N0 exp(i k_N^3 T)) - N0) / n on top.
        n = st.grid.n
        assert stride % 2 == 0
        n0 = np.fft.fft(st.v.values)[n // 2].real
        k_nyq = st.grid.wavenumbers[n // 2]
        turned = (n0 * np.exp(1j * k_nyq ** 3 * T)).real
        wants = dict(case, u=np.array(case["u_re"])
                     + 1j * np.array(case["u_im"]),
                     v=np.array(case["v"]) - (turned - n0) / n)
        for key, series in got.items():
            want = np.asarray(wants[key])
            assert series.shape == want.shape, key
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(series - want)) <= 1e-12 * scale, key

    @pytest.mark.parametrize("name,zero_nyquist", [
        pytest.param("p1-q1", True, id="p1-q1"),
        pytest.param("p7_5-q5_2", True, id="p7_5-q5_2"),
        pytest.param("p1-q1", False, id="p1-q1-nyquist"),
        pytest.param("p7_5-q5_2", False, id="p7_5-q5_2-nyquist"),
    ])
    def test_backward_then_forward_step(self, name, zero_nyquist):
        # at dt=1e-4 the O(dt^5) defect of RK4 is below rounding.  The
        # zeroed Nyquist entry of the k^3 symbol keeps v's Nyquist mode
        # real, so v returns whether or not that mode is zeroed first
        gold = json.loads(GOLDEN.read_text())
        st, _ = _golden_start(gold, gold["cases"][name])
        if zero_nyquist:
            vh = np.fft.rfft(st.v.values)
            vh[-1] = 0.0
            st = nk.EvolveState(
                u=st.u, v=nk.RealField(st.grid, np.fft.irfft(vh, st.grid.n)),
                time=0.0, prm=st.prm)
        else:
            assert abs(np.fft.rfft(st.v.values)[-1]) > 1e-9
        back = nk.step(nk.step(st, -1e-4), 1e-4)
        for a, b in ((back.u.values, st.u.values),
                     (back.v.values, st.v.values)):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
        assert back.time == pytest.approx(0.0, abs=1e-18)
