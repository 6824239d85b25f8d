from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

import nlskdv as nk
from nlskdv.evolve import _Orbit, y_norm
from nlskdv.functionals import (_potential_sum, energy_values,
                                gradient_values, nonlinearity,
                                parse_odd_denominator)

from conftest import complex_field, oracle_integral, real_field, sech


class TestPhysParams:
    def test_beta_derivation(self):
        prm = nk.PhysParams(alpha=1.0, tau1=3.0, tau2=6.0, p=1, q=2.0)
        assert prm.beta1 == 2 * 3.0 / 4.0
        assert prm.beta2 == 2 * 6.0 / (2 * 3)
        # recomputing from stored constants reproduces them exactly
        assert prm.beta1 == 2 * prm.tau1 / (prm.q + 2)
        assert prm.beta2 == 2 * prm.tau2 / ((prm.p_float + 1) * (prm.p_float + 2))

    def test_fractional_p(self):
        prm = nk.PhysParams(alpha=0.5, tau1=1.0, tau2=1.0, p="7/5", q=1.5)
        assert prm.p == Fraction(7, 5)
        assert prm.stability_regime() is False
        prm2 = nk.PhysParams(alpha=0.5, tau1=1.0, tau2=1.0,
                             p=Fraction(6, 5), q=1.5)
        assert prm2.p == Fraction(6, 5)
        assert prm2.stability_regime() is True

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=-1.0, tau1=1.0, tau2=1.0, p=1, q=1.0),
        dict(alpha=1.0, tau1=-0.5, tau2=1.0, p=1, q=1.0),
        dict(alpha=1.0, tau1=1.0, tau2=0.0, p=1, q=1.0),
        dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=0.5),
        dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=4.0),
        dict(alpha=1.0, tau1=1.0, tau2=1.0, p="1/2", q=1.0),
        dict(alpha=1.0, tau1=1.0, tau2=1.0, p=5, q=1.0),
        dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1.0, q=1.0),  # float p
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(nk.ValidationError):
            nk.PhysParams(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "tau1", "tau2"])
    def test_rejects_infinite(self, name):
        kwargs = dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)
        kwargs[name] = float("inf")
        with pytest.raises(nk.ValidationError, match=name):
            nk.PhysParams(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "tau1", "tau2", "q"])
    @pytest.mark.parametrize("value", ["2", True, 2.0 + 0j, None],
                             ids=["str", "bool", "complex", "none"])
    def test_rejects_non_real(self, name, value):
        # typed like MinimizeOptions: ValidationError, not a bare TypeError
        kwargs = dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)
        kwargs[name] = value
        with pytest.raises(nk.ValidationError, match=name):
            nk.PhysParams(**kwargs)

    def test_to_dict(self):
        prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p="7/5", q=1.0)
        d = prm.to_dict()
        assert d["p"] == "7/5"


class TestSignedPower:
    def test_truth_table(self):
        # odd numerator keeps the sign, even numerator drops it
        v = np.array([-8.0, 8.0, 0.0])
        assert np.allclose(nk.signed_power(v, Fraction(1, 3)), [-2, 2, 0])
        assert np.allclose(nk.signed_power(v, Fraction(2, 3)), [4, 4, 0])
        assert np.allclose(nk.signed_power(v, Fraction(3, 1)), [-512, 512, 0])

    def test_rejects_even_denominator(self):
        with pytest.raises(nk.ValidationError):
            nk.signed_power(np.array([1.0]), Fraction(1, 2))

    @given(x=st.floats(0.01, 50))
    def test_matches_plain_power_on_positives(self, x):
        p = Fraction(7, 5)
        assert nk.signed_power(np.array([x]), p)[0] == pytest.approx(
            x ** float(p), rel=1e-14)

    @pytest.mark.parametrize("power", [Fraction(2), Fraction(3),
                                       Fraction(12, 5)])
    @given(mags=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=40),
           signs=st.lists(st.booleans(), min_size=40, max_size=40))
    def test_matches_fraction_truth_table(self, power, mags, signs):
        # integer powers take the plain-product path, 12/5 the |v| path;
        # both must follow the table on negative entries
        vals = np.array([-m if neg else m for m, neg in zip(mags, signs)])
        vals[0] = -abs(vals[0])
        odd = power.numerator % 2 == 1
        expect = np.array([(-1.0 if (x < 0 and odd) else 1.0)
                           * abs(x) ** float(power) for x in vals])
        np.testing.assert_allclose(nk.signed_power(vals, power), expect,
                                   rtol=1e-15, atol=0.0)

    def test_parse_odd_denominator(self):
        assert parse_odd_denominator("3/5") == Fraction(3, 5)
        assert parse_odd_denominator(2) == Fraction(2)
        with pytest.raises(nk.ValidationError):
            parse_odd_denominator(1.5)
        with pytest.raises(nk.ValidationError):
            parse_odd_denominator("-1/3")


class TestNonlinearity:
    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(7, 5)])
    @given(data=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3 * 24))
    def test_matches_formula(self, p, q, data):
        # N = (tau1 |u|^q u + alpha u v, tau2/(p+1) v^(p+1) + alpha/2 |u|^2)
        # to 1e-15 of the size of its terms, fast paths included
        m = len(data) // 3
        a = np.array(data[:3 * m]).reshape(3, m)
        u, v = a[0] + 1j * a[1], a[2]
        prm = nk.PhysParams(alpha=0.7, tau1=1.3, tau2=2.0, p=p, q=q)
        nu, nv = nonlinearity(u, v, prm)
        t1 = prm.tau1 * np.abs(u) ** q * u
        t2 = prm.alpha * u * v
        t3 = (prm.tau2 / (float(p) + 1) * np.sign(v) ** (p + 1).numerator
              * np.abs(v) ** float(p + 1))
        t4 = prm.alpha / 2 * np.abs(u) ** 2
        for got, x, y in ((nu, t1, t2), (nv, t3, t4)):
            scale = max(float(np.max(np.abs(x) + np.abs(y))), 1e-300)
            assert np.max(np.abs(got - (x + y))) <= 1e-15 * scale

    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("q", [1.0, 2.5])
    @pytest.mark.parametrize("p", [Fraction(1), Fraction(7, 5)])
    def test_out_buffer_bit_identical(self, p, q, kind):
        # N written into a (2, n) buffer equals the tuple form bit for
        # bit, signed zeros and negative v included; a complex buffer
        # holds N_v in its real part
        rng = np.random.default_rng(5)
        u = rng.normal(size=64).astype(kind)
        if kind is complex:
            u += 1j * rng.normal(size=64)
        v = rng.normal(size=64)
        u[:3], v[3:6] = 0.0, [0.0, -0.0, -1.0]
        prm = nk.PhysParams(alpha=0.7, tau1=1.3, tau2=2.0, p=p, q=q)
        nu, nv = nonlinearity(u, v, prm)
        out = np.full((2, 64), np.nan, dtype=kind)
        assert nonlinearity(u, v, prm, out) is out
        assert out[0].tobytes() == nu.tobytes()
        assert out[1].real.tobytes() == nv.tobytes()
        assert not np.any(out[1].imag)


class TestPotentialSum:
    @given(data=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3 * 24),
           p=st.sampled_from([Fraction(1), Fraction(7, 5), Fraction(9, 7)]),
           q=st.floats(1.0, 4.0, exclude_max=True),
           tau1=st.sampled_from([0.0, 1.3]),
           alpha=st.sampled_from([0.0, 0.7]))
    def test_matches_densities(self, data, p, q, tau1, alpha):
        # the potential read off N equals the three densities
        # beta1 |u|^(q+2) + beta2 v^(p+2) + alpha |u|^2 v summed directly
        m = len(data) // 3
        a = np.array(data[:3 * m]).reshape(3, m)
        u, v = a[0] + 1j * a[1], a[2]
        prm = nk.PhysParams(alpha=alpha, tau1=tau1, tau2=2.0, p=p, q=q)
        got = _potential_sum(u, v, *nonlinearity(u, v, prm), prm)
        dens = (prm.beta1 * np.abs(u) ** (q + 2),
                prm.beta2 * np.sign(v) ** (p + 2).numerator
                * np.abs(v) ** float(p + 2),
                prm.alpha * np.abs(u) ** 2 * v)
        scale = max(float(sum(np.abs(d).sum() for d in dens)), 1e-300)
        assert abs(got - float(sum(d.sum() for d in dens))) <= 1e-13 * scale


class TestStackedTransforms:
    # a real pair is one (2, n) stack: one forward and one inverse
    # transform per evaluation, not one pair per field
    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(scipy.fft, name,
                                counting(name, getattr(scipy.fft, name)))
        return calls

    # E takes its derivative terms by Parseval from one forward transform
    # of the stack; the gradient is one symbol application, and a
    # complex u makes the stack complex: one full transform pair
    @pytest.mark.parametrize("fn,phase,calls", [
        pytest.param(energy_values, 1.0, ["fft"], id="energy_values"),
        pytest.param(gradient_values, 1.0, ["rfft", "irfft"],
                     id="gradient_values"),
        pytest.param(energy_values, 1.0 + 0.5j, ["fft"],
                     id="energy_values-complex"),
        pytest.param(gradient_values, 1.0 + 0.5j, ["fft", "ifft"],
                     id="gradient_values-complex"),
    ])
    def test_one_transform_pair(self, grid30, prm_coupled, fft_calls, fn,
                                phase, calls):
        v = np.exp(-grid30.x ** 2 / 4)
        fn(phase * v, 0.5 * v, prm_coupled, grid30)
        assert fft_calls == calls

    def test_descent_calls_per_iteration(self, grid40, prm_coupled,
                                         fft_calls):
        # each trial point is one transform pair (energy and gradient from
        # one spectrum) and the preconditioner one more; separate energy
        # and gradient transforms would cost 7.4 calls per iteration
        _, rep = nk.minimize_I(1.0, 1.0, prm_coupled, grid40)
        assert len(fft_calls) <= 6 * rep.iterations

    def test_solve_certified_by_real_transforms(self, grid30, prm_coupled,
                                                fft_calls):
        # energy, multipliers and residuals come from the descent's own
        # real evaluation of the final profiles, not a full transform of
        # the stored complex phi
        nk.minimize_I(1.0, 1.0, prm_coupled, grid30)
        assert not {"fft", "ifft"} & set(fft_calls)

    # the integrator's diagnostics transform each (u, v) pair as one
    # (2, n) stack, not one field at a time
    def test_conserved_triple_one_transform_pair(self, grid30, prm_coupled,
                                                 fft_calls):
        # E and G share one forward transform of [u; v]
        v = np.exp(-grid30.x ** 2 / 4)
        nk.conserved_triple(nk.ComplexField(grid30, (1.0 + 0.5j) * v),
                            nk.RealField(grid30, 0.5 * v), prm_coupled)
        assert fft_calls == ["fft"]

    def test_momentum_one_transform(self, grid30, fft_calls):
        v = np.exp(-grid30.x ** 2 / 4)
        nk.momentum(nk.ComplexField(grid30, (1.0 + 0.5j) * v),
                    nk.RealField(grid30, 0.5 * v))
        assert fft_calls == ["fft"]

    def test_y_norm_one_transform(self, grid30, fft_calls):
        v = np.exp(-grid30.x ** 2 / 4)
        y_norm((1.0 + 0.5j) * v, 0.5 * v, grid30)
        assert fft_calls == ["fft"]

    def test_orbital_distance_two_transforms(self, coupled_pair_30,
                                             prm_coupled, fft_calls):
        # the state's spectrum and the correlation over all shifts; the
        # reference's spectrum is built once, outside the call
        pair, _, _ = coupled_pair_30
        orbit = _Orbit.of(pair, None, prm_coupled)
        st = nk.solitary_initial(pair, 0.3, prm=prm_coupled)
        fft_calls.clear()
        nk.orbital_distance(st, orbit)
        assert fft_calls == ["fft", "fft"]


class TestParsevalReference:
    # E and G take their derivative terms by Parseval from one spectrum;
    # the reference is the quadrature of the physical spectral derivatives
    @pytest.fixture
    def noisy_pair(self, grid30):
        rng = np.random.default_rng(35)
        bump = np.exp(-grid30.x ** 2 / 6)
        noise = 1e-3 * rng.standard_normal((3, grid30.n))
        u = (1.0 + 0.4j) * bump + noise[0] + 1j * noise[1]
        return (nk.ComplexField(grid30, u),
                nk.RealField(grid30, 0.8 * bump + noise[2]))

    def test_matches_physical_quadrature(self, noisy_pair, prm_coupled):
        u, v = noisy_pair
        prm, dx, n = prm_coupled, u.grid.dx, u.grid.n
        for f in noisy_pair:
            assert abs(scipy.fft.fft(f.values)[n // 2]) > 1e-3
        ux, vx = nk.deriv(u).values, nk.deriv(v).values
        au, vv = np.abs(u.values), v.values
        potential = np.sum(prm.beta1 * au ** 3 + prm.beta2 * vv ** 3
                           + prm.alpha * au ** 2 * vv)
        e_ref = dx * (np.vdot(ux, ux).real + np.dot(vx, vx) - potential)
        g_ref = dx * (np.dot(vv, vv) + np.vdot(ux, u.values).imag)
        e, g = nk.energy(u, v, prm), nk.momentum(u, v)
        assert abs(e - e_ref) <= 1e-13 * abs(e_ref)
        assert abs(g - g_ref) <= 1e-13 * abs(g_ref)
        # one formula each: the triple's E and G are energy's and momentum's
        trip = nk.conserved_triple(u, v, prm)
        assert (trip.E, trip.G, trip.H) == (e, g, nk.charge(u))


class TestEnergy:
    def test_zero_fields(self, grid40, prm_coupled):
        u = nk.ComplexField(grid40, np.zeros(grid40.n, dtype=complex))
        v = nk.RealField(grid40, np.zeros(grid40.n))
        assert nk.energy(u, v, prm_coupled) == 0.0

    def test_kdv_profile_energy(self, grid40):
        # tau2 = 3, p = 1 gives beta2 = 1; the value is the quadrature of
        # v_x^2 - v^3 for v = sech^2(x/2)
        prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=3.0, p=1, q=1.0)
        assert prm.beta2 == 1.0
        expected = (oracle_integral(lambda x: (sech(x / 2) ** 2
                                               * np.tanh(x / 2)) ** 2)
                    - oracle_integral(lambda x: sech(x / 2) ** 6))
        assert expected == pytest.approx(-8.0 / 5.0, abs=1e-10)
        u = nk.ComplexField(grid40, np.zeros(grid40.n, dtype=complex))
        v = real_field(grid40, lambda x: sech(x / 2) ** 2)
        assert nk.energy(u, v, prm) == pytest.approx(-8.0 / 5.0, abs=1e-10)

    def test_scaling_identity(self, grid40, prm_coupled):
        # E of the mass-preserving dilation splits into known powers of theta
        theta = 0.25
        base_u = lambda x: np.exp(-x ** 2 / 2) * (1 + 0.5j)
        base_v = lambda x: np.exp(-x ** 2 / 3)
        u = complex_field(grid40, base_u)
        v = real_field(grid40, base_v)
        u_th = complex_field(grid40,
                             lambda x: np.sqrt(theta) * base_u(theta * x))
        v_th = real_field(grid40,
                          lambda x: np.sqrt(theta) * base_v(theta * x))
        prm = prm_coupled
        q, p = prm.q, prm.p_float
        kin = nk.integrate(nk.RealField(
            grid40, np.abs(nk.deriv(u).values) ** 2 + nk.deriv(v).values ** 2))
        term_q = nk.integrate(nk.RealField(
            grid40, np.abs(u.values) ** (q + 2)))
        term_p = nk.integrate(nk.RealField(grid40, v.values ** (p + 2)))
        term_m = nk.integrate(nk.RealField(
            grid40, np.abs(u.values) ** 2 * v.values))
        predicted = (theta ** 2 * kin
                     - prm.beta1 * theta ** (q / 2) * term_q
                     - prm.beta2 * theta ** (p / 2) * term_p
                     - prm.alpha * np.sqrt(theta) * term_m)
        direct = nk.energy(u_th, v_th, prm)
        assert direct == pytest.approx(predicted, rel=1e-10)

    def test_modulus_never_raises_energy(self, grid30, prm_coupled):
        rng = np.random.default_rng(11)
        for _ in range(10):
            uv = np.exp(-grid30.x ** 2 / 8) * (
                rng.standard_normal(grid30.n)
                + 1j * rng.standard_normal(grid30.n))
            vv = np.exp(-grid30.x ** 2 / 8) * rng.standard_normal(grid30.n)
            u = nk.ComplexField(grid30, uv)
            v = nk.RealField(grid30, vv)
            e = nk.energy(u, v, prm_coupled)
            e_mod = nk.energy(nk.ComplexField(grid30, np.abs(uv) + 0j),
                              nk.RealField(grid30, np.abs(vv)), prm_coupled)
            assert e_mod <= e + 1e-10 * max(1.0, abs(e))


class TestCharge:
    def test_zero(self, grid40):
        u = nk.ComplexField(grid40, np.zeros(grid40.n, dtype=complex))
        assert nk.charge(u) == 0.0

    def test_sech_mass(self, grid40):
        expected = oracle_integral(lambda x: 2 * sech(x) ** 2)
        assert expected == pytest.approx(4.0, abs=1e-10)
        u = complex_field(grid40, lambda x: np.sqrt(2) * sech(x) + 0j)
        assert nk.charge(u) == pytest.approx(4.0, abs=1e-12)

    def test_homogeneity(self, grid30):
        rng = np.random.default_rng(1)
        u = complex_field(grid30, lambda x: np.exp(-x ** 2 / 5)
                          * (rng.standard_normal(x.size)
                             + 1j * rng.standard_normal(x.size)))
        c = 2 + 1j
        cu = nk.ComplexField(grid30, c * u.values)
        assert nk.charge(cu) == pytest.approx(abs(c) ** 2 * nk.charge(u),
                                              rel=1e-12)


class TestMomentum:
    def test_real_u(self, grid40):
        u = complex_field(grid40, lambda x: np.exp(-x ** 2 / 2) + 0j)
        v = real_field(grid40, lambda x: sech(x / 2) ** 2)
        expect = nk.integrate(nk.RealField(grid40, v.values ** 2))
        assert nk.momentum(u, v) == pytest.approx(expect, rel=1e-12)

    def test_plane_wave_twist(self, grid40):
        # G(e^{ikx} h, v) = int v^2 - k int h^2 for real h and resolved k
        L = grid40.half_length
        k = 3 * np.pi / L
        h = np.exp(-grid40.x ** 2 / 4)
        u = nk.ComplexField(grid40, np.exp(1j * k * grid40.x) * h)
        v = real_field(grid40, lambda x: np.exp(-x ** 2 / 6))
        expect = (nk.integrate(nk.RealField(grid40, v.values ** 2))
                  - k * grid40.dx * np.sum(h ** 2))
        assert nk.momentum(u, v) == pytest.approx(expect, abs=1e-12)

    def test_zero_u_sech_v(self, grid40):
        u = nk.ComplexField(grid40, np.zeros(grid40.n, dtype=complex))
        v = real_field(grid40, lambda x: sech(x / 2) ** 2)
        assert nk.momentum(u, v) == pytest.approx(8.0 / 3.0, abs=1e-12)


class TestActions:
    def test_zero(self, grid40, prm_coupled):
        z = nk.RealField(grid40, np.zeros(grid40.n))
        zc = nk.ComplexField(grid40, np.zeros(grid40.n, dtype=complex))
        assert nk.kdv_action(z, prm_coupled) == 0.0
        assert nk.nls_action(zc, prm_coupled) == 0.0

    def test_kdv_action_matches_energy(self, grid40, prm_kdv):
        v = real_field(grid40, lambda x: sech(x / 2) ** 2 * (1 + 0.1 * x ** 2)
                       * np.exp(-x ** 2 / 30))
        u0 = nk.ComplexField(grid40, np.zeros(grid40.n, dtype=complex))
        assert nk.kdv_action(v, prm_kdv) == pytest.approx(
            nk.energy(u0, v, prm_kdv), rel=1e-13)

    def test_kdv_action_value(self, grid40):
        prm = nk.PhysParams(alpha=0.0, tau1=0.0, tau2=3.0, p=1, q=1.0)
        g0 = real_field(grid40, lambda x: sech(x / 2) ** 2)
        assert nk.kdv_action(g0, prm) == pytest.approx(-8.0 / 5.0, abs=1e-10)

    def test_nls_action_matches_energy(self, grid40, prm_nls):
        f = complex_field(grid40, lambda x: (1 + 0.3j) * np.exp(-x ** 2 / 7))
        v0 = nk.RealField(grid40, np.zeros(grid40.n))
        assert nk.nls_action(f, prm_nls) == pytest.approx(
            nk.energy(f, v0, prm_nls), rel=1e-13)

    def test_nls_action_value(self, grid40, prm_nls):
        # oracle: int 2 sech^2 tanh^2 - (1/2) int 4 sech^4 = 4/3 - 8/3
        expected = (oracle_integral(lambda x: 2 * (sech(x) * np.tanh(x)) ** 2)
                    - 0.5 * oracle_integral(lambda x: 4 * sech(x) ** 4))
        assert expected == pytest.approx(-4.0 / 3.0, abs=1e-10)
        f = complex_field(grid40, lambda x: np.sqrt(2) * sech(x) + 0j)
        assert nk.nls_action(f, prm_nls) == pytest.approx(-4.0 / 3.0,
                                                          abs=1e-10)


class TestPhaseShiftIdentities:
    def test_energy_and_momentum_twist(self, grid40, prm_coupled):
        L = grid40.half_length
        k = 5 * np.pi / L
        h = (np.exp(-grid40.x ** 2 / 5)
             * (1.0 + 0.4j * np.cos(2 * np.pi * grid40.x / L)
                + 0.3 * np.sin(6 * np.pi * grid40.x / L)))
        h = nk.ComplexField(grid40, h)
        g = real_field(grid40, lambda x: np.exp(-x ** 2 / 9))
        f = nk.ComplexField(grid40,
                            np.exp(1j * (k * grid40.x + 0.7)) * h.values)
        hx = nk.deriv(h).values
        im_term = float(np.imag(grid40.dx * np.sum(h.values * np.conj(hx))))
        e_pred = (nk.energy(h, g, prm_coupled) + k ** 2 * nk.charge(h)
                  - 2 * k * im_term)
        g_pred = nk.momentum(h, g) - k * nk.charge(h)
        assert nk.energy(f, g, prm_coupled) == pytest.approx(e_pred,
                                                             rel=1e-10)
        assert nk.momentum(f, g) == pytest.approx(g_pred, rel=1e-10)


def test_gagliardo_nirenberg_collapse(grid30, prm_nls):
    # fit the constant on half the sample, then confirm the bound holds on
    # the other half with 10 percent headroom
    from nlskdv.verify import random_nonneg_field
    rng = np.random.default_rng(21)
    q = prm_nls.q
    ratios = []
    for _ in range(200):
        f = random_nonneg_field(grid30, rng)
        vals = f.values
        lq = grid30.dx * np.sum(vals ** (q + 2))
        fx = nk.deriv(f).values
        kin = np.sqrt(grid30.dx * np.sum(fx ** 2))
        mass = np.sqrt(grid30.dx * np.sum(vals ** 2))
        ratios.append(lq / (kin ** (q / 2) * mass ** ((q + 4) / 2)))
    fit_c = max(ratios[:100])
    assert all(r <= 1.1 * fit_c for r in ratios[100:])


def test_grid_mismatch_rejected(grid30, grid40, prm_coupled):
    u = nk.ComplexField(grid30, np.zeros(grid30.n, dtype=complex))
    v = nk.RealField(grid40, np.zeros(grid40.n))
    with pytest.raises(nk.GridMismatchError):
        nk.energy(u, v, prm_coupled)
    with pytest.raises(nk.GridMismatchError):
        nk.momentum(u, v)

