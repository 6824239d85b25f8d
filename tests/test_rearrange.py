import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nlskdv as nk
from nlskdv.rearrange import kinetic, placement_order, rearrange_values
from nlskdv.verify import random_nonneg_field, truncated_bump

from conftest import real_field, sech

nonneg_arrays = hnp.arrays(
    float, st.integers(5, 64),
    elements=st.floats(0, 100, allow_nan=False))


def test_placement_five_points():
    # center first, then right, left, right, ...
    out = rearrange_values(np.array([0.0, 2.0, 0.0, 1.0, 0.0]))
    assert list(out) == [0.0, 0.0, 2.0, 1.0, 0.0]


def test_placement_order_covers_all():
    for n in (5, 8, 9, 16):
        order = placement_order(n)
        assert sorted(order) == list(range(n))
        assert order[0] == n // 2
        assert order[1] == n // 2 + 1  # right-first convention
    assert list(placement_order(8)) == [4, 5, 3, 6, 2, 7, 1, 0]
    assert list(placement_order(9)) == [4, 5, 3, 6, 2, 7, 1, 8, 0]
    for n in range(1, 40):
        # reference: the centre, then alternately right and left of it
        c, ref = n // 2, [n // 2]
        for step in range(1, n):
            ref += [j for j in (c + step, c - step) if 0 <= j < n]
        assert list(placement_order(n)) == ref


def test_fixed_point_on_symmetric_bump(grid40):
    w = real_field(grid40, lambda x: sech(x / 2) ** 2)
    star = nk.decreasing_rearrangement(w)
    assert np.max(np.abs(star.values - w.values)) <= 1e-14


def test_far_bump_recentred(grid40):
    w = real_field(grid40, lambda x: np.exp(-((x - 17.0) / 1.3) ** 2))
    star = nk.decreasing_rearrangement(w)
    assert int(np.argmax(star.values)) == grid40.n // 2
    # multiset identical, hence every Lp sum identical
    assert np.array_equal(np.sort(star.values), np.sort(w.values))


def test_negative_input_rejected(grid40):
    w = nk.RealField(grid40, np.full(grid40.n, -1.0))
    with pytest.raises(nk.ValidationError):
        nk.decreasing_rearrangement(w)


@given(vals=nonneg_arrays)
def test_multiset_preserved(vals):
    out = rearrange_values(vals)
    assert np.array_equal(np.sort(out), np.sort(vals))


@given(vals=nonneg_arrays)
def test_output_unimodal(vals):
    out = rearrange_values(vals)
    n = out.size
    right = out[n // 2:]
    assert np.all(np.diff(right) <= 0)
    left = out[:n // 2]
    assert np.all(np.diff(left) >= 0)


@given(vals=nonneg_arrays)
def test_dirichlet_energy_never_increases(vals):
    class G:  # minimal stand-in with a dx attribute
        dx = 0.5
    assert kinetic(rearrange_values(vals), G) <= kinetic(vals, G) + 1e-9


def test_verify_report_symmetric_pair(grid40):
    f = real_field(grid40, lambda x: sech(x / 2) ** 2)
    rep = nk.verify_rearrangement_inequalities(f, f)
    assert all(rep.lp_preserved.values())
    assert abs(rep.hardy_littlewood_gap) <= 1e-12
    assert abs(rep.polya_szego_gap) <= rep.tol_ps


def test_two_bumps_strict_kinetic_drop(grid40):
    f = nk.RealField(grid40, (np.exp(-((grid40.x + 11) / 1.2) ** 2)
                              + 0.7 * np.exp(-((grid40.x - 8) / 2.0) ** 2)))
    g = nk.RealField(grid40, (np.exp(-((grid40.x + 6) / 1.5) ** 2)
                              + 0.9 * np.exp(-((grid40.x - 13) / 1.1) ** 2)))
    rep = nk.verify_rearrangement_inequalities(f, g)
    assert rep.polya_szego_gap > 0.0


def test_hardy_littlewood_nonnegative_random(grid30):
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = random_nonneg_field(grid30, rng)
        g = random_nonneg_field(grid30, rng)
        rep = nk.verify_rearrangement_inequalities(f, g)
        assert rep.hardy_littlewood_gap >= 0.0


class TestGarrisi:
    def test_equal_bumps(self, grid40):
        u = truncated_bump(grid40, 1.5, 1.0)
        rep = nk.garrisi_check(u, u, grid40.half_length)
        assert rep.garrisi_lhs <= rep.garrisi_rhs + rep.tol_ps
        # strict slack for identical bumps
        assert rep.garrisi_rhs - rep.garrisi_lhs > 0.1 * rep.garrisi_rhs

    def test_small_copy(self, grid40):
        u = truncated_bump(grid40, 1.5, 1.0)
        v = nk.RealField(grid40, 0.2 * u.values)
        rep = nk.garrisi_check(u, v, grid40.half_length)
        ku = kinetic(u.values, grid40)
        kv = kinetic(v.values, grid40)
        kw = kinetic(np.roll(u.values, grid40.n // 4)
                     + np.roll(v.values, -(grid40.n // 4)), grid40)
        assert rep.garrisi_rhs == pytest.approx(kw - 0.75 * min(ku, kv),
                                                rel=1e-12)
        assert rep.garrisi_lhs <= rep.garrisi_rhs + rep.tol_ps

    def test_degenerate_zero_bump(self, grid40):
        u = truncated_bump(grid40, 1.5, 1.0)
        z = nk.RealField(grid40, np.zeros(grid40.n))
        rep = nk.garrisi_check(u, z, grid40.half_length)
        # min kinetic term vanishes; reduces to the plain kinetic comparison
        assert rep.garrisi_rhs == pytest.approx(
            kinetic(np.roll(u.values, grid40.n // 4), grid40), rel=1e-12)
        assert rep.garrisi_lhs <= rep.garrisi_rhs + rep.tol_ps

    def test_overlap_rejected(self, grid40):
        u = truncated_bump(grid40, 4.0, 1.0)
        with pytest.raises(nk.SupportOverlapError):
            nk.garrisi_check(u, u, 0.5)

    def test_parity_violation_rejected(self, grid40):
        u = truncated_bump(grid40, 1.5, 1.0)
        skew = nk.RealField(grid40, np.roll(u.values, 3))
        with pytest.raises(nk.ValidationError):
            nk.garrisi_check(skew, u, grid40.half_length)

    def test_not_decreasing_rejected(self, grid40):
        ring = np.exp(-((np.abs(grid40.x) - 3.0) / 1.0) ** 2)
        ring[ring < 1e-14] = 0.0
        with pytest.raises(nk.ValidationError):
            nk.garrisi_check(nk.RealField(grid40, ring),
                             truncated_bump(grid40, 1.0, 1.0),
                             grid40.half_length)


def test_refinement_monotone_violation():
    # the measured inequality violation cannot grow when the same continuum
    # fields are sampled twice as finely
    for width1, width2, h2 in [(1.0, 1.7, 0.8), (0.6, 2.2, 1.3)]:
        viols = []
        for n in (256, 512):
            g = nk.make_grid(40.0, n)
            u = truncated_bump(g, width1, 1.0)
            v = truncated_bump(g, width2, h2)
            rep = nk.garrisi_check(u, v, g.half_length)
            viols.append(max(0.0, rep.garrisi_lhs - rep.garrisi_rhs))
        assert viols[1] <= viols[0] + 1e-12


def test_energy_never_increases_under_rearrangement(grid30, prm_coupled):
    rng = np.random.default_rng(17)
    from nlskdv.rearrange import ps_tolerance
    for _ in range(15):
        f = random_nonneg_field(grid30, rng)
        g = random_nonneg_field(grid30, rng)
        e0 = nk.energy(nk.ComplexField(grid30, f.values + 0j), g,
                       prm_coupled)
        fs = nk.decreasing_rearrangement(f)
        gs = nk.decreasing_rearrangement(g)
        e1 = nk.energy(nk.ComplexField(grid30, fs.values + 0j), gs,
                       prm_coupled)
        tol = ps_tolerance(grid30, abs(e0))
        assert e1 <= e0 + tol
