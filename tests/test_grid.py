import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nlskdv as nk
from nlskdv.grid import apply_symbol, atomic_write, deriv_values

from conftest import (complex_field, oracle_integral, real_field, sech,
                      shift_values)


def test_make_grid_spacing():
    g = nk.make_grid(40.0, 8)
    assert g.dx == 10.0
    assert g.n * g.dx == 2 * g.half_length


def test_wavenumber_ordering():
    g = nk.make_grid(np.pi, 8)
    assert np.allclose(g.wavenumbers, [0, 1, 2, 3, -4, -3, -2, -1])


def test_wavenumber_invariants(grid40):
    k = grid40.wavenumbers
    assert np.count_nonzero(k == 0.0) == 1
    # antisymmetric apart from the Nyquist entry
    n = grid40.n
    for j in range(1, n // 2):
        assert k[j] == -k[n - j]


@pytest.mark.parametrize("L,n", [(40.0, 7), (40.0, 6), (0.0, 64),
                                 (-3.0, 64), (40.0, 9)])
def test_make_grid_rejects(L, n):
    with pytest.raises(nk.ValidationError):
        nk.make_grid(L, n)


def test_deriv_resolved_mode(grid40):
    L = grid40.half_length
    f = real_field(grid40, lambda x: np.sin(np.pi * x / L))
    expect = (np.pi / L) * np.cos(np.pi * grid40.x / L)
    assert np.max(np.abs(nk.deriv(f).values - expect)) < 1e-13


def test_deriv_constant(grid40):
    f = real_field(grid40, lambda x: np.full_like(x, 2.5))
    for order in (1, 2, 3):
        assert np.max(np.abs(nk.deriv(f, order).values)) < 1e-12


def test_deriv_sech_second_order(grid40):
    f = real_field(grid40, sech)
    expect = sech(grid40.x) - 2 * sech(grid40.x) ** 3
    assert np.max(np.abs(nk.deriv(f, 2).values - expect)) <= 1e-10


def test_integrate_constant(grid40):
    f = real_field(grid40, lambda x: np.ones_like(x))
    assert nk.integrate(f) == pytest.approx(2 * grid40.half_length, abs=1e-12)


def test_integrate_sech2_half(grid40):
    # oracle: antiderivative of sech^2(x/2) is 2 tanh(x/2), total 4
    expected = oracle_integral(lambda x: sech(x / 2) ** 2)
    assert expected == pytest.approx(4.0, abs=1e-10)
    f = real_field(grid40, lambda x: sech(x / 2) ** 2)
    assert nk.integrate(f) == pytest.approx(4.0, abs=1e-12)


def test_integrate_sech4_half(grid40):
    expected = oracle_integral(lambda x: sech(x / 2) ** 4)
    assert expected == pytest.approx(8.0 / 3.0, abs=1e-10)
    f = real_field(grid40, lambda x: sech(x / 2) ** 4)
    assert nk.integrate(f) == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_parseval(grid30):
    rng = np.random.default_rng(5)
    f = complex_field(grid30, lambda x: np.exp(-x ** 2 / 9)
                      * (rng.standard_normal(x.size)
                         + 1j * rng.standard_normal(x.size)))
    fh = np.fft.fft(f.values)
    lhs = grid30.dx * np.sum(np.abs(f.values) ** 2)
    rhs = grid30.dx * np.sum(np.abs(fh) ** 2) / grid30.n
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_deriv_linear(a, b):
    g = nk.make_grid(10.0, 64)
    f1 = real_field(g, lambda x: np.exp(-x ** 2))
    f2 = real_field(g, lambda x: x * np.exp(-x ** 2 / 2))
    combo = nk.RealField(g, a * f1.values + b * f2.values)
    lhs = nk.deriv(combo).values
    rhs = a * nk.deriv(f1).values + b * nk.deriv(f2).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + abs(a) + abs(b))


@given(y=st.floats(-25, 25), m=st.integers(-64, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shift_real_input(y, m, seed):
    # real input takes the real-to-complex path; the full transform of
    # the same phases, with its real part taken, is the reference
    g = nk.make_grid(10.0, 64)
    v = np.random.default_rng(seed).standard_normal(g.n)
    size = np.max(np.abs(v))
    out = shift_values(v, g, y)
    assert np.isrealobj(out)
    full = np.fft.ifft(np.fft.fft(v) * np.exp(1j * g.wavenumbers * y)).real
    assert np.max(np.abs(out - full)) <= 1e-15 * size
    # whole cells are exact up to the rounding of the phases k * y
    whole = shift_values(v, g, m * g.dx)
    assert np.max(np.abs(whole - np.roll(v, -m))) <= 1e-13 * size
    # a fractional shift of the Nyquist mode is complex, which a real
    # field cannot hold, so the round trip starts with it zeroed
    vh = np.fft.rfft(v)
    vh[-1] = 0.0
    v = np.fft.irfft(vh, g.n)
    back = shift_values(shift_values(v, g, y), g, -y)
    assert np.max(np.abs(back - v)) <= 1e-14 * size


@given(half=st.integers(4, 1024), order=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_rows_match_single_rows(half, order, seed):
    # leading axes are transformed row by row, each row bit for bit as
    # alone; the solver's (2, n) stack of its two fields relies on it
    g = nk.make_grid(10.0, 2 * half)
    X = np.random.default_rng(seed).standard_normal((2, g.n))
    symbol = 1.0 / g.h1_weights
    stacked = deriv_values(X, g, order)
    smoothed = apply_symbol(X, g, symbol)
    for i in range(2):
        assert np.array_equal(stacked[i], deriv_values(X[i], g, order))
        assert np.array_equal(smoothed[i], apply_symbol(X[i], g, symbol))


def test_symbol_stack_cached(grid30):
    # a tuple of orders gives the stacked symbols, built once and frozen
    stack = grid30.deriv_symbol((1, 2))
    assert grid30.deriv_symbol((1, 2)) is stack
    assert not stack.flags.writeable
    assert np.array_equal(stack, [grid30.deriv_symbol(1),
                                  grid30.deriv_symbol(2)])


def test_one_fft_library():
    # every transform in the package goes through scipy.fft
    src = Path(__file__).resolve().parents[1] / "src" / "nlskdv"
    named = re.compile(r"\b(np|numpy)\.fft\b")
    hits = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if named.search(line)]
    assert hits == []


def test_one_set_of_spectral_symbols():
    # Grid1D is the one place that raises wavenumbers to a power (its
    # deriv_symbol and h1_weights); every other module takes its symbols
    # from there
    src = Path(__file__).resolve().parents[1] / "src" / "nlskdv"
    power = re.compile(r"(wavenumbers|\bk)\s*\*\*")
    hits = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
            if path.name != "grid.py"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if power.search(line)]
    assert hits == []


def test_integral_of_derivative_vanishes(grid30):
    f = real_field(grid30, lambda x: np.exp(-x ** 2 / 4) * (1 + 0.3 * x))
    assert abs(nk.integrate(nk.deriv(f))) <= 1e-13


def test_field_validation(grid30):
    with pytest.raises(nk.ValidationError):
        nk.RealField(grid30, np.zeros(grid30.n - 1))
    bad = np.zeros(grid30.n)
    bad[3] = np.inf
    with pytest.raises(nk.ValidationError):
        nk.RealField(grid30, bad)


def test_field_values_frozen(grid30):
    f = real_field(grid30, lambda x: np.exp(-x ** 2))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_grid_equality():
    assert nk.make_grid(40.0, 64) == nk.make_grid(40.0, 64)
    assert nk.make_grid(40.0, 64) != nk.make_grid(40.0, 128)


def test_same_grid_mismatch(grid30, grid40):
    f = real_field(grid30, np.cos)
    g = real_field(grid40, np.cos)
    with pytest.raises(nk.GridMismatchError):
        nk.same_grid(f, g)


def test_field_serialization_roundtrip(tmp_path, grid30):
    f = real_field(grid30, lambda x: np.exp(-x ** 2 / 3))
    base = str(tmp_path / "f")
    nk.save_field(f, base)
    f2 = nk.load_field(base)
    assert f2.grid == grid30
    assert f2.values.tobytes() == f.values.tobytes()

    c = complex_field(grid30, lambda x: np.exp(-x ** 2 / 3) * (1 + 2j))
    nk.save_field(c, str(tmp_path / "c"))
    c2 = nk.load_field(str(tmp_path / "c"))
    assert isinstance(c2, nk.ComplexField)
    assert c2.values.tobytes() == c.values.tobytes()


def test_atomic_write_failure_leaves_no_temp(tmp_path):
    # the rename fails (the target is a directory) and the write fails
    # (str is not bytes): neither leaves a temp file behind
    (tmp_path / "target").mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write(str(tmp_path / "target"), b"data")
    with pytest.raises(TypeError):
        atomic_write(str(tmp_path / "out.bin"), "not bytes")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


def test_atomic_write_unique_temp(tmp_path):
    # a stale or foreign "<path>.tmp" is neither used nor disturbed
    path = tmp_path / "out.bin"
    (tmp_path / "out.bin.tmp").write_bytes(b"other writer")
    atomic_write(str(path), b"mine")
    assert path.read_bytes() == b"mine"
    assert (tmp_path / "out.bin.tmp").read_bytes() == b"other writer"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.bin", "out.bin.tmp"]

