import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from nlskdv import _roots
from nlskdv._roots import brentq


def _recorded(solver, f, a, b, **kwargs):
    # root (or exception type) and every point the solver evaluated
    points = []

    def g(x, *args):
        points.append(x)
        return f(x, *args)

    try:
        out = solver(g, a, b, **kwargs)
    except (ValueError, RuntimeError) as err:
        out = type(err)
    return out, points


def _family(rng):
    # a seeded function with a sign change on [a, b]: smooth, flat,
    # kinked, piecewise constant or stiff, so every branch of the
    # iteration (interpolation, extrapolation, refused steps, the
    # minimum step) is reached
    kind = int(rng.integers(7))
    r = float(rng.uniform(-3.0, 3.0))
    s = float(rng.uniform(0.1, 5.0))
    if kind == 0:
        f = lambda x: (x - r) * s + 0.3 * (x - r) ** 3
    elif kind == 1:
        f = lambda x: math.tanh(s * (x - r))
    elif kind == 2:
        f = lambda x: math.expm1(s * (x - r))
    elif kind == 3:
        f = lambda x: math.copysign(abs(x - r) ** 0.2, x - r)
    elif kind == 4:
        f = lambda x: float(np.sign(x - r)) * s
    elif kind == 5:
        f = lambda x: (x - r) ** 5 * s
    else:
        f = lambda x: math.atan(1e6 * (x - r)) + 1e-3 * (x - r)
    a = r - float(rng.uniform(1e-9, 4.0))
    b = r + float(rng.uniform(1e-9, 4.0))
    return (f, a, b) if rng.random() < 0.5 else (f, b, a)


def test_matches_scipy_on_seeded_battery(monkeypatch):
    rng = np.random.default_rng(20250)
    for _ in range(4000):
        f, a, b = _family(rng)
        kwargs = {"xtol": float(10.0 ** rng.uniform(-16, -2)),
                  "rtol": float(4 * np.finfo(float).eps
                                * 10.0 ** rng.uniform(0, 8))}
        # one case in five runs out of a short iteration limit
        maxiter = int(rng.integers(0, 12)) if rng.random() < 0.2 else 100
        monkeypatch.setattr(_roots, "_MAXITER", maxiter)
        want = _recorded(scipy_brentq, f, a, b, maxiter=maxiter, **kwargs)
        got = _recorded(brentq, f, a, b, **kwargs)
        assert got == want, (a, b, kwargs, maxiter)


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x, 0.0, 1.0),                 # f(a) = 0
    (lambda x: x - 1.0, 0.0, 1.0),           # f(b) = 0
    (lambda x: x * x * x, -2.0, 0.0),        # f(b) = 0, a triple root
    (lambda x: x - 1e-13, 0.0, 1.0),         # root within xtol of a
    (lambda x: -x, 0.0, -3.0),               # root at a, reversed order
    (lambda x: 0.0, 0.0, 1.0),               # zero everywhere
    (lambda x: math.inf if x == 0 else 1.0 - x, 0.0, 3.0),  # f(a) = inf
    (lambda x: x - 0.5, 0, 1),               # integer ends
])
def test_ends_and_special_values(f, a, b):
    assert _recorded(brentq, f, a, b) == _recorded(scipy_brentq, f, a, b)


def test_args_are_passed_on():
    f = lambda x, c, d: x * c - d
    want = _recorded(scipy_brentq, f, -5.0, 5.0, args=(2.0, 1.0))
    assert _recorded(brentq, f, -5.0, 5.0, args=(2.0, 1.0)) == want


@pytest.mark.parametrize("f,a,b,kwargs", [
    (lambda x: x, -1.0, 2.0, {"xtol": 0.0}),
    (lambda x: x, -1.0, 2.0, {"xtol": -1e-3}),
    (lambda x: x, -1.0, 2.0, {"rtol": 1e-16}),
    (lambda x: x * x + 1.0, -1.0, 2.0, {}),          # same sign
    (lambda x: math.nan, -1.0, 2.0, {}),             # NaN at an end
    (lambda x: math.nan if x > 0.2 else x, -1.0, 2.0, {}),
    # out of iterations: halving 2e300 down to xtol takes ~1000 steps
    (lambda x: math.copysign(1.0, x - 0.3), -1e300, 1e300, {}),
])
def test_error_paths_raise_as_scipy(f, a, b, kwargs):
    want = _recorded(scipy_brentq, f, a, b, **kwargs)[0]
    assert want in (ValueError, RuntimeError)
    assert _recorded(brentq, f, a, b, **kwargs)[0] is want


def test_matches_scipy_at_dyadic_ties():
    # dyadic ends, a power-of-two xtol and steps that halve exactly, so
    # the stopping test |sbis| < delta meets exact ties
    rng = np.random.default_rng(7)
    for _ in range(1500):
        r = float(rng.uniform(-1.0, 1.0))
        f = lambda x: x - r if x != r else 1.0
        a = -float(rng.integers(1, 9)) / 4.0
        b = float(rng.integers(1, 9)) / 4.0
        xtol = 2.0 ** -int(rng.integers(-4, 12))
        assert (_recorded(brentq, f, a, b, xtol=xtol)
                == _recorded(scipy_brentq, f, a, b, xtol=xtol)), (r, a, b)
