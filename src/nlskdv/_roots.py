"""Brent's bracketed root-finder (Brent 1973, Algorithms for Minimization
without Derivatives, ch. 4).

A line-for-line port of scipy's brentq (scipy/optimize/Zeros/brentq.c and
its Python wrapper): it visits the same points in the same order and
returns the same root, so the package can find its one root, the KdV
profile's width for a mass (exact.lambda_for_mass), without importing
scipy.optimize, which also loads scipy.linalg, scipy.sparse and a second
BLAS.
"""

from __future__ import annotations

import math
import sys

_XTOL = 2e-12
_RTOL = 4.0 * sys.float_info.epsilon    # the smallest rtol allowed
_MAXITER = 100


def brentq(f, a, b, args=(), xtol=_XTOL, rtol=_RTOL):
    """Root of f in [a, b], where f(a) and f(b) have opposite signs.

    Each iteration keeps the best point cur, the previous one pre and the
    block blk, the end of the bracket opposite cur.  It tries a secant
    (inverse quadratic, once three points differ) step and takes it only
    when it is under half the step before last and well inside the
    bracket; otherwise it bisects.  A step never falls below delta =
    (xtol + rtol |cur|)/2, and the search stops when the bracket's half
    width does.  Raises ValueError on bad tolerances, a NaN value or ends
    of the same sign, and RuntimeError after _MAXITER (100) iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate (secant); fcur and fpre have opposite signs
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a divisor that underflows to 0 gives inf or nan in C,
                # which the test below refuses
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den
                        if den != 0.0 else math.inf)
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"Failed to converge after {_MAXITER} iterations, value is {xcur}")
