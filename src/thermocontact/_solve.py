"""Scalar root finding, bounded minimization and log-sum-exp.

The toolkit needs only three numerical kernels beyond numpy: Brent's
bracketing root finder (chords and magnet fronts), a bounded scalar
minimizer (touching chords) and a weighted log-sum-exp (Gibbs partition
functions).  Each is written here to give bit-for-bit the results of
scipy 1.17's ``optimize.brentq``, ``optimize.minimize_scalar(method=
"bounded")`` and ``special.logsumexp``, so outputs do not depend on which
one ran; ``tests/test_solve.py`` checks the equality against scipy.  The
algorithms follow Brent (1973), *Algorithms for Minimization without
Derivatives*, ch. 4 and 5.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# brentq's relative tolerance and iteration cap: scipy's defaults
_RTOL = 4 * float(np.finfo(float).eps)
_MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method: inverse quadratic interpolation or secant steps,
    falling back to bisection, until the bracket is narrower than
    xtol + 4 eps |x|, with xtol > 0 (the callers pass CHORD_XTOL and
    MAGNET_YTOL).  An end where f is exactly zero is returned as is.
    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when _MAXITER iterations do not converge.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # an underflowed denominator: C's x/0 gives inf or nan,
                # which fails the step test below, so scipy bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def minimize_scalar_bounded(
    f: Callable[[float], float], lo: float, hi: float, xatol: float
) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f on [lo, hi].

    Brent's golden-section search with parabolic steps, stopped when x is
    known to within xatol (plus sqrt(eps) |x|) or after 500 calls of f.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _sign(x: float) -> float:
    """The step direction np.sign(x) + (x == 0): -1.0, 1.0 (also at 0) or nan."""
    return -1.0 if x < 0 else 1.0 if x >= 0 else math.nan


def logsumexp(a, b) -> float:
    """log sum_i b_i exp(a_i) for weights b_i >= 0, without overflow.

    Terms with zero weight are dropped, the terms at the maximum a_max are
    summed apart (weight m) from the rest (s, relative to m), and the result
    is log1p(s) + log(m) + a_max; if that is not finite, the direct sum
    decides (an infinite or empty total).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # gibbs passes positive weights only; the mask keeps the port equal
        # to scipy for every b >= 0 (a zero weight drops even an infinite a)
        a_w = np.where(b == 0, -np.inf, a)
        a_max = a_w.max()
        top = a_w == a_max
        m = np.sum(b * top)
        s = np.sum(b * np.exp(np.where(top, -np.inf, a_w) - a_max))
        if s != 0:
            s = s / m
        out = float(np.log1p(s) + np.log(m) + a_max)
        if not math.isfinite(out):
            out = float(np.log(np.sum(b * np.exp(a))))
    return out
