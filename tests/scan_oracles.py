"""Per-node loop versions of the grid scans, kept as test oracles.

These are the scalar walks that ``chords.find_chords`` and
``models.cw_magnetization_roots`` used before their scans were vectorised.
``find_chords`` must return results equal (``==``) to its loop on every
input: the refinement, dedup and edge rules are the same, only the way the
brackets are found differs.  ``cw_magnetization_roots`` now solves the
monotone pieces of its equation and refines each root on the same 10^4-node
grid, so it must equal its loop wherever the scan brackets every root; it
also returns the roots that share one scan cell, which the loop misses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from thermocontact.chords import TRIVIAL_LENGTH_TOL, Chord, DegenerateFamilyError
from thermocontact.models import (
    SELF_CONSISTENCY_TOL,
    CurieWeissParams,
    CWBranchPoint,
    FrontFunction,
    _cw_z,
    cw_fold,
)


def loop_find_chords(
    f0: FrontFunction,
    f1: FrontFunction,
    scan_lo: float,
    scan_hi: float,
    grid_n: int = 4096,
    tol: float = 1e-12,
    trivial_tol: float = TRIVIAL_LENGTH_TOL,
) -> list[Chord]:
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    if not scan_lo < scan_hi:
        raise ValueError("need scan_lo < scan_hi")
    for front in (f0, f1):
        if not (front.contains(scan_lo) and front.contains(scan_hi)):
            raise ValueError(
                f"scan window [{scan_lo}, {scan_hi}] leaves the domain of "
                f"front {front.label!r}"
            )

    xs = np.linspace(scan_lo, scan_hi, grid_n)
    dpsi = np.asarray(f1.slope(xs) - f0.slope(xs), dtype=float)
    if np.all(np.abs(dpsi) < 1e-15):
        raise DegenerateFamilyError(
            "front difference has identically vanishing slope on the grid; "
            "every point of the window carries a chord"
        )

    def slope_gap(x: float) -> float:
        return float(f1.slope(x) - f0.slope(x))

    # signs, not products, of neighbouring slopes: a product underflows to 0
    sign = np.sign(dpsi)
    roots: list[tuple[float, bool]] = []
    for i in range(grid_n - 1):
        a, c = dpsi[i], dpsi[i + 1]
        if a == 0.0:
            if 0 < i and dpsi[i - 1] != 0.0 and c != 0.0:
                roots.append((float(xs[i]), sign[i - 1] * sign[i + 1] > 0.0))
        elif sign[i] * sign[i + 1] < 0.0:
            roots.append((float(brentq(slope_gap, xs[i], xs[i + 1], xtol=tol)), False))

    for i in range(1, grid_n - 1):
        a, mid, c = dpsi[i - 1], dpsi[i], dpsi[i + 1]
        if (mid != 0.0 and abs(mid) < tol and sign[i - 1] * sign[i + 1] > 0.0
                and abs(mid) < min(abs(a), abs(c))):
            res = minimize_scalar(
                lambda x: abs(slope_gap(x)),
                bounds=(float(xs[i - 1]), float(xs[i + 1])),
                method="bounded",
                options={"xatol": 1e-10},
            )
            if abs(res.fun) < tol and 10.0 * abs(res.fun) < min(abs(a), abs(c)):
                roots.append((float(res.x), True))

    spacing = (scan_hi - scan_lo) / (grid_n - 1)
    out: list[Chord] = []
    seen: list[float] = []
    for x, tangential in sorted(roots):
        if seen and abs(x - seen[-1]) < 0.5 * spacing:
            continue
        seen.append(x)
        z0 = f0.value(x)
        z1 = f1.value(x)
        if abs(z1 - z0) <= trivial_tol:
            continue
        out.append(Chord(q=x, p=f0.slope(x), z_start=z0, z_end=z1, tangential=tangential))
    return out


def loop_cw_magnetization_roots(
    q: float,
    par: CurieWeissParams,
    scan_points: int = 10_000,
    tol: float = 1e-12,
) -> list[CWBranchPoint]:
    T, b = par.T, par.b
    target = q + par.H_back

    def resid(y: float) -> float:
        return T * y - b * math.tanh(y) - target

    y_lo = (target - b) / T - 1.0
    y_hi = (target + b) / T + 1.0
    ys = np.linspace(y_lo, y_hi, scan_points)
    vals = T * ys - b * np.tanh(ys) - target
    sign = np.sign(vals)  # a product of two residuals underflows to 0

    roots_y: list[float] = []
    for i in range(scan_points - 1):
        if vals[i] == 0.0:
            roots_y.append(float(ys[i]))
        elif sign[i] * sign[i + 1] < 0.0:
            roots_y.append(float(brentq(resid, ys[i], ys[i + 1], xtol=tol)))
    if vals[-1] == 0.0:
        roots_y.append(float(ys[-1]))

    deduped: list[float] = []
    for y in sorted(roots_y):
        if not deduped or abs(y - deduped[-1]) > 10 * tol:
            deduped.append(y)

    fold = cw_fold(T, b)
    points = []
    for y in deduped:
        # the monotone piece holding y, as CWBranchPoint.piece defines it
        if fold is None:
            piece = int(target > 0.0) - int(target < 0.0)
        else:
            piece = int(y >= fold) - int(y <= -fold)
        if target == 0.0 and piece == 0:
            # at zero field g(0) = 0 exactly: the middle piece's root is y = 0
            y = 0.0
        p = math.tanh(y)
        residual = abs(p - math.tanh((q + par.H_back + b * p) / T))
        if residual > SELF_CONSISTENCY_TOL:
            raise RuntimeError(
                f"self-consistency residual {residual:.3e} exceeds "
                f"{SELF_CONSISTENCY_TOL} at p={p!r}"
            )
        unstable = 1.0 - (b / T) * (1.0 - p * p) < 0.0
        points.append([p, _cw_z(p, q, T, par.H_back, b), unstable, y, piece])

    stable = [pt for pt in points if not pt[2]]
    best = None
    if stable:
        z_max = max(pt[1] for pt in stable)
        candidates = [pt for pt in stable if pt[1] >= z_max - 1e-12 * max(1.0, abs(z_max))]
        best = max(candidates, key=lambda pt: pt[0] >= 0)

    out = []
    for pt in sorted(points, key=lambda pt: pt[0]):
        if pt[2]:
            label = "unstable"
        elif pt is best:
            label = "global_min"
        else:
            label = "local_min"
        out.append(CWBranchPoint(pt[0], q, pt[1], label, pt[3], pt[4]))
    return out
