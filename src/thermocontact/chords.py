"""Reeb chord detection between graphical equilibrium families.

A chord is a segment parallel to the z-axis joining two Legendrians over a
common (p, q) point; it is non-trivial when its length is positive.  For two
fronts f0, f1 over one chart, chords sit exactly at the critical points of
the difference psi = f1 - f0: there the slopes agree and the z gap is
psi(x).  Closed forms are provided for the gas and magnet family pairs and a
generic scan-and-bisect finder handles arbitrary front pairs.  All
functions are pure and finder results are ordered by abscissa.

The finder evaluates psi' on the grid one block of nodes at a time and
finds its brackets with boolean masks over shifted views of each block
(each node against its left and right neighbours): sign changes between
neighbours, isolated exact zeros and touching minima.  Python only iterates
over the blocks and the flagged cells, so the scan costs a few array
operations per block, and the per-bracket refinement is the only scalar
work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from ._solve import brentq, minimize_scalar_bounded
from .models import FrontFunction, _cw_z
from .phase_space import write_csv

# find_chords' abscissa tolerance, and the |psi'| under which a dip touches
ROOT_TOL = 1e-12
TRIVIAL_LENGTH_TOL = 1e-10
# find_chords scans its grid in blocks of this many nodes, so that its
# temporaries take under 0.4 MB whatever grid_n is.  A 40001-node grid
# scanned in one piece took 2.2 MB per call: glibc's malloc returned that
# memory to the system after each call and page-faulted it back in on the
# next, which cost about a third of the call's time, more or less from one
# process to the next, depending on where the heap's free space lay.
SCAN_BLOCK = 4096


class DegenerateChordError(RuntimeError):
    """The requested chord has zero length."""


class DegenerateFamilyError(RuntimeError):
    """The front difference is constant: every point carries a chord."""


@dataclass(frozen=True)
class Chord:
    """A vertical segment between two fronts over the common point (q, p)."""

    q: float
    p: float
    z_start: float
    z_end: float
    tangential: bool = False

    def __post_init__(self):
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "z_start", float(self.z_start))
        object.__setattr__(self, "z_end", float(self.z_end))
        if self.z_end == self.z_start:
            raise DegenerateChordError("chord endpoints coincide (zero length)")

    @property
    def length(self) -> float:
        return abs(self.z_end - self.z_start)

    @property
    def direction(self) -> int:
        return 1 if self.z_end > self.z_start else -1


def gas_chord(t0: float, t1: float, c: float) -> Chord:
    """The unique chord between the gas families (t0, 0) and (t1, c).

    The common point has volume p = (t1 - t0)/c and pressure
    P = -q = c t0/(t1 - t0); the endpoints are z = t0 ln p and t1 ln p, so
    the chord points up exactly when p > 1 (c below the temperature gap).
    Degenerate at c = t1 - t0 where the families touch.
    """
    if not 0 < t0 < t1:
        raise ValueError("need t1 > t0 > 0")
    if not c > 0:
        raise ValueError("pressure jump c must be positive")
    v = (t1 - t0) / c
    if v == 1.0:
        raise DegenerateChordError(
            "c equals the temperature gap: the families touch (zero-length chord)"
        )
    q = -c * t0 / (t1 - t0)
    return Chord(q=q, p=v, z_start=t0 * math.log(v), z_end=t1 * math.log(v))


def cw_chord(t0: float, t1: float, c: float, b: float) -> Chord:
    """The unique chord between the magnet families (t0, 0) and (t1, c).

    The common point is p = tanh(c/(t1 - t0)), q = c t0/(t1 - t0) - b p, and
    the endpoints follow the magnet z-formula at background fields 0 and c.
    The chord always points up for t1 > t0 (z grows with T at fixed (p, q)).
    """
    if not 0 < t0 < t1:
        raise ValueError("need t1 > t0 > 0")
    if not b > 0:
        raise ValueError("spin interaction b must be positive")
    p = math.tanh(c / (t1 - t0))
    q = c * t0 / (t1 - t0) - b * p
    return Chord(q=q, p=p, z_start=_cw_z(p, q, t0, 0.0, b), z_end=_cw_z(p, q, t1, c, b))


def find_chords(
    f0: FrontFunction,
    f1: FrontFunction,
    scan_lo: float,
    scan_hi: float,
    grid_n: int = 4096,
) -> list[Chord]:
    """All chords between the fronts f0 and f1 inside [scan_lo, scan_hi].

    Scans the slope difference psi' = f1' - f0' on a uniform grid, refines
    every sign change by bracketing bisection to within ROOT_TOL in the
    abscissa, and turns each root x into a chord (z from f0, f1; p from the
    common slope).  The scan is a set of array masks over blocks of
    SCAN_BLOCK nodes, so only the grid cells it flags reach brentq or the
    minimizer below.  Roots where |psi| <= TRIVIAL_LENGTH_TOL are
    intersections of the fronts, not chords, and are dropped.  Grid nodes
    where psi' dips below ROOT_TOL without changing sign are polished by a
    bounded scalar minimization and flagged tangential (they mark
    bifurcations of the chord count).  An
    identically vanishing psi' is reported as a degenerate family.  An empty
    result is a valid outcome.  Roots closer than half a grid cell collapse
    to one; pick grid_n accordingly.
    """
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

    # Node k is k * step + lo and the last node is hi, as np.linspace
    # computes them.
    lo, hi = float(scan_lo), float(scan_hi)
    step = (hi - lo) / (grid_n - 1)
    flat = True
    crossings: list[tuple[float, float]] = []  # cells holding a sign change
    zeros: list[tuple[float, bool]] = []  # (node, tangential)
    dips: list[tuple[float, float, float]] = []  # (left node, right node, flank)
    for start in range(0, grid_n, SCAN_BLOCK):
        # The block owns nodes start .. start + SCAN_BLOCK - 1 and the cells
        # to their right; one node more on each side gives every owned
        # interior node both neighbours and every owned cell its right end.
        k0 = max(start - 1, 0)
        k1 = min(start + SCAN_BLOCK + 1, grid_n)
        xs = np.arange(k0, k1, dtype=float) * step + lo
        if k1 == grid_n:
            xs[-1] = hi
        dpsi = np.asarray(f1.slope(xs) - f0.slope(xs), dtype=float)
        mag = np.abs(dpsi)
        flat = flat and bool(np.all(mag < 1e-15))

        # A sign change between nodes i and i + 1 brackets a root.
        own = start - k0
        for i in np.flatnonzero(dpsi[own:-1] * dpsi[own + 1:] < 0.0).tolist():
            crossings.append((float(xs[own + i]), float(xs[own + i + 1])))

        # Position k of these views is node k, k + 1, k + 2, so position k
        # of an interior mask is node k + 1.
        left, mid, right = dpsi[:-2], dpsi[1:-1], dpsi[2:]

        # An exact zero of psi' at a grid node is a root only when isolated
        # (both neighbours nonzero); runs of exact zeros are underflowed
        # tails of nearly parallel fronts, not chord families, and are
        # skipped.  Node 0 and the last node have one neighbour only and
        # never count.
        flank = left * right
        for k in np.flatnonzero((mid == 0.0) & (left != 0.0) & (right != 0.0)).tolist():
            zeros.append((float(xs[k + 1]), bool(flank[k] > 0.0)))

        # Touching roots: strict local minima of |psi'| under ROOT_TOL without a
        # sign change.
        abs_mid = mag[1:-1]
        flank_min = np.minimum(mag[:-2], mag[2:])
        touching = (mid != 0.0) & (abs_mid < ROOT_TOL) & (flank > 0.0) & (abs_mid < flank_min)
        for k in np.flatnonzero(touching).tolist():
            dips.append((float(xs[k]), float(xs[k + 2]), float(flank_min[k])))

    if flat:
        raise DegenerateFamilyError(
            "front difference has identically vanishing slope on the grid; "
            "every point of the window carries a chord"
        )

    def slope_gap(x: float) -> float:
        return float(f1.slope(x) - f0.slope(x))

    roots = [(brentq(slope_gap, a, b, xtol=ROOT_TOL), False) for a, b in crossings] + zeros
    # The refined minimum of a dip must sit well below the flank values,
    # which rejects float-quantization stairs in nearly flat tails.
    for a, b, flank_min_k in dips:
        x, fx = minimize_scalar_bounded(lambda x: abs(slope_gap(x)), a, b, xatol=1e-10)
        if fx < ROOT_TOL and 10.0 * fx < flank_min_k:
            roots.append((x, True))

    out: list[Chord] = []
    seen: list[float] = []
    for x, tangential in sorted(roots):
        if seen and abs(x - seen[-1]) < 0.5 * step:
            continue
        seen.append(x)
        z0 = f0.value(x)
        z1 = f1.value(x)
        if abs(z1 - z0) <= TRIVIAL_LENGTH_TOL:
            continue
        out.append(Chord(q=x, p=f0.slope(x), z_start=z0, z_end=z1, tangential=tangential))
    return out


# ---------------------------------------------------------------------------
# serialization

def _chord_dict(ch: Chord) -> dict:
    return {
        "q": ch.q,
        "p": ch.p,
        "z_start": ch.z_start,
        "z_end": ch.z_end,
        "length": ch.length,
        "direction": ch.direction,
        "tangential": ch.tangential,
    }


def chords_to_json(chords: Sequence[Chord]) -> str:
    return json.dumps([_chord_dict(ch) for ch in chords], sort_keys=True)


def chords_to_csv(chords: Sequence[Chord], dest: str | IO[str]) -> None:
    header = ["q", "p", "z_start", "z_end", "length", "direction", "tangential"]
    rows = [
        (ch.q, ch.p, ch.z_start, ch.z_end, ch.length, ch.direction, int(ch.tangential))
        for ch in chords
    ]
    write_csv(dest, header, rows)
