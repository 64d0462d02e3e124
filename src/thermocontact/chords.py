"""Reeb chord detection between graphical equilibrium families.

A chord is a segment parallel to the z-axis joining two Legendrians over a
common (p, q) point; it is non-trivial when its length is positive.  For two
fronts f0, f1 over one chart, chords sit exactly at the critical points of
the difference psi = f1 - f0: there the slopes agree and the z gap is
psi(x).  Closed forms are provided for the gas and magnet family pairs and a
generic scan-and-refine finder (Brent's method on each bracket) handles
arbitrary front pairs.  All
functions are pure and finder results are ordered by abscissa.

The finder evaluates psi' on the grid one block of nodes at a time and
finds its brackets with boolean masks over shifted views of each block
(each node against its left and right neighbours): sign changes between
neighbours, isolated exact zeros and touching minima.  Python only iterates
over the blocks and the flagged cells, so the scan costs a few array
operations per block, and the per-bracket refinement is the only scalar
work.  Each front's ``contains`` checks the window's ends once; the scan
and the refinement then call each front's derivative ``fprime`` directly
(on arrays of nodes and on Python floats, the one route of a number into a
front, ``models._num``), and each chord's z ends come from ``f`` on the
float root, not through ``FrontFunction.value``/``slope``, whose domain
check would repeat on every call.  Only a chord's p is read through
``FrontFunction.slope``.  Where f0 is a ``constant_front``, whose slope is
zero, psi' is f1's slope alone and f0's is not evaluated.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from ._solve import brentq, minimize_scalar_bounded
from .models import FrontFunction, _cw_z, _zero_slope
from .phase_space import _scalar, write_csv

# find_chords: brentq's tolerance on a chord's abscissa (absolute, in q)
CHORD_XTOL = 1e-12
# find_chords: |psi'| under which a node or a polished dip touches zero (absolute, in psi')
TOUCH_SLOPE_TOL = 1e-12
# find_chords: |psi'| under which every node means a degenerate family (absolute, in psi')
FLAT_SLOPE_TOL = 1e-15
# find_chords: the dip minimizer's tolerance on the abscissa (absolute, in q)
DIP_XATOL = 1e-10
# find_chords: a dip counts when this times its |psi'| is below both flanks' (a ratio)
DIP_FLANK_RATIO = 10.0
# find_chords: roots closer than this are one chord (per grid cell)
COLLAPSE_CELLS = 0.5
# find_chords: a root with |psi| at most this is an intersection, not a chord (absolute, in z)
TRIVIAL_LENGTH_TOL = 1e-10
# find_chords scans its grid in blocks of this many nodes, so that its
# temporaries take under 0.8 MB whatever grid_n is.  A 40001-node grid
# scanned in one piece took 2.2 MB per call: glibc's malloc returned that
# memory to the system after each call and page-faulted it back in on the
# next, which cost about a third of the call's time, more or less from one
# process to the next, depending on where the heap's free space lay.  The
# block is the largest that stayed clear of that: measured with getrusage
# over 500 benchmark operations (a 20001- and a 40001-node scan each) in
# three checkouts of different path lengths, blocks of 8192 and 9216 nodes
# took under 0.1 minor faults an operation, 10240 took 0.6, and 11264 to
# 20480 took 77 to 252.  9216 scans those grids in the same 3 and 5 blocks
# as 8192, so the smaller is kept.
SCAN_BLOCK = 8192
# find_chords: most nodes of a scan grid (a count).  The magnet pair scans
# ~80 M nodes/s on a 2-vCPU x86-64 VM, so the largest grid takes ~1.2 s.
MAX_GRID_NODES = 100_000_000


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
        for name in ("q", "p", "z_start", "z_end"):
            object.__setattr__(self, name, _scalar(getattr(self, name), name))
        if self.z_end == self.z_start:
            raise DegenerateChordError("chord endpoints coincide (zero length)")
        if not math.isfinite(self.z_end - self.z_start):
            raise FloatingPointError(
                f"the chord at q={self.q!r} from z={self.z_start!r} to z={self.z_end!r} "
                "is beyond double precision (its length overflows)"
            )

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
    Degenerate at c = t1 - t0 where the families touch.  Raises
    FloatingPointError, naming t0, t1 and c, where p, q or z overflows
    doubles or p underflows to 0.
    """
    t0, t1 = _scalar(t0, "t0", positive=True), _scalar(t1, "t1")
    if not t0 < t1:
        raise ValueError("need t1 > t0 > 0")
    c = _scalar(c, "pressure jump c", positive=True)
    v = (t1 - t0) / c
    if v == 1.0:
        raise DegenerateChordError(
            "c equals the temperature gap: the families touch (zero-length chord)"
        )
    q = -c * t0 / (t1 - t0)
    # Python floats: an overflowing v, q or z is inf here; a v that underflows has no log
    log_v = math.log(v) if v > 0.0 else -math.inf
    z_start, z_end = t0 * log_v, t1 * log_v
    if not all(map(math.isfinite, (v, q, z_start, z_end))):
        raise FloatingPointError(
            f"the gas chord at t0={t0!r}, t1={t1!r}, c={c!r} is beyond double precision"
        )
    return Chord(q=q, p=v, z_start=z_start, z_end=z_end)


def cw_chord(t0: float, t1: float, c: float, b: float) -> Chord:
    """The unique chord between the magnet families (t0, 0) and (t1, c).

    The common point is p = tanh(c/(t1 - t0)), q = c t0/(t1 - t0) - b p, and
    the endpoints follow the magnet z-formula at background fields 0 and c.
    The chord always points up for t1 > t0 (z grows with T at fixed (p, q)).
    """
    t0, t1 = _scalar(t0, "t0", positive=True), _scalar(t1, "t1")
    if not t0 < t1:
        raise ValueError("need t1 > t0 > 0")
    b = _scalar(b, "spin interaction b", positive=True)
    c = _scalar(c, "c")
    p = math.tanh(c / (t1 - t0))
    q = c * t0 / (t1 - t0) - b * p
    # models.cw_phi takes x / T and doubles it, at each end of the chord
    for T, H in ((t0, 0.0), (t1, c)):
        if not math.isfinite(2.0 * ((q + H + b * p) / T)):
            raise FloatingPointError(
                f"the magnet chord at t0={t0!r}, t1={t1!r}, c={c!r}, b={b!r} "
                "is beyond double precision"
            )
    return Chord(q=q, p=p, z_start=_cw_z(p, q, t0, 0.0, b), z_end=_cw_z(p, q, t1, c, b))


# Overflow is not an error in the scan: a product of two slope values that
# overflows keeps the sign that the masks read, the magnet slopes clip an
# overflowing x / T (see models._tanh_gap), and a node whose slope
# difference is nan (two overflowed gas slopes) brackets nothing.
@np.errstate(over="ignore", invalid="ignore")
def find_chords(
    f0: FrontFunction,
    f1: FrontFunction,
    scan_lo: float,
    scan_hi: float,
    grid_n: int = 4096,
) -> list[Chord]:
    """All chords between the fronts f0 and f1 inside [scan_lo, scan_hi].

    Scans the slope difference psi' = f1' - f0' on a uniform grid, refines
    every sign change by Brent's method (``_solve.brentq``) to within
    CHORD_XTOL in the abscissa, and turns each root x into a chord (z from
    ``f0.f`` and ``f1.f`` at x, p from ``f0.slope``).  The scan is a set of
    array masks over blocks of SCAN_BLOCK nodes, so only the grid cells it
    flags reach brentq or the minimizer below.  Both fronts' ``contains``
    check the window's ends once, and the scan, brentq and the minimizer then
    call ``f0.fprime`` and ``f1.fprime`` directly, as the chord ends call
    ``f0.f`` and ``f1.f``, so each ``f`` and ``fprime`` must accept a float
    as well as an array of nodes.  Where f0 is a ``constant_front``, its zero slope
    is not evaluated or subtracted: psi' is ``f1.fprime`` alone, which has
    the same bits (v - 0.0 is v for every double).  Roots where
    |psi| <= TRIVIAL_LENGTH_TOL are intersections of the fronts, not
    chords, and are dropped.  Grid nodes
    where |psi'| dips below TOUCH_SLOPE_TOL without changing sign are
    polished by a bounded scalar minimization (to DIP_XATOL) and flagged
    tangential (they mark bifurcations of the chord count); a polished dip
    counts only where its |psi'| is below TOUCH_SLOPE_TOL and DIP_FLANK_RATIO
    times it is below both flanks.  A psi' under FLAT_SLOPE_TOL at every
    node is reported as a degenerate family.  An empty result is a valid
    outcome.  Roots closer than COLLAPSE_CELLS grid cells collapse to one;
    pick grid_n accordingly, from 3 to MAX_GRID_NODES.  A chord whose p or
    z is not finite raises FloatingPointError, naming its root.
    """
    grid_n = _scalar(grid_n, "grid_n", count=True, at_least=3, at_most=MAX_GRID_NODES)
    lo, hi = _scalar(scan_lo, "scan_lo"), _scalar(scan_hi, "scan_hi")
    if not lo < hi:
        raise ValueError("need scan_lo < scan_hi")
    for front in (f0, f1):
        if not (front.contains(lo) and front.contains(hi)):
            raise ValueError(
                f"scan window [{lo}, {hi}] leaves the domain of "
                f"front {front.label!r}"
            )

    # Node k is k * step + lo and the last node is hi, as np.linspace
    # computes them.
    step = (hi - lo) / (grid_n - 1)
    if not math.isfinite(step):
        raise ValueError(f"scan window [{lo}, {hi}] is wider than a double holds")
    # From here on the fronts are called directly, without the domain
    # check of FrontFunction.value/slope: each domain is an open interval holding
    # lo and hi, so it holds all of [lo, hi], and with a finite step every
    # node lies in [lo, hi], as does every iterate of brentq and of the
    # minimizer, which stay inside the grid cell they were given.
    if f0.fprime is _zero_slope:
        gap = f1.fprime
    else:
        def gap(x):
            return f1.fprime(x) - f0.fprime(x)

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
        dpsi = np.asarray(gap(xs), dtype=float)
        if dpsi.shape != xs.shape:
            # an fprime that returned a scalar: as subtracting zeros would
            dpsi = np.broadcast_to(dpsi, xs.shape)
        mag = np.abs(dpsi)
        flat = flat and bool((mag < FLAT_SLOPE_TOL).all())

        # A sign change between nodes i and i + 1 brackets a root.
        own = start - k0
        product = dpsi[own:-1] * dpsi[own + 1:]
        for i in (product < 0.0).nonzero()[0].tolist():
            crossings.append((float(xs[own + i]), float(xs[own + i + 1])))

        # The product underflows to 0 only where a node has |psi'| below
        # ~1e-162, and the masks below need |psi'| < TOUCH_SLOPE_TOL at a
        # node too, so a block without such a node skips them all.
        if not (mag < TOUCH_SLOPE_TOL).any():
            continue

        # The masks below read the nodes' signs, whose products never
        # underflow.  A sign change whose product underflowed (both slopes
        # nonzero):
        sign = np.sign(dpsi)
        underflow = (product == 0.0) & (sign[own:-1] * sign[own + 1:] < 0.0)
        for i in underflow.nonzero()[0].tolist():
            crossings.append((float(xs[own + i]), float(xs[own + i + 1])))

        abs_mid = mag[1:-1]

        # Position k of these views is node k, k + 1, k + 2, so position k
        # of an interior mask is node k + 1.
        left, mid, right = sign[:-2], sign[1:-1], sign[2:]

        # An exact zero of psi' at a grid node is a root only when isolated
        # (both neighbours nonzero); runs of exact zeros are underflowed
        # tails of nearly parallel fronts, not chord families, and are
        # skipped.  Node 0 and the last node have one neighbour only and
        # never count.
        flank = left * right
        for k in ((mid == 0.0) & (left != 0.0) & (right != 0.0)).nonzero()[0].tolist():
            zeros.append((float(xs[k + 1]), bool(flank[k] > 0.0)))

        # Touching roots: strict local minima of |psi'| under TOUCH_SLOPE_TOL
        # without a sign change.
        flank_min = np.minimum(mag[:-2], mag[2:])
        touching = (
            (mid != 0.0) & (abs_mid < TOUCH_SLOPE_TOL) & (flank > 0.0) & (abs_mid < flank_min)
        )
        for k in touching.nonzero()[0].tolist():
            dips.append((float(xs[k]), float(xs[k + 2]), float(flank_min[k])))

    if flat:
        raise DegenerateFamilyError(
            "front difference has identically vanishing slope on the grid; "
            "every point of the window carries a chord"
        )

    def slope_gap(x: float) -> float:
        return float(gap(x))

    roots = [(brentq(slope_gap, a, b, xtol=CHORD_XTOL), False) for a, b in crossings] + zeros
    # The refined minimum of a dip must sit well below the flank values,
    # which rejects float-quantization stairs in nearly flat tails.
    for a, b, flank_min_k in dips:
        x, fx = minimize_scalar_bounded(lambda x: abs(slope_gap(x)), a, b, xatol=DIP_XATOL)
        if fx < TOUCH_SLOPE_TOL and DIP_FLANK_RATIO * fx < flank_min_k:
            roots.append((x, True))

    out: list[Chord] = []
    seen: list[float] = []
    min_gap = COLLAPSE_CELLS * step
    for x, tangential in sorted(roots):
        if seen and abs(x - seen[-1]) < min_gap:
            continue
        seen.append(x)
        z0 = float(f0.f(x))
        z1 = float(f1.f(x))
        if abs(z1 - z0) <= TRIVIAL_LENGTH_TOL:
            continue
        # p alone comes through the checked FrontFunction.slope: one front
        # evaluation per chord, which perfbench's tracer counts as
        # models.front_evals (its tests want a finder call to make one)
        p = f0.slope(x)
        if not all(map(math.isfinite, (p, z0, z1))):
            raise FloatingPointError(
                f"the chord at the root q={x!r} is beyond double precision "
                f"(p={p!r}, z_start={z0!r}, z_end={z1!r})"
            )
        out.append(Chord(q=x, p=p, z_start=z0, z_end=z1, tangential=tangential))
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


def chords_to_csv(chords: Sequence[Chord], dest: str | os.PathLike | IO[str]) -> None:
    header = ["q", "p", "z_start", "z_end", "length", "direction", "tangential"]
    rows = [
        (ch.q, ch.p, ch.z_start, ch.z_end, ch.length, ch.direction, int(ch.tangential))
        for ch in chords
    ]
    write_csv(dest, header, rows)
