"""Per-sample versions of the path code, kept as test oracles.

These are the point-by-point loops that ``phase_space`` and
``processes.fokker_planck_relax`` used before paths were stored by column:
the per-node lift and reduction of a relaxation, the per-sample velocities
and form pairing of the certifier, the per-sample admissibility decrement
and entropy production rate, the per-point reduction, and the per-point
CSV reader and writer.  A path is a pair ``(times, points)``
of a time array and a tuple of ``ExtendedPoint``/``ReducedPoint``.  The
column code must give results equal (``==`` or ``array_equal``) to these.
"""

from __future__ import annotations

import csv
from typing import IO

import numpy as np

from thermocontact import microstate as ms
from thermocontact.phase_space import (
    ExtendedPoint,
    ReducedPoint,
    ReductionError,
    ReductionSpec,
)


def _coordinate_matrix(points) -> np.ndarray:
    if isinstance(points[0], ExtendedPoint):
        return np.array([[pt.z, pt.S, pt.T, *pt.p, *pt.q] for pt in points], dtype=float)
    return np.array([[pt.z, *pt.p, *pt.q] for pt in points], dtype=float)


def loop_velocities(times, points) -> list[tuple]:
    """One velocity per sample: ``(dz, dS, dT, dp, dq)`` on an extended path,
    ``(dz, dp, dq)`` on a reduced one, with ``dp`` and ``dq`` copied arrays."""
    coords = _coordinate_matrix(points)
    edge_order = 2 if len(points) >= 3 else 1
    vel = np.gradient(coords, times, axis=0, edge_order=edge_order)
    d = points[0].p.size
    if isinstance(points[0], ExtendedPoint):
        return [
            (float(r[0]), float(r[1]), float(r[2]), np.array(r[3 : 3 + d]), np.array(r[3 + d :]))
            for r in vel
        ]
    return [(float(r[0]), np.array(r[1 : 1 + d]), np.array(r[1 + d :])) for r in vel]


def loop_extended_form(pt: ExtendedPoint, v: tuple) -> float:
    """dz - S dT - p . dq at one sample."""
    dz, _, dT, _, dq = v
    return float(dz - pt.S * dT - np.dot(pt.p, dq))


def loop_reduced_form(pt: ReducedPoint, v: tuple) -> float:
    """dz - p . dq at one sample."""
    dz, _, dq = v
    return float(dz - np.dot(pt.p, dq))


def loop_form_values(times, points) -> np.ndarray:
    """The form at every sample, as ``check_path_nonnegative`` reports it."""
    form = loop_extended_form if isinstance(points[0], ExtendedPoint) else loop_reduced_form
    return np.array([form(pt, v) for pt, v in zip(points, loop_velocities(times, points))])


def loop_decrements(times, points, spec: ReductionSpec) -> np.ndarray:
    """S dT + sum over frozen j of p_j dq_j at every sample."""
    out = []
    for pt, (_, _, dT, _, dq) in zip(points, loop_velocities(times, points)):
        total = pt.S * dT
        for i in spec.frozen_q:
            total += pt.p[i] * dq[i]
        out.append(float(total))
    return np.array(out)


def loop_entropy_rates(times, points) -> np.ndarray:
    """The extended form over T at every sample."""
    vels = loop_velocities(times, points)
    return np.array([loop_extended_form(pt, v) / pt.T for pt, v in zip(points, vels)])


def loop_reduce_point(pt: ExtendedPoint, spec: ReductionSpec) -> ReducedPoint:
    spec.validate_for_dimension(pt.n)
    if spec.T0 is not None and abs(pt.T - spec.T0) > spec.tol:
        raise ReductionError("temperature constraint violated")
    for i, pinned in spec.frozen_q.items():
        if pinned is not None and abs(pt.q[i] - pinned) > spec.tol:
            raise ReductionError(f"frozen intensive constraint violated at q_{i + 1}")
    for e in spec.zeroed_p:
        if abs(pt.p[e]) > spec.tol:
            raise ReductionError(f"zeroed extensive constraint violated at p_{e + 1}")
    return ReducedPoint(pt.z, pt.p[: spec.k], pt.q[: spec.k])


def loop_entropy(w, r) -> float:
    terms = np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0)
    return -float(np.dot(w, terms))


def loop_pressures(w, v_bar, r) -> np.ndarray:
    return -(v_bar @ (w * r))


def loop_free_energy(w, h, T: float, q, r) -> float:
    return float(-T * loop_entropy(w, r) + np.dot(w * h.energies(q), r))


def loop_lift(sp, h, T: float, q, rho) -> ExtendedPoint:
    """One node of the relaxation lift, from one-vector np.dot and ``@`` sums."""
    r = ms.Density(rho).rho
    w = sp.weights
    z = -loop_free_energy(w, h, T, q, r)
    return ExtendedPoint(z, loop_entropy(w, r), T, loop_pressures(w, h.v_bar, r), q)


def loop_relax_lift(sp, h, q, t_grid, temperatures, rho_rows):
    """Reduced points, G values and form values of a relaxation's nodes."""
    q = np.asarray(q, dtype=float).reshape(-1)
    reduced = []
    G_values = np.empty(len(t_grid))
    for j, r in enumerate(rho_rows):
        T_j = temperatures[j]
        ext = loop_lift(sp, h, T_j, q, r)
        reduced.append(loop_reduce_point(ext, ReductionSpec(k=q.size, T0=T_j)))
        G_values[j] = -ext.z
    z = np.array([pt.z for pt in reduced])
    return tuple(reduced), G_values, np.diff(z) / np.diff(t_grid)


def _header(points) -> list[str]:
    d = points[0].p.size
    head = ["t", "z", "S", "T"] if isinstance(points[0], ExtendedPoint) else ["t", "z"]
    return head + [f"p_{j + 1}" for j in range(d)] + [f"q_{j + 1}" for j in range(d)]


def loop_path_to_csv(times, points, fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_header(points))
    for t, row in zip(times, _coordinate_matrix(points)):
        writer.writerow(["%.17g" % v for v in [t, *row]])


def loop_path_from_csv(fh: IO[str]):
    """``(times, points)`` of a path CSV with a valid header."""
    reader = csv.reader(fh)
    header = next(reader)
    width = len(header)
    extended = header[2] == "S"
    n = (width - (4 if extended else 2)) // 2
    times, points = [], []
    for row in reader:
        if not row:
            continue
        vals = [float(x) for x in row]
        times.append(vals[0])
        if extended:
            points.append(
                ExtendedPoint(vals[1], vals[2], vals[3], vals[4 : 4 + n], vals[4 + n :])
            )
        else:
            points.append(ReducedPoint(vals[1], vals[2 : 2 + n], vals[2 + n :]))
    return np.array(times), tuple(points)
