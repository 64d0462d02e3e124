"""Extended and reduced thermodynamic phase spaces.

The extended phase space carries coordinates (z, S, T, p, q) where z is the
negative free energy, S the entropy, T the temperature, and (p, q) the n
pairs of extensive/intensive variables.  The reduced phase space keeps only
(z, p_1..p_k, q_1..q_k).  The contact forms evaluated here are

    extended:  dz - S dT - sum_j p_j dq_j
    reduced:   dz - sum_j p_j dq_j

A sampled path is admissible when the form paired with its velocity is
non-negative at every sample.  Only the sign of the verdict is independent
of the choice of contact form representing the co-oriented distribution;
the numeric values reported are specific to the two forms above.

All operations are pure functions over immutable inputs and are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence, Union

import numpy as np

DEFAULT_SLACK = 1e-9
DEFAULT_REDUCTION_TOL = 1e-9


class ReductionError(ValueError):
    """A point violates one of the constraints pinned by a ReductionSpec."""


def _vector(x, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float, copy=True).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must have length >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr!r}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ExtendedPoint:
    """A point (z, S, T, p, q) of the extended phase space."""

    z: float
    S: float
    T: float
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "p", _vector(self.p, "p"))
        object.__setattr__(self, "q", _vector(self.q, "q"))
        if not self.T > 0:
            raise ValueError(f"temperature must be positive, got {self.T}")
        if self.S < 0:
            raise ValueError(f"entropy must be non-negative, got {self.S}")
        if self.p.size != self.q.size:
            raise ValueError(
                f"p and q must have equal length, got {self.p.size} and {self.q.size}"
            )

    @property
    def n(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class ExtendedVelocity:
    """Time derivatives paired with an :class:`ExtendedPoint`."""

    dz: float
    dS: float
    dT: float
    dp: np.ndarray
    dq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dz", float(self.dz))
        object.__setattr__(self, "dS", float(self.dS))
        object.__setattr__(self, "dT", float(self.dT))
        object.__setattr__(self, "dp", _vector(self.dp, "dp"))
        object.__setattr__(self, "dq", _vector(self.dq, "dq"))
        if self.dp.size != self.dq.size:
            raise ValueError("dp and dq must have equal length")

    @property
    def n(self) -> int:
        return self.dp.size


@dataclass(frozen=True)
class ReducedPoint:
    """A point (z, p, q) of the reduced phase space."""

    z: float
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "p", _vector(self.p, "p"))
        object.__setattr__(self, "q", _vector(self.q, "q"))
        if self.p.size != self.q.size:
            raise ValueError("p and q must have equal length")

    @property
    def k(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class ReducedVelocity:
    dz: float
    dp: np.ndarray
    dq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dz", float(self.dz))
        object.__setattr__(self, "dp", _vector(self.dp, "dp"))
        object.__setattr__(self, "dq", _vector(self.dq, "dq"))
        if self.dp.size != self.dq.size:
            raise ValueError("dp and dq must have equal length")

    @property
    def k(self) -> int:
        return self.dp.size


@dataclass(frozen=True)
class ReductionSpec:
    """Which variables a reduction keeps, freezes or zeroes.

    The first ``k`` (p, q) pairs survive the projection.  ``frozen_q`` maps
    each reduced intensive index (0-based) to its pinned value, or to None
    when the index is reduced without a membership constraint (useful for
    projecting paths whose reduced intensive variables move, e.g. under a
    temperature ramp).  ``zeroed_p`` lists the indices whose extensive
    variables must vanish.  Together with {0..k-1} these index sets must
    partition {0..n-1}.  ``T0`` pins the temperature when given; the output
    always drops S and T.
    """

    k: int
    frozen_q: Mapping[int, float | None] = field(default_factory=dict)
    zeroed_p: tuple[int, ...] = ()
    T0: float | None = None
    tol: float = DEFAULT_REDUCTION_TOL

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("reduction must keep at least one (p, q) pair")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")

    def validate_for_dimension(self, n: int) -> None:
        kept = set(range(self.k))
        frozen = set(self.frozen_q)
        zeroed = set(self.zeroed_p)
        if frozen & zeroed or kept & (frozen | zeroed):
            raise ValueError("kept, frozen and zeroed index sets must be disjoint")
        if kept | frozen | zeroed != set(range(n)):
            raise ValueError(
                f"kept/frozen/zeroed indices must partition 0..{n - 1}, got "
                f"kept={sorted(kept)}, frozen={sorted(frozen)}, zeroed={sorted(zeroed)}"
            )


Point = Union[ExtendedPoint, ReducedPoint]
Velocity = Union[ExtendedVelocity, ReducedVelocity]


@dataclass(frozen=True)
class SampledPath:
    """A path sampled at strictly increasing times.

    All points must be of the same kind (extended or reduced) and dimension.
    """

    times: np.ndarray
    points: tuple[Point, ...]

    def __post_init__(self):
        times = np.array(self.times, dtype=float, copy=True).reshape(-1)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise ValueError("a sampled path needs at least 2 samples")
        if times.size != len(self.points):
            raise ValueError("times and points must have equal length")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        first = self.points[0]
        if isinstance(first, ExtendedPoint):
            dims = {pt.n for pt in self.points if isinstance(pt, ExtendedPoint)}
        else:
            dims = {pt.k for pt in self.points if isinstance(pt, ReducedPoint)}
        if len(dims) != 1 or not all(isinstance(pt, type(first)) for pt in self.points):
            raise ValueError("all points must share one kind and dimension")

    @property
    def kind(self) -> str:
        return "extended" if isinstance(self.points[0], ExtendedPoint) else "reduced"

    @property
    def n_samples(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        first = self.points[0]
        return first.n if isinstance(first, ExtendedPoint) else first.k


@dataclass(frozen=True)
class NonnegReport:
    """Outcome of a non-negativity check on a sampled path."""

    min_form_value: float
    violating_indices: tuple[int, ...]
    per_step_values: np.ndarray
    verdict: str
    slack: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "min_form_value": self.min_form_value,
                "violations": list(self.violating_indices),
                "verdict": self.verdict,
            },
            sort_keys=True,
        )


def eval_extended_form(pt: ExtendedPoint, v: ExtendedVelocity) -> float:
    """Pair the extended contact form with a velocity: dz - S dT - p . dq."""
    if pt.n != v.n:
        raise ValueError(f"dimension mismatch: point n={pt.n}, velocity n={v.n}")
    return float(v.dz - pt.S * v.dT - np.dot(pt.p, v.dq))


def eval_reduced_form(pt: ReducedPoint, v: ReducedVelocity) -> float:
    """Pair the reduced contact form with a velocity: dz - p . dq."""
    if pt.k != v.k:
        raise ValueError(f"dimension mismatch: point k={pt.k}, velocity k={v.k}")
    return float(v.dz - np.dot(pt.p, v.dq))


def _coordinate_matrix(path: SampledPath) -> np.ndarray:
    if path.kind == "extended":
        return np.array(
            [[pt.z, pt.S, pt.T, *pt.p, *pt.q] for pt in path.points], dtype=float
        )
    return np.array([[pt.z, *pt.p, *pt.q] for pt in path.points], dtype=float)


def path_velocities(path: SampledPath) -> list[Velocity]:
    """Estimate velocities at every sample of a path.

    Central differences at interior nodes (second order on non-uniform
    grids), one-sided differences at the endpoints (second order when the
    path has at least three samples).
    """
    coords = _coordinate_matrix(path)
    edge_order = 2 if path.n_samples >= 3 else 1
    vel = np.gradient(coords, path.times, axis=0, edge_order=edge_order)
    d = path.dimension
    out: list[Velocity] = []
    if path.kind == "extended":
        for row in vel:
            out.append(
                ExtendedVelocity(row[0], row[1], row[2], row[3 : 3 + d], row[3 + d :])
            )
    else:
        for row in vel:
            out.append(ReducedVelocity(row[0], row[1 : 1 + d], row[1 + d :]))
    return out


def check_path_nonnegative(
    path: SampledPath, which_form: str | None = None, slack: float = DEFAULT_SLACK
) -> NonnegReport:
    """Certify that the contact form is >= -slack along a sampled path.

    Velocities come from :func:`path_velocities`; the form is evaluated at
    every sample and the verdict reflects the minimum value.
    """
    if slack < 0:
        raise ValueError("slack must be non-negative")
    if which_form is not None and which_form != path.kind:
        raise ValueError(
            f"requested form {which_form!r} but the path is {path.kind!r}"
        )
    form = eval_extended_form if path.kind == "extended" else eval_reduced_form
    values = np.array(
        [form(pt, v) for pt, v in zip(path.points, path_velocities(path))]
    )
    values.flags.writeable = False
    violating = tuple(int(i) for i in np.nonzero(values < -slack)[0])
    min_value = float(values.min())
    verdict = "nonnegative" if min_value >= -slack else "violated"
    return NonnegReport(min_value, violating, values, verdict, slack)


def admissibility_decrement(
    pt: ExtendedPoint, v: ExtendedVelocity, spec: ReductionSpec
) -> float:
    """Free-energy decrement contributed by the reduced intensive variables.

    Returns S dT + sum over frozen indices of p_j dq_j.  The S dT term is the
    temperature's contribution; it vanishes for temperature-frozen paths.
    """
    if pt.n != v.n:
        raise ValueError(f"dimension mismatch: point n={pt.n}, velocity n={v.n}")
    spec.validate_for_dimension(pt.n)
    total = pt.S * v.dT
    for i in spec.frozen_q:
        total += pt.p[i] * v.dq[i]
    return float(total)


def _reduce_point(pt: ExtendedPoint, spec: ReductionSpec) -> ReducedPoint:
    spec.validate_for_dimension(pt.n)
    if spec.T0 is not None and abs(pt.T - spec.T0) > spec.tol:
        raise ReductionError(
            f"temperature constraint violated: |T - T0| = {abs(pt.T - spec.T0):.3e} "
            f"> tol={spec.tol:.3e}"
        )
    for i, pinned in spec.frozen_q.items():
        if pinned is not None and abs(pt.q[i] - pinned) > spec.tol:
            raise ReductionError(
                f"frozen intensive constraint violated at q_{i + 1}: "
                f"|q - q0| = {abs(pt.q[i] - pinned):.3e} > tol={spec.tol:.3e}"
            )
    for e in spec.zeroed_p:
        if abs(pt.p[e]) > spec.tol:
            raise ReductionError(
                f"zeroed extensive constraint violated at p_{e + 1}: "
                f"|p| = {abs(pt.p[e]):.3e} > tol={spec.tol:.3e}"
            )
    return ReducedPoint(pt.z, pt.p[: spec.k], pt.q[: spec.k])


def reduce(
    pt_or_path: ExtendedPoint | SampledPath, spec: ReductionSpec
) -> ReducedPoint | SampledPath:
    """Project an extended point (or path, pointwise) to (z, p_1..k, q_1..k).

    Constraints pinned by the spec (T0, frozen q values, zeroed p) are
    enforced per point within spec.tol and violations are rejected naming
    the constraint.
    """
    if isinstance(pt_or_path, SampledPath):
        if pt_or_path.kind != "extended":
            raise ValueError("only extended paths can be reduced")
        pts = tuple(_reduce_point(pt, spec) for pt in pt_or_path.points)
        return SampledPath(pt_or_path.times, pts)
    return _reduce_point(pt_or_path, spec)


def irreversible_entropy_rate(pt: ExtendedPoint, v: ExtendedVelocity) -> float:
    """Entropy production rate of a path element: form value divided by T."""
    return eval_extended_form(pt, v) / pt.T


# ---------------------------------------------------------------------------
# serialization

_FMT = "%.17g"


def _format_row(values: Sequence[float]) -> list[str]:
    return [_FMT % v for v in values]


def path_to_csv(path: SampledPath, dest: str | IO[str]) -> None:
    """Write a path as CSV.

    Extended header: t,z,S,T,p_1..p_n,q_1..q_n; reduced: t,z,p_1..p_k,q_1..q_k.
    Values carry full double precision.
    """
    d = path.dimension
    if path.kind == "extended":
        header = (
            ["t", "z", "S", "T"]
            + [f"p_{j + 1}" for j in range(d)]
            + [f"q_{j + 1}" for j in range(d)]
        )
    else:
        header = (
            ["t", "z"]
            + [f"p_{j + 1}" for j in range(d)]
            + [f"q_{j + 1}" for j in range(d)]
        )
    coords = _coordinate_matrix(path)

    def write(fh: IO[str]) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t, row in zip(path.times, coords):
            writer.writerow(_format_row([t, *row]))

    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            write(fh)
    else:
        write(dest)


def path_from_csv(src: str | IO[str]) -> SampledPath:
    """Read a path written by :func:`path_to_csv` (header decides the kind).

    Raises ValueError, naming the line, on a row whose width differs from
    the header's.
    """

    def read(fh: IO[str]) -> SampledPath:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError("path CSV has no header row")
        width = len(header)
        extended = width > 2 and header[2] == "S"
        n_pairs = (width - (4 if extended else 2)) // 2
        times = []
        points: list[Point] = []
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"path CSV line {reader.line_num}: {len(row)} fields, "
                    f"the header has {width}"
                )
            vals = [float(x) for x in row]
            times.append(vals[0])
            if extended:
                points.append(
                    ExtendedPoint(
                        vals[1],
                        vals[2],
                        vals[3],
                        vals[4 : 4 + n_pairs],
                        vals[4 + n_pairs :],
                    )
                )
            else:
                points.append(
                    ReducedPoint(vals[1], vals[2 : 2 + n_pairs], vals[2 + n_pairs :])
                )
        return SampledPath(np.array(times), tuple(points))

    if isinstance(src, str):
        with open(src, newline="") as fh:
            return read(fh)
    return read(src)
