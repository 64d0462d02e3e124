"""Finite-microstate statistical mechanics.

A system is a finite set of microstates carrying positive measure weights
w_i, together with an affine Hamiltonian

    H(q, m_i) = v_int[i] + sum_j q_j * v_bar[j, i].

A density is a float row rho of length m with finite, non-negative entries
normalized against the weights, sum_i w_i rho_i = 1.  Every function that
takes one accepts any array-like and checks it on entry with
:func:`check_density`; every density returned (a Gibbs density, a row of a
relaxation, a table read from CSV) is a read-only float array.
Entropy, internal energy, generalized pressures and free energy are weighted
sums over the states; the Gibbs density exp(-H/T)/Z minimizes the free energy
and is evaluated through log-sum-exp so that small temperatures do not
overflow.  The partition function is kept as its logarithm.

Systems with a general (non-affine) dependence on q can be handled at a fixed
q by tabulating H(q, .) into ``v_int`` with ``v_bar = 0``; pressures then need
a caller-supplied dH/dq tabulation and are out of scope here.

All operations are pure functions; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from ._solve import logsumexp
from .phase_space import _array, _first, _opened, _scalar, read_csv, write_csv

# largest |sum_i w_i rho_i - 1| of a density (absolute, in mass)
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class MicrostateSpace:
    """A finite microstate set with strictly positive weights."""

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "weights", w := _array(self.weights, "weights"))
        if w.size < 1:
            raise ValueError("need at least one microstate")
        if len(self.labels) != w.size:
            raise ValueError("labels and weights must have equal length")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")

    @property
    def m(self) -> int:
        return self.weights.size

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


# Row formulas shared by the one-density functions and lift_rows.  Each
# takes an (N, m) array of densities and returns one value per row;
# np.vecdot sums each row as np.dot sums one vector, and the stacked
# np.matmul multiplies each row as ``@`` does, so a single row gives the
# same bits as the one-vector form.

def _check_rows(w: np.ndarray, R: np.ndarray) -> None:
    """Raise for the first row r (of an R read by ``_array``, so finite) with a
    negative entry, or else for the first whose mass sum_i w_i r_i is not 1."""

    def what(i) -> str:
        return "density" if len(R) == 1 else f"density row {i}"

    bad = _first(R < 0)
    if bad is not None:
        raise ValueError(f"{what(bad)} has negative or non-finite entries")
    mass = np.vecdot(R, w)
    bad = _first(np.abs(mass - 1.0) > NORMALIZATION_TOL)
    if bad is not None:
        raise ValueError(
            f"{what(bad)} mass is {float(mass[bad])!r}, not 1 within {NORMALIZATION_TOL}"
        )


def _entropy_rows(w: np.ndarray, R: np.ndarray) -> np.ndarray:
    """- sum_i w_i r_i ln r_i per row r, with the 0 ln 0 := 0 convention."""
    terms = np.where(R > 0, R * np.log(np.where(R > 0, R, 1.0)), 0.0)
    # 0.0 - x, not -x: a zero entropy is +0.0, and any other keeps its bits
    return 0.0 - np.vecdot(terms, w)


def _pressure_rows(w: np.ndarray, v_bar: np.ndarray, R: np.ndarray) -> np.ndarray:
    """p_j = - sum_i w_i v_bar[j, i] r_i per row r, shape (N, n)."""
    return -np.matmul(v_bar, (R * w)[:, :, None])[:, :, 0]


def _free_energy_rows(w, h: AffineHamiltonian, T, q, R, S) -> np.ndarray:
    """-T S + sum_i w_i H(q, m_i) r_i per row r, given the rows' entropies S."""
    return -T * S + np.vecdot(R, w * h.energies(q))


def check_density(sp: MicrostateSpace, rho) -> np.ndarray:
    """rho as a read-only float row, once it is checked to be a density on
    sp: m entries, finite and non-negative, of mass 1.  Raises ValueError."""
    r = _array(rho, "density")
    if r.size != sp.m:
        raise ValueError(f"density has {r.size} entries for a space of {sp.m} states")
    _check_rows(sp.weights, r[None, :])
    return r


def uniform_density(sp: MicrostateSpace) -> np.ndarray:
    return check_density(sp, np.full(sp.m, 1.0 / sp.total_weight))


def normalized_density(sp: MicrostateSpace, values) -> np.ndarray:
    """Rescale non-negative values so that sum_i w_i rho_i = 1."""
    v = _array(values, "density values")
    if not np.all(v >= 0):
        raise ValueError("density values must be non-negative")
    mass = float(np.dot(sp.weights, v))
    if mass <= 0:
        raise ValueError("density values must have positive total mass")
    return check_density(sp, v / mass)


def total_variation(sp: MicrostateSpace, a, b) -> float:
    """Total-variation distance (1/2) sum_i w_i |a_i - b_i|, in [0, 1].

    Two densities of disjoint support are 1 apart: the sum can exceed 2 only
    by the rounding of their masses, within NORMALIZATION_TOL, so it is
    clipped at 1.
    """
    a = check_density(sp, a)
    b = check_density(sp, b)
    return min(1.0, 0.5 * float(np.dot(sp.weights, np.abs(a - b))))


@dataclass(frozen=True)
class AffineHamiltonian:
    """H(q, m_i) = v_int[i] + sum_j q_j v_bar[j, i] on m states, q in R^n."""

    v_int: np.ndarray
    v_bar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v_int", vi := _array(self.v_int, "v_int"))
        object.__setattr__(self, "v_bar", vb := _array(self.v_bar, "v_bar", ndim=2))
        if vb.shape[1] != vi.size:
            raise ValueError(
                f"v_bar has {vb.shape[1]} columns for {vi.size} states"
            )
        if vb.shape[0] < 1:
            raise ValueError("need at least one intensive variable")

    @property
    def m(self) -> int:
        return self.v_int.size

    @property
    def n(self) -> int:
        return self.v_bar.shape[0]

    def energies(self, q) -> np.ndarray:
        """Per-state energies H(q, m_i)."""
        q = _array(q, "q")
        if q.size != self.n:
            raise ValueError(f"q has length {q.size}, expected {self.n}")
        return self.v_int + q @ self.v_bar


@dataclass(frozen=True)
class GibbsResult:
    rho_g: np.ndarray
    log_z: float


def _check_dims(sp: MicrostateSpace, h: AffineHamiltonian):
    if h.m != sp.m:
        raise ValueError(f"Hamiltonian has {h.m} states, space has {sp.m}")


def entropy(sp: MicrostateSpace, rho) -> float:
    """- sum_i w_i rho_i ln rho_i, with the 0 ln 0 := 0 convention."""
    r = check_density(sp, rho)
    return float(_entropy_rows(sp.weights, r[None, :])[0])


def internal_energy(sp: MicrostateSpace, h: AffineHamiltonian, rho) -> float:
    """Mean of the internal-energy table: sum_i w_i v_int[i] rho_i."""
    _check_dims(sp, h)
    return float(np.dot(sp.weights * h.v_int, check_density(sp, rho)))


def pressures(sp: MicrostateSpace, h: AffineHamiltonian, rho) -> np.ndarray:
    """Generalized pressures p_j = - sum_i w_i v_bar[j, i] rho_i."""
    _check_dims(sp, h)
    return _pressure_rows(sp.weights, h.v_bar, check_density(sp, rho)[None, :])[0]


def free_energy(sp: MicrostateSpace, h: AffineHamiltonian, T: float, q, rho) -> float:
    """G(T, q, rho) = -T S(rho) + sum_i w_i H(q, m_i) rho_i.

    Equals U - T S - sum_j p_j q_j; the two routes agree to roundoff.
    """
    T = _scalar(T, "temperature", positive=True)
    _check_dims(sp, h)
    R = check_density(sp, rho)[None, :]
    S = _entropy_rows(sp.weights, R)
    return float(_free_energy_rows(sp.weights, h, T, q, R, S)[0])


def _beyond_double(what: str, T, q, detail: str) -> FloatingPointError:
    q = _array(q, "q").tolist()
    return FloatingPointError(
        f"{what} at T={float(T)!r}, q={q} is beyond double precision ({detail})"
    )


def gibbs(sp: MicrostateSpace, h: AffineHamiltonian, T: float, q) -> GibbsResult:
    """Free-energy minimizer exp(-H(q, .)/T)/Z and log Z (weighted).

    Where |log Z| is so large that its rounding scales every entry alike
    and the mass misses 1 by more than NORMALIZATION_TOL, the density is
    divided by its mass.  Raises FloatingPointError, naming T and q, when
    doubles cannot hold the result: log Z is not finite (H/T overflows), or
    the mass is still not 1.
    """
    T = _scalar(T, "temperature", positive=True)
    _check_dims(sp, h)
    with np.errstate(over="ignore", invalid="ignore"):
        a = -h.energies(q) / T
        log_z = logsumexp(a, sp.weights)
        rho = np.exp(a - log_z)
    mass = float(np.vecdot(rho, sp.weights))
    if math.isfinite(log_z) and 0.0 < mass < math.inf and abs(mass - 1.0) > NORMALIZATION_TOL:
        rho /= mass
        mass = float(np.vecdot(rho, sp.weights))
    if not (math.isfinite(log_z) and abs(mass - 1.0) <= NORMALIZATION_TOL):
        raise _beyond_double("the Gibbs density", T, q, f"log Z = {log_z!r}, mass {mass!r}")
    rho.flags.writeable = False
    return GibbsResult(rho, log_z)


def _lift(sp: MicrostateSpace, h: AffineHamiltonian, T, q, R: np.ndarray):
    """(z, S, p) of each row of R, densities on sp already checked, with
    z = -G at (T, q); T is one temperature per row or one for all."""
    _check_dims(sp, h)
    T = np.broadcast_to(T, R.shape[:1])
    if not np.all(T > 0):
        raise ValueError("temperatures must be positive and finite")
    w = sp.weights
    S = _entropy_rows(w, R)
    G = _free_energy_rows(w, h, T, q, R, S)
    return -G, S, _pressure_rows(w, h.v_bar, R)


def lift_rows(
    sp: MicrostateSpace, h: AffineHamiltonian, T, q, rho
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lift many densities at once: (z, S, p) for each row of rho.

    ``rho`` is an (N, m) array of densities, ``T`` a temperature per row
    (or one for all) and q the intensive values shared by every row.
    Returns z = -G of shape (N,), S of shape (N,) and p of shape (N, n).
    Rows are checked as :func:`check_density` checks one density; the
    error names the first bad row.  Each row's value equals what
    :func:`free_energy`, :func:`entropy` and :func:`pressures` give for it,
    since both go through the same row formulas.
    """
    R = _array(rho, "densities", ndim=2)
    if R.shape[1] != sp.m:
        raise ValueError(f"densities must have shape (N, {sp.m}), got {R.shape}")
    _check_rows(sp.weights, R)
    return _lift(sp, h, _array(T, "temperatures"), q, R)


def lift_to_extended(
    sp: MicrostateSpace, h: AffineHamiltonian, T: float, q, rho
) -> tuple[float, float, np.ndarray]:
    """(z, S, p) of one density at (T, q), z = -G: with T and q, its point
    of the extended phase space.  Raises FloatingPointError, naming T and
    q, when one of them overflows."""
    T = _scalar(T, "temperature", positive=True)
    with np.errstate(over="ignore", invalid="ignore"):
        z, S, p = _lift(sp, h, T, q, check_density(sp, rho)[None, :])
    if not np.all(np.isfinite([z[0], S[0], *p[0]])):
        raise _beyond_double("the lift", T, q, f"z = {float(z[0])!r}, p = {p[0].tolist()}")
    return float(z[0]), float(S[0]), p[0]


# ---------------------------------------------------------------------------
# serialization

def load_system(source) -> tuple[MicrostateSpace, AffineHamiltonian]:
    """Build a system from a JSON document.

    Accepts a dict, a path, or an open file.  Schema:
    {"labels": [...], "weights": [...], "v_int": [...], "v_bar": [[...]]}.
    Raises ValueError for a document that is not an object, lacks a key or
    holds a key whose value is not a list.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with _opened(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a system document must be a JSON object")
    required = ("labels", "weights", "v_int", "v_bar")
    missing = set(required) - set(doc)
    if missing:
        raise ValueError(f"system document is missing keys: {sorted(missing)}")
    for key in required:
        if not isinstance(doc[key], list):
            raise ValueError(f"system key {key!r} must be a JSON list")
    sp = MicrostateSpace(tuple(doc["labels"]), doc["weights"])
    h = AffineHamiltonian(doc["v_int"], doc["v_bar"])
    if h.m != sp.m:
        raise ValueError("v_int/v_bar state count does not match labels/weights")
    return sp, h


def save_system(
    sp: MicrostateSpace, h: AffineHamiltonian, dest: str | os.PathLike | IO[str]
) -> None:
    doc = {
        "labels": list(sp.labels),
        "weights": sp.weights.tolist(),
        "v_int": h.v_int.tolist(),
        "v_bar": h.v_bar.tolist(),
    }
    with _opened(dest, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)


def densities_to_csv(densities, dest: str | os.PathLike | IO[str]) -> None:
    """One density per row of the (N, m) array-like, columns rho_1..rho_m."""
    rows = _array(densities, "densities", ndim=2)
    if rows.size == 0:
        raise ValueError(f"need a non-empty (N, m) table of densities, got shape {rows.shape}")
    write_csv(dest, [f"rho_{i + 1}" for i in range(rows.shape[1])], rows)


def densities_from_csv(src: str | os.PathLike | IO[str]) -> np.ndarray:
    """Read densities written by :func:`densities_to_csv` as one table.

    Returns a read-only (N, m) array, one density per row.  The header
    must be exactly rho_1..rho_m with m >= 1.  Raises ValueError, naming
    the line, on any other header, on a negative or non-finite entry, and
    as :func:`phase_space.read_csv` does (no header row, a row whose width
    differs from the header's, a cell that is not a number).
    """

    def header_error(header: list[str]) -> str | None:
        if header != [f"rho_{i + 1}" for i in range(len(header))]:
            return f"header {','.join(header)!r} is not rho_1..rho_m"
        return None

    _, table, lines = read_csv(src, "density", header_error)
    bad = _first(~(np.isfinite(table) & (table >= 0)))
    if bad is not None:
        raise ValueError(
            f"density CSV line {lines[bad]}: density entries must be finite and non-negative"
        )
    table.flags.writeable = False
    return table
