"""Extended and reduced thermodynamic phase spaces.

The extended phase space carries coordinates (z, S, T, p, q) where z is the
negative free energy, S the entropy, T the temperature, and (p, q) the n
pairs of extensive/intensive variables.  The reduced phase space keeps only
(z, p_1..p_k, q_1..q_k).  The contact forms evaluated here are

    extended:  dz - S dT - sum_j p_j dq_j
    reduced:   dz - sum_j p_j dq_j

A sampled path is admissible when the form paired with its velocity is
non-negative at every sample.  The forms read only the time derivatives of
z, T and q, each the gradient of its own column: second-order central
differences at interior samples (on non-uniform grids too) and one-sided
differences at the two end samples (second order with three or more
samples, first order with two).  Paths are stored by column (one array per
coordinate), so certification, reduction and CSV I/O work on whole arrays.
Only the sign of the verdict is independent of the choice of contact form
representing the co-oriented distribution; the numeric values reported are
specific to the two forms above.

All operations are pure functions over immutable inputs and are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import IO, ContextManager, Mapping

import numpy as np

# check_path_nonnegative: default slack of the form below zero (absolute, in form value)
DEFAULT_SLACK = 1e-9
# ReductionSpec: default tolerance of a pinned T, q or zeroed p (absolute, in that coordinate)
DEFAULT_REDUCTION_TOL = 1e-9


class ReductionError(ValueError):
    """A path sample violates one of the constraints pinned by a ReductionSpec."""


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
        object.__setattr__(self, "k", _scalar(self.k, "k", count=True, at_least=1))
        object.__setattr__(self, "tol", _scalar(self.tol, "tol", at_least=0))
        if self.T0 is not None:
            object.__setattr__(self, "T0", _scalar(self.T0, "T0"))
        pins = {}
        for i, v in self.frozen_q.items():
            i = _scalar(i, "frozen_q index", count=True, at_least=0)
            pins[i] = None if v is None else _scalar(v, f"frozen_q[{i}]")
        object.__setattr__(self, "frozen_q", pins)
        zeroed = tuple(_scalar(e, "zeroed_p index", count=True, at_least=0) for e in self.zeroed_p)
        object.__setattr__(self, "zeroed_p", zeroed)

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


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry (of the first row holding one, in a
    mask of two or more dimensions), or None."""
    if mask.ndim > 1:
        mask = mask.any(axis=tuple(range(1, mask.ndim)))
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


# the types of a count and of a real scalar argument; bool, a subclass of
# int, is neither (tuples of concrete types: isinstance against the
# numbers ABCs cost ~0.7 µs a call on a 2-vCPU x86-64 VM under Python 3.11)
_COUNTS = (int, np.integer)
_REALS = (float, np.floating, *_COUNTS)


def _float(number) -> float:
    """float(number), with an int beyond the largest double read as inf."""
    try:
        return float(number)
    except OverflowError:
        return math.inf


def _scalar(value, name: str, *, positive: bool = False, inside: tuple | None = None,
            at_least=None, at_most=None, count: bool = False):
    """A scalar argument as a float, or as an int for a ``count``, once it is
    checked: a real number (an integer for a count) and not a bool, finite,
    and, where asked, positive, inside the open interval ``inside``, at
    least ``at_least`` and at most ``at_most``; else a ValueError naming it."""
    if type(value) is bool or not isinstance(value, _COUNTS if count else _REALS):
        raise ValueError(f"{name} must be {'an integer' if count else 'a number'}, got {value!r}")
    number = int(value) if count else _float(value)
    if not (count or math.isfinite(number)):
        raise ValueError(f"{name} must be finite, got {number!r}")
    if positive and not number > 0:
        raise ValueError(f"{name} must be positive")
    if inside is not None and not inside[0] < number < inside[1]:
        raise ValueError(f"{name} must lie in {inside}, got {number!r}")
    if at_least is not None and not number >= at_least:
        word = "non-negative" if at_least == 0 else f"at least {at_least}"
        raise ValueError(f"{name} must be {word}")
    if at_most is not None and not number <= at_most:
        raise ValueError(f"{name} must be at most {at_most}, got {number!r}")
    return number


def _array(values, name: str, ndim: int = 1) -> np.ndarray:
    """An array argument as a read-only float copy of real numbers, not bools, all
    finite (an int beyond doubles reads as inf), with exactly ``ndim`` dimensions (a
    number is a vector of one); else a ValueError naming it and a bad entry's row."""
    arr = values
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        # the entries as Python objects: a float conversion takes a bool, text or None
        arr = np.array(values, dtype=object, ndmin=1)
        real = [type(x) is not bool and isinstance(x, _REALS) for x in arr.flat]
        if not all(real):
            bad = _first(~np.reshape(real, arr.shape))
            got = arr[bad : bad + 1].tolist()[0]
            raise ValueError(f"{name} must be an array of numbers: got {got!r} at index {bad}")
    try:
        arr = np.array(arr, dtype=float, ndmin=1)
    except OverflowError:
        arr = np.reshape([_float(x) for x in arr.flat], arr.shape)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = _first(~finite)
        raise ValueError(f"{name} must be finite, got {arr[bad].tolist()!r} at index {bad}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SampledPath:
    """A path sampled at strictly increasing times, stored by column.

    ``times`` and ``z`` have shape (N,), ``p`` and ``q`` shape (N, n).  An
    extended path also carries ``S`` and ``T`` of shape (N,); a reduced path
    leaves both None.  Every column is a read-only copy, checked once on
    construction: finite values, N >= 2, strictly increasing times, T > 0
    and S >= 0.  Errors name the first offending sample.
    """

    times: np.ndarray
    z: np.ndarray
    p: np.ndarray
    q: np.ndarray
    S: np.ndarray | None = None
    T: np.ndarray | None = None

    def __post_init__(self):
        cols = {"times": _array(self.times, "times")}
        n_rows = cols["times"].size
        if n_rows < 2:
            raise ValueError("a sampled path needs at least 2 samples")
        if (self.S is None) != (self.T is None):
            raise ValueError("an extended path needs both S and T, a reduced path neither")
        for name in ("z", "p", "q") if self.S is None else ("z", "p", "q", "S", "T"):
            # p and q are (N, n), or (N,) for a path of one pair
            values, matrix = getattr(self, name), name in ("p", "q")
            try:
                ndim = 2 if matrix and np.ndim(values) != 1 else 1
            except ValueError:  # a ragged list, which _array rejects by name
                ndim = 2
            arr = _array(values, name, ndim=ndim)
            cols[name] = arr = arr.reshape(-1, 1) if matrix and arr.ndim == 1 else arr
            if arr.shape[0] != n_rows or arr.size == 0:
                want = f"({n_rows}, n >= 1)" if matrix else f"({n_rows},)"
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
        if cols["p"].shape != cols["q"].shape:
            raise ValueError(
                f"p and q must have equal shapes, got {cols['p'].shape} and {cols['q'].shape}"
            )
        if self.S is not None:
            bad = _first(cols["T"] <= 0)
            if bad is not None:
                raise ValueError(
                    f"temperature must be positive, got {cols['T'][bad]} at sample {bad}"
                )
            bad = _first(cols["S"] < 0)
            if bad is not None:
                raise ValueError(
                    f"entropy must be non-negative, got {cols['S'][bad]} at sample {bad}"
                )
        bad = _first(np.diff(cols["times"]) <= 0)
        if bad is not None:
            raise ValueError(
                f"times must be strictly increasing, got {cols['times'][bad + 1]} after "
                f"{cols['times'][bad]} at sample {bad + 1}"
            )
        for name, arr in cols.items():
            object.__setattr__(self, name, arr)

    @property
    def kind(self) -> str:
        return "reduced" if self.S is None else "extended"

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def dimension(self) -> int:
        return self.p.shape[1]

    def coordinates(self) -> np.ndarray:
        """The (N, 1 + 2n) or (N, 3 + 2n) matrix of z[, S, T], p, q."""
        head = [self.z] if self.S is None else [self.z, self.S, self.T]
        return np.column_stack([*head, self.p, self.q])


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


def _derivatives(path: SampledPath) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The time derivatives that the contact forms read: dz, dT (None on a
    reduced path) and dq, of shape (N, n).

    One ``np.gradient`` of the columns z[, T], q alone, which it
    differentiates one by one: central differences at interior samples
    (second order on non-uniform grids too), one-sided differences at the
    end samples (second order when the path has at least three samples,
    first order with two).  dq is copied to a contiguous array, so that
    ``np.vecdot`` reads each row of it at unit stride.
    """
    head = [path.z] if path.T is None else [path.z, path.T]
    d = np.gradient(np.column_stack([*head, path.q]), path.times, axis=0,
                    edge_order=2 if path.n_samples >= 3 else 1)
    return d[:, 0], None if path.T is None else d[:, 1], np.ascontiguousarray(d[:, len(head):])


def _require_extended(path: SampledPath, what: str) -> None:
    if path.kind != "extended":
        raise ValueError(f"{what} needs an extended path, got a {path.kind} one")


def _per_sample(path: SampledPath, values: np.ndarray) -> np.ndarray:
    """``values``, one per sample, computed with over- and invalid-value
    warnings off.  Raises FloatingPointError, naming the first sample, where
    a value overflows doubles, as it does where a derivative that enters it
    overflows (the gradient does so for coordinates near the largest
    double)."""
    bad = _first(~np.isfinite(values))
    if bad is not None:
        raise FloatingPointError(
            f"the contact form along the path overflows doubles at sample {bad} "
            f"(t={float(path.times[bad])!r})"
        )
    return values


@np.errstate(over="ignore", invalid="ignore")
def check_path_nonnegative(path: SampledPath, slack: float = DEFAULT_SLACK) -> NonnegReport:
    """Certify that the contact form is >= -slack along a sampled path.

    The path's kind selects the form, dz - S dT - p . dq (extended) or
    dz - p . dq (reduced), evaluated on whole columns of
    :func:`_derivatives` (``p . dq`` through ``np.vecdot``, which sums each
    row as ``np.dot`` does); the verdict reflects the minimum value.
    Raises FloatingPointError as :func:`_per_sample` does.
    """
    slack = _scalar(slack, "slack", at_least=0)
    dz, dT, dq = _derivatives(path)
    form = dz if dT is None else dz - path.S * dT
    values = _per_sample(path, form - np.vecdot(path.p, dq))
    values.flags.writeable = False
    violating = tuple(np.flatnonzero(values < -slack).tolist())
    min_value = float(values.min())
    verdict = "nonnegative" if min_value >= -slack else "violated"
    return NonnegReport(min_value, violating, values, verdict, slack)


@np.errstate(over="ignore", invalid="ignore")
def admissibility_decrement(path: SampledPath, spec: ReductionSpec) -> np.ndarray:
    """Free-energy decrement contributed by the reduced intensive variables.

    Returns S dT + sum over frozen indices of p_j dq_j at every sample of an
    extended path.  The S dT term is the temperature's contribution; it
    vanishes for temperature-frozen paths.  Raises FloatingPointError as
    :func:`_per_sample` does.
    """
    _require_extended(path, "admissibility_decrement")
    spec.validate_for_dimension(path.dimension)
    _, dT, dq = _derivatives(path)
    total = path.S * dT
    for i in spec.frozen_q:
        total = total + path.p[:, i] * dq[:, i]
    return _per_sample(path, total)


def reduce(path: SampledPath, spec: ReductionSpec) -> SampledPath:
    """Project an extended path to (z, p_1..k, q_1..k).

    Constraints pinned by the spec (T0, frozen q values, zeroed p) are
    enforced on every sample within spec.tol.  The first sample that breaks
    one is rejected, naming the sample and the constraint (tried there in
    the order T0, frozen q, zeroed p).
    """
    if path.kind != "extended":
        raise ValueError("only extended paths can be reduced")
    spec.validate_for_dimension(path.dimension)
    checks = []
    if spec.T0 is not None:
        checks.append(
            ("temperature constraint violated", "|T - T0|", np.abs(path.T - spec.T0))
        )
    for i, pinned in spec.frozen_q.items():
        if pinned is not None:
            checks.append(
                (f"frozen intensive constraint violated at q_{i + 1}", "|q - q0|",
                 np.abs(path.q[:, i] - pinned))
            )
    for e in spec.zeroed_p:
        checks.append((f"zeroed extensive constraint violated at p_{e + 1}", "|p|",
                       np.abs(path.p[:, e])))
    worst = None
    for what, label, dev in checks:
        row = _first(dev > spec.tol)
        if row is not None and (worst is None or row < worst[0]):
            worst = (row, what, label, dev[row])
    if worst is not None:
        row, what, label, value = worst
        raise ReductionError(
            f"{what} (sample {row}): {label} = {value:.3e} > tol={spec.tol:.3e}"
        )
    return SampledPath(path.times, path.z, path.p[:, : spec.k], path.q[:, : spec.k])


@np.errstate(over="ignore", invalid="ignore")
def irreversible_entropy_rate(path: SampledPath) -> np.ndarray:
    """Entropy production rate at every sample of an extended path: the
    form value of :func:`check_path_nonnegative` divided by T.  Raises
    FloatingPointError as :func:`_per_sample` does."""
    _require_extended(path, "irreversible_entropy_rate")
    return _per_sample(path, check_path_nonnegative(path).per_step_values / path.T)


# ---------------------------------------------------------------------------
# serialization

_FMT = "%.17g"
# write_csv formats a table of at least this many cells through
# _format_cells, and a smaller one through one % expression: the kernel's
# cost per block (about 70 us) made it slower up to about 190 cells of a
# 6-column table, and 2.2 times faster at 606 (a count)
CSV_KERNEL_MIN_CELLS = 200
# write_csv: cells that _format_cells formats at once (whole rows, at least
# one).  Its temporaries take about 48 bytes a cell; over tables of 1206
# to 10010 cells, blocks of 2048 were the fastest and took under 0.3 minor
# page faults a pass, where glibc returned the temporaries of 4096-cell
# blocks to the system each time (257 faults a pass) (a count)
CSV_BLOCK_CELLS = 2048
# _format_cells: a cell takes %.17g instead unless its magnitude lies in
# [CSV_FAST_MIN, CSV_FAST_MAX), where no product of the kernel under- or
# overflows (absolute)
CSV_FAST_MIN = 1e-280
CSV_FAST_MAX = 1e280
# _format_cells: ... or unless its 17-digit scaled value lies this far
# inside [1e16, 1e17), which also catches a wrong log10 estimate (absolute,
# in units of the 17th digit)
CSV_END_MARGIN = 64.0
# _format_cells: ... or unless its scaled value lies at least this far from
# a half-integer, against an error of the double-double product under
# 2**-47 (2**-30; absolute, in units of the 17th digit)
CSV_HALF_MARGIN = 2.0**-30

# _format_cells lays each cell out in 48 bytes, then keeps the bytes its
# format prints and drops the rest (NUL):
#   0 '-' | 1 '0' | 2 '.' | 3-5 '000' | 6 d0 | 7 '.' | 8-39 d1 '.' d2 '.' ... d16 '.'
#   | 40 'e' | 41 exponent sign | 42-44 exponent digits | 45 separator | 46-47 NUL
# A cell's format is its class: (sign, form, number of significant digits),
# where the form is fixed notation with decimal exponent X = -4 .. 16, an
# exponent of 2 or 3 digits, zero, or a cell that %.17g formatted (raw).
_E_OFFSET = 300  # the table of 10^e holds e = -300 .. 300
_SPLIT = 134217729.0  # Dekker's splitter, 2^27 + 1
_X_MIN, _X_MAX = -4, 16  # %.17g prints fixed notation for X in this range
_EXP2, _EXP3, _ZERO, _RAW = 21, 22, 23, 24  # forms after the 21 fixed ones
_SD = 18  # significant digits 0 .. 17 per form
_NEG = 25 * _SD  # class offset of a negative cell
_cell_tables = None


def _class_mask(neg: bool, form: int, sd: int) -> np.ndarray:
    """The 48-byte mask (0xff keeps a byte) of the cells of one class."""
    digit = [6] + list(range(8, 40, 2))
    dot = [7] + list(range(9, 40, 2))
    keep = [0] if neg else []
    if form == _RAW:
        keep = list(range(45))
    elif form == _ZERO:
        keep.append(1)
    elif form >= _EXP2:
        keep += digit[:sd] + [dot[0]] * (sd > 1) + [40, 41] + [42] * (form == _EXP3) + [43, 44]
    elif form + _X_MIN >= 0:
        x = form + _X_MIN
        keep += digit[: max(sd, x + 1)] + [dot[x]] * (sd > x + 1)
    else:
        keep += [1, 2] + [3, 4, 5][: -(form + _X_MIN) - 1] + digit[:sd]
    mask = np.zeros(48, np.uint8)
    mask[keep + [45]] = 255
    return mask


def _build_cell_tables() -> tuple:
    """The tables of _format_cells, built on its first call (~2 ms)."""
    global _cell_tables
    powers = []
    for e in range(-_E_OFFSET, _E_OFFSET + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        powers.append((hi, (num * b - a * den) / (den * b)))  # lo = 10^e - hi, rounded
    hi, lo = np.array(powers).T.copy()
    t = _SPLIT * hi
    hi_hi = t - (t - hi)
    ks = np.arange(-_E_OFFSET, _E_OFFSET + 1)
    form = np.where((ks >= _X_MIN) & (ks <= _X_MAX), ks - _X_MIN,
                    np.where(np.abs(ks) < 100, _EXP2, _EXP3))
    _cell_tables = (
        hi, lo, hi_hi, hi - hi_hi,
        # bytes 0-7 by the first digit d0, and 8 bytes "d.d.d.d." by 4-digit group
        np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64),
        np.frombuffer("".join(".".join(f"{g:04d}") + "." for g in range(10000)).encode(),
                      np.uint64),
        # bytes 40-47 by decimal exponent k + _E_OFFSET
        np.frombuffer(b"".join(b"e%c%03d\0\0\0" % (b"-+"[k >= 0], abs(k)) for k in ks.tolist()),
                      np.uint64),
        np.array([4 - len(f"{g:04d}".rstrip("0")) for g in range(10000)]),  # trailing zeros
        form * _SD + 17,  # class of a positive 17-digit cell by k + _E_OFFSET
        np.array([_class_mask(neg, form, sd) for neg in (False, True)
                  for form in range(_RAW + 1) for sd in range(_SD)]).view(np.uint64),
        np.frombuffer(b"\0\0\0\0\0,\0\0\0\0\0\0\0\n\0\0", np.uint64),  # byte 45: a comma or a line end
    )
    return _cell_tables


def _format_cells(x: np.ndarray, ncols: int) -> str:
    """The CSV lines of the rows of ``ncols`` cells that make up the flat
    float64 array ``x``: exactly ``(line * rows) % tuple(x.tolist())``,
    with ``line`` the %.17g line of write_csv.

    A cell with |x| in [CSV_FAST_MIN, CSV_FAST_MAX) is scaled by 10^(16 - k),
    k = floor(log10 |x|), as a double-double (Dekker's product, no FMA) and
    rounded to its 17 digits N.  The scaled value is within 2**-47 of the
    exact one, so N is right wherever it lies CSV_HALF_MARGIN from a
    half-integer and CSV_END_MARGIN inside [1e16, 1e17); zero is printed
    from its sign, and every other cell goes through %.17g.  The digits of
    N fill the cell's 48-byte layout by 4-digit groups, the mask of its
    class keeps the bytes %.17g prints, and the NUL bytes are dropped.
    """
    hi_t, lo_t, hh_t, hl_t, lead_t, group_t, exp_t, tz_t, class_t, mask_t, sep_t = (
        _cell_tables or _build_cell_tables()
    )
    m = x.size
    a = np.abs(x)
    fast = (a >= CSV_FAST_MIN) & (a < CSV_FAST_MAX)
    a = np.where(fast, a, 1.0)
    k = np.log10(a)
    np.floor(k, out=k)
    e = k.astype(np.intp)
    e += _E_OFFSET  # k + _E_OFFSET, the row of k's tables
    scale = (2 * _E_OFFSET + 16) - e  # the row of 10^(16 - k)
    hi = np.take(hi_t, scale)
    p = a * hi
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    # the rounding error of p = a * hi, then the rest of the product
    bh, bl = np.take(hh_t, scale), np.take(hl_t, scale)
    rest = a_hi * bh
    rest -= p
    rest += a_hi * bl
    rest += a_lo * bh
    a_lo *= bl
    rest += a_lo
    a *= np.take(lo_t, scale)
    rest += a
    # p is a whole number, so the scaled value rounds to p + rint(rest)
    r = np.rint(rest)
    rest -= r
    np.abs(rest, out=rest)
    rest -= 0.5
    np.abs(rest, out=rest)
    fast &= rest >= CSV_HALF_MARGIN
    fast &= p >= 1e16 + CSV_END_MARGIN
    fast &= p < 1e17 - CSV_END_MARGIN
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    n[~fast] = 10**16  # any 17-digit number keeps the table rows in range
    g = n // 10**8  # d0 and the groups g1, g2
    n -= g * 10**8  # the groups g3, g4
    d0 = g // 10**8
    g -= d0 * 10**8
    g1 = g // 10**4
    g -= g1 * 10**4
    g3 = n // 10**4
    n -= g3 * 10**4
    cells = np.empty((m, 6), np.uint64)
    for col, (table, index) in enumerate(
        ((lead_t, d0), (group_t, g1), (group_t, g), (group_t, g3), (group_t, n), (exp_t, e))
    ):
        # mode="clip" lets take write into the strided column without a buffer
        np.take(table, index, out=cells[:, col], mode="clip")
    last = np.zeros(ncols, np.intp)
    last[-1] = 1
    cells[:, 5] |= np.tile(sep_t[last], m // ncols)
    # trailing zeros of N: of g4, and of g3, g2, g1 in turn while a group is 0
    tz = np.take(tz_t, n)
    more = (tz == 4).nonzero()[0]
    for group in (g3, g, g1):
        if not more.size:
            break
        group_tz = np.take(tz_t, group[more])
        tz[more] += group_tz
        more = more[group_tz == 4]
    cls = np.take(class_t, e)
    cls -= tz
    neg = np.signbit(x)
    cls += _NEG * neg
    zero = x == 0.0
    if zero.any():
        cls[zero] = neg[zero] * _NEG + _ZERO * _SD
    raw = ~(fast | zero)
    if raw.any():
        cls[raw] = _RAW * _SD
        text = b"".join((_FMT % v).encode().ljust(45, b"\0") for v in x[raw].tolist())
        cells.view(np.uint8).reshape(m, 48)[raw, :45] = np.frombuffer(text, np.uint8).reshape(-1, 45)
    cells &= np.take(mask_t, cls, axis=0)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _opened(target: str | os.PathLike | IO[str], mode: str = "r", **kwargs) -> ContextManager:
    """The file that ``target`` names, opened with ``mode`` and ``kwargs``
    to be closed on exit, or an open text stream ``target``, left open."""
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, **kwargs)
    return contextlib.nullcontext(target)


def write_csv(dest: str | os.PathLike | IO[str], header: Sequence[str], rows) -> None:
    """Write a header line and rows of numbers as CSV, every value as %.17g.

    ``rows`` is a 2-D array or an iterable of equal-length number rows;
    whole numbers print without a decimal point.  ``dest`` is a file name
    or an open text stream.  Lines end in ``\\n`` and nothing is quoted, as
    no header name or formatted number holds a comma or a quote, so
    :func:`read_csv`, which splits at every comma, reads it back.  A table
    of CSV_KERNEL_MIN_CELLS cells or more is formatted by
    :func:`_format_cells`, CSV_BLOCK_CELLS cells at a time, to the same
    text.
    """
    table = np.asarray(rows, dtype=float)
    if table.size == 0:
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"rows of shape {table.shape} do not fit a {len(header)}-column header")
    head = ",".join(header) + "\n"
    with _opened(dest, "w", newline="") as fh:
        if table.size < CSV_KERNEL_MIN_CELLS:
            line = ",".join([_FMT] * len(header)) + "\n"
            fh.write(head + (line * len(table)) % tuple(table.ravel().tolist()))
            return
        fh.write(head)
        step = max(1, CSV_BLOCK_CELLS // table.shape[1])
        for start in range(0, len(table), step):
            fh.write(_format_cells(table[start : start + step].ravel(), table.shape[1]))


def _path_header(n: int, extended: bool) -> list[str]:
    head = ["t", "z", "S", "T"] if extended else ["t", "z"]
    return head + [f"p_{j + 1}" for j in range(n)] + [f"q_{j + 1}" for j in range(n)]


def path_to_csv(path: SampledPath, dest: str | os.PathLike | IO[str]) -> None:
    """Write a path as CSV.

    Extended header: t,z,S,T,p_1..p_n,q_1..q_n; reduced: t,z,p_1..p_k,q_1..q_k.
    Values carry full double precision.
    """
    header = _path_header(path.dimension, path.kind == "extended")
    write_csv(dest, header, np.column_stack([path.times, path.coordinates()]))


def read_csv(
    src: str | os.PathLike | IO[str], what: str, header_error: Callable[[list[str]], str | None]
) -> tuple[list[str], np.ndarray, list[int]]:
    """Read a header line and rows of numbers, as :func:`write_csv` writes them.

    Lines end in ``\\n`` or ``\\r\\n`` and fields are split at every comma;
    nothing is unquoted, so a quoted cell such as ``"1.5"`` is not a
    number, and a file whose lines end in a lone ``\\r`` is one line.
    Returns the header, the rows as one (N, width) float array and the
    line number of each row; blank lines are skipped.  Raises ValueError,
    naming the line (``"<what> CSV line 4: ..."``), on a file without a
    header row, on a header for which ``header_error`` returns a message,
    on a row whose width differs from the header's and on a cell that is
    not a number.
    """
    with _opened(src, newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.removesuffix("\r") for line in lines]
    if not lines[0]:
        raise ValueError(f"{what} CSV has no header row")
    header = lines[0].split(",")
    problem = header_error(header)
    if problem is not None:
        raise ValueError(f"{what} CSV line 1: {problem}")
    width = len(header)
    rows, line_nos = [], []
    for no, line in enumerate(lines[1:], 2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != width:
            raise ValueError(f"{what} CSV line {no}: {len(row)} fields, the header has {width}")
        rows.append(row)
        line_nos.append(no)
    try:
        table = np.array(rows, dtype=float).reshape(-1, width)
    except ValueError:
        # only now look for the first row with a non-number
        for row, no in zip(rows, line_nos):
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise ValueError(f"{what} CSV line {no}: {exc}") from None
        raise
    return header, table, line_nos


def path_from_csv(src: str | os.PathLike | IO[str]) -> SampledPath:
    """Read a path written by :func:`path_to_csv`.

    The header must be exactly t,z,S,T,p_1..p_n,q_1..q_n (extended) or
    t,z,p_1..p_k,q_1..q_k (reduced) with n, k >= 1.  Raises ValueError,
    naming the line, on any other header and as :func:`read_csv` does.
    """

    def header_error(header: list[str]) -> str | None:
        extended = header[2:4] == ["S", "T"]
        n = (len(header) - (4 if extended else 2)) // 2
        if n < 1 or header != _path_header(n, extended):
            return (
                f"header {','.join(header)!r} is neither "
                "t,z,S,T,p_1..p_n,q_1..q_n nor t,z,p_1..p_k,q_1..q_k"
            )
        return None

    header, table, _ = read_csv(src, "path", header_error)
    extended = header[2:4] == ["S", "T"]
    c = 4 if extended else 2
    n = (len(header) - c) // 2
    S, T = (table[:, 2], table[:, 3]) if extended else (None, None)
    return SampledPath(table[:, 0], table[:, 1], table[:, c : c + n], table[:, c + n :], S, T)
