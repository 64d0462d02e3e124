"""Closed-form equilibrium families: diluted lattice gas and mean-field magnet.

A front f over a scalar intensive coordinate cuts out the graphical
Legendrian {z = f(q), p = f'(q)}.  The gas family uses

    phi_T(x) = -T ln(-x/T)          (x < 0)

shifted by a background pressure; on it p = f'(q) is the volume, q = -P,
and (P + P_back) p = T holds identically.  The magnet family is defined by
the self-consistency p = tanh((q + H_back + b p)/T) together with

    z = T ln(2 cosh((q + H_back + b p)/T)) - b p^2 / 2,

parameterized globally by the magnetization p (the equilibrium set is
multivalued over q once b/T > 1).  Both families admit a change of
variables to "barred" coordinates that preserves the reduced contact form
and flattens the reference family onto the zero section; the second family
then becomes the graph of a difference of fronts, which is where chords are
located.

Everything here is a pure function; FrontFunction evaluators are immutable
and shareable across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._solve import brentq
from .phase_space import _array, _scalar

# largest |g(y)| = |T y - b tanh y - q - H_back| of a magnet root or point, y = atanh(p)
# (relative, to max(T, |T y|, b, |q + H_back|))
SELF_CONSISTENCY_TOL = 1e-10
# cw_magnetization_roots: brentq's tolerance on y = atanh(p) (absolute, in y)
MAGNET_YTOL = 1e-12
# cw_magnetization_roots: roots closer than this are one (absolute, in y)
MAGNET_MERGE_YTOL = 10 * MAGNET_YTOL
# cw_magnetization_roots: a z this close to the largest ties (relative, to max(1, |z_max|))
MAGNET_Z_TIE_RTOL = 1e-12
# cw_magnetization_roots: nodes of the grid on whose cells each root is refined (a count)
SCAN_NODES = 10_000
# cw_magnetization_roots: each end of the y range moves out by max(1, |y_end| * this),
# as 1.0 alone rounds away once |y_end| > 2**53 (relative, to |y_end|)
MAGNET_RANGE_PAD = 2.0**-40


class DomainError(ValueError):
    """A front was evaluated outside its open domain."""


@dataclass(frozen=True)
class FrontFunction:
    """A scalar generating function f with derivative and open domain."""

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    label: str = ""

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"domain must be a non-empty open interval, got {self.domain}")

    def contains(self, x) -> bool:
        lo, hi = self.domain
        x = _num(x)
        if type(x) is float:
            return lo < x < hi
        return bool(((x > lo) & (x < hi)).all())

    def _checked(self, fn, x):
        x = _num(x)
        if not self.contains(x):
            raise DomainError(
                f"argument outside the open domain {self.domain} of front {self.label!r}"
            )
        out = fn(x)
        return float(out) if type(x) is float else np.asarray(out, dtype=float)

    def value(self, x):
        return self._checked(self.f, x)

    def slope(self, x):
        return self._checked(self.fprime, x)


def _zero_slope(x):
    """The slope of every constant front: zeros shaped like x.

    ``constant_front`` gives each front this one function, so a caller can
    tell a constant front by ``front.fprime is _zero_slope`` and skip
    subtracting its slope (v - 0.0 is v, bit for bit, for every double).
    """
    return np.zeros_like(np.asarray(x, dtype=float))


def constant_front(
    value: float = 0.0, domain: tuple[float, float] = (-math.inf, math.inf)
) -> FrontFunction:
    c = _scalar(value, "value")
    return FrontFunction(
        f=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        fprime=_zero_slope,
        domain=domain,
        label=f"constant {c}",
    )


# ---------------------------------------------------------------------------
# building-block fronts

def gas_phi(T: float, x):
    """-T ln(-x/T) for x < 0."""
    return -T * np.log(-np.asarray(x, dtype=float) / T)


def gas_dphi(T: float, x):
    """-T/x.  A Python float x stays a float (see _num), but 0, where float
    division would raise ZeroDivisionError, gives numpy's infinity."""
    if type(x) is float and x != 0.0:
        return -T / x
    return -T / np.asarray(x, dtype=float)


def cw_phi(T: float, x):
    """T ln(2 cosh(x/T)), evaluated overflow-safe as T logaddexp(x/T, -x/T)."""
    u = np.asarray(x, dtype=float) / T
    return T * np.logaddexp(u, -u)


def cw_dphi(T: float, x):
    return np.tanh(np.asarray(x, dtype=float) / T)


def _num(x):
    """A number (a float, an int, a numpy scalar or a 0-d array) as a
    Python float, anything else as a float array.

    IEEE + - * / give the same bits on a float as on a 0-d array, and numpy
    ufuncs the same bits on either, but each operation on a 0-d array costs
    about a microsecond.  So FrontFunction's checked calls and the
    difference fronts' slopes read x by this rule.
    """
    if type(x) is float:
        return x
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def _tanh_gap(u, v):
    """tanh(u) - tanh(v), evaluated as sinh(u - v) / (cosh u cosh v).

    The direct difference cancels where both values are near +-1: each tanh
    is then within an ulp or so of 1, which is as large as the gap itself
    once |u| and |v| exceed ~18.  The quotient has no such subtraction and
    keeps a relative error of a few ulps.  The arguments are clipped to
    +-350, where tanh is 1 to within 1e-304, so that neither sinh(u - v)
    nor the product of the cosh values can overflow.  The clip is spelt
    np.minimum(np.maximum(...)), which gives np.clip's bits without the
    cost of its Python wrapper.  u and v are two Python floats or two
    float64 arrays of one shape, as x read by _num gives.  Arrays are
    written in place: after the two np.maximum copies and the difference
    u - v, every step writes with ``out=`` into one of those three, with the
    same operations in the same operand order as the float path, so a block
    of nodes allocates three arrays instead of ten.  Floats are clipped with
    ``min(max(...))``, which keeps a nan and a signed zero as np.clip does,
    and numpy is called only for sinh and cosh of the floats (the libm
    functions of ``math`` give other bits for some arguments); the result is
    a Python float with the bits of the array path.
    """
    if type(u) is float:
        u = min(max(u, -350.0), 350.0)
        v = min(max(v, -350.0), 350.0)
        # the product of two cosh values is at least 1 (or nan): never a zero divisor
        return float(np.sinh(u - v)) / (float(np.cosh(u)) * float(np.cosh(v)))
    u = np.maximum(u, -350.0)
    v = np.maximum(v, -350.0)
    np.minimum(u, 350.0, out=u)
    np.minimum(v, 350.0, out=v)
    gap = np.subtract(u, v)
    np.sinh(gap, out=gap)
    np.cosh(u, out=u)
    np.cosh(v, out=v)
    np.multiply(u, v, out=u)
    return np.divide(gap, u, out=gap)


@dataclass(frozen=True)
class IdealGasParams:
    T: float
    P_back: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "T", _scalar(self.T, "temperature", positive=True))
        object.__setattr__(self, "P_back", _scalar(self.P_back, "P_back"))


@dataclass(frozen=True)
class CurieWeissParams:
    T: float
    H_back: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "T", _scalar(self.T, "temperature", positive=True))
        object.__setattr__(self, "H_back", _scalar(self.H_back, "H_back"))
        object.__setattr__(self, "b", _scalar(self.b, "spin interaction b", positive=True))


@dataclass(frozen=True)
class CWBranchPoint:
    """An equilibrium magnetization branch point (p, q, z) with its stability.

    ``y`` = atanh(p) is the solved variable; it stays finite where p rounds
    to +-1, so quantities that depend on p should be evaluated in y.
    ``piece`` is -1, 0 or 1: the monotone piece y <= -y*, |y| < y* or
    y >= y* of :func:`cw_fold` that the root was solved on, and where the
    family does not fold the sign of q + H_back, that of the exact root.
    At q + H_back = 0 the middle piece's root is y = 0.0 exactly.  Elsewhere
    y is solved to ``MAGNET_YTOL``, so its sign can differ from that of the
    exact root only where |y| is within that tolerance of 0.
    """

    p: float
    q: float
    z: float
    stability: str  # 'global_min' | 'local_min' | 'unstable'
    y: float
    piece: int


def _gas_zp(q, T, P_back):
    """z = phi_T(q - P_back) and p = phi_T'(q - P_back) on the gas front.

    Takes scalars (returns floats) or columns (returns arrays), as _cw_z
    does; T and P_back may be columns too, one value per sample.  Raises
    FloatingPointError, naming T and q - P_back, where z or p overflows.
    Three Python floats with finite z and p take the float operations of
    the array route (np.log, not math.log, whose bits differ), without
    its 0-d arrays; anything else takes the array route.
    """
    if type(q) is float and type(T) is float and type(P_back) is float:
        x = q - P_back
        v = -x / T
        if v > 0.0:
            z, p = -T * float(np.log(v)), -T / x
            if math.isfinite(z) and math.isfinite(p):
                return z, p
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.asarray(q, dtype=float) - P_back
        z, p = gas_phi(T, x), gas_dphi(T, x)
    bad = ~(np.isfinite(z) & np.isfinite(p))
    if np.any(bad):
        T_bad, x_bad = (np.broadcast_to(v, bad.shape)[bad][0] for v in (T, x))
        raise FloatingPointError(
            f"the gas front at T={float(T_bad)!r}, q - P_back={float(x_bad)!r} "
            "is beyond double precision"
        )
    return _floats(z, p)


def gas_front(par: IdealGasParams) -> FrontFunction:
    """Equilibrium front of the gas at temperature T and background pressure.

    f(q) = phi_T(q - P_back) on q < P_back, so p = f'(q) is the volume and
    the state equation (P + P_back) p = T holds with q = -P.
    """
    T, pb = par.T, par.P_back
    return FrontFunction(
        f=lambda q: _gas_zp(q, T, pb)[0],
        fprime=lambda q: _gas_zp(q, T, pb)[1],
        domain=(-math.inf, pb),
        label=f"gas front T={T:g}, P_back={pb:g}",
    )


def cw_entropy(p: float) -> float:
    """Mixing entropy of a magnetization p in (-1, 1); value in (0, ln 2]."""
    p = _scalar(p, "magnetization", inside=(-1, 1))
    lo, hi = (1.0 - p) / 2.0, (1.0 + p) / 2.0
    return 0.0 - lo * math.log(lo) - hi * math.log(hi)


def cw_entropy_y(y: float) -> float:
    """Mixing entropy of the magnetization tanh(y), for any finite y.

    Equals ln 2cosh(y) - y tanh(y), evaluated as 2sw/(1+w) + log1p(w) with
    s = |y| and w = exp(-2s), which keeps the exponentially small tail
    representable where tanh(y) rounds to +-1 and cw_entropy cannot take p.
    """
    s = abs(_scalar(y, "y"))
    w = math.exp(-2.0 * s)
    return 2.0 * s * w / (1.0 + w) + math.log1p(w)


def _cw_z(p, q, T, H_back, b):
    """The magnet z-formula T ln 2cosh((q + H_back + b p)/T) - b p^2/2.

    Takes scalars (returns a float) or equal-length columns (returns an
    array), so one evaluation order serves points, chords and whole paths.
    """
    z = cw_phi(T, q + H_back + b * p) - b * p * p / 2.0
    return float(z) if np.ndim(z) == 0 else z


def cw_fold(T: float, b: float) -> float | None:
    """The turning point y* = acosh(sqrt(b/T)) of g(y) = T y - b tanh y.

    g' = T - b sech^2 y, so g is increasing on y <= -y* and y >= y* and
    decreasing in between; None when b <= T, where g is monotone on the
    whole line.  These are the monotone pieces of the magnet family, and the
    fold is where two of its roots meet and disappear.
    """
    return math.acosh(math.sqrt(b / T)) if b > T else None


def _check_self_consistency(y: float, q: float, par: CurieWeissParams) -> None:
    """Raise RuntimeError where y = atanh(p) misses the magnet equation in
    the variable it is solved in, g(y) = T y - b tanh(y) - q - H_back = 0,
    by more than SELF_CONSISTENCY_TOL * max(T, |T y|, b, |q + H_back|), the
    size of its terms (in Python floats, which do not warn).

    The bound scales with the problem: a residual in p would multiply p's
    rounding by b/T and reject accurate roots at small T/b.  T is in the
    max because y is solved to an absolute tolerance, so g may be off by
    about T * MAGNET_YTOL even where its terms are far smaller than T.
    """
    T, b = par.T, par.b
    target = q + par.H_back
    residual = abs(T * y - b * math.tanh(y) - target)
    if residual > SELF_CONSISTENCY_TOL * max(T, abs(T * y), b, abs(target)):
        raise RuntimeError(
            f"self-consistency residual {residual:.3e} too large at T={T!r}, "
            f"b={b!r}, H_back={par.H_back!r}, p={math.tanh(y)!r}"
        )


def cw_magnetization_roots(
    q: float,
    par: CurieWeissParams,
) -> list[CWBranchPoint]:
    """All magnetizations solving p = tanh((q + H_back + b p)/T), with labels.

    Substituting p = tanh(y) turns the fixed-point equation into
    g(y) = T y - b tanh(y) - q - H_back = 0, which keeps near-saturated
    roots resolvable.  g is monotone on each piece cut at the folds +-y* of
    :func:`cw_fold`, so each piece whose ends differ in sign holds exactly
    one root, labelled with that ``piece``, and goes once through solve,
    refine and label.  At q + H_back = 0 the middle piece's root is y = 0.0
    (so p = 0.0), where g(0) = 0 exactly.  Any other root is solved on its
    piece to ``MAGNET_YTOL`` in y, then again on the bracket nearest it (an
    exact zero or a sign change of g) among the 3 cells around it in a grid
    of ``SCAN_NODES`` nodes over [y_lo, y_hi], built as np.linspace builds
    it, which replaces the piece solution if it lies on the piece; so the
    result does not depend on the piece ends.  y_lo and y_hi are
    (q + H_back -+ b)/T, each moved out by max(1, |end| * ``MAGNET_RANGE_PAD``)
    so that the move outlasts rounding at every T/b.  Roots closer than
    ``MAGNET_MERGE_YTOL`` in y are one.  Each is built once, in y (so p)
    order, as unstable iff 1 - (b/T)(1 - p^2) < 0 and otherwise as a local
    minimum; the stable one of largest z (smallest free energy) is then
    relabelled the global minimum, where z within
    ``MAGNET_Z_TIE_RTOL * max(1, |z_max|)`` of the largest is a tie,
    resolved to the non-negative branch.

    Raises FloatingPointError, naming T, b and q + H_back, when doubles
    cannot hold the y range or resolve its grid; RuntimeError, naming
    them too, when brentq does not converge (as at some q below
    T/b ~ 1e-22); and RuntimeError, naming T, b, H_back and p, when a
    root y misses g(y) = 0 by more than
    ``SELF_CONSISTENCY_TOL * max(T, |T y|, b, |q + H_back|)``.
    """
    # Python floats: an overflowing ratio is inf here, not a numpy warning
    T, b = par.T, par.b
    q = _scalar(q, "q")
    target = q + par.H_back

    def resid(y: float) -> float:
        return T * y - b * math.tanh(y) - target

    def solve(lo: float, hi: float) -> float:
        try:
            return brentq(resid, lo, hi, xtol=MAGNET_YTOL)
        except RuntimeError as exc:
            raise RuntimeError(
                f"the magnetization root at T={T!r}, b={b!r}, q + H_back={target!r} "
                f"on [{lo!r}, {hi!r}]: {exc}"
            ) from exc

    y_lo, y_hi = (target - b) / T, (target + b) / T
    if math.isfinite(y_lo) and math.isfinite(y_hi):
        y_lo -= max(1.0, abs(y_lo) * MAGNET_RANGE_PAD)
        y_hi += max(1.0, abs(y_hi) * MAGNET_RANGE_PAD)
    if not (math.isfinite(y_lo) and math.isfinite(y_hi) and y_lo < y_hi):
        raise FloatingPointError(
            f"magnetization roots at T={T!r}, b={b!r}, q + H_back={target!r} are "
            f"beyond double precision (y range [{y_lo!r}, {y_hi!r}])"
        )
    fold = cw_fold(T, b)
    cuts = [] if fold is None else [y for y in (-fold, fold) if y_lo < y < y_hi]
    edges = [y_lo, *cuts, y_hi]
    g_edges = [resid(y) for y in edges]
    step = (y_hi - y_lo) / (SCAN_NODES - 1)
    roots_y = []  # (root, piece)
    for a, c, ga, gc in zip(edges, edges[1:], g_edges, g_edges[1:]):
        if not min(ga, gc) <= 0.0 <= max(ga, gc):
            continue
        if fold is None:
            # g is increasing and g(0) = -target: the exact sign of y
            piece = int(target > 0.0) - int(target < 0.0)
        else:
            piece = int(a >= fold) - int(c <= -fold)
        if target == 0.0 and piece == 0:
            # g(0) = 0 exactly, so the middle piece's root is y = 0
            roots_y.append((0.0, 0))
            continue
        y = solve(a, c)
        # nodes i - 1 .. i + 2 around the cell i holding y: node k is
        # k * step + y_lo and the last node is y_hi, as np.linspace computes them
        first = min(max(int((y - y_lo) / step), 1), SCAN_NODES - 3) - 1
        ys = np.array([y_hi if k == SCAN_NODES - 1 else k * step + y_lo
                       for k in range(first, first + 4)])
        nodes, sign = ys.tolist(), np.sign(T * ys - b * np.tanh(ys) - target).tolist()
        # exact zeros on a node are roots; a sign change brackets one (by
        # the signs: a product of two residuals below ~1e-162 underflows)
        brackets = [(nodes[k], nodes[k]) for k in range(4) if sign[k] == 0.0]
        brackets += [(nodes[k], nodes[k + 1]) for k in range(3) if sign[k] * sign[k + 1] < 0.0]
        if brackets:
            lo, hi = min(brackets, key=lambda br: max(br[0] - y, y - br[1], 0.0))
            cell_y = lo if lo == hi else solve(lo, hi)
            if a <= cell_y <= c:
                y = cell_y
        roots_y.append((y, piece))

    deduped: list[tuple[float, int]] = []
    for y, piece in sorted(roots_y):
        if not deduped or abs(y - deduped[-1][0]) > MAGNET_MERGE_YTOL:
            deduped.append((y, piece))

    # in y order, so in p order: tanh is monotone
    points = []
    for y, piece in deduped:
        p = math.tanh(y)
        _check_self_consistency(y, q, par)
        label = "unstable" if 1.0 - (b / T) * (1.0 - p * p) < 0.0 else "local_min"
        points.append(CWBranchPoint(p, q, _cw_z(p, q, T, par.H_back, b), label, y, piece))

    stable = [i for i, pt in enumerate(points) if pt.stability == "local_min"]
    if stable:
        z_max = max(points[i].z for i in stable)
        tie = z_max - MAGNET_Z_TIE_RTOL * max(1.0, abs(z_max))
        best = max((i for i in stable if points[i].z >= tie), key=lambda i: points[i].p >= 0)
        points[best] = replace(points[best], stability="global_min")
    return points


def select_equilibrium(points: list[CWBranchPoint]) -> CWBranchPoint:
    """The branch point labeled global_min (falls back to the largest z)."""
    if not points:
        raise ValueError("no branch points to select from")
    for pt in points:
        if pt.stability == "global_min":
            return pt
    return max(points, key=lambda pt: pt.z)


def _cw_qz(p: float, par: CurieWeissParams) -> tuple[float, float, float]:
    """The magnet chart q = -b p + T atanh(p) - H_back, z and y = atanh(p)
    over magnetization p, checked against the self-consistency equation
    (which q + H_back misses by H_back's rounding once |H_back| dwarfs b)."""
    p = _scalar(p, "magnetization", inside=(-1, 1))
    y = math.atanh(p)
    q = -par.b * p + par.T * y - par.H_back
    _check_self_consistency(y, q, par)
    return q, _cw_z(p, q, par.T, par.H_back, par.b), y


def difference_front(model: str, t0: float, t1: float, c: float) -> FrontFunction:
    """Front of the hotter family over the flattened colder one.

    gas: psi(x) = phi_{t1}(x - c) - phi_{t0}(x) on x < min(0, c);
    cw:  psi(Q) = Phi_{t1}(Q + c) - Phi_{t0}(Q) on all of R, with
    Phi_T(x) = T ln(2 cosh(x/T)).  The magnet's spin interaction cancels in
    the barred picture, so it does not enter here.
    """
    t0, t1 = _scalar(t0, "t0", positive=True), _scalar(t1, "t1")
    if not t0 < t1:
        raise ValueError("need t1 > t0 > 0")
    c = _scalar(c, "c")
    if model == "gas":
        return FrontFunction(
            f=lambda x: gas_phi(t1, np.asarray(x, dtype=float) - c) - gas_phi(t0, x),
            fprime=lambda x: gas_dphi(t1, _num(x) - c) - gas_dphi(t0, _num(x)),
            domain=(-math.inf, min(0.0, c)),
            label=f"gas difference front t0={t0:g}, t1={t1:g}, c={c:g}",
        )
    if model == "cw":
        return FrontFunction(
            f=lambda x: cw_phi(t1, np.asarray(x, dtype=float) + c) - cw_phi(t0, x),
            fprime=lambda x: _tanh_gap((_num(x) + c) / t1, _num(x) / t0),
            domain=(-math.inf, math.inf),
            label=f"cw difference front t0={t0:g}, t1={t1:g}, c={c:g}",
        )
    raise ValueError(f"unknown model {model!r}, expected 'gas' or 'cw'")


# ---------------------------------------------------------------------------
# barred changes of variables
#
# The four maps take scalars (and return floats) or equal-length columns
# (and return arrays), as _cw_z does, and return the tuple (z, p, q).  Each
# coordinate is read by _array and kept in the shape given (a number is 0-d).

def _floats(*cols) -> tuple:
    """0-d results as floats, columns as arrays."""
    return tuple(float(c) if np.ndim(c) == 0 else c for c in cols)


def _gas_columns(z, p, q, t0) -> tuple:
    """The columns z, p, q and the t0 read, once every q is checked to be < 0."""
    t0 = _scalar(t0, "t0", positive=True)
    z, p, q = (_array(x, name).reshape(np.shape(x)) for x, name in zip((z, p, q), "zpq"))
    if not np.all(q < 0):
        raise DomainError(f"gas barred map needs q < 0, got max q={float(np.max(q))}")
    return z, p, q, t0


def gas_to_barred(z, p, q, t0: float) -> tuple:
    """(z, p, q) -> (z - phi_{t0}(q), p - phi'_{t0}(q), q); needs every q < 0."""
    z, p, q, t0 = _gas_columns(z, p, q, t0)
    return _floats(z - gas_phi(t0, q), p - gas_dphi(t0, q), q)


def gas_from_barred(z, p, q, t0: float) -> tuple:
    """Inverse of :func:`gas_to_barred`; needs every q < 0."""
    z, p, q, t0 = _gas_columns(z, p, q, t0)
    return _floats(z + gas_phi(t0, q), p + gas_dphi(t0, q), q)


def cw_to_barred(z, p, q, t0: float, b: float) -> tuple:
    """(z, p, q) -> (Z, P, Q) with Q = q + b p, P = p - Phi'_{t0}(Q),
    Z = z - Phi_{t0}(Q) + b p^2/2.  Preserves dz - p dq."""
    t0 = _scalar(t0, "t0", positive=True)
    b = _scalar(b, "spin interaction b", positive=True)
    z, p, q = (_array(x, name).reshape(np.shape(x)) for x, name in zip((z, p, q), "zpq"))
    Q = q + b * p
    return _floats(z - cw_phi(t0, Q) + b * p * p / 2.0, p - cw_dphi(t0, Q), Q)


def cw_from_barred(Z, P, Q, t0: float, b: float) -> tuple:
    """Inverse of :func:`cw_to_barred`."""
    t0 = _scalar(t0, "t0", positive=True)
    b = _scalar(b, "spin interaction b", positive=True)
    Z, P, Q = (_array(x, name).reshape(np.shape(x)) for x, name in zip((Z, P, Q), "ZPQ"))
    p = P + cw_dphi(t0, Q)
    return _floats(Z + cw_phi(t0, Q) - b * p * p / 2.0, p, Q - b * p)


# ---------------------------------------------------------------------------
# derivative identities of the magnet family

def cw_coupling_derivatives(p: float, T: float, q: float) -> tuple[float, float]:
    """Equilibrium-branch derivatives in the coupling b at fixed (T, q).

    Returns (dz/db, db/dp) with u(p) = atanh(p):

        dz/db = p^2 / 2,
        db/dp = T ((p u'(p) - u(p)) + q/T) / p^2.

    Both are positive for p in (0, 1) and q >= 0.  Raises
    FloatingPointError, naming p, where p^2 underflows to 0.
    """
    p = _scalar(p, "magnetization", inside=(0, 1))
    T = _scalar(T, "temperature", positive=True)
    q = _scalar(q, "q")
    if p * p == 0.0:
        raise FloatingPointError(
            f"the coupling derivatives at p={p!r} are beyond double precision (p^2 underflows)"
        )
    u = math.atanh(p)
    du = 1.0 / (1.0 - p * p)
    dz_db = p * p / 2.0
    db_dp = T * ((p * du - u) + q / T) / (p * p)
    return dz_db, db_dp


def cw_dz_dT(p: float, q: float, T: float, b: float) -> float:
    """d/dT of the magnet z-formula at fixed (p, q), with A = q + b p:

        ln 2 + ln cosh(A/T) - (A/T) tanh(A/T),

    which equals the mixing entropy of tanh(A/T) and is strictly positive
    for finite A/T; evaluated by :func:`cw_entropy_y`, which keeps the
    exponentially small tail representable instead of being absorbed by the
    large cosh term.
    """
    p = _scalar(p, "magnetization", inside=(-1, 1))
    T = _scalar(T, "temperature", positive=True)
    q = _scalar(q, "q")
    b = _scalar(b, "spin interaction b", positive=True)
    return cw_entropy_y((q + b * p) / T)


# ---------------------------------------------------------------------------
# sampling helpers

def sample_gas_legendrian(par: IdealGasParams, q_grid) -> np.ndarray:
    """Columns (q, p, z) of the gas equilibrium family over a q grid, from
    one checked evaluation of the front's z and p."""
    q = _array(q_grid, "q_grid")
    z, p = gas_front(par)._checked(lambda x: _gas_zp(x, par.T, par.P_back), q)
    return np.column_stack([q, p, z])


def sample_cw_legendrian(par: CurieWeissParams, p_grid) -> np.ndarray:
    """Columns (q, p, z, S) of the magnet equilibrium family over a p grid."""
    rows = []
    for p in _array(p_grid, "p_grid").tolist():
        q, z, _ = _cw_qz(p, par)
        rows.append([q, p, z, cw_entropy(p)])
    return np.array(rows)
