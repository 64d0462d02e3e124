"""Slow, fast and ultrafast process simulation.

Three process classes are covered:

* slow isotopies of a whole equilibrium family under a temperature/background
  schedule, traced per point of the initial family;
* fast relaxations of a single density under the projected free-energy
  gradient flow on the simplex (explicit Euler with positivity and Lyapunov
  safeguards);
* ultrafast two-stage jumps, where an abrupt parameter change re-prices the
  free energy at frozen extensive variables and the relaxation stage may be
  void.

A four-segment constant-temperature / constant-volume loop of the gas model
(the classic regenerative engine cycle) is assembled from the same pieces,
with the isochoric corners carried by closed-form chords.

Per-point paths of an isotopy and independent relaxation runs are
embarrassingly parallel; each run is internally sequential and outputs are
ordered deterministically by input index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import microstate as ms
from .chords import Chord, DegenerateChordError, gas_chord
from .models import (
    CurieWeissParams,
    _cw_qz,
    _cw_z,
    _gas_zp,
    cw_fold,
    cw_magnetization_roots,
)
from .phase_space import NonnegReport, SampledPath, _array, _first, _scalar, check_path_nonnegative

# fokker_planck_relax: largest t_end / dt0, and most accepted steps of a run (a count)
MAX_RELAX_STEPS = 100_000
# fokker_planck_relax: a step must keep every density entry above this (absolute)
RHO_FLOOR = 1e-14
# fokker_planck_relax: largest rise of G over one step (absolute, per step)
LYAPUNOV_TOL = 1e-12
# fokker_planck_relax: a step halved below this aborts the run (absolute, in t)
MIN_RELAX_DT = 1e-15
# fokker_planck_relax: the run ends once t is this close to t_end (relative, to t_end)
T_END_RTOL = 1e-12
# fokker_planck_relax: largest drop of the temperature schedule (absolute, in T, per step)
SCHEDULE_DROP_TOL = 1e-12
# spectral_gap_estimate fits only nodes whose G - G_end exceeds this (absolute, in G)
GAP_FIT_ATOL = 1e-13
# ... and exceeds this times |G_start - G_end| (relative, to the drop of G)
GAP_FIT_RTOL = 1e-10
# ultrafast_jump: largest total variation to the post-jump minimizer (absolute)
COINCIDENCE_TOL = 1e-8
# run_slow_isotopy: default slack of each path's non-negativity check (absolute, in form)
ISOTOPY_SLACK = 1e-8
# stirling_cycle: a corner whose form increment is at most this is 'zero' (absolute, in form)
CORNER_SIGN_TOL = 1e-12


class BranchLossError(RuntimeError):
    """A tracked equilibrium branch disappeared during an isotopy."""


class IntegrationError(RuntimeError):
    """The adaptive integrator could not take an acceptable step."""


@dataclass(frozen=True)
class Schedule:
    """A time grid with a finite temperature and background value per node."""

    times: np.ndarray
    temperatures: np.ndarray
    backgrounds: np.ndarray

    def __post_init__(self):
        for name in ("times", "temperatures", "backgrounds"):
            object.__setattr__(self, name, _array(getattr(self, name), name))
        t, T, bg = self.times, self.temperatures, self.backgrounds
        if not (t.size == T.size == bg.size and t.size >= 2):
            raise ValueError("schedule needs >= 2 nodes of equal length")
        if not np.all(np.diff(t) > 0):
            raise ValueError("schedule times must be strictly increasing")
        if not np.all(T > 0):
            raise ValueError("schedule temperatures must be positive")

    @classmethod
    def linear(
        cls,
        n_nodes: int,
        T_start: float,
        T_end: float,
        bg_start: float = 0.0,
        bg_end: float = 0.0,
    ) -> "Schedule":
        """``n_nodes`` equal steps over times [0, 1]; T and background linear.

        Raises FloatingPointError when a ramp's width overflows doubles."""
        n_nodes = _scalar(n_nodes, "n_nodes", count=True, at_least=2)
        ends = {"T_start": T_start, "T_end": T_end, "bg_start": bg_start, "bg_end": bg_end}
        T_start, T_end, bg_start, bg_end = (_scalar(value, name) for name, value in ends.items())
        for what, lo, hi in (("temperature", T_start, T_end), ("background", bg_start, bg_end)):
            if not math.isfinite(hi - lo):
                raise FloatingPointError(
                    f"the {what} ramp from {lo!r} to {hi!r} is beyond "
                    "double precision"
                )
        t = np.linspace(0.0, 1.0, n_nodes)
        return cls(
            t,
            np.linspace(T_start, T_end, n_nodes),
            np.linspace(bg_start, bg_end, n_nodes),
        )


@dataclass(frozen=True)
class IsotopyTrace:
    """Per-point traces of an equilibrium family under a schedule."""

    model: str
    b: float | None
    schedule: Schedule
    x_grid: np.ndarray
    paths: tuple[SampledPath, ...]
    reports: tuple[NonnegReport, ...]

    def legendrian_residual(self) -> float:
        """Max distance of any sample from the scheduled equilibrium family."""
        worst = 0.0
        T = self.schedule.temperatures
        bg = self.schedule.backgrounds
        for path in self.paths:
            p, q = path.p[:, 0], path.q[:, 0]
            if self.model == "gas":
                z, p_front = _gas_zp(q, T, bg)
                dev = [np.abs(p - p_front), np.abs(path.z - z)]
            else:
                arg = (q + bg + self.b * p) / T
                # math.tanh, not np.tanh: the two may round differently
                tanh = np.array([math.tanh(a) for a in arg.tolist()])
                dev = [np.abs(p - tanh), np.abs(path.z - _cw_z(p, q, T, bg, self.b))]
            worst = max(worst, *(float(d.max()) for d in dev))
        return worst


def run_slow_isotopy(
    model: str,
    sched: Schedule,
    x_grid,
    b: float | None = None,
    slack: float = ISOTOPY_SLACK,
) -> IsotopyTrace:
    """Trace the scheduled equilibrium family point by point.

    Each x is a chart parameter of the initial family: an intensive value q
    for the gas, a magnetization p for the magnet.  The intensive coordinate
    of every traced point is held fixed while the family moves, so the
    magnet point follows its root of T y - b tanh y = q + bg (p = tanh y)
    by the ``piece`` that :func:`~thermocontact.models.cw_magnetization_roots`
    labels it with: y <= -y*, |y| < y* or y >= y* where T < b and the
    family folds at +-y*, else the sign of y, read exactly from the sign of
    q + bg.  Between two nodes with T >= b the single root always
    continues; otherwise the root continues to the one on the same piece,
    so across a split or a merge the sign of y carries over and y = 0 goes
    to the middle piece.  When that root does not exist the branch has
    passed a fold, and :class:`BranchLossError` names the time node rather
    than silently hopping branches.  Each magnet chart point must meet its
    equation as a root does (RuntimeError where q + bg keeps only the
    rounding of a large bg).  ``b`` is required by the magnet only; when
    given it must be a positive number, and the trace stores it as read.
    """
    if model not in ("gas", "cw"):
        raise ValueError(f"unknown model {model!r}, expected 'gas' or 'cw'")
    if b is not None:
        b = _scalar(b, "spin interaction b", positive=True)
    x_grid = _array(x_grid, "x_grid")
    if x_grid.size == 0:
        raise ValueError("x_grid must not be empty")
    times = sched.times
    temps = sched.temperatures
    bgs = sched.backgrounds

    paths: list[SampledPath] = []
    if model == "gas":
        for x in x_grid:
            if not np.all(x - bgs < 0):
                raise ValueError(
                    f"gas chart value q={x} leaves the front domain under the schedule"
                )
            z, p = _gas_zp(x, temps, bgs)
            paths.append(SampledPath(times, z, p, np.full(times.size, x)))
    else:
        if b is None:
            raise ValueError("the magnet model needs a positive spin interaction b")
        outside = x_grid[~(np.abs(x_grid) < 1.0)]
        if outside.size:
            raise ValueError(f"magnet chart value p={outside[0]} must lie in (-1, 1)")
        splits = [cw_fold(T, b) is not None for T in temps.tolist()]
        for x in x_grid:
            q, _, y0 = _cw_qz(x, CurieWeissParams(T=temps[0], H_back=bgs[0], b=b))
            z, p = np.empty(times.size), np.empty(times.size)
            for j, split in enumerate(splits):
                roots = cw_magnetization_roots(q, CurieWeissParams(T=temps[j], H_back=bgs[j], b=b))
                if j == 0:
                    roots = [min(roots, key=lambda r: abs(r.y - y0))]
                elif split or splits[j - 1]:
                    roots = [r for r in roots if r.piece == piece]
                if not roots:
                    raise BranchLossError(
                        f"equilibrium branch lost at time node {j} "
                        f"(t={times[j]:.6g}): the root continuing magnetization "
                        f"{p[j - 1]:.6g} vanished at a fold"
                    )
                piece = roots[0].piece
                z[j], p[j] = roots[0].z, roots[0].p
            paths.append(SampledPath(times, z, p, np.full(times.size, q)))

    reports = tuple(check_path_nonnegative(path, slack=slack) for path in paths)
    return IsotopyTrace(model, b, sched, x_grid, tuple(paths), reports)


# ---------------------------------------------------------------------------
# ultrafast jumps

@dataclass(frozen=True)
class JumpRecord:
    """Stage-1 outcome of an abrupt parameter change at frozen density:
    z moves from ``z_before`` to ``z_after_stage1`` at the pre-jump p and q."""

    z_before: float
    z_after_stage1: float
    p: np.ndarray
    q: np.ndarray
    is_ultrafast: bool
    gibbs_residual: float


def ultrafast_jump(
    sp: ms.MicrostateSpace,
    h: ms.AffineHamiltonian,
    T0: float,
    T1: float,
    q,
    background_jump,
) -> JumpRecord:
    """Jump the temperature T0 -> T1 and the background by c at frozen state.

    The system starts in the free-energy minimizer at (T0, q).  The jump
    leaves the density (hence the extensive variables p and the coordinate
    q) untouched; only z is re-priced against the new parameters, the
    background entering the Hamiltonian as an internal-energy shift
    c . v_bar.  The jump is ultrafast when the frozen density already is the
    minimizer of the post-jump parameters, measured in total variation
    against ``COINCIDENCE_TOL``; otherwise stage 2 is a relaxation
    (:func:`fokker_planck_relax`).  Raises FloatingPointError, naming T and
    q, where the Gibbs state or its lift before or after the jump is beyond
    double precision.
    """
    T0 = _scalar(T0, "T0", positive=True)
    T1 = _scalar(T1, "T1", positive=True)
    q = _array(q, "q")
    c = _array(background_jump, "background_jump")
    if q.size != c.size:
        raise ValueError("background jump must match the dimension of q")
    rho0 = ms.gibbs(sp, h, T0, q).rho_g
    z0, _, p0 = ms.lift_to_extended(sp, h, T0, q, rho0)
    z1, _, _ = ms.lift_to_extended(sp, h, T1, q + c, rho0)
    residual = ms.total_variation(sp, rho0, ms.gibbs(sp, h, T1, q + c).rho_g)
    p0.flags.writeable = False
    return JumpRecord(z0, z1, p0, q, residual <= COINCIDENCE_TOL, residual)


# ---------------------------------------------------------------------------
# fast relaxation

@dataclass(frozen=True)
class RelaxTrace:
    """Nodes of a simplex gradient-flow relaxation.

    ``densities`` holds the density of node j in row j, read-only.
    ``temperatures[j]`` is the coefficient used over the step leaving node
    j, so the per-step Lyapunov contract compares G at that temperature.
    """

    t_grid: np.ndarray
    densities: np.ndarray
    temperatures: np.ndarray
    reduced_path: SampledPath
    form_values: np.ndarray
    G_values: np.ndarray

    def spectral_gap_estimate(self) -> float:
        """Decay-rate estimate fitted to the free-energy tail.

        G - G_end decays like exp(-2 gap t) on the linear regime; the fit
        takes the nodes where G - G_end exceeds GAP_FIT_ATOL and
        GAP_FIT_RTOL * |G_start - G_end|.  Returns the fitted gap, or nan
        when fewer than three nodes are left.
        """
        g_rel = self.G_values - self.G_values[-1]
        drop = abs(self.G_values[0] - self.G_values[-1])
        mask = g_rel > max(GAP_FIT_ATOL, GAP_FIT_RTOL * drop)
        if mask.sum() < 3:
            return float("nan")
        t = self.t_grid[mask]
        y = np.log(g_rel[mask])
        slope = np.polyfit(t, y, 1)[0]
        return float(-slope / 2.0)


# Overflow is checked, not warned about: G and the mean of its gradient at
# each step and G at each node must be finite.
@np.errstate(over="ignore", invalid="ignore")
def fokker_planck_relax(
    sp: ms.MicrostateSpace,
    h: ms.AffineHamiltonian,
    q,
    T_of_t: Callable[[float], float],
    rho0,
    dt0: float,
    t_end: float,
) -> RelaxTrace:
    """Integrate the projected free-energy gradient flow of the density.

    The descent direction is the variational derivative
    g_i = T (1 + ln rho_i) + H(q, m_i) recentred by its weighted mean, so
    mass is conserved up to the rounding of that mean and the free energy
    is a Lyapunov function at fixed temperature.  The rounding adds up over
    the steps, so a trial whose mass misses 1 by more than
    ``NORMALIZATION_TOL`` is divided by its mass, as ``microstate.gibbs``
    divides its density.  Explicit Euler steps are halved whenever an entry
    would drop to ``RHO_FLOOR`` or G would rise (beyond ``LYAPUNOV_TOL``)
    at the step temperature; a step below ``MIN_RELAX_DT`` aborts the run.
    Steps never exceed dt0, so a dt0 below t_end / MAX_RELAX_STEPS is
    rejected, and a run whose halved steps need more than MAX_RELAX_STEPS
    accepted steps to reach t_end raises IntegrationError.  The run ends
    once t is within ``T_END_RTOL * t_end`` of t_end.  The temperature
    schedule must be positive and non-decreasing (a drop of at most
    ``SCHEDULE_DROP_TOL`` between steps is let pass), checked at every
    node, the last one included; the intensive variables q stay fixed.  The
    trace carries the reduced (z, p, q) path, per-step contact-form
    estimates (z difference quotients, q being constant) and the free-energy
    values.  Raises FloatingPointError, naming T and q, when doubles cannot
    hold G or its gradient.
    """
    q = _array(q, "q")
    dt0 = _scalar(dt0, "dt0", positive=True)
    t_end = _scalar(t_end, "t_end", positive=True)
    # the limits, bound once: the step loop reads them as locals
    max_steps, floor, rise_tol = MAX_RELAX_STEPS, RHO_FLOOR, LYAPUNOV_TOL
    min_dt, drop_tol, mass_tol = MIN_RELAX_DT, SCHEDULE_DROP_TOL, ms.NORMALIZATION_TOL
    if t_end > max_steps * dt0:
        raise ValueError(
            f"dt0 = {dt0!r} needs more than {max_steps} steps to reach t_end = {t_end!r}"
        )
    rho0 = ms.check_density(sp, rho0)
    if float(rho0.min()) <= floor:
        raise ValueError("initial density must be strictly positive (above the floor)")

    w = sp.weights
    w_total = sp.total_weight
    energies = h.energies(q)
    w_energies = w * energies
    log, dot = np.log, np.dot

    t = 0.0
    # never written in place: each accepted step binds a fresh trial array
    rho = rho0
    # ln rho, and a and b of G(T, rho) = T * a + b
    log_rho = log(rho)
    a, b = float(dot(w, rho * log_rho)), float(dot(w_energies, rho))

    ts = [0.0]
    rhos = [rho]
    temps = [float(T_of_t(0.0))]
    last_T = temps[0]
    dt = min(dt0, t_end)
    t_stop = t_end - T_END_RTOL * t_end
    while True:
        # T_of_t(t), taken when t was reached; the last node is checked too
        T = temps[-1]
        if not T > 0:
            raise ValueError(f"temperature schedule must be positive at t={t:.6g}")
        if T < last_T - drop_tol:
            raise ValueError(
                f"temperature schedule must be non-decreasing (drops at t={t:.6g})"
            )
        last_T = T
        if t >= t_stop:
            break
        if len(ts) > max_steps:
            raise IntegrationError(
                f"more than {max_steps} steps to reach t_end = {t_end!r}: "
                f"at t={t:.6g} the step is dt={dt:.3e}"
            )
        g = T * (1.0 + log_rho) + energies
        g_mean = float(dot(w, g)) / w_total
        g = g - g_mean
        g_curr = T * a + b
        if not (math.isfinite(g_curr) and math.isfinite(g_mean)):
            raise ms._beyond_double(
                "the free energy", T, q, f"G = {g_curr!r}, mean gradient {g_mean!r} at t={t:.6g}"
            )
        g_max = g_curr + rise_tol
        dt = min(dt, t_end - t)
        # No trial entry is nan, so the builtin min of the list equals
        # trial.min().  g_mean is finite and the weights are positive, so g
        # is a finite row minus g_mean: finite or +-inf.  rho is finite, since
        # an infinite trial entry makes its G inf or nan and fails the test
        # below.  So rho - dt * g is finite or +-inf, and so is its quotient
        # by a finite positive mass.
        while True:
            trial = rho - dt * g
            mass = float(dot(w, trial))
            if 0.0 < mass < math.inf and abs(mass - 1.0) > mass_tol:
                trial = trial / mass
            if min(trial.tolist()) > floor:
                log_trial = log(trial)
                a_trial = float(dot(w, trial * log_trial))
                b_trial = float(dot(w_energies, trial))
                if T * a_trial + b_trial <= g_max:
                    break
            dt *= 0.5
            if dt < min_dt:
                raise IntegrationError(
                    f"step size underflow at t={t:.6g} (dt={dt:.3e}); "
                    "the flow cannot keep the density positive"
                )
        t += dt
        rho, log_rho, a, b = trial, log_trial, a_trial, b_trial
        ts.append(t)
        rhos.append(rho)
        temps.append(float(T_of_t(t)))
        dt = min(dt * 2.0, dt0)

    t_grid = np.array(ts)
    temperatures = np.array(temps)
    rho_rows = np.array(rhos)
    rho_rows.flags.writeable = False
    z, _, p = ms.lift_rows(sp, h, temperatures, q, rho_rows)
    j = _first(~np.isfinite(z))
    if j is not None:
        raise ms._beyond_double("the free energy", temperatures[j], q, f"node {j}")
    reduced_path = SampledPath(t_grid, z, p, np.broadcast_to(q, p.shape))
    form_values = np.diff(z) / np.diff(t_grid)
    return RelaxTrace(t_grid, rho_rows, temperatures, reduced_path, form_values, -z)


# ---------------------------------------------------------------------------
# the four-segment engine cycle

@dataclass(frozen=True)
class CycleSegment:
    name: str
    path: SampledPath
    delta_G: float
    form_sign: str  # 'zero' | 'positive' | 'negative'
    chord: Chord | None
    temperature_decreasing: bool
    degenerate: bool


@dataclass(frozen=True)
class StirlingCycleTrace:
    T_C: float
    T_H: float
    v_min: float
    v_max: float
    segments: tuple[CycleSegment, ...]

    @property
    def closure_residual(self) -> float:
        first = self.segments[0].path
        last = self.segments[-1].path
        return max(
            abs(float(first.p[0, 0]) - float(last.p[-1, 0])),
            abs(float(first.q[0, 0]) - float(last.q[-1, 0])),
        )

    @property
    def total_delta_G(self) -> float:
        return float(sum(seg.delta_G for seg in self.segments))


def stirling_cycle(
    T_C: float, T_H: float, v_min: float, v_max: float, n_samples: int = 101
) -> StirlingCycleTrace:
    """Assemble the four-segment cycle of the gas between two isotherms.

    Segments, in order: isotherm at T_H from v_max down to v_min, isochoric
    cooling at v_min, isotherm at T_C from v_min up to v_max, isochoric
    heating at v_max, closing the loop.  The trace lives in the physical
    chart (p = volume, q = minus total pressure), which makes the loop close
    exactly; each isochoric corner additionally carries its closed-form
    chord record, i.e. the same jump written in the chart where the
    background pressure absorbs the pressure change and the corner is a
    vertical z segment.  The heating corner has a positive form sign and the
    cooling corner a negative one (for volumes above 1/e); the cooling
    corner is flagged temperature-decreasing since it runs against the
    admissibility convention for reduced processes.  Corners at volume 1 are
    degenerate (the chord shrinks to a point) and carry no chord record.
    Raises FloatingPointError where doubles cannot hold the cycle: its
    largest |q| or |z|, a corner's pressure jump or its chord record.
    """
    T_C, T_H = _scalar(T_C, "T_C", positive=True), _scalar(T_H, "T_H")
    if not T_C < T_H:
        raise ValueError("need T_H > T_C > 0")
    v_min, v_max = _scalar(v_min, "v_min", positive=True), _scalar(v_max, "v_max")
    if not v_min < v_max:
        raise ValueError("need v_max > v_min > 0")
    n_samples = _scalar(n_samples, "n_samples", count=True, at_least=2)
    # the largest |q| and |z| on the cycle (Python floats overflow to inf)
    if not all(map(math.isfinite, (T_H / v_min, T_H * math.log(v_min), T_H * math.log(v_max)))):
        raise FloatingPointError(
            f"the Stirling cycle at T_C={T_C!r}, T_H={T_H!r}, "
            f"v_min={v_min!r}, v_max={v_max!r} is beyond double precision"
        )

    def isotherm(T: float, v_from: float, v_to: float, t0: float, name: str):
        vs = np.linspace(v_from, v_to, n_samples)
        # physical chart: z = T ln v (math.log, as the corners use it) and
        # q is minus the total pressure T/v
        z = np.array([T * math.log(v) for v in vs.tolist()])
        path = SampledPath(np.linspace(t0, t0 + 1.0, n_samples), z, vs, -T / vs)
        delta_G = -float(z[-1] - z[0])
        return CycleSegment(name, path, delta_G, "zero", None, False, False)

    def corner(T_from: float, T_to: float, v: float, t0: float, name: str):
        z = [T_from * math.log(v), T_to * math.log(v)]
        q = [-T_from / v, -T_to / v]
        path = SampledPath([t0, t0 + 1.0], z, [v, v], q)
        delta_G = -(z[1] - z[0])
        # dz - p dq: over two samples one time unit apart np.gradient is the difference
        increment = check_path_nonnegative(path).min_form_value
        if abs(increment) <= CORNER_SIGN_TOL:
            sign = "zero"
        else:
            sign = "positive" if increment > 0 else "negative"
        c = abs(T_to - T_from) / v
        if not c > 0.0:
            raise FloatingPointError(
                f"the {name} from T={T_from!r} to T={T_to!r} at v={v!r} is beyond "
                "double precision (its pressure jump underflows to 0)"
            )
        try:
            chord = gas_chord(min(T_from, T_to), max(T_from, T_to), c)
            degenerate = False
        except DegenerateChordError:
            chord = None
            degenerate = True
        return CycleSegment(
            name, path, delta_G, sign, chord, T_to < T_from, degenerate
        )

    segments = (
        isotherm(T_H, v_max, v_min, 0.0, "isotherm_hot"),
        corner(T_H, T_C, v_min, 1.0, "cooling_corner"),
        isotherm(T_C, v_min, v_max, 2.0, "isotherm_cold"),
        corner(T_C, T_H, v_max, 3.0, "heating_corner"),
    )
    return StirlingCycleTrace(T_C, T_H, v_min, v_max, segments)
