"""Executable acceptance suite.

Each criterion is a deterministic self-check of one analytic contract of
the toolkit, computed at pinned tolerances; ``run_all`` executes them in
order and reports one result per criterion.  The CLI ``verify`` subcommand
and the test suite both run this module.

A criterion returns ``(passed, detail)`` and is registered under its name
by the :func:`criterion` decorator, which appends to ``CRITERIA``, in the
order of definition, a callable that returns the one :class:`CriterionResult`
numbered by its 1-based place there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import microstate as ms
from .chords import Chord, cw_chord, find_chords, gas_chord
from .models import (
    CurieWeissParams,
    constant_front,
    cw_coupling_derivatives,
    cw_dz_dT,
    cw_from_barred,
    cw_magnetization_roots,
    cw_phi,
    cw_to_barred,
    difference_front,
    gas_dphi,
    gas_from_barred,
    gas_phi,
    gas_to_barred,
    sample_cw_legendrian,
    select_equilibrium,
)
from .phase_space import (
    DEFAULT_SLACK,
    ReductionSpec,
    SampledPath,
    check_path_nonnegative,
    reduce,
)
from .processes import LYAPUNOV_TOL, Schedule, fokker_planck_relax, run_slow_isotopy

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.index:2d} [{self.name}]: {self.detail}"


CRITERIA: list[Callable[[], CriterionResult]] = []


def criterion(name: str):
    """Register the decorated ``() -> (passed, detail)`` check as the next
    criterion, reported as ``name``."""

    def register(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        index = len(CRITERIA) + 1

        @functools.wraps(check)
        def run() -> CriterionResult:
            return CriterionResult(index, name, *check())

        CRITERIA.append(run)
        return run

    return register


def _finder_errors(found: list[Chord], q: float, length: float) -> tuple[float, float]:
    """|dq| and |dlength| of the finder's chord from the closed form's q and
    length; both are inf unless the finder found exactly one chord."""
    if len(found) != 1:
        return math.inf, math.inf
    return abs(found[0].q - q), abs(found[0].length - length)


def _random_system(rng, m_max=64, n_max=3, weight_lo=0.5, weight_hi=2.0, scale=1.0):
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    sp = ms.MicrostateSpace(
        tuple(f"s{i}" for i in range(m)), rng.uniform(weight_lo, weight_hi, m)
    )
    h = ms.AffineHamiltonian(
        scale * rng.normal(size=m), scale * rng.normal(size=(n, m))
    )
    return sp, h


@criterion("gas chord")
def criterion_1() -> tuple[bool, str]:
    """Gas chord closed form and generic-finder agreement."""
    ch = gas_chord(1.0, 5.0, 2.0)
    exact = ch.p == 2.0 and -ch.q == 0.5
    len_err = abs(ch.length - 4 * LN2)
    f0 = constant_front(0.0, (-math.inf, 0.0))
    f1 = difference_front("gas", 1.0, 5.0, 2.0)
    found = find_chords(f0, f1, -6.0, -0.01, grid_n=20001)
    pos_err, finder_len_err = _finder_errors(found, -0.5, 4 * LN2)
    ok = exact and len_err <= 1e-12 and pos_err <= 1e-8 and finder_len_err <= 1e-12
    return ok, (
        f"P0={-ch.q:g} v={ch.p:g} |len-4ln2|={len_err:.2e} "
        f"finder |q+0.5|={pos_err:.2e} |len-4ln2|={finder_len_err:.2e}"
    )


@criterion("magnet chord")
def criterion_2() -> tuple[bool, str]:
    """Magnet chord closed form, finder maximum and front asymptotes."""
    t0, t1, c, b = 2.0, 10.0 / 3.0, 1.0, 1.0
    ch = cw_chord(t0, t1, c, b)
    p_err = abs(ch.p - math.tanh(0.75))
    qstar_err = abs((ch.q + b * ch.p) - 1.5)
    f1 = difference_front("cw", t0, t1, c)
    found = find_chords(constant_front(), f1, -30.0, 30.0, grid_n=20001)
    finder_pos_err, finder_len_err = _finder_errors(found, 1.5, ch.length)
    asym = max(abs(f1.value(50.0) - c), abs(f1.value(-50.0) + c))
    ok = (
        p_err <= 1e-8
        and qstar_err <= 1e-8
        and finder_pos_err <= 1e-8
        and finder_len_err <= 1e-8
        and asym <= 1e-6
    )
    return ok, (
        f"|p-tanh(3/4)|={p_err:.2e} |Q*-1.5|={qstar_err:.2e} "
        f"finder dq={finder_pos_err:.2e} dlen={finder_len_err:.2e} asym={asym:.2e}"
    )


@criterion("thermodynamic identities")
def criterion_3() -> tuple[bool, str]:
    """Entropy and pressures as minus the T/q derivatives of minimized G."""
    rng = np.random.default_rng(301)
    step = 1e-5
    worst_s = worst_p = 0.0
    for _ in range(100):
        sp, h = _random_system(rng)
        T = float(rng.uniform(0.5, 2.5))
        q = rng.normal(size=h.n)

        def g_star(T_, q_):
            return ms.free_energy(sp, h, T_, q_, ms.gibbs(sp, h, T_, q_).rho_g)

        rho_g = ms.gibbs(sp, h, T, q).rho_g
        s_val = ms.entropy(sp, rho_g)
        dGdT = (g_star(T + step, q) - g_star(T - step, q)) / (2 * step)
        worst_s = max(worst_s, abs(s_val + dGdT))
        p_val = ms.pressures(sp, h, rho_g)
        for j in range(h.n):
            e = np.zeros(h.n)
            e[j] = step
            dGdq = (g_star(T, q + e) - g_star(T, q - e)) / (2 * step)
            worst_p = max(worst_p, abs(p_val[j] + dGdq))
    ok = worst_s < 1e-6 and worst_p < 1e-6
    return ok, f"max|S+dG/dT|={worst_s:.2e} max|p+dG/dq|={worst_p:.2e} over 100 systems"


@criterion("Gibbs minimality")
def criterion_4() -> tuple[bool, str]:
    """Gibbs density minimizes G; its variational derivative is flat."""
    rng = np.random.default_rng(401)
    worst_gap = -math.inf
    worst_spread = 0.0
    for _ in range(10):
        sp, h = _random_system(rng, m_max=32)
        T = float(rng.uniform(0.5, 2.5))
        q = rng.normal(size=h.n)
        res = ms.gibbs(sp, h, T, q)
        g_min = ms.free_energy(sp, h, T, q, res.rho_g)
        w = sp.weights
        energies = h.energies(q)
        raw = rng.exponential(size=(1000, sp.m))
        rhos = raw / (raw @ w)[:, None]
        g_rand = T * np.sum(w * rhos * np.log(rhos), axis=1) + rhos @ (w * energies)
        worst_gap = max(worst_gap, float(g_min - g_rand.min()))
        grad = T * (1.0 + np.log(res.rho_g)) + energies
        worst_spread = max(worst_spread, float(grad.max() - grad.min()))
    ok = worst_gap <= 1e-12 and worst_spread < 1e-9
    return ok, (
        f"max(G_min-G_rand)={worst_gap:.2e} grad spread={worst_spread:.2e} "
        "(10 systems x 1000 densities)"
    )


def _smooth_coeffs(rng, amp):
    return {
        "a0": float(rng.uniform(-amp, amp)),
        "a1": float(rng.uniform(-amp, amp)),
        "a2": float(rng.uniform(-amp, amp)),
        "amp": float(rng.uniform(-amp, amp)),
        "omega": float(rng.uniform(0.3, 1.0)),
        "phase": float(rng.uniform(0, 2 * math.pi)),
    }


def _smooth_eval(cf, t):
    return (
        cf["a0"]
        + cf["a1"] * t
        + cf["a2"] * t * t
        + cf["amp"] * np.sin(cf["omega"] * t + cf["phase"])
    )


@criterion("barred form preservation")
def criterion_5() -> tuple[bool, str]:
    """Barred maps preserve the reduced form and flatten the reference family."""
    rng = np.random.default_rng(501)
    t = np.linspace(0.0, 1.0, 50001)
    worst_form = 0.0
    for _ in range(100):
        T0 = float(rng.uniform(1.0, 3.0))
        b = float(rng.uniform(0.3, 1.0))
        z = _smooth_eval(_smooth_coeffs(rng, 0.5), t)
        p = _smooth_eval(_smooth_coeffs(rng, 0.5), t)
        q_cw = _smooth_eval(_smooth_coeffs(rng, 0.5), t)
        q_gas = -2.0 + 0.4 * np.tanh(_smooth_eval(_smooth_coeffs(rng, 0.5), t))

        for qs, (Z, P, Q) in (
            (q_cw, cw_to_barred(z, p, q_cw, T0, b)),
            (q_gas, gas_to_barred(z, p, q_gas, T0)),
        ):
            lhs = np.gradient(Z, t) - P * np.gradient(Q, t)
            rhs = np.gradient(z, t) - p * np.gradient(qs, t)
            worst_form = max(worst_form, float(np.abs((lhs - rhs)[1:-1]).max()))

    # reference family onto the zero section
    q = np.linspace(-5.0, -0.1, 200)
    Z, P, _ = gas_to_barred(gas_phi(1.7, q), gas_dphi(1.7, q), q, 1.7)
    worst_zero = max(float(np.abs(Z).max()), float(np.abs(P).max()))
    par = CurieWeissParams(T=1.3, H_back=0.0, b=0.8)
    q, p, z, _ = sample_cw_legendrian(par, np.linspace(-0.95, 0.95, 200)).T
    Z, P, _ = cw_to_barred(z, p, q, par.T, par.b)
    worst_zero = max(worst_zero, float(np.abs(Z).max()), float(np.abs(P).max()))

    # round trips, drawn in the order gas (z, p, q), magnet (z, p, q) per row
    draws = np.array(
        [
            [rng.normal(), rng.normal(), rng.uniform(-4, -0.2),
             rng.normal(), rng.normal(), rng.normal()]
            for _ in range(200)
        ]
    )
    gas, cw = draws[:, :3].T, draws[:, 3:].T
    back = gas_from_barred(*gas_to_barred(*gas, 1.7), 1.7)
    back2 = cw_from_barred(*cw_to_barred(*cw, 1.3, 0.8), 1.3, 0.8)
    worst_rt = max(
        float(np.abs(np.subtract(back, gas)).max()), float(np.abs(np.subtract(back2, cw)).max())
    )
    ok = worst_form < 1e-8 and worst_zero < 1e-10 and worst_rt < 1e-12
    return ok, (
        f"form residual={worst_form:.2e} zero-section={worst_zero:.2e} "
        f"round-trip={worst_rt:.2e}"
    )


def criterion_6_runs():
    """The 50 relaxations of criterion 6: yields (space, Hamiltonian, q, trace)."""
    rng = np.random.default_rng(601)
    for run in range(50):
        sp, h = _random_system(rng, m_max=8, n_max=2, weight_lo=1.0, scale=0.5)
        q = rng.uniform(-1.0, 1.0, h.n)
        T0 = float(rng.uniform(1.0, 2.0))
        dT = float(rng.uniform(0.2, 1.5)) if run % 2 else 0.0
        ramp = 5.0

        def T_of_t(t, T0=T0, dT=dT):
            return T0 + dT * min(t, ramp) / ramp

        rho0 = ms.normalized_density(sp, rng.uniform(0.2, 1.0, sp.m))
        yield sp, h, q, fokker_planck_relax(sp, h, q, T_of_t, rho0, 0.01, 12.0)


@criterion("relaxation contract")
def criterion_6() -> tuple[bool, str]:
    """Relaxation contract: mass, Lyapunov, form sign, terminal Gibbs."""
    worst_mass = worst_lyap = worst_form = worst_tv = 0.0
    for sp, h, q, trace in criterion_6_runs():
        w = sp.weights
        R = trace.densities
        worst_mass = max(worst_mass, float(np.abs(np.vecdot(R, w) - 1.0).max()))
        # G of every node at the temperature of the step leaving the node
        # before it (np.vecdot sums each row as np.dot does)
        entropy_term = np.vecdot(R * np.log(R), w)
        energy_term = np.vecdot(R, w * h.energies(q))
        T_step = trace.temperatures[:-1]
        g0 = T_step * entropy_term[:-1] + energy_term[:-1]
        g1 = T_step * entropy_term[1:] + energy_term[1:]
        worst_lyap = max(worst_lyap, float((g1 - g0).max()))
        worst_form = max(worst_form, float(-trace.form_values.min()))
        terminal = ms.gibbs(sp, h, trace.temperatures[-1], q).rho_g
        worst_tv = max(worst_tv, ms.total_variation(sp, trace.densities[-1], terminal))
    ok = (
        worst_mass <= 1e-10
        and worst_lyap <= LYAPUNOV_TOL
        and worst_form <= 1e-8
        and worst_tv < 1e-6
    )
    return ok, (
        f"mass={worst_mass:.2e} lyapunov={worst_lyap:.2e} "
        f"-min(form)={worst_form:.2e} terminal TV={worst_tv:.2e} (50 runs)"
    )


def criterion_7_draws():
    """The 1000 paths of criterion 7: yields (extended path, reduction spec).

    Each path is admissible by construction: z is integrated from
    zdot = S Tdot + sum_j p_j qdot_j + margin with a positive margin, T
    rises, frozen intensive variables are non-decreasing against positive
    p, and zeroed extensive variables stay at 0.
    """
    rng = np.random.default_rng(701)
    n_nodes = 201
    t = np.linspace(0.0, 1.0, n_nodes)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        rest = list(range(k, n))
        rng.shuffle(rest)
        cut = int(rng.integers(0, len(rest) + 1))
        frozen_idx = sorted(rest[:cut])
        zeroed_idx = sorted(rest[cut:])

        S = 0.5 + 0.4 * np.sin(
            float(rng.uniform(0.3, 1.0)) * t + float(rng.uniform(0, 6))
        )
        Tdot = 0.2 + 0.2 * (1 + np.sin(float(rng.uniform(0.3, 1.0)) * t))
        T = 1.0 + np.concatenate([[0.0], np.cumsum((Tdot[1:] + Tdot[:-1]) / 2 * np.diff(t))])

        p = np.empty((n, n_nodes))
        q = np.empty((n, n_nodes))
        qdot = np.empty((n, n_nodes))
        for j in range(n):
            cf = _smooth_coeffs(rng, 0.5)
            if j in frozen_idx:
                p[j] = 0.3 + 0.2 * np.sin(cf["omega"] * t + cf["phase"])  # >= 0.1
                qd = 0.3 + 0.2 * np.cos(cf["omega"] * t)  # >= 0.1, non-decreasing q
                q[j] = np.concatenate(
                    [[0.0], np.cumsum((qd[1:] + qd[:-1]) / 2 * np.diff(t))]
                )
                qdot[j] = qd
            elif j in zeroed_idx:
                p[j] = 0.0
                q[j] = _smooth_eval(cf, t)
                qdot[j] = 0.0
            else:
                p[j] = _smooth_eval(cf, t)
                cf2 = _smooth_coeffs(rng, 0.5)
                q[j] = _smooth_eval(cf2, t)
                qdot[j] = (
                    cf2["a1"]
                    + 2 * cf2["a2"] * t
                    + cf2["amp"] * cf2["omega"] * np.cos(cf2["omega"] * t + cf2["phase"])
                )

        budget = S * Tdot + np.sum(p * qdot, axis=0)
        margin = 0.01 * (1.1 + np.sin(2.0 * t))
        zdot = budget + margin
        z = np.concatenate([[0.0], np.cumsum((zdot[1:] + zdot[:-1]) / 2 * np.diff(t))])

        spec = ReductionSpec(
            k=k,
            frozen_q={i: None for i in frozen_idx},
            zeroed_p=tuple(zeroed_idx),
        )
        yield SampledPath(t, z, p.T, q.T, S, T), spec


@criterion("reduction soundness")
def criterion_7() -> tuple[bool, str]:
    """Admissible extended paths project to non-negative reduced paths."""
    worst = math.inf
    all_ok = True
    for path, spec in criterion_7_draws():
        rep = check_path_nonnegative(reduce(path, spec), slack=DEFAULT_SLACK)
        worst = min(worst, rep.min_form_value)
        all_ok = all_ok and rep.verdict == "nonnegative"
    return all_ok, f"min reduced form value={worst:.3e} over 1000 admissible paths"


@criterion("slow-process fixed point")
def criterion_8() -> tuple[bool, str]:
    """The scheduled gas family funnels through the chord point."""
    sched = Schedule.linear(101, 1.0, 5.0, 0.0, 2.0)
    x_grid = np.linspace(-2.5, -0.5, 9)
    trace = run_slow_isotopy("gas", sched, x_grid)
    # every time slice of the family contains the chord point (2, -0.5)
    slice_err = 0.0
    for T, bg in zip(sched.temperatures, sched.backgrounds):
        slice_err = max(slice_err, abs(float(gas_dphi(T, -0.5 - bg)) - 2.0))
    # the traced path through the chord point (x = -0.5) rides the chord
    chord_path = trace.paths[-1]
    pq_err = max(
        float(np.abs(chord_path.p[:, 0] - 2.0).max()),
        float(np.abs(chord_path.q[:, 0] + 0.5).max()),
    )
    z_err = float(np.abs(chord_path.z - (1.0 + 4.0 * sched.times) * LN2).max())
    ok = slice_err <= 1e-9 and pq_err <= 1e-9 and z_err <= 1e-10
    return ok, (
        f"slice residual={slice_err:.2e} chord-path (p,q) err={pq_err:.2e} "
        f"z(t)-(1+4t)ln2={z_err:.2e}"
    )


@criterion("monotonicity")
def criterion_9() -> tuple[bool, str]:
    """Monotonicity: dz/dT > 0 matches finite differences; dz/db = p^2/2."""
    A_grid = np.linspace(-30.0, 30.0, 100)
    T_grid = np.linspace(0.2, 5.0, 100)
    step = 1e-5
    worst_fd = 0.0
    min_val = math.inf
    for A in A_grid:
        for T in T_grid:
            val = cw_dz_dT(0.0, float(A), float(T), 1.0)
            min_val = min(min_val, val)
            fd = float(cw_phi(T + step, A) - cw_phi(T - step, A)) / (2 * step)
            worst_fd = max(worst_fd, abs(val - fd))

    worst_db = 0.0
    min_deriv = math.inf
    h = 1e-4
    for T in (0.7, 1.3, 2.2):
        for q in (0.0, 0.5, 1.5):
            for b in (0.4, 0.9, 1.6):
                def branch_z(b_):
                    roots = cw_magnetization_roots(q, CurieWeissParams(T=T, b=b_))
                    return select_equilibrium(roots)

                pt = branch_z(b)
                fd = (branch_z(b + h).z - branch_z(b - h).z) / (2 * h)
                worst_db = max(worst_db, abs(fd - pt.p**2 / 2.0))
                if pt.p > 1e-8:  # roots at numerically zero p carry no signal
                    dz_db, db_dp = cw_coupling_derivatives(pt.p, T, q)
                    min_deriv = min(min_deriv, dz_db, db_dp)
    for p in np.linspace(0.05, 0.95, 10):
        for q in (0.0, 1.0, 3.0):
            dz_db, db_dp = cw_coupling_derivatives(float(p), 1.0, q)
            min_deriv = min(min_deriv, dz_db, db_dp)
    ok = min_val > 0 and worst_fd < 1e-6 and worst_db < 1e-5 and min_deriv > 0
    return ok, (
        f"min dz/dT={min_val:.2e} FD mismatch={worst_fd:.2e} "
        f"|dz/db - p^2/2|={worst_db:.2e} min coupling deriv={min_deriv:.2e}"
    )


def criterion_10_draws():
    """The 200 pairs of criterion 10, a gas then a magnet pair per draw:
    yields (model, t0, t1, c, the closed-form chord's Q* and length, and the
    find_chords arguments)."""
    rng = np.random.default_rng(1001)
    for _ in range(100):
        t0 = float(rng.uniform(0.2, 3.0))
        dT = float(rng.uniform(0.1, 3.0))
        t1 = t0 + dT
        c = float(rng.uniform(0.05, 0.95)) * dT
        closed = gas_chord(t0, t1, c)
        qstar = -c * t0 / dT
        scan = (constant_front(0.0, (-math.inf, 0.0)), difference_front("gas", t0, t1, c),
                10 * qstar - 1.0, qstar / 10.0, 20001)
        yield "gas", t0, t1, c, closed.q, closed.length, scan

        b = float(rng.uniform(0.2, 3.0))
        c = float(rng.uniform(-2.0, 2.0))
        t0 = float(rng.uniform(0.3, 3.0))
        t1 = t0 + float(rng.uniform(0.2, 3.0))
        closed = cw_chord(t0, t1, c, b)
        scan = constant_front(), difference_front("cw", t0, t1, c), -40.0, 40.0, 40001
        yield "cw", t0, t1, c, closed.q + b * closed.p, closed.length, scan


@criterion("upward chord existence")
def criterion_10() -> tuple[bool, str]:
    """Temperature-raising pairs always expose an upward chord."""
    detail = ""
    for model, t0, t1, c, qstar, length, scan in criterion_10_draws():
        found = find_chords(*scan)
        dq, dlen = _finder_errors(found, qstar, length)
        ok = dq <= 1e-8 and dlen <= 1e-8 and found[0].direction == 1
        if not ok and not detail:
            detail = f"{model} draw failed at t0={t0:.3g}, t1={t1:.3g}, c={c:.3g}"
    return not detail, detail or "100 random draws per model: unique chord, direction +1"


def run_all(selected: list[int] | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria (all, or a 1-based subset) in order."""
    indices = selected if selected is not None else list(range(1, len(CRITERIA) + 1))
    if not indices:
        raise ValueError("no criteria selected")
    for i in indices:
        if not 1 <= i <= len(CRITERIA):
            raise ValueError(f"criterion index {i} out of range 1..{len(CRITERIA)}")
    return [CRITERIA[i - 1]() for i in indices]
