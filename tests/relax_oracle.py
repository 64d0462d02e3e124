"""The relaxation step loop as it was before it carried ln rho and G
between steps, kept as a test oracle.

``processes.fokker_planck_relax`` now takes one ``np.log`` and one G per
trial, reuses the accepted trial's ln rho and G terms in the next step and
reads the step temperature from the node it starts at.  Every float is
still computed by the same operations in the same order, so its trace must
equal (``array_equal``) this loop's on every input, and it must raise the
same errors with the same messages.  Both divide a trial by its mass
where that misses 1 by more than ``NORMALIZATION_TOL``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from thermocontact import microstate as ms
from thermocontact.phase_space import SampledPath
from thermocontact.processes import (
    LYAPUNOV_TOL,
    MAX_RELAX_STEPS,
    RHO_FLOOR,
    IntegrationError,
    RelaxTrace,
)


# Overflow is checked, not warned about: G and the mean of its gradient at
# each step and G at each node must be finite.
@np.errstate(over="ignore", invalid="ignore")
def loop_fokker_planck_relax(
    sp: ms.MicrostateSpace,
    h: ms.AffineHamiltonian,
    q,
    T_of_t: Callable[[float], float],
    rho0,
    dt0: float,
    t_end: float,
) -> RelaxTrace:
    """``processes.fokker_planck_relax`` as it was, step loop and all."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if not dt0 > 0:
        raise ValueError("dt0 must be positive")
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if t_end > MAX_RELAX_STEPS * dt0:
        raise ValueError(
            f"dt0 = {dt0!r} needs more than {MAX_RELAX_STEPS} steps to reach t_end = {t_end!r}"
        )
    rho0 = ms.check_density(sp, rho0)
    if float(rho0.min()) <= RHO_FLOOR:
        raise ValueError("initial density must be strictly positive (above the floor)")

    w = sp.weights
    w_total = sp.total_weight
    energies = h.energies(q)

    def G_of(T: float, rho: np.ndarray) -> float:
        return float(T * np.dot(w, rho * np.log(rho)) + np.dot(w * energies, rho))

    t = 0.0
    rho = rho0.copy()
    T = float(T_of_t(0.0))
    if not T > 0:
        raise ValueError("temperature schedule must be positive")

    ts = [0.0]
    rhos = [rho.copy()]
    temps = [T]
    last_T = T
    dt = min(dt0, t_end)
    while t < t_end - 1e-12 * t_end:
        if len(ts) > MAX_RELAX_STEPS:
            raise IntegrationError(
                f"more than {MAX_RELAX_STEPS} steps to reach t_end = {t_end!r}: "
                f"at t={t:.6g} the step is dt={dt:.3e}"
            )
        T = float(T_of_t(t))
        if not T > 0:
            raise ValueError(f"temperature schedule must be positive at t={t:.6g}")
        if T < last_T - 1e-12:
            raise ValueError(
                f"temperature schedule must be non-decreasing (drops at t={t:.6g})"
            )
        last_T = T
        g = T * (1.0 + np.log(rho)) + energies
        g_mean = float(np.dot(w, g)) / w_total
        g = g - g_mean
        g_curr = G_of(T, rho)
        if not (math.isfinite(g_curr) and math.isfinite(g_mean)):
            raise ms._beyond_double(
                "the free energy", T, q, f"G = {g_curr!r}, mean gradient {g_mean!r} at t={t:.6g}"
            )
        dt = min(dt, t_end - t)
        while True:
            trial = rho - dt * g
            mass = float(np.dot(w, trial))
            if 0.0 < mass < math.inf and abs(mass - 1.0) > ms.NORMALIZATION_TOL:
                trial = trial / mass
            if float(trial.min()) > RHO_FLOOR and G_of(T, trial) <= g_curr + LYAPUNOV_TOL:
                break
            dt *= 0.5
            if dt < 1e-15:
                raise IntegrationError(
                    f"step size underflow at t={t:.6g} (dt={dt:.3e}); "
                    "the flow cannot keep the density positive"
                )
        t += dt
        rho = trial
        ts.append(t)
        rhos.append(rho.copy())
        temps.append(float(T_of_t(t)))
        dt = min(dt * 2.0, dt0)

    t_grid = np.array(ts)
    temperatures = np.array(temps)
    rho_rows = np.array(rhos)
    rho_rows.flags.writeable = False
    z, _, p = ms.lift_rows(sp, h, temperatures, q, rho_rows)
    if not np.all(np.isfinite(z)):
        j = int(np.argmin(np.isfinite(z)))
        raise ms._beyond_double("the free energy", temperatures[j], q, f"node {j}")
    reduced_path = SampledPath(t_grid, z, p, np.broadcast_to(q, p.shape))
    form_values = np.diff(z) / np.diff(t_grid)
    return RelaxTrace(t_grid, rho_rows, temperatures, reduced_path, form_values, -z)
