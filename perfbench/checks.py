"""Output checks of the benchmark, made apart from the program.

Every reference value here is recomputed with ``math`` or numpy from the
closed forms and properties the method must have; nothing calls into
``thermocontact``.  Each check raises :class:`CheckError` naming what is
wrong and returns nothing when the output is right.
"""

from __future__ import annotations

import math

import numpy as np

CHORD_TOL = 1e-8
MASS_TOL = 1e-10
LYAPUNOV_TOL = 1e-12
TERMINAL_TV_TOL = 1e-6
FORM_TOL = 1e-8
GIBBS_RTOL = 1e-12
CLOSED_FORM_RTOL = 1e-10
CLOSURE_TOL = 1e-12


class CheckError(AssertionError):
    """An output of the program disagrees with its independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CLOSED_FORM_RTOL * max(1.0, abs(a), abs(b))


def log_2cosh(x: float) -> float:
    """ln(2 cosh x) without overflow."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax))


# ---------------------------------------------------------------------------
# closed-form chords

def gas_chord_reference(t0: float, t1: float, c: float) -> dict:
    """Chord between the gas families (t0, 0) and (t1, c).

    The common volume is v = (t1 - t0)/c at q = -c t0/(t1 - t0); the
    endpoints are t0 ln v and t1 ln v.
    """
    v = (t1 - t0) / c
    z0, z1 = t0 * math.log(v), t1 * math.log(v)
    return {
        "q": -c * t0 / (t1 - t0),
        "p": v,
        "z_start": z0,
        "z_end": z1,
        "length": (t1 - t0) * abs(math.log(v)),
        "direction": 1 if z1 > z0 else -1,
    }


def cw_chord_reference(t0: float, t1: float, c: float, b: float) -> dict:
    """Chord between the magnet families (t0, 0) and (t1, c).

    With a = c/(t1 - t0) the common point is p = tanh a and the barred
    abscissa Q = q + b p = t0 a; both endpoint arguments reduce to a, so the
    length is (t1 - t0) ln(2 cosh a) > 0.
    """
    a = c / (t1 - t0)
    p = math.tanh(a)
    big_q = t0 * a
    half = b * p * p / 2.0
    return {
        "Q": big_q,
        "q": big_q - b * p,
        "p": p,
        "z_start": t0 * log_2cosh(a) - half,
        "z_end": t1 * log_2cosh(a) - half,
        "length": (t1 - t0) * log_2cosh(a),
        "direction": 1,
    }


def check_found_chord(found, q_ref: float, length_ref: float, what: str) -> None:
    """The finder gives exactly one upward chord at the closed-form place."""
    _require(len(found) == 1, f"{what}: expected 1 chord, found {len(found)}")
    ch = found[0]
    _require(ch.direction == 1, f"{what}: chord direction {ch.direction}, expected +1")
    _require(
        abs(ch.q - q_ref) <= CHORD_TOL,
        f"{what}: chord abscissa {ch.q!r} vs closed form {q_ref!r}",
    )
    _require(
        abs(ch.length - length_ref) <= CHORD_TOL,
        f"{what}: chord length {ch.length!r} vs closed form {length_ref!r}",
    )


def check_chord_row(row: dict, ref: dict, what: str) -> None:
    """A row of a chord CSV carries the closed-form chord."""
    for key in ("q", "p", "z_start", "z_end", "length"):
        _require(
            _close(float(row[key]), ref[key]),
            f"{what}: {key}={row[key]} vs closed form {ref[key]!r}",
        )
    _require(
        int(row["direction"]) == ref["direction"],
        f"{what}: direction {row['direction']} vs {ref['direction']}",
    )


# ---------------------------------------------------------------------------
# microstate systems and relaxation

def energies(v_int, v_bar, q) -> np.ndarray:
    return np.asarray(v_int, dtype=float) + np.asarray(q, dtype=float) @ np.asarray(
        v_bar, dtype=float
    )


def gibbs_reference(weights, v_int, v_bar, T: float, q) -> np.ndarray:
    """Weighted softmax exp(-H/T)/Z with sum_i w_i rho_i = 1."""
    a = -energies(v_int, v_bar, q) / T
    e = np.exp(a - a.max())
    return e / np.dot(weights, e)


def free_energy_at(weights, e: np.ndarray, T: float, rho: np.ndarray) -> float:
    return float(T * np.dot(weights, rho * np.log(rho)) + np.dot(weights * e, rho))


def check_gibbs_density(rho, weights, v_int, v_bar, T: float, q) -> None:
    ref = gibbs_reference(weights, v_int, v_bar, T, q)
    rho = np.asarray(rho, dtype=float)
    _require(rho.shape == ref.shape, f"gibbs density has shape {rho.shape}, expected {ref.shape}")
    _require(
        bool(np.allclose(rho, ref, rtol=GIBBS_RTOL, atol=0.0)),
        f"gibbs density deviates from the softmax by {np.max(np.abs(rho - ref)):.3e}",
    )


def check_masses(densities: np.ndarray, weights) -> None:
    mass = densities @ np.asarray(weights, dtype=float)
    worst = float(np.max(np.abs(mass - 1.0)))
    _require(worst <= MASS_TOL, f"density mass drifts by {worst:.3e} > {MASS_TOL}")


def check_relaxation(
    densities: np.ndarray,
    temperatures: np.ndarray,
    form_values: np.ndarray,
    weights,
    v_int,
    v_bar,
    q,
) -> None:
    """Mass, per-step Lyapunov decrease, form sign and terminal equilibrium."""
    w = np.asarray(weights, dtype=float)
    check_masses(densities, w)
    e = energies(v_int, v_bar, q)
    for j in range(densities.shape[0] - 1):
        T = float(temperatures[j])
        rise = free_energy_at(w, e, T, densities[j + 1]) - free_energy_at(w, e, T, densities[j])
        _require(
            rise <= LYAPUNOV_TOL,
            f"free energy rises by {rise:.3e} over step {j} at T={T!r}",
        )
    worst = float(np.min(form_values))
    _require(worst >= -FORM_TOL, f"relaxation form value {worst:.3e} < -{FORM_TOL}")
    ref = gibbs_reference(w, v_int, v_bar, float(temperatures[-1]), q)
    tv = 0.5 * float(np.dot(w, np.abs(densities[-1] - ref)))
    _require(tv < TERMINAL_TV_TOL, f"terminal TV to Gibbs {tv:.3e} >= {TERMINAL_TV_TOL}")


# ---------------------------------------------------------------------------
# paths

def check_verdict(report, expected: str, what: str) -> None:
    _require(
        report.verdict == expected,
        f"{what}: verdict {report.verdict!r} (min form {report.min_form_value:.3e}), "
        f"expected {expected!r}",
    )


def check_violation_window(violations, times: np.ndarray, window: tuple[float, float],
                           deep: np.ndarray) -> None:
    """Violations fall only inside the window and cover its deep part."""
    lo, hi = window
    violations = np.asarray(violations, dtype=int)
    _require(violations.size > 0, "control path: no violation reported")
    outside = violations[(times[violations] < lo) | (times[violations] > hi)]
    _require(
        outside.size == 0,
        f"control path: violations at t={times[outside][:5].tolist()} outside {window}",
    )
    missed = np.setdiff1d(np.nonzero(deep)[0], violations)
    _require(missed.size == 0, f"control path: {missed.size} deep-window samples not flagged")


def check_text_equal(got: str, expected: str, what: str) -> None:
    if got == expected:
        return
    got_lines, exp_lines = got.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, exp_lines)):
        if a != b:
            raise CheckError(f"{what}: line {i + 1} differs: {a!r} vs {b!r}")
    raise CheckError(f"{what}: {len(got_lines)} lines vs {len(exp_lines)} expected")


def check_monotone_heating(table: np.ndarray, what: str) -> None:
    """A reduced path (t, z, p, q) at fixed q with z non-decreasing.

    At fixed q the reduced form is dz, and dz/dT = S >= 0 on a heating
    schedule, so z may not fall between samples beyond roundoff.
    """
    z, q = table[:, 1], table[:, -1]
    _require(bool(np.all(q == q[0])), f"{what}: q moves along a fixed-q isotopy path")
    drop = float(np.min(np.diff(z)))
    _require(drop >= -1e-12 * max(1.0, float(np.max(np.abs(z)))), f"{what}: z falls by {-drop:.3e}")


def check_stirling(manifest: dict, corners: dict) -> None:
    """Closure and corner signs of the engine cycle.

    ``corners`` maps segment names to (t, z, p, q) tables; the loop closes
    when the last heating-corner sample returns to the first hot-isotherm
    sample in (p, q).
    """
    _require(
        manifest["closure_residual"] <= CLOSURE_TOL,
        f"stirling closure residual {manifest['closure_residual']!r}",
    )
    first = corners["isotherm_hot"][0]
    last = corners["heating_corner"][-1]
    gap = max(abs(first[2] - last[2]), abs(first[3] - last[3]))
    _require(gap <= CLOSURE_TOL, f"stirling loop does not close: (p, q) gap {gap:.3e}")
    signs = {seg["name"]: seg["form_sign"] for seg in manifest["segments"]}
    _require(signs.get("heating_corner") == "positive", f"heating corner sign {signs.get('heating_corner')!r}")
    _require(signs.get("cooling_corner") == "negative", f"cooling corner sign {signs.get('cooling_corner')!r}")
    for name in ("heating_corner", "cooling_corner"):
        a, b = corners[name][0], corners[name][-1]
        increment = (b[1] - a[1]) - a[2] * (b[3] - a[3])
        want = 1.0 if name == "heating_corner" else -1.0
        _require(increment * want > 0, f"{name}: recomputed form increment {increment:.3e}")
