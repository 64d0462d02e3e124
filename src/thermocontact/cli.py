"""Command-line entry point.

Subcommands: gibbs, chord, relax, isotopy, stirling, reduce, verify.
Each subcommand computes everything first and returns an :class:`Outcome`
holding the text of its files; :func:`dispatch` alone writes them, after
the subcommand has returned, so a run that exits non-zero writes no file.
Identical configurations produce byte-identical output files (full double
precision, deterministic ordering).

Exit status: 0 on success, 1 on validation errors (including usage), 2 on
numerical failures.  A JSON file passed through ``--config`` supplies
defaults for the subcommand's flags; explicit flags win, unknown keys are
rejected and every value passes its flag's check.  ``THERMO_OUT_DIR`` sets
the default output directory.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import microstate as ms
from .chords import (
    Chord,
    _chord_dict,
    chords_to_csv,
    chords_to_json,
    cw_chord,
    find_chords,
    gas_chord,
)
from .models import (
    CurieWeissParams,
    FrontFunction,
    IdealGasParams,
    constant_front,
    difference_front,
    sample_cw_legendrian,
    sample_gas_legendrian,
)
from .phase_space import (
    ReductionSpec,
    check_path_nonnegative,
    path_from_csv,
    path_to_csv,
    reduce,
    write_csv,
)
from .processes import Schedule, fokker_planck_relax, run_slow_isotopy, stirling_cycle
from .verify import run_all


class ValidationError(ValueError):
    """Bad configuration: reported on stderr with exit status 1."""


@dataclass
class RunConfig:
    command: str
    out_dir: Path
    options: dict[str, Any]

    def opt(self, key: str, default=None):
        value = self.options.get(key)
        return default if value is None else value

    def require(self, key: str):
        value = self.options.get(key)
        if value is None:
            raise ValidationError(f"missing required option --{key.replace('_', '-')}")
        return value


@dataclass
class Outcome:
    """A subcommand's output files (name to text), stdout and exit status."""

    files: dict[str, str]
    stdout: str
    status: int = 0


def _json(doc) -> str:
    """Strict JSON: a document that holds nan or inf is a numerical failure."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"cannot write JSON: {exc}") from exc


def _csv(write: Callable[..., None], *args) -> str:
    """The text that a library CSV writer, called as ``write(*args, stream)``,
    writes."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


def _table(header: list[str], rows) -> str:
    return _csv(lambda out: write_csv(out, header, rows))


def _read_checked(read: Callable[[str], Any], path: str, what: str):
    """``read(path)``, with an unreadable file reported as a validation error."""
    try:
        return read(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}") from exc


def finite_float(text: str) -> float:
    """The type of every float flag: a number that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# argparse and _config_value name the flag type by __name__:
# "invalid finite float value: 'nan'"
finite_float.__name__ = "finite float"


def _parse_floats(text: str, what: str) -> np.ndarray:
    """The comma-separated values of --what."""
    try:
        return np.array([finite_float(x) for x in text.split(",") if x != ""])
    except ValueError as exc:
        raise ValidationError(f"cannot parse --{what} from {text!r}: {exc}") from exc


def _parse_indices(text: str, what: str) -> list[int]:
    out = []
    for piece in text.split(","):
        if not piece:
            continue
        try:
            idx = int(piece)
        except ValueError as exc:
            raise ValidationError(f"cannot parse {what} from {text!r}") from exc
        if idx < 1:
            raise ValidationError(f"{what} indices are 1-based, got {idx}")
        out.append(idx - 1)
    return out


def _window(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    """np.linspace(lo, hi, n) over the window of --{name}-lo/--{name}-hi."""
    if not math.isfinite(hi - lo):
        window = f"--{name}-lo/--{name}-hi window [{lo!r}, {hi!r}]"
        raise FloatingPointError(f"the {window} is beyond double precision")
    return np.linspace(lo, hi, n)


def _finder_check(found: list[Chord], q: float, pair: str, lo: float, hi: float) -> float:
    """|q - q*| of the finder's first chord; a finder that finds none fails
    the run."""
    if not found:
        raise RuntimeError(
            f"the finder found no {pair} chord in its scan window [{lo!r}, {hi!r}]"
        )
    return abs(found[0].q - q)


def _chords(cfg: RunConfig, name: str, chords: list[Chord]) -> dict[str, str]:
    if cfg.opt("format", "csv") == "json":
        return {f"{name}.json": chords_to_json(chords) + "\n"}
    return {f"{name}.csv": _csv(chords_to_csv, chords)}


@np.errstate(over="ignore", invalid="ignore")
def _front_pair(fig: str, front: FrontFunction, qs: np.ndarray, qstar: float) -> dict[str, str]:
    """fig3/fig4: the difference front and the zero section over qs, and the
    vertical chord segment at qstar."""
    zs, zstar = front.value(qs), front.value(qstar)
    if not (np.all(np.isfinite(zs)) and math.isfinite(zstar)):
        raise FloatingPointError(
            f"the {front.label} is beyond double precision on the figure window "
            f"or at the chord q={float(qstar)!r}"
        )
    return {
        f"{fig}_{name}.csv": _table(["q", "z"], rows)
        for name, rows in (
            ("difference_front", np.column_stack([qs, zs])),
            ("zero_section", np.column_stack([qs, np.zeros_like(qs)])),
            ("chord", [(qstar, 0.0), (qstar, zstar)]),
        )
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_chord(cfg: RunConfig) -> Outcome:
    """Closed-form chord, the finder cross-check and the figure data.

    gas: fig1 (the two equilibrium curves and the chord marker) and fig3;
    cw: fig4 and the magnet Legendrian sample.  fig3/fig4 are the flattened
    front pair with the chord segment (docs/formats.md).
    """
    model = cfg.require("model")
    t0, t1, c = cfg.require("t0"), cfg.require("t1"), cfg.require("c")
    if not 0 < t0 < t1:
        raise ValidationError("need --t1 > --t0 > 0")
    grid_n = int(cfg.opt("grid_n", 20001))
    grid = int(cfg.opt("grid", 400))
    if model == "gas":
        if not c > 0:
            raise ValidationError("the gas jump needs --c > 0")
        closed = gas_chord(t0, t1, c)
        f1 = difference_front("gas", t0, t1, c)
        lo = 10.0 * closed.q - 1.0
        zero = constant_front(0.0, (-math.inf, 0.0))
        found = find_chords(zero, f1, lo, closed.q / 10.0, grid_n)
        qs = _window(cfg.opt("q_lo", -6.0), cfg.opt("q_hi", min(-0.05, c - 0.05)), grid, "q")
        cold, hot = IdealGasParams(T=t0, P_back=0.0), IdealGasParams(T=t1, P_back=c)
        marker = [(closed.q, closed.p, closed.z_start, closed.z_end)]
        files = {
            "fig1_family_cold.csv": _table(["q", "p", "z"], sample_gas_legendrian(cold, qs)),
            "fig1_family_hot.csv": _table(["q", "p", "z"], sample_gas_legendrian(hot, qs)),
            "fig1_chord.csv": _table(["q", "p", "z_start", "z_end"], marker),
        }
        qs = _window(cfg.opt("q_lo", lo), cfg.opt("q_hi", min(0.0, c) - 1e-3), grid, "q")
        files |= _front_pair("fig3", f1, qs, closed.q)
        files |= _chords(cfg, "chords_gas", [closed])
        check = _finder_check(found, closed.q, "gas", lo, closed.q / 10.0)
        return Outcome(
            files,
            f"chord gas: P0={-closed.q:.12g} v={closed.p:.12g} "
            f"length={closed.length:.12g} direction={closed.direction:+d} "
            f"finder|dq|={check:.3e} files={len(files)}",
        )
    if model == "cw":
        b = cfg.opt("b", 1.0)
        if not b > 0:
            raise ValidationError("the magnet chord needs --b > 0")
        closed = cw_chord(t0, t1, c, b)
        qstar = closed.q + b * closed.p
        f1 = difference_front("cw", t0, t1, c)
        span = max(10.0, 3.0 * abs(qstar))
        scan = -span, span
        found = find_chords(constant_front(), f1, *scan, grid_n)
        span = cfg.opt("span", span)
        qs = _window(cfg.opt("q_lo", -span), cfg.opt("q_hi", span), grid, "q")
        files = _front_pair("fig4", f1, qs, qstar)
        sample = sample_cw_legendrian(
            CurieWeissParams(T=t0, H_back=0.0, b=b),
            _window(cfg.opt("p_lo", -0.99), cfg.opt("p_hi", 0.99), grid, "p"),
        )
        files["cw_legendrian.csv"] = _table(["q", "p", "z", "S"], sample)
        files |= _chords(cfg, "chords_cw", [closed])
        check = _finder_check(found, qstar, "cw", *scan)
        return Outcome(
            files,
            f"chord cw: Q*={qstar:.12g} p={closed.p:.12g} q={closed.q:.12g} "
            f"length={closed.length:.12g} direction={closed.direction:+d} "
            f"finder|dQ|={check:.3e} files={len(files)}",
        )
    raise ValidationError(f"unknown model {model!r}, expected 'gas' or 'cw'")


def _cmd_gibbs(cfg: RunConfig) -> Outcome:
    sp, h = _read_checked(ms.load_system, cfg.require("system"), "system")
    T = cfg.require("T")
    if not T > 0:
        raise ValidationError("need --T > 0")
    q = _parse_floats(cfg.require("q"), "q")
    if q.size != h.n:
        raise ValidationError(f"q has length {q.size}, the system expects {h.n}")
    res = ms.gibbs(sp, h, T, q)
    z, S, p = ms.lift_to_extended(sp, h, T, q, res.rho_g)
    point = {"log_z": res.log_z, "z": z, "S": S, "T": T, "p": p.tolist(), "q": q.tolist()}
    return Outcome(
        {
            "gibbs_density.csv": _csv(ms.densities_to_csv, [res.rho_g]),
            "gibbs_point.json": _json(point),
        },
        f"gibbs: m={sp.m} n={h.n} T={T:g} log_z={res.log_z:.12g} G={-z:.12g} S={S:.12g}",
    )


def _cmd_relax(cfg: RunConfig) -> Outcome:
    sp, h = _read_checked(ms.load_system, cfg.require("system"), "system")
    q = _parse_floats(cfg.require("q"), "q")
    if q.size != h.n:
        raise ValidationError(f"q has length {q.size}, the system expects {h.n}")
    T0 = cfg.require("T0")
    T1 = cfg.opt("T1", T0)
    ramp = cfg.opt("ramp", 0.0)
    t_end = cfg.opt("t_end", 20.0)
    dt0 = cfg.opt("dt0", 0.01)
    if not (T0 > 0 and T1 >= T0 and ramp >= 0 and t_end > 0 and dt0 > 0):
        raise ValidationError("need --T0 > 0, --T1 >= --T0, --ramp >= 0, --t-end > 0, --dt0 > 0")
    rho_src = cfg.opt("rho0", "uniform")
    if rho_src == "uniform":
        rho0 = ms.uniform_density(sp)
    else:
        densities = _read_checked(ms.densities_from_csv, rho_src, "input")
        if not len(densities):
            raise ValidationError(f"no density rows in {rho_src!r}")
        rho0 = ms.Density(densities[0])
        ms.check_density(sp, rho0)

    def T_of_t(t):
        return T0 + (T1 - T0) * min(t, ramp) / ramp if ramp > 0 else T1

    trace = fokker_planck_relax(sp, h, q, T_of_t, rho0, dt0, t_end)

    files = {
        "relax_path.csv": _csv(path_to_csv, trace.reduced_path),
        "relax_densities.csv": _csv(ms.densities_to_csv, trace.rho),
    }
    terminal = ms.gibbs(sp, h, trace.temperatures[-1], q).rho_g
    tv = ms.total_variation(sp, trace.densities[-1], terminal)
    gap = trace.spectral_gap_estimate()
    manifest = {
        "files": list(files),
        "n_nodes": int(trace.t_grid.size),
        "t_end": float(trace.t_grid[-1]),
        "terminal_temperature": float(trace.temperatures[-1]),
        "terminal_tv_to_gibbs": tv,
        "min_form_value": float(trace.form_values.min()),
        "G_start": float(trace.G_values[0]),
        "G_end": float(trace.G_values[-1]),
        "spectral_gap_estimate": gap if math.isfinite(gap) else None,
    }
    files["relax_manifest.json"] = _json(manifest)
    return Outcome(
        files,
        f"relax: nodes={trace.t_grid.size} G: {manifest['G_start']:.6g} -> "
        f"{manifest['G_end']:.6g} terminal TV={tv:.3e} "
        f"min form={manifest['min_form_value']:.3e}",
    )


def _cmd_isotopy(cfg: RunConfig) -> Outcome:
    model = cfg.require("model")
    T0, T1 = cfg.require("T0"), cfg.require("T1")
    bg0, bg1 = cfg.opt("bg0", 0.0), cfg.opt("bg1", 0.0)
    n_times = int(cfg.opt("n_times", 101))
    if not (T0 > 0 and T1 > 0 and n_times >= 2):
        raise ValidationError("need positive temperatures and --n-times >= 2")
    x_lo, x_hi = cfg.require("x_lo"), cfg.require("x_hi")
    n_x = int(cfg.opt("n_x", 9))
    if not (x_lo <= x_hi and n_x >= 1):
        raise ValidationError("need --x-lo <= --x-hi and --n-x >= 1")
    sched = Schedule.linear(n_times, T0, T1, bg0, bg1)
    x_grid = _window(x_lo, x_hi, n_x, "x")
    trace = run_slow_isotopy(model, sched, x_grid, b=cfg.opt("b"), slack=cfg.opt("slack", 1e-8))
    files, entries = {}, []
    for i, (path, report) in enumerate(zip(trace.paths, trace.reports)):
        fname = f"isotopy_path_{i:03d}.csv"
        files[fname] = _csv(path_to_csv, path)
        entries.append(
            {"x": float(x_grid[i]), "file": fname, "report": json.loads(report.to_json())}
        )
    manifest = {
        "model": model,
        "b": cfg.opt("b"),
        "schedule": {
            "times": sched.times.tolist(),
            "temperatures": sched.temperatures.tolist(),
            "backgrounds": sched.backgrounds.tolist(),
        },
        "paths": entries,
        "legendrian_residual": trace.legendrian_residual(),
    }
    files["isotopy_manifest.json"] = _json(manifest)
    n_ok = sum(1 for e in entries if e["report"]["verdict"] == "nonnegative")
    return Outcome(
        files,
        f"isotopy {model}: {len(entries)} paths, {n_ok} non-negative, "
        f"family residual={manifest['legendrian_residual']:.3e}",
    )


def _cmd_stirling(cfg: RunConfig) -> Outcome:
    t_cold, t_hot = cfg.require("t_cold"), cfg.require("t_hot")
    v_min, v_max = cfg.require("v_min"), cfg.require("v_max")
    if not (0 < t_cold < t_hot and 0 < v_min < v_max):
        raise ValidationError("need --t-hot > --t-cold > 0 and --v-max > --v-min > 0")
    n_samples = int(cfg.opt("n_samples", 101))
    trace = stirling_cycle(t_cold, t_hot, v_min, v_max, n_samples)
    files, segments = {}, []
    for seg in trace.segments:
        fname = f"stirling_{seg.name}.csv"
        files[fname] = _csv(path_to_csv, seg.path)
        segments.append(
            {
                "name": seg.name,
                "file": fname,
                "delta_G": seg.delta_G,
                "form_sign": seg.form_sign,
                "chord": _chord_dict(seg.chord) if seg.chord is not None else None,
                "temperature_decreasing": seg.temperature_decreasing,
                "degenerate": seg.degenerate,
            }
        )
    manifest = {
        "T_C": t_cold,
        "T_H": t_hot,
        "v_min": v_min,
        "v_max": v_max,
        "segments": segments,
        "closure_residual": trace.closure_residual,
        "total_delta_G": trace.total_delta_G,
    }
    files["stirling_manifest.json"] = _json(manifest)
    return Outcome(
        files,
        f"stirling: 4 segments, closure={trace.closure_residual:.3e} "
        f"sum dG={trace.total_delta_G:.3e} files={len(files)}",
    )


def _cmd_reduce(cfg: RunConfig) -> Outcome:
    path = _read_checked(path_from_csv, cfg.require("input"), "input")
    if path.kind != "extended":
        raise ValidationError("reduce expects an extended path CSV")
    k = int(cfg.require("k"))
    frozen: dict[int, float | None] = {}
    for piece in cfg.opt("frozen", "").split(","):
        if not piece:
            continue
        if "=" in piece:
            idx, _, val = piece.partition("=")
            if not idx:
                raise ValidationError(f"--frozen pin {piece!r} has no index")
            i = _parse_indices(idx, "frozen")[0]
            try:
                frozen[i] = finite_float(val)
            except ValueError as exc:
                raise ValidationError(f"cannot parse --frozen pin {piece!r}: {exc}") from exc
        else:
            frozen[_parse_indices(piece, "frozen")[0]] = None
    zeroed = tuple(_parse_indices(cfg.opt("zeroed", ""), "zeroed"))
    spec = ReductionSpec(k, frozen, zeroed, T0=cfg.opt("T0"), tol=cfg.opt("tol", 1e-9))
    reduced = reduce(path, spec)
    report = check_path_nonnegative(reduced, slack=cfg.opt("slack", 1e-9))
    return Outcome(
        {
            "reduced_path.csv": _csv(path_to_csv, reduced),
            "reduced_report.json": report.to_json() + "\n",
        },
        f"reduce: {path.n_samples} samples, n={path.dimension} -> k={k}, "
        f"verdict={report.verdict} min form={report.min_form_value:.3e}",
    )


def _cmd_verify(cfg: RunConfig) -> Outcome:
    raw = cfg.opt("criteria")
    results = run_all([int(x) for x in raw.split(",") if x] if raw else None)
    lines = [res.line() for res in results]
    failed = [res.index for res in results if not res.passed]
    if failed:
        lines.append(f"verify: {len(failed)} criteria failed: {failed}")
    else:
        lines.append(f"verify: all {len(results)} criteria passed")
    return Outcome({}, "\n".join(lines), 2 if failed else 0)


COMMANDS: dict[str, Callable[[RunConfig], Outcome]] = {
    "chord": _cmd_chord,
    "gibbs": _cmd_gibbs,
    "relax": _cmd_relax,
    "isotopy": _cmd_isotopy,
    "stirling": _cmd_stirling,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}

# built once per process: parsing reads the parser and never changes it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermocontact",
        description="Equilibrium fronts, path admissibility, Reeb chords and "
        "relaxation flows of finite thermodynamic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with defaults for this subcommand")
        p.add_argument("--out-dir", dest="out_dir", help="output directory (default: $THERMO_OUT_DIR or .)")

    p = sub.add_parser("chord", help="closed-form chords plus the generic-finder cross-check")
    p.add_argument("model", choices=("gas", "cw"))
    p.add_argument("--t0", type=finite_float)
    p.add_argument("--t1", type=finite_float)
    p.add_argument("--c", type=finite_float)
    p.add_argument("--b", type=finite_float)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--q-lo", dest="q_lo", type=finite_float, help="figure window start")
    p.add_argument("--q-hi", dest="q_hi", type=finite_float, help="figure window end")
    p.add_argument("--p-lo", dest="p_lo", type=finite_float, help="cw Legendrian sample start")
    p.add_argument("--p-hi", dest="p_hi", type=finite_float, help="cw Legendrian sample end")
    p.add_argument("--span", type=finite_float, help="cw figure half-width")
    p.add_argument("--format", dest="format", choices=("csv", "json"), help="chords file format")
    common(p)

    p = sub.add_parser("gibbs", help="equilibrium density and lifted phase-space point")
    p.add_argument("--system", help="system JSON file")
    p.add_argument("--T", type=finite_float)
    p.add_argument("--q", help="comma-separated intensive values")
    common(p)

    p = sub.add_parser("relax", help="gradient-flow relaxation of a density")
    p.add_argument("--system")
    p.add_argument("--q")
    p.add_argument("--T0", type=finite_float)
    p.add_argument("--T1", type=finite_float)
    p.add_argument("--ramp", type=finite_float, help="duration of the linear T ramp")
    p.add_argument("--t-end", dest="t_end", type=finite_float)
    p.add_argument("--dt0", type=finite_float)
    p.add_argument("--rho0", help="'uniform' or a density CSV (first row used)")
    common(p)

    p = sub.add_parser("isotopy", help="trace the scheduled equilibrium family")
    p.add_argument("model", choices=("gas", "cw"))
    p.add_argument("--T0", type=finite_float)
    p.add_argument("--T1", type=finite_float)
    p.add_argument("--bg0", type=finite_float)
    p.add_argument("--bg1", type=finite_float)
    p.add_argument("--n-times", dest="n_times", type=int)
    p.add_argument("--x-lo", dest="x_lo", type=finite_float)
    p.add_argument("--x-hi", dest="x_hi", type=finite_float)
    p.add_argument("--n-x", dest="n_x", type=int)
    p.add_argument("--b", type=finite_float)
    p.add_argument("--slack", type=finite_float)
    common(p)

    p = sub.add_parser("stirling", help="four-segment engine cycle of the gas")
    p.add_argument("--t-cold", dest="t_cold", type=finite_float)
    p.add_argument("--t-hot", dest="t_hot", type=finite_float)
    p.add_argument("--v-min", dest="v_min", type=finite_float)
    p.add_argument("--v-max", dest="v_max", type=finite_float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    common(p)

    p = sub.add_parser("reduce", help="project an extended path CSV")
    p.add_argument("--input", help="extended path CSV")
    p.add_argument("--k", type=int)
    p.add_argument("--T0", type=finite_float)
    p.add_argument("--frozen", help="1-based 'i=value' pins or bare indices, comma-separated")
    p.add_argument("--zeroed", help="1-based indices, comma-separated")
    p.add_argument("--tol", type=finite_float)
    p.add_argument("--slack", type=finite_float)
    common(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated 1-based subset to run")
    common(p)

    return parser


# text flags whose config value may be a JSON number, read as its text
_NUMBER_TEXT = ("q", "criteria", "frozen", "zeroed")
# text flags whose config value may be a JSON list of numbers or strings,
# read as the comma-separated text of its items
_LIST_TEXT = ("q", "criteria")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_text_value(key: str, value):
    """The command-line text that a config value of a text flag stands for.

    File keys, ``out_dir`` and ``format`` take a string; ``q``,
    ``criteria``, ``frozen`` and ``zeroed`` also take a number (its
    command-line text), and ``q`` and ``criteria`` a list of numbers or
    strings (``[0.3, "1"]`` is ``0.3,1``).
    """
    if value is None or isinstance(value, str):
        return value
    if key in _NUMBER_TEXT and _is_number(value):
        return str(value)
    if key in _LIST_TEXT and isinstance(value, list) and all(
        _is_number(x) or isinstance(x, str) for x in value
    ):
        return ",".join(str(x) for x in value)
    if key in _LIST_TEXT:
        want = "a string, a number or a list of numbers or strings"
    elif key in _NUMBER_TEXT:
        want = "a string or a number"
    else:
        want = "a string"
    raise ValidationError(f"config key {key!r} must be {want}, got {value!r}")


def _config_value(key: str, value, flag: argparse.Action):
    """Read a config value as ``flag`` reads its command-line text.

    A typed flag converts the value's text with its ``type``, which rejects
    ``true``, a list and, for an int flag, ``10.5``; a text flag takes what
    :func:`_check_text_value` allows.  Then the flag's ``choices`` apply."""
    if value is not None and flag.type is not None:
        try:
            return flag.type(str(value))
        except ValueError as exc:
            raise ValidationError(
                f"config key {key!r}: invalid {flag.type.__name__} value {value!r}"
            ) from exc
    value = _check_text_value(key, value)
    if flag.choices is not None and value not in (None, *flag.choices):
        raise ValidationError(
            f"config key {key!r}: invalid choice {value!r} (choose from {sorted(flag.choices)})"
        )
    return value


def build_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """Merge ``args`` with its ``--config`` file into a RunConfig.

    The keys a config may set are the ``dest``s of the subcommand's flags
    other than ``config`` (not its positional arguments, which the command
    line always sets).  Every value is read as its flag reads text, with
    the flag's ``type`` and ``choices`` taken from ``parser``, and a flag
    given on the command line wins over it.
    """
    options: dict[str, Any] = {
        k: v for k, v in vars(args).items() if k not in ("command", "config")
    }
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in sub.choices[args.command]._actions if a.option_strings}
        unknown = set(doc) - (set(flags) & set(options))
        if unknown:
            raise ValidationError(f"unknown config keys for {args.command!r}: {sorted(unknown)}")
        for key, value in doc.items():
            value = _config_value(key, value, flags[key])
            if options[key] is None:
                options[key] = value
    out_dir = options.pop("out_dir") or os.environ.get("THERMO_OUT_DIR", ".")
    return RunConfig(command=args.command, out_dir=Path(out_dir), options=options)


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write its files and print its stdout;
    return the exit status.  No file is written before the subcommand has
    returned, so a run that ends in an error or a failure writes none."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = build_config(args, parser)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        outcome = COMMANDS[args.command](cfg)
        for name, text in outcome.files.items():
            (cfg.out_dir / name).write_text(text, newline="")
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    print(outcome.stdout)
    return outcome.status


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
