"""Command-line entry point.

Subcommands: gibbs, chord, relax, isotopy, stirling, reduce, verify.
Each subcommand computes everything first and returns an :class:`Outcome`
holding the text of its files; :func:`dispatch` alone writes them, after
the subcommand has returned, all of them or none, so a run that exits
non-zero creates no directory and leaves no file, even when a write fails.
Identical configurations produce byte-identical output files (full double
precision, deterministic ordering).

Exit status: 0 on success, 1 on validation errors (a usage error too: one
``error:`` line, no usage block), 2 on numerical and allocation failures.
A JSON file passed through ``--config`` supplies defaults for the
subcommand's flags; explicit flags win, unknown keys are rejected and every
value passes its flag's check.  ``THERMO_OUT_DIR`` sets the default output
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
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
    DEFAULT_REDUCTION_TOL,
    DEFAULT_SLACK,
    ReductionSpec,
    _scalar,
    check_path_nonnegative,
    path_from_csv,
    path_to_csv,
    reduce,
    write_csv,
)
from .processes import (
    ISOTOPY_SLACK,
    Schedule,
    fokker_planck_relax,
    run_slow_isotopy,
    stirling_cycle,
)
from .verify import run_all


# The chord cross-check's bound on |q - q*| / max(1, |q*|).  Over 6000
# drawn gas and magnet pairs with t1 - t0 >= 1e-6 t0 (t0 from 0.01 to 100,
# grid_n 20001) that ratio stayed below 1.6e-10; where t1 - t0 is far
# smaller the front difference flattens and the error passes 1e-6.
FINDER_TOL = 1e-8


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


def _require(args: argparse.Namespace, key: str):
    """The value of --key, which a flag or a config must have given."""
    value = getattr(args, key)
    if value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def _or(value, fallback):
    """value, or the computed fallback where no flag or config gave one."""
    return fallback if value is None else value


def _read_checked(read: Callable[[str], Any], path: str, what: str):
    """``read(path)``; a file it cannot open, decode as UTF-8 or parse as JSON
    is an error naming it."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc


def finite_float(text: str) -> float:
    """The type of every float flag: a number that is neither nan nor infinite."""
    return _scalar(float(text), "value")


# argparse and _config_value name the flag type by __name__:
# "invalid finite float value: 'nan'"
finite_float.__name__ = "finite float"


def _parse_floats(text: str, what: str) -> np.ndarray:
    """The comma-separated values of --what."""
    try:
        return np.array([finite_float(x) for x in text.split(",") if x != ""])
    except ValueError as exc:
        raise ValueError(f"cannot parse --{what} from {text!r}: {exc}") from exc


def _parse_indices(text: str, what: str) -> list[int]:
    out = []
    for piece in text.split(","):
        if not piece:
            continue
        try:
            idx = int(piece)
        except ValueError as exc:
            raise ValueError(f"cannot parse {what} from {text!r}") from exc
        if idx < 1:
            raise ValueError(f"{what} indices are 1-based, got {idx}")
        out.append(idx - 1)
    return out


def _window(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    """np.linspace(lo, hi, n) over the window of --{name}-lo/--{name}-hi."""
    if not math.isfinite(hi - lo):
        window = f"--{name}-lo/--{name}-hi window [{lo!r}, {hi!r}]"
        raise FloatingPointError(f"the {window} is beyond double precision")
    return np.linspace(lo, hi, n)


def _check_rising(lo: float, hi: float, name: str) -> None:
    """A chord figure window must run up."""
    if not lo < hi:
        raise ValueError(f"need --{name}-lo < --{name}-hi, got the window [{lo!r}, {hi!r}]")


def _figure_window(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    """:func:`_window` for a chord figure table, checked to run up."""
    _check_rising(lo, hi, name)
    return _window(lo, hi, n, name)


def _finder_check(found: list[Chord], q: float, pair: str, lo: float, hi: float) -> float:
    """|q - q*| of the finder's first chord; a finder that finds none, or
    one farther than FINDER_TOL * max(1, |q*|) from q*, fails the run."""
    if not found:
        raise RuntimeError(
            f"the finder found no {pair} chord in its scan window [{lo!r}, {hi!r}]"
        )
    error = abs(found[0].q - q)
    if not error <= FINDER_TOL * max(1.0, abs(q)):
        raise RuntimeError(
            f"the finder's {pair} chord at {found[0].q!r} is {error:.3e} from the closed "
            f"form {q!r}, beyond the cross-check tolerance {FINDER_TOL:g} * max(1, |q*|)"
        )
    return error


def _chords(args: argparse.Namespace, name: str, chords: list[Chord]) -> dict[str, str]:
    if args.format == "json":
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

def _cmd_chord(args: argparse.Namespace) -> Outcome:
    """Closed-form chord, the finder cross-check and the figure data.

    gas: fig1 (the two equilibrium curves and the chord marker) and fig3;
    cw: fig4 and the magnet Legendrian sample.  fig3/fig4 are the flattened
    front pair with the chord segment (docs/formats.md).
    """
    t0, t1, c = _require(args, "t0"), _require(args, "t1"), _require(args, "c")
    if args.grid < 2:
        raise ValueError(f"need --grid >= 2, got {args.grid}")
    # the magnet-only flags are checked whatever the model
    if not args.b > 0:
        raise ValueError(f"need --b > 0, got {args.b!r}")
    if args.span is not None and not args.span > 0:
        raise ValueError(f"need --span > 0, got {args.span!r}")
    _check_rising(args.p_lo, args.p_hi, "p")
    if args.model == "gas":
        closed = gas_chord(t0, t1, c)
        f1 = difference_front("gas", t0, t1, c)
        lo = 10.0 * closed.q - 1.0
        zero = constant_front(0.0, (-math.inf, 0.0))
        found = find_chords(zero, f1, lo, closed.q / 10.0, args.grid_n)
        qs = _figure_window(
            _or(args.q_lo, -6.0), _or(args.q_hi, min(-0.05, c - 0.05)), args.grid, "q"
        )
        cold, hot = IdealGasParams(T=t0, P_back=0.0), IdealGasParams(T=t1, P_back=c)
        marker = [(closed.q, closed.p, closed.z_start, closed.z_end)]
        files = {
            "fig1_family_cold.csv": _table(["q", "p", "z"], sample_gas_legendrian(cold, qs)),
            "fig1_family_hot.csv": _table(["q", "p", "z"], sample_gas_legendrian(hot, qs)),
            "fig1_chord.csv": _table(["q", "p", "z_start", "z_end"], marker),
        }
        qs = _figure_window(_or(args.q_lo, lo), _or(args.q_hi, min(0.0, c) - 1e-3), args.grid, "q")
        files |= _front_pair("fig3", f1, qs, closed.q)
        files |= _chords(args, "chords_gas", [closed])
        check = _finder_check(found, closed.q, "gas", lo, closed.q / 10.0)
        return Outcome(
            files,
            f"chord gas: P0={-closed.q:.12g} v={closed.p:.12g} "
            f"length={closed.length:.12g} direction={closed.direction:+d} "
            f"finder|dq|={check:.3e} files={len(files)}",
        )
    b = args.b
    closed = cw_chord(t0, t1, c, b)
    qstar = closed.q + b * closed.p
    f1 = difference_front("cw", t0, t1, c)
    span = max(10.0, 3.0 * abs(qstar))
    scan = -span, span
    found = find_chords(constant_front(), f1, *scan, args.grid_n)
    span = _or(args.span, span)
    qs = _figure_window(_or(args.q_lo, -span), _or(args.q_hi, span), args.grid, "q")
    files = _front_pair("fig4", f1, qs, qstar)
    sample = sample_cw_legendrian(
        CurieWeissParams(T=t0, H_back=0.0, b=b),
        _window(args.p_lo, args.p_hi, args.grid, "p"),
    )
    files["cw_legendrian.csv"] = _table(["q", "p", "z", "S"], sample)
    files |= _chords(args, "chords_cw", [closed])
    check = _finder_check(found, qstar, "cw", *scan)
    return Outcome(
        files,
        f"chord cw: Q*={qstar:.12g} p={closed.p:.12g} q={closed.q:.12g} "
        f"length={closed.length:.12g} direction={closed.direction:+d} "
        f"finder|dQ|={check:.3e} files={len(files)}",
    )


def _cmd_gibbs(args: argparse.Namespace) -> Outcome:
    sp, h = _read_checked(ms.load_system, _require(args, "system"), "system file")
    T = _require(args, "T")
    q = _parse_floats(_require(args, "q"), "q")
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


def _cmd_relax(args: argparse.Namespace) -> Outcome:
    sp, h = _read_checked(ms.load_system, _require(args, "system"), "system file")
    q = _parse_floats(_require(args, "q"), "q")
    T0 = _require(args, "T0")
    T1, ramp = _or(args.T1, T0), args.ramp
    # the library never sees T0 at --ramp 0, and a lower T1 is a valid constant schedule
    if not (T0 > 0 and T1 >= T0 and ramp >= 0):
        raise ValueError("need --T0 > 0, --T1 >= --T0, --ramp >= 0")
    if args.rho0 == "uniform":
        rho0 = ms.uniform_density(sp)
    else:
        densities = _read_checked(ms.densities_from_csv, args.rho0, "input file")
        if not len(densities):
            raise ValueError(f"no density rows in {args.rho0!r}")
        rho0 = densities[0]

    def T_of_t(t):
        return T0 + (T1 - T0) * min(t, ramp) / ramp if ramp > 0 else T1

    trace = fokker_planck_relax(sp, h, q, T_of_t, rho0, args.dt0, args.t_end)

    files = {
        "relax_path.csv": _csv(path_to_csv, trace.reduced_path),
        "relax_densities.csv": _csv(ms.densities_to_csv, trace.densities),
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


def _cmd_isotopy(args: argparse.Namespace) -> Outcome:
    T0, T1 = _require(args, "T0"), _require(args, "T1")
    # the CLI's own rules: the library's lines would name n_nodes, or for
    # --n-x give numpy's wording
    if args.n_times < 2:
        raise ValueError(f"need --n-times >= 2, got {args.n_times}")
    x_lo, x_hi = _require(args, "x_lo"), _require(args, "x_hi")
    if not (x_lo <= x_hi and args.n_x >= 1):
        raise ValueError("need --x-lo <= --x-hi and --n-x >= 1")
    sched = Schedule.linear(args.n_times, T0, T1, args.bg0, args.bg1)
    x_grid = _window(x_lo, x_hi, args.n_x, "x")
    trace = run_slow_isotopy(args.model, sched, x_grid, b=args.b, slack=args.slack)
    files, entries = {}, []
    for i, (path, report) in enumerate(zip(trace.paths, trace.reports)):
        fname = f"isotopy_path_{i:03d}.csv"
        files[fname] = _csv(path_to_csv, path)
        entries.append(
            {"x": float(x_grid[i]), "file": fname, "report": json.loads(report.to_json())}
        )
    manifest = {
        "model": args.model,
        "b": args.b,
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
        f"isotopy {args.model}: {len(entries)} paths, {n_ok} non-negative, "
        f"family residual={manifest['legendrian_residual']:.3e}",
    )


def _cmd_stirling(args: argparse.Namespace) -> Outcome:
    t_cold, t_hot = _require(args, "t_cold"), _require(args, "t_hot")
    v_min, v_max = _require(args, "v_min"), _require(args, "v_max")
    trace = stirling_cycle(t_cold, t_hot, v_min, v_max, args.n_samples)
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


def _cmd_reduce(args: argparse.Namespace) -> Outcome:
    path = _read_checked(path_from_csv, _require(args, "input"), "input file")
    k = _require(args, "k")
    frozen: dict[int, float | None] = {}
    for piece in args.frozen.split(","):
        if not piece:
            continue
        if "=" in piece:
            idx, _, val = piece.partition("=")
            if not idx:
                raise ValueError(f"--frozen pin {piece!r} has no index")
            i = _parse_indices(idx, "frozen")[0]
            try:
                frozen[i] = finite_float(val)
            except ValueError as exc:
                raise ValueError(f"cannot parse --frozen pin {piece!r}: {exc}") from exc
        else:
            frozen[_parse_indices(piece, "frozen")[0]] = None
    zeroed = tuple(_parse_indices(args.zeroed, "zeroed"))
    reduced = reduce(path, ReductionSpec(k, frozen, zeroed, T0=args.T0, tol=args.tol))
    report = check_path_nonnegative(reduced, slack=args.slack)
    return Outcome(
        {
            "reduced_path.csv": _csv(path_to_csv, reduced),
            "reduced_report.json": report.to_json() + "\n",
        },
        f"reduce: {path.n_samples} samples, n={path.dimension} -> k={k}, "
        f"verdict={report.verdict} min form={report.min_form_value:.3e}",
    )


def _cmd_verify(args: argparse.Namespace) -> Outcome:
    raw = args.criteria
    results = run_all([i + 1 for i in _parse_indices(raw, "criteria")] if raw else None)
    lines = [res.line() for res in results]
    failed = [res.index for res in results if not res.passed]
    if failed:
        lines.append(f"verify: {len(failed)} criteria failed: {failed}")
    else:
        lines.append(f"verify: all {len(results)} criteria passed")
    return Outcome({}, "\n".join(lines), 2 if failed else 0)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error leaves through dispatch as one ``error:`` line."""
        raise ValueError(message)


# built once per process: parsing reads the parser and never changes it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermocontact",
        description="Equilibrium fronts, path admissibility, Reeb chords and "
        "relaxation flows of finite thermodynamic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run: Callable[[argparse.Namespace], Outcome]) -> None:
        p.add_argument("--config", help="JSON file with defaults for this subcommand")
        p.add_argument("--out-dir", help="output directory (default: $THERMO_OUT_DIR or .)")
        p.set_defaults(run=run)

    p = sub.add_parser("chord", help="closed-form chords plus the generic-finder cross-check")
    p.add_argument("model", choices=("gas", "cw"))
    p.add_argument("--t0", type=finite_float)
    p.add_argument("--t1", type=finite_float)
    p.add_argument("--c", type=finite_float)
    p.add_argument("--b", type=finite_float, default=1.0)
    p.add_argument("--grid-n", type=int, default=20001)
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--q-lo", type=finite_float, help="figure window start")
    p.add_argument("--q-hi", type=finite_float, help="figure window end")
    p.add_argument("--p-lo", type=finite_float, default=-0.99, help="cw Legendrian sample start")
    p.add_argument("--p-hi", type=finite_float, default=0.99, help="cw Legendrian sample end")
    p.add_argument("--span", type=finite_float, help="cw figure half-width")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="chords file format")
    common(p, _cmd_chord)

    p = sub.add_parser("gibbs", help="equilibrium density and lifted phase-space point")
    p.add_argument("--system", help="system JSON file")
    p.add_argument("--T", type=finite_float)
    p.add_argument("--q", help="comma-separated intensive values")
    common(p, _cmd_gibbs)

    p = sub.add_parser("relax", help="gradient-flow relaxation of a density")
    p.add_argument("--system")
    p.add_argument("--q")
    p.add_argument("--T0", type=finite_float)
    p.add_argument("--T1", type=finite_float)
    p.add_argument("--ramp", type=finite_float, default=0.0, help="duration of the linear T ramp")
    p.add_argument("--t-end", type=finite_float, default=20.0)
    p.add_argument("--dt0", type=finite_float, default=0.01)
    p.add_argument("--rho0", default="uniform", help="'uniform' or a density CSV (first row used)")
    common(p, _cmd_relax)

    p = sub.add_parser("isotopy", help="trace the scheduled equilibrium family")
    p.add_argument("model", choices=("gas", "cw"))
    p.add_argument("--T0", type=finite_float)
    p.add_argument("--T1", type=finite_float)
    p.add_argument("--bg0", type=finite_float, default=0.0)
    p.add_argument("--bg1", type=finite_float, default=0.0)
    p.add_argument("--n-times", type=int, default=101)
    p.add_argument("--x-lo", type=finite_float)
    p.add_argument("--x-hi", type=finite_float)
    p.add_argument("--n-x", type=int, default=9)
    p.add_argument("--b", type=finite_float)
    p.add_argument("--slack", type=finite_float, default=ISOTOPY_SLACK)
    common(p, _cmd_isotopy)

    p = sub.add_parser("stirling", help="four-segment engine cycle of the gas")
    p.add_argument("--t-cold", type=finite_float)
    p.add_argument("--t-hot", type=finite_float)
    p.add_argument("--v-min", type=finite_float)
    p.add_argument("--v-max", type=finite_float)
    p.add_argument("--n-samples", type=int, default=101)
    common(p, _cmd_stirling)

    p = sub.add_parser("reduce", help="project an extended path CSV")
    p.add_argument("--input", help="extended path CSV")
    p.add_argument("--k", type=int)
    p.add_argument("--T0", type=finite_float)
    p.add_argument(
        "--frozen", default="", help="1-based 'i=value' pins or bare indices, comma-separated"
    )
    p.add_argument("--zeroed", default="", help="1-based indices, comma-separated")
    p.add_argument("--tol", type=finite_float, default=DEFAULT_REDUCTION_TOL)
    p.add_argument("--slack", type=finite_float, default=DEFAULT_SLACK)
    common(p, _cmd_reduce)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated 1-based subset to run")
    common(p, _cmd_verify)

    return parser


# the comma-list flags, whose config value may also be a number or a list
_LISTS = ("q", "criteria", "frozen", "zeroed")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_text_value(key: str, value):
    """The command-line text that a config value of a text flag stands for.

    File keys, ``out_dir`` and ``format`` take a string; the comma-list
    flags ``q``, ``criteria``, ``frozen`` and ``zeroed`` also take a number
    (its command-line text) and a list of numbers or strings
    (``[0.3, "1"]`` is ``0.3,1``).
    """
    if isinstance(value, str):
        return value
    items = [value] if _is_number(value) else value
    if key in _LISTS and isinstance(items, list) and all(
        _is_number(x) or isinstance(x, str) for x in items
    ):
        return ",".join(str(x) for x in items)
    want = "a string, a number or a list of numbers or strings" if key in _LISTS else "a string"
    raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def _config_value(key: str, value, flag: argparse.Action):
    """Read a config value as ``flag`` reads its command-line text.

    A typed flag converts the value's text with its ``type``, which rejects
    ``true``, a list and, for an int flag, ``10.5``; a text flag takes what
    :func:`_check_text_value` allows.  Then the flag's ``choices`` apply."""
    if flag.type is not None:
        try:
            return flag.type(str(value))
        except ValueError as exc:
            raise ValueError(
                f"config key {key!r}: invalid {flag.type.__name__} value {value!r}"
            ) from exc
    value = _check_text_value(key, value)
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(
            f"config key {key!r}: invalid choice {value!r} (choose from {sorted(flag.choices)})"
        )
    return value


def _with_config(
    args: argparse.Namespace, argv: list[str], parser: argparse.ArgumentParser
) -> argparse.Namespace:
    """``args``, parsed from ``argv`` by ``parser``, parsed again over the
    values of its ``--config`` file.

    A config may set the ``dest`` of each flag of the subcommand but
    ``config`` (not its positionals, which the command line always sets).
    Every value is read as its flag reads text.  The non-null ones seed the
    namespace that the subcommand's parser reads argv into, where argparse
    sets no default over a value: a given flag wins over its config value,
    which wins over the flag's default.
    """
    doc = _read_checked(lambda path: json.loads(Path(path).read_text()), args.config, "config")
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    flags = {a.dest: a for a in command._actions if a.option_strings}
    unknown = set(doc) - (set(flags) - {"help", "config"})
    if unknown:
        raise ValueError(f"unknown config keys for {args.command!r}: {sorted(unknown)}")
    given = {key: value for key, value in doc.items() if value is not None}
    given = {key: _config_value(key, value, flags[key]) for key, value in given.items()}
    # the first parse accepted argv, so argv[0] is the command
    return command.parse_args(argv[1:], argparse.Namespace(command=args.command, **given))


def _write(out_dir: Path, files: dict[str, str]) -> None:
    """Write every file into out_dir, making it as needed, or leave nothing.

    Each text is written to a temporary name in out_dir, and the files are
    renamed into place once all of them are written.  On any failure the
    temporary files and the directories made here are removed."""
    # the directories to make: out_dir and its ancestors up to the first
    # that exists, or up to a path that is its own parent, such as "."
    made: list[Path] = []
    d = out_dir
    while not d.exists():
        made.append(d)
        if d.parent == d:
            break
        d = d.parent
    staged: dict[Path, Path] = {}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            tmp = out_dir / f".{name}.{os.getpid()}.tmp"
            staged[tmp] = out_dir / name
            tmp.write_text(text, newline="")
        for final in staged.values():
            # a rename onto a directory fails; find it before any rename
            if final.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(final))
        for tmp, final in staged.items():
            tmp.replace(final)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write its files and print its stdout;
    return the exit status.  The output directory and files are made only
    after the subcommand has returned, and all of them or none, so a run
    that ends in an error or a failure makes no directory and leaves no
    file."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _with_config(args, argv, parser)
        # the parser is built once, so the environment is read on each run
        out_dir = Path(args.out_dir or os.environ.get("THERMO_OUT_DIR", "."))
        outcome = args.run(args)
        # a run that writes no file (verify) makes no directory
        if outcome.status == 0 and outcome.files:
            _write(out_dir, outcome.files)
    except SystemExit:
        # argparse exits with 0 after printing --help
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    print(outcome.stdout)
    return outcome.status


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
