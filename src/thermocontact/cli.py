"""Command-line entry point.

Subcommands: gibbs, chord, relax, isotopy, stirling, reduce, verify.
Every subcommand validates its inputs before computing and writes nothing
on validation failure.  Identical configurations produce byte-identical
output files (full double precision, deterministic ordering).

Exit status: 0 on success, 1 on validation errors (including usage), 2 on
numerical failures.  A JSON file passed through ``--config`` supplies
defaults for the subcommand's flags; explicit flags win and unknown keys
are rejected.  ``THERMO_OUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
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
    fmt: str = "csv"
    options: dict[str, Any] = field(default_factory=dict)

    def opt(self, key: str, default=None):
        value = self.options.get(key)
        return default if value is None else value

    def require(self, key: str):
        value = self.options.get(key)
        if value is None:
            raise ValidationError(f"missing required option --{key.replace('_', '-')}")
        return value


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_system_checked(path):
    try:
        return ms.load_system(path)
    except OSError as exc:
        raise ValidationError(f"cannot read system file {path!r}: {exc}") from exc


def _read_input_checked(reader, path):
    try:
        return reader(path)
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path!r}: {exc}") from exc


def finite_float(text: str) -> float:
    """The type of every float flag: a number that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# argparse and _coerce_config_value name the flag type by __name__:
# "invalid finite float value: 'nan'"
finite_float.__name__ = "finite float"


def _parse_floats(value, what: str) -> np.ndarray:
    """The comma-separated (or, from a config, listed) values of --what."""
    items = value if isinstance(value, list) else str(value).split(",")
    try:
        return np.array([finite_float(str(x)) for x in items if x != ""])
    except ValueError as exc:
        raise ValidationError(f"cannot parse --{what} from {value!r}: {exc}") from exc


def _parse_indices(text: str, what: str) -> list[int]:
    out = []
    for piece in str(text).split(","):
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


def _write_chords(cfg: RunConfig, name: str, chords: list[Chord]) -> Path:
    if cfg.fmt == "json":
        path = cfg.out_dir / f"{name}.json"
        with open(path, "w") as fh:
            fh.write(chords_to_json(chords))
            fh.write("\n")
    else:
        path = cfg.out_dir / f"{name}.csv"
        chords_to_csv(chords, str(path))
    return path


def _write_table(cfg: RunConfig, name: str, header: list[str], rows) -> Path:
    path = cfg.out_dir / f"{name}.csv"
    write_csv(path, header, rows)
    return path


def _write_front_pair(
    cfg: RunConfig, fig: str, front: FrontFunction, qs: np.ndarray, qstar: float
) -> list[Path]:
    """fig3/fig4: the difference front and the zero section over qs, and the
    vertical chord segment at qstar."""
    return [
        _write_table(cfg, f"{fig}_{name}", ["q", "z"], rows)
        for name, rows in (
            ("difference_front", np.column_stack([qs, front.value(qs)])),
            ("zero_section", np.column_stack([qs, np.zeros_like(qs)])),
            ("chord", [(qstar, 0.0), (qstar, front.value(qstar))]),
        )
    ]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_chord(cfg: RunConfig) -> int:
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
        qs = np.linspace(cfg.opt("q_lo", -6.0), cfg.opt("q_hi", min(-0.05, c - 0.05)), grid)
        cold, hot = IdealGasParams(T=t0, P_back=0.0), IdealGasParams(T=t1, P_back=c)
        marker = [(closed.q, closed.p, closed.z_start, closed.z_end)]
        files = [
            _write_table(cfg, "fig1_family_cold", ["q", "p", "z"], sample_gas_legendrian(cold, qs)),
            _write_table(cfg, "fig1_family_hot", ["q", "p", "z"], sample_gas_legendrian(hot, qs)),
            _write_table(cfg, "fig1_chord", ["q", "p", "z_start", "z_end"], marker),
        ]
        qs = np.linspace(cfg.opt("q_lo", lo), cfg.opt("q_hi", min(0.0, c) - 1e-3), grid)
        files += _write_front_pair(cfg, "fig3", f1, qs, closed.q)
        files.append(_write_chords(cfg, "chords_gas", [closed]))
        check = abs(found[0].q - closed.q) if found else math.inf
        print(
            f"chord gas: P0={-closed.q:.12g} v={closed.p:.12g} "
            f"length={closed.length:.12g} direction={closed.direction:+d} "
            f"finder|dq|={check:.3e} files={len(files)}"
        )
        return 0
    if model == "cw":
        b = cfg.opt("b", 1.0)
        if not b > 0:
            raise ValidationError("the magnet chord needs --b > 0")
        closed = cw_chord(t0, t1, c, b)
        qstar = closed.q + b * closed.p
        f1 = difference_front("cw", t0, t1, c)
        span = max(10.0, 3.0 * abs(qstar))
        found = find_chords(constant_front(), f1, -span, span, grid_n)
        span = cfg.opt("span", span)
        qs = np.linspace(cfg.opt("q_lo", -span), cfg.opt("q_hi", span), grid)
        files = _write_front_pair(cfg, "fig4", f1, qs, qstar)
        sample = sample_cw_legendrian(
            CurieWeissParams(T=t0, H_back=0.0, b=b),
            np.linspace(cfg.opt("p_lo", -0.99), cfg.opt("p_hi", 0.99), grid),
        )
        files.append(_write_table(cfg, "cw_legendrian", ["q", "p", "z", "S"], sample))
        files.append(_write_chords(cfg, "chords_cw", [closed]))
        check = abs(found[0].q - qstar) if found else math.inf
        print(
            f"chord cw: Q*={qstar:.12g} p={closed.p:.12g} q={closed.q:.12g} "
            f"length={closed.length:.12g} direction={closed.direction:+d} "
            f"finder|dQ|={check:.3e} files={len(files)}"
        )
        return 0
    raise ValidationError(f"unknown model {model!r}, expected 'gas' or 'cw'")


def _cmd_gibbs(cfg: RunConfig) -> int:
    sp, h = _load_system_checked(cfg.require("system"))
    T = cfg.require("T")
    if not T > 0:
        raise ValidationError("need --T > 0")
    q = _parse_floats(cfg.require("q"), "q")
    if q.size != h.n:
        raise ValidationError(f"q has length {q.size}, the system expects {h.n}")
    res = ms.gibbs(sp, h, T, q)
    z, S, p = ms.lift_to_extended(sp, h, T, q, res.rho_g)
    ms.densities_to_csv([res.rho_g], str(cfg.out_dir / "gibbs_density.csv"))
    _write_json(
        cfg.out_dir / "gibbs_point.json",
        {"log_z": res.log_z, "z": z, "S": S, "T": T, "p": p.tolist(), "q": q.tolist()},
    )
    print(
        f"gibbs: m={sp.m} n={h.n} T={T:g} log_z={res.log_z:.12g} "
        f"G={-z:.12g} S={S:.12g}"
    )
    return 0


def _cmd_relax(cfg: RunConfig) -> int:
    sp, h = _load_system_checked(cfg.require("system"))
    q = _parse_floats(cfg.require("q"), "q")
    if q.size != h.n:
        raise ValidationError(f"q has length {q.size}, the system expects {h.n}")
    T0 = cfg.require("T0")
    T1 = cfg.opt("T1", T0)
    ramp = cfg.opt("ramp", 0.0)
    t_end = cfg.opt("t_end", 20.0)
    dt0 = cfg.opt("dt0", 0.01)
    if not (T0 > 0 and T1 >= T0 and ramp >= 0 and t_end > 0 and dt0 > 0):
        raise ValidationError(
            "need --T0 > 0, --T1 >= --T0, --ramp >= 0, --t-end > 0, --dt0 > 0"
        )
    rho_src = cfg.opt("rho0", "uniform")
    if rho_src == "uniform":
        rho0 = ms.uniform_density(sp)
    else:
        densities = _read_input_checked(ms.densities_from_csv, rho_src)
        if not len(densities):
            raise ValidationError(f"no density rows in {rho_src!r}")
        rho0 = ms.Density(densities[0])
        ms.check_density(sp, rho0)

    if ramp > 0 and T1 > T0:

        def T_of_t(t):
            return T0 + (T1 - T0) * min(t, ramp) / ramp

    else:
        T_const = T1 if T1 > T0 else T0

        def T_of_t(t):
            return T_const

    trace = fokker_planck_relax(sp, h, q, T_of_t, rho0, dt0, t_end)

    path_file = cfg.out_dir / "relax_path.csv"
    path_to_csv(trace.reduced_path, str(path_file))
    dens_file = cfg.out_dir / "relax_densities.csv"
    ms.densities_to_csv(trace.rho, str(dens_file))
    terminal = ms.gibbs(sp, h, trace.temperatures[-1], q).rho_g
    tv = ms.total_variation(sp, trace.densities[-1], terminal)
    manifest = {
        "files": [path_file.name, dens_file.name],
        "n_nodes": int(trace.t_grid.size),
        "t_end": float(trace.t_grid[-1]),
        "terminal_temperature": float(trace.temperatures[-1]),
        "terminal_tv_to_gibbs": tv,
        "min_form_value": float(trace.form_values.min()),
        "G_start": float(trace.G_values[0]),
        "G_end": float(trace.G_values[-1]),
        "spectral_gap_estimate": trace.spectral_gap_estimate(),
    }
    _write_json(cfg.out_dir / "relax_manifest.json", manifest)
    print(
        f"relax: nodes={trace.t_grid.size} G: {manifest['G_start']:.6g} -> "
        f"{manifest['G_end']:.6g} terminal TV={tv:.3e} "
        f"min form={manifest['min_form_value']:.3e}"
    )
    return 0


def _cmd_isotopy(cfg: RunConfig) -> int:
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
    x_grid = np.linspace(x_lo, x_hi, n_x)
    trace = run_slow_isotopy(
        model, sched, x_grid, b=cfg.opt("b"), slack=cfg.opt("slack", 1e-8)
    )
    entries = []
    for i, (path, report) in enumerate(zip(trace.paths, trace.reports)):
        fname = f"isotopy_path_{i:03d}.csv"
        path_to_csv(path, str(cfg.out_dir / fname))
        entries.append(
            {
                "x": float(x_grid[i]),
                "file": fname,
                "report": json.loads(report.to_json()),
            }
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
    _write_json(cfg.out_dir / "isotopy_manifest.json", manifest)
    n_ok = sum(1 for e in entries if e["report"]["verdict"] == "nonnegative")
    print(
        f"isotopy {model}: {len(entries)} paths, {n_ok} non-negative, "
        f"family residual={manifest['legendrian_residual']:.3e}"
    )
    return 0


def _cmd_stirling(cfg: RunConfig) -> int:
    t_cold, t_hot = cfg.require("t_cold"), cfg.require("t_hot")
    v_min, v_max = cfg.require("v_min"), cfg.require("v_max")
    if not (0 < t_cold < t_hot and 0 < v_min < v_max):
        raise ValidationError("need --t-hot > --t-cold > 0 and --v-max > --v-min > 0")
    n_samples = int(cfg.opt("n_samples", 101))
    trace = stirling_cycle(t_cold, t_hot, v_min, v_max, n_samples)
    segments = []
    for seg in trace.segments:
        fname = f"stirling_{seg.name}.csv"
        path_to_csv(seg.path, str(cfg.out_dir / fname))
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
    _write_json(cfg.out_dir / "stirling_manifest.json", manifest)
    print(
        f"stirling: 4 segments, closure={trace.closure_residual:.3e} "
        f"sum dG={trace.total_delta_G:.3e} files={len(segments) + 1}"
    )
    return 0


def _cmd_reduce(cfg: RunConfig) -> int:
    src = cfg.require("input")
    path = _read_input_checked(path_from_csv, src)
    if path.kind != "extended":
        raise ValidationError("reduce expects an extended path CSV")
    k = int(cfg.require("k"))
    frozen: dict[int, float | None] = {}
    for piece in str(cfg.opt("frozen", "")).split(","):
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
    spec = ReductionSpec(
        k=k,
        frozen_q=frozen,
        zeroed_p=zeroed,
        T0=cfg.opt("T0"),
        tol=cfg.opt("tol", 1e-9),
    )
    reduced = reduce(path, spec)
    out_file = cfg.out_dir / "reduced_path.csv"
    path_to_csv(reduced, str(out_file))
    report = check_path_nonnegative(reduced, slack=cfg.opt("slack", 1e-9))
    with open(cfg.out_dir / "reduced_report.json", "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(
        f"reduce: {path.n_samples} samples, n={path.dimension} -> k={k}, "
        f"verdict={report.verdict} min form={report.min_form_value:.3e}"
    )
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    selected = None
    raw = cfg.opt("criteria")
    if raw:
        if isinstance(raw, (list, tuple)):
            selected = [int(x) for x in raw]
        else:
            selected = [int(x) for x in str(raw).split(",") if x]
    results = run_all(selected)
    for res in results:
        print(res.line())
    failed = [res.index for res in results if not res.passed]
    if failed:
        print(f"verify: {len(failed)} criteria failed: {failed}")
        return 2
    print(f"verify: all {len(results)} criteria passed")
    return 0


COMMANDS: dict[str, Callable[[RunConfig], int]] = {
    "chord": _cmd_chord,
    "gibbs": _cmd_gibbs,
    "relax": _cmd_relax,
    "isotopy": _cmd_isotopy,
    "stirling": _cmd_stirling,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}

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
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)

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


def _coerce_config_value(key: str, value, kind: Callable[[str], Any]):
    """Convert a config value the way its flag converts command-line text."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"config key {key!r}: invalid {kind.__name__} value {value!r}")
    try:
        return kind(str(value))
    except (ValueError, OverflowError) as exc:
        raise ValidationError(
            f"config key {key!r}: invalid {kind.__name__} value {value!r}"
        ) from exc


# text flags whose config value may be a JSON number, read as its text
_NUMBER_TEXT = ("q", "criteria", "frozen", "zeroed")
# text flags whose config value may be a JSON list of numbers or strings
_LIST_TEXT = ("q", "criteria")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_text_value(key: str, value):
    """Pass a config value of a text flag as the flag's text would be read.

    File keys take a string; ``q``, ``criteria``, ``frozen`` and
    ``zeroed`` also take a number (its command-line text), and ``q`` and
    ``criteria`` a list of numbers or strings.
    """
    if value is None or isinstance(value, str):
        return value
    if key in _NUMBER_TEXT and _is_number(value):
        return str(value)
    if key in _LIST_TEXT and isinstance(value, list) and all(
        _is_number(x) or isinstance(x, str) for x in value
    ):
        return value
    if key in _LIST_TEXT:
        want = "a string, a number or a list of numbers or strings"
    elif key in _NUMBER_TEXT:
        want = "a string or a number"
    else:
        want = "a string"
    raise ValidationError(f"config key {key!r} must be {want}, got {value!r}")


def build_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """Merge ``args`` with its ``--config`` file into a RunConfig.

    The keys a config may set are the ``dest``s of the subcommand's flags
    (not its positional arguments, which the command line always sets),
    and each typed value goes through its flag's ``type``; both are read
    from ``parser``.
    """
    command = args.command
    options: dict[str, Any] = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "out_dir", "fmt")
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
        types = {a.dest: a.type for a in sub.choices[command]._actions if a.option_strings}
        unknown = set(doc) - (set(types) & set(options)) - {"out_dir", "format"}
        if unknown:
            raise ValidationError(
                f"unknown config keys for {command!r}: {sorted(unknown)}"
            )
        for key, value in doc.items():
            if key == "out_dir":
                if not isinstance(value, str):
                    raise ValidationError(f"config key 'out_dir' must be a string, got {value!r}")
                if getattr(args, "out_dir", None) is None:
                    args.out_dir = value
            elif key == "format":
                if args.fmt is None:
                    args.fmt = value
            elif options.get(key) is None:
                kind = types[key]
                if kind is None:
                    options[key] = _check_text_value(key, value)
                else:
                    options[key] = _coerce_config_value(key, value, kind)
    out_dir = Path(args.out_dir or os.environ.get("THERMO_OUT_DIR", "."))
    fmt = args.fmt or "csv"
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown output format {fmt!r}")
    return RunConfig(command=command, out_dir=out_dir, fmt=fmt, options=options)


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, return the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = build_config(args, parser)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
