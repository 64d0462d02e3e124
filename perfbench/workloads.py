"""The three workloads: seeded inputs, one timed operation, output checks.

Each workload class takes the seed and a scratch directory.  Its
constructor draws a pool of ``pool`` input parameter sets (this is the
input generation that ``setup_s`` includes).  Per operation the worker calls
``prepare`` (untimed: turns parameters into arrays, CSV text or input
files), then ``run`` (timed: only calls into ``thermocontact``), then
``check`` (untimed: compares the outputs with references from
``checks``).  Every operation of a workload does the same amount of work;
only its parameters vary.

The program is reached only through its public names (``tc.<name>``,
``cli.dispatch``), looked up at call time, so the tracer sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

import checks
import thermocontact as tc
from thermocontact import cli

# chord_scan: the CLI's grid sizes for the two finder calls
GAS_GRID_N = 20001
CW_GRID_N = 40001
# |c|/(t1 - t0) = |a| is kept below CW_A_MAX: the magnet chord sits where
# p = tanh a, and for |a| near 9 the finder's abscissa is 2e-8 off the
# closed form (beyond CHORD_TOL) because the slope gap it solves for is a
# difference of tanh values within 1e-7 of 1.  At |a| < 7 the error stays
# below 1e-9.
CW_A_MAX = 6.0

# Sizes are fixed so that every operation does the same work: the CSV and
# path costs grow with the number of states and of (p, q) pairs, and a
# drawn size would split the latencies into one cluster per size.
SYSTEM_M = 8
SYSTEM_N = 2

# relax_paths: criterion-6 relaxation and criterion-7 path sizes
RELAX_DT0 = 0.01
RELAX_T_END = 12.0
RELAX_RAMP = 5.0
BATCH_DIMS = (1, 2, 3)  # one admissible path of each dimension n
PATH_N = 3
BATCH_SAMPLES = 201
LONG_SAMPLES = 1001
CONTROL_SAMPLES = 201
PATH_SLACK = 1e-9

# cli_session: sizes of one pass of the README command set
CLI_CW_GRID = 16
CLI_RELAX_T_END = 4.0
CLI_ISO_GAS = {"n_times": 21, "n_x": 5}
CLI_ISO_CW = {"n_times": 6, "n_x": 3}


def _fmt_rows(header: list[str], table: np.ndarray) -> str:
    """CSV text in the documented path format (``%.17g``, ``\\n`` rows)."""
    lines = [",".join(header)]
    lines.extend(",".join("%.17g" % v for v in row) for row in table.tolist())
    return "\n".join(lines) + "\n"


def _path_header(n: int, extended: bool) -> list[str]:
    head = ["t", "z", "S", "T"] if extended else ["t", "z"]
    return head + [f"p_{j + 1}" for j in range(n)] + [f"q_{j + 1}" for j in range(n)]


def _argv(words: list[str], **opts) -> list[str]:
    """CLI words plus ``--flag=value`` options (the ``=`` keeps negative values)."""

    def text(v):
        return "%.17g" % v if isinstance(v, float) else str(v)

    return words + [f"--{key.replace('_', '-')}={text(v)}" for key, v in opts.items()]


def _extended_text(table: np.ndarray, n: int) -> str:
    return _fmt_rows(_path_header(n, True), table)


def _reduced_text(table: np.ndarray, n: int, k: int) -> str:
    """The kept columns t, z, p_1..p_k, q_1..q_k of an extended table."""
    kept = table[:, [0, 1, *range(4, 4 + k), *range(4 + n, 4 + n + k)]]
    return _fmt_rows(_path_header(k, False), kept)


def _read_table(path: Path) -> np.ndarray:
    """The data rows of a CSV file with a header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(x) for x in r] for r in rows if r], dtype=float)


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum((y[1:] + y[:-1]) / 2.0 * np.diff(t))])


def _density_matrix(densities) -> np.ndarray:
    return np.array([np.asarray(getattr(d, "rho", d), dtype=float) for d in densities])


# ---------------------------------------------------------------------------
# shared input generators

def _draw_cw_pair(rng) -> tuple[float, float, float]:
    """Criterion-10 magnet pair (t0, t1, c) with |c| <= CW_A_MAX (t1 - t0)."""
    t0 = float(rng.uniform(0.3, 3.0))
    t1 = t0 + float(rng.uniform(0.2, 3.0))
    c_max = min(2.0, CW_A_MAX * (t1 - t0))
    return t0, t1, float(rng.uniform(-c_max, c_max))


def _draw_system(rng) -> dict:
    """A criterion-6 style system: weights in [1, 2], energies of scale 0.5."""
    return {
        "labels": [f"s{i}" for i in range(SYSTEM_M)],
        "weights": rng.uniform(1.0, 2.0, SYSTEM_M).tolist(),
        "v_int": (0.5 * rng.normal(size=SYSTEM_M)).tolist(),
        "v_bar": (0.5 * rng.normal(size=(SYSTEM_N, SYSTEM_M))).tolist(),
    }


def _draw_path_params(rng, n: int) -> dict:
    """Kept/frozen/zeroed split and coefficients of a criterion-7 path."""
    k = int(rng.integers(1, n + 1))
    rest = list(range(k, n))
    rng.shuffle(rest)
    cut = int(rng.integers(0, len(rest) + 1))
    return {
        "n": n,
        "k": k,
        "frozen": sorted(rest[:cut]),
        "zeroed": sorted(rest[cut:]),
        "coef": rng.uniform(0.0, 1.0, size=(n, 2, 6)).tolist(),
        "S": rng.uniform(0.0, 1.0, 3).tolist(),
    }


def _smooth(cf, t):
    """a0 + a1 t + a2 t^2 + amp sin(omega t + phase) and its derivative."""
    a0, a1, a2, amp = (0.5 * (2.0 * c - 1.0) for c in cf[:4])
    omega, phase = 0.3 + 0.7 * cf[4], 2.0 * math.pi * cf[5]
    value = a0 + a1 * t + a2 * t * t + amp * np.sin(omega * t + phase)
    deriv = a1 + 2.0 * a2 * t + amp * omega * np.cos(omega * t + phase)
    return value, deriv


def admissible_path(params: dict, n_samples: int, margin=None) -> np.ndarray:
    """Table (t, z, S, T, p, q) of an extended path whose form equals ``margin``.

    z is integrated from zdot = S Tdot + sum_j p_j qdot_j + margin, with T
    rising, frozen intensive variables non-decreasing against positive p,
    and zeroed extensive variables at 0, so every reduction of it is
    admissible (the criterion-7 construction).
    """
    t = np.linspace(0.0, 1.0, n_samples)
    s_w, s_phase, t_w = params["S"]
    S = 0.5 + 0.4 * np.sin((0.3 + 0.7 * s_w) * t + 6.0 * s_phase)
    Tdot = 0.2 + 0.2 * (1.0 + np.sin((0.3 + 0.7 * t_w) * t))
    T = 1.0 + _cumtrapz(Tdot, t)
    n = params["n"]
    p = np.empty((n, n_samples))
    q = np.empty((n, n_samples))
    qdot = np.empty((n, n_samples))
    for j in range(n):
        cf, cf2 = params["coef"][j]
        if j in params["frozen"]:
            omega, phase = 0.3 + 0.7 * cf[4], 2.0 * math.pi * cf[5]
            p[j] = 0.3 + 0.2 * np.sin(omega * t + phase)
            qdot[j] = 0.3 + 0.2 * np.cos(omega * t)
            q[j] = _cumtrapz(qdot[j], t)
        elif j in params["zeroed"]:
            p[j] = 0.0
            q[j], _ = _smooth(cf, t)
            qdot[j] = 0.0
        else:
            p[j], _ = _smooth(cf, t)
            q[j], qdot[j] = _smooth(cf2, t)
    if margin is None:
        margin = 0.01 * (1.1 + np.sin(2.0 * t))
    zdot = S * Tdot + np.sum(p * qdot, axis=0) + margin
    z = _cumtrapz(zdot, t)
    return np.column_stack([t, z, S, T, p.T, q.T])


def control_margin(t: np.ndarray, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Form values 0.01 outside the window, a sin^2 well to -0.04 inside.

    Returns the margin and the mask of the deep part (well below -0.015),
    which the certifier must flag.
    """
    lo, hi = window
    inside = (t > lo) & (t < hi)
    bump = np.where(inside, np.sin(math.pi * (t - lo) / (hi - lo)) ** 2, 0.0)
    return 0.01 - 0.05 * bump, bump > 0.5


# ---------------------------------------------------------------------------
# chord_scan

class Workload:
    """Defaults: inputs need no preparation, no extra counts, no clean-up.

    ``min_ops`` is the least number of operations a measuring run times, so
    that its tail percentile has ten samples beyond it.  ``pool`` is the
    number of input parameter sets, used in turn.
    """

    inputs: list[dict]
    min_ops = 100
    pool = 64

    def prepare(self, inp: dict) -> dict:
        return inp

    def counts(self, out: dict) -> dict:
        return {}

    def close(self) -> None:
        pass


class ChordScan(Workload):
    """One gas pair and one magnet pair per operation, criterion-10 ranges."""

    # A pool larger than a run's operations: the p98 tail is then a
    # quantile of the parameter ranges, not the slowest one or two inputs of
    # a small pool that every run repeats.
    min_ops = 500
    pool = 1024

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for _ in range(self.pool):
            t0 = float(rng.uniform(0.2, 3.0))
            dT = float(rng.uniform(0.1, 3.0))
            c = float(rng.uniform(0.05, 0.95)) * dT
            b = float(rng.uniform(0.2, 3.0))
            t0c, t1c, c_cw = _draw_cw_pair(rng)
            gas = checks.gas_chord_reference(t0, t0 + dT, c)
            cw = checks.cw_chord_reference(t0c, t1c, c_cw, b)
            span = max(10.0, 3.0 * abs(cw["Q"]))
            self.inputs.append(
                {
                    "gas": (t0, t0 + dT, c),
                    "gas_window": (10.0 * gas["q"] - 1.0, gas["q"] / 10.0),
                    "gas_ref": gas,
                    "cw": (t0c, t1c, c_cw),
                    "cw_window": (-span, span),
                    "cw_ref": cw,
                }
            )

    def run(self, inp: dict) -> dict:
        gas = tc.find_chords(
            tc.constant_front(0.0, (-math.inf, 0.0)),
            tc.difference_front("gas", *inp["gas"]),
            *inp["gas_window"],
            GAS_GRID_N,
        )
        cw = tc.find_chords(
            tc.constant_front(),
            tc.difference_front("cw", *inp["cw"]),
            *inp["cw_window"],
            CW_GRID_N,
        )
        return {"gas": gas, "cw": cw}

    def check(self, inp: dict, out: dict) -> None:
        checks.check_found_chord(out["gas"], inp["gas_ref"]["q"], inp["gas_ref"]["length"], "gas")
        checks.check_found_chord(out["cw"], inp["cw_ref"]["Q"], inp["cw_ref"]["length"], "cw")

# ---------------------------------------------------------------------------
# relax_paths

class RelaxPaths(Workload):
    """A relaxation, a batch of admissible paths, a long path, a control."""

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, 2])
        self.inputs = []
        for i in range(self.pool):
            system = _draw_system(rng)
            m, n = len(system["weights"]), len(system["v_bar"])
            lo = float(rng.uniform(0.2, 0.5))
            self.inputs.append(
                {
                    "system": system,
                    "q": rng.uniform(-1.0, 1.0, n).tolist(),
                    "T0": float(rng.uniform(1.0, 2.0)),
                    "dT": float(rng.uniform(0.2, 1.5)) if i % 2 else 0.0,
                    "rho0": rng.uniform(0.2, 1.0, m).tolist(),
                    "batch": [_draw_path_params(rng, dim) for dim in BATCH_DIMS],
                    "long": _draw_path_params(rng, PATH_N),
                    "control": _draw_path_params(rng, 1),
                    "window": (lo, lo + float(rng.uniform(0.15, 0.3))),
                }
            )

    def prepare(self, inp: dict) -> dict:
        paths = []
        for params, size in [(b, BATCH_SAMPLES) for b in inp["batch"]] + [
            (inp["long"], LONG_SAMPLES)
        ]:
            table = admissible_path(params, size)
            n, k = params["n"], params["k"]
            paths.append(
                {
                    "text": _extended_text(table, n),
                    "reduced_text": _reduced_text(table, n, k),
                    "spec": tc.ReductionSpec(
                        k=k,
                        frozen_q={i: None for i in params["frozen"]},
                        zeroed_p=tuple(params["zeroed"]),
                    ),
                }
            )
        t = np.linspace(0.0, 1.0, CONTROL_SAMPLES)
        margin, deep = control_margin(t, inp["window"])
        return {
            **inp,
            "paths": paths,
            "control_text": _extended_text(admissible_path(inp["control"], CONTROL_SAMPLES, margin), 1),
            "control_t": t,
            "control_deep": deep,
        }

    def run(self, prep: dict) -> dict:
        system = prep["system"]
        sp = tc.MicrostateSpace(system["labels"], system["weights"])
        h = tc.AffineHamiltonian(system["v_int"], system["v_bar"])
        T0, dT = prep["T0"], prep["dT"]

        def T_of_t(t):
            return T0 + dT * min(t, RELAX_RAMP) / RELAX_RAMP

        rho0 = tc.normalized_density(sp, prep["rho0"])
        trace = tc.fokker_planck_relax(sp, h, prep["q"], T_of_t, rho0, RELAX_DT0, RELAX_T_END)
        terminal = tc.gibbs(sp, h, float(trace.temperatures[-1]), prep["q"]).rho_g
        terminal_tv = tc.total_variation(sp, trace.densities[-1], terminal)

        paths = []
        for item in prep["paths"]:
            ext = tc.path_from_csv(io.StringIO(item["text"]))
            red = tc.reduce(ext, item["spec"])
            report = tc.check_path_nonnegative(red, slack=PATH_SLACK)
            ext_buf, red_buf = io.StringIO(), io.StringIO()
            tc.path_to_csv(ext, ext_buf)
            tc.path_to_csv(red, red_buf)
            paths.append((report, ext_buf.getvalue(), red_buf.getvalue()))
        control = tc.check_path_nonnegative(
            tc.path_from_csv(io.StringIO(prep["control_text"])), slack=PATH_SLACK
        )
        return {"trace": trace, "terminal_tv": terminal_tv, "paths": paths, "control": control}

    def check(self, prep: dict, out: dict) -> None:
        trace = out["trace"]
        system = prep["system"]
        checks.check_relaxation(
            _density_matrix(trace.densities),
            np.asarray(trace.temperatures, dtype=float),
            np.asarray(trace.form_values, dtype=float),
            system["weights"],
            system["v_int"],
            system["v_bar"],
            prep["q"],
        )
        if not out["terminal_tv"] < checks.TERMINAL_TV_TOL:
            raise checks.CheckError(f"program's terminal TV {out['terminal_tv']!r}")
        for i, (item, (report, ext_text, red_text)) in enumerate(zip(prep["paths"], out["paths"])):
            checks.check_verdict(report, "nonnegative", f"admissible path {i}")
            checks.check_text_equal(ext_text, item["text"], f"path {i} CSV round trip")
            checks.check_text_equal(red_text, item["reduced_text"], f"path {i} reduced columns")
        checks.check_verdict(out["control"], "violated", "control path")
        checks.check_violation_window(
            out["control"].violating_indices,
            prep["control_t"],
            prep["window"],
            prep["control_deep"],
        )


# ---------------------------------------------------------------------------
# cli_session

class CliSession(Workload):
    """One pass of the README command set through ``cli.dispatch``."""

    def __init__(self, seed: int, scratch: Path):
        self.root = scratch
        rng = np.random.default_rng([seed, 3])
        self.inputs = []
        for _ in range(self.pool):
            t0 = float(rng.uniform(0.2, 3.0))
            dT = float(rng.uniform(0.1, 3.0))
            cw_pair = _draw_cw_pair(rng)
            b_iso = float(rng.uniform(0.5, 1.5))
            T_iso = b_iso * float(rng.uniform(1.5, 2.5))
            bg = float(rng.uniform(0.0, 1.0))
            x_hi = bg - float(rng.uniform(0.3, 0.6))
            t_cold = float(rng.uniform(0.5, 2.0))
            v_min = float(rng.uniform(0.5, 1.5))
            system = _draw_system(rng)
            n = len(system["v_bar"])
            T_relax = float(rng.uniform(1.0, 2.0))
            self.inputs.append(
                {
                    "chord_gas": (t0, t0 + dT, float(rng.uniform(0.05, 0.95)) * dT),
                    "chord_cw": (*cw_pair, float(rng.uniform(0.2, 3.0))),
                    "system": system,
                    "gibbs": (float(rng.uniform(0.5, 2.5)), rng.normal(size=n).tolist()),
                    "relax": {
                        "q": ",".join("%.17g" % v for v in rng.uniform(-1.0, 1.0, n)),
                        "T0": T_relax,
                        "T1": T_relax + float(rng.uniform(0.2, 1.5)),
                        "ramp": 2.0,
                        "t_end": CLI_RELAX_T_END,
                    },
                    "isotopy_gas": {
                        "T0": float(rng.uniform(1.0, 2.0)),
                        "T1": float(rng.uniform(3.0, 5.0)),
                        "bg0": bg,
                        "bg1": bg,
                        "x_lo": x_hi - float(rng.uniform(1.0, 1.5)),
                        "x_hi": x_hi,
                        **CLI_ISO_GAS,
                    },
                    "isotopy_cw": {
                        "T0": T_iso,
                        "T1": T_iso + b_iso * float(rng.uniform(0.2, 0.6)),
                        "b": b_iso,
                        "x_lo": -float(rng.uniform(0.5, 0.8)),
                        "x_hi": float(rng.uniform(0.5, 0.8)),
                        **CLI_ISO_CW,
                    },
                    "stirling": (t_cold, t_cold + float(rng.uniform(0.5, 3.0)),
                                 v_min, v_min + float(rng.uniform(0.3, 1.0))),
                    "reduce": _draw_path_params(rng, PATH_N),
                }
            )

    def prepare(self, inp: dict) -> dict:
        """Write the op's input files and clear its output directories."""
        in_dir = self.root / "in"
        out_dir = self.root / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        in_dir.mkdir(parents=True, exist_ok=True)
        out_dir.mkdir(parents=True)
        system_file = in_dir / "system.json"
        system_file.write_text(json.dumps(inp["system"]))
        for name in ("relax", "isotopy_gas"):
            (in_dir / f"{name}.json").write_text(json.dumps(inp[name]))
        params = inp["reduce"]
        table = admissible_path(params, BATCH_SAMPLES)
        n, k = params["n"], params["k"]
        (in_dir / "path.csv").write_text(_extended_text(table, n))

        reduce_opts = {"input": in_dir / "path.csv", "k": k}
        if params["frozen"]:
            reduce_opts["frozen"] = ",".join(str(i + 1) for i in params["frozen"])
        if params["zeroed"]:
            reduce_opts["zeroed"] = ",".join(str(i + 1) for i in params["zeroed"])
        t0, t1, c = inp["chord_gas"]
        u0, u1, uc, ub = inp["chord_cw"]
        T, q = inp["gibbs"]
        t_cold, t_hot, v_min, v_max = inp["stirling"]
        commands = {
            "chord_gas": _argv(["chord", "gas"], t0=t0, t1=t1, c=c),
            "chord_cw": _argv(["chord", "cw"], t0=u0, t1=u1, c=uc, b=ub, grid=CLI_CW_GRID),
            "gibbs": _argv(["gibbs"], system=system_file, T=T,
                           q=",".join("%.17g" % v for v in q)),
            "relax": _argv(["relax"], system=system_file, config=in_dir / "relax.json"),
            "isotopy_gas": _argv(["isotopy", "gas"], config=in_dir / "isotopy_gas.json"),
            "isotopy_cw": _argv(["isotopy", "cw"], **inp["isotopy_cw"]),
            "stirling": _argv(["stirling"], t_cold=t_cold, t_hot=t_hot, v_min=v_min, v_max=v_max),
            "reduce": _argv(["reduce"], **reduce_opts),
        }
        argvs = [
            argv + [f"--out-dir={out_dir / name}"] for name, argv in commands.items()
        ]
        return {**inp, "argvs": argvs, "out_dir": out_dir,
                "reduced_text": _reduced_text(table, n, k)}

    def run(self, prep: dict) -> dict:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [cli.dispatch(argv) for argv in prep["argvs"]]
        return {"codes": codes, "log": sink.getvalue()}

    def check(self, prep: dict, out: dict) -> None:
        bad = [(argv[:2], rc) for argv, rc in zip(prep["argvs"], out["codes"]) if rc != 0]
        if bad:
            raise checks.CheckError(f"non-zero exit status {bad}: {out['log'][-500:]}")
        d = prep["out_dir"]
        for name, ref in (
            ("chord_gas/chords_gas.csv", checks.gas_chord_reference(*prep["chord_gas"])),
            ("chord_cw/chords_cw.csv", checks.cw_chord_reference(*prep["chord_cw"])),
        ):
            with open(d / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != 1:
                raise checks.CheckError(f"{name}: {len(rows)} chord rows")
            checks.check_chord_row(rows[0], ref, name)

        system = prep["system"]
        T, q = prep["gibbs"]
        dens = _read_table(d / "gibbs" / "gibbs_density.csv")
        checks.check_gibbs_density(dens[0], system["weights"], system["v_int"], system["v_bar"], T, q)

        relax_dens = _read_table(d / "relax" / "relax_densities.csv")
        checks.check_masses(relax_dens, system["weights"])
        relax_manifest = json.loads((d / "relax" / "relax_manifest.json").read_text())
        if relax_manifest["min_form_value"] < -checks.FORM_TOL:
            raise checks.CheckError(f"relax min form {relax_manifest['min_form_value']!r}")

        for name in ("isotopy_gas", "isotopy_cw"):
            manifest = json.loads((d / name / "isotopy_manifest.json").read_text())
            expected = prep[name]["n_x"]
            if len(manifest["paths"]) != expected:
                raise checks.CheckError(f"{name}: {len(manifest['paths'])} paths, expected {expected}")
            for entry in manifest["paths"]:
                if entry["report"]["verdict"] != "nonnegative":
                    raise checks.CheckError(f"{name}/{entry['file']}: {entry['report']}")
                checks.check_monotone_heating(_read_table(d / name / entry["file"]),
                                              f"{name}/{entry['file']}")

        manifest = json.loads((d / "stirling" / "stirling_manifest.json").read_text())
        tables = {
            seg["name"]: _read_table(d / "stirling" / seg["file"])
            for seg in manifest["segments"]
        }
        checks.check_stirling(manifest, tables)

        report = json.loads((d / "reduce" / "reduced_report.json").read_text())
        if report["verdict"] != "nonnegative":
            raise checks.CheckError(f"reduce: {report}")
        checks.check_text_equal(
            (d / "reduce" / "reduced_path.csv").read_text(), prep["reduced_text"], "reduce"
        )

    def counts(self, out: dict) -> dict:
        total = 0
        for dirpath, _, files in os.walk(self.root / "out"):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        return {"cli.bytes_written": total}

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {"chord_scan": ChordScan, "relax_paths": RelaxPaths, "cli_session": CliSession}
