"""Fast tests of the benchmark itself: seeded inputs, checks, tracer, runner.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from checks import CheckError
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def _inputs_text(cls, seed, tmp_path):
    return json.dumps(cls(seed, tmp_path / "scratch").inputs, sort_keys=True, default=repr)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = _inputs_text(cls, 7, tmp_path)
    assert first == _inputs_text(cls, 7, tmp_path)
    assert first != _inputs_text(cls, 8, tmp_path)


def test_prepared_path_text_repeats_for_a_seed(tmp_path):
    a = workloads.RelaxPaths(3, tmp_path)
    b = workloads.RelaxPaths(3, tmp_path)
    pa, pb = a.prepare(a.inputs[0]), b.prepare(b.inputs[0])
    assert [p["text"] for p in pa["paths"]] == [p["text"] for p in pb["paths"]]
    assert pa["control_text"] == pb["control_text"]


@pytest.fixture(scope="module")
def chord_case(tmp_path_factory):
    wl = workloads.ChordScan(11, tmp_path_factory.mktemp("chord"))
    prep = wl.prepare(wl.inputs[0])
    out = wl.run(prep)
    wl.check(prep, out)
    return wl, prep, out


def test_chord_check_rejects_a_missing_chord(chord_case):
    wl, prep, out = chord_case
    with pytest.raises(CheckError, match="expected 1 chord"):
        wl.check(prep, {**out, "gas": []})


def test_chord_check_rejects_a_shifted_chord(chord_case):
    wl, prep, out = chord_case
    moved = dataclasses.replace(out["cw"][0], q=out["cw"][0].q + 1e-6)
    with pytest.raises(CheckError, match="abscissa"):
        wl.check(prep, {**out, "cw": [moved]})


def test_chord_check_rejects_a_downward_chord(chord_case):
    wl, prep, out = chord_case
    ch = out["gas"][0]
    flipped = dataclasses.replace(ch, z_start=ch.z_end, z_end=ch.z_start)
    with pytest.raises(CheckError, match="direction"):
        wl.check(prep, {**out, "gas": [flipped]})


@pytest.fixture(scope="module")
def relax_case(tmp_path_factory):
    wl = workloads.RelaxPaths(12, tmp_path_factory.mktemp("relax"))
    prep = wl.prepare(wl.inputs[1])  # odd index: ramped temperature
    out = wl.run(prep)
    wl.check(prep, out)
    trace = out["trace"]
    arrays = {
        "densities": workloads._density_matrix(trace.densities),
        "temperatures": np.asarray(trace.temperatures, dtype=float),
        "form_values": np.asarray(trace.form_values, dtype=float),
    }
    return wl, prep, out, arrays


def _check_relax(prep, arrays):
    s = prep["system"]
    checks.check_relaxation(arrays["densities"], arrays["temperatures"], arrays["form_values"],
                            s["weights"], s["v_int"], s["v_bar"], prep["q"])


def test_relax_check_passes_on_the_program_output(relax_case):
    _, prep, _, arrays = relax_case
    _check_relax(prep, arrays)


@pytest.mark.parametrize("corrupt, message", [
    (lambda a: {**a, "densities": a["densities"] * (1 + 1e-8)}, "mass"),
    (lambda a: {**a, "densities": a["densities"][[0, 2, 1, *range(3, len(a["densities"]))]]},
     "free energy rises"),
    (lambda a: {**a, "form_values": np.append(a["form_values"], -1e-6)}, "form value"),
    (lambda a: {**a, "densities": a["densities"][:40]}, "terminal TV"),
])
def test_relax_check_rejects_corruption(relax_case, corrupt, message):
    _, prep, _, arrays = relax_case
    with pytest.raises(CheckError, match=message):
        _check_relax(prep, corrupt(arrays))


def test_path_checks_reject_corruption(relax_case):
    wl, prep, out, _ = relax_case
    report, ext_text, red_text = out["paths"][0]
    bad = dataclasses.replace(report, verdict="violated")
    with pytest.raises(CheckError, match="verdict"):
        wl.check(prep, {**out, "paths": [(bad, ext_text, red_text)] + out["paths"][1:]})
    changed = ext_text.replace("\n0,", "\n-0,", 1)
    assert changed != ext_text
    with pytest.raises(CheckError, match="round trip"):
        wl.check(prep, {**out, "paths": [(report, changed, red_text)] + out["paths"][1:]})
    ctrl = out["control"]
    with pytest.raises(CheckError, match="outside"):
        wl.check(prep, {**out, "control": dataclasses.replace(
            ctrl, violating_indices=(0,) + ctrl.violating_indices)})
    flagged = ctrl.violating_indices
    mid = len(flagged) // 2  # the middle of the window is deep
    with pytest.raises(CheckError, match="not flagged"):
        wl.check(prep, {**out, "control": dataclasses.replace(
            ctrl, violating_indices=flagged[:mid] + flagged[mid + 1:])})
    with pytest.raises(CheckError, match="expected 'violated'"):
        wl.check(prep, {**out, "control": dataclasses.replace(ctrl, verdict="nonnegative")})


@pytest.fixture(scope="module")
def cli_case(tmp_path_factory):
    wl = workloads.CliSession(13, tmp_path_factory.mktemp("cli") / "scratch")
    prep = wl.prepare(wl.inputs[0])
    out = wl.run(prep)
    wl.check(prep, out)
    yield wl, prep, out
    wl.close()


def test_cli_check_rejects_a_failed_command(cli_case):
    wl, prep, out = cli_case
    with pytest.raises(CheckError, match="non-zero exit"):
        wl.check(prep, {**out, "codes": out["codes"][:-1] + [1]})


@pytest.mark.parametrize("name, edit, message", [
    ("chord_gas/chords_gas.csv", lambda rows: _bump(rows, 1, 0), "q="),
    ("chord_cw/chords_cw.csv", lambda rows: _bump(rows, 1, 4), "length="),
    ("gibbs/gibbs_density.csv", lambda rows: _bump(rows, 1, 0), "softmax"),
    ("isotopy_cw/isotopy_path_000.csv", lambda rows: _bump(rows, len(rows) - 1, 1, -1.0), "z falls"),
    ("relax/relax_densities.csv", lambda rows: _bump(rows, 2, 0), "mass"),
    ("reduce/reduced_path.csv", lambda rows: _bump(rows, 3, 1), "reduce"),
])
def test_cli_check_rejects_a_corrupted_file(cli_case, name, edit, message):
    wl, prep, out = cli_case
    path = prep["out_dir"] / name
    original = path.read_text()
    rows = [line.split(",") for line in original.splitlines()]
    path.write_text("\n".join(",".join(r) for r in edit(rows)) + "\n")
    try:
        with pytest.raises(CheckError, match=message):
            wl.check(prep, out)
    finally:
        path.write_text(original)
    wl.check(prep, out)


def test_cli_check_rejects_a_wrong_stirling_sign(cli_case):
    wl, prep, out = cli_case
    path = prep["out_dir"] / "stirling" / "stirling_manifest.json"
    original = path.read_text()
    doc = json.loads(original)
    for seg in doc["segments"]:
        if seg["name"] == "heating_corner":
            seg["form_sign"] = "negative"
    path.write_text(json.dumps(doc))
    try:
        with pytest.raises(CheckError, match="heating corner"):
            wl.check(prep, out)
    finally:
        path.write_text(original)


def _bump(rows, i, j, delta=1e-6):
    rows = [list(r) for r in rows]
    rows[i][j] = "%.17g" % (float(rows[i][j]) + delta)
    return rows


def test_tracer_sees_imported_names_and_restores_them():
    import thermocontact as tc
    from thermocontact import chords, cli

    originals = (chords.find_chords, cli.find_chords, tc.find_chords)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.find_chords is chords.find_chords is not originals[0]
        tracer.op = 5
        tc.find_chords(tc.constant_front(), tc.difference_front("cw", 1.0, 2.0, 0.5), -10.0, 10.0, 401)
    finally:
        tracer.uninstall()
    assert (chords.find_chords, cli.find_chords, tc.find_chords) == originals
    (op, _, parent, name, start, end), = tracer.spans
    assert (op, parent, name) == (5, 0, "find_chords") and end > start
    layers = tracer.layer_metrics(1)
    assert layers["models.front_evals"] > 0
    assert layers["chords.grid_nodes_per_s"] > 0
    assert layers["chords.find_chords.self_ms"] == pytest.approx((end - start) / 1e6)


def test_tail_is_the_nearest_rank_percentile():
    assert run.tail([float(x) for x in range(1, 101)], 90) == 90.0
    assert run.tail([float(x) for x in range(200, 0, -1)], 90) == 180.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tail_percentile_leaves_ten_samples_beyond_it(name):
    n = workloads.WORKLOADS[name].min_ops
    pct = run.tail_percentile(n)
    latencies = [float(x) for x in range(n)]
    assert sum(x > run.tail(latencies, pct) for x in latencies) >= run.TAIL_BEYOND
    assert sum(x > run.tail(latencies, pct + 1) for x in latencies) < run.TAIL_BEYOND


class _Failing(workloads.Workload):
    inputs = [{}]

    def run(self, prep):
        raise RuntimeError("boom")


def test_loop_counts_failures_and_stops_without_a_completed_op():
    import worker

    loop = worker.Loop().run(_Failing(), 0, 0.0, 5, 0.05)
    assert loop.failed == loop.attempted >= 1
    assert loop.latencies == [] and "boom" in loop.errors[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_reports_no_timings_when_no_op_completed(trace, monkeypatch, capsys, tmp_path):
    def child(args, mode, tag):
        return {"setup_s": 0.5, "setup_kernel_s": 1e-3, "latencies": [], "scaled": [],
                "layers": {"trace.spans": 0}, "attempted": 3, "failed": 3, "wrong": 0,
                "min_ops": 100, "peak_rss_mb": 80.0}

    monkeypatch.setattr(run, "child", child)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "chord_scan", "--seed", "1",
                                      "--seconds", "1", "--trace", str(trace)])
    assert run.main() == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 3)
    assert "op_p50_ms" not in result["metrics"]


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chord_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
