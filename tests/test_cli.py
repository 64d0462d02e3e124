import argparse
import builtins
import collections
import contextlib
import errno
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocontact import SampledPath, cw_chord, gas_chord, path_from_csv, path_to_csv, save_system
from thermocontact import AffineHamiltonian, MicrostateSpace
import thermocontact
from thermocontact import cli
from thermocontact.cli import build_parser, dispatch


@pytest.fixture()
def system_file(tmp_path):
    sp = MicrostateSpace(("a", "b", "c"), [1.0, 1.0, 1.0])
    h = AffineHamiltonian([0.0, 0.5, 1.0], [[1.0, 0.0, -1.0]])
    dest = tmp_path / "system.json"
    save_system(sp, h, str(dest))
    return dest


class TestChordCommand:
    def test_gas_reference_run(self, tmp_path, capsys):
        code = dispatch(
            ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2", "--out-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "P0=0.5" in out and "v=2" in out
        for name in (
            "fig1_family_cold.csv",
            "fig1_family_hot.csv",
            "fig1_chord.csv",
            "fig3_difference_front.csv",
            "fig3_zero_section.csv",
            "fig3_chord.csv",
            "chords_gas.csv",
        ):
            assert (tmp_path / name).exists()

    def test_fig1_curves_follow_state_equation(self, tmp_path):
        dispatch(["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2", "--out-dir", str(tmp_path)])
        rows = np.loadtxt(tmp_path / "fig1_family_cold.csv", delimiter=",", skiprows=1)
        q, p = rows[:, 0], rows[:, 1]
        assert np.abs(p - 1.0 / (-q)).max() < 1e-12
        rows = np.loadtxt(tmp_path / "fig1_family_hot.csv", delimiter=",", skiprows=1)
        q, p = rows[:, 0], rows[:, 1]
        assert np.abs(p - 5.0 / (-q + 2.0)).max() < 1e-12
        marker = np.loadtxt(tmp_path / "fig1_chord.csv", delimiter=",", skiprows=1)
        assert marker[0] == -0.5 and marker[1] == 2.0

    def test_fig3_front_peaks_at_chord(self, tmp_path):
        dispatch(["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2", "--out-dir", str(tmp_path)])
        rows = np.loadtxt(tmp_path / "fig3_difference_front.csv", delimiter=",", skiprows=1)
        assert abs(rows[np.argmax(rows[:, 1]), 0] + 0.5) < 0.05
        chord = np.loadtxt(tmp_path / "fig3_chord.csv", delimiter=",", skiprows=1)
        assert abs(chord[1, 1] - 4 * math.log(2)) < 1e-12

    def test_cw_reference_run(self, tmp_path, capsys):
        code = dispatch(
            [
                "chord", "cw",
                "--t0", "2", "--t1", "3.3333333333333335", "--c", "1", "--b", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Q*=1.5" in out
        assert "p=0.635" in out
        assert (tmp_path / "fig4_difference_front.csv").exists()
        sample = np.loadtxt(tmp_path / "cw_legendrian.csv", delimiter=",", skiprows=1)
        assert sample.shape[1] == 4  # q, p, z, S

    def test_degenerate_jump_is_numerical_failure(self, tmp_path):
        code = dispatch(
            ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "4", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_missing_required_flag(self, tmp_path):
        code = dispatch(["chord", "gas", "--t0", "1", "--out-dir", str(tmp_path)])
        assert code == 1

    def test_json_format(self, tmp_path):
        code = dispatch(
            [
                "chord", "gas",
                "--t0", "1", "--t1", "5", "--c", "2",
                "--out-dir", str(tmp_path), "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "chords_gas.json").read_text())
        assert doc[0]["direction"] == 1


class TestChordFlagChecks:
    """Figure and scan flags that would give empty, reversed or numpy-worded
    output end in one error line that names the flag."""

    @pytest.mark.parametrize(
        "model, flags, error",
        [
            ("gas", {"grid": 0}, "error: need --grid >= 2, got 0"),
            ("gas", {"grid": 1}, "error: need --grid >= 2, got 1"),
            ("cw", {"grid": -3}, "error: need --grid >= 2, got -3"),
            ("gas", {"grid_n": 1}, "error: grid_n must be at least 3"),
            ("cw", {"grid_n": 2}, "error: grid_n must be at least 3"),
            ("gas", {"grid_n": 10**12},
             "error: grid_n must be at most 100000000, got 1000000000000"),
            ("gas", {"q_lo": 1.0, "q_hi": -1.0},
             "error: need --q-lo < --q-hi, got the window [1.0, -1.0]"),
            ("cw", {"q_lo": 1.0, "q_hi": 1.0},
             "error: need --q-lo < --q-hi, got the window [1.0, 1.0]"),
            # against the computed default q_hi = min(-0.05, c - 0.05) of fig1
            ("gas", {"q_lo": -0.01},
             "error: need --q-lo < --q-hi, got the window [-0.01, -0.05]"),
            ("cw", {"span": -1.0}, "error: need --span > 0, got -1.0"),
            ("cw", {"span": 0.0}, "error: need --span > 0, got 0.0"),
            ("cw", {"p_lo": 0.5, "p_hi": -0.5},
             "error: need --p-lo < --p-hi, got the window [0.5, -0.5]"),
            ("cw", {"b": 0.0}, "error: need --b > 0, got 0.0"),
            # the magnet-only flags are checked for gas too
            ("gas", {"b": -3.0}, "error: need --b > 0, got -3.0"),
            ("gas", {"span": -1.0}, "error: need --span > 0, got -1.0"),
            ("gas", {"span": 0.0}, "error: need --span > 0, got 0.0"),
            ("gas", {"p_lo": 0.5, "p_hi": -0.5},
             "error: need --p-lo < --p-hi, got the window [0.5, -0.5]"),
            ("gas", {"p_lo": 0.99},
             "error: need --p-lo < --p-hi, got the window [0.99, 0.99]"),
            ("gas", {"span": -1.0, "p_lo": 0.5, "p_hi": -0.5, "b": -3.0},
             "error: need --b > 0, got -3.0"),
        ],
    )
    @pytest.mark.parametrize("way", ["flags", "config"])
    def test_bad_window_or_grid_exits_1(self, tmp_path, capsys, model, flags, error, way):
        argv = ["chord", model, "--t0", "1", "--t1", "5", "--c", "2"]
        if way == "flags":
            argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(flags))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert dispatch([*argv, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [error]
        assert not out.exists()

    def test_finder_beyond_the_tolerance_fails(self, tmp_path, capsys):
        # t1 - t0 = 1e-10 flattens the magnet front difference: the finder
        # lands 1.9e-6 from Q* = 10
        argv = ["chord", "cw", "--t0", "1", "--t1", "1.0000000001", "--c", "1e-9", "--b", "1"]
        out = tmp_path / "out"
        assert dispatch([*argv, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "failure: the finder's cw chord at 9.999997247559453 is 1.925e-06 from the closed "
            "form 9.999999172596361, beyond the cross-check tolerance 1e-08 * max(1, |q*|)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("c", ["150", "200", "300", "340"])
    def test_magnet_chords_with_underflowing_slopes(self, tmp_path, capsys, c):
        # the slope gaps around Q* are 1e-132 (c = 150) to 1e-297 (c = 340):
        # their products underflow in the scan, and at c = 150 a secant
        # denominator underflows in brentq
        argv = ["chord", "cw", "--t0", "1", "--t1", "2", "--c", c]
        assert dispatch([*argv, "--out-dir", str(tmp_path)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        error = float(re.search(r"finder\|dQ\|=(\S+)", line).group(1))
        assert error <= cli.FINDER_TOL * max(1.0, float(c))

    def test_magnet_chord_beyond_the_finder_s_reach_exits_2(self, tmp_path, capsys):
        # c / (t1 - t0) = 350: _tanh_gap clips both arguments, so the fronts
        # are parallel to double precision and the scan finds no sign change
        argv = ["chord", "cw", "--t0", "1", "--t1", "2", "--c", "350"]
        out = tmp_path / "out"
        assert dispatch([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "failure: the finder found no cw chord in its scan window [-1050.0, 1050.0]"
        ]
        assert not out.exists()

    def test_scan_window_wider_than_a_double_exits_1(self, tmp_path, capsys):
        # span = 3 |Q*| = 1.2e308, so the scan's node step overflows
        argv = ["chord", "cw", "--t0", "1", "--t1", "2", "--c", "4e307", "--b", "1"]
        out = tmp_path / "out"
        assert dispatch([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: scan window [-1.2e+308, 1.2e+308] is wider than a double holds"
        ]
        assert not out.exists()


@st.composite
def _chord_runs(draw):
    """A chord model and its flags; half of the temperature gaps lie below
    1e-6 t0, where the finder drifts from the closed form."""
    model = draw(st.sampled_from(["gas", "cw"]))
    t0 = draw(st.floats(0.01, 100.0))
    t1 = t0 + t0 * 10.0 ** draw(st.one_of(st.floats(-12.0, -6.0), st.floats(-6.0, 1.5)))
    if model == "gas":
        # away from c = t1 - t0, where the gas chord has zero length
        c = (t1 - t0) * 10.0 ** draw(st.one_of(st.floats(-3.0, -0.01), st.floats(0.01, 3.0)))
    else:
        c = (t1 - t0) * draw(st.floats(-12.0, 12.0))
    b = draw(st.floats(0.05, 5.0))
    grid_n = draw(st.sampled_from([3, 16, 401, 20001]))
    return model, t0, t1, c, b, grid_n


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(run=_chord_runs())
def test_every_chord_run_that_exits_0_has_the_finder_within_tolerance(tmp_path_factory, run):
    model, t0, t1, c, b, grid_n = run
    out = tmp_path_factory.mktemp("chord")
    argv = ["chord", model, f"--t0={t0!r}", f"--t1={t1!r}", f"--c={c!r}", f"--b={b!r}",
            f"--grid-n={grid_n}", "--grid=2", f"--out-dir={out}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch(argv)
    if code:
        assert len(stderr.getvalue().splitlines()) == 1, argv
        assert not any(out.iterdir()), argv
        return
    if model == "gas":
        qstar = gas_chord(t0, t1, c).q
    else:
        closed = cw_chord(t0, t1, c, b)
        qstar = closed.q + b * closed.p
    printed = float(re.search(r"finder\|d[qQ]\|=(\S+)", stdout.getvalue()).group(1))
    # the error is printed to 4 digits, which rounding keeps on its side of
    # the bound rounded the same way
    bound = cli.FINDER_TOL * max(1.0, abs(qstar))
    assert printed <= float(f"{bound:.3e}"), argv


class TestConfigHandling:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t0": 1.0, "t1": 5.0, "c": 2.0}))
        code = dispatch(["chord", "gas", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 0

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t0": 1.0, "t1": 5.0, "c": 8.0}))
        code = dispatch(
            ["chord", "gas", "--config", str(cfg), "--c", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "v=2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc, flags, same_as",
        [
            # a config value wins over the flag's default
            ({"grid": 7, "format": "json"}, [], ["--grid", "7", "--format", "json"]),
            # a given flag wins over its config value
            ({"grid": 7, "format": "json"}, ["--grid", "9"], ["--grid", "9", "--format", "json"]),
            # a null config value leaves the flag's default
            ({"grid": None, "format": None}, [], []),
        ],
    )
    def test_flag_over_config_over_default(self, tmp_path, doc, flags, same_as):
        argv = ["chord", "cw", "--t0", "2", "--t1", "3", "--c", "1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        by_config, by_flags = tmp_path / "config", tmp_path / "flags"
        assert dispatch([*argv, "--config", str(cfg), *flags, "--out-dir", str(by_config)]) == 0
        assert dispatch([*argv, *same_as, "--out-dir", str(by_flags)]) == 0
        assert _files(by_config) == _files(by_flags)

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t0": 1.0, "bogus": 1}))
        assert dispatch(["chord", "gas", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["chord", "gas"], {"model": "cw", "t0": 1, "t1": 5, "c": 2}),
            (["isotopy", "gas"], {"model": "cw", "T0": 1, "T1": 5, "bg0": 0, "bg1": 2}),
        ],
    )
    def test_positional_model_key_rejected(self, tmp_path, capsys, argv, doc):
        # the positional model always comes from the command line, so a
        # config key for it could never take effect
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert dispatch([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown config keys for {argv[0]!r}: ['model']"]
        assert not out.exists()

    def test_format_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t0": 1.0, "t1": 5.0, "c": 2.0, "format": "json"}))
        assert dispatch(["chord", "gas", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "chords_gas.json").exists()

    def test_config_values_are_read_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_cold": "1", "n_samples": "11"}))
        rest = ["--t-hot", "5", "--v-min", "1.5", "--v-max", "2"]
        by_config, by_flags = tmp_path / "config", tmp_path / "flags"
        assert dispatch(["stirling", "--config", str(cfg), *rest, "--out-dir", str(by_config)]) == 0
        assert dispatch(
            ["stirling", "--t-cold", "1", "--n-samples", "11", *rest, "--out-dir", str(by_flags)]
        ) == 0
        for f in sorted(by_flags.iterdir()):
            assert f.read_bytes() == (by_config / f.name).read_bytes()

    @pytest.mark.parametrize(
        "doc",
        [
            {"t_cold": "one"},
            {"t_cold": [1]},
            {"t_cold": True},
            {"n_samples": 10.5},
            {"out_dir": 5},
            {"span": "wide"},
        ],
    )
    def test_bad_config_values_exit_1(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if "span" in doc:
            argv = ["chord", "cw", "--t0", "2", "--t1", "3", "--c", "1"]
        else:
            argv = ["stirling", "--t-hot", "5", "--v-min", "1.5", "--v-max", "2"]
            if "t_cold" not in doc:
                argv += ["--t-cold", "1"]
        code = dispatch([*argv, "--config", str(cfg), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: config key")

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["gibbs", "--T", "1", "--q", "0.3"], {"system": 5}),
            (["gibbs", "--T", "1", "--q", "0.3"], {"system": ["a"]}),
            (["gibbs", "--system", "s.json", "--T", "1"], {"q": True}),
            (["gibbs", "--system", "s.json", "--T", "1"], {"q": {"a": 1}}),
            (["gibbs", "--system", "s.json", "--T", "1"], {"q": [None]}),
            (["relax", "--system", "s.json", "--q", "0", "--T0", "1"], {"rho0": 5}),
            (["reduce", "--k", "1"], {"input": 5}),
            (["reduce", "--input", "p.csv", "--k", "1"], {"frozen": [[2]]}),
            (["reduce", "--input", "p.csv", "--k", "1"], {"zeroed": True}),
            (["verify"], {"criteria": [None]}),
            (["verify"], {"criteria": {"1": 1}}),
        ],
    )
    def test_text_config_values_must_be_strings(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = dispatch([*argv, "--config", str(cfg), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        (key,) = doc
        assert len(err) == 1 and err[0].startswith(f"error: config key {key!r} must be a string")

    @pytest.mark.parametrize("q", [[0.3], ["0.3"], 0.3, "0.3"])
    def test_q_config_values_read_as_the_flag(self, tmp_path, system_file, q):
        flag_dir, cfg_dir = tmp_path / "flag", tmp_path / "cfg"
        argv = ["gibbs", "--system", str(system_file), "--T", "1"]
        assert dispatch([*argv, "--q", "0.3", "--out-dir", str(flag_dir)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": q}))
        assert dispatch([*argv, "--config", str(cfg), "--out-dir", str(cfg_dir)]) == 0
        for name in ("gibbs_density.csv", "gibbs_point.json"):
            assert (cfg_dir / name).read_bytes() == (flag_dir / name).read_bytes()

    @pytest.mark.parametrize("key", ["frozen", "zeroed"])
    def test_index_config_values_may_be_numbers(self, tmp_path, key):
        # and lists, as for every comma-list flag: 2, [2] and ["2"] are --key 2
        t = np.linspace(0.0, 1.0, 5)
        p, q = np.tile([0.5, 0.0], (5, 1)), np.tile([0.0, 1.0], (5, 1))
        src = tmp_path / "ext.csv"
        path_to_csv(SampledPath(t, t, p, q, np.ones(5), 1.0 + t), str(src))
        flag_dir = tmp_path / "flag"
        argv = ["reduce", "--input", str(src), "--k", "1"]
        assert dispatch([*argv, f"--{key}", "2", "--out-dir", str(flag_dir)]) == 0
        for i, value in enumerate([2, [2], ["2"]]):
            cfg, cfg_dir = tmp_path / f"cfg{i}.json", tmp_path / f"cfg{i}"
            cfg.write_text(json.dumps({key: value}))
            assert dispatch([*argv, "--config", str(cfg), "--out-dir", str(cfg_dir)]) == 0
            for name in ("reduced_path.csv", "reduced_report.json"):
                assert (cfg_dir / name).read_bytes() == (flag_dir / name).read_bytes()

    @pytest.mark.parametrize("criteria", [1, [1], ["1"], "1"])
    def test_criteria_config_values_read_as_the_flag(self, tmp_path, capsys, criteria):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"criteria": criteria}))
        assert dispatch(["verify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "criterion  1 " in out and "verify: all 1 criteria passed" in out

    @pytest.mark.parametrize(
        "model, window, table, column, first",
        [
            ("gas", {"q_lo": -4.0, "q_hi": -0.2}, "fig3_difference_front.csv", 0, -4.0),
            ("cw", {"span": 5.0}, "fig4_difference_front.csv", 0, -5.0),
            ("cw", {"p_lo": -0.9, "p_hi": 0.9}, "cw_legendrian.csv", 1, -0.9),
        ],
    )
    def test_chord_window_flags_match_config_keys(self, tmp_path, model, window, table, column, first):
        argv = ["chord", model, "--t0", "1", "--t1", "5", "--c", "2", "--grid", "16"]
        flags = [a for key, value in window.items() for a in (f"--{key.replace('_', '-')}", str(value))]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(window))
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        assert dispatch([*argv, *flags, "--out-dir", str(by_flags)]) == 0
        assert dispatch([*argv, "--config", str(cfg), "--out-dir", str(by_config)]) == 0
        for f in sorted(by_flags.iterdir()):
            assert f.read_bytes() == (by_config / f.name).read_bytes()
        rows = np.loadtxt(by_flags / table, delimiter=",", skiprows=1)
        assert rows[0, column] == first

    def test_config_key_table_matches_the_parser(self):
        text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \| ([^|]*) \|$", text, re.M)
        documented = {command: set(re.findall(r"`(\w+)`", keys)) for command, keys, _ in rows}
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {
            command: {a.dest for a in p._actions if a.option_strings}
            - {"help", "config", "out_dir", "fmt"}
            for command, p in sub.choices.items()
        }
        assert documented == dests
        # the defaults column holds each constant default as `key=<JSON value>`
        documented_defaults = {
            command: {k: json.loads(v) for k, v in re.findall(r"`(\w+)=([^`]*)`", column)}
            for command, _, column in rows
        }
        defaults = {
            command: {
                a.dest: a.default
                for a in p._actions
                if a.option_strings and a.default not in (None, argparse.SUPPRESS)
            }
            for command, p in sub.choices.items()
        }
        assert documented_defaults == defaults

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert dispatch(["chord", "gas", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_no_output_on_validation_failure(self, tmp_path):
        out = tmp_path / "fresh" / "sub"
        code = dispatch(
            ["chord", "gas", "--t0", "5", "--t1", "1", "--c", "2", "--out-dir", str(out)]
        )
        assert code == 1
        assert not out.parent.exists()

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THERMO_OUT_DIR", str(tmp_path / "envout"))
        code = dispatch(["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2"])
        assert code == 0
        assert (tmp_path / "envout" / "chords_gas.csv").exists()


class TestFailedRunsWriteNothing:
    """Every file is written after the subcommand returns, so a run that
    fails after computing part of its output leaves no file."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            # the fig4 tables come before the Legendrian sample fails
            (["chord", "cw", "--t0", "2", "--t1", "3", "--c", "1", "--p-lo=-1"],
             "error: magnetization must lie in (-1, 1), got -1.0"),
            # the reduced path comes before the report rejects the slack
            (["reduce", "--input", "{ext}", "--k", "1", "--zeroed", "2", "--slack=-1"],
             "error: slack must be non-negative"),
        ],
    )
    def test_partial_output_is_not_written(self, tmp_path, capsys, argv, error):
        argv = [a.format(ext=_extended_csv(tmp_path)) for a in argv]
        out = tmp_path / "out"
        assert dispatch([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [error]
        assert not out.exists()

    def test_failed_write_leaves_no_file(self, tmp_path, capsys):
        # a directory stands where the last fig1 table goes
        (tmp_path / "fig1_chord.csv").mkdir()
        argv = ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2"]
        assert dispatch([*argv, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"failure: [Errno 21] Is a directory: {str(tmp_path / 'fig1_chord.csv')!r}"
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["fig1_chord.csv"]
        assert list((tmp_path / "fig1_chord.csv").iterdir()) == []

    def test_failed_write_removes_the_directories_it_made(self, tmp_path, capsys, monkeypatch):
        real_open = builtins.open

        def full_disk(file, *args, **kwargs):
            if Path(str(file)).name.startswith(".fig1_family_hot.csv."):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", full_disk)
        argv = ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2"]
        assert dispatch([*argv, "--out-dir", str(tmp_path / "new" / "sub")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "failure: [Errno 28] No space left on device"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_criteria_list_is_read_as_the_flag(self, tmp_path, capsys):
        # [1.5] is --criteria 1.5, not criterion 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"criteria": [1.5]}))
        assert dispatch(["verify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: cannot parse criteria from '1.5'"]

    @pytest.mark.parametrize("argv", [["--criteria", ","], ["--criteria=,,"]])
    def test_empty_criteria_selection_is_an_error(self, tmp_path, capsys, argv):
        assert dispatch(["verify", *argv, "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: no criteria selected"]

    def test_format_is_a_chord_flag_only(self, tmp_path, system_file, capsys):
        argv = ["gibbs", "--system", str(system_file), "--T", "1", "--q", "0.3", "--format", "json"]
        assert dispatch([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["xml", 5])
    def test_format_config_value_is_checked_when_a_flag_overrides_it(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t0": 1, "t1": 5, "c": 2, "format": value}))
        argv = ["chord", "gas", "--config", str(cfg), "--format", "csv"]
        out = tmp_path / "out"
        assert dispatch([*argv, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config key 'format'")
        assert not out.exists()


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                dispatch(
                    ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2", "--out-dir", str(out)]
                )
                == 0
            )
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()


def _cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, whose stderr shows any warning."""
    src = str(Path(thermocontact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "thermocontact.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )


def _extended_csv(tmp_path) -> str:
    src = tmp_path / "ext.csv"
    src.write_text("t,z,S,T,p_1,p_2,q_1,q_2\n0,0,0.5,1,0.5,0,0,1\n1,4,0.75,1.5,0.25,0,0.1,0\n")
    return str(src)


class TestFiniteFloats:
    """Every float flag, config value and --q/--frozen value must be finite."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["isotopy", "gas", "--T0", "1", "--T1", "5", "--bg0", "0", "--bg1", "2",
              "--x-lo", "-2.5", "--x-hi", "-0.5", "--n-x", "9", "--slack", "nan"], "--slack"),
            (["reduce", "--input", "{ext}", "--k", "1", "--zeroed", "2", "--slack", "nan"],
             "--slack"),
            (["chord", "gas", "--t0", "1", "--t1", "5", "--c", "inf"], "--c"),
            (["gibbs", "--system", "{system}", "--T", "inf", "--q", "0.3"], "--T"),
            (["gibbs", "--system", "{system}", "--T", "1", "--q", "0.3,-inf"], "--q"),
            (["relax", "--system", "{system}", "--q", "nan", "--T0", "1"], "--q"),
            (["relax", "--system", "{system}", "--q", "0.1", "--T0", "1", "--dt0=-inf"],
             "--dt0"),
            (["reduce", "--input", "{ext}", "--k", "1", "--frozen", "2=inf"], "--frozen"),
        ],
    )
    def test_non_finite_values_exit_1(self, tmp_path, system_file, capsys, argv, flag):
        argv = [a.format(ext=_extended_csv(tmp_path), system=system_file) for a in argv]
        out = tmp_path / "out"
        code = dispatch([*argv, "--out-dir", str(out)])
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert code == 1
        assert len(errors) == 1 and flag in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["nan", "-inf", "abc"])
    def test_flag_error_names_the_rule(self, tmp_path, capsys, text):
        argv = ["chord", "gas", "--t0", "1", "--t1", "5", f"--c={text}"]
        assert dispatch([*argv, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].endswith(f"error: argument --c: invalid finite float value: {text!r}")

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", '"nan"', '"inf"'])
    def test_non_finite_config_values_exit_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"slack": %s}' % text)
        argv = ["isotopy", "gas", "--T0", "1", "--T1", "5", "--x-lo", "-2.5", "--x-hi", "-0.5"]
        code = dispatch([*argv, "--config", str(cfg), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: config key 'slack'")
        assert "invalid finite float value" in err[0]

    def test_non_finite_q_in_a_config_list(self, tmp_path, system_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"q": [0.3, NaN]}')
        argv = ["gibbs", "--system", str(system_file), "--T", "1"]
        code = dispatch([*argv, "--config", str(cfg), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: cannot parse --q")

    def test_frozen_pin_needs_an_index(self, tmp_path, capsys):
        argv = ["reduce", "--input", _extended_csv(tmp_path), "--k", "1", "--frozen", "=5"]
        assert dispatch([*argv, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --frozen pin '=5' has no index"]

    def test_tiny_dt0_ends_at_once(self, tmp_path, system_file):
        proc = _cli_process(["relax", "--system", str(system_file), "--q", "0.3", "--T0", "1",
                             "--dt0", "1e-320", "--out-dir", str(tmp_path)])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: dt0 = 1e-320 needs more than 100000 steps to reach t_end = 20.0"
        ]


class TestOverflow:
    """Inputs whose results doubles cannot hold end in one line, without a
    numpy warning (Tier-1 turns a RuntimeWarning into an error)."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["stirling", "--t-cold", "1e-12", "--t-hot", "0.5", "--v-min", "1e-320",
              "--v-max", "1e-12", "--n-samples", "5"],
             2, "failure: the Stirling cycle at T_C=1e-12, T_H=0.5, v_min=1e-320, v_max=1e-12"),
            (["chord", "cw", "--t0", "5e-324", "--t1", "0.73", "--c=-3e-8", "--b", "3.9",
              "--grid", "4"],
             2, "failure: the cw difference front t0=4.94066e-324, t1=0.73, c=-3e-08 is beyond"),
            (["relax", "--system", "{system}", "--q", "1e308", "--T0", "4.4", "--T1", "1e308",
              "--ramp", "5", "--dt0", "0.01"],
             2, "failure: the free energy at T=4.4, q=[1e+308] is beyond double precision"),
            # the chart values reach past p = 1, which is checked before any root
            (["isotopy", "cw", "--T0", "1e-320", "--T1", "1.76", "--bg0=-1", "--bg1", "4.1",
              "--n-times", "5", "--x-lo", "1e-320", "--x-hi", "3.08", "--n-x", "16",
              "--b", "4.69"],
             1, "error: magnet chart value p=1.0266666666666666 must lie in (-1, 1)"),
            (["isotopy", "cw", "--T0", "1e-320", "--T1", "1.76", "--bg0=-1", "--bg1", "4.1",
              "--n-times", "5", "--x-lo", "1e-320", "--x-hi", "0.5", "--b", "4.69"],
             2, "failure: magnetization roots at T=1e-320, b=4.69"),
            (["isotopy", "cw", "--T0", "2", "--T1", "1e-10", "--bg1", "1e300", "--n-times", "2",
              "--x-lo", "1e-320", "--x-hi", "0.17", "--b", "1e-320"],
             2, "failure: magnetization roots at T=1e-10, b=1e-320, q + H_back=1e+300"),
            (["chord", "cw", "--t0", "0.1", "--t1", "1", "--c", "1", "--q-lo=-1e308",
              "--q-hi", "1e308"],
             2, "failure: the --q-lo/--q-hi window [-1e+308, 1e+308] is beyond double precision"),
            (["chord", "gas", "--t0", "1e-300", "--t1", "1e300", "--c", "1e-300"],
             2, "failure: the gas chord at t0=1e-300, t1=1e+300, c=1e-300 is beyond double "
             "precision"),
            (["stirling", "--t-cold", "9.327288544196055e-186", "--t-hot",
              "9.327288544197114e-186", "--v-min", "6.228100820612373e-186", "--v-max",
              "2.621179005073122e+181"],
             2, "failure: the heating_corner from T=9.327288544196055e-186 to "
             "T=9.327288544197114e-186 at v=2.621179005073122e+181 is beyond double precision "
             "(its pressure jump underflows to 0)"),
            (["stirling", "--t-cold", "7.65889626690395e+135", "--t-hot",
              "6.467883151584776e+203", "--v-min", "1.0100854264483892e-81", "--v-max",
              "1.0100854264493078e-81"],
             2, "failure: the gas chord at t0=7.65889626690395e+135, t1=6.467883151584776e+203, "
             "c=6.403303109051693e+284 is beyond double precision"),
            (["isotopy", "cw", "--T0", "1e-32", "--T1", "1e-32", "--b", "1", "--x-lo", "0.5",
              "--x-hi", "0.5", "--n-x", "1", "--n-times", "2"],
             2, "failure: the magnetization root at T=1e-32, b=1.0, q + H_back=-0.5 on "
             "[-5.000500050009686e+27, 1.5001500150029058e+28]: "
             "Failed to converge after 100 iterations."),
            # q + bg keeps only bg's rounding of T atanh(p) - b p, so the
            # chart point misses its equation and the path would start elsewhere
            (["isotopy", "cw", "--T0", "1", "--T1", "1.2", "--b", "1", "--bg0", "1e9",
              "--bg1", "1e9", "--x-lo", "0.3", "--x-hi", "0.3", "--n-x", "1", "--n-times", "3"],
             2, "failure: self-consistency residual 2.718e-08 too large at T=1.0, b=1.0, "
             "H_back=1000000000.0, p=0.30000000000000004"),
            (["isotopy", "cw", "--T0", "1", "--T1", "1.2", "--b", "1", "--bg0", "1e12",
              "--bg1", "1e12", "--x-lo", "0.3", "--x-hi", "0.3", "--n-x", "1", "--n-times", "3"],
             2, "failure: self-consistency residual 1.880e-06 too large at T=1.0, b=1.0, "
             "H_back=1000000000000.0, p=0.30000000000000004"),
        ],
    )
    def test_one_line_and_no_file(self, tmp_path, system_file, capsys, argv, code, message):
        system = tmp_path / "s.json"
        system.write_text(
            '{"labels":["a","b","c"],"weights":[1,2,1],"v_int":[0,0.5,0.5],"v_bar":[[1,-1,1]]}'
        )
        out = tmp_path / "out"
        argv = [a.format(system=system) for a in argv]
        assert dispatch([*argv, "--out-dir", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()

    def test_magnet_cooled_to_tiny_t_keeps_its_stable_root(self, tmp_path, capsys):
        # at T1/b ~ 7.5e-20 the root continuing p = 0.999988 was dropped and
        # the run ended in "vanished at a fold"
        argv = ["isotopy", "cw", "--T0", "0.5", "--T1", "7.48699923658469e-20", "--b", "1",
                "--x-lo", "0.9579853483427075", "--x-hi", "0.9579853483427075", "--n-x", "1",
                "--n-times", "4"]
        assert dispatch([*argv, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("isotopy cw: 1 paths")
        assert (tmp_path / "isotopy_path_000.csv").exists()

    def test_gas_chord_with_overflowing_scan_products(self, tmp_path, capsys):
        # the finder's slope products overflow; their signs still hold
        argv = ["chord", "gas", "--t0", "0.5", "--t1", "700", "--c", "1e-300"]
        assert dispatch([*argv, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "P0=7.14796283059e-304" in out and "finder|dq|=7.451e-13" in out

    def test_relax_step_cap(self, tmp_path):
        # steps halve toward 1e-9 as a density entry nears its ~1e-12 Gibbs
        # value; the run ends at MAX_RELAX_STEPS accepted steps
        system = tmp_path / "s.json"
        system.write_text(
            '{"labels":["a","b","c"],"weights":[1,2,1],"v_int":[0,0.5,0.5],"v_bar":[[1,-1,1]]}'
        )
        out = tmp_path / "out"
        proc = _cli_process(["relax", "--system", str(system), "--q", "0.5", "--T0", "0.0365",
                             "--t-end", "1", "--dt0", "0.1", "--out-dir", str(out)])
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert re.fullmatch(
            r"failure: more than 100000 steps to reach t_end = 1\.0: at t=\S+ the step is dt=\S+",
            err[0],
        )
        assert not out.exists()


# 10^15 doubles: 7.11 PiB, more than any address space, so nothing is allocated
_HUGE = "1000000000000000"
_ISOTOPY = ["isotopy", "gas", "--T0", "1", "--T1", "5", "--x-lo", "-2.5", "--x-hi", "-0.5"]


class TestOneExitPath:
    """Every failing run leaves through ``dispatch``: one ``error:`` or
    ``failure:`` line on stderr, nothing on stdout, no file, no usage block
    and no traceback."""

    def _one_line(self, tmp_path, capsys, argv, code) -> str:
        out = tmp_path / "out"
        assert dispatch([*argv, "--out-dir", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        err = captured.err.splitlines()
        assert len(err) == 1, err
        return err[0]

    @pytest.mark.parametrize(
        "argv, line",
        [
            # usage errors
            (["chord", "gas", "--t0", "nan"],
             "error: argument --t0: invalid finite float value: 'nan'"),
            (["chord"], "error: the following arguments are required: model"),
            (["gibbs", "--bogus", "1"], "error: unrecognized arguments: --bogus 1"),
            # checks of the subcommands and of --config
            (["reduce", "--input", "{ext}", "--k", "1", "--zeroed", "0"],
             "error: zeroed indices are 1-based, got 0"),
            (["reduce", "--input", "{ext}", "--k", "1", "--zeroed", "x"],
             "error: cannot parse zeroed from 'x'"),
            (["reduce", "--input", "{ext}", "--k", "1", "--frozen", "0=1"],
             "error: frozen indices are 1-based, got 0"),
            (["chord", "gas", "--t0", "1", "--t1", "5", "--c", "0"],
             "error: pressure jump c must be positive"),
            (["relax", "--system", "{system}", "--q", "0.3,0.4", "--T0", "1"],
             "error: q has length 2, expected 1"),
            (["relax", "--system", "{system}", "--q", "0.3", "--T0", "1", "--ramp", "-1"],
             "error: need --T0 > 0, --T1 >= --T0, --ramp >= 0"),
            ([*_ISOTOPY[:6], "--x-lo", "-0.5", "--x-hi", "-2.5"],
             "error: need --x-lo <= --x-hi and --n-x >= 1"),
            (["relax", "--system", "{empty}", "--q", "0.3", "--T0", "1"],
             "error: cannot read system file '{empty}': Expecting value: line 1 column 1 (char 0)"),
            (["relax", "--config", "{missing}"],
             "error: cannot read config '{missing}': "
             "[Errno 2] No such file or directory: '{missing}'"),
            (["relax", "--config", "{dir}"],
             "error: cannot read config '{dir}': [Errno 21] Is a directory: '{dir}'"),
            (["verify", "--criteria", "1.5"], "error: cannot parse criteria from '1.5'"),
            (["verify", "--criteria", "2,0"], "error: criteria indices are 1-based, got 0"),
            # the library's line, where the CLI does not repeat its rule
            (["gibbs", "--system", "{system}", "--T", "1", "--q", "0.3,0.4"],
             "error: q has length 2, expected 1"),
            (["relax", "--system", "{system}", "--q", "0.3", "--T0", "1", "--t-end", "0"],
             "error: t_end must be positive"),
            (["relax", "--system", "{system}", "--q", "0.3", "--T0", "1", "--dt0", "-1"],
             "error: dt0 must be positive"),
            (["isotopy", "gas", "--T0", "-1", "--T1", "5", "--x-lo", "-2.5", "--x-hi", "-0.5"],
             "error: schedule temperatures must be positive"),
            # the CLI's own rules
            ([*_ISOTOPY, "--n-times", "1"], "error: need --n-times >= 2, got 1"),
            (["relax", "--system", "{system}", "--q", "0.3", "--T0", "2", "--T1", "1"],
             "error: need --T0 > 0, --T1 >= --T0, --ramp >= 0"),
        ],
    )
    def test_rejected_run_prints_its_line(self, tmp_path, system_file, capsys, argv, line):
        (tmp_path / "empty.json").write_text("")
        names = {
            "ext": _extended_csv(tmp_path),
            "system": system_file,
            "empty": tmp_path / "empty.json",
            "missing": tmp_path / "missing.json",
            "dir": tmp_path,
        }
        argv = [a.format(**names) for a in argv]
        assert self._one_line(tmp_path, capsys, argv, 1) == line.format(**names)

    def test_reduce_of_a_reduced_path_prints_the_library_line(self, tmp_path, capsys):
        red = tmp_path / "red.csv"
        red.write_text("t,z,p_1,q_1\n0,0,1,0\n1,1,1,0\n")
        argv = ["reduce", "--input", str(red), "--k", "1"]
        assert self._one_line(tmp_path, capsys, argv, 1) == (
            "error: only extended paths can be reduced"
        )

    @pytest.mark.parametrize(
        "doc, line",
        [
            ("5", "error: a system document must be a JSON object"),
            ("null", "error: a system document must be a JSON object"),
            ('{"labels": 5, "weights": [1], "v_int": [1], "v_bar": [[1]]}',
             "error: system key 'labels' must be a JSON list"),
            ('{"labels": ["a"], "weights": [1], "v_int": {"a": 1}, "v_bar": [[1]]}',
             "error: system key 'v_int' must be a JSON list"),
            ('{"labels": "ab", "weights": [1, 1], "v_int": [0, 1], "v_bar": [[1, 1]]}',
             "error: system key 'labels' must be a JSON list"),
            # nested lists are read as they nest, never flattened
            ('{"labels": ["a"], "weights": [[1]], "v_int": [1], "v_bar": [[1]]}',
             "error: weights must have 1 dimension(s), got shape (1, 1)"),
            ('{"labels": ["a", "b"], "weights": [1, 1], "v_int": [[0, 1]], "v_bar": [[1, 1]]}',
             "error: v_int must have 1 dimension(s), got shape (1, 2)"),
            ('{"labels": ["a"], "weights": [1], "v_int": [1], "v_bar": [1]}',
             "error: v_bar must have 2 dimension(s), got shape (1,)"),
            ('{"labels": ["a"], "weights": [{}], "v_int": [1], "v_bar": [[1]]}',
             "error: weights must be an array of numbers: got {} at index 0"),
            # entries are real numbers: no text, bool or null that a float
            # conversion would take, and an int beyond doubles reads as inf
            ('{"labels": ["a", "b"], "weights": ["1", "1"], "v_int": [0, 1], "v_bar": [[1, 1]]}',
             "error: weights must be an array of numbers: got '1' at index 0"),
            ('{"labels": ["a", "b"], "weights": [true, 1], "v_int": [0, 1], "v_bar": [[1, 1]]}',
             "error: weights must be an array of numbers: got True at index 0"),
            ('{"labels": ["a", "b"], "weights": [1, 1], "v_int": [null, 1], "v_bar": [[1, 1]]}',
             "error: v_int must be an array of numbers: got None at index 0"),
            pytest.param(
                '{"labels": ["a", "b"], "weights": [1, %s], "v_int": [0, 1], "v_bar": [[1, 1]]}'
                % ("1" * 401), "error: weights must be finite, got inf at index 1",
                id="a-401-digit-weight",
            ),
        ],
    )
    def test_system_file_of_another_shape_prints_its_line(self, tmp_path, capsys, doc, line):
        system = tmp_path / "system.json"
        system.write_text(doc)
        argv = ["gibbs", "--system", str(system), "--T", "1", "--q", "0.3"]
        assert self._one_line(tmp_path, capsys, argv, 1) == line

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["gibbs", "--system", "{bad}", "--T", "1", "--q", "0.3"], "system file"),
            (["relax", "--config", "{bad}"], "config"),
            (["reduce", "--input", "{bad}", "--k", "1"], "input file"),
            (["relax", "--system", "{system}", "--q", "0.3", "--T0", "1", "--rho0", "{bad}"],
             "input file"),
        ],
    )
    def test_file_that_is_not_utf8_is_named(self, tmp_path, system_file, capsys, argv, what):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe")
        argv = [a.format(bad=bad, system=system_file) for a in argv]
        assert self._one_line(tmp_path, capsys, argv, 1) == (
            f"error: cannot read {what} {str(bad)!r}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["chord", "cw", "--t0", "2", "--t1", "3", "--c", "1", "--grid", _HUGE],
            [*_ISOTOPY, "--n-x", _HUGE],
            [*_ISOTOPY, "--n-times", _HUGE],
            ["stirling", "--t-cold", "1", "--t-hot", "5", "--v-min", "1.5", "--v-max", "2",
             "--n-samples", _HUGE],
        ],
    )
    def test_allocation_failure_exits_2(self, tmp_path, capsys, argv):
        line = self._one_line(tmp_path, capsys, argv, 2)
        assert line.startswith("failure: Unable to allocate ")


class TestOtherCommands:
    def test_gibbs(self, tmp_path, system_file, capsys):
        code = dispatch(
            ["gibbs", "--system", str(system_file), "--T", "1.5", "--q", "0.3", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "log_z=" in capsys.readouterr().out
        doc = json.loads((tmp_path / "gibbs_point.json").read_text())
        assert set(doc) == {"log_z", "z", "S", "T", "p", "q"}

    @pytest.mark.parametrize(
        "T, q, code, density",
        [
            # H/T overflows and log Z with it: not representable
            ("1e-320", "3.3", 2, None),
            # z = -G overflows at the doubled middle weight
            ("1e308", "1e308", 2, None),
            # the ground state alone: a representable limit
            ("1e-320", "0", 0, "rho_1,rho_2,rho_3\n1,0,0\n"),
            # log Z = -19999.3, whose rounding moves the mass 1.6e-12 off 1
            ("1e-5", "0.3", 0, "rho_1,rho_2,rho_3\n0,0.5,0\n"),
        ],
    )
    def test_gibbs_at_extreme_inputs(self, tmp_path, T, q, code, density):
        system = tmp_path / "s.json"
        system.write_text(
            '{"labels":["a","b","c"],"weights":[1,2,1],"v_int":[0,0.5,0.5],"v_bar":[[1,-1,1]]}'
        )
        out = tmp_path / "out"
        proc = _cli_process(["gibbs", "--system", str(system), "--T", T, "--q", q,
                             "--out-dir", str(out)])
        assert proc.returncode == code
        err = proc.stderr.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("failure: ")
            assert f"T={float(T)!r}, q=[{float(q)!r}]" in err[0]
            assert not out.exists()
        else:
            assert err == []
            assert (out / "gibbs_density.csv").read_text() == density
            text = (out / "gibbs_point.json").read_text()
            assert "Infinity" not in text and "NaN" not in text

    def test_gibbs_dimension_mismatch(self, tmp_path, system_file):
        code = dispatch(
            ["gibbs", "--system", str(system_file), "--T", "1.5", "--q", "0.3,0.4", "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_missing_input_files_are_validation_errors(self, tmp_path):
        code = dispatch(
            ["gibbs", "--system", str(tmp_path / "nope.json"), "--T", "1.0", "--q", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        code = dispatch(
            ["reduce", "--input", str(tmp_path / "nope.csv"), "--k", "1", "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_relax(self, tmp_path, system_file, capsys):
        code = dispatch(
            [
                "relax",
                "--system", str(system_file),
                "--q", "0.2",
                "--T0", "1.0", "--T1", "1.5", "--ramp", "2.0",
                "--t-end", "10", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "relax_manifest.json").read_text())
        assert manifest["terminal_tv_to_gibbs"] < 1e-6
        assert manifest["min_form_value"] > -1e-8
        path = path_from_csv(str(tmp_path / "relax_path.csv"))
        assert path.kind == "reduced"

    def test_relax_with_density_file(self, tmp_path, system_file):
        from thermocontact import densities_to_csv

        rho_file = tmp_path / "rho0.csv"
        densities_to_csv([[0.6, 0.3, 0.1]], str(rho_file))
        code = dispatch(
            [
                "relax",
                "--system", str(system_file),
                "--q", "0.0",
                "--T0", "1.0",
                "--rho0", str(rho_file),
                "--t-end", "8",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "relax_manifest.json").read_text())
        assert manifest["terminal_tv_to_gibbs"] < 1e-6

    @pytest.mark.parametrize(
        "text, error",
        [
            ("", "error: density CSV has no header row"),
            (
                "rho_1,rho_2,rho_3\n0.6,0.3,0.1\n\n0.6,x,0.1\n",
                "error: density CSV line 4: could not convert string to float: 'x'",
            ),
            ("x\n0.2,0.8\n", "error: density CSV line 1: header 'x' is not rho_1..rho_m"),
            (
                "rho_1,rho_3,rho_2\n0.6,0.3,0.1\n",
                "error: density CSV line 1: header 'rho_1,rho_3,rho_2' is not rho_1..rho_m",
            ),
            (
                "rho_1,rho_2,rho_3\n0.5,0.25,0.25\n\n0.6,0.4\n",
                "error: density CSV line 4: 2 fields, the header has 3",
            ),
            (
                "rho_1,rho_2,rho_3\n1.2,-0.1,-0.1\n",
                "error: density CSV line 2: density entries must be finite and non-negative",
            ),
        ],
    )
    def test_relax_rejects_bad_density_file(self, tmp_path, system_file, capsys, text, error):
        rho_file = tmp_path / "rho0.csv"
        rho_file.write_text(text)
        code = dispatch(
            ["relax", "--system", str(system_file), "--q", "0", "--T0", "1",
             "--rho0", str(rho_file), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [error]

    @pytest.mark.parametrize("command", ["reduce", "relax"])
    def test_oversized_cell_reads_as_infinite(self, tmp_path, system_file, capsys, command):
        # a cell beyond the csv module's 131072-character field limit
        big = "1" * 200_000
        src = tmp_path / "in.csv"
        out = tmp_path / "out"
        if command == "reduce":
            src.write_text(f"t,z,S,T,p_1,q_1\n{big},0,0.5,1,0.5,0\n1,4,0.75,1.5,0.25,0.1\n")
            argv = ["reduce", "--input", str(src), "--k", "1"]
            error = ("error: times must be finite, got inf at index 0", "")
        else:
            src.write_text(f"rho_1,rho_2,rho_3\n{big},0.3,0.1\n")
            argv = ["relax", "--system", str(system_file), "--q", "0", "--T0", "1",
                    "--rho0", str(src)]
            error = ("error: density CSV line 2: density entries must be finite and "
                     "non-negative", "")
        assert dispatch([*argv, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(error[0]) and line.endswith(error[1])
        assert captured.out == "" and not out.exists()

    def test_relax_rejects_density_file_without_rows(self, tmp_path, system_file, capsys):
        rho_file = tmp_path / "rho0.csv"
        rho_file.write_text("rho_1,rho_2,rho_3\n")
        out = tmp_path / "out"
        code = dispatch(
            ["relax", "--system", str(system_file), "--q", "0", "--T0", "1",
             "--rho0", str(rho_file), "--out-dir", str(out)]
        )
        assert code == 1
        error = f"error: no density rows in {str(rho_file)!r}"
        assert capsys.readouterr().err.splitlines() == [error]
        assert not out.exists()

    def test_isotopy(self, tmp_path, capsys):
        code = dispatch(
            [
                "isotopy", "gas",
                "--T0", "1", "--T1", "5", "--bg0", "0", "--bg1", "2",
                "--x-lo", "-2.5", "--x-hi", "-0.5", "--n-x", "3",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "isotopy_manifest.json").read_text())
        assert len(manifest["paths"]) == 3
        assert manifest["legendrian_residual"] < 1e-8
        for entry in manifest["paths"]:
            assert (tmp_path / entry["file"]).exists()
            assert set(entry["report"]) == {"min_form_value", "violations", "verdict"}

    def test_isotopy_branch_loss_is_numerical_failure(self, tmp_path):
        code = dispatch(
            [
                "isotopy", "cw",
                "--T0", "1", "--T1", "2",
                "--x-lo", "-0.5", "--x-hi", "-0.5", "--n-x", "1",
                "--b", "1.2", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_isotopy_without_a_fold_keeps_every_branch(self, tmp_path):
        # T > b at every node: coarse time steps move p by more than 0.1
        # between nodes, but each node has exactly one root to continue to
        code = dispatch(
            [
                "isotopy", "cw",
                "--b", "1", "--T0", "1.1", "--T1", "1.6",
                "--x-lo", "0.05", "--x-hi", "0.3", "--n-x", "6", "--n-times", "6",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "isotopy_manifest.json").read_text())
        assert manifest["legendrian_residual"] < 1e-8

    def test_isotopy_through_T_equal_b_keeps_the_zero_root(self, tmp_path):
        # the symmetric default grid holds x = 0, whose root sits at
        # q + bg = 0 exactly; it must stay on the middle root p = 0
        code = dispatch(
            [
                "isotopy", "cw",
                "--b", "1", "--T0", "1.5", "--T1", "0.5",
                "--x-lo", "-0.5", "--x-hi", "0.5",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "isotopy_manifest.json").read_text())
        assert manifest["paths"][4]["x"] == 0.0
        middle = path_from_csv(str(tmp_path / manifest["paths"][4]["file"]))
        assert np.all(np.abs(middle.p[:, 0]) < 1e-11)

    def test_isotopy_at_low_T_over_b(self, tmp_path):
        # T/b = 2e-4: a residual in p, which multiplies p's rounding by
        # b/T, rejected the accurate middle roots here (1.1e-10 > 1e-10)
        code = dispatch(
            [
                "isotopy", "cw",
                "--T0", "0.0002", "--T1", "0.00021", "--b", "1",
                "--x-lo", "-0.9", "--x-hi", "0.9", "--n-x", "41", "--n-times", "11",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0

    def test_isotopy_chart_point_at_a_large_background(self, tmp_path):
        # at --bg0 1e6 the chart point passes its check, and the path's q,
        # which alone sets its roots, is the chart formula's, bit for bit
        argv = ["isotopy", "cw", "--T0", "1", "--T1", "1.2", "--b", "1", "--bg0", "1e6",
                "--bg1", "1e6", "--x-lo", "0.3", "--x-hi", "0.3", "--n-x", "1", "--n-times", "3"]
        assert dispatch([*argv, "--out-dir", str(tmp_path)]) == 0
        path = path_from_csv(str(tmp_path / "isotopy_path_000.csv"))
        q = -1.0 * 0.3 + 1.0 * math.atanh(0.3) - 1e6
        assert path.q[:, 0].tolist() == [q, q, q]

    def test_stirling(self, tmp_path, capsys):
        code = dispatch(
            [
                "stirling",
                "--t-cold", "1", "--t-hot", "5",
                "--v-min", "1.5", "--v-max", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "stirling_manifest.json").read_text())
        assert manifest["closure_residual"] < 1e-9
        assert abs(manifest["total_delta_G"]) < 1e-9
        names = [seg["name"] for seg in manifest["segments"]]
        assert names == ["isotherm_hot", "cooling_corner", "isotherm_cold", "heating_corner"]
        heat = manifest["segments"][3]
        assert heat["chord"]["q"] == -0.5
        assert heat["form_sign"] == "positive"
        cool = manifest["segments"][1]
        assert cool["temperature_decreasing"] is True
        for seg in manifest["segments"]:
            assert (tmp_path / seg["file"]).exists()

    def test_reduce_roundtrip(self, tmp_path):
        t = np.linspace(0.0, 1.0, 9)
        p, q = np.tile([0.5, 0.0], (9, 1)), np.column_stack([0.1 * t, np.ones(9)])
        src = tmp_path / "ext.csv"
        path_to_csv(SampledPath(t, 2.0 * t, p, q, np.ones(9), 1.0 + t), str(src))
        code = dispatch(
            [
                "reduce",
                "--input", str(src),
                "--k", "1", "--zeroed", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        reduced = path_from_csv(str(tmp_path / "reduced_path.csv"))
        assert reduced.kind == "reduced" and reduced.dimension == 1
        report = json.loads((tmp_path / "reduced_report.json").read_text())
        assert report["verdict"] == "nonnegative"

    def test_reduce_rejects_reduced_input(self, tmp_path):
        t = np.array([0.0, 1.0])
        src = tmp_path / "red.csv"
        path_to_csv(SampledPath(t, t, np.ones(2), np.zeros(2)), str(src))
        assert dispatch(["reduce", "--input", str(src), "--k", "1", "--out-dir", str(tmp_path)]) == 1

    def test_reduce_rejects_short_row(self, tmp_path, capsys):
        src = tmp_path / "ext.csv"
        src.write_text("t,z,S,T,p_1,q_1\n0,0,1,1,0.5,0\n1,1,1\n")
        code = dispatch(["reduce", "--input", str(src), "--k", "1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == ["error: path CSV line 3: 3 fields, the header has 6"]

    def test_reduce_rejects_non_numeric_cell(self, tmp_path, capsys):
        src = tmp_path / "ext.csv"
        src.write_text("t,z,S,T,p_1,q_1\n0,0,1,1,0.5,0\n\n1,1,1,1,x,0\n")
        code = dispatch(["reduce", "--input", str(src), "--k", "1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == ["error: path CSV line 4: could not convert string to float: 'x'"]

    def test_reduce_rejects_bad_header(self, tmp_path, capsys):
        src = tmp_path / "ext.csv"
        src.write_text("t,z,S,T,p_1,q_2\n0,0,1,1,0.5,0\n1,1,1,1,0.5,0\n")
        code = dispatch(["reduce", "--input", str(src), "--k", "1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: path CSV line 1: header")

    def test_verify_subset(self, tmp_path, capsys):
        code = dispatch(["verify", "--criteria", "1", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS criterion  1" in out

    def test_verify_reports_a_failed_criterion(self, tmp_path, capsys, monkeypatch):
        from thermocontact import verify

        def failing():
            return verify.CriterionResult(4, "Gibbs minimality", False, "forced to fail")

        criteria = list(verify.CRITERIA)
        criteria[3] = failing
        monkeypatch.setattr(verify, "CRITERIA", criteria)
        code = dispatch(["verify", "--criteria", "4,1", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert out[0] == "FAIL criterion  4 [Gibbs minimality]: forced to fail"
        assert out[1].startswith("PASS criterion  1 ")
        assert out[2:] == ["verify: 1 criteria failed: [4]"]

    def test_main_exits_with_the_status(self, tmp_path, capsys, monkeypatch):
        # the console script's entry point, in this process
        argv = ["thermocontact", "verify", "--criteria", "1", "--out-dir", str(tmp_path)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        assert exit_.value.code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verify: all 1 criteria passed"

    def test_verify_makes_no_directory(self, tmp_path, capsys):
        # verify writes no file, so it makes no --out-dir either
        argv = ["verify", "--criteria", "1", "--out-dir", str(tmp_path / "new" / "sub")]
        assert dispatch(argv) == 0
        assert "PASS criterion  1" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_one_state_system_has_a_positive_zero_entropy(self, tmp_path, capsys):
        system = tmp_path / "one.json"
        system.write_text('{"labels": ["a"], "weights": [1], "v_int": [1], "v_bar": [[1]]}')
        out = tmp_path / "out"
        argv = ["gibbs", "--system", str(system), "--T", "1", "--q", "0.3"]
        assert dispatch([*argv, "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.split()[-1] == "S=0"
        assert json.loads((out / "gibbs_point.json").read_text())["S"] == 0.0
        assert '"S": 0.0,' in (out / "gibbs_point.json").read_text()

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert dispatch([]) == 1

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0


def _counting(calls: collections.Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "argv, computed",
    [
        (["chord", "gas", "--config", "{cfg}"], ("gas_chord", "difference_front")),
        (["chord", "cw", "--config", "{cfg}", "--grid", "16"], ("cw_chord", "difference_front")),
        (
            ["stirling", "--t-cold", "1", "--t-hot", "5", "--v-min", "1.5", "--v-max", "2"],
            ("stirling_cycle",),
        ),
    ],
)
def test_one_parser_and_one_computation_per_run(tmp_path, monkeypatch, argv, computed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t0": 1, "t1": 5, "c": 2}))
    calls = collections.Counter()
    for name in ("build_parser", *computed):
        monkeypatch.setattr(cli, name, _counting(calls, name, getattr(cli, name)))
    argv = [a.replace("{cfg}", str(cfg)) for a in argv]
    assert dispatch([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == collections.Counter(["build_parser", *computed])


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


_CONFIG = {"t0": 1, "t1": 5, "c": 2, "grid": 5, "format": "json", "q_lo": -3}


@pytest.mark.parametrize(
    "runs",
    [
        # a usage error, then a valid run
        [["chord", "gas", "--t0", "x"], ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2"]],
        # help, then a run
        [["--help"], ["stirling", "--t-cold", "1", "--t-hot", "5", "--v-min", "1.5",
                      "--v-max", "2", "--n-samples", "5"]],
        # a config run, then the same subcommand without one: no value leaks
        [["chord", "gas", "--config", "{cfg}"],
         ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2"]],
        # two subcommands back to back
        [["chord", "cw", "--t0", "2", "--t1", "3", "--c", "1", "--grid", "7"],
         ["stirling", "--t-cold", "1", "--t-hot", "5", "--v-min", "1.5", "--v-max", "2",
          "--n-samples", "5"]],
    ],
)
def test_dispatch_in_a_row_matches_fresh_processes(tmp_path, monkeypatch, capsys, runs):
    # the parser is built once per process; each run after the first in one
    # process must give the exit status, stdout, stderr and files of a run
    # in a fresh one
    monkeypatch.setenv("COLUMNS", "80")  # help text width, in both
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONFIG))
    out = tmp_path / "out"
    argvs = [
        [a.replace("{cfg}", str(cfg)) for a in argv] + [f"--out-dir={out / str(i)}"]
        for i, argv in enumerate(runs)
    ]
    fresh = []
    for argv in argvs:
        proc = _cli_process(argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    fresh_files = _files(out)
    shutil.rmtree(out)
    in_row = []
    for argv in argvs:
        code = dispatch(argv)
        captured = capsys.readouterr()
        in_row.append((code, captured.out, captured.err))
    assert in_row == fresh
    assert _files(out) == fresh_files
    assert build_parser() is build_parser()


def test_relax_without_a_gap_estimate_writes_strict_json(tmp_path):
    # a run of one step has no tail to fit: the estimate is null, not NaN
    system = tmp_path / "s.json"
    system.write_text('{"labels":["a","b"],"weights":[1,1],"v_int":[0,0.5],"v_bar":[[1,-1]]}')
    argv = ["relax", "--system", str(system), "--q", "0", "--T0", "1", "--t-end", "1e-320"]
    assert dispatch([*argv, "--out-dir", str(tmp_path / "out")]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    manifest = json.loads(
        (tmp_path / "out" / "relax_manifest.json").read_text(), parse_constant=reject
    )
    assert manifest["spectral_gap_estimate"] is None


def test_non_finite_json_is_a_numerical_failure():
    with pytest.raises(FloatingPointError, match="cannot write JSON"):
        cli._json({"x": math.nan})


def test_gas_chord_without_a_finder_chord_fails(tmp_path, capsys):
    # the scan window reaches subnormal q, where both gas slopes overflow
    # and the finder brackets nothing
    argv = ["chord", "gas", "--t0", "1", "--t1", "4.5", "--c", "2.2e-308"]
    out = tmp_path / "out"
    assert dispatch([*argv, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("failure: the finder found no gas chord in its scan window [")
    assert not out.exists()
