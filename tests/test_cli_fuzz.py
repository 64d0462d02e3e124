"""Every CLI run gives its documented result or one line, and a failed run
writes nothing.

``dispatch`` runs in-process on argv drawn from a grammar that mixes valid
flag values with broken ones: 0, negatives, subnormals, +-1e308, nan/inf
text and non-numbers.  Tier-1 turns any ``RuntimeWarning`` into an error,
so a numpy warning on the way fails the property too.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermocontact.cli import dispatch

# the input files of a run, by the name that stands for them in a flag value
INPUTS = {
    "system": '{"labels":["a","b","c"],"weights":[1,2,1],"v_int":[0,0.5,0.5],"v_bar":[[1,-1,1]]}',
    "ext": "t,z,S,T,p_1,p_2,q_1,q_2\n0,0,0.5,1,0.5,0,0,1\n1,4,0.75,1.5,0.25,0,0.1,0\n",
    "red": "t,z,p_1,q_1\n0,0,1,0\n1,1,1,0\n",
    "rho": "rho_1,rho_2,rho_3\n0.5,0.125,0.25\n",
    "empty": "",
    "short": "t,z,S,T,p_1,q_1\n0,0,1,1,0.5,0\n1,1,1\n",
    "cell": "rho_1,rho_2,rho_3\n0.5,x,0.25\n",
}

EDGES = ["0", "-1", "1e-320", "5e-324", "1e308", "-1e308", "nan", "inf", "-inf", "x", ""]
NUMBER = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.sampled_from(["0.5", "1", "2", "3.3", "-0.3"]),
    st.sampled_from(EDGES),
)
# small counts only, so that each run stays fast
COUNT = st.sampled_from(["0", "1", "2", "3", "5", "9", "-1", "2.5", "1e308", "x"])
POSITIVE = st.one_of(st.floats(0.05, 5.0).map(repr), st.sampled_from(EDGES))
Q = st.one_of(NUMBER, st.sampled_from(["0.3,0.4", "0.3,", ",", "0.3,nan"]))

# flag -> value strategy, per subcommand; {system}, {ext}, ... name the
# input files of the run
FLAGS = {
    "chord": {
        "t0": POSITIVE, "t1": POSITIVE, "c": NUMBER, "b": NUMBER,
        "grid-n": st.sampled_from(["3", "16", "401", "2", "-1", "x"]), "grid": COUNT,
        "q-lo": NUMBER, "q-hi": NUMBER, "p-lo": NUMBER, "p-hi": NUMBER, "span": NUMBER,
        "format": st.sampled_from(["csv", "json", "xml"]),
    },
    "gibbs": {
        "system": st.sampled_from(["{system}", "{ext}", "{empty}", "missing.json"]),
        "T": POSITIVE, "q": Q,
    },
    "relax": {
        "system": st.sampled_from(["{system}", "missing.json"]),
        "q": Q, "T0": POSITIVE, "T1": POSITIVE, "ramp": NUMBER,
        "t-end": st.sampled_from(["0.1", "0.5", "1", "0", "-1", "1e-320", "nan", "x"]),
        "dt0": st.one_of(st.sampled_from(["0.01", "0.1"]), st.sampled_from(EDGES)),
        "rho0": st.sampled_from(["uniform", "{rho}", "{ext}", "{empty}", "{cell}", "missing.csv"]),
    },
    "isotopy": {
        "T0": POSITIVE, "T1": POSITIVE, "bg0": NUMBER, "bg1": NUMBER, "n-times": COUNT,
        "x-lo": NUMBER, "x-hi": NUMBER, "n-x": COUNT, "b": NUMBER, "slack": NUMBER,
    },
    "stirling": {
        "t-cold": POSITIVE, "t-hot": POSITIVE, "v-min": POSITIVE, "v-max": POSITIVE,
        "n-samples": COUNT,
    },
    "reduce": {
        "input": st.sampled_from(["{ext}", "{red}", "{empty}", "{short}", "missing.csv"]),
        "k": COUNT, "T0": NUMBER,
        "frozen": st.sampled_from(["2", "2=0", "2=0.5", "1", "=5", "2=x", "0", "x", ""]),
        "zeroed": st.sampled_from(["2", "1", "0", "1,2", "x", ""]),
        "tol": NUMBER, "slack": NUMBER,
    },
    # criteria 1, 2 and 8 are the quick ones
    "verify": {
        "criteria": st.sampled_from(
            ["1", "2", "8", "1,2,8", "0", "11", "-1", "1.5", "x", "nan", "1,99", ","]
        ),
    },
}
MODELS = {"chord": ["gas", "cw"], "isotopy": ["gas", "cw"]}
# the flags a run needs; a drawn run may still leave one out
REQUIRED = {
    "chord": ["t0", "t1", "c"],
    "gibbs": ["system", "T", "q"],
    "relax": ["system", "q", "T0"],
    "isotopy": ["T0", "T1", "x-lo", "x-hi", "b"],
    "stirling": ["t-cold", "t-hot", "v-min", "v-max"],
    "reduce": ["input", "k"],
    "verify": [],
}


@st.composite
def runs(draw):
    """A subcommand, its positional model (if any), its flags, and whether
    they go in a config file and there as JSON numbers where they read as
    numbers."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    model = [draw(st.sampled_from(MODELS[command]))] if command in MODELS else []
    required = REQUIRED[command]
    left_out = draw(st.one_of(st.none(), st.sampled_from(required))) if required else None
    optional = sorted(set(FLAGS[command]) - set(required))
    names = [n for n in required if n != left_out]
    if optional:
        names += draw(st.lists(st.sampled_from(optional), unique=True))
    flags = {name: draw(FLAGS[command][name]) for name in names}
    return command, model, flags, draw(st.sampled_from(["flags", "text", "numbers"]))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_inputs")
    for name, text in INPUTS.items():
        (root / name).write_text(text)
    return {name: root / name for name in INPUTS}


def _json_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(run=runs())
def test_every_run_ends_in_its_result_or_one_line(inputs, run):
    command, model, flags, way = run
    flags = {k: v.format(**inputs) for k, v in flags.items()}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, *model, f"--out-dir={out}"]
        if way == "flags":
            argv += [f"--{k}={v}" for k, v in flags.items()]
        else:
            as_json = _json_value if way == "numbers" else str
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({k.replace("-", "_"): as_json(v) for k, v in flags.items()}))
            argv.append(f"--config={config}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dispatch(argv)
        assert code in (0, 1, 2), argv
        if code:
            lines = stderr.getvalue().splitlines()
            ends = [s for s in lines if "error:" in s or s.startswith("failure:")]
            assert len(ends) == 1, (argv, lines)
            # values show as Python floats, not as numpy scalar reprs
            assert "np." not in ends[0], (argv, ends)
            assert not out.exists(), argv
