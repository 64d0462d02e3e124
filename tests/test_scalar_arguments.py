"""Every public function and constructor reads its scalar arguments by one rule.

A scalar argument (a temperature, a tolerance, a slack, a count, an end of
a window) must be a real number that is not a bool, finite, an integer
where it counts something, and inside its bound.  Any other value raises a
ValueError that names the argument.  The property below also lets a
FloatingPointError pass, the library's error for numbers beyond double
precision, but never a result or another exception type.  A second
property passes each scalar as a float, a numpy scalar and, where it is
integral, an int, and wants the same outcome from all three.
"""

import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import thermocontact
from thermocontact import (
    AffineHamiltonian,
    Chord,
    CurieWeissParams,
    IdealGasParams,
    MicrostateSpace,
    ReductionSpec,
    SampledPath,
    Schedule,
    check_path_nonnegative,
    constant_front,
    cw_chord,
    cw_coupling_derivatives,
    cw_dz_dT,
    cw_entropy,
    cw_entropy_y,
    cw_from_barred,
    cw_magnetization_roots,
    cw_to_barred,
    difference_front,
    find_chords,
    fokker_planck_relax,
    free_energy,
    gas_chord,
    gas_from_barred,
    gas_to_barred,
    gibbs,
    lift_to_extended,
    run_slow_isotopy,
    stirling_cycle,
    ultrafast_jump,
)
from thermocontact.chords import MAX_GRID_NODES
from thermocontact.processes import MAX_RELAX_STEPS

SP = MicrostateSpace(("s0", "s1"), [1.0, 1.0])
H = AffineHamiltonian([0.0, 1.0], [[1.0, -1.0]])
RHO = [0.5, 0.5]
T_GRID = np.linspace(0.0, 1.0, 5)
PATH = SampledPath(T_GRID, 1.0 + T_GRID, np.full(5, 2.0), np.full(5, -0.5))
CW_FRONT = difference_front("cw", 2.0, 3.0, 1.0)
SCHEDULE = Schedule.linear(3, 2.0, 2.5)

# Strategies of forbidden values.  NO_SCALAR: what no scalar argument
# takes.  REAL: what a real argument does not take, an int beyond doubles too.
NO_SCALAR = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
) | st.sampled_from([True, False, np.True_, np.False_, "1.0"])
REAL = NO_SCALAR | st.just(10**400)
FINITE = {"allow_nan": False, "allow_infinity": False}
POSITIVE = REAL | st.floats(max_value=0.0, **FINITE)
NON_NEGATIVE = REAL | st.floats(max_value=0.0, exclude_max=True, **FINITE)


def inside(lo: float, hi: float):
    """Values outside the open interval (lo, hi)."""
    return REAL | st.floats(max_value=lo, **FINITE) | st.floats(min_value=hi, **FINITE)


def count(at_least: int, at_most: int | None = None):
    """Values that are not a count from at_least to at_most: every float
    (a count is an int), and the ints past either end."""
    bad = NO_SCALAR | st.floats() | st.integers(max_value=at_least - 1)
    return bad if at_most is None else bad | st.integers(min_value=at_most + 1)


# Each public function or constructor with scalar arguments: a call that
# takes those scalars as keywords, and for each scalar a valid value and a
# strategy of values its rule forbids.
CALLS = {
    "CurieWeissParams": (
        CurieWeissParams, {"T": (1.0, POSITIVE), "H_back": (0.0, REAL), "b": (1.0, POSITIVE)}
    ),
    "IdealGasParams": (IdealGasParams, {"T": (1.0, POSITIVE), "P_back": (0.0, REAL)}),
    "ReductionSpec": (
        lambda k, tol, T0, key, pin, zeroed: ReductionSpec(
            k, {key: pin}, (zeroed,), T0=T0, tol=tol
        ),
        {
            "k": (1, count(1)),
            "tol": (1e-9, NON_NEGATIVE),
            "T0": (1.0, REAL),
            "key": (1, count(0)),
            "pin": (0.5, REAL),
            "zeroed": (2, count(0)),
        },
    ),
    "Schedule": (
        Schedule.linear,
        {
            "n_nodes": (3, count(2)),
            "T_start": (1.0, POSITIVE),
            "T_end": (2.0, POSITIVE),
            "bg_start": (0.0, REAL),
            "bg_end": (1.0, REAL),
        },
    ),
    "Chord": (
        Chord, {"q": (0.0, REAL), "p": (1.0, REAL), "z_start": (0.0, REAL), "z_end": (1.0, REAL)}
    ),
    "check_path_nonnegative": (
        lambda slack: check_path_nonnegative(PATH, slack), {"slack": (1e-9, NON_NEGATIVE)}
    ),
    "constant_front": (constant_front, {"value": (0.0, REAL)}),
    "cw_chord": (
        cw_chord,
        {"t0": (2.0, POSITIVE), "t1": (3.0, REAL), "c": (1.0, REAL), "b": (1.0, POSITIVE)},
    ),
    "cw_coupling_derivatives": (
        cw_coupling_derivatives,
        {"p": (0.5, inside(0.0, 1.0)), "T": (1.0, POSITIVE), "q": (0.1, REAL)},
    ),
    "cw_dz_dT": (
        cw_dz_dT,
        {
            "p": (0.5, inside(-1.0, 1.0)),
            "q": (0.1, REAL),
            "T": (1.0, POSITIVE),
            "b": (1.0, POSITIVE),
        },
    ),
    "cw_entropy": (cw_entropy, {"p": (0.5, inside(-1.0, 1.0))}),
    "cw_entropy_y": (cw_entropy_y, {"y": (0.5, REAL)}),
    "cw_from_barred": (
        lambda t0, b: cw_from_barred(0.0, 0.1, 0.2, t0, b),
        {"t0": (1.0, POSITIVE), "b": (1.0, POSITIVE)},
    ),
    "cw_magnetization_roots": (
        lambda q: cw_magnetization_roots(q, CurieWeissParams(T=1.0, b=1.0)), {"q": (0.1, REAL)}
    ),
    "cw_to_barred": (
        lambda t0, b: cw_to_barred(0.0, 0.1, 0.2, t0, b),
        {"t0": (1.0, POSITIVE), "b": (1.0, POSITIVE)},
    ),
    "difference_front": (
        lambda t0, t1, c: difference_front("cw", t0, t1, c),
        {"t0": (2.0, POSITIVE), "t1": (3.0, REAL), "c": (1.0, REAL)},
    ),
    "find_chords": (
        lambda scan_lo, scan_hi, grid_n: find_chords(
            constant_front(), CW_FRONT, scan_lo, scan_hi, grid_n
        ),
        {
            "scan_lo": (-20.0, REAL),
            "scan_hi": (20.0, REAL),
            "grid_n": (401, count(3, MAX_GRID_NODES)),
        },
    ),
    "fokker_planck_relax": (
        lambda dt0, t_end: fokker_planck_relax(SP, H, [0.0], lambda t: 1.0, RHO, dt0, t_end),
        {"dt0": (0.1, POSITIVE), "t_end": (0.5, POSITIVE)},
    ),
    "free_energy": (lambda T: free_energy(SP, H, T, [0.0], RHO), {"T": (1.0, POSITIVE)}),
    "gas_chord": (
        gas_chord, {"t0": (1.0, POSITIVE), "t1": (5.0, REAL), "c": (2.0, POSITIVE)}
    ),
    "gas_from_barred": (lambda t0: gas_from_barred(0.0, 1.0, -1.0, t0), {"t0": (1.0, POSITIVE)}),
    "gas_to_barred": (lambda t0: gas_to_barred(0.0, 1.0, -1.0, t0), {"t0": (1.0, POSITIVE)}),
    "gibbs": (lambda T: gibbs(SP, H, T, [0.0]), {"T": (1.0, POSITIVE)}),
    "lift_to_extended": (
        lambda T: lift_to_extended(SP, H, T, [0.0], RHO), {"T": (1.0, POSITIVE)}
    ),
    "run_slow_isotopy": (
        lambda b, slack: run_slow_isotopy("cw", SCHEDULE, [0.0], b=b, slack=slack),
        {"b": (1.0, POSITIVE), "slack": (1e-8, NON_NEGATIVE)},
    ),
    # the gas takes no b, but one that is given is read and stored
    "run_slow_isotopy gas": (
        lambda b: run_slow_isotopy("gas", SCHEDULE, [-1.0], b=b), {"b": (1.0, POSITIVE)}
    ),
    "stirling_cycle": (
        stirling_cycle,
        {
            "T_C": (1.0, POSITIVE),
            "T_H": (5.0, REAL),
            "v_min": (1.5, POSITIVE),
            "v_max": (2.0, REAL),
            "n_samples": (5, count(2)),
        },
    ),
    "ultrafast_jump": (
        lambda T0, T1: ultrafast_jump(SP, H, T0, T1, [0.0], [0.0]),
        {"T0": (1.0, POSITIVE), "T1": (2.0, POSITIVE)},
    ),
}

# The other public functions and constructors, and why the rule has no
# scalar of theirs to read
NO_SCALARS = {
    **dict.fromkeys(
        ["CWBranchPoint", "CycleSegment", "GibbsResult", "IsotopyTrace", "JumpRecord",
         "NonnegReport", "RelaxTrace", "StirlingCycleTrace"],
        "a record of results that the library builds",
    ),
    **dict.fromkeys(
        ["AffineHamiltonian", "MicrostateSpace", "SampledPath", "entropy", "internal_energy",
         "normalized_density", "pressures", "total_variation", "uniform_density",
         "sample_cw_legendrian", "sample_gas_legendrian", "admissibility_decrement",
         "irreversible_entropy_rate", "reduce", "gas_front", "select_equilibrium"],
        "takes arrays, densities, systems, paths, parameter records or branch points",
    ),
    **dict.fromkeys(
        ["chords_to_csv", "chords_to_json", "densities_from_csv", "densities_to_csv",
         "load_system", "save_system", "path_from_csv", "path_to_csv"],
        "reads or writes a file",
    ),
    "FrontFunction": "takes callables and a domain whose ends may be infinite",
    "lift_rows": "its T is one temperature per row, an array argument",
}


def _valid(name: str) -> dict:
    return {arg: valid for arg, (valid, _) in CALLS[name][1].items()}


def test_every_public_callable_is_listed_once():
    # the package's public names, but its submodules and exception types;
    # a CALLS key is a public name, or one followed by a word for a second call
    public = {
        name
        for name, obj in vars(thermocontact).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    called = {name.split()[0] for name in CALLS}
    assert not called & set(NO_SCALARS)
    assert called | set(NO_SCALARS) == public


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_valid_call_runs(name):
    CALLS[name][0](**_valid(name))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_forbidden_scalar_is_rejected(data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="callable")
    call, scalars = CALLS[name]
    arg = data.draw(st.sampled_from(sorted(scalars)), label="argument")
    bad = data.draw(scalars[arg][1], label="value")
    with pytest.raises((ValueError, FloatingPointError)):
        call(**{**_valid(name), arg: bad})


@pytest.mark.parametrize(
    "name, arg, value, message",
    [
        ("ReductionSpec", "tol", math.nan, "tol must be finite, got nan"),
        ("ReductionSpec", "T0", math.nan, "T0 must be finite, got nan"),
        ("ReductionSpec", "pin", math.nan, "frozen_q[1] must be finite, got nan"),
        ("ReductionSpec", "k", 1.5, "k must be an integer, got 1.5"),
        ("ReductionSpec", "k", True, "k must be an integer, got True"),
        ("check_path_nonnegative", "slack", math.nan, "slack must be finite, got nan"),
        ("check_path_nonnegative", "slack", math.inf, "slack must be finite, got inf"),
        ("gibbs", "T", math.inf, "temperature must be finite, got inf"),
        ("gibbs", "T", True, "temperature must be a number, got True"),
        ("IdealGasParams", "T", math.inf, "temperature must be finite, got inf"),
        ("IdealGasParams", "P_back", math.nan, "P_back must be finite, got nan"),
        ("IdealGasParams", "T", 10**400, "temperature must be finite, got inf"),
        ("CurieWeissParams", "T", math.inf, "temperature must be finite, got inf"),
        ("stirling_cycle", "n_samples", 2.5, "n_samples must be an integer, got 2.5"),
        ("cw_entropy", "p", -1.0, "magnetization must lie in (-1, 1), got -1.0"),
        ("cw_coupling_derivatives", "p", 1.0, "magnetization must lie in (0, 1), got 1.0"),
        ("ReductionSpec", "k", 0, "k must be at least 1"),
        ("ReductionSpec", "zeroed", 1.0, "zeroed_p index must be an integer, got 1.0"),
        ("ReductionSpec", "zeroed", "a", "zeroed_p index must be an integer, got 'a'"),
        ("ReductionSpec", "key", -1, "frozen_q index must be non-negative"),
        ("run_slow_isotopy gas", "b", "x", "spin interaction b must be a number, got 'x'"),
        ("run_slow_isotopy gas", "b", math.nan, "spin interaction b must be finite, got nan"),
        ("Chord", "q", math.nan, "q must be finite, got nan"),
        ("Chord", "z_end", math.inf, "z_end must be finite, got inf"),
    ],
)
def test_the_rejection_names_the_argument(name, arg, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CALLS[name][0](**{**_valid(name), arg: value})


def _spellings(value) -> list:
    """The ways a caller may pass a scalar: an int and np.int64 for a
    count; a float, np.float64 and, where it holds the same bits, an int
    for a real (so not -0.0)."""
    if isinstance(value, int):
        return [value, np.int64(value)]
    out = [value, np.float64(value)]
    if value.is_integer() and float(int(value)).hex() == value.hex():
        out.append(int(value))
    return out


def _outcome(call, kwargs):
    """The result of the call, or the type and message of what it raised;
    a RuntimeWarning is raised too."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return call(**kwargs)
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _same(a, b) -> bool:
    """Equal, field by field, with the same types and bits; a function is
    compared by its code and the values it closes over."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (
            b.dtype, b.shape, b.tobytes(), b.flags.writeable
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if inspect.isfunction(a):
        cells = [[c.cell_contents for c in f.__closure__ or ()] for f in (a, b)]
        return a.__code__ is b.__code__ and _same(*cells)
    return a == b


def _check_spellings(call, values: dict) -> None:
    """Call with every scalar spelt each way, and want one outcome."""
    spelt = {arg: _spellings(value) for arg, value in values.items()}
    first = _outcome(call, {arg: ways[0] for arg, ways in spelt.items()})
    for way in (1, 2):
        kwargs = {arg: ways[min(way, len(ways) - 1)] for arg, ways in spelt.items()}
        assert _same(_outcome(call, kwargs), first), (kwargs, first)


# a value for a real argument: its valid one or any finite float; for a
# count: its valid one or a small int, so that each call stays quick
def _values(valid):
    if isinstance(valid, int):
        return st.just(valid) | st.integers(-1, 40)
    return st.just(valid) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_outcome_does_not_depend_on_how_a_scalar_is_spelt(data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="callable")
    call, scalars = CALLS[name]
    values = {arg: data.draw(_values(valid), label=arg) for arg, (valid, _) in scalars.items()}
    if name == "fokker_planck_relax" and values["dt0"] > 0 and values["t_end"] > 0:
        # keep a run to ~100 steps, which never exceed dt0 (nor ~2 on this
        # system), or to none, past MAX_RELAX_STEPS * dt0
        dt0, t_end = values["dt0"], values["t_end"]
        assume(t_end <= 100 * min(dt0, 1.0) or t_end > MAX_RELAX_STEPS * dt0)
    _check_spellings(call, values)


# T_H / v_min overflows: as np.float64 that ratio warns, as a Python float
# it is inf, which the cycle names in its FloatingPointError
def test_an_overflowing_cycle_is_spelt_alike():
    values = {"T_C": 12387247.647497935, "T_H": 1.8976573441440942e+270,
              "v_min": 3.131609715724274e-214, "v_max": 1.5476340718728332e+269, "n_samples": 5}
    _check_spellings(stirling_cycle, values)
