"""Every public function and constructor reads its array arguments by one rule.

An array argument (a system's weights or energies, a density, the
intensive values q, a schedule, a path's columns, a grid, the barred
maps' coordinates) must hold real numbers that are not bools, have
exactly the number of dimensions it takes, and be finite in every entry;
an int beyond doubles counts as infinite.  Any other value raises a
ValueError whose message starts with the name the argument goes by and,
for a bad entry, gives the first row that holds one and its index.  The
property below puts one forbidden entry into one array argument, or nests
the array one level deeper, and wants that error.
"""

import copy
import inspect
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermocontact
from thermocontact import (
    AffineHamiltonian,
    CurieWeissParams,
    IdealGasParams,
    MicrostateSpace,
    SampledPath,
    Schedule,
    cw_from_barred,
    cw_to_barred,
    densities_to_csv,
    entropy,
    fokker_planck_relax,
    free_energy,
    gas_from_barred,
    gas_to_barred,
    gibbs,
    internal_energy,
    lift_rows,
    lift_to_extended,
    normalized_density,
    pressures,
    run_slow_isotopy,
    sample_cw_legendrian,
    sample_gas_legendrian,
    total_variation,
    ultrafast_jump,
)

SP = MicrostateSpace(("s0", "s1"), [1.0, 1.0])
H = AffineHamiltonian([0.0, 1.0], [[1.0, -1.0]])
RHO = [0.5, 0.5]
SCHEDULE = Schedule.linear(3, 2.0, 2.5)

# Each public function or constructor with array arguments: a call that
# takes those arrays as keywords, and for each array a valid value (nested
# lists) and the name its messages give it.
CALLS = {
    "AffineHamiltonian": (
        AffineHamiltonian,
        {"v_int": ([0.0, 1.0], "v_int"), "v_bar": ([[1.0, -1.0], [0.5, 0.0]], "v_bar")},
    ),
    "MicrostateSpace": (
        lambda weights: MicrostateSpace(("a", "b"), weights), {"weights": ([1.0, 2.0], "weights")}
    ),
    "SampledPath": (
        SampledPath,
        {
            "times": ([0.0, 0.5, 1.0], "times"),
            "z": ([1.0, 1.5, 2.0], "z"),
            "p": ([[2.0, 0.1], [2.0, 0.2], [2.0, 0.3]], "p"),
            "q": ([[-0.5, 0.0], [-0.5, 0.1], [-0.5, 0.2]], "q"),
            "S": ([0.5, 0.5, 0.5], "S"),
            "T": ([1.0, 1.0, 1.0], "T"),
        },
    ),
    "Schedule": (
        Schedule,
        {
            "times": ([0.0, 0.5, 1.0], "times"),
            "temperatures": ([1.0, 1.5, 2.0], "temperatures"),
            "backgrounds": ([0.0, 0.0, 0.1], "backgrounds"),
        },
    ),
    "cw_from_barred": (
        lambda Z, P, Q: cw_from_barred(Z, P, Q, 1.0, 1.0),
        {"Z": ([0.0, 0.1], "Z"), "P": ([0.1, 0.2], "P"), "Q": ([0.2, 0.3], "Q")},
    ),
    "cw_to_barred": (
        lambda z, p, q: cw_to_barred(z, p, q, 1.0, 1.0),
        {"z": ([0.0, 0.1], "z"), "p": ([0.1, 0.2], "p"), "q": ([0.2, 0.3], "q")},
    ),
    "densities_to_csv": (
        lambda densities: densities_to_csv(densities, io.StringIO()),
        {"densities": ([RHO, [0.9, 0.1]], "densities")},
    ),
    "entropy": (lambda rho: entropy(SP, rho), {"rho": (RHO, "density")}),
    "fokker_planck_relax": (
        lambda q, rho0: fokker_planck_relax(SP, H, q, lambda t: 1.0, rho0, 0.1, 0.5),
        {"q": ([0.0], "q"), "rho0": (RHO, "density")},
    ),
    "free_energy": (
        lambda q, rho: free_energy(SP, H, 1.0, q, rho),
        {"q": ([0.0], "q"), "rho": (RHO, "density")},
    ),
    "gas_from_barred": (
        lambda z, p, q: gas_from_barred(z, p, q, 1.0),
        {"z": ([0.0, 0.1], "z"), "p": ([1.0, 2.0], "p"), "q": ([-1.0, -2.0], "q")},
    ),
    "gas_to_barred": (
        lambda z, p, q: gas_to_barred(z, p, q, 1.0),
        {"z": ([0.0, 0.1], "z"), "p": ([1.0, 2.0], "p"), "q": ([-1.0, -2.0], "q")},
    ),
    "gibbs": (lambda q: gibbs(SP, H, 1.0, q), {"q": ([0.0], "q")}),
    "internal_energy": (lambda rho: internal_energy(SP, H, rho), {"rho": (RHO, "density")}),
    "lift_rows": (
        lambda T, q, rho: lift_rows(SP, H, T, q, rho),
        {
            "T": ([1.0, 2.0], "temperatures"),
            "q": ([0.0], "q"),
            "rho": ([RHO, [0.9, 0.1]], "densities"),
        },
    ),
    "lift_to_extended": (
        lambda q, rho: lift_to_extended(SP, H, 1.0, q, rho),
        {"q": ([0.0], "q"), "rho": (RHO, "density")},
    ),
    "normalized_density": (
        lambda values: normalized_density(SP, values), {"values": ([1.0, 3.0], "density values")}
    ),
    "pressures": (lambda rho: pressures(SP, H, rho), {"rho": (RHO, "density")}),
    "run_slow_isotopy": (
        lambda x_grid: run_slow_isotopy("gas", SCHEDULE, x_grid),
        {"x_grid": ([-1.0, -0.5], "x_grid")},
    ),
    "sample_cw_legendrian": (
        lambda p_grid: sample_cw_legendrian(CurieWeissParams(T=1.0), p_grid),
        {"p_grid": ([-0.5, 0.5], "p_grid")},
    ),
    "sample_gas_legendrian": (
        lambda q_grid: sample_gas_legendrian(IdealGasParams(T=1.0), q_grid),
        {"q_grid": ([-2.0, -1.0], "q_grid")},
    ),
    "total_variation": (
        lambda a, b: total_variation(SP, a, b), {"a": (RHO, "density"), "b": (RHO, "density")}
    ),
    "ultrafast_jump": (
        lambda q, background_jump: ultrafast_jump(SP, H, 1.0, 2.0, q, background_jump),
        {"q": ([0.0], "q"), "background_jump": ([0.1], "background_jump")},
    ),
}

# The other public functions and constructors, and why the rule has no
# array of theirs to read
NO_ARRAYS = {
    **dict.fromkeys(
        ["CWBranchPoint", "CycleSegment", "GibbsResult", "IsotopyTrace", "JumpRecord",
         "NonnegReport", "RelaxTrace", "StirlingCycleTrace"],
        "a record of results that the library builds",
    ),
    **dict.fromkeys(
        ["Chord", "CurieWeissParams", "IdealGasParams", "ReductionSpec", "constant_front",
         "cw_chord", "cw_coupling_derivatives", "cw_dz_dT", "cw_entropy", "cw_entropy_y",
         "cw_magnetization_roots", "difference_front", "find_chords", "gas_chord",
         "stirling_cycle"],
        "takes scalars, which tests/test_scalar_arguments.py covers, and fronts",
    ),
    **dict.fromkeys(
        ["admissibility_decrement", "check_path_nonnegative", "irreversible_entropy_rate",
         "reduce", "gas_front", "select_equilibrium", "uniform_density"],
        "takes paths, systems, parameter records or branch points, whose arrays are read",
    ),
    **dict.fromkeys(
        ["chords_to_csv", "chords_to_json", "densities_from_csv", "load_system", "save_system",
         "path_from_csv", "path_to_csv"],
        "reads or writes a file (a system document's lists go to the constructors)",
    ),
    "FrontFunction": "a front is evaluated over a grid of any shape",
}

# what no entry of an array argument may be
BAD_ENTRIES = [math.nan, math.inf, -math.inf, True, False, np.True_, "1.0", None, {}, 10**400]


def _valid(name: str) -> dict:
    return {arg: valid for arg, (valid, _) in CALLS[name][1].items()}


def test_every_public_callable_is_listed_once():
    # the package's public names, but its submodules and exception types
    public = {
        name
        for name, obj in vars(thermocontact).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert not set(CALLS) & set(NO_ARRAYS)
    assert set(CALLS) | set(NO_ARRAYS) == public


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_valid_call_runs(name):
    CALLS[name][0](**_valid(name))


def _with_entry(value: list, index: tuple, entry) -> list:
    """A copy of the nested list ``value`` with ``entry`` at ``index``."""
    out = copy.deepcopy(value)
    row = out
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = entry
    return out


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_forbidden_entry_is_rejected(data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="callable")
    call, arrays = CALLS[name]
    arg = data.draw(st.sampled_from(sorted(arrays)), label="argument")
    valid, label = arrays[arg]
    if data.draw(st.booleans(), label="nest"):
        bad = [valid]
    else:
        index = data.draw(st.sampled_from(list(np.ndindex(np.shape(valid)))), label="index")
        entry = data.draw(st.sampled_from(BAD_ENTRIES), label="entry")
        bad = _with_entry(valid, index, entry)
        if isinstance(entry, float) and data.draw(st.booleans(), label="as ndarray"):
            bad = np.array(bad)
    with pytest.raises(ValueError) as info:
        call(**{**_valid(name), arg: bad})
    assert str(info.value).startswith(f"{label} "), str(info.value)


@pytest.mark.parametrize(
    "name, arg, value, message",
    [
        ("gibbs", "q", [math.nan], "q must be finite, got nan at index 0"),
        ("free_energy", "q", [-math.inf], "q must be finite, got -inf at index 0"),
        ("gas_to_barred", "q", [-1.0, math.nan], "q must be finite, got nan at index 1"),
        ("SampledPath", "p", [[2.0, 0.1], [2.0, math.nan], [2.0, 0.3]],
         "p must be finite, got [2.0, nan] at index 1"),
        ("SampledPath", "z", [{}, {}, {}], "z must be an array of numbers: got {} at index 0"),
        ("SampledPath", "p", [[2.0, 0.1], [2.0], [2.0, 0.3]],
         "p must be an array of numbers: got [2.0, 0.1] at index 0"),
        ("SampledPath", "q", [[-0.5, 0.0], [-0.5, 0.1], -0.5],
         "q must be an array of numbers: got [-0.5, 0.0] at index 0"),
        ("MicrostateSpace", "weights", ["1", "1"],
         "weights must be an array of numbers: got '1' at index 0"),
        ("MicrostateSpace", "weights", [1, True],
         "weights must be an array of numbers: got True at index 1"),
        ("MicrostateSpace", "weights", [1, 10**400], "weights must be finite, got inf at index 1"),
        ("AffineHamiltonian", "v_int", [None, 1.0],
         "v_int must be an array of numbers: got None at index 0"),
        ("AffineHamiltonian", "v_bar", [[[1.0, 1.0], [1.0, 1.0]], [[None, 1.0], [1.0, 1.0]]],
         "v_bar must be an array of numbers: got [[None, 1.0], [1.0, 1.0]] at index 1"),
        ("sample_gas_legendrian", "q_grid", [[-1.0, -2.0]],
         "q_grid must have 1 dimension(s), got shape (1, 2)"),
        ("lift_rows", "T", [1.0, math.inf], "temperatures must be finite, got inf at index 1"),
        ("Schedule", "backgrounds", np.array([0.0, math.nan, 0.0]),
         "backgrounds must be finite, got nan at index 1"),
    ],
)
def test_the_rejection_names_the_argument_and_the_entry(name, arg, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CALLS[name][0](**{**_valid(name), arg: value})


def test_a_vector_p_is_one_pair_of_the_path_length():
    with pytest.raises(ValueError, match=r"^p must have shape \(2, n >= 1\), got \(3, 1\)$"):
        SampledPath([0.0, 1.0], [0.0, 1.0], [2.0, 2.0, 2.0], [0.0, 0.5])
