"""``fokker_planck_relax`` equals its old step loop (``relax_oracle``) bit
for bit: the same trace on drawn systems and on the criterion-6 runs, and
the same error with the same message where a run fails."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import relax_oracle
from thermocontact import microstate as ms
from thermocontact import processes, verify
from thermocontact.processes import IntegrationError, fokker_planck_relax

FIELDS = ("t_grid", "rho", "temperatures", "G_values", "form_values")


def assert_same_run(*args):
    """Both loops give equal traces, or raise the same error."""
    try:
        expected = relax_oracle.loop_fokker_planck_relax(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        with pytest.raises(type(exc)) as info:
            fokker_planck_relax(*args)
        assert str(info.value) == str(exc)
        return exc
    got = fokker_planck_relax(*args)
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    return got


def _ramp(T0: float, dT: float, ramp: float):
    """The CLI's schedule: T0 rising linearly by dT over [0, ramp]."""
    return lambda t: T0 + dT * min(t, ramp) / ramp if ramp > 0 else T0 + dT


@st.composite
def relax_runs(draw):
    """A system with weights 10^-3..10^3, a low starting temperature, with
    or without a ramp, a positive starting density and a step size."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 2))

    def floats(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    sp = ms.MicrostateSpace(tuple(f"s{i}" for i in range(m)), 10.0 ** floats(-3.0, 3.0, m))
    h = ms.AffineHamiltonian(floats(-1.0, 1.0, m), floats(-1.0, 1.0, n * m).reshape(n, m))
    q = floats(-1.0, 1.0, n)
    T0 = draw(st.floats(0.02, 1.0))
    dT, ramp = draw(
        st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(0.05, 2.0), st.floats(0.1, 3.0)))
    )
    rho0 = ms.normalized_density(sp, floats(0.05, 1.0, m))
    dt0 = draw(st.sampled_from([0.01, 0.05, 0.1]))
    t_end = draw(st.floats(0.1, 3.0))
    return sp, h, q, _ramp(T0, dT, ramp), rho0, dt0, t_end


# a stiff draw (low T, a small Gibbs weight) needs up to MAX_RELAX_STEPS
# steps of ~2e-5 s each; a lower cap keeps each example short and makes the
# cap's own error part of the comparison
DRAWN_CAP = 3000


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(run=relax_runs())
def test_drawn_runs_match_loop(run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "MAX_RELAX_STEPS", DRAWN_CAP)
        mp.setattr(relax_oracle, "MAX_RELAX_STEPS", DRAWN_CAP)
        event(type(assert_same_run(*run)).__name__)


def test_criterion_6_runs_match_loop(monkeypatch):
    outcomes = []

    def both(*args):
        outcomes.append(assert_same_run(*args))
        return outcomes[-1]

    monkeypatch.setattr(verify, "fokker_planck_relax", both)
    assert len(list(verify.criterion_6_runs())) == 50
    assert all(isinstance(out, processes.RelaxTrace) for out in outcomes)


def _three_states():
    sp = ms.MicrostateSpace(("a", "b", "c"), [1.0, 2.0, 1.0])
    h = ms.AffineHamiltonian([0.0, 0.5, 0.5], [[1.0, -1.0, 1.0]])
    return sp, h


@pytest.mark.parametrize(
    "q, T_of_t, dt0, t_end, error, message",
    [
        # the CLI's step-cap run: 100 000 accepted steps, then the cap
        ([0.5], _ramp(0.0365, 0.0, 0.0), 0.1, 1.0, IntegrationError, "more than 100000 steps"),
        # G overflows once the ramp has taken T past 1e308 / q
        ([1e308], _ramp(4.4, 1e308 - 4.4, 5.0), 0.01, 20.0, FloatingPointError, "the free energy"),
        ([0.0], lambda t: 2.0 - t, 0.05, 5.0, ValueError, "non-decreasing"),
        ([0.0], lambda t: 1.0 if t < 0.1 else -1.0, 0.05, 5.0, ValueError, "must be positive at"),
    ],
)
def test_failing_runs_fail_alike(q, T_of_t, dt0, t_end, error, message):
    sp, h = _three_states()
    exc = assert_same_run(sp, h, q, T_of_t, ms.uniform_density(sp), dt0, t_end)
    assert isinstance(exc, error) and message in str(exc)


def test_step_underflow_fails_alike():
    sp = ms.MicrostateSpace(("a", "b"), [1.0, 1.0])
    h = ms.AffineHamiltonian([0.0, 100.0], np.zeros((1, 2)))
    rho0 = ms.normalized_density(sp, [1.0, 1.0])
    exc = assert_same_run(sp, h, [0.0], lambda t: 1.0, rho0, 0.1, 10.0)
    assert isinstance(exc, IntegrationError) and "underflow" in str(exc)
