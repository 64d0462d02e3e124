"""Each documented FloatingPointError of the library is raised, with its
message, at an input whose values doubles cannot hold."""

import numpy as np
import pytest

from thermocontact import (
    AffineHamiltonian,
    IdealGasParams,
    MicrostateSpace,
    SampledPath,
    Schedule,
    check_path_nonnegative,
    cw_chord,
    fokker_planck_relax,
    gibbs,
    lift_to_extended,
    sample_gas_legendrian,
    uniform_density,
)

SP2 = MicrostateSpace(("a", "b"), [1.0, 1.0])
SP7 = MicrostateSpace(tuple("abcdefg"), np.ones(7))
HUGE = 1.7e308


def _relax_to_a_huge_last_temperature():
    # the schedule stays at T = 1 until the last node, t = 1
    h = AffineHamiltonian(np.zeros(7), np.zeros((1, 7)))
    return fokker_planck_relax(
        SP7, h, [0.0], lambda t: 1.0 if t < 0.999 else 1e308, uniform_density(SP7), 0.01, 1.0
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gibbs(SP2, AffineHamiltonian([-1, 0], [[0, 0]]), 1e-310, [0]),
         "the Gibbs density at T=1e-310, q=[0.0] is beyond double precision "
         "(log Z = inf, mass nan)"),
        (lambda: lift_to_extended(SP2, AffineHamiltonian([0, 0], [[2, 2]]), 1, [1e308], [.5, .5]),
         "the lift at T=1.0, q=[1e+308] is beyond double precision (z = -inf, p = [-2.0])"),
        (lambda: sample_gas_legendrian(IdealGasParams(T=1e308), [-1e-10]),
         "the gas front at T=1e+308, q - P_back=-1e-10 is beyond double precision"),
        (lambda: cw_chord(1e-308, 2e-308, 1, 1),
         "the magnet chord at t0=1e-308, t1=2e-308, c=1.0, b=1.0 is beyond double precision"),
        (lambda: check_path_nonnegative(
            SampledPath([0.0, 1.0, 2.0], [-HUGE, HUGE, -HUGE], np.zeros((3, 1)), np.zeros((3, 1)))
        ),
         "the contact form along the path overflows doubles at sample 0 (t=0.0)"),
        (lambda: Schedule.linear(3, 1, 2, -HUGE, HUGE),
         "the background ramp from -1.7e+308 to 1.7e+308 is beyond double precision"),
        (_relax_to_a_huge_last_temperature,
         "the free energy at T=1e+308, q=[0.0] is beyond double precision (node 100)"),
    ],
    ids=["gibbs", "lift", "gas_front", "cw_chord", "path_form", "schedule", "relax_last_node"],
)
def test_raises_beyond_double_precision(call, message):
    with pytest.raises(FloatingPointError) as info:
        call()
    assert str(info.value) == message
