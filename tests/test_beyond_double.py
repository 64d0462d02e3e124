"""Each documented FloatingPointError of the library is raised, with its
message, at an input whose values doubles cannot hold."""

import numpy as np
import pytest

from thermocontact import (
    AffineHamiltonian,
    IdealGasParams,
    MicrostateSpace,
    SampledPath,
    ReductionSpec,
    Schedule,
    admissibility_decrement,
    check_path_nonnegative,
    constant_front,
    cw_chord,
    cw_coupling_derivatives,
    difference_front,
    find_chords,
    fokker_planck_relax,
    gas_chord,
    gibbs,
    irreversible_entropy_rate,
    lift_to_extended,
    sample_gas_legendrian,
    stirling_cycle,
    uniform_density,
)

SP2 = MicrostateSpace(("a", "b"), [1.0, 1.0])
SP7 = MicrostateSpace(tuple("abcdefg"), np.ones(7))
HUGE = 1.7e308
# an extended path whose z velocity overflows at samples 0 and 1, and one
# whose T velocity does
Z_JUMP = SampledPath([0, 1e-300, 1], [0, 1e308, -1e308], [1, 1, 1], [0, 0, 0], [1, 1, 1], [1, 1, 1])
T_JUMP = SampledPath([0, 1e-300, 1], [0, 1, 2], [1, 1, 1], [0, 0, 0], [1, 1, 1], [1, 1e308, 1])


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
        (lambda: irreversible_entropy_rate(Z_JUMP),
         "the contact form along the path overflows doubles at sample 0 (t=0.0)"),
        (lambda: admissibility_decrement(T_JUMP, ReductionSpec(1)),
         "the contact form along the path overflows doubles at sample 0 (t=0.0)"),
        (lambda: gas_chord(1e-300, 1e300, 1e-300),
         "the gas chord at t0=1e-300, t1=1e+300, c=1e-300 is beyond double precision"),
        (lambda: gas_chord(1e-300, 2e-300, 1e300),
         "the gas chord at t0=1e-300, t1=2e-300, c=1e+300 is beyond double precision"),
        (lambda: find_chords(
            constant_front(0.0, (-np.inf, 0.0)), difference_front("gas", 1.0, 1.7e308, 1.0),
            -1.0, -5.88235294117645e-310, 401,
        ),
         "the chord at the root q=-5.820766090182461e-13 is beyond double precision "
         "(p=0.0, z_start=0.0, z_end=inf)"),
        (lambda: cw_coupling_derivatives(1e-300, 1e-300, 1e308),
         "the coupling derivatives at p=1e-300 are beyond double precision (p^2 underflows)"),
        (lambda: stirling_cycle(9.327288544196055e-186, 9.327288544197114e-186,
                                6.228100820612373e-186, 2.621179005073122e+181),
         "the heating_corner from T=9.327288544196055e-186 to T=9.327288544197114e-186 "
         "at v=2.621179005073122e+181 is beyond double precision "
         "(its pressure jump underflows to 0)"),
        (lambda: stirling_cycle(7.65889626690395e+135, 6.467883151584776e+203,
                                1.0100854264483892e-81, 1.0100854264493078e-81),
         "the gas chord at t0=7.65889626690395e+135, t1=6.467883151584776e+203, "
         "c=6.403303109051693e+284 is beyond double precision"),
        (lambda: Schedule.linear(3, 1, 2, -HUGE, HUGE),
         "the background ramp from -1.7e+308 to 1.7e+308 is beyond double precision"),
        (_relax_to_a_huge_last_temperature,
         "the free energy at T=1e+308, q=[0.0] is beyond double precision (node 100)"),
    ],
    ids=["gibbs", "lift", "gas_front", "cw_chord", "path_form", "entropy_rate", "decrement",
         "gas_chord_overflow", "gas_chord_underflow", "finder_chord", "coupling",
         "stirling_corner", "stirling_chord", "schedule", "relax_last_node"],
)
def test_raises_beyond_double_precision(call, message):
    with pytest.raises(FloatingPointError) as info:
        call()
    assert str(info.value) == message
