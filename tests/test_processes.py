import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermocontact import (
    AffineHamiltonian,
    BranchLossError,
    IntegrationError,
    MicrostateSpace,
    Schedule,
    check_path_nonnegative,
    fokker_planck_relax,
    gibbs,
    irreversible_entropy_rate,
    lift_to_extended,
    normalized_density,
    pressures,
    run_slow_isotopy,
    stirling_cycle,
    total_variation,
    ultrafast_jump,
    uniform_density,
)
from thermocontact import processes
from thermocontact.microstate import NORMALIZATION_TOL, lift_rows
from thermocontact.phase_space import SampledPath
from thermocontact.processes import CORNER_SIGN_TOL, LYAPUNOV_TOL, SCHEDULE_DROP_TOL

LN2 = math.log(2.0)
NAN, INF = math.nan, math.inf


def unit_space(m):
    return MicrostateSpace(tuple(f"s{i}" for i in range(m)), np.ones(m))


class TestSchedule:
    def test_linear_builder(self):
        s = Schedule.linear(5, 1.0, 2.0, 0.0, 1.0)
        assert s.times[0] == 0.0 and s.times[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            Schedule(np.array([0.0, 1.0]), np.array([1.0, -1.0]), np.zeros(2))

    @pytest.mark.parametrize(
        "times, temps, bgs",
        [([0.0, 1.0], [1.0], [0.0, 0.0]), ([0.0], [1.0], [0.0])],
    )
    def test_nodes_of_unequal_length_or_one_node(self, times, temps, bgs):
        with pytest.raises(ValueError, match="^schedule needs >= 2 nodes of equal length$"):
            Schedule(times, temps, bgs)

    @pytest.mark.parametrize(
        "times, temps, bgs, message",
        [
            ([0, 1], [1, 2], [NAN, 0], "backgrounds must be finite, got nan at index 0"),
            ([0, 1], [1, INF], [0, 0], "temperatures must be finite, got inf at index 1"),
            ([0, -INF], [1, 2], [0, 0], "times must be finite, got -inf at index 1"),
            ([[0, 1]], [1, 2], [0, 0], "times must have 1 dimension(s), got shape (1, 2)"),
            ([0, 1], [[1], [2]], [0, 0], "temperatures must have 1 dimension(s), got shape (2, 1)"),
        ],
    )
    def test_every_node_is_a_finite_number(self, times, temps, bgs, message):
        # a nan background used to pass, and the isotopy then blamed the front domain
        with pytest.raises(ValueError) as info:
            Schedule(times, temps, bgs)
        assert str(info.value) == message


class TestSlowIsotopyGas:
    def example_schedule(self, n=101):
        return Schedule.linear(n, 1.0, 5.0, 0.0, 2.0)

    def test_every_slice_contains_the_chord_point(self):
        trace = run_slow_isotopy("gas", self.example_schedule(), [-1.5, -0.5])
        chord_path = trace.paths[-1]
        for p, q in zip(chord_path.p[:, 0].tolist(), chord_path.q[:, 0].tolist()):
            assert abs(p - 2.0) <= 1e-9
            assert abs(q + 0.5) <= 1e-9

    def test_chord_point_trajectory_rides_the_chord(self):
        sched = self.example_schedule()
        trace = run_slow_isotopy("gas", sched, [-0.5])
        path = trace.paths[0]
        for tj, z in zip(sched.times, path.z):
            assert abs(z - (1.0 + 4.0 * tj) * LN2) <= 1e-10
        rep = trace.reports[0]
        assert rep.verdict == "nonnegative"
        assert rep.min_form_value > 1.0  # the chord is traversed strictly upward

    def test_constant_schedule_freezes_everything(self):
        sched = Schedule.linear(11, 2.0, 2.0, 0.5, 0.5)
        trace = run_slow_isotopy("gas", sched, [-2.0, -1.0])
        for path, rep in zip(trace.paths, trace.reports):
            zs = set(path.z.tolist())
            assert len(zs) == 1
            assert rep.verdict == "nonnegative"
            assert abs(rep.min_form_value) < 1e-14

    def test_dilute_heating_is_admissible(self):
        # constant background, rising temperature, volumes >= 1
        sched = Schedule.linear(101, 1.0, 2.0, 0.0, 0.0)
        x_grid = np.linspace(-1.0, -0.2, 7)  # p = T/(-q) >= 1 throughout
        trace = run_slow_isotopy("gas", sched, x_grid)
        for rep in trace.reports:
            assert rep.verdict == "nonnegative"

    def test_far_out_paths_may_lose_admissibility(self):
        # with a moving background the family is only admissible near the
        # funnel point; far-out volumes dip below the reversible threshold
        trace = run_slow_isotopy("gas", self.example_schedule(), [-40.0])
        assert trace.reports[0].verdict == "violated"

    def test_domain_violation_rejected(self):
        with pytest.raises(ValueError):
            run_slow_isotopy("gas", self.example_schedule(), [1.5])

    def test_empty_x_grid_rejected(self):
        with pytest.raises(ValueError, match="^x_grid must not be empty$"):
            run_slow_isotopy("gas", self.example_schedule(), [])

    def test_nested_x_grid_rejected(self):
        with pytest.raises(ValueError, match=r"^x_grid must have 1 dimension\(s\), got shape"):
            run_slow_isotopy("gas", self.example_schedule(), [[-2.0, -1.0]])

    def test_slices_stay_on_family(self):
        trace = run_slow_isotopy("gas", self.example_schedule(), [-2.0, -1.0, -0.5])
        assert trace.legendrian_residual() < 1e-8
        first_slice = [float(path.q[0, 0]) for path in trace.paths]
        assert first_slice == [-2.0, -1.0, -0.5]

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            run_slow_isotopy("bogus", self.example_schedule(), [-1.0])


class TestSlowIsotopyMagnet:
    def test_heating_is_admissible_everywhere(self):
        sched = Schedule.linear(101, 1.0, 2.0, 0.0, 0.0)
        x_grid = np.linspace(-0.9, 0.9, 9)
        trace = run_slow_isotopy("cw", sched, x_grid, b=0.8)
        assert trace.legendrian_residual() < 1e-8
        for rep in trace.reports:
            assert rep.verdict == "nonnegative"

    def test_initial_points_match_chart_values(self):
        sched = Schedule.linear(21, 1.0, 1.5, 0.0, 0.0)
        x_grid = [-0.4, 0.2]
        trace = run_slow_isotopy("cw", sched, x_grid, b=0.8)
        for x, path in zip(x_grid, trace.paths):
            assert abs(float(path.p[0, 0]) - x) < 1e-10

    def test_branch_tracking_through_double_well(self):
        # cooling from above: q < 0 keeps the tracked branch negative
        sched = Schedule.linear(51, 1.0, 1.6, 0.0, 0.0)
        trace = run_slow_isotopy("cw", sched, [-0.8], b=0.9)
        ps = trace.paths[0].p[:, 0].tolist()
        assert all(p < 0 for p in ps)

    def test_branch_loss_is_reported_with_node(self):
        # a metastable negative branch at positive field dies under heating
        sched = Schedule.linear(101, 1.0, 2.0, 0.0, 0.0)
        with pytest.raises(BranchLossError, match="time node"):
            run_slow_isotopy("cw", sched, [-0.5], b=1.2)

    def test_zero_magnetization_splits_onto_the_middle_piece(self):
        # q = 0: the single root y = 0 above T = b continues as the unstable
        # middle root below it, not as either outer branch
        trace = run_slow_isotopy("cw", Schedule.linear(2, 2.0, 0.5), [0.0], b=1.0)
        assert trace.paths[0].p[:, 0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("T0, T1", [(1.5, 0.5), (0.5, 1.5)])
    @pytest.mark.parametrize("bg", [0.0, 0.3])
    def test_zero_field_root_keeps_the_middle_piece_through_T_equal_b(self, T0, T1, bg):
        # q + bg = 0 at every node: the solver returns y within 1e-12 of the
        # exact root 0 with either sign, so its sign must not pick the piece
        # on either side of T = b = 1 (a node of this schedule)
        trace = run_slow_isotopy("cw", Schedule.linear(11, T0, T1, bg, bg), [0.0], b=1.0)
        assert np.all(np.abs(trace.paths[0].p[:, 0]) < 1e-11)
        assert trace.legendrian_residual() < 1e-8

    def test_middle_root_off_zero_field_is_lost_at_the_merge(self):
        # p = -0.1 is the middle root at T = 0.5 (q = 0.0498); it meets the
        # lower root at a fold before T reaches b, so none continues it
        with pytest.raises(BranchLossError, match="time node 1"):
            run_slow_isotopy("cw", Schedule.linear(2, 0.5, 1.5), [-0.1], b=1.0)

    def test_merge_continues_the_root_of_the_same_sign(self):
        # at T = 0.5 < b the outer roots at +-0.96 continue through the merge;
        # -0.9 at a positive field is metastable and has no root left at T = 2
        sched = Schedule.linear(2, 0.5, 2.0)
        trace = run_slow_isotopy("cw", sched, [-0.96, 0.96], b=1.0)
        assert [np.sign(path.p[:, 0]).tolist() for path in trace.paths] == [[-1, -1], [1, 1]]
        with pytest.raises(BranchLossError, match="time node 1"):
            run_slow_isotopy("cw", sched, [-0.9], b=1.0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.05, 3.0),  # b
        st.floats(1e-6, 2.0),  # T0 / b - 1
        st.floats(1e-6, 2.0),  # T1 / b - 1
        st.floats(-2.0, 2.0),  # bg0
        st.floats(-2.0, 2.0),  # bg1
        st.integers(2, 12),  # n_times
        st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=4),  # x_grid
    )
    def test_no_branch_loss_without_a_fold(self, b, u0, u1, bg0, bg1, n_times, x_grid):
        # T > b at every node leaves exactly one root, so nothing can be lost
        sched = Schedule.linear(n_times, b * (1.0 + u0), b * (1.0 + u1), bg0, bg1)
        assert np.all(sched.temperatures > b)
        trace = run_slow_isotopy("cw", sched, x_grid, b=b)
        assert trace.legendrian_residual() < 1e-8

    def test_b_required(self):
        sched = Schedule.linear(11, 1.0, 1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            run_slow_isotopy("cw", sched, [0.1])

    def test_chart_domain(self):
        sched = Schedule.linear(11, 1.0, 1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            run_slow_isotopy("cw", sched, [1.5], b=1.0)

    @pytest.mark.parametrize("bg", [1e9, 1e12])
    def test_chart_point_off_the_magnet_equation_is_rejected(self, bg):
        # q = -b p + T atanh(p) - H_back keeps only H_back's rounding of
        # T atanh(p) - b p, so the path would start elsewhere than p = 0.3
        # (at 0.29999973 for 1e9, 0.30001901 for 1e12)
        sched = Schedule.linear(3, 1.0, 1.2, bg, bg)
        with pytest.raises(RuntimeError, match=rf"^self-consistency residual .* H_back={bg!r}"):
            run_slow_isotopy("cw", sched, [0.3], b=1.0)


class TestUltrafastJump:
    def system(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 0.0], [[0.0, 1.0]])
        return sp, h

    def test_zero_jump_is_identity(self):
        sp, h = self.system()
        rec = ultrafast_jump(sp, h, 1.0, 1.0, [1.0], [0.0])
        assert rec.is_ultrafast
        assert rec.z_after_stage1 == rec.z_before
        assert np.array_equal(rec.p, pressures(sp, h, gibbs(sp, h, 1.0, [1.0]).rho_g))

    def test_proportional_weights_stay_gibbs(self):
        # doubling T while doubling the field leaves exp(-H/T) unchanged
        sp, h = self.system()
        rec = ultrafast_jump(sp, h, 1.0, 2.0, [1.0], [1.0])
        assert rec.is_ultrafast
        assert rec.gibbs_residual < 1e-12
        assert rec.z_after_stage1 != rec.z_before

    def test_constant_energy_shift_stays_gibbs(self):
        # a background jump acting equally on every state rescales the
        # partition function but not the density
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 0.7], [[1.0, 1.0]])
        rec = ultrafast_jump(sp, h, 1.3, 1.3, [0.4], [2.0])
        assert rec.is_ultrafast
        assert rec.gibbs_residual < 1e-14

    def test_extensive_variables_frozen_bitwise(self):
        sp, h = self.system()
        q = np.array([0.5])
        rec = ultrafast_jump(sp, h, 1.0, 1.7, q, [0.8])
        # p and q are the pre-jump Gibbs state's, copied and read-only
        assert np.array_equal(rec.p, pressures(sp, h, gibbs(sp, h, 1.0, q).rho_g))
        assert np.array_equal(rec.q, q) and rec.q is not q
        with pytest.raises(ValueError):
            rec.p[0] = 0.0
        with pytest.raises(ValueError):
            rec.q[0] = 0.0

    def test_generic_jump_needs_relaxation(self):
        sp, h = self.system()
        rec = ultrafast_jump(sp, h, 1.0, 1.5, [0.5], [1.0])
        assert not rec.is_ultrafast
        # stage 2: relax the frozen density under the post-jump parameters
        rho_frozen = gibbs(sp, h, 1.0, [0.5]).rho_g
        trace = fokker_planck_relax(
            sp, h, [1.5], lambda t: 1.5, rho_frozen, 0.02, 30.0
        )
        terminal = gibbs(sp, h, 1.5, [1.5]).rho_g
        assert total_variation(sp, trace.densities[-1], terminal) < 1e-6

    def test_dimension_check(self):
        sp, h = self.system()
        with pytest.raises(ValueError):
            ultrafast_jump(sp, h, 1.0, 1.5, [0.5], [1.0, 2.0])

    @pytest.mark.parametrize(
        "q, jump, name", [([[0.5]], [1.0], "q"), ([0.5], [[1.0]], "background_jump")]
    )
    def test_nested_arguments_are_rejected_by_name(self, q, jump, name):
        sp, h = self.system()
        with pytest.raises(ValueError, match=rf"^{name} must have 1 dimension\(s\)"):
            ultrafast_jump(sp, h, 1.0, 1.5, q, jump)

    def test_gibbs_states_of_disjoint_support_are_one_apart(self):
        # at T = 1e-300 the pre-jump state sits on state 0 and the post-jump
        # one on states 1-5, whose mass rounds to 1.0000000000000002: the
        # total variation is 1, not half the sum of the two masses
        sp = MicrostateSpace(tuple("abcdef"), [1.0, 1.5, 2.5, 0.1, 0.1, 0.1])
        h = AffineHamiltonian(np.zeros(6), [[0.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        rec = ultrafast_jump(sp, h, 1e-300, 2e-300, [1.0], [-2.0])
        assert rec.gibbs_residual == 1.0
        assert not rec.is_ultrafast

    def test_overflowing_lift_names_T_and_q(self):
        # the T0 Gibbs state is finite, but -T S overflows at T = 1.7e308
        sp = MicrostateSpace(tuple("abcd"), [30.0, 30.0, 30.0, 10.0])
        h = AffineHamiltonian(np.zeros(4), [[0.0, 1.0, 0.0, 1.0]])
        with pytest.raises(
            FloatingPointError,
            match=r"^the lift at T=1\.7e\+308, q=\[0\.0\] is beyond double precision",
        ):
            ultrafast_jump(sp, h, 1.7e308, 1.7e308, [0.0], [0.0])

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_low_temperature_jumps_freeze_a_gibbs_state(self, data):
        # down to T0 = 1e-300 (and at it) the jump gives a finite record
        # whose p is the T0 Gibbs state's, bit for bit, or a FloatingPointError
        # naming T and q; at the lowest T that state sits on the states of
        # least energy
        m = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 3))
        value = st.floats(-5.0, 5.0, allow_nan=False)
        sp = MicrostateSpace(
            tuple(f"s{i}" for i in range(m)),
            data.draw(arrays(float, m, elements=st.floats(0.1, 5.0))),
        )
        h = AffineHamiltonian(
            data.draw(arrays(float, m, elements=value)),
            data.draw(arrays(float, (n, m), elements=value)),
        )
        q = data.draw(arrays(float, n, elements=value))
        c = data.draw(arrays(float, n, elements=value))
        for T0 in (10.0 ** data.draw(st.floats(-300.0, 0.0)), 1e-300):
            try:
                rec = ultrafast_jump(sp, h, T0, 2.0 * T0, q, c)
            except FloatingPointError as exc:
                named = re.search(r" at T=(\S+), q=\[", str(exc))
                assert named and float(named[1]) in (T0, 2.0 * T0), str(exc)
                continue
            fields = [rec.z_before, rec.z_after_stage1, *rec.p, *rec.q, rec.gibbs_residual]
            assert all(math.isfinite(v) for v in fields)
            rho = gibbs(sp, h, T0, q).rho_g
            assert np.array_equal(rec.p, pressures(sp, h, rho))
            assert 0.0 <= rec.gibbs_residual <= 1.0
            if T0 == 1e-300:
                energies = h.energies(q)
                lowest = energies == energies.min()
                mass = float(np.vecdot(rho[lowest], sp.weights[lowest]))
                assert abs(mass - 1.0) <= NORMALIZATION_TOL


class TestFokkerPlanck:
    def test_gibbs_state_is_stationary(self):
        sp = unit_space(3)
        h = AffineHamiltonian([0.0, 0.4, 1.0], [[0.2, -0.1, 0.3]])
        rho_g = gibbs(sp, h, 1.2, [0.5]).rho_g
        trace = fokker_planck_relax(sp, h, [0.5], lambda t: 1.2, rho_g, 0.05, 5.0)
        assert abs(trace.G_values[-1] - trace.G_values[0]) < 1e-12
        assert total_variation(sp, trace.densities[-1], rho_g) < 1e-12

    def test_flat_hamiltonian_relaxes_to_uniform(self):
        sp = unit_space(4)
        h = AffineHamiltonian(np.zeros(4), np.zeros((1, 4)))
        rho0 = normalized_density(sp, [0.6, 0.1, 0.2, 0.1])
        trace = fokker_planck_relax(sp, h, [0.0], lambda t: 1.0, rho0, 0.05, 25.0)
        assert total_variation(sp, trace.densities[-1], uniform_density(sp)) < 1e-6
        assert np.all(np.diff(trace.G_values) <= 1e-12)

    def test_mass_and_positivity_along_the_flow(self):
        rng = np.random.default_rng(61)
        sp = MicrostateSpace(tuple("abcde"), rng.uniform(1.0, 2.0, 5))
        h = AffineHamiltonian(rng.uniform(-0.5, 0.5, 5), rng.uniform(-0.5, 0.5, (2, 5)))
        rho0 = normalized_density(sp, rng.uniform(0.3, 1.0, 5))
        trace = fokker_planck_relax(
            sp, h, [0.2, -0.1], lambda t: 1.0 + 0.1 * min(t, 5.0), rho0, 0.01, 10.0
        )
        for d in trace.densities:
            assert abs(float(np.dot(sp.weights, d)) - 1.0) < 1e-10
            assert float(d.min()) > 0.0

    def test_heavy_weights_keep_every_row_mass_one(self):
        # total weight 192.6: the rounding of the recentring mean moves the
        # mass by ~6e-16 a step, past NORMALIZATION_TOL by node ~1650 unless
        # a trial that misses 1 by more is divided by its mass
        sp = MicrostateSpace(tuple("abcd"), [89.03, 64.5, 0.13, 38.92])
        h = AffineHamiltonian([-0.2, -0.31, -1.05, 0.41], [[0.39, 0.81, 1.31, 0.82]])
        trace = fokker_planck_relax(sp, h, [0.0], lambda t: 1.0, uniform_density(sp), 0.01, 20.0)
        assert trace.t_grid[-1] == pytest.approx(20.0)
        assert np.abs(np.vecdot(trace.densities, sp.weights) - 1.0).max() <= NORMALIZATION_TOL
        G = trace.G_values
        assert np.all(np.diff(G) <= LYAPUNOV_TOL + 8 * np.spacing(np.abs(G[1:])))

    def test_rising_temperature_keeps_form_nonnegative(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            sp = unit_space(6)
            h = AffineHamiltonian(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, (1, 6)))
            rho0 = normalized_density(sp, rng.uniform(0.2, 1.0, 6))
            trace = fokker_planck_relax(
                sp, h, [0.3], lambda t: 1.0 + 0.2 * min(t, 4.0), rho0, 0.02, 10.0
            )
            assert trace.form_values.min() >= -1e-8

    def test_terminal_state_is_gibbs_at_final_temperature(self):
        sp = unit_space(5)
        rng = np.random.default_rng(71)
        h = AffineHamiltonian(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, (1, 5)))
        rho0 = normalized_density(sp, rng.uniform(0.2, 1.0, 5))
        trace = fokker_planck_relax(
            sp, h, [0.1], lambda t: 1.0 + 0.5 * min(t, 3.0) / 3.0, rho0, 0.02, 25.0
        )
        terminal = gibbs(sp, h, 1.5, [0.1]).rho_g
        assert total_variation(sp, trace.densities[-1], terminal) < 1e-6

    def test_entropy_production_matches_free_energy_decay(self):
        # at fixed T the production rate is the free-energy decay over T
        sp = unit_space(4)
        h = AffineHamiltonian([0.0, 0.3, 0.7, 1.0], np.zeros((1, 4)))
        T = 1.3
        rho0 = normalized_density(sp, [0.5, 0.2, 0.2, 0.1])
        trace = fokker_planck_relax(sp, h, [0.0], lambda t: T, rho0, 0.02, 3.0)
        lifts = [lift_to_extended(sp, h, T, [0.0], d) for d in trace.densities]
        z, S, p = (np.array(col) for col in zip(*lifts))
        path = SampledPath(trace.t_grid, z, p, np.zeros_like(p), S, np.full(z.size, T))
        rates = irreversible_entropy_rate(path)
        g_dot = np.gradient(trace.G_values, trace.t_grid, edge_order=2)
        for j in range(1, len(rates) - 1):
            assert rates[j] >= -1e-10
            assert abs(rates[j] - (-g_dot[j] / T)) < 1e-8

    def test_step_underflow_reported(self):
        # equilibrium weight of the high state sits below the positivity
        # floor, so the flow keeps pushing the density down until the
        # stepper gives up
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 100.0], np.zeros((1, 2)))
        rho0 = normalized_density(sp, [1.0, 1.0])
        with pytest.raises(IntegrationError, match="underflow"):
            fokker_planck_relax(sp, h, [0.0], lambda t: 1.0, rho0, 0.1, 10.0)

    @pytest.mark.parametrize("dt0", [1e-320, 5e-6 * 0.999])
    def test_dt0_needing_too_many_steps_rejected(self, dt0):
        # steps never exceed dt0: t_end / dt0 above the cap cannot finish
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="needs more than 100000 steps"):
            fokker_planck_relax(sp, h, [0.0], lambda t: 1.0, uniform_density(sp), dt0, 0.5)

    def test_decreasing_temperature_rejected(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="non-decreasing"):
            fokker_planck_relax(
                sp, h, [0.0], lambda t: 2.0 - t, uniform_density(sp), 0.05, 5.0
            )

    def test_drop_at_the_last_node_rejected(self):
        # the run ends at t = 1, where the schedule has dropped to 0.5
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))

        def T_of_t(t):
            return 1.0 if t < 0.999 else 0.5

        with pytest.raises(ValueError, match=r"non-decreasing \(drops at t=1\)"):
            fokker_planck_relax(sp, h, [0.2], T_of_t, uniform_density(sp), 0.01, 1.0)

    def test_infinite_temperature_at_the_last_node_rejected(self):
        # the run ends at t = 1, node 100, where the schedule is +inf
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))

        def T_of_t(t):
            return 1.0 if t < 0.999 else INF

        with pytest.raises(ValueError) as info:
            fokker_planck_relax(sp, h, [0.2], T_of_t, uniform_density(sp), 0.01, 1.0)
        assert str(info.value) == "temperatures must be finite, got inf at index 100"

    def test_nested_q_rejected(self):
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match=r"^q must have 1 dimension\(s\), got shape \(1, 1\)$"):
            fokker_planck_relax(unit_space(2), h, [[0.0]], lambda t: 1.0, [0.5, 0.5], 0.05, 5.0)

    def test_initial_density_must_be_positive(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        with pytest.raises(ValueError):
            fokker_planck_relax(
                sp, h, [0.0], lambda t: 1.0, [2.0, 0.0], 0.05, 5.0
            )

    @pytest.mark.parametrize(
        "dt0, t_end, rho0, T, message",
        [
            (0.0, 5.0, [0.5, 0.5], 1.0, "dt0 must be positive"),
            (-0.05, 5.0, [0.5, 0.5], 1.0, "dt0 must be positive"),
            # a step of inf would end the run at once
            (INF, 5.0, [0.5, 0.5], 1.0, "dt0 must be finite, got inf"),
            (0.05, 0.0, [0.5, 0.5], 1.0, "t_end must be positive"),
            (0.05, -1.0, [0.5, 0.5], 1.0, "t_end must be positive"),
            # a valid density with an entry at the positivity floor
            (0.05, 5.0, [1.0, 0.0], 1.0, "strictly positive"),
            (0.05, 5.0, [0.5, 0.5], 0.0, "temperature schedule must be positive"),
            (0.05, 5.0, [0.5, 0.5], -1.0, "temperature schedule must be positive"),
        ],
    )
    def test_run_rejected_before_any_step(self, dt0, t_end, rho0, T, message):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match=message):
            fokker_planck_relax(sp, h, [0.0], lambda t: T, rho0, dt0, t_end)

    def test_gap_estimate_for_flat_system(self):
        # flat four-state system linearizes to a rate of T * m
        sp = unit_space(4)
        h = AffineHamiltonian(np.zeros(4), np.zeros((1, 4)))
        rho0 = normalized_density(sp, [0.5, 0.1, 0.3, 0.1])
        trace = fokker_planck_relax(sp, h, [0.0], lambda t: 1.0, rho0, 0.05, 20.0)
        gap = trace.spectral_gap_estimate()
        assert 2.0 < gap < 6.0


@st.composite
def edge_relaxations(draw, log_T0=(-2.0, 0.0)):
    """Up to 64 states with weights 10^-2..10^3, T0 log-uniform over
    10^log_T0 (down to 0.01 by default), constant or ramped by up to 2 over
    up to 3 time units, a positive starting density, a step and an end time."""
    m = draw(st.integers(1, 64))
    n = draw(st.integers(1, 2))

    def floats(lo, hi, shape):
        return draw(arrays(float, shape, elements=st.floats(lo, hi)))

    sp = MicrostateSpace(tuple(f"s{i}" for i in range(m)), 10.0 ** floats(-2.0, 3.0, m))
    h = AffineHamiltonian(floats(-1.0, 1.0, m), floats(-1.0, 1.0, (n, m)))
    q = floats(-1.0, 1.0, n)
    T0 = 10.0 ** draw(st.floats(*log_T0))
    dT, ramp = draw(st.just((0.0, 0.0)) | st.tuples(st.floats(0.05, 2.0), st.floats(0.1, 3.0)))
    rho0 = normalized_density(sp, floats(0.05, 1.0, m))
    dt0 = draw(st.sampled_from([0.01, 0.05, 0.1]))
    t_end = draw(st.floats(0.1, 3.0))
    return sp, h, q, (T0, dT, ramp), rho0, dt0, t_end


# the drawn runs stop at this many steps (a stiff draw needs up to
# MAX_RELAX_STEPS steps), so the cap's error is one of their outcomes
EDGE_STEP_CAP = 2000


def _ramp(T0, dT, ramp):
    """T0, then a linear rise by dT over [0, ramp] where ramp > 0."""

    def T_of_t(t):
        return T0 + dT * min(t, ramp) / ramp if ramp > 0 else T0

    return T_of_t


class TestFokkerPlanckEdges:
    """At the edges of the drawn systems a relaxation gives a trace that
    keeps the contract to rounding, or an error that names its inputs."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(run=edge_relaxations())
    def test_runs_keep_the_contract_or_name_their_inputs(self, run):
        sp, h, q, (T0, dT, ramp), rho0, dt0, t_end = run
        T_of_t = _ramp(T0, dT, ramp)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(processes, "MAX_RELAX_STEPS", EDGE_STEP_CAP)
            try:
                trace = fokker_planck_relax(sp, h, q, T_of_t, rho0, dt0, t_end)
            except IntegrationError as exc:
                capped = re.match(r"more than (\d+) steps to reach t_end = (\S+): ", str(exc))
                underflow = re.match(r"step size underflow at t=(\S+) \(dt=", str(exc))
                if capped:
                    assert capped[1] == str(EDGE_STEP_CAP) and capped[2] == repr(t_end)
                else:
                    assert underflow and 0.0 <= float(underflow[1]) <= t_end, str(exc)
                return
            except FloatingPointError as exc:
                named = re.search(r" at T=(\S+), q=(\[.*?\]) is beyond", str(exc))
                assert named and named[2] == str(q.tolist()), str(exc)
                assert T0 <= float(named[1]) <= T0 + dT, str(exc)
                return
        w, R, T = sp.weights, trace.densities, trace.temperatures
        for values in (trace.t_grid, R, T, trace.form_values, trace.G_values):
            assert np.all(np.isfinite(values))
        assert np.abs(np.vecdot(R, w) - 1.0).max() <= NORMALIZATION_TOL
        # G of both ends of each step at the step temperature, as the loop
        # and criterion 6 compute it
        a, b = np.vecdot(R * np.log(R), w), np.vecdot(R, w * h.energies(q))
        g0, g1 = T[:-1] * a[:-1] + b[:-1], T[:-1] * a[1:] + b[1:]
        assert np.all(g1 - g0 <= LYAPUNOV_TOL + 4 * np.spacing(np.maximum(abs(g0), abs(g1))))
        # z rises by the drop of G at the step temperature plus dT S of the
        # node reached (S = -a), so the form is >= -LYAPUNOV_TOL where T does
        # not fall only where that S is non-negative
        rise = trace.form_values * np.diff(trace.t_grid)
        heat = np.diff(T) * -a[1:]
        scale = np.max([abs(g0), abs(g1), abs(T[1:] * a[1:]), abs(b[1:]), abs(rise), abs(heat)],
                       axis=0)
        assert np.all(rise - heat >= -(LYAPUNOV_TOL + 16 * np.spacing(scale)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(run=edge_relaxations(log_T0=(-1.5, 0.5)))
    def test_trace_is_the_lift_of_its_own_nodes(self, run):
        # z and G come from the step loop, p from the accepted rows: each
        # equals what lift_rows gives for the trace's densities and
        # temperatures, bit for bit
        sp, h, q, schedule, rho0, dt0, t_end = run
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(processes, "MAX_RELAX_STEPS", EDGE_STEP_CAP)
            try:
                trace = fokker_planck_relax(sp, h, q, _ramp(*schedule), rho0, dt0, t_end)
            except (IntegrationError, FloatingPointError):
                return
        z, _, p = lift_rows(sp, h, trace.temperatures, q, trace.densities)
        assert np.array_equal(trace.reduced_path.z, z)
        assert np.array_equal(trace.G_values, -z)
        assert np.array_equal(trace.reduced_path.p, p)

    def test_heating_lowers_z_where_the_entropy_is_negative(self):
        # total weight 0.03: every density has S <= ln 0.03 < 0, so G rises
        # with T and the form dz/dt is negative on each heating step, though
        # G falls over each step at the step temperature
        sp = MicrostateSpace(("a", "b"), [0.01, 0.02])
        h = AffineHamiltonian([0.0, 0.1], np.zeros((1, 2)))
        rho0 = normalized_density(sp, [1.0, 1.0])
        trace = fokker_planck_relax(
            sp, h, [0.0], lambda t: 1.0 + 0.5 * min(t, 1.0), rho0, 0.01, 2.0
        )
        heating = np.diff(trace.temperatures) > 0
        assert heating.sum() > 50 and trace.form_values[heating].max() < 0.0


@st.composite
def calm_relaxations(draw):
    """Up to 8 states with weights 10^-1..10, energies in [-1, 1], T0
    log-uniform over 10^-0.5..10^0.5, constant or ramped by up to 1, a
    positive starting density and a step: runs of at most ~100 nodes that
    reach t_end."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 2))

    def floats(lo, hi, shape):
        return draw(arrays(float, shape, elements=st.floats(lo, hi)))

    sp = MicrostateSpace(tuple(f"s{i}" for i in range(m)), 10.0 ** floats(-1.0, 1.0, m))
    h = AffineHamiltonian(floats(-1.0, 1.0, m), floats(-1.0, 1.0, (n, m)))
    q = floats(-1.0, 1.0, n)
    T0 = 10.0 ** draw(st.floats(-0.5, 0.5))
    dT, ramp = draw(st.just((0.0, 0.0)) | st.tuples(st.floats(0.05, 1.0), st.floats(0.1, 2.0)))
    rho0 = normalized_density(sp, floats(0.05, 1.0, m))
    dt0 = draw(st.sampled_from([0.02, 0.05, 0.1]))
    t_end = draw(st.floats(0.1, 2.0))
    return sp, h, q, (T0, dT, ramp), rho0, dt0, t_end


def _recording(T_of_t, fault_at=None, value=None):
    """T_of_t, recording each call's (t, T) in a list returned with it; call
    number fault_at returns value instead."""
    calls = []

    def schedule(t):
        T = value if len(calls) == fault_at else T_of_t(t)
        calls.append((t, T))
        return T

    return schedule, calls


class TestFokkerPlanckContract:
    """Each input is checked where it enters: the state count before the
    first step, each schedule value at the node that reads it."""

    @pytest.mark.parametrize("v_int, v_bar", [([0.5], [[1.0]]), ([0.5, 0.1], [[1.0, 0.0]])])
    def test_state_count_checked_before_the_schedule_is_called(self, v_int, v_bar):
        # one state broadcasts over the space, two do not
        sp = MicrostateSpace(("a", "b", "c"), [1, 1, 1])
        h = AffineHamiltonian(v_int, v_bar)
        T_of_t, calls = _recording(lambda t: 1.0)
        with pytest.raises(ValueError) as info:
            fokker_planck_relax(sp, h, [0.2], T_of_t, uniform_density(sp), 0.01, 20.0)
        assert str(info.value) == f"Hamiltonian has {len(v_int)} states, space has 3"
        assert calls == []

    @pytest.mark.parametrize("k", [0, 50])
    def test_infinite_temperature_rejected_at_its_node(self, k):
        # dt0 = 0.01 and t_end = 1: node k is at t = k / 100 (TestFokkerPlanck
        # has the last node, 100)
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        T_of_t, calls = _recording(lambda t: 1.0, fault_at=k, value=INF)
        with pytest.raises(ValueError) as info:
            fokker_planck_relax(sp, h, [0.2], T_of_t, uniform_density(sp), 0.01, 1.0)
        assert str(info.value) == f"temperatures must be finite, got inf at index {k}"
        assert len(calls) == k + 1

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(run=calm_relaxations(), data=st.data())
    def test_another_state_count_is_rejected_before_any_step(self, run, data):
        sp, _, q, schedule, rho0, dt0, t_end = run
        # any count from 1 to 9 but sp.m
        m = data.draw(st.integers(1, 8).map(lambda m: m + (m >= sp.m)), label="states")
        h = AffineHamiltonian(np.zeros(m), np.zeros((q.size, m)))
        T_of_t, calls = _recording(_ramp(*schedule))
        with pytest.raises(ValueError) as info:
            fokker_planck_relax(sp, h, q, T_of_t, rho0, dt0, t_end)
        assert str(info.value) == f"Hamiltonian has {m} states, space has {sp.m}"
        assert calls == []

    @pytest.mark.parametrize("fault", ["+inf", "-inf", "nan", "zero", "negative", "drop"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(run=calm_relaxations(), data=st.data())
    def test_a_schedule_fault_is_rejected_at_its_node(self, fault, run, data):
        sp, h, q, schedule, rho0, dt0, t_end = run
        # the clean run's calls give node k's t and the value before it
        T_of_t, clean = _recording(_ramp(*schedule))
        fokker_planck_relax(sp, h, q, T_of_t, rho0, dt0, t_end)
        k = data.draw(st.integers(1 if fault == "drop" else 0, len(clean) - 1), label="node")
        t = clean[k][0]
        positive = f"temperature schedule must be positive at t={t:.6g}"
        if fault == "+inf":
            value, message = INF, f"temperatures must be finite, got inf at index {k}"
        elif fault == "drop":
            last = clean[k - 1][1]
            value = last - data.draw(st.floats(2 * SCHEDULE_DROP_TOL, last / 2), label="drop")
            message = f"temperature schedule must be non-decreasing (drops at t={t:.6g})"
        elif fault == "negative":
            value, message = -data.draw(st.floats(5e-324, 1e300), label="-T"), positive
        else:
            value, message = {"-inf": -INF, "nan": NAN, "zero": 0.0}[fault], positive
        T_of_t, calls = _recording(_ramp(*schedule), fault_at=k, value=value)
        with pytest.raises(ValueError) as info:
            fokker_planck_relax(sp, h, q, T_of_t, rho0, dt0, t_end)
        assert str(info.value) == message
        assert len(calls) == k + 1 and calls[k][0] == t


class TestStirlingCycle:
    def test_reference_heating_corner_matches_reference_chord(self):
        trace = stirling_cycle(1.0, 5.0, 1.0, 2.0)
        heating = trace.segments[3]
        assert heating.name == "heating_corner"
        ch = heating.chord
        assert ch is not None
        assert ch.q == -0.5 and ch.p == 2.0
        assert abs(ch.length - 4 * LN2) < 1e-15
        assert heating.form_sign == "positive"
        assert not heating.temperature_decreasing

    def test_degenerate_cooling_corner_at_unit_volume(self):
        trace = stirling_cycle(1.0, 5.0, 1.0, 2.0)
        cooling = trace.segments[1]
        assert cooling.degenerate
        assert cooling.chord is None
        assert cooling.temperature_decreasing

    def test_nontrivial_cooling_corner(self):
        trace = stirling_cycle(1.0, 5.0, 1.5, 2.0)
        cooling = trace.segments[1]
        assert cooling.chord is not None
        assert abs(cooling.chord.length - 4 * math.log(1.5)) < 1e-12
        assert cooling.form_sign == "negative"

    def test_cooling_corner_at_one_over_e_has_no_sign(self):
        # the corner's form increment (T_C - T_H)(ln v + 1) vanishes at v = 1/e
        trace = stirling_cycle(1.0, 5.0, math.exp(-1.0), 2.0)
        cooling = trace.segments[1]
        assert cooling.name == "cooling_corner"
        assert cooling.form_sign == "zero"

    def test_cycle_closes_and_free_energy_balances(self):
        for args in ((1.0, 5.0, 1.5, 2.0), (0.7, 2.9, 1.2, 6.0)):
            trace = stirling_cycle(*args)
            assert trace.closure_residual < 1e-9
            assert abs(trace.total_delta_G) < 1e-9

    def test_isotherms_are_reversible(self):
        trace = stirling_cycle(1.0, 5.0, 1.5, 2.0, n_samples=1001)
        for seg in (trace.segments[0], trace.segments[2]):
            assert seg.form_sign == "zero"
            rep = check_path_nonnegative(seg.path, slack=1e-5)
            assert rep.verdict == "nonnegative"
            assert abs(rep.min_form_value) < 1e-5

    def test_segment_order_and_isochore_volumes(self):
        trace = stirling_cycle(1.0, 5.0, 1.5, 2.0)
        names = [seg.name for seg in trace.segments]
        assert names == [
            "isotherm_hot",
            "cooling_corner",
            "isotherm_cold",
            "heating_corner",
        ]
        assert float(trace.segments[1].path.p[0, 0]) == 1.5
        assert float(trace.segments[3].path.p[0, 0]) == 2.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            stirling_cycle(5.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            stirling_cycle(1.0, 5.0, 2.0, 1.0)


# 10^e for e uniform in [-300, 300]
LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def rising_pairs(draw):
    """lo < hi, log-uniform over 1e-300..1e300, or hi one ulp (k = 0) to
    2^-1 (k = 1) above lo, hi = lo (1 + 2^-k)."""
    lo = draw(LOG_UNIFORM)
    k = draw(st.none() | st.integers(0, 52))
    if k is None:
        lo, hi = sorted((lo, draw(LOG_UNIFORM.filter(lambda x: x != lo))))
    else:
        hi = math.nextafter(lo, math.inf) if k == 0 else lo * (1.0 + 2.0**-k)
    return lo, hi


class TestStirlingCycleEdges:
    """Across the whole range of doubles the cycle closes exactly, its free
    energy balances to rounding and each corner is labelled by the sign of
    its form increment, or it names the overflow."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(temperatures=rising_pairs(), volumes=rising_pairs())
    # a corner's pressure jump underflows to 0
    @example((9.327288544196055e-186, 9.327288544197114e-186),
             (6.228100820612373e-186, 2.621179005073122e+181))
    # a corner chord's q overflows
    @example((7.65889626690395e+135, 6.467883151584776e+203),
             (1.0100854264483892e-81, 1.0100854264493078e-81))
    def test_cycle_closes_or_names_its_overflow(self, temperatures, volumes):
        try:
            trace = stirling_cycle(*temperatures, *volumes, n_samples=5)
        except FloatingPointError:
            return
        assert trace.closure_residual == 0.0
        # every path column and chord field is finite, or its constructor
        # would have raised a ValueError
        assert all(math.isfinite(seg.delta_G) for seg in trace.segments)
        z_max = max(float(np.abs(seg.path.z).max()) for seg in trace.segments)
        assert abs(trace.total_delta_G) <= 8 * np.finfo(float).eps * z_max
        T_C, T_H = temperatures
        for seg, T_from, T_to in ((trace.segments[1], T_H, T_C), (trace.segments[3], T_C, T_H)):
            (z0, z1), ((q0,), (q1,)), v = seg.path.z, seg.path.q, float(seg.path.p[0, 0])
            increment = float((z1 - z0) - v * (q1 - q0))
            assert check_path_nonnegative(seg.path).min_form_value == increment
            labels = {1.0: "positive", -1.0: "negative"}
            assert seg.form_sign == ("zero" if abs(increment) <= CORNER_SIGN_TOL
                                     else labels[math.copysign(1.0, increment)])
            # the exact increment (T_to - T_from)(ln v + 1), where rounding
            # cannot move it across the tolerance
            exact = (T_to - T_from) * (math.log(v) + 1.0)
            error = 16 * np.finfo(float).eps * (T_from + T_to) * (abs(math.log(v)) + 1.0)
            if abs(exact) > CORNER_SIGN_TOL + error:
                assert seg.form_sign == labels[math.copysign(1.0, exact)]
            elif abs(exact) < CORNER_SIGN_TOL - error:
                assert seg.form_sign == "zero"
