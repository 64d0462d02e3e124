import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermocontact import (
    AffineHamiltonian,
    MicrostateSpace,
    densities_from_csv,
    densities_to_csv,
    entropy,
    free_energy,
    gibbs,
    internal_energy,
    lift_to_extended,
    load_system,
    normalized_density,
    pressures,
    save_system,
    total_variation,
    uniform_density,
)
from thermocontact.microstate import check_density
from thermocontact.processes import fokker_planck_relax


def unit_space(m):
    return MicrostateSpace(tuple(f"s{i}" for i in range(m)), np.ones(m))


def random_system(rng, m, n, weight_lo=0.5, weight_hi=2.0):
    sp = MicrostateSpace(
        tuple(f"s{i}" for i in range(m)), rng.uniform(weight_lo, weight_hi, m)
    )
    h = AffineHamiltonian(rng.normal(size=m), rng.normal(size=(n, m)))
    return sp, h


def random_density(rng, sp):
    return normalized_density(sp, rng.exponential(size=sp.m))


class TestValidation:
    def test_weights_positive(self):
        with pytest.raises(ValueError):
            MicrostateSpace(("a",), [0.0])

    def test_labels_match(self):
        with pytest.raises(ValueError):
            MicrostateSpace(("a",), [1.0, 1.0])

    def test_density_nonnegative(self):
        with pytest.raises(ValueError, match="negative or non-finite"):
            check_density(unit_space(2), [-0.1, 1.1])

    def test_density_normalization_checked(self):
        sp = unit_space(2)
        with pytest.raises(ValueError):
            check_density(sp, [0.5, 0.6])

    def test_vbar_shape(self):
        with pytest.raises(ValueError):
            AffineHamiltonian([0.0, 1.0], [[0.0, 1.0, 2.0]])

    @pytest.mark.parametrize(
        "fn, args, name, shape",
        [
            (MicrostateSpace, (("a",), [[1.0]]), "weights", (1, 1)),
            (AffineHamiltonian, ([[0.0, 1.0]], [[1.0, 1.0]]), "v_int", (1, 2)),
            (AffineHamiltonian, ([0.0], [1.0]), "v_bar", (1,)),
            (AffineHamiltonian, ([0.0], [[[1.0]]]), "v_bar", (1, 1, 1)),
            (AffineHamiltonian([0.0], [[1.0]]).energies, ([[0.3]],), "q", (1, 1)),
            (gibbs, (unit_space(1), AffineHamiltonian([0.0], [[1.0]]), 1.0, [[0.3]]), "q", (1, 1)),
            (normalized_density, (unit_space(2), [[1.0], [1.0]]), "density values", (2, 1)),
        ],
    )
    def test_nested_arrays_are_rejected_by_name(self, fn, args, name, shape):
        ndim = 2 if name == "v_bar" else 1
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert str(info.value) == f"{name} must have {ndim} dimension(s), got shape {shape}"

    def test_entries_that_are_not_numbers_are_named(self):
        with pytest.raises(ValueError, match="^weights must be an array of numbers: "):
            MicrostateSpace(("a",), [{}])
        with pytest.raises(ValueError, match="^v_bar must be an array of numbers: "):
            AffineHamiltonian([0.0, 1.0], [[1.0], [1.0, 2.0]])

    def test_a_number_is_a_vector_of_one(self):
        sp, h = unit_space(2), AffineHamiltonian([0.0, 1.0], [[1.0, -1.0]])
        assert np.array_equal(h.energies(0.3), h.energies([0.3]))
        assert np.array_equal(gibbs(sp, h, 1.0, 0.3).rho_g, gibbs(sp, h, 1.0, [0.3]).rho_g)
        assert np.array_equal(MicrostateSpace(("a",), 2.0).weights, [2.0])


# every function that takes a density, given rho on a 3-state space
DENSITY_ENTRY_POINTS = {
    "check_density": lambda sp, h, rho: check_density(sp, rho),
    "entropy": lambda sp, h, rho: entropy(sp, rho),
    "internal_energy": lambda sp, h, rho: internal_energy(sp, h, rho),
    "pressures": lambda sp, h, rho: pressures(sp, h, rho),
    "free_energy": lambda sp, h, rho: free_energy(sp, h, 1.0, [0.0], rho),
    "lift_to_extended": lambda sp, h, rho: lift_to_extended(sp, h, 1.0, [0.0], rho),
    "total_variation_a": lambda sp, h, rho: total_variation(sp, rho, uniform_density(sp)),
    "total_variation_b": lambda sp, h, rho: total_variation(sp, uniform_density(sp), rho),
    "fokker_planck_relax": lambda sp, h, rho: fokker_planck_relax(
        sp, h, [0.0], lambda t: 1.0, rho, 0.1, 0.5
    ),
}
BAD_DENSITIES = {
    "length": ([0.5, 0.5], "2 entries for a space of 3"),
    "negative": ([-0.1, 0.6, 0.5], "negative or non-finite"),
    "nan": ([math.nan, 0.5, 0.5], "negative or non-finite"),
    "inf": ([math.inf, 0.5, 0.5], "negative or non-finite"),
    "mass": ([0.5, 0.3, 0.3], "mass is 1.1"),
    "nested": ([[0.2, 0.3, 0.5]], r"density must have 1 dimension\(s\), got shape \(1, 3\)"),
}


class TestDensityContract:
    @pytest.fixture
    def system(self):
        return unit_space(3), AffineHamiltonian([0.0, 0.5, 1.0], [[1.0, 0.0, -1.0]])

    @pytest.mark.parametrize("bad", BAD_DENSITIES)
    @pytest.mark.parametrize("entry", DENSITY_ENTRY_POINTS)
    def test_every_entry_point_rejects_a_bad_density(self, system, entry, bad):
        rho, message = BAD_DENSITIES[bad]
        with pytest.raises(ValueError, match=message):
            DENSITY_ENTRY_POINTS[entry](*system, rho)

    @pytest.mark.parametrize("entry", DENSITY_ENTRY_POINTS)
    def test_every_entry_point_takes_a_plain_row(self, system, entry):
        rho = [0.2, 0.3, 0.5]
        DENSITY_ENTRY_POINTS[entry](*system, rho)
        DENSITY_ENTRY_POINTS[entry](*system, np.array(rho))

    def test_check_returns_a_read_only_copy(self):
        rho = np.array([0.2, 0.3, 0.5])
        r = check_density(unit_space(3), rho)
        assert r is not rho and rho.flags.writeable and np.array_equal(r, rho)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_normalized_density_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="finite"):
            normalized_density(unit_space(3), [value, 1.0, 1.0])

    def test_normalized_density_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="positive total mass"):
            normalized_density(unit_space(3), [0.0, 0.0, 0.0])

    def test_returned_densities_are_read_only_float_rows(self, system):
        sp, h = system
        trace = fokker_planck_relax(sp, h, [0.0], lambda t: 1.0, [0.2, 0.3, 0.5], 0.1, 0.5)
        assert trace.densities.shape == (trace.t_grid.size, 3)
        rows = [
            gibbs(sp, h, 1.0, [0.2]).rho_g,
            uniform_density(sp),
            normalized_density(sp, [1, 2, 3]),
            *trace.densities,
        ]
        for r in rows:
            assert r.dtype == np.float64 and r.shape == (3,)
            assert not r.flags.writeable


class TestEntropy:
    def test_uniform_four_states(self):
        sp = unit_space(4)
        assert abs(entropy(sp, uniform_density(sp)) - math.log(4)) < 1e-14

    def test_point_mass_zero(self):
        sp = unit_space(4)
        assert entropy(sp, [1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_zero_entropy_is_positive_zero(self):
        # -(0.0) would be -0.0, which prints as "-0"
        for sp, rho in ((unit_space(1), [1.0]), (unit_space(3), [0.0, 1.0, 0.0])):
            assert math.copysign(1.0, entropy(sp, rho)) == 1.0
        h = AffineHamiltonian([1.0], [[1.0]])
        _, S, _ = lift_to_extended(unit_space(1), h, 1.0, [0.3], [1.0])
        assert math.copysign(1.0, S) == 1.0

    def test_two_state_value(self):
        sp = unit_space(2)
        assert abs(entropy(sp, [0.25, 0.75]) - 0.5623351446188083) < 1e-12

    def test_bounds_for_unit_weights(self):
        rng = np.random.default_rng(5)
        for m in (2, 5, 17):
            sp = unit_space(m)
            for _ in range(50):
                s = entropy(sp, random_density(rng, sp))
                assert -1e-15 <= s <= math.log(m) + 1e-12

    def test_nonnegative_for_weights_at_least_one(self):
        rng = np.random.default_rng(6)
        sp = MicrostateSpace(("a", "b", "c"), rng.uniform(1.0, 3.0, 3))
        for _ in range(100):
            assert entropy(sp, random_density(rng, sp)) >= 0.0


class TestEnergetics:
    def test_zero_internal_energy(self):
        sp = unit_space(3)
        h = AffineHamiltonian(np.zeros(3), np.ones((1, 3)))
        assert internal_energy(sp, h, uniform_density(sp)) == 0.0

    def test_point_mass_picks_one_state(self):
        sp = unit_space(3)
        h = AffineHamiltonian([0.5, 1.5, -2.0], np.zeros((1, 3)))
        assert internal_energy(sp, h, [0.0, 1.0, 0.0]) == 1.5

    def test_uniform_two_state_mean(self):
        sp = unit_space(2)
        h = AffineHamiltonian([1.0, 3.0], np.zeros((1, 2)))
        assert internal_energy(sp, h, uniform_density(sp)) == 2.0

    def test_pressures_zero_vbar(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((2, 2)))
        assert np.array_equal(pressures(sp, h, uniform_density(sp)), np.zeros(2))

    def test_pressures_point_mass(self):
        sp = unit_space(3)
        vb = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 5.0]])
        h = AffineHamiltonian(np.zeros(3), vb)
        p = pressures(sp, h, [0.0, 1.0, 0.0])
        assert np.allclose(p, [-2.0, 1.0], atol=0)

    def test_pressures_two_state_mixture(self):
        sp = unit_space(2)
        h = AffineHamiltonian(np.zeros(2), [[1.0, -1.0]])
        p = pressures(sp, h, [0.25, 0.75])
        assert abs(p[0] - 0.5) < 1e-15


class TestFreeEnergy:
    def test_pure_entropy_term(self):
        for m in (2, 6):
            sp = unit_space(m)
            h = AffineHamiltonian(np.zeros(m), np.zeros((1, m)))
            for T in (0.5, 1.0, 3.0):
                g = free_energy(sp, h, T, [0.0], uniform_density(sp))
                assert abs(g + T * math.log(m)) < 1e-12

    def test_point_mass_at_zero_field(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.7, -0.2], [[1.0, 2.0]])
        g = free_energy(sp, h, 1.0, [0.0], [0.0, 1.0])
        assert abs(g + 0.2) < 1e-15

    def test_two_state_value(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        g = free_energy(sp, h, 1.0, [0.0], [0.5, 0.5])
        assert abs(g - (0.5 - math.log(2))) < 1e-14

    def test_two_route_equality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            sp, h = random_system(rng, int(rng.integers(2, 20)), int(rng.integers(1, 4)))
            T = float(rng.uniform(0.4, 3.0))
            q = rng.normal(size=h.n)
            d = random_density(rng, sp)
            route1 = free_energy(sp, h, T, q, d)
            route2 = (
                internal_energy(sp, h, d)
                - T * entropy(sp, d)
                - float(np.dot(pressures(sp, h, d), q))
            )
            assert abs(route1 - route2) < 1e-12


class TestGibbs:
    def test_flat_hamiltonian_is_uniform(self):
        sp = unit_space(5)
        h = AffineHamiltonian(np.zeros(5), np.zeros((1, 5)))
        res = gibbs(sp, h, 1.3, [0.0])
        assert abs(res.log_z - math.log(5)) < 1e-14
        assert np.allclose(res.rho_g, 0.2, atol=1e-15)

    def test_two_state_closed_form(self):
        sp = unit_space(2)
        for E in (0.3, 1.0, 4.0):
            for T in (0.5, 1.0, 2.0):
                h = AffineHamiltonian([0.0, E], np.zeros((1, 2)))
                res = gibbs(sp, h, T, [0.0])
                expect = 1.0 / (1.0 + math.exp(-E / T))
                assert abs(res.rho_g[0] - expect) < 1e-14

    def test_high_temperature_limit(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], np.zeros((1, 2)))
        res = gibbs(sp, h, 1e6, [0.0])
        assert np.abs(res.rho_g - 0.5).max() < 1e-6

    def test_small_temperature_does_not_overflow(self):
        sp = unit_space(3)
        h = AffineHamiltonian([0.0, 500.0, 1000.0], np.zeros((1, 3)))
        res = gibbs(sp, h, 1e-2, [0.0])
        assert math.isfinite(res.log_z)
        assert abs(res.rho_g[0] - 1.0) < 1e-12

    def test_minimality_over_random_densities(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            sp, h = random_system(rng, 12, 2)
            T = float(rng.uniform(0.5, 2.0))
            q = rng.normal(size=2)
            g_min = free_energy(sp, h, T, q, gibbs(sp, h, T, q).rho_g)
            for _ in range(1000):
                d = random_density(rng, sp)
                assert g_min <= free_energy(sp, h, T, q, d) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_minimality_property(self, data):
        # G at the Gibbs density is the least G over densities, to roundoff
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
        T = data.draw(st.floats(0.05, 20.0))
        q = data.draw(arrays(float, n, elements=value))
        g_min = free_energy(sp, h, T, q, gibbs(sp, h, T, q).rho_g)
        for _ in range(5):
            raw = data.draw(arrays(float, m, elements=st.floats(0.0, 10.0)))
            raw[data.draw(st.integers(0, m - 1))] = 1.0
            g = free_energy(sp, h, T, q, normalized_density(sp, raw))
            assert g_min <= g + 1e-12 * max(abs(g), 1.0)

    def test_stationarity_spread(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sp, h = random_system(rng, int(rng.integers(2, 30)), 2)
            T = float(rng.uniform(0.4, 2.5))
            q = rng.normal(size=2)
            rho = gibbs(sp, h, T, q).rho_g
            grad = T * (1.0 + np.log(rho)) + h.energies(q)
            assert grad.max() - grad.min() < 1e-9

    def test_gibbs_mass_is_one(self):
        rng = np.random.default_rng(22)
        sp, h = random_system(rng, 40, 3)
        res = gibbs(sp, h, 0.7, rng.normal(size=3))
        assert abs(float(np.dot(sp.weights, res.rho_g)) - 1.0) < 1e-12


class TestLift:
    def test_flat_system_lift(self):
        sp = unit_space(4)
        h = AffineHamiltonian(np.zeros(4), np.zeros((1, 4)))
        T = 1.7
        z, S, p = lift_to_extended(sp, h, T, [0.0], uniform_density(sp))
        assert abs(z - T * math.log(4)) < 1e-12
        assert abs(S - math.log(4)) < 1e-14
        assert np.allclose(p, 0.0, atol=0)

    def test_gibbs_lift_sits_on_equilibrium_graph(self):
        # S and p match minus the finite-difference T/q derivatives of
        # the minimized free energy
        rng = np.random.default_rng(29)
        step = 1e-5
        for _ in range(20):
            sp, h = random_system(rng, int(rng.integers(2, 24)), int(rng.integers(1, 4)))
            T = float(rng.uniform(0.6, 2.2))
            q = rng.normal(size=h.n)

            def g_star(T_, q_):
                return free_energy(sp, h, T_, q_, gibbs(sp, h, T_, q_).rho_g)

            _, S, p = lift_to_extended(sp, h, T, q, gibbs(sp, h, T, q).rho_g)
            dT = (g_star(T + step, q) - g_star(T - step, q)) / (2 * step)
            assert abs(S + dT) < 1e-6
            for j in range(h.n):
                e = np.zeros(h.n)
                e[j] = step
                dq = (g_star(T, q + e) - g_star(T, q - e)) / (2 * step)
                assert abs(p[j] + dq) < 1e-6

    def test_non_gibbs_density_lifts_off_graph(self):
        sp = unit_space(2)
        h = AffineHamiltonian([0.0, 1.0], [[1.0, -1.0]])
        d = [0.9, 0.1]
        z, _, _ = lift_to_extended(sp, h, 1.0, [0.2], d)
        res = gibbs(sp, h, 1.0, [0.2])
        z_on_graph, _, _ = lift_to_extended(sp, h, 1.0, [0.2], res.rho_g)
        assert z < z_on_graph  # strictly higher free energy off equilibrium


class TestSerialization:
    def test_system_json_roundtrip(self, tmp_path):
        sp = MicrostateSpace(("u", "v"), [1.0, 2.0])
        h = AffineHamiltonian([0.0, 1.5], [[0.5, -0.5], [1.0, 0.0]])
        dest = tmp_path / "system.json"
        save_system(sp, h, str(dest))
        sp2, h2 = load_system(str(dest))
        assert sp2.labels == sp.labels
        assert np.array_equal(sp2.weights, sp.weights)
        assert np.array_equal(h2.v_int, h.v_int)
        assert np.array_equal(h2.v_bar, h.v_bar)

    def test_load_from_dict_and_missing_keys(self):
        doc = {"labels": ["a"], "weights": [1.0], "v_int": [0.0], "v_bar": [[1.0]]}
        sp, h = load_system(doc)
        assert sp.m == 1 and h.n == 1
        with pytest.raises(ValueError, match="missing"):
            load_system({"labels": ["a"], "weights": [1.0]})

    def test_densities_csv_roundtrip(self):
        sp = unit_space(3)
        rows = [uniform_density(sp), [0.5, 0.25, 0.25]]
        buf = io.StringIO()
        densities_to_csv(rows, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "rho_1,rho_2,rho_3"
        back = densities_from_csv(io.StringIO(text))
        assert back.shape == (2, 3) and not back.flags.writeable
        for a, b in zip(rows, back):
            assert np.array_equal(a, b)

    def test_system_json_roundtrip_through_a_path(self, tmp_path):
        sp = MicrostateSpace(("u", "v"), [1.0, 2.0])
        h = AffineHamiltonian([0.0, 1.5], [[0.5, -0.5]])
        save_system(sp, h, tmp_path / "system.json")
        sp2, h2 = load_system(tmp_path / "system.json")
        assert sp2.labels == sp.labels and np.array_equal(h2.v_bar, h.v_bar)

    def test_densities_csv_roundtrip_through_a_path(self, tmp_path):
        rows = np.array([[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])
        densities_to_csv(rows, tmp_path / "rho.csv")
        assert np.array_equal(densities_from_csv(tmp_path / "rho.csv"), rows)

    def test_system_state_count_mismatch(self):
        doc = {"labels": ["a", "b"], "weights": [1, 1], "v_int": [0.0], "v_bar": [[1.0]]}
        with pytest.raises(ValueError):
            load_system(doc)
