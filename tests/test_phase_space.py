import io

import numpy as np
import pytest

from thermocontact import (
    ReductionError,
    ReductionSpec,
    SampledPath,
    admissibility_decrement,
    check_path_nonnegative,
    irreversible_entropy_rate,
    path_from_csv,
    path_to_csv,
    reduce,
)
from thermocontact.models import cw_entropy
from thermocontact.phase_space import _derivatives, write_csv


# Paths through one point with one constant velocity: every column is
# value + rate * t.  On the integer times 0, 1, 2 and with small whole or
# half rates the gradient gives the rate exactly at every sample.  With the
# rates left at zero and the times T2 a path is one state sampled twice.
T3 = np.arange(3.0)
T2 = np.arange(2.0)


def _line(value, rate, t):
    """Columns value + rate * t, shape (N, len(value))."""
    return np.atleast_1d(value) + np.multiply.outer(t, np.atleast_1d(rate))


def ext_line(z=0.0, S=1.0, T=1.0, p=(0.0,), q=(0.0,), dz=0.0, dT=0.0, dq=(0.0,), t=T3):
    """An extended path with constant S and p and rates dz, dT, dq."""
    return SampledPath(
        t, z + dz * t, _line(p, 0.0, t), _line(q, dq, t), np.full(t.size, S), T + dT * t
    )


def red_line(z=0.0, p=(0.0,), q=(0.0,), dz=0.0, dq=(0.0,), t=T3):
    """A reduced path with constant p and rates dz, dq."""
    return SampledPath(t, z + dz * t, _line(p, 0.0, t), _line(q, dq, t))


def form_values(path):
    return check_path_nonnegative(path).per_step_values


class TestPointValidation:
    """The per-sample rules, which every sample of a path must meet."""

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            ext_line(T=0.0, t=T2)
        with pytest.raises(ValueError):
            ext_line(T=-1.0, t=T2)

    def test_entropy_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ext_line(S=-0.1, t=T2)

    def test_pq_lengths_must_match(self):
        p, q = np.ones((2, 2)), np.ones((2, 1))
        with pytest.raises(ValueError):
            SampledPath(T2, np.zeros(2), p, q, np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            SampledPath(T2, np.zeros(2), p, q)

    def test_points_are_immutable(self):
        path = ext_line(t=T2)
        with pytest.raises(Exception):
            path.z = np.ones(2)
        with pytest.raises(Exception):
            path.p[0, 0] = 5.0


class TestExtendedForm:
    def test_reeb_direction(self):
        assert np.all(form_values(ext_line(dz=1.0)) == 1.0)

    def test_contact_plane_tangent(self):
        path = ext_line(S=2.0, p=(3.0,), dz=2.0 * 1.0 + 3.0 * 1.0, dT=1.0, dq=(1.0,))
        assert np.all(form_values(path) == 0.0)

    def test_pure_temperature_move_of_z_constant_path(self):
        assert np.all(form_values(ext_line(S=1.0, p=(0.0,), dT=1.0)) == -1.0)

    def test_linear_in_velocity(self):
        rng = np.random.default_rng(7)
        t = np.array([0.0, 0.1, 0.2])
        pt = dict(S=1.3, p=rng.normal(size=3), q=rng.normal(size=3))
        va, vb = (dict(dz=rng.normal(), dT=rng.normal(), dq=rng.normal(size=3)) for _ in "ab")
        combo = {k: 2.0 * va[k] - 3.0 * vb[k] for k in va}
        fa, fb, fc = (form_values(ext_line(**pt, **v, t=t)) for v in (va, vb, combo))
        assert np.abs(fc - (2.0 * fa - 3.0 * fb)).max() < 1e-12


class TestReducedForm:
    def test_reeb_direction(self):
        assert np.all(form_values(red_line(p=(1.0,), dz=1.0)) == 1.0)

    def test_arithmetic_example(self):
        assert np.all(form_values(red_line(p=(2.0,), dz=1.0, dq=(1.0,))) == -1.0)

    def test_vanishes_on_jet_graph_tangents_fd(self):
        # a three-sample path along {z = f(q), p = f'(q)}; its middle
        # velocity is the central finite difference
        rng = np.random.default_rng(11)
        step = 1e-5
        for _ in range(50):
            a = rng.normal(size=4)

            def f(x):
                return a[0] + a[1] * x + a[2] * x * x + a[3] * np.sin(x)

            def fp(x):
                return a[1] + 2 * a[2] * x + a[3] * np.cos(x)

            x = float(rng.uniform(-2, 2))
            dq = float(rng.uniform(-1, 1))
            t = np.array([-step, 0.0, step])
            q = x + dq * t
            path = SampledPath(t, f(q), fp(q), q)
            assert abs(form_values(path)[1]) < 1e-8


class TestPathChecks:
    def chord_path(self, L, n=20):
        t = np.linspace(0.0, 1.0, n)
        return SampledPath(t, 0.5 + t * L, np.full(n, 2.0), np.full(n, -0.5))

    def test_upward_chord_is_nonnegative_with_min_L(self):
        rep = check_path_nonnegative(self.chord_path(0.7))
        assert rep.verdict == "nonnegative"
        assert abs(rep.min_form_value - 0.7) < 1e-12

    def test_reversed_chord_is_violated(self):
        rep = check_path_nonnegative(self.chord_path(-0.7))
        assert rep.verdict == "violated"
        assert rep.violating_indices

    def test_gas_isotherm_is_reversible(self):
        from thermocontact.models import IdealGasParams, gas_front

        front = gas_front(IdealGasParams(T=1.7, P_back=0.4))
        t = np.linspace(0.0, 1.0, 801)
        qs = -2.0 + 0.8 * t
        path = SampledPath(t, front.value(qs), front.slope(qs), qs)
        rep = check_path_nonnegative(path, slack=1e-6)
        assert rep.verdict == "nonnegative"
        assert abs(rep.min_form_value) < 1e-6

    def test_refinement_keeps_passing(self):
        for n in (101, 201):
            t = np.linspace(0.0, 1.0, n)
            path = SampledPath(t, np.sin(t) + 2.0 * t, np.cos(t), t)
            rep = check_path_nonnegative(path, slack=1e-3)
            assert rep.verdict == "nonnegative"

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            SampledPath(np.array([0.0]), [0.0], [1.0], [0.0])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledPath(np.array([0.0, 0.0]), [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])

    def test_interior_velocities_are_second_order(self):
        # quadratic coordinates are differentiated exactly at interior nodes
        t = np.linspace(0.0, 1.0, 11)
        dz, dT, dq = _derivatives(SampledPath(t, 3 * t**2, t, 2 * t))
        assert dT is None
        for ti, dz_i, (dq_i,) in list(zip(t, dz, dq))[1:-1]:
            assert abs(dz_i - 6 * ti) < 1e-12
            assert abs(dq_i - 2.0) < 1e-12

    def test_extended_velocities_carry_all_coordinates(self):
        t = np.linspace(0.0, 1.0, 7)
        p, q = np.column_stack([3.0 * t, 0 * t]), np.column_stack([0 * t, -t])
        dz, dT, dq = _derivatives(SampledPath(t, t, p, q, 2.0 * t, 1.0 + t))
        assert abs(dz[3] - 1.0) < 1e-12
        assert abs(dT[3] - 1.0) < 1e-12
        assert abs(dq[3, 1] + 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 201])
    @pytest.mark.parametrize("kind", ["extended", "reduced"])
    def test_derivatives_are_the_gradient_columns(self, n, kind):
        # each derivative has the bits of its column of the coordinate
        # matrix's gradient, on a non-uniform grid
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(0.1, 1.0, n))
        p, q = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        ST = (rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 2.0, n)) if kind == "extended" else ()
        path = SampledPath(t, rng.normal(size=n), p, q, *ST)
        whole = np.gradient(path.coordinates(), path.times, axis=0,
                            edge_order=2 if n >= 3 else 1)
        dz, dT, dq = _derivatives(path)
        assert np.array_equal(dz, whole[:, 0])
        if kind == "extended":
            assert np.array_equal(dT, whole[:, 2])
        else:
            assert dT is None
        assert np.array_equal(dq, whole[:, -3:])


class TestColumns:
    def ext_path(self, n_rows=6, **cols):
        t = np.linspace(0.0, 1.0, n_rows)
        base = dict(
            z=2.0 * t, p=np.column_stack([t, 0 * t]), q=np.column_stack([-t, t]),
            S=np.ones(n_rows), T=1.0 + t,
        )
        base.update(cols)
        return SampledPath(t, base["z"], base["p"], base["q"], base["S"], base["T"])

    def test_columns_are_read_only_copies(self):
        z = np.arange(4.0)
        path = SampledPath(np.arange(4.0), z, z, -z)
        assert path.p.shape == (4, 1) and path.dimension == 1
        assert z.flags.writeable
        with pytest.raises(ValueError):
            path.z[0] = 5.0
        z[0] = 5.0
        assert path.z[0] == 0.0

    def test_errors_name_the_first_offending_sample(self):
        T = np.array([1.0, 1.0, 1.0, 0.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="temperature must be positive.*sample 3"):
            self.ext_path(T=T)
        S = np.array([1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="entropy must be non-negative.*sample 2"):
            self.ext_path(S=S)
        z = np.array([0.0, 1.0, 2.0, 3.0, np.inf, np.nan])
        with pytest.raises(ValueError, match=r"^z must be finite, got inf at index 4$"):
            self.ext_path(z=z)
        with pytest.raises(ValueError, match="strictly increasing.*sample 2"):
            SampledPath([0.0, 1.0, 1.0, 0.5], np.zeros(4), np.zeros(4), np.zeros(4))

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="p and q"):
            self.ext_path(q=np.zeros((6, 3)))
        with pytest.raises(ValueError, match="z must have shape"):
            self.ext_path(z=np.zeros(5))
        with pytest.raises(ValueError, match="both S and T"):
            SampledPath(np.arange(3.0), np.zeros(3), np.zeros(3), np.zeros(3), S=np.ones(3))

    def test_reduce_names_the_first_offending_sample(self):
        p = np.zeros((6, 2))
        p[[3, 5], 1] = 0.5
        T = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 1.0])
        path = self.ext_path(p=p, T=T)
        with pytest.raises(ReductionError, match=r"p_2 \(sample 3\)"):
            reduce(path, ReductionSpec(k=1, zeroed_p=(1,), T0=1.0))
        T[2] = 2.0
        with pytest.raises(ReductionError, match=r"temperature constraint violated \(sample 2\)"):
            reduce(self.ext_path(p=p, T=T), ReductionSpec(k=1, zeroed_p=(1,), T0=1.0))


class TestAdmissibilityDecrement:
    def test_temperature_only_reduction(self):
        path = ext_line(S=2.0, dT=0.5)
        spec = ReductionSpec(k=1, T0=1.0)
        assert np.all(admissibility_decrement(path, spec) == 1.0)

    def test_nothing_reduced_gives_zero(self):
        # S moves at rate 0.3 while T stays put
        t = T3
        path = SampledPath(t, 1.0 * t, 0.4 * t, 0.9 * t, 2.0 + 0.3 * t, np.ones(3))
        assert np.all(admissibility_decrement(path, ReductionSpec(k=1)) == 0.0)

    def test_magnet_entropy_makes_heating_admissible(self):
        # S comes from the mixing-entropy formula, positive away from saturation
        for M in (-0.9, -0.2, 0.0, 0.4, 0.8):
            path = ext_line(S=cw_entropy(M), T=1.0, p=(M,), q=(0.1,), dT=0.7)
            assert np.all(admissibility_decrement(path, ReductionSpec(k=1, T0=1.0)) > 0)

    def test_frozen_indices_contribute(self):
        path = ext_line(S=1.0, p=(1.0, 2.0), q=(0.0, 0.0), dq=(0.0, 0.5))
        spec = ReductionSpec(k=1, frozen_q={1: 0.0})
        assert np.all(admissibility_decrement(path, spec) == 1.0)

    def test_needs_an_extended_path(self):
        with pytest.raises(ValueError, match="extended"):
            admissibility_decrement(red_line(), ReductionSpec(k=1))


class TestReduce:
    @pytest.mark.parametrize("spec", [ReductionSpec(k=1, frozen_q={0: None, 1: 3.0}),
                                      ReductionSpec(k=1, frozen_q={1: 3.0}, zeroed_p=(1,))])
    def test_overlapping_index_sets_are_rejected(self, spec):
        path = ext_line(z=1.5, S=0.7, T=2.0, p=(0.4, 0.0), q=(1.1, 3.0), t=T2)
        with pytest.raises(ValueError, match="^kept, frozen and zeroed index sets must be disjoint$"):
            reduce(path, spec)

    def test_projection_example(self):
        path = ext_line(z=1.5, S=0.7, T=2.0, p=(0.4, 0.0), q=(1.1, 3.0), t=T2)
        spec = ReductionSpec(k=1, frozen_q={}, zeroed_p=(1,), T0=2.0)
        # n=2 with q_2 reduced via freezing is the other standard layout
        spec2 = ReductionSpec(k=1, frozen_q={1: 3.0}, zeroed_p=(), T0=2.0)
        red = reduce(path, spec)
        assert red.kind == "reduced" and red.dimension == 1
        assert np.all(red.z == 1.5) and np.all(red.p == 0.4) and np.all(red.q == 1.1)
        red2 = reduce(path, spec2)
        assert np.all(red2.q == 1.1)

    def test_zeroed_constraint_violation(self):
        path = ext_line(p=(0.4, 0.1), q=(0.0, 0.0), t=T2)
        spec = ReductionSpec(k=1, zeroed_p=(1,), T0=1.0)
        with pytest.raises(ReductionError, match=r"p_2 \(sample 0\)"):
            reduce(path, spec)

    def test_temperature_pin_violation(self):
        with pytest.raises(ReductionError, match="temperature"):
            reduce(ext_line(T=1.5, t=T2), ReductionSpec(k=1, T0=1.0))

    def test_frozen_pin_violation(self):
        path = ext_line(p=(0.4, 0.0), q=(0.0, 2.0), t=T2)
        with pytest.raises(ReductionError, match="q_2"):
            reduce(path, ReductionSpec(k=1, frozen_q={1: 1.0}))

    def test_partition_must_cover_all_indices(self):
        path = ext_line(p=(0.4, 0.0, 0.0), q=(0.0, 2.0, 1.0), t=T2)
        with pytest.raises(ValueError, match="partition"):
            reduce(path, ReductionSpec(k=1, frozen_q={1: 2.0}))

    def test_reduced_paths_stay_nonnegative(self):
        # admissible extended paths (form >= 0, decrement >= 0, p_E = 0)
        # project to non-negative reduced paths
        rng = np.random.default_rng(23)
        t = np.linspace(0.0, 1.0, 201)
        for _ in range(100):
            S = 0.6 + 0.3 * np.sin(2.1 * t + rng.uniform(0, 6))
            Tdot = 0.3 + 0.2 * np.sin(1.7 * t + rng.uniform(0, 6)) ** 2
            T = 1.0 + np.concatenate(
                [[0.0], np.cumsum((Tdot[1:] + Tdot[:-1]) / 2 * np.diff(t))]
            )
            p1 = np.sin(1.3 * t + rng.uniform(0, 6))
            phase = rng.uniform(0, 6)
            q1 = np.cos(0.9 * t + phase)
            q1dot = -0.9 * np.sin(0.9 * t + phase)
            p2 = 0.3 + 0.2 * np.cos(1.1 * t)  # frozen index, positive
            q2dot = 0.25 + 0.2 * np.sin(0.8 * t) ** 2  # non-decreasing
            q2 = np.concatenate(
                [[0.0], np.cumsum((q2dot[1:] + q2dot[:-1]) / 2 * np.diff(t))]
            )
            p3 = np.zeros_like(t)  # zeroed index
            q3 = np.sin(t)
            budget = S * Tdot + p1 * q1dot + p2 * q2dot
            zdot = budget + 0.02
            z = np.concatenate(
                [[0.0], np.cumsum((zdot[1:] + zdot[:-1]) / 2 * np.diff(t))]
            )
            p, q = np.column_stack([p1, p2, p3]), np.column_stack([q1, q2, q3])
            spec = ReductionSpec(k=1, frozen_q={1: None}, zeroed_p=(2,))
            red = reduce(SampledPath(t, z, p, q, S, T), spec)
            rep = check_path_nonnegative(red, slack=1e-9)
            assert rep.verdict == "nonnegative"

    def test_reduce_requires_extended_path(self):
        with pytest.raises(ValueError):
            reduce(red_line(p=(1.0,), t=T2), ReductionSpec(k=1))


class TestEntropyRate:
    def test_reversible_tangent_has_zero_rate(self):
        path = ext_line(S=2.0, T=2.0, p=(3.0,), dz=2.0 * 1.0 + 3.0 * 0.5, dT=1.0, dq=(0.5,))
        assert np.abs(irreversible_entropy_rate(path)).max() < 1e-15

    def test_reeb_direction_rate(self):
        assert np.all(irreversible_entropy_rate(ext_line(T=2.0, dz=1.0)) == 0.5)

    def test_nonnegative_on_accepted_paths(self):
        t = np.linspace(0.0, 1.0, 30)
        path = SampledPath(t, 1.5 * t, np.zeros(30), np.zeros(30), np.ones(30), 1.0 + t)
        rep = check_path_nonnegative(path, slack=0.0)
        assert rep.verdict == "nonnegative"
        assert np.all(irreversible_entropy_rate(path) >= 0.0)

    def test_needs_an_extended_path(self):
        with pytest.raises(ValueError, match="extended"):
            irreversible_entropy_rate(red_line())


class TestSerialization:
    @pytest.mark.parametrize("rows, shape", [([[1.0]], (1, 1)), ([1.0, 2.0], (2,))])
    def test_rows_that_do_not_fit_the_header(self, rows, shape):
        with pytest.raises(ValueError) as info:
            write_csv(io.StringIO(), ["a", "b"], rows)
        assert str(info.value) == f"rows of shape {shape} do not fit a 2-column header"

    def test_extended_roundtrip(self):
        t = np.linspace(0.0, 1.0, 5)
        p, q = np.column_stack([t, -t]), np.column_stack([np.full(5, 0.5), t])
        path = SampledPath(t, 1.0 / 3 + t, p, q, np.full(5, 0.1), np.full(5, 2.0))
        buf = io.StringIO()
        path_to_csv(path, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "t,z,S,T,p_1,p_2,q_1,q_2"
        back = path_from_csv(io.StringIO(text))
        assert back.kind == "extended"
        for name in ("times", "z", "S", "T", "p", "q"):
            assert np.array_equal(getattr(back, name), getattr(path, name))

    def test_roundtrip_through_a_path(self, tmp_path):
        t = np.array([0.0, 0.5])
        path = SampledPath(t, np.full(2, 1.0 / 7), np.full(2, 2.0), t)
        path_to_csv(path, tmp_path / "path.csv")
        back = path_from_csv(tmp_path / "path.csv")
        for name in ("times", "z", "p", "q"):
            assert np.array_equal(getattr(back, name), getattr(path, name))

    def test_reduced_roundtrip_header(self):
        t = np.array([0.0, 0.5])
        buf = io.StringIO()
        path_to_csv(SampledPath(t, np.full(2, 1.0 / 7), np.full(2, 2.0), t), buf)
        assert buf.getvalue().splitlines()[0] == "t,z,p_1,q_1"
        back = path_from_csv(io.StringIO(buf.getvalue()))
        assert back.kind == "reduced"
        assert back.z[0] == 1.0 / 7

    @pytest.mark.parametrize(
        "header",
        ["t,z,S,p_1,q_1", "t,z,S,T,p_1,q_2", "t,z,S,T", "t,z", "t,z,q_1,p_1", "z,t,p_1,q_1",
         "t,z,S,T,p_1,q_1,x"],
    )
    def test_header_must_be_a_path_header(self, header):
        width = len(header.split(","))
        text = header + "\n" + "\n".join([",".join(["1"] * width)] * 2) + "\n"
        with pytest.raises(ValueError, match="path CSV line 1: header"):
            path_from_csv(io.StringIO(text))

    def test_report_json_fields(self):
        import json

        t = np.linspace(0.0, 1.0, 4)
        rep = check_path_nonnegative(SampledPath(t, -t, np.ones(4), np.zeros(4)))
        doc = json.loads(rep.to_json())
        assert set(doc) == {"min_form_value", "violations", "verdict"}
        assert doc["verdict"] == "violated"
        assert doc["violations"]
