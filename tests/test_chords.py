import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocontact import (
    Chord,
    DegenerateChordError,
    DegenerateFamilyError,
    IdealGasParams,
    chords_to_csv,
    chords_to_json,
    constant_front,
    cw_chord,
    cw_from_barred,
    difference_front,
    find_chords,
    gas_chord,
    gas_from_barred,
    gas_front,
)
from thermocontact.models import FrontFunction


class TestGasChord:
    def test_reference_parameters(self):
        ch = gas_chord(1.0, 5.0, 2.0)
        assert -ch.q == 0.5  # initial pressure
        assert ch.p == 2.0  # volume
        assert abs(ch.length - 4 * math.log(2)) < 1e-15
        assert ch.direction == 1

    def test_endpoints_on_their_fronts(self):
        ch = gas_chord(1.0, 5.0, 2.0)
        cold = gas_front(IdealGasParams(T=1.0, P_back=0.0))
        hot = gas_front(IdealGasParams(T=5.0, P_back=2.0))
        assert abs(ch.z_start - cold.value(ch.q)) < 1e-8
        assert abs(ch.z_end - hot.value(ch.q)) < 1e-8
        assert abs(ch.p - cold.slope(ch.q)) < 1e-8
        assert abs(ch.p - hot.slope(ch.q)) < 1e-8

    def test_direction_flips_for_large_jump(self):
        # pressure jump above the temperature gap compresses below unit volume
        ch = gas_chord(1.0, 5.0, 8.0)
        assert ch.p == 0.5
        assert ch.direction == -1

    def test_degenerate_jump(self):
        with pytest.raises(DegenerateChordError):
            gas_chord(1.0, 5.0, 4.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gas_chord(5.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            gas_chord(1.0, 5.0, -2.0)


class TestCWChord:
    def test_reference_parameters(self):
        ch = cw_chord(2.0, 10.0 / 3.0, 1.0, 1.0)
        assert abs(ch.p - math.tanh(0.75)) < 1e-12
        assert abs(ch.q - (1.5 - math.tanh(0.75))) < 1e-12
        assert ch.direction == 1

    def test_zero_jump_with_temperature_raise(self):
        ch = cw_chord(1.0, 2.5, 0.0, 1.0)
        assert ch.p == 0.0 and ch.q == 0.0
        assert abs(ch.length - 1.5 * math.log(2)) < 1e-14

    def test_length_equals_difference_front_maximum(self):
        for t0, t1, c, b in ((2.0, 10 / 3, 1.0, 1.0), (0.8, 1.7, -0.6, 2.0)):
            ch = cw_chord(t0, t1, c, b)
            qstar = c * t0 / (t1 - t0)
            psi = difference_front("cw", t0, t1, c)
            assert abs(ch.length - psi.value(qstar)) < 1e-12

    def test_always_upward_for_temperature_raise(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            t0 = float(rng.uniform(0.2, 3.0))
            t1 = t0 + float(rng.uniform(0.1, 3.0))
            c = float(rng.uniform(-3.0, 3.0))
            b = float(rng.uniform(0.2, 3.0))
            assert cw_chord(t0, t1, c, b).direction == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cw_chord(2.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cw_chord(1.0, 2.0, 1.0, 0.0)


class TestChordRecord:
    def test_zero_length_rejected(self):
        with pytest.raises(DegenerateChordError):
            Chord(q=0.0, p=1.0, z_start=1.0, z_end=1.0)

    def test_direction_sign(self):
        assert Chord(0.0, 1.0, 0.0, 2.0).direction == 1
        assert Chord(0.0, 1.0, 2.0, 0.0).direction == -1

    def test_overflowing_length_rejected(self):
        with pytest.raises(FloatingPointError, match=r"^the chord at q=0\.0 from z=-1e\+308 "
                           r"to z=1e\+308 is beyond double precision \(its length overflows\)$"):
            Chord(q=0.0, p=0.0, z_start=-1e308, z_end=1e308)


class TestFindChords:
    def test_parabola_vertex(self):
        f1 = FrontFunction(
            f=lambda x: 1.0 - np.asarray(x) ** 2,
            fprime=lambda x: -2.0 * np.asarray(x),
            domain=(-math.inf, math.inf),
        )
        found = find_chords(constant_front(), f1, -2.0, 2.0, grid_n=513)
        assert len(found) == 1
        ch = found[0]
        assert abs(ch.q) < 1e-12
        assert abs(ch.length - 1.0) < 1e-12
        assert ch.direction == 1 and not ch.tangential

    def test_sign_change_whose_product_underflows(self):
        # the magnet pair (1, 0), (2, 200): the slope gaps around Q* = 200
        # are ~1e-175, so the product of the two ends of its cell is 0
        found = find_chords(constant_front(), difference_front("cw", 1.0, 2.0, 200.0),
                            -600.0, 600.0, grid_n=20001)
        assert [ch.q for ch in found] == [200.0]

    def test_degenerate_family(self):
        with pytest.raises(DegenerateFamilyError):
            find_chords(constant_front(0.0), constant_front(1.0), -1.0, 1.0)

    def test_empty_result_is_valid(self):
        f1 = FrontFunction(
            f=lambda x: np.asarray(x, dtype=float),
            fprime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            domain=(-math.inf, math.inf),
        )
        assert find_chords(constant_front(), f1, -1.0, 1.0) == []

    def test_touching_fronts_are_dropped(self):
        # difference x^2 has a critical point with zero gap: an intersection
        f1 = FrontFunction(
            f=lambda x: np.asarray(x) ** 2,
            fprime=lambda x: 2.0 * np.asarray(x),
            domain=(-math.inf, math.inf),
        )
        assert find_chords(constant_front(), f1, -1.0, 1.0, grid_n=401) == []

    def test_tangential_root_is_flagged(self):
        # slope difference x^2 touches zero without a sign change
        f1 = FrontFunction(
            f=lambda x: np.asarray(x) ** 3 / 3.0 + 1.0,
            fprime=lambda x: np.asarray(x) ** 2,
            domain=(-math.inf, math.inf),
        )
        found = find_chords(constant_front(), f1, -2.0, 2.0, grid_n=4097)
        assert len(found) == 1
        assert found[0].tangential
        assert abs(found[0].q) < 1e-6
        assert abs(found[0].length - 1.0) < 1e-6

    def test_multiple_roots_ordered(self):
        f1 = FrontFunction(
            f=lambda x: np.sin(np.asarray(x)) + 2.0,
            fprime=lambda x: np.cos(np.asarray(x)),
            domain=(-math.inf, math.inf),
        )
        found = find_chords(constant_front(), f1, -4.0, 4.0, grid_n=2001)
        assert [round(ch.q, 6) for ch in found] == [
            round(-math.pi / 2, 6),
            round(math.pi / 2, 6),
        ]
        assert all(found[i].q < found[i + 1].q for i in range(len(found) - 1))

    @pytest.mark.parametrize(
        "grid_n, lo, hi, message",
        [
            (2, -1.0, 1.0, "grid_n must be at least 3"),
            (3.5, -1.0, 1.0, "grid_n must be an integer, got 3.5"),
            # a grid of 10^12 nodes would take hours to scan
            (10**12, -1.0, 1.0, "grid_n must be at most 100000000, got 1000000000000"),
            (401, 1.0, 1.0, "need scan_lo < scan_hi"),
            (401, 1.0, -1.0, "need scan_lo < scan_hi"),
            # the node step overflows, so nodes past the first would not be
            # in the domain that holds both ends
            (5, -1.2e308, 1.2e308, "is wider than a double holds"),
        ],
    )
    def test_scan_arguments_checked(self, grid_n, lo, hi, message):
        f1 = FrontFunction(
            f=lambda x: 1.0 - np.asarray(x) ** 2,
            fprime=lambda x: -2.0 * np.asarray(x),
            domain=(-math.inf, math.inf),
        )
        with pytest.raises(ValueError, match=message):
            find_chords(constant_front(), f1, lo, hi, grid_n=grid_n)

    @pytest.mark.parametrize("lo, hi", [(-2.0, 0.5), (0.5, 1.0), (-2.0, 0.0)])
    def test_window_leaving_a_domain_is_rejected(self, lo, hi):
        f1 = difference_front("gas", 1.0, 5.0, 2.0)  # domain q < 0
        with pytest.raises(ValueError, match="leaves the domain of front 'gas difference"):
            find_chords(constant_front(), f1, lo, hi, grid_n=401)

    def test_scan_and_refinement_skip_the_checked_slope(self, monkeypatch):
        # the window is checked once; FrontFunction.slope then runs only for
        # the p of each chord found
        calls = []
        slope = FrontFunction.slope
        monkeypatch.setattr(
            FrontFunction, "slope", lambda self, x: calls.append(x) or slope(self, x)
        )
        f1 = difference_front("cw", 2.0, 10.0 / 3.0, 1.0)
        found = find_chords(constant_front(), f1, -40.0, 40.0, grid_n=40001)
        assert len(found) == 1 and calls == [found[0].q]

    @pytest.mark.parametrize("grid_n, qs", [(11, [0.199]), (100_001, [0.199, 0.201])])
    def test_roots_closer_than_half_a_cell_collapse(self, grid_n, qs):
        # psi' = (x - a)(x - b) changes sign at a and b, 0.002 apart: one
        # chord, at a, on a grid of cell 0.2; two on a grid of cell 2e-5
        a, b = 0.2 - 1e-3, 0.2 + 1e-3

        def psi(x):
            x = np.asarray(x)
            return x**3 / 3 - (a + b) * x**2 / 2 + a * b * x + 1.0

        def dpsi(x):
            x = np.asarray(x)
            return (x - a) * (x - b)

        f1 = FrontFunction(f=psi, fprime=dpsi, domain=(-math.inf, math.inf))
        found = find_chords(constant_front(), f1, -1.0, 1.0, grid_n=grid_n)
        assert [ch.q for ch in found] == pytest.approx(qs, abs=1e-12)
        assert not any(ch.tangential for ch in found)

    def test_a_chord_whose_length_overflows_names_its_ends(self):
        # both ends are finite doubles; their difference is not
        f1 = FrontFunction(f=lambda x: 1e308 + 0 * x, fprime=lambda x: x, domain=(-1.0, 1.0))
        with pytest.raises(FloatingPointError, match=r"^the chord at q=0\.0 from z=-1e\+308 "):
            find_chords(constant_front(-1e308), f1, -0.5, 0.5, 101)

    def test_scan_window_must_sit_in_domains(self):
        f1 = difference_front("gas", 1.0, 5.0, 2.0)
        with pytest.raises(ValueError):
            find_chords(constant_front(), f1, -2.0, 1.0)

    def test_barred_gas_reproduces_closed_form(self):
        t0, t1, c = 1.0, 5.0, 2.0
        closed = gas_chord(t0, t1, c)
        f0 = constant_front(0.0, (-math.inf, 0.0))
        f1 = difference_front("gas", t0, t1, c)
        found = find_chords(f0, f1, -6.0, -0.01, grid_n=20001)
        assert len(found) == 1
        ch = found[0]
        assert abs(ch.q - closed.q) < 1e-8
        assert abs(ch.length - closed.length) < 1e-8
        # un-bar the endpoints: start on the cold family, end on the hot one
        start = gas_from_barred(ch.z_start, ch.p, ch.q, t0)
        end = gas_from_barred(ch.z_end, ch.p, ch.q, t0)
        assert abs(start[0] - closed.z_start) < 1e-8
        assert abs(end[0] - closed.z_end) < 1e-8
        assert abs(start[1] - closed.p) < 1e-8

    def test_barred_magnet_reproduces_closed_form(self):
        t0, t1, c, b = 2.0, 10.0 / 3.0, 1.0, 1.0
        closed = cw_chord(t0, t1, c, b)
        f1 = difference_front("cw", t0, t1, c)
        found = find_chords(constant_front(), f1, -20.0, 20.0, grid_n=20001)
        assert len(found) == 1
        ch = found[0]
        z, p, q = cw_from_barred(ch.z_start, ch.p, ch.q, t0, b)
        assert abs(z - closed.z_start) < 1e-8
        assert abs(p - closed.p) < 1e-8
        assert abs(q - closed.q) < 1e-8
        assert abs(ch.length - closed.length) < 1e-8

    def test_saturated_tails_produce_no_spurious_chords(self):
        # far from the crossing both slopes saturate and their float
        # difference degenerates into exact-zero runs and quantization
        # stairs; neither may register as chords
        f1 = difference_front("cw", 0.8432017129513965, 1.7881614099628014, -1.7489331938925883)
        found = find_chords(constant_front(), f1, -40.0, 40.0, grid_n=40001)
        assert len(found) == 1
        assert not found[0].tangential
        assert found[0].direction == 1

    def test_saturated_magnet_chord_position(self):
        # at the chord both slopes are within 1e-7 of 1, so their difference
        # cannot be taken from the rounded tanh values
        t0, t1, c = 2.830165222358783, 3.0418532411036807, 1.9027459751804239
        f1 = difference_front("cw", t0, t1, c)
        found = find_chords(constant_front(), f1, -76.32, 76.32, grid_n=40001)
        assert len(found) == 1
        assert abs(found[0].q - t0 * c / (t1 - t0)) <= 1e-12

    def test_magnet_slope_neither_cancels_nor_overflows(self):
        t0, t1 = 0.5, 0.6
        # both arguments large and positive: the gap is
        # 2 (e^-2v - e^-2u) / ((1 + e^-2u)(1 + e^-2v)) with u = (x + c)/t1, v = x/t0
        u, v = 31.0 / t1, 30.0 / t0
        gap = 2.0 * (math.exp(-2 * v) - math.exp(-2 * u))
        gap /= (1.0 + math.exp(-2 * u)) * (1.0 + math.exp(-2 * v))
        slope = difference_front("cw", t0, t1, 1.0).slope(30.0)
        assert abs(slope - gap) <= 1e-14 * abs(gap)
        # arguments of opposite sign beyond the range of cosh
        assert abs(difference_front("cw", t0, t1, 1000.0).slope(-400.0) - 2.0) <= 1e-15
        far = difference_front("cw", t0, t1, 1.0).slope(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(far))

    def test_consistency_across_parameter_draws(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            t0 = float(rng.uniform(0.3, 2.0))
            t1 = t0 + float(rng.uniform(0.2, 2.0))
            c = float(rng.uniform(0.1, 0.9)) * (t1 - t0)
            closed = gas_chord(t0, t1, c)
            f1 = difference_front("gas", t0, t1, c)
            found = find_chords(
                constant_front(0.0, (-math.inf, 0.0)),
                f1,
                10.0 * closed.q - 1.0,
                closed.q / 10.0,
                grid_n=20001,
            )
            assert len(found) == 1
            assert abs(found[0].q - closed.q) < 1e-8
            assert abs(found[0].length - closed.length) < 1e-8


class TestFindChordsAgainstClosedForms:
    """On criterion 10's ranges, the scan finds exactly the closed-form chord."""

    @staticmethod
    def assert_one_upward_chord(found, q, length):
        assert len(found) == 1
        assert found[0].direction == 1
        assert abs(found[0].q - q) <= 1e-8
        assert abs(found[0].length - length) <= 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.2, 3.0), st.floats(0.1, 3.0), st.floats(0.05, 0.95))
    def test_gas(self, t0, dT, frac):
        c = frac * dT
        qstar = -c * t0 / dT
        found = find_chords(
            constant_front(0.0, (-math.inf, 0.0)),
            difference_front("gas", t0, t0 + dT, c),
            10 * qstar - 1.0,
            qstar / 10.0,
            grid_n=20001,
        )
        closed = gas_chord(t0, t0 + dT, c)
        self.assert_one_upward_chord(found, closed.q, closed.length)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.3, 3.0), st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(0.2, 3.0)
    )
    def test_cw(self, t0, dT, c, b):
        found = find_chords(
            constant_front(), difference_front("cw", t0, t0 + dT, c), -40.0, 40.0, grid_n=40001
        )
        closed = cw_chord(t0, t0 + dT, c, b)
        # the barred abscissa Q = q + b p
        self.assert_one_upward_chord(found, closed.q + b * closed.p, closed.length)


class TestSerialization:
    def test_json_keys(self):
        doc = json.loads(chords_to_json([gas_chord(1.0, 5.0, 2.0)]))
        assert len(doc) == 1
        assert set(doc[0]) == {
            "q",
            "p",
            "z_start",
            "z_end",
            "length",
            "direction",
            "tangential",
        }
        assert doc[0]["direction"] == 1

    def test_csv_shape(self):
        buf = io.StringIO()
        chords_to_csv([gas_chord(1.0, 5.0, 2.0), cw_chord(1.0, 2.0, 0.5, 1.0)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "q,p,z_start,z_end,length,direction,tangential"
        assert len(lines) == 3

    def test_csv_of_no_chords_is_the_header(self):
        buf = io.StringIO()
        chords_to_csv([], buf)
        assert buf.getvalue() == "q,p,z_start,z_end,length,direction,tangential\n"
