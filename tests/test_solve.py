"""The in-package solvers return exactly what scipy returns.

``thermocontact._solve`` replaces scipy's ``brentq``, bounded
``minimize_scalar`` and ``logsumexp`` so the package runs on numpy alone.
scipy stays the oracle here: every property compares with ``==`` (or the
same exception type and message), so a chord, root or partition function
never moves by one bit between the two.  The last test checks that the
CLI imports and runs with scipy unimportable.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize, special

import thermocontact
from thermocontact import _solve, constant_front, difference_front
from thermocontact._solve import brentq, logsumexp, minimize_scalar_bounded


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_xtol = st.floats(-14.0, -8.0).map(lambda e: 10.0**e)


def _magnet_resid(T, b, target):
    def resid(y):
        return T * y - b * math.tanh(y) - target

    return resid


def _assert_same(f, lo, hi, xtol):
    mine = _outcome(brentq, f, lo, hi, xtol=xtol)
    ref = _outcome(optimize.brentq, f, lo, hi, xtol=xtol)
    if isinstance(ref, float):
        assert isinstance(mine, float)
    assert mine == ref


class TestBrentq:
    @settings(max_examples=200, deadline=None)
    @given(
        T=_finite(0.05, 5.0),
        b=_finite(0.1, 3.0),
        target=_finite(-5.0, 5.0),
        lo=_finite(-30.0, 30.0),
        width=_finite(1e-9, 30.0),
        xtol=_xtol,
    )
    def test_magnet_residual_brackets(self, T, b, target, lo, width, xtol):
        # brackets without a sign change must fail the same way
        _assert_same(_magnet_resid(T, b, target), lo, lo + width, xtol)

    @settings(max_examples=200, deadline=None)
    @given(
        T=_finite(0.05, 5.0),
        b=_finite(0.1, 3.0),
        target=_finite(-5.0, 5.0),
        xtol=_xtol,
    )
    def test_magnet_brackets_of_the_root_finder(self, T, b, target, xtol):
        # the outer bracket cw_magnetization_roots starts from
        resid = _magnet_resid(T, b, target)
        _assert_same(resid, (target - b) / T - 1.0, (target + b) / T + 1.0, xtol)

    @settings(max_examples=200, deadline=None)
    @given(
        T=_finite(0.05, 5.0),
        b=_finite(0.1, 3.0),
        y0=_finite(-10.0, 10.0),
        width=_finite(1e-6, 10.0),
        zero_at_hi=st.booleans(),
        xtol=_xtol,
    )
    def test_exact_zero_at_a_bracket_end(self, T, b, y0, width, zero_at_hi, xtol):
        target = T * y0 - b * math.tanh(y0)  # so that resid(y0) == 0.0 exactly
        lo, hi = (y0 - width, y0) if zero_at_hi else (y0, y0 + width)
        resid = _magnet_resid(T, b, target)
        assert resid(y0) == 0.0
        assert brentq(resid, lo, hi, xtol=xtol) == y0
        _assert_same(resid, lo, hi, xtol)

    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from(["gas", "cw"]),
        t0=_finite(0.2, 3.0),
        dT=_finite(0.1, 3.0),
        frac=_finite(0.05, 0.95),
        left=_finite(1e-6, 0.9),
        right=_finite(1e-6, 0.9),
        xtol=_xtol,
    )
    def test_chord_slope_gaps(self, model, t0, dT, frac, left, right, xtol):
        # the slope gap find_chords refines, on brackets around the chord
        c = frac * dT
        f1 = difference_front(model, t0, t0 + dT, c)
        f0 = constant_front(0.0, (-math.inf, 0.0)) if model == "gas" else constant_front()
        qstar = (-1.0 if model == "gas" else 1.0) * c * t0 / dT
        scale = abs(qstar)

        def slope_gap(x):
            return float(f1.slope(x) - f0.slope(x))

        _assert_same(slope_gap, qstar - left * scale, qstar + right * scale, xtol)

    @pytest.mark.parametrize(
        "c, lo, hi, root",
        [
            (150.0, 149.985, 150.02999999999997, 149.99999999999997),
            (300.0, 299.97, 300.05999999999995, 299.9999999999998),
        ],
    )
    def test_underflowed_interpolation_denominator_bisects(self, c, lo, hi, root):
        # chord cw --t0 1 --t1 2 --c 150: the slope gaps at the bracket ends
        # are ~1e-132, so fcur - fpre underflows to 0 in the secant step;
        # scipy's C code gets inf or nan there and bisects
        f1 = difference_front("cw", 1.0, 2.0, c)

        def slope_gap(x):
            return float(f1.fprime(x))

        _assert_same(slope_gap, lo, hi, 1e-12)
        assert brentq(slope_gap, lo, hi, xtol=1e-12) == root

    def test_same_sign_bracket_raises_value_error(self):
        f = _magnet_resid(2.0, 1.0, 0.3)
        mine = _outcome(brentq, f, 1.0, 2.0, xtol=2e-12)
        ref = _outcome(optimize.brentq, f, 1.0, 2.0, xtol=2e-12)
        assert mine == ref
        assert mine == (ValueError, "f(a) and f(b) must have different signs")

    @settings(max_examples=200, deadline=None)
    @given(cut=_finite(-0.9, 0.9), width=_finite(1e-3, 0.5), xtol=_xtol)
    def test_nan_inside_the_bracket(self, cut, width, xtol):
        def f(x):
            return math.nan if cut < x < cut + width else x - 0.3

        mine = _outcome(brentq, f, -1.0, 1.0, xtol=xtol)
        assert mine == _outcome(optimize.brentq, f, -1.0, 1.0, xtol=xtol)

    def test_nan_raises_value_error(self):
        def f(x):
            return math.nan if x > 0.5 else x

        mine = _outcome(brentq, f, -1.0, 1.0, xtol=2e-12)
        assert mine == _outcome(optimize.brentq, f, -1.0, 1.0, xtol=2e-12)
        assert mine == (ValueError, "The function value at x=1.0 is NaN; solver cannot continue.")

    def test_no_convergence_raises_runtime_error(self, monkeypatch):
        monkeypatch.setattr(_solve, "_MAXITER", 2)
        f = _magnet_resid(2.0, 1.0, 0.3)
        mine = _outcome(brentq, f, -5.0, 5.0, xtol=2e-12)
        assert mine == _outcome(optimize.brentq, f, -5.0, 5.0, xtol=2e-12, maxiter=2)
        assert mine == (RuntimeError, "Failed to converge after 2 iterations.")


class TestBoundedMinimizer:
    @settings(max_examples=200, deadline=None)
    @given(
        x0=_finite(-10.0, 10.0),
        k=_finite(1e-3, 1e3),
        cubic=_finite(-10.0, 10.0),
        floor=st.one_of(st.just(0.0), _finite(0.0, 1e-10)),
        left=_finite(1e-6, 1.0),
        right=_finite(1e-6, 1.0),
        xatol=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-5]),
    )
    def test_touching_minima(self, x0, k, cubic, floor, left, right, xatol):
        # |psi'| near a root where psi' touches zero without a sign change
        def f(x):
            d = x - x0
            return abs(k * d * d * (1.0 + cubic * d) + floor)

        lo, hi = x0 - left, x0 + right
        res = optimize.minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        x, fx = minimize_scalar_bounded(f, lo, hi, xatol=xatol)
        assert (x, fx) == (float(res.x), float(res.fun))

    def test_stops_after_500_calls(self):
        # |x| with a tolerance far below a double's spacing at 1: the
        # bracket shrinks around 0 until the 500th call, as scipy stops
        calls = []

        def f(x):
            calls.append(x)
            return abs(x)

        res = optimize.minimize_scalar(f, bounds=(-1.0, 2.0), method="bounded",
                                       options={"xatol": 1e-300})
        assert res.nfev == 500
        del calls[:]
        x, fx = minimize_scalar_bounded(f, -1.0, 2.0, xatol=1e-300)
        assert len(calls) == 500
        assert (x, fx) == (float(res.x), float(res.fun))


@st.composite
def _weighted_terms(draw):
    """(a, b): |a| <= 700, b >= 0 unequal with some zeros, ties at the max."""
    n = draw(st.integers(1, 40))
    a = draw(arrays(float, n, elements=_finite(-700.0, 700.0)))
    b = draw(arrays(float, n, elements=st.one_of(st.just(0.0), _finite(1e-3, 1e3))))
    ties = draw(st.lists(st.integers(0, n - 1), max_size=n))
    a[ties] = a.max()
    return a, b


class TestLogSumExp:
    @settings(max_examples=200, deadline=None)
    @given(_weighted_terms())
    def test_matches_scipy(self, terms):
        a, b = terms
        mine = logsumexp(a, b)
        ref = float(special.logsumexp(a, b=b))
        assert isinstance(mine, float)
        assert mine == ref or (math.isnan(mine) and math.isnan(ref))

    def test_zero_weights_drop_their_terms(self):
        assert logsumexp([1e300, 0.0], [0.0, 1.0]) == 0.0
        assert logsumexp([1.0, 2.0], [0.0, 0.0]) == -math.inf

    def test_large_arguments_do_not_overflow(self):
        a = np.array([1000.0, 1000.0, 0.0])
        assert logsumexp(a, [1.0, 1.0, 1.0]) == float(special.logsumexp(a, b=[1, 1, 1]))
        assert abs(logsumexp(a, [1.0, 1.0, 1.0]) - (1000.0 + math.log(2.0))) < 1e-12


# Makes scipy unimportable, then imports and runs the CLI.
_WITHOUT_SCIPY = textwrap.dedent(
    """
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, NoScipy())
    import thermocontact.cli
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded
    sys.exit(thermocontact.cli.dispatch(sys.argv[1:]))
    """
)


def test_cli_runs_without_scipy(tmp_path):
    system = tmp_path / "system.json"
    system.write_text(
        '{"labels": ["a", "b"], "weights": [1.0, 2.0], "v_int": [0.0, 0.5],'
        ' "v_bar": [[1.0, -1.0]]}'
    )
    src = str(Path(thermocontact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in (
        ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2"],
        ["chord", "cw", "--t0", "2", "--t1", "3", "--c", "1", "--grid", "16"],
        ["gibbs", "--system", str(system), "--T", "1.5", "--q", "0.3"],
        ["verify", "--criteria", "10"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, *argv, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
