"""The column path code returns exactly what the per-sample loops returned.

The oracles in ``path_oracles`` are the point-by-point versions of the
lift, reduction, certification and CSV code.  Every comparison here is
``==`` or ``array_equal``: the column code must not move a single bit.
"""

import io
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from path_oracles import (
    ReducedRow,
    loop_decrements,
    loop_entropy,
    loop_entropy_rates,
    loop_form_values,
    loop_free_energy,
    loop_path_from_csv,
    loop_path_to_csv,
    loop_pressures,
    loop_reduce_point,
    loop_relax_lift,
    path_rows,
)
from thermocontact import microstate as ms
from thermocontact import (
    ReductionSpec,
    SampledPath,
    admissibility_decrement,
    check_path_nonnegative,
    irreversible_entropy_rate,
    path_from_csv,
    path_to_csv,
    reduce,
)
from thermocontact.verify import criterion_6_runs, criterion_7_draws


def _assert_columns_equal(path: SampledPath, points) -> None:
    """The path's columns hold exactly the values of the point tuple."""
    assert path.n_samples == len(points)
    assert np.array_equal(path.z, [pt.z for pt in points])
    assert np.array_equal(path.p, np.array([pt.p for pt in points]))
    assert np.array_equal(path.q, np.array([pt.q for pt in points]))
    if isinstance(points[0], ReducedRow):
        assert path.kind == "reduced" and path.S is None and path.T is None
    else:
        assert np.array_equal(path.S, [pt.S for pt in points])
        assert np.array_equal(path.T, [pt.T for pt in points])


def _form_values(path: SampledPath) -> np.ndarray:
    return check_path_nonnegative(path).per_step_values


def test_criterion_7_draws_match_loops():
    # every fifth of the 1000 draws keeps the per-sample oracles under ~3 s
    for path, spec in itertools.islice(criterion_7_draws(), 0, None, 5):
        points = path_rows(path)
        assert np.array_equal(_form_values(path), loop_form_values(path.times, points))
        assert np.array_equal(
            admissibility_decrement(path, spec), loop_decrements(path.times, points, spec)
        )
        assert np.array_equal(
            irreversible_entropy_rate(path), loop_entropy_rates(path.times, points)
        )
        reduced = reduce(path, spec)
        expected = tuple(loop_reduce_point(pt, spec) for pt in points)
        _assert_columns_equal(reduced, expected)
        assert np.array_equal(_form_values(reduced), loop_form_values(path.times, expected))


def test_criterion_6_relaxations_match_loop():
    for sp, h, q, trace in itertools.islice(criterion_6_runs(), 4):
        points, G_values, form_values = loop_relax_lift(
            sp, h, q, trace.t_grid, trace.temperatures, trace.densities
        )
        _assert_columns_equal(trace.reduced_path, points)
        assert np.array_equal(trace.reduced_path.times, trace.t_grid)
        assert np.array_equal(trace.G_values, G_values)
        assert np.array_equal(trace.form_values, form_values)
        assert len(trace.densities) == trace.t_grid.size


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def extended_paths(draw, max_samples=30):
    """Extended paths with n = 1..3 and 2..max_samples samples."""
    n_rows = draw(st.integers(2, max_samples))
    n = draw(st.integers(1, 3))
    steps = draw(arrays(float, n_rows - 1, elements=_finite(1e-3, 10.0)))
    times = draw(_finite(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    value = _finite(-1e3, 1e3)
    z = draw(arrays(float, n_rows, elements=value))
    S = draw(arrays(float, n_rows, elements=_finite(0.0, 1e3)))
    T = draw(arrays(float, n_rows, elements=_finite(1e-3, 1e3)))
    p = draw(arrays(float, (n_rows, n), elements=value))
    q = draw(arrays(float, (n_rows, n), elements=value))
    return SampledPath(times, z, p, q, S, T)


@st.composite
def systems_with_densities(draw):
    """(space, Hamiltonian, T, q, density) with m = 1..40, n = 1..3, some zeros."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 3))
    sp = ms.MicrostateSpace(
        tuple(str(i) for i in range(m)), draw(arrays(float, m, elements=_finite(0.1, 5.0)))
    )
    h = ms.AffineHamiltonian(
        draw(arrays(float, m, elements=_finite(-10.0, 10.0))),
        draw(arrays(float, (n, m), elements=_finite(-10.0, 10.0))),
    )
    raw = draw(arrays(float, m, elements=_finite(0.0, 10.0)))
    raw[draw(st.integers(0, m - 1))] = 1.0
    T = draw(_finite(1e-2, 1e2))
    q = draw(arrays(float, n, elements=_finite(-10.0, 10.0)))
    return sp, h, T, q, ms.normalized_density(sp, raw)


@settings(max_examples=200, deadline=None)
@given(systems_with_densities())
def test_one_density_functions_match_loops(drawn):
    sp, h, T, q, d = drawn
    w, r = sp.weights, d
    S = loop_entropy(w, r)
    p = loop_pressures(w, h.v_bar, r)
    G = loop_free_energy(w, h, T, q, r)
    assert ms.entropy(sp, d) == S
    assert np.array_equal(ms.pressures(sp, h, d), p)
    assert ms.free_energy(sp, h, T, q, d) == G
    z_rows, S_rows, p_rows = ms.lift_rows(sp, h, T, q, np.stack([r, r]))
    assert np.array_equal(z_rows, [-G, -G])
    assert np.array_equal(S_rows, [S, S])
    assert np.array_equal(p_rows, [p, p])


@st.composite
def reductions(draw, n):
    """A spec over n pairs: kept prefix, the rest frozen (unpinned) or zeroed."""
    k = draw(st.integers(1, n))
    zeroed = tuple(i for i in range(k, n) if draw(st.booleans()))
    frozen = {i: None for i in range(k, n) if i not in zeroed}
    return ReductionSpec(k=k, frozen_q=frozen, zeroed_p=zeroed)


@settings(max_examples=150, deadline=None)
@given(extended_paths(), st.data())
def test_extended_paths_match_loops(path, data):
    points = path_rows(path)
    _assert_columns_equal(path, points)
    assert np.array_equal(_form_values(path), loop_form_values(path.times, points))

    buf, expected = io.StringIO(), io.StringIO()
    path_to_csv(path, buf)
    loop_path_to_csv(path.times, points, expected)
    assert buf.getvalue() == expected.getvalue()
    back = path_from_csv(io.StringIO(buf.getvalue()))
    times, back_points = loop_path_from_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.times, times)
    _assert_columns_equal(back, back_points)

    spec = data.draw(reductions(path.dimension))
    p = path.p.copy()
    p[:, list(spec.zeroed_p)] = 0.0
    zeroed = SampledPath(path.times, path.z, p, path.q, path.S, path.T)
    reduced = reduce(zeroed, spec)
    expected_points = tuple(loop_reduce_point(pt, spec) for pt in path_rows(zeroed))
    _assert_columns_equal(reduced, expected_points)
    assert np.array_equal(
        _form_values(reduced), loop_form_values(path.times, expected_points)
    )


def _csv_text(header, table) -> str:
    """CSV text written without the library: %.17g values, \\n rows."""
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(extended_paths(), st.booleans())
def test_csv_round_trip_is_byte_identical(path, extended):
    n = path.dimension
    pairs = [f"p_{j + 1}" for j in range(n)] + [f"q_{j + 1}" for j in range(n)]
    if extended:
        header = ["t", "z", "S", "T", *pairs]
        table = np.column_stack([path.times, path.z, path.S, path.T, path.p, path.q])
    else:
        header = ["t", "z", *pairs]
        table = np.column_stack([path.times, path.z, path.p, path.q])
    text = _csv_text(header, table)
    buf = io.StringIO()
    path_to_csv(path_from_csv(io.StringIO(text)), buf)
    assert buf.getvalue() == text


def _cumtrapz(y, t):
    return np.concatenate([[0.0], np.cumsum((y[1:] + y[:-1]) / 2 * np.diff(t))])


@st.composite
def admissible_paths(draw):
    """An extended path whose form is at least ``margin`` > 0 and a spec.

    As in acceptance criterion 7: z integrates S Tdot + sum_j p_j qdot_j +
    margin, T rises, frozen q are non-decreasing against positive p, and
    zeroed p vanish, so every sample of the reduced form is at least the
    margin plus non-negative terms.
    """
    n_rows = draw(st.integers(101, 301))
    n = draw(st.integers(1, 3))
    spec = draw(reductions(n))
    t = np.linspace(0.0, 1.0, n_rows)
    coef = draw(arrays(float, (n + 2, 4), elements=_finite(0.0, 1.0)))

    def wave(c):
        return (c[0] - 0.5) + (c[1] - 0.5) * np.sin((0.3 + 0.7 * c[2]) * t + 6.0 * c[3])

    def wave_dot(c):
        omega = 0.3 + 0.7 * c[2]
        return (c[1] - 0.5) * omega * np.cos(omega * t + 6.0 * c[3])

    S = 0.5 + 0.4 * np.sin((0.3 + 0.7 * coef[0, 0]) * t + 6.0 * coef[0, 1])
    Tdot = 0.1 + 0.3 * coef[1, 0] + 0.2 * np.sin((0.3 + 0.7 * coef[1, 1]) * t) ** 2
    T = 1.0 + _cumtrapz(Tdot, t)
    p = np.empty((n_rows, n))
    q = np.empty((n_rows, n))
    qdot = np.zeros((n_rows, n))
    for j in range(n):
        c = coef[j + 2]
        if j in spec.frozen_q:
            p[:, j] = 0.3 + 0.2 * np.sin((0.3 + 0.7 * c[2]) * t + 6.0 * c[3])
            qdot[:, j] = 0.3 + 0.2 * np.cos((0.3 + 0.7 * c[0]) * t)
            q[:, j] = _cumtrapz(qdot[:, j], t)
        elif j in spec.zeroed_p:
            p[:, j] = 0.0
            q[:, j] = wave(c)
        else:
            p[:, j] = wave(c[::-1])
            q[:, j] = wave(c)
            qdot[:, j] = wave_dot(c)
    margin = draw(_finite(0.01, 0.1))
    zdot = S * Tdot + np.sum(p * qdot, axis=1) + margin
    return SampledPath(t, _cumtrapz(zdot, t), p, q, S, T), spec


@settings(max_examples=60, deadline=None)
@given(admissible_paths())
def test_reduced_admissible_paths_stay_nonnegative(drawn):
    path, spec = drawn
    assert check_path_nonnegative(path, slack=1e-9).verdict == "nonnegative"
    reduced = reduce(path, spec)
    assert check_path_nonnegative(reduced, slack=1e-9).verdict == "nonnegative"
