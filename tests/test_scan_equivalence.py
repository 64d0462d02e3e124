"""The library root finders return exactly what the per-node loops return
wherever the loops find every root."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scan_oracles import loop_cw_magnetization_roots, loop_find_chords
from thermocontact import (
    CurieWeissParams,
    constant_front,
    cw_magnetization_roots,
    difference_front,
    find_chords,
)
from thermocontact.chords import SCAN_BLOCK
from thermocontact.models import FrontFunction
from thermocontact.verify import criterion_10_draws


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_find_chords_matches_loop_on_criterion_10_draws():
    n_chords = 0
    for *_, args in criterion_10_draws():
        found = find_chords(*args)
        assert found == loop_find_chords(*args)
        n_chords += len(found)
    assert n_chords == 200


def _node_front(values):
    """A front whose slope takes the given values at the nodes 0, 1, 2, ...

    The slope interpolates linearly between nodes, so a scan over
    [0, len(values) - 1] with len(values) nodes reads the values exactly.
    Its value is 1 everywhere, so every root becomes a chord of length 1.
    """
    nodes = np.arange(len(values), dtype=float)
    vals = np.asarray(values, dtype=float)
    return FrontFunction(
        f=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        fprime=lambda x: np.interp(x, nodes, vals),
        domain=(-1.0, float(len(values))),
    )


# slope values at the nodes -> expected (q, tangential) of the chords found
NODE_CASES = {
    "zero at node 0": ([0.0, 1.0, -1.0, -2.0, -1.0], [(1.5, False)]),
    "zero at the last node": ([1.0, 2.0, -1.0, -1.0, 0.0], [(5.0 / 3.0, False)]),
    "isolated zero, same-sign neighbours": ([1.0, 2.0, 0.0, 3.0, 1.0], [(2.0, True)]),
    "isolated zero, sign change": ([1.0, 2.0, 0.0, -3.0, -1.0], [(2.0, False)]),
    "run of zeros": ([1.0, 0.0, 0.0, -1.0, -2.0], []),
    "touching minimum": ([1.0, 0.5, 1e-13, 0.5, 1.0], [(2.0, True)]),
    "shallow touching minimum": ([1.0, 2e-13, 1e-13, 2e-13, 1.0], []),
    # products of two slopes below ~1e-162 underflow to 0
    "sign change whose product underflows": ([1.0, 1e-200, -1e-200, -1.0, -2.0], [(1.5, False)]),
    "underflowing product at the first node": ([1e-310, -1e-20, -1.0, -2.0, -3.0], [(0.0, False)]),
    "underflowing product at the last node": ([3.0, 2.0, 1.0, 1e-20, -1e-310], [(4.0, False)]),
    # ... and so does the product of the two flanks of a node
    "isolated zero, same-sign flanks whose product underflows": (
        [1.0, 1e-200, 0.0, 1e-200, 1.0], [(2.0, True)]),
    "touching minimum whose flank product underflows": (
        [1.0, 1e-170, 1e-180, 1e-170, 1.0], [(2.0, True)]),
    "several sign changes": (
        [1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5],
        [(0.5, False), (4.0 / 3.0, False), (2.5, False), (3.4, False), (4.5, False),
         (5.0 + 6.0 / 7.0, False)],
    ),
}


@pytest.mark.parametrize("name", list(NODE_CASES))
def test_find_chords_matches_loop_on_node_values(name):
    values, expected = NODE_CASES[name]
    n = len(values)
    args = (constant_front(0.0, (-1.0, float(n))), _node_front(values), 0.0, n - 1.0, n)
    found = find_chords(*args)
    assert found == loop_find_chords(*args)
    assert len(found) == len(expected)
    for ch, (q, tangential) in zip(found, expected):
        assert abs(ch.q - q) < 1e-9
        assert ch.tangential is tangential


def test_find_chords_matches_loop_across_scan_blocks():
    # roots on the nodes and cells where one scan block meets the next
    B = SCAN_BLOCK
    values = np.ones(3 * B + 3)
    values[B - 1 : B + 2] = [2.0, 0.0, 3.0]  # isolated zero on a block's first node
    values[2 * B : 2 * B + 2] = -1.0  # sign changes in the cells 2B - 1 and 2B + 1
    values[3 * B - 2 : 3 * B + 1] = [0.5, 1e-13, 0.5]  # touching on a block's last node
    n = len(values)
    args = (constant_front(0.0, (-1.0, float(n))), _node_front(values), 0.0, n - 1.0, n)
    found = find_chords(*args)
    assert found == loop_find_chords(*args)
    assert [ch.q for ch in found] == pytest.approx([B, 2 * B - 0.5, 2 * B + 1.5, 3 * B - 1])
    assert [ch.tangential for ch in found] == [True, False, False, True]


@pytest.mark.parametrize("n", [3, SCAN_BLOCK, SCAN_BLOCK + 1, SCAN_BLOCK + 2, 2 * SCAN_BLOCK + 5])
@pytest.mark.parametrize("lo, hi", [(-40.0, 40.0), (-3.7, 0.1), (1e-3, 2.9e5)])
def test_scan_nodes_are_the_linspace_nodes(n, lo, hi):
    blocks = []

    def fprime(x):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            blocks.append(x.copy())
        return x - lo - 0.3 * (hi - lo)

    front = FrontFunction(f=lambda x: 0.5 * np.square(x), fprime=fprime, domain=(-50.0, 3e5))
    find_chords(constant_front(), front, lo, hi, n)
    assert np.array_equal(np.unique(np.concatenate(blocks)), np.linspace(lo, hi, n))


_magnet = st.tuples(
    st.floats(-5.0, 5.0),  # q
    st.floats(0.05, 5.0),  # T
    st.floats(-3.0, 3.0),  # H_back
    st.floats(0.05, 5.0),  # b
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_magnet)
def test_magnetization_roots_match_loop(draw):
    q, T, H, b = draw
    par = CurieWeissParams(T=T, H_back=H, b=b)
    assert _outcome(cw_magnetization_roots, q, par) == _outcome(
        loop_cw_magnetization_roots, q, par
    )


def test_magnet_cell_whose_residual_products_underflow():
    # at T = b = 1e-170 every residual on the grid is below ~1e-162, so the
    # product of two underflows to 0: the refinement cell is found by signs
    par = CurieWeissParams(T=1e-170, b=1e-170)
    roots = cw_magnetization_roots(5e-171, par)
    assert len(roots) == 1
    assert roots == loop_cw_magnetization_roots(5e-171, par)


def test_exact_zero_on_a_node_is_a_root():
    # a q whose residual is exactly 0.0 on node 4343 of the 10^4-node grid;
    # the piece solution alone lands one ulp away from that node.  The q is
    # found here, since np.tanh's bits depend on numpy's CPU dispatch level
    par = CurieWeissParams(T=2.0, b=1.0)
    q = -0.4389697289957094
    for _ in range(10):
        node = np.linspace((q - 1.0) / 2.0 - 1.0, (q + 1.0) / 2.0 + 1.0, 10_000)[4343]
        residual = 2.0 * node - np.tanh(node) - q
        if residual == 0.0:
            break
        q = float(2.0 * node - np.tanh(node))
    assert residual == 0.0, f"no q in 10 steps has a zero residual on node 4343: {residual!r}"
    roots = cw_magnetization_roots(q, par)
    assert [r.y for r in roots] == [node]
    assert roots == loop_cw_magnetization_roots(q, par)


@pytest.mark.parametrize(
    "q, T, labels",
    [
        # a fold pair 3.4e-4 apart, in one cell of width 6e-4
        (-0.26641997767677594, 0.5, ["global_min", "unstable", "local_min"]),
        # three roots spanning 1.4e-4 next to the pitchfork, cells 4e-4 wide
        (-1.5539199884980005e-14, 0.9999999983566775, ["local_min", "unstable", "global_min"]),
    ],
)
def test_roots_closer_than_a_scan_cell(q, T, labels):
    # the scan misses roots that share a cell: no sign change marks them
    par = CurieWeissParams(T=T, b=1.0)
    roots = cw_magnetization_roots(q, par)
    assert [r.stability for r in roots] == labels
    for r in roots:
        assert abs(r.p - math.tanh((q + r.p) / T)) < 1e-15
    assert len(loop_cw_magnetization_roots(q, par)) == 1


# slope magnitudes that the gated scan must treat as the loop does, each
# placed from a drawn node on with the background's sign or the opposite
# one: an exact zero, a run of zeros, a dip under ROOT_TOL, a dip between
# flanks under ROOT_TOL, a shallow stair of equal values and a plateau of
# ones (a sign change when flipped)
_TINY = st.floats(1e-15, 9e-13)
_FEATURES = st.one_of(
    st.just([0.0]),
    st.just([0.0, 0.0]),
    _TINY.map(lambda v: [v]),
    st.tuples(_TINY, _TINY).map(lambda vs: [2.0 * max(vs), min(vs), 2.0 * max(vs)]),
    _TINY.map(lambda v: [v, v, v]),
    st.integers(1, 3).map(lambda k: [1.0] * k),
)


@st.composite
def _gated_scan_values(draw):
    """Node values over more than one scan block, with features at drawn
    nodes, among them the first and last nodes of a block."""
    B = SCAN_BLOCK
    n = draw(st.integers(B + 2, 2 * B + 40))
    base = draw(st.sampled_from([1.0, -1.0, 0.25, -0.25]))
    values = np.full(n, base)
    where = st.one_of(st.sampled_from([0, 1, B - 2, B - 1, B, B + 1, n - 2, n - 1]),
                      st.integers(0, n - 1))
    features = st.tuples(where, _FEATURES, st.booleans())
    for at, mags, flip in draw(st.lists(features, min_size=1, max_size=12)):
        piece = np.copysign(mags, -base if flip else base)[: n - at]
        values[at : at + len(piece)] = piece
    return values


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_gated_scan_values())
def test_gated_scan_matches_loop_on_drawn_node_values(values):
    n = len(values)
    args = (constant_front(0.0, (-1.0, float(n))), _node_front(values), 0.0, n - 1.0, n)
    assert _outcome(find_chords, *args) == _outcome(loop_find_chords, *args)


def _unmarked(front):
    """The same front with a zero slope that find_chords cannot tell from
    any other, so it takes the path that subtracts f0's slope."""
    return FrontFunction(
        f=front.f,
        fprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=front.domain,
        label=front.label,
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.2, 3.0),  # gas t0
    st.floats(0.1, 3.0),  # gas t1 - t0
    st.floats(0.05, 0.95),  # gas c / (t1 - t0)
    st.floats(-2.0, 2.0),  # magnet c
    st.floats(0.3, 3.0),  # magnet t0
    st.floats(0.2, 3.0),  # magnet t1 - t0
)
def test_constant_front_scan_matches_subtracted_zero_slope(t0, dT, frac, c_cw, t0c, dTc):
    # the criterion-10 ranges: a constant f0's slope is skipped, an
    # unmarked zero slope is evaluated and subtracted, with the same chords
    c = frac * dT
    qstar = -c * t0 / dT
    cases = [
        (constant_front(0.0, (-math.inf, 0.0)), difference_front("gas", t0, t0 + dT, c),
         10 * qstar - 1.0, qstar / 10.0, 20001),
        (constant_front(), difference_front("cw", t0c, t0c + dTc, c_cw), -40.0, 40.0, 40001),
    ]
    for f0, *rest in cases:
        found = find_chords(f0, *rest)
        assert len(found) == 1
        assert found == find_chords(_unmarked(f0), *rest)


@pytest.mark.parametrize("slope", [0.0, -0.0, 1.0, -2.5])
def test_scalar_slope_matches_subtracted_zero_slope(slope):
    # an fprime that returns one float for a block of nodes
    f0 = constant_front()
    f1 = FrontFunction(f=lambda x: slope * np.asarray(x, dtype=float), fprime=lambda x: slope,
                       domain=(-math.inf, math.inf))
    args = (f1, -1.0, 2.0, SCAN_BLOCK + 7)
    assert _outcome(find_chords, f0, *args) == _outcome(find_chords, _unmarked(f0), *args)
