import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermocontact import (
    CurieWeissParams,
    DomainError,
    FrontFunction,
    IdealGasParams,
    constant_front,
    cw_coupling_derivatives,
    cw_dz_dT,
    cw_entropy,
    cw_entropy_y,
    cw_from_barred,
    cw_magnetization_roots,
    cw_to_barred,
    difference_front,
    gas_from_barred,
    gas_front,
    gas_to_barred,
    sample_cw_legendrian,
    sample_gas_legendrian,
    select_equilibrium,
)
from thermocontact.models import (
    MAGNET_YTOL,
    CWBranchPoint,
    SELF_CONSISTENCY_TOL,
    _check_self_consistency,
    _tanh_gap,
    cw_fold,
    cw_phi,
    gas_dphi,
    gas_phi,
)


def assert_front_consistent(front, lo, hi, rng, n=100, tol=1e-6):
    """f' must match central finite differences of f at interior samples."""
    xs = rng.uniform(lo, hi, n)
    for x in xs:
        h = 1e-6 * max(1.0, abs(x))
        fd = (front.value(x + h) - front.value(x - h)) / (2 * h)
        assert abs(front.slope(x) - fd) <= tol * max(1.0, abs(front.slope(x)))


_BOUNDED = (-1.0, 2.0)
_UPPER = (-math.inf, 0.5)
_LINE = (-math.inf, math.inf)

# (domain, x, contains(x)) on a bounded domain, a half line and the line:
# floats, ints, 0-d and 1-d arrays, both open ends, nan and +-inf
_CONTAINS_CASES = [
    (_BOUNDED, 0.5, True),
    (_BOUNDED, 1, True),
    (_BOUNDED, -1.0, False),
    (_BOUNDED, 2, False),
    (_BOUNDED, math.nextafter(-1.0, 0.0), True),
    (_BOUNDED, math.nextafter(2.0, 3.0), False),
    (_BOUNDED, np.float64(1.5), True),
    (_BOUNDED, np.array(0.0), True),
    (_BOUNDED, np.array(2.0), False),
    (_BOUNDED, np.array([-0.5, 0.0, 1.9]), True),
    (_BOUNDED, np.array([-0.5, 2.0]), False),
    (_BOUNDED, np.array([], dtype=float), True),
    (_BOUNDED, [0, 1], True),
    (_BOUNDED, math.nan, False),
    (_BOUNDED, np.array([0.0, math.nan]), False),
    (_BOUNDED, math.inf, False),
    (_BOUNDED, -math.inf, False),
    (_UPPER, -1e308, True),
    (_UPPER, 0.5, False),
    (_UPPER, -math.inf, False),
    (_UPPER, math.nan, False),
    (_UPPER, np.array([-3.0, 0.25]), True),
    (_UPPER, np.array([-math.inf, 0.25]), False),
    (_LINE, 0, True),
    (_LINE, 1e308, True),
    (_LINE, math.inf, False),
    (_LINE, -math.inf, False),
    (_LINE, math.nan, False),
    (_LINE, np.array(-0.0), True),
    (_LINE, np.array([-1e308, 1e308]), True),
    (_LINE, np.array([1.0, math.inf]), False),
]


@pytest.mark.parametrize("domain, x, expected", _CONTAINS_CASES)
def test_contains_is_the_open_domain_test(domain, x, expected):
    front = FrontFunction(f=np.asarray, fprime=np.asarray, domain=domain)
    lo, hi = domain
    xs = np.asarray(x, dtype=float)
    assert bool(np.all((xs > lo) & (xs < hi))) is expected
    assert front.contains(x) is expected


@pytest.mark.parametrize("domain", [(1.0, 0.0), (0.5, 0.5)])
def test_an_empty_domain_is_rejected(domain):
    with pytest.raises(ValueError, match=r"^domain must be a non-empty open interval, got"):
        FrontFunction(f=np.asarray, fprime=np.asarray, domain=domain)


class TestGasFront:
    def test_unit_values(self):
        front = gas_front(IdealGasParams(T=1.0, P_back=0.0))
        assert front.value(-1.0) == 0.0
        assert front.slope(-1.0) == 1.0

    def test_volume_two_at_half_pressure(self):
        front = gas_front(IdealGasParams(T=1.0, P_back=0.0))
        assert abs(front.slope(-0.5) - 2.0) < 1e-15

    def test_domain_error(self):
        front = gas_front(IdealGasParams(T=1.0, P_back=0.5))
        with pytest.raises(DomainError):
            front.value(0.5)
        with pytest.raises(DomainError):
            front.value(1.2)

    def test_state_equation_residual(self):
        # (P + P_back) v = T with p = v and q = -P along the front
        for T, pb in ((1.0, 0.0), (2.5, 0.7), (0.3, -1.2)):
            front = gas_front(IdealGasParams(T=T, P_back=pb))
            q = np.linspace(pb - 5.0, pb - 0.05, 200)
            v = front.slope(q)
            P = -q
            assert np.abs((P + pb) * v - T).max() < 1e-10

    def test_fd_consistency(self):
        rng = np.random.default_rng(31)
        front = gas_front(IdealGasParams(T=1.4, P_back=0.3))
        assert_front_consistent(front, -6.0, -0.2, rng)


def cw_point(p: float, par: CurieWeissParams) -> tuple[float, float, float]:
    """(q, p, z) of the magnet family over the magnetization p."""
    q, p, z, _ = sample_cw_legendrian(par, [p])[0]
    return q, p, z


class TestCurieWeissPoints:
    def test_symmetric_point(self):
        for T in (0.5, 1.0, 2.0):
            q, _, z = cw_point(0.0, CurieWeissParams(T=T, H_back=0.0, b=1.0))
            assert q == 0.0
            assert abs(z - T * math.log(2)) < 1e-14

    def test_worked_value(self):
        q, _, _ = cw_point(0.5, CurieWeissParams(T=2.0, H_back=0.0, b=1.0))
        assert abs(q - 0.5986122886681098) < 1e-12

    def test_background_field_shift(self):
        base, _, _ = cw_point(0.3, CurieWeissParams(T=1.5, H_back=0.0, b=0.8))
        shifted, _, _ = cw_point(0.3, CurieWeissParams(T=1.5, H_back=0.4, b=0.8))
        assert abs((base - shifted) - 0.4) < 1e-14

    def test_saturation_divergence(self):
        par = CurieWeissParams(T=1.0, H_back=0.0, b=1.0)
        assert cw_point(0.999999, par)[0] > 5.0
        with pytest.raises(ValueError):
            cw_point(1.0, par)

    def test_self_consistency_residuals(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            par = CurieWeissParams(
                T=float(rng.uniform(0.2, 3.0)),
                H_back=float(rng.uniform(-1, 1)),
                b=float(rng.uniform(0.2, 2.0)),
            )
            q, p, z = cw_point(float(rng.uniform(-0.99, 0.99)), par)
            resid = abs(p - math.tanh((q + par.H_back + par.b * p) / par.T))
            assert resid < 1e-10
            z_expect = float(cw_phi(par.T, q + par.H_back + par.b * p)) - par.b * p**2 / 2
            assert abs(z - z_expect) < 1e-10

    def test_self_consistency_error_names_floats(self):
        # the isotopy passes each background as a numpy scalar
        par = CurieWeissParams(T=1.0, H_back=np.float64(0.0), b=1.0)
        with pytest.raises(RuntimeError) as info:
            _check_self_consistency(np.float64(0.5), 0.0, par)  # y = 0.5 is no root
        assert str(info.value).endswith(f"T=1.0, b=1.0, H_back=0.0, p={math.tanh(0.5)!r}")


class TestMagnetizationRoots:
    def test_contraction_regime_single_root(self):
        roots = cw_magnetization_roots(0.0, CurieWeissParams(T=2.0, b=1.0))
        assert len(roots) == 1
        assert abs(roots[0].p) < 1e-12
        assert roots[0].stability == "global_min"

    def test_double_well_against_bisection_oracle(self):
        # independent oracle: plain bisection on p - tanh(2p) over [0.5, 0.9999]
        def g(p):
            return p - math.tanh(2.0 * p)

        lo, hi = 0.5, 0.9999
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        p_star = 0.5 * (lo + hi)
        assert abs(p_star - 0.957504) < 1e-6  # frozen from the oracle

        roots = cw_magnetization_roots(0.0, CurieWeissParams(T=0.5, b=1.0))
        assert len(roots) == 3
        ps = [r.p for r in roots]
        assert abs(ps[0] + p_star) < 1e-10
        assert abs(ps[1]) < 1e-12
        assert abs(ps[2] - p_star) < 1e-10
        assert [r.stability for r in roots] == ["local_min", "unstable", "global_min"]

    def test_saturation_scan(self):
        roots = cw_magnetization_roots(10.0, CurieWeissParams(T=1.0, b=1.0))
        assert len(roots) == 1
        assert roots[0].p > 0.99999

    def test_saturated_roots_keep_a_finite_y(self):
        # at T = 0.04 the outer roots are p = tanh(+-25), which rounds to +-1
        roots = cw_magnetization_roots(0.0, CurieWeissParams(T=0.04, b=1.0))
        assert [r.p for r in roots] == [-1.0, 0.0, 1.0]
        for r in roots:
            assert math.isfinite(r.y) and r.p == math.tanh(r.y)
            assert cw_entropy_y(r.y) > 0.0

    def test_accurate_roots_pass_at_low_T_over_b(self):
        # T/b = 2.5e-4: the middle root misses p = tanh((q + b p)/T) by
        # 4.1e-10 because b/T multiplies p's rounding, yet it solves the
        # equation in y, g(y) = T y - b tanh y - q, to 1e-13 of its terms
        q, T, b = 14.991232372200589, 0.06647684522000208, 262.34576055844354
        roots = cw_magnetization_roots(q, CurieWeissParams(T=T, b=b))
        assert [r.stability for r in roots] == ["local_min", "unstable", "global_min"]
        assert [r.piece for r in roots] == [-1, 0, 1]
        middle = roots[1]
        assert abs(middle.p - math.tanh((q + b * middle.p) / T)) > 1e-10

        def g(y):
            return T * y - b * math.tanh(y) - q

        for r in roots:
            assert abs(g(r.y)) < 1e-12 * max(T, abs(T * r.y), b, abs(q))
            assert g(r.y - 3e-12) * g(r.y + 3e-12) < 0.0

    def test_asymmetric_global_minimum(self):
        # a positive field tilts the double well toward positive p
        roots = cw_magnetization_roots(0.05, CurieWeissParams(T=0.5, b=1.0))
        best = select_equilibrium(roots)
        assert best.p > 0.9
        assert best.z == max(r.z for r in roots)

    def test_select_without_a_global_min_takes_the_largest_z(self):
        points = [CWBranchPoint(-0.9, 0.0, 1.0, "local_min", -1.5, -1),
                  CWBranchPoint(0.0, 0.0, 3.0, "unstable", 0.0, 0),
                  CWBranchPoint(0.9, 0.0, 2.0, "local_min", 1.5, 1)]
        assert select_equilibrium(points) is points[1]

    def test_select_from_empty_raises(self):
        with pytest.raises(ValueError):
            select_equilibrium([])

    def test_a_stable_root_survives_at_tiny_t_over_b(self):
        # (q + b)/T = 1e20: a range end padded by 1.0 alone rounded back onto
        # it, g there had the root's sign, and the stable root at p = 1 was lost
        points = cw_magnetization_roots(1e-4, CurieWeissParams(T=1e-20, b=1.0))
        assert [pt.stability for pt in points] == ["local_min", "unstable", "global_min"]
        assert [pt.p for pt in points][::2] == [-1.0, 1.0]

    def test_a_root_brentq_does_not_reach_names_its_problem(self):
        # at T/b = 1e-32 the grid cell around the middle root is ~2e28 wide,
        # more than brentq's 100 iterations narrow to MAGNET_YTOL
        with pytest.raises(RuntimeError) as info:
            cw_magnetization_roots(0.7, CurieWeissParams(T=1e-32, b=1.0))
        assert str(info.value) == (
            "the magnetization root at T=1e-32, b=1.0, q + H_back=0.7 on "
            "[-1.7001700170033833e+28, 3.000300030004911e+27]: "
            "Failed to converge after 100 iterations."
        )


@st.composite
def _magnet_problems(draw):
    """(q, T, H_back, b): b from 1e-3 to 1e3 and T/b from 1e-4 to 10, both
    log-uniform, with q + H_back near +- a fold value (where T < b), near 0
    or far out in saturation."""
    b = 10.0 ** draw(st.floats(-3.0, 3.0))
    T = b * 10.0 ** draw(st.floats(-4.0, 1.0))
    fold = cw_fold(T, b)
    sign = draw(st.sampled_from([-1.0, 1.0]))
    near = draw(st.sampled_from(["fold", "zero", "far"]))
    if near == "fold" and fold is not None:
        # g(y) = T y - b tanh y has its turning values +-(b tanh y* - T y*)
        offset = draw(st.just(0.0) | st.floats(-16.0, -2.0).map(lambda e: 10.0**e))
        offset *= draw(st.sampled_from([-1.0, 1.0]))
        target = sign * (b * math.tanh(fold) - T * fold) * (1.0 + offset)
    elif near == "far":
        target = sign * b * 10.0 ** draw(st.floats(0.3, 3.0))
    else:
        target = draw(st.just(0.0) | st.floats(-16.0, -1.0).map(lambda e: sign * b * 10.0**e))
    H_back = draw(st.just(0.0) | st.floats(-1.0, 1.0).map(lambda u: u * b))
    return target - H_back, T, H_back, b


class TestMagnetFamilyProperty:
    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(problem=_magnet_problems())
    def test_roots_are_counted_ordered_labelled_and_bracketed(self, problem):
        q, T, H_back, b = problem
        roots = cw_magnetization_roots(q, CurieWeissParams(T=T, H_back=H_back, b=b))
        target = float(q + H_back)
        fold = cw_fold(T, b)
        assert len(roots) == 1 if T >= b else 1 <= len(roots) <= 3
        assert [r.p for r in roots] == sorted(r.p for r in roots)
        assert [r.stability for r in roots].count("global_min") == 1
        # each monotone piece holds one root at most
        assert [r.piece for r in roots] == sorted({r.piece for r in roots})
        if target == 0.0:
            # g(0) = 0 exactly: the middle piece holds the root y = +0.0
            middle = [r.y for r in roots if r.piece == 0]
            assert middle == [0.0] and math.copysign(1.0, middle[0]) == 1.0

        def g(y):
            return T * y - b * math.tanh(y) - target

        for r in roots:
            y = r.y
            scale = max(T, abs(T * y), b, abs(target))
            # |g'(y)| = |T - b sech^2 y|, without overflowing cosh
            e = math.exp(-2.0 * abs(y))
            slope = abs(T - b * 4.0 * e / (1.0 + e) ** 2)
            # the window holds the exact root, y's brentq tolerance away,
            # plus four times the width in which g's rounding (8 eps of its
            # terms) can hide its sign
            rounding = 8.0 * math.ulp(1.0) * scale
            window = 2.0 * (MAGNET_YTOL + 4.0 * math.ulp(1.0) * abs(y))
            window += 4.0 * rounding / slope if slope > 0.0 else math.inf
            if fold is None:
                assert r.piece == (target > 0.0) - (target < 0.0)
                assert (y > 0.0) - (y < 0.0) == r.piece or abs(y) <= window
            else:
                assert {-1: y <= -fold, 0: -fold <= y <= fold, 1: y >= fold}[r.piece]
            # g changes sign across a window that holds no other root and no
            # fold; at a (near-)double root it need not, and |g| is bounded
            near = [abs(y - o.y) for o in roots if o is not r]
            near += [] if fold is None else [abs(y - fold), abs(y + fold)]
            if 2.0 * window < min(near, default=math.inf):
                assert g(y - window) * g(y + window) < 0.0, (y, window)
            else:
                assert abs(g(y)) <= SELF_CONSISTENCY_TOL * scale


class TestCWEntropy:
    def test_maximal_mixing(self):
        assert cw_entropy(0.0) == math.log(2)

    def test_worked_value(self):
        assert abs(cw_entropy(0.5) - 0.5623351446188083) < 1e-12

    def test_pure_state_limit(self):
        assert 0.0 < cw_entropy(0.999999) < 2e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            cw_entropy(1.0)
        with pytest.raises(ValueError):
            cw_entropy(-1.5)


class TestDifferenceFront:
    def test_symmetric_magnet_case(self):
        front = difference_front("cw", 1.0, 2.5, 0.0)
        assert abs(front.value(0.0) - 1.5 * math.log(2)) < 1e-14
        assert abs(front.slope(0.0)) < 1e-15

    def test_magnet_maximum_position(self):
        front = difference_front("cw", 2.0, 10.0 / 3.0, 1.0)
        qs = np.linspace(-10, 10, 20001)
        q_argmax = qs[np.argmax(front.value(qs))]
        assert abs(q_argmax - 1.5) < 1e-3  # grid-limited; finder tests refine

    def test_magnet_asymptotes(self):
        for c in (1.0, -0.7):
            front = difference_front("cw", 2.0, 10.0 / 3.0, c)
            assert abs(front.value(50.0) - c) < 1e-6
            assert abs(front.value(-50.0) + c) < 1e-6

    def test_gas_domain(self):
        front = difference_front("gas", 1.0, 5.0, 2.0)
        with pytest.raises(DomainError):
            front.value(0.5)
        with pytest.raises(DomainError):
            front.slope(np.array([-0.5, 0.5]))
        front.value(-0.5)  # inside

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            difference_front("bogus", 1.0, 2.0, 0.5)

    def test_fd_consistency(self):
        rng = np.random.default_rng(41)
        assert_front_consistent(difference_front("cw", 1.3, 2.1, 0.6), -8, 8, rng)
        assert_front_consistent(difference_front("gas", 1.0, 5.0, 2.0), -6, -0.3, rng)


# _tanh_gap clips with np.minimum(np.maximum(...)); these are the edges
# where that could part from np.clip: the clip bounds and their neighbours,
# infinities, nan, signed zeros, subnormals and the largest doubles
_CLIP_EDGES = [
    350.0, -350.0, math.nextafter(350.0, math.inf), math.nextafter(-350.0, -math.inf),
    math.nextafter(350.0, 0.0), math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
    1e-310, -1e-310, 1e308, -1e308, 1.0, -17.5,
]


def _tanh_gap_with_clip(u, v):
    u = np.clip(u, -350.0, 350.0)
    v = np.clip(v, -350.0, 350.0)
    return np.sinh(u - v) / (np.cosh(u) * np.cosh(v))


class TestTanhGap:
    def test_arrays_leave_their_arguments_alone(self):
        u = np.array(_CLIP_EDGES)
        v = u[::-1].copy()
        u0, v0 = u.copy(), v.copy()
        _tanh_gap(u, v)
        assert u.tobytes() == u0.tobytes() and v.tobytes() == v0.tobytes()

    def test_arrays_give_the_clip_bits(self):
        u, v = (a.ravel() for a in np.meshgrid(_CLIP_EDGES, _CLIP_EDGES))
        got, want = _tanh_gap(u, v), _tanh_gap_with_clip(u, v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("u", _CLIP_EDGES)
    def test_floats_give_the_clip_bits(self, u):
        for v in _CLIP_EDGES:
            got, want = _tanh_gap(u, v), _tanh_gap_with_clip(u, v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _nudged(x: float, ulps: int) -> float:
    """x moved by |ulps| doubles, up for ulps > 0 and down for ulps < 0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _front_and_point(draw):
    """A front of the finder's kinds and a float inside its domain: anywhere
    up to |x| = 1e300, a few ulps inside a gas domain's end, or where the
    magnet slope's u or v lies a few ulps from its +-350 clip."""
    kind = draw(st.sampled_from(["gas front", "constant", "gas", "cw"]))
    temperature = st.floats(0.01, 100.0)
    if kind == "gas front":
        front = gas_front(IdealGasParams(T=draw(temperature), P_back=draw(st.floats(-10, 10))))
    elif kind == "constant":
        front = constant_front(draw(st.floats(-1e300, 1e300)))
    else:
        t0 = draw(temperature)
        t1 = t0 + draw(temperature)
        c = draw(st.floats(-10.0, 10.0))
        front = difference_front(kind, t0, t1, c)
    lo, hi = front.domain
    where = draw(st.sampled_from(["anywhere", "near the end", "near the clip"]))
    if where == "near the end" and hi < math.inf:
        x = _nudged(hi, -draw(st.integers(1, 4)))
    elif where == "near the clip" and kind == "cw":
        edge = draw(st.sampled_from([350.0, -350.0]))
        x = edge * t0 if draw(st.booleans()) else edge * t1 - c
        x = _nudged(x, draw(st.integers(-3, 3)))
    else:
        x = draw(st.floats(max(lo, -1e300), min(hi, 1e300), exclude_max=True))
    assume(lo < x < hi)
    return front, x


def _outcome(fn, x):
    """The bits of fn(x), or the type and text of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.float64(fn(x)).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _float_outcome(fn, x):
    """_outcome of fn(x), where fn(x) must return a Python float if it returns."""
    out = _outcome(fn, x)
    if isinstance(out, bytes):
        with np.errstate(all="ignore"):
            assert type(fn(x)) is float
    return out


class TestFloatPath:
    """A number enters a front as a Python float: each f and fprime gives on
    a float the bits (or the error) of the same call on a 0-d array and on a
    block of one node, and FrontFunction.value and slope give on a float,
    a numpy scalar or a 0-d array a Python float with those bits."""

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(_front_and_point())
    def test_a_float_gives_the_bits_of_a_0d_array(self, front_and_point):
        front, x = front_and_point
        for fn, checked in ((front.f, front.value), (front.fprime, front.slope)):
            want = _outcome(fn, np.asarray(x))
            assert _outcome(fn, x) == want
            assert _outcome(lambda block: fn(block)[0], np.asarray([x])) == want
            for number in (x, np.float64(x), np.asarray(x)):
                assert _float_outcome(checked, number) == want

    def test_the_gas_slope_at_a_float_zero_is_numpys(self):
        # float division by zero would raise ZeroDivisionError
        with np.errstate(divide="ignore"):
            assert gas_dphi(2.0, 0.0) == -math.inf and gas_dphi(2.0, -0.0) == math.inf


class TestBarredMaps:
    def test_gas_reference_family_flattens(self):
        T0 = 1.7
        for q in np.linspace(-5.0, -0.1, 50):
            Z, P, Q = gas_to_barred(float(gas_phi(T0, q)), 1.7 / -q, q, T0)
            assert abs(Z) < 1e-10
            assert abs(P) < 1e-10
            assert Q == q

    def test_cw_reference_family_flattens(self):
        par = CurieWeissParams(T=1.3, H_back=0.0, b=0.8)
        for q, p, z, _ in sample_cw_legendrian(par, np.linspace(-0.95, 0.95, 50)):
            Z, P, _ = cw_to_barred(z, p, q, par.T, par.b)
            assert abs(Z) < 1e-10
            assert abs(P) < 1e-10

    def test_round_trips(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            z, p = rng.normal(size=2)
            q = float(rng.uniform(-4, -0.1))
            back = gas_from_barred(*gas_to_barred(z, p, q, 2.2), 2.2)
            assert abs(back[0] - z) < 1e-12
            assert abs(back[1] - p) < 1e-12
            q = float(rng.normal())
            back = cw_from_barred(*cw_to_barred(z, p, q, 1.1, 0.9), 1.1, 0.9)
            assert abs(back[0] - z) < 1e-12
            assert abs(back[1] - p) < 1e-12
            assert abs(back[2] - q) < 1e-12

    def test_gas_domain_requirement(self):
        with pytest.raises(DomainError):
            gas_to_barred(0.0, 1.0, 0.5, 1.0)

    def test_form_preservation_along_sampled_curves(self):
        rng = np.random.default_rng(47)
        t = np.linspace(0.0, 1.0, 50001)
        for _ in range(10):
            T0 = float(rng.uniform(1.0, 2.5))
            b = float(rng.uniform(0.3, 1.0))
            z = 0.4 * np.sin(t + rng.uniform(0, 6)) + 0.3 * t
            p = 0.4 * np.cos(0.8 * t + rng.uniform(0, 6))
            q = -2.0 + 0.3 * np.sin(0.9 * t + rng.uniform(0, 6))
            rhs = np.gradient(z, t) - p * np.gradient(q, t)
            for Z, P, Q in (gas_to_barred(z, p, q, T0), cw_to_barred(z, p, q, T0, b)):
                lhs = np.gradient(Z, t) - P * np.gradient(Q, t)
                assert np.abs((lhs - rhs)[1:-1]).max() < 1e-8

    def test_scalar_points_required(self):
        # scalars or equal-length columns; columns of different lengths fail
        with pytest.raises(ValueError):
            gas_to_barred([0.0, 1.0], [1.0, 2.0, 3.0], [-1.0, -2.0], 1.0)
        with pytest.raises(ValueError):
            cw_to_barred([0.0, 1.0], [1.0, 2.0, 3.0], [-1.0, -2.0], 1.0, 0.5)

    def test_scalars_give_floats_and_columns_arrays(self):
        out = cw_to_barred(0.1, 0.2, 0.3, 1.1, 0.9)
        assert all(type(x) is float for x in out)
        out = gas_from_barred([0.1, 0.2], [0.3, 0.4], [-1.0, -2.0], 1.1)
        assert all(isinstance(x, np.ndarray) and x.shape == (2,) for x in out)


# ranges of the criterion-5 and reference-family draws, where a round trip
# loses no more than a few ulps of values of order 10
_coord = st.floats(-5.0, 5.0)
_temperature = st.floats(0.5, 3.0)
_coupling = st.floats(0.1, 2.0)
_MAPS = {
    "gas_to_barred": (gas_to_barred, False),
    "gas_from_barred": (gas_from_barred, False),
    "cw_to_barred": (cw_to_barred, True),
    "cw_from_barred": (cw_from_barred, True),
}


@st.composite
def _columns(draw, negative_q: bool):
    n = draw(st.integers(1, 20))
    z, p = (draw(st.lists(_coord, min_size=n, max_size=n)) for _ in range(2))
    q_values = st.floats(-4.0, -0.1) if negative_q else _coord
    q = draw(st.lists(q_values, min_size=n, max_size=n))
    return np.array(z), np.array(p), np.array(q)


class TestBarredMapProperties:
    @pytest.mark.parametrize("name", sorted(_MAPS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), t0=_temperature, b=_coupling)
    def test_column_equals_scalar_per_element(self, name, data, t0, b):
        fn, magnet = _MAPS[name]
        extra = (t0, b) if magnet else (t0,)
        z, p, q = data.draw(_columns(negative_q=not magnet))
        cols = fn(z, p, q, *extra)
        for i in range(z.size):
            assert fn(float(z[i]), float(p[i]), float(q[i]), *extra) == tuple(
                float(c[i]) for c in cols
            )

    @settings(max_examples=150, deadline=None)
    @given(gas=_columns(negative_q=True), cw=_columns(negative_q=False),
           t0=_temperature, b=_coupling)
    def test_round_trips_within_1e_12(self, gas, cw, t0, b):
        for x, back in (
            (gas, gas_from_barred(*gas_to_barred(*gas, t0), t0)),
            (cw, cw_from_barred(*cw_to_barred(*cw, t0, b), t0, b)),
        ):
            for a, e in zip(back, x):
                assert np.abs(a - e).max() <= 1e-12

    @pytest.mark.parametrize("fn", [gas_to_barred, gas_from_barred])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), t0=_temperature)
    def test_gas_maps_reject_any_nonnegative_q(self, fn, data, t0):
        z, p, q = data.draw(_columns(negative_q=True))
        i = data.draw(st.integers(0, q.size - 1))
        q[i] = data.draw(st.floats(0.0, 50.0))
        with pytest.raises(DomainError):
            fn(z, p, q, t0)
        with pytest.raises(DomainError):
            fn(float(z[i]), float(p[i]), float(q[i]), t0)


class TestCouplingDerivatives:
    def test_dz_db_value(self):
        dz_db, _ = cw_coupling_derivatives(0.5, 1.0, 0.0)
        assert dz_db == 0.125

    def test_db_dp_value(self):
        _, db_dp = cw_coupling_derivatives(0.5, 1.0, 0.0)
        assert abs(db_dp - 0.46944208933044703) < 1e-12

    def test_field_enters_linearly(self):
        p = 0.4
        _, at_zero = cw_coupling_derivatives(p, 1.3, 0.0)
        _, at_q = cw_coupling_derivatives(p, 1.3, 0.7)
        assert abs((at_q - at_zero) - 0.7 / p**2) < 1e-12

    def test_positive_for_positive_p_and_field(self):
        for p in np.linspace(0.05, 0.95, 15):
            for q in (0.0, 0.5, 2.0):
                dz_db, db_dp = cw_coupling_derivatives(float(p), 1.0, q)
                assert dz_db > 0 and db_dp > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            cw_coupling_derivatives(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            cw_coupling_derivatives(-0.5, 1.0, 0.0)

    def test_dz_db_matches_branch_tracked_fd(self):
        h = 1e-4
        for T, q, b in ((1.3, 0.4, 0.8), (0.7, 1.0, 1.4), (2.2, 0.1, 0.5)):
            def branch(b_):
                return select_equilibrium(
                    cw_magnetization_roots(q, CurieWeissParams(T=T, b=b_))
                )

            pt = branch(b)
            fd = (branch(b + h).z - branch(b - h).z) / (2 * h)
            assert abs(fd - pt.p**2 / 2.0) < 1e-5


class TestDzDT:
    def test_symmetric_point(self):
        assert cw_dz_dT(0.0, 0.0, 1.0, 1.0) == math.log(2)

    def test_unit_argument(self):
        val = cw_dz_dT(0.0, 1.0, 1.0, 1.0)
        assert abs(val - 0.3653338550872075) < 1e-12

    def test_saturated_argument_stays_positive(self):
        val = cw_dz_dT(0.0, 50.0, 1.0, 1.0)
        assert 0.0 < val < 1e-40

    def test_equals_mixing_entropy_of_equilibrium(self):
        for u in (0.0, 0.3, 1.0, 2.5):
            assert abs(cw_dz_dT(0.0, u, 1.0, 1.0) - cw_entropy(math.tanh(u))) < 1e-12

    def test_matches_fd_on_grid(self):
        step = 1e-5
        for A in np.linspace(-20, 20, 21):
            for T in np.linspace(0.3, 4.0, 21):
                val = cw_dz_dT(0.0, float(A), float(T), 1.0)
                fd = float(cw_phi(T + step, A) - cw_phi(T - step, A)) / (2 * step)
                assert abs(val - fd) < 1e-6
                assert val > 0


class TestSampling:
    def test_gas_samples_columns(self):
        table = sample_gas_legendrian(IdealGasParams(T=1.0), np.linspace(-3, -1, 5))
        assert table.shape == (5, 3)
        q, p, z = table[0]
        assert p == 1.0 / 3 and abs(z - (-math.log(3))) < 1e-14

    def test_cw_samples_include_entropy(self):
        table = sample_cw_legendrian(
            CurieWeissParams(T=1.0, b=1.0), np.linspace(-0.5, 0.5, 5)
        )
        assert table.shape == (5, 4)
        assert abs(table[2, 3] - math.log(2)) < 1e-12  # S at p=0

    def test_constant_front(self):
        front = constant_front(3.5)
        assert front.value(10.0) == 3.5
        assert front.slope(-2.0) == 0.0
