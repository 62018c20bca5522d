import math
import random
import struct
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from subharnack import semigroup, subordinator
from subharnack.specfun import _exp_or_inf
from subharnack.semigroup import (
    _as_point,
    _checked_pair,
    _expect_on_nodes,
    _first_coordinate,
    _gauss_expectation_rule,
    _gauss_quad_memo,
    _kernel_density_at,
    _log_shifted_bump_expect,
    _subordinated_apply_memo,
    BaseKernel,
    Constant,
    ExpAffine,
    GaussBump,
    Indicator,
    ShiftedForLog,
    TestFunction,
    apply,
    cauchy_closed_form,
    gauss_heat,
    kernel_density,
    ondiag,
    ou1d,
    subordinated_apply,
    subordinated_density,
)
from subharnack.subordinator import (
    _LOG_HUGE,
    _blocks,
    _law_nodes,
    _law_rule,
    _law_sum,
    QuadratureSpec,
    StableSubordinator,
    integrate_against,
    log_fractional_moment,
)
from subharnack.verify import _on_z, _z_rule

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
ULP = np.finfo(float).eps


def reference_kernel_density(base, s, x, y):
    """The numpy form ``kernel_density`` had before its float path; kept as
    the reference the float path must reproduce bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    m, sigma = base.mean_sigma(s, x)
    q = float(np.sum((y - m) ** 2))
    return (2.0 * math.pi * sigma ** 2) ** (-0.5 * base.d) * math.exp(
        -q / (2.0 * sigma ** 2)
    )

FUNCTIONS = [
    Constant(2.0),
    GaussBump(0.3, 0.8),
    Indicator(-1.0, 0.5),
    ExpAffine(0.4, clip=1.2),
    ExpAffine(-0.7, clip=0.0),
]

# every family with a closed form that the fixed Gaussian rule must match
RULE_FUNCTIONS = [
    GaussBump(0.3, 0.8),
    GaussBump(-0.5, 0.2),
    GaussBump(-0.5, 0.2).pow(3.0),
    Indicator(-1.0, 1.0),
    Indicator(-1.0, 0.5),
    ExpAffine(0.4, clip=1.2),
    ExpAffine(1.6, clip=-0.5),
    ShiftedForLog(Indicator(-1.0, 1.0), 1.0).log(),
]


def quad_gauss_expect(g, m, sigma, breaks=()):
    """E g(m + sigma*Z) for a float function g, by adaptive quadrature over
    m +- 12 sigma, split at the breaks inside it: a reference independent
    of the library's fixed rule."""
    lo, hi = m - 12.0 * sigma, m + 12.0 * sigma
    knots = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        part, _ = quad(lambda y: g(y) * math.exp(-0.5 * ((y - m) / sigma) ** 2),
                       a, b, epsabs=0.0, epsrel=1e-12, limit=200)
        total += part
    return total / (sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class _CosSquared(TestFunction):
    """cos(y)**2 as a user's test function: hashable, with no closed form
    and no breakpoints, so its expectations take the fixed rule."""

    def __call__(self, y):
        return np.cos(np.asarray(y, dtype=float)) ** 2


class TestKernels:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            BaseKernel("brownian_bridge", 1)

    def test_rejects_multidim_ou(self):
        with pytest.raises(ValueError):
            BaseKernel("ou1d", 2)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            gauss_heat(4)

    def test_heat_density_normalizes(self):
        from scipy.integrate import quad as _quad

        base = gauss_heat(1)
        total, _ = _quad(lambda z: kernel_density(base, 0.7, [0.2], [z]),
                         -30, 30)
        assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_heat_density_value(self):
        # p_s(x, y) = (4 pi s)^(-1/2) exp(-|x-y|^2/(4s))
        base = gauss_heat(1)
        s, x, y = 0.5, 0.0, 1.0
        expect = (4 * math.pi * s) ** -0.5 * math.exp(-1.0 / (4 * s))
        assert math.isclose(kernel_density(base, s, [x], [y]), expect,
                            rel_tol=1e-14)

    def test_ou_density_long_time_is_invariant(self):
        base = ou1d()
        val = kernel_density(base, 40.0, [3.0], [0.5])
        std_normal = math.exp(-0.125) / math.sqrt(2 * math.pi)
        assert math.isclose(val, std_normal, rel_tol=1e-10)

    def test_ou_reversibility(self):
        # phi(x) p_s(x, y) = phi(y) p_s(y, x) w.r.t. the standard normal
        base = ou1d()
        x, y, s = 0.4, -1.1, 0.8

        def phi(z):
            return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

        lhs = phi(x) * kernel_density(base, s, [x], [y])
        rhs = phi(y) * kernel_density(base, s, [y], [x])
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


# finite floats of every magnitude, from subnormal to near the largest
COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-10.0, max_value=10.0),
)

# every float, with the edges named: signed zeros, infinities, nan, the
# subnormals and the largest magnitudes
EVERY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2e-308, -2.2e-308, 1e308, -1e308]),
)


def d1_point_forms(v):
    """The float v in every form a d = 1 point may take."""
    forms = [v, np.float64(v), [v], (v,), np.array(v), np.array([v])]
    negative_zero = v == 0.0 and math.copysign(1.0, v) < 0.0
    if math.isfinite(v) and v == int(v) and not negative_zero:
        forms.append(int(v))  # int(-0.0) is 0, which reads as +0.0
    return forms


def float_bits(v):
    assert type(v) is float
    return struct.pack("<d", v)


class TestCheckedPair:
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.lists(COORDINATES, min_size=d, max_size=d),
        st.lists(COORDINATES, min_size=d, max_size=d))))
    @settings(max_examples=500, deadline=None)
    def test_rho_sq_is_numpys_sum_bit_for_bit(self, pair):
        x, y = pair
        d = len(x)
        with np.errstate(over="ignore"):
            want = float(np.sum((np.array(y) - np.array(x)) ** 2))
        got_x, got_y, rho_sq = _checked_pair(gauss_heat(d), x, y)
        # finite coordinates: y - x may overflow to inf, never to nan
        assert type(rho_sq) is float and rho_sq == want
        if d == 1:
            assert (got_x, got_y) == (x[0], y[0]) and type(got_x) is float
        else:
            assert (got_x, got_y) == (tuple(x), tuple(y))

    @given(EVERY_FLOAT, EVERY_FLOAT)
    @settings(max_examples=300, deadline=None)
    def test_every_d1_form_gives_the_float_bits(self, x, y):
        # a pair of floats is taken as checked; every other form takes the
        # numpy path, and both give the same floats, bit for bit
        base, f = gauss_heat(1), GaussBump(0.0, 1.0)
        want = [float_bits(v) for v in _checked_pair(base, x, y)]
        assert want[:2] == [float_bits(x), float_bits(y)]
        for fx in d1_point_forms(x):
            assert float_bits(_first_coordinate(base, f, fx)) == want[0]
            for fy in d1_point_forms(y):
                got = [float_bits(v) for v in _checked_pair(base, fx, fy)]
                assert got == want

    @pytest.mark.parametrize("d, point", [
        (2, 0.5), (3, -0.0), (2, math.nan), (1, [[0.0]]), (1, [0.0, 1.0]),
    ])
    def test_float_path_refuses_what_numpy_refuses(self, d, point):
        base, good = gauss_heat(d), [0.0] * d
        for x, y in ((point, point), (point, good), (good, point)):
            with pytest.raises(ValueError, match="dimension"):
                _checked_pair(base, x, y)
        with pytest.raises(ValueError, match="dimension"):
            _first_coordinate(base, Constant(1.0), point)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_float_lists_and_tuples_take_no_numpy_check(self, d, monkeypatch):
        # a list or tuple of d Python floats is a checked point, returned
        # as a float at d = 1 and a tuple above; np.float64 coordinates
        # still take the numpy check, with the same floats returned
        calls = []
        monkeypatch.setattr(semigroup, "_as_point",
                            lambda x, d: calls.append(x) or _as_point(x, d))
        x, y = [0.25 * k for k in range(d)], tuple(-0.5 * k for k in range(d))
        want = _checked_pair(gauss_heat(d), x, y)
        assert want[:2] == ((x[0], y[0]) if d == 1 else (tuple(x), y))
        assert _first_coordinate(gauss_heat(d), Constant(1.0), y) == y[0]
        assert calls == []
        got = _checked_pair(gauss_heat(d), [np.float64(c) for c in x], y)
        assert len(calls) == 1 and got == want

    @pytest.mark.parametrize("d, point", [(1, 0.5), (2, 0.5), (1, [[0.0]])])
    def test_plain_callable_is_refused_before_the_point(self, d, point):
        with pytest.raises(TypeError, match="TestFunction"):
            _first_coordinate(gauss_heat(d), lambda y: y, point)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("point", [
        0.5, np.array(0.5), [0.5], np.array([0.5]), [[0.5]], np.array([[0.5]]),
        [0.5, 1.5], (0.5, 1.5), np.array([0.5, 1.5]), 3,
    ])
    def test_as_point_takes_the_shapes_it_took(self, d, point):
        # 0-d and (1,) are one coordinate, (1, 1) is refused, (2,) is two
        want = np.atleast_1d(np.asarray(point, dtype=float))
        if want.shape != (d,):
            with pytest.raises(ValueError, match="dimension"):
                _as_point(point, d)
        else:
            got = _as_point(point, d)
            assert got.dtype == np.float64 and got.tolist() == want.tolist()


class TestApply:
    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.describe())
    @pytest.mark.parametrize("base", [gauss_heat(1), ou1d()],
                             ids=lambda b: b.kind)
    def test_closed_matches_quadrature(self, base, f):
        # the fixed breakpoint-aware rule against each closed form
        for s, x in ((0.3, 0.2), (1.5, -0.7)):
            m, sigma = base.mean_sigma(s, x)
            closed = f.gauss_expect(m, sigma)
            rule = float(_gauss_expectation_rule(f, m, sigma))
            assert math.isclose(closed, rule, rel_tol=1e-12)

    @given(st.sampled_from(RULE_FUNCTIONS),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-4.0, max_value=7.0))
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_closed_forms(self, f, m, log_sigma):
        # heat kernel from x = m at time s has sigma = sqrt(2 s)
        s = 0.5 * (10.0 ** log_sigma) ** 2
        m, sigma = gauss_heat(1).mean_sigma(s, m)
        closed = f.gauss_expect(m, sigma)
        rule = float(_gauss_expectation_rule(f, m, sigma))
        tol = QuadratureSpec()
        # the absolute floor covers far-tail values such as E 1_[-1,1]
        # at m = 2.5, sigma = 0.056 (about 1e-150)
        assert abs(rule - closed) <= tol.rel_tol * abs(closed) + tol.abs_tol

    def test_rule_resolves_feature_narrower_than_sigma(self):
        # at sigma ~ 986.88 the bump is a spike the adaptive path over the
        # +-12 sigma window could step over; the fixed rule's panels break
        # at the bump's own scale. apply takes the bump's series instead,
        # and never reaches the rule
        mp = pytest.importorskip("mpmath")
        s = 486961.6867990451
        sigma = math.sqrt(2.0 * s)
        f = ShiftedForLog(GaussBump(0.0, 1.0), 1.0).log()
        rule = float(_gauss_expectation_rule(f, 0.0, sigma))
        before = _gauss_quad_memo.cache_info()
        got = apply(gauss_heat(1), f, s, [0.0])
        assert _gauss_quad_memo.cache_info() == before
        with mp.workdps(30):
            ref = mp.quad(
                lambda y: mp.log(1 + mp.exp(-y * y / 2)) * mp.npdf(y, 0, sigma),
                [-40, -12, -4, -1, 0, 1, 4, 12, 40])
        assert math.isclose(float(ref), 7.75322248700086e-4, rel_tol=1e-12)
        assert math.isclose(rule, float(ref), rel_tol=1e-12)
        assert math.isclose(got, float(ref), rel_tol=1e-14)

    def test_power_closure_consistent(self):
        # f.pow(p) must agree with pointwise f(y)**p under the kernel
        base = gauss_heat(1)
        m, sigma = base.mean_sigma(0.6, 0.1)
        for f in FUNCTIONS:
            for p in (2.0, 3.5):
                a = apply(base, f.pow(p), 0.6, [0.1])
                b = quad_gauss_expect(lambda y, f=f, p=p: float(f(y)) ** p,
                                      m, sigma, f.breakpoints())
                assert math.isclose(a, b, rel_tol=1e-8), f.describe()

    def test_constant_any_dimension(self):
        assert apply(gauss_heat(3), Constant(5.0), 1.0, [0, 0, 0]) == 5.0

    def test_contraction(self):
        # P_s is a contraction: sup P_s f <= sup f = 1 for the bump
        f = GaussBump(0.0, 1.0)
        for s in (0.1, 1.0, 10.0):
            assert apply(gauss_heat(1), f, s, [0.0]) <= 1.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            apply(gauss_heat(1), Constant(1.0), 0.0, [0.0])


# (m, sigma, floor, center, width), sigma from 1e-3 to 300
LOG_BUMP_POINTS = [
    (0.0, 1e-3, 1.0, 0.0, 1.0),
    (2.9, 0.05, 1.5, -1.0, 0.7),
    (0.5, 0.3, 1.0, 0.0, 0.4),
    (2.0, 1.0, 2.0, -0.5, 1.5),
    (-1.0, 10.0, 1.0, 0.3, 0.2),
    (1.5, 30.0, 1.0, -0.2, 2.5),
    (0.3, 300.0, 3.0, 1.0, 3.0),
]


class TestLogBumpSeries:
    """E log(floor + bump(m + sigma Z)) as the accelerated series of the
    bump's closed powers."""

    @given(st.sampled_from([gauss_heat(1), ou1d()]),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=4.0),
           st.floats(min_value=1.0, max_value=4.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.2, max_value=3.0))
    @settings(max_examples=300, deadline=None)
    def test_series_matches_the_rule(self, base, x, log_sigma, floor, center,
                                     width):
        # sigma = 10^log_sigma for the heat kernel; OU's scale at the same
        # time s stays below one
        s = 0.5 * (10.0 ** log_sigma) ** 2
        f = ShiftedForLog(GaussBump(center, width), floor).log()
        got = apply(base, f, s, [x])
        rule = float(_gauss_expectation_rule(f, *base.mean_sigma(s, x)))
        # a value far below an ulp of floor is resolved by the rule's fixed
        # panels to only ~4e-12 relative (3.7e-12 at heat, x = -2, sigma =
        # 0.1, bump (1, 0.203125), floor 1, value 6.7e-39, where the series
        # is within 4e-15 of the closed E[bump]): the absolute floor allows
        # for that
        assert abs(got - rule) <= 1e-13 * abs(rule) + ULP

    @pytest.mark.parametrize("center, width, m, sigma", [
        (-1.0, 0.2, 3.0, 1e-3),  # 1.3908e-87
        (0.0, 1.0, 9.0, 0.01),  # 2.5871e-18
    ])
    def test_rule_keeps_a_bump_below_half_an_ulp_of_the_floor(
            self, center, width, m, sigma):
        # the rule's integrand is log floor + log1p(bump / floor), so a
        # bump that floor + bump would round away still counts
        bump = GaussBump(center, width)
        want = float(_log_shifted_bump_expect(bump, 1.0, m, sigma))
        got = float(_gauss_expectation_rule(ShiftedForLog(bump).log(), m, sigma))
        assert 0.0 < want < 0.5 * ULP
        assert math.isclose(got, want, rel_tol=1e-12)

    @pytest.mark.parametrize("point", LOG_BUMP_POINTS)
    def test_series_against_mpmath(self, point):
        mp = pytest.importorskip("mpmath")
        m, sigma, floor, center, width = point
        f = ShiftedForLog(GaussBump(center, width), floor).log()
        got = f.gauss_expect(m, sigma)
        with mp.workdps(40):
            knots = {m - 40 * sigma, m + 40 * sigma}
            knots.update(center + width * k for k in (-30, -12, -4, -1, 0, 1, 4, 12, 30)
                         if abs(center + width * k - m) < 40 * sigma)
            ref = mp.quad(lambda y: (mp.log(floor + mp.exp(-(y - center) ** 2
                                                           / (2 * width ** 2)))
                                     * mp.npdf(y, m, sigma)), sorted(knots))
        assert math.isclose(got, float(ref), rel_tol=1e-14)

    @pytest.mark.parametrize("sigma", [0.0, 1e-300, 1e-12])
    @pytest.mark.parametrize("m, floor", [(0.0, 1.0), (0.0, 2.5), (0.7, 1.0),
                                          (-2.0, 1.3), (9.0, 1.0)])
    def test_no_spread_is_the_value_at_the_mean(self, m, floor, sigma):
        # log(floor + bump(m)), as log floor + log1p(u) so that a u below
        # an ulp (bump(9) = 3.3e-28) is kept; u = 1 at m = center and
        # floor = 1, the series at its slowest, gives log 2
        bump = GaussBump(0.0, 0.8)
        got = ShiftedForLog(bump, floor).log().gauss_expect(m, sigma)
        want = math.log(floor) + math.log1p(float(bump(m)) / floor)
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_weights_are_correctly_rounded(self):
        # Algorithm 1 of Cohen, Rodriguez Villegas and Zagier at 50 digits
        mp = pytest.importorskip("mpmath")
        n = semigroup._LOG1P_WEIGHTS.size
        with mp.workdps(50):
            d = (3 + mp.sqrt(8)) ** n
            d = (d + 1 / d) / 2
            b, c = mp.mpf(-1), -d
            for k in range(n):
                c = b - c
                want = c / (d * (k + 1))
                got = semigroup._LOG1P_WEIGHTS[k]
                assert abs(got - want) <= 0.5 * math.ulp(got)
                b = b * (k + n) * (k - n) / ((k + mp.mpf(0.5)) * (k + 1))

    def test_floats_and_arrays_agree_bit_for_bit(self):
        f = ShiftedForLog(GaussBump(0.2, 0.6), 1.5).log()
        for base in (gauss_heat(1), ou1d()):
            m, sigma = nodes_mean_sigma(base, StableSubordinator(0.7, 1.0), 0.4)
            on_arrays = f.gauss_expect(m, sigma, np)
            per_node = [f.gauss_expect(mi, si)
                        for mi, si in zip(m.tolist(), sigma.tolist())]
            assert on_arrays.tolist() == per_node


class TestTestFunctions:
    def test_indicator_power_idempotent(self):
        f = Indicator(-1.0, 1.0)
        assert f.pow(3.0) is f

    def test_bump_power_narrows(self):
        f = GaussBump(0.5, 1.0)
        g = f.pow(4.0)
        assert math.isclose(g.width, 0.5)
        ys = np.linspace(-2, 3, 50)
        assert np.allclose(f(ys) ** 4.0, g(ys))

    def test_expaffine_clip_pointwise(self):
        f = ExpAffine(0.4, clip=1.2)
        assert math.isclose(float(f(5.0)), math.exp(0.4 * 1.2))
        assert math.isclose(float(f(0.0)), 1.0)

    def test_expaffine_power_keeps_clip(self):
        f = ExpAffine(0.4, clip=1.2).pow(2.0)
        ys = np.linspace(-3, 3, 30)
        assert np.allclose(f(ys), ExpAffine(0.4, clip=1.2)(ys) ** 2)

    @pytest.mark.parametrize("slope", [0.4, 1.6])
    @pytest.mark.parametrize("sigma", [0.05, 1.0, 1e3, 1e5, 1e7])
    def test_clipped_expaffine_closed_form_mpmath(self, slope, sigma):
        # at large sigma the truncated lognormal term is a difference of
        # two numbers of size (slope*sigma)^2 unless assembled around the clip
        mp = pytest.importorskip("mpmath")
        clip, m = 1.2, -0.3
        with mp.workdps(50):
            lam, L, mm, sg = map(mp.mpf, (slope, clip, m, sigma))
            z = (L - mm) / sg
            ref = (mp.exp(lam * mm + lam ** 2 * sg ** 2 / 2) * mp.ncdf(z - lam * sg)
                   + mp.exp(lam * L) * mp.ncdf(-z))
        got = ExpAffine(slope, clip).gauss_expect(m, sigma)
        assert math.isclose(got, float(ref), rel_tol=1e-13)

    def test_unclipped_expaffine_closed_form(self):
        # lognormal mean: E e^(lam(m + sigma Z)) = e^(lam m + lam^2 sigma^2/2)
        f = ExpAffine(0.7)
        assert math.isclose(f.gauss_expect(0.3, 1.4),
                            math.exp(0.7 * 0.3 + 0.5 * 0.49 * 1.96),
                            rel_tol=1e-14)

    @pytest.mark.parametrize("f, s", [(ExpAffine(0.4), 1e4),
                                      (ExpAffine(-0.7, clip=0.0), 1500.0)])
    def test_expaffine_past_float_range_is_inf(self, f, s):
        # exponents 1600 and ~735: the expectation passes float range, and
        # the float path gives inf as the array path does, not an overflow
        assert apply(gauss_heat(1), f, s, [0.0]) == math.inf

    def test_shifted_for_log_floor(self):
        f = ShiftedForLog(GaussBump(0.0, 1.0), 1.0)
        ys = np.linspace(-5, 5, 50)
        assert np.all(f(ys) >= 1.0)
        with pytest.raises(ValueError):
            ShiftedForLog(GaussBump(0.0, 1.0), 0.5)

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=-2, max_value=2),
           st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=80, deadline=None)
    def test_bump_expectation_bounds(self, center, width, m, sigma):
        # a Gaussian average of a [0, 1] function stays in [0, 1]
        val = GaussBump(center, width).gauss_expect(m, sigma)
        assert -1e-12 <= val <= 1.0 + 1e-12


# each shipped family with a closed form, and the log of a shifted
# indicator; ExpAffine's slopes keep slope * sigma <= 40 on the grid below
ORACLE_FUNCTIONS = [
    Constant(3.0),
    GaussBump(0.3, 0.8),
    Indicator(-1.0, 1.0),
    ExpAffine(0.4, clip=1.2),
    ExpAffine(-0.7, clip=0.0),
    ExpAffine(0.04, clip=1.0),
    ShiftedForLog(Indicator(-1.0, 1.0), 2.5),
    ShiftedForLog(Indicator(-1.0, 1.0)).log(),
]
ORACLE_SIGMAS = [1e-3, 1.0, 1e3]
ORACLE_OFFSETS = [-60.0, -8.0, -1.0, 0.0, 1.0, 8.0, 60.0]  # in sigma, from a feature


def _oracle_cases():
    """(f, m, sigma) with sigma from 1e-3 to 1e3 and the mean up to 60 sigma
    on either side of a feature of f: both edges of the indicator, the
    upper edge of a shifted one (the lower mirrors it), a bump's centre and
    an ExpAffine's clip, where slope * sigma <= 40; a constant's value is
    one for every sigma."""
    for f in ORACLE_FUNCTIONS:
        if isinstance(f, Indicator):
            features = (f.lo, f.hi)
        elif isinstance(f, (GaussBump, ExpAffine)):
            features = (f.center if isinstance(f, GaussBump) else f.clip,)
        else:
            features = (0.0,) if isinstance(f, Constant) else (1.0,)
        for sigma in [1.0] if isinstance(f, Constant) else ORACLE_SIGMAS:
            if isinstance(f, ExpAffine) and abs(f.slope) * sigma > 40.0:
                continue
            for e in features:
                for k in ORACLE_OFFSETS:
                    yield f, e + k * sigma, sigma
    yield Indicator(-1.0, 1.0), -9.0, 1.0  # a difference of CDFs gives 6.66e-16
    # a window just off the mean, 2.9 sigma wide: an 8-point sum of 1/erfcx
    # leaves 1 - R 7 ulp off here
    yield Indicator(-1.0, 1.0), -1.0438762071738825, 0.6812920690579608


def _mp_gauss_expect(mp, f, m, sigma):
    """E f(m + sigma Z) by mpmath.quad at 30 digits, of f's own values.

    Only the panels lean on f's atoms: each atom times the density is a
    Gaussian of mean mu and scale s over its window, so its mass lies
    within 40 s of mu, or, where mu is outside the window, within 40 decay
    lengths min(s, s^2/|e - mu|) of the window's edge e, and panels break
    there at 1, 8 and 40 of those scales."""
    steps = (1.0, 8.0, 40.0)
    knots = set()
    for _, a, b, y0, lo, hi in f.atoms():
        v = 1.0 + 2.0 * b * sigma ** 2
        mu, sc = m + sigma ** 2 * (a - 2.0 * b * (m - y0)) / v, sigma / math.sqrt(v)
        near = {mu + k * sc for k in (0.0, *steps, *(-k for k in steps))}
        for e, inward in ((lo, 1.0), (hi, -1.0)):
            if abs(e) < math.inf:
                ell = sc if e == mu else min(sc, sc * sc / abs(e - mu))
                near.update(e + inward * k * ell for k in (0.0, *steps))
        knots.update(min(max(y, lo), hi) for y in near)
    knots = sorted(knots)
    with mp.workdps(30):
        mm, ss = mp.mpf(m), mp.mpf(sigma)
        ind = lambda y: 1 if -1 <= y <= 1 else 0
        if isinstance(f, ShiftedForLog):
            log_f = lambda y: mp.log(f.floor + ind(y))
        elif hasattr(f, "inner"):
            log_f = lambda y: mp.log(mp.log(f.inner.floor + ind(y)))
        elif isinstance(f, ExpAffine):
            log_f = lambda y: mp.mpf(f.slope) * min(y, mp.mpf(f.clip))
        elif isinstance(f, GaussBump):
            log_f = lambda y: -(y - mp.mpf(f.center)) ** 2 / (2 * mp.mpf(f.width) ** 2)
        elif isinstance(f, Indicator):
            log_f = lambda y: 0 if f.lo <= y <= f.hi else mp.ninf
        else:
            log_f = lambda y: mp.log(f.c)

        def log_g(y):
            return log_f(y) - ((y - mm) / ss) ** 2 / 2
        # quad's tolerance is absolute: scale the integrand's peak to one
        top = max(log_g(mp.mpf(y)) for y in knots)
        total = mp.fsum(mp.quad(lambda y: mp.exp(log_g(y) - top), [a, b])
                        for a, b in zip(knots, knots[1:]))
        return total * mp.exp(top) / (ss * mp.sqrt(2 * mp.pi))


class TestAtomClosedForm:
    """Every shipped closed form is one closed form of Gaussian atoms, in logs."""

    @pytest.mark.parametrize("f, m, sigma", list(_oracle_cases()),
                             ids=lambda v: v.describe() if isinstance(v, TestFunction)
                             else f"{v:g}")
    def test_against_mpmath_quad(self, f, m, sigma):
        # a float is exp of a log whose last bit is rounded, so a value is
        # within a few ulp of its log, (1 + |log E|) ulp, where it is a
        # normal float; past float range its log is compared instead
        mp = pytest.importorskip("mpmath")
        ref = _mp_gauss_expect(mp, f, m, sigma)
        log_ref = float(mp.log(ref))
        got, log_got = f.gauss_expect(m, sigma), f.log_gauss_expect(m, sigma)
        assert abs(log_got - log_ref) <= 4 * ULP * max(1.0, abs(log_ref))
        if float(ref) >= np.finfo(float).tiny and float(ref) < math.inf:
            assert abs(got - float(ref)) <= 4 * ULP * (1.0 + abs(log_ref)) * float(ref)

    def test_indicator_either_side_of_the_mean(self):
        # a difference of two normal CDFs gives 6.66e-16 at m = -9 and
        # 6.22e-16 at m = 9: the closed form gives both sides one value
        f = Indicator(-1.0, 1.0)
        assert f.gauss_expect(-9.0, 1.0) == f.gauss_expect(9.0, 1.0)


class TestSubordinated:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cauchy_oracle(self, d):
        base = gauss_heat(d)
        for t in (0.5, 1.0, 2.0):
            for r in (0.0, 0.5, 1.5):
                x = [0.0] * d
                y = [r] + [0.0] * (d - 1)
                sub = StableSubordinator(0.5, t)
                num = subordinated_density(base, sub, x, y, SPEC)
                exact = cauchy_closed_form(d, t, x, y)
                assert math.isclose(num, exact, rel_tol=1e-8)

    def test_cauchy_apply_indicator(self):
        # P_t^(1/2) 1_[a,b](x) = arctan-difference of the Cauchy law
        t, x = 1.0, 0.3
        f = Indicator(-1.0, 0.5)
        sub = StableSubordinator(0.5, t)
        num = subordinated_apply(gauss_heat(1), sub, f, [x], SPEC)
        exact = (math.atan((0.5 - x) / t) - math.atan((-1.0 - x) / t)) / math.pi
        assert math.isclose(num, exact, rel_tol=1e-8)

    def test_degenerate_time_change_is_base(self):
        f = GaussBump(0.0, 1.0)
        sub = StableSubordinator(1.0, 0.7)
        a = subordinated_apply(gauss_heat(1), sub, f, [0.2], SPEC)
        b = apply(gauss_heat(1), f, 0.7, [0.2])
        assert a == b

    @pytest.mark.parametrize("base", [gauss_heat(1), ou1d()])
    @pytest.mark.parametrize("f", [Indicator(-1.0, 0.5), GaussBump(0.3, 0.8),
                                   ShiftedForLog(GaussBump(0.0, 0.4)).log(),
                                   _CosSquared()])
    def test_subordinated_apply_equals_public_apply_at_each_node(self, base, f):
        # the point is checked once; each node must still give apply's value,
        # evaluated on all nodes at once: numpy's exp and log against libm's,
        # and one dot product per row against one per call
        sub = StableSubordinator(0.7, 1.0)
        x = [0.4]
        got = subordinated_apply(base, sub, f, x, SPEC)
        want = integrate_against(lambda s: apply(base, f, s, x), sub, SPEC)
        assert math.isclose(got, want, rel_tol=4 * ULP)

    def test_subordinated_apply_checks_the_point(self):
        sub = StableSubordinator(0.7, 1.0)
        with pytest.raises(ValueError):
            subordinated_apply(gauss_heat(1), sub, GaussBump(), [0.0, 1.0], SPEC)
        with pytest.raises(ValueError):
            subordinated_apply(gauss_heat(2), sub, GaussBump(), [0.0, 1.0], SPEC)
        total = subordinated_apply(gauss_heat(2), sub, Constant(1.0), [0.0, 1.0],
                                   SPEC)
        assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_semigroup_monotone_in_bump(self):
        # the subordinated kernel keeps total mass one
        sub = StableSubordinator(0.7, 1.0)
        total = subordinated_apply(gauss_heat(1), sub, Constant(1.0), [0.0], SPEC)
        assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_ondiag_poisson_value(self):
        # d = 1, alpha = 1/2: p_t(x,x) = 1/(pi t)
        for t in (0.5, 1.0, 2.0):
            v = ondiag(gauss_heat(1), StableSubordinator(0.5, t), [0.0])
            assert math.isclose(v, 1.0 / (math.pi * t), rel_tol=1e-8)

    def test_ondiag_serves_ou(self):
        sub = StableSubordinator(0.5, 1.0)
        for x in (0.0, 0.7, -2.0):
            assert (ondiag(ou1d(), sub, [x])
                    == subordinated_density(ou1d(), sub, [x], [x], SPEC))

    @pytest.mark.parametrize("base, x, y", [
        (gauss_heat(1), [0.2], [1.1]),
        (gauss_heat(2), [0.2, -0.4], [1.1, 0.3]),
        (gauss_heat(3), [0.2, -0.4, 0.7], [1.1, 0.3, -0.5]),
        (ou1d(), [0.2], [1.1]),
    ])
    def test_float_kernel_equals_numpy_reference_at_each_node(self, base, x, y):
        sub = StableSubordinator(0.7, 1.0)
        nodes = []

        def reference(s):
            nodes.append(s)
            return reference_kernel_density(base, s, x, y)

        want = integrate_against(reference, sub, SPEC)
        point = _checked_pair(base, x, y)
        got = subordinated_density(base, sub, x, y, SPEC)
        if base.curvature_K == 0.0:
            # the heat kernel's log-sum is the same arithmetic as the array
            # kernel summed over the same rule
            assert got == _law_sum(
                sub, _kernel_density_at(base, _law_nodes(sub), *point, np))
        # numpy's vectorised exp, expm1 and power may differ from libm's by
        # an ulp, so the array kernel is within a few ulp of the reference;
        # at a node exp's condition number, |log p|, scales an ulp of
        # difference in its argument
        assert math.isclose(got, want, rel_tol=4 * ULP)
        on_nodes = _kernel_density_at(base, np.array(nodes), *point, np)
        for s, value in zip(nodes, on_nodes):
            ref = reference_kernel_density(base, s, x, y)
            assert _kernel_density_at(base, s, *point) == ref
            assert kernel_density(base, s, x, y) == ref
            assert math.isclose(value, ref,
                                rel_tol=4 * ULP * (1.0 + abs(math.log(ref))))

    def test_subordinated_density_checks_the_points(self):
        sub = StableSubordinator(0.7, 1.0)
        with pytest.raises(ValueError):
            subordinated_density(gauss_heat(2), sub, [0.0], [0.0, 1.0], SPEC)
        with pytest.raises(ValueError):
            subordinated_density(gauss_heat(1), sub, [0.0], [0.0, 1.0], SPEC)
        with pytest.raises(ValueError):
            subordinated_density(ou1d(), StableSubordinator(1.0, 1.0),
                                 [0.0, 1.0], [0.0], SPEC)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rho, t", [(0.01, 0.5), (0.02, 1.0), (0.05, 2.0)])
    def test_cauchy_oracle_near_diagonal(self, d, rho, t):
        # the alpha = 1/2 density used to overflow at the tiny nodes that
        # the break at rho^2 sends the outer quadrature to
        x = [0.1] * d
        y = [0.1 + rho] + [0.1] * (d - 1)
        num = subordinated_density(gauss_heat(d), StableSubordinator(0.5, t),
                                   x, y, SPEC)
        assert math.isclose(num, cauchy_closed_form(d, t, x, y), rel_tol=1e-8)

    @given(st.sampled_from([1, 2, 3]), st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=math.log(0.1), max_value=math.log(10.0)))
    @settings(max_examples=150, deadline=None)
    def test_half_stable_heat_kernel_is_poisson_kernel(self, d, rho, log_t):
        t = math.exp(log_t)
        x = [0.1] * d
        y = [0.1 + rho] + [0.1] * (d - 1)
        num = subordinated_density(gauss_heat(d), StableSubordinator(0.5, t),
                                   x, y, SPEC)
        assert math.isclose(num, cauchy_closed_form(d, t, x, y), rel_tol=1e-10)

    @given(st.floats(min_value=0.3, max_value=0.95),
           st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
           st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_ondiag_is_the_closed_form_moment(self, alpha, log_t, d):
        # p_t(x, x) = (4 pi)^(-d/2) E S_t^(-d/2), an oracle at every alpha
        sub = StableSubordinator(alpha, math.exp(log_t))
        want = (4.0 * math.pi) ** (-0.5 * d) * math.exp(
            log_fractional_moment(sub, 0.5 * d))
        got = ondiag(gauss_heat(d), sub, [0.0] * d)
        assert math.isclose(got, want, rel_tol=1e-12)

    @pytest.mark.parametrize("t", [1e-200, 1e160])
    def test_diagonal_where_the_scale_passes_float_range(self, t):
        # t^2, the scale at alpha = 1/2, over- or underflows; the diagonal
        # is formed from log t and is the Poisson diagonal, 1/(pi t) at d = 1
        sub = StableSubordinator(0.5, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (ondiag(gauss_heat(1), sub, [0.0]),
                        subordinated_density(gauss_heat(1), sub, [2.0], [2.0],
                                             SPEC)):
                assert math.isclose(got, cauchy_closed_form(1, t, [0.0], [0.0]),
                                    rel_tol=1e-12)

    @pytest.mark.parametrize("d, t, want", [
        (2, 1e-200, math.inf),   # about 1e400
        (3, 1e-200, math.inf),
        (3, 1e160, 0.0),         # about 1e-480
    ])
    def test_diagonal_past_float_range(self, d, t, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ondiag(gauss_heat(d), StableSubordinator(0.5, t), [0.0] * d)
        assert got == want == cauchy_closed_form(d, t, [0.0] * d, [0.0] * d)

    def test_off_diagonal_past_float_range_raises(self):
        # rho^2 / (4 t^2) is past float range: refused, not 0 or nan
        with pytest.raises(ValueError, match=r"t=1e-200, alpha=0\.5"):
            subordinated_density(gauss_heat(1), StableSubordinator(0.5, 1e-200),
                                 [0.0], [1.0], SPEC)

    @pytest.mark.xfail(strict=True, reason="off the diagonal at t = 1e-8 the "
                       "kernel's mass lies past the law rule's largest node")
    def test_poisson_kernel_far_off_the_diagonal(self):
        # |x - y| = 1e8 t, far past the resolved |x - y| <= 50 t: 63% low
        got = subordinated_density(gauss_heat(1), StableSubordinator(0.5, 1e-8),
                                   [0.0], [1.0], SPEC)
        assert math.isclose(got, cauchy_closed_form(1, 1e-8, [0.0], [1.0]),
                            rel_tol=1e-10)

    def test_subordinated_density_symmetry(self):
        base = gauss_heat(1)
        sub = StableSubordinator(0.7, 1.0)
        a = subordinated_density(base, sub, [0.0], [1.3], SPEC)
        b = subordinated_density(base, sub, [1.3], [0.0], SPEC)
        assert math.isclose(a, b, rel_tol=1e-10)


def reference_subordinated_density(base, sub, x, y):
    """The heat kernel's sum as ``subordinated_density`` formed it with numpy
    points and the node terms rebuilt on every call; kept as the reference
    its one pass over the kept terms must reproduce bit for bit."""
    x, y = _as_point(x, base.d), _as_point(y, base.d)
    rho_sq = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        rho_sq += (b - a) * (b - a)
    rule = _law_rule(sub.alpha)
    ell = math.log(sub.t) / sub.alpha
    log_terms = rule.log_w - 0.5 * base.d * rule.log_v
    if rho_sq > 0.0:
        c = _exp_or_inf(math.log(rho_sq) - math.log(4.0) - ell) / rule.v
        if c[0] == math.inf:
            raise ValueError("past float range")
        log_terms -= c
    total = float(np.exp(log_terms, out=log_terms).sum())
    log_scale = -0.5 * base.d * (math.log(4.0 * math.pi) + ell)
    if abs(log_scale) < _LOG_HUGE:
        return total * math.exp(log_scale)
    return _exp_or_inf(math.log(total) + log_scale) if total > 0.0 else 0.0


def point_form(form, v):
    """The coordinates v (floats) in one form a caller may pass: a float
    (refused where d > 1), a list, tuple or array of floats, or np.float64s
    or ints, given as a scalar at d = 1."""
    if form == "float":
        return v[0]
    if form in ("list", "tuple", "array"):
        return {"list": list, "tuple": tuple, "array": np.array}[form](v)
    kind = np.float64 if form == "float64" else int
    return kind(v[0]) if len(v) == 1 else [kind(c) for c in v]


def outcome(fn, *args):
    """fn's value as its bits, or "ValueError" where it raised one."""
    try:
        return float_bits(fn(*args))
    except ValueError:
        return "ValueError"


class TestHeatKernelOnePass:
    # alpha in [0.01, 0.999] and 1: the law rule's panel count grows as
    # 1/alpha near 0 and 1/(1 - alpha) near 1, so builds slow toward the
    # ends, and past its panel bound the rule refuses alpha
    @given(st.one_of(st.floats(min_value=0.01, max_value=0.999), st.just(1.0)),
           st.floats(min_value=math.log(1e-200), max_value=math.log(1e160)),
           st.integers(1, 3),
           st.one_of(st.just(None), st.floats(min_value=math.log(1e-200),
                                              max_value=math.log(1e200))),
           st.sampled_from(["float", "list", "tuple", "array", "float64", "int"]),
           st.randoms(use_true_random=False))
    @example(0.5, math.log(1e-200), 1, math.log(1.0), "list", random.Random(0))
    @example(0.5, math.log(1e160), 3, None, "tuple", random.Random(0))
    @example(0.3, math.log(1e-200), 2, None, "list", random.Random(0))
    @example(0.3, math.log(1e-200), 1, math.log(1e200), "array", random.Random(0))
    @settings(max_examples=150, deadline=None)
    def test_bits_match_the_reference(self, alpha, log_t, d, log_rho, form, rnd):
        # every form and d, a ValueError (a refused point, an uncertified
        # rule, a term past float range), inf and 0 included
        sub, base = StableSubordinator(alpha, math.exp(log_t)), gauss_heat(d)
        x = [rnd.uniform(-1.0, 1.0) for _ in range(d)]
        y = list(x)
        if log_rho is not None:
            y[rnd.randrange(d)] += math.copysign(math.exp(log_rho), rnd.random() - 0.5)
        if form == "int":
            x, y = [float(round(c)) for c in x], [float(round(c)) for c in y]
        px, py = point_form(form, x), point_form(form, y)
        want = outcome(reference_subordinated_density, base, sub, px, py)
        assert outcome(subordinated_density, base, sub, px, py) == want
        assert (outcome(ondiag, base, sub, px)
                == outcome(reference_subordinated_density, base, sub, px, px))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kept_node_terms_are_read_only_and_unchanged(self, d):
        rule = _law_rule(0.5)
        base, x, y = gauss_heat(d), [0.1] * d, [0.4] * d
        subordinated_density(base, StableSubordinator(0.5, 0.3), x, y)
        terms = rule.node_terms(d)
        kept = terms.copy()
        subordinated_density(base, StableSubordinator(0.5, 7.0), x, y)
        assert rule.node_terms(d) is terms
        assert terms.tobytes() == kept.tobytes()
        assert (terms.tobytes()
                == (rule.log_w - 0.5 * d * rule.log_v).tobytes())
        assert not terms.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            terms -= 1.0


def reference_law_sum(w, values):
    """The weight-taking sum every law integral ended in before the sum
    read its weights from the rule; kept as the reference the one sum over
    the law rule must reproduce bit for bit."""
    total = w @ np.asarray(values, dtype=float)
    return float(total) if total.ndim == 0 else total


def reference_integrate_against(h, sub, on_arrays=False):
    """``integrate_against`` with the branch it had for an integrand marked
    as written on arrays: such an h was called once, on all the nodes."""
    rule = _law_rule(sub.alpha)
    s = sub.scale * rule.v
    if on_arrays:
        return reference_law_sum(rule.w, h(s))
    return reference_law_sum(rule.w, [h(x) for x in s.tolist()])


def reference_on_z(sub, fn, z):
    """The entropy checks' z integrals as they were blocked by hand, the
    node count read from the rule."""
    nodes = _law_rule(sub.alpha).v.size
    panels = z.reshape(-1, 16)
    return np.concatenate([
        reference_integrate_against(
            lambda s: fn(np.asarray(s)[..., None], panels[block].ravel()),
            sub, on_arrays=True)
        for block in _blocks(len(panels), nodes * panels.shape[1])])


def sum_outcome(fn, *args):
    """fn's value as its type, shape and bytes, or "ValueError" where it
    raised one."""
    try:
        value = fn(*args)
    except ValueError:
        return "ValueError"
    return type(value), np.shape(value), np.asarray(value).tobytes()


class TestOneLawSum:
    # alpha in [0.01, 0.999] and 1 (builds slow toward the ends of (0, 1)),
    # t log-uniform over 200 decades: every route through the one sum gives
    # the parent's bits, or the same ValueError (an uncertified rule, a
    # scale past float range)
    @given(st.one_of(st.floats(min_value=0.01, max_value=0.999), st.just(1.0)),
           st.floats(min_value=math.log(1e-100), max_value=math.log(1e100)),
           st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
           st.integers(2, 40))
    @settings(max_examples=100, deadline=None)
    def test_bits_match_the_reference(self, alpha, log_t, log_x, columns):
        sub, x = StableSubordinator(alpha, math.exp(log_t)), math.exp(log_x)
        xs = x * np.geomspace(1e-2, 1e2, columns)

        def per_node(s):
            return math.exp(-x * s) / (1.0 + s)

        def one_column(s):
            return np.exp(-x * s)

        def many_columns(s):
            return np.exp(-np.multiply.outer(s, xs))

        assert (sum_outcome(integrate_against, per_node, sub)
                == sum_outcome(reference_integrate_against, per_node, sub))
        for h in (one_column, lambda s: one_column(s)[:, None], many_columns):
            assert (sum_outcome(lambda: _law_sum(sub, h(_law_nodes(sub))))
                    == sum_outcome(reference_integrate_against, h, sub, True))
        # the library's two array routes: P_t^alpha f and the z integrals;
        # at alpha = 1, the point mass at t, P_t^alpha f is P_t f itself
        base, f = ou1d(), GaussBump(0.2, 0.7)
        assert (sum_outcome(_subordinated_apply_memo.__wrapped__, base, sub, f, x)
                == (sum_outcome(apply, base, f, sub.t, x) if sub.degenerate else
                    sum_outcome(reference_integrate_against,
                                lambda s: _expect_on_nodes(base, f, s, x), sub, True)))
        z = _z_rule(-x, x + 3.0)[0]

        def on_z(s, zb):
            return np.exp(-np.multiply(s, zb * zb))

        assert sum_outcome(_on_z, sub, on_z, z) == sum_outcome(reference_on_z, sub, on_z, z)


@pytest.mark.parametrize("build", [
    lambda: apply(gauss_heat(1), Constant(1.0), math.nan, 0.0),
    lambda: kernel_density(gauss_heat(1), math.nan, 0.0, 0.5),
    lambda: cauchy_closed_form(1, math.nan, [0.0], [0.5]),
    lambda: Constant(math.nan),
    lambda: GaussBump(0.0, math.nan),
    lambda: ShiftedForLog(Constant(1.0), math.nan),
], ids=["apply_s", "kernel_density_s", "cauchy_t", "constant_c",
        "bump_width", "shifted_floor"])
def test_nan_argument_is_refused(build):
    # each guard is the negation of its valid range, so nan fails it
    with pytest.raises(ValueError, match="must be"):
        build()


def std_normal_density(y):
    return math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


class TestOUDensity:
    """OU's density is the heat kernel's log-sum with OU's variance at each
    node: oracles at both ends of t, and the kernel node by node."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("x", [0.0, 0.7])
    def test_diagonal_at_tiny_t_is_the_poisson_diagonal(self, x):
        # at s <= t^2 = 1e-400 OU is the heat kernel, whose diagonal at
        # alpha = 1/2 is 1/(pi t)
        sub = StableSubordinator(0.5, 1e-200)
        for got in (ondiag(ou1d(), sub, [x]),
                    subordinated_density(ou1d(), sub, [x], [x], SPEC)):
            assert math.isclose(got, 1.0 / (math.pi * 1e-200), rel_tol=1e-12)
        # at alpha = 0.3 the diagonal, about 1e333, is past float range
        assert ondiag(ou1d(), StableSubordinator(0.3, 1e-200), [x]) == math.inf

    @pytest.mark.parametrize("t", [1e50, 1e160, 1e300])
    @pytest.mark.parametrize("y", [0.0, 0.5, 2.0])
    def test_large_t_is_the_stationary_density(self, t, y):
        for alpha in (0.5, 0.3):
            got = subordinated_density(ou1d(), StableSubordinator(alpha, t),
                                       [1.0], [y], SPEC)
            assert math.isclose(got, std_normal_density(y), rel_tol=1e-12)

    def test_off_diagonal_past_float_range_raises(self):
        # |y - x|^2 / (2 sigma^2) at the rule's smallest nodes is past float
        # range: refused, as for the heat kernel
        with pytest.raises(ValueError, match=r"t=1e-200, alpha=0\.5"):
            subordinated_density(ou1d(), StableSubordinator(0.5, 1e-200),
                                 [0.0], [1.0], SPEC)

    @given(st.floats(min_value=0.3, max_value=0.95),
           st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_log_sum_is_the_kernel_integrated_node_by_node(self, alpha, log_t,
                                                           x, y):
        sub = StableSubordinator(alpha, math.exp(log_t))
        want = integrate_against(
            lambda s: reference_kernel_density(ou1d(), s, x, y), sub, SPEC)
        got = subordinated_density(ou1d(), sub, [x], [y], SPEC)
        assert math.isclose(got, want, rel_tol=1e-14)


def test_cauchy_closed_form_values():
    # d = 1 diagonal: 1/(pi t); d = 3 diagonal: Gamma(2)/pi^2 * t^-3
    assert math.isclose(cauchy_closed_form(1, 2.0, [0.0], [0.0]),
                        1.0 / (2.0 * math.pi), rel_tol=1e-14)
    assert math.isclose(cauchy_closed_form(3, 1.0, [0, 0, 0], [0, 0, 0]),
                        1.0 / math.pi ** 2, rel_tol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [1e-200, 1e-160, 1.0, 1e160])
def test_cauchy_closed_form_against_mpmath(d, t):
    # formed in logs, so t^2 and rho^2 never over- or underflow: the value
    # is 0 or inf only where the true one is past float range, and within
    # a few ulp of its log elsewhere (a subnormal one within one spacing)
    mp = pytest.importorskip("mpmath")
    n = mp.mpf(d + 1) / 2
    for rho in (0.0, 1.0, 3.0 * t):
        y = [rho] + [0.0] * (d - 1)
        with mp.workdps(30):
            want = float(mp.gamma(n) / mp.pi ** n * t
                         / (mp.mpf(t) ** 2 + mp.mpf(rho) ** 2) ** n)
        got = cauchy_closed_form(d, t, [0.0] * d, y)
        if want in (0.0, math.inf):
            assert got == want, (rho, got)
        else:
            tol = 8.0 * ULP * max(1.0, abs(math.log(want))) * want
            assert abs(got - want) <= max(tol, 5e-324), (rho, got, want)


@dataclass
class _MutableBump(TestFunction):
    """A non-frozen dataclass with eq=True, so its instances are unhashable;
    no closed form, so it also takes the uncached fixed Gaussian rule."""

    center: float = 0.0
    width: float = 1.0

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-((y - self.center) ** 2) / (2.0 * self.width ** 2))

    def breakpoints(self):
        return (self.center,)


def uncached_subordinated_apply(base, sub, f, x, spec):
    """P_t^alpha f(x) integrated from the public ``apply`` at every node."""
    return integrate_against(lambda s: apply(base, f, s, x), sub, spec)


MEMO_FUNCTIONS = [
    Indicator(-1.0, 0.5),
    GaussBump(0.3, 0.8),
    GaussBump(0.3, 0.8).pow(2.5),
    ExpAffine(0.4, clip=1.2),
    ShiftedForLog(GaussBump(0.0, 0.4)).log(),
]


# the shipped test functions, each with the bases it serves: every base
# for a constant, d = 1 otherwise
POINT_MASS_CASES = [
    (base, f)
    for f in [Constant(2.0), ShiftedForLog(Constant(0.5)),
              ShiftedForLog(Constant(0.5)).log()]
    for base in [gauss_heat(1), gauss_heat(2), gauss_heat(3), ou1d()]
] + [
    (base, f)
    for f in [GaussBump(0.3, 0.8), Indicator(-1.0, 0.5), ExpAffine(0.4),
              ExpAffine(0.4, clip=1.2), ExpAffine(-0.7, clip=0.0),
              ShiftedForLog(GaussBump(0.0, 0.4)).log(),
              ShiftedForLog(Indicator(-1.0, 1.0)).log(), _CosSquared()]
    for base in [gauss_heat(1), ou1d()]
]


class TestPointMassThroughTheRule:
    """At alpha = 1 the law is the point mass at t, and the law rule is its
    one node: every sum over mu_t gives the base semigroup at time t."""

    @given(st.sampled_from(POINT_MASS_CASES),
           st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
           st.floats(min_value=-0.5, max_value=0.5))  # |x - y| <= 1.5
    @settings(max_examples=200, deadline=None)
    def test_sums_are_the_base_at_t(self, case, log_t, shift):
        base, f = case
        t = math.exp(log_t)
        sub = StableSubordinator(1.0, t)
        x = [shift] + [0.3] * (base.d - 1)
        y = [0.5 - shift] + [-0.2] * (base.d - 1)
        # a plain h and an array h alike are h(t), bit for bit
        want = apply(base, f, t, x)
        assert integrate_against(lambda s: apply(base, f, s, x), sub) == want
        point = _checked_pair(base, x, y)

        def on_arrays(s):
            return _kernel_density_at(base, s, *point, np)

        assert (_law_sum(sub, on_arrays(_law_nodes(sub)))
                == on_arrays(np.array([t]))[0])
        # P_t^alpha f at alpha = 1 is P_t f, bit for bit
        assert subordinated_apply(base, sub, f, x) == want
        # the kernel's log-sum over the one node against p_t(x, y)
        value = kernel_density(base, t, x, y)
        got = subordinated_density(base, sub, x, y)
        assert abs(got - value) <= 1e-14 * (1.0 + abs(math.log(value))) * value

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-3, 0.37, 1.0, 25.0, 1e3])
    def test_ondiag_is_the_heat_diagonal(self, d, t):
        sub = StableSubordinator(1.0, t)
        got = ondiag(gauss_heat(d), sub, [0.0] * d)
        assert math.isclose(got, (4.0 * math.pi * t) ** (-0.5 * d), rel_tol=1e-14)
        if d == 1:
            # OU from x back to x: mean e^-t x, variance 1 - e^-2t
            var = -math.expm1(-2.0 * t)
            for x in (0.0, 0.7, -2.0):
                want = (2.0 * math.pi * var) ** -0.5 * math.exp(
                    -x * x * math.expm1(-t) ** 2 / (2.0 * var))
                assert math.isclose(ondiag(ou1d(), sub, [x]), want, rel_tol=1e-14)


class TestSubordinatedApplyMemo:
    KEY = (gauss_heat(1), StableSubordinator(0.7, 1.0), GaussBump(0.3, 0.8), 0.4)

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _subordinated_apply_memo.cache_clear()

    @staticmethod
    def call(base, sub, f, x0, spec=SPEC):
        return subordinated_apply(base, sub, f, [x0], spec)

    @given(st.floats(min_value=0.3, max_value=0.95),
           st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.sampled_from([gauss_heat(1), ou1d()]),
           st.sampled_from(MEMO_FUNCTIONS))
    @settings(max_examples=40, deadline=None)
    def test_memoized_equals_uncached(self, alpha, t, x, base, f):
        sub = StableSubordinator(alpha, t)
        got = subordinated_apply(base, sub, f, [x], SPEC)
        assert got == _subordinated_apply_memo.__wrapped__(base, sub, f, x)
        assert math.isclose(got, uncached_subordinated_apply(base, sub, f, [x], SPEC),
                            rel_tol=4 * ULP)

    def test_same_key_is_a_hit(self):
        first = self.call(*self.KEY)
        before = _subordinated_apply_memo.cache_info()
        second = self.call(*self.KEY)
        after = _subordinated_apply_memo.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert second is first

    @pytest.mark.parametrize("position, value", [
        (0, ou1d()),
        (1, StableSubordinator(0.8, 1.0)),
        (1, StableSubordinator(0.7, 1.5)),
        (2, GaussBump(0.3, 0.9)),
        (2, GaussBump(0.3, 0.8).pow(2.0)),
        (3, 0.5),
    ])
    def test_any_changed_part_is_a_miss(self, position, value):
        self.call(*self.KEY)
        key = list(self.KEY)
        key[position] = value
        before = _subordinated_apply_memo.cache_info()
        got = self.call(*key)
        after = _subordinated_apply_memo.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)
        base, sub, f, x0 = key
        assert math.isclose(got, uncached_subordinated_apply(base, sub, f, [x0], SPEC),
                            rel_tol=4 * ULP)

    def test_different_specs_share_an_entry(self):
        # no value depends on the spec, so it is not part of the key
        first = self.call(*self.KEY)
        before = _subordinated_apply_memo.cache_info()
        second = self.call(*self.KEY, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9,
                                                     max_subdivisions=7))
        after = _subordinated_apply_memo.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert second is first

    def test_plain_callable_is_not_memoized(self):
        # a plain callable declares no breakpoints: it is rejected before
        # any value is computed or memoized, at alpha = 1 as below it
        def plain(y):
            return np.cos(y) ** 2

        self.call(*self.KEY)
        before = _subordinated_apply_memo.cache_info()
        with pytest.raises(TypeError, match="breakpoints"):
            apply(gauss_heat(1), plain, 0.7, [0.4])
        for alpha in (0.7, 1.0):
            with pytest.raises(TypeError, match="breakpoints"):
                subordinated_apply(gauss_heat(1), StableSubordinator(alpha, 1.0),
                                   plain, [0.4], SPEC)
        assert _subordinated_apply_memo.cache_info() == before

    def test_unhashable_test_function_is_integrated_uncached(self):
        f = _MutableBump(0.3, 0.8)
        with pytest.raises(TypeError):
            hash(f)
        sub = StableSubordinator(0.7, 1.0)
        before = _subordinated_apply_memo.cache_info()
        got = subordinated_apply(gauss_heat(1), sub, f, [0.4], SPEC)
        assert _subordinated_apply_memo.cache_info() == before
        assert got == _subordinated_apply_memo.__wrapped__(gauss_heat(1), sub, f,
                                                           0.4)
        assert math.isclose(got, uncached_subordinated_apply(gauss_heat(1), sub, f,
                                                             [0.4], SPEC),
                            rel_tol=4 * ULP)

    def test_wrong_dimension_raises_after_a_cached_entry(self):
        sub = StableSubordinator(0.7, 1.0)
        self.call(gauss_heat(1), sub, GaussBump(), 0.4)
        with pytest.raises(ValueError):
            subordinated_apply(gauss_heat(1), sub, GaussBump(), [0.4, 1.0], SPEC)
        subordinated_apply(gauss_heat(2), sub, Constant(1.0), [0.4, 1.0], SPEC)
        assert _subordinated_apply_memo.cache_info().currsize == 2
        with pytest.raises(ValueError):
            subordinated_apply(gauss_heat(2), sub, Constant(1.0), [0.4], SPEC)
        with pytest.raises(ValueError):
            subordinated_apply(gauss_heat(2), sub, GaussBump(), [0.4, 1.0], SPEC)



@dataclass(frozen=True)
class _RaisesTypeError(TestFunction):
    """Hashable, with no closed form, and raises TypeError when evaluated;
    ``calls`` counts its evaluations."""

    calls = [0]

    def __call__(self, y):
        self.calls[0] += 1
        raise TypeError("this test function cannot be evaluated")


@pytest.mark.parametrize("evaluate", [
    lambda f: apply(gauss_heat(1), f, 0.7, [0.4]),
    lambda f: subordinated_apply(gauss_heat(1), StableSubordinator(0.7, 1.0), f,
                                 [0.4], SPEC),
], ids=["apply", "subordinated_apply"])
def test_type_error_from_f_is_raised_after_one_evaluation(evaluate):
    # a hashable f is memoized; its own TypeError is not taken for
    # unhashability, so the value is not computed a second time uncached
    f = _RaisesTypeError()
    f.calls[0] = 0
    with pytest.raises(TypeError, match="cannot be evaluated"):
        evaluate(f)
    assert f.calls[0] == 1


# every family with a closed Gaussian expectation, on both sides of
# ExpAffine's branch at u = z - slope*sigma = 0
CLOSED_FUNCTIONS = [
    Constant(2.0),
    GaussBump(0.3, 0.8),
    Indicator(-1.0, 0.5),
    ExpAffine(0.4, clip=1.2),
    ExpAffine(1.6, clip=-0.5),
    ExpAffine(-0.7, clip=0.0),
    ExpAffine(0.4),
    ShiftedForLog(GaussBump(0.0, 1.0)),
    ShiftedForLog(Indicator(-1.0, 1.0)).log(),
    ShiftedForLog(Constant(1.0)).log(),
    ShiftedForLog(GaussBump(0.0, 0.4)).log(),
]

# (m, sigma) pairs on both sides of that branch for every clipped ExpAffine
ANCHORS = [(-1.0, 0.1), (1.0, 0.1), (1.0, 1e3)]


def nodes_mean_sigma(base, sub, x0):
    """Transition means and scales at every node of sub's law rule."""
    s = sub.scale * _law_rule(sub.alpha).v
    m, sigma = base.mean_sigma(s, x0, np)
    return np.broadcast_to(m, sigma.shape), sigma


def equal_copy(g):
    """An equal but distinct instance of a power test function."""
    return type(g)(g.inner, g.p)


LOG_BUMP = ShiftedForLog(GaussBump(), 1.0).log()


class _Counted(TestFunction):
    """f, counting its evaluations."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, y):
        self.calls += 1
        return self.f(y)

    def breakpoints(self):
        return self.f.breakpoints()


class TestOnArrays:
    @given(st.sampled_from(CLOSED_FUNCTIONS),
           st.lists(st.tuples(st.booleans(), st.floats(-3.0, 5.0),
                              st.floats(-3.0, 5.0)), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_array_closed_form_matches_float(self, f, draws):
        # |m| and sigma log-uniform on [1e-3, 1e5], evaluated in one array
        pairs = ANCHORS + [((-1.0 if neg else 1.0) * 10.0 ** lm, 10.0 ** ls)
                           for neg, lm, ls in draws]
        m = np.array([p[0] for p in pairs])
        sigma = np.array([p[1] for p in pairs])
        if isinstance(f, ExpAffine) and f.clip is not None:
            u = (f.clip - m) / sigma - f.slope * sigma
            assert (u < 0.0).any() and (u >= 0.0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                on_arrays = np.broadcast_to(f.gauss_expect(m, sigma, np), m.shape)
        for mi, si, got in zip(m.tolist(), sigma.tolist(), on_arrays.tolist()):
            want = f.gauss_expect(mi, si)
            if want == math.inf:  # past float range, on floats as on arrays
                assert got == math.inf
                continue
            # numpy's exp and log are within an ulp of libm's, and an ulp of
            # difference in an exponent A moves exp(A) by |A| ulp; the
            # absolute floor is a few subnormal ulp
            tol = 4 * ULP * (1.0 + abs(math.log(want))) * want if want > 0 else 0.0
            assert abs(got - want) <= tol + 4 * math.ulp(0.0)

    @pytest.mark.parametrize("f", MEMO_FUNCTIONS, ids=lambda f: f.describe())
    @pytest.mark.parametrize("base", [gauss_heat(1), ou1d()],
                             ids=lambda b: b.kind)
    def test_batched_rule_matches_per_node_rule(self, base, f):
        for sub, x0 in ((StableSubordinator(0.7, 1.0), 0.4),
                        (StableSubordinator(0.5, 2.0), -1.5)):
            m, sigma = nodes_mean_sigma(base, sub, x0)
            batched = _gauss_expectation_rule(f, m, sigma)
            per_node = [float(_gauss_expectation_rule(f, mi, si))
                        for mi, si in zip(m.tolist(), sigma.tolist())]
            np.testing.assert_allclose(batched, per_node, rtol=4 * ULP, atol=0.0)

    @pytest.mark.parametrize("shape_m, shape_sigma", [
        ((), ()), ((10,), (10,)), ((4, 5), (4, 5)), ((4, 1), (5,)),
    ], ids=["0-d", "1-d", "2-d", "broadcast"])
    def test_blocked_rule_matches_one_block(self, shape_m, shape_sigma,
                                            monkeypatch):
        # three rows a block, so no row count here is a multiple of it (the
        # single row of a 0-d call stays one block); every row's value is
        # the one a single block gives, bit for bit, in the same shape
        rng = np.random.default_rng(7)
        m = rng.normal(0.0, 2.0, shape_m)
        sigma = 10.0 ** rng.uniform(-2.0, 1.0, shape_sigma)
        f = _Counted(LOG_BUMP)
        monkeypatch.setattr(subordinator, "_SAMPLE_BLOCK", 1 << 40)
        whole = _gauss_expectation_rule(f, m, sigma)
        assert f.calls == 1
        row = (4 + len(f.breakpoints())) * 20  # panels x nodes
        monkeypatch.setattr(subordinator, "_SAMPLE_BLOCK", 3 * row + 2)
        f.calls = 0
        blocked = _gauss_expectation_rule(f, m, sigma)
        rows = math.prod(np.broadcast_shapes(shape_m, shape_sigma))
        assert f.calls == -(-rows // 3)
        assert type(blocked) is type(whole)
        assert np.shape(blocked) == np.shape(whole)
        assert np.asarray(blocked).tobytes() == np.asarray(whole).tobytes()

    def test_panel_builder_on_rows_is_the_inline_rule(self):
        # the Gaussian rule's panels as it first built them, inline from
        # 20-point nodes and weights mapped to [0, 1]: the one panel
        # builder, on a row of edges per (m, sigma), gives the same bytes.
        # Breakpoints inside the +-12 sigma window, outside it, and clipped
        # onto its ends, where they make zero-width panels
        x, w = np.polynomial.legendre.leggauss(20)
        nodes, weights = 0.5 * (x + 1.0), 0.5 * w
        rng = np.random.default_rng(35)
        m = rng.uniform(-30.0, 30.0, 400)
        sigma = np.exp(rng.uniform(-8.0, 16.0, 400))
        window = m[:, None] + sigma[:, None] * semigroup._RULE_WINDOW
        inside = m[:, None] + sigma[:, None] * rng.uniform(-12.0, 12.0, (400, 3))
        outside = m[:, None] + sigma[:, None] * np.array([-40.0, 13.0])
        b = np.concatenate((inside, outside, window[:, [0, -1]]), axis=1)
        edges = np.sort(np.concatenate(
            (window, np.clip(b, window[:, :1], window[:, -1:])), axis=1), axis=1)
        h = np.diff(edges, axis=1)
        want_y = (edges[:, :-1, None] + h[..., None] * nodes).reshape(400, -1)
        want_w = (h[..., None] * weights).reshape(400, -1)
        assert (h == 0.0).any(axis=1).all()
        y, wts = subordinator._panel_nodes(edges, semigroup._RULE_TABLE)
        assert y.tobytes() == want_y.tobytes() and wts.tobytes() == want_w.tobytes()
        # each row is the rule on its own edges
        row_y, row_w = subordinator._panel_nodes(edges[7], semigroup._RULE_TABLE)
        assert row_y.tobytes() == y[7].tobytes() and row_w.tobytes() == wts[7].tobytes()

    def test_rule_on_law_nodes_stays_block_sized(self):
        # 352 rows of 11 panels: the rule on all of them at once peaked at
        # 3.05 MiB of numpy buffers
        m, sigma = nodes_mean_sigma(gauss_heat(1), StableSubordinator(0.75, 1.0), 0.0)
        _gauss_expectation_rule(LOG_BUMP, m, sigma)
        tracemalloc.start()
        try:
            _gauss_expectation_rule(LOG_BUMP, m, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unclipped_expaffine_diverges_under_heat_kernel(self):
        # E exp(0.4 (x + sqrt(2s) Z)) = exp(0.4 x + 0.16 s), and the law's
        # exponential moments are infinite; under OU the variance is
        # bounded by one, so the value stays finite
        sub = StableSubordinator(0.7, 1.0)
        f = ExpAffine(0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert subordinated_apply(gauss_heat(1), sub, f, [0.0], SPEC) == math.inf
            ou = subordinated_apply(ou1d(), sub, f, [0.0], SPEC)
        assert math.isclose(ou, 1.0664585320249154, rel_tol=1e-14)

    @pytest.mark.parametrize("base", [gauss_heat(1), ou1d()],
                             ids=lambda b: b.kind)
    def test_powers_without_closed_family_take_the_rule(self, base):
        # powers of two-level functions are two-level again, and
        # (1 + b)^2 = 1 + 2 b + b^2 with b^2 a narrower bump: closed forms
        # the rule must reproduce
        ind, bump = Indicator(-1.0, 1.0), GaussBump(0.0, 1.0)
        cases = [
            (ShiftedForLog(ind).pow(2.0),
             lambda m, s, xp: 1.0 + 3.0 * ind.gauss_expect(m, s, xp)),
            (ShiftedForLog(ind).log().pow(3.0),
             lambda m, s, xp: math.log(2.0) ** 3 * ind.gauss_expect(m, s, xp)),
            (ShiftedForLog(bump).pow(2.0),
             lambda m, s, xp: (1.0 + 2.0 * bump.gauss_expect(m, s, xp)
                               + bump.pow(2.0).gauss_expect(m, s, xp))),
        ]
        sub = StableSubordinator(0.7, 1.0)
        for g, closed in cases:
            copy = equal_copy(g)
            assert isinstance(g, TestFunction) and g == copy and hash(g) == hash(copy)
            assert g.breakpoints() == g.inner.breakpoints()
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                for s, x in ((0.3, 0.2), (1.5, -0.7), (40.0, 3.0)):
                    before = _gauss_quad_memo.cache_info()
                    got = apply(base, g, s, [x])
                    after = _gauss_quad_memo.cache_info()
                    assert after.hits + after.misses == before.hits + before.misses + 1
                    want = closed(*base.mean_sigma(s, x), math)
                    assert math.isclose(got, want, rel_tol=1e-12)
                got = subordinated_apply(base, sub, g, [0.4], SPEC)
            per_node = integrate_against(
                lambda s: float(_gauss_expectation_rule(g, *base.mean_sigma(s, 0.4))),
                sub, SPEC)
            assert math.isclose(got, per_node, rel_tol=4 * ULP)
            closed_on_nodes = _law_sum(
                sub, closed(*base.mean_sigma(_law_nodes(sub), 0.4, np), np))
            assert math.isclose(got, closed_on_nodes, rel_tol=1e-12)
