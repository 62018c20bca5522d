import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from subharnack.semigroup import (
    _checked_pair,
    _gauss_expectation_rule,
    _gauss_quad_memo,
    _kernel_density_at,
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
    _law_rule,
    _OnArrays,
    QuadratureSpec,
    StableSubordinator,
    integrate_against,
)

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
        # log(1 + bump) has no closed form; at sigma ~ 986.88 the bump is a
        # spike the adaptive path over the +-12 sigma window can step over
        mp = pytest.importorskip("mpmath")
        s = 486961.6867990451
        sigma = math.sqrt(2.0 * s)
        f = ShiftedForLog(GaussBump(0.0, 1.0), 1.0).log()
        got = apply(gauss_heat(1), f, s, [0.0])
        with mp.workdps(30):
            ref = mp.quad(
                lambda y: mp.log(1 + mp.exp(-y * y / 2)) * mp.npdf(y, 0, sigma),
                [-40, -12, -4, -1, 0, 1, 4, 12, 40])
        assert math.isclose(float(ref), 7.75322248700086e-4, rel_tol=1e-12)
        assert math.isclose(got, float(ref), rel_tol=1e-12)

    def test_power_closure_consistent(self):
        # f.pow(p) must agree with pointwise f(y)**p under the kernel
        base = gauss_heat(1)
        m, sigma = base.mean_sigma(0.6, 0.1)
        for f in FUNCTIONS:
            for p in (2.0, 3.5):
                a = apply(base, f.pow(p), 0.6, [0.1], SPEC)
                b = quad_gauss_expect(lambda y, f=f, p=p: float(f(y)) ** p,
                                      m, sigma, f.breakpoints())
                assert math.isclose(a, b, rel_tol=1e-8), f.describe()

    def test_constant_any_dimension(self):
        assert apply(gauss_heat(3), Constant(5.0), 1.0, [0, 0, 0], SPEC) == 5.0

    def test_contraction(self):
        # P_s is a contraction: sup P_s f <= sup f = 1 for the bump
        f = GaussBump(0.0, 1.0)
        for s in (0.1, 1.0, 10.0):
            assert apply(gauss_heat(1), f, s, [0.0], SPEC) <= 1.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            apply(gauss_heat(1), Constant(1.0), 0.0, [0.0], SPEC)


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
        b = apply(gauss_heat(1), f, 0.7, [0.2], SPEC)
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
        want = integrate_against(lambda s: apply(base, f, s, x, SPEC), sub, SPEC)
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
            v = ondiag(gauss_heat(1), StableSubordinator(0.5, t), [0.0], SPEC)
            assert math.isclose(v, 1.0 / (math.pi * t), rel_tol=1e-8)

    def test_ondiag_rejects_ou(self):
        with pytest.raises(ValueError):
            ondiag(ou1d(), StableSubordinator(0.5, 1.0), [0.0], SPEC)

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
        # the same arithmetic: the array kernel summed over the same rule
        assert got == integrate_against(
            _OnArrays(lambda s: _kernel_density_at(base, s, *point, np)), sub, SPEC)
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

    def test_subordinated_density_symmetry(self):
        base = gauss_heat(1)
        sub = StableSubordinator(0.7, 1.0)
        a = subordinated_density(base, sub, [0.0], [1.3], SPEC)
        b = subordinated_density(base, sub, [1.3], [0.0], SPEC)
        assert math.isclose(a, b, rel_tol=1e-10)


def test_cauchy_closed_form_values():
    # d = 1 diagonal: 1/(pi t); d = 3 diagonal: Gamma(2)/pi^2 * t^-3
    assert math.isclose(cauchy_closed_form(1, 2.0, [0.0], [0.0]),
                        1.0 / (2.0 * math.pi), rel_tol=1e-14)
    assert math.isclose(cauchy_closed_form(3, 1.0, [0, 0, 0], [0, 0, 0]),
                        1.0 / math.pi ** 2, rel_tol=1e-14)


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
    return integrate_against(lambda s: apply(base, f, s, x, spec), sub, spec)


MEMO_FUNCTIONS = [
    Indicator(-1.0, 0.5),
    GaussBump(0.3, 0.8),
    GaussBump(0.3, 0.8).pow(2.5),
    ExpAffine(0.4, clip=1.2),
    ShiftedForLog(GaussBump(0.0, 0.4)).log(),
]


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
            apply(gauss_heat(1), plain, 0.7, [0.4], SPEC)
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
            closed_on_nodes = integrate_against(
                _OnArrays(lambda s: closed(*base.mean_sigma(s, 0.4, np), np)),
                sub, SPEC)
            assert math.isclose(got, closed_on_nodes, rel_tol=1e-12)
