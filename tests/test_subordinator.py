import math
import re
import time
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gamma as gamma_fn

from subharnack.bounds import constant_c, series_factor
from subharnack.semigroup import ExpAffine, GaussBump, Indicator, gauss_heat
from subharnack.specfun import log_gamma
from subharnack.subordinator import (
    _BLOCK,
    _FIRST_BLOCK,
    _LOG_HUGE,
    _SAMPLE_BLOCK,
    _certify,
    _exp_moment_memo,
    _kanter_log_a,
    _law_rule,
    _log_a0_ld,
    _log_concave_from,
    _log_zolotarev_density,
    _ratio_bound,
    _standard_density,
    _tail_density_dw,
    _theta_rule,
    _TAIL_SWITCH,
    MCSpec,
    QuadratureSpec,
    SeriesEval,
    StableSubordinator,
    density,
    exp_moment,
    fractional_moment,
    geometric_term_ratio,
    integrate_against,
    laplace,
    log_fractional_moment,
    sample,
    sum_log_series,
)
from subharnack.verify import check_subordinated_harnack

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def reference_certify(alpha, v, w, log_v):
    """The loop of one dot product per closed-form check that ``_certify``
    replaced by one matrix-vector product, kept as its reference."""
    checks = [(-x ** alpha, -x * v) for x in (0.0, 0.1, 1.0, 10.0)]
    checks += [(math.lgamma(r / alpha) - math.log(alpha) - math.lgamma(r),
                -r * log_v) for r in (0.5, 1.0, 2.0, 3.0)]
    worst = 0.0
    with np.errstate(over="ignore"):
        for log_want, log_h in checks:
            got = float(w @ np.exp(log_h))
            if not 0.0 < got < math.inf:
                return math.inf
            worst = max(worst, abs(math.expm1(math.log(got) - log_want)))
    return worst


def reference_sum_log_series(log_term, rel_tol, max_terms=200000):
    """The term-by-term loop that ``sum_log_series`` replaced, kept as the
    reference the block summation must reproduce field for field."""
    log_sum = 0.0  # the leading 1
    prev = -math.inf
    for n in range(1, max_terms + 1):
        lt = log_term(n)
        log_sum = float(np.logaddexp(log_sum, lt))
        # geometric tail bound term_n * q/(1-q) with q the observed ratio
        q = math.exp(lt - prev) if prev > -math.inf else 0.0
        if n >= 20 and q < 1.0:
            log_tail = lt + math.log(q) - math.log1p(-q) if q > 0.0 else -math.inf
            if log_tail < math.log(rel_tol) + log_sum:
                return SeriesEval(
                    terms_used=n,
                    truncation_bound=(
                        math.exp(log_tail) if log_tail < 709.0 else math.inf
                    ),
                    log_value=log_sum,
                )
        prev = lt
    return SeriesEval(
        terms_used=max_terms,
        truncation_bound=math.inf,
        divergence_reason="max_terms reached without convergence",
    )


def exp_moment_log_terms(sub, delta, kappa):
    """The exponential-moment series' log terms on an array of indices."""
    log_delta = math.log(delta)

    def log_terms(n):
        return (n * log_delta - log_gamma(n + 1.0)
                + log_fractional_moment(sub, kappa * n))

    return log_terms


def reference_exp_moment(sub, delta, kappa, rel_tol):
    """The exponential-moment series with scalar terms, summed term by term."""
    log_delta = math.log(delta)

    def log_term(n):
        return (n * log_delta - log_gamma(n + 1.0)
                + log_fractional_moment(sub, kappa * n))

    return reference_sum_log_series(log_term, rel_tol)


def reference_standard_density(alpha, v):
    """``_standard_density`` below the tail switch by adaptive ``quad``,
    independent of its theta rule: epsabs = 0, the integral split at the
    peak theta* (where c A = 1, or 0 when c A(0) >= 1), theta near pi taken
    as pi - eps, and log A in extended precision with the factor
    A(0) exp(-c A(0)) taken out, so that the left tail keeps its digits."""
    a = np.longdouble(alpha)
    p = a / (1 - a)
    log_v = np.log(np.longdouble(v))
    la0 = p * np.log(a) + np.log1p(-a)  # log A(0)
    e0 = np.exp(la0 - p * log_v)  # c A(0), with c = v**(-p)

    def kernel(eps, left):  # A e^{-cA} / (A(0) e^{-c A(0)}) at eps or pi - eps
        theta = np.longdouble(eps) if left else PI_LD - np.longdouble(eps)
        d = _kanter_log_a(theta, a) - la0
        return float(np.exp(d - e0 * np.expm1(d)))

    lo, hi = 0.0, math.pi
    while e0 < 1.0 and hi - lo > 1e-15:  # A increases: bisect c A = 1
        mid = 0.5 * (lo + hi)
        below = _kanter_log_a(np.longdouble(mid), a) - la0 < -np.log(e0)
        lo, hi = (mid, hi) if below else (lo, mid)
    total = 0.0
    for left, peak in ((True, lo), (False, math.pi - lo)):
        cuts = (0.0, peak, math.pi / 2) if 0.0 < peak < math.pi / 2 else (
            0.0, math.pi / 2)
        for x0, x1 in zip(cuts[:-1], cuts[1:]):
            with warnings.catch_warnings():  # dead pieces cannot meet epsrel
                warnings.simplefilter("ignore", IntegrationWarning)
                val, _ = quad(kernel, x0, x1, args=(left,), epsabs=0.0,
                              epsrel=2e-14, limit=200)
            total += val
    if total == 0.0:  # c A(0) is so large that no node sees the peak at 0
        return 0.0
    log_d = (np.log(p) - log_v / (1 - a) + la0 - e0
             + np.log(np.longdouble(total) / PI_LD))
    return 0.0 if log_d < -700.0 else float(np.exp(log_d))


def levy_density(t, s):
    """Closed-form density of the alpha = 1/2 (Levy) subordinator."""
    return t / math.sqrt(4.0 * math.pi) * s ** -1.5 * math.exp(-t * t / (4.0 * s))


def log_levy_density(t, s):
    """``levy_density`` in logs, so no power of t or s leaves float range;
    -inf where the exponent t^2/(4s) itself does."""
    log_q = 2.0 * math.log(t) - math.log(4.0 * s)
    if log_q > 709.0:
        return -math.inf
    return (math.log(t) - 0.5 * math.log(4.0 * math.pi) - 1.5 * math.log(s)
            - math.exp(log_q))


def plain_log_zolotarev_density(alpha, v):
    """``_log_zolotarev_density`` without its floor: exp(-E0 s) is left to
    underflow, in the same row blocks, so each row's sum has the reference
    bits. Rows whose far terms are all dead come out nan here."""
    g, s, far_lg, far_d = _theta_rule(alpha)
    a = np.longdouble(alpha)
    p = a / (1 - a)
    log_v = np.log(np.asarray(v, dtype=float).astype(np.longdouble))
    la0 = _log_a0_ld(a)
    log_e0 = la0 - p * log_v
    with np.errstate(all="ignore"):
        e0 = np.exp(log_e0)
        e0f, log_e0f = e0.astype(float)[:, None], log_e0.astype(float)[:, None]
        rows = max(1, _BLOCK // (len(s) + len(far_d)))
        parts = []
        for i in range(0, len(e0), rows):
            block = slice(i, i + rows)
            part = np.log((np.exp(-e0f[block] * s) @ g).astype(np.longdouble))
            if len(far_d):
                x = far_lg - np.exp(log_e0f[block] + far_d)
                top = x.max(axis=1)
                far = top + np.log(np.exp(x - top[:, None]).sum(axis=1))
                part = np.logaddexp(part, far.astype(np.longdouble))
            parts.append(part)
        log_pref = np.log(p) - log_v / (1 - a) + la0
        return log_pref - e0 + np.concatenate(parts)


def mpmath_levy_density(v):
    """The standard (t = 1) Levy density at v, in 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        v = mp.mpf(v)
        return (4 * mp.pi) ** -0.5 * v ** -1.5 * mp.exp(-1 / (4 * v))


class TestConstruction:
    def test_rejects_bad_alpha(self):
        for a in (0.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                StableSubordinator(a, 1.0)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            StableSubordinator(0.5, 0.0)

    def test_degenerate_flag(self):
        assert StableSubordinator(1.0, 2.0).degenerate
        assert not StableSubordinator(0.99, 2.0).degenerate

    def test_scale(self):
        sub = StableSubordinator(0.5, 2.0)
        assert math.isclose(sub.scale, 4.0)

    def test_scale_past_float_range_raises_naming_t_and_alpha(self):
        with pytest.raises(ValueError, match=r"t=1e\+160, alpha=0\.5"):
            StableSubordinator(0.5, 1e160).scale


class TestDensity:
    def test_rejects_nan_s(self):
        # nan is no s > 0: refused, where the density read 0.0 there
        with pytest.raises(ValueError, match="s > 0"):
            density(StableSubordinator(0.5, 1.0), math.nan)

    def test_matches_levy_closed_form(self):
        for t in (0.5, 1.0, 2.0):
            for s in (0.05, 0.3, 1.0, 7.0):
                sub = StableSubordinator(0.5, t)
                assert math.isclose(density(sub, s), levy_density(t, s),
                                    rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
    def test_normalizes(self, alpha):
        sub = StableSubordinator(alpha, 1.0)
        total = integrate_against(lambda s: 1.0, sub, SPEC)
        assert math.isclose(total, 1.0, rel_tol=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.8, 0.95, 0.99, 0.998, 0.999])
    def test_continuous_at_tail_switch(self, alpha):
        # the integral representation hands over to the tail series at
        # v = 5; both evaluations must agree there
        from subharnack.subordinator import _standard_density, _tail_density_dw

        v = 4.9999999
        left = _standard_density(alpha, v)
        w = v ** -alpha  # the series in w gives f(v) = alpha phi(w) w / v
        right = alpha * _tail_density_dw(alpha, np.array([w]))[0] * w / v
        assert math.isclose(left, right, rel_tol=1e-6)

    @pytest.mark.parametrize("t, s", [(1e-200, 1e-300), (1e200, 1e300),
                                      (1.5e-154, 10.0)])
    def test_scale_past_float_range(self, t, s):
        # t^2 is 1e-400 or 1e400 at alpha = 1/2, or s / t^2 overflows: the
        # scale enters in logs
        got = density(StableSubordinator(0.5, t), s)
        assert math.isclose(got, math.exp(log_levy_density(t, s)), rel_tol=1e-12)

    @given(st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=-1.0, max_value=150.0))
    @settings(max_examples=200, deadline=None)
    @example(-200.0, 100.0)
    def test_levy_for_every_scale(self, log10_t, log10_v):
        # s = v t^2, over scales t^2 in and past float range
        log10_s = log10_v + 2.0 * log10_t
        assume(-300.0 < log10_s < 300.0)
        t, s = 10.0 ** log10_t, 10.0 ** log10_s
        want = log_levy_density(t, s)
        assume(abs(want) < 700.0)
        got = density(StableSubordinator(0.5, t), s)
        assert math.isclose(got, math.exp(want), rel_tol=1e-12)

    def test_zero_below_support(self):
        sub = StableSubordinator(0.7, 1.0)
        with pytest.raises(ValueError):
            density(sub, 0.0)
        with pytest.raises(ValueError):
            density(sub, -1.0)

    def test_degenerate_has_no_density(self):
        with pytest.raises(ValueError):
            density(StableSubordinator(1.0, 1.0), 1.0)

    @given(st.floats(min_value=0.25, max_value=0.95),
           st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, alpha, s):
        sub = StableSubordinator(alpha, 1.0)
        assert density(sub, s) >= 0.0

    @given(st.floats(min_value=0.26, max_value=0.97),
           st.floats(min_value=-3.0, max_value=math.log10(5.0), exclude_max=True))
    @settings(max_examples=150, deadline=None)
    @example(0.5, -3.0)
    @example(0.5, 0.5)
    def test_theta_rule_matches_adaptive_reference(self, alpha, log10_v):
        v = 10.0 ** log10_v
        assume(v < 5.0)
        assert math.isclose(_standard_density(alpha, v),
                            reference_standard_density(alpha, v),
                            rel_tol=1e-13)

    @pytest.mark.parametrize("alpha, v", [
        (0.3, 0.05), (0.3, 1.0), (0.6, 0.2), (0.6, 2.0), (0.8, 0.5), (0.9, 4.0),
        # left tail: densities ~1e-5, ~1e-15 and <= 1e-100 at each alpha
        (0.5, 0.0151), (0.5, 0.00611), (0.5, 0.00104),
        (0.55, 0.0296), (0.55, 0.0139), (0.55, 0.0025),
        (0.75, 0.192), (0.75, 0.14), (0.75, 0.0609),
        (0.9, 0.516), (0.9, 0.465), (0.9, 0.352),
        (0.95, 0.703), (0.95, 0.669), (0.95, 0.587),
    ])
    def test_zolotarev_against_mpmath(self, alpha, v):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            a, v_mp = mp.mpf(alpha), mp.mpf(v)
            c = v_mp ** (-a / (1 - a))

            def big_a(th):
                return ((mp.sin(a * th) / mp.sin(th)) ** (a / (1 - a))
                        * mp.sin((1 - a) * th) / mp.sin(th))

            # split at the peak theta*, where c A = 1 (A increases), or at 0
            # when c A(0) >= 1; exp(-c A(theta*)) is taken out of the
            # integrand, which mp.quad would otherwise treat as ~0
            lo, hi = mp.mpf(0), mp.pi
            e0 = a ** (a / (1 - a)) * (1 - a) * c  # c A(0)
            if e0 < 1:
                for _ in range(100):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if big_a(mid) * c < 1 else (lo, mid)
            y_peak = big_a(lo) * c if lo > 0 else e0
            integral = mp.quad(lambda th: big_a(th) * mp.exp(y_peak - big_a(th) * c),
                               [0, lo, mp.pi] if lo > 0 else [0, mp.pi])
            want = float(a / (1 - a) * v_mp ** (-1 / (1 - a)) * integral
                         * mp.exp(-y_peak) / mp.pi)
        assert math.isclose(_standard_density(alpha, v), want,
                            rel_tol=1e-12)

    def test_half_underflows_to_zero(self):
        # the density is far below float range here
        assert _standard_density(0.5, 1e-250) == 0.0
        assert math.isclose(_standard_density(0.5, 1e-3),
                            float(mpmath_levy_density(1e-3)), rel_tol=1e-14)

    def test_half_matches_levy_density_to_forty_digits(self):
        # alpha = 1/2 takes the general path; the Levy closed form, evaluated
        # in 40 digits, is its oracle from the far left tail (density ~1e-290
        # at v = 3.7e-4) through the tail series
        for v in np.geomspace(3.7e-4, 200.0, 41).tolist():
            assert math.isclose(_standard_density(0.5, v),
                                float(mpmath_levy_density(v)), rel_tol=1e-14), v

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97,
                                       0.99, 0.999])
    def test_exponent_floor_keeps_every_bit(self, alpha):
        # the law rule's own bulk nodes, then a far-left-tail grid with
        # E0 = c A(0) from 1 to 1e4: wherever the plain sum is a number the
        # floored one has its bits, and where it is nan (every far term
        # dead) the floored one is -inf
        p = alpha / (1.0 - alpha)
        la0 = float(_log_a0_ld(np.longdouble(alpha)))
        rule = _law_rule(alpha)
        bulk = rule.v[rule.v < _TAIL_SWITCH]
        far = np.exp((la0 - np.log(np.geomspace(1.0, 1e4, 60))) / p)
        for v in (bulk, far):
            want = plain_log_zolotarev_density(alpha, v)
            got = _log_zolotarev_density(alpha, v)
            dead = np.isnan(want)
            assert np.array_equal(got[~dead], want[~dead])
            assert np.all(got[dead] == -np.inf)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99, 0.999])
    def test_exponent_floor_keeps_density_bits(self, alpha):
        for v in np.geomspace(1e-8, 4.99, 97).tolist():
            log_want = plain_log_zolotarev_density(alpha, [v])[0]
            want = 0.0 if not log_want >= -_LOG_HUGE else float(np.exp(log_want))
            assert _standard_density(alpha, v) == want, v

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.998, 0.999])
    def test_left_tail_near_one_is_zero(self, alpha):
        # every far node is dead this far left: the density is 0, not nan
        assert density(StableSubordinator(alpha, 1.0), 0.5) == 0.0
        for v in np.geomspace(1e-6, 0.85, 80).tolist():
            assert _standard_density(alpha, v) == 0.0, v

    @given(st.floats(min_value=0.05, max_value=0.997),
           st.floats(min_value=-8.0, max_value=math.log10(50.0)))
    @settings(max_examples=40, deadline=None)
    @example(0.998, math.log10(0.5))
    @example(0.998, math.log10(4.9))
    @example(0.999, -8.0)
    @example(0.999, math.log10(0.99))
    @example(0.999, math.log10(50.0))
    def test_density_is_finite_and_nonnegative(self, alpha, log10_v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = _standard_density(alpha, 10.0 ** log10_v)
        assert math.isfinite(f) and f >= 0.0


class TestLaplace:
    def test_quadrature_identity(self):
        for t in (0.5, 1.0, 2.0):
            for x in (0.1, 1.0, 10.0):
                sub = StableSubordinator(0.5, t)
                quad_val = integrate_against(
                    lambda s, x=x: math.exp(-x * s), sub, SPEC
                )
                assert math.isclose(quad_val, math.exp(-t * math.sqrt(x)),
                                    rel_tol=1e-8)

    def test_degenerate(self):
        sub = StableSubordinator(1.0, 3.0)
        assert math.isclose(laplace(sub, 2.0), math.exp(-6.0), rel_tol=1e-15)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            laplace(StableSubordinator(0.5, 1.0), -1.0)

    def test_rejects_nan_argument(self):
        with pytest.raises(ValueError, match="x >= 0"):
            laplace(StableSubordinator(0.5, 1.0), math.nan)

    @given(st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=100)
    def test_monotone_in_x(self, alpha, x1, x2):
        sub = StableSubordinator(alpha, 1.0)
        lo, hi = sorted((x1, x2))
        assert laplace(sub, hi) <= laplace(sub, lo) + 1e-15


class TestFractionalMoment:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, r, t):
        sub = StableSubordinator(0.5, t)
        quad_val = integrate_against(lambda s: s ** -r, sub, SPEC)
        closed = fractional_moment(sub, r)
        assert math.isclose(quad_val, closed, rel_tol=1e-8)

    def test_closed_form_value(self):
        # alpha = 1/2, r = 1: Gamma(2)/(0.5*Gamma(1)) * t^-2 = 2/t^2
        sub = StableSubordinator(0.5, 2.0)
        assert math.isclose(fractional_moment(sub, 1.0), 0.5, rel_tol=1e-14)

    def test_degenerate_exact(self):
        sub = StableSubordinator(1.0, 2.0)
        for r in (0.5, 1.0, 2.0, 3.0):
            assert math.isclose(fractional_moment(sub, r), 2.0 ** -r,
                                rel_tol=1e-14)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            fractional_moment(StableSubordinator(0.5, 1.0), 0.0)

    @pytest.mark.parametrize("alpha, t, r", [(0.1, 1.0, 50.0), (1.0, 0.01, 200.0)])
    def test_past_float_range_is_inf(self, alpha, t, r):
        assert fractional_moment(StableSubordinator(alpha, t), r) == math.inf

    def test_degenerate_is_exactly_t_to_the_minus_r(self):
        assert fractional_moment(StableSubordinator(1.0, 0.01), 150.0) == 0.01 ** -150.0

    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.01, max_value=100.0),
           st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1,
                    max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_array_orders_equal_scalar_orders(self, alpha, t, orders):
        # Gamma(r) of an array takes gammaln unchecked: the same bits
        sub = StableSubordinator(alpha, t)
        got = log_fractional_moment(sub, np.array(orders))
        want = [log_fractional_moment(sub, r) for r in orders]
        assert [repr(float(x)) for x in got] == [repr(x) for x in want]

    @pytest.mark.parametrize("alpha, bad", [
        *((a, bad) for a in (0.6, 1.0) for bad in (0.0, -1.0, math.inf, math.nan)),
        (0.6, 1.5e308),  # finite, but 1.5e308 / 0.6 is not
    ])
    def test_array_rejects_as_log_gamma_of_r_over_alpha(self, alpha, bad):
        orders = np.array([2.0, bad])
        with np.errstate(over="ignore"), pytest.raises(ValueError) as want:
            log_gamma(orders / alpha)
        with np.errstate(over="ignore"), pytest.raises(ValueError) as got:
            log_fractional_moment(StableSubordinator(alpha, 1.0), orders)
        assert str(got.value) == str(want.value)


class TestExpMoment:
    @pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
    def test_matches_quadrature_below_radius(self, t):
        delta = 0.2 * t * t / 4.0
        sub = StableSubordinator(0.5, t)
        series = exp_moment(sub, delta, 1.0, SPEC)
        assert series.converged
        quad_val = integrate_against(
            lambda s: math.exp(delta / s), sub, SPEC
        )
        assert math.isclose(series.value, quad_val, rel_tol=1e-6)

    def test_diverges_above_radius(self):
        sub = StableSubordinator(0.5, 1.0)
        res = exp_moment(sub, 0.3, 1.0, SPEC)  # 4*0.3 > 1/4? no: radius t^2/4 = 0.25
        assert not res.converged
        assert "diverges" in res.divergence_reason

    def test_boundary_ratio(self):
        # kappa = 1, alpha = 1/2: q = 4 delta / t^2
        assert math.isclose(geometric_term_ratio(0.5, 1.0, 2.0), 0.5)
        assert math.isclose(geometric_term_ratio(1.0, 1.0, 2.0), 1.0)

    def test_boundary_ratio_past_float_range_is_inf(self):
        assert geometric_term_ratio(1.0, 300.0, 0.001) == math.inf
        assert geometric_term_ratio(0.0, 300.0, 0.001) == 0.0

    def test_boundary_ratio_past_float_range_diverges(self):
        res = exp_moment(StableSubordinator(300.0 / 301.0, 0.001), 1.0, 300.0, SPEC)
        assert not res.converged
        assert res.divergence_reason.endswith("geometric term ratio inf >= 1")

    def test_below_boundary_always_diverges(self):
        res = exp_moment(StableSubordinator(0.3, 1.0), 1e-6, 1.0, SPEC)
        assert not res.converged
        assert "below" in res.divergence_reason

    def test_one_step_above_boundary_is_not_divergent(self):
        # alpha one rounding step above 1/2 has a finite moment; the series
        # cannot sum it, which it reports as such
        res = exp_moment(StableSubordinator(0.5000000000000001, 1.0), 1.0, 1.0,
                         SPEC)
        assert not res.divergence_reason.startswith("series diverges")

    def test_above_boundary_always_converges(self):
        res = exp_moment(StableSubordinator(0.6, 0.5), 2.0, 1.0, SPEC)
        assert res.converged
        assert math.isfinite(res.log_value)

    def test_degenerate_closed_form(self):
        res = exp_moment(StableSubordinator(1.0, 2.0), 3.0, 1.0, SPEC)
        assert res.converged
        assert math.isclose(res.value, math.exp(1.5), rel_tol=1e-14)

    def test_past_float_range_keeps_its_log(self):
        # exp(delta / t) = e^1000 at the point mass t = 0.01
        res = exp_moment(StableSubordinator(1.0, 0.01), 10.0, 1.0, SPEC)
        assert res.converged and res.value == math.inf
        assert res.log_value == 1000.0

    def test_degenerate_with_t_to_the_kappa_out_of_range(self):
        # t**kappa overflowed (a finite moment e^(1e-400) = 1) or underflowed
        # to 0 (a moment past float range) in a division
        res = exp_moment(StableSubordinator(1.0, 1e200), 1.0, 2.0, SPEC)
        assert res.converged and res.value == 1.0
        res = exp_moment(StableSubordinator(1.0, 1e-200), 1.0, 2.0, SPEC)
        assert res.converged and res.log_value == res.value == math.inf

    def test_delta_zero(self):
        res = exp_moment(StableSubordinator(0.3, 1.0), 0.0, 1.0, SPEC)
        assert res.converged and res.value == 1.0

    @given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True,
                     exclude_max=True),
           st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=-3.0, max_value=0.5),
           st.sampled_from([0.5, 1.0, 2.0]),
           st.sampled_from([1e-9, 1e-10, 1e-12]))
    @settings(max_examples=100, deadline=None)
    def test_block_sum_matches_term_by_term(self, alpha, t, log10_delta,
                                            kappa, rel_tol):
        # above the boundary window exp_moment always sums the series
        assume(alpha - kappa / (kappa + 1.0) > 1e-12)
        sub = StableSubordinator(alpha, t)
        delta = 10.0 ** log10_delta
        got = exp_moment(sub, delta, kappa, QuadratureSpec(rel_tol=rel_tol))
        want = reference_exp_moment(sub, delta, kappa, rel_tol)
        if not got.converged:  # the peak lies too far out for either sum
            assert not want.converged
        elif got.terms_used <= _FIRST_BLOCK and _log_concave_from(alpha, kappa) < 20:
            # the first block finishes it: the forward rule, as before
            assert got == want
        else:
            # the window around the peak, or the ratio floor near the
            # boundary (TestPeakWindow checks their bounds)
            assert not want.converged or math.isclose(
                got.log_value, want.log_value, rel_tol=1e-12)

    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
    def test_block_sum_matches_at_boundary(self, kappa, q):
        # at alpha = kappa/(kappa+1) the series converges geometrically
        t = 1.3
        sub = StableSubordinator(kappa / (kappa + 1.0), t)
        delta = q / geometric_term_ratio(1.0, kappa, t)
        got = exp_moment(sub, delta, kappa, SPEC)
        want = reference_exp_moment(sub, delta, kappa, SPEC.rel_tol)
        assert got.converged
        # the tail is bounded with the limit ratio q, at or above the observed
        # one, so the sum stops where the term-by-term loop did or, at
        # q = 0.99, a few terms later (test_boundary_tail_bound_holds checks
        # the bound against the true tail)
        assert got.terms_used >= want.terms_used
        if got.terms_used == want.terms_used:
            assert got.log_value == want.log_value
            assert got.truncation_bound >= want.truncation_bound
        else:
            assert want.log_value <= got.log_value < want.log_value + SPEC.rel_tol

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 0.99, 0.9996, 0.9999])
    def test_half_closed_form(self, t, frac):
        delta = frac * t * t / 4.0
        res = exp_moment(StableSubordinator(0.5, t), delta, 1.0, SPEC)
        assert res.converged
        assert res.terms_used == 0 and res.truncation_bound == 0.0
        want = t / (2.0 * math.sqrt(t * t / 4.0 - delta))
        assert math.isclose(res.value, want, rel_tol=1e-13)
        assert math.isclose(res.log_value, math.log(want), rel_tol=1e-12,
                            abs_tol=1e-15)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("frac", [0.3, 0.9, 0.99, 0.9999])
    def test_half_against_mpmath(self, t, frac):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            delta = frac * t * t / 4.0
            gap = mp.mpf(t) ** 2 / 4 - mp.mpf(delta)

            def levy_exp(s):  # Levy density times exp(delta/s), merged
                return (t / mp.sqrt(4 * mp.pi) * s ** mp.mpf(-1.5)
                        * mp.exp(-gap / s))

            want = float(mp.quad(levy_exp, [0, gap / 10, gap, 10 * gap, 1,
                                            mp.inf]))
        res = exp_moment(StableSubordinator(0.5, t), delta, 1.0, SPEC)
        assert math.isclose(res.value, want, rel_tol=1e-12)

    def test_half_near_radius_converges(self):
        # the series needs ~1/(1-q) terms here and used to run out of them
        res = exp_moment(StableSubordinator(0.5, 1.0), 0.9999 * 0.25, 1.0, SPEC)
        assert res.converged
        assert math.isclose(res.value, 100.0, rel_tol=1e-12)

    def test_half_at_radius_is_not_a_division_by_zero(self):
        # here the rounded ratio q is 1 - 2**-53 while t^2/4 - delta is 0
        t = 1.0 / 97.0
        delta = t * t / 4.0
        assert geometric_term_ratio(delta, 1.0, t) < 1.0
        res = exp_moment(StableSubordinator(0.5, t), delta, 1.0, SPEC)
        assert not res.converged

    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_boundary_tail_bound_holds(self, kappa, q):
        # at alpha = kappa/(kappa + 1) the term ratio rises toward q, so a
        # tail bounded with the observed ratio fell short of the true one
        # (8.009e-11 against 8.025e-11 at kappa = 2, t = 1, q = 0.5)
        t = 1.0
        sub = StableSubordinator(kappa / (kappa + 1.0), t)
        delta = q / geometric_term_ratio(1.0, kappa, t)
        res = exp_moment(sub, delta, kappa, SPEC)
        assert res.converged
        n = np.arange(res.terms_used + 1, 400001)
        tail = np.exp(exp_moment_log_terms(sub, delta, kappa)(n)).sum()
        assert res.truncation_bound >= tail

    def test_known_value_sqrt2(self):
        # alpha=1/2, kappa=1, t=2, delta=0.5: sum_n (1/2)^n/n! * 2 n!/(n! 4^n)...
        # oracle: quadrature of exp(delta/s) against the Levy law
        sub = StableSubordinator(0.5, 2.0)
        res = exp_moment(sub, 0.5, 1.0, SPEC)
        quad_val = integrate_against(lambda s: math.exp(0.5 / s), sub, SPEC)
        assert math.isclose(res.value, quad_val, rel_tol=1e-6)


GENEROUS = 500000  # max_terms of the forward sums the window is checked against


def within_truncation_bound(got, exact):
    """The value ``exact`` (a sum to 1e-16) exceeds ``got`` by no more than
    ``got.truncation_bound``, up to the rounding of the two log sums."""
    if got.truncation_bound == math.inf:  # an absolute bound past float range
        return True
    gap = math.expm1(exact.log_value - got.log_value)
    rel_bound = math.exp(math.log(got.truncation_bound) - got.log_value)
    return gap <= rel_bound + 8 * 2.0 ** -52 * max(1.0, abs(got.log_value))


class TestPeakWindow:
    """Above the boundary, exp_moment and series_factor sum the window
    around the peak of their terms; the forward sum from n = 1 is the
    oracle."""

    def test_far_peak_against_mpmath(self):
        # harnack_grid's alpha = 0.55, t = 0.5, delta = 1: the terms peak at
        # n ~ 404,000, past max_terms of the forward sum. The terms are
        # smooth and about 1,500 wide, so their sum equals the integral of
        # exp(l(x)) far below 1e-30 (Poisson summation), and they are
        # below e^-250 of the peak off [370,000, 440,000].
        mp = pytest.importorskip("mpmath")
        alpha, t = 0.55, 0.5
        res = exp_moment(StableSubordinator(alpha, t), 1.0, 1.0, SPEC)
        assert res.converged
        assert res.terms_used < 30000
        with mp.workdps(30):
            a = mp.mpf(alpha)
            b, log_t = 1 / a, mp.log(mp.mpf(t))

            def ell(x):
                return (mp.loggamma(b * x) - mp.loggamma(x) - mp.loggamma(x + 1)
                        - mp.log(a) - b * x * log_t)

            top = ell(404000)
            want = top + mp.log(mp.quad(lambda x: mp.exp(ell(x) - top),
                                        [370000, 395000, 404000, 413000, 440000]))
        assert abs(res.log_value - float(want)) < 1e-8
        assert abs(res.log_value - 73505.0495219006) < 1e-8

    @given(st.sampled_from([0.5, 1.0, 2.0]),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                     exclude_max=True),
           st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=-3.0, max_value=1.5),
           st.sampled_from([1e-9, 1e-10, 1e-12]))
    @settings(max_examples=40, deadline=None)
    # the window of ROADMAP's oracle: 175.79 in 1,458 forward terms
    @example(1.0, 0.1, 0.5, math.log10(1.0 / 3.0), 1e-10)
    # next to the boundary the forward rule stops at n = 21, before the
    # terms are concave; the observed ratio there understated the tail
    @example(2.0, 0.000255735, 1.636926503534642, math.log10(0.2029617760895449),
             1e-12)
    def test_window_matches_forward_sum(self, kappa, u, t, log10_delta, rel_tol):
        boundary = kappa / (kappa + 1.0)
        alpha = boundary + u * (1.0 - boundary)
        assume(boundary < alpha < 1.0)
        sub = StableSubordinator(alpha, t)
        delta = 10.0 ** log10_delta
        terms = exp_moment_log_terms(sub, delta, kappa)
        plain = sum_log_series(terms, rel_tol, max_terms=GENEROUS)
        assume(plain.converged)
        got = exp_moment(sub, delta, kappa, QuadratureSpec(rel_tol=rel_tol))
        assert got.converged
        # the same sum to 1e-12 of its log, up to the rel_tol both stop at
        assert (abs(got.log_value - plain.log_value)
                <= 1e-12 * abs(plain.log_value) + 2.0 * rel_tol)
        assert within_truncation_bound(
            got, sum_log_series(terms, 1e-16, max_terms=GENEROUS))

    @pytest.mark.parametrize("peak", [3e3, 1e5])
    def test_series_factor_far_peak(self, peak):
        # the envelope's log terms n e log n + n log r peak at
        # n = exp(-log r / e - 1); choose delta to put that at ``peak``
        alpha, kappa, t = 0.55, 1.0, 0.5
        c = math.e * constant_c(alpha, kappa)
        expo = kappa * (1.0 / alpha - 1.0) - 1.0
        log_r = -expo * (math.log(peak) + 1.0)
        delta = math.exp(log_r + (kappa / alpha) * math.log(t)) / c
        got = series_factor(delta, alpha, kappa, t)

        def terms(n):
            return n * expo * np.log(n) + n * log_r

        plain = sum_log_series(terms, 1e-12, max_terms=GENEROUS)
        assert plain.converged and plain.terms_used > peak
        assert got.converged and got.terms_used < plain.terms_used - peak / 2
        assert abs(got.log_value - plain.log_value) <= 1e-12 * plain.log_value
        assert within_truncation_bound(
            got, sum_log_series(terms, 1e-16, max_terms=GENEROUS))

    def test_one_step_above_boundary_returns_at_once(self):
        # concavity is certified only past n ~ 1e15 here and the terms still
        # rise at the search cap: no forward sum runs to max_terms
        sub = StableSubordinator(0.5000000000000001, 1.0)
        seconds = []
        for _ in range(3):
            _exp_moment_memo.cache_clear()  # time the sum, not a memo hit
            start = time.perf_counter()
            res = exp_moment(sub, 1.0, 1.0, SPEC)
            seconds.append(time.perf_counter() - start)
        assert not res.converged
        assert not res.divergence_reason.startswith("series diverges")
        assert "peak" in res.divergence_reason
        assert min(seconds) < 0.05

    @given(st.sampled_from([0.5, 1.0, 2.0]),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                     exclude_max=True))
    @settings(max_examples=30, deadline=None)
    def test_concavity_and_ratio_bound(self, kappa, u):
        # delta and t enter l(n) linearly, so delta = t = 1 tests them all
        boundary = kappa / (kappa + 1.0)
        alpha = boundary + u * (1.0 - boundary)
        assume(boundary < alpha < 1.0)
        m = _log_concave_from(alpha, kappa)
        assume(m < 100000)
        sub = StableSubordinator(alpha, 1.0)
        n = np.arange(1, m + 2000)
        lt = exp_moment_log_terms(sub, 1.0, kappa)(n)
        step = np.diff(lt)  # step[i] = log r(n[i])
        # l(n+1) - l(n) does not increase from m on (to rounding)
        tol = 1e-12 * np.abs(lt[m - 1:]).max()
        assert np.all(np.diff(step[m - 1:]) <= tol)
        # the ratio bound at n exceeds every ratio r(k), k >= n, up to m + 2000
        later_max = np.maximum.accumulate(step[::-1])[::-1]
        bound = _ratio_bound(sub, 1.0, kappa, m)(n[:-1])
        assert np.all(np.log(bound[:m]) >= later_max[:m] - tol)
        assert np.all(bound[m:] == 0.0)


def same_fields(a, b):
    """Field for field and bit for bit: a float's repr round-trips, and
    tells -0.0 from 0.0; nan equals nan here, as == would not have it."""
    return type(a) is type(b) and repr(a) == repr(b)


def memo_counts():
    info = _exp_moment_memo.cache_info()
    return info.hits, info.misses


class TestExpMomentMemo:
    """``exp_moment`` checks its arguments on every call and reads the sum
    from a memo keyed by (sub, delta, kappa, spec.rel_tol)."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _exp_moment_memo.cache_clear()

    @given(st.sampled_from([0.5, 1.0, 2.0]),
           st.one_of(st.none(), st.floats(min_value=0.2, max_value=1.0)),
           st.floats(min_value=0.5, max_value=2.0),
           st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=3.0)),
           st.sampled_from([1e-6, 1e-10, 1e-12]))
    @settings(max_examples=60, deadline=None)
    @example(1.0, None, 1.0, 0.2, 1e-10)  # the boundary index, q = 0.8
    @example(1.0, None, 1.0, 0.3, 1e-10)  # the boundary index, q = 1.2
    @example(2.0, None, 1.3, 0.1, 1e-10)  # the boundary, no closed form
    @example(1.0, 1.0, 0.7, 2.0, 1e-10)  # the point mass
    @example(1.0, 0.7, 1.0, 0.0, 1e-10)  # delta = 0
    @example(1.0, 0.3, 1.0, 1.0, 1e-10)  # below the boundary: diverges
    @example(1.0, 0.55, 0.5, 1.0, 1e-10)  # the far peak of harnack_grid
    def test_memoized_equals_computed(self, kappa, alpha, t, delta, rel_tol):
        # alpha None stands for the boundary kappa/(kappa+1)
        alpha = kappa / (kappa + 1.0) if alpha is None else alpha
        sub = StableSubordinator(alpha, t)
        spec = QuadratureSpec(rel_tol=rel_tol)
        got = exp_moment(sub, delta, kappa, spec)
        hits, misses = memo_counts()
        again = exp_moment(sub, delta, kappa, spec)
        assert memo_counts() == (hits + 1, misses)
        assert again is got
        assert same_fields(got, _exp_moment_memo.__wrapped__(sub, delta, kappa,
                                                              rel_tol))

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_orders_out_of_range_raise_as_log_gamma(self, kappa):
        # kappa n / alpha is the one order that can leave float range
        with pytest.raises(ValueError) as want:
            log_gamma(np.array([1.0, kappa]))
        with pytest.raises(ValueError) as got:
            exp_moment(StableSubordinator(0.6, 1.0), 1.0, kappa, SPEC)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("delta, kappa, match", [
        (-0.5, 1.0, "delta must be >= 0"),
        (-1e-300, 1.0, "delta must be >= 0"),
        (0.5, 0.0, "kappa must be > 0"),
        (0.5, -1.0, "kappa must be > 0"),
        (0.0, 0.0, "kappa must be > 0"),
    ])
    def test_bad_arguments_raise_after_a_cached_success(self, delta, kappa, match):
        sub = StableSubordinator(0.7, 1.0)
        for good in (0.0, 0.5):
            assert exp_moment(sub, good, 1.0, SPEC).converged
        before = _exp_moment_memo.cache_info()
        with pytest.raises(ValueError, match=match):
            exp_moment(sub, delta, kappa, SPEC)
        assert _exp_moment_memo.cache_info() == before

    def test_key_is_normalized_to_floats(self):
        sub = StableSubordinator(0.7, 1.0)
        first = exp_moment(sub, 1, 1, SPEC)
        assert exp_moment(sub, np.float64(1.0), 1.0, SPEC) is first
        assert memo_counts() == (1, 1)

    def test_specs_differing_outside_rel_tol_share_an_entry(self):
        sub = StableSubordinator(0.7, 1.0)
        first = exp_moment(sub, 0.5, 1.0, QuadratureSpec(rel_tol=1e-10))
        for spec in (QuadratureSpec(rel_tol=1e-10, abs_tol=1e-6),
                     QuadratureSpec(rel_tol=1e-10, max_subdivisions=7)):
            assert exp_moment(sub, 0.5, 1.0, spec) is first
        assert memo_counts() == (2, 1)
        exp_moment(sub, 0.5, 1.0, QuadratureSpec(rel_tol=1e-8))
        assert memo_counts() == (2, 2)

    def test_harnack_checks_sum_the_series_once(self):
        # the moment depends on (alpha, t, p, points), not on f
        sub = StableSubordinator(0.7, 1.0)
        for f in (Indicator(-1.0, 0.5), GaussBump(0.3, 0.8),
                  ExpAffine(0.4, clip=1.2)):
            rep = check_subordinated_harnack(gauss_heat(1), sub, 2.0, 0.0, 1.0, f,
                                             "numeric", SPEC)
            assert rep.method == "series" and rep.status == "holds"
        assert memo_counts() == (2, 1)


class TestSeriesEval:
    def test_value_is_derived_from_the_log(self):
        assert "value" not in {f.name for f in fields(SeriesEval)}
        assert SeriesEval.exact(0.5).value == math.exp(0.5)
        assert SeriesEval.exact(710.0).value == math.inf
        assert SeriesEval.exact(-800.0).value == 0.0

    def test_converged_is_derived_from_the_reason(self):
        assert "converged" not in {f.name for f in fields(SeriesEval)}
        assert SeriesEval.exact(0.5).converged
        assert not SeriesEval.diverges("why").converged
        assert SeriesEval(3, 1e-12, log_value=0.5).converged
        with pytest.raises(AttributeError):
            SeriesEval.exact(0.5).converged = False

    def test_constructors(self):
        assert SeriesEval.exact(0.5) == SeriesEval(
            terms_used=0, truncation_bound=0.0, log_value=0.5)
        res = SeriesEval.diverges("why", terms_used=7)
        assert res == SeriesEval(terms_used=7, truncation_bound=math.inf,
                                 divergence_reason="why")
        assert res.value == math.inf and math.isnan(res.log_value)


class TestSumLogSeries:
    def test_geometric(self):
        # 1 + sum q^n = 1/(1-q)
        q = 0.5
        res = sum_log_series(lambda n: n * math.log(q), 1e-12)
        assert res.converged
        assert math.isclose(res.value, 2.0, rel_tol=1e-10)

    def test_exponential(self):
        res = sum_log_series(lambda n: n * math.log(3.0) - log_gamma(n + 1.0),
                             1e-13)
        assert math.isclose(res.value, math.exp(3.0), rel_tol=1e-11)

    def test_huge_sum_reports_log(self):
        # value overflows linear scale; log_value must stay finite
        res = sum_log_series(lambda n: 800.0 - n, 1e-12)
        assert res.converged
        assert res.value == math.inf
        assert math.isfinite(res.log_value)
        assert res == reference_sum_log_series(lambda n: 800.0 - n, 1e-12)

    def test_stops_at_twenty(self):
        # the tail is below tolerance from n = 1; the rule waits for n = 20
        res = sum_log_series(lambda n: n * math.log(0.01), 1e-10)
        assert res.terms_used == 20
        assert res == reference_sum_log_series(lambda n: n * math.log(0.01), 1e-10)

    @pytest.mark.parametrize("stop", [64, 65, 320, 321, 1344, 1345])
    def test_stop_at_block_edges(self, stop):
        # blocks are 64, 256, 1024, ... terms: the first block ends at 64,
        # the second at 320, the third at 1344. For 1 + sum q^n the tail
        # estimate over the partial sum at n is q^(n+1) / (1 - q^(n+1));
        # a rel_tol between its values at stop - 1 and stop makes the rule
        # first hold at stop.
        q = 0.99
        log_q = math.log(q)
        log_ratio = [(n + 1) * log_q - math.log1p(-q ** (n + 1))
                     for n in (stop - 1, stop)]
        rel_tol = math.exp(0.5 * sum(log_ratio))
        res = sum_log_series(lambda n: n * log_q, rel_tol)
        assert res.terms_used == stop
        assert res == reference_sum_log_series(lambda n: n * log_q, rel_tol)

    @pytest.mark.parametrize("max_terms", [19, 100, 1000, 5001])
    def test_max_terms_not_a_block_multiple(self, max_terms):
        seen = []

        def log_terms(n):
            seen.append(n.max())
            return -2.0 * np.log(n)  # sum 1/n^2: too slow for rel_tol 1e-12

        res = sum_log_series(log_terms, 1e-12, max_terms=max_terms)
        assert not res.converged
        assert res.terms_used == max_terms
        assert max(seen) == max_terms
        assert res == reference_sum_log_series(lambda n: -2.0 * math.log(n),
                                               1e-12, max_terms=max_terms)

    def test_zero_term_stops_like_the_loop(self):
        # an exact zero term (log -inf) has ratio q = 0: the rule stops there
        def log_terms(n):
            return np.where(n == 30, -np.inf, -0.5 * n)

        def log_term(n):
            return -math.inf if n == 30 else -0.5 * n

        res = sum_log_series(log_terms, 1e-300)
        assert res.terms_used == 30
        assert res == reference_sum_log_series(log_term, 1e-300)


class TestSampling:
    def test_laplace_transform_mc(self):
        for alpha in (0.3, 0.7, 0.9):
            sub = StableSubordinator(alpha, 1.0)
            rng = np.random.default_rng(7)
            s = sample(sub, rng, size=400_000)
            assert np.all(s > 0)
            vals = np.exp(-s)
            mean = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(mean - laplace(sub, 1.0)) < 4.0 * se

    def test_pooled_laplace_streams_are_unbiased(self):
        # laplace_mc checks one stream of 200k draws against a 4-SE band;
        # pooled over 40 such streams, a bias in the sampler of even a
        # fraction of one stream's standard error would move z past 4
        n, streams = 200_000, range(40)
        for alpha in (0.55, 0.6, 0.7, 0.8, 0.9):  # harnack_grid's alphas
            sub = StableSubordinator(alpha, 0.5)
            total, total_sq = 0.0, 0.0
            for seed in streams:
                vals = np.exp(-sample(sub, np.random.default_rng(seed), size=n))
                total += vals.sum()
                total_sq += vals @ vals
            count = n * len(streams)
            mean = total / count
            se = math.sqrt((total_sq - count * mean * mean) / (count - 1) / count)
            assert abs(mean - laplace(sub, 1.0)) < 4.0 * se, alpha

    def test_degenerate_sample(self):
        rng = np.random.default_rng(0)
        assert sample(StableSubordinator(1.0, 2.5), rng) == 2.5

    def test_scalar_and_vector_shapes(self):
        rng = np.random.default_rng(1)
        sub = StableSubordinator(0.6, 1.0)
        assert np.isscalar(sample(sub, rng)) or np.ndim(sample(sub, rng)) == 0
        assert sample(sub, rng, size=10).shape == (10,)

    def test_reproducible_given_seed(self):
        sub = StableSubordinator(0.6, 1.0)
        a = sample(sub, np.random.default_rng(3), size=5)
        b = sample(sub, np.random.default_rng(3), size=5)
        assert np.array_equal(a, b)


def reference_sample(sub, rng, size=None):
    """The unblocked transform with numpy's sin that ``sample`` replaced,
    kept as the reference it must reproduce to rounding."""
    a = sub.alpha
    u = rng.uniform(0.0, np.pi, size=size)
    w = rng.standard_exponential(size=size)
    return sub.scale * np.exp(((1.0 - a) / a) * (_kanter_log_a(u, a) - np.log(w)))


def whole_array_sample(sub, rng, size=None):
    """``sample``'s ratio-form transform on whole-size arrays of theta and
    W, each drawn at once: the blocked sampler must reproduce it bit for
    bit."""
    a = sub.alpha
    theta = np.asarray(rng.uniform(0.0, np.pi, size=size))
    w = np.ravel(rng.standard_exponential(size=size))
    th = np.ravel(theta)
    tau, u = np.tan(th * 0.5), np.tan(th * (0.5 * a))
    d = (u * u + 1.0) * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (tau * u + 1.0) * (tau - u) / d
        y = (tau * tau + 1.0) * u / d
    x[tau == 0.0], y[tau == 0.0] = 1.0 - a, a
    s = y * sub.scale * np.power(x / w, (1.0 - a) / a)
    return s.reshape(theta.shape)[()]


def kanter_ld(sub, theta, w):
    """The Kanter transform's factors sin(a th)/sin th and
    (sin((1 - a) th)/(sin th W))**p in longdouble, at float theta and W and
    with ``sample``'s float exponent p = (1 - a)/a; S is scale times their
    product."""
    a, th = np.longdouble(sub.alpha), np.asarray(theta, dtype=np.longdouble)
    sin_th = np.sin(th)
    p = np.longdouble((1.0 - sub.alpha) / sub.alpha)
    return (np.sin(a * th) / sin_th,
            (np.sin((1 - a) * th) / (sin_th * np.longdouble(w))) ** p)


def ratio_form_bound(alpha):
    """Bound on the relative error of ``sample``'s S at a float theta: a
    few ulp/alpha, as tau - u enters only through the power
    (1 - alpha)/alpha, plus the rounding of alpha theta, which any float
    form shares (ulp/(1 - alpha) near theta = pi)."""
    return np.finfo(float).eps * (8.0 / alpha + 1.0 / (1.0 - alpha))


needs_extended_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="the Kanter reference needs an extended-precision longdouble")


class StubGenerator:
    """Returns fixed draws in sample's shape: theta (a float, or an array of
    the draw's shape) from ``uniform``, or theta / pi from ``random``, and
    W (a float) from ``standard_exponential``."""

    def __init__(self, theta, w):
        self.theta, self.w = theta, w

    def uniform(self, low, high, size=None):
        return self.theta if size is None else np.full(size, self.theta)

    def random(self, size=None, out=None):
        out[...] = np.divide(self.theta, np.pi)
        return out

    def standard_exponential(self, size=None, out=None):
        if out is not None:
            out[...] = self.w
            return out
        return self.w if size is None else np.full(size, self.w)


class TestBlockedSampler:
    # the largest relative error against ``kanter_ld`` of the log-form
    # transform (three logs of half-angle sines, log W, an exp) that the
    # ratio form replaced, on the grid and W values of
    # test_accuracy_against_longdouble_kanter, rounded down
    LOG_FORM_ERROR = {0.1: 1.4e-12, 0.3: 2.6e-13, 0.55: 1.6e-13, 0.7: 1.1e-13,
                      0.9: 1.2e-13, 0.99: 9.4e-14, 0.999: 1.0e-13}

    @needs_extended_longdouble
    def test_accuracy_against_longdouble_kanter(self):
        half, eps = math.pi / 2, np.geomspace(1e-300, 1e-15, 60)
        grid = np.concatenate((
            np.linspace(0.0, math.pi, 100_001)[1:-1],
            eps, half - eps[-20:], half + eps[-20:],
            np.nextafter(math.pi, 0.0) - np.spacing(math.pi) * np.arange(5),
            math.pi - np.geomspace(5e-16, 1e-15, 10)))
        theta = np.pi * (grid / np.pi)  # the theta sample sees
        for alpha, log_form in self.LOG_FORM_ERROR.items():
            sub = StableSubordinator(alpha, 0.7)
            for w in (0.05, 1.3, 7.0):
                got = sample(sub, StubGenerator(grid, w), size=len(grid))
                y, power = kanter_ld(sub, theta, w)
                err = float(np.max(np.abs(got / (sub.scale * y * power) - 1)))
                assert err <= min(log_form, ratio_form_bound(alpha)), (alpha, w)

    @needs_extended_longdouble
    @given(st.floats(min_value=0.05, max_value=0.999),
           st.floats(min_value=1e-300, max_value=math.pi, exclude_max=True),
           st.floats(min_value=1e-20, max_value=50.0))
    @example(0.05, 0.3, 4e-17)  # the power alone passes float range
    @example(0.05, 3.1415926535897922, 0.046875)  # so would y times the power
    @example(0.0608419275305894, 1e-300, 1e-20)  # log D cancelled in log S
    @settings(max_examples=300, deadline=None)
    def test_ratio_form_within_its_error_bound(self, alpha, theta, w):
        sub = StableSubordinator(alpha, 0.7)
        y, power = kanter_ld(sub, np.pi * (theta / np.pi), w)
        want, big = sub.scale * y * power, np.finfo(float).max
        got = sample(sub, StubGenerator(theta, w))
        assert isinstance(got, float)
        if want > big:
            assert got == math.inf
            return
        assume(want > np.finfo(float).tiny)
        # where the power passes float range but S does not, S is formed
        # in logs, to a few ulp of log S
        bound = (ratio_form_bound(alpha) if power <= big
                 else 8.0 * np.finfo(float).eps * abs(math.log(want)))
        assert abs(got / want - 1) <= bound

    @pytest.mark.parametrize("alpha", [0.1, 0.55, 0.9, 0.999])
    def test_matches_unblocked_sin_formula(self, alpha):
        sub = StableSubordinator(alpha, 0.7)
        sizes = (1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1,
                 200_000, (3, _SAMPLE_BLOCK))
        for size in sizes:
            got = sample(sub, np.random.default_rng(5), size=size)
            want = reference_sample(sub, np.random.default_rng(5), size=size)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        got = sample(sub, np.random.default_rng(5))
        assert isinstance(got, float)
        assert got == pytest.approx(
            reference_sample(sub, np.random.default_rng(5)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.55, 0.9, 0.999])
    def test_bit_equal_to_whole_array_transform(self, alpha):
        # S is written over theta and W drawn a block at a time; samples
        # and the generator's next draw are those of whole-size draws
        sub = StableSubordinator(alpha, 0.7)
        for size in (None, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK + 1, 200_000,
                     (3, _SAMPLE_BLOCK)):
            rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
            got = sample(sub, rng, size=size)
            want = whole_array_sample(sub, ref_rng, size=size)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("bit_generator",
                             [np.random.PCG64, np.random.MT19937, np.random.SFC64])
    def test_bit_equal_for_each_bit_generator(self, bit_generator):
        sub = StableSubordinator(0.75, 1.3)
        size = 2 * _SAMPLE_BLOCK + 5
        rng = np.random.Generator(bit_generator(2024))
        ref_rng = np.random.Generator(bit_generator(2024))
        assert np.array_equal(sample(sub, rng, size=size),
                              whole_array_sample(sub, ref_rng, size=size))
        assert rng.random() == ref_rng.random()

    def test_theta_zero_takes_the_limit(self):
        # theta = pi * rng.random() is exactly 0 with probability 2**-53 a
        # draw: S then takes the limit A(0), not 0/0 = nan
        sub = StableSubordinator(0.7, 2.0)
        a, w = sub.alpha, 1.3
        want = sub.scale * math.exp(((1 - a) / a) * (float(_log_a0_ld(a)) - math.log(w)))
        s = sample(sub, StubGenerator(0.0, w), size=_SAMPLE_BLOCK + 2)
        assert np.all(s == s[0]) and s[0] == pytest.approx(want, rel=1e-14)
        assert sample(sub, StubGenerator(0.0, w)) == pytest.approx(want, rel=1e-14)
        near = reference_sample(sub, StubGenerator(1e-300, w))
        assert near == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("w", [1e-20, 1e-40])
    def test_theta_zero_where_the_power_overflows(self, w):
        # S is formed in logs with the limits alpha and 1 - alpha of the
        # brackets, not 0/0 = nan: e^701 at W = 1e-20, past float range
        # (inf) at W = 1e-40
        sub = StableSubordinator(0.0608419275305894, 0.7)
        a = sub.alpha
        log_want = (math.log(sub.scale) + math.log(a)
                    + ((1 - a) / a) * (math.log(1 - a) - math.log(w)))
        got = sample(sub, StubGenerator(0.0, w))
        if log_want > math.log(np.finfo(float).max):
            assert got == math.inf
        else:
            assert math.log(got) == pytest.approx(log_want, rel=4 * np.finfo(float).eps)


class TestIntegrateAgainst:
    def test_degenerate_is_point_evaluation(self):
        sub = StableSubordinator(1.0, 2.0)
        assert integrate_against(lambda s: s * s, sub, SPEC) == 4.0

    def test_scaling_property(self):
        # S_t ~ t^(1/alpha) S_1
        sub_t = StableSubordinator(0.5, 2.0)
        sub_1 = StableSubordinator(0.5, 1.0)
        a = integrate_against(lambda s: math.exp(-0.3 * s), sub_t, SPEC)
        b = integrate_against(lambda s: math.exp(-0.3 * 4.0 * s), sub_1, SPEC)
        assert math.isclose(a, b, rel_tol=1e-9)


class TestLawRule:
    """The fixed rule of ``integrate_against`` against closed forms over the
    parameter domain, not only on pinned grids."""

    @given(st.floats(min_value=0.25, max_value=0.97),
           st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
           st.floats(min_value=math.log(0.01), max_value=math.log(10.0)))
    @settings(max_examples=150, deadline=None)
    def test_laplace_transform(self, alpha, log_t, log_x):
        t, x = math.exp(log_t), math.exp(log_x)
        want = math.exp(-t * x ** alpha)
        assume(want > 1e-200)
        got = integrate_against(lambda s: math.exp(-x * s),
                                StableSubordinator(alpha, t), SPEC)
        assert math.isclose(got, want, rel_tol=1e-10)

    @given(st.floats(min_value=0.25, max_value=0.97),
           st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
           st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=150, deadline=None)
    def test_fractional_moments(self, alpha, log_t, r):
        sub = StableSubordinator(alpha, math.exp(log_t))
        assume(log_fractional_moment(sub, r) > math.log(1e-200))
        got = integrate_against(lambda s: s ** -r, sub, SPEC)
        assert math.isclose(got, fractional_moment(sub, r), rel_tol=1e-10)

    @given(st.floats(min_value=math.log(0.1), max_value=math.log(10.0)))
    @settings(max_examples=50, deadline=None)
    def test_exp_moment_at_nine_tenths_of_the_radius(self, log_t):
        # the left cut keeps exp(delta/s) finite at every node
        t = math.exp(log_t)
        delta = 0.9 * t * t / 4.0
        got = integrate_against(lambda s: math.exp(delta / s),
                                StableSubordinator(0.5, t), SPEC)
        want = t / (2.0 * math.sqrt(t * t / 4.0 - delta))
        assert math.isclose(got, want, rel_tol=1e-10)

    def test_scalar_only_integrand(self):
        def h(s):
            assert type(s) is float
            return math.exp(-s)
        got = integrate_against(h, StableSubordinator(0.7, 1.0), SPEC)
        assert math.isclose(got, math.exp(-1.0), rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                       0.8, 0.9, 0.95, 0.97])
    def test_certificate(self, alpha):
        rule = _law_rule(alpha)
        assert rule.certified_error <= 1e-12
        assert np.all(rule.w > 0.0) and np.all(np.isfinite(rule.v))
        # the logs a kernel sums in are the logs of the nodes and weights
        assert np.array_equal(rule.log_v, np.log(rule.v))
        assert np.array_equal(rule.log_w, np.log(rule.w))

    @pytest.mark.parametrize("alpha", [0.03, 0.3, 0.5, 0.7, 0.9, 0.97, 0.999])
    def test_certificate_is_the_loop_of_eight_sums(self, alpha):
        # one matrix-vector product in place of one dot product per check:
        # each sum of positive terms is summed in another order, so it may
        # move by a few ulp, and the relative error with it
        rule = _law_rule(alpha)
        got = _certify(alpha, rule.v, rule.w, rule.log_v)
        want = reference_certify(alpha, rule.v, rule.w, rule.log_v)
        assert abs(got - want) <= 16 * np.finfo(float).eps
        assert _certify(alpha, rule.v, 0.0 * rule.w, rule.log_v) == math.inf
        assert reference_certify(alpha, rule.v, 0.0 * rule.w, rule.log_v) == math.inf

    def test_point_mass_is_one_node(self):
        # alpha = 1: the point mass at 1 on the standard law, exactly
        rule = _law_rule(1.0)
        assert rule.v.tolist() == [1.0] and rule.w.tolist() == [1.0]
        assert rule.log_v.tolist() == [0.0] and rule.log_w.tolist() == [0.0]
        assert rule.certified_error == 0.0

    def test_half_certifies_to_rounding(self):
        # alpha = 1/2 weights come from the general density path
        assert _law_rule(0.5).certified_error <= 1e-14

    @pytest.mark.parametrize("alpha, count", [
        (0.9999999999999999, "1.82e+17"),  # the theta rule, ~5/(1 - alpha)
        (5e-324, "inf"),  # the bulk, ~6.6/alpha
    ])
    def test_refuses_alpha_past_the_panel_bound_before_it_allocates(
            self, alpha, count):
        # numpy was asked for 1.26 EiB at the first, and math.ceil(inf)
        # raised OverflowError at the second
        message = re.escape(f"alpha = {alpha!r} needs {count} panels")
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=message):
                _law_rule(alpha)
        finally:
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert seconds < 1.0 and peak < 1 << 20
        if alpha > 0.5:  # the density builds the same theta rule
            with pytest.raises(ValueError, match=message):
                density(StableSubordinator(alpha, 1.0), 1.0)

    def test_uncertified_rule_raises_naming_alpha(self):
        # at alpha = 0.01 the law reaches past the float range; its panels
        # are within the bound, so the certificate is what refuses it
        with pytest.raises(ValueError, match="alpha = 0.01 certifies only"):
            integrate_against(lambda s: 1.0, StableSubordinator(0.01, 1.0), SPEC)

    @pytest.mark.parametrize("alpha", np.linspace(0.3, 0.97, 12))
    def test_tail_series_coefficients_are_computed_once(self, alpha):
        # the same terms, and so the same bits, as doubling the coefficient
        # array from scratch until the last term is negligible
        top = _TAIL_SWITCH ** -alpha
        for w in (np.linspace(0.0, top, 33), np.array([top]), np.array([1e-3])):
            assert np.array_equal(_tail_density_dw(alpha, w),
                                  reference_tail_density_dw(alpha, w))

    @pytest.mark.parametrize("alpha", np.linspace(0.05, 0.99, 48).tolist())
    def test_tail_series_horner_in_place_is_polyval(self, alpha):
        # the in-place Horner pass and the log k! table give polyval's sum
        # of gammaln's coefficients byte for byte, on a grid of [0, 5^-alpha]
        # as long as the law rule's 176 tail nodes and at points drawn over it
        top = _TAIL_SWITCH ** -alpha
        drawn = np.random.default_rng(11).uniform(0.0, top, 257)
        for w in (np.linspace(0.0, top, 176), drawn, np.array([top]),
                  np.array([0.0])):
            got = _tail_density_dw(alpha, w)
            assert got.tobytes() == reference_tail_density_dw(alpha, w).tobytes()

    def test_extra_breaks_is_gone(self):
        with pytest.raises(TypeError):
            integrate_against(lambda s: 1.0, StableSubordinator(0.7, 1.0), SPEC,
                              extra_breaks=(0.25,))


def reference_tail_density_dw(alpha, w):
    """The tail series as first written: the coefficient array doubled from
    scratch until the last term is negligible at the largest w, log k! by
    ``log_gamma``, and the power series summed by ``polyval``."""
    log_w = math.log(max(float(np.max(w)), 1e-300))
    n = 16
    while True:
        k = np.arange(1, n + 1)
        log_coef = log_gamma(alpha * k + 1.0) - log_gamma(k + 1.0)
        at_max = log_coef + (k - 1) * log_w
        if at_max[-1] < at_max.max() + math.log(1e-18):
            break
        n *= 2
    coef = np.exp(log_coef) * np.sin(math.pi * alpha * k)
    coef[1::2] = -coef[1::2]
    return np.polynomial.polynomial.polyval(w, coef) / (math.pi * alpha)


def test_mcspec_fields():
    mc = MCSpec(n_samples=1000, seed=42)
    assert mc.n_samples == 1000 and mc.seed == 42
