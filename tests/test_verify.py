import csv
import importlib
import importlib.resources as resources
import io
import itertools
import json
import math
import pkgutil
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import MEMOS
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtri

import subharnack
from subharnack import semigroup, subordinator, verify
from subharnack.bounds import (
    STATUSES,
    BoundReport,
    _json_float,
    base_harnack_exponent,
    log_harnack_term,
)
from subharnack.cli import _report_to_csv
from subharnack.semigroup import (
    _log_subordinated_apply_memo,
    _subordinated_apply_memo,
    Constant,
    ExpAffine,
    GaussBump,
    Indicator,
    ShiftedForLog,
    apply,
    cauchy_closed_form,
    gauss_heat,
    ondiag,
    ou1d,
    subordinated_density,
)
from subharnack.subordinator import (
    _law_nodes,
    _law_rule,
    _law_sum,
    MCSpec,
    QuadratureSpec,
    StableSubordinator,
    log_fractional_moment,
    sample,
)
from subharnack.verify import (
    KNOWN_CHECKS,
    SweepConfig,
    SweepReport,
    check_base_harnack,
    check_entropy_cost,
    check_entropy_kernel,
    check_laplace_mc,
    check_log_harnack,
    check_ondiag_rate,
    check_prop13,
    check_subordinated_harnack,
    log_profile,
    passes,
    power_profile,
    run_sweep,
)

SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
BUMP = GaussBump(0.0, 1.0)


class TestProfiles:
    def test_heat_power_profile_domain(self):
        _, ok = power_profile(gauss_heat(1), 1.2, 1.0)
        assert not ok
        profile, ok = power_profile(gauss_heat(1), 2.0, 1.0)
        assert ok and profile.epsilon == 0.0 and profile.H_value == 1.0

    def test_ou_power_profile(self):
        # OU (K = +1) takes the heat kernel's profile
        _, ok = power_profile(ou1d(), 1.2, 1.0)
        assert not ok
        profile, ok = power_profile(ou1d(), 2.0, 1.0)
        assert ok and profile.epsilon == 0.0 and profile.H_value == 1.0

    def test_log_profiles(self):
        for base in (gauss_heat(1), ou1d()):
            profile = log_profile(base, 1.0)
            assert profile.epsilon == 0.0 and profile.H_value == 0.25

    def test_ou_sharp_rate_under_the_profile(self):
        # at K = +1 the exponent is the sharp Gaussian-shift one,
        # p rho^2 e^(-2t) / (2(p-1)(1 - e^(-2t))), and 1/(e^(2t) - 1) <= 1/(2t)
        # puts it under the heat kernel's exponent and H / t with H = rho^2
        for p, t in itertools.product((4.0 / 3.0, 1.5, 2.0, 4.0),
                                      (0.01, 0.1, 0.5, 1.0, 5.0, 50.0)):
            expo = base_harnack_exponent(p, ou1d().curvature_K, t, 1.0)
            sharp = p * math.exp(-2.0 * t) / (2.0 * (p - 1.0) * -math.expm1(-2.0 * t))
            assert math.isclose(expo, sharp, rel_tol=1e-14)
            # at p = 4/3 the heat exponent is 1/t up to rounding
            assert expo <= base_harnack_exponent(p, 0.0, t, 1.0) <= (1 + 1e-15) / t

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("x, y", [(0.0, 1.0), (0.3, -0.7)])
    def test_ou_extremal_exp_affine_is_tight(self, p, t, x, y):
        # f^(p-1) proportional to q_x/q_y is Hoelder's equality case: the
        # OU base inequality holds with equality at the sharp exponent
        lam = math.exp(-t) * (x - y) / ((p - 1.0) * -math.expm1(-2.0 * t))
        rep = check_base_harnack(ou1d(), p, t, [x], [y], ExpAffine(lam), SPEC)
        assert rep.status == "holds"
        assert abs(rep.log_rhs - rep.log_lhs) <= 1e-9


class TestPasses:
    def test_within_tolerance_band(self):
        rep = BoundReport(lhs=1.0 + 5e-9, rhs=1.0, method="m", status="holds")
        assert passes(rep, 1e-9)
        assert not passes(rep, 1e-11)

    def test_out_of_domain_always_passes(self):
        rep = BoundReport(lhs=5.0, rhs=1.0, method="m", status="out_of_domain")
        assert passes(rep, 1e-12)


class TestChecks:
    def test_base_harnack_holds(self):
        for base in (gauss_heat(1), ou1d()):
            rep = check_base_harnack(base, 2.0, 1.0, [0.0], [1.0], BUMP, SPEC)
            assert rep.valid_domain and rep.lhs <= rep.rhs

    def test_base_harnack_exponent_past_float_range(self):
        # exp(720) alone overflows; P_t f^p(y) ~ 6.8e-134 brings the
        # product back to ~3.4e179
        f = Indicator(-1.0, 1.0)
        rep = check_base_harnack(gauss_heat(1), 2.0, 0.1, [0.0], [12.0], f, SPEC)
        expo = base_harnack_exponent(2.0, 0.0, 0.1, 144.0)
        rhs_p = apply(gauss_heat(1), f, 0.1, [12.0])
        assert expo == 720.0 and 0.0 < rhs_p < 1e-130
        assert rep.status == "holds"
        assert math.isclose(rep.log_rhs, expo + math.log(rhs_p), rel_tol=1e-15)
        assert math.isfinite(rep.rhs)
        assert math.isclose(rep.rhs, math.exp(rep.log_rhs), rel_tol=1e-15)

    def test_subordinated_modes_ordered(self):
        sub = StableSubordinator(0.75, 1.0)
        reports = {
            mode: check_subordinated_harnack(gauss_heat(1), sub, 2.0,
                                             [0.0], [1.0], BUMP, mode, SPEC)
            for mode in ("numeric", "intermediate", "simplified")
        }
        assert all(r.lhs <= r.rhs for r in reports.values())
        assert (reports["numeric"].rhs <= reports["intermediate"].rhs
                <= reports["simplified"].rhs)

    @pytest.mark.parametrize("mode", ["intermediate", "simplified"])
    def test_subordinated_closed_form_factor_past_float_range(self, mode):
        # log factor ~4.4e3 at alpha = 0.55: rhs is inf, its log is kept
        sub = StableSubordinator(0.55, 1.0)
        rep = check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0], [1.0],
                                         Indicator(-1.0, 1.0), mode, SPEC)
        assert rep.valid_domain and passes(rep, SPEC.rel_tol)
        assert rep.rhs == math.inf
        assert 709.0 < rep.log_rhs < math.inf
        assert math.isfinite(rep.lhs) and rep.lhs > 0

    def test_subordinated_log_rhs_is_log_of_rhs(self):
        sub = StableSubordinator(0.75, 1.0)
        for mode in ("intermediate", "simplified"):
            rep = check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0],
                                             [1.0], BUMP, mode, SPEC)
            assert math.isclose(rep.log_rhs, math.log(rep.rhs), rel_tol=1e-14)

    def test_subordinated_alpha_one_keeps_the_base_log_rhs(self):
        # exp(845) passes float range, so rhs is inf; its log is finite
        args = (2.0, [0.0], [13.0], BUMP)
        base = check_base_harnack(gauss_heat(1), args[0], 0.1, *args[1:], spec=SPEC)
        rep = check_subordinated_harnack(gauss_heat(1), StableSubordinator(1.0, 0.1),
                                         *args, spec=SPEC)
        assert rep.rhs == base.rhs == math.inf
        assert 709.0 < base.log_rhs < math.inf
        assert rep.log_rhs == base.log_rhs
        assert rep.status == base.status == "holds"

    def test_subordinated_numeric_log_rhs_past_float_range(self):
        # the exact transfer factor passes float range at alpha = 0.75,
        # t = 0.5, y = 10; its log is finite and below the closed forms'
        sub = StableSubordinator(0.75, 0.5)
        reports = {
            mode: check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0],
                                             [10.0], BUMP, mode, SPEC)
            for mode in ("numeric", "intermediate", "simplified")
        }
        numeric = reports["numeric"]
        assert numeric.method == "series" and numeric.status == "holds"
        assert numeric.rhs == math.inf
        assert (709.0 < numeric.log_rhs <= reports["intermediate"].log_rhs
                <= reports["simplified"].log_rhs < math.inf)

    def test_subordinated_unknown_mode(self):
        sub = StableSubordinator(0.75, 1.0)
        with pytest.raises(ValueError):
            check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0], [1.0],
                                       BUMP, "sharpest", SPEC)

    def test_subordinated_boundary_alpha_out_of_domain(self):
        sub = StableSubordinator(0.5, 1.0)
        rep = check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0], [1.0],
                                         BUMP, "simplified", SPEC)
        assert not rep.valid_domain and rep.status == "out_of_domain"

    def test_subordinated_small_p_out_of_domain(self):
        sub = StableSubordinator(0.75, 1.0)
        rep = check_subordinated_harnack(gauss_heat(1), sub, 1.2, [0.0], [1.0],
                                         BUMP, "numeric", SPEC)
        assert not rep.valid_domain

    def test_prop13_in_domain(self):
        rep = check_prop13(gauss_heat(1), 2.0, 3.0, [0.0], [1.0], BUMP, SPEC)
        assert rep.valid_domain and rep.lhs <= rep.rhs

    @pytest.mark.parametrize("f", [Indicator(-1.0, 1.0), BUMP])
    def test_subordinated_harnack_far_peak_moment_holds(self, f):
        # delta = H/(p - 1) = 1 at alpha = 0.55, t = 0.5: the moment's
        # series terms peak at n ~ 404,000, past the forward sum's max_terms
        rep = check_subordinated_harnack(gauss_heat(1), StableSubordinator(0.55, 0.5),
                                         2.0, [0.0], [1.0], f, "numeric",
                                         QuadratureSpec(rel_tol=1e-10))
        assert rep.status == "holds" and rep.method == "series"
        # the factor (E exp(1/S))^(p - 1) is e^73505.05; P f^p(y) < 1
        assert 73000.0 < rep.log_rhs < 73505.05

    def test_prop13_discrepancy_detail(self):
        # q = rho^2 (2/t)^2 = 1.78 lies in [1, e): sufficient condition
        # admits the point while the true series diverges
        rep = check_prop13(gauss_heat(1), 2.0, 1.2, [0.0], [0.8], BUMP, SPEC)
        assert not rep.valid_domain and rep.status == "non_converged"
        assert "discrepancy" in rep.detail and "diverges" in rep.detail

    def test_prop13_discrepancy_is_decided_from_the_ratio(self, monkeypatch):
        # q >= 1 is the moment series' own divergence test at alpha = 1/2,
        # so the check does not sum or classify the series again
        def no_series(*args, **kwargs):
            raise AssertionError("exp_moment called")

        monkeypatch.setattr(verify, "exp_moment", no_series)
        rep = check_prop13(gauss_heat(1), 2.0, 1.2, [0.0], [0.8], BUMP, SPEC)
        assert rep.status == "non_converged" and rep.method == "series"
        assert rep.detail == ("discrepancy: sufficient condition holds but exact "
                              "term ratio q=1.77778 >= 1; moment series diverges")

    def test_prop13_needs_heat_kernel(self):
        with pytest.raises(ValueError):
            check_prop13(ou1d(), 2.0, 1.0, [0.0], [1.0], BUMP, SPEC)

    def test_log_harnack_requires_shifted(self):
        sub = StableSubordinator(0.75, 1.0)
        with pytest.raises(ValueError):
            check_log_harnack(gauss_heat(1), sub, [0.0], [1.0], BUMP, SPEC)

    @pytest.mark.parametrize("d, x, y", [
        (2, [0.0, 0.0], [3.0, 4.0]),
        (3, [1.0, 2.0, -2.0], [2.0, 4.0, 0.0]),
    ])
    def test_log_harnack_of_a_constant_in_d_dimensions(self, d, x, y):
        # log(1 + 2) is a constant too, so P_t log f = log 3 at every point,
        # up to the law rule's mass
        sub = StableSubordinator(0.75, 1.0)
        rep = check_log_harnack(gauss_heat(d), sub, x, y,
                                ShiftedForLog(Constant(2.0)), SPEC)
        assert rep.status == "holds"
        assert math.isclose(rep.lhs, math.log(3.0), rel_tol=1e-14)

    def test_log_harnack_alpha_one_term(self):
        sub = StableSubordinator(1.0, 2.0)
        f = ShiftedForLog(BUMP, 1.0)
        rep = check_log_harnack(gauss_heat(1), sub, [0.0], [1.0], f, SPEC)
        assert rep.lhs <= rep.rhs
        # additive term is exactly H/t = (rho^2/4)/t
        assert f"{0.25 / 2.0:.6g}" in rep.detail

    def test_ondiag_rejects_narrow_grid(self):
        with pytest.raises(ValueError):
            check_ondiag_rate(1, 0.5, (0.5, 1.0, 2.0), SPEC)

    def test_ondiag_alpha_half(self):
        # judged on the value: at alpha = 1/2, d = 1 the closed form is the
        # Poisson kernel's diagonal 1/(pi t), and lhs is the worst relative
        # error against it, with the law rule's certificate as rhs
        ts = (0.1, 0.3, 1.0, 3.0, 10.0)
        rep = check_ondiag_rate(1, 0.5, ts, SPEC)
        want = max(abs(ondiag(gauss_heat(1), StableSubordinator(0.5, t), 0.0)
                       / cauchy_closed_form(1, t, [0.0], [0.0]) - 1.0) for t in ts)
        assert rep.status == "holds" and rep.rhs == subordinator._CERT_TOL
        assert rep.lhs <= 1e-14 and math.isclose(rep.lhs, want, abs_tol=1e-15)
        assert rep.params == {"check": "ondiag_rate", "alpha": 0.5, "d": 1,
                              "t": 0.1, "f": ""}

    # alpha in [0.26, 0.999] and 1, as in the other law-rule tests: past its
    # panel bound, in (0.99992, 1), the rule refuses alpha (the next test)
    @given(st.one_of(st.floats(0.26, 0.999), st.just(1.0)), st.sampled_from([1, 2, 3]),
           st.floats(-3.0, 1.0), st.floats(0.0, 1.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    @example(0.26587940821623757, 3, 0.25160299978059936, 0.25160299978059936, [0.0])
    @settings(max_examples=100, deadline=None)
    def test_ondiag_is_its_closed_form(self, alpha, d, lo, stretch, inner):
        # log10 t from lo to hi = lo + 2 + stretch (1 - lo) <= 3: two decades
        # or more, log-uniform in [1e-3, 1e3], with 1-3 times in between
        hi = lo + 2.0 + stretch * (1.0 - lo)
        ts = [10.0 ** (lo + u * (hi - lo)) for u in [0.0, 1.0, *inner]]
        rep = check_ondiag_rate(d, alpha, ts, SPEC)
        # lhs = |expm1(L)|, L = log value + r log 4 pi - log E S^(-r), r = d/2,
        # whose terms have size up to |log p_t(0, 0)| + r log 4 pi: rounding
        # log value (half an ulp), the moment's log (an ulp, as measured) and
        # the first sum (half an ulp) adds up to 2 eps |log p_t(0, 0)|, and
        # a term in r log 4 pi <= 3.8 that the 1e-14 floor covers; doubled
        # for headroom. The example's draw is 1.0658e-14 off at t = 275.4,
        # where log p_t(0, 0) is near -30
        r = 0.5 * d
        worst = max(abs(log_fractional_moment(StableSubordinator(alpha, t), r)
                        - r * math.log(4.0 * math.pi)) for t in ts)
        assert rep.status == "holds"
        assert rep.lhs <= 1e-14 + 4 * math.ulp(1.0) * worst

    def test_ondiag_refuses_alpha_past_the_panel_bound(self):
        with pytest.raises(ValueError, match=r"alpha = 0\.99999 needs .* panels"):
            check_ondiag_rate(1, 0.99999, [0.1, 1.0, 10.0], SPEC)

    def test_entropy_checks_require_ou(self):
        sub = StableSubordinator(0.5, 1.0)
        with pytest.raises(ValueError):
            check_entropy_kernel(gauss_heat(1), sub, [0.0], [1.0], SPEC)
        with pytest.raises(ValueError):
            check_entropy_cost(gauss_heat(1), sub, 0.3, SPEC)

    def test_laplace_mc_within_band(self):
        rep = check_laplace_mc(StableSubordinator(0.7, 1.0), 1.0,
                               MCSpec(100_000, 11))
        assert rep.lhs <= rep.rhs

    def test_laplace_mc_detail_is_pinned(self):
        # the stream of the harnack_grid benchmark's op 668 at seed 961
        # (alpha = 0.9, t = 0.5), 4.12 standard errors out: the sampler's
        # blocked ratio-form transform keeps its mean to all 12 digits
        rep = check_laplace_mc(StableSubordinator(0.9, 0.5), 1.0,
                               MCSpec(200_000, 1537716641))
        assert rep.detail == "mean=0.605043344854 exact=0.606530659713 se=0.000361"
        assert rep.status == "violated"

    @pytest.mark.parametrize("alpha,t,seed", [
        (0.5, 1.0, 3), (0.75, 0.5, 1537716641), (0.9, 2.0, 12), (0.3, 0.3, 961)])
    def test_laplace_mc_equals_two_pass_moments(self, alpha, t, seed):
        # the in-place moments are np.mean's and np.std(ddof=1)'s, bit for bit
        sub, n = StableSubordinator(alpha, t), 50_001
        vals = np.exp(-1.0 * sample(sub, np.random.default_rng(seed), size=n))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(n))
        exact = verify.laplace(sub, 1.0)
        rep = check_laplace_mc(sub, 1.0, MCSpec(n, seed))
        assert rep.lhs == abs(mean - exact) and rep.rhs == 4.0 * se
        assert rep.detail == f"mean={mean:.12g} exact={exact:.12g} se={se:.3g}"

    @pytest.mark.parametrize("n", [1_000, 200_000])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_laplace_mc_point_mass_is_exact(self, n, t, monkeypatch):
        # alpha = 1 is the point mass at t: every draw would be t, so the
        # estimate is exp(-x t) itself, with no stream drawn
        def no_draws(*args, **kwargs):
            raise AssertionError("alpha = 1 draws no stream")
        monkeypatch.setattr(verify, "sample", no_draws)
        sub = StableSubordinator(1.0, t)
        rep = check_laplace_mc(sub, 1.0, MCSpec(n, 5))
        assert rep.status == "holds" and rep.lhs == 0.0 and rep.rhs == 0.0
        exact = verify.laplace(sub, 1.0)
        assert rep.detail == f"mean={exact:.12g} exact={exact:.12g} se=0"

    def test_laplace_mc_needs_two_draws(self):
        with pytest.raises(ValueError, match="n_samples"):
            MCSpec(n_samples=1)
        with pytest.raises(ValueError, match=re.escape("config.mc") + ".*n_samples"):
            SweepConfig.from_dict(small_config(checks=["laplace_mc"],
                                               mc={"n_samples": 1}))

    def test_laplace_mc_one_draw_sized_array(self):
        # the check's traced peak is the returned samples plus block-sized
        # temporaries: whole-size temporaries took it to 3.0 x 8n bytes
        n = 1_000_000
        check_laplace_mc(StableSubordinator(0.75, 0.5), 1.0, MCSpec(1_000, 0))
        tracemalloc.start()
        try:
            check_laplace_mc(StableSubordinator(0.75, 0.5), 1.0, MCSpec(n, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n


def extremal_slope(base, p, t, x, y):
    """lambda of the f = exp(lambda z) that meets the base exponent with
    equality: f^(p-1) proportional to q_x / q_y (Hoelder's equality case)."""
    if base.kind == "gauss_heat":
        return (x - y) / (2.0 * (p - 1.0) * t)
    return math.exp(-t) * (x - y) / ((p - 1.0) * -math.expm1(-2.0 * t))


class TestNegativeControls:
    # each builds a false inequality by monkeypatching a side of a true one
    # and asserts that its check reports it violated

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_ondiag_off_by_a_thousandth_is_violated(self, alpha, d, monkeypatch):
        ts = (0.1, 0.3, 1.0, 3.0, 10.0)
        assert check_ondiag_rate(d, alpha, ts, SPEC).status == "holds"
        monkeypatch.setattr(verify, "ondiag", lambda *a: 1.001 * ondiag(*a))
        rep = check_ondiag_rate(d, alpha, ts, SPEC)
        assert rep.status == "violated"
        assert math.isclose(rep.lhs, 1e-3, rel_tol=1e-9)

    @pytest.mark.parametrize("kind", ["gauss_heat", "ou1d"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("x, y", [(0.0, 1.0), (0.3, -0.7)])
    def test_base_exponent_below_the_sharp_one_is_violated(self, kind, p, t, x, y,
                                                           monkeypatch):
        # at the extremal f both sides agree to rounding in their logs (one
        # ulp of log lhs, measured <= 4.8e-16 relative); the exponent scaled
        # by 1 - 1e-3 then puts rhs below lhs
        base = gauss_heat(1) if kind == "gauss_heat" else ou1d()
        f = ExpAffine(extremal_slope(base, p, t, x, y))

        def both():
            return (check_base_harnack(base, p, t, [x], [y], f, SPEC),
                    check_subordinated_harnack(base, StableSubordinator(1.0, t), p,
                                               [x], [y], f, "numeric", SPEC))

        for rep in both():
            assert rep.status == "holds"
            assert (abs(rep.log_rhs - rep.log_lhs)
                    <= 1e-15 * max(1.0, abs(rep.log_lhs)))
        exponent = verify.base_harnack_exponent
        monkeypatch.setattr(verify, "base_harnack_exponent",
                            lambda *a: (1.0 - 1e-3) * exponent(*a))
        for rep in both():
            assert rep.status == "violated"

    def test_base_harnack_far_from_the_indicator(self):
        # log rhs = 2000 + log P(N(+-20, 0.2) in [-1, 1]) ~ 1092.8 and log
        # lhs < 0, so the inequality holds: P_t f^p(y) ~ e^-907 is below
        # float range, and its log comes from the indicator's closed form
        # in logs
        def check(y):
            return check_base_harnack(gauss_heat(1), 2.0, 0.1, [0.0], [y],
                                      Indicator(-1.0, 1.0), SPEC)
        sigma = math.sqrt(0.2)
        hi, lo = log_ndtr(-19.0 / sigma), log_ndtr(-21.0 / sigma)
        want = 2000.0 + hi + math.log1p(-math.exp(lo - hi))
        for y in (20.0, -20.0):
            rep = check(y)
            assert rep.status == "holds"
            assert math.isclose(rep.log_rhs, want, rel_tol=1e-12)
        # left of the mean as right of it: a difference of two normal CDFs
        # loses every digit at y = -8 (rhs 0) that it keeps at y = +8
        left, right = check(-8.0), check(8.0)
        assert left.status == right.status == "holds"
        assert math.isclose(left.log_rhs, right.log_rhs, rel_tol=1e-12)


# every check that takes a point pair, as a function of the pair
PAIR_CHECKS = {
    "base_harnack": lambda x, y: check_base_harnack(gauss_heat(1), 2.0, 1.0, x, y,
                                                    BUMP, SPEC),
    "subordinated_harnack": lambda x, y: check_subordinated_harnack(
        gauss_heat(1), StableSubordinator(0.75, 1.0), 2.0, x, y, BUMP, "numeric",
        SPEC),
    "prop13": lambda x, y: check_prop13(gauss_heat(1), 2.0, 3.0, x, y, BUMP, SPEC),
    "log_harnack": lambda x, y: check_log_harnack(
        gauss_heat(1), StableSubordinator(0.75, 1.0), x, y, ShiftedForLog(BUMP),
        SPEC),
    "entropy_kernel": lambda x, y: check_entropy_kernel(
        ou1d(), StableSubordinator(0.9, 1.0), x, y, SPEC),
}

# one point of d = 1 in each form a caller may give it
POINT_FORMS = {
    "float": float,
    "int": int,
    "list": lambda v: [v],
    "tuple": lambda v: (v,),
    "array": lambda v: np.array([v]),
    "0-d array": np.array,
}


class TestPointPairs:
    """Each pair check checks its two points once, before anything else."""

    @pytest.mark.parametrize("name", PAIR_CHECKS)
    @pytest.mark.parametrize("bad", [[[0.0]], [0.0, 1.0]], ids=["2-d", "d=2"])
    def test_wrong_point_shape_raises_value_error(self, name, bad):
        check = PAIR_CHECKS[name]
        with pytest.raises(ValueError, match="dimension"):
            check(bad, [1.0])
        with pytest.raises(ValueError, match="dimension"):
            check([0.0], bad)

    def test_entropy_kernel_refuses_a_two_dimensional_pair(self):
        # it once read only the first coordinate of each point, and
        # reported this pair as holding at x = 0, y = 0.5
        with pytest.raises(ValueError, match="dimension"):
            check_entropy_kernel(ou1d(), StableSubordinator(0.9, 1.0),
                                 [0.0, 7.0], [0.5, 3.0], SPEC)

    @pytest.mark.parametrize("p", [2.0, 1.2], ids=["in-domain", "out-of-domain"])
    @pytest.mark.parametrize("alpha", [0.75, 1.0])
    def test_plain_callable_raises_type_error(self, p, alpha):
        # p < 4/3 is out of the heat kernel's domain, where no side is
        # evaluated; alpha = 1 hands the entry to base_harnack
        def plain(y):
            return np.ones_like(y)

        for check in (
            lambda f: check_base_harnack(gauss_heat(1), p, 1.0, [0.0], [1.0], f, SPEC),
            lambda f: check_subordinated_harnack(
                gauss_heat(1), StableSubordinator(alpha, 1.0), p, [0.0], [1.0], f,
                "numeric", SPEC),
            lambda f: check_prop13(gauss_heat(1), p, 3.0, [0.0], [1.0], f, SPEC),
        ):
            with pytest.raises(TypeError, match="TestFunction"):
                check(plain)

    @pytest.mark.parametrize("name", PAIR_CHECKS)
    def test_every_point_form_gives_the_list_form_report(self, name, clear_memos):
        check = PAIR_CHECKS[name]
        clear_memos()
        want = check([0.0], [1.0]).to_dict()
        assert want["params"]["x"] == 0.0 and want["params"]["y"] == 1.0
        # the memos now hold every value: each form reads them back
        assert check([0.0], [1.0]).to_dict() == want
        for form, make in POINT_FORMS.items():
            assert check(make(0), make(1)).to_dict() == want, form
            assert check(make(0.0), make(1.0)).to_dict() == want, form

    @pytest.mark.parametrize("name", ["base_harnack", "subordinated_harnack",
                                      "prop13", "log_harnack"])
    @pytest.mark.parametrize("d, x, y", [
        (2, [0.0, 0.0], [3.0, 4.0]),
        (3, [1.0, 2.0, -2.0], [2.0, 4.0, 0.0]),
    ])
    def test_constant_entry_in_d_dimensions(self, name, d, x, y):
        # a constant's P_t f is the constant at every point, so the entry
        # depends on the pair through |x - y|^2 alone (25 and 9, exactly)
        # and reports the whole points: the d = 1 entry at the same
        # distance, but for the points it reports
        f = Constant(2.0)
        check = {
            "base_harnack": lambda b, x, y: check_base_harnack(b, 2.0, 1.0, x, y, f,
                                                               SPEC),
            "subordinated_harnack": lambda b, x, y: check_subordinated_harnack(
                b, StableSubordinator(0.75, 1.0), 2.0, x, y, f, "intermediate",
                SPEC),
            "prop13": lambda b, x, y: check_prop13(b, 4.0, 30.0, x, y, f, SPEC),
            "log_harnack": lambda b, x, y: check_log_harnack(
                b, StableSubordinator(0.75, 1.0), x, y, ShiftedForLog(f), SPEC),
        }[name]
        rho = math.sqrt(float(np.sum((np.array(y) - np.array(x)) ** 2)))
        got = check(gauss_heat(d), x, y).to_dict()
        want = check(gauss_heat(1), [x[0]], [x[0] + rho]).to_dict()
        assert (got["params"]["x"], got["params"]["y"]) == (tuple(x), tuple(y))
        got["params"].update(x=want["params"]["x"], y=want["params"]["y"])
        assert got == want
        assert got["status"] in ("holds", "non_converged")


# the shipped test function families, over ranges where both sides are finite
TEST_FUNCTIONS = st.one_of(
    st.floats(0.1, 5.0).map(Constant),
    st.builds(GaussBump, st.floats(-2.0, 2.0), st.floats(0.2, 3.0)),
    st.builds(lambda lo, width: Indicator(lo, lo + width),
              st.floats(-2.0, 1.0), st.floats(0.1, 3.0)),
    st.builds(ExpAffine, st.floats(-2.0, 2.0),
              st.one_of(st.none(), st.floats(-1.0, 2.0))),
)


class TestAlphaOne:
    @given(st.sampled_from(["gauss_heat", "ou1d"]), st.floats(0.05, 5.0),
           st.floats(1.05, 6.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.booleans(), TEST_FUNCTIONS)
    @settings(max_examples=60, deadline=None)
    def test_is_the_base_inequality_bit_for_bit(self, kind, t, p, x, y,
                                                as_lists, f):
        # at alpha = 1 there is no subordination: every mode reports the
        # base inequality's sides, status and method, with its own detail
        # and params
        base = gauss_heat(1) if kind == "gauss_heat" else ou1d()
        pair = ([x], [y]) if as_lists else (x, y)
        want = check_base_harnack(base, p, t, *pair, f, SPEC)
        for mode in ("numeric", "intermediate", "simplified"):
            got = check_subordinated_harnack(base, StableSubordinator(1.0, t), p,
                                             *pair, f, mode, SPEC)
            assert ([v.hex() for v in (got.lhs, got.rhs, got.log_lhs, got.log_rhs)]
                    == [v.hex() for v in (want.lhs, want.rhs, want.log_lhs,
                                          want.log_rhs)])
            assert (got.status, got.method) == (want.status, want.method)
            assert got.detail == "alpha=1 reduces to base inequality"
            assert got.params == {"check": "subordinated_harnack", "alpha": 1.0,
                                  "p": p, "t": t, "x": x, "y": y,
                                  "f": f.describe(), "mode": mode}

    def test_later_modes_read_both_sides_back(self, clear_memos):
        # the first mode evaluates P_t f(x) and log P_t f^p(y) once each; the
        # other two read both back from their memos
        clear_memos()
        sub = StableSubordinator(1.0, 0.5)
        for mode in ("numeric", "intermediate", "simplified"):
            check_subordinated_harnack(gauss_heat(1), sub, 2.0, 0.0, 1.0, BUMP, mode, SPEC)
        for memo in (_subordinated_apply_memo, _log_subordinated_apply_memo):
            info = memo.cache_info()
            assert (info.misses, info.hits) == (1, 2), memo.__name__


def coupling_cost(m):
    """int_0^1 H(Q_m(u), Q_0(u)) du for H(a, b) = (a - b)^2/4, with Q_m the
    quantile function of N(m, 1): the quantile-coupling transport cost,
    by adaptive quadrature over ndtri."""
    val, _ = quad(lambda u: 0.25 * ((m + ndtri(u)) - ndtri(u)) ** 2, 0.0, 1.0,
                  epsabs=0.0, epsrel=1e-13)
    return val


class TestWasserstein:
    """The entropy-cost check takes the transport cost of the log profile's
    H(a, b) = (a - b)^2/4 in closed form, m^2/4: the quantile coupling of
    N(m, 1) and N(0, 1) moves every quantile by m."""

    def test_shifted_gaussian_quadratic_cost(self):
        alpha, t = 0.75, 1.0
        profile = log_profile(ou1d(), 0.0)
        for m in (0.1, 0.25, 0.4, 0.5, 1.0):
            cost = coupling_cost(m)
            assert math.isclose(cost, 0.25 * m * m, rel_tol=1e-12)
            rep = check_entropy_cost(ou1d(), StableSubordinator(alpha, t), m, SPEC)
            want = log_harnack_term(alpha, profile.kappa, profile.epsilon, cost, t)
            assert math.isclose(rep.rhs, want, rel_tol=1e-12)

    def test_identical_marginals_zero(self):
        assert coupling_cost(0.0) == 0.0
        rep = check_entropy_cost(ou1d(), StableSubordinator(0.75, 1.0), 0.0, SPEC)
        # the law rule's weights sum to one within rounding, so P_t 1 = 1
        # and the entropy is zero to rounding
        assert abs(rep.lhs) < 1e-14
        assert rep.rhs == 0.0 and rep.status == "holds"


def quad_entropy_kernel(sub, x, y):
    """The entropy-kernel check's lhs, int q_x log(q_x / q_y) dz, by
    adaptive quadrature over the check's window, broken at x and y."""
    base = ou1d()

    def integrand(z):
        qx = max(subordinated_density(base, sub, [x], [z], SPEC), 1e-300)
        qy = max(subordinated_density(base, sub, [y], [z], SPEC), 1e-300)
        return qx * math.log(qx / qy)

    # epsabs below the test's absolute floor: near y = x the entropy is
    # small, and quad cannot resolve it past rounding
    val, _ = quad(integrand, min(x, y, 0.0) - 14.0, max(x, y, 0.0) + 14.0,
                  points=sorted({x, y}), epsabs=1e-15, epsrel=1e-11, limit=400)
    return val


def quad_entropy_cost(sub, m):
    """The entropy-cost check's lhs, int phi P_t g log P_t g dz with
    g(z) = exp(m z - m^2/2), by adaptive quadrature over +-(14 + |m|)."""
    def integrand(z):
        s = _law_nodes(sub)
        g = _law_sum(sub, np.exp(m * np.exp(-s) * z - 0.5 * m * m * np.exp(-2.0 * s)))
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * g * math.log(g)

    val, _ = quad(integrand, -14.0 - m, 14.0 + m, epsabs=0.0, epsrel=1e-11,
                  limit=400)
    return val


class TestEntropyZRule:
    """Both entropy checks sum their z integral with one fixed rule."""

    # alpha on a 1e-3 grid of [0.5, 1], 1 included: the law rule's build
    # time grows like 1/(1 - alpha), to seconds within 1e-4 of 1
    ALPHAS = st.integers(500, 1000).map(lambda k: k / 1000)

    @given(ALPHAS, st.floats(0.5, 2.0), st.floats(-1.0, 2.0),
           st.floats(-1.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_kernel_matches_adaptive_quad(self, alpha, t, x, y):
        sub = StableSubordinator(alpha, t)
        rep = check_entropy_kernel(ou1d(), sub, [x], [y], SPEC)
        # the absolute floor is the rounding of log(q_x / q_y), about 1e-16
        # per unit of mass, which is all that is left as y -> x
        assert math.isclose(rep.lhs, quad_entropy_kernel(sub, x, y),
                            rel_tol=1e-10, abs_tol=1e-14)

    @given(ALPHAS, st.floats(0.5, 2.0), st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_cost_matches_adaptive_quad(self, alpha, t, m):
        sub = StableSubordinator(alpha, t)
        rep = check_entropy_cost(ou1d(), sub, m, SPEC)
        assert math.isclose(rep.lhs, quad_entropy_cost(sub, m), rel_tol=1e-10)

    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_no_adaptive_quadrature(self, alpha, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("adaptive quad called")

        monkeypatch.setattr(verify, "quad", no_quad)
        sub = StableSubordinator(alpha, 1.0)
        assert check_entropy_kernel(ou1d(), sub, [0.0], [0.5], SPEC).status == "holds"
        assert check_entropy_cost(ou1d(), sub, 0.5, SPEC).status == "holds"

    # both windows have 29 unit z panels: [-14, 15] and [-14.5, 14.5]
    ENTROPY_CHECKS = pytest.mark.parametrize("check", [
        lambda sub: check_entropy_kernel(ou1d(), sub, [0.0], [1.0], SPEC),
        lambda sub: check_entropy_cost(ou1d(), sub, 0.5, SPEC),
    ], ids=["kernel", "cost"])

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0])
    @ENTROPY_CHECKS
    def test_blocked_z_matches_one_block(self, check, alpha, monkeypatch):
        # two z panels of 16 nodes a block and 29 panels, so the z count is
        # no multiple of the block; the report is the one a single block
        # gives, bit for bit
        widths = []

        def recording(sub, values):
            out = _law_sum(sub, values)
            widths.append(out.size)
            return out

        monkeypatch.setattr(verify, "_law_sum", recording)
        sub = StableSubordinator(alpha, 1.0)
        monkeypatch.setattr(subordinator, "_SAMPLE_BLOCK", 1 << 40)
        whole = check(sub)
        one_block = list(widths)
        nodes = 1 if sub.degenerate else _law_rule(alpha).v.size
        monkeypatch.setattr(subordinator, "_SAMPLE_BLOCK", 2 * 16 * nodes)
        widths.clear()
        blocked = check(sub)
        assert max(widths) == 32 and widths[-1] == 16
        assert sum(widths) == sum(one_block)
        assert len(widths) > len(one_block)
        assert repr(blocked) == repr(whole)

    @ENTROPY_CHECKS
    def test_z_integrals_stay_block_sized(self, check):
        # 352 law nodes x 464 z nodes: the whole array took the kernel
        # check's peak to 3.8 MiB of numpy buffers, and the cost check's
        # to 2.6 MiB
        sub = StableSubordinator(0.75, 1.0)
        check(sub)
        tracemalloc.start()
        try:
            check(sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_adaptive_machinery_is_gone(self):
        for name in ("wasserstein_cost_1d", "ndtri", "IntegrationWarning",
                     "warnings"):
            assert not hasattr(verify, name)
        assert not hasattr(subharnack, "wasserstein_cost_1d")


def small_config(**overrides):
    d = {
        "base": {"kind": "gauss_heat", "d": 1},
        "alphas": [0.75],
        "ts": [1.0],
        "ps": [2.0],
        "point_pairs": [[0.0, 1.0]],
        "functions": [{"kind": "gauss_bump"}],
        "quadrature": {"rel_tol": 1e-8, "abs_tol": 1e-11},
        "checks": ["base_harnack", "subordinated_harnack"],
        "seed": 0,
    }
    d.update(overrides)
    return d


@pytest.mark.parametrize("change, path", [
    ({"mc": {"seed": 3}}, "config.mc"),
    ({"mc": {"n_samples": 10, "sed": 3}}, "config.mc"),
    ({"base": {"d": 1}}, "config.base"),
    ({"base": {"kind": "ou1d", "dim": 1}}, "config.base"),
    ({"quadrature": {"rtol": 1e-8}}, "config.quadrature"),
    ({"functions": [{"kind": "indicator", "high": 1.0}]}, "config.functions[0]"),
    ({"functions": [{"kind": "constant", "c": "one"}]}, "config.functions[0]"),
])
def test_malformed_config_block_names_its_path(change, path):
    with pytest.raises(ValueError, match=re.escape(path)):
        SweepConfig.from_dict(small_config(**change))


def test_point_pairs_must_match_the_base_dimension():
    # one-coordinate pairs under a d = 2 base: a config error, not a
    # failure of the first pair check inside run_sweep
    d2 = {"kind": "gauss_heat", "d": 2}
    with pytest.raises(ValueError, match=re.escape("config.point_pairs[0]")):
        SweepConfig.from_dict(small_config(base=d2))
    with pytest.raises(ValueError, match=re.escape("config.point_pairs[1]")):
        SweepConfig.from_dict(small_config(point_pairs=[[0.0, 1.0], [0.0, [1.0, 2.0]]]))
    cfg = SweepConfig.from_dict(small_config(
        base=d2, point_pairs=[[[0, 0], [3, 4]]], functions=[{"kind": "constant"}],
        checks=["base_harnack", "log_harnack"]))
    assert cfg.point_pairs == [((0.0, 0.0), (3.0, 4.0))]
    assert run_sweep(cfg).summary["holds"] == 2
    # the entropy checks run the 1-d OU kernel on the pairs
    with pytest.raises(ValueError, match="entropy_cost"):
        SweepConfig.from_dict(small_config(
            base=d2, point_pairs=[[[0, 0], [3, 4]]], checks=["entropy_cost"]))
    # a d = 1 point may be a number or a one-element list
    cfg = SweepConfig.from_dict(small_config(point_pairs=[[[0.0], 1]]))
    assert cfg.point_pairs == [(0.0, 1.0)]


def test_params_record_every_coordinate_of_a_point():
    # two d = 2 pairs that share their first coordinates: params and the
    # CSV key columns record whole points, so their entries differ
    cfg = SweepConfig.from_dict(small_config(
        base={"kind": "gauss_heat", "d": 2},
        point_pairs=[[[0, 0], [3, 4]], [[0, 0], [3, 5]]],
        functions=[{"kind": "constant"}], checks=["base_harnack"]))
    report = run_sweep(cfg)
    first, second = (e.params for e in report.entries)
    assert (first["x"], first["y"]) == ((0.0, 0.0), (3.0, 4.0))
    assert (second["x"], second["y"]) == ((0.0, 0.0), (3.0, 5.0))
    assert json.loads(json.dumps(first))["y"] == [3.0, 4.0]
    header, *rows = csv.reader(io.StringIO(_report_to_csv(report)))
    keys = [tuple(row[:header.index("lhs")]) for row in rows]
    assert len(keys) == 2 and keys[0] != keys[1]


def test_config_fields_left_out_take_their_defaults():
    d = small_config(mc={"n_samples": 10})
    for name in ("base", "quadrature", "checks", "seed"):
        del d[name]
    cfg = SweepConfig.from_dict(d)
    assert cfg.base == gauss_heat(1) and cfg.mc == MCSpec(10, 0)
    assert cfg == SweepConfig(cfg.base, cfg.alphas, cfg.ts, cfg.ps,
                              cfg.point_pairs, cfg.functions, mc=cfg.mc)


def _without_checks(**overrides):
    """small_config with the default checks, all but laplace_mc."""
    d = small_config(**overrides)
    del d["checks"]
    return d


@pytest.mark.parametrize("d, path", [
    # prop13 and ondiag_rate are set up on the heat kernel; ondiag_rate
    # fitted gauss_heat(d) whatever the base
    (_without_checks(base={"kind": "ou1d"}), "checks: ['ondiag_rate', 'prop13']"),
    (small_config(base={"kind": "ou1d"}, checks=["ondiag_rate"]),
     "checks: ['ondiag_rate']"),
    (small_config(ts=[-1.0]), "config.ts"),
    (small_config(ts=[1.0, 0.0]), "config.ts"),
    (small_config(ts=[1.0, math.inf]), "config.ts"),
    (small_config(ts=[math.nan]), "config.ts"),
    # p = nan gave a base_harnack entry 'violated' with lhs nan
    (small_config(ps=[math.nan]), "config.ps"),
    (_without_checks(rate_ts=[1, 2, 3]), "config.rate_ts"),
    (_without_checks(rate_ts=[0.1, 10.0]), "config.rate_ts"),
    (_without_checks(rate_ts=[-1.0, 1.0, 100.0]), "config.rate_ts"),
    (_without_checks(rate_ts=[0.1, 1.0, math.inf]), "config.rate_ts"),
])
def test_config_a_check_would_abort_on_is_refused(d, path, monkeypatch):
    # refused by validate, naming the field, before any entry runs: by
    # from_dict, and by run_sweep for a config that skipped it
    with pytest.raises(ValueError, match=re.escape(path)):
        SweepConfig.from_dict(d)
    with monkeypatch.context() as mp:
        mp.setattr(SweepConfig, "validate", lambda self: None)
        cfg = SweepConfig.from_dict(d)
    ran = []
    monkeypatch.setattr(verify, "check_base_harnack", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=re.escape(path)):
        run_sweep(cfg)
    assert ran == []


def test_uncertifiable_alpha_is_refused_before_any_entry(monkeypatch):
    # validate builds no law rule (the benchmark's setup phase would pay for
    # it), so run_sweep builds each alpha's before the first entry
    cfg = SweepConfig.from_dict(small_config(
        alphas=[0.5, 0.01], checks=["base_harnack", "log_harnack"]))
    ran = []
    monkeypatch.setattr(verify, "check_base_harnack", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=r"^config\.alphas: .*alpha = 0\.01"):
        run_sweep(cfg)
    assert ran == []


def test_rate_grid_is_one_rule():
    # check_ondiag_rate refuses the grids that validate refuses
    with pytest.raises(ValueError, match="two decades"):
        check_ondiag_rate(1, 0.75, [1, 2, 3], SPEC)
    with pytest.raises(ValueError, match="positive finite"):
        check_ondiag_rate(1, 0.75, [-1.0, 1.0, 100.0], SPEC)
    # rate_ts is read by ondiag_rate alone
    assert SweepConfig.from_dict(small_config(rate_ts=[1, 2, 3])).rate_ts == (1, 2, 3)


class TestSweepConfig:
    def test_round_trip(self):
        cfg = SweepConfig.from_dict(small_config())
        assert cfg.base.kind == "gauss_heat"
        assert cfg.checks == ("base_harnack", "subordinated_harnack")

    def test_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            SweepConfig.from_dict(small_config(tolerence=1e-8))

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown"):
            SweepConfig.from_dict(small_config(checks=["harnak"]))

    def test_unknown_function_kind(self):
        with pytest.raises(ValueError, match="unknown test function"):
            SweepConfig.from_dict(
                small_config(functions=[{"kind": "wavelet"}]))

    def test_unknown_function_param(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            SweepConfig.from_dict(
                small_config(functions=[{"kind": "gauss_bump", "sigma": 2.0}]))

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alphas"):
            SweepConfig.from_dict(small_config(alphas=[1.5]))

    def test_mc_required_for_laplace_check(self):
        with pytest.raises(ValueError, match="mc"):
            SweepConfig.from_dict(small_config(checks=["laplace_mc"]))

    def test_known_checks_complete(self):
        assert set(KNOWN_CHECKS) == {
            "base_harnack", "subordinated_harnack", "prop13", "log_harnack",
            "ondiag_rate", "entropy_kernel", "entropy_cost", "laplace_mc"}


class TestRunSweep:
    def test_small_sweep_holds(self):
        cfg = SweepConfig.from_dict(small_config())
        report = run_sweep(cfg)
        assert report.violated == 0
        assert report.summary["holds"] >= 1
        assert len(report.entries) == 1 + 3  # base + three modes

    def test_threaded_matches_serial(self, clear_memos):
        cfg = SweepConfig.from_dict(small_config())
        a = json.dumps(run_sweep(cfg, threads=1).to_dict(), sort_keys=True)
        clear_memos()  # else the second run reads the first one's values back
        b = json.dumps(run_sweep(cfg, threads=3).to_dict(), sort_keys=True)
        assert a == b

    def test_threaded_default_sweep_recomputes_every_value(self, clear_memos):
        # in one process a second sweep would read the first one's values
        # back from the memos, so empty them before each run
        text = resources.files("subharnack").joinpath(
            "data/default_sweep.json").read_text()

        def fresh_run(threads):
            clear_memos()
            report = run_sweep(SweepConfig.from_dict(json.loads(text)),
                               threads=threads)
            text_out = json.dumps(report.to_dict(), indent=2, sort_keys=True)
            return text_out, _subordinated_apply_memo.cache_info()

        serial, first = fresh_run(1)
        threaded, second = fresh_run(2)
        assert threaded == serial
        assert second.currsize == first.currsize > 0
        assert second.misses >= second.currsize
        assert _law_rule.cache_info().misses > 0

    def test_default_sweep_checks_each_d1_point_once(self, clear_memos,
                                                     monkeypatch):
        # a d = 1 point is checked once, in _checked_pair, and passed on as
        # a float that apply and subordinated_apply take as checked, and the
        # ondiag_rate entries pass their point as a tuple of floats, so no
        # point is checked in numpy (40 while those entries passed
        # np.zeros(d) and a Poisson-kernel oracle; 1,224 when every call
        # re-checked)
        text = resources.files("subharnack").joinpath(
            "data/default_sweep.json").read_text()
        config = SweepConfig.from_dict(json.loads(text))
        as_point, calls = semigroup._as_point, [0]

        def counted(x, d):
            calls[0] += 1
            return as_point(x, d)

        monkeypatch.setattr(semigroup, "_as_point", counted)
        clear_memos()
        for _ in ("cold", "warm"):
            calls[0] = 0
            run_sweep(config)
            assert calls[0] == 0

    def test_default_sweep_builds_one_report_per_entry(self, clear_memos,
                                                       monkeypatch):
        # an alpha = 1 subordinated_harnack entry is the base inequality,
        # evaluated in place, so each pass builds one BoundReport per entry
        # and checks the base inequality only for the 24 base_harnack
        # entries (375 reports and 96 base checks when the 72 alpha = 1
        # entries each ran check_base_harnack and dropped its report)
        text = resources.files("subharnack").joinpath(
            "data/default_sweep.json").read_text()
        config = SweepConfig.from_dict(json.loads(text))
        post_init, check = BoundReport.__post_init__, verify.check_base_harnack
        reports, checks = [0], [0]

        def counted_post_init(self):
            reports[0] += 1
            post_init(self)

        def counted_check(*args):
            checks[0] += 1
            return check(*args)

        monkeypatch.setattr(BoundReport, "__post_init__", counted_post_init)
        monkeypatch.setattr(verify, "check_base_harnack", counted_check)
        clear_memos()
        for _ in ("cold", "warm"):
            reports[0] = checks[0] = 0
            entries = run_sweep(config).entries
            assert reports[0] == len(entries) == 303
            assert checks[0] == 24

    def test_clear_memos_empties_every_memo(self):
        # a memo missing from MEMOS would let the second of two runs in one
        # process (criterion 11) read the first one's values back unnoticed
        found = set()
        for info in pkgutil.iter_modules(subharnack.__path__):
            module = importlib.import_module(f"subharnack.{info.name}")
            for obj in vars(module).values():
                members = vars(obj).values() if isinstance(obj, type) else (obj,)
                found.update(id(m) for m in members
                             if callable(getattr(m, "cache_clear", None)))
        assert found == {id(memo) for memo in MEMOS}

    def test_divergent_entries_marked_non_converged(self):
        # alpha = 1/2 numeric mode with a divergent moment
        cfg = SweepConfig.from_dict(small_config(
            alphas=[0.5], ts=[0.5], point_pairs=[[0.0, 2.0]],
            checks=["subordinated_harnack"]))
        report = run_sweep(cfg)
        assert report.violated == 0
        assert report.summary["non_converged"] >= 1

    def test_report_json_is_strict(self):
        cfg = SweepConfig.from_dict(small_config(
            alphas=[0.5], checks=["subordinated_harnack"]))
        text = json.dumps(run_sweep(cfg).to_dict(), allow_nan=False,
                          sort_keys=True)
        json.loads(text)


# every check and all four statuses: p = 1.2 is outside the power profile,
# alpha = 1/2 makes a moment diverge, and two draws give a standard error
# so rough that at mc seed 3 two laplace_mc means miss their 4-SE band
FOUR_STATUSES_CONFIG = small_config(
    alphas=[0.5, 0.75], ts=[0.5, 1.0], ps=[1.2, 2.0], point_pairs=[[0.0, 2.0]],
    functions=[{"kind": "indicator"}], mc={"n_samples": 2, "seed": 3},
    checks=list(KNOWN_CHECKS))


class TestDerivedFields:
    def test_each_follows_from_the_fields_that_decide_it(self):
        report = run_sweep(SweepConfig.from_dict(FOUR_STATUSES_CONFIG))
        statuses = Counter(e.status for e in report.entries)
        assert set(statuses) == set(STATUSES)
        assert {e.params["check"] for e in report.entries} == set(KNOWN_CHECKS)
        for e in report.entries:
            assert e.valid_domain == (e.status in {"holds", "violated"})
            if e.valid_domain:
                assert e.slack == e.rhs - e.lhs
            else:
                assert math.isnan(e.slack)
            d = e.to_dict()
            assert (d["valid_domain"], d["slack"]) == (e.valid_domain,
                                                      _json_float(e.slack))
        assert report.summary == {s: statuses[s] for s in STATUSES}
        assert report.to_dict().keys() == {"entries", "summary"}
        assert report.to_dict()["summary"] == report.summary

    def test_derived_fields_cannot_be_set(self):
        rep = BoundReport(lhs=1.0, rhs=2.0, method="m", status="holds")
        report = SweepReport([rep])
        for obj, name in ((rep, "slack"), (rep, "valid_domain"),
                          (report, "summary")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
        assert not hasattr(report, "worst_slack")

    @pytest.mark.parametrize("call", [
        lambda: subordinator.density(StableSubordinator(0.5, 1.0), 1.0, SPEC),
        lambda: subordinator.density(StableSubordinator(0.5, 1.0), 1.0, spec=SPEC),
        lambda: apply(gauss_heat(1), BUMP, 1.0, [0.0], SPEC),
        lambda: apply(gauss_heat(1), BUMP, 1.0, [0.0], spec=SPEC),
        lambda: semigroup.ondiag(gauss_heat(1), StableSubordinator(0.5, 1.0),
                                 [0.0], SPEC),
        lambda: semigroup.ondiag(gauss_heat(1), StableSubordinator(0.5, 1.0),
                                 [0.0], spec=SPEC),
        lambda: BoundReport(lhs=1.0, rhs=2.0, slack=1.0, valid_domain=True,
                            method="m", status="holds"),
        lambda: SweepReport([], dict.fromkeys(STATUSES, 0), math.inf),
        lambda: SweepReport(entries=[], summary=dict.fromkeys(STATUSES, 0),
                            worst_slack=math.inf),
    ], ids=["density-spec", "density-spec=", "apply-spec", "apply-spec=",
            "ondiag-spec", "ondiag-spec=", "BoundReport-slack=-valid_domain=",
            "SweepReport-summary-worst_slack",
            "SweepReport-summary=-worst_slack="])
    def test_removed_inputs_are_refused(self, call):
        with pytest.raises(TypeError):
            call()


# two values on every axis, every check; p = 1.2 is outside the heat
# kernel's power profile and alpha = 1/2 makes some moments diverge
ALL_CHECKS_CONFIG = small_config(
    alphas=[0.5, 0.75], ts=[0.5, 1.0], ps=[1.2, 2.0],
    point_pairs=[[0.0, 0.5], [0.0, 2.0]],
    functions=[{"kind": "indicator", "lo": -1.0, "hi": 1.0},
               {"kind": "gauss_bump", "center": 0.0, "width": 1.0}],
    mc={"n_samples": 2000, "seed": 5}, checks=list(KNOWN_CHECKS))


@pytest.fixture(scope="module")
def all_checks_sweep():
    """The all-checks sweep and the stream seed of each laplace_mc entry."""
    seeds = []
    check = verify.check_laplace_mc

    def recording(sub, x_probe, mc):
        seeds.append(mc.seed)
        return check(sub, x_probe, mc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "check_laplace_mc", recording)
        cfg = SweepConfig.from_dict(ALL_CHECKS_CONFIG)
        report = run_sweep(cfg)
    return cfg, report, seeds


class TestSweepTable:
    def test_entry_order(self, all_checks_sweep):
        _, report, _ = all_checks_sweep
        keys = ("check", "alpha", "p", "t", "x", "y", "f", "mode")
        got = [tuple(e.params.get(k) for k in keys) for e in report.entries]
        assert got == ALL_CHECKS_ORDER

    def test_laplace_mc_streams(self, all_checks_sweep):
        # mc.seed * 1000003 + 1009 * (index of alpha) + (index of t)
        _, _, seeds = all_checks_sweep
        assert seeds == [5000015, 5000016, 5001024, 5001025]

    def test_status_of_every_entry(self, all_checks_sweep):
        cfg, report, _ = all_checks_sweep
        rel_tol = cfg.quadrature.rel_tol
        for e in report.entries:
            assert e.status in STATUSES
            assert e.to_dict()["status"] == e.status
            if e.valid_domain:
                assert e.status == ("holds" if passes(e, rel_tol) else "violated")
            else:
                assert e.status in ("out_of_domain", "non_converged")
        statuses = Counter(e.status for e in report.entries)
        assert Counter(report.summary) == statuses
        assert set(report.summary) == set(STATUSES)
        assert statuses["out_of_domain"] > 0 and statuses["non_converged"] > 0

    def test_kappa_in_every_profile_check(self, all_checks_sweep):
        _, report, _ = all_checks_sweep
        with_profile = {"subordinated_harnack", "prop13", "log_harnack",
                        "entropy_kernel", "entropy_cost"}
        for e in report.entries:
            if e.params["check"] in with_profile:
                assert e.params["kappa"] == 1.0
            else:
                assert "kappa" not in e.params

    def test_alpha_one_is_the_base_inequality_without_kappa(self):
        # alpha = 1 builds no profile of its own, as base_harnack builds none
        sub = StableSubordinator(1.0, 1.0)
        rep = check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0], [1.0],
                                         BUMP, "numeric", SPEC)
        base = check_base_harnack(gauss_heat(1), 2.0, 1.0, [0.0], [1.0], BUMP, SPEC)
        assert (rep.lhs, rep.rhs, rep.status) == (base.lhs, base.rhs, "holds")
        assert "kappa" not in rep.params

    @pytest.mark.parametrize("lhs, status", [
        (1.0 + 5e-8, "holds"),      # above rhs but inside the band of passes
        (1.0 + 2e-7, "violated"),
    ])
    def test_in_domain_status_is_the_passes_band(self, lhs, status):
        rep = verify._report(lhs, 1.0, "m", "", 1e-8, {})
        assert rep.status == status
        assert passes(rep, 1e-8) == (status == "holds")


    def test_csv_is_the_reference_writers(self, all_checks_sweep):
        _, report, _ = all_checks_sweep
        assert len(report.entries) == 162
        assert _report_to_csv(report) == reference_report_to_csv(report)

    def test_csv_key_columns_tell_every_entry_apart(self, all_checks_sweep):
        # without mode, a subordinated_harnack entry's intermediate and
        # simplified rows had the same key columns; entropy_cost runs once
        # per distinct shift min(|x - y|, 0.5), here 0.5 for both pairs
        _, report, _ = all_checks_sweep
        header, *rows = csv.reader(io.StringIO(_report_to_csv(report)))
        keys = {tuple(row[:header.index("lhs")]) for row in rows}
        assert len(rows) == len(keys) == 162

    def test_log_sides_only_where_the_inequality_is_multiplicative(
            self, all_checks_sweep):
        # the power Harnack bounds are multiplicative; log_harnack, the
        # entropy checks, ondiag_rate and laplace_mc compare additively
        _, report, _ = all_checks_sweep
        power = {"base_harnack", "subordinated_harnack", "prop13"}
        evaluated = [e for e in report.entries if e.valid_domain]
        # no prop13 entry is evaluated here: p = 1.2 is outside the profile,
        # and at p = 2 its condition fails or its moment series diverges
        assert {e.params["check"] for e in evaluated} == set(KNOWN_CHECKS) - {"prop13"}
        for e in evaluated:
            logs = (e.log_lhs, e.log_rhs)
            if e.params["check"] in power:
                assert not any(map(math.isnan, logs)), e
            else:
                assert all(map(math.isnan, logs)), e
        for e in report.entries:
            if not e.valid_domain:
                assert (e.log_lhs, e.log_rhs) == (math.inf, math.inf)


def reference_report_to_csv(report):
    """The CSV writer with one branch per column kind, as first written."""
    columns = ["check", "alpha", "kappa", "p", "t", "d", "x", "y", "f", "mode",
               "lhs", "rhs", "slack", "valid_domain", "status", "method"]
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(columns)
    for e in report.entries:
        params = e.params or {}
        row = []
        for col in columns:
            if col in ("lhs", "rhs", "slack"):
                row.append(f"{getattr(e, col):.17g}")
            elif col == "valid_domain":
                row.append(str(e.valid_domain).lower())
            elif col in ("status", "method"):
                row.append(getattr(e, col))
            else:
                v = params.get(col, "")
                row.append(f"{v:.17g}" if isinstance(v, float) else str(v))
        w.writerow(row)
    return out.getvalue()


# (check, alpha, p, t, x, y, f, mode) of every entry, in sweep order: the
# order of the nested loops the sweep table replaced
ALL_CHECKS_ORDER = [
    # base_harnack
    ('base_harnack', None, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', None),
    ('base_harnack', None, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', None),
    ('base_harnack', None, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', None),
    ('base_harnack', None, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', None),
    ('base_harnack', None, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', None),
    ('base_harnack', None, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', None),
    ('base_harnack', None, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', None),
    ('base_harnack', None, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', None),
    ('base_harnack', None, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', None),
    ('base_harnack', None, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', None),
    ('base_harnack', None, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', None),
    ('base_harnack', None, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', None),
    ('base_harnack', None, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', None),
    ('base_harnack', None, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', None),
    ('base_harnack', None, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', None),
    ('base_harnack', None, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', None),
    # subordinated_harnack
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.5, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', 'simplified'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', 'numeric'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', 'intermediate'),
    ('subordinated_harnack', 0.75, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', 'simplified'),
    # prop13
    ('prop13', 0.5, 1.2, 0.5, 0.0, 0.5, 'ind[-1,1]', None),
    ('prop13', 0.5, 1.2, 0.5, 0.0, 0.5, 'bump(0,1)', None),
    ('prop13', 0.5, 1.2, 0.5, 0.0, 2.0, 'ind[-1,1]', None),
    ('prop13', 0.5, 1.2, 0.5, 0.0, 2.0, 'bump(0,1)', None),
    ('prop13', 0.5, 1.2, 1.0, 0.0, 0.5, 'ind[-1,1]', None),
    ('prop13', 0.5, 1.2, 1.0, 0.0, 0.5, 'bump(0,1)', None),
    ('prop13', 0.5, 1.2, 1.0, 0.0, 2.0, 'ind[-1,1]', None),
    ('prop13', 0.5, 1.2, 1.0, 0.0, 2.0, 'bump(0,1)', None),
    ('prop13', 0.5, 2.0, 0.5, 0.0, 0.5, 'ind[-1,1]', None),
    ('prop13', 0.5, 2.0, 0.5, 0.0, 0.5, 'bump(0,1)', None),
    ('prop13', 0.5, 2.0, 0.5, 0.0, 2.0, 'ind[-1,1]', None),
    ('prop13', 0.5, 2.0, 0.5, 0.0, 2.0, 'bump(0,1)', None),
    ('prop13', 0.5, 2.0, 1.0, 0.0, 0.5, 'ind[-1,1]', None),
    ('prop13', 0.5, 2.0, 1.0, 0.0, 0.5, 'bump(0,1)', None),
    ('prop13', 0.5, 2.0, 1.0, 0.0, 2.0, 'ind[-1,1]', None),
    ('prop13', 0.5, 2.0, 1.0, 0.0, 2.0, 'bump(0,1)', None),
    # log_harnack
    ('log_harnack', 0.5, None, 0.5, 0.0, 0.5, '1+ind[-1,1]', None),
    ('log_harnack', 0.5, None, 0.5, 0.0, 0.5, '1+bump(0,1)', None),
    ('log_harnack', 0.5, None, 0.5, 0.0, 2.0, '1+ind[-1,1]', None),
    ('log_harnack', 0.5, None, 0.5, 0.0, 2.0, '1+bump(0,1)', None),
    ('log_harnack', 0.5, None, 1.0, 0.0, 0.5, '1+ind[-1,1]', None),
    ('log_harnack', 0.5, None, 1.0, 0.0, 0.5, '1+bump(0,1)', None),
    ('log_harnack', 0.5, None, 1.0, 0.0, 2.0, '1+ind[-1,1]', None),
    ('log_harnack', 0.5, None, 1.0, 0.0, 2.0, '1+bump(0,1)', None),
    ('log_harnack', 0.75, None, 0.5, 0.0, 0.5, '1+ind[-1,1]', None),
    ('log_harnack', 0.75, None, 0.5, 0.0, 0.5, '1+bump(0,1)', None),
    ('log_harnack', 0.75, None, 0.5, 0.0, 2.0, '1+ind[-1,1]', None),
    ('log_harnack', 0.75, None, 0.5, 0.0, 2.0, '1+bump(0,1)', None),
    ('log_harnack', 0.75, None, 1.0, 0.0, 0.5, '1+ind[-1,1]', None),
    ('log_harnack', 0.75, None, 1.0, 0.0, 0.5, '1+bump(0,1)', None),
    ('log_harnack', 0.75, None, 1.0, 0.0, 2.0, '1+ind[-1,1]', None),
    ('log_harnack', 0.75, None, 1.0, 0.0, 2.0, '1+bump(0,1)', None),
    # ondiag_rate
    ('ondiag_rate', 0.5, None, 0.1, None, None, '', None),
    ('ondiag_rate', 0.75, None, 0.1, None, None, '', None),
    # entropy_kernel
    ('entropy_kernel', 0.5, None, 0.5, 0.0, 0.5, '', None),
    ('entropy_kernel', 0.5, None, 0.5, 0.0, 2.0, '', None),
    ('entropy_kernel', 0.5, None, 1.0, 0.0, 0.5, '', None),
    ('entropy_kernel', 0.5, None, 1.0, 0.0, 2.0, '', None),
    ('entropy_kernel', 0.75, None, 0.5, 0.0, 0.5, '', None),
    ('entropy_kernel', 0.75, None, 0.5, 0.0, 2.0, '', None),
    ('entropy_kernel', 0.75, None, 1.0, 0.0, 0.5, '', None),
    ('entropy_kernel', 0.75, None, 1.0, 0.0, 2.0, '', None),
    # entropy_cost
    ('entropy_cost', 0.5, None, 0.5, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.5, None, 1.0, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.75, None, 0.5, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.75, None, 1.0, 0.5, 0.0, 'gaussian-shift', None),
    # laplace_mc
    ('laplace_mc', 0.5, None, 0.5, 1.0, None, '', None),
    ('laplace_mc', 0.5, None, 1.0, 1.0, None, '', None),
    ('laplace_mc', 0.75, None, 0.5, 1.0, None, '', None),
    ('laplace_mc', 0.75, None, 1.0, 1.0, None, '', None),
]
