import importlib
import importlib.resources as resources
import json
import math
import pkgutil
from collections import Counter

import numpy as np
import pytest
from conftest import MEMOS
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

import subharnack
from subharnack import verify
from subharnack.bounds import (
    STATUSES,
    BoundReport,
    base_harnack_exponent,
    log_harnack_term,
)
from subharnack.semigroup import (
    _subordinated_apply_memo,
    GaussBump,
    Indicator,
    ShiftedForLog,
    apply,
    gauss_heat,
    ou1d,
    subordinated_density,
)
from subharnack.subordinator import (
    _law_rule,
    _OnArrays,
    MCSpec,
    QuadratureSpec,
    StableSubordinator,
    integrate_against,
)
from subharnack.verify import (
    KNOWN_CHECKS,
    SweepConfig,
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
        profile, ok = power_profile(ou1d(), 2.0, 1.0)
        assert ok and profile.epsilon == 1.0
        assert math.isclose(profile.H_value, 1.0)  # p rho^2 / (2(p-1))

    def test_log_profiles(self):
        assert math.isclose(log_profile(gauss_heat(1), 1.0).H_value, 0.25)
        assert math.isclose(log_profile(ou1d(), 1.0).H_value, 0.5)

    def test_ou_envelope_dominates_exact_rate(self):
        # 1/(1 - e^(-2t)) <= 1 + 1/t for every t > 0
        for t in (0.01, 0.1, 0.5, 1.0, 5.0, 50.0):
            assert 1.0 / -math.expm1(-2.0 * t) <= 1.0 + 1.0 / t + 1e-12


class TestPasses:
    def test_within_tolerance_band(self):
        rep = BoundReport(lhs=1.0 + 5e-9, rhs=1.0, slack=-5e-9,
                          valid_domain=True, method="m", status="holds")
        assert passes(rep, 1e-9)
        assert not passes(rep, 1e-11)

    def test_out_of_domain_always_passes(self):
        rep = BoundReport(lhs=5.0, rhs=1.0, slack=-4.0, valid_domain=False,
                          method="m", status="out_of_domain")
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
        rhs_p = apply(gauss_heat(1), f, 0.1, [12.0], SPEC)
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

    def test_prop13_discrepancy_detail(self):
        # q = rho^2 (2/t)^2 = 1.78 lies in [1, e): sufficient condition
        # admits the point while the true series diverges
        rep = check_prop13(gauss_heat(1), 2.0, 1.2, [0.0], [0.8], BUMP, SPEC)
        assert not rep.valid_domain and rep.status == "non_converged"
        assert "discrepancy" in rep.detail and "diverges" in rep.detail

    def test_prop13_needs_heat_kernel(self):
        with pytest.raises(ValueError):
            check_prop13(ou1d(), 2.0, 1.0, [0.0], [1.0], BUMP, SPEC)

    def test_log_harnack_requires_shifted(self):
        sub = StableSubordinator(0.75, 1.0)
        with pytest.raises(ValueError):
            check_log_harnack(gauss_heat(1), sub, [0.0], [1.0], BUMP, SPEC)

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
        rep = check_ondiag_rate(1, 0.5, (0.1, 0.3, 1.0, 3.0, 10.0), SPEC)
        assert rep.lhs <= rep.rhs
        assert "slope=-1" in rep.detail

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
        # blocked half-angle transform keeps its mean to all 12 digits
        rep = check_laplace_mc(StableSubordinator(0.9, 0.5), 1.0,
                               MCSpec(200_000, 1537716641))
        assert rep.detail == "mean=0.605043344854 exact=0.606530659713 se=0.000361"
        assert rep.status == "violated"


def coupling_cost(m):
    """int_0^1 H(Q_m(u), Q_0(u)) du for H(a, b) = (a - b)^2/2, with Q_m the
    quantile function of N(m, 1): the quantile-coupling transport cost,
    by adaptive quadrature over ndtri."""
    val, _ = quad(lambda u: 0.5 * ((m + ndtri(u)) - ndtri(u)) ** 2, 0.0, 1.0,
                  epsabs=0.0, epsrel=1e-13)
    return val


class TestWasserstein:
    """The entropy-cost check takes the transport cost in closed form,
    m^2/2: the quantile coupling of N(m, 1) and N(0, 1) moves every
    quantile by m."""

    def test_shifted_gaussian_quadratic_cost(self):
        alpha, t = 0.75, 1.0
        profile = log_profile(ou1d(), 0.0)
        for m in (0.1, 0.25, 0.4, 0.5, 1.0):
            cost = coupling_cost(m)
            assert math.isclose(cost, 0.5 * m * m, rel_tol=1e-12)
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
        g = integrate_against(_OnArrays(lambda s: np.exp(
            m * np.exp(-s) * z - 0.5 * m * m * np.exp(-2.0 * s))), sub, SPEC)
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
    ('entropy_cost', 0.5, None, 0.5, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.5, None, 1.0, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.5, None, 1.0, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.75, None, 0.5, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.75, None, 0.5, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.75, None, 1.0, 0.5, 0.0, 'gaussian-shift', None),
    ('entropy_cost', 0.75, None, 1.0, 0.5, 0.0, 'gaussian-shift', None),
    # laplace_mc
    ('laplace_mc', 0.5, None, 0.5, 1.0, None, '', None),
    ('laplace_mc', 0.5, None, 1.0, 1.0, None, '', None),
    ('laplace_mc', 0.75, None, 0.5, 1.0, None, '', None),
    ('laplace_mc', 0.75, None, 1.0, 1.0, None, '', None),
]
