import importlib.resources as resources
import json
import math

import pytest

from subharnack.bounds import BoundReport
from subharnack.semigroup import (
    _gauss_quad_memo,
    _subordinated_apply_memo,
    GaussBump,
    Indicator,
    ShiftedForLog,
    gauss_heat,
    ou1d,
)
from subharnack.subordinator import (
    _standard_density,
    MCSpec,
    QuadratureSpec,
    StableSubordinator,
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
    wasserstein_cost_1d,
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
                          valid_domain=True, method="m")
        assert passes(rep, 1e-9)
        assert not passes(rep, 1e-11)

    def test_out_of_domain_always_passes(self):
        rep = BoundReport(lhs=5.0, rhs=1.0, slack=-4.0, valid_domain=False,
                          method="m")
        assert passes(rep, 1e-12)


class TestChecks:
    def test_base_harnack_holds(self):
        for base in (gauss_heat(1), ou1d()):
            rep = check_base_harnack(base, 2.0, 1.0, [0.0], [1.0], BUMP, SPEC)
            assert rep.valid_domain and rep.lhs <= rep.rhs

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

    def test_subordinated_unknown_mode(self):
        sub = StableSubordinator(0.75, 1.0)
        with pytest.raises(ValueError):
            check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0], [1.0],
                                       BUMP, "sharpest", SPEC)

    def test_subordinated_boundary_alpha_out_of_domain(self):
        sub = StableSubordinator(0.5, 1.0)
        rep = check_subordinated_harnack(gauss_heat(1), sub, 2.0, [0.0], [1.0],
                                         BUMP, "simplified", SPEC)
        assert not rep.valid_domain and rep.holds

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
        assert not rep.valid_domain
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


class TestWasserstein:
    def test_shifted_gaussian_quadratic_cost(self):
        from scipy.special import ndtri

        m = 0.4
        cost = wasserstein_cost_1d(lambda u: m + ndtri(u), ndtri,
                                   lambda a, b: 0.5 * (a - b) ** 2, SPEC)
        assert math.isclose(cost, 0.5 * m * m, rel_tol=1e-9)

    def test_identical_marginals_zero(self):
        from scipy.special import ndtri

        cost = wasserstein_cost_1d(ndtri, ndtri,
                                   lambda a, b: (a - b) ** 2, SPEC)
        assert abs(cost) < 1e-12


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

    def test_threaded_matches_serial(self):
        cfg = SweepConfig.from_dict(small_config())
        a = json.dumps(run_sweep(cfg, threads=1).to_dict(), sort_keys=True)
        b = json.dumps(run_sweep(cfg, threads=3).to_dict(), sort_keys=True)
        assert a == b

    def test_threaded_default_sweep_recomputes_every_value(self):
        # in one process a second sweep would read the first one's values
        # back from the memos, so empty them before each run
        text = resources.files("subharnack").joinpath(
            "data/default_sweep.json").read_text()

        def fresh_run(threads):
            for memo in (_subordinated_apply_memo, _gauss_quad_memo,
                         _standard_density):
                memo.cache_clear()
            report = run_sweep(SweepConfig.from_dict(json.loads(text)),
                               threads=threads)
            text_out = json.dumps(report.to_dict(), indent=2, sort_keys=True)
            return text_out, _subordinated_apply_memo.cache_info()

        serial, first = fresh_run(1)
        threaded, second = fresh_run(2)
        assert threaded == serial
        assert second.currsize == first.currsize > 0
        assert second.misses >= second.currsize
        assert _standard_density.cache_info().misses > 0

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
