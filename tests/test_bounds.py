import contextlib
import inspect
import io
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subharnack.bounds import (
    BoundReport,
    C_pka,
    HarnackProfile,
    base_harnack_exponent,
    constant_c,
    jensen_series_bound,
    log_harnack_term,
    log_thm11_factor,
    log_thm11_intermediate_factor,
    log_transfer_factor,
    prop13_factor,
    series_factor,
)
from subharnack.cli import parse_and_dispatch
from subharnack.semigroup import GaussBump, Indicator, gauss_heat
from subharnack.specfun import log_gamma
from subharnack.subordinator import (
    QuadratureSpec,
    SeriesEval,
    StableSubordinator,
    exp_moment,
    fractional_moment,
    log_fractional_moment,
)
from subharnack.verify import check_base_harnack, check_subordinated_harnack

SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
H10 = HarnackProfile(kappa=1.0, epsilon=0.0, H_value=10.0)


def _cli_bound(kind):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert parse_and_dispatch(["bound", "--kind", kind, "--alpha", "0.51",
                                   "--H", "10"]) == 0
    return float(out.getvalue())


def _sweep_entry_rhs(mode):
    rep = check_subordinated_harnack(gauss_heat(1), StableSubordinator(0.5001, 1.0),
                                     2.0, [0.0], [2.0], Indicator(-1, 1), mode)
    assert rep.status == "holds"
    return rep.rhs


# b = 1 - (1/alpha - 1) is 4e-4 at alpha = 0.5001, so the factors' 1/b
# powers pass float range: an upper bound that large is reported as inf
@pytest.mark.parametrize("value, want", [
    (lambda: C_pka(2.0, 1.0, 0.5001), math.inf),
    (lambda: log_thm11_factor(2.0, H10, 0.5001, 1.0), math.inf),
    (lambda: log_thm11_intermediate_factor(2.0, H10, 0.5001, 1.0), math.inf),
    (lambda: _cli_bound("simplified"), math.inf),
    (lambda: _cli_bound("intermediate"), math.inf),
    (lambda: _sweep_entry_rhs("simplified"), math.inf),
    (lambda: _sweep_entry_rhs("intermediate"), math.inf),
    (lambda: jensen_series_bound(1000.0, 0.01), math.inf),
    # the rate 400 e^-800 / (1 - e^-800) underflows to 0
    (lambda: base_harnack_exponent(2.0, 400.0, 1.0, 1.0), 0.0),
], ids=["C_pka", "log_thm11", "log_thm11_intermediate", "cli_simplified",
        "cli_intermediate", "sweep_simplified", "sweep_intermediate", "jensen",
        "base_exponent"])
def test_past_float_range_gives_a_value_not_an_overflow(value, want):
    assert value() == want


# each checked function, arguments it accepts, and the ones it must refuse
# as nan: a guard written `x <= bound` lets nan through, `not x > bound`
# does not
NAN_REFUSED = [
    (HarnackProfile, (1.0, 0.0, 1.0), "kappa epsilon H_value"),
    (base_harnack_exponent, (2.0, 0.0, 1.0, 1.0), "p t rho_sq"),
    (series_factor, (1.0, 0.75, 1.0, 1.0), "delta"),
    (C_pka, (2.0, 1.0, 0.8), "p"),
    (log_thm11_factor, (2.0, H10, 0.75, 1.0), "p t"),
    (log_thm11_intermediate_factor, (2.0, H10, 0.75, 1.0), "p t"),
    (jensen_series_bound, (1.0, 0.5), "a b"),
    (prop13_factor, (2.0, 1.0, 1.0, 1.0), "p H_value t"),
    (log_harnack_term, (0.75, 1.0, 0.0, 1.0, 1.0), "alpha kappa epsilon H_value t"),
    (log_transfer_factor, (2.0, H10, SeriesEval.exact(0.0)), "p"),
    (exp_moment, (StableSubordinator(0.75, 1.0), 1.0, 1.0), "delta kappa"),
    (fractional_moment, (StableSubordinator(1.0, 2.0), 1.0), "r"),
    (QuadratureSpec, (1e-10, 1e-13, 200), "rel_tol abs_tol"),
    (check_base_harnack,
     (gauss_heat(1), 2.0, 1.0, 0.0, 1.0, GaussBump(0.0, 1.0)), "p t"),
]


@pytest.mark.parametrize("fn, args, name", [
    pytest.param(fn, args, name, id=f"{fn.__name__}-{name}")
    for fn, args, names in NAN_REFUSED for name in names.split()])
def test_nan_argument_is_refused(fn, args, name):
    fn(*args)
    at = list(inspect.signature(fn).parameters).index(name)
    with pytest.raises(ValueError):
        fn(*args[:at], math.nan, *args[at + 1:])


class TestBaseExponent:
    def test_flat_case(self):
        # K = 0: p*rho^2 / (4*(p-1)*t)
        assert math.isclose(base_harnack_exponent(2.0, 0.0, 1.0, 1.0), 0.5)

    def test_continuous_in_curvature(self):
        flat = base_harnack_exponent(2.0, 0.0, 1.0, 1.0)
        near = base_harnack_exponent(2.0, 1e-9, 1.0, 1.0)
        assert math.isclose(flat, near, rel_tol=1e-6)

    def test_negative_curvature_smaller_at_large_t(self):
        # K < 0 saturates while K = 0 keeps decaying like 1/t
        k_neg = base_harnack_exponent(2.0, -1.0, 10.0, 1.0)
        assert math.isclose(k_neg, 2.0 * (-1.0) / math.expm1(-20.0) / 2.0,
                            rel_tol=1e-12)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            base_harnack_exponent(1.0, 0.0, 1.0, 1.0)


class TestConstantC:
    @pytest.mark.parametrize("alpha,kappa", [(0.6, 1.0), (0.75, 1.0),
                                             (0.9, 1.0), (0.55, 1.0),
                                             (0.8, 2.0)])
    def test_defining_inequality(self, alpha, kappa):
        # c must dominate Gamma(kappa*n/alpha) / (alpha * Gamma(kappa*n)
        # * n^(kappa*n*(1/alpha-1)) * e^(kappa*n*(1/alpha-1))) termwise
        # after the Stirling reduction; checked via the envelope it feeds:
        # term_n(true) <= term_n(envelope) with the explicit e factor
        c = math.e * constant_c(alpha, kappa)
        for t in (0.5, 1.0, 2.0):
            sub = StableSubordinator(alpha, t)
            for n in range(1, 200):
                lhs = (-log_gamma(n + 1.0)
                       + log_fractional_moment(sub, kappa * n))
                # envelope term: (c/t^(kappa/alpha))^n * n^(n*kappa*(1/alpha-1)-n)
                rhs = (n * math.log(c) - (kappa * n / alpha) * math.log(t)
                       + (kappa * n * (1.0 / alpha - 1.0) - n) * math.log(n))
                assert lhs <= rhs + 1e-9, (n, lhs, rhs)

    def test_alpha_one_limit(self):
        # as alpha -> 1 the prefactor Q -> 1 and the max handles the rest
        c = constant_c(1.0 - 1e-12, 1.0)
        assert c >= 1.0 - 1e-12  # allow rounding in the log-domain product
        assert math.isclose(c, 1.0, rel_tol=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            constant_c(0.4, 1.0)  # needs alpha > kappa/(kappa+1)


class TestSeriesFactor:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_dominates_true_moment(self, alpha):
        for t in (0.5, 1.0, 2.0):
            for delta in (0.1, 0.5, 2.0):
                sub = StableSubordinator(alpha, t)
                true = exp_moment(sub, delta, 1.0, SPEC)
                env = series_factor(delta, alpha, 1.0, t)
                assert true.converged and env.converged
                assert true.log_value <= env.log_value + 1e-10

    def test_delta_zero_is_one(self):
        env = series_factor(0.0, 0.75, 1.0, 1.0)
        assert env.value == 1.0


class TestThm11Chain:
    GRID = list(itertools.product((1.5, 2.0, 4.0), (0.6, 0.75, 0.9),
                                  (0.5, 1.0, 2.0), (0.1, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize("p,alpha,t,H,eps", GRID)
    def test_ordering(self, p, alpha, t, H, eps):
        profile = HarnackProfile(kappa=1.0, epsilon=eps, H_value=H)
        sub = StableSubordinator(alpha, t)
        moment = exp_moment(sub, H / (p - 1.0), 1.0, SPEC)
        assert moment.converged
        log_transfer = eps * H + (p - 1.0) * moment.log_value
        log_inter = log_thm11_intermediate_factor(p, profile, alpha, t)
        log_simple = log_thm11_factor(p, profile, alpha, t)
        assert log_transfer <= log_inter + 1e-9
        assert log_inter <= log_simple + 1e-9

    def test_factor_at_H_zero(self):
        # x = y: transfer is exactly 1, simplified collapses to 2^(p-1)
        profile = HarnackProfile(kappa=1.0, epsilon=0.0, H_value=0.0)
        assert math.isclose(log_thm11_factor(2.0, profile, 0.75, 1.0),
                            math.log(2.0), rel_tol=1e-12)

    def test_out_of_domain_alpha(self):
        profile = HarnackProfile(kappa=1.0, epsilon=0.0, H_value=1.0)
        with pytest.raises(ValueError):
            log_thm11_factor(2.0, profile, 0.5, 1.0)


class TestCpka:
    def test_finite_towards_alpha_one(self):
        # b -> 1 as alpha -> 1; nothing blows up on approach
        assert math.isfinite(C_pka(2.0, 1.0, 0.999999))
        assert C_pka(2.0, 1.0, 0.999999) > 0.0

    def test_log_form_matches_direct_formula(self):
        b = 1.0 - (1.0 / 0.75 - 1.0)
        c = 2.0 ** (1.0 - b) * math.e * constant_c(0.75, 1.0)
        direct = b * c ** (1.0 / b) / (2.0 - 1.0) ** ((1.0 - b) / b)
        assert math.isclose(C_pka(2.0, 1.0, 0.75), direct, rel_tol=1e-14)

    def test_monotone_in_p_near_one(self):
        # the (p-1)^(-(1-b)/b) factor blows up as p -> 1+
        assert C_pka(1.01, 1.0, 0.75) > C_pka(2.0, 1.0, 0.75)


class TestJensenBound:
    @given(st.floats(min_value=1e-3, max_value=2.0),
           st.floats(min_value=0.4, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_dominates_series(self, a, b):
        # sum_{n>=1} a^n n^(-b*n) <= (e^((2a)^(1/b)/2) - 1)^b
        total = 0.0
        for n in range(1, 400):
            log_term = n * math.log(a) - b * n * math.log(n)
            total += math.exp(log_term)
            if log_term < -40:
                break
        assert total <= jensen_series_bound(a, b) * (1.0 + 1e-9)


class TestProp13:
    def test_valid_point(self):
        valid, factor, q = prop13_factor(2.0, 1.0, 0.5, 2.0)
        assert valid and q < 1.0 and factor >= 1.0

    def test_discrepancy_window_nonempty(self):
        # sufficient condition admits the point, the exact ratio refuses it
        valid, factor, q = prop13_factor(2.0, 1.0, 0.6, 1.0)
        assert valid and q >= 1.0

    def test_invalid_point(self):
        valid, _, _ = prop13_factor(2.0, 1.0, 10.0, 0.5)
        assert not valid

    def test_H_zero(self):
        valid, factor, q = prop13_factor(2.0, 1.0, 0.0, 1.0)
        assert valid and factor == 1.0 and q == 0.0

    def test_exact_ratio_matches_series_ratio(self):
        from subharnack.subordinator import geometric_term_ratio

        p, H, t = 2.0, 0.5, 2.0
        _, _, q = prop13_factor(p, 1.0, H, t)
        assert math.isclose(q, geometric_term_ratio(H / (p - 1.0), 1.0, t),
                            rel_tol=1e-12)


class TestLogHarnackTerm:
    def test_alpha_one_is_H_over_t(self):
        for t in (0.5, 1.0, 2.0):
            for H in (0.25, 1.0):
                assert math.isclose(log_harnack_term(1.0, 1.0, 0.0, H, t),
                                    H / t, rel_tol=1e-14)

    def test_epsilon_adds_H(self):
        a = log_harnack_term(0.75, 1.0, 0.0, 2.0, 1.0)
        b = log_harnack_term(0.75, 1.0, 1.0, 2.0, 1.0)
        assert math.isclose(b - a, 2.0, rel_tol=1e-12)

    def test_matches_fractional_moment(self):
        from subharnack.subordinator import fractional_moment

        sub = StableSubordinator(0.75, 1.3)
        expected = 0.7 * fractional_moment(sub, 1.0)
        assert math.isclose(log_harnack_term(0.75, 1.0, 0.0, 0.7, 1.3),
                            expected, rel_tol=1e-12)

    @pytest.mark.parametrize("alpha, kappa, t", [
        (0.5, 300.0, 1.0), (0.01, 1.0, 0.001), (1.0, 200.0, 0.01)])
    def test_past_float_range_is_inf(self, alpha, kappa, t):
        assert log_harnack_term(alpha, kappa, 0.0, 1.0, t) == math.inf

    def test_alpha_one_is_exactly_t_to_the_minus_kappa(self):
        assert log_harnack_term(1.0, 100.0, 0.0, 1.0, 0.01) == 0.01 ** -100.0


class TestTransferFactor:
    def test_trivial_moment(self):
        profile = HarnackProfile(kappa=1.0, epsilon=0.0, H_value=0.0)
        moment = exp_moment(StableSubordinator(0.75, 1.0), 0.0, 1.0, SPEC)
        assert log_transfer_factor(2.0, profile, moment) == 0.0

    def test_log_of_the_factor(self):
        # eps*H + (p-1) log E exp(delta/S), finite where the factor is not
        profile = HarnackProfile(kappa=1.0, epsilon=1.0, H_value=50.0)
        moment = exp_moment(StableSubordinator(0.75, 0.5), 50.0, 1.0, SPEC)
        assert moment.converged and moment.value == math.inf
        want = 50.0 + 1.0 * moment.log_value
        assert log_transfer_factor(2.0, profile, moment) == want

    def test_divergent_moment_gives_inf(self):
        profile = HarnackProfile(kappa=1.0, epsilon=0.0, H_value=0.5)
        moment = exp_moment(StableSubordinator(0.5, 1.0), 0.5, 1.0, SPEC)
        assert not moment.converged
        assert log_transfer_factor(2.0, profile, moment) == math.inf

    def test_moment_past_float_range_at_alpha_one(self):
        # E exp(10 / S) = e^1000 at the point mass S = 0.01
        profile = HarnackProfile(kappa=1.0, epsilon=0.0, H_value=10.0)
        moment = exp_moment(StableSubordinator(1.0, 0.01), 10.0, 1.0, SPEC)
        assert moment.value == math.inf
        assert log_transfer_factor(2.0, profile, moment) == moment.log_value


class TestBoundReport:
    def test_status_is_one_of_four(self):
        for status in ("holds", "violated", "out_of_domain", "non_converged"):
            rep = BoundReport(lhs=3.0, rhs=2.0, method="m", status=status)
            assert rep.to_dict()["status"] == status
        for status in ("ok", "", None):
            with pytest.raises(ValueError, match="status"):
                BoundReport(lhs=1.0, rhs=2.0, method="m", status=status)

    def test_to_dict_keeps_field_order(self):
        rep = BoundReport(lhs=1.0, rhs=2.0, method="m", status="holds")
        assert list(rep.to_dict()) == ["lhs", "rhs", "slack", "valid_domain",
                                       "method", "status", "detail", "log_lhs",
                                       "log_rhs"]
        params = {"check": "c"}
        d = BoundReport(**{**vars(rep), "params": params}).to_dict()
        assert list(d)[-1] == "params" and d["params"] == params
        assert d["params"] is not params

    def test_to_dict_is_json_safe(self):
        import json

        rep = BoundReport(lhs=math.inf, rhs=math.nan, method="m",
                          status="out_of_domain")
        text = json.dumps(rep.to_dict(), allow_nan=False)
        assert "inf" in text and "nan" in text
