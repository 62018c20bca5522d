"""Acceptance gate: one test per shipped guarantee, one printed
pass/fail line each. Grids and tolerances are pinned; loosening them
counts as a failure.

Run with ``pytest -v tests/test_acceptance.py`` to see the lines.
"""

import itertools
import json
import math

import numpy as np
from scipy.integrate import quad

import subharnack as sh
from subharnack.bounds import (
    HarnackProfile,
    log_harnack_term,
    log_thm11_factor,
    log_thm11_intermediate_factor,
    prop13_factor,
)
from subharnack.semigroup import (
    ExpAffine,
    GaussBump,
    Indicator,
    ShiftedForLog,
    cauchy_closed_form,
    gauss_heat,
    ou1d,
    subordinated_apply,
)
from subharnack.subordinator import (
    MCSpec,
    QuadratureSpec,
    StableSubordinator,
    exp_moment,
    fractional_moment,
    integrate_against,
)
from subharnack.verify import (
    SweepConfig,
    check_entropy_cost,
    check_entropy_kernel,
    check_laplace_mc,
    check_log_harnack,
    check_ondiag_rate,
    check_subordinated_harnack,
    passes,
    run_sweep,
)

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)


def report_line(number, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} point(s))"
    # -rP in the pytest config echoes this captured line even on pass
    print(f"\nACCEPTANCE {number:02d} {label}: {status}", flush=True)
    assert not failures, failures[:10]


def test_criterion_01_laplace_identity():
    failures = []
    for t, x in itertools.product((0.5, 1.0, 2.0), (0.1, 1.0, 10.0)):
        sub = StableSubordinator(0.5, t)
        got = integrate_against(lambda s: math.exp(-x * s), sub, SPEC)
        want = math.exp(-t * math.sqrt(x))
        if abs(got - want) / want > 1e-8:
            failures.append(("quad", t, x, got, want))
    for i, alpha in enumerate((0.3, 0.7, 0.9)):
        rep = check_laplace_mc(StableSubordinator(alpha, 1.0), 1.0,
                               MCSpec(1_000_000, 1000 + i))
        if rep.lhs > rep.rhs:  # |mean - exact| > 4 standard errors
            failures.append(("mc", alpha, rep.detail))
    report_line(1, "laplace-transform identity", failures)


def test_criterion_02_fractional_moments():
    failures = []
    for r, t in itertools.product((0.5, 1.0, 2.0, 3.0), (0.5, 1.0, 2.0)):
        sub = StableSubordinator(0.5, t)
        got = integrate_against(lambda s: s ** -r, sub, SPEC)
        want = fractional_moment(sub, r)
        if abs(got - want) / want > 1e-8:
            failures.append(("quad", r, t, got, want))
        degenerate = fractional_moment(StableSubordinator(1.0, t), r)
        if degenerate != t ** -r:
            failures.append(("degenerate", r, t))
    report_line(2, "fractional-moment formula", failures)


def test_criterion_03_exp_moment_series():
    failures = []
    for t in (1.0, 2.0):
        radius = t * t / 4.0
        for frac in (0.3, 0.9):
            delta = frac * radius
            sub = StableSubordinator(0.5, t)
            series = exp_moment(sub, delta, 1.0, SPEC)
            oracle = integrate_against(
                lambda s: math.exp(delta / s), sub, SPEC
            )
            if not series.converged:
                failures.append(("should converge", t, delta))
            elif abs(series.value - oracle) / oracle > 1e-6:
                failures.append(("value", t, delta, series.value, oracle))
        for frac in (1.1, 5.0):
            res = exp_moment(StableSubordinator(0.5, t), frac * radius, 1.0, SPEC)
            if res.converged:
                failures.append(("should diverge", t, frac * radius))
    report_line(3, "exponential-moment series with exact radius", failures)


def test_criterion_04_bound_chain():
    failures = []
    grid = itertools.product((1.5, 2.0, 4.0), (0.6, 0.75, 0.9),
                             (0.5, 1.0, 2.0), (0.1, 1.0), (0.0, 1.0))
    for p, alpha, t, H, eps in grid:
        profile = HarnackProfile(kappa=1.0, epsilon=eps, H_value=H)
        moment = exp_moment(StableSubordinator(alpha, t), H / (p - 1.0),
                            1.0, SPEC)
        if not moment.converged:
            failures.append(("non-convergent moment", p, alpha, t, H))
            continue
        log_transfer = eps * H + (p - 1.0) * moment.log_value
        log_inter = log_thm11_intermediate_factor(p, profile, alpha, t)
        log_simple = log_thm11_factor(p, profile, alpha, t)
        if not (log_transfer <= log_inter + 1e-9
                and log_inter <= log_simple + 1e-9):
            failures.append((p, alpha, t, H, eps,
                             log_transfer, log_inter, log_simple))
    report_line(4, "power-Harnack factor chain ordering", failures)


def test_criterion_05_end_to_end_half_stable():
    base = gauss_heat(1)
    functions = [Indicator(-1.0, 0.5), GaussBump(0.0, 1.0),
                 ExpAffine(0.4, clip=1.2)]
    failures = []
    checked = 0
    for rho, t, p, f in itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0),
                                          (2.0, 4.0), functions):
        sub = StableSubordinator(0.5, t)
        x, y = [0.0], [rho]
        # oracle: the half-subordinated semigroup is the Cauchy kernel;
        # substituting z = x0 + t*tan(u) integrates the heavy tails exactly
        for point in (x, y):
            got = subordinated_apply(base, sub, f, point, SPEC)
            x0 = point[0]
            want, _ = quad(
                lambda u: float(f(x0 + t * math.tan(u))) / math.pi,
                -math.pi / 2, math.pi / 2,
                epsabs=1e-13, epsrel=1e-11, limit=300,
            )
            if abs(got - want) / max(abs(want), 1e-12) > 1e-8:
                failures.append(("oracle", rho, t, p, f.describe(), got, want))
        rep = check_subordinated_harnack(base, sub, p, x, y, f, "numeric", SPEC)
        if rep.valid_domain:
            checked += 1
            if not passes(rep, SPEC.rel_tol):
                failures.append(("bound", rho, t, p, f.describe(),
                                 rep.lhs, rep.rhs))
        elif "diverges" not in rep.detail:
            failures.append(("unexpected domain", rho, t, p, f.describe(),
                             rep.detail))
    if checked == 0:
        failures.append(("no in-domain grid points",))
    report_line(5, "end-to-end subordinated Harnack at the boundary index",
                failures)


def test_criterion_06_boundary_factor_discrepancy():
    base = gauss_heat(1)
    f = GaussBump(0.0, 1.0)
    held, discrepant, refused = 0, 0, 0
    failures = []
    for p, t, rho in itertools.product((1.5, 2.0, 4.0),
                                       (0.5, 1.0, 1.5, 2.0, 3.0),
                                       (0.5, 1.0, 2.0)):
        H = rho * rho
        valid, factor, q = prop13_factor(p, 1.0, H, t)
        from subharnack.verify import check_prop13

        rep = check_prop13(base, p, t, [0.0], [rho], f, SPEC)
        if valid and q < 1.0:
            held += 1
            if not (rep.valid_domain and passes(rep, SPEC.rel_tol)):
                failures.append(("should hold", p, t, rho, rep.lhs, rep.rhs))
        elif valid and q >= 1.0:
            discrepant += 1
            if rep.valid_domain or "diverges" not in rep.detail:
                failures.append(("discrepancy not confirmed", p, t, rho,
                                 rep.detail))
        else:
            refused += 1
            if rep.valid_domain:
                failures.append(("should be refused", p, t, rho))
    if held == 0 or discrepant == 0 or refused == 0:
        failures.append(("window coverage", held, discrepant, refused))
    report_line(6, "boundary-index factor incl. discrepancy window", failures)


def test_criterion_07_log_harnack():
    base = gauss_heat(1)
    f = ShiftedForLog(GaussBump(0.0, 1.0), 1.0)
    failures = []
    for alpha, t, rho in itertools.product((0.3, 0.5, 0.75, 1.0),
                                           (0.5, 1.0, 2.0), (0.5, 1.0)):
        sub = StableSubordinator(alpha, t)
        rep = check_log_harnack(base, sub, [0.0], [rho], f, SPEC)
        if rep.lhs > rep.rhs + 10 * SPEC.rel_tol * abs(rep.rhs):
            failures.append((alpha, t, rho, rep.lhs, rep.rhs))
    # degenerate additive term is exactly H/t
    for t in (0.5, 1.0, 2.0):
        H = 0.25
        if log_harnack_term(1.0, 1.0, 0.0, H, t) != H / t:
            failures.append(("alpha=1 term", t))
    report_line(7, "log-Harnack inequality", failures)


def test_criterion_08_ondiag_rates():
    failures = []
    ts = (0.1, 0.3, 1.0, 3.0, 10.0)
    for d in (1, 2):
        for alpha in (0.5, 0.7, 1.0):
            rep = check_ondiag_rate(d, alpha, ts, SPEC)
            if not passes(rep, SPEC.rel_tol):
                failures.append((d, alpha, rep.detail))
    report_line(8, "on-diagonal decay rates", failures)


def test_criterion_09_entropy_kernel():
    base = ou1d()
    failures = []
    for alpha, t, (x, y) in itertools.product(
            (0.5, 1.0), (0.5, 1.0), ((0.3, -0.2), (0.0, 1.0))):
        rep = check_entropy_kernel(base, StableSubordinator(alpha, t),
                                   [x], [y], SPEC)
        if not passes(rep, 1e-8):
            failures.append((alpha, t, x, y, rep.lhs, rep.rhs))
    report_line(9, "relative-entropy kernel bound", failures)


def test_criterion_10_entropy_cost():
    base = ou1d()
    failures = []
    for alpha, t, shift in itertools.product((0.5, 1.0), (0.5, 1.0),
                                             (0.25, 0.5)):
        rep = check_entropy_cost(base, StableSubordinator(alpha, t),
                                 shift, SPEC)
        if not passes(rep, 1e-8):
            failures.append((alpha, t, shift, rep.lhs, rep.rhs))
    report_line(10, "entropy-cost bound via quantile coupling", failures)


def test_criterion_11_sweep_determinism(clear_memos):
    import importlib.resources as resources

    text = resources.files("subharnack").joinpath(
        "data/default_sweep.json").read_text()
    failures = []
    cfg1 = SweepConfig.from_dict(json.loads(text))
    cfg2 = SweepConfig.from_dict(json.loads(text))
    rep1 = run_sweep(cfg1, threads=1)
    clear_memos()  # the second run recomputes every value
    rep2 = run_sweep(cfg2, threads=2)
    j1 = json.dumps(rep1.to_dict(), indent=2, sort_keys=True)
    j2 = json.dumps(rep2.to_dict(), indent=2, sort_keys=True)
    if j1 != j2:
        failures.append(("reports differ",))
    if rep1.violated != 0:
        failures.append(("default sweep violations", rep1.summary))
    report_line(11, "deterministic sweep reports", failures)
