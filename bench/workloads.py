"""The benchmark's workloads, built from a seed.

``harnack_grid`` and ``oracle_queries`` each return a list of operations:
a thunk that calls into the library's public functions, and a judge that
says whether its outcome is right. ``default_sweep`` is the shipped
sweep configuration. The library only ever sees the generated values;
the seed stays here.

Tolerances are the ones pinned in ``tests/test_acceptance.py``: 1e-8
relative for quadrature against a closed form, 1e-9 in log for the
factor chain, and 4 standard errors for the Monte Carlo Laplace check.
"""

import importlib.resources
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from subharnack import bounds, semigroup, subordinator, verify
from subharnack.bounds import HarnackProfile
from subharnack.subordinator import MCSpec, QuadratureSpec, StableSubordinator

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
QUAD_REL_TOL = 1e-8
CHAIN_LOG_TOL = 1e-9
DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Outcome:
    """How one operation ended: ``ok`` is False when it raised, missed its
    oracle or returned a violated entry; ``digits`` is -log10 of the
    relative error against a closed-form oracle, where there is one."""

    ok: bool
    reason: str = ""
    digits: Optional[float] = None


@dataclass(frozen=True)
class Op:
    kind: str  # the check or query type; failures are tallied under it
    run: Callable[[], object]
    judge: Callable[[object], Outcome]


def _digits(got, want):
    err = abs(got - want) / abs(want)
    return DIGITS_CAP if err == 0.0 else min(DIGITS_CAP, -math.log10(err))


def _against(want, tol):
    def judge(got):
        digits = _digits(got, want)
        if not abs(got - want) <= tol * abs(want):
            return Outcome(False, f"oracle miss: got {got!r} want {want!r}", digits)
        return Outcome(True, digits=digits)
    return judge


# --- harnack_grid and default_sweep judges --------------------------------

def banded(rel_tol):
    def judge(rep):
        if verify.passes(rep, rel_tol):
            return Outcome(True)
        return Outcome(False, f"violated: lhs={rep.lhs!r} rhs={rep.rhs!r}")
    return judge


def _judge_log_harnack(rep):
    # both sides can be negative, so the band is additive
    if rep.lhs <= rep.rhs + 10.0 * SPEC.rel_tol * abs(rep.rhs):
        return Outcome(True)
    return Outcome(False, f"violated: lhs={rep.lhs!r} rhs={rep.rhs!r}")


def _judge_laplace_mc(rep):
    if rep.lhs <= rep.rhs:  # |mean - exact| within 4 standard errors
        return Outcome(True)
    return Outcome(False, f"outside 4 standard errors: {rep.detail}")


# --- default_sweep -------------------------------------------------------

DEFAULT_SWEEP_SUMMARY = {"holds": 223, "violated": 0, "out_of_domain": 56,
                         "non_converged": 24}
DEFAULT_SWEEP_ENTRIES = 303


def default_sweep_config():
    """The shipped configuration; the seed does not enter it."""
    text = importlib.resources.files("subharnack").joinpath(
        "data/default_sweep.json").read_text()
    return verify.SweepConfig.from_dict(json.loads(text))


# --- harnack_grid ----------------------------------------------------------

GRID_ALPHAS = (0.55, 0.6, 0.7, 0.8, 0.9)
GRID_TS = (0.5, 1.0, 2.0)
GRID_PS = (2.0, 4.0)
GRID_PAIRS = ((0.0, 0.5), (0.0, 1.0))
GRID_MODES = ("numeric", "intermediate", "simplified")
RATE_TS = (0.1, 0.3, 1.0, 3.0, 10.0)
ENTROPY_ALPHAS = (0.6, 0.9)  # nested quadratures, ~0.4 s a pair
MC_DRAWS = 200_000


def _grid_functions():
    # closed Gaussian expectations only, so no inner Gaussian quadrature runs
    return (semigroup.Indicator(-1.0, 1.0), semigroup.GaussBump(0.0, 1.0),
            semigroup.ExpAffine(0.4, clip=1.2))


def harnack_grid(seed):
    """All eight checks over a discrete alpha grid that excludes 1/2.

    The alpha values repeat across entries, so the density memo serves
    almost every node; the seed only picks the Monte Carlo streams.
    """
    base = semigroup.gauss_heat(1)
    ou = semigroup.ou1d()
    fs = _grid_functions()
    rel = SPEC.rel_tol
    ops = []

    def add(check, judge, *args):
        # looked up at call time, so that a tracer's rebinding is seen
        ops.append(Op(check, lambda: getattr(verify, f"check_{check}")(*args), judge))

    for t, p, (x, y), f in itertools.product(GRID_TS, GRID_PS, GRID_PAIRS, fs):
        add("base_harnack", banded(rel), base, p, t, [x], [y], f, SPEC)
    for a, t, p, (x, y), f, mode in itertools.product(
            GRID_ALPHAS, GRID_TS, GRID_PS, GRID_PAIRS, fs, GRID_MODES):
        add("subordinated_harnack", banded(rel),
            base, StableSubordinator(a, t), p, [x], [y], f, mode, SPEC)
    for t, p, (x, y), f in itertools.product(GRID_TS, GRID_PS, GRID_PAIRS, fs):
        add("prop13", banded(rel), base, p, t, [x], [y], f, SPEC)
    log_f = semigroup.ShiftedForLog(semigroup.Indicator(-1.0, 1.0), 1.0)
    for a, t, (x, y) in itertools.product(GRID_ALPHAS, GRID_TS, GRID_PAIRS):
        add("log_harnack", _judge_log_harnack,
            base, StableSubordinator(a, t), [x], [y], log_f, SPEC)
    for d, a in itertools.product((1, 2), GRID_ALPHAS):
        add("ondiag_rate", banded(rel), d, a, RATE_TS, SPEC)
    for a in ENTROPY_ALPHAS:
        add("entropy_kernel", banded(1e-8),
            ou, StableSubordinator(a, 1.0), [0.0], [0.5], SPEC)
        add("entropy_cost", banded(1e-8), ou, StableSubordinator(a, 1.0), 0.5, SPEC)
    rng = random.Random(seed)
    for a, t in itertools.product(GRID_ALPHAS, GRID_TS):
        mc = MCSpec(MC_DRAWS, rng.getrandbits(32))
        add("laplace_mc", _judge_laplace_mc, StableSubordinator(a, t), 1.0, mc)
    return ops


# --- oracle_queries ----------------------------------------------------------

N_DENSITY = 300
N_LAPLACE = 30
N_MOMENT = 24
N_EXP_MOMENT = 40
N_CHAIN = 60
EXP_MOMENT_MAX_FRAC = 0.9996


def _strata(rng, n, lo, hi, log=False):
    """n values, one uniform draw in each of n equal slices of [lo, hi]
    (of [log lo, log hi] with ``log``), in random order. Stratifying keeps
    a pass's total cost from swinging with the seed while every value
    stays continuous."""
    if log:
        return [math.exp(v) for v in _strata(rng, n, math.log(lo), math.log(hi))]
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _laplace_queries(rng, n):
    for a, t, x in zip(_strata(rng, n, 0.3, 0.95), _strata(rng, n, 0.5, 2.0, True),
                       _strata(rng, n, 0.1, 10.0, True)):
        sub = StableSubordinator(a, t)
        yield Op("laplace",
                 lambda sub=sub, x=x: subordinator.integrate_against(
                     lambda s: math.exp(-x * s), sub, SPEC),
                 _against(math.exp(-t * x ** a), QUAD_REL_TOL))


def _moment_queries(rng, n):
    for a, t, r in zip(_strata(rng, n, 0.3, 0.95), _strata(rng, n, 0.5, 2.0, True),
                       _strata(rng, n, 0.5, 3.0)):
        sub = StableSubordinator(a, t)
        want = math.exp(math.lgamma(r / a) - math.log(a) - math.lgamma(r)
                        - (r / a) * math.log(t))
        yield Op("fractional_moment",
                 lambda sub=sub, r=r: subordinator.integrate_against(
                     lambda s: s ** -r, sub, SPEC),
                 _against(want, QUAD_REL_TOL))


def _density_queries(rng, n):
    # alpha = 1/2 turns the heat kernel into the Cauchy/Poisson kernel
    dims = [1 + i % 3 for i in range(n)]
    rng.shuffle(dims)
    for d, t, rho in zip(dims, _strata(rng, n, 0.5, 2.0), _strata(rng, n, 0.0, 2.0)):
        x = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        u = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(c * c for c in u))
        y = [xi + rho * ui / norm for xi, ui in zip(x, u)]
        base, sub = semigroup.gauss_heat(d), StableSubordinator(0.5, t)

        def judge(got, d=d, t=t, x=x, y=y):
            want = semigroup.cauchy_closed_form(d, t, x, y)
            return _against(want, QUAD_REL_TOL)(got)
        yield Op("subordinated_density",
                 lambda base=base, sub=sub, x=x, y=y:
                 semigroup.subordinated_density(base, sub, x, y, SPEC), judge)


def _exp_moment_queries(rng, n):
    # E exp(delta/S_t) = t / (2 sqrt(t^2/4 - delta)) at alpha = 1/2
    for t, frac in zip(_strata(rng, n, 0.5, 2.0),
                       _strata(rng, n, 0.0, EXP_MOMENT_MAX_FRAC)):
        delta = frac * t * t / 4.0
        want = t / (2.0 * math.sqrt(t * t / 4.0 - delta))
        sub = StableSubordinator(0.5, t)

        def judge(res, check=_against(want, QUAD_REL_TOL)):
            if not res.converged:
                return Outcome(False, f"reported divergent: {res.divergence_reason}")
            return check(res.value)
        yield Op("exp_moment",
                 lambda sub=sub, delta=delta: subordinator.exp_moment(
                     sub, delta, 1.0, SPEC), judge)


def _chain_queries(rng, n):
    # numeric transfer factor <= intermediate <= simplified, in log
    for a, p, t, H in zip(_strata(rng, n, 0.55, 0.95), _strata(rng, n, 1.5, 4.0),
                          _strata(rng, n, 0.5, 2.0), _strata(rng, n, 0.1, 1.0, True)):
        eps = rng.choice((0.0, 1.0))
        profile = HarnackProfile(kappa=1.0, epsilon=eps, H_value=H)
        sub = StableSubordinator(a, t)

        def run(sub=sub, a=a, p=p, t=t, H=H, eps=eps, profile=profile):
            moment = subordinator.exp_moment(sub, H / (p - 1.0), 1.0, SPEC)
            return (moment.converged, eps * H + (p - 1.0) * moment.log_value,
                    bounds.log_thm11_intermediate_factor(p, profile, a, t),
                    bounds.log_thm11_factor(p, profile, a, t))
        yield Op("factor_chain", run, _judge_chain)


def _judge_chain(res):
    converged, log_transfer, log_inter, log_simple = res
    if not (converged and log_transfer <= log_inter + CHAIN_LOG_TOL
            and log_inter <= log_simple + CHAIN_LOG_TOL):
        return Outcome(False, f"chain out of order: {res!r}")
    return Outcome(True)


def oracle_queries(seed):
    """Independent single-value queries with alpha drawn continuously,
    each checked against a closed form; inputs share little work."""
    rng = random.Random(seed)
    ops = [*_density_queries(rng, N_DENSITY), *_laplace_queries(rng, N_LAPLACE),
           *_moment_queries(rng, N_MOMENT), *_exp_moment_queries(rng, N_EXP_MOMENT),
           *_chain_queries(rng, N_CHAIN)]
    rng.shuffle(ops)
    return ops


OP_WORKLOADS = {"harnack_grid": harnack_grid, "oracle_queries": oracle_queries}
