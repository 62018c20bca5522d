"""Inequality checkers: closed-form bounds against quadrature truth.

Each check evaluates both sides of one inequality on a concrete base
semigroup and returns a BoundReport whose ``status`` it sets itself:
``out_of_domain`` where the inequality's hypotheses fail,
``non_converged`` where the exponential-moment series it needs diverges,
and otherwise ``holds`` when lhs <= rhs * (1 + 10 * rel_tol) (the band of
``passes``, since both sides carry quadrature error) and ``violated``
when not. ``run_sweep`` runs the checks serially over a parameter grid
and counts the statuses; only ``violated`` entries count as violations.

No check integrates adaptively: the entropy checks sum over z by one
fixed rule (``_z_rule``), and ``entropy_cost`` takes its transport cost
in closed form.

Harnack profiles for the concrete bases (kappa = 1 throughout):

* heat kernel on R^d (K = 0): power profile H = rho^2, eps = 0, valid
  for p >= 4/3 (so that the true exponent p*rho^2/(4(p-1)t) is dominated
  by H * t^(-1)); log profile H = rho^2/4, eps = 0, the p -> infinity
  limit of the base exponent.
* 1-d Ornstein-Uhlenbeck (K = -1): the true exponent
  p*rho^2/(2(p-1)(1 - e^(-2t))) is enveloped time-uniformly using
  1/(1 - e^(-2t)) <= 1 + 1/t, giving the power profile
  H = p*rho^2/(2(p-1)), eps = 1 and the log profile H = rho^2/2,
  eps = 1.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad  # unused; bench/tracer.py rebinds it here

from .bounds import (
    STATUSES,
    BoundReport,
    HarnackProfile,
    _exp_or_inf,
    base_harnack_exponent,
    log_harnack_term,
    log_thm11_factor,
    log_thm11_intermediate_factor,
    log_transfer_factor,
    prop13_factor,
)
from .semigroup import (
    _kernel_density_at,
    BaseKernel,
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
    subordinated_apply,
)
from .subordinator import (
    MCSpec,
    QuadratureSpec,
    StableSubordinator,
    _OnArrays,
    _panel_nodes,
    exp_moment,
    integrate_against,
    laplace,
    sample,
)

__all__ = [
    "SweepConfig",
    "SweepReport",
    "power_profile",
    "log_profile",
    "check_base_harnack",
    "check_subordinated_harnack",
    "check_prop13",
    "check_log_harnack",
    "check_ondiag_rate",
    "check_entropy_kernel",
    "check_entropy_cost",
    "check_laplace_mc",
    "run_sweep",
    "KNOWN_CHECKS",
]

_TOL_MULT = 10.0


def _rho_sq(x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(np.sum((x - y) ** 2))


def power_profile(base, p, rho_sq):
    """(H, eps, kappa) instance of the base power-Harnack hypothesis.

    Returns (profile, in_domain); for the heat kernel the profile is
    only valid for p >= 4/3.
    """
    if base.kind == "gauss_heat":
        return HarnackProfile(kappa=1.0, epsilon=0.0, H_value=rho_sq, K=0.0), p >= 4.0 / 3.0
    H = p * rho_sq / (2.0 * (p - 1.0))
    return HarnackProfile(kappa=1.0, epsilon=1.0, H_value=H, K=-1.0), True


def log_profile(base, rho_sq):
    """(H, eps, kappa) instance of the base log-Harnack hypothesis."""
    if base.kind == "gauss_heat":
        return HarnackProfile(kappa=1.0, epsilon=0.0, H_value=rho_sq / 4.0, K=0.0)
    return HarnackProfile(kappa=1.0, epsilon=1.0, H_value=rho_sq / 2.0, K=-1.0)


def _verdict(lhs, rhs, rel_tol):
    """Status of an in-domain entry: ``holds`` within the band of ``passes``."""
    return "holds" if lhs <= rhs * (1.0 + _TOL_MULT * rel_tol) else "violated"


def _report(lhs, rhs, method, detail, rel_tol, params, log_rhs=None):
    """In-domain report. ``log_rhs`` defaults to log(rhs); a caller that
    formed rhs in log domain passes its log, which stays finite where rhs
    is inf."""
    if log_rhs is None:
        log_rhs = math.log(rhs) if rhs > 0 else -math.inf
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        valid_domain=True,
        method=method,
        status=_verdict(lhs, rhs, rel_tol),
        detail=detail,
        log_lhs=math.log(lhs) if lhs > 0 else -math.inf,
        log_rhs=log_rhs,
        params=params,
    )


def _power_report(lhs, log_factor, rhs_p, method, detail, rel_tol, params):
    """In-domain report of lhs <= factor * P f^p(y), with rhs formed in
    logs from ``log_factor`` and rhs_p = P f^p(y): the factor alone can
    pass float range while log rhs stays finite, and rhs is then inf."""
    log_rhs = log_factor + math.log(rhs_p) if rhs_p > 0 else -math.inf
    return _report(lhs, _exp_or_inf(log_rhs), method, detail, rel_tol, params,
                   log_rhs=log_rhs)


def _unchecked(status, method, detail, params):
    """Report of an entry whose inequality was not evaluated: ``status``
    is ``out_of_domain`` or ``non_converged``."""
    return BoundReport(lhs=math.inf, rhs=math.inf, slack=math.nan,
                       valid_domain=False, method=method, status=status,
                       detail=detail, log_lhs=math.inf, log_rhs=math.inf,
                       params=params)


def passes(report, rel_tol):
    """True unless the report is an in-domain violation beyond tolerance."""
    return not report.valid_domain or _verdict(report.lhs, report.rhs, rel_tol) == "holds"


# --- checks ------------------------------------------------------------

def check_base_harnack(base, p, t, x, y, f, spec=QuadratureSpec()):
    """(P_t f(x))^p <= exp(base exponent) * P_t f^p(y)."""
    rho_sq = _rho_sq(x, y)
    lhs = apply(base, f, t, x, spec) ** p
    expo = base_harnack_exponent(p, base.curvature_K, t, rho_sq)
    rhs_p = apply(base, f.pow(p), t, y, spec)
    params = {"check": "base_harnack", "p": p, "t": t, "x": float(np.atleast_1d(x)[0]),
              "y": float(np.atleast_1d(y)[0]), "f": f.describe()}
    return _power_report(lhs, expo, rhs_p, "quadrature", "", spec.rel_tol, params)


def check_subordinated_harnack(base, sub, p, x, y, f, mode="numeric",
                               spec=QuadratureSpec()):
    """(P_t^alpha f(x))^p <= factor(mode) * P_t^alpha f^p(y).

    mode 'numeric' uses the exact transfer factor built from the
    exponential moment series; 'intermediate' and 'simplified' use the
    closed-form factors (in-domain only for alpha > kappa/(kappa+1)).
    """
    if mode not in ("numeric", "intermediate", "simplified"):
        raise ValueError(f"unknown mode {mode!r}")
    t = sub.t
    alpha = sub.alpha
    params = {"check": "subordinated_harnack", "alpha": alpha, "p": p, "t": t,
              "x": float(np.atleast_1d(x)[0]), "y": float(np.atleast_1d(y)[0]),
              "f": f.describe(), "mode": mode}
    if sub.degenerate:
        rep = check_base_harnack(base, p, t, x, y, f, spec)
        return _report(rep.lhs, rep.rhs, rep.method,
                       "alpha=1 reduces to base inequality", spec.rel_tol, params,
                       log_rhs=rep.log_rhs)
    profile, in_domain = power_profile(base, p, _rho_sq(x, y))
    kappa = params["kappa"] = profile.kappa
    if not in_domain:
        return _unchecked("out_of_domain", "closed-form",
                          "profile requires p >= 4/3 for the heat kernel", params)
    if mode == "numeric":
        moment = exp_moment(sub, profile.H_value / (p - 1.0), kappa, spec)
        if not moment.converged:
            return _unchecked("non_converged", "series",
                              f"exponential moment diverges: {moment.divergence_reason}",
                              params)
        log_factor, method = log_transfer_factor(p, profile, moment), "series"
    elif not (kappa / (kappa + 1.0) < alpha < 1.0):
        return _unchecked("out_of_domain", "closed-form",
                          "alpha outside (kappa/(kappa+1), 1)", params)
    else:
        factor = (log_thm11_intermediate_factor if mode == "intermediate"
                  else log_thm11_factor)
        log_factor, method = factor(p, profile, alpha, t), "closed-form"
    lhs = subordinated_apply(base, sub, f, x, spec) ** p
    rhs_p = subordinated_apply(base, sub, f.pow(p), y, spec)
    return _power_report(lhs, log_factor, rhs_p, method, "", spec.rel_tol, params)


def check_prop13(base, p, t, x, y, f, spec=QuadratureSpec()):
    """Boundary-index (alpha = 1/2, kappa = 1) factor on the heat kernel.

    Checks the closed-form factor when both the sufficient condition and
    the exact term-ratio test admit it; when the sufficient condition
    holds but the exact ratio is >= 1 the underlying moment integral
    diverges and a discrepancy-tagged out-of-domain report is emitted.
    """
    if base.kind != "gauss_heat":
        raise ValueError("the boundary-case check is set up on the heat kernel")
    sub = StableSubordinator(alpha=0.5, t=t)
    profile, in_domain = power_profile(base, p, _rho_sq(x, y))
    kappa = profile.kappa
    params = {"check": "prop13", "alpha": 0.5, "kappa": kappa, "p": p, "t": t,
              "x": float(np.atleast_1d(x)[0]), "y": float(np.atleast_1d(y)[0]),
              "f": f.describe()}
    if not in_domain:
        return _unchecked("out_of_domain", "closed-form",
                          "profile requires p >= 4/3 for the heat kernel", params)
    valid, factor, q = prop13_factor(p, kappa, profile.H_value, t)
    if valid and q >= 1.0:
        moment = exp_moment(sub, profile.H_value / (p - 1.0), kappa, spec)
        detail = ("discrepancy: sufficient condition holds but exact term "
                  f"ratio q={q:.6g} >= 1; moment series "
                  f"{'diverges' if not moment.converged else 'CONVERGED (unexpected)'}")
        # a convergent series here contradicts the ratio test; the entry
        # stays outside the checked domain
        status = "out_of_domain" if moment.converged else "non_converged"
        return _unchecked(status, "series", detail, params)
    if not valid:
        return _unchecked("out_of_domain", "closed-form",
                          "sufficient condition fails", params)
    lhs = subordinated_apply(base, sub, f, x, spec) ** p
    rhs_p = subordinated_apply(base, sub, f.pow(p), y, spec)
    return _power_report(lhs, profile.epsilon * profile.H_value + math.log(factor),
                         rhs_p, "closed-form", f"exact_ratio={q:.6g}",
                         spec.rel_tol, params)


def check_log_harnack(base, sub, x, y, f, spec=QuadratureSpec()):
    """P_t^alpha log f(x) <= log P_t^alpha f(y) + H*(eps + moment term)."""
    if not isinstance(f, ShiftedForLog):
        raise ValueError("log-Harnack needs f >= 1; wrap the test function "
                         "in ShiftedForLog")
    t = sub.t
    rho_sq = _rho_sq(x, y)
    profile = log_profile(base, rho_sq)
    lhs = subordinated_apply(base, sub, f.log(), x, spec)
    term = log_harnack_term(sub.alpha, profile.kappa, profile.epsilon,
                            profile.H_value, t)
    rhs = math.log(subordinated_apply(base, sub, f, y, spec)) + term
    params = {"check": "log_harnack", "alpha": sub.alpha, "kappa": profile.kappa,
              "t": t, "x": float(np.atleast_1d(x)[0]),
              "y": float(np.atleast_1d(y)[0]), "f": f.describe()}
    # both sides can be negative; report raw values, the slack carries the check
    return BoundReport(lhs=lhs, rhs=rhs, slack=rhs - lhs, valid_domain=True,
                       method="quadrature",
                       status=_verdict(lhs, rhs, spec.rel_tol),
                       detail=f"additive term={term:.12g}", params=params)


def check_ondiag_rate(d, alpha, ts, spec=QuadratureSpec()):
    """Fitted decay rate of the on-diagonal kernel value vs t.

    Fits log p_t(x, x) against log t; holds when the slope matches
    -d/(2*alpha) within 2 percent. At alpha = 1/2 the values themselves
    are additionally checked against the Poisson-kernel diagonal to
    relative 1e-6.
    """
    ts = sorted(float(t) for t in ts)
    if len(ts) < 3 or ts[-1] / ts[0] < 99.0:
        raise ValueError("need a t-grid spanning at least two decades")
    base = gauss_heat(d)
    x = np.zeros(d)
    vals = [ondiag(base, StableSubordinator(alpha, t), x, spec) for t in ts]
    slope, intercept = np.polyfit(np.log(ts), np.log(vals), 1)
    target = -d / (2.0 * alpha)
    rel_slope_err = abs(slope - target) / abs(target)
    metrics = [(rel_slope_err, 0.02, "slope")]
    detail = f"slope={slope:.8g} target={target:.8g} intercept={intercept:.8g}"
    if alpha == 0.5:
        exact = [cauchy_closed_form(d, t, x, x) for t in ts]
        val_err = max(abs(v - e) / e for v, e in zip(vals, exact))
        metrics.append((val_err, 1e-6, "diagonal value vs Poisson kernel"))
        detail += f" max_value_rel_err={val_err:.3g}"
    err, tol, which = max(metrics, key=lambda m: m[0] / m[1])
    params = {"check": "ondiag_rate", "alpha": alpha, "d": d,
              "t": ts[0], "f": "", "criterion": which}
    return BoundReport(lhs=err, rhs=tol, slack=tol - err, valid_domain=True,
                       method="quadrature", status=_verdict(err, tol, spec.rel_tol),
                       detail=detail, params=params)


# The entropy checks' z integrals: one fixed composite 16-point
# Gauss-Legendre rule on unit panels over a window that reaches _Z_PAD
# past every point the integrand is centred on. Out there each integrand
# is a Gaussian tail below about exp(-_Z_PAD^2/2) = 3e-43.
_Z_PAD = 14.0


def _z_rule(lo, hi, breaks=()):
    """Nodes and weights of the z rule on [lo, hi]: unit panels, with
    extra breaks at ``breaks``."""
    edges = np.linspace(lo, hi, math.ceil(hi - lo) + 1)
    return _panel_nodes(np.union1d(edges, breaks))


def _on_z(sub, fn):
    """int fn(s)[:, j] mu_t(ds) for every z node j at once: fn maps the
    column of the law rule's nodes s to a (law nodes x z nodes) array."""
    return integrate_against(_OnArrays(lambda s: fn(np.asarray(s)[..., None])), sub)


def check_entropy_kernel(base, sub, x, y, spec=QuadratureSpec()):
    """Relative entropy between time-changed OU kernels vs the additive term.

    The entropy int q_x log(q_x / q_y) dz is summed by the fixed z rule
    over [min(x, y, 0) - 14, max(x, y, 0) + 14], broken at x and y, with
    both time-changed densities taken on all its nodes at once.
    """
    if base.kind != "ou1d":
        raise ValueError("the entropy-kernel check requires the OU base "
                         "(it needs an invariant probability measure)")
    x = float(np.atleast_1d(x)[0])
    y = float(np.atleast_1d(y)[0])
    z, wz = _z_rule(min(x, y, 0.0) - _Z_PAD, max(x, y, 0.0) + _Z_PAD, (x, y))

    def q(x0):
        # Lebesgue density of the time-changed OU kernel from x0 at every z
        return np.maximum(_on_z(sub, lambda s: _kernel_density_at(
            base, s, x0, z, None, np)), 1e-300)

    qx, qy = q(x), q(y)
    lhs = float(wz @ (qx * np.log(qx / qy)))
    profile = log_profile(base, (x - y) ** 2)
    rhs = log_harnack_term(sub.alpha, profile.kappa, profile.epsilon,
                           profile.H_value, sub.t)
    params = {"check": "entropy_kernel", "alpha": sub.alpha,
              "kappa": profile.kappa, "t": sub.t, "x": x, "y": y, "f": ""}
    return _report(lhs, rhs, "quadrature", "", spec.rel_tol, params)


def check_entropy_cost(base, sub, shift, spec=QuadratureSpec()):
    """Entropy of the adjoint action on a shifted-Gaussian density ratio
    vs the quantile-coupling transport cost times the additive term.

    The OU kernel is reversible w.r.t. its invariant Gaussian, so the
    adjoint equals the semigroup; g(z) = exp(m*z - m^2/2) is the density
    of N(m, 1) relative to N(0, 1). The entropy int phi P_t g log P_t g dz
    is summed by the fixed z rule over +-(14 + |m|), with P_t g taken on
    all its nodes at once. The transport cost of the OU log profile's
    H(a, b) = (a - b)^2/2 takes the place of H(x, y); the quantile coupling
    of N(m, 1) and N(0, 1) moves every quantile by m, so it is m^2/2.
    """
    if base.kind != "ou1d":
        raise ValueError("the entropy-cost check requires the OU base")
    m = float(shift)
    t = sub.t
    z, wz = _z_rule(-_Z_PAD - abs(m), _Z_PAD + abs(m))
    g = _on_z(sub, lambda s: np.exp(m * np.exp(-s) * z
                                    - 0.5 * m * m * np.exp(-2.0 * s)))
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    lhs = float(wz @ (phi * g * np.log(np.maximum(g, 1e-300))))
    profile = log_profile(base, 0.0)
    w_cost = 0.5 * m * m
    rhs = log_harnack_term(sub.alpha, profile.kappa, profile.epsilon, w_cost, t)
    params = {"check": "entropy_cost", "alpha": sub.alpha, "kappa": profile.kappa,
              "t": t, "x": m, "y": 0.0, "f": "gaussian-shift"}
    return _report(lhs, rhs, "quadrature", f"W_H={w_cost:.12g}", spec.rel_tol,
                   params)


def check_laplace_mc(sub, x_probe, mc):
    """Monte Carlo Laplace-transform identity at x_probe, 4-standard-error band."""
    rng = np.random.default_rng(mc.seed)
    s = sample(sub, rng, size=mc.n_samples)
    vals = np.exp(-x_probe * s)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(mc.n_samples))
    exact = laplace(sub, x_probe)
    err, band = abs(mean - exact), 4.0 * se
    params = {"check": "laplace_mc", "alpha": sub.alpha, "t": sub.t,
              "x": x_probe, "f": ""}
    # no quadrature error to allow for: the band is the 4-SE band itself
    return BoundReport(lhs=err, rhs=band, slack=band - err, valid_domain=True,
                       method="monte-carlo", status=_verdict(err, band, 0.0),
                       detail=f"mean={mean:.12g} exact={exact:.12g} se={se:.3g}",
                       params=params)


# --- sweep -------------------------------------------------------------

def _mc_stream(config, i, j):
    """Seed of the Monte Carlo stream of the laplace_mc entry at the i-th
    alpha below 1 and the j-th t. ``config.seed`` enters through an odd
    multiplier, so seeds that differ mod 2**32 give different streams,
    and seed 0 keeps the stream that ``mc.seed`` alone gives."""
    return ((config.mc.seed * 1000003 + i * 1009 + j)
            ^ (config.seed * 0x9E3779B1)) & 0xFFFFFFFF


# One row per check, in entry order: its name, its axes (outermost first,
# as values taken from the config) and the builder of one entry from the
# config and one value per axis. Builders look each check_* up at call
# time, so a rebinding of the module attribute sees every call.
_SWEEP = (
    ("base_harnack",
     lambda c: (c.ps, c.ts, c.point_pairs, c.functions),
     lambda c, p, t, xy, f: check_base_harnack(c.base, p, t, *xy, f, c.quadrature)),
    ("subordinated_harnack",
     lambda c: (c.alphas, c.ps, c.ts, c.point_pairs, c.functions,
                ("numeric", "intermediate", "simplified")),
     lambda c, a, p, t, xy, f, mode: check_subordinated_harnack(
         c.base, StableSubordinator(a, t), p, *xy, f, mode, c.quadrature)),
    ("prop13",
     lambda c: (c.ps, c.ts, c.point_pairs, c.functions),
     lambda c, p, t, xy, f: check_prop13(c.base, p, t, *xy, f, c.quadrature)),
    ("log_harnack",
     lambda c: (c.alphas, c.ts, c.point_pairs, c.functions),
     lambda c, a, t, xy, f: check_log_harnack(
         c.base, StableSubordinator(a, t), *xy,
         f if isinstance(f, ShiftedForLog) else ShiftedForLog(f, 1.0), c.quadrature)),
    ("ondiag_rate",
     lambda c: (c.alphas,),
     lambda c, a: check_ondiag_rate(c.base.d if c.base.kind == "gauss_heat" else 1,
                                    a, c.rate_ts, c.quadrature)),
    ("entropy_kernel",
     lambda c: (c.alphas, c.ts, c.point_pairs),
     lambda c, a, t, xy: check_entropy_kernel(ou1d(), StableSubordinator(a, t),
                                              *xy, c.quadrature)),
    ("entropy_cost",
     lambda c: (c.alphas, c.ts, c.point_pairs),
     lambda c, a, t, xy: check_entropy_cost(ou1d(), StableSubordinator(a, t),
                                            min(abs(xy[0] - xy[1]), 0.5), c.quadrature)),
    # the positions of alpha and t enter the Monte Carlo stream seed
    ("laplace_mc",
     lambda c: (enumerate(a for a in c.alphas if a < 1.0), enumerate(c.ts)),
     lambda c, ia, jt: check_laplace_mc(
         StableSubordinator(ia[1], jt[1]), 1.0,
         MCSpec(c.mc.n_samples, _mc_stream(c, ia[0], jt[0])))),
)

KNOWN_CHECKS = tuple(name for name, _, _ in _SWEEP)

_FUNCTION_KINDS = {
    "constant": lambda d: Constant(d.get("c", 1.0)),
    "gauss_bump": lambda d: GaussBump(d.get("center", 0.0), d.get("width", 1.0)),
    "indicator": lambda d: Indicator(d.get("lo", -1.0), d.get("hi", 1.0)),
    "exp_affine": lambda d: ExpAffine(d.get("slope", 1.0), d.get("clip")),
}


def _function_from_dict(spec_dict, path):
    if not isinstance(spec_dict, dict) or "kind" not in spec_dict:
        raise ValueError(f"{path}: expected an object with a 'kind' field")
    kind = spec_dict["kind"]
    if kind not in _FUNCTION_KINDS:
        raise ValueError(f"{path}.kind: unknown test function {kind!r}")
    allowed = {"constant": {"kind", "c"},
               "gauss_bump": {"kind", "center", "width"},
               "indicator": {"kind", "lo", "hi"},
               "exp_affine": {"kind", "slope", "clip"}}[kind]
    extra = set(spec_dict) - allowed
    if extra:
        raise ValueError(f"{path}: unknown parameter(s) {sorted(extra)}")
    return _FUNCTION_KINDS[kind](spec_dict)


@dataclass
class SweepConfig:
    base: BaseKernel
    alphas: list
    ts: list
    ps: list
    point_pairs: list
    functions: list
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    mc: Optional[MCSpec] = None
    checks: tuple = KNOWN_CHECKS[:-1]
    seed: int = 0
    rate_ts: tuple = (0.1, 0.3, 1.0, 3.0, 10.0)

    def validate(self):
        if not self.checks:
            raise ValueError("checks: must name at least one check")
        unknown = set(self.checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ValueError(f"checks: unknown {sorted(unknown)}")
        for name, lst in (("alphas", self.alphas), ("ts", self.ts),
                          ("ps", self.ps), ("point_pairs", self.point_pairs),
                          ("functions", self.functions)):
            if not lst:
                raise ValueError(f"{name}: must be non-empty")
        for a in self.alphas:
            if not (0.0 < a <= 1.0):
                raise ValueError(f"alphas: {a!r} outside (0, 1]")
        for p in self.ps:
            if p <= 1.0:
                raise ValueError(f"ps: {p!r} must be > 1")
        if "laplace_mc" in self.checks and self.mc is None:
            raise ValueError("laplace_mc requires the mc block")

    @classmethod
    def from_dict(cls, d):
        allowed = {"base", "alphas", "ts", "ps", "point_pairs", "functions",
                   "quadrature", "mc", "checks", "seed", "rate_ts"}
        extra = set(d) - allowed
        if extra:
            raise ValueError(f"config: unknown field(s) {sorted(extra)}")
        base_d = d.get("base", {"kind": "gauss_heat", "d": 1})
        extra_b = set(base_d) - {"kind", "d"}
        if extra_b:
            raise ValueError(f"config.base: unknown field(s) {sorted(extra_b)}")
        base = BaseKernel(base_d["kind"], base_d.get("d", 1))
        quad_d = d.get("quadrature", {})
        extra_q = set(quad_d) - {"rel_tol", "abs_tol", "max_subdivisions"}
        if extra_q:
            raise ValueError(f"config.quadrature: unknown field(s) {sorted(extra_q)}")
        mc_d = d.get("mc")
        mc = None
        if mc_d is not None:
            extra_m = set(mc_d) - {"n_samples", "seed"}
            if extra_m:
                raise ValueError(f"config.mc: unknown field(s) {sorted(extra_m)}")
            mc = MCSpec(n_samples=mc_d["n_samples"], seed=mc_d.get("seed", 0))
        funcs = [
            _function_from_dict(fd, f"config.functions[{i}]")
            for i, fd in enumerate(d.get("functions", []))
        ]
        cfg = cls(
            base=base,
            alphas=[float(a) for a in d.get("alphas", [])],
            ts=[float(t) for t in d.get("ts", [])],
            ps=[float(p) for p in d.get("ps", [])],
            point_pairs=[(float(a), float(b)) for a, b in d.get("point_pairs", [])],
            functions=funcs,
            quadrature=QuadratureSpec(**quad_d),
            mc=mc,
            checks=tuple(d.get("checks", KNOWN_CHECKS[:-1])),
            seed=int(d.get("seed", 0)),
            rate_ts=tuple(float(t) for t in d.get("rate_ts", (0.1, 0.3, 1.0, 3.0, 10.0))),
        )
        cfg.validate()
        return cfg


@dataclass
class SweepReport:
    entries: list
    summary: dict
    worst_slack: float

    def to_dict(self):
        from .bounds import _json_float

        return {
            "entries": [e.to_dict() for e in self.entries],
            "summary": dict(self.summary),
            "worst_slack": _json_float(self.worst_slack),
        }

    @property
    def violated(self):
        return self.summary["violated"]


def run_sweep(config, threads=1):
    """Run every configured check over its grid, serially in the order of
    ``_SWEEP``; the report depends on the config alone. ``threads`` is
    accepted and ignored: the checks hold the interpreter lock, so a
    thread pool made the sweep slower."""
    config.validate()
    entries = [build(config, *point)
               for name, axes, build in _SWEEP if name in config.checks
               for point in itertools.product(*axes(config))]
    summary = dict.fromkeys(STATUSES, 0)
    for e in entries:
        summary[e.status] += 1
    worst = min((e.slack for e in entries
                 if e.valid_domain and math.isfinite(e.slack)), default=math.inf)
    return SweepReport(entries=entries, summary=summary, worst_slack=worst)
