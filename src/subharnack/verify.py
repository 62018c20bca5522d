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

Harnack profiles (kappa = 1 throughout), one for every base of rate K >= 0
(Ric >= K): the sharp exponent p K rho^2 / (2(p-1)(e^(2Kt) - 1)) is at
most its K = 0 value p rho^2 / (4(p-1)t), which H/t dominates for the
power profile H = rho^2, eps = 0 at p >= 4/3; the log profile H = rho^2/4,
eps = 0 is its p -> infinity limit.
"""

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from scipy.integrate import quad  # unused; bench/tracer.py rebinds it here

from .bounds import (
    STATUSES,
    BoundReport,
    HarnackProfile,
    base_harnack_exponent,
    log_harnack_term,
    log_thm11_factor,
    log_thm11_intermediate_factor,
    log_transfer_factor,
    prop13_factor,
)
from .semigroup import (
    _check_test_function,
    _checked_pair,
    _checked_point,
    _kernel_density_at,
    _log_subordinated_apply,
    BaseKernel,
    Constant,
    ExpAffine,
    GaussBump,
    Indicator,
    ShiftedForLog,
    gauss_heat,
    ondiag,
    ou1d,
    subordinated_apply,
)
from .specfun import _exp_or_inf, _log_or_ninf
from .subordinator import (
    MCSpec,
    QuadratureSpec,
    StableSubordinator,
    _CERT_TOL,
    _blocks,
    _law_nodes,
    _law_rule,
    _law_sum,
    _panel_nodes,
    exp_moment,
    laplace,
    log_fractional_moment,
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


def power_profile(base, p, rho_sq):
    """(H, eps, kappa) instance of the base power-Harnack hypothesis, H =
    rho^2 and eps = 0 for every base, and in_domain: whether p >= 4/3."""
    return HarnackProfile(kappa=1.0, epsilon=0.0, H_value=rho_sq), p >= 4.0 / 3.0


def log_profile(base, rho_sq):
    """(H, eps, kappa) instance of the base log-Harnack hypothesis,
    H = rho^2/4 and eps = 0 for both bases."""
    return HarnackProfile(kappa=1.0, epsilon=0.0, H_value=rho_sq / 4.0)


def _verdict(lhs, rhs, rel_tol):
    """Status of an in-domain entry: ``holds`` within the band of ``passes``."""
    return "holds" if lhs <= rhs * (1.0 + _TOL_MULT * rel_tol) else "violated"


def _report(lhs, rhs, method, detail, rel_tol, params, log_lhs=math.nan,
            log_rhs=math.nan):
    """Report of an evaluated entry, its status from ``_verdict``. Only a
    multiplicative inequality has log sides, which ``_power_report``
    passes; an additive one leaves them nan."""
    return BoundReport(lhs=lhs, rhs=rhs, method=method,
                       status=_verdict(lhs, rhs, rel_tol), detail=detail,
                       log_lhs=log_lhs, log_rhs=log_rhs, params=params)


def _power_report(base, sub, f, p, x, y, log_factor, method, detail, rel_tol, params):
    """Report of (P_t^alpha f(x))^p <= factor * P_t^alpha f^p(y), with rhs
    formed in logs from ``log_factor`` and log P_t^alpha f^p(y)
    (``_log_subordinated_apply``, closed at alpha = 1): the factor alone
    can pass float range while log rhs stays finite, and rhs is then inf,
    and P_t f^p(y) can fall below it while its log stays finite."""
    lhs = subordinated_apply(base, sub, f, x) ** p
    log_rhs = log_factor + _log_subordinated_apply(base, sub, f.pow(p), y)
    return _report(lhs, _exp_or_inf(log_rhs), method, detail, rel_tol, params,
                   _log_or_ninf(lhs), log_rhs)


def _params(x, y, f):
    """The params entries of a point pair as ``_checked_pair`` returns it
    (a float at d = 1, a tuple of d floats above) and of f, which must be
    a TestFunction."""
    _check_test_function(f)
    return {"x": x, "y": y, "f": f.describe()}


def _unchecked(status, method, detail, params):
    """Report of an entry whose inequality was not evaluated: ``status``
    is ``out_of_domain`` or ``non_converged``."""
    return BoundReport(lhs=math.inf, rhs=math.inf, method=method, status=status,
                       detail=detail, log_lhs=math.inf, log_rhs=math.inf, params=params)


def passes(report, rel_tol):
    """True unless the report is an in-domain violation beyond tolerance."""
    return not report.valid_domain or _verdict(report.lhs, report.rhs, rel_tol) == "holds"


# --- checks ------------------------------------------------------------

def check_base_harnack(base, p, t, x, y, f, spec=QuadratureSpec()):
    """(P_t f(x))^p <= exp(base exponent) * P_t f^p(y)."""
    x, y, rho_sq = _checked_pair(base, x, y)
    expo = base_harnack_exponent(p, base.curvature_K, t, rho_sq)
    return _power_report(base, StableSubordinator(1.0, t), f, p, x, y, expo,
                         "quadrature", "", spec.rel_tol,
                         {"check": "base_harnack", "p": p, "t": t, **_params(x, y, f)})


def check_subordinated_harnack(base, sub, p, x, y, f, mode="numeric",
                               spec=QuadratureSpec()):
    """(P_t^alpha f(x))^p <= factor(mode) * P_t^alpha f^p(y).

    mode 'numeric' uses the exact transfer factor built from the
    exponential moment series; 'intermediate' and 'simplified' use the
    closed-form factors (in-domain only for alpha > kappa/(kappa+1)).
    At alpha = 1 it is the base inequality, evaluated in place.
    """
    x, y, rho_sq = _checked_pair(base, x, y)
    if mode not in ("numeric", "intermediate", "simplified"):
        raise ValueError(f"unknown mode {mode!r}")
    params = {"check": "subordinated_harnack", "alpha": sub.alpha, "p": p,
              "t": sub.t, **_params(x, y, f), "mode": mode}
    if sub.degenerate:
        expo = base_harnack_exponent(p, base.curvature_K, sub.t, rho_sq)
        return _power_report(base, sub, f, p, x, y, expo, "quadrature",
                             "alpha=1 reduces to base inequality", spec.rel_tol, params)
    profile, in_domain = power_profile(base, p, rho_sq)
    kappa = params["kappa"] = profile.kappa
    if not in_domain:
        return _unchecked("out_of_domain", "closed-form",
                          "profile requires p >= 4/3", params)
    if mode == "numeric":
        moment = exp_moment(sub, profile.H_value / (p - 1.0), kappa, spec)
        if not moment.converged:
            return _unchecked("non_converged", "series",
                              f"exponential moment diverges: {moment.divergence_reason}",
                              params)
        log_factor, method = log_transfer_factor(p, profile, moment), "series"
    elif not (kappa / (kappa + 1.0) < sub.alpha < 1.0):
        return _unchecked("out_of_domain", "closed-form",
                          "alpha outside (kappa/(kappa+1), 1)", params)
    else:
        factor = (log_thm11_intermediate_factor if mode == "intermediate"
                  else log_thm11_factor)
        log_factor, method = factor(p, profile, sub.alpha, sub.t), "closed-form"
    return _power_report(base, sub, f, p, x, y, log_factor, method, "", spec.rel_tol,
                         params)


def check_prop13(base, p, t, x, y, f, spec=QuadratureSpec()):
    """Boundary-index (alpha = 1/2, kappa = 1) factor on the heat kernel.

    Checks the closed-form factor when both the sufficient condition and
    the exact term-ratio test admit it; when the sufficient condition
    holds but the exact ratio is >= 1 the underlying moment integral
    diverges and a discrepancy-tagged ``non_converged`` report is emitted.
    """
    x, y, rho_sq = _checked_pair(base, x, y)
    if base.kind != "gauss_heat":
        raise ValueError("the boundary-case check is set up on the heat kernel")
    sub = StableSubordinator(alpha=0.5, t=t)
    profile, in_domain = power_profile(base, p, rho_sq)
    kappa = profile.kappa
    params = {"check": "prop13", "alpha": 0.5, "kappa": kappa, "p": p, "t": t,
              **_params(x, y, f)}
    if not in_domain:
        return _unchecked("out_of_domain", "closed-form",
                          "profile requires p >= 4/3 for the heat kernel", params)
    valid, factor, q = prop13_factor(p, kappa, profile.H_value, t)
    if valid and q >= 1.0:
        # q is the moment series' own ratio test here, so it diverges
        return _unchecked("non_converged", "series",
                          "discrepancy: sufficient condition holds but exact "
                          f"term ratio q={q:.6g} >= 1; moment series diverges",
                          params)
    if not valid:
        return _unchecked("out_of_domain", "closed-form",
                          "sufficient condition fails", params)
    log_factor = profile.epsilon * profile.H_value + math.log(factor)
    return _power_report(base, sub, f, p, x, y, log_factor, "closed-form",
                         f"exact_ratio={q:.6g}", spec.rel_tol, params)


def check_log_harnack(base, sub, x, y, f, spec=QuadratureSpec()):
    """P_t^alpha log f(x) <= log P_t^alpha f(y) + H*(eps + moment term)."""
    x, y, rho_sq = _checked_pair(base, x, y)
    if not isinstance(f, ShiftedForLog):
        raise ValueError("log-Harnack needs f >= 1; wrap the test function "
                         "in ShiftedForLog")
    profile = log_profile(base, rho_sq)
    lhs = subordinated_apply(base, sub, f.log(), x, spec)
    term = log_harnack_term(sub.alpha, profile.kappa, profile.epsilon,
                            profile.H_value, sub.t)
    rhs = math.log(subordinated_apply(base, sub, f, y, spec)) + term
    params = {"check": "log_harnack", "alpha": sub.alpha, "kappa": profile.kappa,
              "t": sub.t, **_params(x, y, f)}
    return _report(lhs, rhs, "quadrature", f"additive term={term:.12g}",
                   spec.rel_tol, params)


def check_ondiag_rate(d, alpha, ts, spec=QuadratureSpec()):
    """On-diagonal value p_t(x, x) of the time-changed heat kernel at each t
    of the grid against its closed form (4 pi)^(-d/2) E S_t^(-d/2) =
    (4 pi)^(-d/2) Gamma(d/(2 alpha)) / (alpha Gamma(d/2)) t^(-d/(2 alpha)),
    which implies the decay rate. lhs is the worst relative error, taken in
    logs (inf, so violated, where the value is 0 or inf past float range),
    and rhs the law rule's certificate; at d/2 in {0.5, 1} the value is one
    of the moments the rule is certified on.
    """
    ts = _rate_grid(ts, "ts")
    base, x, r = gauss_heat(d), (0.0,) * d, 0.5 * d
    errs = []
    for t in ts:
        sub = StableSubordinator(alpha, t)
        value = ondiag(base, sub, x)
        errs.append(abs(math.expm1(math.log(value) + r * math.log(4.0 * math.pi)
                                   - log_fractional_moment(sub, r)))
                    if 0.0 < value < math.inf else math.inf)
    err, t_worst = max(zip(errs, ts))
    params = {"check": "ondiag_rate", "alpha": alpha, "d": d, "t": ts[0], "f": ""}
    return _report(err, _CERT_TOL, "quadrature",
                   f"worst value vs closed form at t={t_worst:.8g}", spec.rel_tol,
                   params)


def _rate_grid(ts, name):
    """ts sorted: three or more positive finite times over two decades."""
    ts = sorted(map(float, ts))
    if (len(ts) < 3 or not all(0.0 < t < math.inf for t in ts)
            or ts[-1] / ts[0] < 99.0):
        raise ValueError(f"{name}: need a t-grid of three or more positive "
                         f"finite times spanning at least two decades")
    return ts


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


def _on_z(sub, fn, z):
    """int fn(s, zb)[:, j] mu_t(ds) at every z node: fn maps the column of the
    law rule's nodes s and a block zb of whole 16-node z panels (``_blocks``,
    sized by len(s)) to a cache-sized (len(s) x zb) array, whose column sums
    (``_law_sum``) are bit for bit those of the whole array."""
    s = _law_nodes(sub)
    panels = z.reshape(-1, 16)
    return np.concatenate([
        _law_sum(sub, fn(s[:, None], panels[block].ravel()))
        for block in _blocks(len(panels), s.size * panels.shape[1])])


def check_entropy_kernel(base, sub, x, y, spec=QuadratureSpec()):
    """Relative entropy between time-changed OU kernels vs the additive term.

    The entropy int q_x log(q_x / q_y) dz is summed by the fixed z rule
    over [min(x, y, 0) - 14, max(x, y, 0) + 14], broken at x and y, with
    both time-changed densities taken block by block of its nodes.
    """
    x, y, rho_sq = _checked_pair(base, x, y)
    if base.kind != "ou1d":
        raise ValueError("the entropy-kernel check requires the OU base "
                         "(it needs an invariant probability measure)")
    z, wz = _z_rule(min(x, y, 0.0) - _Z_PAD, max(x, y, 0.0) + _Z_PAD, (x, y))

    def q(x0):
        # Lebesgue density of the time-changed OU kernel from x0 at every z
        return np.maximum(_on_z(sub, lambda s, zb: _kernel_density_at(
            base, s, x0, zb, xp=np), z), 1e-300)

    qx, qy = q(x), q(y)
    lhs = float(wz @ (qx * np.log(qx / qy)))
    profile = log_profile(base, rho_sq)
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
    is summed by the fixed z rule over +-(14 + |m|), with P_t g taken
    block by block of its nodes. The transport cost of the log profile's
    H(a, b) = (a - b)^2/4 takes the place of H(x, y); the quantile coupling
    of N(m, 1) and N(0, 1) moves every quantile by m, so it is m^2/4.
    """
    if base.kind != "ou1d":
        raise ValueError("the entropy-cost check requires the OU base")
    m = float(shift)
    z, wz = _z_rule(-_Z_PAD - abs(m), _Z_PAD + abs(m))
    # P_s g(z) = exp(m_s z - m_s^2/2), with m_s the kernel's mean from m
    g = _on_z(sub, lambda s, zb: np.exp(
        (m_s := base.mean_sigma(s, m, np)[0]) * zb - 0.5 * m_s * m_s), z)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    lhs = float(wz @ (phi * g * np.log(np.maximum(g, 1e-300))))
    profile = log_profile(base, m * m)
    w_cost = profile.H_value
    rhs = log_harnack_term(sub.alpha, profile.kappa, profile.epsilon, w_cost, sub.t)
    params = {"check": "entropy_cost", "alpha": sub.alpha, "kappa": profile.kappa,
              "t": sub.t, "x": m, "y": 0.0, "f": "gaussian-shift"}
    return _report(lhs, rhs, "quadrature", f"W_H={w_cost:.12g}", spec.rel_tol,
                   params)


def check_laplace_mc(sub, x_probe, mc):
    """Monte Carlo Laplace-transform identity at x_probe, 4-standard-error band.

    exp(-x S) is taken in place in the array ``sample`` returns, and its
    mean and standard error on that same array: the sum over n, then the
    deviations squared in place, summed, over n - 1 and the root over
    sqrt(n). These are ``np.mean`` and ``np.std(ddof=1)``'s operations in
    their order, so both agree with them bit for bit, without their
    draw-sized temporaries. At alpha = 1 the law is the point mass at t:
    the estimate is exp(-x t) with standard error 0, and no stream is
    drawn.
    """
    if sub.degenerate:
        mean, se = math.exp(-x_probe * sub.t), 0.0
    else:
        n = mc.n_samples
        vals = sample(sub, np.random.default_rng(mc.seed), size=n)
        np.multiply(vals, -x_probe, out=vals)
        np.exp(vals, out=vals)
        mean = float(np.sum(vals) / n)
        vals -= mean
        np.square(vals, out=vals)
        se = float(np.sqrt(np.sum(vals) / (n - 1)) / math.sqrt(n))
    exact = laplace(sub, x_probe)
    err, band = abs(mean - exact), 4.0 * se
    params = {"check": "laplace_mc", "alpha": sub.alpha, "t": sub.t,
              "x": x_probe, "f": ""}
    # no quadrature error to allow for: the band is the 4-SE band itself
    return _report(err, band, "monte-carlo",
                   f"mean={mean:.12g} exact={exact:.12g} se={se:.3g}", 0.0, params)


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
     lambda c, a: check_ondiag_rate(c.base.d, a, c.rate_ts, c.quadrature)),
    ("entropy_kernel",
     lambda c: (c.alphas, c.ts, c.point_pairs),
     lambda c, a, t, xy: check_entropy_kernel(ou1d(), StableSubordinator(a, t),
                                              *xy, c.quadrature)),
    ("entropy_cost",  # once per distinct shift min(|x - y|, 0.5), first seen first
     lambda c: (c.alphas, c.ts,
                dict.fromkeys(min(abs(x - y), 0.5) for x, y in c.point_pairs)),
     lambda c, a, t, m: check_entropy_cost(ou1d(), StableSubordinator(a, t), m,
                                           c.quadrature)),
    # the positions of alpha and t enter the Monte Carlo stream seed
    ("laplace_mc",
     lambda c: (enumerate(a for a in c.alphas if a < 1.0), enumerate(c.ts)),
     lambda c, ia, jt: check_laplace_mc(
         StableSubordinator(ia[1], jt[1]), 1.0,
         MCSpec(c.mc.n_samples, _mc_stream(c, ia[0], jt[0])))),
)

KNOWN_CHECKS = tuple(name for name, _, _ in _SWEEP)

# each test function kind: its class and its parameters' JSON defaults
_FUNCTION_KINDS = {
    "constant": (Constant, {"c": 1.0}),
    "gauss_bump": (GaussBump, {"center": 0.0, "width": 1.0}),
    "indicator": (Indicator, {"lo": -1.0, "hi": 1.0}),
    "exp_affine": (ExpAffine, {"slope": 1.0, "clip": None}),
}


def _function_from_dict(spec_dict, path):
    if not isinstance(spec_dict, dict) or "kind" not in spec_dict:
        raise ValueError(f"{path}: expected an object with a 'kind' field")
    kind = spec_dict["kind"]
    if kind not in _FUNCTION_KINDS:
        raise ValueError(f"{path}.kind: unknown test function {kind!r}")
    cls, defaults = _FUNCTION_KINDS[kind]
    params = {k: v for k, v in spec_dict.items() if k != "kind"}
    return _from_block(cls, {**defaults, **params}, path, noun="parameter")


def _from_block(cls, block, path, read=None, noun="field"):
    """cls(**block), each value passed through ``read[name]`` if given; an
    unknown or missing field, a mistyped value or one that cls refuses
    raises naming path."""
    extra = set(block) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"{path}: unknown {noun}(s) {sorted(extra)}")
    read = read or {}
    try:
        values = {k: read[k](v) if k in read else v for k, v in block.items()}
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


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
        for name in ("alphas", "ts", "ps", "point_pairs", "functions"):
            if not getattr(self, name):
                raise ValueError(f"{name}: must be non-empty")
        for name, ok, need in (("alphas", lambda a: 0.0 < a <= 1.0, "in (0, 1]"),
                               ("ps", lambda p: p > 1.0, "> 1"),
                               ("ts", lambda t: 0.0 < t < math.inf, "in (0, inf)")):
            bad = [v for v in getattr(self, name) if not ok(v)]
            if bad:
                raise ValueError(f"config.{name}: {bad} must be {need}")
        if "laplace_mc" in self.checks and self.mc is None:
            raise ValueError("laplace_mc requires the mc block")
        one_d = {"entropy_kernel", "entropy_cost"}.intersection(self.checks)
        if one_d and self.base.d != 1:
            raise ValueError(f"checks: {sorted(one_d)} run the 1-d OU kernel "
                             f"on the point pairs and need base d = 1")
        heat = {"prop13", "ondiag_rate"}.intersection(self.checks)
        if heat and self.base.kind != "gauss_heat":
            raise ValueError(f"checks: {sorted(heat)} run on the heat kernel "
                             f"and need base kind gauss_heat")
        if "ondiag_rate" in self.checks:
            _rate_grid(self.rate_ts, "config.rate_ts")

    @classmethod
    def from_dict(cls, d):
        """A field that d leaves out takes its default; base, the heat kernel."""
        cfg = _from_block(cls, {"base": {"kind": "gauss_heat"}, **d}, "config", {
            "base": lambda v: _from_block(BaseKernel, v, "config.base"),
            "alphas": lambda v: list(map(float, v)),
            "ts": lambda v: list(map(float, v)),
            "ps": lambda v: list(map(float, v)),
            "point_pairs": list,
            "functions": lambda v: [_function_from_dict(fd, f"config.functions[{i}]")
                                    for i, fd in enumerate(v)],
            "quadrature": lambda v: _from_block(QuadratureSpec, v, "config.quadrature"),
            "mc": lambda v: None if v is None else _from_block(MCSpec, v, "config.mc"),
            "checks": tuple,
            "seed": int,
            "rate_ts": lambda v: tuple(map(float, v)),
        })
        cfg.point_pairs = [_read_pair(pair, cfg.base.d, f"config.point_pairs[{i}]")
                           for i, pair in enumerate(cfg.point_pairs)]
        cfg.validate()
        return cfg


def _read_pair(pair, d, path):
    """A config point pair [x, y], each point checked by ``_checked_point``
    (a float at d = 1, a tuple of d floats above); an error names path."""
    try:
        x, y = pair
        return _checked_point(x, d), _checked_point(y, d)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class SweepReport:
    entries: list

    @property
    def summary(self):
        """The number of entries of each status, every status named."""
        return {s: sum(e.status == s for e in self.entries) for s in STATUSES}

    def to_dict(self):
        return {"entries": [e.to_dict() for e in self.entries],
                "summary": self.summary}

    @property
    def violated(self):
        return self.summary["violated"]


def run_sweep(config, threads=1):
    """Run every configured check over its grid, serially in the order of
    ``_SWEEP``; the report depends on the config alone. ``threads`` is
    not read (the checks hold the interpreter lock, so a thread pool made
    the sweep slower); acceptance criterion 11 passes it. The law rule of
    each alpha is built first, so an alpha it cannot certify is refused
    before any entry runs."""
    config.validate()
    for a in config.alphas:
        try:
            _law_rule(a)
        except ValueError as exc:
            raise ValueError(f"config.alphas: {exc}") from None
    return SweepReport([build(config, *point)
                        for name, axes, build in _SWEEP if name in config.checks
                        for point in itertools.product(*axes(config))])
