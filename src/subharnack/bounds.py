"""Closed-form Harnack bound factors for subordinated semigroups.

Collects the explicit constants: the base Gaussian-type Harnack
exponent, the per-n domination constant c(alpha, kappa), the series
factor c(delta, alpha, kappa), the power-Harnack multiplicative factors
(both the sharp bracket form and the simplified 2**(p-1)*exp(...) form),
the boundary-index factor with its validity condition, the additive
log-Harnack term, and the Jensen-type series bound.

Convention for the power-Harnack factors, with
``b = 1 - (1/alpha - 1) * kappa`` in (0, 1]: the derivation's displays
keep a single letter ``c`` for a constant that is silently re-absorbed
twice, and one absorption is dropped from the printed chain. Here every
absorption is explicit so the numeric chain
``exact transfer factor <= envelope series <= bracket factor
<= simplified factor`` holds with no free constants:

* ``constant_c`` dominates the per-n prefactor exactly as displayed;
* the envelope series (``series_factor``) needs the constant
  ``e * constant_c`` -- the lower Stirling bound for n! contributes an
  ``e**n`` that the printed display omits; without it the envelope fails
  to dominate the true moment already at n = 1;
* the Jensen step turns ``(2*a)**(1/b) / 2`` into ``a**(1/b)`` only
  after a further ``2**(1-b)`` absorption, so the bracket and simplified
  factors use ``2**(1-b) * e * constant_c``.

Powers are formed in logs, and a factor past float range is returned as
inf, which is still a true upper bound. The power-Harnack factors,
closed-form and numeric (``log_transfer_factor``), come as their logs
only; callers take the exp at the edge.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .specfun import _exp_or_inf
from .subordinator import (
    SeriesEval,
    StableSubordinator,
    _sum_around_peak,
    fractional_moment,
    geometric_term_ratio,
)

__all__ = [
    "HarnackProfile",
    "BoundReport",
    "STATUSES",
    "base_harnack_exponent",
    "constant_c",
    "series_factor",
    "C_pka",
    "log_thm11_factor",
    "log_thm11_intermediate_factor",
    "jensen_series_bound",
    "prop13_factor",
    "log_harnack_term",
    "log_transfer_factor",
]


@dataclass(frozen=True)
class HarnackProfile:
    """Parameters (H, epsilon, kappa) of a base Harnack inequality.

    ``H_value`` is H(x, y) for the point pair under consideration.
    """

    kappa: float
    epsilon: float
    H_value: float

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError("kappa must be > 0")
        if self.epsilon < 0.0 or self.H_value < 0.0:
            raise ValueError("epsilon and H_value must be >= 0")


STATUSES = ("holds", "violated", "out_of_domain", "non_converged")


@dataclass(frozen=True)
class BoundReport:
    """One inequality check: sides, verdict and provenance.

    ``status`` is one of ``STATUSES``, set by the check that builds the
    report: ``holds``/``violated`` for an in-domain entry,
    ``out_of_domain`` where the inequality's hypotheses fail, and
    ``non_converged`` where a series it needs diverges. ``valid_domain``
    and ``slack`` follow from the status and the two sides.
    """

    lhs: float
    rhs: float
    method: str
    status: str
    detail: str = ""
    log_lhs: float = math.nan
    log_rhs: float = math.nan
    params: Optional[dict] = None
    _KEYS = ("lhs", "rhs", "slack", "valid_domain", "method", "status",
             "detail", "log_lhs", "log_rhs")  # not a field: no annotation

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {self.status!r}")

    @property
    def valid_domain(self):
        """Whether both sides were evaluated: status holds or violated."""
        return self.status in ("holds", "violated")

    @property
    def slack(self):
        """rhs - lhs, or nan for an entry that was not evaluated."""
        return self.rhs - self.lhs if self.valid_domain else math.nan

    def to_dict(self):
        """The keys of ``_KEYS`` in order, then ``params`` unless it is None."""
        d = {k: _json_float(getattr(self, k)) for k in self._KEYS}
        if self.params is not None:
            d["params"] = dict(self.params)
        return d


def _json_float(v):
    """Non-finite floats serialized as strings so reports stay strict JSON."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def base_harnack_exponent(p, K, t, rho_sq):
    """Exponent p*K*rho^2 / (2*(p-1)*(exp(2Kt)-1)) of the base inequality
    (Wang's dimension-free Harnack exponent) for a base with Ric >= K.

    Continuous in K; at K = 0 this is the limit p*rho^2 / (4*(p-1)*t). For
    K > 0 the rate is formed as K e^{-2Kt}/(1 - e^{-2Kt}), which cannot overflow.
    """
    p = float(p)
    t = float(t)
    rho_sq = float(rho_sq)
    if p <= 1.0:
        raise ValueError(f"p must be > 1, got {p!r}")
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t!r}")
    if rho_sq < 0.0:
        raise ValueError("rho_sq must be >= 0")
    if K == 0.0:
        rate = 0.5 / t
    elif K > 0.0:
        rate = K * math.exp(-2.0 * K * t) / -math.expm1(-2.0 * K * t)
    else:
        rate = K / math.expm1(2.0 * K * t)
    return p * rho_sq * rate / (2.0 * (p - 1.0))


def _check_alpha_window(alpha, kappa):
    if not (kappa / (kappa + 1.0) < alpha < 1.0):
        raise ValueError(
            f"alpha must lie in (kappa/(kappa+1), 1) = "
            f"({kappa / (kappa + 1.0)}, 1), got {alpha!r}"
        )


def constant_c(alpha, kappa):
    """Smallest closed-form c with
    (2*pi*alpha*n)**(-1/2) * Q**n * exp(alpha/(12*kappa*n)) <= c**n
    for all n >= 1, where Q = (kappa/e)**(kappa*(1/alpha-1)) * alpha**(-kappa/alpha).
    """
    alpha = float(alpha)
    kappa = float(kappa)
    _check_alpha_window(alpha, kappa)
    log_q = kappa * (1.0 / alpha - 1.0) * (math.log(kappa) - 1.0) - (
        kappa / alpha
    ) * math.log(alpha)
    log_m = max(0.0, alpha / (12.0 * kappa) - 0.5 * math.log(2.0 * math.pi * alpha))
    return math.exp(log_q + log_m)


def series_factor(delta, alpha, kappa, t, rel_tol=1e-12):
    """1 + sum_n n**(n*(kappa*(1/alpha-1)-1)) * (c*delta*t**(-kappa/alpha))**n.

    The termwise upper envelope of the exponential moment, with
    c = e * constant_c(alpha, kappa) (see the module docstring for the
    restored factor e). Its log terms are concave from n = 1, so it is
    summed over the window around their peak, as ``exp_moment`` is.
    """
    delta = float(delta)
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    _check_alpha_window(alpha, kappa)
    if delta == 0.0:
        return SeriesEval.exact(0.0)
    c = math.e * constant_c(alpha, kappa)
    log_r = math.log(c * delta) - (kappa / alpha) * math.log(t)
    expo = kappa * (1.0 / alpha - 1.0) - 1.0  # negative on the open window

    def log_terms(n):
        return n * expo * np.log(n) + n * log_r

    # (n e log n)'' = e/n < 0: the log terms are concave from n = 1
    return _sum_around_peak(log_terms, rel_tol, 1)


def _checked_b(p, alpha, kappa, t=1.0):
    """Check the arguments of a closed-form power-Harnack factor (p > 1,
    t > 0, alpha in the window) and return b = 1 - (1/alpha - 1)*kappa."""
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if t <= 0.0:
        raise ValueError("t must be > 0")
    _check_alpha_window(alpha, kappa)
    return 1.0 - (1.0 / alpha - 1.0) * kappa


def _log_z(p, kappa, alpha, H, t, b):
    """log z, z = (c*H/((p-1)*t**(kappa/alpha)))**(1/b) with the fully absorbed
    c = 2**(1-b) * e * constant_c: the bracket factor's exponent; b*(p-1)*z is
    the simplified factor's."""
    log_c = (1.0 - b) * math.log(2.0) + 1.0 + math.log(constant_c(alpha, kappa))
    return (log_c + math.log(H) - math.log(p - 1.0) - (kappa / alpha) * math.log(t)) / b


def C_pka(p, kappa, alpha):
    """The simplified-factor constant
    C = b * c**(1/b) / (p-1)**((1-b)/b), with b = 1 - (1/alpha - 1)*kappa.
    """
    p, kappa, alpha = float(p), float(kappa), float(alpha)
    b = _checked_b(p, alpha, kappa)
    return _exp_or_inf(math.log(b * (p - 1.0)) + _log_z(p, kappa, alpha, 1.0, 1.0, b))


def log_thm11_factor(p, profile, alpha, t):
    """log of the simplified power-Harnack factor
    2**(p-1) * exp(eps*H + C * (H / t**(kappa/alpha))**(1/b)).
    """
    p, t = float(p), float(t)
    kappa, H = profile.kappa, profile.H_value
    b = _checked_b(p, alpha, kappa, t)
    if H == 0.0:
        bulge = 0.0
    else:
        bulge = _exp_or_inf(math.log(b * (p - 1.0)) + _log_z(p, kappa, alpha, H, t, b))
    return (p - 1.0) * math.log(2.0) + profile.epsilon * H + bulge


def log_thm11_intermediate_factor(p, profile, alpha, t):
    """log of the sharper bracket form
    exp(eps*H) * (1 + [exp((c*H/((p-1)*t**(kappa/alpha)))**(1/b)) - 1]**b)**(p-1).
    """
    p, t = float(p), float(t)
    kappa, H = profile.kappa, profile.H_value
    b = _checked_b(p, alpha, kappa, t)
    if H == 0.0:
        return profile.epsilon * H
    z = _exp_or_inf(_log_z(p, kappa, alpha, H, t, b))
    # log(1 + (e^z - 1)^b), stable for large z where (e^z-1)^b ~ e^{bz}
    if z > 30.0:
        log_br = b * (z + math.log1p(-math.exp(-z)))
        log_inner = log_br + math.log1p(math.exp(-log_br))
    else:
        log_inner = math.log1p(math.expm1(z) ** b)
    return profile.epsilon * H + (p - 1.0) * log_inner


def jensen_series_bound(a, b):
    """The Jensen step bound: sum_n a**n / n**(b*n) <= (exp((2a)**(1/b)/2) - 1)**b."""
    a = float(a)
    b = float(b)
    if a <= 0.0:
        raise ValueError("a must be > 0")
    if not (0.0 < b <= 1.0):
        raise ValueError("b must lie in (0, 1]")
    z = _exp_or_inf(math.log(2.0 * a) / b - math.log(2.0))
    if z > 30.0:
        return _exp_or_inf(b * (z + math.log1p(-math.exp(-z))))
    return math.expm1(z) ** b


def prop13_factor(p, kappa, H_value, t):
    """Boundary-index alpha = kappa/(kappa+1) factor.

    Returns (valid_domain, factor, exact_ratio):
      * valid_domain -- the sufficient condition D > 1, that is
        e*(p-1)*(t*kappa)**(kappa+1) > kappa*(kappa+1)**(kappa+1)*H;
      * factor -- (1 + C/(D - 1))**(p-1) with
        D = (e*(p-1)/(H*kappa)) * (kappa*t/(kappa+1))**(kappa+1) and
        C = sqrt((kappa+1)/(2*pi*kappa)) * exp(1/(12*(kappa+1)));
      * exact_ratio -- the true geometric term ratio q of the moment series
        (``geometric_term_ratio`` at delta = H/(p-1)), which governs actual
        convergence (q < 1) and is looser than the sufficient condition by
        the factor e.
    """
    p = float(p)
    kappa = float(kappa)
    H_value = float(H_value)
    t = float(t)
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if t <= 0.0:
        raise ValueError("t must be > 0")
    if H_value < 0.0:
        raise ValueError("H_value must be >= 0")
    if H_value == 0.0:
        return True, 1.0, 0.0
    exact_ratio = geometric_term_ratio(H_value / (p - 1.0), kappa, t)
    # D = 1/q0 with q0 = exact_ratio / e; the sufficient condition is D > 1
    D = math.e / exact_ratio
    if not D > 1.0:
        return False, math.inf, exact_ratio
    C = math.sqrt((kappa + 1.0) / (2.0 * math.pi * kappa)) * math.exp(
        1.0 / (12.0 * (kappa + 1.0))
    )
    return True, _exp_or_inf((p - 1.0) * math.log1p(C / (D - 1.0))), exact_ratio


def log_harnack_term(alpha, kappa, epsilon, H_value, t):
    """Additive log-Harnack term H * (eps + E S_t**(-kappa)), for every alpha
    in (0, 1]; the moment is ``fractional_moment``'s,
    Gamma(kappa/alpha)/(alpha*Gamma(kappa)) * t**(-kappa/alpha), and the
    term is inf where that passes float range. ``StableSubordinator``
    checks alpha and t."""
    sub = StableSubordinator(float(alpha), float(t))
    kappa = float(kappa)
    epsilon = float(epsilon)
    H_value = float(H_value)
    if kappa <= 0.0:
        raise ValueError("kappa must be > 0")
    if epsilon < 0.0 or H_value < 0.0:
        raise ValueError("epsilon and H_value must be >= 0")
    if H_value == 0.0:
        return 0.0
    return H_value * (epsilon + fractional_moment(sub, kappa))


def log_transfer_factor(p, profile, moment):
    """log of the exact transfer factor exp(eps*H) * moment**(p-1), that
    is eps*H + (p-1) * log moment.

    ``moment`` is the exponential moment
    int exp(H/((p-1)*s**kappa)) mu_t(ds) as a SeriesEval. Only its
    ``log_value`` is read, so a moment past float range still gives a
    finite log; a moment that did not converge gives inf.
    """
    p = float(p)
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if not moment.converged:
        return math.inf
    return profile.epsilon * profile.H_value + (p - 1.0) * moment.log_value
