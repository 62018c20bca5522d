"""The one-sided alpha-stable subordinator law.

The law ``mu_t`` with Laplace transform ``exp(-t * x**alpha)`` for
``alpha`` in (0, 1]; ``alpha = 1`` is the degenerate point mass at t.
Provides the density (closed form at alpha = 1/2, a convergent series
for large argument, and otherwise the Zolotarev-Kanter single integral
summed by one fixed Gauss-Legendre rule in theta per alpha, built on
first use), exact sampling (Kanter representation), negative-power
moments and the exponential moment ``int exp(delta / s**kappa) mu_t(ds)``
summed as a series of those moments. The density's accuracy (a few units
of 1e-16 relative wherever it exceeds 1e-300, for alpha up to about
0.997) does not depend on the ``QuadratureSpec``; ``integrate_against`` still integrates against it
by adaptive quadrature at the spec's tolerances.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .specfun import log_gamma

__all__ = [
    "StableSubordinator",
    "QuadratureSpec",
    "MCSpec",
    "SeriesEval",
    "density",
    "sample",
    "laplace",
    "fractional_moment",
    "exp_moment",
    "integrate_against",
    "sum_log_series",
]

_LOG_HUGE = 700.0  # exp() overflow guard


@dataclass(frozen=True)
class StableSubordinator:
    """Law of the alpha-stable subordinator at time t (Laplace exponent x**alpha)."""

    alpha: float
    t: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError(f"t must be positive and finite, got {self.t!r}")

    @property
    def degenerate(self):
        return self.alpha == 1.0

    @property
    def scale(self):
        """Self-similar scale t**(1/alpha): S ~ scale * S_standard."""
        return self.t ** (1.0 / self.alpha)


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class MCSpec:
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class SeriesEval:
    """Outcome of a term-by-term series summation.

    ``value`` is +inf with ``divergence_reason`` set when the ratio test
    declares divergence; ``log_value`` stays finite whenever the sum does.
    """

    value: float
    terms_used: int
    truncation_bound: float
    converged: bool
    divergence_reason: Optional[str] = None
    log_value: float = math.nan


# --- density -----------------------------------------------------------

def _kanter_log_a(theta, alpha, sin=np.sin, log=np.log):
    """log A(theta) for the Zolotarev-Kanter kernel, theta in (0, pi).

    A(theta) = (sin(a*th)/sin th)**(a/(1-a)) * sin((1-a)*th)/sin(th).
    ``sin`` and ``log`` default to numpy's, for arrays of theta (longdouble
    ones in the density's theta rule); the rule's bisection for its cut
    passes ``math.sin`` and ``math.log`` for one float theta at a time.
    """
    a = alpha
    s = log(sin(theta))
    return (a / (1.0 - a)) * (log(sin(a * theta)) - s) + log(
        sin((1.0 - a) * theta)
    ) - s


_TAIL_SWITCH = 5.0  # above this the large-argument series is used


def _tail_series_density(alpha, v):
    """Convergent large-argument series for the standard density,
    (1/pi) sum_k (-1)^(k+1) Gamma(alpha*k+1)/k! sin(pi*alpha*k) v^(-alpha*k-1).
    """
    log_v = math.log(v)
    total = 0.0
    for k in range(1, 400):
        log_mag = (
            log_gamma(alpha * k + 1.0)
            - log_gamma(k + 1.0)
            - (alpha * k + 1.0) * log_v
        )
        mag = math.exp(log_mag) / math.pi
        term = mag * math.sin(math.pi * alpha * k)
        if k % 2 == 0:
            term = -term
        total += term
        # stop on the sine-free magnitude: sin(pi*alpha*k) can vanish
        # accidentally (alpha*k integral) long before the series is done
        if mag < 1e-18 * max(abs(total), 1e-300):
            break
    return max(total, 0.0)


# The Zolotarev-Kanter integral below the tail switch runs over theta in
# (0, pi) and is summed with one fixed composite Gauss-Legendre rule per
# alpha (``_theta_rule``). Its layout is worked out from alpha alone:
#   * theta in (0, pi/2]: panels doubling away from 0 from the width
#     1/sqrt(_E_MAX * alpha/2) of the left-tail peak at theta = 0 (near 0,
#     log A = la0 + (alpha/2) theta^2 + ...), then one last panel to pi/2;
#   * theta in [pi/2, pi): panels uniform in l = log(pi - theta), each
#     2*(1 - alpha) wide (at most 1): near pi, log(c A) falls by 1/(1 - alpha)
#     per unit of l, so each panel spans about two units of it. The rule
#     stops where c A reaches _DEAD at v = _TAIL_SWITCH, where c is least.
# log A is formed in extended precision (numpy longdouble; 80-bit on x86,
# plain double on platforms without it, where the far left tail loses
# digits): there the density is about exp(-E0) with E0 = c A(0) up to
# ~1e3, so an error e in log A costs a relative error E0 * e.
_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(16)  # on [-1, 1]
# E0 = c A(0) whose peak at theta = 0 the first panel spans; where the
# density exceeds 1e-300, E0 stays near or below it
_E_MAX = 1000.0
_DEAD = 50.0  # c A beyond which exp(-c A) is dead next to the peak
# cap on log(A / A(0)) at the right end, to keep g and s in float range.
# It binds only for alpha above about 0.9975, where the rule then stops
# short of the peak for v close to _TAIL_SWITCH and the density there
# comes out too small.
_D_CAP = 700.0


def _log_a0_ld(a):
    """log A(0) = log(alpha**(alpha/(1-alpha)) * (1-alpha)) for a longdouble
    alpha: A(theta) tends to it as theta -> 0, and increases from it."""
    return (a / (1 - a)) * np.log(a) + np.log1p(-a)


def _panel_nodes(edges):
    """Nodes and weights of the composite Gauss-Legendre rule on ``edges``."""
    edges = np.asarray(edges, dtype=float)
    h = np.diff(edges)[:, None]
    return ((edges[:-1, None] + 0.5 * h * (_PANEL_X + 1.0)).ravel(),
            (0.5 * h * _PANEL_W).ravel())


@lru_cache(maxsize=64)
def _theta_rule(alpha):
    """Two float arrays (g, s) such that, with A0 = A(0) and any c > 0,
    (1/pi) int_0^pi A e^{-c A} dtheta = A0 e^{-c A0} sum_i g_i e^{-c A0 s_i}.

    g_i = w_i A(theta_i) / (pi A0) and s_i = A(theta_i)/A0 - 1 >= 0 (A is
    increasing), over the nodes and weights w_i of the fixed rule laid out
    above. Built on first use for each alpha and memoized on alpha alone.
    """
    a = _LD(alpha)
    la0 = _log_a0_ld(a)
    half = math.pi / 2
    # left half: panels doubling from the left-tail peak width
    edges = [0.0]
    x = 1.0 / math.sqrt(_E_MAX * alpha / 2.0)
    while x < half / 1.25:
        edges.append(x)
        x *= 2.0
    theta, w_left = _panel_nodes(edges + [half])
    d_left = _kanter_log_a(theta.astype(_LD), a) - la0

    # right half in l = log(pi - theta), from the cut where log(A / A(0))
    # reaches d_cut, located by bisection on the float log A (it need not
    # be exact): there c A = _DEAD at v = _TAIL_SWITCH
    d_cut = min(math.log(_DEAD) - float(la0)
                + (alpha / (1.0 - alpha)) * math.log(_TAIL_SWITCH), _D_CAP)
    lo, hi = -40.0, math.log(half)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        la = _kanter_log_a(math.pi - math.exp(mid), alpha, math.sin, math.log)
        lo, hi = (mid, hi) if la - float(la0) > d_cut else (lo, mid)
    n = math.ceil((math.log(half) - lo) / min(1.0, 2.0 * (1.0 - alpha)))
    ell, w_right = _panel_nodes(np.linspace(lo, math.log(half), n + 1))
    d_right = _kanter_log_a(_PI_LD - np.exp(ell).astype(_LD), a) - la0
    d = np.concatenate((d_left, d_right))
    w = np.concatenate((w_left, w_right * np.exp(ell))).astype(_LD) / _PI_LD
    return (w * np.exp(d)).astype(float), np.expm1(d).astype(float)


@lru_cache(maxsize=1 << 18)
def _standard_density(alpha, v, spec):
    """Density at v of the standard one-sided stable law (t = 1).

    Closed form at alpha = 1/2 and a convergent series for v >= 5.
    Otherwise the Zolotarev-Kanter integral: with p = alpha/(1-alpha) and
    c = v^(-p), the density is p v^(-1/(1-alpha)) (1/pi) int_0^pi
    A(theta) exp(-c A(theta)) dtheta, summed by the fixed theta rule of
    ``_theta_rule``: one vectorised sum per v, to within a few units of
    1e-16 relative wherever the density exceeds 1e-300, its far left tail
    included, for alpha up to about 0.997 (see ``_D_CAP``). ``spec`` does
    not set that accuracy; it stays in the signature (and the memo key)
    for the callers.

    Memoized: nested quadratures (subordinated kernels and expectations)
    revisit the same (alpha, v) nodes many times across related checks.
    """
    if v <= 0.0:
        return 0.0
    if alpha == 0.5:
        # tested in log domain first: v**-1.5 alone overflows for v below
        # about 1e-206, where the density itself underflows
        log_d = -0.5 * math.log(4.0 * math.pi) - 1.5 * math.log(v) - 0.25 / v
        if log_d < -_LOG_HUGE:
            return 0.0
        return (4.0 * math.pi) ** -0.5 * v ** -1.5 * math.exp(-0.25 / v)
    if v >= _TAIL_SWITCH:
        return _tail_series_density(alpha, v)
    g, s = _theta_rule(alpha)
    # scalars in extended precision: the density is about exp(-e0), so e0
    # (up to ~1e3 in the left tail) needs more than a double's 16 digits
    a = _LD(alpha)
    p = a / (1 - a)
    log_v = np.log(_LD(v))
    la0 = _log_a0_ld(a)
    e0 = np.exp(la0 - p * log_v)  # c A(0)
    log_pref = np.log(p) - log_v / (1 - a) + la0
    if e0 > abs(log_pref) + 800.0:
        # the sum is at most 1 once e0 >= 1: the density is below e^-800
        return 0.0
    total = float(g @ np.exp(-float(e0) * s))
    if total <= 0.0:
        return 0.0
    log_val = log_pref - e0 + np.log(_LD(total))
    if log_val < -_LOG_HUGE:
        return 0.0
    return float(np.exp(log_val))


def density(sub, s, spec=QuadratureSpec()):
    """Density of mu_t at s > 0 (alpha < 1 only).

    By self-similarity, the standard density at s / t**(1/alpha); see
    ``_standard_density``. ``spec`` does not affect the value: off
    alpha = 1/2 the Zolotarev integral is summed by a fixed theta rule.
    """
    if sub.degenerate:
        raise ValueError("alpha = 1 is the point mass at t and has no density")
    s = float(s)
    if s <= 0.0:
        raise ValueError(f"density requires s > 0, got {s!r}")
    c = sub.scale
    return _standard_density(sub.alpha, s / c, spec) / c


# --- sampling ----------------------------------------------------------

def sample(sub, rng, size=None):
    """Draw from mu_t via the Kanter representation.

    ``rng`` is a numpy Generator owned by the caller. For alpha = 1 the
    subordinator is the deterministic drift and t is returned.
    """
    if sub.degenerate:
        if size is None:
            return sub.t
        return np.full(size, sub.t)
    a = sub.alpha
    u = rng.uniform(0.0, np.pi, size=size)
    w = rng.standard_exponential(size=size)
    log_a_u = _kanter_log_a(u, a)
    s1 = np.exp(((1.0 - a) / a) * (log_a_u - np.log(w)))
    return sub.scale * s1


def laplace(sub, x):
    """Laplace transform E exp(-x S) = exp(-t * x**alpha)."""
    x = float(x)
    if x < 0.0:
        raise ValueError(f"laplace requires x >= 0, got {x!r}")
    return math.exp(-sub.t * x ** sub.alpha)


# --- moments -----------------------------------------------------------

def log_fractional_moment(sub, r):
    """log of int s**(-r) mu_t(ds) = Gamma(r/alpha)/(alpha*Gamma(r)) * t**(-r/alpha).

    ``r`` may also be a numpy array of orders; ``log_gamma`` then rejects
    any order that is not positive.
    """
    if not isinstance(r, np.ndarray):
        r = float(r)
        if r <= 0.0:
            raise ValueError(f"fractional moment requires r > 0, got {r!r}")
    a = sub.alpha
    return (
        log_gamma(r / a)
        - math.log(a)
        - log_gamma(r)
        - (r / a) * math.log(sub.t)
    )


def fractional_moment(sub, r):
    """int s**(-r) mu_t(ds), valid for every r > 0 and alpha in (0, 1]."""
    if sub.degenerate:
        # point mass at t: exactly t**(-r), bypass the log round trip
        if float(r) <= 0.0:
            raise ValueError(f"fractional moment requires r > 0, got {r!r}")
        return sub.t ** -float(r)
    return math.exp(log_fractional_moment(sub, r))


_FIRST_BLOCK = 64  # terms in the first block; each next one is 4x, up to the cap
_MAX_BLOCK = 4096
_STOP_MARGIN = 1e-6  # slack of the numpy pre-screen of the stopping rule


def sum_log_series(log_terms, rel_tol, max_terms=200000):
    """Sum 1 + sum_{n>=1} exp(log_terms(n)) in log domain.

    ``log_terms`` maps an integer numpy array of indices n to the array
    of the log terms at those n (same shape). It is called on blocks of
    consecutive n: 64 terms first, each block 4x the last, capped at
    4096 terms, so it may see indices past the stopping point.

    Assumes the series is known to converge (the callers classify
    divergence analytically from the exact asymptotic term ratio before
    summing). Stops at the first n >= 20 where the observed term ratio
    q = term_n / term_{n-1} is below 1 and the geometric tail estimate
    term_n * q/(1-q) drops below rel_tol times the partial sum. The
    running sum, the stop index and the tail estimate are those of the
    term-by-term loop: the partial sums come from
    ``np.logaddexp.accumulate``, and each index the numpy pre-screen
    lets through is confirmed with the scalar formulas, in order.
    """
    log_rel_tol = math.log(rel_tol)
    log_sum = 0.0  # the leading 1
    prev = -math.inf
    n0, size = 1, _FIRST_BLOCK
    while n0 <= max_terms:
        n = np.arange(n0, min(n0 + size, max_terms + 1))
        lt = np.asarray(log_terms(n), dtype=float)
        sums = np.logaddexp.accumulate(np.concatenate(([log_sum], lt)))[1:]
        prevs = np.concatenate(([prev], lt[:-1]))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q = np.where(prevs > -np.inf, np.exp(lt - prevs), 0.0)
            log_tail = lt + np.log(q) - np.log1p(-q)
            # every index where the scalar rule might stop: ratios next to
            # 1 (where rounding moves log1p(-q) most) and tails within the
            # margin of the threshold
            maybe = (n >= 20) & (q < 1.0 + _STOP_MARGIN) & (
                (q > 1.0 - _STOP_MARGIN)
                | (log_tail < log_rel_tol + sums + _STOP_MARGIN)
            )
        for i in np.flatnonzero(maybe):
            lt_i, prev_i, log_sum_i = float(lt[i]), float(prevs[i]), float(sums[i])
            # geometric tail bound term_n * q/(1-q) with q the observed ratio
            q_i = math.exp(lt_i - prev_i) if prev_i > -math.inf else 0.0
            if q_i >= 1.0:
                continue
            tail = lt_i + math.log(q_i) - math.log1p(-q_i) if q_i > 0.0 else -math.inf
            if tail < log_rel_tol + log_sum_i:
                return SeriesEval(
                    value=math.exp(log_sum_i) if log_sum_i < 709.0 else math.inf,
                    terms_used=int(n[i]),
                    truncation_bound=math.exp(tail) if tail < 709.0 else math.inf,
                    converged=True,
                    log_value=log_sum_i,
                )
        log_sum, prev = float(sums[-1]), float(lt[-1])
        n0 += len(n)
        size = min(4 * size, _MAX_BLOCK)
    return SeriesEval(
        value=math.inf,
        terms_used=max_terms,
        truncation_bound=math.inf,
        converged=False,
        divergence_reason="max_terms reached without convergence",
    )


def geometric_term_ratio(delta, kappa, t):
    """Exact asymptotic term ratio of the exponential-moment series at the
    boundary index alpha = kappa/(kappa+1):
    q = delta * kappa * ((kappa+1)/(kappa*t))**(kappa+1).
    """
    return delta * kappa * ((kappa + 1.0) / (kappa * t)) ** (kappa + 1.0)


def exp_moment(sub, delta, kappa, spec=QuadratureSpec()):
    """int exp(delta / s**kappa) mu_t(ds), summed as a moment series.

    Term n is delta**n / n! times the kappa*n fractional moment.
    Converges for alpha > kappa/(kappa+1) (any delta); at the boundary
    alpha = kappa/(kappa+1) convergence is decided by the exact geometric
    term ratio q = delta*kappa*((kappa+1)/(kappa*t))**(kappa+1), which is
    sharp (sharper by a factor e than the sufficient condition of the
    boundary-case factor); below the boundary any delta > 0 diverges.
    The boundary is alpha == kappa/(kappa+1.0) exactly: an alpha one
    rounding step above it has a finite moment, which the series sums or
    reports as "max_terms reached" when it cannot.

    At alpha = 1/2, kappa = 1 with q = 4*delta/t**2 < 1 the moment is the
    closed form t / (2*sqrt(t**2/4 - delta)) = (1 - q)**(-1/2), returned
    with ``terms_used = 0`` and ``truncation_bound = 0``: the series
    there needs ~1/(1-q) terms and runs out of them as q -> 1.
    """
    delta = float(delta)
    kappa = float(kappa)
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa!r}")
    if delta == 0.0:
        return SeriesEval(value=1.0, terms_used=0, truncation_bound=0.0,
                          converged=True, log_value=0.0)
    if sub.degenerate:
        lv = delta / sub.t ** kappa
        return SeriesEval(value=math.exp(lv), terms_used=0, truncation_bound=0.0,
                          converged=True, log_value=lv)
    boundary = kappa / (kappa + 1.0)
    if sub.alpha < boundary:
        return SeriesEval(
            value=math.inf, terms_used=0, truncation_bound=math.inf,
            converged=False,
            divergence_reason="series diverges: alpha below kappa/(kappa+1)",
        )
    if sub.alpha == boundary:
        q = geometric_term_ratio(delta, kappa, sub.t)
        if q >= 1.0:
            return SeriesEval(
                value=math.inf, terms_used=0, truncation_bound=math.inf,
                converged=False,
                divergence_reason=(
                    f"series diverges: boundary index with geometric term "
                    f"ratio {q:.6g} >= 1"
                ),
            )
        t = sub.t
        # q can round below 1 at delta = t^2/4 exactly; the series then
        # runs out of terms and reports non-convergence, as it should
        if sub.alpha == 0.5 and kappa == 1.0 and delta < t * t / 4.0:
            # 1/S_t is Gamma(1/2) with rate t^2/4 under the Levy law
            return SeriesEval(
                value=t / (2.0 * math.sqrt(t * t / 4.0 - delta)),
                terms_used=0, truncation_bound=0.0, converged=True,
                log_value=-0.5 * math.log1p(-4.0 * delta / (t * t)),
            )
    log_delta = math.log(delta)

    def log_terms(n):
        return (
            n * log_delta
            - log_gamma(n + 1.0)
            + log_fractional_moment(sub, kappa * n)
        )

    return sum_log_series(log_terms, spec.rel_tol)


# --- quadrature against the law ---------------------------------------

def integrate_against(h, sub, spec=QuadratureSpec(), extra_breaks=()):
    """int_0^inf h(s) mu_t(ds) by adaptive quadrature.

    Standardizes to the t = 1 law, maps s = exp(u) onto the whole line
    and splits at the density's mass scale (plus any caller-supplied
    break scales, given in units of s). For alpha = 1 this is just h(t).
    """
    if sub.degenerate:
        return float(h(sub.t))
    a = sub.alpha
    c = sub.scale

    def g(u):
        v = math.exp(u)
        d = _standard_density(a, v, spec)
        if d == 0.0:
            return 0.0
        return h(c * v) * d * v

    breaks = {-6.0, -2.0, 0.0, 2.0}
    for b in extra_breaks:
        if b > 0:
            breaks.add(min(max(math.log(b / c), -35.0), 2.0))
    knots = sorted(breaks)
    v_tail = math.exp(max(knots[-1], math.log(_TAIL_SWITCH)))
    knots.append(math.log(v_tail))
    edges = [(-np.inf, knots[0])]
    edges += list(zip(knots[:-1], knots[1:]))
    total = 0.0
    # per-segment roundoff warnings are expected: a segment carrying a
    # negligible share of the mass cannot meet the relative target on its
    # own; overall accuracy is enforced against oracles in the test suite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in edges:
            if hi <= lo:
                continue
            val, _ = quad(
                g, lo, hi,
                epsabs=spec.abs_tol,
                epsrel=spec.rel_tol,
                limit=spec.max_subdivisions,
            )
            total += val

    # heavy tail v > v_tail: substitute w = v**(-alpha), which maps the
    # regularly varying tail density onto a smooth integrand on (0, w0]
    def g_tail(w):
        if w <= 0.0:
            return 0.0
        v = math.exp(min(-math.log(w) / a, 690.0))
        d = _standard_density(a, v, spec)
        if d == 0.0:
            return 0.0
        return h(c * v) * d * v / (a * w)

    w0 = v_tail ** -a
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            g_tail, 0.0, w0,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
        )
    return total + val
