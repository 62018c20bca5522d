"""The one-sided alpha-stable subordinator law.

The law ``mu_t`` with Laplace transform ``exp(-t * x**alpha)`` for
``alpha`` in (0, 1]; ``alpha = 1`` is the degenerate point mass at t.
Provides the density (closed form at alpha = 1/2, Zolotarev-Kanter
single integral otherwise), exact sampling (Kanter representation),
negative-power moments and the exponential moment
``int exp(delta / s**kappa) mu_t(ds)`` summed as a series of those
moments.
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
    ``sin`` and ``log`` default to numpy's, for arrays of theta; the
    density's quadrature passes ``math.sin`` and ``math.log`` for its
    float nodes, where a numpy call per operation costs more than the
    arithmetic.
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


@lru_cache(maxsize=1 << 18)
def _standard_density(alpha, v, spec):
    """Density at v of the standard one-sided stable law (t = 1).

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
    # Zolotarev-Kanter single integral over u in (0, 1), theta = pi*u.
    a = alpha
    pow_v = -a / (1.0 - a)
    log_c = pow_v * math.log(v)  # log of v**(-a/(1-a))

    def integrand(u):
        la = _kanter_log_a(math.pi * u, a, math.sin, math.log)
        expo = la + log_c
        if expo > _LOG_HUGE:
            return 0.0
        return math.exp(la - math.exp(expo))

    val, _ = quad(
        integrand,
        0.0,
        1.0,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
    )
    if val <= 0.0:
        return 0.0
    # combine the v power and the integral in log domain: either factor
    # alone can over/underflow for extreme v while the density is finite
    log_val = math.log(a / (1.0 - a)) - math.log(v) / (1.0 - a) + math.log(val)
    if log_val < -_LOG_HUGE:
        return 0.0
    return math.exp(log_val)


def density(sub, s, spec=QuadratureSpec()):
    """Density of mu_t at s > 0 (alpha < 1 only)."""
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
