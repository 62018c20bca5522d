"""The one-sided alpha-stable subordinator law.

The law ``mu_t`` with Laplace transform ``exp(-t * x**alpha)`` for
``alpha`` in (0, 1]; ``alpha = 1`` is the degenerate point mass at t.
Provides the density (a convergent series for large argument, otherwise
the Zolotarev-Kanter single integral by one fixed Gauss-Legendre rule in
theta per alpha, built on first use; the Levy closed form at alpha = 1/2
is an oracle only), exact sampling (Kanter representation), negative-power
moments and the exponential moment ``int exp(delta / s**kappa) mu_t(ds)``
summed as a series of those moments, over the window around the peak of
its terms. The density, in float64 on every platform, is within a few
eps (1 + |log v|)(1 + alpha E0)/(1 - alpha) of 30-digit mpmath (see
``_log_zolotarev_density``), whatever the ``QuadratureSpec``.

``integrate_against`` sums h against mu_t with one fixed node set per
alpha on the standard law (``_law_rule``; at alpha = 1 the point mass's
one node), which serves every t by self-similarity: composite 16-point
Gauss-Legendre panels (``_panel_nodes``, the builder of every fixed rule)
in log v from the far left tail to v = 5 and in v^(-alpha) beyond, with
the density folded into the weights. Each rule is certified when it is
built against the closed-form Laplace transform and fractional moments,
to 1e-12 relative or it raises. The ``QuadratureSpec`` does not set its
accuracy either.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.integrate import quad  # unused; bench/tracer.py rebinds it here
from scipy.special import gammaln

from .specfun import _exp_or_inf, _log_or_ninf, log_gamma

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
        """Self-similar scale t**(1/alpha): S ~ scale * S_standard.

        Raises ValueError where it passes float range (say t = 1e160 at
        alpha = 1/2); the moments, formed in logs, still serve that t.
        """
        try:
            return self.t ** (1.0 / self.alpha)
        except OverflowError:
            raise ValueError(f"scale t**(1/alpha) is past float range at "
                             f"t={self.t!r}, alpha={self.alpha!r}") from None


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances passed to the numerical routines. Only ``rel_tol`` is
    read: as the exponential-moment series tolerance, and as the checks'
    verdict band lhs <= rhs * (1 + 10 * rel_tol). No routine integrates
    adaptively, so ``abs_tol`` and ``max_subdivisions`` are validated but
    not read; they stay because the benchmark's ``SPEC`` and the sweep
    JSON's ``quadrature`` block set them.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class MCSpec:
    """Draw count and stream seed of a Monte Carlo check: integers (numpy
    ones too), so that equal specs name one stream, which a check may
    then memoize; ``seed = None`` would draw a fresh stream each time."""

    n_samples: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2: a standard error needs two draws")


@dataclass(frozen=True)
class SeriesEval:
    """Outcome of a term-by-term series summation, stored as its log.

    ``log_value`` is finite whenever the sum is, and nan for a result that
    did not converge (``divergence_reason`` says why; ``converged`` is that
    there is none). ``value`` is derived from the log: inf past float range
    and for a result that did not converge.
    """

    terms_used: int
    truncation_bound: float
    divergence_reason: Optional[str] = None
    log_value: float = math.nan

    @property
    def converged(self):
        return self.divergence_reason is None

    @property
    def value(self):
        return _exp_or_inf(self.log_value) if self.converged else math.inf

    @classmethod
    def exact(cls, log_value):
        return cls(0, 0.0, log_value=log_value)

    @classmethod
    def diverges(cls, reason, terms_used=0):
        return cls(terms_used, math.inf, reason)


# --- density -----------------------------------------------------------

def _kanter_log_a(theta, alpha, sin=np.sin, log=np.log):
    """log A(theta) for the Zolotarev-Kanter kernel, theta in (0, pi).

    A(theta) = (sin(a*th)/sin th)**(a/(1-a)) * sin((1-a)*th)/sin(th).
    ``sin`` and ``log`` default to numpy's, for arrays of theta (the
    density's theta rule); the search for the rule's cut (``_theta_cut``)
    passes ``math.sin`` and ``math.log`` for one float theta at a time.
    ``sample`` takes A's sine ratios from half-angle tangents, without logs.
    """
    a = alpha
    s = log(sin(theta))
    return (a / (1.0 - a)) * (log(sin(a * theta)) - s) + log(
        sin((1.0 - a) * theta)
    ) - s


_TAIL_SWITCH = 5.0  # above this the large-argument series is used
# k and log k!, k = 1..32: past 32 no term of the tail series counts at any
# alpha in (0, 1), and a series that needs more raises IndexError
_TAIL_K = np.arange(1.0, 33.0)
_LOG_FACTORIAL = gammaln(_TAIL_K + 1.0)


def _tail_density_dw(alpha, w):
    """f(v) v^(1+alpha)/alpha, the standard density f times |dv/dw|, at a
    float array w = v^(-alpha) of points of [0, 5^(-alpha)]: the convergent
    large-argument series
    f(v) = (1/pi) sum_k (-1)^(k+1) Gamma(alpha*k+1)/k! sin(pi*alpha*k) v^(-alpha*k-1)
    as a power series in w, (1/(pi alpha)) sum_k (same coefficients) w^(k-1),
    up to its first term below 1e-18 of its largest at the largest point (the
    log terms are concave in k, so every later one is smaller still). The
    coefficients take one ``gammaln`` call on the orders alpha k + 1,
    positive by construction; the powers of w are formed by doubling (rows
    [k, 2k) are rows [0, k) times w^k), and the sum is one product."""
    log_w = math.log(max(float(w.max()), 1e-300))
    log_coef = gammaln(alpha * _TAIL_K + 1.0) - _LOG_FACTORIAL
    at_max = log_coef + (_TAIL_K - 1.0) * log_w
    n = int(np.flatnonzero(at_max < at_max.max() + math.log(1e-18))[0]) + 1
    coef = np.exp(log_coef[:n]) * np.sin(math.pi * alpha * _TAIL_K[:n])
    coef[1::2] = -coef[1::2]
    powers = np.empty((n - 1, len(w)))
    powers[0] = w
    k = 1
    while k < n - 1:
        np.multiply(powers[:min(k, n - 1 - k)], powers[k - 1], out=powers[k:2 * k])
        k *= 2
    return (coef[0] + coef[1:] @ powers) / (math.pi * alpha)


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
_PANEL_TABLE = np.polynomial.legendre.leggauss(16)  # nodes, weights on [-1, 1]
# E0 = c A(0) whose peak at theta = 0 the first panel spans; where the
# density exceeds 1e-300, E0 stays near or below it
_E_MAX = 1000.0
_DEAD = 50.0  # c A beyond which exp(-c A) is dead next to the peak
# log(A / A(0)) up to which a node keeps g and s as floats. Past it (only
# for alpha above about 0.9975, close to v = _TAIL_SWITCH) g and s overflow,
# and the node keeps log g and log(A / A(0)) instead.
_D_FLOAT = 700.0
_BLOCK = 1 << 18  # matrix elements per block of the batched density sum
_MAX_PANELS = 1 << 16  # most panels in one stretch of a fixed rule


def _log_a0(alpha):
    """log A(0) = log(alpha**(alpha/(1-alpha)) * (1-alpha)): A(theta) tends
    to it as theta -> 0, and increases from it."""
    return (alpha / (1.0 - alpha)) * math.log(alpha) + math.log1p(-alpha)


def _panel_nodes(edges, table=_PANEL_TABLE):
    """Nodes and weights of the composite rule of ``table`` (Gauss-Legendre
    nodes, weights on [-1, 1]) on ``edges``; a rule per row of 2-D edges."""
    edges = np.asarray(edges, dtype=float)
    half, rows = 0.5 * (edges[..., 1:, None] - edges[..., :-1, None]), (*edges.shape[:-1], -1)
    return ((edges[..., :-1, None] + half * (table[0] + 1.0)).reshape(rows),
            (half * table[1]).reshape(rows))


def _even_edges(lo, hi, n):
    """np.linspace(lo, hi, n + 1) for n >= 1, bit for bit, without its set-up."""
    edges = np.arange(n + 1.0) * ((hi - lo) / n) + lo
    edges[-1] = hi
    return edges


def _panel_count(span, width, alpha):
    """ceil(span / width) panels of a fixed rule for alpha, before any is
    formed; ValueError naming alpha past _MAX_PANELS (inf and nan too)."""
    count = span / width
    if not count <= _MAX_PANELS:
        raise ValueError(f"the quadrature rule for alpha = {alpha!r} needs "
                         f"{count:.3g} panels (at most {_MAX_PANELS:,})")
    return math.ceil(count)


@lru_cache(maxsize=64)
def _theta_rule(alpha):
    """Four float arrays (g, s, far_lg, far_d) such that, with A0 = A(0),
    E0 = c A0 and any c > 0,
    (1/pi) int_0^pi A e^{-c A} dtheta
        = A0 e^{-E0} (sum_i g_i e^{-E0 s_i} + sum_j e^{far_lg_j - E0 expm1(far_d_j)}).

    At a node of the fixed rule laid out above, with weight w, d = log(A/A0)
    >= 0 (A is increasing), g = w e^d / pi and s = expm1(d). Nodes with d
    above _D_FLOAT go to the second sum, as far_lg = log g and far_d = d.
    Built on first use for each alpha and memoized on alpha alone.
    """
    la0 = _log_a0(alpha)
    half = math.pi / 2
    # left half: panels doubling from the left-tail peak width
    edges = [0.0]
    x = 1.0 / math.sqrt(_E_MAX * alpha / 2.0)
    while x < half / 1.25:
        edges.append(x)
        x *= 2.0
    theta, w_left = _panel_nodes(edges + [half])

    # right half in l = log(pi - theta), from the cut where c A = _DEAD at v = 5
    d_cut = math.log(_DEAD) - la0 + (alpha / (1.0 - alpha)) * math.log(_TAIL_SWITCH)
    lo = _theta_cut(alpha, la0, d_cut)
    n = _panel_count(math.log(half) - lo, min(1.0, 2.0 * (1.0 - alpha)), alpha)
    ell, w_right = _panel_nodes(_even_edges(lo, math.log(half), n))
    gap = np.exp(ell)  # pi - theta
    d = _kanter_log_a(np.concatenate((theta, math.pi - gap)), alpha) - la0
    w = np.concatenate((w_left, w_right * gap)) / math.pi
    near = d <= _D_FLOAT
    if near.all():  # no far node below alpha ~0.9975
        return w * np.exp(d), np.expm1(d), d[:0], d[:0]
    return (w[near] * np.exp(d[near]), np.expm1(d[near]),
            np.log(w[~near]) + d[~near], d[~near])


def _theta_cut(alpha, la0, d_cut):
    """The lower end of a 40-step bisection of [-40, log(pi/2)] for the l
    where log(A / A(0)) at theta = pi - e^l falls to d_cut, on the float log A.
    Three Newton steps from the asymptote log sin(alpha pi) - (1 - alpha)
    (d_cut + log A(0)), 0.0002-0.23 below it, give a root r; once log A is
    seen to cross d_cut within 1e-11 of r, each step farther from r takes its
    side of r, and only the last evaluate log A (all do where that check
    fails: alpha below ~1e-15 or above ~0.99999)."""
    a, p = alpha, alpha / (1.0 - alpha)

    def above(l):  # log(A / A(0)) > d_cut at theta = pi - e^l
        return _kanter_log_a(math.pi - math.exp(l), a, math.sin, math.log) - la0 > d_cut

    below, beyond = -math.inf, math.inf
    try:
        r = math.log(math.sin(a * math.pi)) - (1.0 - a) * (d_cut + la0)
        for _ in range(3):
            th = math.pi - math.exp(r)
            slope = (p * a / math.tan(a * th) + (1.0 - a) / math.tan((1.0 - a) * th)
                     - (p + 1.0) / math.tan(th))  # d log A / d theta
            r += (_kanter_log_a(th, a, math.sin, math.log) - la0 - d_cut) / (math.exp(r) * slope)
        if above(r - 1e-11) and not above(r + 1e-11):
            below, beyond = r - 1e-11, r + 1e-11
    except (ArithmeticError, ValueError):
        pass
    lo, hi = -40.0, math.log(math.pi / 2)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if mid < below or not mid > beyond and above(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _log_zolotarev_density(alpha, v):
    """Log of the standard density at a float array v of points below the
    tail switch, as a float array (-inf where the sum underflows).

    With p = alpha/(1-alpha) and c = v^(-p), the density is
    p v^(-1/(1-alpha)) (1/pi) int_0^pi A(theta) exp(-c A(theta)) dtheta,
    summed over the theta rule of ``_theta_rule`` for all v at once,
    exp(-outer(E0, s)) @ g, in blocks of at most _BLOCK matrix elements,
    all in float64. The density is about exp(-E0), E0 = c A(0) up to ~1e3,
    so its relative error is a few eps (1 + |log v|)(1 + alpha E0)/(1 -
    alpha) against 30-digit mpmath (up to ~6e-12 at alpha = 0.99): the
    rounding of log v through the density's condition number in log v.

    Each exponent -E0 s_j is floored at -400 - log g_j, so exp's result
    stays normal: each floored term (below e^-400, now about e^-400) moves
    its row by under e^-400, and a row whose density is a float (E0 < 745)
    sums to over 1e-4. Columns with log g_j > 300 (alpha above ~0.99) are
    not floored: there the floor's own exp would be subnormal, exp's
    slowest path.
    """
    g, s, far_lg, far_d = _theta_rule(alpha)
    p = alpha / (1.0 - alpha)
    log_v = np.log(np.asarray(v, dtype=float))
    la0 = _log_a0(alpha)
    log_e0 = la0 - p * log_v
    log_pref = math.log(p) - log_v / (1.0 - alpha) + la0
    with np.errstate(over="ignore"):  # E0 = inf far in the left tail
        e0 = np.exp(log_e0)  # c A(0)
    floor = np.where(g > math.exp(300.0), -np.inf, -400.0 - np.log(g))
    log_total = np.empty(len(e0))
    rows = max(1, _BLOCK // (len(s) + len(far_d)))
    for i in range(0, len(e0), rows):
        block = slice(i, i + rows)
        with np.errstate(over="ignore", divide="ignore"):  # -E0 s = -inf: floored
            terms = np.einsum("i,j->ij", -e0[block], s)  # -E0 s, 2x the broadcast's speed
            np.exp(np.maximum(terms, floor, out=terms), out=terms)
            part = np.log(terms @ g)
        if len(far_d):
            # E0 s = exp(log E0 + d) exactly enough: expm1(d) = e^d past 700.
            # d falls along the rule, so the nodes dead on every row (E0 s =
            # inf past log E0 + d = 710, e^-inf = 0) come first; they enter the
            # sum as zeros with no exp, which keeps its order, and a row of
            # dead nodes sums to -inf
            dead = np.searchsorted(-far_d, log_e0[block].min() - 710.0)
            with np.errstate(over="ignore", divide="ignore"):
                x = far_lg[dead:] - np.exp(log_e0[block, None] + far_d[dead:])
                top = x.max(axis=1, initial=-np.inf)
                top[top == -np.inf] = 0.0
                far_terms = np.zeros((len(x), len(far_d)))
                np.exp(x - top[:, None], out=far_terms[:, dead:])
                far = top + np.log(far_terms.sum(axis=1))
            part = np.logaddexp(part, far)
        log_total[block] = part
    return log_pref - e0 + log_total


@lru_cache(maxsize=1 << 18)
def _standard_density(alpha, v):
    """Density at v of the standard one-sided stable law (t = 1).

    The convergent series of ``_tail_density_dw`` for v >= 5, otherwise
    the Zolotarev-Kanter integral of ``_log_zolotarev_density``, in float64,
    to within a few eps (1 + |log v|)(1 + alpha E0)/(1 - alpha) relative,
    its far left tail included (see there); alpha = 1/2 as well, where the
    Levy closed form is the tests' oracle.

    Memoized, though ``integrate_against`` no longer calls it: the
    benchmark (bench/tracer.py, bench/worker.py) reads its ``cache_info()``.
    """
    if v <= 0.0:
        return 0.0
    if v >= _TAIL_SWITCH:
        w = v ** -alpha  # f(v) = alpha phi(w) v^(-1-alpha) = alpha phi(w) w / v
        phi = float(_tail_density_dw(alpha, np.array([w]))[0])
        return max(alpha * phi * w / v, 0.0)
    log_val = _log_zolotarev_density(alpha, [v])[0]
    if log_val < -_LOG_HUGE:
        return 0.0
    return float(np.exp(log_val))


def density(sub, s):
    """Density of mu_t at s > 0 (alpha < 1 only).

    By self-similarity, the standard density at v = s / c divided by c,
    with the scale c = t**(1/alpha); see ``_standard_density``. Where c
    is a normal float and v finite that is the arithmetic; past that
    (t = 1e-200 or 1e200 at alpha = 1/2, or s = 10 at t = 1.5e-154) c
    enters only as l = log t / alpha: v as log s - l, and the result as
    exp(log f(v) - l), inf past float range. The Zolotarev integral is
    summed by a fixed theta rule.
    """
    if sub.degenerate:
        raise ValueError("alpha = 1 is the point mass at t and has no density")
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"density requires s > 0, got {s!r}")
    a = sub.alpha
    try:
        c = sub.scale
    except ValueError:  # past float range
        c = math.inf
    if sys.float_info.min <= c < math.inf and s / c < math.inf:
        return _standard_density(a, s / c) / c
    ell = math.log(sub.t) / a
    log_v = math.log(s) - ell
    if log_v >= math.log(_TAIL_SWITCH):  # f(v) = alpha phi(w) v^(-1-alpha)
        phi = float(_tail_density_dw(a, np.array([math.exp(-a * log_v)]))[0])
        log_f = math.log(a * phi) - (1.0 + a) * log_v if phi > 0.0 else -math.inf
    else:  # v = 0 where it underflows, deep in the left tail
        v = math.exp(log_v)
        log_f = float(_log_zolotarev_density(a, [v])[0]) if v > 0.0 else -math.inf
    return _exp_or_inf(log_f - ell)


# --- sampling ----------------------------------------------------------

# Elements per block of every batched array pass (``_blocks``): the Kanter
# transform's draws, the Gaussian rule's rows, the entropy checks' z columns.
# Whole-size temporaries page-fault afresh on every call, and 4096 draws a
# block would pay the per-ufunc overhead.
_SAMPLE_BLOCK = 1 << 14


def _blocks(n, width):
    """Slices of range(n) in order, each of _SAMPLE_BLOCK // width items
    (at least one, the last fewer) of ``width`` elements each."""
    step = max(1, _SAMPLE_BLOCK // width)
    return (slice(i, i + step) for i in range(0, n, step))


def sample(sub, rng, size=None):
    """Draw from mu_t via the Kanter representation.

    ``rng`` is a numpy Generator owned by the caller; ``size=None`` gives
    one float; at alpha = 1 (the drift) t is returned. With theta uniform
    on [0, pi), W standard exponential, p = (1 - alpha)/alpha,
    tau = tan(theta/2), u = tan(alpha theta/2) and D = tau (1 + u^2),
    S = scale [u (1 + tau^2)/D] [(tau - u)(1 + tau u)/(D W)]**p, whose
    brackets are sin(alpha theta)/sin theta and
    sin((1 - alpha) theta)/(sin theta W): two tan (SIMD in numpy) and one
    power a draw. tau - u cancels only inside the power, so S is within a
    few ulp/alpha of its value at the float theta, plus ulp/(1 - alpha)
    near pi from rounding alpha theta. At theta = 0 the brackets (0/0)
    take their limits alpha and 1 - alpha; where the power overflows, S
    is formed in logs. theta is drawn whole first (pi * ``rng.random``, the
    stream of ``uniform(0, pi)``), then each block of ``_SAMPLE_BLOCK``
    draws its W and writes S over its theta: the stream and final state of
    one whole-size draw of W, with no draw-sized array but the one returned.
    """
    if sub.degenerate:
        return sub.t if size is None else np.full(size, sub.t)
    a, p = sub.alpha, (1.0 - sub.alpha) / sub.alpha
    out = rng.random(out=np.empty(() if size is None else size))
    out *= np.pi
    s = out.reshape(-1)  # a view: S overwrites theta block by block
    buffers = np.empty((5, min(len(s), _SAMPLE_BLOCK)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block in _blocks(len(s), 1):
            sb = s[block]
            tau, u, d, x, w = buffers[:, :len(sb)]
            np.tan(np.multiply(sb, 0.5, out=tau), out=tau)
            np.tan(np.multiply(sb, 0.5 * a, out=u), out=u)
            np.add(np.multiply(u, u, out=d), 1.0, out=d)
            d *= tau  # D
            np.add(np.multiply(tau, u, out=x), 1.0, out=x)
            x *= np.subtract(tau, u, out=sb)
            x /= d  # sin((1 - alpha) theta)/sin theta
            np.add(np.multiply(tau, tau, out=sb), 1.0, out=sb)
            sb *= u
            sb /= d  # sin(alpha theta)/sin theta
            if not tau.all():
                zero = tau == 0.0
                sb[zero], x[zero] = a, 1.0 - a
            x /= rng.standard_exponential(out=w)
            sb *= sub.scale
            sb *= np.power(x, p, out=x)
            if sb.max() == math.inf:  # or only the power overflowed
                big = sb == math.inf
                tb, ub, db = tau[big], u[big], d[big]
                yb, xb = ub * (tb * tb + 1.0) / db, (tb - ub) * (tb * ub + 1.0) / db
                yb[tb == 0.0], xb[tb == 0.0] = a, 1.0 - a
                sb[big] = np.exp(math.log(sub.scale) + np.log(yb)
                                 + p * (np.log(xb) - np.log(w[big])))
    return out[()]  # a float for size=None


def laplace(sub, x):
    """Laplace transform E exp(-x S) = exp(-t * x**alpha)."""
    x = float(x)
    if not x >= 0.0:
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
    log_gamma_ra = log_gamma(r / a)
    if isinstance(r, np.ndarray) and r.ndim:
        # as 0 < a <= 1, log_gamma(r / a) has rejected every order that
        # log_gamma(r) would, so Gamma(r) takes gammaln unchecked
        log_gamma_r = gammaln(r.astype(float, copy=False))
    else:
        log_gamma_r = log_gamma(r)
    return log_gamma_ra - math.log(a) - log_gamma_r - (r / a) * math.log(sub.t)


def fractional_moment(sub, r):
    """int s**(-r) mu_t(ds), valid for every r > 0 and alpha in (0, 1];
    inf where that passes float range."""
    if sub.degenerate:
        # point mass at t: exactly t**(-r), bypass the log round trip
        if not float(r) > 0.0:
            raise ValueError(f"fractional moment requires r > 0, got {r!r}")
        try:
            return sub.t ** -float(r)
        except OverflowError:
            return math.inf
    return _exp_or_inf(log_fractional_moment(sub, r))


_FIRST_BLOCK = 64  # terms in the first block; each next one is 4x, up to the cap
_MAX_BLOCK = 4096
_STOP_MARGIN = 1e-6  # slack of the numpy pre-screen of the stopping rule
_MAX_TERMS = 200000  # the forward rule's default budget of indices


class _Window(NamedTuple):
    """Where ``sum_log_series`` starts and what it knows of the indices
    before: the head [0, first) holds the leading 1 and ``head_terms``
    more terms, summed exactly to ``log_head``, then a gap whose sum is at
    most exp(``log_gap``). ``ratio``, if given, maps an index array n to a
    bound on every term ratio from n on, a floor under the observed ratio
    in the tail bound where that one does not bound the later ratios."""

    first: int = 1
    log_head: float = 0.0
    log_gap: float = -math.inf
    head_terms: int = 0
    ratio: Optional[Callable] = None


_FROM_ONE = _Window()


def sum_log_series(log_terms, rel_tol, max_terms=_MAX_TERMS, _window=_FROM_ONE):
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

    The private ``_window`` (see ``_sum_around_peak``) starts the same
    rule at index ``first`` on top of the head's exact sum, for at most
    ``max_terms`` indices; the gap bound joins the tail bound in
    ``truncation_bound``, and ``terms_used`` counts the head's summed
    terms too. With the default window every result is that of the sum
    from n = 1.
    """
    first, log_sum, log_gap, head_terms, ratio = _window
    log_rel_tol = math.log(rel_tol)
    prev = float(log_terms(np.array([first - 1]))[0]) if first > 1 else -math.inf
    last = first - 1 + max_terms
    n0, size = first, _FIRST_BLOCK
    while n0 <= last:
        n = np.arange(n0, min(n0 + size, last + 1))
        lt = np.asarray(log_terms(n), dtype=float)
        sums = np.logaddexp.accumulate(np.concatenate(([log_sum], lt)))[1:]
        prevs = np.concatenate(([prev], lt[:-1]))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q = np.where(prevs > -np.inf, np.exp(lt - prevs), 0.0)
            if ratio is not None:
                floor = ratio(n)
                q = np.maximum(q, floor)
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
            if ratio is not None:
                q_i = max(q_i, float(floor[i]))
            if q_i >= 1.0:
                continue
            tail = lt_i + math.log(q_i) - math.log1p(-q_i) if q_i > 0.0 else -math.inf
            if tail < log_rel_tol + log_sum_i:
                if log_gap > -math.inf:
                    tail = float(np.logaddexp(tail, log_gap))
                return SeriesEval(terms_used=head_terms + int(n[i]) - first + 1,
                                  truncation_bound=_exp_or_inf(tail),
                                  log_value=log_sum_i)
        log_sum, prev = float(sums[-1]), float(lt[-1])
        n0 += len(n)
        size = min(4 * size, _MAX_BLOCK)
    return SeriesEval.diverges("max_terms reached without convergence",
                               head_terms + max_terms)


# The window around the peak of a series whose log terms l(n) are concave
# from index m on (l(n+1) - l(n) non-increasing for n >= m): past the peak
# the observed term ratio bounds every later one, so the forward rule's
# tail bound is a real bound, and before the window the terms fall at
# least geometrically, with the ratio at the window's edge.
_PEAK_CAP = 1 << 30  # the peak search looks at no index past this
_WINDOW_MARGIN = 10.0  # the window starts where terms reach rel_tol e^-10 of the peak
_SEARCH_POINTS = 64  # indices per step of the search, one array call each


def _first_true(lo, hi, test):
    """The first n in (lo, hi] where ``test`` holds, given that ``test``
    (on an index array) is false at lo, true at hi and monotone between;
    each step tests ``_SEARCH_POINTS`` evenly spaced indices at once."""
    while hi - lo > 1:
        if hi - lo > _SEARCH_POINTS:
            n = lo + (hi - lo) * np.arange(1, _SEARCH_POINTS) // _SEARCH_POINTS
        else:
            n = np.arange(lo + 1, hi)
        ok = test(n)
        i = int(ok.argmax()) if ok.any() else len(n)
        lo, hi = (int(n[i - 1]) if i else lo), (int(n[i]) if i < len(n) else hi)
    return hi


def _sum_around_peak(log_terms, rel_tol, concave_from, ratio=None):
    """``sum_log_series`` over the window where the terms matter.

    ``concave_from`` is an index m from which the log terms l(n) are
    certified concave. A series the forward rule finishes within its
    first block of 64 terms is summed that way, as the search would cost
    more. Otherwise the peak n* is located on the indices m 2^k, up to
    the first past ``_PEAK_CAP``, then found as the first n with
    l(n+1) <= l(n) (``_first_true``, on the same ``log_terms`` the sum
    uses); the window starts at the first n with
    l(n) >= l(n*) + log(rel_tol) - ``_WINDOW_MARGIN``. The head before it
    is summed exactly up to m - 1 and bounded geometrically on [m, first)
    with the term ratio at the window's edge. Where the window would start
    at or before m, where a head term reaches the window's threshold, or
    where the gap bound exceeds rel_tol times the peak term, the series is
    summed from n = 1 (``ratio`` as in ``_Window``). A peak past the cap,
    or one more than max_terms past the window's start, is reported
    non-converged, naming the peak. ``terms_used`` counts the terms of the
    sum returned, not those of a first block given up.
    """
    start = _FROM_ONE if ratio is None else _Window(ratio=ratio)
    quick = sum_log_series(log_terms, rel_tol, _FIRST_BLOCK, start)
    if quick.converged:  # a short series costs less than the search
        return quick

    def plain():
        return sum_log_series(log_terms, rel_tol, _window=start)

    def rises(n):
        l = log_terms(np.concatenate((n, n + 1)))
        return l[len(n):] > l[:len(n)]

    def past_cap(n):
        return SeriesEval.diverges(f"series terms still rise at n = {n}; the "
                                   f"search for their peak stops at n = {_PEAK_CAP}")

    m = concave_from
    if m > min(_PEAK_CAP, _MAX_TERMS):  # no concavity to lean on in reach
        return past_cap(_PEAK_CAP) if rises(np.array([_PEAK_CAP]))[0] else plain()
    # m, 2m, 4m, ..., up to the first index past the cap
    ns = m * 2 ** np.arange(int(math.log2(_PEAK_CAP / m)) + 2)
    up = rises(ns)
    if not up[0]:  # the peak lies at or before m
        return plain()
    if up.all():
        return past_cap(int(ns[-1]))
    k = int(up.argmin())
    peak = _first_true(int(ns[k - 1]), int(ns[k]), lambda n: ~rises(n))
    # the threshold must pass the leading 1 and l(1), ..., l(m); the head
    # sums those before m
    head = np.asarray(log_terms(np.arange(1, m + 1)), dtype=float)
    top = float(log_terms(np.array([peak]))[0])
    threshold = top + math.log(rel_tol) - _WINDOW_MARGIN
    if threshold <= float(head.max(initial=0.0)):
        return plain()
    first = _first_true(m, peak, lambda n: log_terms(n) >= threshold)
    l_before, l_first = (float(v) for v in log_terms(np.array([first - 1, first])))
    rise = l_first - l_before
    # terms on [m, first) fall at least by exp(-rise) a step going back
    log_gap = l_first - rise - math.log(-math.expm1(-rise))
    if log_gap >= math.log(rel_tol) + top:
        return plain()
    if peak - first >= _MAX_TERMS:
        return SeriesEval.diverges(f"series terms peak at n = {peak}, more than "
                                   "max_terms past the start of their window")
    log_head = float(np.logaddexp.reduce(np.concatenate(([0.0], head[:-1]))))
    return sum_log_series(log_terms, rel_tol,
                          _window=_Window(first, log_head, log_gap, m - 1))


def geometric_term_ratio(delta, kappa, t):
    """Exact asymptotic term ratio of the exponential-moment series at the
    boundary index alpha = kappa/(kappa+1):
    q = delta * kappa * ((kappa+1)/(kappa*t))**(kappa+1);
    inf where that passes float range (0 at delta = 0).
    """
    try:
        return delta * kappa * ((kappa + 1.0) / (kappa * t)) ** (kappa + 1.0)
    except OverflowError:
        return math.inf if delta else 0.0


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
    reports non-converged, with the reason, when it cannot.

    Above the boundary the log terms are concave from an index m
    (``_log_concave_from``), and the series is summed over the window
    around the peak of its terms (``_sum_around_peak``): the terms at
    alpha = 0.55, t = 0.5, delta = 1 peak at n ~ 404,000, past the forward
    sum's max_terms, and their window is ~21,600 terms. The head before
    the window enters ``truncation_bound`` with the tail. Before m, where
    the observed term ratio need not bound the later ones, the tail bound
    takes the proven ratio bound of ``_ratio_bound``; at the boundary,
    where the ratio rises toward q, it takes q. ``truncation_bound`` covers
    truncation only: each log term is a sum of log-gamma values of size
    ~n log n, rounded to ~1e-16 of that, so at n ~ 404,000 the log value
    (73,505.0495) is good to ~2e-9.

    At alpha = 1/2, kappa = 1 with q = 4*delta/t**2 < 1 the moment is the
    closed form t / (2*sqrt(t**2/4 - delta)) = (1 - q)**(-1/2), returned
    with ``terms_used = 0`` and ``truncation_bound = 0``: the series
    there needs ~1/(1-q) terms and runs out of them as q -> 1.
    A finite moment past float range has value inf and a finite log.

    The arguments are checked on every call, and the result is memoized
    per ``(sub, delta, kappa, spec.rel_tol)`` (``_exp_moment_memo``): the
    spec enters only through ``rel_tol``, the one field the series reads.
    The power-Harnack checks ask for the same moment for every test
    function and factor mode.
    """
    delta = float(delta)
    kappa = float(kappa)
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa!r}")
    return _exp_moment_memo(sub, delta, kappa, spec.rel_tol)


@lru_cache(maxsize=1 << 12)
def _exp_moment_memo(sub, delta, kappa, rel_tol):
    """``exp_moment`` for checked float delta >= 0 and kappa > 0."""
    if delta == 0.0:
        return SeriesEval.exact(0.0)
    if sub.degenerate:
        return SeriesEval.exact(delta * fractional_moment(sub, kappa))
    boundary = kappa / (kappa + 1.0)
    if sub.alpha < boundary:
        return SeriesEval.diverges("series diverges: alpha below kappa/(kappa+1)")
    if sub.alpha == boundary:
        q = geometric_term_ratio(delta, kappa, sub.t)
        if q >= 1.0:
            return SeriesEval.diverges("series diverges: boundary index with "
                                       f"geometric term ratio {q:.6g} >= 1")
        t = sub.t
        # q can round below 1 at delta = t^2/4 exactly; the series then
        # runs out of terms and reports non-convergence, as it should
        if sub.alpha == 0.5 and kappa == 1.0 and delta < t * t / 4.0:
            # 1/S_t is Gamma(1/2) with rate t^2/4 under the Levy law
            return SeriesEval.exact(-0.5 * math.log1p(-4.0 * delta / (t * t)))
    log_delta = math.log(delta)

    def log_terms(n):
        # every index n is >= 1, so the order n + 1 needs no check
        return (n * log_delta - gammaln(n + 1.0)
                + log_fractional_moment(sub, kappa * n))

    if sub.alpha == boundary:
        # the term ratio rises toward q (seen for kappa from 0.3 to 5, up to
        # n = 200,000), so q bounds every ratio of the tail
        return sum_log_series(log_terms, rel_tol,
                              _window=_Window(ratio=lambda n: np.full(n.shape, q)))
    m = _log_concave_from(sub.alpha, kappa)
    # the forward rule stops at no n < 20, where the floor is moot
    ratio = _ratio_bound(sub, delta, kappa, m) if m >= 20 else None
    return _sum_around_peak(log_terms, rel_tol, m, ratio)


def _log_concave_from(alpha, kappa):
    """An index m from which the exponential-moment series' log terms
    l(n) = n log delta - log n! + log E S^(-kappa n) are concave: l(n+1) -
    l(n) does not increase for n >= m, whatever delta and t.

    With b = kappa/alpha, l''(x) = b^2 psi'(b x) - kappa^2 psi'(kappa x)
    - psi'(x + 1), and 1/y + 1/(2y^2) < psi'(y) < 1/y + 1/(2y^2) + 1/(6y^3)
    give l''(x) <= 0 wherever c = kappa + 1 - b >= (1/2 + 1/(6b))/x (x >= 1).
    The second difference at n averages l'' over [n - 1, n + 1], so
    m = ceil(x) for that x. inf where c <= 0, at and below the boundary.
    """
    b = kappa / alpha
    c = kappa + 1.0 - b
    if c <= 0.0:
        return math.inf
    # 1e-9: room for the rounding of c
    return math.ceil(max(1.0, (0.5 + 1.0 / (6.0 * b)) / c * (1.0 + 1e-9)))


def _ratio_bound(sub, delta, kappa, m):
    """n -> exp(U(n)) for n <= m, a bound on every term ratio r(k), k >= n,
    of the exponential-moment series above the boundary; 0 past m, where
    concavity makes the observed ratio one.

    r(k) = delta t^-b Gamma(bk + b) Gamma(kappa k) / (Gamma(bk)
    Gamma(kappa k + kappa) (k + 1)) with b = kappa/alpha. The mean value
    theorem on log Gamma (psi increasing) and log x - 1/x < psi(x) <
    log x - 1/(2x) give log r(k) < U(k) = log Q - c log(k + 1)
    + kappa log(1 + 1/k) + 1/k - 1/(2(k + 1)), with c = kappa + 1 - b and
    Q = delta t^-b b^b / kappa^kappa; U decreases in k.
    """
    b = kappa / sub.alpha
    c = kappa + 1.0 - b
    log_q = (math.log(delta) - b * math.log(sub.t) + b * math.log(b)
             - kappa * math.log(kappa))

    def bound(n):
        u = (log_q - c * np.log1p(n) + kappa * np.log1p(1.0 / n)
             + 1.0 / n - 0.5 / (n + 1.0))
        return np.where(n <= m, np.exp(u), 0.0)

    return bound


# --- quadrature against the law ---------------------------------------

# One node set per alpha on the standard law (t = 1) serves every t and
# every h, by self-similarity: int h dmu_t = sum_i w_i h(t^(1/alpha) v_i).
# Its layout is worked out from alpha alone (``_law_rule``), with p =
# alpha/(1-alpha) and E0 = v^(-p) A(0), the left tail's log-density scale:
#   * bulk, u = log v from the left cut where E0 = _E_CUT to log 5:
#     panels uniform in u up to the mode (E0 = 1), each at most 1/p wide
#     (E0 changes by a factor e across one) and at most 1; past the mode,
#     where the density flattens into its power tail, widths double from
#     there up to 1;
#   * tail, v >= 5, in w = v^(-alpha) on (0, 5^(-alpha)]: the density times
#     dv/dw is a power series in w there (``_tail_density_dw``). h
#     brings fractional powers of w (s^(-r), the heat kernel's s^(-d/2))
#     and steps like exp(-x s), so the panels are geometric toward w = 0,
#     each a factor of at most _TAIL_RATIO in w and _TAIL_U in u:
#     _TAIL_PANELS of them, then one last panel onto 0. (A factor 4 left
#     the alpha = 1/2 heat kernel 4e-11 off at |x - y| = 50 t.)
# The density at the bulk nodes is one batched sum over the theta rule
# (``_log_zolotarev_density``), at alpha = 1/2 too. Nodes whose weight
# underflows are dropped, so h is never
# called where it cannot matter: the left cut keeps exp(delta/s) below
# float overflow at 0.9 of the exponential-moment radius.
_E_CUT = 700.0
_TAIL_RATIO = 3.0  # largest factor in w across one tail panel
_TAIL_U = 3.0  # largest width of a tail panel in u = log v
_TAIL_PANELS = 10
_CERT_TOL = 1e-12
_CERT_LAPLACE = np.array([0.0, 0.1, 1.0, 10.0])  # x of exp(-x^alpha); 0 is the mass
_CERT_MOMENTS = np.array([0.5, 1.0, 2.0, 3.0])  # r of the closed-form moments


@dataclass(frozen=True)
class _LawRule:
    """Nodes ``v`` and weights ``w`` (density folded in) on the standard
    law, their logs ``log_v`` and ``log_w``, and ``certified_error``: the
    worst relative error of the rule against the closed-form Laplace
    transform and fractional moments. A kernel summed in logs takes the
    scale t^(1/alpha) as log t / alpha and never forms it."""

    v: np.ndarray
    w: np.ndarray
    log_v: np.ndarray
    log_w: np.ndarray
    certified_error: float
    _node_terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def sqrt_v(self):
        """sqrt v_i, formed on first use (the heat kernel's sigma_i)."""
        return np.sqrt(self.v)

    @cached_property
    def mass(self):
        """sum_i w_i, formed on first use."""
        return float(self.w.sum())

    def node_terms(self, d):
        """log w_i - (d/2) log v_i, the heat kernel's terms in d dimensions:
        built on first use for each d, read-only so no in-place pass alters them."""
        if d not in self._node_terms:  # stored only once read-only
            terms = self.log_w - 0.5 * d * self.log_v
            terms.flags.writeable = False
            self._node_terms[d] = terms
        return self._node_terms[d]


def _certify(alpha, v, w, log_v):
    """Worst relative error of the rule (v, w) on the standard law against
    exp(-x^alpha) at _CERT_LAPLACE and the closed-form fractional moments
    (``log_fractional_moment``) at _CERT_MOMENTS; compared in logs,
    since the moments overflow a float for small alpha, and inf if a sum
    is not finite and positive. The sums are one product exp(log h) @ w."""
    log_want = np.concatenate((-_CERT_LAPLACE ** alpha, log_fractional_moment(
        StableSubordinator(alpha, 1.0), _CERT_MOMENTS)))
    log_h = np.concatenate((-_CERT_LAPLACE[:, None] * v, -_CERT_MOMENTS[:, None] * log_v))
    with np.errstate(over="ignore"):
        got = np.exp(log_h) @ w
    if not np.all((0.0 < got) & (got < math.inf)):
        return math.inf
    return float(np.abs(np.expm1(np.log(got) - log_want)).max())


@lru_cache(maxsize=64)
def _law_rule(alpha):
    """The fixed rule on the standard law, laid out as above for
    0 < alpha < 1; built on first use for each alpha, memoized on alpha
    alone, and certified when it is built (``_certify``). At alpha = 1 the
    law is the point mass at 1, and the rule is its one node v = 1 with
    weight 1: zero logs, exact, so ``certified_error`` is 0.

    Raises ValueError naming alpha if its certified error is above
    _CERT_TOL: no value is ever summed by an uncertified rule, and alpha is
    certified in [0.02746, 0.99992] and at 1 only; and, before any panel
    array is formed (``_panel_count``), for alpha below about 1e-4
    (~6.6/alpha bulk panels) or in (0.99992, 1) (the theta rule's
    ~5/(1 - alpha)), past _MAX_PANELS = 65,536 in one stretch, and below
    about 0.0093, where the first node is below float range.
    """
    if alpha == 1.0:
        return _LawRule(np.ones(1), np.ones(1), np.zeros(1), np.zeros(1), 0.0)
    p = alpha / (1.0 - alpha)
    la0 = _log_a0(alpha)
    # bulk in u = log v
    u_cut = (la0 - math.log(_E_CUT)) / p
    u_mode = la0 / p
    u_end = math.log(_TAIL_SWITCH)
    width = min(1.0 / p, 1.0)
    n_left = _panel_count(u_mode - u_cut, width, alpha)
    if u_cut < math.log(sys.float_info.min):  # no node below float range
        raise ValueError(f"the quadrature rule for alpha = {alpha!r} needs nodes from "
                         f"v = e^{u_cut:.4g}, below float range")
    top, past_mode = u_mode, []
    while top + width < u_end:
        past_mode.append(top := top + width)
        width = min(2.0 * width, 1.0)
    u, wu = _panel_nodes(np.concatenate((_even_edges(u_cut, u_mode, n_left),
                                         past_mode, [u_end])))
    v_bulk = np.exp(u)
    w_bulk = np.exp(_log_zolotarev_density(alpha, v_bulk) + u + np.log(wu))

    # tail in w = v^(-alpha), its nodes last, in decreasing w
    w0 = _TAIL_SWITCH ** -alpha
    step = min(math.log(_TAIL_RATIO), _TAIL_U * alpha)  # panel width in log w
    ww, wt = _panel_nodes([0.0] + [w0 * math.exp(-step * k)
                                   for k in range(_TAIL_PANELS, -1, -1)])
    v = np.concatenate((v_bulk, np.exp(-np.log(ww) / alpha)[::-1]))
    w = np.concatenate((w_bulk, (wt * _tail_density_dw(alpha, ww))[::-1]))
    keep = w > 0.0
    if not keep.all():  # drop the nodes whose weight underflows
        v, w = v[keep], w[keep]
    log_v = np.log(v)
    error = _certify(alpha, v, w, log_v)
    if not error <= _CERT_TOL:
        raise ValueError(
            f"the quadrature rule for alpha = {alpha!r} certifies only to "
            f"{error:.3g} relative (needs {_CERT_TOL:g})")
    return _LawRule(v, w, log_v, np.log(w), error)


def _law_nodes(sub):
    """The nodes s_i = t^(1/alpha) v_i of ``_law_rule(alpha)``; [t] at alpha = 1."""
    return sub.scale * _law_rule(sub.alpha).v


def _law_logsum(sub, log_h):
    """log sum_i w_i h_i over the nodes of ``_law_nodes(sub)``.

    An array log_h has a row per node and one log-sum per column (a 1-D
    log_h is one sum), each shifted by its largest term; a column with no
    finite term gives its largest. A list holds the summands of h, each
    an atom's P_s f: a float c (h = e^c at every node), an array of log h,
    or a pair (c, v), h = e^c v with v >= 0 of moderate scale, summed as
    it is. All of them take one shift, by the largest log; the arrays one
    exp and one product with w, so no term rounds at the ulp of log w_i,
    and each w_i is a normal float (the left cut keeps the density above
    e^-700), so the largest term keeps its precision."""
    rule = _law_rule(sub.alpha)
    if type(log_h) is not list:
        terms = np.add(log_h.T, rule.log_w).T  # log w_i on row i
        shift = np.where(np.isfinite(top := terms.max(axis=0)), top, 0.0)
        with np.errstate(divide="ignore"):  # log 0 = -inf for h = 0
            return shift + np.log(np.exp(np.subtract(terms, shift, out=terms), out=terms).sum(axis=0))
    if len(log_h) == 1 and type(log_h[0]) is tuple:  # one value: no shift
        return log_h[0][0] + _log_or_ninf(float(rule.w @ log_h[0][1]))
    top, pairs, logs = -math.inf, [], []
    for term in log_h:
        if type(term) is np.ndarray:
            logs.append(term)
            continue
        pairs.append(term := (term, None) if type(term) is float else term)
        top = max(top, term[0])
    if logs:
        logs = logs[0] if len(logs) == 1 else np.stack(logs)
        top = top if (log_top := float(np.maximum.reduce(logs, None))) < top else log_top
    if not math.isfinite(top):  # nan stays
        return top
    total = 0.0
    for c, v in pairs:
        total += math.exp(c - top) * (rule.mass if v is None else float(rule.w @ v))
    if len(logs):
        total += float(np.add.reduce(np.exp(logs - top) @ rule.w, None))
    return top + _log_or_ninf(total)


def integrate_against(h, sub, spec=QuadratureSpec()):
    """int_0^inf h(s) mu_t(ds), by one fixed rule per alpha.

    The sum sum_i w_i h(t^(1/alpha) v_i) over the nodes v_i and weights w_i
    of ``_law_rule(alpha)`` on the standard law (336-384 nodes for alpha
    in [0.5, 0.97], up to 1,200 at alpha = 0.1), laid out and certified as
    above, with h called once per node with a float and summed linearly,
    so a signed h is summed too (the library's own integrals take log h on
    all nodes at once: ``_law_logsum``); at alpha = 1 it is h(t).
    ``spec`` is not read; acceptance criterion 01 and the benchmark pass
    it. h should vary on the scale of the panels (about one unit of log s)
    or slower. Known limit: near the exponential-moment radius
    h = exp(delta/s) grows into the far left tail faster than that, and at
    0.99 of the radius (alpha = 1/2) the sum is ~2e-4 off.
    """
    return float(_law_rule(sub.alpha).w @ np.array([*map(h, _law_nodes(sub).tolist())]))
