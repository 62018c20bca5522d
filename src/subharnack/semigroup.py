"""Concrete base semigroups and their stable-time-changed versions.

Two base models: the Gaussian heat kernel on R^d (generator the
Laplacian, curvature proxy K = 0) and the 1-d Ornstein-Uhlenbeck
semigroup (generator Laplacian minus x.grad, standard Gaussian invariant
measure, K = -1). Both transition laws are Gaussian, so P_s f reduces to
a Gaussian expectation with closed forms for the shipped test-function
family; the time change integrates P_s against the subordinator law.

P_s f is defined for a ``TestFunction`` f only: its closed Gaussian
expectation where it has one, and otherwise one fixed Gauss-Legendre
rule whose panels break at the points ``f.breakpoints()`` declares. No
value is integrated adaptively. A plain callable raises TypeError; to
use one, subclass TestFunction and declare its breakpoints.

At alpha = 1/2 the subordinated heat semigroup is the Cauchy/Poisson
semigroup, whose closed form is the module's independent oracle.
"""

import math
from functools import lru_cache
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad  # unused; bench/tracer.py rebinds it here
from scipy.special import erfcx, gammaln, log_ndtr, ndtr

from .bounds import _exp_or_inf
from .subordinator import QuadratureSpec, _OnArrays, integrate_against

__all__ = [
    "BaseKernel",
    "gauss_heat",
    "ou1d",
    "TestFunction",
    "Constant",
    "GaussBump",
    "Indicator",
    "ExpAffine",
    "ShiftedForLog",
    "kernel_density",
    "apply",
    "subordinated_apply",
    "subordinated_density",
    "cauchy_closed_form",
    "ondiag",
]

_MAX_DIM = 3
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BaseKernel:
    """A base Markov semigroup: 'gauss_heat' on R^d or 'ou1d'."""

    kind: str
    d: int = 1

    def __post_init__(self):
        if self.kind not in ("gauss_heat", "ou1d"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "ou1d" and self.d != 1:
            raise ValueError("ou1d is one-dimensional")
        if not (1 <= self.d <= _MAX_DIM):
            raise ValueError(f"dimension must be in [1, {_MAX_DIM}], got {self.d}")

    @property
    def curvature_K(self):
        return 0.0 if self.kind == "gauss_heat" else -1.0

    def mean_sigma(self, s, x, xp=math):
        """Per-coordinate Gaussian transition parameters at time s from x,
        a float coordinate or a float array of coordinates. ``xp`` is the
        module whose exp, expm1 and sqrt it uses: ``math`` for a float s,
        ``numpy`` for an array of times."""
        if self.kind == "gauss_heat":
            return x, xp.sqrt(2.0 * s)
        return xp.exp(-s) * x, xp.sqrt(-xp.expm1(-2.0 * s))


def gauss_heat(d=1):
    return BaseKernel("gauss_heat", d)


def ou1d():
    return BaseKernel("ou1d", 1)


def _as_point(x, d):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (d,):
        raise ValueError(f"point of dimension {v.shape} does not match kernel d={d}")
    return v


# --- test functions ----------------------------------------------------

class TestFunction:
    """Bounded non-negative test function, evaluated elementwise on arrays;
    subclasses may expose a closed Gaussian expectation, closure under
    positive powers, and the breakpoints the numerical rule needs."""

    def __call__(self, y):
        raise NotImplementedError

    def pow(self, p):
        """Return f**p as a TestFunction: a member of f's own family when
        the family is closed under powers, else a power that keeps f's
        breakpoints (hashable when f is)."""
        return _PowOf(self, p)

    def gauss_expect(self, m, sigma, xp=math):
        """E f(m + sigma*Z) in closed form, or None if unavailable. With
        ``xp=math`` m and sigma are floats; with ``xp=numpy`` sigma is an
        array and m an array of its shape or a float, and the result is an
        array of that shape (or a float where it does not depend on them)."""
        return None

    def breakpoints(self):
        """Points y where f has a kink or changes scale; the fixed
        Gaussian rule starts a new panel at each one in its window."""
        return ()

    def describe(self):
        return type(self).__name__


@dataclass(frozen=True)
class Constant(TestFunction):
    c: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("constant test functions must be >= 0")

    def __call__(self, y):
        return self.c * np.ones_like(np.asarray(y, dtype=float))

    def pow(self, p):
        return Constant(self.c ** p)

    def gauss_expect(self, m, sigma, xp=math):
        return self.c

    def describe(self):
        return f"const({self.c:g})"


@dataclass(frozen=True)
class GaussBump(TestFunction):
    """exp(-(y - center)**2 / (2*width**2)), amplitude one."""

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be > 0")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-((y - self.center) ** 2) / (2.0 * self.width ** 2))

    def pow(self, p):
        return GaussBump(self.center, self.width / math.sqrt(p))

    def breakpoints(self):
        return tuple(self.center + self.width * k for k in (0, -1, 1, -4, 4, -12, 12))

    def gauss_expect(self, m, sigma, xp=math):
        v = self.width ** 2 + sigma ** 2
        return self.width / xp.sqrt(v) * xp.exp(
            -((m - self.center) ** 2) / (2.0 * v)
        )

    def describe(self):
        return f"bump({self.center:g},{self.width:g})"


@dataclass(frozen=True)
class Indicator(TestFunction):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return ((y >= self.lo) & (y <= self.hi)).astype(float)

    def pow(self, p):
        return self

    def breakpoints(self):
        return (self.lo, self.hi)

    def gauss_expect(self, m, sigma, xp=math):
        mass = ndtr((self.hi - m) / sigma) - ndtr((self.lo - m) / sigma)
        return float(mass) if xp is math else mass

    def describe(self):
        return f"ind[{self.lo:g},{self.hi:g}]"


@dataclass(frozen=True)
class ExpAffine(TestFunction):
    """exp(slope * y), optionally saturated at y = clip.

    The unclipped version is unbounded and its time-changed expectation
    under the heat kernel diverges for alpha < 1 (``subordinated_apply``
    returns inf); set ``clip`` to stay in the bounded class
    (f(y) = exp(slope * min(y, clip)) for slope > 0).
    """

    slope: float
    clip: Optional[float] = None

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.clip is None:
            return np.exp(self.slope * y)
        return np.exp(self.slope * np.minimum(y, self.clip))

    def pow(self, p):
        return ExpAffine(self.slope * p, self.clip)

    def breakpoints(self):
        if self.clip is None:
            return ()
        if self.slope <= 0:
            return (self.clip,)
        # below the clip f decays on the scale 1/slope
        return tuple(self.clip - k / self.slope for k in (0, 1, 4, 12, 40))

    def gauss_expect(self, m, sigma, xp=math):
        lam = self.slope
        # an exponent past float range gives inf, on floats as on arrays:
        # the expectation is past float range, or diverges, there
        exp = _exp_or_inf if xp is math else np.exp
        if self.clip is None:
            return exp(lam * m + 0.5 * lam ** 2 * sigma ** 2)
        z = (self.clip - m) / sigma
        u = z - lam * sigma

        # E[e^{lam*min(m+sZ, L)}] split at Z = z; assembled in log domain
        # because the lognormal factor alone overflows at large sigma
        # while the product with the truncated tail stays bounded
        def below():
            # for u < 0: lam*m + lam^2 sigma^2/2 - u^2/2 = lam*L - z^2/2
            # removes the cancellation between two terms of size
            # (lam*sigma)^2, and ndtr(u) = erfcx(-u/sqrt2) * exp(-u^2/2) / 2
            return (lam * self.clip - 0.5 * z * z
                    + xp.log(0.5 * erfcx(-u / math.sqrt(2.0))))

        def above():
            return lam * m + 0.5 * lam ** 2 * sigma ** 2 + log_ndtr(u)

        if xp is math:
            log_t1 = float(below() if u < 0.0 else above())
        else:
            log_t1 = np.where(u < 0.0, below(), above())
        log_t2 = lam * self.clip + log_ndtr(-z)
        return exp(log_t1) + exp(log_t2)

    def describe(self):
        tag = f"expaff({self.slope:g}"
        return tag + (")" if self.clip is None else f",clip={self.clip:g})")


@dataclass(frozen=True)
class ShiftedForLog(TestFunction):
    """floor + base, with floor >= 1: the f >= 1 class of the log-Harnack bound."""

    base: TestFunction
    floor: float = 1.0

    def __post_init__(self):
        if self.floor < 1.0:
            raise ValueError("floor must be >= 1")

    def __call__(self, y):
        return self.floor + self.base(y)

    def breakpoints(self):
        return self.base.breakpoints()

    def log(self):
        return _LogOf(self)

    def gauss_expect(self, m, sigma, xp=math):
        inner = self.base.gauss_expect(m, sigma, xp)
        if inner is None:
            return None
        return self.floor + inner

    def describe(self):
        return f"{self.floor:g}+{self.base.describe()}"


@dataclass(frozen=True)
class _LogOf(TestFunction):
    """log of a floor-shifted test function; no closed Gaussian form, but
    hashable so the quadrature layer can memoize its expectations."""

    inner: ShiftedForLog

    def __call__(self, y):
        return np.log(self.inner(y))

    def breakpoints(self):
        return self.inner.breakpoints()

    def gauss_expect(self, m, sigma, xp=math):
        # log composed with a two-level function is again two-level:
        # log(floor + 1_[lo,hi]) takes only the values log(floor) and
        # log(floor + 1), so its expectation is closed whenever the
        # indicator's is
        base = self.inner.base
        if isinstance(base, Constant):
            return math.log(self.inner.floor + base.c)
        if isinstance(base, Indicator):
            lo_val = math.log(self.inner.floor)
            hi_val = math.log(self.inner.floor + 1.0)
            return lo_val + (hi_val - lo_val) * base.gauss_expect(m, sigma, xp)
        return None

    def describe(self):
        return f"log({self.inner.describe()})"


@dataclass(frozen=True)
class _PowOf(TestFunction):
    """f**p for a test function whose family is not closed under powers;
    no closed Gaussian form, but f's breakpoints, so its expectations take
    the fixed rule (and its memo when f is hashable)."""

    inner: TestFunction
    p: float

    def __call__(self, y):
        return self.inner(y) ** self.p

    def breakpoints(self):
        return self.inner.breakpoints()

    def describe(self):
        return f"({self.inner.describe()})^{self.p:g}"


# --- kernels -----------------------------------------------------------

def kernel_density(base, s, x, y):
    """Transition density p_s(x, y) of the base kernel."""
    if s <= 0.0:
        raise ValueError(f"s must be > 0, got {s!r}")
    return _kernel_density_at(base, s, *_checked_pair(base, x, y))


def _checked_pair(base, x, y):
    """Check the points x and y against the kernel's dimension and return
    (x0, y0, rho_sq): their first coordinates and |x - y|^2, as floats."""
    x = _as_point(x, base.d)
    y = _as_point(y, base.d)
    return float(x[0]), float(y[0]), float(np.sum((y - x) ** 2))


def _kernel_density_at(base, s, x0, y0, rho_sq, xp=math):
    """p_s(x, y) = (2 pi sigma^2)^(-d/2) exp(-q / (2 sigma^2)) at s > 0 and
    points already checked by ``_checked_pair``: q is rho_sq for the heat
    kernel and (y0 - m_s(x0))^2 for OU. A float s in plain ``math``; with
    ``xp=numpy``, an array of times at once (the subordinated density's
    integrand over all the nodes of its rule)."""
    m, sigma = base.mean_sigma(s, x0, xp)
    if base.kind == "gauss_heat":
        q = rho_sq
    else:
        q = (y0 - m) * (y0 - m)
    return (2.0 * math.pi * sigma ** 2) ** (-0.5 * base.d) * xp.exp(
        -q / (2.0 * sigma ** 2)
    )


# the fixed rule: Gauss-Legendre nodes and weights mapped to [0, 1], and
# the panel breaks in units of sigma around the mean
_RULE_NODES, _RULE_WEIGHTS = np.polynomial.legendre.leggauss(20)
_RULE_NODES = 0.5 * (_RULE_NODES + 1.0)
_RULE_WEIGHTS = 0.5 * _RULE_WEIGHTS
_RULE_WINDOW = np.array([-12.0, -4.0, 0.0, 4.0, 12.0])


def _gauss_expectation_rule(f, m, sigma):
    """E f(m + sigma*Z) for a TestFunction, by one fixed composite
    Gauss-Legendre rule on the line y = m + sigma*z over [m - 12 sigma,
    m + 12 sigma]. m and sigma are floats (one row) or arrays (a row per
    element, all at once); the result has their broadcast shape.

    Panels break at m + sigma*{-12, -4, 0, 4, 12} and at every breakpoint
    f declares, clipped into the window, so a kink or a feature much
    narrower than sigma gets panels of its own scale. A breakpoint outside
    the window makes a panel of zero width, which adds nothing, so every
    row has the same panel count. f is evaluated once, on the array of all
    rows' panel nodes.
    """
    m, sigma = np.broadcast_arrays(np.asarray(m, dtype=float),
                                   np.asarray(sigma, dtype=float))
    mc, sc = m[..., None], sigma[..., None]
    window = mc + sc * _RULE_WINDOW
    b = np.clip(np.asarray(f.breakpoints(), dtype=float),
                window[..., :1], window[..., -1:])
    edges = np.sort(np.concatenate((window, b), axis=-1), axis=-1)
    h = np.diff(edges, axis=-1)
    y = edges[..., :-1, None] + h[..., None] * _RULE_NODES
    z = (y - mc[..., None]) / sc[..., None]
    vals = (f(y) * np.exp(-0.5 * z * z)).reshape(m.shape + (-1,))
    wts = (h[..., None] * _RULE_WEIGHTS).reshape(m.shape + (-1,))
    return np.einsum("...i,...i->...", vals, wts) / (sigma * _SQRT_2PI)


@lru_cache(maxsize=1 << 16)
def _gauss_quad_memo(f, m, sigma):
    """Memoized fixed-rule expectation for hashable test functions without
    a closed form; repeated sweeps revisit identical (f, m, sigma) nodes."""
    return float(_gauss_expectation_rule(f, m, sigma))


def apply(base, f, s, x, spec=QuadratureSpec()):
    """P_s f(x) = E f(m_s(x) + sigma_s * Z) for a TestFunction f.

    The closed Gaussian expectation where f has one; otherwise the fixed
    breakpoint-aware rule of ``_gauss_expectation_rule``, memoized per
    (f, m, sigma) for a hashable f. ``spec`` does not set the accuracy.
    Non-constant test functions need d = 1. A plain callable raises
    TypeError."""
    if s <= 0.0:
        raise ValueError(f"s must be > 0, got {s!r}")
    return _apply_at(base, f, s, _first_coordinate(base, f, x))


def _first_coordinate(base, f, x):
    """Check f and the point x for P_s f(x) and return x's first
    coordinate as a float; f must be a TestFunction, and Constant unless
    d = 1."""
    if not isinstance(f, TestFunction):
        raise TypeError(f"P_s f needs a TestFunction, got {type(f).__name__}; "
                        "subclass TestFunction and declare its breakpoints()")
    x = _as_point(x, base.d)
    if base.d != 1 and not isinstance(f, Constant):
        raise ValueError("non-constant test functions are supported for d = 1 only")
    return float(x[0])


def _apply_at(base, f, s, x0):
    """``apply`` at s > 0 and a point already checked by
    ``_first_coordinate``, with x0 its first coordinate."""
    m0, sigma = base.mean_sigma(s, x0)
    cf = f.gauss_expect(m0, sigma)
    if cf is not None:
        return cf
    try:
        return _gauss_quad_memo(f, m0, sigma)
    except TypeError:  # unhashable subclass
        return float(_gauss_expectation_rule(f, m0, sigma))


def subordinated_apply(base, sub, f, x, spec=QuadratureSpec()):
    """P_t^alpha f(x) = int P_s f(x) mu_t(ds) for a TestFunction f; x is
    checked once, not at every node s, and a plain callable raises
    TypeError.

    The s-integral is ``integrate_against``'s fixed rule for alpha, with
    P_s f(x) evaluated on all the rule's nodes at once: f's closed
    Gaussian expectation on arrays, or else one batched fixed Gaussian
    rule (``_gauss_expectation_rule``). ``spec`` does not set the
    accuracy. Where the integral diverges (an unclipped ExpAffine under
    the heat kernel) the value is inf. For a hashable f the value is
    memoized per (base, sub, f, x); an unhashable one is integrated every
    time."""
    x0 = _first_coordinate(base, f, x)
    if sub.degenerate:
        return _apply_at(base, f, sub.t, x0)
    try:
        return _subordinated_apply_memo(base, sub, f, x0)
    except TypeError:  # unhashable subclass
        return _subordinated_apply_memo.__wrapped__(base, sub, f, x0)


@lru_cache(maxsize=1 << 16)
def _subordinated_apply_memo(base, sub, f, x0):
    """int P_s f(x) mu_t(ds) at a point already checked by
    ``_first_coordinate``, with x0 its first coordinate: one array pass
    over the law rule's nodes. The Harnack checks ask for the same
    integral for every p (an indicator is its own power) and every factor
    mode, so the sweeps revisit identical keys."""
    return integrate_against(_OnArrays(lambda s: _expect_on_nodes(base, f, s, x0)),
                             sub)


def _expect_on_nodes(base, f, s, x0):
    """P_s f(x) for a TestFunction at an array of times s: the closed form
    on arrays, or else one batched fixed Gaussian rule."""
    m, sigma = base.mean_sigma(s, x0, np)
    with np.errstate(over="ignore"):
        cf = f.gauss_expect(m, sigma, np)
    if cf is None:
        return _gauss_expectation_rule(f, m, sigma)
    return np.full(sigma.shape, cf)


def subordinated_density(base, sub, x, y, spec=QuadratureSpec()):
    """Transition density of the time-changed kernel,
    int p_s(x, y) mu_t(ds); x and y are checked once, not at every node s.

    The integral is ``integrate_against``'s fixed rule for alpha, certified
    when built to 1e-12 relative against the law's closed forms, with the
    kernel evaluated on all its nodes at once; ``spec`` does not set its
    accuracy. At alpha = 1/2 the heat kernel's value is within ~4e-13 of
    the Poisson kernel for |x - y| up to 50 t (d = 1, 2, 3)."""
    return _subordinated_density_at(base, sub, *_checked_pair(base, x, y))


def _subordinated_density_at(base, sub, x0, y0, rho_sq):
    """``subordinated_density`` at points already checked by
    ``_checked_pair``; the kernel is evaluated on all the nodes of the
    law's rule at once."""
    if sub.degenerate:
        return _kernel_density_at(base, sub.t, x0, y0, rho_sq)
    return integrate_against(
        _OnArrays(lambda s: _kernel_density_at(base, s, x0, y0, rho_sq, np)), sub)


def cauchy_closed_form(d, t, x, y):
    """Poisson kernel Gamma((d+1)/2)/pi**((d+1)/2) * t/(t^2+|x-y|^2)^((d+1)/2).

    Transition density of the half-subordinated heat semigroup; the
    independent oracle for alpha = 1/2.
    """
    if t <= 0.0:
        raise ValueError("t must be > 0")
    x = _as_point(x, d)
    y = _as_point(y, d)
    rho_sq = float(np.sum((x - y) ** 2))
    n = (d + 1) / 2.0
    log_c = gammaln(n) - n * math.log(math.pi)
    return math.exp(log_c) * t / (t * t + rho_sq) ** n


def ondiag(base, sub, x, spec=QuadratureSpec()):
    """On-diagonal value of the time-changed heat kernel."""
    if base.kind != "gauss_heat":
        raise ValueError("ondiag is defined for the heat kernel base")
    return subordinated_density(base, sub, x, x, spec)
