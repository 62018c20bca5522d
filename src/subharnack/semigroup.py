"""Concrete base semigroups and their stable-time-changed versions.

The bases are one Gaussian family in the rate K of the Bakry-Emery bound
Ric >= K (``BaseKernel``), the heat kernel on R^d at K = 0 and the 1-d
Ornstein-Uhlenbeck semigroup at K = 1, and each kernel formula below is
one formula in K. P_s f is a Gaussian expectation, closed for the shipped
test functions, each a sum of Gaussian atoms with one closed form in logs
(``_log_atom_expect``); the time change integrates it against the
subordinator law. Every value is the exp of its log: log P_s f at a time
takes one route, ``_log_expect``; on the law rule's nodes f hands its
summands to one law-rule log-sum (``_law_terms``), and P_t^alpha f and
its log share one memo.

P_s f is defined for a ``TestFunction`` f only: its closed Gaussian
expectation where it has one, and otherwise one fixed Gauss-Legendre
rule whose panels (``subordinator._panel_nodes``) break at the points
``f.breakpoints()`` declares. No value is integrated adaptively. A plain
callable raises TypeError; to use one, subclass TestFunction and declare
its breakpoints.

At alpha = 1/2 the subordinated heat semigroup is the Cauchy/Poisson
semigroup, whose closed form is the module's independent oracle.
"""

import math
import sys
from functools import lru_cache, reduce
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad  # unused; bench/tracer.py rebinds it here
from scipy.special import erf, erfcx, gammaln, logsumexp

from .specfun import _exp_or_inf, _log_or_ninf
from .subordinator import (_PANEL_TABLE, QuadratureSpec, _blocks, _law_logsum,
                           _law_nodes, _law_rule, _panel_nodes)

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
_SQRT_PI, _SQRT_2PI = math.sqrt(math.pi), math.sqrt(2.0 * math.pi)
_SQRT_2, _SQRT_HALF = math.sqrt(2.0), math.sqrt(0.5)
_LOG_2, _LOG_4 = math.log(2.0), math.log(4.0)
_LOG_4PI = math.log(4.0 * math.pi)
_RATES = {"gauss_heat": 0.0, "ou1d": 1.0}  # each kind's K
_RATE_CUT = 40.0  # past |log 2Ks| = 40, 1 - e^(-2Ks) is 2Ks or 1 in floats


@dataclass(frozen=True)
class BaseKernel:
    """A base semigroup of rate K, generator Laplacian minus K x.grad:
    'gauss_heat' on R^d (K = 0) or 'ou1d' (K = 1, d = 1)."""

    kind: str
    d: int = 1

    def __post_init__(self):
        if self.kind not in _RATES:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "ou1d" and self.d != 1:
            raise ValueError("ou1d is one-dimensional")
        if not (1 <= self.d <= _MAX_DIM):
            raise ValueError(f"dimension must be in [1, {_MAX_DIM}], got {self.d}")

    @property
    def curvature_K(self):
        """K of the Bakry-Emery bound Ric >= K, the rate of the drift."""
        return _RATES[self.kind]

    def mean_sigma(self, s, x, xp=math):
        """Mean e^(-Ks) x and standard deviation sqrt((1 - e^(-2Ks)) / K)
        (sqrt(2s) at K = 0) per coordinate at time s from x, a float or an
        array; ``xp`` is ``math`` for a float s, ``numpy`` for an array."""
        K = self.curvature_K
        if K == 0.0:
            return x, xp.sqrt(2.0 * s)
        return xp.exp(-K * s) * x, xp.sqrt(-xp.expm1(-2.0 * K * s) / K)

    def law_mean_sigma(self, sub, x):
        """``mean_sigma`` in numpy at the nodes of ``sub``'s law rule; at
        K = 0 sigma_i = sqrt(2 t^(1/alpha)) sqrt(v_i), one pass over the
        rule's sqrt v, and no node t^(1/alpha) v_i is formed."""
        if self.curvature_K == 0.0:
            return x, (_SQRT_2 * math.sqrt(sub.scale)) * _law_rule(sub.alpha).sqrt_v
        return self.mean_sigma(_law_nodes(sub), x, np)


def gauss_heat(d=1):
    return BaseKernel("gauss_heat", d)


def ou1d():
    return BaseKernel("ou1d", 1)


def _as_point(x, d):
    v = np.array(x, dtype=float, ndmin=1)
    if v.shape != (d,):
        raise ValueError(f"point of dimension {v.shape} does not match kernel d={d}")
    return v


def _checked_point(x, d):
    """x as Python floats, a float at d = 1 and a tuple above: a float or a
    list or tuple of d floats as it is, any other form by ``_as_point``."""
    if d == 1 and type(x) is float:
        return x
    if not (type(x) in (list, tuple) and tuple(map(type, x)) == (float,) * d):
        x = _as_point(x, d).tolist()
    return x[0] if d == 1 else tuple(x)


# --- test functions ----------------------------------------------------

# A Gaussian atom is the tuple (log_c, a, b, y0, lo, hi): the function
# c e^(a u - b u^2) on lo <= y <= hi and 0 elsewhere, with u = y - y0,
# c = e^log_c and b >= 0; a family puts y0 where no exponent cancels.
_LINE = (-math.inf, math.inf)  # the window of a whole-line atom


def _log_atom_expect(atom, m, sigma, r=None, xp=math):
    """log E atom(m + sigma Z), on floats (``xp=math``) or arrays (``xp=numpy``:
    sigma an array, m an array of its shape or a float); r = 1/(sigma sqrt 2),
    which a function's atoms share.

    The completed square tilts the law of y to a normal law of scale
    sigma rho, rho = w/H with w = 1/sqrt(2b), H = hypot(w, sigma), and its
    peak to log c + log rho - (mu/H)^2/2 + rho^2 (a mu + a^2 sigma^2/2), mu =
    m - y0, so a bump keeps its log past sigma = 1e154 and at inf. An edge
    e sits x_e = ((e - m) r - sigma (a - 2b(e - y0))/sqrt 2) rho tilted
    standard deviations (over sqrt 2) from the tilted mean, a tilt formed
    from sigma, not sigma^2. Across the mean a window's mass is (erf(x_hi) -
    erf(x_lo))/2, two terms of one sign: on arrays the pair (log factor,
    mass), a value ``_law_logsum`` sums as it is. Past its near edge, at
    x >= 0, the mass is erfcx(x) e^(-x^2) (1 - R)/2, with e^(-x^2) taken into
    the atom at that edge times the density there, so no exponent cancels
    in a tail; R = erfc(x + w)/erfc(x) is 0 on a half line, else log R =
    -(2/sqrt pi) int_x^(x+w) dt/erfcx(t) by the 16-point Gauss-Legendre
    rule. A half line across the mean has 1 - erfcx(|x|) e^(-x^2)/2. A
    tilt-free atom reads its sides off e - m, so a float mean picks one form
    for a whole array."""
    log_c, a, b, y0, lo, hi = atom
    mu, log, log_rho = m - y0, (_log_or_ninf if xp is math else np.log), 0.0
    if b:
        w = (0.5 / b) ** 0.5
        hyp = xp.hypot(w, sigma)
        log_h, z = xp.log(hyp), (_SQRT_HALF * mu) / hyp
        log_peak = (log_c + math.log(w)) - (log_h + z * z)
        log_rho = math.log(w) - log_h if a or (lo, hi) != _LINE else 0.0
        if a:
            log_peak = log_peak + xp.exp(2.0 * log_rho) * a * (mu + 0.5 * a * (sigma * sigma))
    else:
        log_peak = log_c + (a * mu + 0.5 * a * a * (sigma * sigma)) if a else log_c
    if lo == -math.inf and hi == math.inf:
        return log_peak
    r = _SQRT_HALF / sigma if r is None else r
    # q_e = (e - m) r, x_e, and s_e of x_e's sign; an infinite edge stays a float
    ql = (lo - m) * r if lo != -math.inf else lo
    qh = (hi - m) * r if hi != math.inf else hi
    if not (a or b):
        xl, xh, sl, sh = ql, qh, lo - m, hi - m
    else:
        sl = lo if lo == -math.inf else ql - (a - 2.0 * b * (lo - y0)) * _SQRT_HALF * sigma
        sh = hi if hi == math.inf else qh - (a - 2.0 * b * (hi - y0)) * _SQRT_HALF * sigma
        xl, xh = (sl * xp.exp(log_rho), sh * xp.exp(log_rho)) if b else (sl, sh)
    across = (sl <= 0.0) & (sh >= 0.0)
    every = across is True or type(across) is not bool and across.all()
    finite = lo != -math.inf and hi != math.inf
    if finite and every:
        if xp is math:
            return log_peak - _LOG_2 + log(math.erf(xh) - math.erf(xl))
        mass = erf(xh) - erf(xl)
        return (log_peak - _LOG_2, mass) if type(log_peak) is float else log_peak - _LOG_2 + np.log(mass)
    if not finite or type(below := sh < 0.0) is bool:  # x: the near edge past the mean
        near, q, x = (hi, qh, -xh) if lo == -math.inf or finite and below else (lo, ql, xl)
    else:
        near, q, x = np.where(below, hi, lo), np.where(below, qh, ql), np.where(below, -xh, xl)
    ex = erfcx(abs(x))
    if not finite and every:
        return log_peak + xp.log1p(-0.5 * ex * xp.exp(-x * x))
    beside = log_c + a * (near - y0) - b * (near - y0) ** 2 + log_rho - _LOG_2 - q * q + log(ex)
    if finite:
        nodes, weights = _PANEL_TABLE
        w = (hi - lo) * r / xp.exp(log_rho)
        t = np.multiply.outer(0.5 * w, 1.0 + nodes) + np.asarray(abs(x))[..., None]
        beside = beside + np.log(-np.expm1(-(w / _SQRT_PI) * ((1.0 / erfcx(t)) @ weights)))
    if type(across) is bool or not across.any():
        return float(beside) if xp is math else beside
    inside = (log_peak - _LOG_2 + np.log(erf(np.maximum(xh, 0.0)) - erf(np.minimum(xl, 0.0)))
              if finite else log_peak + np.log1p(-0.5 * ex * np.exp(-x * x)))
    return np.where(across, inside, beside)


class TestFunction:
    """Bounded non-negative test function, evaluated elementwise on arrays;
    subclasses may declare Gaussian atoms (or another closed Gaussian
    expectation), closure under positive powers, and the breakpoints the
    numerical rule needs."""

    constant = False  # one value everywhere: only such an f serves d > 1

    def __call__(self, y):
        raise NotImplementedError

    def pow(self, p):
        """Return f**p as a TestFunction: a member of f's own family when
        the family is closed under powers, else a power that keeps f's
        breakpoints (hashable when f is)."""
        return _PowOf(self, p)

    def atoms(self):
        """The Gaussian atoms whose sum f is, each a tuple (log_c, a, b, y0,
        lo, hi) as above, or None if f is not such a sum."""
        return None

    def log_gauss_expect(self, m, sigma, xp=math):
        """log E f(m + sigma*Z) in closed form, or None: floats with
        ``xp=math``; with ``xp=numpy`` sigma an array, m one of its shape or a
        float, and the result of sigma's shape. Here the log-sum-exp of f's
        atoms' logs (``_log_atom_expect``); on arrays, of the one list of
        summands that a miss hands its one law-rule log-sum (``_law_terms``),
        a window's mass logged here."""
        if (atoms := self.atoms()) is None:
            return None
        if xp is math:
            return float(reduce(np.logaddexp, [_log_atom_expect(atom, m, sigma) for atom in atoms]))
        logs = [t[0] + np.log(t[1]) if type(t) is tuple else t for t in self._law_terms(m, sigma)]
        return logsumexp(np.broadcast_arrays(*logs, sigma)[:-1], axis=0)

    def _law_terms(self, m, sigma):
        """P_s f at the law rule's nodes (arrays m, sigma) as the list that
        ``_law_logsum`` sums: each atom's log, with 1/(sigma sqrt 2) formed
        once, or one closed ``log_gauss_expect``, else the fixed rule's E f."""
        if (atoms := self.atoms()) is not None:
            r = _SQRT_HALF / sigma if [atom for atom in atoms if atom[4:] != _LINE] else None
            return [_log_atom_expect(atom, m, sigma, r, np) for atom in atoms]
        if (log_e := self.log_gauss_expect(m, sigma, np)) is not None:
            return [log_e]
        return [(0.0, _gauss_expectation_rule(self, m, sigma))]

    @np.errstate(over="ignore")  # inf past float range
    def gauss_expect(self, m, sigma, xp=math):
        """E f(m + sigma*Z) by ``_value`` from ``log_gauss_expect``, or None;
        numpy's exp, so a float and an array give the same bits."""
        log_e = 0.0 if self.constant else self.log_gauss_expect(m, sigma, xp)
        value = None if log_e is None else _value(self, log_e, np.exp)
        return float(value) if xp is math and value is not None else value

    def breakpoints(self):
        """Points y where f has a kink or changes scale; the fixed
        Gaussian rule starts a new panel at each one in its window."""
        return ()

    def describe(self):
        return type(self).__name__


@dataclass(frozen=True)
class Constant(TestFunction):
    c: float
    constant = True

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise ValueError("constant test functions must be finite and >= 0")

    def __call__(self, y):
        return self.c * np.ones_like(np.asarray(y, dtype=float))

    def pow(self, p):
        try:
            return Constant(self.c ** p)
        except OverflowError:
            raise ValueError(f"c ** p is past float range at c={self.c}, p={p}") from None

    def atoms(self):
        return ((_log_or_ninf(self.c), 0.0, 0.0, 0.0, *_LINE),)

    def describe(self):
        return f"const({self.c:g})"


@dataclass(frozen=True)
class GaussBump(TestFunction):
    """exp(-(y - center)**2 / (2*width**2)), amplitude one."""

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.width < math.inf and math.isfinite(self.center)):
            raise ValueError("center and width must be finite, width > 0")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-((y - self.center) ** 2) / (2.0 * self.width ** 2))

    def pow(self, p):
        return GaussBump(self.center, self.width / math.sqrt(p))

    def breakpoints(self):
        return tuple(self.center + self.width * k for k in (0, -1, 1, -4, 4, -12, 12))

    def atoms(self):
        return ((0.0, 0.0, 0.5 / self.width ** 2, self.center, *_LINE),)

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

    def atoms(self):
        return ((0.0, 0.0, 0.0, 0.0, self.lo, self.hi),)

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

    def __post_init__(self):
        if not all(map(math.isfinite, (self.slope, self.clip or 0.0))):
            raise ValueError("slope and clip must be finite")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.clip is None:
            return np.exp(self.slope * y)
        return np.exp(self.slope * np.minimum(y, self.clip))

    def pow(self, p):
        if not math.isfinite(slope := self.slope * p):
            raise ValueError(f"slope * p is past float range at slope={self.slope}, p={p}")
        return ExpAffine(slope, self.clip)

    def breakpoints(self):
        if self.clip is None:
            return ()
        if self.slope <= 0:
            return (self.clip,)
        # below the clip f decays on the scale 1/slope
        return tuple(self.clip - k / self.slope for k in (0, 1, 4, 12, 40))

    def atoms(self):
        # centred at the clip, where the two atoms meet
        lam, clip = self.slope, self.clip
        if clip is None:
            return ((0.0, lam, 0.0, 0.0, *_LINE),)
        return ((lam * clip, lam, 0.0, clip, -math.inf, clip),
                (lam * clip, 0.0, 0.0, 0.0, clip, math.inf))

    def describe(self):
        tag = f"expaff({self.slope:g}"
        return tag + (")" if self.clip is None else f",clip={self.clip:g})")


@dataclass(frozen=True)
class ShiftedForLog(TestFunction):
    """floor + base, with floor >= 1: the f >= 1 class of the log-Harnack bound."""

    base: TestFunction
    floor: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.floor < math.inf:
            raise ValueError("floor must be finite and >= 1")

    def __call__(self, y):
        return self.floor + self.base(y)

    @property
    def constant(self):
        return self.base.constant

    def breakpoints(self):
        return self.base.breakpoints()

    def log(self):
        if isinstance(self.base, Constant):  # a constant serves every d
            return Constant(math.log(self.floor + self.base.c))
        return _LogOf(self)

    def atoms(self):
        inner = self.base.atoms()
        return inner and (*inner, (math.log(self.floor), 0.0, 0.0, 0.0, *_LINE))

    def describe(self):
        return f"{self.floor:g}+{self.base.describe()}"


def _alternating_weights(n):
    """Weights c_k / k, k = 1..n, of the Cohen-Rodriguez Villegas-Zagier
    sum (Algorithm 1 of "Convergence acceleration of alternating series",
    Exp. Math. 9, 2000): sum_k (c_k / k) a_k is sum_k (-1)^(k+1) a_k / k
    within 2/(3 + sqrt 8)^n of it, relative, whenever a_k / k is a
    Hausdorff moment sequence int_0^1 x^(k-1) dnu(x), nu a positive
    measure. The signs are in the weights. The algorithm's d is the
    integer T_n(3) and its b are rationals, so each weight is one integer
    division, correctly rounded."""
    t_prev, t = 1, 3
    for _ in range(n - 1):
        t_prev, t = t, 6 * t - t_prev
    num, den, c = -1, 1, -t  # b = num/den and c = c/den
    out = []
    for k in range(n):
        c = num - c
        out.append(c / (den * t * (k + 1)))
        q = (2 * k + 1) * (k + 1)
        num *= 2 * (k + n) * (k - n)
        den *= q
        c *= q
    return np.array(out)


# log(1 + u) = sum_k (-1)^(k+1) u^k / k for u in [0, 1], summed over its
# first 24 powers: within 2/(3 + sqrt 8)^24 < 1e-18 relative
_LOG1P_POWERS = np.arange(1.0, 25.0)
_LOG1P_WEIGHTS = _alternating_weights(_LOG1P_POWERS.size)
_LOG1P_INVERSES, _LOG1P_SERIES = 1.0 / _LOG1P_POWERS, _LOG1P_WEIGHTS / np.sqrt(_LOG1P_POWERS)


def _log_shifted_bump_expect(bump, floor, m, sigma):
    """E log(floor + bump(m + sigma*Z)) on floats or arrays, by the series
    log floor + sum_k (-1)^(k+1) E[u^k]/k in u = bump/floor, in [0, 1] as
    floor >= 1. bump^k is the bump of width w/sqrt(k), so each term is
    closed: E[u^k] = floor^(-k) k^(-1/2) exp(-B/D_k)/sqrt(D_k), with D_k =
    sigma^2/w^2 + 1/k and -B bump(m)'s exponent. E[u^k]/k = int_0^1 x^(k-1)
    P(u > x) dx is a Hausdorff moment sequence, so ``_LOG1P_WEIGHTS`` sum
    the series to within 1e-18 relative. Five passes over one rows x 24
    array form the terms, and one einsum along each row, floor^(-k)
    k^(-1/2) in its weights, sums them, so a float gives its row's bits."""
    b = -((m - bump.center) * (m - bump.center)) / (2.0 * bump.width ** 2)
    d = np.add.outer(np.multiply(sigma, sigma) / bump.width ** 2, _LOG1P_INVERSES)
    # -inf / inf would be nan; a finite -B gives each term its limit, 0
    terms = np.divide(np.maximum(b, -sys.float_info.max)[..., None], d)
    terms = np.exp(terms, out=terms)
    terms /= np.sqrt(d, out=d)
    weights = _LOG1P_SERIES if floor == 1.0 else _LOG1P_SERIES * floor ** -_LOG1P_POWERS
    return math.log(floor) + np.einsum("...k,k->...", terms, weights)


@dataclass(frozen=True)
class _LogOf(TestFunction):
    """log of a floor-shifted test function; hashable, so the quadrature
    layer can memoize the expectations of those without a closed form.

    Its Gaussian expectation is closed for two bases. log(floor +
    1_[lo,hi]) is two constant atoms, log(floor) on the whole line and
    log(1 + 1/floor) on [lo, hi]. log(floor + bump) for a ``GaussBump`` is
    the accelerated series of its closed powers
    (``_log_shifted_bump_expect``), within 1e-18 relative before rounding.
    Any other base takes the fixed Gaussian rule. The series is a value: a
    miss hands it to the law-rule log-sum as it is, never logged."""

    inner: ShiftedForLog

    def __call__(self, y):
        # log1p keeps a base value below half an ulp of the floor
        floor = self.inner.floor
        return math.log(floor) + np.log1p(self.inner.base(y) / floor)

    def breakpoints(self):
        return self.inner.breakpoints()

    def atoms(self):
        base, floor = self.inner.base, self.inner.floor
        if not isinstance(base, Indicator):
            return None
        return ((_log_or_ninf(math.log(floor)), 0.0, 0.0, 0.0, *_LINE),
                (math.log(math.log1p(1.0 / floor)), 0.0, 0.0, 0.0, base.lo, base.hi))

    @np.errstate(divide="ignore")  # log 0 = -inf far from the bump
    def log_gauss_expect(self, m, sigma, xp=math):
        if not isinstance(base := self.inner.base, GaussBump):
            return super().log_gauss_expect(m, sigma, xp)
        log_e = np.log(_log_shifted_bump_expect(base, self.inner.floor, m, sigma))
        return float(log_e) if xp is math else log_e

    def _law_terms(self, m, sigma):
        if not isinstance(base := self.inner.base, GaussBump):
            return super()._law_terms(m, sigma)
        return [(0.0, _log_shifted_bump_expect(base, self.inner.floor, m, sigma))]

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
    if not s > 0.0:
        raise ValueError(f"s must be > 0, got {s!r}")
    return _kernel_density_at(base, s, *_checked_pair(base, x, y))


def _checked_pair(base, x, y):
    """Check x and y by ``_checked_point`` against the kernel's dimension and
    return them with rho_sq = |x - y|^2 summed from the left, as np.sum sums
    <= 3 terms (``sum`` compensates from Python 3.12 on)."""
    x, y = _checked_point(x, base.d), _checked_point(y, base.d)
    if base.d == 1:
        return x, y, 0.0 + (y - x) * (y - x)
    rho_sq = 0.0
    for a, b in zip(x, y):
        rho_sq += (b - a) * (b - a)
    return x, y, rho_sq


def _kernel_density_at(base, s, x0, y0, rho_sq=None, xp=math, log=False):
    """p_s(x, y) = (2 pi sigma^2)^(-d/2) exp(-q / (2 sigma^2)), or with
    ``log`` its log, at s > 0 and x0, y0, rho_sq as ``_checked_pair``
    returns them, q = |y0 - m_s(x0)|^2: rho_sq itself at d > 1 (K = 0
    there), unread at d = 1. A float s in ``math``; with ``xp=numpy``, an
    array of times, and at d = 1 of y0."""
    m, sigma = base.mean_sigma(s, x0, xp)
    q = (y0 - m) * (y0 - m) if base.d == 1 else rho_sq
    lead, tail = 2.0 * math.pi * sigma ** 2, -q / (2.0 * sigma ** 2)
    return -0.5 * base.d * xp.log(lead) + tail if log else lead ** (-0.5 * base.d) * xp.exp(tail)


# the fixed rule's 20-point panels, and its breaks in sigma around the mean
_RULE_TABLE = np.polynomial.legendre.leggauss(20)
_RULE_WINDOW = np.array([-12.0, -4.0, 0.0, 4.0, 12.0])


def _gauss_expectation_rule(f, m, sigma):
    """E f(m + sigma*Z) for a TestFunction, by one fixed composite
    Gauss-Legendre rule on the line y = m + sigma*z over [m - 12 sigma,
    m + 12 sigma]. m and sigma are floats (one row) or arrays (a row per
    element); the result has their broadcast shape.

    Panels break at m + sigma*{-12, -4, 0, 4, 12} and at every breakpoint
    f declares, clipped into the window, so a kink or a feature much
    narrower than sigma gets panels of its own scale. A breakpoint outside
    the window makes a panel of zero width, which adds nothing, so every
    row has the same panel count (built by ``_panel_nodes``, a row of edges
    per row). f is evaluated once per cache-sized block of rows
    (``_blocks``), on all its rows' panel nodes; a row's sum does not
    depend on its block.
    """
    m, sigma = np.broadcast_arrays(np.asarray(m, dtype=float),
                                   np.asarray(sigma, dtype=float))
    rows_m, rows_s = m.reshape(-1, 1), sigma.reshape(-1, 1)
    b = np.asarray(f.breakpoints(), dtype=float)
    out = np.empty(m.size)
    for block in _blocks(m.size, (len(_RULE_WINDOW) - 1 + b.size) * len(_RULE_TABLE[0])):
        mc, sc = rows_m[block], rows_s[block]
        window = mc + sc * _RULE_WINDOW
        y, wts = _panel_nodes(np.sort(np.concatenate(
            (window, np.clip(b, window[:, :1], window[:, -1:])), axis=1), axis=1),
            _RULE_TABLE)
        z = (y - mc) / sc
        out[block] = np.einsum("...i,...i->...", f(y) * np.exp(-0.5 * z * z), wts)
    return out.reshape(m.shape) / (sigma * _SQRT_2PI)


@lru_cache(maxsize=1 << 16)
def _gauss_quad_memo(f, m, sigma):
    """Memoized fixed-rule expectation for hashable test functions without
    a closed form; repeated sweeps revisit identical (f, m, sigma) nodes."""
    return float(_gauss_expectation_rule(f, m, sigma))


def apply(base, f, s, x):
    """P_s f(x) = E f(m_s(x) + sigma_s * Z) for a TestFunction f, the exp
    of ``_log_expect``. Non-constant test functions need d = 1. A plain
    callable raises TypeError."""
    if not s > 0.0:
        raise ValueError(f"s must be > 0, got {s!r}")
    return _value(f, _log_expect(base, f, s, _first_coordinate(base, f, x)))


def _log_expect(base, f, s, x0):
    """log P_s f(x0) at a float s for a TestFunction, m and sigma the
    kernel's at s from x0: the closed ``log_gauss_expect`` where f has one
    (every shipped family, and log(floor + f) for an indicator or a bump,
    see ``_LogOf``), else the log of the fixed rule
    ``_gauss_expectation_rule``, memoized per (f, m, sigma) for a hashable f
    (a power outside f's family, log(floor + f) for any other f, a user's
    own function)."""
    m, sigma = base.mean_sigma(s, x0)
    if (log_e := f.log_gauss_expect(m, sigma)) is not None:
        return log_e
    return _log_or_ninf(_memoized(_gauss_quad_memo, f, f, m, sigma))


def _value(f, log_e, exp=_exp_or_inf):
    """E f from log E f: its exp, inf past float range, and a constant f's
    own value, exactly."""
    return float(f(0.0)) if f.constant else exp(log_e)


def _first_coordinate(base, f, x):
    """Check f and the point x for P_s f(x) and return x's first
    coordinate as a float; f must be a TestFunction, and constant unless
    d = 1. The point is checked by ``_checked_point``."""
    _check_test_function(f)
    x = _checked_point(x, base.d)
    if base.d != 1 and not f.constant:
        raise ValueError("non-constant test functions are supported for d = 1 only")
    return x if base.d == 1 else x[0]


def _check_test_function(f):
    if not isinstance(f, TestFunction):
        raise TypeError(f"P_s f needs a TestFunction, got {type(f).__name__}; "
                        "subclass TestFunction and declare its breakpoints()")


def _memoized(memo, f, *key):
    """memo(*key), whose key holds f, or uncached for an unhashable f: only a
    TypeError from hash(f) means that, so f runs once either way."""
    try:
        return memo(*key)
    except TypeError:
        try:
            hash(f)
        except TypeError:
            return memo.__wrapped__(*key)
        raise


def subordinated_apply(base, sub, f, x, spec=QuadratureSpec()):
    """P_t^alpha f(x) = int P_s f(x) mu_t(ds) for a TestFunction f; x is
    checked once, not at every node s, and a plain callable raises
    TypeError.

    The s-integral is the exp of one law-rule log-sum (``_law_logsum``) of
    P_s f(x)'s summands on all its nodes (``_law_terms``); at alpha = 1 it
    is ``apply`` at s = t. ``spec`` is not read; acceptance
    criterion 06 passes it. Where the integral diverges (an unclipped
    ExpAffine under the heat kernel) the value is inf, its log finite. It
    is the value of the memoized pair ``_subordinated_pair``."""
    return _subordinated_pair(base, sub, f, x)[0]


def _subordinated_pair(base, sub, f, x):
    """(P_t^alpha f(x), log P_t^alpha f(x)), memoized per (base, sub, f, x)
    for a hashable f, else integrated every time."""
    x0 = _first_coordinate(base, f, x)
    return _memoized(_subordinated_apply_memo, f, base, sub, f, x0)


@lru_cache(maxsize=1 << 16)
def _subordinated_apply_memo(base, sub, f, x0):
    """``_subordinated_pair`` at x0, the first coordinate of a point checked
    by ``_first_coordinate``: one log per key and the value from it
    (``_value``), so a value below float range keeps its log. Below
    alpha = 1 a miss forms m and sigma on the law rule's nodes once, and
    f's summands of P_s f (``_law_terms``: each atom's log, a window
    across the mean as its mass, log(floor + bump)'s series as its value)
    make one list that one law-rule log-sum finishes (``_law_logsum``: one
    shift, one exp, one product with w). At alpha = 1 it is log P_t f at
    the one node, in floats. The Harnack checks ask for the same integral
    for every p (an indicator is its own power) and every factor mode, so
    sweeps revisit its keys."""
    if sub.degenerate:
        log_e = _log_expect(base, f, sub.t, x0)
    else:
        log_e = _law_logsum(sub, f._law_terms(*base.law_mean_sigma(sub, x0)))
    return _value(f, log_e), float(log_e)


def subordinated_density(base, sub, x, y, spec=QuadratureSpec()):
    """Transition density of the time-changed kernel, int p_s(x, y) mu_t(ds);
    x and y are checked once (``_checked_point``), not at every node s.

    The integral is the fixed law rule for alpha in (0, 1], certified when
    built to 1e-12 relative against the law's closed forms; ``spec`` is not
    read (the benchmark passes it). For every K it is one sum in logs over
    the rule's v_i and w_i, with l = log t / alpha and no s_i = e^l v_i formed:
    with L_i = log(sigma_i^2 / 2), q_i = |y - e^(-K s_i) x|^2 and lam
    taken out of L_i, (4 pi e^lam)^(-d/2) sum_i exp(log w_i - (d/2)(L_i -
    lam) - exp(log q_i - log 4 - L_i)), the inner exp subtracted, the outer
    taken and the sum formed in one scratch array. At K = 0 (the 0/0 limit)
    lam = l, L_i - lam = log v_i, so log w_i - (d/2) log v_i is the rule's
    own, kept per d (``_LawRule.node_terms``), and q_i = rho^2; for K > 0
    (d = 1), lam = L_0, the smallest node's, so no term passes 1, and as t
    grows lam is -log 2K, the stationary variance's, exactly. The diagonal
    serves every t (inf past float range); a t where a q_i / (2 sigma_i^2)
    does raises ValueError.
    Resolved range: at alpha = 1/2 within ~4e-13 of the Poisson kernel for
    |x - y| up to 50 t (d = 1, 2, 3); far past that the kernel's mass lies
    beyond the rule's largest node (6.2e14 at alpha = 1/2), and at d = 1,
    |x - y| = 1 the heat value is 3.5% high at t = 1e-7, 63% low at 1e-8
    and 0 from 1e-10 (OU's, from x = 0, is 74% low at 1e-8)."""
    return _exp_or_inf(_log_subordinated_density(base, sub, x, y))


def _log_subordinated_density(base, sub, x, y):
    """log of ``subordinated_density``: its sum, then one log, finite
    wherever the sum is positive, t past float range too."""
    x0, y0, rho_sq = _checked_pair(base, x, y)
    rule = _law_rule(sub.alpha)
    ell = math.log(sub.t) / sub.alpha
    K, c = base.curvature_K, None
    if K == 0.0:
        lam, log_terms = ell, rule.node_terms(base.d)
        if rho_sq > 0.0:
            c = _exp_or_inf(math.log(rho_sq) - _LOG_4 - ell) / rule.v
    else:  # d = 1; log_kv = log(K sigma_i^2), 2K s_i formed within e^(+-40)
        log_2ks = (math.log(2.0 * K) + ell) + rule.log_v
        two_ks = np.exp(np.clip(log_2ks, -_RATE_CUT, _RATE_CUT))
        log_kv = np.where(log_2ks > -_RATE_CUT, np.log(-np.expm1(-two_ks)), log_2ks)
        q = y0 - np.exp(-0.5 * two_ks) * x0
        with np.errstate(divide="ignore", over="ignore"):
            c = np.exp(np.log(q * q) + math.log(0.5 * K) - log_kv)
        lam, log_rel = log_kv[0] - math.log(2.0 * K), log_kv - log_kv[0]
        log_terms = rule.log_w - 0.5 * base.d * log_rel
    if c is not None:
        if c[0] == math.inf:  # at the smallest node first, where q_i = rho^2
            raise ValueError(f"|y - m_s(x)|^2 / (2 sigma_s^2) is past float "
                             f"range at t={sub.t!r}, alpha={sub.alpha!r}")
        log_terms = np.subtract(log_terms, c, out=c)
    total = float(np.exp(log_terms, out=c).sum())  # into c, or a new array
    return _log_or_ninf(total) - 0.5 * base.d * (_LOG_4PI + lam)


def cauchy_closed_form(d, t, x, y):
    """Poisson kernel Gamma((d+1)/2)/pi**((d+1)/2) * t/(t^2+|x-y|^2)^((d+1)/2).

    Transition density of the half-subordinated heat semigroup; the
    independent oracle for alpha = 1/2. Formed in logs, with m = max(t, rho)
    and mu = min(t, rho), so no square over- or underflows.
    """
    if not t > 0.0:
        raise ValueError("t must be > 0")
    x = _as_point(x, d)
    y = _as_point(y, d)
    rho = math.hypot(*(x - y))
    m, mu = max(t, rho), min(t, rho)
    n = (d + 1) / 2.0
    log_c = gammaln(n) - n * math.log(math.pi)
    log_den = 2.0 * math.log(m) + math.log1p((mu / m) ** 2)
    return _exp_or_inf(log_c + math.log(t) - n * log_den)


def ondiag(base, sub, x):
    """On-diagonal value p_t(x, x) of the time-changed kernel of any base,
    ``subordinated_density``'s sum in logs at y = x: right for every t, inf
    past float range; at K = 0, (4 pi e^l)^(-d/2) sum_i w_i v_i^(-d/2)."""
    return subordinated_density(base, sub, x, x)
