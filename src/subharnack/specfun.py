"""Log-gamma evaluation and the two-sided Stirling bracket.

Everything downstream (fractional moments, series terms, explicit
constants) is assembled from ``log_gamma``; the bracket gives rigorous
two-sided control of Gamma values via the classical remainder bound
``Gamma(r) = sqrt(2*pi) * r**(r - 1/2) * exp(-r + theta/(12*r))`` with
``0 < theta < 1``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = ["StirlingBracket", "log_gamma", "stirling_bracket"]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _exp_or_inf(x):
    """exp(x), or inf where that passes float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_or_ninf(x):
    """log(x) for x >= 0, -inf at 0."""
    return math.log(x) if x > 0.0 else -math.inf


def log_gamma(r):
    """Natural log of Gamma(r) for r > 0.

    A scalar gives a float; a numpy array gives an array of the same
    shape, equal element by element to the scalar values, and is rejected
    whole if any element is not finite and positive. Accurate to at
    least 12 significant digits on (0.1, 200].
    """
    if isinstance(r, np.ndarray) and r.ndim:
        r = r.astype(float, copy=False)
        bad = ~((r > 0.0) & (r < math.inf))
        if bad.any():
            raise ValueError(
                f"log_gamma requires finite r > 0, got {float(r[bad][0])!r} in an array"
            )
        return gammaln(r)
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"log_gamma requires finite r > 0, got {r!r}")
    return float(gammaln(r))


@dataclass(frozen=True)
class StirlingBracket:
    """Two-sided Stirling enclosure of Gamma(r), in logs only.

    ``log_lower`` is the log of the theta=0 endpoint, ``log_upper`` that
    of the theta=1 endpoint; the true log Gamma(r) lies strictly between
    them for every r > 0 (Gamma itself overflows a float past r ~ 171).
    """

    r: float
    log_lower: float
    log_upper: float

    def contains_log(self, log_value):
        return self.log_lower <= log_value <= self.log_upper


def stirling_bracket(r):
    """Bracket Gamma(r) between the theta=0 and theta=1 Stirling endpoints."""
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"stirling_bracket requires finite r > 0, got {r!r}")
    log_lower = _LOG_SQRT_2PI + (r - 0.5) * math.log(r) - r
    log_upper = log_lower + 1.0 / (12.0 * r)
    return StirlingBracket(r, log_lower, log_upper)
