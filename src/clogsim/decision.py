"""Bounded sigmoidal decision rules and their fixed-point structure.

Two families map a mental state m in [0, 1] to a production probability
P(s = 1):

* ``clog``: a probability-to-probability sigmoid whose fixed points are
  pinned at (0, 0) and (1, 1) for every temperature.  It interpolates
  between probability matching (the identity map) and an absolute
  threshold (a step function).
* ``logistic``: the two-choice softmax applied directly to probabilities,
  kept for comparison; its attractors drift away from the corners, so a
  lost variant is never truly extinct under iteration.

Curves are parametrized by the slope angle ``phi_deg`` at the inflection
point rather than by temperature tau.  The angle is bounded, degree sweeps
are natural, and the boundary angles become exact code branches (identity,
step) instead of overflow-prone limits of the exponential form.  45 degrees
is probability matching and 90 an absolute threshold; the logistic family
additionally admits angles below 45 (down to 0, the constant coin flip).
The bias ``beta`` shifts the interior unstable fixed point to 0.5 + beta;
negative values favor the innovative variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import _require_integers

__all__ = [
    "FAMILIES",
    "STABLE",
    "UNSTABLE",
    "MARGINAL",
    "FixedPoint",
    "FixedPointContinuum",
    "IDENTITY_CONTINUUM",
    "phi_to_tau",
    "clog_eval",
    "logistic_eval",
    "production_rule",
    "step_threshold",
    "find_fixed_points",
    "tabulate_curve",
]

FAMILIES = ("clog", "logistic")

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

# Fixed-point search constants.  All crossings of these maps are simple at
# these scales, so a sign-change scan plus bisection finds every root.
SCAN_INTERVALS = 10_000
BISECT_TOL = 1e-12
SLOPE_TOL = 1e-6
_DIFF_H = 1e-6


@dataclass(frozen=True)
class FixedPoint:
    """A solution of f(m) = m with its local stability."""

    location: float
    stability: str
    derivative: float


@dataclass(frozen=True)
class FixedPointContinuum:
    """Marker result: the map is the identity, so every m is a fixed point.

    Returned by :func:`find_fixed_points` for the clog at phi = 45 deg,
    where a finite list would be misleading.
    """

    derivative: float = 1.0


IDENTITY_CONTINUUM = FixedPointContinuum()


def phi_to_tau(phi_deg: float, family: str = "clog") -> float:
    """Temperature equivalent of the inflection angle ``phi_deg``.

    clog:     tan(phi) = 1 + 1/(2 tau),  45 <= phi <= 90
    logistic: tan(phi) = 1/(2 tau),       0 <= phi <= 90

    The lower endpoint maps to +inf (identity / constant limit) and 90 deg
    maps to 0 (step limit).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown decision family {family!r}; expected one of {FAMILIES}")
    lo = 45.0 if family == "clog" else 0.0
    if not (lo <= phi_deg <= 90.0):
        raise ValueError(f"phi must lie in [{lo:g}, 90] for the {family} family, got {phi_deg!r}")
    if phi_deg == lo:
        return math.inf
    if phi_deg == 90.0:
        return 0.0
    t = math.tan(math.radians(phi_deg))
    return 1.0 / (2.0 * (t - 1.0)) if family == "clog" else 1.0 / (2.0 * t)


def _as_prob(m) -> np.ndarray:
    # A copy, so the identity rule at phi = 45 never hands back the input.
    arr = np.array(m, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("mental state m must be a finite probability in [0, 1]")
    return arr


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Exponentiate only -|x| so no argument overflows.  The upper branch is
    # 1 - e/(1+e) rather than 1/(1+e): rounding 1 + e to the [1, 2) grid
    # first would leave every result below 1 a multiple of 2**-52, two ulps,
    # and drop a bit of the output's resolution.  ``x`` has at least one
    # dimension, so ``r`` is an array that the upper branch can overwrite.
    e = np.exp(np.copysign(x, -1.0))
    r = e / (1.0 + e)
    return np.subtract(1.0, r, out=r, where=x >= 0)


@np.errstate(divide="ignore")
def _clog_kernel(m: np.ndarray, h: float, beta) -> np.ndarray:
    # Log-odds form L = ln(m/(1-m)) + (2m - 1 - 2 beta)/tau: the direct
    # exponential form overflows once tau is small.  At m = 0 and m = 1,
    # L is -inf and +inf, which the sigmoid maps to exactly 0 and 1; that
    # pins the fixed points at (0,0) and (1,1).
    #
    # The drift is computed as ((m - 0.5) - beta)/h with h = tau/2, which
    # is the same double as ((2m - 1) - 2 beta)/tau.  Multiplying by 2 is
    # exact and commutes with rounding unless a result is subnormal, and
    # here none is rounded there: m - 0.5 is 0 or at least 2**-54 in size,
    # a difference that lands among the subnormals is exact, and tau/2 is
    # a normal number at every interior angle.  So each intermediate is
    # exactly half of its doubled counterpart, and both quotients are the
    # rounding of one real number.  The decorator silences the divides of
    # m = 0 and 1 for this call alone and builds no context object per call.
    return _sigmoid(np.log(m / (1.0 - m)) + (m - 0.5 - beta) / h)


def _step_kernel(m: np.ndarray, thr, at_threshold) -> np.ndarray:
    return np.where(m < thr, 0.0, np.where(m > thr, 1.0, at_threshold))


def _rule(family: str, phi_deg: float, beta):
    """Vectorized m -> f(m) closure for ``family``, angle resolved once: the
    one check of the family, the angle and each bias in ``beta`` (NaN too)."""
    tau = phi_to_tau(phi_deg, family)
    bad = np.asarray(beta, dtype=np.float64)
    bad = bad[~(np.abs(bad) <= 0.5)]
    if bad.size:
        raise ValueError(f"beta must lie in [-0.5, 0.5], got {float(bad[0])!r}")
    if phi_deg == 90.0:
        # Pointwise limit: the threshold stays at 0.5 + beta for every tau.
        # At the threshold the clog keeps the value 0.5 + beta, while the
        # logistic takes 0.5 (both exponentials tie).
        thr = step_threshold(beta)
        at_threshold = thr if family == "clog" else 0.5
        return lambda m: _step_kernel(m, thr, at_threshold)
    if tau == math.inf:
        return (lambda m: m) if family == "clog" else (lambda m: np.full_like(m, 0.5))
    h = 0.5 * tau  # the drift is computed halved; see _clog_kernel
    if family == "clog":
        return lambda m: _clog_kernel(m, h, beta)
    return lambda m: _sigmoid((m - 0.5 - beta) / h)


def _eval(family: str, m, phi_deg: float, beta):
    arr = _as_prob(m)
    out = _rule(family, phi_deg, beta)(arr.reshape(-1))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def clog_eval(m, phi_deg: float, beta=0.0):
    """clog production probability for mental state ``m``.

    Interior angles evaluate m e^((m-beta)/tau) / (m e^((m-beta)/tau)
    + (1-m) e^((1-m+beta)/tau)) in a numerically stable log-odds form;
    phi = 45 returns m exactly and phi = 90 the step limit.  Values below
    1 are resolved to one ulp (2**-53), not to two.  ``m`` may be a scalar
    or an array; the result matches.
    """
    return _eval("clog", m, phi_deg, beta)


def logistic_eval(m, phi_deg: float, beta=0.0):
    """Two-choice softmax probability for mental state ``m``.

    Equivalent to 1 / (1 + e^((1 - 2m + 2 beta)/tau)); phi = 0 is the
    constant 0.5 and phi = 90 the step at 0.5 + beta with value 0.5 at the
    threshold.
    """
    return _eval("logistic", m, phi_deg, beta)


def production_rule(phi_deg: float, beta):
    """Vectorized m -> P(s = 1) closure for the clog, angle resolved once.

    ``beta`` may be a scalar or a per-node array.  The returned callable
    assumes its argument is already a valid probability array with at least
    one dimension (the simulation maintains that invariant) and skips
    revalidation; it is the per-cycle hot path.
    """
    return _rule("clog", phi_deg, beta)


def step_threshold(beta):
    """Threshold 0.5 + beta of the phi = 90 rule: 0 below it, 1 above."""
    return 0.5 + np.asarray(beta, dtype=np.float64)


def _bisect_root(g, a: float, b: float) -> float:
    # g has opposite signs at a and b.  The width floor handles maps with a
    # jump crossing (phi = 90), where |g| never gets small.
    ga = g(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if abs(gm) < BISECT_TOL or (b - a) < 1e-15:
            return mid
        if (gm < 0.0) == (ga < 0.0):
            a, ga = mid, gm
        else:
            b = mid
    return 0.5 * (a + b)


def _map_derivative(f, x: float) -> float:
    h = _DIFF_H
    if x - h < 0.0:
        return (f(x + h) - f(x)) / h
    if x + h > 1.0:
        return (f(x) - f(x - h)) / h
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _classify(derivative: float) -> str:
    if abs(derivative) < 1.0 - SLOPE_TOL:
        return STABLE
    if abs(derivative) > 1.0 + SLOPE_TOL:
        return UNSTABLE
    return MARGINAL


def find_fixed_points(family: str, phi_deg: float, beta=0.0):
    """All solutions of f(m) = m on [0, 1], with stability.

    Roots are located by a sign-change scan of f(m) - m on a uniform grid
    of ``SCAN_INTERVALS`` cells followed by bisection; derivatives use a
    central finite difference (one-sided at the endpoints).  A fixed point
    is stable when |f'| < 1 - SLOPE_TOL and unstable when |f'| >
    1 + SLOPE_TOL; in the dead band it is reported as marginal.

    For the clog at phi = 45 every point is fixed; the distinguished
    :data:`IDENTITY_CONTINUUM` is returned instead of a list.
    """
    rule = _rule(family, phi_deg, beta)
    if family == "clog" and phi_deg == 45.0:
        return IDENTITY_CONTINUUM
    grid = np.arange(SCAN_INTERVALS + 1) / SCAN_INTERVALS
    g = rule(grid) - grid

    def f(x: float) -> float:
        return float(rule(np.array([x]))[0])

    roots: list[float] = []
    for k in np.flatnonzero(g == 0.0):
        roots.append(float(grid[k]))
    sign = np.sign(g)
    for k in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        roots.append(_bisect_root(lambda x: f(x) - x, float(grid[k]), float(grid[k + 1])))

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)

    out = []
    for r in merged:
        d = _map_derivative(f, r)
        out.append(FixedPoint(location=r, stability=_classify(d), derivative=d))
    return out


def tabulate_curve(family: str, phi_deg: float, n_points: int, beta=0.0) -> np.ndarray:
    """(m, f(m)) table on a uniform inclusive grid over [0, 1].

    Returns an array of shape (n_points, 2), ready for CSV export.
    """
    rule = _rule(family, phi_deg, beta)
    _require_integers(2, points=n_points)
    grid = np.arange(n_points) / (n_points - 1)
    return np.column_stack([grid, rule(grid)])
