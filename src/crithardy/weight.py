"""Singular Hardy weight and the shifted-frame cusp calibration functions.

The weight ``W_R(x) = (|x| log(R/|x|))^{-N}`` blows up at the origin and on the
sphere ``|x| = R``.  Near the sphere it behaves like the inverse distance to the
boundary raised to ``N``; `boundary_taylor_gap` measures the relative deviation.

The ``cusp_*`` functions work in the polar frame shifted to the boundary point
``(0, 1)`` of the unit disk: a point at distance ``r`` from that point in
direction ``theta`` (measured from the positive horizontal axis, so the disk
interior is ``theta in (0, pi)``) sits at squared distance ``h(r, theta)`` from
the origin.  ``cusp_weight_ratio`` compares the weight normalizer against the
squared height above the boundary, and ``cusp_ratio_infimum`` minimizes it over
a cone slice; both are the calibration inputs for the narrowing-cusp domain on
which the best constant exceeds 1/4 without being attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import DomainRangeError, NumericalError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _float_for_scalars(out, *inputs):
    """``out`` as a float when every input is a scalar, else unchanged: the
    return rule of the functions that take a scalar or an array."""
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the critical Hardy weight: outer radius R and exponent N."""

    R: float
    N: int = 2

    def __post_init__(self) -> None:
        if not (self.R > 0):
            raise DomainRangeError(f"R must be positive, got {self.R}")
        if self.N < 2:
            raise DomainRangeError(f"N must be an integer >= 2, got {self.N}")


def log_R_over(p: WeightParams, x_norm):
    """log(R/|x|) for a scalar or ndarray radius.

    Above 0.7R it is ``-log1p((|x| - R)/R)``, which stays accurate as |x| -> R.
    Below, it is ``log(R/|x|)``: there the log1p argument rounds to -1 once
    |x| < eps R, and the log1p form returns inf.
    """
    x = np.asarray(x_norm, dtype=float)
    with np.errstate(divide="ignore"):  # the discarded log1p(-1) below eps R
        t = np.where(x > 0.7 * p.R, -np.log1p((x - p.R) / p.R), np.log(p.R / x))
    return _float_for_scalars(t, x_norm)


def _radius_in_range(p: WeightParams, x_norm) -> np.ndarray:
    """``x_norm`` as an array, checked to lie in the open range (0, R)."""
    x = np.asarray(x_norm, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= p.R):
        raise DomainRangeError(f"|x| must lie in (0, {p.R}); got {x_norm}")
    return x


def weight_eval(p: WeightParams, x_norm) -> float:
    """Evaluate W_R at radius ``x_norm`` in (0, R).

    Accepts a scalar or ndarray; singular at both endpoints, hence the open
    range check.
    """
    x = _radius_in_range(p, x_norm)
    w = (x * log_R_over(p, x)) ** (-p.N)
    return _float_for_scalars(w, x_norm)


def boundary_taylor_gap(p: WeightParams, x_norm) -> float:
    """Relative gap |x|^N log(R/|x|)^N / (R-|x|)^N - 1; tends to 0 as |x| -> R."""
    x = _radius_in_range(p, x_norm)
    gap = (x * log_R_over(p, x) / (p.R - x)) ** p.N - 1.0
    return _float_for_scalars(gap, x_norm)


def _tip_polar(r, theta) -> tuple[np.ndarray, np.ndarray]:
    """``(r, theta)`` as arrays, checked to lie in (0, 1) x (0, pi)."""
    r_arr = np.asarray(r, dtype=float)
    th = np.asarray(theta, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0):
        raise DomainRangeError("r must lie in (0, 1)")
    if np.any(th <= 0.0) or np.any(th >= math.pi):
        raise DomainRangeError("theta must lie in (0, pi)")
    return r_arr, th


def cusp_h(r, theta):
    """Squared distance to the shifted origin: h(r, theta) = r^2 - 2 r sin(theta) + 1."""
    r_arr, th = _tip_polar(r, theta)
    out = r_arr * r_arr - 2.0 * r_arr * np.sin(th) + 1.0
    return _float_for_scalars(out, r, theta)


def cusp_weight_ratio(r, theta):
    """Ratio of the shifted weight normalizer to the squared height above the boundary.

    With y = (r cos(theta), r sin(theta)) in the shifted frame, the normalizer is
    (1/4) h (log h)^2 and the height is y_2 = r sin(theta); the ratio tends to 1
    as the tip is approached.  Evaluated via log1p in the small-r regime where
    h is close to 1.
    """
    out = _ratio_in_range(*_tip_polar(r, theta))
    return _float_for_scalars(out, r, theta)


def _ratio_in_range(r, theta, xp=np):
    """`cusp_weight_ratio` without the conversions and range checks.

    ``xp`` supplies ``sin`` and ``log1p``: `numpy` for arrays, `math` for
    single floats, where it is several times faster than numpy's ufuncs.
    """
    s = xp.sin(theta)
    w = r * r - 2.0 * r * s  # h - 1, small near the tip
    log_h = xp.log1p(w)
    y2 = r * s
    return 0.25 * (1.0 + w) * log_h * log_h / (y2 * y2)


def cusp_ratio_infimum(r: float, a: float, samples: int = 2048) -> float:
    """Minimum of `cusp_weight_ratio` over the cone slice theta in [a, pi - a].

    Dense sampling followed by golden-section refinement of the best bracket
    down to a width of 1e-12; the slice is symmetric about pi/2 so the scan
    covers [a, pi/2].  The refinement stays inside the validated scan range,
    so it evaluates the ratio on single floats, through `math`, without the
    checks of `cusp_weight_ratio`.
    """
    if not (0.0 < r < 1.0):
        raise DomainRangeError(f"r must lie in (0, 1), got {r}")
    if not (0.0 < a < math.pi / 2):
        raise DomainRangeError(f"a must lie in (0, pi/2), got {a}")
    thetas = np.linspace(a, math.pi / 2, samples)
    vals = cusp_weight_ratio(r, thetas)
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"non-finite ratio values at r={r}")
    k = int(np.argmin(vals))
    lo = float(thetas[max(k - 1, 0)])
    hi = float(thetas[min(k + 1, samples - 1)])
    # Golden-section refinement of the sampled bracket.
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _ratio_in_range(r, x1, math)
    f2 = _ratio_in_range(r, x2, math)
    while hi - lo > 1e-12:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _ratio_in_range(r, x1, math)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _ratio_in_range(r, x2, math)
    best = float(min(vals[k], f1, f2))
    if not math.isfinite(best):
        raise NumericalError(f"cusp ratio minimization failed at r={r}")
    return best


def cusp_flat_radius(a: float) -> float:
    """Largest scanned radius <= 0.5 below which the slice infimum stays < 1.

    Scans r = 0.01, 0.02, ... (by repeated addition) and returns the last grid
    value before the first violation of ``inf < 1`` (0.5 if none occurs); each
    infimum is sampled on 512 angles.
    """
    step, cap = 1e-2, 0.5
    r = step
    last_good = 0.0
    while r <= cap + 1e-15:
        if cusp_ratio_infimum(r, a, samples=512) >= 1.0:
            break
        last_good = r
        r += step
    if last_good == 0.0:
        raise NumericalError(f"slice ratio is not < 1 near 0 for a={a}")
    return min(last_good, cap)
