"""Singular Hardy weight and the shifted-frame cusp calibration functions.

The weight ``W_R(x) = (|x| log(R/|x|))^{-N}`` blows up at the origin and on the
sphere ``|x| = R``.  Near the sphere it behaves like the inverse distance to the
boundary raised to ``N``; `boundary_taylor_gap` measures the relative deviation.

The ``cusp_*`` functions work in the polar frame shifted to the boundary point
``(0, 1)`` of the unit disk: a point at distance ``r`` from that point in
direction ``theta`` (measured from the positive horizontal axis, so the disk
interior is ``theta in (0, pi)``) sits at squared distance ``h(r, theta)`` from
the origin.  ``cusp_weight_ratio`` compares the weight normalizer against the
squared height above the boundary, and ``cusp_ratio_infimum`` gives its minimum
over a cone slice in closed form: the smaller of its values at the slice edge
and on the vertical ray, where it is ``((1 - r) log(1 - r) / r)^2 < 1`` since
``x log(1/x) < 1 - x`` on (0, 1).  Both calibrate the narrowing-cusp domain on
which the best constant exceeds 1/4 without being attained.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._errors import DomainRangeError


def _float_for_scalars(out, *inputs):
    """``out`` as a float when every input is a scalar, else unchanged: the
    return rule of the functions that take a scalar or an array."""
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def _dimension(N) -> int:
    """``N``, unless it is not an integer of at least 2 (a bool is not):
    then raise `DomainRangeError`.  Every entry point that divides by N or
    by N - 1 calls this first."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 2:
        raise DomainRangeError(f"N must be an integer >= 2, got {N!r}")
    return N


def _radius(R):
    """``R``, unless it is not a finite real number above 0 (a bool is not):
    then raise `DomainRangeError`.  `WeightParams` and `DomainSpec` call this
    on their outer radius."""
    if (isinstance(R, bool) or not isinstance(R, numbers.Real)
            or not 0 < R < math.inf):
        raise DomainRangeError(
            f"R must be a finite real number above 0, got {R!r}")
    return R


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the critical Hardy weight: outer radius R and exponent N."""

    R: float
    N: int = 2

    def __post_init__(self) -> None:
        _radius(self.R)
        _dimension(self.N)


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
    """Squared distance to the shifted origin: h(r, theta) = r^2 - 2 r sin(theta) + 1.

    Summed as ``(r cos)^2 + (1 - r sin)^2``, which keeps its relative
    accuracy as h -> 0 (r -> 1 on the vertical ray), where the expanded
    form cancels to 0.
    """
    r_arr, th = _tip_polar(r, theta)
    out = (r_arr * np.cos(th)) ** 2 + (1.0 - r_arr * np.sin(th)) ** 2
    return _float_for_scalars(out, r, theta)


def cusp_weight_ratio(r, theta):
    """Ratio of the shifted weight normalizer to the squared height above the boundary.

    With y = (r cos(theta), r sin(theta)) in the shifted frame, the normalizer is
    (1/4) h (log h)^2 and the height is y_2 = r sin(theta); the ratio tends to 1
    as the tip is approached.  Evaluated via log1p where h is close to 1; below
    h = 1/4, where ``1 + (h - 1)`` cancels (fully as r -> 1 on the vertical
    ray), h is the squared distance (r cos)^2 + (1 - r sin)^2 itself.
    """
    r_arr, th = _tip_polar(r, theta)
    s = np.sin(th)
    w = r_arr * r_arr - 2.0 * r_arr * s  # h - 1, small near the tip
    far = w < -0.75
    h = np.where(far, (r_arr * np.cos(th)) ** 2 + (1.0 - r_arr * s) ** 2,
                 1.0 + w)
    with np.errstate(divide="ignore"):  # the discarded log1p(-1) of far points
        log_h = np.where(far, np.log(h), np.log1p(w))
    y2 = r_arr * s
    out = 0.25 * h * log_h * log_h / (y2 * y2)
    return _float_for_scalars(out, r, theta)


def cusp_ratio_infimum(r, a: float):
    """Minimum of `cusp_weight_ratio` over the cone slice theta in [a, pi - a].

    The minimum is the ratio at theta = a or at theta = pi/2, whichever is
    smaller; it is 0 when the slice reaches the unit circle (2 sin a <= r),
    where h = 1.  Proof: the ratio depends on theta only through
    s = sin(theta), which runs over [sin a, 1].  With h = 1 + r^2 - 2 r s and
    L = log h, d/ds of the log of the ratio has the sign of
    F(s) = r s (L + 2) + h L.  F'' = -4 r^3 s / h^2 < 0, and F = r^2 > 0 at
    s = r/2, the unit circle.  So inside the disk (s > r/2) the ratio rises
    and then may fall, but never falls and then rises: it has no interior
    minimum.  Takes a scalar or an array of ``r``.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all((0.0 < r_arr) & (r_arr < 1.0)):
        raise DomainRangeError(f"r must lie in (0, 1), got {r}")
    if not (0.0 < a < math.pi / 2):
        raise DomainRangeError(f"a must lie in (0, pi/2), got {a}")
    ends = cusp_weight_ratio(r_arr[..., None], np.array([a, math.pi / 2]))
    out = np.where(2.0 * math.sin(a) <= r_arr, 0.0, ends.min(axis=-1))
    return _float_for_scalars(out, r)
