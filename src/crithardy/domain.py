"""Bounded planar domains described by per-radius angular profiles.

A domain is represented by the set of arcs its slice ``{|x| = r}`` occupies on
the circle of radius ``r``; the slice measure ``m(r)``, its scaled limit
superiors at the origin and at the outer radius, and the resulting regime
classification drive everything else in the package.

The narrowing-cusp family deserves a note.  Its members present a single arc
centered on the top direction at every radius.  Three flavors are supported:

* ``cone``  -- constant half-angle, vertex at the origin;
* ``quadratic`` -- a profile pinching quadratically at the outer radius, the
  model domain on which the best constant is attained;
* ``section5``-style calibrated cusp (`DomainSpec.calibrated_cusp`) -- the
  domain with tip at the boundary point (0, 1) whose opening half-angle at tip
  distance ``rho`` is calibrated through the angular eigenvalue so that the
  best constant equals the eigenvalue of the limiting cone, strictly above 1/4,
  yet is not attained.  Its slice arcs with respect to the origin are computed
  through the exact shifted-frame change of coordinates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._errors import DomainRangeError, NumericalError
from . import oned, weight

TWO_PI = 2.0 * math.pi
# the limsups are sampled at 2^-k, k = 5..20, from the origin and from R, and
# report the sup over the last 4 samples
_TAIL_K = np.arange(5, 21.0)
_TAIL_WINDOW = 4


# ---------------------------------------------------------------------------
# Arc sets
# ---------------------------------------------------------------------------

class ArcSet:
    """Sorted disjoint half-open angle intervals inside [0, 2 pi).

    Overlapping or touching input arcs are merged, which keeps the measure
    exactly additive over disjoint unions.
    """

    __slots__ = ("arcs",)

    def __init__(self, arcs: Sequence[tuple[float, float]] = ()):
        cleaned = []
        for lo, hi in arcs:
            if hi <= lo:
                continue
            if hi - lo >= TWO_PI:
                cleaned = [(0.0, TWO_PI)]
                break
            lo_m = lo % TWO_PI
            hi_m = lo_m + (hi - lo)
            if hi_m <= TWO_PI:
                cleaned.append((lo_m, hi_m))
            else:  # wraps the cut at 2 pi
                cleaned.append((lo_m, TWO_PI))
                cleaned.append((0.0, hi_m - TWO_PI))
        cleaned.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.arcs = tuple(merged)

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    def __bool__(self) -> bool:
        return bool(self.arcs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ArcSet) and self.arcs == other.arcs

    def __repr__(self) -> str:
        return f"ArcSet({list(self.arcs)!r})"


FULL_CIRCLE = ArcSet([(0.0, TWO_PI)])
EMPTY_ARCS = ArcSet()


def _centered_arcs(s: float) -> ArcSet:
    """The arc of half-width ``s`` centered on the top direction."""
    if s <= 0.0:
        return EMPTY_ARCS
    if s >= math.pi:
        return FULL_CIRCLE
    return ArcSet([(math.pi / 2 - s, math.pi / 2 + s)])


# ---------------------------------------------------------------------------
# Calibrated cusp profile
# ---------------------------------------------------------------------------

class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant through ``(x, y)``.

    Built and evaluated as scipy's ``PchipInterpolator`` does it, operation
    for operation: Fritsch-Butland interior slopes (0 at a local extremum
    or beside a flat run), the shape-preserving one-sided three-point end
    slopes, the same cubic coefficients per piece, and the sum
    ``c3 + c2 s + c1 s^2 + c0 s^3`` at ``s = x - x_i`` in that order.
    Points outside ``[x_0, x_-1]`` take the end pieces.  Needs three or more
    strictly increasing ``x``, and raises `NumericalError` otherwise.
    """

    def __init__(self, x, y):
        x = np.array(x, dtype=float)  # copies: the pieces keep views of x, y
        y = np.array(y, dtype=float)
        h = np.diff(x)
        if x.size < 3 or not np.all(h > 0.0):
            raise NumericalError(
                "interpolation needs three or more strictly increasing nodes")
        m = np.diff(y) / h
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
                | (m[1:] == 0) | (m[:-1] == 0))
        d = np.empty_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = self._end_slope(h[0], h[1], m[0], m[1])
        d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._inner = x[1:-1]  # searched for the piece of each point
        self._left = x[:-1]
        self._c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        """One-sided three-point slope, set to 0 where its sign differs from
        the end secant's and capped at 3 times it beside a turn."""
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def with_slope(self, xi):
        """Values at ``xi`` and the derivatives ``c2 + (2 c1 + 3 c0 s) s``
        of the same pieces, ``s`` the offset of each point in its piece."""
        xi = np.asarray(xi, dtype=float)
        i = np.searchsorted(self._inner, xi, side="right")
        (c0, c1, c2, c3), s = [c[i] for c in self._c], xi - self._left[i]
        ss = s * s
        return (c3 + c2 * s + c1 * ss + c0 * (ss * s),
                c2 + (2.0 * c1 + 3.0 * c0 * s) * s)


@dataclass
class CuspProfile:
    """Tip-frame data of the calibrated cusp: limit angle, extent, calibration.

    ``r0`` is the largest tip distance the tables cover (0.5 by default).
    ``a_of_r(rho)`` is the opening half-angle at tip distance ``rho``; it solves
    ``angular_eigenvalue(a_of_r) * g(rho) = angular_eigenvalue(a)`` where ``g``
    is the slice infimum of the shifted weight ratio: the smaller of its values
    at the slice edge and on the vertical ray (`weight.cusp_ratio_infimum`).
    """

    a: float
    r0: float
    eigenvalue: float
    rho_table: np.ndarray
    g_table: np.ndarray
    a_table: np.ndarray
    _a_interp: _Pchip = field(init=False, repr=False)

    def __post_init__(self):
        self._a_interp = _Pchip(self.rho_table, self.a_table)

    def g(self, rho: float) -> float:
        """Slice infimum of the weight ratio at tip distance ``rho`` in
        (0, r0], in closed form."""
        if rho > self.r0:
            raise DomainRangeError(f"rho={rho} beyond profile extent {self.r0}")
        return weight.cusp_ratio_infimum(rho, self.a)

    def a_of_r(self, rho):
        """Half-angle at tip distance ``rho`` in [0, r0]: a float for a
        float, an array for an array (one interpolator call either way).
        A negative or NaN ``rho``, or one beyond r0, raises
        `DomainRangeError`."""
        rho = np.asarray(rho, dtype=float)
        inside = (rho >= 0.0) & (rho <= self.r0 * (1 + 1e-12))
        if not np.all(inside):
            raise DomainRangeError(
                f"rho={rho[~inside][0]} outside profile extent [0, {self.r0}]")
        opening, _ = self._opening_with_slope(np.minimum(rho, self.r0))
        return weight._float_for_scalars(opening, rho)

    def _opening_with_slope(self, rho):
        """`a_of_r` at tip distances ``rho`` in [0, r0] and its derivative
        there, with no range check: the limit angle ``a`` up to the first
        table row, the interpolant capped just below pi/2 beyond it."""
        opening, slope = self._a_interp.with_slope(rho)
        first, top = rho <= self.rho_table[0], math.pi / 2 - 1e-12
        return (np.where(first, self.a, np.minimum(opening, top)),
                np.where(first | (opening >= top), 0.0, slope))

    def min_g(self, delta: float) -> float:
        """Infimum of g over (0, delta]: ``g(delta)``, as both factors of g
        decrease on (0, 1).  On the vertical ray g is ``(x log(1/x) /
        (1-x))^2`` at x = 1 - rho, and ``d/dx [x log(1/x) / (1-x)] = (log(1/x)
        - 1 + x) / (1-x)^2 > 0``.  At the slice edge it is ``h m^2 / (2 rho sin
        a)^2``, ``h = 1 - 2 rho sin a + rho^2`` in (0, 1), m = -log h; ``d/drho
        log(sqrt(h) m / rho)`` has the sign of ``-(phi(m) + rho^2 (1 - m/2))``,
        ``phi(m) = (1 + e^{-m}) (m/2 - tanh(m/2)) > 0``: linear in rho^2 in
        [0, 1] and negative at both ends, -phi(m) and ``-e^{-m} (1 + m/2)``."""
        return self.g(delta)

    def cone_fit_extent(self, a_prime: float) -> float:
        """Largest rho such that the opening stays inside the a_prime cone below it."""
        if a_prime <= self.a:
            raise DomainRangeError("a_prime must exceed the limit angle")
        bad = self.a_table >= a_prime
        if not bad.any():
            return self.r0
        first_bad = int(np.argmax(bad))
        if first_bad == 0:
            raise DomainRangeError(f"no cone fit for a_prime={a_prime}")
        return float(self.rho_table[first_bad - 1])


def _extrapolate(xs: list, ys: list, x: float) -> float:
    """Value at ``x`` of the polynomial through the points ``(xs, ys)``.

    Lagrange form, since the nodes can agree to many digits (``np.polyfit``
    then loses rank); the nodes must be distinct.  A scipy
    ``BarycentricInterpolator`` gives the same roots, but building one per
    row takes about 0.1 ms on a 2-CPU host: 7% of a cold
    ``upperbound --family cusp``.
    """
    total = 0.0
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        basis = 1.0
        for m, xm in enumerate(xs):
            if m != j:
                basis *= (x - xm) / (xj - xm)
        total += yj * basis
    return total


@lru_cache(maxsize=16)
def build_cusp_profile(a: float, r0: float | None = None) -> CuspProfile:
    """Construct the calibrated cusp profile for limit angle ``a``.

    ``r0``, the tip distance the profile extends to, must lie in (1e-7, 1) and
    defaults to 0.5; the weight-ratio infimum ``g`` is below 1 at every tip
    distance (see `weight`).  The 96-row half-angle table, geometric in the tip
    distance from 1e-7 to ``r0``, is obtained by inverting the angular
    eigenvalue on the 512 grid at each tip distance (the bracketed secant
    of `oned.invert_angular_eigenvalue`).  The rows are solved in order of
    increasing target ``E(a) / g``, each bracketed from below by the
    previous root, since E is non-decreasing in the angle.  Each row starts
    from a predicted root: the polynomial in ``u = 1/sqrt(E)`` through the
    last four distinct roots (``a`` itself first), evaluated at the row's
    target; its slope there steers the next step when the prediction
    misses.  Only ``E(a)`` is solved cold.  Every later evaluation starts
    from the solution at its bracket's lower end (the previous root, then
    the secant's lower end), a certified start that cuts a pair solve from
    5 inverse-iteration steps to about 2.
    """
    if not (math.pi / 4 < a < math.pi / 2):
        raise DomainRangeError(f"limit angle must lie in (pi/4, pi/2), got {a}")
    if r0 is None:
        r0 = 0.5
    if not (1e-7 < r0 < 1.0):
        raise DomainRangeError(
            f"profile extent r0 must lie in (1e-7, 1), got {r0}")
    rho = np.geomspace(1e-7, r0, 96)
    rho[-1] = r0
    if not np.all(np.diff(rho) > 0.0):
        # geomspace rounds its rows out of order when r0 is within about
        # 1e-14 of 1e-7
        raise DomainRangeError(
            f"profile extent r0={r0!r} is too close to the first row 1e-7")
    root = oned.solve_angular(a, 512)  # each inversion keeps its grid
    e_a = root.value
    g_vals = weight.cusp_ratio_infimum(rho, a)
    if np.any(g_vals >= 1.0):
        bad = rho[np.argmax(g_vals >= 1.0)]
        raise NumericalError(f"weight ratio not below 1 at rho={bad}")
    targets = e_a / g_vals
    a_vals = np.empty_like(rho)
    u_done, a_done = [1.0 / math.sqrt(e_a)], [a]
    for i in np.argsort(targets, kind="stable"):
        u = 1.0 / math.sqrt(targets[i])
        guess = slope = None
        if len(u_done) > 1:
            us, xs = u_done[-4:], a_done[-4:]
            guess = _extrapolate(us, xs, u)
            slope = (_extrapolate(us, xs, u + 1e-6)
                     - _extrapolate(us, xs, u - 1e-6)) / 2e-6
        root = oned.invert_angular_eigenvalue(targets[i], root, guess, slope)
        a_vals[i] = root.a
        if root.a != a_done[-1]:
            # u at the root's own eigenvalue, which the inversion returns,
            # not at its target: the tolerance band scatters the targets,
            # and extrapolation amplifies the scatter past the tolerance
            u_done.append(1.0 / math.sqrt(root.value))
            a_done.append(root.a)
    return CuspProfile(a=a, r0=float(r0), eigenvalue=e_a, rho_table=rho,
                       g_table=g_vals, a_table=a_vals)


def tip_to_xy(rho, theta):
    """Map tip-frame polar coordinates (about the point (0, 1)) to the plane."""
    return rho * np.cos(theta), 1.0 - rho * np.sin(theta)


def _tip_half_widths(prof: CuspProfile, r: np.ndarray) -> np.ndarray:
    """Calibrated-cusp slice half-widths on all radii at once.

    The point at angular offset ``s`` from the top direction lies in the cusp
    when its tip distance ``rho`` is below ``r0`` and its tip-frame angle
    ``ang`` exceeds the opening at ``rho`` (exact shifted-frame membership).
    A slice reaches the cusp when ``0 < 1 - r < r0``, and then its point at
    ``s = 0`` lies inside: it is on the vertical ray, where ``ang = pi/2``
    exceeds every opening.  Every other slice is empty.

    The half-width is the offset ``cap`` where ``rho = r0`` when the slice is
    still inside there, and otherwise the sign change of
    ``phi(s) = ang(s) - a_of_r(rho(s))`` on ``(0, cap)``.  That is solved by
    Newton steps with the exact derivative, ``ang' = (X^2 - Y r cos s) /
    rho^2`` and ``rho' = X / rho`` for ``X = r sin s`` and
    ``Y = 1 - r cos s``, plus the interpolant's own slope.  The first guess
    is interpolated from the profile's table rows, which are boundary points.
    Each radius keeps a bracket ``phi(lo) > 0 >= phi(hi)`` and takes the
    bracket's midpoint whenever a step leaves it; it is done once its step
    or its bracket is at most four ulps (after 128 steps at most).
    ``1 - r cos s`` is written ``(1 - r) + 2 r sin^2(s/2)`` and ``rho^2`` as
    ``(1 - r)^2 + 4 r sin^2(s/2)``, so neither cancels as ``r -> 1``.
    """
    out = np.zeros(r.shape)
    found = (0.0 < 1.0 - r) & (1.0 - r < prof.r0)
    if not found.any():
        return out
    r = r[found]
    d = 1.0 - r
    # rho = r0 at the cap: 4 r sin^2(cap/2) = r0^2 - (1 - r)^2
    cap = 2.0 * np.arcsin(np.sqrt(np.minimum(
        (prof.r0 - d) * (prof.r0 + d) / (4.0 * r), 1.0)))
    capped = np.arctan2(d + 2.0 * r * np.sin(0.5 * cap) ** 2,
                        r * np.sin(cap)) > prof.a_of_r(prof.r0)
    s = cap.copy()
    # the table rows as points (r_i, s_i) of the plane, with 1 - r_i formed
    # without cancellation; s is interpolated in 1 - r, from 0 at the tip
    below = prof.rho_table * np.sin(prof.a_table)
    x_i = prof.rho_table * np.cos(prof.a_table)
    r_i = np.hypot(x_i, 1.0 - below)
    d_i = (2.0 * below - prof.rho_table ** 2) / (1.0 + r_i)
    idx = np.flatnonzero(~capped)
    lo, hi = np.zeros(idx.size), cap[idx]
    x = np.interp(d[idx], np.r_[0.0, d_i],
                  np.r_[0.0, np.arctan2(x_i, 1.0 - below)])
    x = np.where((lo < x) & (x < hi), x, 0.5 * hi)
    for _ in range(128):
        if idx.size == 0:
            break
        ri, di = r[idx], d[idx]
        h = 2.0 * ri * np.sin(0.5 * x) ** 2
        X, Y = ri * np.sin(x), di + h
        rho2 = di * di + 2.0 * h
        rho = np.sqrt(rho2)
        a, da = prof._opening_with_slope(np.minimum(rho, prof.r0))
        phi = np.arctan2(Y, X) - a
        dphi = (X * X - Y * ri * np.cos(x)) / rho2 - da * X / rho
        pos = phi > 0.0
        lo, hi = np.where(pos, x, lo), np.where(pos, hi, x)
        step = x - phi / dphi
        ulps = 4.0 * np.spacing(x)
        small = np.abs(step - x) <= ulps
        step = np.where(small | ((lo < step) & (step < hi)), step,
                        0.5 * (lo + hi))
        done = small | (hi - lo <= ulps)
        s[idx] = step
        keep = ~done
        idx, x, lo, hi = idx[keep], step[keep], lo[keep], hi[keep]
    out[found] = s
    return out


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------

class DomainKind(str, Enum):
    BALL = "ball"
    CORE_CUTOFF = "ball_with_core_cutoff"
    ANGULAR_PROFILE = "angular_profile"
    CUSP = "cusp"


class Regime(str, Enum):
    ORIGIN_INTERIOR = "OriginInterior"
    INTERIOR_SPHERE = "InteriorSphere"
    STRICT_INEQUALITY = "StrictInequality"
    ATTAINED = "Attained"
    CUSP_NONATTAINED = "CuspNonattained"
    UNKNOWN = "Unknown"


@dataclass
class GeometryClassification:
    m0: float
    mR: float
    regime: Regime
    m0_table: dict
    mR_table: dict


# The keys of a domain document's params, required and optional, per kind
# and, for the cusp kind, per flavor.
_CUSP_FLAVORS = ("cone", "quadratic", "section5")
_PARAM_KEYS = {
    "ball": ((), ()),
    "ball_with_core_cutoff": (("c",), ()),
    "angular_profile": (("bands",), ()),
    "cone": (("flavor", "a"), ()),
    "quadratic": (("flavor", "beta0"), ()),
    "section5": (("flavor", "a"), ("r0",)),
}


def _check_keys(what: str, doc, required, optional) -> None:
    """Raise `DomainRangeError` unless ``doc`` is a dict holding every key of
    ``required`` and no key outside ``required`` and ``optional``."""
    if not isinstance(doc, dict):
        raise DomainRangeError(f"{what} must be a JSON object, got {doc!r}")
    missing = [k for k in required if k not in doc]
    unknown = sorted(set(doc) - set(required) - set(optional))
    if missing or unknown:
        raise DomainRangeError(
            f"{what}: missing keys {missing}, unknown keys {unknown}")


def _real(what: str, value):
    """``value``, unless it is not a finite real number (a bool, a string or
    null is not): then raise `DomainRangeError`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise DomainRangeError(
            f"{what} must be a finite real number, got {value!r}")
    return value


def _band_table(bands) -> list:
    """The ``bands`` of a domain document as ``(r_lo, r_hi, arcs)`` triples,
    every edge and arc end checked by `_real`."""
    try:
        table = [(lo, hi, [(a0, a1) for a0, a1 in arcs])
                 for lo, hi, arcs in bands]
    except (TypeError, ValueError):
        raise DomainRangeError(
            "bands must be a list of [r_lo, r_hi, [[lo, hi], ...]] triples, "
            f"got {bands!r}") from None
    for lo, hi, arcs in table:
        _real("band edge", lo)
        _real("band edge", hi)
        for end in (e for arc in arcs for e in arc):
            _real("arc end", end)
    return table


class DomainSpec:
    """A bounded planar domain with outer radius ``R = sup |x|``.

    Construct through the classmethods; instances are read-only after
    construction and safe to share across threads.  ``cusp`` holds the
    tip-frame profile of the calibrated cusp and is None on every other
    domain: it is how other modules recognize the calibrated cusp.
    """

    def __init__(self, kind: DomainKind, R: float, contains_origin: bool,
                 params: dict | None = None, cusp: CuspProfile | None = None):
        if not (R > 0):
            raise DomainRangeError(f"R must be positive, got {R}")
        self.kind = kind
        self.R = float(R)
        self.contains_origin = bool(contains_origin)
        self.params = dict(params or {})
        self.cusp = cusp
        if kind is DomainKind.ANGULAR_PROFILE:
            # per band: its radial range and its arc ends, padded with empty
            # arcs (lo == hi == 0); an empty band that holds every radius
            # closes the table
            bands = self.params["bands"] + [(-math.inf, math.inf, [])]
            self._band_r = np.array([(lo, hi) for lo, hi, _ in bands])
            width = max(len(arcs) for *_, arcs in bands) or 1
            self._band_ends = np.zeros((len(bands), width, 2))
            for i, (*_, arcs) in enumerate(bands):
                self._band_ends[i, :len(arcs)] = np.reshape(arcs, (-1, 2))

    # -- constructors -------------------------------------------------------

    @classmethod
    def ball(cls, R: float = 1.0) -> "DomainSpec":
        return cls(DomainKind.BALL, R, contains_origin=True)

    @classmethod
    def ball_with_core_cutoff(cls, c: float, R: float = 1.0) -> "DomainSpec":
        if not (0.0 < c < 1.0):
            raise DomainRangeError(f"core fraction must lie in (0,1), got {c}")
        return cls(DomainKind.CORE_CUTOFF, R, contains_origin=False,
                   params={"c": c})

    @classmethod
    def angular_profile(cls, bands, R: float = 1.0,
                        contains_origin: bool = False) -> "DomainSpec":
        """Domain from a band table: a list of ``(r_lo, r_hi, [(lo, hi), ...])``
        triples with piecewise-constant arcs on ``r_lo <= r < r_hi``.

        A radius takes the arcs of the first band that holds it; a radius in
        no band has an empty slice.
        """
        bands = [(float(lo), float(hi), [list(a) for a in ArcSet(arcs).arcs])
                 for lo, hi, arcs in bands]
        return cls(DomainKind.ANGULAR_PROFILE, R, contains_origin,
                   params={"bands": bands})

    @classmethod
    def half_disk(cls, R: float = 1.0) -> "DomainSpec":
        return cls.angular_profile([(0.0, R, [(0.0, math.pi)])], R)

    @classmethod
    def cone(cls, a: float, R: float = 1.0) -> "DomainSpec":
        """Vertex-at-origin cone: single arc of width pi - 2a at every radius."""
        if not (0.0 < a < math.pi / 2):
            raise DomainRangeError(f"cone angle must lie in (0, pi/2), got {a}")
        return cls(DomainKind.CUSP, R, contains_origin=False,
                   params={"flavor": "cone", "a": a})

    @classmethod
    def quadratic_cusp(cls, beta0: float = 0.5, R: float = 1.0) -> "DomainSpec":
        """Cone of half-width beta0 pinching quadratically at the outer radius.

        The slice width is ``min(2 beta0, ((R-r)/R)^2 * R/r)`` so that
        ``m(r) <= (R - r)^2 / R``; the outer limsup vanishes and the best
        constant is attained.
        """
        if not (0.0 < beta0 < math.pi):
            raise DomainRangeError(f"beta0 must lie in (0, pi), got {beta0}")
        return cls(DomainKind.CUSP, R, contains_origin=False,
                   params={"flavor": "quadratic", "beta0": beta0})

    @classmethod
    def calibrated_cusp(cls, a: float, r0: float | None = None) -> "DomainSpec":
        """Narrowing cusp with tip at (0, 1), calibrated so C_2 equals the
        angular eigenvalue of the limiting cone (strictly above 1/4, not
        attained).  Lives in the unit disk; R = 1."""
        profile = build_cusp_profile(a, r0)
        return cls(DomainKind.CUSP, 1.0, contains_origin=False,
                   params={"flavor": "section5", "a": a, "r0": profile.r0},
                   cusp=profile)

    # -- profile ------------------------------------------------------------

    def _radii(self, r) -> np.ndarray:
        """``r`` as an array, checked to lie strictly inside (0, R)."""
        r = np.asarray(r, dtype=float)
        if not np.all((r > 0.0) & (r < self.R)):
            raise DomainRangeError(f"r must lie in (0, {self.R}), got {r}")
        return r

    def _band(self, r) -> np.ndarray:
        """Index of the first band that holds each radius of ``r``."""
        r = np.asarray(r)[..., None]
        return np.argmax((self._band_r[:, 0] <= r) & (r < self._band_r[:, 1]),
                         axis=-1)

    def half_widths(self, r) -> np.ndarray:
        """Half-width of the slice arc centered on the top direction, per
        radius in ``r`` (strictly inside (0, R)).

        Every kind but the angular profile has one such arc per slice: pi on
        the full slices of the ball and the core cutoff, 0 on empty ones.
        """
        r = self._radii(r)
        if self.kind is DomainKind.BALL:
            return np.full(r.shape, math.pi)
        if self.kind is DomainKind.CORE_CUTOFF:
            return np.where(r > self.params["c"] * self.R, math.pi, 0.0)
        if self.kind is DomainKind.ANGULAR_PROFILE:
            raise DomainRangeError("angular profiles have no centered arc")
        flavor = self.params["flavor"]
        if flavor == "cone":
            return np.full(r.shape, (math.pi - 2.0 * self.params["a"]) / 2.0)
        if flavor == "quadratic":
            return np.minimum(self.params["beta0"],
                              0.5 * ((self.R - r) / self.R) ** 2 * self.R / r)
        return _tip_half_widths(self.cusp, r)

    def slice_arcs(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Ends ``(lo, hi)`` of the slice arcs at the radii ``r``, as `ArcSet`
        stores them, each of shape ``(len(r), k)``; unused entries have
        ``lo == hi``.

        Centered arcs come from one `half_widths` call; one over the cut at 0
        is stored as ``[0, hi - 2 pi)`` and ``[lo, 2 pi)``.  Angular profiles
        look up the band of every radius in one array comparison.
        """
        if self.kind is DomainKind.ANGULAR_PROFILE:
            ends = self._band_ends[self._band(self._radii(r))]
            return ends[..., 0], ends[..., 1]
        s = self.half_widths(r)
        lo = math.pi / 2 - s
        width = (math.pi / 2 + s) - lo
        full = (s >= math.pi) | (width >= TWO_PI)
        lo = np.where(full, 0.0, np.mod(lo, TWO_PI))
        hi = np.where(full, TWO_PI, np.maximum(lo + width, lo))
        wraps = hi > TWO_PI
        return (np.stack([np.where(wraps, 0.0, lo),
                          np.where(wraps, lo, 0.0)], axis=1),
                np.stack([np.where(wraps, hi - TWO_PI, hi),
                          np.where(wraps, TWO_PI, 0.0)], axis=1))

    def profile_arcs(self, r: float) -> ArcSet:
        """Arc set of the slice at radius r (r strictly inside (0, R))."""
        if not (0.0 < r < self.R):
            raise DomainRangeError(f"r must lie in (0, {self.R}), got {r}")
        if self.kind is DomainKind.ANGULAR_PROFILE:
            lo, hi = self._band_ends[int(self._band(r))].T
            return ArcSet(zip(lo.tolist(), hi.tolist()))
        return _centered_arcs(float(self.half_widths(r)))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "R": self.R,
                "contains_origin": self.contains_origin,
                "params": dict(self.params)}

    @classmethod
    def from_json(cls, doc: dict) -> "DomainSpec":
        """Domain of a `to_json` document.

        Raises `DomainRangeError` on an unknown kind or cusp flavor, on a
        missing or unknown key, on a numeric field that is not a finite real
        number or a ``contains_origin`` that is not a bool, and on a
        calibrated cusp with R != 1.
        """
        _check_keys("domain document", doc, ("kind", "R"),
                    ("contains_origin", "params"))
        kind, params = doc["kind"], doc.get("params", {})
        origin = doc.get("contains_origin", False)
        if not isinstance(origin, bool):
            raise DomainRangeError(
                f"contains_origin must be true or false, got {origin!r}")
        kinds = [k.value for k in DomainKind]
        if kind not in kinds:
            raise DomainRangeError(
                f"unknown domain kind {kind!r}; expected one of {kinds}")
        shape = kind
        if kind == DomainKind.CUSP:
            shape = params.get("flavor") if isinstance(params, dict) else None
            if shape not in _CUSP_FLAVORS:
                raise DomainRangeError(f"unknown cusp flavor {shape!r}; "
                                       f"expected one of {_CUSP_FLAVORS}")
        _check_keys(f"{shape} params", params, *_PARAM_KEYS[shape])
        R = float(_real("R", doc["R"]))
        if shape == "ball":
            return cls.ball(R)
        if shape == "ball_with_core_cutoff":
            return cls.ball_with_core_cutoff(_real("c", params["c"]), R)
        if shape == "angular_profile":
            return cls.angular_profile(_band_table(params["bands"]), R,
                                       origin)
        if shape == "cone":
            return cls.cone(_real("a", params["a"]), R)
        if shape == "quadratic":
            return cls.quadratic_cusp(_real("beta0", params["beta0"]), R)
        if R != 1.0:
            raise DomainRangeError(
                f"the calibrated cusp lives in the unit disk: R must be 1, "
                f"got {R}")
        r0 = _real("r0", params["r0"]) if "r0" in params else None
        return cls.calibrated_cusp(_real("a", params["a"]), r0)


# ---------------------------------------------------------------------------
# Slice measures and classification
# ---------------------------------------------------------------------------

def profile_measure(dom: DomainSpec, r):
    """1-D measure of the slice at radius r (a float or an array of radii):
    arc width times r."""
    r = np.asarray(r, dtype=float)
    lo, hi = dom.slice_arcs(r.reshape(-1))
    m = r * (hi - lo).sum(axis=1).reshape(r.shape)
    return weight._float_for_scalars(m, r)


@dataclass
class LimsupReport:
    value: float
    radii: list
    ratios: list


def _tail_limsup(dom: DomainSpec, radii: np.ndarray, scale: np.ndarray,
                 end: str) -> LimsupReport:
    """Sup of ``m(r)/scale`` over the last `_TAIL_WINDOW` of the tail radii."""
    ratios = (profile_measure(dom, radii) / scale).tolist()
    if not all(math.isfinite(v) for v in ratios):
        raise NumericalError(f"profile not evaluable near {end}")
    return LimsupReport(value=max(ratios[-_TAIL_WINDOW:]),
                        radii=radii.tolist(), ratios=ratios)


def limsup_m0(dom: DomainSpec) -> LimsupReport:
    """Numerical limsup of m(r)/r on the geometric tail r_k = R 2^{-k},
    k = 5..20.

    The reported value is the sup over the last 4 grid points (the tail of
    the tail), alongside the full schedule.
    """
    radii = dom.R * 2.0 ** -_TAIL_K
    return _tail_limsup(dom, radii, radii, "0")


def limsup_mR(dom: DomainSpec) -> LimsupReport:
    """Numerical limsup of m(r)/(R - r) on r_k = R (1 - 2^{-k}), k = 5..20,
    over the last 4 grid points.

    Returns ``inf`` when the tail exceeds 1e6.
    """
    radii = dom.R * (1.0 - 2.0 ** -_TAIL_K)
    rep = _tail_limsup(dom, radii, dom.R - radii, "R")
    if rep.value > 1e6:
        rep.value = math.inf
    return rep


def _touches_outer_sphere(dom: DomainSpec) -> bool:
    """Structural interior-sphere test: a common sub-arc persists as r -> R.

    The slices are taken at r_k = R (1 - 2^{-k}), k = 5..12, one arc set at
    a time.  Shrinking arcs (cusps pinching at the outer circle) are rejected
    even while their width is still above threshold: the common-arc measure
    must not decay along the schedule.
    """
    common, measures = FULL_CIRCLE, []
    for k in range(5, 13):
        arcs = dom.profile_arcs(dom.R * (1.0 - 2.0 ** (-k))).arcs
        common = ArcSet([(max(lo1, lo2), min(hi1, hi2))
                         for lo1, hi1 in common.arcs for lo2, hi2 in arcs])
        measures.append(common.measure)
        if common.measure < 1e-6:
            return False
    return bool(measures[-1] >= 0.8 * measures[0])


def classify(dom: DomainSpec) -> GeometryClassification:
    """Regime of the domain per the first matching hypothesis.

    Order: origin interior; the calibrated cusp construction; interior-sphere
    contact with the outer circle; then the slice-limsup regimes, where
    ``m_R <= 1e-3`` counts as a vanishing outer limsup.  The calibrated cusp
    pinches to its tip on the outer circle, so it has no interior-sphere
    contact; it is tested before the limsup rules because it satisfies the
    strict-inequality hypotheses (finite mR) while being non-attained.
    """
    m0_rep = limsup_m0(dom)
    mR_rep = limsup_mR(dom)
    m0, mR = m0_rep.value, mR_rep.value
    tables = {"m0_table": {"radii": m0_rep.radii, "ratios": m0_rep.ratios},
              "mR_table": {"radii": mR_rep.radii, "ratios": mR_rep.ratios}}
    if dom.contains_origin:
        regime = Regime.ORIGIN_INTERIOR
    elif dom.cusp is not None:
        regime = Regime.CUSP_NONATTAINED
    elif _touches_outer_sphere(dom):
        regime = Regime.INTERIOR_SPHERE
    elif m0 < TWO_PI - 1e-9 and mR <= 1e-3:
        regime = Regime.ATTAINED
    elif m0 < TWO_PI - 1e-9 and math.isfinite(mR):
        regime = Regime.STRICT_INEQUALITY
    else:
        regime = Regime.UNKNOWN
    return GeometryClassification(m0=m0, mR=mR, regime=regime, **tables)
