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
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._errors import DomainRangeError, NumericalError
from . import oned, weight

TWO_PI = 2.0 * math.pi


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


# ---------------------------------------------------------------------------
# Calibrated cusp profile
# ---------------------------------------------------------------------------

@dataclass
class CuspProfile:
    """Tip-frame data of the calibrated cusp: limit angle, extent, calibration.

    ``a_of_r(rho)`` is the opening half-angle at tip distance ``rho``; it solves
    ``angular_eigenvalue(a_of_r) * g(rho) = angular_eigenvalue(a)`` where ``g``
    is the slice infimum of the shifted weight ratio (`weight.cusp_ratio_infimum`).
    """

    a: float
    r0: float
    eigenvalue: float
    rho_table: np.ndarray
    g_table: np.ndarray
    a_table: np.ndarray
    _g_interp: PchipInterpolator = field(repr=False, default=None)
    _a_interp: PchipInterpolator = field(repr=False, default=None)

    def __post_init__(self):
        self._g_interp = PchipInterpolator(self.rho_table, self.g_table)
        self._a_interp = PchipInterpolator(self.rho_table, self.a_table)

    def g(self, rho: float) -> float:
        if rho <= self.rho_table[0]:
            return float(self.g_table[0])
        if rho > self.r0:
            raise DomainRangeError(f"rho={rho} beyond profile extent {self.r0}")
        return float(self._g_interp(rho))

    def a_of_r(self, rho: float) -> float:
        if rho <= self.rho_table[0]:
            return self.a
        if rho > self.r0 * (1 + 1e-12):
            raise DomainRangeError(f"rho={rho} beyond profile extent {self.r0}")
        return min(float(self._a_interp(min(rho, self.r0))), math.pi / 2 - 1e-12)

    def min_g(self, delta: float) -> float:
        """Infimum of g over (0, delta], using the table plus the limit 1 at 0."""
        sel = self.g_table[self.rho_table <= delta]
        vals = [self.g(delta)] + list(sel)
        return float(min(vals))

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


@lru_cache(maxsize=16)
def build_cusp_profile(a: float, r0: float | None = None, n_table: int = 96,
                       grid_size: int = 512) -> CuspProfile:
    """Construct the calibrated cusp profile for limit angle ``a``.

    ``r0`` defaults to the scanned radius below which the weight-ratio infimum
    stays below 1.  The half-angle table is obtained by inverting the angular
    eigenvalue at each tip distance (`oned.invert_angular_eigenvalue`, a
    bracketed secant).  The rows are solved in order of increasing target
    ``E(a) / g``, each bracketed from below by the previous root, since E is
    non-decreasing in the angle.
    """
    if not (math.pi / 4 < a < math.pi / 2):
        raise DomainRangeError(f"limit angle must lie in (pi/4, pi/2), got {a}")
    if r0 is None:
        r0 = weight.cusp_flat_radius(a, scan_step=1e-2)
    e_a = oned.angular_eigenvalue(a, grid_size)
    rho = np.geomspace(1e-7, r0, n_table)
    rho[-1] = r0
    g_vals = np.array([weight.cusp_ratio_infimum(float(p), a) for p in rho])
    if np.any(g_vals >= 1.0):
        bad = rho[np.argmax(g_vals >= 1.0)]
        raise NumericalError(f"weight ratio not below 1 at rho={bad}")
    targets = e_a / g_vals
    a_vals = np.empty_like(rho)
    a_lo = a
    for i in np.argsort(targets, kind="stable"):
        a_lo = a_vals[i] = oned.invert_angular_eigenvalue(
            targets[i], a_lo, grid_size=grid_size)
    return CuspProfile(a=a, r0=float(r0), eigenvalue=e_a, rho_table=rho,
                       g_table=g_vals, a_table=a_vals)


def tip_to_xy(rho, theta):
    """Map tip-frame polar coordinates (about the point (0, 1)) to the plane."""
    return rho * np.cos(theta), 1.0 - rho * np.sin(theta)


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


class DomainSpec:
    """A bounded planar domain with outer radius ``R = sup |x|``.

    Construct through the classmethods; instances are read-only after
    construction and safe to share across threads.
    """

    def __init__(self, kind: DomainKind, R: float, contains_origin: bool,
                 params: dict | None = None,
                 profile_fn: Callable[[float], ArcSet] | None = None,
                 cusp: CuspProfile | None = None):
        if not (R > 0):
            raise DomainRangeError(f"R must be positive, got {R}")
        self.kind = kind
        self.R = float(R)
        self.contains_origin = bool(contains_origin)
        self.params = dict(params or {})
        self._profile_fn = profile_fn
        self.cusp = cusp

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
    def angular_profile(cls, profile, R: float = 1.0,
                        contains_origin: bool = False) -> "DomainSpec":
        """Domain from ``r -> ArcSet`` (callable) or a band table.

        A band table is a list of ``(r_lo, r_hi, [(lo, hi), ...])`` triples with
        piecewise-constant arcs; only band tables serialize.
        """
        if callable(profile):
            return cls(DomainKind.ANGULAR_PROFILE, R, contains_origin,
                       profile_fn=profile)
        bands = [(float(lo), float(hi), ArcSet(arcs)) for lo, hi, arcs in profile]
        params = {"bands": [(lo, hi, [list(arc) for arc in aset.arcs])
                            for lo, hi, aset in bands]}

        def fn(r: float) -> ArcSet:
            for lo, hi, aset in bands:
                if lo <= r < hi:
                    return aset
            return EMPTY_ARCS

        return cls(DomainKind.ANGULAR_PROFILE, R, contains_origin,
                   params=params, profile_fn=fn)

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

    def _cusp_half_width(self, r: float) -> float:
        """Half-width of the centered arc at radius r for cusp flavors."""
        flavor = self.params["flavor"]
        if flavor == "cone":
            return (math.pi - 2.0 * self.params["a"]) / 2.0
        if flavor == "quadratic":
            beta0 = self.params["beta0"]
            return min(beta0, 0.5 * ((self.R - r) / self.R) ** 2 * self.R / r)
        # calibrated tip cusp: exact shifted-frame membership, bisected in the
        # angular offset from the top direction
        prof = self.cusp
        rho_top = 1.0 - r
        if not (0.0 < rho_top < prof.r0):
            return 0.0

        def inside(s: float) -> bool:
            h = r * r - 2.0 * r * math.cos(s) + 1.0
            rho = math.sqrt(h)
            if rho >= prof.r0:
                return False
            ang = math.atan2(1.0 - r * math.cos(s), r * math.sin(s))
            return ang > prof.a_of_r(rho)

        lo, hi = 0.0, math.pi
        if not inside(lo):
            return 0.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if inside(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def profile_arcs(self, r: float) -> ArcSet:
        """Arc set of the slice at radius r (r strictly inside (0, R))."""
        if not (0.0 < r < self.R):
            raise DomainRangeError(f"r must lie in (0, {self.R}), got {r}")
        if self.kind is DomainKind.BALL:
            return FULL_CIRCLE
        if self.kind is DomainKind.CORE_CUTOFF:
            return FULL_CIRCLE if r > self.params["c"] * self.R else EMPTY_ARCS
        if self.kind is DomainKind.ANGULAR_PROFILE:
            arcs = self._profile_fn(r)
            if not isinstance(arcs, ArcSet):
                arcs = ArcSet(arcs)
            return arcs
        s = self._cusp_half_width(r)
        if s <= 0.0:
            return EMPTY_ARCS
        if s >= math.pi:
            return FULL_CIRCLE
        return ArcSet([(math.pi / 2 - s, math.pi / 2 + s)])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind is DomainKind.ANGULAR_PROFILE and "bands" not in self.params:
            raise DomainRangeError("callable angular profiles do not serialize")
        params = {k: v for k, v in self.params.items()}
        return {"kind": self.kind.value, "R": self.R,
                "contains_origin": self.contains_origin, "params": params}

    @classmethod
    def from_json(cls, doc: dict) -> "DomainSpec":
        kind = DomainKind(doc["kind"])
        R = float(doc["R"])
        params = doc.get("params", {})
        if kind is DomainKind.BALL:
            return cls.ball(R)
        if kind is DomainKind.CORE_CUTOFF:
            return cls.ball_with_core_cutoff(params["c"], R)
        if kind is DomainKind.ANGULAR_PROFILE:
            bands = [(lo, hi, arcs) for lo, hi, arcs in params["bands"]]
            return cls.angular_profile(bands, R,
                                       doc.get("contains_origin", False))
        flavor = params["flavor"]
        if flavor == "cone":
            return cls.cone(params["a"], R)
        if flavor == "quadratic":
            return cls.quadratic_cusp(params["beta0"], R)
        return cls.calibrated_cusp(params["a"], params.get("r0"))


# ---------------------------------------------------------------------------
# Slice measures and classification
# ---------------------------------------------------------------------------

def profile_measure(dom: DomainSpec, r: float) -> float:
    """1-D measure of the slice at radius r: arc width times r."""
    return r * dom.profile_arcs(r).measure


@dataclass
class LimsupReport:
    value: float
    radii: list
    ratios: list
    window: int

    def __float__(self) -> float:
        return self.value


def limsup_m0(dom: DomainSpec, k_min: int = 5, k_max: int = 20,
              window: int = 4) -> LimsupReport:
    """Numerical limsup of m(r)/r on the geometric tail r_k = R 2^{-k}.

    The reported value is the sup over the last ``window`` grid points (the
    tail of the tail), alongside the full schedule.
    """
    radii = [dom.R * 2.0 ** (-k) for k in range(k_min, k_max + 1)]
    ratios = [profile_measure(dom, r) / r for r in radii]
    if not all(math.isfinite(v) for v in ratios):
        raise NumericalError("profile not evaluable near 0")
    value = max(ratios[-window:])
    return LimsupReport(value=value, radii=radii, ratios=ratios, window=window)


def limsup_mR(dom: DomainSpec, k_min: int = 5, k_max: int = 20,
              window: int = 4, cap: float = 1e6) -> LimsupReport:
    """Numerical limsup of m(r)/(R - r) on r_k = R (1 - 2^{-k}).

    Returns ``inf`` when the tail exceeds the configured cap.
    """
    radii = [dom.R * (1.0 - 2.0 ** (-k)) for k in range(k_min, k_max + 1)]
    ratios = [profile_measure(dom, r) / (dom.R - r) for r in radii]
    if not all(math.isfinite(v) for v in ratios):
        raise NumericalError("profile not evaluable near R")
    value = max(ratios[-window:])
    if value > cap:
        value = math.inf
    return LimsupReport(value=value, radii=radii, ratios=ratios, window=window)


def _touches_outer_sphere(dom: DomainSpec, k_range=range(5, 13)) -> bool:
    """Structural interior-sphere test: a common sub-arc persists as r -> R.

    Shrinking arcs (cusps pinching at the outer circle) are rejected even while
    their width is still above threshold: the common-arc measure must not decay
    along the schedule.
    """
    if dom.kind in (DomainKind.BALL, DomainKind.CORE_CUTOFF):
        return True
    common: ArcSet | None = None
    measures = []
    for k in k_range:
        arcs = dom.profile_arcs(dom.R * (1.0 - 2.0 ** (-k)))
        if not arcs:
            return False
        if common is None:
            common = arcs
        else:
            merged = []
            for lo1, hi1 in common.arcs:
                for lo2, hi2 in arcs.arcs:
                    lo, hi = max(lo1, lo2), min(hi1, hi2)
                    if hi > lo:
                        merged.append((lo, hi))
            common = ArcSet(merged)
        measures.append(common.measure)
        if common.measure < 1e-6:
            return False
    return measures[-1] >= 0.8 * measures[0]


def classify(dom: DomainSpec, mR_zero_tol: float = 1e-3) -> GeometryClassification:
    """Regime of the domain per the first matching hypothesis.

    Order: origin interior; interior-sphere contact with the outer circle;
    the calibrated cusp construction; then the slice-limsup regimes.  The
    calibrated cusp is tested before the limsup rules because it satisfies the
    strict-inequality hypotheses (finite mR) while being non-attained.
    """
    m0_rep = limsup_m0(dom)
    mR_rep = limsup_mR(dom)
    m0, mR = m0_rep.value, mR_rep.value
    tables = {"m0_table": {"radii": m0_rep.radii, "ratios": m0_rep.ratios},
              "mR_table": {"radii": mR_rep.radii, "ratios": mR_rep.ratios}}
    if dom.contains_origin:
        regime = Regime.ORIGIN_INTERIOR
    elif _touches_outer_sphere(dom):
        regime = Regime.INTERIOR_SPHERE
    elif dom.kind is DomainKind.CUSP and dom.params.get("flavor") == "section5":
        regime = Regime.CUSP_NONATTAINED
    elif m0 < TWO_PI - 1e-9 and mR <= mR_zero_tol:
        regime = Regime.ATTAINED
    elif m0 < TWO_PI - 1e-9 and math.isfinite(mR):
        regime = Regime.STRICT_INEQUALITY
    else:
        regime = Regime.UNKNOWN
    return GeometryClassification(m0=m0, mR=mR, regime=regime, **tables)
