"""Rayleigh quotient evaluation for radial and polar-grid functions.

The quotient is the Dirichlet energy against the weighted mass with the
singular weight from `weight`.  Functions are piecewise linear between
samples, which makes the energy exactly computable per cell and keeps the
lower bound ``ratio >= ((N-1)/N)^N - quad_error`` auditable.

In the logarithmic coordinate ``t = log(R/r)`` the radial quotient is exactly
the classical 1-D Hardy quotient with exponent ``p = N``
(`log_coordinate_transport`), and the scaling transform acts as
``t -> lambda t`` (`hardy_scale`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._errors import DegenerateInputError, DomainRangeError, GridMismatchError
from .domain import DomainSpec
from .oned import _cell_gauss, _simpson_gap
from .weight import WeightParams, log_R_over, weight_eval


def sphere_area(N: int) -> float:
    """Surface measure of the (N-1)-dimensional unit sphere."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


# ---------------------------------------------------------------------------
# Reports and function containers
# ---------------------------------------------------------------------------

@dataclass
class QuotientReport:
    dirichlet_energy: float
    weighted_mass: float
    ratio: float
    quad_error_estimate: float
    radial_energy: float | None = None
    angular_energy: float | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class RadialFunction:
    """Radial profile sampled on a strictly increasing grid inside (0, R).

    The outer sample must vanish (the function is extended by zero beyond
    the grid).  ``constant_core`` extends the profile by its innermost value
    down to r = 0 with zero slope (boundary-layer families equal a constant
    near the origin); otherwise the inner sample must vanish as well.
    """

    r: np.ndarray
    values: np.ndarray
    N: int = 2
    constant_core: bool = False

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.r.ndim != 1 or self.r.shape != self.values.shape or self.r.size < 2:
            raise DomainRangeError("r and values must be matching 1-D arrays")
        if np.any(np.diff(self.r) <= 0) or self.r[0] <= 0:
            raise DomainRangeError("grid must be strictly increasing inside (0, R)")
        if not np.all(np.isfinite(self.values)):
            raise DomainRangeError("values must be finite")
        if self.values[-1] != 0.0:
            raise DomainRangeError("the outer value must vanish")
        if not self.constant_core and self.values[0] != 0.0:
            raise DomainRangeError("the inner value must vanish (or constant_core)")


@dataclass
class LogProfile:
    """A radial profile transported to the coordinate t = log(R/r)."""

    t: np.ndarray
    values: np.ndarray
    N: int = 2


# ---------------------------------------------------------------------------
# Radial quotient
# ---------------------------------------------------------------------------

def _radial_mass_terms(u: RadialFunction, p: WeightParams):
    """Per-cell weighted-mass integrals in the log coordinate, plus error est.

    Mass cell integrand is (|u|/t)^N dt after substitution; 8-point Gauss per
    cell.  All cell geometry is expressed through expm1 of log-coordinate
    differences so that grids graded to the float floor at either end stay
    finite.  The error estimate is |Simpson - trapezoid| on the same cells.
    """
    t_nodes = log_R_over(p, u.r)  # decreasing in r
    lo_t, hi_t = t_nodes[1:], t_nodes[:-1]
    v0, v1 = u.values[:-1], u.values[1:]  # v0 at larger t (smaller r)
    dv = v1 - v0
    denom = np.expm1(hi_t - lo_t)  # (r1 - r0) / r0

    def vals_at(t):
        # piecewise-linear in r: fraction (r(t) - r0)/(r1 - r0), stably
        frac = np.expm1(hi_t[:, None] - t) / denom[:, None]
        vv = v0[:, None] + dv[:, None] * frac
        return (np.abs(vv) / t) ** p.N

    mass = _cell_gauss(lo_t, hi_t, 8, vals_at)

    # at t = 0 (grid reaching r = R with zero value) the integrand limit is
    # (|u'(R)| * R)^N = (|dv| / expm1(dt))^N
    f_lo = np.where(lo_t > 0.0,
                    (np.abs(v1) / np.where(lo_t > 0.0, lo_t, 1.0)) ** p.N,
                    (np.abs(dv) / denom) ** p.N)
    f_hi = (np.abs(v0) / hi_t) ** p.N
    f_mid = vals_at(0.5 * (lo_t + hi_t)[:, None])[:, 0]
    err = _simpson_gap(f_lo, f_mid, f_hi, hi_t - lo_t)

    if u.constant_core:
        t_core = t_nodes[0]  # largest t on the grid
        mass += abs(u.values[0]) ** p.N * t_core ** (1 - p.N) / (p.N - 1)
    return mass, err


def quotient_radial(u: RadialFunction, p: WeightParams) -> QuotientReport:
    """Rayleigh quotient of a radial piecewise-linear profile.

    Energy ``omega_{N-1} int |u'|^N r^{N-1} dr`` is exact per cell; the mass
    uses Gauss panels in the log coordinate.
    """
    if u.N != p.N:
        raise GridMismatchError(f"function N={u.N} disagrees with weight N={p.N}")
    if u.r[-1] > p.R:
        raise DomainRangeError("grid must stay inside (0, R]")
    omega = sphere_area(p.N)
    # exact cell energy |du|^N (r1^N - r0^N) / (N dr^N); the radius-dependent
    # factor equals expm1(N dt)-over-expm1(dt)^N of the log-coordinate step,
    # which stays finite on grids graded to the float floor
    dt = np.diff(log_R_over(p, u.r)[::-1])  # positive steps, in r-order reversed
    factor = (-np.expm1(-p.N * dt)) / (p.N * (-np.expm1(-dt)) ** p.N)
    cell_en = np.abs(np.diff(u.values[::-1])) ** p.N * factor
    energy = omega * float(np.sum(cell_en))
    mass, err = _radial_mass_terms(u, p)
    mass *= omega
    err *= omega
    if mass <= 0.0 or not math.isfinite(mass):
        raise DegenerateInputError("weighted mass vanishes")
    return QuotientReport(dirichlet_energy=energy, weighted_mass=mass,
                          ratio=energy / mass, quad_error_estimate=err)


def hardy_scale(u: RadialFunction, lam: float, p: WeightParams) -> RadialFunction:
    """Apply the quotient-invariant scaling with parameter ``lam > 0``.

    In the log coordinate the transform is ``v(t) -> lam^{-(N-1)/N} v(lam t)``;
    on the radial grid this maps the nodes to ``R (r/R)^{1/lam}`` and rescales
    the values, so no interpolation is involved.  Mapped nodes that underflow
    to 0, do not exceed the node below or lie beyond R would change the
    quotient; then `DomainRangeError` names ``lam`` and the number of such
    nodes.
    """
    if lam <= 0:
        raise DomainRangeError(f"lambda must be positive, got {lam}")
    new_r = p.R * (u.r / p.R) ** (1.0 / lam)
    collapsed = (np.concatenate([[new_r[0] <= 0.0], np.diff(new_r) <= 0])
                 | (new_r > p.R))
    if collapsed.any():
        raise DomainRangeError(
            f"hardy_scale at lam={lam!r} collapses {int(collapsed.sum())} of "
            f"{new_r.size} nodes (underflow, collision or beyond R)")
    new_vals = lam ** (-(p.N - 1.0) / p.N) * u.values
    return replace(u, r=new_r, values=new_vals)


def log_coordinate_transport(u: RadialFunction, p: WeightParams) -> LogProfile:
    """Transport to v(t) = u(R e^{-t}); the 1-D Hardy quotient of v with
    exponent N equals the radial quotient exactly (both sides up to quadrature).
    """
    if u.constant_core:
        raise DomainRangeError("transport requires compact support (no constant core)")
    t = log_R_over(p, u.r)[::-1]
    return LogProfile(t=t, values=u.values[::-1].copy(), N=p.N)


# ---------------------------------------------------------------------------
# Polar-grid functions
# ---------------------------------------------------------------------------

@dataclass
class PolarGridFunction:
    """Scalar field on a polar grid: radii x uniform full-circle angles.

    Values are forced to zero outside the domain's arcs.  The angular grid is
    cyclic with spacing 2 pi / ntheta.
    """

    r: np.ndarray
    theta: np.ndarray
    values: np.ndarray
    domain: DomainSpec
    mask: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        nr, nt = self.r.size, self.theta.size
        if self.values.shape != (nr, nt):
            raise GridMismatchError(
                f"values shape {self.values.shape} != ({nr}, {nt})")
        if np.any(np.diff(self.r) <= 0) or self.r[0] <= 0 or self.r[-1] >= self.domain.R:
            raise DomainRangeError("radii must increase strictly inside (0, R)")
        # np.allclose's test at rtol = atol = 1e-12 against the finite step,
        # NaN and inf steps refused alike, without its array handling
        if nt < 4 or not np.all(np.abs(np.diff(self.theta) - 2 * math.pi / nt)
                                <= 1e-12 + 1e-12 * (2 * math.pi / nt)):
            raise DomainRangeError("theta must be a uniform full-circle grid")
        if self.mask is None:
            lo, hi = self.domain.slice_arcs(self.r)
            th = self.theta
            self.mask = ((th >= lo[..., None]) & (th < hi[..., None])).any(axis=1)
        self.values = np.where(self.mask, self.values, 0.0)

    @classmethod
    def sample(cls, dom: DomainSpec, f, nr: int = 128, ntheta: int = 256
               ) -> "PolarGridFunction":
        """Sample ``f(r, theta)`` on a fresh grid over the domain: ``nr``
        radii from ``R/1000`` to ``R (1 - 1/1000)``, ``ntheta`` angles."""
        r = np.linspace(dom.R * 1e-3, dom.R * (1 - 1e-3), nr)
        theta = np.arange(ntheta) * (2 * math.pi / ntheta)
        vals = np.asarray(f(r[:, None], theta[None, :]), dtype=float)
        vals = np.broadcast_to(vals, (nr, ntheta)).copy()
        return cls(r=r, theta=theta, values=vals, domain=dom)


def _polar_weights(u: PolarGridFunction):
    dr = np.diff(u.r)
    w_r = np.empty_like(u.r)
    w_r[0] = dr[0] / 2
    w_r[-1] = dr[-1] / 2
    w_r[1:-1] = (dr[:-1] + dr[1:]) / 2
    dth = 2 * math.pi / u.theta.size
    return dr, w_r, dth


def quotient_polar(u: PolarGridFunction, p: WeightParams) -> QuotientReport:
    """Rayleigh quotient of a polar-grid function (N = 2 only).

    Energy is the edge-based finite-difference form
    ``sum (du/dr)^2 r dA + sum (du/dtheta)^2 / r^2 dA`` (the function is
    extended by zero outside the domain arcs, so wall edges contribute);
    the mass is node-lumped, which keeps it exactly invariant under
    per-row equimeasurable rearrangement.  ``quad_error_estimate`` is the
    gap between the mass trapezoid over every row and over every other row
    (first and last rows kept); it bounds the row quadrature only, not the
    angular sum.
    """
    if p.N != 2:
        raise DomainRangeError("polar quotient is implemented for N = 2")
    if u.r[-1] >= p.R:
        raise DomainRangeError("grid must stay strictly inside (0, R)")
    vals = u.values
    dr, w_r, dth = _polar_weights(u)
    r_mid = 0.5 * (u.r[:-1] + u.r[1:])
    # radial edges: (du/dr)^2 * r_mid * dr * dtheta, summed over all columns
    dval_r = np.diff(vals, axis=0)
    rad_energy = float(np.sum((dval_r**2).sum(axis=1) / dr * r_mid) * dth)
    # angular edges (cyclic): (du/(r dtheta))^2 * r * dtheta * w_r
    dval_t = np.roll(vals, -1, axis=1) - vals
    ang_energy = float(np.sum((dval_t**2).sum(axis=1) * w_r / (u.r * dth)))
    # node-lumped weighted mass: the trapezoid over the rows
    f_rows = (vals**2).sum(axis=1) * weight_eval(p, u.r) * u.r
    mass = float(np.sum(f_rows * w_r) * dth)
    # error estimate: the same trapezoid over every other row, end rows kept
    keep = np.minimum(np.arange(0, u.r.size + 1, 2), u.r.size - 1)
    f_keep = f_rows[keep]
    coarse = float(np.sum((f_keep[:-1] + f_keep[1:]) / 2
                          * np.diff(u.r[keep])) * dth)
    err = abs(mass - coarse)
    if mass <= 0.0 or not math.isfinite(mass):
        raise DegenerateInputError("weighted mass vanishes")
    energy = rad_energy + ang_energy
    return QuotientReport(dirichlet_energy=energy, weighted_mass=mass,
                          ratio=energy / mass, quad_error_estimate=err,
                          radial_energy=rad_energy, angular_energy=ang_energy)
