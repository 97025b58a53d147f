"""Explicit test-function families and their quotients.

Each family realizes one upper-bound construction for the best constant:

* `phi_alpha_quotient` -- origin-concentrating log powers (domains containing
  the origin); quotients tend to ``((N-1)/N)^N`` as ``alpha`` increases to
  ``(N-1)/N``.
* `psi_beta_quotient` -- boundary-concentrating log powers on the ball;
  quotients tend to the same limit as ``beta`` decreases to ``(N-1)/N``.
* `halfspace_quotient` -- profiles transplanted from the half-space Hardy
  problem to a boundary contact point (interior-sphere geometry).
* `cusp_upper_bound` -- separated profiles concentrating at the tip of the
  calibrated cusp; certified against the angular eigenvalue.

Integrals with closed forms are evaluated in closed form; everything else
uses Gauss panels.  ``quad_error_estimate`` is |Simpson - trapezoid| over
the bridge panels of `phi_alpha_quotient` and the gap between closed form and
panels in `psi_beta_quotient`; in `halfspace_quotient` and `cusp_upper_bound`
it measures no quadrature (their docstrings say what it is).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._errors import ConstructionError, DomainRangeError, NumericalError
from . import oned
from .domain import DomainSpec, DomainKind, _count
from .oned import _cell_gauss, _simpson_gap
from .quotient import QuotientReport, sphere_area
from .weight import WeightParams, _dimension, weight_eval


# ---------------------------------------------------------------------------
# Origin-concentrating family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiAlphaParams:
    """Log-power family concentrating at the origin.

    The profile is ``(log R/r)^alpha`` inside the half core ball ``r <= cR/2``,
    a linear-in-r bridge down to zero on ``[cR/2, cR]``, and zero outside; the
    caller must ensure the core ball ``B_{cR}`` lies inside the domain.
    """

    alpha: float
    c: float = 0.5
    R: float = 1.0
    N: int = 2

    def __post_init__(self):
        _dimension(self.N)
        if not (0.0 < self.alpha < (self.N - 1.0) / self.N):
            raise DomainRangeError(
                f"alpha must lie in (0, {(self.N - 1) / self.N}), got {self.alpha}")
        if not (0.0 < self.c < 1.0):
            raise DomainRangeError(f"core fraction must lie in (0,1), got {self.c}")


def phi_alpha_quotient(p: PhiAlphaParams) -> QuotientReport:
    """Quotient of the origin family; core integrals in closed form.

    In the log coordinate the core contributes ``alpha^N K`` (energy) and
    ``K`` (mass) with the same divergent factor K, so the main-term ratio is
    exactly ``alpha^N``; the bridge adds the O(1) corrections.
    """
    N, R, c, alpha = p.N, p.R, p.c, p.alpha
    omega = sphere_area(N)
    wp = WeightParams(R=R, N=N)
    t1 = math.log(2.0 / c)  # log coordinate of r = cR/2
    m1 = N * (alpha - 1.0) + 1.0  # < 0
    k_core = t1**m1 / (-m1)
    energy_core = omega * alpha**N * k_core
    mass_core = omega * k_core

    # bridge r in [cR/2, cR]: u = (log 2/c)^alpha * (2 - 2r/(cR))
    amp = t1**alpha
    slope = 2.0 / (c * R)
    r_lo, r_hi = c * R / 2.0, c * R
    energy_bridge = omega * amp**N * slope**N * (r_hi**N - r_lo**N) / N

    def bridge_mass(r):
        u = amp * (2.0 - 2.0 * r / (c * R))
        return np.abs(u) ** N * weight_eval(wp, r) * r ** (N - 1)

    edges = np.linspace(r_lo, r_hi, 33)
    lo, hi = edges[:-1], edges[1:]
    mass_bridge = omega * _cell_gauss(lo, hi, 16, bridge_mass)
    err = omega * _simpson_gap(bridge_mass(lo), bridge_mass(0.5 * (lo + hi)),
                               bridge_mass(hi), hi - lo)

    energy = energy_core + energy_bridge
    mass = mass_core + mass_bridge
    return QuotientReport(
        dirichlet_energy=energy, weighted_mass=mass, ratio=energy / mass,
        quad_error_estimate=err,
        extras={"main_term_ratio": alpha**N, "energy_core": energy_core,
                "mass_core": mass_core})


def phi_alpha_schedule(ks=range(3, 11), c: float = 0.5, R: float = 1.0,
                       N: int = 2) -> list[tuple[float, float, float]]:
    """(alpha, ratio, error) along alpha = (N-1)/N - 2^{-k}."""
    _dimension(N)
    rows = []
    for k in ks:
        alpha = (N - 1.0) / N - 2.0 ** (-k)
        rep = phi_alpha_quotient(PhiAlphaParams(alpha=alpha, c=c, R=R, N=N))
        rows.append((alpha, rep.ratio, rep.quad_error_estimate))
    return rows


# ---------------------------------------------------------------------------
# Boundary-concentrating family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiBetaParams:
    """Log-power family concentrating at the outer boundary of the ball.

    The profile equals 1 inside ``r <= R/e`` and ``(log R/r)^beta`` outside;
    ``beta > (N-1)/N`` makes the weighted mass finite.  In ``t = log(R/r)``
    the quotient is the same on every ball, so ``R`` is no parameter.
    """

    beta: float
    N: int = 2

    def __post_init__(self):
        _dimension(self.N)
        if self.beta <= (self.N - 1.0) / self.N:
            raise DomainRangeError(
                f"beta must exceed {(self.N - 1) / self.N}, got {self.beta}")


def psi_beta_closed_form(p: PsiBetaParams) -> float:
    """Exact quotient: beta^{N-1} (N-1) / N."""
    return p.beta ** (p.N - 1) * (p.N - 1.0) / p.N


def psi_beta_quotient(p: PsiBetaParams) -> QuotientReport:
    """Quotient of the boundary family; integrals in closed form.

    All pieces are power-rule integrals in the log coordinate: energy
    ``beta^N/(N(beta-1)+1)`` on (0, 1), the same without ``beta^N`` for the
    mass, plus the constant-part tail ``1/(N-1)``.  A Gauss-panel evaluation
    of the same quantities (600 panels, geometric from 1e-12) is recorded as
    the cross-check; near the borderline exponent most of the integral hides
    below any representable grid, and the gap between the two is reported as
    the quadrature error estimate.
    """
    N, beta = p.N, p.beta
    omega = sphere_area(N)
    m1 = N * (beta - 1.0) + 1.0  # > 0
    energy = omega * beta**N / m1
    mass = omega * (1.0 / m1 + 1.0 / (N - 1.0))
    edges = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 600)])

    def energy_f(t):
        return (beta * t ** (beta - 1.0) * (t > 0)) ** N

    def mass_f(t):
        return np.where(t > 0, t ** (N * (beta - 1.0)), 0.0)

    lo, hi = edges[:-1], edges[1:]
    q_energy = omega * _cell_gauss(lo, hi, 16, energy_f)
    q_mass = omega * (_cell_gauss(lo, hi, 16, mass_f) + 1.0 / (N - 1.0))
    err = abs(q_energy / q_mass - energy / mass)
    return QuotientReport(
        dirichlet_energy=energy, weighted_mass=mass, ratio=energy / mass,
        quad_error_estimate=err,
        extras={"closed_form": psi_beta_closed_form(p),
                "quadrature_ratio": q_energy / q_mass})


def psi_beta_schedule(ks=range(3, 11), N: int = 2
                      ) -> list[tuple[float, float, float]]:
    """(beta, ratio, error) along beta = (N-1)/N + 2^{-k}."""
    _dimension(N)
    rows = []
    for k in ks:
        beta = (N - 1.0) / N + 2.0 ** (-k)
        rep = psi_beta_quotient(PsiBetaParams(beta=beta, N=N))
        rows.append((beta, rep.ratio, rep.quad_error_estimate))
    return rows


# ---------------------------------------------------------------------------
# Half-space family at a boundary contact point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfSpaceProfileDefault:
    """Compactly supported half-space profile with finite Hardy mass.

    ``v(y1, y2) = y2^q (1 - y2/B)_+ (1 - y1^2/(A y2))_+``; the exponent
    ``q > 1/2`` keeps ``int (v/y2)^2`` finite.  ``A``, ``B`` and ``q`` are
    class constants, not fields, so the support that `halfspace_quotient`
    integrates over is the profile's own, and every instance is one entry
    of the half-space sums' cache.
    """

    A, B, q = 1.0, 1.0, 0.6

    def value(self, y1, y2):
        s = y1 * y1 / (self.A * y2)
        return y2**self.q * np.clip(1 - y2 / self.B, 0, None) * np.clip(1 - s, 0, None)

    def grad(self, y1, y2):
        s = y1 * y1 / (self.A * y2)
        inside = (s < 1) & (y2 < self.B)
        f = y2**self.q * (1 - y2 / self.B)
        fp = self.q * y2 ** (self.q - 1) * (1 - y2 / self.B) - y2**self.q / self.B
        g1 = np.where(inside, -f * 2 * y1 / (self.A * y2), 0.0)
        g2 = np.where(inside, fp * (1 - s) + f * s / y2, 0.0)
        return g1, g2


@dataclass(frozen=True)
class HalfSpaceFamilyParams:
    """Shrink index l of the contact family."""

    l: int = 8

    def __post_init__(self):
        _count("l", self.l)


def _halfspace_grid(profile):
    """Gauss nodes/weights over the profile's parabolic support
    {y1^2 < A y2, y2 < B}: 160 geometric panels in y2, one 16-point panel
    across each y2 row.  ``y1`` and ``w`` have one row per y2 node; ``y2``
    is a ``(rows, 1)`` column."""
    A, B = profile.A, profile.B
    edges = np.concatenate([[0.0], np.geomspace(B * 1e-8, B, 160)])
    y2, w2 = _cell_gauss(edges[:-1], edges[1:], 8)
    y2, w2 = y2.reshape(-1, 1), w2.reshape(-1, 1)
    width = np.sqrt(A * y2[:, 0])
    y1, w1 = _cell_gauss(-width, width, 16)
    return y1, y2, w2 * w1


@lru_cache(maxsize=4)
def _halfspace_sums(profile):
    """The part of the contact family that does not depend on ``l``: the
    grid ``(y1, y2, w)``, ``v * v``, the half-space energy and the Hardy
    mass ``int (v/y2)^2``.  Computed once per profile; the arrays are
    read-only."""
    y1, y2, w = _halfspace_grid(profile)
    g1, g2 = profile.grad(y1, y2)
    v = profile.value(y1, y2)
    energy = float(np.sum((g1 * g1 + g2 * g2) * w))
    half_mass = float(np.sum((v / y2) ** 2 * w))
    vv = v * v
    for arr in (y1, y2, w, vv):
        arr.flags.writeable = False
    return y1, y2, w, vv, energy, half_mass


def halfspace_quotient(profile, params: HalfSpaceFamilyParams,
                       dom: DomainSpec) -> QuotientReport:
    """Quotient of the transplanted profile ``u(x) = v(l (x + R e_2))``.

    The contact point is fixed at the bottom pole of the outer circle.  The
    Dirichlet energy is conformally invariant under the shrink, so it equals
    the half-space energy exactly; the weighted mass is evaluated on the
    profile grid through the exact weight.  The profile (None for
    `HalfSpaceProfileDefault`) carries its support constants ``A`` and ``B``
    and must be hashable: its grid sums are cached (`_halfspace_sums`), so a
    schedule over ``l`` evaluates only the transplanted mass per step.
    ``quad_error_estimate`` is 1% of the gap between the transplanted and
    the half-space Hardy mass: a modelling gap, not a quadrature error.
    """
    if profile is None:
        profile = HalfSpaceProfileDefault()
    if dom.kind is not DomainKind.BALL:
        raise DomainRangeError("contact family is built on the ball")
    R, l = dom.R, params.l
    if profile.A + profile.B >= 2.0 * R * l:
        raise ConstructionError(
            f"support escapes the domain: need l > (A+B)/(2R), got l={l}")
    y1, y2, w, vv, energy, half_mass = _halfspace_sums(profile)

    x_norm = np.sqrt((y1 / l) ** 2 + (R - y2 / l) ** 2)
    if np.any(x_norm >= R):
        raise ConstructionError("transplanted support touches the outer circle")
    mass = float(np.sum(vv * weight_eval(WeightParams(R=R), x_norm) * w)) / l**2
    err = abs(mass - half_mass) * 0.01
    return QuotientReport(
        dirichlet_energy=energy, weighted_mass=mass, ratio=energy / mass,
        quad_error_estimate=err,
        extras={"halfspace_ratio": energy / half_mass,
                "l": l, "max_support_radius": float(np.max(x_norm)),
                "support_depth_bound": profile.B / l})


# ---------------------------------------------------------------------------
# Tip-concentrating family on the calibrated cusp
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuspFamilyParams:
    """Plateau profile parameters: angle a', inner scale eps, outer scale delta.

    The radial factor vanishes outside (eps, delta), equals 1 on
    [2 eps, delta/2], and has slopes 1/eps and 2/delta on the ramps.
    """

    a_prime: float
    eps: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and math.isfinite(self.delta)
                and 0.0 < self.eps and 4.0 * self.eps < self.delta):
            raise DomainRangeError(
                f"need finite 0 < 4 eps < delta, got eps={self.eps}, "
                f"delta={self.delta}")


def _plateau(rho, eps: float, delta: float):
    up = np.clip((rho - eps) / eps, 0.0, 1.0)
    down = np.clip(2.0 * (delta - rho) / delta, 0.0, 1.0)
    return np.where((rho <= eps) | (rho >= delta), 0.0, np.minimum(up, down))


@lru_cache(maxsize=8)
def _angular_mode(a_prime: float) -> oned.AngularEigenResult:
    """The angular eigenpair at ``a_prime`` on the 2048 grid, solved once per
    angle; callers share the arrays and must not write to them."""
    return oned.solve_angular(a_prime, 2048)


def _tip_mass_rows(rho_pts: np.ndarray, theta: np.ndarray,
                   phi: np.ndarray) -> np.ndarray:
    """Angular sums of the tip-family mass integrand, one per radial node.

    On angular cell j the integrand is the weight ratio
    ``4 (rho sin)^2 / (h log(h)^2)`` times ``(phi/sin)^2 dtheta``, where
    ``h = 1 + w`` is the squared distance to the origin and
    ``w = rho (rho - 2 sin)``; the sines cancel, leaving
    ``4 rho^2 phi^2 dtheta / (h log(h)^2)``.  The weight depends on the
    angle only through ``sin``, which is mirror-symmetric about pi/2, so the
    sum runs over the left half of the M cells with coefficients
    ``4 (p_j + p_{M-1-j})``, ``p = phi_mid^2 dtheta``: each right-half
    cell's share is folded onto its mirror cell, so no part of ``phi`` is
    dropped.  (The computed mode is mirror-symmetric only to about 1e-11;
    for a' in [0.85, 1.15], halving the sum would move the rows by up to
    1.3e-11, and folding moves them by about 1e-15.)  An odd cell count, or
    nodes off the mirror by more than 1e-14, raises `NumericalError`.

    ``rho_pts`` holds one Gauss panel per row; each panel is one
    ``(8, M/2)`` block and one dot product.  The log is ``log1p(w)``, as in
    `weight.cusp_weight_ratio`: ``log(h)`` cancels as ``rho -> 0``.
    """
    m = theta.size - 1
    if m % 2:
        raise NumericalError(
            f"tip mass folds cells in mirror pairs, got {m} cells")
    off = float(np.max(np.abs(theta + theta[::-1] - math.pi)))
    if off > 1e-14:
        raise NumericalError(f"tip mass grid is {off:.3g} off its pi/2 mirror")
    half = m // 2
    sin_half = np.sin(0.5 * (theta[:half] + theta[1:half + 1]))
    p2 = (0.5 * (phi[:-1] + phi[1:])) ** 2 * np.diff(theta)
    coef = 4.0 * (p2[:half] + p2[::-1][:half])
    out = np.empty(rho_pts.shape)
    for i, r in enumerate(rho_pts[:, :, None]):
        w = r * (r - 2.0 * sin_half)
        out[i] = r[:, 0] ** 2 * ((1.0 / ((1.0 + w) * np.log1p(w) ** 2)) @ coef)
    return out.ravel()


def cusp_upper_bound(params: CuspFamilyParams, dom: DomainSpec) -> QuotientReport:
    """Quotient of the separated tip profile and its certified bound.

    The profile is ``psi(rho) * phi(theta)`` in the tip frame, with phi the
    angular eigenfunction at ``a_prime``.  The report carries the certified
    upper bound ``eigenvalue(a') / min g`` next to the evaluated quotient.
    ``quad_error_estimate`` is ``(5 log 2 - 3) int phi'^2 / 100``, the same
    at every ``eps``: it sees neither the mass quadrature nor the angular
    trapezoid, where the error sits.
    """
    if dom.cusp is None:
        raise DomainRangeError("tip family requires the calibrated cusp domain")
    prof = dom.cusp
    a_p, eps, delta = params.a_prime, params.eps, params.delta
    fit = prof.cone_fit_extent(a_p)
    if delta > fit:
        raise ConstructionError(
            f"delta={delta} exceeds the cone-fit extent {fit:.4g} for a'={a_p}")

    eig = _angular_mode(a_p)
    theta, phi = eig.theta, eig.phi
    int_phi2 = float(np.trapezoid(phi**2, theta))
    dphi = np.gradient(phi, theta)
    int_dphi2 = float(np.trapezoid(dphi**2, theta))

    # radial pieces of the energy in closed form: the ramp slopes 1/eps and
    # 2/delta make int psi'^2 rho drho = 3, and int psi^2 / rho drho is the
    # plateau's log(delta / (4 eps)) plus log 2 - 1/2 and 4 log 2 - 5/2 from
    # the two ramps
    radial_part = 3.0 * int_phi2
    log_plateau = math.log(delta / (4 * eps))
    log_factor = log_plateau + 5 * math.log(2) - 3
    energy = radial_part + log_factor * int_dphi2

    # weighted mass: (y2^2 / weight normalizer) * (phi/sin)^2 * psi^2 / rho,
    # by 8-point Gauss panels, graded geometrically on the plateau
    ramp_lo = np.linspace(eps, 2 * eps, 9)
    plateau = np.geomspace(2 * eps, delta / 2, 65)
    ramp_hi = np.linspace(delta / 2, delta, 9)
    edges = np.unique(np.concatenate([ramp_lo, plateau, ramp_hi]))
    lo, hi = edges[:-1], edges[1:]
    rho_pts, rho_wts = _cell_gauss(lo, hi, 8)
    psi2 = _plateau(rho_pts, eps, delta) ** 2 / rho_pts
    mass = float(np.sum(_tip_mass_rows(rho_pts, theta, phi) * psi2.ravel()
                        * rho_wts.ravel()))

    min_g = prof.g(delta)  # the infimum of g over (0, delta]
    certified = eig.value / min_g
    err = abs(log_factor - log_plateau) * int_dphi2 * 0.01
    return QuotientReport(
        dirichlet_energy=energy, weighted_mass=mass, ratio=energy / mass,
        quad_error_estimate=err,
        extras={"certified_bound": certified, "eigenvalue": eig.value,
                "min_g": min_g, "radial_part": radial_part,
                "log_factor": log_factor, "log_lower_bound": log_plateau,
                "int_phi2": int_phi2})
