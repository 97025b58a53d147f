"""Circular symmetric rearrangement of domains and polar-grid functions.

Each radius row is rearranged independently: the slice arcs are replaced by a
single arc of equal measure centered on the top direction, and the row values
are placed symmetric-decreasing about the top node (largest value at the
center, subsequent ranks alternating right/left).  Row multisets are preserved
exactly, so equimeasurability is a literal permutation; with the edge-based
energies of `quotient_polar`, the discrete Polya-Szego and Hardy-Littlewood
inequalities hold exactly up to roundoff (adjacent-product rearrangement
inequalities along rows and across row pairs placed by the same rank map).
"""

from __future__ import annotations

import math

import numpy as np

from ._errors import DomainRangeError, GridMismatchError
from .domain import DomainSpec, profile_measure
from .quotient import PolarGridFunction, _polar_weights, quotient_polar
from .weight import WeightParams


def rearrange_domain(dom: DomainSpec, radii) -> np.ndarray:
    """Half-widths of the centered arcs with the same measure as the source
    slices, one per radius."""
    radii = np.asarray(radii, dtype=float)
    return profile_measure(dom, radii) / (2.0 * radii)


def _center_index(theta: np.ndarray) -> int:
    j = int(np.argmin(np.abs(theta - math.pi / 2)))
    if abs(theta[j] - math.pi / 2) > 1e-9:
        raise DomainRangeError(
            "rearrangement needs a grid node at the top direction "
            "(use ntheta divisible by 4)")
    return j


def _placement(nt: int, center: int) -> np.ndarray:
    """Column order center, center+1, center-1, center+2, ... (mod nt)."""
    offs = np.empty(nt, dtype=int)
    offs[0] = 0
    half = np.arange(1, nt // 2 + 1)
    offs[1:2 * len(half):2] = half[: (nt - 1 + 1) // 2]
    offs[2:2 * len(half) + 1:2] = -half[: (nt - 1) // 2]
    return (center + offs) % nt


def rearrange_function(u: PolarGridFunction) -> PolarGridFunction:
    """Symmetric-decreasing rearrangement of each radius row.

    Requires nonnegative values (pass absolute values for signed inputs).
    """
    if np.any(u.values < 0):
        raise DomainRangeError("rearrangement requires nonnegative values")
    nt = u.theta.size
    center = _center_index(u.theta)
    positions = _placement(nt, center)
    new_vals = np.zeros_like(u.values)
    ranked = np.sort(u.values, axis=1)[:, ::-1]
    new_vals[:, positions] = ranked
    new_mask = np.zeros_like(u.mask)
    counts = u.mask.sum(axis=1)
    new_mask[:, positions] = np.arange(nt) < counts[:, None]
    return PolarGridFunction(r=u.r.copy(), theta=u.theta.copy(), values=new_vals,
                             domain=u.domain, mask=new_mask)


def polya_szego_check(u: PolarGridFunction) -> tuple[float, float, float]:
    """(energy, rearranged energy, margin) of `rearrangement_report`; margin
    >= 0 up to roundoff."""
    rep = rearrangement_report(u)
    return rep["energy"], rep["energy_star"], rep["polya_szego_margin"]


def hardy_littlewood_check(u: PolarGridFunction,
                           v: PolarGridFunction) -> tuple[float, float]:
    """(int u v, int u* v*) with the node-lumped area weights; rhs >= lhs."""
    if u.r.shape != v.r.shape or u.theta.shape != v.theta.shape or \
            not np.allclose(u.r, v.r) or not np.allclose(u.theta, v.theta):
        raise GridMismatchError("functions must share the same grid")
    if np.any(u.values < 0) or np.any(v.values < 0):
        raise DomainRangeError("inequality check requires nonnegative values")
    _, w_r, dth = _polar_weights(u)
    area = (u.r * w_r)[:, None] * dth
    u_star = rearrange_function(u)
    v_star = rearrange_function(v)
    lhs = float(np.sum(u.values * v.values * area))
    rhs = float(np.sum(u_star.values * v_star.values * area))
    return lhs, rhs


def rearrangement_report(u: PolarGridFunction, p: WeightParams | None = None) -> dict:
    """Full check bundle: equimeasurability, mass preservation, energy margin."""
    return _report(u, rearrange_function(u),
                   p or WeightParams(R=u.domain.R, N=2))


def _report(u: PolarGridFunction, star: PolarGridFunction,
            p: WeightParams) -> dict:
    """`rearrangement_report` of ``u`` against its rearrangement ``star``."""
    perm_ok = np.array_equal(np.sort(u.values, axis=1),
                             np.sort(star.values, axis=1))
    qu = quotient_polar(u, p)
    qs = quotient_polar(star, p)
    return {
        "equimeasurable": bool(perm_ok),
        "mass": qu.weighted_mass,
        "mass_star": qs.weighted_mass,
        "mass_gap": qu.weighted_mass - qs.weighted_mass,
        "energy": qu.dirichlet_energy,
        "energy_star": qs.dirichlet_energy,
        "polya_szego_margin": qu.dirichlet_energy - qs.dirichlet_energy,
        "quotient": qu.ratio,
        "quotient_star": qs.ratio,
    }
