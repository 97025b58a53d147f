import math

import numpy as np
import pytest

from crithardy import DomainSpec, PolarGridFunction


def smooth_bump(x, lo, hi):
    """C^infinity bump supported on (lo, hi), peak value e^{-4}."""
    x = np.asarray(x, dtype=float)
    z = (x - lo) / (hi - lo)
    out = np.zeros_like(x)
    m = (z > 0) & (z < 1)
    out[m] = np.exp(-1.0 / (z[m] * (1 - z[m])))
    return out


def smooth_bump_d(x, lo, hi):
    """Derivative of `smooth_bump`."""
    x = np.asarray(x, dtype=float)
    z = (x - lo) / (hi - lo)
    out = np.zeros_like(x)
    m = (z > 0) & (z < 1)
    zz = z[m]
    out[m] = np.exp(-1.0 / (zz * (1 - zz))) * (1 - 2 * zz) / (zz * (1 - zz)) ** 2
    return out / (hi - lo)


# band tables whose slices are empty below r = 0.3 and on [0.4, 0.6)
SECTOR = [(0.3, 1.0, [(0.5, 2.0)])]
GAPPED = [(0.0, 0.4, [(0.2, 1.0)]), (0.6, 1.0, [(5.5, 7.0)])]


def scalar_opening(prof, rho: float) -> float:
    """Reference for `CuspProfile.a_of_r`, one tip distance at a time."""
    if rho <= prof.rho_table[0]:
        return prof.a
    value = prof._a_interp.with_slope(min(rho, prof.r0))[0]
    return min(float(value), math.pi / 2 - 1e-12)


def polar_random_bumps(dom, rng, nr=60, ntheta=64, n_bumps=4,
                       r_lo=0.05, r_hi=0.95):
    """Random nonnegative boundary-tapered polar-grid function."""
    r = np.linspace(r_lo, r_hi, nr)
    theta = np.arange(ntheta) * (2 * math.pi / ntheta)
    vals = np.zeros((nr, ntheta))
    for _ in range(n_bumps):
        r0 = rng.uniform(r_lo + 0.15, r_hi - 0.15)
        t0 = rng.uniform(0.0, 2 * math.pi)
        w = rng.uniform(0.05, 0.3)
        amp = rng.uniform(0.5, 2.0)
        dist = np.minimum(np.abs(theta[None, :] - t0),
                          2 * math.pi - np.abs(theta[None, :] - t0))
        vals += amp * np.exp(-(((r[:, None] - r0) / w) ** 2 + (dist / w) ** 2))
    taper = np.clip(np.minimum((r - r_lo) / 0.1, (r_hi - r) / 0.1), 0, 1)
    return PolarGridFunction(r=r, theta=theta, values=vals * taper[:, None],
                             domain=dom)


@pytest.fixture(scope="session")
def ball():
    return DomainSpec.ball(1.0)


@pytest.fixture(scope="session")
def half_disk():
    return DomainSpec.half_disk(1.0)


@pytest.fixture(scope="session")
def calibrated_cusp():
    # built once per session; the profile construction inverts the angular
    # eigenvalue on each of its 96 rows (about 110 angular solves in all)
    return DomainSpec.calibrated_cusp(0.9)
