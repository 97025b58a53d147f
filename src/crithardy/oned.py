"""One-dimensional spectral content.

Covers the classical 1-D Hardy quotient for sampled functions, the angular
eigenvalue problem ``-phi'' = mu * phi / sin^2(theta)`` on ``(a, pi - a)`` with
Dirichlet conditions, the integral identity behind its non-attainment at
``a = 0``, the ``sin^alpha`` test family, the Dirichlet eigenvalue of arcs (the
Poincare input for slice estimates), and the general-N radial reduction of the
critical quotient to the 1-D Hardy quotient with ``p = N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from ._errors import (DegenerateInputError, DomainRangeError,
                      NonConvergenceError, NumericalError)
from .weight import _dimension

_GAUSS = {8: np.polynomial.legendre.leggauss(8),
          16: np.polynomial.legendre.leggauss(16)}


# ---------------------------------------------------------------------------
# 1-D Hardy quotient
# ---------------------------------------------------------------------------

def _cell_gauss(lo: np.ndarray, hi: np.ndarray, order: int, f=None):
    """Gauss-Legendre panels of ``order`` (8 or 16) points on the cells [lo_i, hi_i].

    Without ``f``, returns the nodes and weights, each of shape
    ``(cells, order)``.  With ``f``, returns the integral of f over all the
    cells; f is called once on the whole node array.  This is the package's
    one panel rule.
    """
    x, w = _GAUSS[order]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * x[None, :]
    if f is None:
        return pts, half[:, None] * w[None, :]
    return float(np.sum(half * (f(pts) @ w)))


def _simpson_gap(f_lo, f_mid, f_hi, h) -> float:
    """|Simpson - trapezoid| summed over cells of widths ``h``, from the
    integrand at each cell's ends and midpoint: the package's one panel
    error estimate."""
    trap = 0.5 * (f_lo + f_hi) * h
    simp = (f_lo + 4.0 * f_mid + f_hi) * h / 6.0
    return float(np.sum(np.abs(simp - trap)))


def hardy_1d_quotient(t, v, p: int = 2) -> float:
    """Quotient of ``int |v'|^p dt`` against ``int |v|^p / t^p dt``.

    ``v`` is piecewise linear between the samples, zero outside the grid
    (boundary-zero at 0 and compact support).  Energy is exact per cell; the
    mass uses 8-point Gauss panels.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 2:
        raise DomainRangeError("t and v must be matching 1-D arrays of length >= 2")
    if np.any(np.diff(t) <= 0) or t[0] < 0:
        raise DomainRangeError("t must be strictly increasing and nonnegative")
    if v[-1] != 0.0 or (t[0] == 0.0 and v[0] != 0.0):
        raise DomainRangeError("v must vanish at t=0 and at the outer grid end")
    dt = np.diff(t)
    slopes = np.diff(v) / dt
    energy = float(np.sum(np.abs(slopes) ** p * dt))

    def mass_on(sel) -> float:
        lo, hi = t[:-1][sel], t[1:][sel]
        v0, sl = v[:-1][sel], slopes[sel]

        def integrand(x):
            vv = v0[:, None] + sl[:, None] * (x - lo[:, None])
            # (|v|/t)^p instead of |v|^p / t^p: avoids under/overflow when the
            # grid is graded down to the float floor
            return (np.abs(vv) / x) ** p

        return _cell_gauss(lo, hi, 8, integrand)

    # Cell starting at t=0 has |v|^p/t^p = |slope|^p exactly.
    if t[0] == 0.0:
        mass = np.abs(slopes[0]) ** p * dt[0] + mass_on(slice(1, None))
    else:
        mass = mass_on(slice(None))
    if mass <= 0.0 or not math.isfinite(mass):
        raise DegenerateInputError("zero or non-finite Hardy mass")
    return energy / mass


# ---------------------------------------------------------------------------
# Angular eigenvalue problem on (a, pi - a)
# ---------------------------------------------------------------------------

@dataclass
class AngularEigenResult:
    """The angular problem solved at angle ``a`` over the (M, 2M) grids.

    ``value`` is the Richardson value, ``theta`` the fine nodes and
    ``residual`` the fine eigenvector's.  ``start`` is the coarse pair
    ``(phi_c, mu_c)``, a `_smallest_pair` start for a solve at a larger angle
    on the same grid size.  ``phi`` is the fine eigenvector with its boundary
    zeros, normalized in L2 when first read.
    """

    a: float
    value: float
    theta: np.ndarray
    residual: float
    grid_size: int
    start: tuple[np.ndarray, float]
    _interior: np.ndarray = field(repr=False)

    @cached_property
    def phi(self) -> np.ndarray:
        phi = np.concatenate([[0.0], self._interior, [0.0]])
        nrm = math.sqrt(np.trapezoid(phi**2, self.theta))
        return phi / nrm


def _angular_nodes(a: float, m: int) -> np.ndarray:
    """Node vector on [a, pi - a]; endpoint-graded when a is small.

    The weight transitions at distance ~a from each endpoint, so for small a
    the nodes are geometrically clustered (ratio 1.1 from a/4) and matched to a
    uniform interior; otherwise a uniform grid of m cells is used.
    """
    lo, hi = a, math.pi - a
    if a >= 0.05:
        return np.linspace(lo, hi, m + 1)
    mid = (hi - lo) / 2.0
    offs = [0.0]
    s = max(a / 4.0, 1e-14)
    while s < 0.9 * mid:
        offs.append(s)
        s *= 1.1
    left = lo + np.asarray(offs)
    # uniform filler so the coarse interior still has ~m/8 cells
    interior = np.linspace(left[-1], lo + mid, max(m // 8, 8) + 1)[1:-1]
    half = np.concatenate([left, interior])  # strictly below the midpoint
    return np.concatenate([half, [lo + mid], (math.pi - half)[::-1]])


_GROUND_STEPS = 32


def _smallest_pair(nodes: np.ndarray,
                   start: tuple[np.ndarray, float] | None = None,
                   ) -> tuple[float, np.ndarray, float]:
    """Smallest eigenpair of the discretized problem on the given nodes.

    P1 stiffness with nodal (lumped) 1/sin^2 weights; the generalized problem
    is reduced to a symmetric tridiagonal one, T, through the diagonal mass.

    The eigenvector comes from shifted inverse iteration on T, O(n) per step
    through LAPACK's positive-definite tridiagonal ``dpttrf``/``dpttrs``.  T
    has positive diagonal and negative off-diagonal, so ``(T - sigma)^-1``
    is entrywise positive for every sigma below the smallest eigenvalue, and
    the iteration from an entrywise-positive vector can only reach the
    ground state.  After each step the shift ``sigma = mu - 2 r`` (r the
    residual of T) is tried when it exceeds the current one, and kept only
    if ``dpttrf(T - sigma)`` succeeds: by Sylvester's inertia law that proves
    sigma lies below the smallest eigenvalue, so the factor that the next
    step solves with is its own certificate.  The iteration stops when mu
    stagnates to a few ulps, and raises `NonConvergenceError` after
    `_GROUND_STEPS` steps.

    A ``start`` ``(phi0, sigma0)`` is a neighbour's answer: ``phi0`` on the
    interior nodes and a shift ``sigma0``.  It is adopted only when sigma0 is
    positive, phi0 is entrywise positive, and ``dpttrf(T - sigma0)``
    succeeds, which certifies sigma0 as any later shift is certified; the
    iteration then starts from phi0 at shift sigma0.  Otherwise it starts
    cold, from the all-ones vector at shift 0, operation for operation as
    without a start.  A cold solve takes 5 to 8 steps on the package's
    grids, and a neighbour's start 2 or 3: the coarse grid's pair, or a
    slightly smaller angle's on the same grid size.

    The eigenvalue is the Rayleigh quotient of the eigenvector, with the
    energy summed cell by cell as ``sum (dphi)^2 / h``.  It is second-order
    accurate in the eigenvector, and the cell sum adds positive terms
    without cancellation; over steps of 1e-11 in the angle at a = 0.9, and
    1e-13 at a = 1.5, it rises every time, where an eigenvalue read off T
    carries noise of about eps * ||T||_1 (LAPACK's bisection value drops by
    up to 1e-8).  `invert_angular_eigenvalue` needs that monotonicity at its
    1e-10 tolerance.
    """
    h = np.diff(nodes)
    inner = nodes[1:-1]
    n = inner.size
    w = 0.5 * (h[:-1] + h[1:]) / np.sin(inner) ** 2
    diag = 1.0 / h[:-1] + 1.0 / h[1:]
    off = -1.0 / h[1:-1]
    s = 1.0 / np.sqrt(w)
    c_diag = diag * s * s
    c_off = off * s[:-1] * s[1:]
    x = None
    if start is not None:
        phi0, sigma0 = start
        if (sigma0 > 0.0 and np.shape(phi0) == (n,)
                and np.all(phi0 > 0.0)):
            d, e, info = dpttrf(c_diag - sigma0, c_off)
            if info == 0:
                x, shift = phi0 / s, sigma0
    if x is None:
        d, e, info = dpttrf(c_diag, c_off)
        if info != 0:
            raise NumericalError(
                f"angular matrix is not positive definite (dpttrf info={info})")
        x, shift = np.ones(n), 0.0
    padded = np.zeros(n + 2)  # phi between its two boundary zeros
    phi = padded[1:-1]
    mu_prev = math.inf
    for _ in range(_GROUND_STEPS):
        x, _ = dpttrs(d, e, x, overwrite_b=True)
        x /= np.linalg.norm(x)
        np.multiply(s, x, out=phi)
        dphi = np.diff(padded)
        mu = float((dphi * dphi / h).sum() / (phi @ (w * phi)))
        change, mu_prev = mu - mu_prev, mu
        if abs(change) <= 4.0 * math.ulp(mu):
            break
        tx = c_diag * x
        tx[:-1] += c_off * x[1:]
        tx[1:] += c_off * x[:-1]
        sigma = mu - 2.0 * float(np.linalg.norm(tx - mu * x))
        if sigma > shift:
            d_s, e_s, info = dpttrf(c_diag - sigma, c_off)
            if info == 0:
                d, e, shift = d_s, e_s, sigma
    else:
        raise NonConvergenceError(
            f"inverse iteration did not settle in {_GROUND_STEPS} steps",
            {"n": n, "mu": mu, "change": change})
    # residual of the generalized problem, relative to the mass norm
    kv = diag * phi
    kv[:-1] += off * phi[1:]
    kv[1:] += off * phi[:-1]
    res = kv - mu * w * phi
    rnorm = float(np.linalg.norm(res) / max(np.linalg.norm(w * phi), 1e-300))
    if phi[n // 2] < 0:
        phi = -phi
    return mu, phi, rnorm


def _prolong(phi_c: np.ndarray) -> np.ndarray:
    """Coarse interior values on the fine interior nodes: each coarse node
    keeps its value and each midpoint takes the mean of its two neighbours,
    with zero at the boundary.  Positive values stay positive."""
    padded = np.concatenate([[0.0], phi_c, [0.0]])
    out = np.empty(2 * phi_c.size + 1)
    out[0::2] = 0.5 * (padded[:-1] + padded[1:])
    out[1::2] = phi_c
    return out


def solve_angular(a: float, grid_size: int = 2048,
                  below: tuple[np.ndarray, float] | None = None,
                  ) -> AngularEigenResult:
    """Solve the angular problem at ``a`` with Richardson extrapolation over
    the (M, 2M) grids, ``M = grid_size``.

    The coarse solve starts from ``below``: a smaller angle's ``start`` on
    the same grid size, or None for a cold solve.  The fine solve starts
    from the coarse eigenvector, prolongated by midpoints, at the coarse
    eigenvalue.  That lies 1.5e-7 to 1.3e-3 below the fine one on the 512 to
    2048 grids for a from 1e-11 to 1.55; where it did not, the certificate
    would refuse the start and the fine solve would run cold.
    """
    if not (0.0 <= a < math.pi / 2):
        raise DomainRangeError(f"a must lie in [0, pi/2), got {a}")
    if grid_size < 16:
        raise DomainRangeError("grid_size must be >= 16")
    if a == 0.0:
        raise DomainRangeError(
            "a = 0 is not solved directly (non-integrable endpoint weight); "
            "use extrapolate_angular_zero_limit")
    coarse_nodes = _angular_nodes(a, grid_size)
    # each midpoint lies between its two nodes, so interleaving them gives
    # the sorted union
    fine_nodes = np.empty(2 * coarse_nodes.size - 1)
    fine_nodes[::2] = coarse_nodes
    fine_nodes[1::2] = 0.5 * (coarse_nodes[:-1] + coarse_nodes[1:])
    mu_c, phi_c, _ = _smallest_pair(coarse_nodes, below)
    mu_f, phi_f, rnorm = _smallest_pair(fine_nodes, (_prolong(phi_c), mu_c))
    if not (math.isfinite(mu_c) and math.isfinite(mu_f)):
        raise NumericalError(f"angular eigen-iteration failed at a={a}")
    return AngularEigenResult(
        a=a, value=(4.0 * mu_f - mu_c) / 3.0, theta=fine_nodes,
        residual=rnorm, grid_size=grid_size, start=(phi_c, mu_c),
        _interior=phi_f)


@lru_cache(maxsize=4096)
def angular_eigenvalue(a: float, grid_size: int = 2048) -> float:
    """Richardson-extrapolated smallest eigenvalue for opening parameter ``a``."""
    return solve_angular(a, grid_size).value


def invert_angular_eigenvalue(target: float, lower: AngularEigenResult,
                              guess: float | None = None,
                              slope: float | None = None,
                              ) -> AngularEigenResult:
    """Solve for a in (lower.a, pi/2) with eigenvalue(a) = target by a
    bracketed secant on ``lower``'s grid size; returns the root solved.

    Relies on the eigenvalue being non-decreasing in ``a``; terminates when the
    eigenvalue matches within 1e-10 and raises `NonConvergenceError`
    if the bracket shrinks below 1e-14 first.  The secant runs on
    ``1/sqrt(E)``, which is nearly linear in ``a`` and vanishes at ``pi/2``
    (E grows like the Dirichlet eigenvalue ``(pi/(pi-2a))^2``), so the upper
    end of the bracket needs no solve.  A step that leaves the bracket, or a
    secant step that fails to halve the error, is followed by a bisection
    step.  A ``guess`` of the root is tried as the first secant point, and
    counts as such: outside the bracket it is replaced by a bisection step.
    A ``slope`` ``da/du`` of the predictor that made the guess steers the
    step after a missed guess in place of the chord to the lower end.
    A target within the tolerance of ``lower.value`` returns ``lower``.

    Every evaluation starts its coarse solve from the bracket's current
    lower end, whose eigenvalue lies below that of every larger angle on the
    same grid (see `_smallest_pair`).
    """
    tol = 1e-10
    lo, f_lo = lower.a, lower.value
    hi = math.pi / 2 - 1e-9
    if target < f_lo - tol:
        raise DomainRangeError(f"target {target} below eigenvalue({lo})={f_lo}")
    if target <= f_lo + tol:
        return lower
    u_target = 1.0 / math.sqrt(target)
    x0, u0 = hi, 0.0
    x1, u1 = lo, 1.0 / math.sqrt(f_lo)
    bisect = False
    x, f = lo, f_lo
    while hi - lo > 1e-14:
        at_guess = guess is not None
        if at_guess:
            secant, x, guess = True, guess, None
        else:
            secant = not bisect and u1 != u0
            x = (x1 + (u_target - u1) * (x1 - x0) / (u1 - u0) if secant
                 else math.nan)
        if not lo < x < hi:
            secant = False
            x = 0.5 * (lo + hi)
        solved = solve_angular(x, lower.grid_size, lower.start)
        f = solved.value
        if abs(f - target) <= tol:
            return solved
        if f < target:
            lo, lower = x, solved
        else:
            hi = x
        u = 1.0 / math.sqrt(f)
        bisect = secant and abs(u - u_target) > 0.5 * abs(u1 - u_target)
        x0, u0, x1, u1 = x1, u1, x, u
        if at_guess and secant and slope is not None:
            # the next step follows the predictor's tangent: its partner
            # lies one unit of u away on it
            x0, u0 = x - slope, u - 1.0
    raise NonConvergenceError(
        f"bracket exhausted before eigenvalue matched target {target}",
        {"target": target, "a": x, "gap": f - target, "bracket": hi - lo})


_FIT_GRID = 2001   # gamma values scanned by `_rate_fit`
_FIT_STEPS = 100   # bisection steps after the scan


def _rate_fit(x: np.ndarray, y: np.ndarray) -> dict:
    """Least-squares fit of ``y = C + beta/(x + gamma)^2``.

    The model of both logarithmic limits: the FEM exhaustion in the
    log-window length and the angular eigenvalue in ``log(1/a)``.  The fit
    keeps ``beta >= 0`` and ``-0.9 min x <= gamma <= 50``; ``residual`` is
    the largest misfit.

    Variable projection: at fixed gamma the model is linear in
    ``(C, beta)``, which are solved in closed form (``beta`` clipped at 0,
    where ``C`` is the mean of ``y``), so only the sum of squares S over
    gamma is searched.  The search scans `_FIT_GRID` values of gamma across
    its bounds, then bisects between the best one's two grid neighbours on
    the sign of ``dS/dgamma = -4 beta sum(misfit / (x + gamma)^3)`` (the
    projected C and beta are stationary, so they drop out of the
    derivative).  The sign of the derivative stays reliable closer to the
    minimum than comparisons of S, whose rounding (about 1e-12 of S on the
    ball's windows) would stop a search on S itself.  Three parameters on
    three or four points amplify noise in ``y``: a 2e-15 relative change
    moves ``C`` by about 1e-11 on the ball's windows and 1e-9 on the cusp's.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dy = y - y.mean()

    def project(gamma):
        """``(C, beta, S, dS/dgamma)`` at each gamma of a 1-D array."""
        v = 1.0 / (x + gamma[:, None])
        u = v * v
        u_mean = u.mean(axis=1)
        du = u - u_mean[:, None]
        beta = np.maximum((du @ dy) / np.einsum("ij,ij->i", du, du), 0.0)
        c = y.mean() - beta * u_mean
        misfit = c[:, None] + beta[:, None] * u - y
        return (c, beta, np.einsum("ij,ij->i", misfit, misfit),
                -4.0 * beta * np.einsum("ij,ij->i", misfit, u * v))

    grid = np.linspace(-0.9 * x.min(), 50.0, _FIT_GRID)
    k = int(np.argmin(project(grid)[2]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _FIT_GRID - 1)]
    for _ in range(_FIT_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        slope = project(np.array([mid]))[3][0]
        if slope == 0.0:  # beta = 0: S is flat in gamma
            lo = hi = mid
        elif slope > 0.0:
            hi = mid
        else:
            lo = mid
    # the scan's best point stands if the bisection ended higher
    gamma = np.array([0.5 * (lo + hi), grid[k]])
    c, beta, ssr, _ = project(gamma)
    j = int(np.argmin(ssr))
    misfit = c[j] + beta[j] / (x + gamma[j]) ** 2 - y
    return {"C": float(c[j]), "beta": float(beta[j]),
            "gamma": float(gamma[j]),
            "residual": float(np.max(np.abs(misfit)))}


def extrapolate_angular_zero_limit() -> tuple[float, dict]:
    """Limit of the angular eigenvalue as a -> 0+ by a known-rate fit.

    The eigenvalue approaches its infimum like C + beta/(log(1/a)+gamma)^2
    (both endpoint channels are logarithmic); fitting that model
    (`_rate_fit`) over the geometric grid a = 1e-4, ..., 1e-11 (eigenvalues
    on the 1024 grid) extrapolates the unattained limit.
    """
    a_arr = np.array([10.0 ** (-k) for k in range(4, 12)])
    e_arr = np.array([angular_eigenvalue(float(a), 1024) for a in a_arr])
    fit = _rate_fit(np.log(1.0 / a_arr), e_arr)
    info = {"a": a_arr.tolist(), "values": e_arr.tolist(),
            "beta": fit["beta"], "gamma": fit["gamma"],
            "fit_residual": fit["residual"]}
    return fit["C"], info


# ---------------------------------------------------------------------------
# Endpoint identity and sin^alpha tests
# ---------------------------------------------------------------------------

def angular_identity_residual(u, du, support=(0.0, math.pi)) -> float:
    """LHS - RHS of the substitution identity for the angular quotient.

    With v = u / sqrt(sin), integrating ``(u')^2 - u^2/(4 sin^2)`` over (0, pi)
    equals ``int u^2/4 + int (v')^2 sin``.  The left side uses 512 composite
    16-point Gauss panels, the right side 384 composite 8-point panels, so
    the two sides are summed over different nodes.
    """
    lo, hi = support
    if not (0.0 <= lo < hi <= math.pi):
        raise DomainRangeError("support must lie inside [0, pi]")

    def lhs_f(x):
        s = np.sin(x)
        return du(x) ** 2 - 0.25 * u(x) ** 2 / (s * s)

    def rhs_f(x):
        s = np.sin(x)
        dv = du(x) / np.sqrt(s) - 0.5 * u(x) * np.cos(x) / s**1.5
        return u(x) ** 2 / 4.0 + dv * dv * s

    edges = np.linspace(lo, hi, 513)
    lhs = _cell_gauss(edges[:-1], edges[1:], 16, lhs_f)
    edges = np.linspace(lo, hi, 385)
    return lhs - _cell_gauss(edges[:-1], edges[1:], 8, rhs_f)


def sin_integral(s: float) -> float:
    """Closed form of ``int_0^pi sin(theta)^s dtheta`` via Gamma functions."""
    return math.sqrt(math.pi) * math.gamma((s + 1.0) / 2.0) / math.gamma(s / 2.0 + 1.0)


def sin_power_quotient(alpha: float) -> float:
    """Angular quotient of ``sin(theta)^alpha`` computed by graded quadrature
    (1399 geometric 16-point Gauss panels).

    Requires alpha > 1/2 (finite energy).  The exact value is alpha/2, which
    tests can cross-check through `sin_integral`.
    """
    if alpha <= 0.5:
        raise DomainRangeError(f"alpha must exceed 1/2, got {alpha}")
    # Both integrands are symmetric about pi/2, so integrate twice the left
    # half with geometric grading into the endpoint: for alpha near 1/2 the
    # exponent 2 alpha - 2 is near -1 and almost all mass sits at tiny theta,
    # so the grading must run down to the float floor (theta near pi cannot be
    # resolved in absolute coordinates at all).
    edges = np.geomspace(1e-290, math.pi / 2, 1400)

    def energy_f(x):
        return (alpha * np.cos(x)) ** 2 * np.sin(x) ** (2 * alpha - 2)

    def mass_f(x):
        return np.sin(x) ** (2 * alpha - 2)

    energy = _cell_gauss(edges[:-1], edges[1:], 16, energy_f)
    mass = _cell_gauss(edges[:-1], edges[1:], 16, mass_f)
    return energy / mass


# ---------------------------------------------------------------------------
# Arc Poincare constant and the radial reduction
# ---------------------------------------------------------------------------

def arc_poincare_constant(arc_length: float) -> float:
    """First Dirichlet eigenvalue ``(pi/L)^2`` of an arc of length ``L``."""
    if not (0.0 < arc_length < 2.0 * math.pi):
        raise DomainRangeError(f"arc length must lie in (0, 2 pi), got {arc_length}")
    return (math.pi / arc_length) ** 2


def _alpha_profile_grid(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Sampled ``t^alpha (1 - t)`` on a grid of [0, 1] graded into the origin."""
    head = np.geomspace(1e-180, 0.05, 1400)
    tail = np.linspace(0.05, 1.0, 260)
    t = np.unique(np.concatenate([[0.0], head, tail]))
    v = t**alpha * (1.0 - t)
    v[-1] = 0.0
    return t, v


def radial_reduction_constant(N: int) -> float:
    """Infimum estimate of the 1-D Hardy quotient with p = N over the exponent family.

    Minimizes over v = t^alpha (1 - t) with alpha = (N-1)/N + 2^{-k},
    k = 3..10; the infimum tends to ((N-1)/N)^N.
    """
    _dimension(N)
    best = math.inf
    for k in range(3, 11):
        alpha = (N - 1.0) / N + 2.0 ** (-k)
        t, v = _alpha_profile_grid(alpha)
        best = min(best, hardy_1d_quotient(t, v, p=N))
    return best
