"""P1 finite elements for the weighted eigenvalue problem on truncated domains.

The domain is exhausted by ``Omega_n = Omega cap (B_{R-1/n} \\ closure B_{1/n})``,
on which the singular weight is bounded; the smallest generalized eigenvalue
``d_n`` of stiffness against weighted mass decreases to the best constant as
``n`` grows.  Meshes are structured polar strips graded geometrically into the
truncation circles; the calibrated cusp is meshed in its tip frame, where the
domain is a polar rectangle and the outer truncation is a radial cut at the
exact envelope radius.

``d_n`` converges like ``1/window^2`` in the log-window length of the mesh
(the exhaustion opens a logarithmic channel), so `extrapolate_constant` fits
``C + beta/(window + gamma)^2``; when the fit fails its gate the estimate is
the finest ``d_n``, and a warning says which condition failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dstev, zpttrf
# unused: perfbench/tracing.py resolves fem2d.splu when it installs
from scipy.sparse.linalg import splu  # noqa: F401

from ._errors import (AssemblyError, ConstructionError, DomainRangeError,
                      NonConvergenceError, NumericalError)
from .domain import DomainKind, DomainSpec, _count, tip_to_xy
from .oned import _rate_fit
from .weight import WeightParams, weight_eval

# relative residual the eigen solve must reach, read at call time
_TOL = 1e-10
# K - (1 - _CERT_MARGIN) d M must factor: no eigenvalue at or below that shift
_CERT_MARGIN = 1e-9
# the shift-invert Lanczos keeps at most this many basis vectors and their M
# products, then restarts; it gives up after _LANCZOS_STEPS solves
_LANCZOS_BASIS = 20
_LANCZOS_STEPS = 200
# it stops once the residual it predicts for its vector is at most this
_RITZ_TOL = 1e-12


@dataclass
class Mesh:
    """Triangle mesh; the free (non-Dirichlet) unknowns are ``~boundary``."""

    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3)
    boundary: np.ndarray          # (nv,) bool
    meta: dict = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass
class EigenResult:
    value: float
    vector: np.ndarray            # on the mesh vertices, unit weighted mass
    density: np.ndarray           # x * (M x) per vertex; sums to 1
    iterations: int
    residual: float
    fill: int                     # entries of the band Cholesky factor
    solver: str                   # "shift_invert" or "radial"
    shift: float = 0.0            # the certified Lanczos shift; 0 if none


def _grid_min_angle(x: np.ndarray, y: np.ndarray, wrap: bool) -> float:
    """Smallest angle, in degrees, of the `_strip_mesh` triangles on the
    vertex grid ``(x, y)``.

    Each row edge ``b - a``, column edge ``c - a`` and diagonal ``d - a`` is
    formed once, with its length; the other edges of a cell are their
    negatives, which floating-point subtraction gives exactly.  Dot products
    and lengths are written ``u0*v0 + u1*v1`` and ``sqrt(u0*u0 + u1*u1)``, the
    same operations as the per-triangle ``np.sum`` and ``np.linalg.norm``, and
    ``arccos`` is decreasing, so the result is the per-triangle minimum bit
    for bit.  A NaN cosine (a collapsed cell) gives NaN.
    """
    if wrap:  # column 0 closes the last cell of each row
        x, y = np.hstack([x, x[:, :1]]), np.hstack([y, y[:, :1]])

    def edge(u0, u1):
        return u0, u1, np.sqrt(u0 * u0 + u1 * u1)

    rx, ry, rn = edge(np.diff(x, axis=1), np.diff(y, axis=1))
    cx, cy, cn = edge(np.diff(x, axis=0), np.diff(y, axis=0))
    dx, dy, dn = edge(x[1:, 1:] - x[:-1, :-1], y[1:, 1:] - y[:-1, :-1])
    # row edges a->b (bottom) and c->d (top); column edges a->c and b->d
    bx, by, bn = rx[:-1], ry[:-1], rn[:-1]
    tx, ty, tn = rx[1:], ry[1:], rn[1:]
    lx, ly, ln = cx[:, :-1], cy[:, :-1], cn[:, :-1]
    qx, qy, qn = cx[:, 1:], cy[:, 1:], cn[:, 1:]
    # the largest cosine of each corner, then of those six (a NaN spreads)
    largest = np.array([
        ((bx * dx + by * dy) / (bn * dn)).max(),       # (a, b, d) at a
        (-(qx * bx + qy * by) / (qn * bn)).max(),      # at b
        ((dx * qx + dy * qy) / (dn * qn)).max(),       # at d
        ((dx * lx + dy * ly) / (dn * ln)).max(),       # (a, d, c) at a
        ((tx * dx + ty * dy) / (tn * dn)).max(),       # at d
        (-(lx * tx + ly * ty) / (ln * tn)).max(),      # at c
    ])
    return float(np.degrees(np.arccos(np.clip(largest.max(), -1, 1))))


def _strip_mesh(x: np.ndarray, y: np.ndarray, wrap: bool,
                window_length: float) -> Mesh:
    """Structured mesh on the ``(n_rows, n_cols)`` vertex grid ``(x, y)``.

    Cell ``(i, j)`` joins rows ``i, i+1`` and columns ``j, j+1`` (modulo
    ``n_cols`` when the strip wraps) and splits into ``(a, b, d)`` and
    ``(a, d, c)``, in ``(rows - 1, 2, cells per row, 3)`` order.  The
    Dirichlet boundary is the first and last row, plus the first and last
    column when the strip does not wrap.  Vertices are numbered row-major,
    so on a wrapping strip the free vertices are the interior rows and
    ``[:, :, 0]`` of that order is column 0's cells: what `radial_eigen`
    reads.
    """
    n_rows, n_cols = x.shape
    j = np.arange(n_cols if wrap else n_cols - 1)
    base = np.arange(n_rows - 1)[:, None] * n_cols
    a, b = base + j, base + (j + 1) % n_cols
    c, d = a + n_cols, b + n_cols
    tris = np.stack([np.stack([a, b, d], axis=-1), np.stack([a, d, c], axis=-1)],
                    axis=1).reshape(-1, 3)
    verts = np.stack([x.ravel(), y.ravel()], axis=1)
    boundary = np.zeros((n_rows, n_cols), dtype=bool)
    boundary[[0, -1]] = True
    if not wrap:
        boundary[:, [0, -1]] = True
    meta = {"window_length": window_length,
            "min_angle_deg": _grid_min_angle(x, y, wrap),
            "n_radii": n_rows, "n_cols": n_cols, "wrap": wrap}
    return Mesh(vertices=verts, triangles=tris, boundary=boundary.ravel(),
                meta=meta)


def _graded_rows(lo: float, hi: float, h_end: float,
                 h_max: float) -> np.ndarray:
    """Row ladder on [lo, hi] with geometric growth away from both ends.

    Cell sizes start at ``h_end`` at both ends, grow by 1.2 and are capped
    at ``h_max``.  The two ladders meet at the midpoint; when the cell
    across it is shorter than half of its larger neighbour, its two end
    rows move so that it and its two neighbours become three equal cells.
    """
    if not (lo < hi):
        raise DomainRangeError("empty interval")

    def ladder(x: float, sign: float) -> list[float]:
        nodes, s = [x], h_end
        while lo < x + sign * s < hi:
            x += sign * s
            nodes.append(x)
            s = min(s * 1.2, h_max)
        return nodes

    mid = 0.5 * (lo + hi)
    x = np.unique([v for v in ladder(lo, 1.0) if v <= mid]
                  + [v for v in ladder(hi, -1.0) if v > mid])
    j = int(np.searchsorted(x, mid, side="right"))  # x[j-1] <= mid < x[j]
    if 2 <= j <= x.size - 2:
        cells = np.diff(x[j - 2:j + 2])
        if cells[1] < 0.5 * max(cells[0], cells[2]):
            x[j - 1:j + 1] = np.linspace(x[j - 2], x[j + 1], 4)[1:3]
    return x


def mesh_truncated(dom: DomainSpec, n: int, target_h: float = 0.02) -> Mesh:
    """Graded structured mesh of the truncated domain.

    Element size shrinks geometrically (ratio 1.2) toward the truncation
    circles, resolved to ``h_min = (R - r_outer)/8``; boundary vertices are
    placed exactly on the bounding arcs.  A domain whose interior rows are
    all full circles is meshed as a full annulus from its innermost radius.
    Interior rows that mix full circles and arcs, which a strip that does not
    wrap would cut at angle 0, and a core cutoff with ``cR >= R - 1/n``
    raise `ConstructionError`.  The mesh records the log-window length used
    by the extrapolation fit, the minimal angle quality and the radius of
    each vertex row (``row_radii``).  ``n`` must be a positive integer and
    ``target_h`` positive and finite (`DomainRangeError`).
    """
    R = dom.R
    _count("truncation index n", n)
    if not 0.0 < target_h < math.inf:
        raise DomainRangeError("mesh size target_h must be positive and "
                               f"finite (got {target_h!r})")
    if not (1.0 / n < R - 1.0 / n):
        raise ConstructionError(f"truncation n={n} empties the domain")
    if dom.cusp is not None:
        return _mesh_cusp_tip(dom, n, target_h)

    r_in, r_out = 1.0 / n, R - 1.0 / n
    if dom.kind is DomainKind.CORE_CUTOFF:
        r_in = max(r_in, dom.params["c"] * R)
    if not r_in < r_out:
        raise ConstructionError(f"truncation n={n} leaves nothing above the "
                                f"core cutoff c={dom.params['c']}")
    h_min = 1.0 / (8.0 * n)
    radii = _graded_rows(r_in, r_out, min(target_h, h_min), target_h)
    if radii.size < 3:
        raise ConstructionError(
            f"truncation n={n} leaves no interior row between radii "
            f"{r_in:.6g} and {r_out:.6g}")

    lo, hi = dom.slice_arcs(radii)
    # interior rows only: the slice at the inner radius of a core cutoff is
    # empty, though the annulus above it is full
    full = (hi - lo).sum(axis=1)[1:-1] >= 2 * math.pi - 1e-12
    wrap = bool(full.all())
    if full.any() and not wrap:
        raise ConstructionError(
            "structured meshing needs all interior rows full circles or none "
            f"(first partial row at r={float(radii[1 + np.argmin(full)])})")
    if wrap:
        n_cols = max(16, int(math.ceil(2 * math.pi * R / target_h)))
        theta = np.arange(n_cols) * (2 * math.pi / n_cols)
    else:
        counts = (hi > lo).sum(axis=1)
        # an arc over the cut at angle 0 is stored as [0, h) and [l, 2 pi):
        # one strip [l - 2 pi, h]
        over_cut = ((counts == 2) & (lo[:, 0] == 0.0)
                    & (hi.max(axis=1) == 2 * math.pi))
        bad = (counts != 1) & ~over_cut
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConstructionError(
                "structured meshing needs a single arc per radius "
                f"(got {counts[i]} at r={float(radii[i])})")
        lo = np.where(over_cut, lo.max(axis=1) - 2 * math.pi, lo[:, 0])
        hi = hi[:, 0]
        max_arc = float(np.max((hi - lo) * radii))
        n_cols = max(9, int(math.ceil(max_arc / target_h)) + 1)
        theta = np.linspace(lo, hi, n_cols, axis=1)

    t_in = math.log(R / r_in)
    t_out = -math.log1p(-1.0 / (n * R))
    mesh = _strip_mesh(radii[:, None] * np.cos(theta),
                       radii[:, None] * np.sin(theta), wrap,
                       math.log(t_in / t_out))
    mesh.meta["row_radii"] = radii
    return mesh


def _mesh_cusp_tip(dom: DomainSpec, n: int, target_h: float) -> Mesh:
    """Tip-frame mesh of the calibrated cusp.

    The outer truncation |x| <= 1 - 1/n is realized by the radial cut
    ``rho >= rho_c(n)``, the exact envelope radius of the cut over the cone
    slice; the inner truncation is vacuous for this domain.
    """
    prof = dom.cusp
    sa = math.sin(prof.a)
    disc = sa * sa - 2.0 / n + 1.0 / (n * n)
    if disc <= 0:
        raise ConstructionError(f"truncation n={n} too coarse for the cusp")
    rho_c = sa - math.sqrt(disc)
    if rho_c >= prof.r0:
        raise ConstructionError(f"truncation n={n} empties the cusp")
    n_rows = max(12, int(math.ceil(math.log(prof.r0 / rho_c) / math.log(1.15))))
    rho = np.geomspace(rho_c, prof.r0, n_rows)
    n_cols = max(33, int(math.ceil(
        (math.pi - 2 * prof.a) / (2.0 * target_h))) + 1)
    a_rho = prof.a_of_r(rho)
    x, y = tip_to_xy(rho[:, None],
                     np.linspace(a_rho, math.pi - a_rho, n_cols, axis=1))
    return _strip_mesh(x, y, False, math.log(prof.r0 / rho_c))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

_QUAD_MID = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
# mid-edge points of the four red sub-triangles, in barycentric coordinates
# of the parent
_QUAD_SUB = _QUAD_MID @ np.array([
    [[1, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5]],
    [[0.5, 0.5, 0], [0, 1, 0], [0, 0.5, 0.5]],
    [[0.5, 0, 0.5], [0, 0.5, 0.5], [0, 0, 1]],
    [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]],
])
# the 12 points hold 9 distinct rows: each interior edge of the red
# refinement is an edge of a corner sub-triangle and of the centre one
_SUB_ROWS, _SUB_SLOTS = np.unique(_QUAD_SUB.reshape(12, 3), axis=0,
                                  return_inverse=True)
# products phi_i phi_j at each point of a rule, flattened to (q, 9): an
# element's weighted mass is its weights (nt, q) times this table
_OUTER_MID = np.einsum("qi,qj->qij", _QUAD_MID, _QUAD_MID).reshape(3, 9)
_OUTER_SUB = np.einsum("sqi,sqj->sqij", _QUAD_SUB, _QUAD_SUB).reshape(4, 3, 9)


def _weight_at(bary: np.ndarray, pts: np.ndarray, wp: WeightParams
               ) -> np.ndarray:
    """Weight at barycentric points ``bary`` (q, 3) of triangles ``pts``
    (nt, 3, 2); (nt, q).  Each point is formed and weighed on its own, so
    equal rows of ``bary`` give equal weights."""
    # vertex by vertex in plain float arithmetic: a BLAS product rounds
    # differently and moves some points by an ulp, which moves the weighted
    # mass next to the cusp tip by 7e-13 of its largest entry
    b, v = bary.T[:, :, None, None], np.ascontiguousarray(
        pts.transpose(1, 2, 0))
    qp = b[0] * v[0]
    qp += b[1] * v[1]
    qp += b[2] * v[2]
    radii = np.hypot(qp[:, 0], qp[:, 1])           # (q, nt)
    if np.any(radii <= 0.0) or np.any(radii >= wp.R):
        raise AssemblyError("element crosses a singular circle of the weight")
    return weight_eval(wp, radii).T


def _sub_weights(pts: np.ndarray, wp: WeightParams) -> np.ndarray:
    """Weight at the 12 `_QUAD_SUB` points of triangles ``pts`` (nt, 3, 2),
    as (nt, 4, 3): the 9 distinct points weighed once each and gathered."""
    return _weight_at(_SUB_ROWS, pts, wp)[:, _SUB_SLOTS.ravel()].reshape(
        -1, 4, 3)


def assemble(mesh: Mesh, wp: WeightParams
             ) -> tuple[np.ndarray, np.ndarray]:
    """Element stiffness and weighted-mass matrices for P1 elements, each
    (nt, 3, 3) with ``[t, i, j]`` the coupling of ``triangles[t, i]`` to
    ``triangles[t, j]``; the global matrices are their sums over triangles.

    Triangles may have either orientation.  The stiffness is exact per
    triangle; the weighted mass uses the mid-edge (degree-2) rule, with one
    extra subdivision level on elements touching the truncation rows where
    the weight varies fastest.
    """
    if wp.N != 2:
        raise DomainRangeError("assembly implements the planar case N = 2")
    verts, tris = mesh.vertices, mesh.triangles
    p = verts[tris]                            # (nt, 3, 2)
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    area2 = e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0])
    if np.any(area2 == 0.0):
        raise AssemblyError("degenerate triangle")
    area = 0.5 * np.abs(area2)

    # each of the six distinct products e_i . e_j once, mirrored: the sum
    # u0 v0 + u1 v1 is the same float in either order
    e = (e0, e1, e2)
    area4 = 4.0 * area
    k_local = np.empty((tris.shape[0], 3, 3))
    for i in range(3):
        for j in range(i, 3):
            k_local[:, i, j] = (e[i][:, 0] * e[j][:, 0]
                                + e[i][:, 1] * e[j][:, 1]) / area4
            k_local[:, j, i] = k_local[:, i, j]

    w_mid = _weight_at(_QUAD_MID, p, wp)
    # refine quadrature (4 sub-triangles) on elements whose mid-edge weights
    # vary strongly -- these sit against the truncation circles
    refine = w_mid.max(axis=1) / w_mid.min(axis=1) > 1.02
    m_local = np.empty((tris.shape[0], 9))
    plain = ~refine
    m_local[plain] = (w_mid[plain] @ _OUTER_MID) * (area[plain, None] / 3.0)
    if np.any(refine):
        idx = np.where(refine)[0]
        w_sub = _sub_weights(p[idx], wp)
        scale = area[idx, None] / 12.0
        m_ref, term = np.zeros((idx.size, 9)), np.empty((idx.size, 9))
        # one sub-triangle at a time: a single 12-point product rounds
        # differently, and the window fit turns that into 1e-11 of the estimate
        for k, outer in enumerate(_OUTER_SUB):
            np.matmul(w_sub[:, k], outer, out=term)
            term *= scale
            m_ref += term
        m_local[idx] = m_ref
    if not (np.all(np.isfinite(k_local)) and np.all(np.isfinite(m_local))):
        raise AssemblyError("non-finite element matrix")
    return k_local, m_local.reshape(-1, 3, 3)


# grid offsets (row, column) in its cell of each vertex of the cell's two
# triangles, (a, b, d) and (a, d, c), as `_strip_mesh` orders them
_CELL_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))


def _strip_stencil(local: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Sum of the element matrices ``local`` (nt, 3, 3) of a `_strip_mesh`
    on a ``(rows, cols)`` vertex grid whose cells do not wrap (``cols - 1``
    per row), as ``(rows, cols, 3, 3)`` couplings: ``[i, j, t, s]`` is
    vertex ``(i, j)``'s to vertex ``(i + t - 1, j + s - 1)``.

    One slice-add per triangle of a cell and pair of its vertices.  An edge
    coupling sums the two triangles beside it, in either order the same
    float; a vertex's own entry sums up to six terms in this fixed order.
    """
    out = np.zeros((rows, cols, 3, 3))
    cells = local.reshape(rows - 1, 2, cols - 1, 3, 3)
    for t, corners in enumerate(_CELL_CORNERS):
        for p, (ip, jp) in enumerate(corners):
            for q, (iq, jq) in enumerate(corners):
                out[ip:ip + rows - 1, jp:jp + cols - 1,
                    iq - ip + 1, jq - jp + 1] += cells[:, t, :, p, q]
    return out


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

def _lower_end(d: float) -> float:
    """The shift ``(1 - 1e-9) d`` at which a certificate factors ``K - s M``:
    the proven lower end of the bracket whose upper end is ``d``."""
    return (1.0 - _CERT_MARGIN) * d


def _band_product(band: np.ndarray):
    """``x -> A x`` for the symmetric matrix whose lower band is ``band``
    (``band[i - j, j] = a[i, j]``), read on its nonzero diagonals only.
    Each row is summed in ascending column order, as a CSR product sums it:
    summed main diagonal first, the Rayleigh quotients of a 96-level sweep
    strayed up to 7.9e-15 from their long-double values, in this order up
    to 5.5e-15."""
    n = band.shape[1]
    diagonals = [(d, np.ascontiguousarray(band[d, :n - d]))
                 for d in np.flatnonzero(band.any(axis=1)) if d]
    main = np.ascontiguousarray(band[0])

    def product(x: np.ndarray) -> np.ndarray:
        y = np.zeros(n)
        for d, b in reversed(diagonals):
            y[d:] += b * x[:n - d]
        y += main * x
        for d, b in diagonals:
            y[:n - d] += b * x[d:]
        return y

    return product


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` by numpy's own loop.  OpenBLAS threads ``ddot`` above
    10,000 entries, and right after a threaded factorization each such call
    cost about 2 ms at 16,128 (cone(0.7), n = 32, h = 0.01, 2 CPUs), more
    than the solve it follows."""
    return float(np.einsum("i,i", a, b))


def _shift_invert_lanczos(factor: np.ndarray, mmul, n: int, shift: float
                          ) -> tuple[np.ndarray, int]:
    """Eigenvector of the largest eigenvalue ``1/(d - sigma)`` of ``(K -
    sigma M)^{-1} M`` and the number of solves taken, by Lanczos in the
    ``M`` inner product.

    Each step solves once with the band Cholesky ``factor`` of ``K - sigma
    M`` and forms one ``M`` product (``mmul``); the new vector is
    orthogonalized against the two before it and then, once more, against
    the whole stored basis.  After each step the tridiagonal's largest pair
    ``(theta, s)`` gives the Ritz vector ``y`` and the estimate ``rho =
    |s_last| |M w| / (theta |M y|)``, with ``w`` the unnormalized next
    Lanczos vector, divided by ``1 + sigma theta``.  ``x = (K - sigma
    M)^{-1} M y`` satisfies ``K x - d M x = -(s_last / theta) M w`` at ``d =
    sigma + 1/theta`` (``sigma`` is ``shift``), and ``K x = M y + sigma M
    x`` with ``M x`` close to ``theta M y``, so ``|K x|`` is about ``|M y|
    d / (d - sigma) = |M y| (1 + sigma theta)``: ``rho`` is the relative
    residual of ``x`` at any shift, and at ``sigma = 0`` the division by 1
    leaves its bits as they were.
    Once ``rho`` is at most ``_RITZ_TOL``, or the basis spans all ``n``
    unknowns, ``x`` is returned: the closing solve also clears
    the rounding that the Ritz combination leaves where the eigenvector is
    far below its maximum, as in a cusp's tip.  A full basis of
    ``_LANCZOS_BASIS`` vectors restarts thick (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000, with one kept vector): it keeps ``y`` with
    ``theta`` and the next vector ``w / beta``, coupled to ``y`` by
    ``s_last beta``, so the projected matrix stays tridiagonal.  The start
    vector is all ones, so results are deterministic.  `NonConvergenceError`
    is raised after ``_LANCZOS_STEPS`` steps.
    """
    size = min(_LANCZOS_BASIS, n)
    basis, m_basis = np.empty((size, n)), np.empty((size, n))
    alpha, beta = np.empty(size), np.empty(size)
    v = np.ones(n)
    mv = mmul(v)
    norm = math.sqrt(_dot(v, mv))
    basis[0], m_basis[0] = v / norm, mv / norm
    j = 0
    for step in range(1, _LANCZOS_STEPS + 1):
        q, mq = basis[j], m_basis[j]
        w = dpbtrs(factor, mq, lower=1)[0]
        alpha[j] = _dot(mq, w)
        w -= alpha[j] * q
        if j:
            w -= beta[j - 1] * basis[j - 1]
        c = m_basis[:j + 1] @ w
        w -= c @ basis[:j + 1]
        alpha[j] += c[j]
        mw = mmul(w)
        beta[j] = math.sqrt(max(_dot(w, mw), 0.0))
        # LAPACK wants one off-diagonal entry even for a 1 x 1 matrix
        theta, z, info = dstev(alpha[:j + 1], beta[:max(j, 1)], compute_v=1)
        if info != 0:
            raise NumericalError(f"tridiagonal eigen solve failed (dstev "
                                 f"info={info})")
        s = z[:, -1]
        my = s @ m_basis[:j + 1]
        rho = (abs(s[-1]) * math.sqrt(_dot(mw, mw) / _dot(my, my))
               / theta[-1] / (1.0 + shift * theta[-1]))
        if rho <= _RITZ_TOL or j + 1 == n:
            return dpbtrs(factor, my, lower=1)[0], step + 1
        b = beta[j]
        if j + 1 == size:
            # thick restart: keep the Ritz pair; since A y = theta y +
            # s_last w, the next vector couples to y by s_last beta
            basis[0], m_basis[0] = s @ basis, my
            alpha[0], beta[0] = theta[-1], s[-1] * b
            j = 0
        basis[j + 1], m_basis[j + 1] = w / b, mw / b
        j += 1
    raise NonConvergenceError(
        f"shift-invert Lanczos did not reach tol={_RITZ_TOL} in "
        f"{_LANCZOS_STEPS} solves",
        {"iterations": _LANCZOS_STEPS, "residual_estimate": float(rho)})


def smallest_eigen(k_band: np.ndarray, m_band: np.ndarray,
                   interior: np.ndarray, nv: int,
                   shift: float = 0.0) -> EigenResult:
    """Smallest generalized eigenpair by shift-invert Lanczos on a band
    Cholesky factor.

    ``k_band`` and ``m_band`` are the lower bands of ``K`` and ``M`` over
    the free (non-Dirichlet) unknowns in LAPACK storage, ``band[i - j, j] =
    a[i, j]`` for ``n`` unknowns, with zeros past the matrix corner;
    ``interior`` holds those unknowns' distinct indices among the ``nv``
    mesh vertices, in the bands' order.  The bands are cut to the width
    ``kd`` of the last diagonal nonzero in either.

    A ``shift`` above 0 is tried first: LAPACK ``dpbtrf`` factors the band
    of ``K - shift M``, and success proves by Sylvester's law of inertia
    that every eigenvalue lies above ``shift``, so the loop still converges
    to the smallest pair only (``oned._smallest_pair``'s rule).  A refused
    shift, or none, factors ``K`` at shift 0, operation for operation as
    without one.  The shift in use is the result's ``shift``;
    ``iterations`` counts the ``dpbtrs`` solves with its factor and
    ``fill`` the factor's entries, ``n (kd + 1) - kd (kd + 1) / 2``.  A
    strip's interior grid raveled along its shorter axis (`_band_order`)
    has ``kd = min(rows, cols) - 1``.  The Lanczos loop is
    `_shift_invert_lanczos`; its ``M`` products read only the nonzero
    diagonals of the band of ``M`` (four on a strip: the main one, a row
    step, a column step and a cell diagonal).  The returned
    vector is embedded with zeros elsewhere, normalized to unit weighted
    mass and sign-normalized to nonnegative mean.  The residual is the
    relative 2-norm ``|Kx - d Mx| / |Kx|`` at the Rayleigh quotient ``d``;
    it must reach ``_TOL`` (1e-10).

    Certificate: after the gate, ``K - (1 - 1e-9) d M`` must factor by
    ``dpbtrf``.  By Sylvester's law of inertia no eigenvalue then lies at or
    below ``(1 - 1e-9) d``, so the smallest eigenvalue lies in
    ``((1 - 1e-9) d, d]``; otherwise, as when ``K`` itself is not positive
    definite, `NumericalError` is raised.  The certificate and the gate,
    not the loop's stop rule, prove the answer.
    """
    idx = np.asarray(interior)
    distinct = (idx.ndim == 1 and idx.dtype.kind in "iu"
                and bool(np.all((0 <= idx) & (idx < nv))))
    if distinct:
        seen = np.zeros(nv, dtype=bool)
        seen[idx] = True
        distinct = np.count_nonzero(seen) == idx.size
    if not distinct:
        raise DomainRangeError(
            f"interior must be distinct row indices in [0, {nv}) (got "
            f"{idx.dtype} of shape {idx.shape})")
    n = idx.size
    if not (k_band.ndim == 2 and k_band.shape == m_band.shape
            and k_band.shape[1] == n):
        raise DomainRangeError(
            f"bands of shape {k_band.shape} and {m_band.shape} do not hold "
            f"{n} unknowns")
    if n < 2:
        raise NonConvergenceError("eigen solve needs two free unknowns",
                                  {"iterations": 0, "unknowns": int(n)})
    kd = int(max(np.flatnonzero(band.any(axis=1)).max(initial=0)
                 for band in (k_band, m_band)))
    k_band, m_band = k_band[:kd + 1], m_band[:kd + 1]
    kmul, mmul = _band_product(k_band), _band_product(m_band)
    info = 1
    if shift > 0.0:
        factor, info = dpbtrf(k_band - shift * m_band, lower=1,
                              overwrite_ab=1)
    if info != 0:
        shift = 0.0
        factor, info = dpbtrf(k_band, lower=1)
        if info != 0:
            raise NumericalError("stiffness block is not positive definite "
                                 f"(dpbtrf info={info})")
    fill = n * (kd + 1) - kd * (kd + 1) // 2
    x, solves = _shift_invert_lanczos(factor, mmul, n, shift)

    def embed(v):
        full = np.zeros(nv)
        full[idx] = v
        return full

    res = _gated_result(x, kmul, mmul, embed, solves, fill, "shift_invert")
    res.shift = float(shift)
    lower = _lower_end(res.value)
    _, info = dpbtrf(k_band - lower * m_band, lower=1, overwrite_ab=1)
    if info != 0:
        raise NumericalError(
            f"an eigenvalue lies at or below {lower:.17g}, under the Lanczos "
            f"d={res.value:.17g} (dpbtrf info={info})")
    return res


def _gated_result(x: np.ndarray, kmul, mmul, embed, iterations: int,
                  fill: int, solver: str) -> EigenResult:
    """Normalize the free vector ``x`` to unit weighted mass, take its
    Rayleigh quotient ``d``, gate the residual ``|Kx - d Mx| / |Kx|`` at
    ``_TOL`` and map ``x`` and its density ``x * Mx`` onto the mesh vertices
    by ``embed``, the vector with nonnegative mean.  ``kmul`` and ``mmul``
    are the products with ``K`` and ``M``."""
    x = x / math.sqrt(x @ mmul(x))
    kx, mx = kmul(x), mmul(x)
    value = float(x @ kx)
    rnorm = float(np.linalg.norm(kx - value * mx) / np.linalg.norm(kx))
    if not rnorm <= _TOL:
        raise NonConvergenceError(
            f"eigen residual {rnorm:.3g} above tol={_TOL}",
            {"iterations": iterations, "residual": rnorm, "value": value})
    full = embed(x)
    density = full * embed(mx)
    if np.sum(full) < 0:
        full = -full
    return EigenResult(value=value, vector=full, density=density,
                       iterations=iterations, residual=rnorm, fill=fill,
                       solver=solver)


def radial_eigen(mesh: Mesh, wp: WeightParams) -> EigenResult:
    """Smallest generalized eigenpair of a wrapping strip, in its radial mode.

    A wrapping strip (the ball, the core cutoff) has a uniform angle grid,
    the same triangle split in every column and a radial weight, so column
    ``j``'s elements are column 0's rotated by ``j``: over the free rows
    ``K`` and ``M`` are block-circulant, and each Fourier mode ``k`` in the
    angle spans an invariant subspace.  Only column 0's ``2 (rows - 1)``
    triangles are assembled.  Their stencil (`_strip_stencil`) spans vertex
    columns 0 and 1, and column 1's couplings are column 0's from the cells
    to its left, rotated; the sum of the two columns is free row ``i``'s
    couplings ``coef[i, t, s]`` to row ``i + t - 1`` at column offset
    ``s - 1``.  The radial mode ``k = 0`` is the m x m problem ``K0 = P^T K
    P / n_cols`` (``coef`` summed over ``s``; ``P`` broadcasts each interior
    row to its columns), ``M0`` alike; a dense ``eigh`` gives its smallest
    pair ``(d0, u)``.

    Certificate: ``K0 - (1 - 1e-9) d0 M0`` must factor as ``L D L^T`` with
    positive pivots (LAPACK ``dpttrf``), and for every ``k = 1 ..
    n_cols // 2`` (``n_cols - k`` is the conjugate mode) so must the
    Hermitian tridiagonal symbol of ``K - d0 M``, ``coef`` weighted by
    ``exp(2 pi i k (s - 1) / n_cols)``.  One ``zpttrf`` call factors all
    those symbols as one block-diagonal matrix with zero couplings between
    the blocks, so each block's pivots are its own; the first failing pivot
    names its mode.  By Sylvester's inertia law no eigenvalue of the strip
    then lies at or below ``(1 - 1e-9) d0``, so the smallest lies in
    ``((1 - 1e-9) d0, d0]``, the bracket that `smallest_eigen` proves;
    otherwise `NumericalError` is raised.

    The residual gate of `smallest_eigen` is taken on ``K0``, ``M0`` and
    ``u``; it equals the strip's own, since ``K P u = P K0 u``.  The vector
    is ``u`` broadcast to every column with unit weighted mass on the strip
    and the sign rule of `smallest_eigen`; ``iterations`` and ``fill`` are
    0.  A mesh that does not wrap raises `DomainRangeError`.
    """
    if not mesh.meta.get("wrap"):
        raise DomainRangeError("radial_eigen needs a wrapping strip mesh")
    rows, n_cols = mesh.meta["n_radii"], mesh.meta["n_cols"]
    cell = Mesh(mesh.vertices, mesh.triangles.reshape(
        rows - 1, 2, n_cols, 3)[:, :, 0].reshape(-1, 3), mesh.boundary)
    kc, mc = (_strip_stencil(local, rows, 2).sum(axis=1)[1:-1]
              for local in assemble(cell, wp))
    k0, m0 = kc.sum(axis=2), mc.sum(axis=2)
    K0, M0 = (np.diag(c[:, 1]) + np.diag(c[:-1, 2], 1) + np.diag(c[1:, 0], -1)
              for c in (k0, m0))
    (d0,), u = eigh(K0, M0, subset_by_index=[0, 0])
    shift = _lower_end(d0)
    _, _, info = dpttrf(k0[:, 1] - shift * m0[:, 1],
                        k0[:-1, 2] - shift * m0[:-1, 2])
    if info != 0:
        raise NumericalError(
            f"the radial mode has an eigenvalue at or below {shift:.17g}, "
            f"under d0={d0:.17g} (dpttrf info={info})")

    k = np.arange(1, n_cols // 2 + 1)
    # (m, 3, modes): row i's coupling to rows i-1, i, i+1 in mode k
    symbol = (kc - d0 * mc) @ np.exp(2j * math.pi / n_cols
                                      * np.outer([-1, 0, 1], k))
    m = symbol.shape[0]
    off = np.zeros((k.size, m), dtype=complex)
    off[:, :-1] = symbol[:-1, 2].T
    _, _, info = zpttrf(symbol[:, 1].real.T.ravel(), off.ravel()[:-1])
    if info != 0:
        raise NumericalError(
            f"angular mode k={(info - 1) // m + 1} has an eigenvalue at or "
            f"below the radial d0={d0:.17g} (zpttrf info={info})")
    scale = 1.0 / math.sqrt(n_cols)
    return _gated_result(u[:, 0], K0.dot, M0.dot, lambda v: np.repeat(
        np.r_[0.0, v, 0.0], n_cols) * scale, 0, 0, "radial")


def _band_order(mesh: Mesh) -> np.ndarray:
    """Free vertices of a strip that does not wrap in band order: the
    interior grid ``[1:-1, 1:-1]`` raveled along its shorter axis, so every
    triangle joins vertices at most ``min(rows, cols) - 1`` apart."""
    rows, cols = mesh.meta["n_radii"], mesh.meta["n_cols"]
    grid = np.arange(rows * cols).reshape(rows, cols)[1:-1, 1:-1]
    return (grid if cols <= rows else grid.T).ravel()


def _strip_band(mesh: Mesh, local: np.ndarray) -> np.ndarray:
    """Lower band, in LAPACK storage, of the sum of the element matrices
    ``local`` of a strip that does not wrap, over its free vertices in
    `_band_order`; (kd + 1, n) with ``kd = min(rows, cols) - 1``.

    The interior of the strip's stencil (`_strip_stencil`), transposed when
    the band order runs down the columns, holds each free vertex's
    couplings to its grid neighbours.  Raveled along rows of ``q`` free
    vertices, a vertex's later neighbours lie 1 (next in its row), ``q``
    (next row) and ``q + 1`` (the cell diagonal) after it.  A coupling to a
    boundary vertex is left out, and so are the entries past the corner.
    """
    rows, cols = mesh.meta["n_radii"], mesh.meta["n_cols"]
    s = _strip_stencil(local, rows, cols)[1:-1, 1:-1]
    if cols > rows:
        s = s.transpose(1, 0, 3, 2)
    p, q = s.shape[:2]
    band = np.zeros((p, q, q + 2))
    band[:, :, 0] = s[:, :, 1, 1]
    band[:, :-1, 1] = s[:, :-1, 1, 2]
    band[:-1, :, q] = s[:-1, :, 2, 1]
    band[:-1, :-1, q + 1] = s[:-1, :-1, 2, 2]
    return band.reshape(p * q, q + 2).T


def solve_truncated(dom: DomainSpec, n: int, target_h: float = 0.02,
                    shift: float = 0.0) -> tuple[EigenResult, Mesh]:
    """Mesh and solve one truncation level: a wrapping strip from column 0's
    triangles (`radial_eigen`, which has no use for ``shift``), any other
    assembled in full and solved by `smallest_eigen` from ``shift`` on the
    bands of its free vertices in band order (`_strip_band`,
    `_band_order`)."""
    mesh = mesh_truncated(dom, n, target_h)
    wp = WeightParams(R=dom.R, N=2)
    if mesh.meta["wrap"]:
        return radial_eigen(mesh, wp), mesh
    k_band, m_band = (_strip_band(mesh, local) for local in assemble(mesh, wp))
    return smallest_eigen(k_band, m_band, _band_order(mesh),
                          mesh.num_vertices, shift), mesh


# ---------------------------------------------------------------------------
# Extrapolation and concentration report
# ---------------------------------------------------------------------------

def _mass_fractions(mesh: Mesh, density: np.ndarray, widths: tuple,
                    R: float) -> list[tuple[float, float]]:
    """Weighted-mass fractions in {|x| < w} and {|x| > R - w}, per width w,
    summed from the per-vertex density ``x * (M x)`` of `EigenResult`.

    A polar strip's vertex is placed by its row's radius, so a row that sits
    on a width boundary is counted whole; the ``hypot`` of its vertices
    differs by an ulp from column to column.  Tip-frame meshes have no such
    rows and use ``hypot``.
    """
    rows = mesh.meta.get("row_radii")
    radii = (np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
             if rows is None else np.repeat(rows, mesh.meta["n_cols"]))
    total = float(np.sum(density))
    return [(float(np.sum(density[radii < w])) / total,
             float(np.sum(density[radii > R - w])) / total) for w in widths]


@dataclass
class ConstantEstimate:
    estimate: float
    method: str                   # "window_fit" or "last"
    per_n: list
    fit: dict | None
    warnings: list
    mesh: Mesh                    # finest truncation level
    vector: np.ndarray            # its eigenvector, on mesh.vertices


def extrapolate_constant(dom: DomainSpec, schedule,
                         target_h: float = 0.02) -> ConstantEstimate:
    """Solve the truncation schedule, a non-empty, strictly increasing run
    of positive integers, and extrapolate the best constant.

    ``per_n`` holds one record per level: ``d_n`` and the certified lower end
    ``d_n_lower = (1 - 1e-9) d_n`` of its bracket, solve and mesh statistics
    (``shift`` is the certified Lanczos shift the solve ran at, 0.0 when none
    was tried or it was refused),
    the collar fractions in {|x| < 2/n} and {|x| > R - 2/n}, and the anchor
    fractions at the first level's widths (the escape-signature windows).
    The estimate is the log-window fit's ``C`` when the fit passes its gate
    (three levels or more, ``0 < C <= d_n + 1e-10`` and a largest misfit of
    at most ``max(1e-3, 0.02 d_n)``, at the finest ``d_n``); otherwise it is
    that ``d_n``, method ``"last"``, and a refused fit adds one warning.
    """
    ns = tuple(_count("truncation index n", n) for n in schedule)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainRangeError(
            f"schedule must be non-empty and strictly increasing (got {ns})")
    per_n = []
    for n in ns:
        # from the third level on, try the last d_n less twice the last
        # decrease: d_n lies above it unless it falls by twice that or more,
        # and smallest_eigen certifies the shift before its loop runs
        shift = 0.0
        if len(per_n) >= 2:
            d2, d1 = (row["d_n"] for row in per_n[-2:])
            shift = max(d1 - 2.0 * (d2 - d1), 0.0)
        res, mesh = solve_truncated(dom, n, target_h, shift)
        (c_in, c_out), (a_in, a_out) = _mass_fractions(
            mesh, res.density, (2.0 / n, 2.0 / ns[0]), dom.R)
        per_n.append({
            "n": n, "d_n": res.value, "d_n_lower": _lower_end(res.value),
            "window": mesh.meta["window_length"],
            "solver": res.solver, "shift": res.shift,
            "iterations": res.iterations, "fill": res.fill,
            "residual": res.residual,
            "vertices": mesh.num_vertices, "triangles": mesh.num_triangles,
            "min_angle_deg": mesh.meta["min_angle_deg"],
            "collar_inner": c_in, "collar_outer": c_out,
            "anchor_inner": a_in, "anchor_outer": a_out,
        })
    values = [row["d_n"] for row in per_n]
    rises = [(a, b) for a, b in zip(values, values[1:])
             if b > a + 100 * _TOL + 1e-9]
    warnings = [f"d_n not non-increasing ({a:.6g} -> {b:.6g}); mesh too "
                "coarse" for a, b in rises[:1]]

    # a fast geometric sequence fits the window model too, with a tiny
    # beta: the gate asks for a tight fit below the last value
    estimate, method, fit = values[-1], "last", None
    if len(per_n) >= 3:
        fit = _rate_fit(np.array([row["window"] for row in per_n]),
                        np.asarray(values))
        c, last, gate = fit["C"], values[-1], max(1e-3, 0.02 * values[-1])
        failed = [why for ok, why in (
            (0.0 < c, f"C = {c:.6g} is not positive"),
            (c <= last + _TOL, f"C = {c:.6g} lies above the finest d_n"),
            (fit["residual"] <= gate,
             f"residual {fit['residual']:.3g} above {gate:.3g}")) if not ok]
        if failed:
            warnings.append(f"window fit refused ({failed[0]}); the estimate "
                            f"is the finest d_n = {last:.6g}")
        else:
            estimate, method = c, "window_fit"
    return ConstantEstimate(estimate=estimate, method=method, per_n=per_n,
                            fit=fit, warnings=warnings, mesh=mesh,
                            vector=res.vector)
