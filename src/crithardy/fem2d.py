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
``C + beta/(window + gamma)^2`` alongside plain Aitken extrapolation and
reports both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.linalg.lapack import zpttrf
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                  splu)

from ._errors import (AssemblyError, ConstructionError, DomainRangeError,
                      NonConvergenceError, NumericalError)
from .domain import DomainKind, DomainSpec, tip_to_xy
from .oned import _rate_fit
from .weight import WeightParams, weight_eval

# relative residual the eigen solve must reach, read at call time
_TOL = 1e-10


@dataclass(frozen=True)
class TruncationSchedule:
    """Increasing truncation indices; inner/outer radii are 1/n and R - 1/n."""

    n_values: tuple
    R: float = 1.0

    def __post_init__(self):
        ns = tuple(self.n_values)
        if len(ns) < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainRangeError("schedule must be strictly increasing")
        for n in ns:
            if not (1.0 / n < self.R - 1.0 / n):
                raise DomainRangeError(f"truncation n={n} empties the domain")
        object.__setattr__(self, "n_values", ns)


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
    fill: int                     # nonzeros of the factor, nnz(L) + nnz(U)
    solver: str                   # "shift_invert" or "radial"


def _min_angle(vertices: np.ndarray, triangles: np.ndarray) -> float:
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    angs = []
    for a, b, c in ((p0, p1, p2), (p1, p2, p0), (p2, p0, p1)):
        u, v = b - a, c - a
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angs.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    return float(np.min(np.stack(angs)))


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
            "min_angle_deg": _min_angle(verts, tris),
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
    each vertex row (``row_radii``).  ``target_h`` must be positive and
    finite.
    """
    R = dom.R
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
# products phi_i phi_j at each point of a rule, flattened to (q, 9): an
# element's weighted mass is its weights (nt, q) times this table
_OUTER_MID = np.einsum("qi,qj->qij", _QUAD_MID, _QUAD_MID).reshape(3, 9)
_OUTER_SUB = np.einsum("sqi,sqj->sqij", _QUAD_SUB, _QUAD_SUB).reshape(4, 3, 9)


def _weight_at(bary: np.ndarray, pts: np.ndarray, wp: WeightParams
               ) -> np.ndarray:
    """Weight at barycentric points ``bary`` (q, 3) of triangles ``pts``
    (nt, 3, 2); (nt, q)."""
    # vertex by vertex in plain float arithmetic: a BLAS product rounds
    # differently and moves some points by an ulp, which moves the weighted
    # mass next to the cusp tip by 7e-13 of its largest entry
    qp = sum(b[:, None, None] * v for b, v in zip(
        bary.T, np.ascontiguousarray(pts.transpose(1, 2, 0))))
    radii = np.hypot(qp[:, 0], qp[:, 1])           # (q, nt)
    if np.any(radii <= 0.0) or np.any(radii >= wp.R):
        raise AssemblyError("element crosses a singular circle of the weight")
    return weight_eval(wp, radii).T


def assemble(mesh: Mesh, wp: WeightParams
             ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Stiffness and weighted-mass matrices for P1 elements.

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

    edges = np.stack([e0, e1, e2], axis=1)     # (nt, 3, 2)
    k_local = np.einsum("tid,tjd->tij", edges, edges) / (4.0 * area)[:, None, None]

    w_mid = _weight_at(_QUAD_MID, p, wp)
    # refine quadrature (4 sub-triangles) on elements whose mid-edge weights
    # vary strongly -- these sit against the truncation circles
    refine = w_mid.max(axis=1) / w_mid.min(axis=1) > 1.02
    m_local = (w_mid @ _OUTER_MID) * (area[:, None] / 3.0)
    if np.any(refine):
        idx = np.where(refine)[0]
        w_sub = _weight_at(_QUAD_SUB.reshape(12, 3), p[idx], wp).reshape(
            idx.size, 4, 3)
        scale = area[idx, None] / 12.0
        m_ref = np.zeros((idx.size, 9))
        # one sub-triangle at a time: a single 12-point product rounds
        # differently, and the window fit turns that into 1e-11 of the estimate
        for k, outer in enumerate(_OUTER_SUB):
            m_ref += (w_sub[:, k] @ outer) * scale
        m_local[idx] = m_ref
    if not (np.all(np.isfinite(k_local)) and np.all(np.isfinite(m_local))):
        raise AssemblyError("non-finite element matrix")

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    nv = verts.shape[0]
    stiffness = sparse.coo_matrix(
        (k_local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    weighted_mass = sparse.coo_matrix(
        (m_local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return stiffness, weighted_mass


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

def smallest_eigen(stiffness: sparse.spmatrix, weighted_mass: sparse.spmatrix,
                   interior: np.ndarray) -> EigenResult:
    """Smallest generalized eigenpair by shift-invert Lanczos (ARPACK).

    The shift is 0: ``K`` is factored once, with diagonal pivots;
    ``iterations`` counts the solves with that factor and ``fill`` its
    nonzeros.  The start vector is fixed, so results are deterministic.
    ``interior`` is the bool mask of the free (non-Dirichlet) unknowns, one
    entry per row of ``K``.  The returned vector is embedded with zeros
    elsewhere, normalized to unit weighted mass and sign-normalized to
    nonnegative mean.  The residual is the relative 2-norm
    ``|Kx - d Mx| / |Kx|`` at the Rayleigh quotient ``d``; it must reach
    ``_TOL`` (1e-10).
    """
    tol = _TOL
    nv = stiffness.shape[0]
    interior = np.asarray(interior)
    if interior.dtype != bool or interior.shape != (nv,):
        raise DomainRangeError(
            f"interior must be a bool mask of shape ({nv},) (got "
            f"{interior.dtype} of shape {interior.shape})")
    idx = np.flatnonzero(interior)
    if idx.size < 2:
        raise NonConvergenceError("eigen solve needs two free unknowns",
                                  {"iterations": 0, "unknowns": int(idx.size)})
    K = stiffness[np.ix_(idx, idx)].tocsc()
    # entries that cancel in assembly are stored zeros; the factor is taken
    # on the pattern of the nonzeros
    K.eliminate_zeros()
    M = weighted_mass[np.ix_(idx, idx)].tocsc()
    # K is SPD once the Dirichlet rows are gone, so diagonal pivots in a
    # symmetric order lose nothing; a minimum-degree order of K + K^T cuts
    # the fill by a quarter to a third against the default column order
    lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    fill = lu.L.nnz + lu.U.nnz
    solves = []

    def solve(b):
        solves.append(b.size)
        return lu.solve(b)

    op_inv = LinearOperator(K.shape, matvec=solve, dtype=float)
    try:
        _, vecs = eigsh(K, k=1, M=M, sigma=0.0, OPinv=op_inv, tol=tol,
                        v0=np.ones(idx.size))
    except ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"shift-invert Lanczos did not reach tol={tol}",
            {"iterations": len(solves), "message": str(exc)}) from exc
    return _gated_result(K, M, vecs[:, 0],
                         sparse.eye(nv, format="csc")[:, idx], len(solves),
                         fill, "shift_invert")


def _gated_result(K, M, x: np.ndarray, embed: sparse.spmatrix,
                  iterations: int, fill: int, solver: str) -> EigenResult:
    """Normalize the free vector ``x`` to unit weighted mass, take its
    Rayleigh quotient ``d``, gate the residual ``|Kx - d Mx| / |Kx|`` at
    ``_TOL`` and map ``x`` and its density ``x * Mx`` onto the mesh vertices
    by ``embed``, the vector with nonnegative mean."""
    x = x / math.sqrt(x @ (M @ x))
    kx, mx = K @ x, M @ x
    value = float(x @ kx)
    rnorm = float(np.linalg.norm(kx - value * mx) / np.linalg.norm(kx))
    if not rnorm <= _TOL:
        raise NonConvergenceError(
            f"eigen residual {rnorm:.3g} above tol={_TOL}",
            {"iterations": iterations, "residual": rnorm, "value": value})
    full = embed @ x
    density = full * (embed @ mx)
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
    triangles are assembled; with their copy one column to the left they
    give free row ``i``'s couplings ``coef[i, t, s]`` to row ``i + t - 1``
    at column offset ``s - 1``.  The radial mode ``k = 0`` is the m x m
    problem ``K0 = P^T K P / n_cols`` (``coef`` summed over ``s``; ``P``
    broadcasts each interior row to its columns), ``M0`` alike; a dense
    ``eigh`` gives its smallest pair ``(d0, u)``.

    Certificate: for every ``k = 1 .. n_cols // 2`` (``n_cols - k`` is the
    conjugate mode) the Hermitian tridiagonal symbol of ``K - d0 M``, ``coef``
    weighted by ``exp(2 pi i k (s - 1) / n_cols)``, must factor as
    ``L D L^H`` with positive pivots (LAPACK ``zpttrf``).  By Sylvester's
    inertia law no other mode then has an eigenvalue at or below ``d0``;
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

    def stencil(a):
        c = a.tocoo()
        (i, j), (i2, j2) = np.divmod(c.row, n_cols), np.divmod(c.col, n_cols)
        coef = np.zeros((rows, 3, 3))
        np.add.at(coef, (i, i2 - i + 1, j2 - j + 1), c.data)
        return coef[1:-1]

    kc, mc = (stencil(a) for a in assemble(cell, wp))
    K0, M0 = (np.diag(c[:, 1]) + np.diag(c[:-1, 2], 1) + np.diag(c[1:, 0], -1)
              for c in (kc.sum(axis=2), mc.sum(axis=2)))
    (d0,), u = eigh(K0, M0, subset_by_index=[0, 0])

    k = np.arange(1, n_cols // 2 + 1)
    # (m, 3, modes): row i's coupling to rows i-1, i, i+1 in mode k
    symbol = (kc - d0 * mc) @ np.exp(2j * math.pi / n_cols
                                      * np.outer([-1, 0, 1], k))
    diag, off = symbol[:, 1].real, symbol[:-1, 2]
    for j in range(k.size):
        _, _, info = zpttrf(diag[:, j], off[:, j])
        if info != 0:
            raise NumericalError(
                f"angular mode k={k[j]} has an eigenvalue at or below the "
                f"radial d0={d0:.17g} (zpttrf info={info})")
    broadcast = sparse.kron(sparse.eye(rows, rows - 2, k=-1),
                            np.ones((n_cols, 1))) / math.sqrt(n_cols)
    return _gated_result(K0, M0, u[:, 0], broadcast, 0, 0, "radial")


def solve_truncated(dom: DomainSpec, n: int, target_h: float = 0.02
                    ) -> tuple[EigenResult, Mesh]:
    """Mesh and solve one truncation level: a wrapping strip from column 0's
    triangles (`radial_eigen`), any other assembled in full and solved by
    `smallest_eigen` on the non-boundary vertices."""
    mesh = mesh_truncated(dom, n, target_h)
    wp = WeightParams(R=dom.R, N=2)
    if mesh.meta["wrap"]:
        return radial_eigen(mesh, wp), mesh
    return smallest_eigen(*assemble(mesh, wp), interior=~mesh.boundary), mesh


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
    method: str
    per_n: list
    aitken: float | None
    fit: dict | None
    collar_report: dict
    warnings: list
    mesh: Mesh                    # finest truncation level
    vector: np.ndarray            # its eigenvector, on mesh.vertices


def _aitken(values: list[float]) -> float | None:
    if len(values) < 3:
        return None
    d0, d1, d2 = values[-3:]
    denom = (d2 - d1) - (d1 - d0)
    if denom == 0.0:
        return d2
    return d2 - (d2 - d1) ** 2 / denom


def extrapolate_constant(dom: DomainSpec, schedule,
                         target_h: float = 0.02) -> ConstantEstimate:
    """Solve the truncation schedule and extrapolate the best constant.

    Reports the raw non-increasing sequence d_n, Aitken extrapolation of the
    last three values, the log-window rate fit, and the concentration report:
    per-n collar fractions in {|x|<2/n} and {|x|>R-2/n}, plus the anchor
    collars fixed by the first schedule point (the escape-signature windows).
    """
    sched = TruncationSchedule(tuple(schedule), R=dom.R)
    n_first = sched.n_values[0]
    per_n, values, windows = [], [], []
    warnings = []
    for n in sched.n_values:
        res, mesh = solve_truncated(dom, n, target_h)
        (c_in, c_out), (a_in, a_out) = _mass_fractions(
            mesh, res.density, (2.0 / n, 2.0 / n_first), dom.R)
        per_n.append({
            "n": n, "d_n": res.value, "window": mesh.meta["window_length"],
            "solver": res.solver, "iterations": res.iterations,
            "fill": res.fill,
            "residual": res.residual,
            "vertices": mesh.num_vertices, "triangles": mesh.num_triangles,
            "min_angle_deg": mesh.meta["min_angle_deg"],
            "collar_inner": c_in, "collar_outer": c_out,
            "anchor_inner": a_in, "anchor_outer": a_out,
        })
        values.append(res.value)
        windows.append(mesh.meta["window_length"])
    for a, b in zip(values, values[1:]):
        if b > a + 100 * _TOL + 1e-9:
            warnings.append(
                f"d_n not non-increasing ({a:.6g} -> {b:.6g}); mesh too coarse")
            break

    aitken = _aitken(values)
    fit = (_rate_fit(np.asarray(windows), np.asarray(values))
           if len(values) >= 3 else None)
    # the window fit captures the logarithmic exhaustion rate; prefer it
    # whenever it reproduces the sequence tightly, otherwise fall back to
    # Aitken (fast geometric sequences fit equally well with tiny beta)
    estimate, method = values[-1], "last"
    fit_ok = (fit is not None and 0.0 < fit["C"] <= values[-1] + _TOL
              and fit["residual"] <= max(1e-3, 0.02 * values[-1]))
    if fit_ok:
        estimate, method = fit["C"], "window_fit"
    elif aitken is not None:
        estimate, method = aitken, "aitken"
    collar = {
        "anchor_n": n_first,
        "anchor_outer_path": [row["anchor_outer"] for row in per_n],
        "anchor_inner_path": [row["anchor_inner"] for row in per_n],
        "final_anchor_outer": per_n[-1]["anchor_outer"],
        "final_anchor_inner": per_n[-1]["anchor_inner"],
        "final_collar_inner": per_n[-1]["collar_inner"],
        "final_collar_outer": per_n[-1]["collar_outer"],
    }
    return ConstantEstimate(estimate=estimate, method=method, per_n=per_n,
                            aitken=aitken, fit=fit, collar_report=collar,
                            warnings=warnings, mesh=mesh, vector=res.vector)
