import math
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from crithardy import (AssemblyError, ConstructionError, DomainRangeError,
                       DomainSpec, NonConvergenceError, NumericalError,
                       WeightParams,
                       assemble, extrapolate_constant, mesh_truncated,
                       radial_eigen, smallest_eigen, solve_truncated,
                       weight_eval)
from crithardy.domain import tip_to_xy
from crithardy.fem2d import (_QUAD_MID, _QUAD_SUB, Mesh, _band_order,
                             _graded_rows, _mass_fractions, _strip_band,
                             _strip_mesh, _sub_weights, _weight_at)
from conftest import scalar_opening

WP = WeightParams(R=1.0, N=2)


def mesh_edges(mesh):
    """Unique undirected edges and the number of triangles owning each."""
    edges = np.concatenate([mesh.triangles[:, [0, 1]],
                            mesh.triangles[:, [1, 2]],
                            mesh.triangles[:, [2, 0]]])
    edges.sort(axis=1)
    return np.unique(edges, axis=0, return_counts=True)


def euler_characteristic(mesh):
    n_edges = mesh_edges(mesh)[0].shape[0]
    return mesh.num_vertices - n_edges + mesh.num_triangles


def edge_boundary(mesh):
    """Reference boundary: vertices of edges owned by exactly one triangle."""
    edges, counts = mesh_edges(mesh)
    flags = np.zeros(mesh.num_vertices, dtype=bool)
    flags[edges[counts == 1].ravel()] = True
    return flags


# (domain, n) for every structured-strip path: full circle, single arc,
# cusp tip frame, and the core cutoff meshed as a full annulus
STRIP_CASES = {
    "ball": (lambda: DomainSpec.ball(1.0), 8),
    "half_disk": (lambda: DomainSpec.half_disk(1.0), 8),
    "cone": (lambda: DomainSpec.cone(0.7), 8),
    "quadratic_cusp": (lambda: DomainSpec.quadratic_cusp(0.5), 8),
    "calibrated_cusp": (None, 16),
    "core_cutoff": (lambda: DomainSpec.ball_with_core_cutoff(0.5), 8),
}


def per_triangle_min_angle(vertices, triangles):
    """Smallest triangle angle in degrees, three angles per triangle: the
    bit-for-bit reference for the grid-edge ``min_angle_deg``."""
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


# (domain, two n) for the min-angle reference: wrapping strips (ball, core
# cutoff) and single arcs, the cusp tip frame among them
MIN_ANGLE_CASES = {
    "ball": (lambda: DomainSpec.ball(0.97), (4, 16)),
    "core_cutoff": (lambda: DomainSpec.ball_with_core_cutoff(0.5), (4, 16)),
    "half_disk": (lambda: DomainSpec.half_disk(1.0), (4, 16)),
    "cone": (lambda: DomainSpec.cone(0.7), (4, 16)),
    "quadratic_cusp": (lambda: DomainSpec.quadratic_cusp(0.5), (4, 16)),
    "calibrated_cusp": (None, (16, 1024)),
}


@pytest.fixture(params=list(STRIP_CASES))
def strip_mesh(request):
    make, n = STRIP_CASES[request.param]
    dom = (request.getfixturevalue("calibrated_cusp") if make is None
           else make())
    return mesh_truncated(dom, n, target_h=0.05)


def duffy_integral(f, tri, order=24):
    """Integral of f over a triangle by a Duffy-mapped tensor Gauss rule."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1), 0.5 * w
    u, v = np.meshgrid(x, x, indexing="ij")
    v0, v1, v2 = tri
    pts = (v0 + u[..., None] * (v1 - v0)
           + (u * v)[..., None] * (v2 - v1))
    e1, e2 = v1 - v0, v2 - v0
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0]) * u
    return float(np.sum(np.outer(w, w) * jac * f(pts)))


def einsum_assemble(mesh, wp):
    """Stiffness and weighted mass with one einsum per element rule and one
    quadrature pass per red sub-triangle: the reference for the table
    products of `assemble`."""
    p = mesh.vertices[mesh.triangles]
    e0, e1, e2 = p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]
    area = 0.5 * np.abs(e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0]))
    edges = np.stack([e0, e1, e2], axis=1)
    k_local = np.einsum("tid,tjd->tij", edges, edges) / (
        4.0 * area)[:, None, None]

    def weight_at(bary, pts):
        qp = np.einsum("qi,tid->tqd", bary, pts)
        return weight_eval(wp, np.hypot(qp[..., 0], qp[..., 1]))

    w_mid = weight_at(_QUAD_MID, p)
    refine = w_mid.max(axis=1) / w_mid.min(axis=1) > 1.02
    m_local = np.einsum("tq,qi,qj->tij", w_mid, _QUAD_MID, _QUAD_MID) * (
        area[:, None, None] / 3.0)
    idx = np.where(refine)[0]
    m_ref = np.zeros((idx.size, 3, 3))
    for qb in _QUAD_SUB:
        m_ref += np.einsum("tq,qi,qj->tij", weight_at(qb, p[idx]), qb, qb) * (
            area[idx, None, None] / 12.0)
    m_local[idx] = m_ref
    return to_csr(mesh, k_local), to_csr(mesh, m_local)


def to_csr(mesh, local):
    """The global matrix of element matrices ``local`` (nt, 3, 3): their
    COO entries summed in CSR."""
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nv = mesh.num_vertices
    return sparse.coo_matrix((local.ravel(), (rows, cols)),
                             shape=(nv, nv)).tocsr()


def assembled(mesh, wp=WP):
    """CSR stiffness and weighted mass summed from `assemble`'s element
    matrices."""
    return tuple(to_csr(mesh, local) for local in assemble(mesh, wp))


def reference_bands(K, M, interior):
    """Lower bands of the sparse ``K`` and ``M`` over the free unknowns
    ``interior``, in that order and in LAPACK storage: one position map
    sends the COO entries that couple two free unknowns to that order, and
    each band, of the width read off both patterns, is a bincount scatter
    of them.  The reference for `_strip_band`, and how the tests hand
    generic sparse matrices to `smallest_eigen`."""
    n = interior.size
    position = np.full(K.shape[0], -1)
    position[interior] = np.arange(n)
    lower = []
    for a in (K, M):
        c = a.tocoo()
        row, col = position[c.row], position[c.col]
        keep = (col >= 0) & (row >= col) & (c.data != 0.0)
        lower.append((row[keep] - col[keep], col[keep], c.data[keep]))
    kd = int(max(off.max(initial=0) for off, _, _ in lower))
    return tuple(np.bincount(off + (kd + 1) * col, weights=data,
                             minlength=(kd + 1) * n).reshape(n, kd + 1).T
                 for off, col, data in lower)


def sparse_eigen(K, M, interior):
    """`smallest_eigen` on sparse ``K`` and ``M`` by `reference_bands`."""
    interior = np.asarray(interior)
    return smallest_eigen(*reference_bands(K, M, interior), interior,
                          K.shape[0])


def strip_eigen(mesh, wp=WP):
    """`smallest_eigen` on a strip that does not wrap, as `solve_truncated`
    calls it."""
    k_band, m_band = (_strip_band(mesh, local) for local in assemble(mesh, wp))
    return smallest_eigen(k_band, m_band, _band_order(mesh), mesh.num_vertices)


def splu_eigen(K, M, interior):
    """Smallest generalized eigenpair on the free block ``interior`` (a bool
    mask) by shift-invert ARPACK on one SuperLU factor of ``K``, taken with
    diagonal pivots in a symmetric minimum-degree order: the reference for
    the band Cholesky solve of `smallest_eigen`.  The vector has unit
    weighted mass and nonnegative mean, embedded with zeros elsewhere."""
    idx = np.flatnonzero(interior)
    K = K[np.ix_(idx, idx)].tocsc()
    K.eliminate_zeros()
    M = M[np.ix_(idx, idx)].tocsc()
    lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    op_inv = LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    _, vecs = eigsh(K, k=1, M=M, sigma=0.0, OPinv=op_inv, tol=1e-10,
                    v0=np.ones(idx.size))
    x = vecs[:, 0] / math.sqrt(vecs[:, 0] @ (M @ vecs[:, 0]))
    full = np.zeros(interior.size)
    full[idx] = x
    return float(x @ (K @ x)), full if full.sum() >= 0 else -full


class TestMesh:
    def test_annulus_topology(self, ball):
        mesh = mesh_truncated(ball, 4, target_h=0.05)
        assert euler_characteristic(mesh) == 0  # annulus

    def test_half_disk_containment(self, half_disk):
        mesh = mesh_truncated(half_disk, 8, target_h=0.05)
        assert euler_characteristic(mesh) == 1  # disk-like strip
        radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert radii.min() >= 1 / 8 - 1e-12
        assert radii.max() <= 7 / 8 + 1e-12
        assert mesh.vertices[:, 1].min() >= -1e-12  # theta in [0, pi]

    @pytest.mark.parametrize("n", [16, 1024, 16384])
    def test_cusp_tip_rows_match_scalar_opening(self, n):
        dom = DomainSpec.calibrated_cusp(0.95)
        prof = dom.cusp
        mesh = mesh_truncated(dom, n)
        sa = math.sin(prof.a)
        rho_c = sa - math.sqrt(sa * sa - 2.0 / n + 1.0 / (n * n))
        rho = np.geomspace(rho_c, prof.r0, mesh.meta["n_radii"])
        th = np.array([np.linspace(a, math.pi - a, mesh.meta["n_cols"])
                       for a in (scalar_opening(prof, p) for p in rho)])
        x, y = tip_to_xy(rho[:, None], th)
        assert np.array_equal(mesh.vertices,
                              np.stack([x.ravel(), y.ravel()], axis=1))

    def test_refinement_quadruples(self, half_disk):
        coarse = mesh_truncated(half_disk, 8, target_h=0.08)
        finer = mesh_truncated(half_disk, 8, target_h=0.04)
        assert finer.num_triangles >= 2 * coarse.num_triangles

    def test_quality_reported(self, ball):
        mesh = mesh_truncated(ball, 4, target_h=0.05)
        assert 0 < mesh.meta["min_angle_deg"] <= 60.0

    @pytest.mark.parametrize("h", [0.04, 0.02])
    @pytest.mark.parametrize("kind", list(MIN_ANGLE_CASES))
    def test_min_angle_matches_per_triangle(self, kind, h, calibrated_cusp):
        make, ns = MIN_ANGLE_CASES[kind]
        dom = calibrated_cusp if make is None else make()
        for n in ns:
            mesh = mesh_truncated(dom, n, target_h=h)
            assert mesh.meta["wrap"] == (kind in ("ball", "core_cutoff"))
            want = per_triangle_min_angle(mesh.vertices, mesh.triangles)
            assert mesh.meta["min_angle_deg"].hex() == want.hex()

    def test_min_angle_sees_the_closing_cell(self):
        # a wrapping ring whose cells between the last column and column 0
        # are the thinnest: they alone set the minimal angle
        theta = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.2])
        r = np.array([1.0, 2.0, 3.0])[:, None]
        mesh = _strip_mesh(r * np.cos(theta), r * np.sin(theta), True, 1.0)
        cells = mesh.triangles.reshape(2, 2, 7, 3)  # (rows, 2, cells, 3)
        want = per_triangle_min_angle(mesh.vertices, mesh.triangles)
        assert want < per_triangle_min_angle(
            mesh.vertices, cells[:, :, :-1].reshape(-1, 3))
        assert mesh.meta["min_angle_deg"].hex() == want.hex()

    def test_min_angle_of_a_collapsed_cell_is_nan(self):
        # a non-wrapping 3 x 3 grid with one vertex moved onto its right
        # neighbour: the zero-length edge gives a 0/0 cosine
        x, y = np.meshgrid(np.arange(3.0), np.arange(3.0))
        x[1, 1] = 2.0
        with np.errstate(invalid="ignore", divide="ignore"):
            mesh = _strip_mesh(x, y, False, 1.0)
            want = per_triangle_min_angle(mesh.vertices, mesh.triangles)
        assert math.isnan(want)
        assert math.isnan(mesh.meta["min_angle_deg"])

    def test_degenerate_truncation(self, ball):
        with pytest.raises(ConstructionError, match="n=1 empties"):
            mesh_truncated(ball, 1, target_h=0.05)
        for schedule in ((4, 4), (8, 4), ()):
            with pytest.raises(DomainRangeError, match="strictly increasing"):
                extrapolate_constant(ball, schedule)

    @pytest.mark.parametrize("n", [0, -4, 4.0, 8.5, "8"])
    def test_truncation_index_must_be_a_positive_integer(self, n, ball,
                                                         calibrated_cusp,
                                                         monkeypatch):
        # n = 0 once divided by zero, and n = -4 reached the row rule
        for dom in (ball, calibrated_cusp):
            with pytest.raises(DomainRangeError,
                               match=re.escape(f"integer, got {n!r}")):
                mesh_truncated(dom, n)
        # the schedule is checked whole, before any level is solved
        from crithardy import fem2d
        monkeypatch.setattr(fem2d, "solve_truncated", None)
        with pytest.raises(DomainRangeError, match="positive integer"):
            extrapolate_constant(ball, [4, n])
        assert mesh_truncated(ball, np.int64(4)).meta["wrap"]

    def test_no_interior_row_raises(self):
        # R = 0.67, n = 3: the truncated annulus is one radial cell thick,
        # so every vertex would lie on a truncation circle
        with pytest.raises(ConstructionError, match="no interior row"):
            mesh_truncated(DomainSpec.ball(0.67), 3, target_h=0.05)
        with pytest.raises(ConstructionError):
            solve_truncated(DomainSpec.ball(0.67), 3, target_h=0.05)

    def test_boundary_flags(self, ball):
        mesh = mesh_truncated(ball, 4, target_h=0.05)
        radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        on_circle = (np.abs(radii - 0.25) < 1e-9) | (np.abs(radii - 0.75) < 1e-9)
        assert np.array_equal(mesh.boundary, on_circle)

    def test_boundary_matches_edge_count(self, strip_mesh):
        assert strip_mesh.boundary.any() and not strip_mesh.boundary.all()
        assert np.array_equal(strip_mesh.boundary, edge_boundary(strip_mesh))

    @pytest.mark.parametrize("h", [0.0, -0.02, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["ball", "cusp_tip"])
    def test_mesh_size_must_be_positive_and_finite(self, kind, h, ball,
                                                   calibrated_cusp):
        # unchecked, h = 0 divided by zero on the cusp and h = inf meshed
        # a 192-vertex ball
        dom = ball if kind == "ball" else calibrated_cusp
        with pytest.raises(DomainRangeError, match=re.escape(repr(h))):
            mesh_truncated(dom, 16, target_h=h)

    def test_core_cutoff_meshes_full_annulus(self):
        # the slice at the inner radius r = cR is empty; the rows above it
        # are full circles, so the mesh is the annulus cR < |x| < R - 1/n
        dom = DomainSpec.ball_with_core_cutoff(0.5)
        mesh = mesh_truncated(dom, 8, target_h=0.05)
        assert euler_characteristic(mesh) == 0
        radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        on_circle = ((np.abs(radii - 0.5) < 1e-9)
                     | (np.abs(radii - 0.875) < 1e-9))
        assert np.array_equal(mesh.boundary, on_circle)
        est = extrapolate_constant(dom, [4, 8, 16, 32], target_h=0.02)
        assert 0.24 <= est.estimate <= 0.26

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_full_rows_around_a_partial_band_raise(self, n):
        # full circles on [0, 0.4) and [0.45, 1), a half circle between:
        # once meshed as the full annulus, which leaves Omega
        dom = DomainSpec.angular_profile([
            (0.0, 0.4, [(0.0, 2 * math.pi)]),
            (0.4, 0.45, [(0.0, math.pi)]),
            (0.45, 1.0, [(0.0, 2 * math.pi)])])
        with pytest.raises(ConstructionError, match="full circle") as info:
            mesh_truncated(dom, n)
        r = float(re.search(r"r=([0-9.e-]+)", str(info.value)).group(1))
        assert 0.4 <= r < 0.45

    def test_core_cutoff_too_coarse_raises(self):
        # cR = 0.8 is at R - 1/n for n = 5 and above it for n = 4
        dom = DomainSpec.ball_with_core_cutoff(0.8)
        for n in (4, 5):
            with pytest.raises(ConstructionError,
                               match=f"n={n} .* core cutoff c=0.8"):
                mesh_truncated(dom, n)
        assert mesh_truncated(dom, 8).meta["wrap"]

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_arc_over_angle_zero_is_one_strip(self, n):
        # beta0 > pi/2: the inner rows' arc crosses angle 0, so the slice
        # arcs store it as two pieces
        dom = DomainSpec.quadratic_cusp(1.6)
        mesh = mesh_truncated(dom, n)
        assert euler_characteristic(mesh) == 1
        assert np.array_equal(mesh.boundary, edge_boundary(mesh))
        xy = mesh.vertices.reshape(mesh.meta["n_radii"], mesh.meta["n_cols"], 2)
        s = dom.half_widths(np.hypot(xy[:, 0, 0], xy[:, 0, 1]))
        assert np.any(s > math.pi / 2) and np.any(s < math.pi / 2)
        # the end columns sit on the arc ends pi/2 -+ s
        ends = np.arctan2(xy[:, [0, -1], 1], xy[:, [0, -1], 0])
        gap = ends - (math.pi / 2 + np.stack([-s, s], axis=1))
        np.testing.assert_allclose(np.angle(np.exp(1j * gap)), 0.0, atol=1e-12)
        # no triangle folds over: all have the same orientation
        p = mesh.vertices[mesh.triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.all(cross > 0) or np.all(cross < 0)


def sweep_row_args():
    """`_graded_rows` arguments of the wrapping-strip sweep: balls R in
    [0.9, 1.1] at h = 0.02, 0.01 and 0.04, core cutoffs c in [0.1, 0.7] at
    h = 0.02, each for n = 4, 8, 16, 32 (1296 levels)."""
    levels = ([(R, 0.0, 0.02) for R in np.linspace(0.9, 1.1, 201)]
              + [(R, 0.0, 0.01) for R in np.linspace(0.9, 1.1, 21)]
              + [(R, 0.0, 0.04) for R in np.linspace(0.9, 1.1, 41)]
              + [(1.0, c, 0.02) for c in np.linspace(0.1, 0.7, 61)])
    return [(max(1.0 / n, c * R), R - 1.0 / n, min(h, 1.0 / (8 * n)), h)
            for R, c, h in levels for n in (4, 8, 16, 32)]


def unmended_rows(lo, hi, h_end, h_max):
    """The two row ladders spliced at the midpoint with no minimum gap."""
    def ladder(x, sign):
        nodes, s = [x], h_end
        while lo < x + sign * s < hi:
            x += sign * s
            nodes.append(x)
            s = min(s * 1.2, h_max)
        return nodes

    mid = 0.5 * (lo + hi)
    return np.unique([v for v in ladder(lo, 1.0) if v <= mid]
                     + [v for v in ladder(hi, -1.0) if v > mid])


def neighbour_ratio(x):
    """Smallest ratio of a cell to its larger neighbour."""
    cells = np.diff(x)
    return float(np.min(np.minimum(cells[1:], cells[:-1])
                        / np.maximum(cells[1:], cells[:-1])))


class TestGradedRows:
    def test_splice_over_the_sweep(self):
        thin = 0
        for args in sweep_row_args():
            x = _graded_rows(*args)
            old = unmended_rows(*args)
            assert x[0] == args[0] and x[-1] == args[1]
            assert np.all(np.diff(x) > 0)
            assert neighbour_ratio(x) >= 0.5
            assert x.size == old.size
            thin += neighbour_ratio(old) < 0.5
        # the unmended splice breaks the rule on part of the sweep
        assert thin > 0

    def test_mend_makes_three_equal_cells(self):
        # ball R = 0.945, n = 32: the ladders met in a cell 8.6e-6 thin
        args = (1.0 / 32, 0.945 - 1.0 / 32, 1.0 / 256, 0.02)
        old, x = unmended_rows(*args), _graded_rows(*args)
        j = int(np.argmin(np.diff(old)))
        assert np.diff(old)[j] < 1e-5
        np.testing.assert_array_equal(np.delete(x, [j, j + 1]),
                                      np.delete(old, [j, j + 1]))
        np.testing.assert_allclose(np.diff(x[j - 1:j + 3]),
                                   (old[j + 2] - old[j - 1]) / 3, rtol=1e-12)

    def test_empty_interval_raises(self):
        with pytest.raises(DomainRangeError, match="empty interval"):
            _graded_rows(0.5, 0.5, 0.01, 0.02)


class TestAssemble:
    def test_hand_stiffness_right_triangle(self):
        # unit-leg right triangle away from the singular circles; oracle is
        # the hand-computed P1 element matrix (scale invariant)
        verts = np.array([[0.3, 0.1], [0.4, 0.1], [0.3, 0.2]])
        tris = np.array([[0, 1, 2]])
        mesh = Mesh(vertices=verts, triangles=tris,
                    boundary=np.ones(3, dtype=bool))
        K, M = assembled(mesh)
        expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                           [-0.5, 0.0, 0.5]])
        assert np.allclose(K.toarray(), expect, atol=1e-14)
        m = M.toarray()
        assert np.all(np.isfinite(m))
        assert np.array_equal(m, m.T)
        assert m.min() >= 0
        # the P1 basis sums to one, so the entries sum to the weight integral
        exact = duffy_integral(
            lambda x: weight_eval(WP, np.hypot(x[..., 0], x[..., 1])), verts)
        assert m.sum() == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("kind", ["ball", "cusp_tip"])
    def test_either_orientation(self, kind, ball, calibrated_cusp):
        if kind == "ball":
            mesh = mesh_truncated(ball, 4, target_h=0.05)
        else:
            mesh = mesh_truncated(calibrated_cusp, 16, target_h=0.05)
        p = mesh.vertices[mesh.triangles]
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        sign = np.sign(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        # the plane strips run clockwise, the tip frame counter-clockwise
        assert np.all(sign == (-1 if kind == "ball" else 1))
        flipped = Mesh(vertices=mesh.vertices,
                       triangles=mesh.triangles[:, [0, 2, 1]],
                       boundary=mesh.boundary)
        for a, b in zip(assembled(mesh), assembled(flipped)):
            assert abs(a - b).max() <= 1e-14 * abs(a).max()

    def test_constant_annihilated(self, ball):
        mesh = mesh_truncated(ball, 4, target_h=0.05)
        K, _ = assembled(mesh)
        ones = np.ones(mesh.num_vertices)
        assert np.max(np.abs(K @ ones)) < 1e-10

    def test_row_sums_zero(self, half_disk):
        mesh = mesh_truncated(half_disk, 8, target_h=0.08)
        K, _ = assembled(mesh)
        assert np.max(np.abs(np.asarray(K.sum(axis=1)).ravel())) < 1e-10

    @pytest.mark.parametrize("make, n", [
        pytest.param(lambda: DomainSpec.ball(1.0), 32, id="ball"),
        pytest.param(lambda: DomainSpec.half_disk(1.0), 32, id="half_disk"),
        pytest.param(None, 16384, id="cusp_tip"),
    ])
    def test_matches_einsum_reference(self, make, n, calibrated_cusp):
        dom = calibrated_cusp if make is None else make()
        mesh = mesh_truncated(dom, n)
        K, M = assembled(mesh)
        K_ref, M_ref = einsum_assemble(mesh, WP)
        for a, b in ((K, K_ref), (M, M_ref)):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(K.data, K_ref.data)
        # the tables round phi_i phi_j once, the einsum rounds w phi_i and
        # then multiplies by phi_j: rounding apart, the same mass
        assert np.max(np.abs(M.data - M_ref.data)) <= 1e-15 * M_ref.data.max()

    @pytest.mark.parametrize("kind, n", [("ball", 32), ("half_disk", 32),
                                         ("cusp_tip", 16384)])
    def test_sub_weights_gather_the_distinct_points(self, kind, n, ball,
                                                    half_disk,
                                                    calibrated_cusp):
        # each interior edge of the red refinement is an edge of a corner
        # sub-triangle and of the centre one: 9 distinct points among 12,
        # each weighed once and gathered, equal to weighing all 12
        assert np.unique(_QUAD_SUB.reshape(12, 3), axis=0).shape == (9, 3)
        dom = {"ball": ball, "half_disk": half_disk,
               "cusp_tip": calibrated_cusp}[kind]
        mesh = mesh_truncated(dom, n)
        p = mesh.vertices[mesh.triangles]
        want = _weight_at(_QUAD_SUB.reshape(12, 3), p, WP).reshape(-1, 4, 3)
        assert np.array_equal(_sub_weights(p, WP), want)

    def test_element_crossing_circle_raises(self):
        verts = np.array([[0.9, 0.0], [1.2, 0.0], [1.0, 0.3]])
        tris = np.array([[0, 1, 2]])
        mesh = Mesh(vertices=verts, triangles=tris,
                    boundary=np.ones(3, dtype=bool))
        with pytest.raises(AssemblyError):
            assemble(mesh, WP)


class TestStripBand:
    @pytest.mark.parametrize("make, n, shape", [
        pytest.param(None, 16, "wide", id="cusp_16"),
        pytest.param(None, 1024, "tall", id="cusp_1024"),
        pytest.param(lambda: DomainSpec.half_disk(1.0), 8, "wide",
                     id="half_disk_8"),
        pytest.param(lambda: DomainSpec.quadratic_cusp(0.5), 8, "tall",
                     id="quadratic_cusp_8"),
    ])
    def test_matches_the_reference_scatter(self, make, n, shape,
                                           calibrated_cusp):
        mesh = mesh_truncated(calibrated_cusp if make is None else make(), n)
        rows, cols = mesh.meta["n_radii"], mesh.meta["n_cols"]
        assert (rows < cols) == (shape == "wide")
        k_local, m_local = assemble(mesh, WP)
        refs = reference_bands(to_csr(mesh, k_local), to_csr(mesh, m_local),
                               _band_order(mesh))
        for local, ref in zip((k_local, m_local), refs):
            band = _strip_band(mesh, local)
            assert band.shape == ref.shape == (min(rows, cols), ref.shape[1])
            # an edge coupling sums the same two terms as CSR
            assert np.array_equal(band[1:], ref[1:])
            # a vertex's own entry sums up to six terms in another order
            assert np.all(np.abs(band[0] - ref[0])
                          <= 4 * np.spacing(np.abs(ref[0])))

    @pytest.mark.parametrize("make, ns", [
        pytest.param(None, (16, 1024, 16384), id="calibrated_cusp"),
        pytest.param(lambda: DomainSpec.half_disk(1.0), (4, 8),
                     id="half_disk"),
    ])
    def test_each_level_assembles_and_solves_once(self, make, ns,
                                                  calibrated_cusp,
                                                  monkeypatch):
        # both calls go through the module, where a tracer or a spy sees them
        from crithardy import fem2d
        calls = []
        for name in ("assemble", "smallest_eigen"):
            def spy(*args, _name=name, _real=getattr(fem2d, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(fem2d, name, spy)
        dom = calibrated_cusp if make is None else make()
        for n in ns:
            calls.clear()
            res, _ = solve_truncated(dom, n)
            assert res.solver == "shift_invert"
            assert calls == ["assemble", "smallest_eigen"]


class TestSmallestEigen:
    def test_diag(self):
        # the second step's vector is orthogonalized to zero: the basis is
        # an invariant subspace and the loop stops without dividing by it
        K = sparse.diags([2.0, 3.0]).tocsr()
        M = sparse.identity(2, format="csr")
        res = sparse_eigen(K, M, np.arange(2))
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.iterations <= 3  # two steps and the closing solve
        assert np.all(np.isfinite(res.vector))
        assert np.all(np.isfinite(res.density))

    def test_fewer_unknowns_than_the_basis_holds(self):
        # a 1-D Laplacian against a varying diagonal mass on 12 unknowns:
        # the loop stops by the time its basis spans them all
        from crithardy import fem2d
        n = 12
        assert n < fem2d._LANCZOS_BASIS
        K = sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                         [-1, 0, 1]).tocsr()
        M = sparse.diags(1.0 + np.arange(n) / n).tocsr()
        res = sparse_eigen(K, M, np.arange(n))
        (dense,), _ = eigh(K.toarray(), M.toarray(), subset_by_index=[0, 0])
        assert res.iterations <= n + 1
        assert np.all(np.isfinite(res.vector))
        assert res.value == pytest.approx(dense, rel=1e-12)

    def test_one_factor_counted_solves(self, half_disk, monkeypatch):
        from crithardy import fem2d
        mesh = mesh_truncated(half_disk, 8, target_h=0.05)
        k_band, m_band = (_strip_band(mesh, local)
                          for local in assemble(mesh, WP))
        factors, solves = [], []
        real_dpbtrf, real_dpbtrs = fem2d.dpbtrf, fem2d.dpbtrs

        def dpbtrf(ab, *args, **kwargs):
            factors.append(ab.copy())
            return real_dpbtrf(ab, *args, **kwargs)

        def dpbtrs(*args, **kwargs):
            solves.append(1)
            return real_dpbtrs(*args, **kwargs)

        monkeypatch.setattr(fem2d, "dpbtrf", dpbtrf)
        monkeypatch.setattr(fem2d, "dpbtrs", dpbtrs)
        res = smallest_eigen(k_band, m_band, _band_order(mesh),
                             mesh.num_vertices)
        # K at shift 0, then the certificate's K - (1 - 1e-9) d M
        at_zero, shifted = factors
        diag_k, diag_m = k_band[0], m_band[0]
        assert np.array_equal(at_zero, k_band)
        np.testing.assert_allclose(
            shifted[0], diag_k - (1 - 1e-9) * res.value * diag_m, rtol=1e-14)
        assert res.iterations == len(solves) > 0
        assert res.residual <= 1e-10

    def test_matches_dense_oracle(self, ball):
        mesh = mesh_truncated(ball, 4, target_h=0.1)
        K, M = assembled(mesh)
        idx = np.where(~mesh.boundary)[0]
        sub = np.ix_(idx, idx)
        dense = eigh(K[sub].toarray(), M[sub].toarray(), eigvals_only=True,
                     subset_by_index=[0, 0])
        res = sparse_eigen(K, M, idx)
        assert res.value == pytest.approx(dense[0], rel=1e-12)

    @pytest.mark.parametrize("make, n", [
        pytest.param(lambda: DomainSpec.half_disk(1.0), 4, id="half_disk"),
        pytest.param(lambda: DomainSpec.cone(0.7), 4, id="cone_0.7"),
        pytest.param(lambda: DomainSpec.quadratic_cusp(0.5), 8,
                     id="quadratic_cusp"),
        pytest.param(lambda: DomainSpec.calibrated_cusp(0.95), 64,
                     id="calibrated_cusp_0.95"),
        pytest.param(lambda: DomainSpec.ball(1.0), 4, id="ball_radial"),
    ])
    def test_bracket_holds_the_dense_value(self, make, n):
        # one level through extrapolate_constant: d_n is the Lanczos (or
        # radial) value, d_n_lower the certified lower end
        dom = make()
        est = extrapolate_constant(dom, [n], target_h=0.05)
        (row,) = est.per_n
        idx = np.flatnonzero(~est.mesh.boundary)
        K, M = assembled(est.mesh, WeightParams(R=dom.R, N=2))
        sub = np.ix_(idx, idx)
        (dense,), _ = eigh(K[sub].toarray(), M[sub].toarray(),
                           subset_by_index=[0, 0])
        assert row["solver"] == ("radial" if est.mesh.meta["wrap"]
                                 else "shift_invert")
        assert row["d_n"] == pytest.approx(dense, rel=1e-12)
        assert row["d_n_lower"] == (1 - 1e-9) * row["d_n"]
        # d_n is a Rayleigh quotient, an upper end up to the dense solve's
        # own rounding (1.3e-13 relative on the quadratic cusp)
        assert row["d_n_lower"] < dense <= row["d_n"] * (1 + 1e-12)

    @pytest.mark.parametrize("make, n, shape", [
        pytest.param(lambda: DomainSpec.half_disk(1.0), 32, "wide",
                     id="half_disk_32"),
        pytest.param(None, 16, "wide", id="cusp_16"),
        pytest.param(None, 16384, "tall", id="cusp_16384"),
    ])
    def test_band_width_is_the_short_side(self, make, n, shape,
                                          calibrated_cusp, monkeypatch):
        from crithardy import fem2d
        widths = []
        real_dpbtrf = fem2d.dpbtrf

        def dpbtrf(ab, *args, **kwargs):
            widths.append(ab.shape[0] - 1)
            return real_dpbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(fem2d, "dpbtrf", dpbtrf)
        res, mesh = solve_truncated(
            calibrated_cusp if make is None else make(), n)
        rows, cols = mesh.meta["n_radii"], mesh.meta["n_cols"]
        assert (rows < cols) == (shape == "wide")
        kd = min(rows, cols) - 1
        assert widths == [kd, kd]
        free = (rows - 2) * (cols - 2)
        assert res.fill == free * (kd + 1) - kd * (kd + 1) // 2

    @pytest.mark.parametrize("make, ns", [
        pytest.param(lambda: DomainSpec.half_disk(1.0), (4, 8),
                     id="half_disk"),
        pytest.param(lambda: DomainSpec.cone(0.7), (4, 8), id="cone_0.7"),
        pytest.param(lambda: DomainSpec.quadratic_cusp(0.5), (8, 32),
                     id="quadratic_cusp"),
        pytest.param(None, (16, 1024, 16384), id="calibrated_cusp"),
    ])
    def test_matches_splu_reference(self, make, ns, calibrated_cusp):
        dom = calibrated_cusp if make is None else make()
        wp = WeightParams(R=dom.R, N=2)
        for n in ns:
            res, mesh = solve_truncated(dom, n)
            value, vector = splu_eigen(*assembled(mesh, wp), ~mesh.boundary)
            assert res.solver == "shift_invert"
            assert res.value == pytest.approx(value, rel=1e-13)
            np.testing.assert_allclose(res.vector, vector, rtol=0,
                                       atol=1e-12 * np.abs(vector).max())

    def test_certificate_rejects_a_higher_pair(self, half_disk, monkeypatch):
        # a Lanczos loop that follows the second Ritz pair converges to the
        # second eigenpair and passes the residual gate; only the
        # certificate can tell
        from crithardy import fem2d
        real_dstev = fem2d.dstev

        def second(*args, **kwargs):
            theta, z, info = real_dstev(*args, **kwargs)
            return (theta, z, info) if theta.size < 2 else (
                theta[:-1], z[:, :-1], info)

        mesh = mesh_truncated(half_disk, 4, target_h=0.1)
        monkeypatch.setattr(fem2d, "dstev", second)
        with pytest.raises(NumericalError, match="eigenvalue lies at or below"):
            strip_eigen(mesh)

    def test_residual_above_tol_raises(self, monkeypatch):
        # the 2-norm residual cannot fall below rounding
        from crithardy import fem2d
        monkeypatch.setattr(fem2d, "_TOL", 1e-300)
        K = sparse.diags([2.0, 3.0]).tocsr()
        M = sparse.identity(2, format="csr")
        with pytest.raises(NonConvergenceError) as info:
            sparse_eigen(K, M, np.arange(2))
        assert info.value.diagnostics["iterations"] > 0

    def test_no_free_unknowns_raises(self):
        # meshing rejects such truncations; the guard serves direct callers
        K = sparse.diags([2.0, 3.0, 4.0]).tocsr()
        M = sparse.identity(3, format="csr")
        with pytest.raises(NonConvergenceError) as info:
            sparse_eigen(K, M, np.array([1]))
        assert info.value.diagnostics["unknowns"] == 1

    @pytest.mark.parametrize("interior", [
        # a mask, cast to indices, would free rows 0 and 1 only
        pytest.param(np.ones(4, dtype=bool), id="bool_mask"),
        pytest.param(np.array([0, 1, 1, 2]), id="repeated"),
        pytest.param(np.array([0, 1, 4]), id="out_of_range"),
    ])
    def test_interior_must_be_distinct_indices(self, interior):
        band = np.ones((1, interior.size))
        with pytest.raises(DomainRangeError, match="distinct row indices"):
            smallest_eigen(band, band, interior, 4)

    @pytest.mark.parametrize("k_shape, m_shape", [
        pytest.param((2, 3), (2, 3), id="fewer_columns"),
        pytest.param((2, 4), (3, 4), id="unequal_widths"),
        pytest.param((4,), (4,), id="one_dimensional"),
    ])
    def test_bands_must_hold_the_interior(self, k_shape, m_shape):
        with pytest.raises(DomainRangeError, match="do not hold 4 unknowns"):
            smallest_eigen(np.ones(k_shape), np.ones(m_shape), np.arange(4), 4)

    def test_restarts_from_a_full_basis(self, half_disk, monkeypatch):
        # a basis of 4 vectors fills long before the Ritz pair converges;
        # each thick restart keeps the Ritz vector and the next Lanczos
        # vector, and the loop reaches the same pair
        from crithardy import fem2d
        mesh = mesh_truncated(half_disk, 4, target_h=0.1)
        full = strip_eigen(mesh)
        monkeypatch.setattr(fem2d, "_LANCZOS_BASIS", 4)
        res = strip_eigen(mesh)
        assert res.iterations > full.iterations > 4
        assert res.residual <= 1e-11
        assert res.value == pytest.approx(full.value, rel=1e-13)

    def test_step_cap_raises(self, monkeypatch):
        # two steps cannot span the smallest eigenvector of diag(2, 3, 4)
        # from the all-ones start
        from crithardy import fem2d
        monkeypatch.setattr(fem2d, "_LANCZOS_STEPS", 2)
        K = sparse.diags([2.0, 3.0, 4.0]).tocsr()
        M = sparse.identity(3, format="csr")
        with pytest.raises(NonConvergenceError,
                           match="did not reach tol") as info:
            sparse_eigen(K, M, np.arange(3))
        assert info.value.diagnostics["iterations"] == 2

    def test_ball_matches_log_window_oracle(self, ball):
        # independent oracle: the radial problem reduces exactly to the 1-D
        # Hardy quotient on (t_out, t_in), whose truncated minimum is
        # 1/4 + (pi / log(t_in/t_out))^2
        for n in (4, 16):
            res, mesh = solve_truncated(ball, n, target_h=0.02)
            t_in = math.log(n)
            t_out = -math.log1p(-1.0 / n)
            pred = 0.25 + (math.pi / math.log(t_in / t_out)) ** 2
            assert res.value == pytest.approx(pred, rel=0.03)

    def test_eigenvector_single_signed(self, ball):
        res, mesh = solve_truncated(ball, 8, target_h=0.04)
        interior = ~mesh.boundary
        v = res.vector[interior]
        assert v.min() >= -1e-8 * v.max()

    def test_lower_bound(self, ball):
        res, _ = solve_truncated(ball, 4, target_h=0.05)
        assert res.value >= 0.25 - 1e-6


# the cusp_fem schedule, whose last four levels take a predicted shift
CUSP_SCHEDULE = (16, 64, 256, 1024, 4096, 16384)


@pytest.fixture(scope="module")
def cusp_095_schedule():
    dom = DomainSpec.calibrated_cusp(0.95)
    return dom, extrapolate_constant(dom, CUSP_SCHEDULE)


class TestCertifiedShift:
    def test_shift_above_d_is_refused(self, calibrated_cusp, monkeypatch):
        # K - sigma M is indefinite above the smallest eigenvalue: its
        # factorization fails, and the solve runs at shift 0 as without one
        from crithardy import fem2d
        mesh = mesh_truncated(calibrated_cusp, 256)
        k_band, m_band = (_strip_band(mesh, local)
                          for local in assemble(mesh, WP))
        args = (k_band, m_band, _band_order(mesh), mesh.num_vertices)
        plain = smallest_eigen(*args)
        infos = []
        real_dpbtrf = fem2d.dpbtrf

        def dpbtrf(*a, **kw):
            out = real_dpbtrf(*a, **kw)
            infos.append(out[1])
            return out

        monkeypatch.setattr(fem2d, "dpbtrf", dpbtrf)
        res = smallest_eigen(*args, shift=1.5 * plain.value)
        # the refused shift, K at shift 0, the certificate
        assert len(infos) == 3 and infos[0] > 0 and infos[1:] == [0, 0]
        assert res.shift == 0.0 == plain.shift
        assert res.value == plain.value
        assert res.iterations == plain.iterations
        assert res.residual == plain.residual
        assert np.array_equal(res.vector, plain.vector)
        assert np.array_equal(res.density, plain.density)

    def test_accepted_shift_keeps_d_n(self, cusp_095_schedule):
        dom, est = cusp_095_schedule
        wp = WeightParams(R=dom.R, N=2)
        for row in est.per_n[2:]:
            assert row["shift"] > 0.0
            plain = strip_eigen(mesh_truncated(dom, row["n"]), wp)
            assert plain.shift == 0.0
            assert row["d_n"] == pytest.approx(plain.value, rel=1e-14, abs=0)
            assert row["iterations"] < plain.iterations

    def test_shift_lies_below_the_bracket(self, cusp_095_schedule):
        _, est = cusp_095_schedule
        rows = est.per_n
        assert [row["shift"] for row in rows[:2]] == [0.0, 0.0]
        assert all(0.0 <= row["shift"] < row["d_n_lower"] for row in rows)

    def test_schedule_takes_at_most_80_solves(self, cusp_095_schedule):
        # 109 solves (14, 15, 17, 19, 21, 23) at shift 0
        _, est = cusp_095_schedule
        assert sum(row["iterations"] for row in est.per_n) <= 80

    def test_shifted_levels_stop_at_their_own_residual(self, cusp_095_schedule):
        # the stop rule reads the residual at the shift: 13, 11, 10, 9
        # solves, against 14, 11, 11, 10 when the estimate was taken as if
        # at shift 0, which overstated it by d / (d - sigma) (42 at n =
        # 16384); every level still ends below the 1e-12 target
        _, est = cusp_095_schedule
        shifted = est.per_n[2:]
        assert sum(row["iterations"] for row in shifted) <= 43
        assert all(row["residual"] <= 1e-12 for row in shifted)

    @pytest.mark.parametrize("make, ns", [
        pytest.param(lambda: DomainSpec.half_disk(1.0), (4, 8, 16),
                     id="half_disk"),
        pytest.param(lambda: DomainSpec.ball(1.0), (4, 8, 16), id="ball"),
    ])
    def test_no_shift_where_none_is_predicted(self, make, ns):
        # the half disk's d_n falls by more than half its next value from
        # level to level (4.71, 1.97), so the prediction is below 0; a
        # wrapping strip solves radially
        est = extrapolate_constant(make(), ns)
        assert [row["shift"] for row in est.per_n] == [0.0] * len(ns)


class TestRadialEigen:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: DomainSpec.ball(0.9), id="ball_0.9"),
        pytest.param(lambda: DomainSpec.ball(1.0), id="ball_1.0"),
        pytest.param(lambda: DomainSpec.ball(1.1), id="ball_1.1"),
        # at n = 32 the two row ladders once met in a cell 5e-6 thin, the
        # others 0.02; the splice now makes it one of three equal cells
        pytest.param(lambda: DomainSpec.ball(0.9449967450181259),
                     id="ball_thin_row"),
        pytest.param(lambda: DomainSpec.ball_with_core_cutoff(0.3),
                     id="core_cutoff_0.3"),
        pytest.param(lambda: DomainSpec.ball_with_core_cutoff(0.5),
                     id="core_cutoff_0.5"),
    ])
    def test_matches_shift_invert(self, make):
        dom = make()
        wp = WeightParams(R=dom.R, N=2)
        for n in (4, 8, 16, 32):
            mesh = mesh_truncated(dom, n)
            radial = radial_eigen(mesh, wp)
            value, vector = splu_eigen(*assembled(mesh, wp), ~mesh.boundary)
            assert radial.solver == "radial"
            assert radial.iterations == radial.fill == 0
            assert radial.value == pytest.approx(value, rel=1e-12)
            np.testing.assert_allclose(radial.vector, vector, rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: DomainSpec.ball(1.0), id="ball"),
        pytest.param(lambda: DomainSpec.ball_with_core_cutoff(0.5),
                     id="core_cutoff"),
    ])
    def test_assembles_column_0_only(self, make, monkeypatch):
        from crithardy import fem2d
        calls = []

        def spy(mesh, wp):
            calls.append(mesh.num_triangles)
            return assemble(mesh, wp)

        monkeypatch.setattr(fem2d, "assemble", spy)
        res, mesh = solve_truncated(make(), 8)
        assert res.solver == "radial"
        assert calls == [2 * (mesh.meta["n_radii"] - 1)]

    @pytest.mark.parametrize("R, h, n", [
        (0.905, 0.02, 32), (0.945, 0.02, 32), (0.985, 0.02, 32),
        (1.025, 0.02, 32), (1.065, 0.02, 32),
        (0.93, 0.04, 16), (1.01, 0.04, 16), (1.09, 0.04, 16)])
    def test_formerly_thin_levels(self, R, h, n):
        # the levels of the sweep whose minimal angle was below 1 degree
        # before the splice was mended (0.05 degrees)
        dom = DomainSpec.ball(R)
        mesh = mesh_truncated(dom, n, target_h=h)
        assert mesh.meta["min_angle_deg"] >= 3.0
        res = radial_eigen(mesh, WeightParams(R=R, N=2))
        assert res.residual <= 1e-10
        exact = 0.25 + (math.pi / mesh.meta["window_length"]) ** 2
        assert exact < res.value <= exact * (1 + 3e-3)

    def test_certificate_rejects_a_lower_angular_mode(self, ball,
                                                      monkeypatch):
        # alpha (e_a - e_b)(e_a - e_b)^T taken off the element stiffness of
        # every (a, b, d) triangle, whose edge (a, b) joins two neighbours in
        # a row: its symbol 2 alpha (cos(2 pi k / n_cols) - 1) is zero in the
        # radial mode, so d0 does not move, and negative in every other
        from crithardy import fem2d
        mesh = mesh_truncated(ball, 4, target_h=0.1)
        d0 = radial_eigen(mesh, WP).value
        rows, alpha = mesh.meta["n_radii"], 2.0

        def lowered(strip, wp):
            k_local, m_local = assemble(strip, wp)
            abd = k_local.reshape(rows - 1, 2, -1, 3, 3)[:, 0]
            abd[..., [0, 1], [0, 1]] -= alpha
            abd[..., [0, 1], [1, 0]] += alpha
            return k_local, m_local

        # the column-0 stencil carries the perturbation
        monkeypatch.setattr(fem2d, "assemble", lowered)
        with pytest.raises(NumericalError, match="angular mode k="):
            radial_eigen(mesh, WP)
        # K_low is indefinite, so its Cholesky factor fails
        K_low, M = (to_csr(mesh, local) for local in lowered(mesh, WP))
        idx = np.flatnonzero(~mesh.boundary)
        with pytest.raises(NumericalError, match="not positive definite"):
            sparse_eigen(K_low, M, idx)
        # an eigenpair below d0 exists, so d0 would have been wrong
        sub = np.ix_(idx, idx)
        (low,), _ = eigh(K_low[sub].toarray(), M[sub].toarray(),
                         subset_by_index=[0, 0])
        assert low < d0

    def test_one_zpttrf_call_for_every_angular_mode(self, ball, monkeypatch):
        # the modes' symbols factor as one block-diagonal matrix: each
        # block's pivots are its own call's bit for bit, and a failing pivot
        # names its mode
        from crithardy import fem2d
        mesh = mesh_truncated(ball, 4, target_h=0.1)
        m, modes = mesh.meta["n_radii"] - 2, mesh.meta["n_cols"] // 2
        real, calls = fem2d.zpttrf, []

        def spy(d, e):
            calls.append((d, e, real(d, e)))
            return calls[-1][2]

        monkeypatch.setattr(fem2d, "zpttrf", spy)
        radial_eigen(mesh, WP)
        ((d, e, (pivots, factors, info)),) = calls
        assert info == 0 and d.shape == (modes * m,)
        assert np.all(e[m - 1::m] == 0.0)
        for j in range(modes):
            block = slice(j * m, (j + 1) * m)
            inner = slice(j * m, (j + 1) * m - 1)
            own_pivots, own_factors, own_info = real(d[block], e[inner])
            assert own_info == 0
            assert np.array_equal(pivots[block], own_pivots)
            assert np.array_equal(factors[inner], own_factors)

        # a negative entry on the first or the last row of mode 3's block,
        # and one inside mode 5's
        for row in (0, m - 1):
            def broken(d, e, _row=row):
                d = d.copy()
                d[[2 * m + _row, 4 * m + m // 2]] = -1.0
                return real(d, e)

            monkeypatch.setattr(fem2d, "zpttrf", broken)
            with pytest.raises(NumericalError, match="angular mode k=3 has"):
                radial_eigen(mesh, WP)

    def test_certificate_rejects_a_higher_radial_pair(self, ball,
                                                      monkeypatch):
        # a dense solve that hands back the radial mode's second pair would
        # pass the residual gate; the radial dpttrf factor fails first
        from crithardy import fem2d
        real_eigh = fem2d.eigh

        def second(*args, **kwargs):
            return real_eigh(*args, **{**kwargs, "subset_by_index": [1, 1]})

        mesh = mesh_truncated(ball, 4, target_h=0.1)
        monkeypatch.setattr(fem2d, "eigh", second)
        with pytest.raises(NumericalError, match="radial mode has an "
                           "eigenvalue at or below"):
            radial_eigen(mesh, WP)

    def test_residual_above_tol_raises(self, ball, monkeypatch):
        from crithardy import fem2d
        monkeypatch.setattr(fem2d, "_TOL", 1e-300)
        mesh = mesh_truncated(ball, 4, target_h=0.1)
        with pytest.raises(NonConvergenceError) as info:
            radial_eigen(mesh, WP)
        assert info.value.diagnostics["iterations"] == 0

    def test_needs_a_wrapping_strip(self, half_disk):
        # a strip that does not wrap, and a mesh with no strip meta at all
        square = Mesh(vertices=np.array([[0.3, 0.1], [0.4, 0.1], [0.4, 0.2],
                                         [0.3, 0.2]]),
                      triangles=np.array([[0, 1, 2], [0, 2, 3]]),
                      boundary=np.ones(4, dtype=bool))
        for mesh in (mesh_truncated(half_disk, 4, target_h=0.1), square):
            with pytest.raises(DomainRangeError, match="wrapping strip"):
                radial_eigen(mesh, WP)


class TestExtrapolation:
    def test_ball_estimate(self, ball):
        est = extrapolate_constant(ball, [4, 8, 16, 32], target_h=0.02)
        assert est.method == "window_fit"
        assert 0.24 <= est.estimate <= 0.26
        ds = [row["d_n"] for row in est.per_n]
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))
        assert est.fit["beta"] == pytest.approx(math.pi**2, rel=0.05)
        assert all(row["solver"] == "radial" for row in est.per_n)

    @pytest.mark.parametrize("change, condition", [
        pytest.param({"residual": 1.0}, "residual 1 above", id="residual"),
        pytest.param({"C": -0.5}, "C = -0.5 is not positive", id="negative"),
        pytest.param({"C": 9.0}, "C = 9 lies above the finest d_n",
                     id="above_last"),
    ])
    def test_refused_fit_reports_the_finest_level(self, change, condition,
                                                  ball, monkeypatch):
        from crithardy import fem2d
        rate_fit = fem2d._rate_fit
        monkeypatch.setattr(fem2d, "_rate_fit",
                            lambda x, y: {**rate_fit(x, y), **change})
        est = extrapolate_constant(ball, [4, 8, 16], target_h=0.05)
        assert est.method == "last"
        assert est.estimate == est.per_n[-1]["d_n"]
        assert est.fit == {**rate_fit(
            [row["window"] for row in est.per_n],
            [row["d_n"] for row in est.per_n]), **change}
        (warning,) = est.warnings
        assert f"window fit refused ({condition}" in warning

    def test_short_schedule_is_not_fitted(self, ball):
        # three parameters need three levels; nothing is refused
        est = extrapolate_constant(ball, [4, 8], target_h=0.05)
        assert est.method == "last" and est.fit is None
        assert est.estimate == est.per_n[-1]["d_n"]
        assert est.warnings == []

    def test_quadratic_cusp_attained_signature(self):
        quad = DomainSpec.quadratic_cusp(0.5)
        est = extrapolate_constant(quad, [8, 16, 32], target_h=0.02)
        assert est.estimate >= 0.27
        final = est.per_n[-1]
        assert final["collar_outer"] < 0.2
        assert final["collar_inner"] < 0.2
        assert final["anchor_outer"] < 0.2
        ds = [row["d_n"] for row in est.per_n]
        assert all(d >= 0.27 for d in ds)

    def test_cusp_cross_validation(self, calibrated_cusp):
        est = extrapolate_constant(calibrated_cusp, [16, 64, 256, 1024])
        ea = calibrated_cusp.cusp.eigenvalue
        assert abs(est.estimate - ea) / ea <= 0.05
        # the tip strip does not wrap
        assert all(row["solver"] == "shift_invert" for row in est.per_n)

    @pytest.mark.parametrize("a, schedule", [
        pytest.param(0.85, [16, 64, 256, 1024], id="0.85"),
        pytest.param(1.0, [16, 64, 256, 1024], id="1.0"),
        pytest.param(1.05, [16, 64, 256, 1024, 4096, 16384], id="1.05"),
    ])
    def test_cusp_cross_validation_other_angles(self, a, schedule):
        dom = DomainSpec.calibrated_cusp(a)
        est = extrapolate_constant(dom, schedule)
        ea = dom.cusp.eigenvalue
        assert abs(est.estimate - ea) / ea <= 0.05

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: DomainSpec.ball(1.0), id="ball"),
        pytest.param(lambda: DomainSpec.ball_with_core_cutoff(0.3),
                     id="core_cutoff"),
    ])
    def test_fractions_match_full_assembly(self, make, monkeypatch):
        # reference: v * (M v) with M assembled on every triangle, each
        # vertex at the radius of its row
        from crithardy import fem2d
        dom, solved = make(), []
        solve = fem2d.solve_truncated

        def kept(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(fem2d, "solve_truncated", kept)
        est = extrapolate_constant(dom, [4, 8, 16], target_h=0.02)
        for row, (res, mesh) in zip(est.per_n, solved):
            _, M = assembled(mesh, WeightParams(R=dom.R, N=2))
            ref = res.vector * (M @ res.vector)
            radii = np.repeat(mesh.meta["row_radii"], mesh.meta["n_cols"])
            for name, w in (("collar", 2.0 / row["n"]), ("anchor", 0.5)):
                inner = ref[radii < w].sum() / ref.sum()
                outer = ref[radii > dom.R - w].sum() / ref.sum()
                assert row[f"{name}_inner"] == pytest.approx(inner, abs=1e-12)
                assert row[f"{name}_outer"] == pytest.approx(outer, abs=1e-12)

    @pytest.mark.parametrize("make, anchor_outer", [
        pytest.param(lambda: DomainSpec.ball_with_core_cutoff(0.4), 0.93980,
                     id="core_cutoff_0.4"),
        pytest.param(lambda: DomainSpec.ball(0.985), 0.66871, id="ball_0.985"),
    ])
    def test_row_on_a_width_boundary_counts_whole(self, make, anchor_outer):
        # at n = 4 a vertex row sits at R - 1/2, on the anchor width; the
        # hypot radius of its vertices differs by an ulp from column to
        # column, so comparing it split the row (310 of 315 vertices on the
        # core cutoff, 276 of 310 on the ball)
        dom = make()
        res, mesh = solve_truncated(dom, 4)
        rows = mesh.meta["row_radii"]
        on_edge = int(np.argmin(np.abs(rows - (dom.R - 0.5))))
        assert abs(rows[on_edge] - (dom.R - 0.5)) < 1e-15
        hypot = np.hypot(*mesh.vertices.reshape(rows.size, -1, 2).T)
        assert np.ptp(hypot[:, on_edge]) > 0.0
        per_row = res.density.reshape(rows.size, -1).sum(axis=1)
        heads = np.cumsum(per_row) / per_row.sum()
        tails = np.cumsum(per_row[::-1])[::-1] / per_row.sum()
        for w in (0.5, 0.25):
            (inner, outer), = _mass_fractions(mesh, res.density, (w,), dom.R)
            # every row is counted all or nothing
            assert np.min(np.abs(np.append(heads, 0.0) - inner)) < 1e-13
            assert np.min(np.abs(tails - outer)) < 1e-13
        (_, outer), = _mass_fractions(mesh, res.density, (0.5,), dom.R)
        assert outer == pytest.approx(tails[on_edge], abs=1e-13)
        assert outer == pytest.approx(anchor_outer, abs=1e-5)

    def test_collar_paths_reported(self, ball, half_disk):
        for dom, solver in ((ball, "radial"), (half_disk, "shift_invert")):
            est = extrapolate_constant(dom, [4, 16], target_h=0.04)
            assert [row["n"] for row in est.per_n] == [4, 16]
            assert est.mesh.num_vertices == est.per_n[-1]["vertices"]
            assert est.vector.shape == (est.mesh.num_vertices,)
            for row in est.per_n:
                assert row["solver"] == solver
                if solver == "radial":
                    # no sparse factor or solve
                    assert row["fill"] == row["iterations"] == 0
                else:
                    # the band factor: kd + 1 entries per free unknown,
                    # less a corner
                    assert row["fill"] > row["vertices"]
                assert 0.0 <= row["collar_outer"] <= 1.0
                assert 0.0 <= row["anchor_outer"] <= 1.0
