import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crithardy import (DegenerateInputError, DomainRangeError, DomainSpec,
                       PolarGridFunction, RadialFunction,
                       WeightParams, hardy_1d_quotient, hardy_scale,
                       log_coordinate_transport, quotient_polar,
                       quotient_radial)
from conftest import GAPPED, SECTOR, smooth_bump

WP = WeightParams(R=1.0, N=2)


def log_bump_profile(lo=0.5, hi=2.5, n=2000):
    """Radial function that is a smooth bump in t = log(1/r)."""
    t = np.linspace(1e-3, 3.0, n)
    v = smooth_bump(t, lo, hi)
    return RadialFunction(r=np.exp(-t)[::-1], values=v[::-1].copy())


class TestQuotientRadial:
    def test_tent_closed_form(self):
        # oracle: exact piecewise integrals (energy 8 pi; mass via sympy)
        u = RadialFunction(r=np.array([0.25, 0.5, 0.75]),
                           values=np.array([0.0, 1.0, 0.0]))
        rep = quotient_radial(u, WP)
        assert rep.dirichlet_energy == pytest.approx(8 * math.pi, rel=1e-14)
        assert rep.ratio == pytest.approx(5.323394757197507, abs=1e-8)

    def test_homogeneity_exact(self):
        u = RadialFunction(r=np.array([0.25, 0.5, 0.75]),
                           values=np.array([0.0, 1.0, 0.0]))
        u2 = RadialFunction(r=u.r, values=3.7 * u.values)
        r1 = quotient_radial(u, WP).ratio
        r2 = quotient_radial(u2, WP).ratio
        assert abs(r1 - r2) <= 1e-12 * r1

    def test_near_minimizer_within_five_percent(self):
        # truncated optimal profile sqrt(t) sin(pi log(t/t_min)/L); its exact
        # quotient is 1/4 + (pi/L)^2
        t_min, t_max = 1e-12, 650.0
        L = math.log(t_max / t_min)
        s = np.linspace(0.0, L, 6000)
        t = np.concatenate([[0.0], t_min * np.exp(s)])
        v = np.concatenate([[0.0], np.sqrt(t[1:]) * np.sin(math.pi * s / L)])
        v[-1] = 0.0
        u = RadialFunction(r=np.exp(-t)[::-1], values=v[::-1].copy())
        rep = quotient_radial(u, WP)
        assert rep.ratio == pytest.approx(0.25 + (math.pi / L) ** 2, rel=1e-2)
        assert abs(rep.ratio - 0.25) / 0.25 < 0.05

    def test_lower_bound_with_error(self):
        for lo, hi in ((0.3, 1.2), (0.8, 2.8)):
            u = log_bump_profile(lo, hi)
            rep = quotient_radial(u, WP)
            assert rep.ratio + rep.quad_error_estimate >= 0.25

    def test_zero_mass_degenerate(self):
        u = RadialFunction(r=np.array([0.2, 0.4, 0.6]),
                           values=np.zeros(3))
        with pytest.raises(DegenerateInputError):
            quotient_radial(u, WP)

    def test_boundary_zero_enforced(self):
        with pytest.raises(DomainRangeError):
            RadialFunction(r=np.array([0.2, 0.4]), values=np.array([0.0, 1.0]))

    def test_constant_core_tail(self):
        # psi-type profile: v = t out to t = 1, constant 1 toward the origin;
        # analytic tail int_1^inf t^{-2} = 1
        t = np.linspace(0.0, 1.0, 4000)
        v = t.copy()
        r = np.exp(-t)[::-1]
        u = RadialFunction(r=r, values=v[::-1].copy(), constant_core=True)
        rep = quotient_radial(u, WP)
        # energy = 2 pi * 1, mass = 2 pi * (int_0^1 t^2/t^2 dt + 1) = 4 pi
        assert rep.ratio == pytest.approx(0.5, rel=1e-3)


class TestHardyScale:
    def test_identity(self):
        u = log_bump_profile()
        s = hardy_scale(u, 1.0, WP)
        assert np.array_equal(s.r, u.r) and np.array_equal(s.values, u.values)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
    def test_quotient_invariance(self, lam):
        u = log_bump_profile()
        q0 = quotient_radial(u, WP).ratio
        q1 = quotient_radial(hardy_scale(u, lam, WP), WP).ratio
        assert abs(q1 - q0) / q0 <= 1e-4

    def test_underflowing_nodes_raise(self):
        # at lam = 1e-3 the nodes below r = exp(-0.745) map to (r/R)^1000,
        # which underflows to 0; the scaled function has no grid that keeps
        # its quotient, so the scaling refuses it
        u = log_bump_profile()
        with np.errstate(under="ignore"):
            zeros = np.count_nonzero(u.r ** 1000.0 == 0.0)
        assert zeros > 1
        with pytest.raises(DomainRangeError,
                           match=r"lam=0\.001 collapses \d+ of 2000") as err:
            hardy_scale(u, 1e-3, WP)
        assert int(err.value.args[0].split()[4]) >= zeros

    def test_support_map(self):
        # support [t1, t2] in the log coordinate maps to [t1/lam, t2/lam]
        u = log_bump_profile(0.5, 2.5)
        lam = 2.0
        s = hardy_scale(u, lam, WP)
        t_new = -np.log(s.r[::-1])
        support = t_new[(s.values[::-1] > 0)]
        assert support.min() >= 0.5 / lam - 1e-9
        assert support.max() <= 2.5 / lam + 1e-9


class TestLogTransport:
    def test_support_orientation(self):
        u = log_bump_profile(0.2, 0.8)  # supported at small t <=> r near 1
        lp = log_coordinate_transport(u, WP)
        t_supp = lp.t[lp.values > 0]
        assert t_supp.max() < 1.0

    def test_grid_to_float_floor(self):
        r = np.geomspace(1e-200, 0.9, 60)
        v = np.sin(np.linspace(0.0, math.pi, 60))
        v[0] = v[-1] = 0.0
        lp = log_coordinate_transport(RadialFunction(r=r, values=v), WP)
        assert np.all(np.isfinite(lp.t))
        np.testing.assert_allclose(lp.t, np.log(1.0 / r)[::-1], rtol=1e-12)

    def test_quotient_equality_random_bumps(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lo = rng.uniform(0.1, 1.5)
            hi = lo + rng.uniform(0.4, 1.5)
            u = log_bump_profile(lo, hi)
            q_rad = quotient_radial(u, WP).ratio
            lp = log_coordinate_transport(u, WP)
            q_1d = hardy_1d_quotient(lp.t, lp.values, 2)
            assert abs(q_1d - q_rad) / q_rad < 1e-6

    def test_exponent_family_matches_origin_family(self):
        # v(t) = t^alpha with a cap: quotient approaches 1/4 as alpha -> 1/2+
        t = np.concatenate([[0.0], np.geomspace(1e-12, 6.0, 3000)])
        alpha = 0.5 + 2.0 ** (-6)
        v = t**alpha * (1 - t / 6.0)
        v[0] = v[-1] = 0.0
        u = RadialFunction(r=np.exp(-t)[::-1], values=v[::-1].copy())
        q = quotient_radial(u, WP).ratio
        assert 0.25 < q < 0.35


class TestQuotientPolar:
    def test_matches_radial(self, ball):
        nr = 20000
        r = np.linspace(1e-3, 1 - 1e-3, nr)
        f = smooth_bump(r, 0.2, 0.8)
        theta = np.arange(16) * (2 * math.pi / 16)
        up = PolarGridFunction(r=r, theta=theta,
                               values=np.tile(f[:, None], (1, 16)), domain=ball)
        rp = quotient_polar(up, WP)
        rr = quotient_radial(RadialFunction(r=r, values=f), WP)
        assert abs(rp.ratio - rr.ratio) / rr.ratio < 1e-6

    def test_angular_energy_vanishes_for_radial(self, ball):
        r = np.linspace(0.05, 0.95, 100)
        f = smooth_bump(r, 0.2, 0.8)
        theta = np.arange(32) * (2 * math.pi / 32)
        up = PolarGridFunction(r=r, theta=theta,
                               values=np.tile(f[:, None], (1, 32)), domain=ball)
        rep = quotient_polar(up, WP)
        assert rep.angular_energy == 0.0
        assert rep.radial_energy == pytest.approx(rep.dirichlet_energy)

    def test_separated_function_reduction(self, half_disk):
        # u = f(r) sin(theta): the discrete energy reduces exactly to
        # (sum_j s_j^2 dtheta) radial part + (sum s-differences) angular part
        nr, nt = 400, 64
        r = np.linspace(0.05, 0.95, nr)
        f = smooth_bump(r, 0.2, 0.8)
        theta = np.arange(nt) * (2 * math.pi / nt)
        s = np.where((theta >= 0) & (theta < math.pi), np.sin(theta), 0.0)
        vals = f[:, None] * s[None, :]
        u = PolarGridFunction(r=r, theta=theta, values=vals, domain=half_disk)
        rep = quotient_polar(u, WP)
        dth = 2 * math.pi / nt
        dr = np.diff(r)
        w_r = np.empty(nr)
        w_r[0] = dr[0] / 2
        w_r[-1] = dr[-1] / 2
        w_r[1:-1] = (dr[:-1] + dr[1:]) / 2
        r_mid = 0.5 * (r[:-1] + r[1:])
        radial_exact = float(np.sum(s**2) * dth *
                             np.sum((np.diff(f) / dr) ** 2 * r_mid * dr))
        ds2 = float(np.sum((np.roll(s, -1) - s) ** 2))
        angular_exact = float(ds2 / dth * np.sum(f**2 * w_r / r))
        assert rep.radial_energy == pytest.approx(radial_exact, rel=1e-12)
        assert rep.angular_energy == pytest.approx(angular_exact, rel=1e-12)
        # and the discrete sums converge to (pi/2) int (f'^2 r + f^2/r) dr
        fp = np.gradient(f, r)
        cont = (math.pi / 2) * (np.trapezoid(fp**2 * r, r)
                                + np.trapezoid(f**2 / r, r))
        assert rep.dirichlet_energy == pytest.approx(cont, rel=2e-2)

    def test_quad_error_tracks_row_grid(self, half_disk):
        # the gap to the trapezoid over rows 0, 2, ..., nr - 2 and the last
        # row (nr is even) is nonzero on a smooth field and falls when the
        # row spacing about halves
        theta = np.arange(32) * (2 * math.pi / 32)
        errs = []
        for nr in (42, 82):
            r = np.linspace(0.05, 0.95, nr)
            f = np.sin(math.pi * (r - 0.05) / 0.9)[:, None] * np.sin(theta)
            u = PolarGridFunction(r=r, theta=theta, values=f, domain=half_disk)
            rep = quotient_polar(u, WP)
            f_rows = (u.values**2).sum(axis=1) / (r * np.log(1 / r)) ** 2 * r
            rows = [*range(0, nr, 2), nr - 1]
            coarse = np.trapezoid(f_rows[rows], r[rows]) * (2 * math.pi / 32)
            assert rep.quad_error_estimate == pytest.approx(
                abs(rep.weighted_mass - coarse), rel=1e-9)
            assert 1e-6 < rep.quad_error_estimate / rep.weighted_mass < 1e-2
            errs.append(rep.quad_error_estimate)
        assert errs[1] < 0.25 * errs[0]

    @given(st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, ball, c):
        r = np.linspace(0.05, 0.95, 50)
        f = smooth_bump(r, 0.2, 0.8)
        theta = np.arange(16) * (2 * math.pi / 16)
        base = np.tile(f[:, None], (1, 16))
        u1 = PolarGridFunction(r=r, theta=theta, values=base, domain=ball)
        u2 = PolarGridFunction(r=r, theta=theta, values=c * base, domain=ball)
        assert quotient_polar(u1, WP).ratio == pytest.approx(
            quotient_polar(u2, WP).ratio, rel=1e-12)


def loop_mask(dom, r, theta):
    """Reference mask: one `DomainSpec.profile_arcs` call per radius."""
    mask = np.zeros((r.size, theta.size), dtype=bool)
    for i, ri in enumerate(r):
        for lo, hi in dom.profile_arcs(float(ri)).arcs:
            mask[i] |= (theta >= lo) & (theta < hi)
    return mask


class TestSliceMask:
    @pytest.mark.parametrize("make", [
        DomainSpec.ball, lambda: DomainSpec.ball_with_core_cutoff(0.4),
        lambda: DomainSpec.cone(0.3), lambda: DomainSpec.quadratic_cusp(0.5),
        lambda: DomainSpec.quadratic_cusp(2.5), DomainSpec.half_disk,
        lambda: DomainSpec.calibrated_cusp(0.9),
        lambda: DomainSpec.angular_profile(SECTOR),
        lambda: DomainSpec.angular_profile(GAPPED)],
        ids=["ball", "core", "cone", "quadratic", "quadratic_wraps", "half_disk",
             "calibrated", "sector", "gapped"])
    @pytest.mark.parametrize("nr, nt", [(48, 64), (128, 256)])
    def test_matches_per_radius_arcs(self, make, nr, nt):
        dom = make()
        u = PolarGridFunction.sample(dom, lambda r, t: 1.0 + 0 * r * t, nr, nt)
        assert np.array_equal(u.mask, loop_mask(dom, u.r, u.theta))

    def test_calibrated_cusp_call_count(self, calibrated_cusp, monkeypatch):
        # one vectorized Newton solve: the opening at r0, then one
        # evaluation of values and slopes per step, 7 in all; the 64-step
        # bisection it replaced made 65, and a per-radius bisection about 3000
        r = np.linspace(0.05, 0.95, 48)
        theta = np.arange(64) * (2 * math.pi / 64)
        arcs_calls, interp_calls = [], []
        arcs = DomainSpec.profile_arcs
        prof = calibrated_cusp.cusp
        interp = prof._a_interp

        class Counted:
            def with_slope(self, x):
                interp_calls.append(np.size(x))
                return interp.with_slope(x)

        def counted_arcs(self, x):
            arcs_calls.append(x)
            return arcs(self, x)

        monkeypatch.setattr(DomainSpec, "profile_arcs", counted_arcs)
        monkeypatch.setattr(prof, "_a_interp", Counted())
        u = PolarGridFunction(r=r, theta=theta, values=np.ones((48, 64)),
                              domain=calibrated_cusp)
        assert arcs_calls == []
        assert len(interp_calls) <= 7
        assert u.mask.any()

    def test_band_table_call_count(self, monkeypatch):
        # every radius is looked up in the band table at once; the reference
        # reads the bands one radius at a time
        dom = DomainSpec.angular_profile([
            (0.0, 0.3, [(0.1, 0.8), (2.0, 2.5), (4.0, 5.9)]),
            (0.3, 0.7, [(1.0, 1.2), (3.0, 4.5)]),
            (0.7, 1.0, [(0.3, 0.6), (1.5, 2.9), (6.0, 6.5)])])
        r = np.linspace(0.05, 0.95, 48)
        theta = np.arange(64) * (2 * math.pi / 64)
        ref = loop_mask(dom, r, theta)
        calls = []
        arcs = DomainSpec.profile_arcs

        def counted(self, x):
            calls.append(x)
            return arcs(self, x)

        monkeypatch.setattr(DomainSpec, "profile_arcs", counted)
        u = PolarGridFunction(r=r, theta=theta, values=np.ones((48, 64)),
                              domain=dom)
        assert calls == []
        assert np.array_equal(u.mask, ref)
