import math

import numpy as np
import pytest

from crithardy import (ConstructionError, CuspFamilyParams, DomainRangeError,
                       DomainSpec, HalfSpaceFamilyParams, NumericalError,
                       HalfSpaceProfileDefault, PhiAlphaParams, PsiBetaParams,
                       cusp_ratio_infimum, cusp_upper_bound,
                       halfspace_quotient,
                       phi_alpha_quotient, phi_alpha_schedule,
                       psi_beta_quotient, psi_beta_schedule)
from crithardy.oned import _cell_gauss
from crithardy.quotient import sphere_area
from crithardy.testfn import (_angular_mode, _halfspace_sums, _plateau,
                              _tip_mass_rows)
from crithardy.weight import WeightParams, weight_eval


class TestPhiAlpha:
    def test_schedule_decreases_to_limit_N2(self):
        rows = phi_alpha_schedule(range(3, 11))
        ratios = [r for _, r, _ in rows]
        assert all(b <= a + 1e-3 for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 0.25) < 0.02

    def test_limit_N3(self):
        rows = phi_alpha_schedule(range(3, 11), N=3)
        assert abs(rows[-1][1] - (2 / 3) ** 3) < 0.02

    def test_main_term_is_alpha_power(self):
        # ratio of the core (divergent) terms is alpha^N exactly
        rep = phi_alpha_quotient(PhiAlphaParams(alpha=0.4, c=0.5, N=2))
        assert rep.extras["energy_core"] / rep.extras["mass_core"] == \
            pytest.approx(0.4**2, rel=1e-14)
        assert rep.extras["main_term_ratio"] == pytest.approx(0.16)

    def test_alpha_range_validated(self):
        with pytest.raises(DomainRangeError):
            PhiAlphaParams(alpha=0.5, N=2)
        with pytest.raises(DomainRangeError):
            PhiAlphaParams(alpha=0.9, N=3)  # (N-1)/N = 2/3

    def test_soundness(self):
        for k in (4, 7, 10):
            rep = phi_alpha_quotient(PhiAlphaParams(alpha=0.5 - 2.0 ** (-k)))
            assert rep.ratio + rep.quad_error_estimate >= 0.25

    @pytest.mark.parametrize("alpha, c, R, N", [
        (0.4, 0.5, 1.0, 2), (0.5 - 2.0**-10, 0.3, 2.0, 2), (0.6, 0.5, 1.0, 3)])
    def test_error_matches_former_panel_form(self, alpha, c, R, N):
        # the bridge's |Simpson - trapezoid| as the family once wrote it
        wp = WeightParams(R=R, N=N)
        amp = math.log(2.0 / c) ** alpha

        def bridge_mass(r):
            u = amp * (2.0 - 2.0 * r / (c * R))
            return np.abs(u) ** N * weight_eval(wp, r) * r ** (N - 1)

        edges = np.linspace(c * R / 2.0, c * R, 33)
        lo, hi = edges[:-1], edges[1:]
        f_lo, f_hi = bridge_mass(lo), bridge_mass(hi)
        f_mid = bridge_mass(0.5 * (lo + hi))
        h = hi - lo
        trap = 0.5 * (f_lo + f_hi) * h
        simp = (f_lo + 4.0 * f_mid + f_hi) * h / 6.0
        former = sphere_area(N) * float(np.sum(np.abs(simp - trap)))
        rep = phi_alpha_quotient(PhiAlphaParams(alpha=alpha, c=c, R=R, N=N))
        assert rep.quad_error_estimate == former > 0.0


class TestPsiBeta:
    def test_schedule_decreases_to_limit_N2(self):
        rows = psi_beta_schedule(range(3, 11))
        ratios = [r for _, r, _ in rows]
        assert all(b <= a + 1e-3 for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 0.25) < 0.02

    def test_beta_one_quadrature_vs_closed(self):
        rep = psi_beta_quotient(PsiBetaParams(beta=1.0))
        assert rep.extras["quadrature_ratio"] == pytest.approx(rep.ratio, abs=1e-8)
        assert rep.ratio == pytest.approx(0.5, rel=1e-14)

    def test_limit_N4(self):
        beta = 0.75 + 2.0 ** (-10)
        rep = psi_beta_quotient(PsiBetaParams(beta=beta, N=4))
        assert abs(rep.ratio - 0.75**4) < 0.02

    def test_closed_form_formula(self):
        for beta, n in ((0.7, 2), (0.9, 3), (1.2, 4)):
            p = PsiBetaParams(beta=beta, N=n)
            assert psi_beta_quotient(p).ratio == pytest.approx(
                beta ** (n - 1) * (n - 1) / n, rel=1e-14)

    def test_integrability_validated(self):
        with pytest.raises(DomainRangeError):
            PsiBetaParams(beta=0.5, N=2)


class TestHalfSpace:
    @pytest.mark.parametrize("l", [0, -1, 2.5, True],
                             ids=["0", "-1", "2.5", "True"])
    def test_rejects_shrink_index(self, l):
        # l = 2.5 and l = True were once accepted
        with pytest.raises(DomainRangeError, match="l must be a positive integer"):
            HalfSpaceFamilyParams(l=l)

    def test_profile_quotient_against_independent_quadrature(self):
        # oracle: adaptive scipy.integrate.quad of the same profile
        rep = halfspace_quotient(HalfSpaceProfileDefault(),
                                 HalfSpaceFamilyParams(), DomainSpec.ball(1.0))
        half = rep.extras["halfspace_ratio"]
        assert half == pytest.approx(1.5079729729729716, rel=1e-4)
        assert half >= 0.25

    def test_shrink_invariance(self):
        # the half-space data enters through the profile integrals only, so
        # the family quotient is the same number at every l
        ball = DomainSpec.ball(1.0)
        reps = [halfspace_quotient(None, HalfSpaceFamilyParams(l=l), ball)
                for l in (4, 16)]
        assert reps[0].dirichlet_energy == reps[1].dirichlet_energy

    def test_report_carries_profile_data(self):
        # the half-space energy and mass are summed in profile coordinates,
        # so the reported half-space ratio is one number at every l, and
        # passing the default profile explicitly changes nothing
        ball = DomainSpec.ball(1.0)
        reps = [halfspace_quotient(None, HalfSpaceFamilyParams(l=l), ball)
                for l in (4, 8, 16)]
        reps.append(halfspace_quotient(HalfSpaceProfileDefault(),
                                       HalfSpaceFamilyParams(l=8), ball))
        assert len({rep.extras["halfspace_ratio"] for rep in reps}) == 1
        assert len({rep.dirichlet_energy for rep in reps}) == 1

    def test_domain_ratio_converges_and_bounded(self):
        ball = DomainSpec.ball(1.0)
        gaps = []
        for l in (4, 16, 64):
            rep = halfspace_quotient(None, HalfSpaceFamilyParams(l=l), ball)
            half = rep.extras["halfspace_ratio"]
            gaps.append(abs(rep.ratio - half))
            assert rep.ratio <= half + 0.05
        assert gaps[2] < gaps[1] < gaps[0]

    def test_support_containment(self):
        ball = DomainSpec.ball(1.0)
        rep = halfspace_quotient(None, HalfSpaceFamilyParams(l=8), ball)
        assert rep.extras["max_support_radius"] < 1.0
        assert rep.extras["support_depth_bound"] == pytest.approx(1.0 / 8)

    def test_schedule_sums_profile_once(self, monkeypatch):
        # a schedule over l evaluates the profile once; every report field
        # is the direct evaluation on the flat grid, bit for bit
        calls = []
        grad = HalfSpaceProfileDefault.grad

        def counted(self, y1, y2):
            calls.append(y1.size)
            return grad(self, y1, y2)

        monkeypatch.setattr(HalfSpaceProfileDefault, "grad", counted)
        _halfspace_sums.cache_clear()
        ball = DomainSpec.ball(1.0)
        reps = {l: halfspace_quotient(None, HalfSpaceFamilyParams(l=l), ball)
                for l in (3, 16, 64)}
        assert len(calls) == 1
        prof = HalfSpaceProfileDefault()
        edges = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 160)])
        y2, w2 = _cell_gauss(edges[:-1], edges[1:], 8)
        y2, w2 = y2.ravel(), w2.ravel()
        width = np.sqrt(y2)
        y1, w1 = _cell_gauss(-width, width, 16)
        w = (w2[:, None] * w1).ravel()
        y1, y2 = y1.ravel(), np.repeat(y2, 16)
        g1, g2 = grad(prof, y1, y2)
        v = prof.value(y1, y2)
        energy = float(np.sum((g1 * g1 + g2 * g2) * w))
        half_mass = float(np.sum((v / y2) ** 2 * w))
        for l, rep in reps.items():
            x_norm = np.sqrt((y1 / l) ** 2 + (1.0 - y2 / l) ** 2)
            weights = weight_eval(WeightParams(R=1.0, N=2), x_norm)
            mass = float(np.sum(v * v * weights * w)) / l**2
            assert rep.dirichlet_energy == energy
            assert rep.weighted_mass == mass
            assert rep.ratio == energy / mass
            assert rep.quad_error_estimate == abs(mass - half_mass) * 0.01
            assert rep.extras == {
                "halfspace_ratio": energy / half_mass, "l": l,
                "max_support_radius": float(np.max(x_norm)),
                "support_depth_bound": 1.0 / l}
            assert rep.radial_energy is None and rep.angular_energy is None

    def test_support_escape_raises(self):
        ball = DomainSpec.ball(1.0)
        with pytest.raises(ConstructionError):
            halfspace_quotient(None, HalfSpaceFamilyParams(l=1), ball)


def unfolded_rows(rho_pts, theta, phi):
    """Tip-family mass rows summed over every angular cell, one Gauss panel
    (row of ``rho_pts``) at a time, in the dtype of the inputs: the
    reference for the folded evaluation."""
    sin_th = np.sin((theta[:-1] + theta[1:]) / 2)
    coef = ((phi[:-1] + phi[1:]) / 2 / sin_th) ** 2 * np.diff(theta)
    rows = []
    for r in rho_pts[:, :, None]:
        w = r * r - 2 * r * sin_th
        ratio_w = 4 * (r * sin_th) ** 2 / ((1 + w) * np.log1p(w) ** 2)
        rows.append((ratio_w * coef).sum(axis=1))
    return np.concatenate(rows)


def long_double_tip_mass(params):
    """The radial nodes of `cusp_upper_bound`, and the unfolded mass rows
    and mass there in np.longdouble."""
    eps, delta = params.eps, params.delta
    eig = _angular_mode(params.a_prime)
    ld = np.longdouble
    edges = np.unique(np.concatenate([np.linspace(eps, 2 * eps, 9),
                                      np.geomspace(2 * eps, delta / 2, 65),
                                      np.linspace(delta / 2, delta, 9)]))
    rho_pts, rho_wts = _cell_gauss(edges[:-1], edges[1:], 8)
    rows = unfolded_rows(rho_pts.astype(ld), eig.theta.astype(ld),
                         eig.phi.astype(ld))
    psi2 = (_plateau(rho_pts, eps, delta) ** 2 / rho_pts).ravel()
    mass = np.sum(rows * psi2.astype(ld) * rho_wts.ravel().astype(ld))
    return rho_pts, rows, mass


class TestCuspFamily:
    @pytest.mark.parametrize("k", [6, 8, 10, 45])
    def test_folded_mass_matches_long_double(self, k, calibrated_cusp):
        params = CuspFamilyParams(a_prime=0.95, eps=0.05 * 2.0 ** (-k),
                                  delta=0.05)
        rho_pts, ref_rows, ref_mass = long_double_tip_mass(params)
        eig = _angular_mode(0.95)
        rows = _tip_mass_rows(rho_pts, eig.theta, eig.phi)
        assert float(np.max(np.abs(rows / ref_rows - 1))) <= 2e-15
        rep = cusp_upper_bound(params, calibrated_cusp)
        assert float(abs(rep.weighted_mass / ref_mass - 1)) <= 5e-16

    def test_fold_keeps_both_halves_of_phi(self):
        # a mode that is not mirror-symmetric: the fold must still sum it
        # all, where halving the grid would be off by percents
        eig = _angular_mode(0.95)
        phi = eig.phi * (1.0 + 0.1 * eig.theta)
        rho_pts, _ = _cell_gauss(np.array([1e-4, 1e-2]),
                                 np.array([2e-4, 2e-2]), 8)
        np.testing.assert_allclose(
            _tip_mass_rows(rho_pts, eig.theta, phi),
            unfolded_rows(rho_pts, eig.theta, phi), rtol=1e-14, atol=0)

    def test_tip_mass_rows_needs_mirror_grid(self):
        eig = _angular_mode(0.95)
        rho_pts = np.full((1, 8), 1e-3)
        with pytest.raises(NumericalError, match="mirror pairs"):
            _tip_mass_rows(rho_pts, eig.theta[:-1], eig.phi[:-1])
        with pytest.raises(NumericalError, match="off its pi/2 mirror"):
            _tip_mass_rows(rho_pts, eig.theta + 1e-13, eig.phi)

    def test_tip_mass_rows_high_precision(self):
        # the innermost panel at k = 45 sits at rho ~ 1.4e-15, where log(h)
        # of h = rho^2 - 2 rho sin + 1, rounded, is off by percents;
        # reference: the same sums in 50-digit arithmetic (every 16th angle)
        mpmath = pytest.importorskip("mpmath")
        eps = 0.05 * 2.0 ** (-45)
        rho_pts, _ = _cell_gauss(np.array([eps]), np.array([2 * eps]), 8)
        eig = _angular_mode(0.95)
        theta, phi = eig.theta[::16], eig.phi[::16]
        rows = _tip_mass_rows(rho_pts, theta, phi)
        th_mid = 0.5 * (theta[:-1] + theta[1:])
        sin_th = np.sin(th_mid)
        coef = (0.5 * (phi[:-1] + phi[1:]) / sin_th) ** 2 * np.diff(theta)
        with mpmath.workdps(50):
            ref = []
            for r in map(mpmath.mpf, rho_pts.ravel()):
                total = mpmath.mpf(0)
                for s, c in zip(map(mpmath.mpf, sin_th), coef):
                    h = r * r - 2 * r * s + 1
                    total += 4 * (r * s) ** 2 / (h * mpmath.log(h) ** 2) * c
                ref.append(float(total))
        np.testing.assert_allclose(rows, ref, rtol=1e-13, atol=0)

    def test_radial_factors_match_quadrature(self, calibrated_cusp):
        # closed forms: int psi'^2 rho drho = 3 and int psi^2 / rho drho =
        # log(delta / (4 eps)) + 5 log 2 - 3; reference: 16-point Gauss
        # panels, uniform on the ramps and geometric on the plateau
        delta = 0.05
        for k in (4, 8, 20):
            eps = delta * 2.0 ** (-k)
            rep = cusp_upper_bound(CuspFamilyParams(
                a_prime=0.95, eps=eps, delta=delta), calibrated_cusp)
            edges = np.unique(np.concatenate([
                np.linspace(eps, 2 * eps, 9),
                np.geomspace(2 * eps, delta / 2, 65),
                np.linspace(delta / 2, delta, 9)]))
            rho, w = _cell_gauss(edges[:-1], edges[1:], 16)
            slope2 = np.where(rho < 2 * eps, eps ** -2.0,
                              np.where(rho > delta / 2, (2 / delta) ** 2, 0.0))
            radial = float(np.sum(slope2 * rho * w))
            log_part = float(np.sum(_plateau(rho, eps, delta) ** 2 / rho * w))
            assert radial == pytest.approx(3.0, rel=1e-13)
            assert rep.extras["radial_part"] == pytest.approx(
                radial * rep.extras["int_phi2"], rel=1e-13)
            assert rep.extras["log_factor"] == pytest.approx(log_part,
                                                             rel=1e-13)

    @pytest.mark.parametrize("a, a_prime, delta", [
        (0.9, 1.4, 0.455), (1.1, 1.45, 0.46)])
    def test_min_g_is_the_slice_infimum(self, a, a_prime, delta):
        # the certificate divides by inf g over (0, delta]; a PCHIP through
        # the 96 table rows overstated it here by 1.2e-4 and 1.4e-4
        dom = DomainSpec.calibrated_cusp(a)
        rep = cusp_upper_bound(CuspFamilyParams(
            a_prime=a_prime, eps=delta * 2.0 ** (-6), delta=delta), dom)
        scan = cusp_ratio_infimum(np.linspace(1e-7, delta, 20001), a).min()
        assert dom.cusp.g(delta) == rep.extras["min_g"]
        assert rep.extras["min_g"] == pytest.approx(scan, rel=1e-12)
        assert rep.extras["certified_bound"] == pytest.approx(
            rep.extras["eigenvalue"] / scan, rel=1e-12)

    def test_log_divergence(self, calibrated_cusp):
        vals = []
        for k in (4, 6, 8):
            params = CuspFamilyParams(a_prime=0.95, eps=0.05 * 2.0 ** (-k),
                                      delta=0.05)
            rep = cusp_upper_bound(params, calibrated_cusp)
            assert rep.extras["log_factor"] >= rep.extras["log_lower_bound"]
            vals.append(rep.extras["log_factor"])
        assert vals[0] < vals[1] < vals[2]

    def test_quotient_near_certified_bound(self, calibrated_cusp):
        params = CuspFamilyParams(a_prime=0.95, eps=0.05 * 2.0 ** (-8),
                                  delta=0.05)
        rep = cusp_upper_bound(params, calibrated_cusp)
        bound = rep.extras["certified_bound"]
        assert abs(rep.ratio - bound) / bound < 0.05
        assert bound > rep.extras["eigenvalue"]  # min g < 1 inflates the bound

    def test_cone_fit_violation(self, calibrated_cusp):
        fit = calibrated_cusp.cusp.cone_fit_extent(0.95)
        with pytest.raises(ConstructionError):
            cusp_upper_bound(CuspFamilyParams(
                a_prime=0.95, eps=fit / 100, delta=fit * 1.5), calibrated_cusp)

    def test_eps_delta_validation(self):
        with pytest.raises(DomainRangeError):
            CuspFamilyParams(a_prime=0.95, eps=0.02, delta=0.05)

    @pytest.mark.parametrize("eps, delta", [
        (0.0, 0.05), (-1e-3, 0.05), (math.nan, 0.05), (math.inf, 0.05),
        (1e-3, math.inf), (1e-3, math.nan)])
    def test_eps_delta_must_be_finite_and_positive(self, eps, delta):
        with pytest.raises(DomainRangeError, match="finite 0 < 4 eps < delta"):
            CuspFamilyParams(a_prime=0.95, eps=eps, delta=delta)

    def test_positive_mass(self, calibrated_cusp):
        params = CuspFamilyParams(a_prime=0.95, eps=0.05 * 2.0 ** (-6),
                                  delta=0.05)
        rep = cusp_upper_bound(params, calibrated_cusp)
        assert rep.weighted_mass > 0
        assert rep.ratio >= 0.25
