import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf
from scipy.optimize import least_squares

from crithardy import (DomainRangeError,
                       NonConvergenceError, NumericalError,
                       angular_eigenvalue, angular_identity_residual,
                       arc_poincare_constant,
                       extrapolate_angular_zero_limit, hardy_1d_quotient,
                       invert_angular_eigenvalue, radial_reduction_constant,
                       sin_power_quotient, solve_angular)
from crithardy import oned
from crithardy.oned import (_angular_nodes, _rate_fit, _smallest_pair,
                            sin_integral)
from conftest import smooth_bump, smooth_bump_d


class TestHardy1D:
    def test_tent_closed_form(self):
        # mass = 1 + 2/3 + int_3^4 (4-t)^2/t^2 = 4 + 8 log(3/4); oracle: sympy
        t = np.array([0.0, 1.0, 3.0, 4.0])
        v = np.array([0.0, 1.0, 1.0, 0.0])
        assert hardy_1d_quotient(t, v, 2) == pytest.approx(
            1.1774794662274717, abs=1e-8)

    def test_two_quadratures_agree(self):
        t = np.linspace(0.0, 1.0, 800)
        v = t**0.9 * (1 - t)
        v[-1] = 0.0
        q_gauss = hardy_1d_quotient(t, v, 2)
        # independent composite-Simpson oracle on the same piecewise-linear
        # model, sub-paneled so its own error is below the comparison level
        slopes = np.diff(v) / np.diff(t)
        mass = 0.0
        for i in range(t.size - 1):
            sub = np.linspace(t[i], t[i + 1], 17)
            vv = v[i] + slopes[i] * (sub - t[i])
            f = np.where(sub > 0, (vv / np.where(sub > 0, sub, 1.0)) ** 2,
                         slopes[i] ** 2)
            h = sub[1] - sub[0]
            mass += h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum()
                             + 2 * f[2:-1:2].sum())
        energy = np.sum(slopes**2 * np.diff(t))
        assert q_gauss == pytest.approx(energy / mass, rel=1e-7)
        assert q_gauss >= 0.25

    def test_exponent_family_limit(self):
        t = np.concatenate([[0.0], np.geomspace(1e-180, 1.0, 2500)])
        alpha = 0.5 + 2.0 ** (-8)
        v = t**alpha * (1 - t)
        v[-1] = 0.0
        q = hardy_1d_quotient(t, v, 2)
        assert abs(q - 0.25) < 0.02

    @given(st.integers(2, 6))
    @settings(max_examples=5, deadline=None)
    def test_lower_bound_property(self, p):
        t = np.linspace(0.0, 2.0, 300)
        v = smooth_bump(t, 0.3, 1.7)
        assert hardy_1d_quotient(t, v, p) >= ((p - 1) / p) ** p - 1e-9


class TestAngularEigenvalue:
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 1.4])
    def test_above_quarter(self, a):
        assert angular_eigenvalue(a) > 0.25

    def test_analytic_bracket(self):
        # identity-based lower bound (1 + sin^2 a)/4 and the Dirichlet
        # eigenvalue upper bound (pi/(pi-2a))^2
        for a in (0.1, 0.5, 0.9, 1.3):
            e = angular_eigenvalue(a)
            assert (1 + math.sin(a) ** 2) / 4 <= e <= (math.pi / (math.pi - 2 * a)) ** 2

    def test_monotone_on_grid(self):
        grid = np.linspace(0.05, 1.5, 20)
        vals = [angular_eigenvalue(float(a)) for a in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_zero_limit_extrapolation(self):
        c, info = extrapolate_angular_zero_limit()
        assert c == pytest.approx(0.25, abs=1e-3)

    def test_zero_not_solved_directly(self):
        with pytest.raises(DomainRangeError):
            solve_angular(0.0)

    @pytest.mark.parametrize("a, m", [(-0.1, 2048), (math.pi / 2, 2048),
                                      (math.nan, 2048), (0.9, 8)])
    def test_out_of_range_rejected(self, a, m):
        with pytest.raises(DomainRangeError):
            solve_angular(a, m)

    def test_eigenfunction_positive(self):
        res = solve_angular(0.7)
        assert np.all(res.phi[1:-1] > 0)
        assert np.trapezoid(res.phi ** 2, res.theta) == pytest.approx(1.0)

    def test_richardson_consistency(self):
        res = solve_angular(0.9, 512)
        assert res.value == pytest.approx(angular_eigenvalue(0.9), rel=1e-6)

    @pytest.mark.parametrize("a", [0.5, 0.9, 1.2, 1.4])
    def test_ferrers_oracle(self, a):
        # phi = sqrt(sin) P^{i tau}_{-1/2}(+-cos) solves the problem with
        # E = 1/4 + tau^2; the even combination over its value at pi/2 is real
        mp = pytest.importorskip("mpmath")

        def even(tau, x):
            return (mp.legenp(-0.5, 1j * tau, x, type=2)
                    + mp.legenp(-0.5, 1j * tau, -x, type=2))

        e = angular_eigenvalue(a)
        with mp.workdps(30):
            tau = mp.findroot(
                lambda t: mp.re(even(t, mp.cos(a)) / even(t, 0)),
                mp.sqrt(e - 0.25))
            oracle = float(0.25 + tau**2)
        assert e == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("a", [0.9, 1.2])
    def test_monotone_at_inversion_scale(self, a):
        # steps of 1e-11 move E by ~1e-10 (the inversion tolerance); LAPACK's
        # bisection eigenvalue goes down on about a sixth of them
        vals = np.array([angular_eigenvalue(a + k * 1e-11, 512)
                         for k in range(200)])
        assert np.all(np.diff(vals) >= 0.0)

    def test_inversion(self):
        target = angular_eigenvalue(0.9, 1024) * 1.07
        a_r = invert_angular_eigenvalue(target, solve_angular(0.9, 1024)).a
        assert angular_eigenvalue(a_r, 1024) == pytest.approx(target, abs=1e-9)
        assert a_r > 0.9

    @pytest.mark.parametrize("guess", [1.0, 1.2, 1.5, 0.5, 0.9, math.pi / 2])
    def test_inversion_any_guess_converges(self, guess):
        # 1.0 is the root; 1.2 and 1.5 lie in the bracket on the wrong side
        # of it, 0.5, 0.9 (= lower.a) and pi/2 outside the open bracket
        target = angular_eigenvalue(1.0, 1024)
        a_r = invert_angular_eigenvalue(target, solve_angular(0.9, 1024),
                                        guess=guess).a
        assert abs(angular_eigenvalue(a_r, 1024) - target) <= 1e-10
        assert a_r == pytest.approx(1.0, abs=1e-10)

    def test_inversion_target_at_lower_end(self):
        lower = solve_angular(0.9, 1024)
        assert invert_angular_eigenvalue(lower.value, lower) is lower

    def test_inversion_target_below_lower_end(self):
        lower = solve_angular(0.9, 1024)
        with pytest.raises(DomainRangeError):
            invert_angular_eigenvalue(lower.value - 1e-6, lower)

    def test_inversion_unresolvable_target_raises(self):
        # E(a) on the 1024 grid steps by more than 1e-10 per 1e-14 in the
        # angle near pi/2, so the bracket runs out before value_tol is met
        with pytest.raises(NonConvergenceError) as info:
            invert_angular_eigenvalue(1e6, solve_angular(0.3, 1024))
        diag = info.value.diagnostics
        assert diag["target"] == 1e6
        assert 0.3 < diag["a"] < math.pi / 2
        assert abs(diag["gap"]) > 1e-10

    def test_inversion_steep_target(self):
        # E(1.5) ~ 492 with dE/da ~ 1.4e4: 1e-10 in E is 7e-15 in the angle
        target = angular_eigenvalue(1.5, 1024)
        a_r = invert_angular_eigenvalue(target, solve_angular(0.9, 1024)).a
        assert abs(angular_eigenvalue(a_r, 1024) - target) <= 1e-10
        assert a_r == pytest.approx(1.5, abs=1e-13)


def _angular_matrix(nodes):
    """The discretization of `_smallest_pair` on the given nodes: cell
    widths, lumped weights, stiffness diagonals, and the symmetric
    tridiagonal ``T = W^-1/2 K W^-1/2`` with its scaling ``s = W^-1/2``."""
    h = np.diff(nodes)
    w = 0.5 * (h[:-1] + h[1:]) / np.sin(nodes[1:-1]) ** 2
    diag = 1.0 / h[:-1] + 1.0 / h[1:]
    off = -1.0 / h[1:-1]
    s = 1.0 / np.sqrt(w)
    return h, w, diag, off, s, diag * s * s, off * s[:-1] * s[1:]


def bisection_pair(nodes):
    """`_smallest_pair` with LAPACK's bisection eigenvector
    (`eigh_tridiagonal(select="i")`): the reference for the inverse
    iteration.  Rayleigh quotient, residual and sign as in `_smallest_pair`."""
    h, w, diag, off, s, t_diag, t_off = _angular_matrix(nodes)
    _, vecs = eigh_tridiagonal(t_diag, t_off, select="i",
                               select_range=(0, 0))
    phi = s * vecs[:, 0]
    dphi = np.diff(phi, prepend=0.0, append=0.0)
    mu = float(np.sum(dphi * dphi / h) / (phi @ (w * phi)))
    kv = diag * phi
    kv[:-1] += off * phi[1:]
    kv[1:] += off * phi[:-1]
    rnorm = float(np.linalg.norm(kv - mu * w * phi)
                  / np.linalg.norm(w * phi))
    if phi[phi.size // 2] < 0:
        phi = -phi
    return mu, phi, rnorm


_GROUND_A = [1e-11, 1e-4, 0.05, 0.3, 0.82, 0.9, 1.08, 1.45, 1.55]


def _both_grids(a, m):
    """The coarse and the fine node vectors that `solve_angular` solves on."""
    coarse = _angular_nodes(a, m)
    fine = np.sort(np.concatenate([coarse, 0.5 * (coarse[:-1] + coarse[1:])]))
    return coarse, fine


class TestGroundState:
    """`_smallest_pair`'s certified inverse iteration against the bisection
    eigenvector, and the inertia certificate behind its shifts."""

    @pytest.mark.parametrize("m", [512, 1024, 2048])
    @pytest.mark.parametrize("a", _GROUND_A)
    def test_matches_bisection(self, a, m):
        for nodes in _both_grids(a, m):
            mu, phi, rnorm = _smallest_pair(nodes)
            mu_ref, _, rnorm_ref = bisection_pair(nodes)
            assert mu == pytest.approx(mu_ref, rel=4e-15, abs=0.0)
            assert rnorm <= 2.0 * rnorm_ref
            assert np.all(phi > 0.0)

    @pytest.mark.parametrize("m", [512, 1024, 2048])
    @pytest.mark.parametrize("a", _GROUND_A)
    def test_sylvester_certificate(self, a, m):
        # T - sigma I factors as a positive-definite LDL^T exactly when sigma
        # lies below the smallest eigenvalue of T
        for nodes in _both_grids(a, m):
            mu = _smallest_pair(nodes)[0]
            t_diag, t_off = _angular_matrix(nodes)[5:]
            assert dpttrf(t_diag - mu * (1.0 - 1e-9), t_off)[2] == 0
            assert dpttrf(t_diag - mu * (1.0 + 1e-6), t_off)[2] > 0

    @pytest.mark.parametrize("m", [512, 2048])
    @pytest.mark.parametrize("a", [0.9, 1e-11])  # uniform and graded nodes
    def test_solve_angular_interleaves_midpoints(self, a, m):
        theta = solve_angular(a, m).theta
        assert np.array_equal(theta, _both_grids(a, m)[1])

    def test_step_cap_raises(self, monkeypatch):
        # one step cannot show that mu has settled
        monkeypatch.setattr(oned, "_GROUND_STEPS", 1)
        with pytest.raises(NonConvergenceError) as info:
            _smallest_pair(_angular_nodes(0.9, 512))
        assert info.value.diagnostics["n"] == 511

    def test_indefinite_matrix_raises(self):
        # a node that steps back gives a negative stiffness diagonal, so T
        # is not positive definite at shift 0
        nodes = _angular_nodes(0.9, 512).copy()
        nodes[100] = nodes[99] - 0.25 * (nodes[101] - nodes[99])
        with pytest.raises(NumericalError, match="not positive definite"):
            _smallest_pair(nodes)


def _count_steps(monkeypatch):
    """A list that gains one entry per inverse-iteration step (dpttrs call)."""
    steps = []
    trs = oned.dpttrs

    def counted(*args, **kwargs):
        steps.append(1)
        return trs(*args, **kwargs)

    monkeypatch.setattr(oned, "dpttrs", counted)
    return steps


_SEED_A = [1e-11, 1e-4, 0.06, 0.3, 0.79, 0.9, 1.1, 1.4]  # graded and uniform


class TestCertifiedStart:
    """`_smallest_pair` adopts a start only when its shift factors; any other
    start leaves the cold solve as it is, bit for bit."""

    @staticmethod
    def assert_cold(nodes, start):
        mu, phi, rnorm = _smallest_pair(nodes)
        mu_s, phi_s, rnorm_s = _smallest_pair(nodes, start)
        assert mu_s == mu and rnorm_s == rnorm
        assert np.array_equal(phi_s, phi)

    @pytest.mark.parametrize("a", [0.3, 0.9, 1.4])
    def test_shift_above_eigenvalue_runs_cold(self, a):
        nodes = _angular_nodes(a, 512)
        mu, phi, _ = _smallest_pair(nodes)
        self.assert_cold(nodes, (phi, mu * 1.01))

    @pytest.mark.parametrize("entry", [0.0, -1e-3, math.nan])
    @pytest.mark.parametrize("at", [0, 200, -1])
    def test_nonpositive_vector_runs_cold(self, entry, at):
        mu, phi, _ = _smallest_pair(_angular_nodes(0.89, 512))
        phi = phi.copy()
        phi[at] = entry
        self.assert_cold(_angular_nodes(0.9, 512), (phi, mu))

    @pytest.mark.parametrize("start", [
        pytest.param(lambda mu, phi: (phi, 0.0), id="zero-shift"),
        pytest.param(lambda mu, phi: (phi, -mu), id="negative-shift"),
        pytest.param(lambda mu, phi: (phi[1:], mu), id="short-vector"),
    ])
    def test_unusable_start_runs_cold(self, start):
        mu, phi, _ = _smallest_pair(_angular_nodes(0.89, 512))
        self.assert_cold(_angular_nodes(0.9, 512), start(mu, phi))

    def test_rejected_start_on_indefinite_matrix_raises(self):
        nodes = _angular_nodes(0.9, 512).copy()
        nodes[100] = nodes[99] - 0.25 * (nodes[101] - nodes[99])
        with pytest.raises(NumericalError, match="not positive definite"):
            _smallest_pair(nodes, (np.ones(511), 1.0))

    @pytest.mark.parametrize("m", [512, 2048])
    @pytest.mark.parametrize("a, gap", [(0.82, 1e-6), (0.9, 1e-3),
                                        (1.08, 1e-2)])
    def test_lower_angle_start(self, a, gap, m, monkeypatch):
        # E is non-decreasing in the angle, so a lower angle's eigenvalue on
        # the same grid size is a shift below the smallest eigenvalue
        mu_lo, phi_lo, _ = _smallest_pair(_angular_nodes(a - gap, m))
        nodes = _angular_nodes(a, m)
        mu_cold = _smallest_pair(nodes)[0]
        t_diag, t_off = _angular_matrix(nodes)[5:]
        assert dpttrf(t_diag - mu_lo, t_off)[2] == 0
        steps = _count_steps(monkeypatch)
        mu, phi, _ = _smallest_pair(nodes, (phi_lo, mu_lo))
        assert len(steps) <= 3
        assert mu == pytest.approx(mu_cold, rel=4e-15, abs=0.0)
        assert np.all(phi > 0.0)

    @pytest.mark.parametrize("m", [512, 1024, 2048])
    @pytest.mark.parametrize("a", _SEED_A)
    def test_fine_seed_accepted(self, a, m, monkeypatch):
        # the coarse eigenvalue lies below the fine one, so the prolongated
        # coarse pair is a certified start for the fine solve
        coarse, fine = _both_grids(a, m)
        mu_c, phi_c, _ = _smallest_pair(coarse)
        mu_cold = _smallest_pair(fine)[0]
        t_diag, t_off = _angular_matrix(fine)[5:]
        assert dpttrf(t_diag - mu_c, t_off)[2] == 0
        steps = _count_steps(monkeypatch)
        mu_f = _smallest_pair(fine, (oned._prolong(phi_c), mu_c))[0]
        assert len(steps) <= 3
        assert mu_c < mu_f
        assert mu_f == pytest.approx(mu_cold, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("m", [512, 1024, 2048])
    @pytest.mark.parametrize("a", _SEED_A)
    def test_value_matches_cold_pairs(self, a, m):
        coarse, fine = _both_grids(a, m)
        cold = (4.0 * _smallest_pair(fine)[0] - _smallest_pair(coarse)[0]) / 3.0
        assert angular_eigenvalue(a, m) == pytest.approx(cold, rel=1e-15,
                                                         abs=0.0)

    def test_prolong_keeps_coarse_values(self):
        phi_c = np.array([1.0, 4.0, 2.0])
        assert np.array_equal(oned._prolong(phi_c),
                              [0.5, 1.0, 2.5, 4.0, 3.0, 2.0, 1.0])

    def test_inversion_returns_root_eigenvalue(self):
        lower = solve_angular(0.9, 512)
        target = lower.value * 1.07
        root = invert_angular_eigenvalue(target, lower)
        assert abs(root.value - target) <= 1e-10
        assert root.value == pytest.approx(angular_eigenvalue(root.a, 512),
                                           rel=1e-15, abs=0.0)
        assert root.grid_size == 512


def _ball_windows(ns):
    """Log-window lengths of the unit ball's truncations, as `mesh_truncated`
    records them."""
    n = np.asarray(ns, dtype=float)
    return np.log(np.log(n) / -np.log1p(-1.0 / n))


def _cusp_windows(a, ns):
    """Log-window lengths of the calibrated cusp's tip-frame truncations, up
    to the default profile extent 0.5."""
    n = np.asarray(ns, dtype=float)
    sa = math.sin(a)
    rho_c = sa - np.sqrt(sa * sa - 2.0 / n + 1.0 / (n * n))
    return np.log(0.5 / rho_c)


class TestRateFit:
    """`_rate_fit` on exact ``C + beta/(x + gamma)^2`` data, at the abscissae
    of its two callers: the FEM windows and the a -> 0 log grid."""

    @pytest.mark.parametrize("x, c, beta, gamma", [
        pytest.param(_ball_windows([4, 8, 16, 32]), 0.25, math.pi ** 2, 0.0,
                     id="ball"),
        pytest.param(_ball_windows([4, 8, 16, 32]), 0.25, math.pi ** 2, 0.3,
                     id="ball-shifted"),
        pytest.param(_cusp_windows(0.95, [16, 64, 256, 1024]), 6.07, 13.2,
                     0.44, id="cusp-0.95"),
        pytest.param(np.log(10.0 ** np.arange(4, 12)), 0.25, 9.14, 2.95,
                     id="a-to-0"),
    ])
    def test_recovers_limit(self, x, c, beta, gamma):
        fit = _rate_fit(x, c + beta / (x + gamma) ** 2)
        assert fit["C"] == pytest.approx(c, rel=1e-10)
        assert fit["residual"] < 1e-8


# d_n sequences of `fem2d.extrapolate_constant` at its default target_h:
# the ball at five radii and the cone and quadratic cusp on 4, 8, 16, 32,
# the calibrated cusp at three angles on 16, 64, ..., 16384
_FIT_SEQUENCES = json.loads(
    (Path(__file__).parent / "data" / "rate_fit_sequences.json").read_text())


def _fit_sequence(name):
    """Abscissae and values of a stored sequence, or of the a -> 0 limit."""
    if name == "a-to-0":
        _, info = extrapolate_angular_zero_limit()
        return np.log(1.0 / np.array(info["a"])), np.array(info["values"])
    seq = _FIT_SEQUENCES[name]
    return np.array(seq["windows"]), np.array(seq["values"])


def _least_squares_fit(x, y):
    """``(C, beta, gamma)`` of the same bounded fit by
    `scipy.optimize.least_squares` from the last value, at its default
    tolerances."""
    def resid(par):
        c, beta, gamma = par
        return c + beta / (x + gamma) ** 2 - y

    fit = least_squares(
        resid, x0=[y[-1], max(y[0] - y[-1], 1e-3), 0.0],
        bounds=([-np.inf, 0.0, -0.9 * x.min()], [np.inf, np.inf, 50.0]))
    return tuple(float(v) for v in fit.x)


def _exact_ssr(x, y, c, beta, gamma):
    """Sum of squared misfits of float parameters in rational arithmetic:
    a float sum rounds at about 1e-12 of itself on the ball's sequences."""
    c, beta, gamma = map(Fraction, (c, beta, gamma))
    return sum((c + beta / (Fraction(xi) + gamma) ** 2 - Fraction(yi)) ** 2
               for xi, yi in zip(x.tolist(), y.tolist()))


def _minimizer_c(x, y, gamma0):
    """C at the stationary gamma nearest ``gamma0`` of the projected sum of
    squares, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xs, ys = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
        y_mean = mpmath.fsum(ys) / len(ys)

        def project(g):
            u = [1 / (xi + g) ** 2 for xi in xs]
            u_mean = mpmath.fsum(u) / len(u)
            beta = (mpmath.fsum((ui - u_mean) * (yi - y_mean)
                                for ui, yi in zip(u, ys))
                    / mpmath.fsum((ui - u_mean) ** 2 for ui in u))
            c = y_mean - beta * u_mean
            slope = mpmath.fsum((c + beta * ui - yi) * ui / (xi + g)
                                for ui, xi, yi in zip(u, xs, ys))
            return c, slope

        g = mpmath.findroot(lambda t: project(t)[1], mpmath.mpf(gamma0))
        return float(project(g)[0])


class TestRateFitOnSequences:
    """`_rate_fit` on the d_n sequences its callers fit, against
    `least_squares` (the fit it replaced) and the exact minimizer."""

    @pytest.mark.parametrize("name", [*_FIT_SEQUENCES, "a-to-0"])
    def test_no_worse_than_least_squares(self, name):
        x, y = _fit_sequence(name)
        fit = _rate_fit(x, y)
        ref = _least_squares_fit(x, y)
        assert (_exact_ssr(x, y, fit["C"], fit["beta"], fit["gamma"])
                <= _exact_ssr(x, y, *ref) * (1 + Fraction(1, 10 ** 12)))
        # least_squares stops up to 5.3e-8 short of the minimum in C
        # (cone 0.7), so C is held to the exact minimizer below
        assert fit["C"] == pytest.approx(ref[0], rel=1e-7)

    @pytest.mark.parametrize("name", [*_FIT_SEQUENCES, "a-to-0"])
    def test_reaches_the_minimizer(self, name):
        x, y = _fit_sequence(name)
        gamma0 = _least_squares_fit(x, y)[2]
        assert _rate_fit(x, y)["C"] == pytest.approx(
            _minimizer_c(x, y, gamma0), rel=1e-10)


class TestIdentity:
    def test_sin_squared(self):
        r = angular_identity_residual(lambda x: np.sin(x) ** 2,
                                      lambda x: 2 * np.sin(x) * np.cos(x))
        assert abs(r) < 1e-8

    def test_bump(self):
        r = angular_identity_residual(lambda x: smooth_bump(x, 0.5, 2.5),
                                      lambda x: smooth_bump_d(x, 0.5, 2.5),
                                      support=(0.5, 2.5))
        assert abs(r) < 1e-8

    def test_quotient_consequence(self):
        # LHS >= int u^2/4 >= 0 forces the angular quotient above 1/4
        for lo, hi in ((0.3, 1.1), (0.9, 2.9), (1.4, 2.2)):
            u = lambda x: smooth_bump(x, lo, hi)
            du = lambda x: smooth_bump_d(x, lo, hi)
            grid = np.linspace(lo, hi, 4001)
            energy = np.trapezoid(du(grid) ** 2, grid)
            mass = np.trapezoid(u(grid) ** 2 / np.sin(grid) ** 2, grid)
            assert energy / mass >= 0.25


class TestSinPower:
    def test_alpha_one(self):
        q = sin_power_quotient(1.0)
        assert q == pytest.approx(0.5, abs=1e-10)
        gamma_form = 1.0 - sin_integral(2.0) / sin_integral(0.0)
        assert q == pytest.approx(gamma_form, abs=1e-10)

    def test_alpha_small(self):
        q = sin_power_quotient(0.51)
        assert 0.25 < q <= 0.51**2

    def test_decreasing_to_quarter(self):
        vals = [sin_power_quotient(0.5 + 2.0 ** (-k)) for k in range(1, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.25 + 2.0 ** (-9), abs=2e-3)

    def test_at_most_alpha_squared(self):
        for alpha in (0.55, 0.7, 1.3, 2.0):
            assert sin_power_quotient(alpha) <= alpha**2

    def test_rejects_nonintegrable(self):
        with pytest.raises(DomainRangeError):
            sin_power_quotient(0.5)


class TestArcPoincare:
    def test_pi_arc(self):
        assert arc_poincare_constant(math.pi, 2) == pytest.approx(1.0)

    def test_half_pi_arc(self):
        assert arc_poincare_constant(math.pi / 2, 2) == pytest.approx(4.0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_scaling(self, p):
        for L in (2.0, 1.0):
            lam = arc_poincare_constant(L, p)
            lam_half = arc_poincare_constant(L / 2, p)
            assert lam_half == pytest.approx(2**p * lam, rel=1e-12)


class TestRadialReduction:
    @pytest.mark.parametrize("N,target", [(2, 0.25), (3, 8 / 27),
                                          (10, 0.9**10)])
    def test_limits(self, N, target):
        assert radial_reduction_constant(N) == pytest.approx(target, abs=0.02)
