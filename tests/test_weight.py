import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crithardy import (DomainRangeError, DomainSpec, PhiAlphaParams,
                       PsiBetaParams, WeightParams, boundary_taylor_gap, cusp_h,
                       cusp_ratio_infimum, cusp_weight_ratio,
                       phi_alpha_schedule, psi_beta_schedule,
                       radial_reduction_constant, weight_eval)
from crithardy.weight import _dimension, log_R_over


class TestWeightEval:
    def test_unit_radius_log_one(self):
        # |x| = 1/e, R = 1: log term is 1, value e^2
        p = WeightParams(R=1.0, N=2)
        assert weight_eval(p, math.exp(-1)) == pytest.approx(math.e**2, rel=1e-12)

    def test_R_e(self):
        p = WeightParams(R=math.e, N=2)
        assert weight_eval(p, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_N3(self):
        p = WeightParams(R=1.0, N=3)
        assert weight_eval(p, math.exp(-1)) == pytest.approx(math.e**3, rel=1e-12)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 1.0, 1.5])
    def test_range_errors(self, x):
        with pytest.raises(DomainRangeError):
            weight_eval(WeightParams(R=1.0, N=2), x)

    def test_below_float_resolution_of_R(self):
        # 1 + (r - R)/R rounds to 0 here; log(R/r) must not
        r = 1e-17
        expected = (r * math.log(1.0 / r)) ** -2
        assert weight_eval(WeightParams(R=1.0), r) == pytest.approx(
            expected, rel=1e-12)

    def test_blows_up_at_both_ends(self):
        p = WeightParams(R=1.0, N=2)
        assert weight_eval(p, 1e-9) > 1e6
        assert weight_eval(p, 1.0 - 1e-9) > 1e6


class TestDimension:
    """Every entry point that divides by N or N - 1 checks N >= 2 first."""

    ENTRIES = {
        "WeightParams": lambda N: WeightParams(R=1.0, N=N),
        "radial_reduction_constant": radial_reduction_constant,
        "PhiAlphaParams": lambda N: PhiAlphaParams(alpha=0.25, N=N),
        "PsiBetaParams": lambda N: PsiBetaParams(beta=1.5, N=N),
        "phi_alpha_schedule": lambda N: phi_alpha_schedule(range(3, 5), N=N),
        "psi_beta_schedule": lambda N: psi_beta_schedule(range(3, 5), N=N),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("N", [1, 0, -2, 2.5, True],
                             ids=["1", "0", "-2", "2.5", "True"])
    def test_rejects(self, entry, N):
        with pytest.raises(DomainRangeError, match="N must be an integer >= 2"):
            self.ENTRIES[entry](N)

    @pytest.mark.parametrize("N", [2, 3, np.int64(4)])
    def test_accepts(self, N):
        assert _dimension(N) is N
        assert WeightParams(R=1.0, N=N).N == N


class TestRadius:
    """The weight and the domain take a finite real outer radius above 0."""

    ENTRIES = {
        "WeightParams": lambda R: WeightParams(R=R),
        "DomainSpec.ball": DomainSpec.ball,
    }

    # an infinite R once gave NaN weights and a misleading domain error
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -1.0, True, "1"],
                             ids=["inf", "nan", "0", "-1", "True", "text"])
    def test_rejects(self, entry, R):
        with pytest.raises(DomainRangeError,
                           match="R must be a finite real number above 0"):
            self.ENTRIES[entry](R)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("R", [1e-3, 1, np.float64(2.5)])
    def test_accepts(self, entry, R):
        assert self.ENTRIES[entry](R).R == R


class TestTaylorGap:
    def test_near_boundary_small(self):
        p = WeightParams(R=1.0, N=2)
        assert abs(boundary_taylor_gap(p, 1.0 - 1e-4)) < 1e-3

    def test_half_radius_closed_form(self):
        # (0.25 log^2 2)/0.25 - 1 = log^2(2) - 1, from the defining formula
        p = WeightParams(R=1.0, N=2)
        assert boundary_taylor_gap(p, 0.5) == pytest.approx(
            -0.5195469860817986, abs=1e-12)

    def test_trend_to_zero(self):
        p = WeightParams(R=1.0, N=2)
        xs = np.linspace(0.99, 1.0 - 1e-6, 50)
        gaps = boundary_taylor_gap(p, xs)
        assert np.all(gaps < 0)  # the product undershoots (R-|x|)^N from below
        assert np.all(np.diff(np.abs(gaps)) < 0)

    def test_sup_near_boundary(self):
        p = WeightParams(R=1.0, N=2)
        xs = 1.0 - np.geomspace(1e-6, 1e-3, 200)
        assert np.max(np.abs(boundary_taylor_gap(p, xs))) < 1e-2


def where_log_R_over(p, x_norm):
    """Both forms on every point, one kept by ``np.where``: the reference
    for the masked `log_R_over`."""
    x = np.asarray(x_norm, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 0.7 * p.R, -np.log1p((x - p.R) / p.R),
                        np.log(p.R / x))


class TestLogROver:
    @pytest.mark.parametrize("R", [1.0, 0.9449967450181259, 2.5])
    def test_masked_forms_equal_the_where_form(self, R):
        # an array that straddles 0.7R, with 0.7R and its neighbours, radii
        # down to 1e-150 R, NaN and 0
        p = WeightParams(R=R, N=2)
        rng = np.random.default_rng(7)
        edge = 0.7 * R
        x = np.concatenate([
            rng.uniform(0.0, R, 4000), R * np.geomspace(1e-150, 1.0, 64),
            [edge, np.nextafter(edge, 0.0), np.nextafter(edge, R), math.nan,
             0.0]])
        rng.shuffle(x)
        want = where_log_R_over(p, x)
        assert np.array_equal(log_R_over(p, x), want, equal_nan=True)
        # the weight and the Taylor gap read it: their values do not move
        inside = (x > 0.0) & (x < R)
        xi = x[inside]
        assert np.array_equal(weight_eval(p, xi), (xi * want[inside]) ** -2)
        assert np.array_equal(boundary_taylor_gap(p, xi),
                              (xi * want[inside] / (R - xi)) ** 2 - 1.0)

    @pytest.mark.parametrize("x", [0.7, math.nan, 0.3, 0.95, 1e-17])
    def test_scalar_equals_the_where_form(self, x):
        p = WeightParams(R=1.0, N=2)
        got = log_R_over(p, x)
        assert type(got) is float
        assert np.array_equal(got, float(where_log_R_over(p, x)),
                              equal_nan=True)


class TestCuspFrame:
    def test_h_limit_r_to_zero(self):
        assert cusp_h(1e-12, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_h_vertical(self):
        assert cusp_h(0.5, math.pi / 2) == pytest.approx(0.25, rel=1e-12)

    def test_h_arithmetic(self):
        assert cusp_h(0.2, math.pi / 6) == pytest.approx(0.84, rel=1e-12)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_h_vertical_ray_near_tip(self, k):
        # h = (1 - r)^2 on the vertical ray; 1 - r is exact here, and the
        # expanded r^2 - 2 r + 1 cancels to 0.0 at r = 1 - 1e-9
        r = 1.0 - 10.0 ** -k
        assert cusp_h(r, math.pi / 2) == pytest.approx((1.0 - r) ** 2,
                                                       rel=1e-14, abs=0.0)

    @given(st.floats(1e-6, 0.999), st.floats(1e-6, math.pi - 1e-6))
    def test_h_lower_bound(self, r, theta):
        # h >= (1-r)^2, equality only on the vertical ray
        assert cusp_h(r, theta) >= (1 - r) ** 2 - 1e-15

    def test_ratio_tip_limit(self):
        assert cusp_weight_ratio(1e-6, math.pi / 2) == pytest.approx(1.0, abs=1e-5)

    def test_ratio_first_order(self):
        # 1 - r + O(r^2) on the vertical ray
        assert cusp_weight_ratio(1e-3, math.pi / 2) == pytest.approx(
            1.0 - 1e-3, abs=1e-4)

    def test_ratio_below_one_on_cone(self):
        thetas = np.linspace(math.pi / 4 + 1e-3, 3 * math.pi / 4 - 1e-3, 200)
        assert np.all(cusp_weight_ratio(1e-2, thetas) < 1.0)

    def test_ratio_symmetry(self):
        r = 0.1
        for th in (1.0, 1.2, 1.5):
            assert cusp_weight_ratio(r, th) == pytest.approx(
                cusp_weight_ratio(r, math.pi - th), rel=1e-12)


class TestSliceInfimum:
    def test_limit_one(self):
        a = 0.9
        vals = [cusp_ratio_infimum(10.0 ** (-k), a) for k in range(2, 7)]
        assert abs(vals[-1] - 1.0) < 1e-3
        assert all(b > a_ for a_, b in zip(vals, vals[1:]))  # increasing to 1

    def test_below_one(self):
        a = 0.9
        for r in np.linspace(1e-3, 0.5, 20):
            assert cusp_ratio_infimum(float(r), a) < 1.0

    def test_dominated_by_vertical(self):
        a = 0.9
        for r in (1e-3, 1e-2, 0.1, 0.3):
            assert cusp_ratio_infimum(r, a) <= cusp_weight_ratio(
                r, math.pi / 2) + 1e-12

    @pytest.mark.parametrize("r, a, end", [
        (0.3, 0.8, "edge"),
        (1e-4, 0.9, "edge"),
        (0.5, 1.4, "vertical"),
        (0.7, 1.1, "vertical"),
        (0.9, 0.8, "vertical"),
    ])
    def test_matches_dense_scan(self, r, a, end):
        # the ratio has no interior minimum on the slice, so the infimum is
        # its value at the edge theta = a or on the vertical ray
        scan = cusp_weight_ratio(r, np.linspace(a, math.pi / 2, 20001))
        inf = cusp_ratio_infimum(r, a)
        assert inf == pytest.approx(scan.min(), rel=1e-15, abs=0.0)
        assert np.argmin(scan) == (0 if end == "edge" else scan.size - 1)

    @pytest.mark.parametrize("a", [0.3, 0.9, 1.1])
    def test_array_matches_scalar_calls(self, a):
        # both ends, and the zero branch from 2 sin a <= r on
        edge = 2.0 * math.sin(a)
        r = np.concatenate([np.geomspace(1e-7, 0.5, 96),
                            [x for x in (np.nextafter(edge, 0.0), edge, 0.9,
                                         1.0 - 1e-9) if x < 1.0]])
        out = cusp_ratio_infimum(r, a)
        ref = np.array([cusp_ratio_infimum(float(x), a) for x in r])
        assert isinstance(out, np.ndarray) and out.shape == r.shape
        assert type(cusp_ratio_infimum(float(r[0]), a)) is float
        assert np.array_equal(out, ref)
        assert np.all((out == 0.0) == (edge <= r))
        with pytest.raises(DomainRangeError):
            cusp_ratio_infimum(np.append(r, 1.0), a)

    def test_slice_through_unit_circle(self):
        # 2 sin(0.3) < 0.9: the slice meets the unit circle, where h = 1
        assert cusp_ratio_infimum(0.9, 0.3) == 0.0

    def test_vertical_ray_below_one(self):
        # ((1 - r) log(1 - r) / r)^2 < 1 because x log(1/x) < 1 - x
        r = np.geomspace(1e-7, 1.0 - 1e-9, 2001)
        assert np.all(cusp_weight_ratio(r, math.pi / 2) < 1.0)


class TestReturnTypes:
    P = WeightParams(R=1.0, N=2)

    @pytest.mark.parametrize("f, args", [
        (log_R_over, (P, 0.5)),
        (weight_eval, (P, 0.5)),
        (boundary_taylor_gap, (P, 0.5)),
        (cusp_h, (0.5, 1.0)),
        (cusp_weight_ratio, (0.5, 1.0)),
    ])
    def test_float_for_scalars_array_otherwise(self, f, args):
        assert type(f(*args)) is float
        assert type(f(*args[:-1], np.array(args[-1]))) is float
        out = f(*args[:-1], np.array([args[-1]] * 3))
        assert isinstance(out, np.ndarray) and out.shape == (3,)
