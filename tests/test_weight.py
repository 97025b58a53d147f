import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crithardy import (DomainRangeError, WeightParams, boundary_taylor_gap,
                       cusp_flat_radius, cusp_h, cusp_ratio_infimum,
                       cusp_weight_ratio, weight_eval)
from crithardy.weight import _ratio_in_range, log_R_over


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


class TestCuspFrame:
    def test_h_limit_r_to_zero(self):
        assert cusp_h(1e-12, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_h_vertical(self):
        assert cusp_h(0.5, math.pi / 2) == pytest.approx(0.25, rel=1e-12)

    def test_h_arithmetic(self):
        assert cusp_h(0.2, math.pi / 6) == pytest.approx(0.84, rel=1e-12)

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
        r0 = cusp_flat_radius(a)
        assert 0 < r0 <= 0.5
        for r in np.linspace(1e-3, r0, 20):
            assert cusp_ratio_infimum(float(r), a) < 1.0

    def test_dominated_by_vertical(self):
        a = 0.9
        for r in (1e-3, 1e-2, 0.1, 0.3):
            assert cusp_ratio_infimum(r, a) <= cusp_weight_ratio(
                r, math.pi / 2) + 1e-12

    def test_scalar_ratio_matches_array_ratio(self):
        # the golden-section loop evaluates the ratio through math.sin and
        # math.log1p, which may differ from numpy's by an ulp
        rng = np.random.default_rng(0)
        r = 10.0 ** rng.uniform(-7.0, math.log10(0.5), 500)
        th = rng.uniform(0.8, math.pi / 2, 500)
        scalar = [_ratio_in_range(float(x), float(t), math)
                  for x, t in zip(r, th)]
        assert np.array(scalar) == pytest.approx(_ratio_in_range(r, th),
                                                 rel=1e-15, abs=0.0)


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
