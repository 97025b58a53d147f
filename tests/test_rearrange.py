import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crithardy import (DomainRangeError, DomainSpec, PolarGridFunction,
                       hardy_littlewood_check, polya_szego_check,
                       rearrange_domain, rearrange_function,
                       rearrangement_report)
from conftest import polar_random_bumps, smooth_bump


def grid_fn(dom, values, r=None, nt=None):
    nr, ntheta = values.shape
    r = r if r is not None else np.linspace(0.05, 0.95, nr)
    theta = np.arange(ntheta) * (2 * math.pi / ntheta)
    return PolarGridFunction(r=r, theta=theta, values=values, domain=dom)


class TestRearrangeDomain:
    def test_ball_fixed_point(self, ball):
        half = rearrange_domain(ball, np.linspace(0.1, 0.9, 9))
        assert np.allclose(half, math.pi)

    def test_half_disk(self, half_disk):
        half = rearrange_domain(half_disk, np.linspace(0.1, 0.9, 9))
        assert np.allclose(half, math.pi / 2)

    def test_two_arcs_merge(self):
        dom = DomainSpec.angular_profile(
            [(0.0, 1.0, [(0.2, 0.5), (1.0, 1.4)])], 1.0)
        half = rearrange_domain(dom, [0.5])
        assert 2 * half[0] == pytest.approx(0.3 + 0.4, rel=1e-12)

    def test_measure_preserved(self, half_disk):
        radii = np.linspace(0.1, 0.9, 17)
        half = rearrange_domain(half_disk, radii)
        from crithardy import profile_measure
        for r, s in zip(radii, half):
            assert 2 * s * r == pytest.approx(profile_measure(half_disk, r))


class TestRearrangeFunction:
    def test_constant_on_domain(self, half_disk):
        nr, nt = 10, 16
        vals = np.zeros((nr, nt))
        u = grid_fn(half_disk, vals)
        vals = np.where(u.mask, 2.5, 0.0)
        u = PolarGridFunction(r=u.r, theta=u.theta, values=vals,
                              domain=half_disk)
        star = rearrange_function(u)
        assert np.array_equal(np.sort(star.values, axis=1),
                              np.sort(u.values, axis=1))
        assert star.values[:, u.theta.size // 4].max() == 2.5  # top node kept

    def test_equimeasurable_random(self, half_disk):
        rng = np.random.default_rng(11)
        u = polar_random_bumps(half_disk, rng)
        star = rearrange_function(u)
        for i in range(u.r.size):
            assert np.array_equal(np.sort(u.values[i]), np.sort(star.values[i]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equimeasurable_property(self, half_disk, seed):
        rng = np.random.default_rng(seed)
        u = polar_random_bumps(half_disk, rng, nr=12, ntheta=16, n_bumps=2)
        star = rearrange_function(u)
        for i in range(u.r.size):
            assert np.array_equal(np.sort(u.values[i]), np.sort(star.values[i]))

    def test_sin_row_sorted_to_peak(self, ball):
        nt = 32
        r = np.linspace(0.3, 0.7, 3)
        theta = np.arange(nt) * (2 * math.pi / nt)
        vals = np.tile(np.abs(np.sin(theta))[None, :], (3, 1))
        u = PolarGridFunction(r=r, theta=theta, values=vals, domain=ball)
        star = rearrange_function(u)
        row = star.values[1]
        center = nt // 4  # theta = pi/2
        # peak at the top node, non-increasing away from it (alternation makes
        # the drop one rank per node)
        assert row[center] == row.max()
        offs = np.arange(1, nt // 2)
        assert np.all(np.diff(row[(center + offs) % nt]) <= 1e-15)
        assert np.all(np.diff(row[(center - offs) % nt]) <= 1e-15)

    def test_symmetry_within_rank_gap(self, half_disk):
        rng = np.random.default_rng(3)
        u = polar_random_bumps(half_disk, rng)
        star = rearrange_function(u)
        nt = u.theta.size
        center = nt // 4
        for i in range(0, u.r.size, 7):
            ranked = np.sort(u.values[i])[::-1]
            gaps = np.abs(np.diff(ranked))
            gap = gaps.max() if gaps.size else 0.0
            for s in range(1, nt // 2):
                lhs = star.values[i, (center + s) % nt]
                rhs = star.values[i, (center - s) % nt]
                assert abs(lhs - rhs) <= gap + 1e-15

    def test_pure_permutation(self, half_disk, monkeypatch):
        # the domain is read once, when the source function is built
        u = polar_random_bumps(half_disk, np.random.default_rng(5), nr=48)
        calls = []
        for name in ("profile_arcs", "slice_arcs"):
            def counted(self, r, name=name, read=getattr(DomainSpec, name)):
                calls.append(name)
                return read(self, r)

            monkeypatch.setattr(DomainSpec, name, counted)
        rearrange_function(u)
        assert calls == []

    def test_negative_rejected(self, ball):
        r = np.linspace(0.3, 0.7, 3)
        theta = np.arange(8) * (2 * math.pi / 8)
        vals = -np.ones((3, 8))
        u = PolarGridFunction(r=r, theta=theta, values=vals, domain=ball)
        with pytest.raises(DomainRangeError):
            rearrange_function(u)


class TestPolyaSzego:
    def test_radial_fixed_point(self, ball):
        r = np.linspace(0.05, 0.95, 60)
        f = smooth_bump(r, 0.2, 0.8)
        theta = np.arange(32) * (2 * math.pi / 32)
        u = PolarGridFunction(r=r, theta=theta,
                              values=np.tile(f[:, None], (1, 32)), domain=ball)
        _, _, margin = polya_szego_check(u)
        assert abs(margin) < 1e-6

    def test_random_suite_nonnegative(self, half_disk):
        rng = np.random.default_rng(42)
        for _ in range(50):
            u = polar_random_bumps(half_disk, rng)
            _, _, margin = polya_szego_check(u)
            assert margin >= -1e-3
            assert margin >= -1e-12  # discrete inequality is in fact exact

    def test_wall_clipped_bump_strict(self, half_disk):
        # off-center bump cut by the wall: rows are not translates of their
        # rearrangement, so the energy strictly decreases
        nr, nt = 40, 64
        r = np.linspace(0.05, 0.95, nr)
        theta = np.arange(nt) * (2 * math.pi / nt)
        dist = np.minimum(np.abs(theta[None, :] - 0.15),
                          2 * math.pi - np.abs(theta[None, :] - 0.15))
        vals = np.exp(-(((r[:, None] - 0.5) / 0.15) ** 2 + (dist / 0.5) ** 2))
        taper = np.clip(np.minimum((r - 0.05) / 0.1, (0.95 - r) / 0.1), 0, 1)
        u = PolarGridFunction(r=r, theta=theta, values=vals * taper[:, None],
                              domain=half_disk)
        _, _, margin = polya_szego_check(u)
        assert margin > 1e-6


class TestMassAndQuotient:
    def test_mass_preserved(self, half_disk):
        rng = np.random.default_rng(5)
        u = polar_random_bumps(half_disk, rng)
        rep = rearrangement_report(u)
        assert abs(rep["mass_gap"]) <= 1e-8
        assert rep["equimeasurable"]

    def test_quotient_monotone(self, half_disk):
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = polar_random_bumps(half_disk, rng)
            rep = rearrangement_report(u)
            assert rep["quotient_star"] <= rep["quotient"] + 1e-3


class TestHardyLittlewood:
    def test_constant_equality(self, half_disk):
        rng = np.random.default_rng(9)
        u = polar_random_bumps(half_disk, rng)
        ones = PolarGridFunction(r=u.r, theta=u.theta,
                                 values=np.ones_like(u.values),
                                 domain=half_disk)
        lhs, rhs = hardy_littlewood_check(u, ones)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_self_pairing(self, half_disk):
        rng = np.random.default_rng(10)
        u = polar_random_bumps(half_disk, rng)
        lhs, rhs = hardy_littlewood_check(u, u)
        assert rhs >= lhs - 1e-12

    def test_hundred_random_cases(self, half_disk):
        rng = np.random.default_rng(20240801)
        for _ in range(100):
            u = polar_random_bumps(half_disk, rng, nr=24, ntheta=32, n_bumps=3)
            v = polar_random_bumps(half_disk, rng, nr=24, ntheta=32, n_bumps=3)
            lhs, rhs = hardy_littlewood_check(u, v)
            assert rhs >= lhs - 1e-12
