"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; timers measure the criterion's own work
(shared session fixtures are built inside the first criterion that needs
them, so budgets are honest for a cold run of this module).
"""

import math
import time

import numpy as np

from crithardy import (CuspFamilyParams, DomainSpec, PolarGridFunction,
                       RadialFunction, WeightParams, angular_eigenvalue,
                       angular_identity_residual, boundary_taylor_gap,
                       cusp_ratio_infimum, cusp_upper_bound,
                       extrapolate_angular_zero_limit, extrapolate_constant,
                       hardy_littlewood_check, hardy_scale, phi_alpha_schedule,
                       polya_szego_check, psi_beta_schedule, quotient_radial,
                       radial_reduction_constant, rearrange_function,
                       sin_power_quotient)
from conftest import polar_random_bumps, smooth_bump, smooth_bump_d

WP = WeightParams(R=1.0, N=2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_ball_constant(ball):
    t0 = time.time()
    est = extrapolate_constant(ball, [4, 8, 16, 32], target_h=0.02)
    elapsed = time.time() - t0
    ok = 0.24 <= est.estimate <= 0.26 and elapsed <= 60.0
    report(1, ok, f"ball constant {est.estimate:.5f} in [0.24, 0.26], "
                  f"{elapsed:.1f}s <= 60s")


def test_criterion_2_test_function_limits():
    t0 = time.time()
    phi_rows = phi_alpha_schedule(range(3, 11), c=0.5, N=2)
    t_phi = time.time() - t0
    phi_ratios = [r for _, r, _ in phi_rows]
    phi_ok = (abs(phi_ratios[-1] - 0.25) <= 0.02
              and all(b <= a + 1e-3 for a, b in zip(phi_ratios, phi_ratios[1:]))
              and t_phi <= 5.0)
    t0 = time.time()
    psi_rows = psi_beta_schedule(range(3, 11), N=2)
    t_psi = time.time() - t0
    psi_ratios = [r for _, r, _ in psi_rows]
    psi_ok = (abs(psi_ratios[-1] - 0.25) <= 0.02
              and all(b <= a + 1e-3 for a, b in zip(psi_ratios, psi_ratios[1:]))
              and t_psi <= 5.0)
    report(2, phi_ok and psi_ok,
           f"phi ratio {phi_ratios[-1]:.4f} ({t_phi:.2f}s), "
           f"psi ratio {psi_ratios[-1]:.4f} ({t_psi:.2f}s), both monotone")


def test_criterion_3_radial_reduction():
    t0 = time.time()
    vals = {n: radial_reduction_constant(n) for n in (2, 3, 10)}
    elapsed = time.time() - t0
    targets = {2: 0.25, 3: 8 / 27, 10: 0.9**10}
    ok = all(abs(vals[n] - targets[n]) <= 0.02 for n in vals) and elapsed <= 5.0
    report(3, ok, ", ".join(f"N={n}: {vals[n]:.4f} (target {targets[n]:.4f})"
                            for n in vals) + f", {elapsed:.2f}s <= 5s")


def test_criterion_4_angular_suite():
    t0 = time.time()
    low = {a: angular_eigenvalue(a) for a in (0.1, 0.5, 1.0)}
    ok_low = all(v >= 0.25 + 1e-3 for v in low.values())
    grid = np.linspace(0.05, 1.5, 20)
    seq = [angular_eigenvalue(float(a)) for a in grid]
    ok_mono = all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))
    e0, _ = extrapolate_angular_zero_limit()
    ok_e0 = abs(e0 - 0.25) <= 1e-3
    sins = [sin_power_quotient(0.5 + 2.0 ** (-k)) for k in range(1, 9)]
    ok_sin = all(q <= (0.5 + 2.0 ** (-k)) ** 2 + 1e-12
                 for k, q in zip(range(1, 9), sins)) \
        and all(b < a for a, b in zip(sins, sins[1:])) \
        and abs(sins[-1] - 0.25) < 5e-3
    res1 = angular_identity_residual(lambda x: np.sin(x) ** 2,
                                     lambda x: 2 * np.sin(x) * np.cos(x))
    res2 = angular_identity_residual(lambda x: smooth_bump(x, 0.5, 2.5),
                                     lambda x: smooth_bump_d(x, 0.5, 2.5),
                                     support=(0.5, 2.5))
    ok_id = max(abs(res1), abs(res2)) < 1e-6
    elapsed = time.time() - t0
    ok = ok_low and ok_mono and ok_e0 and ok_sin and ok_id and elapsed <= 10.0
    report(4, ok, f"E(a) floor ok={ok_low}, monotone={ok_mono}, "
                  f"E(0+)={e0:.5f}, sin-family ok={ok_sin}, "
                  f"identity residual {max(abs(res1), abs(res2)):.1e}, "
                  f"{elapsed:.1f}s <= 10s")


def test_criterion_5_scaling_invariance():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(10):
        lo = rng.uniform(0.1, 1.2)
        hi = lo + rng.uniform(0.5, 1.6)
        t = np.linspace(1e-3, 3.2, 2400)
        v = smooth_bump(t, lo, hi)
        u = RadialFunction(r=np.exp(-t)[::-1], values=v[::-1].copy())
        q0 = quotient_radial(u, WP).ratio
        for lam in (0.5, 2.0, 5.0):
            q1 = quotient_radial(hardy_scale(u, lam, WP), WP).ratio
            worst = max(worst, abs(q1 - q0) / q0)
    report(5, worst <= 1e-4, f"max relative quotient drift {worst:.2e} <= 1e-4")


def test_criterion_6_rearrangement_suite(half_disk, ball):
    rng = np.random.default_rng(20240801)
    perm_ok, ps_min, hl_ok = True, math.inf, True
    for _ in range(100):
        u = polar_random_bumps(half_disk, rng, nr=24, ntheta=32, n_bumps=3)
        v = polar_random_bumps(half_disk, rng, nr=24, ntheta=32, n_bumps=3)
        star = rearrange_function(u)
        perm_ok &= all(np.array_equal(np.sort(u.values[i]),
                                      np.sort(star.values[i]))
                       for i in range(u.r.size))
        _, _, margin = polya_szego_check(u)
        ps_min = min(ps_min, margin)
        lhs, rhs = hardy_littlewood_check(u, v)
        hl_ok &= rhs >= lhs - 1e-10
    r = np.linspace(0.05, 0.95, 60)
    f = smooth_bump(r, 0.2, 0.8)
    theta = np.arange(32) * (2 * math.pi / 32)
    radial_u = PolarGridFunction(r=r, theta=theta,
                                 values=np.tile(f[:, None], (1, 32)),
                                 domain=ball)
    _, _, radial_margin = polya_szego_check(radial_u)
    ok = perm_ok and ps_min >= -1e-3 and hl_ok and abs(radial_margin) <= 1e-6
    report(6, ok, f"equimeasurable={perm_ok}, min PS margin {ps_min:.1e} "
                  f">= -1e-3, HL 100/100={hl_ok}, radial margin "
                  f"{radial_margin:.1e}")


def test_criterion_7_regime_separation(ball):
    quad = DomainSpec.quadratic_cusp(0.5)
    est_q = extrapolate_constant(quad, [8, 16, 32], target_h=0.02)
    col_q = est_q.per_n[-1]
    attained_ok = (est_q.estimate >= 0.27
                   and col_q["collar_outer"] < 0.2
                   and col_q["collar_inner"] < 0.2
                   and col_q["anchor_outer"] < 0.2)
    est_b = extrapolate_constant(ball, [4, 32, 256], target_h=0.02)
    path = [row["anchor_outer"] for row in est_b.per_n]
    escape_ok = (path[-1] >= 0.8
                 and all(b > a for a, b in zip(path, path[1:])))
    # the two signatures must differ as stated
    separated = path[-1] >= 0.8 > 0.2 > col_q["anchor_outer"]
    ok = attained_ok and escape_ok and separated
    report(7, ok, f"attained: estimate {est_q.estimate:.3f} >= 0.27, outer "
                  f"collar {col_q['anchor_outer']:.2e} < 0.2; ball escape "
                  f"path {[f'{v:.2f}' for v in path]} -> {path[-1]:.3f} >= 0.8")


def test_criterion_8_cusp_cross_validation(calibrated_cusp):
    t0 = time.time()
    ea = calibrated_cusp.cusp.eigenvalue
    est = extrapolate_constant(calibrated_cusp, [16, 64, 256, 1024])
    rel = abs(est.estimate - ea) / ea
    params = CuspFamilyParams(a_prime=0.95, eps=0.05 * 2.0 ** (-8), delta=0.05)
    bound = cusp_upper_bound(params, calibrated_cusp).extras["certified_bound"]
    elapsed = time.time() - t0
    ok = rel <= 0.05 and bound > est.estimate and elapsed <= 300.0
    report(8, ok, f"FEM {est.estimate:.4f} vs eigenvalue {ea:.4f} "
                  f"(rel {rel:.3f} <= 0.05), certified bound {bound:.4f} above, "
                  f"{elapsed:.1f}s <= 300s")


def test_criterion_9_weight_calibration(calibrated_cusp):
    xs = 1.0 - np.geomspace(1e-6, 1e-3, 400)
    sup_gap = float(np.max(np.abs(boundary_taylor_gap(WP, xs))))
    a = calibrated_cusp.cusp.a
    r0 = calibrated_cusp.cusp.r0
    below = all(cusp_ratio_infimum(float(r), a) < 1.0
                for r in np.linspace(1e-3, r0, 25))
    tip = cusp_ratio_infimum(1e-6, a)
    ok = sup_gap < 1e-2 and below and abs(tip - 1.0) <= 1e-3
    report(9, ok, f"Taylor gap sup {sup_gap:.2e} < 1e-2, slice ratio < 1 on "
                  f"(0, {r0}], tip limit {tip:.6f} within 1e-3 of 1")
