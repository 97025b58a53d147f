import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PchipInterpolator

from crithardy import (ArcSet, ConstructionError, DomainRangeError, DomainSpec,
                       NumericalError, PolarGridFunction, Regime, classify,
                       limsup_m0, limsup_mR, mesh_truncated, oned,
                       profile_measure)
from crithardy.domain import _Pchip, _flag, build_cusp_profile
from conftest import GAPPED, SECTOR, scalar_opening


class TestArcSet:
    def test_merge_touching(self):
        arcs = ArcSet([(0.0, 1.0), (1.0, 2.0)])
        assert arcs.arcs == ((0.0, 2.0),)

    def test_wrap(self):
        arcs = ArcSet([(6.0, 7.0)])  # crosses 2 pi
        assert len(arcs.arcs) == 2
        assert arcs.measure == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.floats(0, 2 * math.pi - 1e-6),
                              st.floats(1e-6, 1.0)), max_size=6))
    def test_measure_bounds(self, raw):
        arcs = ArcSet([(lo, lo + w) for lo, w in raw])
        assert 0.0 <= arcs.measure <= 2 * math.pi + 1e-9

    def test_additive_over_disjoint(self):
        a = ArcSet([(0.1, 0.5), (1.0, 1.7), (3.0, 3.2)])
        assert a.measure == pytest.approx(0.4 + 0.7 + 0.2, rel=1e-12)


class TestProfileMeasure:
    def test_ball(self, ball):
        assert profile_measure(ball, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_cone(self):
        cone = DomainSpec.cone(math.pi / 3)
        assert profile_measure(cone, 0.1) == pytest.approx(math.pi / 30, rel=1e-12)

    def test_annulus_empty_slice(self):
        ann = DomainSpec.ball_with_core_cutoff(0.5)
        assert profile_measure(ann, 0.25) == 0.0

    def test_range_error(self, ball):
        with pytest.raises(DomainRangeError):
            profile_measure(ball, 1.5)
        with pytest.raises(DomainRangeError):
            profile_measure(ball, 0.0)

    @given(st.floats(1e-3, 1 - 1e-3))
    def test_slice_bounds(self, r):
        # 0 <= m(r) <= 2 pi r for every domain
        for dom in (DomainSpec.ball(1.0), DomainSpec.half_disk(),
                    DomainSpec.cone(0.6), DomainSpec.quadratic_cusp(0.5)):
            m = profile_measure(dom, r)
            assert 0.0 <= m <= 2 * math.pi * r + 1e-12


class TestLimsups:
    def test_m0_ball_exact_everywhere(self, ball):
        rep = limsup_m0(ball)
        assert rep.value == pytest.approx(2 * math.pi, rel=1e-14)
        assert all(v == pytest.approx(2 * math.pi, rel=1e-14) for v in rep.ratios)

    def test_m0_cone(self):
        rep = limsup_m0(DomainSpec.cone(math.pi / 3))
        assert rep.value == pytest.approx(math.pi / 3, rel=1e-12)

    def test_m0_half_disk(self, half_disk):
        assert limsup_m0(half_disk).value == pytest.approx(math.pi, rel=1e-12)

    def test_mR_ball_capped(self, ball):
        rep = limsup_mR(ball)
        assert rep.value == math.inf
        assert all(b > a for a, b in zip(rep.ratios, rep.ratios[1:]))

    def test_mR_quadratic_cusp(self):
        rep = limsup_mR(DomainSpec.quadratic_cusp(0.5))
        assert rep.value < 1e-4

    def test_mR_calibrated_cusp(self, calibrated_cusp):
        a = calibrated_cusp.cusp.a
        rep = limsup_mR(calibrated_cusp)
        assert rep.value >= 2 * math.cos(a)
        # the limit is 2 cot(a) (arc over chord asymptotics)
        assert rep.value == pytest.approx(2 / math.tan(a), rel=1e-3)

    def test_m0_calibrated_cusp(self, calibrated_cusp):
        assert limsup_m0(calibrated_cusp).value == 0.0


class TestClassify:
    def test_ball(self, ball):
        assert classify(ball).regime is Regime.ORIGIN_INTERIOR

    def test_quadratic_cusp_attained(self):
        assert classify(DomainSpec.quadratic_cusp(0.5)).regime is Regime.ATTAINED

    def test_calibrated_cusp(self, calibrated_cusp):
        assert classify(calibrated_cusp).regime is Regime.CUSP_NONATTAINED

    def test_annulus_interior_sphere(self):
        ann = DomainSpec.ball_with_core_cutoff(0.5)
        assert classify(ann).regime is Regime.INTERIOR_SPHERE

    def test_half_disk_interior_sphere(self, half_disk):
        assert classify(half_disk).regime is Regime.INTERIOR_SPHERE

    def test_strict_inequality_profile(self):
        # linear pinch: width r*(pi - 2a(r)) = (1-r), so mR = 1 (finite, nonzero)
        bands = [(k / 64.0, (k + 1) / 64.0,
                  [(math.pi / 2 - min(math.pi / 2, (1 - (k + 0.5) / 64)
                                      / (2 * (k + 0.5) / 64)),
                    math.pi / 2 + min(math.pi / 2, (1 - (k + 0.5) / 64)
                                      / (2 * (k + 0.5) / 64)))])
                 for k in range(64)]
        dom = DomainSpec.angular_profile(bands, 1.0)
        cls = classify(dom)
        assert cls.regime is Regime.STRICT_INEQUALITY

    def test_calibrated_cusp_matches_per_radius_arcs(self, calibrated_cusp):
        # reference: one `profile_arcs` call per radius, as `m(r) = r |arcs|`
        dom = calibrated_cusp
        cls = classify(dom)

        def m(r):
            return r * dom.profile_arcs(r).measure

        r0, rR = cls.m0_table["radii"], cls.mR_table["radii"]
        ref0 = [m(r) / r for r in r0]
        refR = [m(r) / (dom.R - r) for r in rR]
        np.testing.assert_allclose(cls.m0_table["ratios"], ref0, rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(cls.mR_table["ratios"], refR, rtol=0,
                                   atol=1e-15)
        assert abs(cls.m0 - max(ref0[-4:])) <= 1e-15
        assert abs(cls.mR - max(refR[-4:])) <= 1e-15
        # the common arc of the slices near R shrinks: no interior sphere
        widths = [dom.profile_arcs(r).measure for r in rR[:8]]
        assert min(widths) < 0.8 * widths[0]
        assert cls.regime is Regime.CUSP_NONATTAINED

    def test_deterministic(self, ball):
        assert classify(ball).regime is classify(ball).regime


class TestEmptySlices:
    """Band tables with radii in no band: an annular sector, whose slices
    below r = 0.3 are empty, and a table with a gap on [0.4, 0.6)."""

    @pytest.fixture(params=[GAPPED, SECTOR], ids=["gapped", "sector"])
    def dom(self, request):
        return DomainSpec.angular_profile(request.param)

    def test_measure_matches_per_radius_arcs(self, dom):
        r = np.concatenate([np.linspace(0.01, 0.99, 99),
                            [0.3, 0.4, 0.6, np.nextafter(0.3, 0.0)]])
        ref = [x * sum(hi - lo for lo, hi in dom.profile_arcs(float(x)).arcs)
               for x in r]
        m = profile_measure(dom, r)
        assert np.array_equal(m, ref)
        assert (m == 0.0).any() and (m > 0.0).any()

    def test_classify_matches_per_radius_arcs(self, dom):
        cls = classify(dom)

        def m(r):
            return r * dom.profile_arcs(r).measure

        ref0 = [m(r) / r for r in cls.m0_table["radii"]]
        refR = [m(r) / (dom.R - r) for r in cls.mR_table["radii"]]
        np.testing.assert_allclose(cls.m0_table["ratios"], ref0, rtol=1e-15)
        np.testing.assert_allclose(cls.mR_table["ratios"], refR, rtol=1e-15)
        assert cls.regime is Regime.INTERIOR_SPHERE

    def test_sector_sample_mask(self):
        dom = DomainSpec.angular_profile(SECTOR)
        u = PolarGridFunction.sample(dom, lambda r, t: 1.0 + 0 * r * t, 32, 64)
        assert int(u.mask.sum()) == 330
        assert not u.mask[u.r < 0.3].any()

    def test_mesh_raises_construction_error(self, dom):
        with pytest.raises(ConstructionError, match="got 0"):
            mesh_truncated(dom, 8)


class TestSerialization:
    @pytest.mark.parametrize("dom", [
        DomainSpec.ball(2.0),
        DomainSpec.ball_with_core_cutoff(0.3, 1.0),
        DomainSpec.cone(0.8),
        DomainSpec.quadratic_cusp(0.7),
        DomainSpec.half_disk(),
        DomainSpec.calibrated_cusp(0.9),
    ])
    def test_roundtrip(self, dom):
        doc = json.loads(json.dumps(dom.to_json()))
        back = DomainSpec.from_json(doc)
        r = 0.7 * dom.R
        assert profile_measure(back, r) == pytest.approx(
            profile_measure(dom, r), rel=1e-12)
        assert back.kind == dom.kind and back.R == dom.R

    @pytest.mark.parametrize("doc", [
        {"kind": "ball", "R": 1.0, "params": {}},
        {"kind": "ball_with_core_cutoff", "R": 1.0, "params": {"c": 0.5}},
        {"kind": "cusp", "R": 1.0, "params": {"flavor": "section5", "a": 0.9}},
    ])
    def test_hand_written_documents_load(self, doc):
        # the short forms the README shows and the command-line runs write
        assert DomainSpec.from_json(doc).to_json()["kind"] == doc["kind"]

    @pytest.mark.parametrize("doc, match", [
        pytest.param({"kind": "balll", "R": 1.0, "params": {}},
                     "unknown domain kind 'balll'", id="unknown-kind"),
        pytest.param({"kind": "cusp", "R": 1.0,
                      "params": {"flavor": "conee", "a": 0.9}},
                     "unknown cusp flavor 'conee'", id="unknown-flavor"),
        pytest.param({"kind": "cusp", "R": 1.0, "params": {"a": 0.9}},
                     "unknown cusp flavor None", id="missing-flavor"),
        pytest.param({"kind": "ball_with_core_cutoff", "R": 1.0,
                      "params": {}},
                     r"missing keys \['c'\]", id="missing-param"),
        pytest.param({"kind": "cusp", "R": 1.0,
                      "params": {"flavor": "cone", "a": 0.9, "beta0": 0.5}},
                     r"unknown keys \['beta0'\]", id="unknown-param"),
        pytest.param({"kind": "ball", "params": {}},
                     r"missing keys \['R'\]", id="missing-R"),
        pytest.param({"kind": "cusp", "R": 2.0,
                      "params": {"flavor": "section5", "a": 0.9}},
                     "R must be 1, got 2.0", id="section5-R"),
        pytest.param({"kind": "ball", "R": "x", "params": {}},
                     "R must be a finite real number, got 'x'",
                     id="R-string"),
        pytest.param({"kind": "ball", "R": True, "params": {}},
                     "R must be a finite real number, got True",
                     id="R-bool"),
        pytest.param({"kind": "ball_with_core_cutoff", "R": 1.0,
                      "params": {"c": True}},
                     "c must be a finite real number", id="c-bool"),
        pytest.param({"kind": "cusp", "R": 1.0,
                      "params": {"flavor": "cone", "a": "0.9"}},
                     "a must be a finite real number", id="cone-a-string"),
        pytest.param({"kind": "cusp", "R": 1.0,
                      "params": {"flavor": "quadratic", "beta0": "0.5"}},
                     "beta0 must be a finite real number",
                     id="beta0-string"),
        pytest.param({"kind": "cusp", "R": 1.0,
                      "params": {"flavor": "section5", "a": 0.9,
                                 "r0": None}},
                     "r0 must be a finite real number", id="r0-null"),
        pytest.param({"kind": "cusp", "R": 1.0,
                      "params": {"flavor": "section5", "a": float("nan")}},
                     "a must be a finite real number", id="section5-a-nan"),
        pytest.param({"kind": "angular_profile", "R": 1.0,
                      "params": {"bands": [["0", 1.0, [[0.5, 2.0]]]]}},
                     "band edge must be a finite real number",
                     id="band-edge-string"),
        pytest.param({"kind": "angular_profile", "R": 1.0,
                      "params": {"bands": [[0.0, 1.0, [[0.5, True]]]]}},
                     "arc end must be a finite real number",
                     id="arc-end-bool"),
        pytest.param({"kind": "angular_profile", "R": 1.0,
                      "params": {"bands": [[0.0, 1.0]]}},
                     "bands must be a list of", id="band-not-a-triple"),
        pytest.param({"kind": "angular_profile", "R": 1.0,
                      "contains_origin": "no",
                      "params": {"bands": [[0.0, 1.0, [[0.5, 2.0]]]]}},
                     "contains_origin must be true or false",
                     id="contains-origin-string"),
    ])
    def test_rejects_bad_documents(self, doc, match):
        with pytest.raises(DomainRangeError, match=match):
            DomainSpec.from_json(doc)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_flag_must_be_a_bool(self, value):
        with pytest.raises(DomainRangeError, match="x must be true or false"):
            _flag("x", value)
        doc = {"kind": "angular_profile", "R": 1.0, "contains_origin": value,
               "params": {"bands": [[0.0, 1.0, [[0.5, 2.0]]]]}}
        with pytest.raises(DomainRangeError, match="contains_origin must be"):
            DomainSpec.from_json(doc)
        assert _flag("x", True) is True and _flag("x", False) is False


class TestCalibratedProfile:
    def test_opening_calibration(self, calibrated_cusp):
        # eigenvalue(a(rho)) * g(rho) = eigenvalue(a) on every row of the table
        from crithardy import angular_eigenvalue
        prof = calibrated_cusp.cusp
        for a_i, g_i in zip(prof.a_table, prof.g_table):
            lhs = angular_eigenvalue(float(a_i), 512) * g_i
            assert lhs == pytest.approx(prof.eigenvalue, abs=1e-9)

    def test_opening_nondecreasing(self, calibrated_cusp):
        assert np.all(np.diff(calibrated_cusp.cusp.a_table) >= 0.0)

    @pytest.mark.parametrize("a", [0.82, 0.9, 1.08])
    def test_cold_build_solve_count(self, a, monkeypatch):
        # plain bisection on E makes 2093 angular solves at a = 0.9, the
        # secant from the bracket ends about 250; a predicted start makes
        # most rows one solve, and a missed one takes its next step along
        # the predictor's tangent.  A solve is a coarse and a fine ground
        # pair, and the build makes every one through the public
        # `oned.solve_angular`, called as a module attribute: one for E(a),
        # the rest inside one `oned.invert_angular_eigenvalue` per row.
        # Each pair after the first starts from a certified neighbour and
        # settles in about 2.2 inverse-iteration steps, where a cold pair
        # takes 5
        calls = {"_smallest_pair": 0, "dpttrs": 0, "solve_angular": 0,
                 "invert_angular_eigenvalue": 0}

        def counted(name):
            inner = getattr(oned, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oned, name, counted(name))
        oned.angular_eigenvalue.cache_clear()
        build_cusp_profile.cache_clear()
        prof = build_cusp_profile(a)
        assert prof.a_table.size == 96
        assert calls["invert_angular_eigenvalue"] == 96
        solves = {0.82: 112, 0.9: 111, 1.08: 106}[a]
        assert calls["solve_angular"] == solves
        assert calls["_smallest_pair"] == 2 * solves
        assert calls["dpttrs"] / calls["_smallest_pair"] <= 2.5

    @pytest.mark.parametrize("a", [0.82, 0.9, 1.08])
    def test_cone_fit_matches_table_rule(self, a):
        # the row before the first whose angle reaches a', read off the
        # table; None where the first row already does
        prof = build_cusp_profile(a)
        angles = prof.a_table

        def table_rule(a_prime):
            bad = angles >= a_prime
            if not bad.any():
                return prof.r0
            k = int(np.argmax(bad))
            return float(prof.rho_table[k - 1]) if k else None

        def fit(p, a_prime):
            try:
                return p.cone_fit_extent(a_prime)
            except DomainRangeError as err:
                assert "no cone fit" in str(err)
                return None

        # between rows, below the first and above the last, E(a') is far
        # from every target and a fresh profile decides without its table
        fresh = build_cusp_profile.__wrapped__(a)
        between = np.concatenate([
            [0.5 * (a + angles[0])], 0.5 * (angles[:-1] + angles[1:]),
            [0.5 * (angles[-1] + math.pi / 2)]])
        assert [fit(fresh, x) for x in between] == \
            [table_rule(x) for x in between]
        assert "a_table" not in vars(fresh)
        # on and beside a row, E(a') lies inside the targets' band: the
        # table decides
        near = np.concatenate([angles, angles - 1e-12, angles + 1e-12])
        assert [fit(fresh, x) for x in near] == [table_rule(x) for x in near]
        assert np.array_equal(fresh.a_table, angles)

    @pytest.mark.parametrize("a", [0.82, 0.9, 1.08])
    def test_default_extent(self, a):
        # the slice infimum is below 1 at every tip distance, so the default
        # extent is the fixed 0.5
        assert build_cusp_profile(a).r0 == 0.5

    @pytest.mark.parametrize("r0", [1e-8, 1e-7, 1.0, 1.5])
    def test_rejects_extent_out_of_range(self, r0):
        with pytest.raises(DomainRangeError, match="r0 must lie in"):
            build_cusp_profile(0.9, r0)

    @pytest.mark.parametrize("a", [0.82, 1.08])
    def test_predicted_starts_match_plain_secant(self, a):
        # reference: every row inverted from its bracket alone
        prof = build_cusp_profile(a)
        targets = prof.eigenvalue / prof.g_table
        ref = np.empty_like(targets)
        root = oned.solve_angular(a, 512)
        for i in np.argsort(targets, kind="stable"):
            root = oned.invert_angular_eigenvalue(targets[i], root)
            ref[i] = root.a
        np.testing.assert_allclose(prof.a_table, ref, rtol=0, atol=1e-10)

    def test_opening_tends_to_limit(self, calibrated_cusp):
        prof = calibrated_cusp.cusp
        assert prof.a_of_r(1e-9) == pytest.approx(prof.a, abs=1e-5)
        assert prof.a_table[-1] > prof.a

    def test_slice_is_single_centered_arc(self, calibrated_cusp):
        arcs = calibrated_cusp.profile_arcs(0.9)
        assert len(arcs.arcs) == 1
        lo, hi = arcs.arcs[0]
        assert (lo + hi) / 2 == pytest.approx(math.pi / 2, abs=1e-9)


class TestPchip:
    """The profile's interpolant against scipy's ``PchipInterpolator``,
    the reference it reproduces operation for operation."""

    @staticmethod
    def assert_matches(x, y, pts):
        interp, ref = _Pchip(x, y), PchipInterpolator(x, y)
        value, slope = interp.with_slope(pts)
        np.testing.assert_allclose(value, ref(pts), rtol=1e-15, atol=0.0)
        dref = ref.derivative()(pts)
        np.testing.assert_allclose(slope, dref, rtol=1e-12,
                                   atol=1e-14 * np.max(np.abs(dref)))

    @pytest.mark.parametrize("a", [0.8, 0.9, 1.0, 1.1])
    def test_profile_tables(self, a):
        prof = build_cusp_profile(a)
        x = prof.rho_table
        rng = np.random.default_rng(0)
        pts = np.concatenate([x, 0.5 * (x[:-1] + x[1:]),
                              rng.uniform(x[0], x[-1], 10 ** 4)])
        self.assert_matches(x, prof.a_table, pts)
        self.assert_matches(x, prof.g_table, pts)

    @pytest.mark.parametrize("y", [
        pytest.param([0.0, 1.0, 1.0, 1.0, 2.0, 2.5, 2.6, 4.0], id="flat-run"),
        pytest.param([1.0, 2.0, 3.0, 2.5, 1.0, 0.5, 0.4, 0.1],
                     id="local-max"),
        pytest.param([0.0, 3.0, -1.0, 2.0, -2.0, 4.0, 4.0, -3.0],
                     id="zigzag"),
        # the left end slope is set to 0, the right one capped at 3 times
        # the end secant
        pytest.param([0.0, 0.1, 5.0, 5.2, 5.3, 5.4, 6.5, 6.0],
                     id="end-slope-rules"),
    ])
    def test_hand_tables(self, y):
        # uneven steps; the points run past both ends
        x = np.array([0.0, 0.5, 2.0, 2.25, 3.0, 4.5, 5.0, 7.0])
        pts = np.concatenate([x, 0.5 * (x[:-1] + x[1:]),
                              np.random.default_rng(1).uniform(-1, 8, 1000)])
        self.assert_matches(x, np.array(y), pts)

    @pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, 1.0, 1.0, 2.0],
                                   [0.0, 2.0, 1.0]])
    def test_rejects_bad_nodes(self, x):
        with pytest.raises(NumericalError, match="strictly increasing"):
            _Pchip(x, np.zeros(len(x)))

    def test_extent_next_to_the_first_row(self):
        # geomspace(1e-7, r0, 96) rounds out of order when r0 is this close
        # to 1e-7; the extent is refused before any row is solved
        with pytest.raises(DomainRangeError, match="r0="):
            build_cusp_profile(0.9, 1e-7 * (1 + 1e-14))


def _tip_inside(prof, r, s):
    """Independent membership of the point at angular offset s from the top
    direction on the circle of radius r: its tip-frame polar coordinates
    about (0, 1), with ``1 - r cos s`` summed without cancellation."""
    x = r * math.sin(s)
    below = (1.0 - r) + 2.0 * r * math.sin(0.5 * s) ** 2
    rho = math.hypot(x, below)
    return rho < prof.r0 and math.atan2(below, x) > prof.a_of_r(rho)


class TestHalfWidths:
    def test_closed_forms(self):
        r = np.linspace(0.01, 0.99, 25)
        cone = DomainSpec.cone(0.7)
        assert np.array_equal(cone.half_widths(r),
                              np.full(r.size, (math.pi - 1.4) / 2))
        quad = DomainSpec.quadratic_cusp(0.5, R=1.3)
        rq = 1.3 * r
        expect = [min(0.5, 0.5 * ((1.3 - x) / 1.3) ** 2 * 1.3 / x) for x in rq]
        assert np.array_equal(quad.half_widths(rq), expect)
        assert np.array_equal(DomainSpec.ball().half_widths(r),
                              np.full(r.size, math.pi))
        core = DomainSpec.ball_with_core_cutoff(0.5).half_widths(r)
        assert np.array_equal(core, np.where(r > 0.5, math.pi, 0.0))

    def test_rejects_angular_profiles_and_range(self, half_disk, ball):
        with pytest.raises(DomainRangeError):
            half_disk.half_widths([0.5])
        with pytest.raises(DomainRangeError):
            ball.half_widths([0.5, 1.0])

    @staticmethod
    def assert_brackets_sign_change(dom, radii, rel=1e-13):
        """The half-width at each radius is within ``rel`` of the switch of
        the independent membership test `_tip_inside`."""
        prof = dom.cusp
        s = dom.half_widths(radii)
        assert np.all(s > 0.0)
        for r, si in zip(radii, s):
            assert _tip_inside(prof, r, si * (1 - rel)), r
            assert not _tip_inside(prof, r, si * (1 + rel)), r

    @pytest.mark.parametrize("a", [0.85, 1.05])
    def test_calibrated_cusp_oracle(self, a):
        # toward r = 1, forming rho^2 as r^2 - 2 r cos s + 1 puts the
        # half-width off by 1e-10 at 1 - 2^-23 and 2e-9 at 1 - 2^-25 (a = 0.9);
        # a 64-step bisection of [0, pi] resolves only pi 2^-64 = 1.7e-19,
        # 3e-12 of the half-width at 1 - 2^-24
        dom = DomainSpec.calibrated_cusp(a)
        prof = dom.cusp
        tail = 1.0 - 2.0 ** -np.arange(5, 27)
        bulk = np.linspace(1.0 - prof.r0, 1.0, 26)[1:-1]
        self.assert_brackets_sign_change(dom, np.concatenate([bulk, tail]))
        # radii below the cusp's reach meet an empty slice
        outside = np.linspace(0.05, 0.98 * (1.0 - prof.r0), 6)
        assert np.array_equal(dom.half_widths(outside), np.zeros(6))
        assert not any(_tip_inside(prof, r, 1e-9) for r in outside)

    @pytest.mark.parametrize("a", [0.8, 0.85, 0.9, 1.0, 1.05, 1.1])
    def test_calibrated_cusp_sweep(self, a):
        # every radius whose slice meets the cusp, capped slices included
        dom = DomainSpec.calibrated_cusp(a)
        radii = np.linspace(1.0 - dom.cusp.r0, 1.0, 2002)[1:-1]
        self.assert_brackets_sign_change(dom, radii)

    def test_profile_arcs_wraps_half_widths(self, calibrated_cusp):
        for r in (0.8, 0.9, 0.99):
            s = float(calibrated_cusp.half_widths(r))
            assert calibrated_cusp.profile_arcs(r) == ArcSet(
                [(math.pi / 2 - s, math.pi / 2 + s)])

    @pytest.mark.parametrize("a", [0.8, 0.9, 1.0, 1.1])
    def test_first_row_is_calibrated(self, a):
        # at and below the first table row the opening is that row's angle,
        # not the limit angle a, whose product falls short by about 1e-7
        from crithardy import angular_eigenvalue
        prof = DomainSpec.calibrated_cusp(a).cusp
        first = float(prof.rho_table[0])
        for rho in (0.0, 1e-9, 0.5 * first, first):
            assert prof.a_of_r(rho) == prof.a_table[0]
            if rho > 0.0:
                product = angular_eigenvalue(prof.a_of_r(rho)) * prof.g(rho)
                assert product / prof.eigenvalue - 1.0 >= -1e-12

    def test_array_opening_matches_scalar(self, calibrated_cusp):
        prof = calibrated_cusp.cusp
        rho = np.concatenate([[0.0, 1e-8], np.geomspace(1e-7, prof.r0, 200)])
        assert np.array_equal(prof.a_of_r(rho),
                              [scalar_opening(prof, p) for p in rho])
        assert isinstance(prof.a_of_r(0.01), float)
        # g's range (0, r0] and rho = 0, where the opening is the first
        # row's calibrated angle, as on the whole first row
        for rho in (1.01 * prof.r0, -1.0, -1e-300, math.nan):
            with pytest.raises(DomainRangeError):
                prof.a_of_r(rho)
            with pytest.raises(DomainRangeError):
                prof.a_of_r(np.array([0.1, rho]))
