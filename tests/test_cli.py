import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import crithardy
from crithardy import (DomainRangeError, DomainSpec, PolarGridFunction,
                       WeightParams, angular_eigenvalue, cli, mesh_truncated,
                       quotient_polar, solve_truncated)
from conftest import SECTOR


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def cli_error(args, capsys):
    """Exit code and the JSON error line of a failing command."""
    code = cli.main(args)
    err = capsys.readouterr().err
    return code, json.loads(err.strip().splitlines()[-1])


def reference_vtk(path, mesh, vector):
    """The VTK writer with one f-string per row: the byte reference for
    `cli._write_vtk`."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    sections = [
        "# vtk DataFile Version 3.0\neigenvector\nASCII\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {nv} double",
        "\n".join(f"{x!r} {y!r} 0.0" for x, y in mesh.vertices.tolist()),
        f"CELLS {nt} {4 * nt}",
        "\n".join(f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()),
        f"CELL_TYPES {nt}",
        "\n".join(["5"] * nt),
        f"POINT_DATA {nv}\nSCALARS eigenvector double 1\n"
        "LOOKUP_TABLE default",
        "\n".join(map(repr, vector.tolist())),
    ]
    with open(path, "w") as fh:
        fh.writelines(f"{text}\n" for text in sections)


def _polar_doc(**kw):
    doc = {"type": "polar", "domain": DomainSpec.half_disk().to_json(),
           "r": [0.25, 0.5, 0.75], "theta_count": 8,
           "values": [[1.0] * 8] * 3}
    doc.update(kw)
    return doc


def _radial_doc(**kw):
    doc = {"type": "radial", "r": [0.25, 0.5, 0.75], "values": [0, 1, 0]}
    doc.update(kw)
    return doc


# function documents with one value of the wrong kind, by test id
BAD_POLAR = {
    "polar_theta_count_text": _polar_doc(theta_count="two"),
    "polar_r_text": _polar_doc(r="abc"),
    "polar_values_text": _polar_doc(values="abc"),
}
BAD_RADIAL = {
    "radial_r_text": _radial_doc(r="abc"),
    "radial_values_text": _radial_doc(values="abc"),
    "radial_R_text": _radial_doc(R="abc"),
    "radial_N_text": _radial_doc(N="two"),
    # "false" was read as true
    "radial_constant_core_text": _radial_doc(constant_core="false"),
    "radial_constant_core_zero": _radial_doc(constant_core=0),
    "radial_constant_core_null": _radial_doc(constant_core=None),
}


class TestCommands:
    def test_ea_value(self, capsys):
        code, out = run_cli(["ea", "--a", "0.5"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["eigenvalue"] == pytest.approx(1.779357881, rel=1e-6)
        assert doc["residual"] < 1e-8
        assert doc["meta"]["config_hash"]

    def test_ea_sweep_csv(self, capsys):
        code, out = run_cli(["ea", "sweep", "--num", "4"], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "a,eigenvalue,residual"
        assert len(lines) == 5

    def test_radial(self, capsys):
        code, out = run_cli(["radial", "--N", "3"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["infimum_estimate"] == pytest.approx(8 / 27, abs=0.02)

    def test_weight_sweep(self, capsys):
        code, out = run_cli(["weight", "sweep", "--num", "3"], capsys)
        assert code == 0
        assert "x_norm,weight,taylor_gap" in out

    def test_domain_classify(self, tmp_path, capsys):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(DomainSpec.quadratic_cusp(0.5).to_json()))
        code, out = run_cli(["domain", "classify", "--domain", str(path)], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["regime"] == "Attained"

    def test_domain_classify_empty_slices(self, tmp_path, capsys):
        # an annular sector: its slices below r = 0.3 are empty
        path = tmp_path / "sector.json"
        path.write_text(json.dumps(
            DomainSpec.angular_profile(SECTOR).to_json()))
        code, out = run_cli(["domain", "classify", "--domain", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["regime"] == "InteriorSphere"

    def test_quotient_eval_radial(self, tmp_path, capsys):
        path = tmp_path / "fn.json"
        path.write_text(json.dumps({
            "type": "radial", "R": 1.0, "N": 2,
            "r": [0.25, 0.5, 0.75], "values": [0.0, 1.0, 0.0]}))
        code, out = run_cli(["quotient", "eval", "--input", str(path)], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["ratio"] == pytest.approx(5.323394757, rel=1e-8)

    @pytest.mark.parametrize("doc, error", [
        pytest.param({"type": "radial", "R": 1.0, "N": 2,
                      "r": [0.25, 0.5, 0.75], "values": [0.0, 0.0, 0.0]},
                     "DegenerateInputError", id="zero_mass_radial"),
        pytest.param({"type": "polar", "R": 1.0, "N": 2,
                      "domain": DomainSpec.ball(1.0).to_json(),
                      "r": [0.25, 0.5, 0.75], "theta_count": 8,
                      "values": [[1.0] * 4] * 3},
                     "GridMismatchError", id="polar_shape_mismatch"),
        pytest.param({"type": "radial", "values": [0, 1, 0]},
                     "DomainRangeError", id="radial_missing_r"),
        pytest.param({"type": "radial", "r": [0.25, 0.5, 0.75],
                      "values": [0, 1, 0], "theta_count": 8},
                     "DomainRangeError", id="radial_unknown_key"),
        pytest.param({"type": "polar", "r": [0.25, 0.5, 0.75],
                      "domain": DomainSpec.ball(1.0).to_json(),
                      "values": [[1.0] * 8] * 3},
                     "DomainRangeError", id="polar_missing_theta_count"),
        pytest.param({"type": "polar", "r": [0.25, 0.5, 0.75],
                      "theta_count": 8, "values": [[1.0] * 8] * 3},
                     "DomainRangeError", id="polar_missing_domain"),
        pytest.param([0.25, 0.5], "DomainRangeError", id="not_an_object"),
        *[pytest.param(doc, "DomainRangeError", id=name)
          for name, doc in {**BAD_POLAR, **BAD_RADIAL}.items()],
    ])
    def test_quotient_eval_error_line(self, doc, error, tmp_path, capsys):
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(doc))
        code, diag = cli_error(["quotient", "eval", "--input", str(path)],
                               capsys)
        assert code == 1
        assert diag["error"] == error

    def test_quotient_eval_polar(self, tmp_path, capsys):
        half = DomainSpec.half_disk()
        r = np.linspace(0.1, 0.9, 8)
        vals = np.random.default_rng(0).uniform(0, 1, (8, 16))
        path = tmp_path / "fn.json"
        path.write_text(json.dumps({
            "type": "polar", "domain": half.to_json(), "r": r.tolist(),
            "theta_count": 16, "values": vals.tolist()}))
        code, out = run_cli(["quotient", "eval", "--input", str(path)], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["dirichlet_energy"] == \
            doc["radial_energy"] + doc["angular_energy"]
        u = PolarGridFunction(r=r, theta=np.arange(16) * (2 * math.pi / 16),
                              values=vals, domain=half)
        assert doc["ratio"] == quotient_polar(u, WeightParams(R=1.0)).ratio

    @pytest.mark.parametrize("doc", [pytest.param(doc, id=name)
                                     for name, doc in BAD_POLAR.items()])
    def test_rearrange_bad_value(self, doc, tmp_path, capsys):
        dpath = tmp_path / "half.json"
        dpath.write_text(json.dumps(DomainSpec.half_disk().to_json()))
        fpath = tmp_path / "fn.json"
        fpath.write_text(json.dumps(doc))
        code, diag = cli_error(["rearrange", "--domain", str(dpath),
                                "--fn", str(fpath)], capsys)
        assert code == 1
        assert diag["error"] == "DomainRangeError"

    def test_upperbound_families(self, capsys):
        for fam in ("phi_alpha", "psi_beta", "halfspace"):
            code, out = run_cli(["upperbound", "--family", fam,
                                 "--schedule", "3,4,5"], capsys)
            assert code == 0
            lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
            assert len(lines) == 4

    def test_upperbound_cusp(self, capsys):
        code, out = run_cli(["upperbound", "--family", "cusp", "--a", "0.9",
                             "--a-prime", "0.95"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if not ln.startswith("#")][1:]
        assert [int(r[0]) for r in rows] == [6, 8, 10]
        ratios = [float(r[1]) for r in rows]
        # each ratio bounds C_2 of the calibrated cusp, which is E(0.9)
        assert min(ratios) >= angular_eigenvalue(0.9)
        np.testing.assert_allclose(
            ratios, [6.8721832736200765, 6.6308972501573065, 6.501142474435397],
            rtol=1e-12, atol=0)

    def test_upperbound_cusp_builds_no_table(self, monkeypatch, capsys):
        # the certificate reads the profile through g and the cone fit,
        # which compares each row's target with E(a') and leaves the
        # half-angle table alone; a cold run solves E(a) and E(a') on the
        # 512 grid and the mode at a' on the 2048 grid
        from crithardy import domain, oned, testfn
        calls = {"solve_angular": 0, "invert_angular_eigenvalue": 0}

        def counted(name):
            inner = getattr(oned, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oned, name, counted(name))
        for cache in (domain.build_cusp_profile, oned.angular_eigenvalue,
                      testfn._angular_mode):
            cache.cache_clear()
        code, _ = run_cli(["upperbound", "--family", "cusp", "--a", "0.9",
                           "--a-prime", "0.95"], capsys)
        assert code == 0
        assert calls == {"solve_angular": 3, "invert_angular_eigenvalue": 0}
        assert "a_table" not in vars(domain.build_cusp_profile(0.9))

    @pytest.mark.parametrize("a_prime", ["1.6", "nan", "0.9"])
    def test_upperbound_cusp_a_prime_range(self, a_prime, capsys):
        # 1.6 and nan once passed the cone fit and were blamed on a as the
        # angular solve's input
        code, diag = cli_error(["upperbound", "--family", "cusp", "--a",
                                "0.9", "--a-prime", a_prime], capsys)
        assert code == 1
        assert diag == {"error": "DomainRangeError",
                        "message": f"a_prime must lie in (0.9, pi/2), "
                                   f"got {float(a_prime)}"}

    def test_rearrange(self, tmp_path, capsys):
        dpath = tmp_path / "half.json"
        dpath.write_text(json.dumps(DomainSpec.half_disk().to_json()))
        fpath = tmp_path / "fn.json"
        nr, nt = 8, 16
        r = np.linspace(0.1, 0.9, nr)
        vals = np.random.default_rng(0).uniform(0, 1, (nr, nt))
        fpath.write_text(json.dumps({"r": r.tolist(), "theta_count": nt,
                                     "values": vals.tolist()}))
        code, out = run_cli(["rearrange", "--domain", str(dpath),
                             "--fn", str(fpath)], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["checks"]["equimeasurable"] is True
        assert doc["checks"]["polya_szego_margin"] >= -1e-9
        np.testing.assert_allclose(doc["half_widths"], [math.pi / 2] * nr,
                                   rtol=1e-12)

    def test_rearrange_rejects_missing_key(self, tmp_path, capsys):
        dpath = tmp_path / "half.json"
        dpath.write_text(json.dumps(DomainSpec.half_disk().to_json()))
        fpath = tmp_path / "fn.json"
        fpath.write_text(json.dumps({"r": [0.25, 0.5], "theta_count": 4}))
        code, diag = cli_error(["rearrange", "--domain", str(dpath),
                                "--fn", str(fpath)], capsys)
        assert code == 1
        assert diag["error"] == "DomainRangeError"
        assert "['values']" in diag["message"]

    def test_rearrange_once(self, tmp_path, capsys, monkeypatch):
        # the report reuses the rearranged function the command writes out
        from crithardy import rearrange
        dpath = tmp_path / "half.json"
        dpath.write_text(json.dumps(DomainSpec.half_disk().to_json()))
        fpath = tmp_path / "fn.json"
        vals = np.random.default_rng(1).uniform(0, 1, (6, 8))
        fpath.write_text(json.dumps({"r": np.linspace(0.2, 0.8, 6).tolist(),
                                     "theta_count": 8,
                                     "values": vals.tolist()}))
        calls = []
        rearrange_function = rearrange.rearrange_function

        def counted(u):
            calls.append(u)
            return rearrange_function(u)

        monkeypatch.setattr(rearrange, "rearrange_function", counted)
        code, out = run_cli(["rearrange", "--domain", str(dpath),
                             "--fn", str(fpath)], capsys)
        assert code == 0 and len(calls) == 1
        doc = json.loads(out)
        assert doc["rearranged_values"] == \
            rearrange_function(calls[0]).values.tolist()

    def test_constant_and_vtk(self, tmp_path, capsys, monkeypatch):
        from crithardy import fem2d
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        vtk = tmp_path / "eig.vtk"
        levels, ests = [], []
        solve = fem2d.solve_truncated
        extrapolate = fem2d.extrapolate_constant

        def counted(dom, n, *args, **kwargs):
            levels.append(n)
            return solve(dom, n, *args, **kwargs)

        def kept(*args, **kwargs):
            ests.append(extrapolate(*args, **kwargs))
            return ests[-1]

        monkeypatch.setattr(fem2d, "solve_truncated", counted)
        monkeypatch.setattr(fem2d, "extrapolate_constant", kept)
        code, out = run_cli(["constant", "--domain", str(dpath),
                             "--schedule", "4,8", "--h", "0.05",
                             "--emit-vtk", str(vtk)], capsys)
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"meta", "estimate", "method", "fit", "per_n",
                            "warnings", "vtk"}
        assert len(doc["per_n"]) == 2
        assert all(isinstance(row["fill"], int) for row in doc["per_n"])
        # the VTK is the finest level's own solve, not a second one
        assert levels == [4, 8]
        lines = vtk.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        est, = ests
        nv, nt = est.mesh.num_vertices, est.mesh.num_triangles
        assert nv == doc["per_n"][-1]["vertices"]

        def section(header, size):
            i = lines.index(header)
            return lines[i + 1:i + 1 + size]

        # every number parses as a plain float or int and reads back exactly
        points = np.array([[float(t) for t in ln.split()]
                           for ln in section(f"POINTS {nv} double", nv)])
        assert np.array_equal(points[:, :2], est.mesh.vertices)
        assert np.all(points[:, 2] == 0.0)
        cells = np.array([[int(t) for t in ln.split()]
                          for ln in section(f"CELLS {nt} {4 * nt}", nt)])
        assert np.all(cells[:, 0] == 3)
        assert np.array_equal(cells[:, 1:], est.mesh.triangles)
        assert section(f"CELL_TYPES {nt}", nt) == ["5"] * nt
        data = section(f"POINT_DATA {nv}", nv + 2)
        assert data[:2] == ["SCALARS eigenvector double 1",
                            "LOOKUP_TABLE default"]
        values = np.array([float(ln) for ln in data[2:]])
        assert np.array_equal(values, est.vector)
        assert len(lines) == 10 + 2 * nv + 2 * nt

    def test_vtk_matches_row_by_row_writer(self, tmp_path, ball,
                                           calibrated_cusp):
        # the ball's vector repeats each row's value along the row; the cusp
        # strip does not wrap and its values are mostly distinct
        for dom, n, wrap in ((ball, 8, True), (calibrated_cusp, 16, False)):
            res, mesh = solve_truncated(dom, n)
            assert mesh.meta["wrap"] == wrap
            cli._write_vtk(tmp_path / "fast.vtk", mesh, res.vector)
            reference_vtk(tmp_path / "ref.vtk", mesh, res.vector)
            assert (tmp_path / "fast.vtk").read_bytes() == \
                (tmp_path / "ref.vtk").read_bytes()

    def test_vtk_keeps_signed_zeros_and_subnormals(self, tmp_path):
        # 0.0 and -0.0 compare equal but print differently; each value is
        # formatted from its own bits
        mesh = mesh_truncated(DomainSpec.half_disk(1.0), 4, target_h=0.2)
        values = [0.0, -0.0, 5e-324, -2.5e-310, 0.25, 0.25, 1 / 3, -0.0]
        vector = np.resize(values, mesh.num_vertices)
        assert np.count_nonzero(vector == 0.0) > 2
        cli._write_vtk(tmp_path / "fast.vtk", mesh, vector)
        reference_vtk(tmp_path / "ref.vtk", mesh, vector)
        text = (tmp_path / "fast.vtk").read_text()
        assert "\n-0.0\n" in text and "\n0.0\n" in text and "\n5e-324\n" in text
        assert (tmp_path / "fast.vtk").read_bytes() == \
            (tmp_path / "ref.vtk").read_bytes()

    @pytest.mark.parametrize("h", ["0", "-0.02", "nan", "inf"])
    @pytest.mark.parametrize("dom", [
        pytest.param(DomainSpec.ball, id="ball"),
        pytest.param(lambda: DomainSpec.calibrated_cusp(0.9), id="cusp"),
    ])
    def test_constant_rejects_bad_mesh_size(self, dom, h, tmp_path, capsys):
        dpath = tmp_path / "dom.json"
        dpath.write_text(json.dumps(dom().to_json()))
        code, diag = cli_error(["constant", "--domain", str(dpath),
                                "--schedule", "16,64", "--h", h], capsys)
        assert code == 1
        assert diag["error"] == "DomainRangeError"
        assert repr(float(h)) in diag["message"]

    def test_classify_rejects_unknown_flavor(self, tmp_path, capsys):
        dpath = tmp_path / "dom.json"
        dpath.write_text(json.dumps({"kind": "cusp", "R": 1.0, "params": {
            "flavor": "conee", "a": 0.9}}))
        code, diag = cli_error(["domain", "classify", "--domain", str(dpath)],
                               capsys)
        assert code == 1
        assert diag["error"] == "DomainRangeError"
        assert "conee" in diag["message"]

    @pytest.mark.parametrize("doc, schedule", [
        pytest.param({"kind": "ball_with_core_cutoff", "R": 1.0,
                      "params": {"c": 0.8}}, "4,8", id="core_cutoff_0.8"),
        pytest.param({"kind": "angular_profile", "R": 1.0,
                      "contains_origin": True, "params": {"bands": [
                          [0.0, 0.4, [[0.0, 2 * math.pi]]],
                          [0.4, 0.45, [[0.0, math.pi]]],
                          [0.45, 1.0, [[0.0, 2 * math.pi]]]]}},
                     "4,8,16", id="band_gap"),
    ])
    def test_constant_rejects_unmeshable_domain(self, doc, schedule,
                                                tmp_path, capsys):
        dpath = tmp_path / "dom.json"
        dpath.write_text(json.dumps(doc))
        code, diag = cli_error(["constant", "--domain", str(dpath),
                                "--schedule", schedule], capsys)
        assert code == 1
        assert diag["error"] == "ConstructionError"

    def test_constant_report_keys(self, tmp_path, capsys):
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        code, out = run_cli(["constant", "--domain", str(dpath),
                             "--schedule", "4,8,16", "--h", "0.05"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"meta", "estimate", "method", "fit", "per_n",
                            "warnings"}
        assert doc["method"] == "window_fit" and doc["warnings"] == []

    @pytest.mark.parametrize("schedule, n", [("0,4", 0), ("-4,8", -4)])
    def test_constant_rejects_non_positive_index(self, schedule, n, tmp_path,
                                                 capsys):
        # n = 0 once ended in a ZeroDivisionError traceback
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        code, diag = cli_error(["constant", "--domain", str(dpath),
                                f"--schedule={schedule}"], capsys)
        assert code == 1
        assert diag["error"] == "DomainRangeError"
        assert f"positive integer, got {n}" in diag["message"]

    def test_parse_schedule_rejects_non_integers(self):
        assert cli._parse_schedule("4,8,") == [4, 8]
        with pytest.raises(DomainRangeError, match="'4,x'"):
            cli._parse_schedule("4,x")

    @pytest.mark.parametrize("command", [
        ["constant", "--domain", "{dom}"],
        ["upperbound", "--family", "phi_alpha"],
    ])
    def test_bad_schedule_exit_code(self, command, tmp_path, capsys):
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        args = [a.format(dom=dpath) for a in command]
        code, diag = cli_error(args + ["--schedule", "4,x"], capsys)
        assert code == 1
        assert diag["error"] == "DomainRangeError"

    @pytest.mark.parametrize("command", [
        ["constant", "--domain", "{dom}"],
        ["upperbound", "--family", "phi_alpha"],
    ])
    @pytest.mark.parametrize("schedule", ["-4,8", "-4", "0,4"])
    def test_schedule_token_reaches_the_parser(self, command, schedule,
                                               tmp_path, capsys):
        # argparse once read "-4,8" as an option and exited 2
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        args = [a.format(dom=dpath) for a in command]
        glued = cli_error(args + [f"--schedule={schedule}"], capsys)
        apart = cli_error(args + ["--schedule", schedule], capsys)
        assert apart == glued
        assert glued[0] == 1 and glued[1]["error"] == "DomainRangeError"

    @pytest.mark.parametrize("family", ["phi_alpha", "psi_beta"])
    @pytest.mark.parametrize("N", ["1", "0", "-2"])
    def test_upperbound_rejects_dimension(self, family, N, capsys):
        # N = 0 and 1 once ended in a ZeroDivisionError traceback, N = -2 in
        # a math domain error
        code, diag = cli_error(["upperbound", "--family", family, "--N", N],
                               capsys)
        assert code == 1
        assert diag == {"error": "DomainRangeError",
                        "message": f"N must be an integer >= 2, got {N}"}

    def test_deterministic_output(self, tmp_path, capsys):
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        outs = []
        for tag in ("a", "b"):
            opath = tmp_path / f"out_{tag}.json"
            code, _ = run_cli(["constant", "--domain", str(dpath),
                               "--schedule", "4", "--h", "0.08",
                               "--out", str(opath)], capsys)
            assert code == 0
            # hash-relevant config excludes the output path
            doc = json.loads(opath.read_text())
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        code = cli.main(["constant", "--domain", str(dpath),
                         "--schedule", "1"])
        assert code == 1

    def test_error_line_carries_diagnostics(self, tmp_path, capsys,
                                            monkeypatch):
        # the eigen residual cannot fall below 1e-300, so the ball's solve
        # fails its gate and the error line reports the residual
        from crithardy import fem2d
        monkeypatch.setattr(fem2d, "_TOL", 1e-300)
        dpath = tmp_path / "ball.json"
        dpath.write_text(json.dumps(DomainSpec.ball(1.0).to_json()))
        code, diag = cli_error(["constant", "--domain", str(dpath),
                                "--schedule", "4", "--h", "0.08"], capsys)
        assert code == 1
        assert diag["error"] == "NonConvergenceError"
        assert diag["diagnostics"]["residual"] > 1e-300

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crithardy.cli", "--bogus-flag"],
            capture_output=True)
        assert proc.returncode == 2

    @pytest.mark.parametrize("args", [
        ["upperbound", "--family", "psi_beta", "--sched", "3,4"],
        # "-4,8" once reached the parser as --schedule's value and exited 2
        # with "expected one argument"
        ["upperbound", "--family", "phi_alpha", "--sched", "-4,8"],
        ["ea", "--a", "0.9", "--grid", "64"],
    ], ids=["sched", "sched_negative", "grid"])
    def test_abbreviated_option_is_refused(self, args, capsys):
        # argparse once took an unambiguous prefix for the whole option
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["ea", "--a", "0.9", "--grid", "64"],
        ["ea", "sweep", "--grid", "64"],
        ["ea", "--grid=64"],
    ], ids=["value", "sweep", "glued"])
    def test_unknown_option_is_named(self, args, capsys):
        # argparse once handed "64" to the positional mode and blamed it:
        # "argument mode: invalid choice: '64'"
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid" in err
        assert "invalid choice" not in err

    def test_positional_choice_is_still_checked(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ea", "64"])
        assert exc.value.code == 2
        assert "invalid choice: '64'" in capsys.readouterr().err

    def test_abbreviated_schedule_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["upperbound", "--family", "phi_alpha", "--sched", "3,4"])
        assert "unrecognized arguments: --sched 3,4" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["weight", "sweep", "--R", "inf", "--num", "3"],
         "R must be a finite real number above 0, got inf"),
        (["upperbound", "--family", "phi_alpha", "--R", "inf"],
         "R must be a finite real number above 0, got inf"),
        (["upperbound", "--family", "halfspace", "--R", "inf"],
         "R must be a finite real number above 0, got inf"),
        (["weight", "sweep", "--num", "-1"],
         "num must be a positive integer, got -1"),
        (["weight", "sweep", "--num", "0"],
         "num must be a positive integer, got 0"),
        (["ea", "sweep", "--num", "-1"],
         "num must be a positive integer, got -1"),
    ], ids=["weight_R_inf", "phi_alpha_R_inf", "halfspace_R_inf",
            "weight_num_negative", "weight_num_zero", "ea_num_negative"])
    def test_input_range_error_line(self, args, message, capsys):
        # R = inf once printed NaN rows or blamed the transplanted support;
        # --num -1 once ended in a ValueError traceback
        code, diag = cli_error(args, capsys)
        assert code == 1
        assert diag == {"error": "DomainRangeError", "message": message}

    @pytest.mark.parametrize("command", [
        ["domain", "classify", "--domain", "{doc}"],
        ["constant", "--domain", "{doc}"],
        ["quotient", "eval", "--input", "{doc}"],
        ["rearrange", "--domain", "{half}", "--fn", "{doc}"],
    ], ids=["classify", "constant", "quotient", "rearrange"])
    @pytest.mark.parametrize("content", [None, '{"kind": "ball", "R'],
                             ids=["missing", "truncated"])
    def test_unreadable_document_error_line(self, command, content, tmp_path,
                                            capsys):
        # a missing file once ended in a FileNotFoundError traceback, a
        # truncated one in a JSONDecodeError traceback
        half = tmp_path / "half.json"
        half.write_text(json.dumps(DomainSpec.half_disk().to_json()))
        doc = tmp_path / "doc.json"
        if content is not None:
            doc.write_text(content)
        args = [a.format(doc=doc, half=half) for a in command]
        code, diag = cli_error(args, capsys)
        assert code == 1
        assert diag["error"] == "DomainRangeError"
        assert diag["message"].startswith(
            f"cannot read JSON document {str(doc)!r}: ")


class TestVerifyAll:
    def test_quick_matrix(self, capsys):
        code, out = run_cli(["verify-all", "--quick"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["all_pass"] is True
        names = {row["theorem"] for row in doc["rows"]}
        assert {"origin_interior", "interior_sphere", "strict_inequality",
                "attained", "cusp_nonattained", "angular_limit",
                "ball_constant"} <= names

    def test_failed_row_exit_code(self, tmp_path, capsys, monkeypatch):
        # a failed row exits 1 and still writes the matrix, with its status
        # lines on stderr
        from crithardy import oned
        monkeypatch.setattr(oned, "sin_power_quotient", lambda a: 0.0)
        out = tmp_path / "matrix.json"
        code = cli.main(["verify-all", "--quick", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert code == 1
        assert doc["all_pass"] is False
        assert [r["theorem"] for r in doc["rows"] if not r["pass"]] == \
            ["angular_limit"]
        assert "[FAIL] angular_limit" in capsys.readouterr().err.splitlines()


class TestStartup:
    def test_no_heavy_scipy_subpackages(self, tmp_path):
        # a fresh interpreter, since scipy subpackages that other tests import
        # would hide one that the package pulls in; the runs cover the rate
        # fit, the calibrated-cusp profile and the identity row, so a lazy
        # import inside them fails the test too
        dom = tmp_path / "ball.json"
        dom.write_text(json.dumps(DomainSpec.ball().to_json()))
        script = textwrap.dedent(f"""
            import contextlib, io, json, sys
            heavy = [["scipy", h]
                     for h in ("optimize", "interpolate", "integrate",
                               "special")]
            def loaded():
                return sorted(m for m in sys.modules
                              if m.split(".")[:2] in heavy)
            import crithardy.cli as cli
            seen = {{"import": loaded()}}
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["verify-all", "--quick"]),
                         cli.main(["constant", "--domain", {str(dom)!r},
                                   "--schedule", "4,8"])]
            seen["runs"] = loaded()
            print(json.dumps({{"codes": codes, "seen": seen}}))
        """)
        src = str(Path(crithardy.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert doc["codes"] == [0, 0]
        assert doc["seen"] == {"import": [], "runs": []}
