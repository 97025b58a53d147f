import json
import math
import subprocess
import sys

import numpy as np
import pytest

from crithardy import (DomainRangeError, DomainSpec, angular_eigenvalue, cli,
                       solve_truncated)
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

    def test_vtk_matches_row_by_row_writer(self, tmp_path):
        res, mesh, _ = solve_truncated(DomainSpec.ball(1.0), 8)
        cli._write_vtk(tmp_path / "fast.vtk", mesh, res.vector)
        reference_vtk(tmp_path / "ref.vtk", mesh, res.vector)
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

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crithardy.cli", "--bogus-flag"],
            capture_output=True)
        assert proc.returncode == 2


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
