"""Command-line front end: reproducible runs, JSON/CSV artifacts.

Outputs are deterministic for a fixed configuration; every artifact embeds
the tool version and a hash of the effective configuration (output paths
excluded).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, domain as dm, fem2d, oned, rearrange, testfn, weight
from ._errors import (ConstructionError, DegenerateInputError,
                      DomainRangeError, GridMismatchError, NumericalError)
from .quotient import (PolarGridFunction, RadialFunction, quotient_polar,
                       quotient_radial)
from .weight import WeightParams


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(args: argparse.Namespace) -> dict:
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("out", "emit_vtk") and not callable(v)}
    return {"tool": "crithardy", "version": __version__,
            "config_hash": _config_hash(payload)}


def _write(text: str, path: str | None) -> None:
    """Write ``text`` and a newline to ``path``, or to stdout."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True, default=float), path)


def _emit_csv(header: list[str], rows: list, meta: dict,
              path: str | None) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    _write("\n".join(lines), path)


def _load_domain(path: str) -> dm.DomainSpec:
    with open(path) as fh:
        return dm.DomainSpec.from_json(json.load(fh))


# The optional keys of every function document, and the keys of a polar grid
_FUNCTION_KEYS = ("type", "R", "N")
_GRID_KEYS = ("r", "values", "theta_count")


def _floats(what: str, value) -> np.ndarray:
    """``value`` as a float array; `DomainRangeError` unless it is a number
    or a rectangular nested list of numbers."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise DomainRangeError(f"{what} must hold numbers, got {value!r}")
    return arr.astype(float)


def _count(what: str, value) -> int:
    """``value``; `DomainRangeError` unless it is a positive integer."""
    if type(value) is not int or value < 1:
        raise DomainRangeError(f"{what} must be a positive integer, got {value!r}")
    return value


def _polar_grid(doc, dom: dm.DomainSpec | None) -> PolarGridFunction:
    """The polar-grid function of a JSON document with ``r``, ``values``
    and ``theta_count`` equispaced angles from 0, on ``dom`` or, when it is
    None, on the document's ``domain``.  Raises `DomainRangeError` on a
    missing or unknown key and on a value that is not of its kind."""
    own = ("domain",) if dom is None else ()
    dm._check_keys("polar function document", doc, _GRID_KEYS + own,
                   _FUNCTION_KEYS + ("domain",))
    nt = _count("theta_count", doc["theta_count"])
    r, values = _floats("r", doc["r"]), _floats("values", doc["values"])
    return PolarGridFunction(
        r=r, theta=np.arange(nt) * (2 * math.pi / nt), values=values,
        domain=dm.DomainSpec.from_json(doc["domain"]) if dom is None else dom)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_domain(args) -> int:
    dom = _load_domain(args.domain)
    cls = dm.classify(dom)
    doc = {"meta": _meta(args), "m0": cls.m0, "mR": cls.mR,
           "regime": cls.regime.value, "m0_table": cls.m0_table,
           "mR_table": cls.mR_table}
    _emit_json(doc, args.out)
    return 0


def cmd_weight_sweep(args) -> int:
    wp = WeightParams(R=args.R, N=args.N)
    xs = np.linspace(args.lo, args.hi, args.num)
    rows = [(float(x), weight.weight_eval(wp, float(x)),
             weight.boundary_taylor_gap(wp, float(x))) for x in xs]
    _emit_csv(["x_norm", "weight", "taylor_gap"], rows, _meta(args), args.out)
    return 0


def cmd_quotient(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("type", "radial") == "radial":
        dm._check_keys("radial function document", doc, ("r", "values"),
                       _FUNCTION_KEYS + ("constant_core",))
        quotient = quotient_radial
        u = RadialFunction(r=_floats("r", doc["r"]),
                           values=_floats("values", doc["values"]),
                           N=doc.get("N", 2),
                           constant_core=doc.get("constant_core", False))
    else:
        quotient, u = quotient_polar, _polar_grid(doc, None)
    rep = quotient(u, WeightParams(R=dm._real("R", doc.get("R", 1.0)),
                                   N=_count("N", doc.get("N", 2))))
    out = {"meta": _meta(args), "dirichlet_energy": rep.dirichlet_energy,
           "weighted_mass": rep.weighted_mass, "ratio": rep.ratio,
           "quad_error_estimate": rep.quad_error_estimate}
    if rep.radial_energy is not None:
        out["radial_energy"] = rep.radial_energy
        out["angular_energy"] = rep.angular_energy
    _emit_json(out, args.out)
    return 0


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise DomainRangeError(
            f"schedule must be comma-separated integers (got {text!r})"
        ) from None


def cmd_upperbound(args) -> int:
    ks = _parse_schedule(args.schedule) if args.schedule else list(range(3, 11))
    rows: list[tuple] = []
    if args.family == "phi_alpha":
        rows = list(testfn.phi_alpha_schedule(ks, c=args.c, R=args.R, N=args.N))
    elif args.family == "psi_beta":
        rows = list(testfn.psi_beta_schedule(ks, N=args.N))
    elif args.family == "halfspace":
        ball = dm.DomainSpec.ball(args.R)
        for l in (ks if args.schedule else (4, 16, 64)):
            rep = testfn.halfspace_quotient(
                None, testfn.HalfSpaceFamilyParams(l=l), ball)
            rows.append((l, rep.ratio, rep.quad_error_estimate))
    elif args.family == "cusp":
        cusp = dm.DomainSpec.calibrated_cusp(args.a)
        for k in (ks if args.schedule else (6, 8, 10)):
            params = testfn.CuspFamilyParams(
                a_prime=args.a_prime, eps=args.delta * 2.0 ** (-k),
                delta=args.delta)
            rep = testfn.cusp_upper_bound(params, cusp)
            rows.append((k, rep.ratio, rep.quad_error_estimate))
    _emit_csv(["param", "ratio", "error_estimate"], rows, _meta(args), args.out)
    return 0


def cmd_ea(args) -> int:
    if args.mode == "sweep":
        grid = np.linspace(args.lo, args.hi, args.num)
        rows = []
        for a in grid:
            res = oned.solve_angular(float(a), args.grid_size)
            rows.append((float(a), res.value, res.residual))
        _emit_csv(["a", "eigenvalue", "residual"], rows, _meta(args), args.out)
    else:
        res = oned.solve_angular(args.a, args.grid_size)
        _emit_json({"meta": _meta(args), "a": args.a, "eigenvalue": res.value,
                    "residual": res.residual, "grid_size": res.grid_size},
                   args.out)
    return 0


def cmd_radial(args) -> int:
    val = oned.radial_reduction_constant(args.N)
    target = ((args.N - 1) / args.N) ** args.N
    _emit_json({"meta": _meta(args), "N": args.N, "infimum_estimate": val,
                "closed_form_limit": target}, args.out)
    return 0


def cmd_rearrange(args) -> int:
    dom = _load_domain(args.domain)
    with open(args.fn) as fh:
        u = _polar_grid(json.load(fh), dom)
    star = rearrange.rearrange_function(u)
    rep = rearrange._report(u, star, WeightParams(R=dom.R, N=2))
    out = {"meta": _meta(args), "checks": rep,
           "rearranged_values": star.values.tolist(),
           "half_widths": rearrange.rearrange_domain(dom, u.r).tolist()}
    _emit_json(out, args.out)
    return 0


def _write_vtk(path: str, mesh: fem2d.Mesh, vector: np.ndarray) -> None:
    """Legacy ASCII VTK of the mesh and a vertex field; floats are written as
    their shortest round-trip decimal (Python ``repr``)."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    # a radial mode repeats each row's value along the row: format each
    # distinct bit pattern once (bits, not values, keep -0.0 apart from 0.0)
    bits, where = np.unique(
        np.ascontiguousarray(vector, dtype=np.float64).view(np.int64),
        return_inverse=True)
    lines = np.array([repr(v) + "\n" for v in bits.view(np.float64).tolist()],
                     dtype=object)
    # one %-format per section over the flattened arrays
    sections = [
        "# vtk DataFile Version 3.0\neigenvector\nASCII\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {nv} double\n",
        "%r %r 0.0\n" * nv % tuple(mesh.vertices.ravel().tolist()),
        f"CELLS {nt} {4 * nt}\n",
        "3 %d %d %d\n" * nt % tuple(mesh.triangles.ravel().tolist()),
        f"CELL_TYPES {nt}\n",
        "5\n" * nt,
        f"POINT_DATA {nv}\nSCALARS eigenvector double 1\n"
        "LOOKUP_TABLE default\n",
        "".join(lines[where]),
    ]
    with open(path, "w") as fh:
        fh.writelines(sections)


def cmd_constant(args) -> int:
    dom = _load_domain(args.domain)
    est = fem2d.extrapolate_constant(dom, _parse_schedule(args.schedule),
                                     target_h=args.h)
    doc = {"meta": _meta(args), "estimate": est.estimate, "method": est.method,
           "aitken": est.aitken, "fit": est.fit, "per_n": est.per_n,
           "collar_report": est.collar_report, "warnings": est.warnings}
    if args.emit_vtk:
        _write_vtk(args.emit_vtk, est.mesh, est.vector)
        doc["vtk"] = args.emit_vtk
    _emit_json(doc, args.out)
    return 0


def cmd_verify_all(args) -> int:
    quick = args.quick
    rows = []

    def add(name, ok, measured):
        rows.append({"theorem": name, "pass": bool(ok), "measured": measured})

    # origin regime: origin family pushes the quotient to 1/4 from above
    sched = testfn.phi_alpha_schedule(range(3, 9 if quick else 11))
    ratios = [r for _, r, _ in sched]
    ok = abs(ratios[-1] - 0.25) <= 0.02 and all(
        b <= a + 1e-3 for a, b in zip(ratios, ratios[1:]))
    add("origin_interior", ok, {"final_ratio": ratios[-1]})

    # interior-sphere regime: transplanted half-space family converges
    ball = dm.DomainSpec.ball(1.0)
    reps = [testfn.halfspace_quotient(
        None, testfn.HalfSpaceFamilyParams(l=l), ball)
        for l in ((4, 16) if quick else (4, 16, 64))]
    half = reps[0].extras["halfspace_ratio"]
    gaps = [abs(rep.ratio - half) for rep in reps]
    ok = all(b < a for a, b in zip(gaps, gaps[1:])) and \
        reps[-1].ratio <= half + 0.05
    add("interior_sphere", ok, {"halfspace_ratio": half, "gaps": gaps})

    # strict inequality and attainment on the pinched cone
    quad = dm.DomainSpec.quadratic_cusp(0.5)
    cls = dm.classify(quad)
    est = fem2d.extrapolate_constant(quad, [8, 16] if quick else [8, 16, 32])
    ok = cls.regime is dm.Regime.ATTAINED and est.estimate >= 0.27
    add("strict_inequality", ok,
        {"regime": cls.regime.value, "m0": cls.m0, "mR": cls.mR})
    col = est.collar_report
    ok = (est.estimate >= 0.27 and col["final_collar_outer"] < 0.2
          and col["final_anchor_outer"] < 0.2)
    add("attained", ok, {"estimate": est.estimate,
                         "outer_collar": col["final_collar_outer"]})

    # calibrated cusp: best constant equals the angular eigenvalue
    cusp = dm.DomainSpec.calibrated_cusp(0.9)
    sched_n = [16, 64, 256] if quick else [16, 64, 256, 1024]
    est_c = fem2d.extrapolate_constant(cusp, sched_n)
    ea = cusp.cusp.eigenvalue
    rel = abs(est_c.estimate - ea) / ea
    add("cusp_nonattained", rel <= 0.05,
        {"fem": est_c.estimate, "eigenvalue": ea, "rel_gap": rel})

    # angular problem basics
    vals = [oned.angular_eigenvalue(a) for a in (0.1, 0.5, 1.0)]
    resid = oned.angular_identity_residual(
        lambda x: np.sin(x) ** 2, lambda x: 2 * np.sin(x) * np.cos(x))
    sin_q = oned.sin_power_quotient(0.51)
    ok = all(v >= 0.25 + 1e-3 for v in vals) and abs(resid) < 1e-6 and \
        0.25 < sin_q <= 0.51**2
    add("angular_limit", ok, {"eigenvalues": vals, "identity_residual": resid,
                              "sin_power_quotient": sin_q})

    # ball constant
    est_b = fem2d.extrapolate_constant(ball, [4, 8, 16] if quick else [4, 8, 16, 32])
    ok = 0.24 <= est_b.estimate <= 0.26
    add("ball_constant", ok, {"estimate": est_b.estimate})

    all_ok = all(r["pass"] for r in rows)
    doc = {"meta": _meta(args), "rows": rows, "all_pass": all_ok}
    _emit_json(doc, args.out)
    for r in rows:
        status = "pass" if r["pass"] else "FAIL"
        print(f"[{status}] {r['theorem']}", file=sys.stderr)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crithardy",
        description="Best constants of the critical Hardy inequality: "
                    "quotients, bounds, and FEM eigenvalues on planar domains")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("domain", help="domain geometry operations")
    dsub = p.add_subparsers(dest="domain_command", required=True)
    pc = dsub.add_parser("classify", help="classify a domain JSON file")
    pc.add_argument("--domain", required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_domain)

    p = sub.add_parser("weight", help="weight evaluations")
    wsub = p.add_subparsers(dest="weight_command", required=True)
    pw = wsub.add_parser("sweep", help="CSV sweep of weight and Taylor gap")
    pw.add_argument("--R", type=float, default=1.0)
    pw.add_argument("--N", type=int, default=2)
    pw.add_argument("--lo", type=float, default=0.01)
    pw.add_argument("--hi", type=float, default=0.999)
    pw.add_argument("--num", type=int, default=100)
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_weight_sweep)

    p = sub.add_parser("quotient", help="quotient evaluation")
    qsub = p.add_subparsers(dest="quotient_command", required=True)
    pq = qsub.add_parser("eval", help="evaluate a function JSON file")
    pq.add_argument("--input", required=True)
    pq.add_argument("--out")
    pq.set_defaults(func=cmd_quotient)

    p = sub.add_parser("upperbound", help="test-function family sweeps")
    p.add_argument("--family", required=True,
                   choices=["phi_alpha", "psi_beta", "halfspace", "cusp"])
    p.add_argument("--schedule", help="comma-separated parameter list")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--a", type=float, default=0.9)
    p.add_argument("--a-prime", dest="a_prime", type=float, default=0.95)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_upperbound)

    p = sub.add_parser("ea", help="angular eigenvalue")
    p.add_argument("mode", nargs="?", choices=["sweep"],
                   help="'sweep' emits a CSV over an a-grid")
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--lo", type=float, default=0.05)
    p.add_argument("--hi", type=float, default=1.5)
    p.add_argument("--num", type=int, default=20)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=2048)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ea)

    p = sub.add_parser("radial", help="general-N radial reduction constant")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("rearrange", help="rearrange a polar-grid function")
    p.add_argument("--domain", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("constant", help="FEM best-constant estimate")
    p.add_argument("--domain", required=True)
    p.add_argument("--schedule", default="4,8,16,32")
    p.add_argument("--h", type=float, default=0.02)
    p.add_argument("--emit-vtk", dest="emit_vtk")
    p.add_argument("--out")
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("verify-all", help="theorem-to-result verification matrix")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    # every package error; NonConvergenceError and AssemblyError are
    # NumericalErrors
    except (ConstructionError, DegenerateInputError, DomainRangeError,
            GridMismatchError, NumericalError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "diagnostics"):
            diag["diagnostics"] = exc.diagnostics
        print(json.dumps(diag), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
