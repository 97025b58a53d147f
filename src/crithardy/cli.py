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


def _emit(out, meta: dict, path: str | None) -> None:
    """Write a subcommand's result and a newline to ``path``, or to stdout: a
    dict as sorted JSON with ``meta`` under its own key, a ``(header, rows)``
    pair as CSV after one ``# key=value`` line per ``meta`` item."""
    if isinstance(out, dict):
        text = json.dumps({"meta": meta, **out}, indent=2, sort_keys=True,
                          default=float)
    else:
        header, rows = out
        lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row))
        text = "\n".join(lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_json(path: str):
    """The JSON document in file ``path``; `DomainRangeError`, naming the
    file, when it cannot be opened or does not hold JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DomainRangeError(
            f"cannot read JSON document {path!r}: {exc}") from None


def _load_domain(path: str) -> dm.DomainSpec:
    return dm.DomainSpec.from_json(_read_json(path))


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


def _polar_grid(doc, dom: dm.DomainSpec | None) -> PolarGridFunction:
    """The polar-grid function of a JSON document with ``r``, ``values``
    and ``theta_count`` equispaced angles from 0, on ``dom`` or, when it is
    None, on the document's ``domain``.  Raises `DomainRangeError` on a
    missing or unknown key and on a value that is not of its kind."""
    own = ("domain",) if dom is None else ()
    dm._check_keys("polar function document", doc, _GRID_KEYS + own,
                   _FUNCTION_KEYS + ("domain",))
    nt = dm._count("theta_count", doc["theta_count"])
    r, values = _floats("r", doc["r"]), _floats("values", doc["values"])
    return PolarGridFunction(
        r=r, theta=np.arange(nt) * (2 * math.pi / nt), values=values,
        domain=dm.DomainSpec.from_json(doc["domain"]) if dom is None else dom)


# ---------------------------------------------------------------------------
# subcommands: each returns its result, a dict for JSON or a (header, rows)
# pair for CSV, and `main` writes it
# ---------------------------------------------------------------------------

def cmd_domain(args) -> dict:
    cls = dm.classify(_load_domain(args.domain))
    return {"m0": cls.m0, "mR": cls.mR, "regime": cls.regime.value,
            "m0_table": cls.m0_table, "mR_table": cls.mR_table}


def cmd_weight_sweep(args) -> tuple:
    wp = WeightParams(R=args.R, N=args.N)
    xs = np.linspace(args.lo, args.hi, dm._count("num", args.num))
    return (["x_norm", "weight", "taylor_gap"],
            [(float(x), weight.weight_eval(wp, float(x)),
              weight.boundary_taylor_gap(wp, float(x))) for x in xs])


def cmd_quotient(args) -> dict:
    doc = _read_json(args.input)
    if isinstance(doc, dict) and doc.get("type", "radial") == "radial":
        dm._check_keys("radial function document", doc, ("r", "values"),
                       _FUNCTION_KEYS + ("constant_core",))
        quotient = quotient_radial
        u = RadialFunction(r=_floats("r", doc["r"]),
                           values=_floats("values", doc["values"]),
                           N=doc.get("N", 2),
                           constant_core=dm._flag(
                               "constant_core", doc.get("constant_core", False)))
    else:
        quotient, u = quotient_polar, _polar_grid(doc, None)
    rep = quotient(u, WeightParams(R=dm._real("R", doc.get("R", 1.0)),
                                   N=dm._count("N", doc.get("N", 2))))
    out = {"dirichlet_energy": rep.dirichlet_energy,
           "weighted_mass": rep.weighted_mass, "ratio": rep.ratio,
           "quad_error_estimate": rep.quad_error_estimate}
    if rep.radial_energy is not None:
        out["radial_energy"] = rep.radial_energy
        out["angular_energy"] = rep.angular_energy
    return out


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise DomainRangeError(
            f"schedule must be comma-separated integers (got {text!r})"
        ) from None


# the parameters each `upperbound` family runs when no --schedule is given
_SCHEDULES = {"phi_alpha": range(3, 11), "psi_beta": range(3, 11),
              "halfspace": (4, 16, 64), "cusp": (6, 8, 10)}


def cmd_upperbound(args) -> tuple:
    ks = (_parse_schedule(args.schedule) if args.schedule
          else list(_SCHEDULES[args.family]))
    rows: list[tuple] = []
    if args.family == "phi_alpha":
        rows = list(testfn.phi_alpha_schedule(ks, c=args.c, R=args.R, N=args.N))
    elif args.family == "psi_beta":
        rows = list(testfn.psi_beta_schedule(ks, N=args.N))
    elif args.family == "halfspace":
        ball = dm.DomainSpec.ball(args.R)
        for l in ks:
            rep = testfn.halfspace_quotient(
                None, testfn.HalfSpaceFamilyParams(l=l), ball)
            rows.append((l, rep.ratio, rep.quad_error_estimate))
    elif args.family == "cusp":
        cusp = dm.DomainSpec.calibrated_cusp(args.a)
        for k in ks:
            params = testfn.CuspFamilyParams(
                a_prime=args.a_prime, eps=args.delta * 2.0 ** (-k),
                delta=args.delta)
            rep = testfn.cusp_upper_bound(params, cusp)
            rows.append((k, rep.ratio, rep.quad_error_estimate))
    return ["param", "ratio", "error_estimate"], rows


def cmd_ea(args):
    if args.mode == "sweep":
        rows = []
        for a in np.linspace(args.lo, args.hi, dm._count("num", args.num)):
            res = oned.solve_angular(float(a), args.grid_size)
            rows.append((float(a), res.value, res.residual))
        return ["a", "eigenvalue", "residual"], rows
    res = oned.solve_angular(args.a, args.grid_size)
    return {"a": args.a, "eigenvalue": res.value, "residual": res.residual,
            "grid_size": res.grid_size}


def cmd_radial(args) -> dict:
    N = args.N
    return {"N": N, "infimum_estimate": oned.radial_reduction_constant(N),
            "closed_form_limit": ((N - 1) / N) ** N}


def cmd_rearrange(args) -> dict:
    dom = _load_domain(args.domain)
    u = _polar_grid(_read_json(args.fn), dom)
    star = rearrange.rearrange_function(u)
    return {"checks": rearrange._report(u, star, WeightParams(R=dom.R, N=2)),
            "rearranged_values": star.values.tolist(),
            "half_widths": rearrange.rearrange_domain(dom, u.r).tolist()}


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


def cmd_constant(args) -> dict:
    est = fem2d.extrapolate_constant(_load_domain(args.domain),
                                     _parse_schedule(args.schedule),
                                     target_h=args.h)
    doc = {"estimate": est.estimate, "method": est.method, "fit": est.fit,
           "per_n": est.per_n, "warnings": est.warnings}
    if args.emit_vtk:
        _write_vtk(args.emit_vtk, est.mesh, est.vector)
        doc["vtk"] = args.emit_vtk
    return doc


def cmd_verify_all(args) -> dict:
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
    final = est.per_n[-1]
    ok = (est.estimate >= 0.27 and final["collar_outer"] < 0.2
          and final["anchor_outer"] < 0.2)
    add("attained", ok, {"estimate": est.estimate,
                         "outer_collar": final["collar_outer"]})

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

    for r in rows:
        status = "pass" if r["pass"] else "FAIL"
        print(f"[{status}] {r['theorem']}", file=sys.stderr)
    return {"rows": rows, "all_pass": all(r["pass"] for r in rows)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """`argparse.ArgumentParser` that names an unknown ``--option`` given to
    a leaf command with a positional argument.  argparse would hand the
    token after the option to that positional and blame the positional
    instead (``ea --grid 64``: ``invalid choice: '64'``)."""

    def parse_known_args(self, args=None, namespace=None):
        if self._subparsers is None and self._get_positional_actions():
            for tok in args:
                if tok == "--":
                    break
                if tok.startswith("--") and (tok.split("=", 1)[0]
                                             not in self._option_string_actions):
                    self.error(f"unrecognized arguments: {tok}")
        return super().parse_known_args(args, namespace)


def command(parent, name: str, func, help: str) -> argparse.ArgumentParser:
    """The parser of leaf subcommand ``name`` under the subparsers ``parent``:
    it takes no abbreviated option, has an ``--out`` path and runs ``func``."""
    p = parent.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--out")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="crithardy",
        description="Best constants of the critical Hardy inequality: "
                    "quotients, bounds, and FEM eigenvalues on planar domains")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("domain", help="domain geometry operations")
    dsub = p.add_subparsers(dest="domain_command", required=True)
    p = command(dsub, "classify", cmd_domain, "classify a domain JSON file")
    p.add_argument("--domain", required=True)

    p = sub.add_parser("weight", help="weight evaluations")
    wsub = p.add_subparsers(dest="weight_command", required=True)
    p = command(wsub, "sweep", cmd_weight_sweep,
                "CSV sweep of weight and Taylor gap")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--lo", type=float, default=0.01)
    p.add_argument("--hi", type=float, default=0.999)
    p.add_argument("--num", type=int, default=100)

    p = sub.add_parser("quotient", help="quotient evaluation")
    qsub = p.add_subparsers(dest="quotient_command", required=True)
    p = command(qsub, "eval", cmd_quotient, "evaluate a function JSON file")
    p.add_argument("--input", required=True)

    p = command(sub, "upperbound", cmd_upperbound, "test-function family sweeps")
    p.add_argument("--family", required=True, choices=list(_SCHEDULES))
    p.add_argument("--schedule", help="comma-separated parameter list")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--a", type=float, default=0.9)
    p.add_argument("--a-prime", dest="a_prime", type=float, default=0.95)
    p.add_argument("--delta", type=float, default=0.05)

    p = command(sub, "ea", cmd_ea, "angular eigenvalue")
    p.add_argument("mode", nargs="?", choices=["sweep"],
                   help="'sweep' emits a CSV over an a-grid")
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--lo", type=float, default=0.05)
    p.add_argument("--hi", type=float, default=1.5)
    p.add_argument("--num", type=int, default=20)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=2048)

    p = command(sub, "radial", cmd_radial, "general-N radial reduction constant")
    p.add_argument("--N", type=int, required=True)

    p = command(sub, "rearrange", cmd_rearrange, "rearrange a polar-grid function")
    p.add_argument("--domain", required=True)
    p.add_argument("--fn", required=True)

    p = command(sub, "constant", cmd_constant, "FEM best-constant estimate")
    p.add_argument("--domain", required=True)
    p.add_argument("--schedule", default="4,8,16,32")
    p.add_argument("--h", type=float, default=0.02)
    p.add_argument("--emit-vtk", dest="emit_vtk")

    p = command(sub, "verify-all", cmd_verify_all,
                "theorem-to-result verification matrix")
    p.add_argument("--quick", action="store_true")
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as "-4,8" for an option: glue it to its flag
    while "--schedule" in argv[:-1]:
        i = argv.index("--schedule")
        argv[i:i + 2] = ["--schedule=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    # every package error; NonConvergenceError and AssemblyError are
    # NumericalErrors
    except (ConstructionError, DegenerateInputError, DomainRangeError,
            GridMismatchError, NumericalError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "diagnostics"):
            diag["diagnostics"] = exc.diagnostics
        print(json.dumps(diag), file=sys.stderr)
        return 1
    _emit(out, _meta(args), args.out)
    return 1 if isinstance(out, dict) and out.get("all_pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
