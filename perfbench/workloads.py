"""The four workloads: seeded inputs, the timed op, and its oracle check.

Inputs come in rounds.  Round ``r`` of a run with seed ``s`` is drawn from
``default_rng([s, r])`` alone, so the inputs do not depend on timing, and a
round holds one input from each stratum of the workload's input range, so
every run sees the same mix.  The runner only starts a round when the
previous one is complete.

CLI ops call ``crithardy.cli.main`` in process, as the ``crithardy`` console
script does, and are checked from the files they write.  Grid ops call the
public API.  All calls go through module attributes, so a traced run sees
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from crithardy import cli, domain, oned, quotient, rearrange, testfn
from crithardy.weight import WeightParams

import tracing

PROBE_STREAM = 1_000_003   # rng stream of the known-failure probes
SETUP_STREAM = 1_000_004   # rng stream of per-run set-up inputs


@dataclass
class Op:
    label: str
    params: dict = field(default_factory=dict)


class CliError(RuntimeError):
    """The CLI returned a non-zero exit code; ``name`` is its error type."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def run_cli(argv: list[str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    if rc != 0:
        text = buf.getvalue().strip()
        try:
            name = json.loads(text.splitlines()[-1])["error"]
        except (ValueError, KeyError, IndexError):
            name = f"exit code {rc}"
        raise CliError(name, text)


def shifted_grid(rng, lo: float, hi: float, k: int) -> list[float]:
    """k points of [lo, hi], spaced (hi - lo)/k, under one random shift.

    One point falls in each of k equal strata.  The common shift keeps
    their spacing fixed, so the mix of inputs varies little between seeds
    even where the answer jumps with the input (the mesh of a ball changes
    every few hundredths of R).
    """
    pts = lo + (hi - lo) * (np.arange(k) + rng.random()) / k
    return [float(x) for x in rng.permutation(pts)]


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _remove(*paths: Path) -> None:
    """Delete an op's output files, so a check never reads a stale one."""
    for path in paths:
        path.unlink(missing_ok=True)


def _read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


class Workload:
    """Base: seeded rounds of ops, each checked against an oracle."""

    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def rng(self, *key: int):
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> None:
        """Work done once before the first timed op."""

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def prepare(self, op: Op) -> None:
        """Untimed work before each timed call of ``op``."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> tuple[bool, float, str]:
        """(answer passes, relative error against the oracle, note)."""
        raise NotImplementedError

    def probes(self) -> list[dict]:
        """Inputs known to fail, run once per run outside the measured ops."""
        return []

    def _probe(self, op: Op) -> dict:
        out = {"label": op.label, "params": op.params}
        self.prepare(op)
        try:
            result = self.run(op)
        except Exception as exc:  # a probe reports any failure it meets
            return {**out, "outcome": "failed",
                    "error": getattr(exc, "name", type(exc).__name__)}
        try:
            ok, err, note = self.check(op, result)
        except Exception as bad:  # unreadable output fails the check
            return {**out, "outcome": "wrong answer", "note": repr(bad)}
        return {**out, "outcome": "ok" if ok else "wrong answer",
                "rel_err": err, "note": note}


# ---------------------------------------------------------------------------

class CuspCertify(Workload):
    """Cold ``upperbound --family cusp``: profile build, then the bounds."""

    name = "cusp_certify"
    A_RANGE = (0.8, 1.1)
    STRATA = 3

    def setup(self) -> None:
        self.caches = tracing.package_caches()
        self.csv = self.outdir / "bounds.csv"

    def round_ops(self, r: int) -> list[Op]:
        angles = shifted_grid(self.rng(r), *self.A_RANGE, self.STRATA)
        return [Op("cusp", {"a": a}) for a in angles]

    def prepare(self, op: Op) -> None:
        # every CLI process starts with empty caches
        tracing.clear_package_caches(self.caches)
        _remove(self.csv)

    def run(self, op: Op):
        a = op.params["a"]
        run_cli(["upperbound", "--family", "cusp", "--a", repr(a),
                 "--a-prime", repr(a + 0.05), "--out", str(self.csv)])

    def check(self, op: Op, result) -> tuple[bool, float, str]:
        """The error is the gap of the tightest bound above E(a).

        The calibration of the profile table the op built is checked too,
        against E on the default grid, four times finer than the table's.
        Its residual (~1e-9) sits at the tolerance of LAPACK's bisection on
        that grid, so it is checked but not scored.
        """
        a = op.params["a"]
        rows = _read_csv(self.csv)
        e_a = oned.angular_eigenvalue(a)
        prof = domain.build_cusp_profile(a, None)   # the op's cache entry
        table = max(abs(oned.angular_eigenvalue(float(ai)) * g / e_a - 1.0)
                    for ai, g in zip(prof.a_table, prof.g_table))
        best = min(row["ratio"] for row in rows)
        ok = len(rows) == 3 and best >= e_a and table <= 1e-6
        return ok, (best - e_a) / e_a, \
            f"E(a)={e_a:.10g} best bound={best:.10g} table residual={table:.3g}"


class BallFem(Workload):
    """``constant --emit-vtk`` on balls of seeded radius."""

    name = "ball_fem"
    # The finest mesh changes shape every 0.04 in R, and the error follows
    # in a sawtooth.  Six points spaced 0.2/6 sample six phases of it.
    R_RANGE = (0.9, 1.1)
    C_RANGE = (0.3, 0.7)
    STRATA = 6
    SCHEDULE = "4,8,16,32"

    def setup(self) -> None:
        self.dom = self.outdir / "domain.json"
        self.out = self.outdir / "constant.json"
        self.vtk = self.outdir / "eigenvector.vtk"

    def round_ops(self, r: int) -> list[Op]:
        radii = shifted_grid(self.rng(r), *self.R_RANGE, self.STRATA)
        return [Op("ball", {"kind": "ball", "R": R, "params": {}})
                for R in radii]

    def prepare(self, op: Op) -> None:
        _write_json(self.dom, op.params)
        _remove(self.out, self.vtk)

    def run(self, op: Op):
        run_cli(["constant", "--domain", str(self.dom), "--schedule",
                 self.SCHEDULE, "--h", "0.02", "--out", str(self.out),
                 "--emit-vtk", str(self.vtk)])

    def check(self, op: Op, result) -> tuple[bool, float, str]:
        doc = _read_json(self.out)
        est = doc["estimate"]
        err = abs(est - 0.25) / 0.25
        with open(self.vtk) as fh:
            fh.readline(), fh.readline(), fh.readline(), fh.readline()
            points = int(fh.readline().split()[1])
        vertices = doc["per_n"][-1]["vertices"]
        ok = err <= 0.04 and points == vertices
        return ok, err, f"estimate={est:.10g} vtk points={points}/{vertices}"

    def probes(self) -> list[dict]:
        # the package README's own core-cutoff example fails in meshing
        c = float(self.rng(PROBE_STREAM).uniform(*self.C_RANGE))
        return [self._probe(Op("core_cutoff", {
            "kind": "ball_with_core_cutoff", "R": 1.0, "params": {"c": c}}))]


class CuspFem(Workload):
    """``constant`` on calibrated cusps whose profiles are built in set-up."""

    name = "cusp_fem"
    # The measured angles stop at 0.98: from about a = 1.012 the inverse
    # iteration exhausts max_iter=400 at n = 4096 or 16384.  Angles
    # from PROBE_RANGE run as a known-failure probe in every run.  They start
    # at 0.91: the error against E(a) climbs from 0.0010 at a = 0.80 to
    # 0.0024 at 0.91 and is nearly flat above, so below 0.91 the median
    # error of a run would move with the seed's draw.
    A_RANGE = (0.91, 0.98)
    STRATA = 4
    PROBE_RANGE = (1.04, 1.10)
    SCHEDULE = "16,64,256,1024,4096,16384"

    def _domain_file(self, a: float) -> Path:
        path = self.outdir / f"cusp-{a!r}.json"
        _write_json(path, {"kind": "cusp", "R": 1.0,
                           "params": {"flavor": "section5", "a": a}})
        return path

    def draw_angles(self) -> list[float]:
        return sorted(shifted_grid(self.rng(SETUP_STREAM), *self.A_RANGE,
                                   self.STRATA))

    def setup(self) -> None:
        self.angles = self.draw_angles()
        self.paths = {}
        for a in self.angles:
            # the same from_json path, and so the same profile cache key, as
            # the op's own --domain file
            self.paths[a] = self._domain_file(a)
            domain.DomainSpec.from_json(_read_json(self.paths[a]))
        self.out = self.outdir / "constant.json"

    def round_ops(self, r: int) -> list[Op]:
        order = self.rng(r).permutation(len(self.angles))
        return [Op("cusp", {"a": self.angles[i]}) for i in order]

    def prepare(self, op: Op) -> None:
        _remove(self.out)

    def run(self, op: Op):
        run_cli(["constant", "--domain", str(self.paths[op.params["a"]]),
                 "--schedule", self.SCHEDULE, "--out", str(self.out)])

    def check(self, op: Op, result) -> tuple[bool, float, str]:
        est = _read_json(self.out)["estimate"]
        e_a = oned.angular_eigenvalue(op.params["a"])
        err = abs(est - e_a) / e_a
        return err <= 0.05, err, f"estimate={est:.10g} E(a)={e_a:.10g}"

    def probes(self) -> list[dict]:
        a = float(self.rng(PROBE_STREAM).uniform(*self.PROBE_RANGE))
        self.paths[a] = self._domain_file(a)
        domain.DomainSpec.from_json(_read_json(self.paths[a]))
        return [self._probe(Op("cusp", {"a": a}))]


class QuotientChecks(Workload):
    """Grid quotients, rearrangement checks and the 1-D family schedules."""

    name = "quotient_checks"
    GRID_KINDS = ("half_disk", "cone", "quadratic_cusp", "banded",
                  "calibrated_cusp")
    SCHEDULES = ("phi_alpha", "psi_beta", "halfspace")
    NR, NTHETA = 48, 64
    EXPECTED = {"half_disk": domain.Regime.INTERIOR_SPHERE,
                "cone": domain.Regime.INTERIOR_SPHERE,
                "quadratic_cusp": domain.Regime.ATTAINED,
                "banded": domain.Regime.INTERIOR_SPHERE,
                "calibrated_cusp": domain.Regime.CUSP_NONATTAINED}

    def setup(self) -> None:
        a = float(self.rng(SETUP_STREAM).uniform(0.8, 1.1))
        self.cusp = domain.DomainSpec.calibrated_cusp(a)
        self.ball = domain.DomainSpec.ball(1.0)

    def _domain(self, kind: str, rng):
        """A fresh domain; None stands for the calibrated cusp of set-up."""
        if kind == "half_disk":
            return domain.DomainSpec.half_disk()
        if kind == "cone":
            return domain.DomainSpec.cone(float(rng.uniform(0.3, 1.2)))
        if kind == "quadratic_cusp":
            return domain.DomainSpec.quadratic_cusp(float(rng.uniform(0.3, 1.2)))
        if kind == "banded":
            r1, r2 = np.sort(rng.uniform(0.2, 0.8, 2))
            bands = []
            for lo, hi in ((0.0, r1), (r1, r2), (r2, 1.0)):
                starts = np.sort(rng.uniform(0.0, 2 * math.pi, 2))
                arcs = [(float(s), float(s + rng.uniform(0.3, 1.5)))
                        for s in starts]
                bands.append((float(lo), float(hi), arcs))
            return domain.DomainSpec.angular_profile(bands)
        return None

    def _values(self, rng, r, theta) -> np.ndarray:
        """Nonnegative bumps on a positive floor, tapered at both radii."""
        vals = np.full((r.size, theta.size), 0.1)
        for _ in range(4):
            r0, t0 = rng.uniform(0.2, 0.8), rng.uniform(0.0, 2 * math.pi)
            w, amp = rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0)
            dist = np.minimum(np.abs(theta - t0), 2 * math.pi - np.abs(theta - t0))
            vals += amp * np.exp(-(((r[:, None] - r0) / w) ** 2
                                   + (dist[None, :] / w) ** 2))
        taper = np.clip(np.minimum(r - r[0], r[-1] - r) / 0.1, 0.0, 1.0)
        return vals * taper[:, None]

    def round_ops(self, r: int) -> list[Op]:
        rng = self.rng(r)
        grid_r = np.linspace(0.05, 0.95, self.NR)
        theta = np.arange(self.NTHETA) * (2 * math.pi / self.NTHETA)
        ops = []
        for kind in self.GRID_KINDS:
            dom = self._domain(kind, rng)
            ops.append(Op(kind, {"domain": dom, "r": grid_r, "theta": theta,
                                 "u": self._values(rng, grid_r, theta),
                                 "v": self._values(rng, grid_r, theta)}))
        ops.append(Op("phi_alpha", {"k_hi": int(rng.integers(6, 11)),
                                    "c": float(rng.uniform(0.3, 0.7))}))
        ops.append(Op("psi_beta", {"k_hi": int(rng.integers(6, 11))}))
        ls = sorted(int(x) for x in rng.choice(np.arange(2, 65), 3,
                                                replace=False))
        ops.append(Op("halfspace", {"ls": ls}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: Op):
        p = op.params
        if op.label == "phi_alpha":
            return testfn.phi_alpha_schedule(range(3, p["k_hi"]), c=p["c"])
        if op.label == "psi_beta":
            return testfn.psi_beta_schedule(range(3, p["k_hi"]))
        if op.label == "halfspace":
            return [testfn.halfspace_quotient(
                None, testfn.HalfSpaceFamilyParams(l=l), self.ball).ratio
                for l in p["ls"]]
        dom = p["domain"] or self.cusp
        u = quotient.PolarGridFunction(r=p["r"], theta=p["theta"],
                                       values=p["u"], domain=dom)
        v = quotient.PolarGridFunction(r=p["r"], theta=p["theta"],
                                       values=p["v"], domain=dom)
        wp = WeightParams(R=dom.R, N=2)
        q = quotient.quotient_polar(u, wp)
        rep = rearrange.rearrangement_report(u, wp)
        hl = rearrange.hardy_littlewood_check(u, v)
        cls = domain.classify(dom)
        return q, rep, hl, cls

    def check(self, op: Op, result) -> tuple[bool, float, str]:
        if op.label == "phi_alpha":
            ratios = [ratio for _, ratio, _ in result]
            below = max(0.0, 0.25 - min(ratios)) / 0.25
            rise = max([0.0] + [b - a - 1e-3 for a, b in zip(ratios, ratios[1:])])
            err = max(below, rise)
            return err == 0.0, err, f"final ratio {ratios[-1]:.10g}"
        if op.label == "psi_beta":
            closed = [testfn.psi_beta_closed_form(testfn.PsiBetaParams(beta=b))
                      for b, _, _ in result]
            exact = max(abs(r - c) / c for (_, r, _), c in zip(result, closed))
            quad = max(e / c for (_, _, e), c in zip(result, closed))
            return exact <= 1e-12 and quad <= 0.05, max(exact, quad), \
                f"closed-form gap {exact:.3g}, quadrature gap {quad:.3g}"
        if op.label == "halfspace":
            err = max(0.0, 0.25 - min(result)) / 0.25
            return err == 0.0, err, f"ratios {result}"
        q, rep, (lhs, rhs), cls = result
        mass_gap = abs(rep["mass_gap"]) / rep["mass"]
        ps = max(0.0, -rep["polya_szego_margin"]) / rep["energy"]
        hl = max(0.0, lhs - rhs) / abs(rhs)
        regime_ok = cls.regime is self.EXPECTED[op.label]
        err = max(mass_gap, ps, hl, 0.0 if regime_ok else 1.0)
        ok = rep["equimeasurable"] and regime_ok and max(mass_gap, ps, hl) <= 1e-12
        return ok, err, f"regime {cls.regime.value} quotient {q.ratio:.6g}"


WORKLOADS = {w.name: w for w in (CuspCertify, BallFem, CuspFem, QuotientChecks)}
