"""crithardy benchmark: one workload per call, checked against its oracle.

    python3 perfbench/run.py --workload cusp_certify --seed 1 --seconds 15 \
        --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs every op once untraced and once traced and prints the per-layer split.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report and, when
traced, the spans are written under ``.perfbench_out/<workload>/``.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import summary
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WALL_CAP_S = 100.0   # no new round starts after this much wall time
IMPORT_SAMPLES = 3   # in-process import plus fresh interpreters
REF_EVERY_S = 1.0    # wall time between two timings of the reference kernel

UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_p90": "s",
         "ops_per_s": "1/s", "ref_s": "s", "ops_per_ref": "1", "rel_err": "1",
         "ok_frac": "1", "fail_frac": "1", "peak_rss_mb": "MB"}
# The JSON result gates on throughput counted in reference-kernel times.  On
# a shared 2-CPU host whose speed flipped between two levels (about 1.6x
# apart) every few seconds, raw throughput spread up to 0.33 over ten runs,
# and a per-op median jumped with the slow share of a run (0.42 on
# quotient_checks).  Dividing out the reference time took the spread of six
# runs from 0.20 to 0.097 on cusp_fem and from 0.11 to 0.045 on
# quotient_checks.  The raw figures are printed.
END_TO_END = ("setup_s", "ops_per_ref", "rel_err", "ok_frac", "peak_rss_mb")


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; leave the package's
    own thread knob unset, as users get it."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        keep = cur.isdigit() and 0 < int(cur) <= nproc
        os.environ[var] = cur if keep else str(nproc)
    os.environ.pop("HARDY_THREADS", None)
    return nproc


def import_seconds() -> float:
    """Import time of the benchmark's modules in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import workloads; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def reference_s() -> float:
    """Wall time of a fixed kernel that uses no crithardy code.

    It mixes interpreter arithmetic, a numpy sort and sparse LU solves, the
    kinds of work the workloads do.  Timed about once a second between ops,
    its median tells how fast the shared host ran during the run.
    """
    import numpy as np
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i + 1.0)
    x = np.random.default_rng(0).random(50000)
    for _ in range(20):
        x = np.sort(x)[::-1] * 1.0000001
    n = 3000
    lu = splu(diags([-1.0, 2.1, -1.0], [-1, 0, 1], shape=(n, n),
                    format="csc"))
    for _ in range(20):
        x[:n] = lu.solve(x[:n])
    return time.perf_counter() - t0


def timed_call(wl, op, tracer=None, op_id=-1):
    """Run one op; returns (seconds, result, exception)."""
    wl.prepare(op)
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    t0 = time.perf_counter()
    try:
        result, exc = wl.run(op), None
    except Exception as err:  # a failed op is data, not a crash
        result, exc = None, err
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return seconds, result, exc


def record(wl, op, seconds, result, exc):
    params = {k: v for k, v in op.params.items()
              if isinstance(v, (int, float, str, list, dict))}
    if exc is not None:
        return summary.OpRecord(op.label, seconds, ok=False,
                                error=getattr(exc, "name", type(exc).__name__),
                                note=str(exc)[:300], params=params)
    try:
        ok, err, note = wl.check(op, result)
    except Exception as bad:  # unreadable output fails the check
        ok, err, note = False, 1.0, f"check raised {bad!r}"
    return summary.OpRecord(op.label, seconds, ok=ok, err=err, note=note,
                            params=params)


def measure(wl, seconds: float, tracer=None):
    """Whole rounds of ops until ``seconds`` of op time are measured.

    Traced: each op runs untraced and traced, alternating which goes
    first; the record keeps the untraced time.  The reference kernel is
    timed between ops, about once a second.
    """
    records, traced_s, refs = [], {}, []
    busy, r, wall0 = 0.0, 0, time.perf_counter()
    last_ref = -math.inf
    while busy < seconds and time.perf_counter() - wall0 < WALL_CAP_S:
        for op in wl.round_ops(r):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
            i = len(records)
            if tracer is None:
                runs = {False: timed_call(wl, op)}
            else:
                order = (False, True) if i % 2 == 0 else (True, False)
                runs = {t: timed_call(wl, op, tracer if t else None, i)
                        for t in order}
                traced_s[i] = runs[True][0]
            rec = record(wl, op, *runs[False])
            records.append(rec)
            busy += rec.seconds
        r += 1
    return records, traced_s, refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "crithardy" / "__init__.py").is_file():
        print(f"perfbench: no crithardy sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    first_import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench_out" / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
    t0 = time.perf_counter()
    wl.setup()
    setup_work_s = time.perf_counter() - t0

    tracer = tracing.Tracer() if args.trace else None
    records, traced_s, refs = measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = wl.probes()
    imports = [first_import_s] + [import_seconds()
                                  for _ in range(IMPORT_SAMPLES - 1)]
    setup_s = statistics.median(imports) + setup_work_s

    e2e = summary.end_to_end(records, statistics.median(refs))
    e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    env = {"nproc": nproc, "seed": args.seed, "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace,
           "hardy_threads": os.environ.get("HARDY_THREADS", "unset"),
           **versions()}
    report = {"env": env, "end_to_end": e2e,
              "setup": {"import_s": imports, "work_s": setup_work_s},
              "probes": probes,
              "ops": [vars(rec) for rec in records]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']!r} threads={os.environ[BLAS_VARS[0]]}")
    if args.trace:
        metrics = tracing.layer_metrics(tracer, traced_s)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_s.values())
            / statistics.median(rec.seconds for rec in records))
        report["per_layer"] = metrics
        tracer.dump(outdir / f"trace-seed{args.seed}.json")
        for name, value in metrics.items():
            print(f"  {name:34s} {value:.6g}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        for name in ("setup_s", "op_s_p50", "op_s_p90", "ops_per_s",
                     "ref_s", "ops_per_ref", "rel_err", "fail_frac",
                     "peak_rss_mb"):
            if name in e2e:
                print(f"  {name:12s} {e2e[name]:.6g} {UNITS[name]}")
        units = UNITS
    failed = [rec for rec in records if not rec.ok]
    print(f"  ops {len(records)} failed {len(failed)}")
    for rec in failed:
        print(f"  failed {rec.label}: {rec.error or 'wrong answer'} {rec.note}")
    for probe in probes:
        print(f"  known-failure probe {probe['label']} {probe['params']}: "
              f"{probe['outcome']} {probe.get('error', '')}")
    with open(outdir / f"report-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    # a delivered answer that fails its oracle is wrong; a raised error is a
    # failure the program reported
    correct = not any(not rec.ok and not rec.error for rec in records)
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
