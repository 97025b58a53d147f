"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import math
import random

import numpy as np
import pytest

import run
import summary
import tracing
import workloads
from summary import OpRecord


def _tracer(names, spans):
    tr = tracing.Tracer()
    for name in names:
        tr._name_id(name)
    tr.spans = [list(s) for s in spans]
    return tr


# -- self time ---------------------------------------------------------------

NESTED = (["cli.main", "fem2d.solve_truncated", "fem2d.splu", "domain.classify"],
          # name, start, end, parent, op, outermost
          [[0, 0.0, 10.0, -1, 0, True],
           [1, 1.0, 4.0, 0, 0, True],
           [2, 2.0, 3.0, 1, 0, True],
           [1, 5.0, 9.0, 0, 0, True],
           [3, 11.0, 12.5, -1, 0, True]])


def test_self_time_subtracts_direct_children_only():
    _, spans = NESTED
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_layer_self_times_add_up_to_the_layer_spans():
    tr = _tracer(*NESTED)
    tot = tracing.per_op_totals(tr)[0]
    assert tot["cli#self_s"] == pytest.approx(3.0)
    assert tot["fem2d#self_s"] == pytest.approx(7.0)
    assert tot["domain#self_s"] == pytest.approx(1.5)
    assert tot["#layer_s"] == pytest.approx(11.5)
    assert tot["fem2d.solve_truncated#calls"] == 2
    assert tot["fem2d.solve_truncated#s"] == pytest.approx(7.0)
    metrics = tracing.layer_metrics(tr, {0: 12.5})
    assert metrics["bench.outside_share"] == pytest.approx(1.0 / 12.5)
    assert metrics["fem2d.levels"] == 2
    assert metrics["fem2d.factor_calls"] == 1


def test_nested_calls_of_one_name_count_time_once():
    names = ["oned.solve_angular"]
    spans = [[0, 0.0, 4.0, -1, 0, True], [0, 1.0, 2.0, 0, 0, False]]
    tot = tracing.per_op_totals(_tracer(names, spans))[0]
    assert tot["oned.solve_angular#s"] == pytest.approx(4.0)
    assert tot["oned.solve_angular#calls"] == 2


# -- failure rules -----------------------------------------------------------

def test_failed_op_is_unbounded_and_worst_error():
    bad = OpRecord("x", 0.01, ok=False, error="ConstructionError")
    assert bad.latency == math.inf and bad.scored_err == 1.0
    good = OpRecord("x", 2.0, ok=True, err=5.0)
    assert good.scored_err == 1.0          # capped at the failure value
    tiny = OpRecord("x", 2.0, ok=True, err=0.0)
    assert tiny.scored_err == summary.ERR_FLOOR
    e2e = summary.end_to_end([bad, bad, good], 0.5)
    assert e2e["op_s_p50"] == summary.UNBOUNDED_S
    assert e2e["rel_err"] == 1.0
    assert e2e["ok_frac"] == pytest.approx(1 / 3)


def test_fixing_a_failure_never_raises_latency_or_error():
    rng = random.Random(7)
    for _ in range(500):
        recs = [OpRecord("x", rng.uniform(0.1, 5.0), ok=rng.random() < 0.6,
                         err=10 ** rng.uniform(-14, 1))
                for _ in range(rng.randint(1, 12))]
        failed = [i for i, r in enumerate(recs) if not r.ok]
        if not failed:
            continue
        before = summary.end_to_end(recs, 0.5)
        i = rng.choice(failed)
        recs[i] = OpRecord("x", rng.uniform(0.0, 100.0), ok=True,
                           err=10 ** rng.uniform(-14, 2))
        after = summary.end_to_end(recs, 0.5)
        assert after["op_s_p50"] <= before["op_s_p50"]
        assert after["rel_err"] <= before["rel_err"]
        assert after["ok_frac"] > before["ok_frac"]


def test_p90_only_with_ten_samples_beyond_it():
    recs = [OpRecord("x", float(i), ok=True, err=0.1) for i in range(99)]
    assert "op_s_p90" not in summary.end_to_end(recs, 0.5)
    recs.append(OpRecord("x", 99.0, ok=True, err=0.1))
    assert summary.end_to_end(recs, 0.5)["op_s_p90"] == 89.0


# -- inputs ------------------------------------------------------------------

def _key(op):
    out = [op.label]
    for name, val in sorted(op.params.items()):
        if isinstance(val, np.ndarray):
            out.append((name, val.tobytes()))
        elif hasattr(val, "to_json"):
            out.append((name, repr(val.to_json())))
        else:
            out.append((name, repr(val)))
    return out


@pytest.mark.parametrize("cls", [workloads.CuspCertify, workloads.BallFem,
                                 workloads.QuotientChecks])
def test_same_seed_gives_identical_inputs(cls, tmp_path):
    def draw(seed):
        wl = cls(seed, tmp_path)
        return [_key(op) for r in range(3) for op in wl.round_ops(r)]

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_same_seed_gives_identical_cusp_angles(tmp_path):
    a = workloads.CuspFem(5, tmp_path).draw_angles()
    assert a == workloads.CuspFem(5, tmp_path).draw_angles()
    assert a != workloads.CuspFem(6, tmp_path).draw_angles()
    lo, hi = workloads.CuspFem.A_RANGE
    assert all(lo <= x < hi for x in a) and len(a) == workloads.CuspFem.STRATA


def test_rounds_hold_one_input_per_stratum(tmp_path):
    wl = workloads.BallFem(3, tmp_path)
    for r in range(5):
        radii = sorted(op.params["R"] for op in wl.round_ops(r))
        lo, hi = wl.R_RANGE
        width = (hi - lo) / wl.STRATA
        assert [int((R - lo) // width) for R in radii] == list(range(wl.STRATA))
        assert np.diff(radii) == pytest.approx([width] * (wl.STRATA - 1))


# -- tracing -----------------------------------------------------------------

def _snapshot():
    from crithardy.domain import DomainSpec
    from crithardy.quotient import PolarGridFunction
    owners = tracing.package_modules() + [DomainSpec, PolarGridFunction]
    return [(o, dict(vars(o))) for o in owners]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    wl = workloads.QuotientChecks(2, tmp_path)
    op = next(op for op in wl.round_ops(0) if op.label == "half_disk")
    before = _snapshot()
    tracer = tracing.Tracer()
    seconds, result, exc = run.timed_call(wl, op, tracer, op_id=0)
    assert exc is None and not tracer.installed
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        assert all(now[k] is v for k, v in attrs.items()), owner
    names = [tracer.names[s[0]] for s in tracer.spans]
    # calls between modules are seen as their callers make them
    assert "quotient.quotient_polar" in names
    assert "domain.DomainSpec.profile_arcs" in names
    report = tracer.names.index("rearrange.rearrangement_report")
    inner = [tracer.names[s[0]] for s in tracer.spans
             if s[3] >= 0 and tracer.spans[s[3]][0] == report]
    assert "quotient.quotient_polar" in inner
    ok, err, _ = wl.check(op, result)
    assert ok and err <= 1e-12


def test_wrappers_are_removed_when_the_op_raises(tmp_path):
    class Boom(workloads.Workload):
        def run(self, op):
            workloads.domain.DomainSpec.ball(1.0).profile_arcs(2.0)

    before = _snapshot()
    tracer = tracing.Tracer()
    _, _, exc = run.timed_call(Boom(0, tmp_path), workloads.Op("boom"),
                               tracer, op_id=0)
    assert exc is not None and not tracer.installed
    assert tracer.names[tracer.spans[0][0]] == "domain.DomainSpec.profile_arcs"
    for owner, attrs in before:
        assert all(vars(owner)[k] is v for k, v in attrs.items())


def test_main_refuses_to_run_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ball_fem", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
