"""End-to-end metrics of one run, with the failure rules built in.

A failed op (it raised, or its answer failed the oracle check) counts as
unbounded latency and as error 1.0, the largest error an op can report.  So
fixing a failure can only lower ``op_s_p50`` and ``rel_err``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# Errors below this are roundoff for every check here; they are reported at
# this value so the median does not measure floating-point noise.
ERR_FLOOR = 1e-12
# JSON has no infinity; an unbounded latency is printed as this many seconds
UNBOUNDED_S = 1e9


@dataclass
class OpRecord:
    label: str
    seconds: float
    ok: bool
    err: float = 1.0
    error: str = ""          # exception type when the op raised
    note: str = ""
    params: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.seconds if self.ok else math.inf

    @property
    def scored_err(self) -> float:
        return min(max(self.err, ERR_FLOOR), 1.0) if self.ok else 1.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; infinities sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def finite(value: float) -> float:
    return value if math.isfinite(value) else UNBOUNDED_S


def end_to_end(records: list[OpRecord], ref_s: float) -> dict:
    """Latency, throughput, error and failure figures over the timed ops.

    ``ref_s`` is the median time of the reference kernel over the run;
    ``ops_per_ref`` is the throughput counted in reference-kernel times.
    """
    lat = [r.latency for r in records]
    good = sum(r.ok for r in records)
    busy = sum(r.seconds for r in records)
    out = {
        "op_s_p50": finite(statistics.median(lat)),
        "ops_per_s": good / busy,
        "ops_per_ref": good / busy * ref_s,
        "ref_s": ref_s,
        "rel_err": statistics.median(r.scored_err for r in records),
        "ok_frac": good / len(records),
        "fail_frac": 1.0 - good / len(records),
        "ops": len(records),
    }
    # the highest percentile with at least ten samples beyond it
    if len(records) >= 100:
        out["op_s_p90"] = finite(percentile(lat, 0.9))
    return out
