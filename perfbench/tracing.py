"""Layer spans recorded from outside the package, and the per-layer split.

`Tracer.install` replaces the public callables of each crithardy module with
thin wrappers, in every module namespace that binds them, so calls are seen
as their callers see them.  Each call records a span ``(name, start, end,
parent, op)`` in memory.  `Tracer.uninstall` puts every original attribute
back, so untraced runs measure unmodified code.  The package runs its
schedule sequentially when ``HARDY_THREADS`` is unset, so one span stack
serves the whole process.

A layer is a module.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "domain", "oned", "weight", "fem2d", "quotient",
          "rearrange", "testfn")

# class methods traced next to the module-level functions
METHODS = (("domain", "DomainSpec", "profile_arcs"),
           ("domain", "DomainSpec", "from_json"),
           ("domain", "DomainSpec", "calibrated_cusp"),
           ("quotient", "PolarGridFunction", "__post_init__"))

# callables from other packages, traced as the given module calls them
FOREIGN = (("fem2d", "splu"),)


def _fill(lu) -> dict:
    return {"fill": lu.L.nnz + lu.U.nnz}


def _eigen_iters(res) -> dict:
    return {"iters": res.iterations, "iters_max": res.iterations}


def _eigen_iters_failed(exc) -> dict:
    it = getattr(exc, "diagnostics", {}).get("iterations", 0)
    return {"iters": it, "iters_max": it}


def _dofs(mesh) -> dict:
    return {"dofs": int((~mesh.boundary).sum())}


# counters read off a traced call's result (and off its exception)
PROBES = {
    "fem2d.splu": (_fill, None),
    "fem2d.smallest_eigen": (_eigen_iters, _eigen_iters_failed),
    "fem2d.mesh_truncated": (_dofs, None),
}


def _is_lru(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and \
        hasattr(obj, "__wrapped__")


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "crithardy" or name.startswith("crithardy."))
            and m is not None]


def package_caches() -> list:
    """Every functools cache reachable as a package module attribute."""
    seen, out = set(), []
    for mod in package_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and id(obj) not in seen:
                seen.add(id(obj))
                out.append(obj)
    return out


def clear_package_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def _targets():
    """(span name, owner, attribute, original) for everything traced."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"crithardy.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if (inspect.isfunction(obj) or _is_lru(obj)) and \
                    getattr(obj, "__module__", None) == mod.__name__:
                out.append((f"{layer}.{name}", mod, name, obj))
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"crithardy.{layer}"), cls_name)
        out.append((f"{layer}.{cls_name}.{meth}", cls, meth,
                    cls.__dict__[meth]))
    for layer, name in FOREIGN:
        mod = importlib.import_module(f"crithardy.{layer}")
        out.append((f"{layer}.{name}", mod, name, getattr(mod, name)))
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # per span: [name id, start, end, parent index, op id, outermost]
        self.spans: list[list] = []
        self.counters: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs, cache=None, probe=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [nid, 0.0, 0.0, parent, self.op, self._active[nid] == 0]
        self.spans.append(span)
        self._stack.append(idx)
        self._active[nid] += 1
        misses = cache.cache_info().misses if cache is not None else 0
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            self._leave(nid)
            if probe is not None and probe[1] is not None:
                self._add(nid, probe[1](exc))
            raise
        span[2] = time.perf_counter()
        self._leave(nid)
        if cache is not None:
            miss = cache.cache_info().misses != misses
            self._add(nid, {"hits": float(not miss), "misses": float(miss)})
        if probe is not None:
            self._add(nid, probe[0](out))
        return out

    def _leave(self, nid: int) -> None:
        self._stack.pop()
        self._active[nid] -= 1

    def _add(self, nid: int, values: dict) -> None:
        name = self.names[nid]
        for key, val in values.items():
            full = f"{name}#{key}"
            if key.endswith("_max"):
                cur = self.counters[self.op][full]
                self.counters[self.op][full] = max(cur, val)
            else:
                self.counters[self.op][full] += val

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        cache = fn if _is_lru(fn) else None
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs, cache, probe)

        return traced

    def install(self) -> None:
        """Wrap every target, wherever a package module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for name, owner, attr, orig in _targets():
            if isinstance(orig, classmethod):
                wrapped = classmethod(self._wrap(name, orig.__func__))
                self._patch(owner, attr, orig, wrapped)
                continue
            wrapped = self._wrap(name, orig)
            if inspect.isclass(owner):
                self._patch(owner, attr, orig, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, new) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def dump(self, path) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "op"],
               "names": self.names,
               "spans": [s[:5] for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def per_op_totals(tracer: Tracer) -> dict[int, dict]:
    """Per op: inclusive time and calls per name, self time per layer."""
    selfs = self_times(tracer.spans)
    totals: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, selfs):
        name = tracer.names[span[0]]
        tot = totals[span[4]]
        tot[f"{name}#calls"] += 1
        tot[f"{name}#self_s"] += own
        if span[5]:
            tot[f"{name}#s"] += span[2] - span[1]
        layer = name.split(".", 1)[0]
        tot[f"{layer}#self_s"] += own
        tot[f"{layer}#calls"] += 1
        if span[3] < 0:
            tot["#layer_s"] += span[2] - span[1]
        tot["#spans"] += 1
    for op, ctr in tracer.counters.items():
        for key, val in ctr.items():
            totals[op][key] = val
    return totals


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, op_seconds: dict[int, float]) -> dict:
    """Per-layer metrics over the traced ops: per-op means unless noted."""
    totals = per_op_totals(tracer)
    ops = sorted(op_seconds)
    rows = [totals.get(op, {}) for op in ops]

    def mean_of(key):
        return _mean(r.get(key, 0.0) for r in rows)

    def total_of(key):
        return sum(r.get(key, 0.0) for r in rows)

    def ratio(num, den):
        return num / den if den else 0.0

    ang_hits = total_of("oned.angular_eigenvalue#hits")
    ang_calls = ang_hits + total_of("oned.angular_eigenvalue#misses")
    op_total = sum(op_seconds.values())
    out = {
        "domain.profile_build_s": mean_of("domain.build_cusp_profile#s"),
        "domain.profile_builds": mean_of("domain.build_cusp_profile#misses"),
        "domain.profile_arcs_calls":
            mean_of("domain.DomainSpec.profile_arcs#calls"),
        "domain.classify_s": mean_of("domain.classify#s"),
        "oned.inversions": mean_of("oned.invert_angular_eigenvalue#calls"),
        "oned.angular_solves": mean_of("oned.solve_angular#calls"),
        "oned.angular_cache_hit_ratio": ratio(ang_hits, ang_calls),
        "weight.ratio_inf_calls": mean_of("weight.cusp_ratio_infimum#calls"),
        "weight.flat_radius_s": mean_of("weight.cusp_flat_radius#s"),
        "fem2d.levels": mean_of("fem2d.solve_truncated#calls"),
        "fem2d.mesh_s": mean_of("fem2d.mesh_truncated#s"),
        "fem2d.assemble_s": mean_of("fem2d.assemble#s"),
        "fem2d.dofs": mean_of("fem2d.mesh_truncated#dofs"),
        "fem2d.eigen_s": mean_of("fem2d.smallest_eigen#s"),
        "fem2d.eigen_iters": mean_of("fem2d.smallest_eigen#iters"),
        "fem2d.eigen_iters_max": max(
            [r.get("fem2d.smallest_eigen#iters_max", 0.0) for r in rows],
            default=0.0),
        "fem2d.factor_calls": mean_of("fem2d.splu#calls"),
        "fem2d.factor_s": mean_of("fem2d.splu#s"),
        "fem2d.factor_fill": mean_of("fem2d.splu#fill"),
        "quotient.grid_build_s":
            mean_of("quotient.PolarGridFunction.__post_init__#s"),
        "quotient.polar_calls": mean_of("quotient.quotient_polar#calls"),
        "rearrange.calls": mean_of("rearrange#calls"),
        "testfn.calls": mean_of("testfn#calls"),
        "fem2d.extrap_self_s": mean_of("fem2d.extrapolate_constant#self_s"),
        "trace.spans": mean_of("#spans"),
        "bench.outside_share": ratio(op_total - total_of("#layer_s"),
                                     op_total),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = mean_of(f"{layer}#self_s")
    return out

