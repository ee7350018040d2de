"""Span tracing of walkvis from outside the package, and the per-layer
metrics computed from the spans.

``Tracer.install`` wraps the traced functions of each layer module and puts
each wrapper into every walkvis namespace that holds the original (the
defining module's globals, the package, and every module that imported the
function by name), so calls made through any import path are recorded.
``Tracer.restore`` puts the original objects back.

Spans are kept in memory: name, layer, start and end (perf_counter ns),
parent span, thread id, request id and a few counts read from the call's
arguments and result.  A span opened by a worker thread with no open span of
its own gets the main thread's innermost open span as parent: the benchmark
has one request in flight, and walkvis starts threads only inside
``aggregate_trials``, which blocks while they run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("walk", "visibility", "estimators", "numtheory", "theory", "cli")
# Exponent pairs the workloads use; each gets a visibility.ns_per_elem.b<b1>-<b2> metric.
MASK_BS = ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5))

_DRAWS = {"walk.uniform_block", "walk.splitmix64_block", "walk.mix_u64"}
_RUNS = {"estimators.simulate_watchpoint_run", "estimators.simulate_walkers_run"}
_EXACT = {"estimators.exact_expectation_watchpoints", "estimators.exact_expectation_walkers"}
_SIEVES = {"numtheory.sieve_primes", "numtheory.build_tables"}


def _b_key(b) -> str:
    b1, b2 = (b.b1, b.b2) if hasattr(b, "b1") else b
    return f"{b1}-{b2}"


def _mask_attrs(a, result):
    nbytes = sum(getattr(a[k], "nbytes", 8) for k in ("dx", "dy")) + result.nbytes
    return {"elems": result.size, "b": _b_key(a["b"]), "bytes": nbytes}


def _aggregate_attrs(a, result):
    spec = a["spec"]
    walkers = len(getattr(spec.mode, "alphas", (None,)))
    return {"trials": spec.trials, "walker_steps": walkers * spec.steps * spec.trials,
            "threads": a.get("threads", 1)}


# counts recorded on a span, from its bound arguments and its result
_HOOKS = {
    "walk.uniform_block": lambda a, r: {"draws": r.size},
    "walk.splitmix64_block": lambda a, r: {"draws": r.size},
    "walk.mix_u64": lambda a, r: {"draws": r.size},
    "visibility.visible_mask": _mask_attrs,
    "estimators.aggregate_trials": _aggregate_attrs,
    "estimators.exact_expectation_watchpoints": lambda a, r: {"exact_steps": a["n"]},
    "estimators.exact_expectation_walkers": lambda a, r: {"exact_steps": a["n"]},
    "numtheory.sieve_primes": lambda a, r: {"entries": a["limit"] + 1, "bytes": a["limit"] + 1 + r.nbytes},
    "numtheory.build_tables": lambda a, r: {
        "entries": a["limit"] + 1, "bytes": r.spf.nbytes + r.mobius.nbytes + r.primes.nbytes},
    "numtheory.euler_product_truncated": lambda a, r: {"cutoff": r.prime_cutoff},
    "theory.density_walkers": lambda a, r: {"cutoff": r.prime_cutoff},
}


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>"
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    request: int | None
    attrs: dict

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


def _traced_functions(module):
    """Public functions (and lru caches) defined in the module.  Generator
    functions are left out: their span would end before any work is done."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield name, obj
        elif hasattr(obj, "cache_info") and callable(obj):
            yield name, obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.request_id: int | None = None
        self._ids = itertools.count()  # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _namespaces(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [m for name, m in list(sys.modules.items()) if name.startswith(prefix)]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, fn in _traced_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", fn))
        for ns in self._namespaces():
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)][1])

    def restore(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        hook = _HOOKS.get(name)
        if hook:
            params = inspect.signature(fn).parameters
            names = tuple(params)
            defaults = {k: p.default for k, p in params.items() if p.default is not inspect.Parameter.empty}
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            attrs = {}
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            if hook:
                # cheaper than Signature.bind; walkvis takes no *args or **kwargs here
                arguments = {**defaults, **dict(zip(names, args)), **kwargs}
                try:
                    attrs = hook(arguments, result)
                except (KeyError, AttributeError, TypeError):
                    attrs = {}  # a changed signature loses counts, never the call
            tracer.spans.append(
                Span(sid, name, layer, t0, t1, parent, threading.get_ident(), tracer.request_id, attrs))
            return result

        return wrapper

    def dump(self) -> dict:
        cols = ["id", "name", "start_ns", "end_ns", "parent", "thread", "request", "attrs"]
        rows = [[s.id, s.name, s.start_ns, s.end_ns, s.parent, s.thread, s.request, s.attrs]
                for s in sorted(self.spans, key=lambda s: s.id)]
        return {"columns": cols, "spans": rows}


def _self_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(kids.get(s.id, ())):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.dur_ns - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], prime_count, notes: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    ``prime_count(x)`` gives the number of primes <= x; ``notes`` carries the
    counts measured outside the spans: zeta_misses, output_bytes,
    thread_speedup and trace_overhead_frac.
    """
    by_id = {s.id: s for s in spans}
    self_ns = _self_ns(spans)

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p else None

    def inside(s, names):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in names:
                return True
            p = by_id.get(p.parent)
        return False

    def named(names):
        return [s for s in spans if s.name in names]

    def busy_s(ss):
        return sum(s.dur_ns for s in ss) / 1e9

    def attr_sum(ss, key):
        return sum(s.attrs.get(key, 0) for s in ss)

    m: dict[str, float] = {}

    draws = [s for s in named(_DRAWS) if parent_name(s) not in _DRAWS]
    m["walk.draws"] = attr_sum(draws, "draws")
    m["walk.busy_s"] = busy_s(draws)
    m["walk.ns_per_draw"] = _ratio(m["walk.busy_s"] * 1e9, m["walk.draws"])

    masks = named({"visibility.visible_mask"})
    m["visibility.calls"] = len(masks)
    m["visibility.elems"] = attr_sum(masks, "elems")
    m["visibility.elems_per_call"] = _ratio(m["visibility.elems"], len(masks))
    m["visibility.busy_s"] = busy_s(masks)
    m["visibility.ns_per_elem"] = _ratio(m["visibility.busy_s"] * 1e9, m["visibility.elems"])
    for b in MASK_BS:
        key = _b_key(b)
        mb = [s for s in masks if s.attrs.get("b") == key]
        m[f"visibility.ns_per_elem.b{key}"] = _ratio(busy_s(mb) * 1e9, attr_sum(mb, "elems"))
    m["visibility.bytes_computed"] = attr_sum(masks, "bytes")

    aggs = named({"estimators.aggregate_trials"})
    runs = named(_RUNS)
    exact = [s for s in spans if s.layer == "estimators" and (s.name in _EXACT or inside(s, _EXACT))]
    exact_ids = {s.id for s in exact}
    est = [s for s in spans if s.layer == "estimators" and s.id not in exact_ids]
    m["estimators.trials"] = attr_sum(aggs, "trials")
    m["estimators.walker_steps"] = attr_sum(aggs, "walker_steps")
    m["estimators.run_calls"] = len(runs)
    m["estimators.self_s"] = sum(self_ns[s.id] for s in est) / 1e9
    m["estimators.ns_per_walker_step"] = _ratio(m["estimators.self_s"] * 1e9, m["estimators.walker_steps"])
    trial_ns = pool_ns = 0
    for agg in aggs:
        kids = [s for s in runs if s.parent == agg.id]
        threads = agg.attrs.get("threads", 1)
        if threads > 1 and kids:
            trial_ns += sum(s.dur_ns for s in kids)
            pool_ns += threads * agg.dur_ns
    m["estimators.parallel_efficiency"] = _ratio(trial_ns, pool_ns)
    m["estimators.thread_speedup"] = notes["thread_speedup"]
    m["estimators.exact.steps"] = attr_sum(named(_EXACT), "exact_steps")
    m["estimators.exact.self_s"] = sum(self_ns[s.id] for s in exact) / 1e9

    sieves = [s for s in named(_SIEVES) if not inside(s, _SIEVES)]
    m["numtheory.sieve.calls"] = len(sieves)
    m["numtheory.sieve.entries"] = attr_sum(sieves, "entries")
    m["numtheory.sieve.busy_s"] = busy_s(sieves)
    m["numtheory.sieve.bytes_computed"] = attr_sum(sieves, "bytes")
    m["numtheory.zeta_int.misses"] = notes["zeta_misses"]
    m["numtheory.zeta_int.busy_s"] = busy_s(named({"numtheory.zeta_int"}))
    euler = named({"numtheory.euler_product_truncated"})
    m["numtheory.euler_product.calls"] = len(euler)
    m["numtheory.euler_product.busy_s"] = busy_s(euler)
    m["numtheory.euler_product.primes"] = sum(prime_count(s.attrs.get("cutoff", 0)) for s in euler)

    walkers = named({"theory.density_walkers"})
    m["theory.density_walkers.calls"] = len(walkers)
    m["theory.density_walkers.busy_s"] = busy_s(walkers)
    m["theory.density_walkers.primes"] = sum(prime_count(s.attrs.get("cutoff", 0)) for s in walkers)
    m["theory.ns_per_prime"] = _ratio(sum(self_ns[s.id] for s in walkers), m["theory.density_walkers.primes"])
    m["theory.density_watchpoints.busy_s"] = busy_s(named({"theory.density_watchpoints"}))

    m["cli.self_s"] = sum(self_ns[s.id] for s in spans if s.layer == "cli") / 1e9
    m["cli.output_bytes"] = notes["output_bytes"]
    m["trace_overhead_frac"] = notes["trace_overhead_frac"]
    return m
