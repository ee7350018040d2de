"""walkvis benchmark: one single-process, closed-loop client (one request in
flight) running a seeded workload against walkvis's public entry points.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 repeats passes of the workload's requests for S seconds and reports
the end-to-end metrics.  --trace 1 runs one pass untraced, one pass with
every layer wrapped in spans, and (for Monte Carlo requests) one pass at
--threads 1, and reports the per-layer metrics.  Either way the outputs are
checked outside the timed region, every line before the last is for people,
and the last line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def _probe_setup(workload: str, seed: int, threads: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(threads)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _provenance(args, threads: int, wv) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)), "threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "walkvis": wv.__version__, "git_commit": _git_commit(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def _percentiles(samples_ms: list[float]) -> dict:
    """p50 and p90 with the sample count, and how many samples lie beyond p90."""
    p90 = statistics.quantiles(samples_ms, n=10)[8]
    return {"p50": statistics.median(samples_ms), "p90": p90, "samples": len(samples_ms),
            "beyond_p90": sum(x > p90 for x in samples_ms)}


def _rate(ops, key: str):
    work = sum(getattr(op.req, key) for op in ops)
    wall = sum(op.wall_ns for op in ops if getattr(op.req, key))
    return work / wall * 1e9 if wall else None


def run_untraced(wv, runner, workload: str, seed: int, threads: int, seconds: float):
    """Passes of the workload for ``seconds``; returns (passes, e2e, details)."""
    passes = []
    t_start = time.perf_counter()
    while True:
        reqs = wl.make_pass(workload, seed, len(passes), threads, wv)
        latest = runner.run_pass(reqs)
        if passes and workload != "density_sweep":
            # a repeat of the first pass: compare it now and drop its outputs,
            # so that kept CSV text does not grow peak_rss_mb with the pass count
            wl.check_pass(wv, workload, seed, latest, threads, reference=passes[0])
            for op in latest.ops:
                op.output = None
        passes.append(latest)
        elapsed = time.perf_counter() - t_start
        # at least two passes; after that, start one only if a typical pass still fits
        if len(passes) >= 2 and elapsed + statistics.median([p.wall_ns for p in passes]) / 1e9 > seconds:
            break
    wl.check_pass(wv, workload, seed, passes[0], threads)
    if workload == "density_sweep":  # fresh draws every pass
        for p in passes[1:]:
            wl.check_pass(wv, workload, seed, p, threads)
    # The mean, not the median: the host slows for seconds at a time, and the
    # mean over the window averages those phases out best (see README).
    e2e = {"wall_s": statistics.fmean([p.wall_ns for p in passes]) / 1e9}
    details = {"passes": len(passes), "pass_walls_s": [p.wall_ns / 1e9 for p in passes]}
    ops = [op for p in passes for op in p.ops]
    for key, name in (("walker_steps", "walker_steps_per_s"), ("exact_steps", "exact_steps_per_s")):
        rate = _rate(ops, key)
        if rate is not None:
            details[name] = rate
    if workload == "density_sweep":
        pct = _percentiles([op.wall_ns / 1e6 for op in ops])
        details.update({"density_ms_p50": pct["p50"], "density_ms_p90": pct["p90"],
                        "density_samples": pct["samples"], "density_beyond_p90": pct["beyond_p90"]})
    return passes, e2e, details


def run_traced(wv, runner, workload: str, seed: int, threads: int, reqs):
    """Untraced, traced and single-thread passes of ``reqs``; returns
    (passes, per-layer metrics, spans)."""
    plain = runner.run_pass(reqs)
    tracer = Tracer(wv)
    runner.tracer, runner.zeta_misses, runner.output_bytes = tracer, 0, 0
    tracer.install()
    try:
        traced = runner.run_pass(reqs)
    finally:
        tracer.restore()
        runner.tracer = None
    notes = {"zeta_misses": runner.zeta_misses, "output_bytes": runner.output_bytes,
             "trace_overhead_frac": traced.wall_ns / plain.wall_ns - 1.0, "thread_speedup": 0.0}
    passes = [plain, traced]
    wl.check_pass(wv, workload, seed, plain, threads)
    wl.check_pass(wv, workload, seed, traced, threads, reference=plain)
    mc = [op for op in plain.ops if op.req.monte_carlo]
    if mc:
        single = runner.run_pass([wl.single_thread(op.req) for op in mc])
        wl.check_pass(wv, workload, seed, single, threads, reference=wl.Pass(mc, 0))
        passes.append(single)
        notes["thread_speedup"] = sum(op.wall_ns for op in single.ops) / sum(op.wall_ns for op in mc)
    cutoffs = [s.attrs["cutoff"] for s in tracer.spans if "cutoff" in s.attrs]
    primes = wv.numtheory.sieve_primes(max(cutoffs, default=2))
    metrics = layer_metrics(tracer.spans, lambda x: int(primes.searchsorted(x, side="right")), notes)
    return passes, metrics, tracer.dump()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # density_sweep and small_n run too, though BENCHMARK.json leaves them out (see README)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "walkvis" / "__init__.py").is_file():
        print(f"perfbench: no walkvis sources under {SRC}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    setup = [] if args.trace else _probe_setup(args.workload, args.seed, threads)

    sys.path.insert(0, str(SRC))
    import walkvis
    import walkvis.cli  # noqa: F401

    if not Path(walkvis.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported walkvis from {walkvis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    prov = _provenance(args, threads, walkvis)
    runner = wl.Runner(walkvis)

    # Canary: the workload's requests at the default seed and tiny sizes,
    # compared with stored digests; it also warms the code paths before timing.
    digests = json.loads((HERE / "digests.json").read_text())[args.workload]
    canary = runner.run_pass(wl.make_pass(args.workload, wl.DEFAULT_SEED, 0, threads, walkvis, tiny=True))
    wl.check_pass(walkvis, args.workload, wl.DEFAULT_SEED, canary, threads)
    wl.check_digests(canary, digests)

    if args.trace:
        reqs = wl.make_pass(args.workload, args.seed, 0, threads, walkvis)
        passes, metrics, spans = run_traced(walkvis, runner, args.workload, args.seed, threads, reqs)
        details = {}
        declared = spec["per_layer"]
    else:
        passes, metrics, details = run_untraced(walkvis, runner, args.workload, args.seed, threads, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        details["setup_samples"] = setup
        declared = spec["end_to_end"]
        spans = None
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json")

    ops = canary.ops + [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.failed]
    for op in failed[:10]:
        print(f"FAILED {op.req.label}: {op.error}", file=sys.stderr)
    details["failed_frac"] = len(failed) / len(ops)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "metrics": metrics, "details": details,
              "failures": [f"{op.req.label}: {op.error}" for op in failed]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print("provenance " + json.dumps(prov))
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]} {units[name]}")
    for name, value in details.items():
        print(f"{name} = {value}")
    result = {
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
