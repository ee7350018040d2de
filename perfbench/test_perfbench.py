"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import walkvis  # noqa: E402
import walkvis.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

THREADS = len(os.sched_getaffinity(0))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, threads=THREADS):
    return wl.make_pass(workload, wl.DEFAULT_SEED, 0, threads, walkvis, tiny=True)


def _failed(workload, p):
    wl.check_pass(walkvis, workload, wl.DEFAULT_SEED, p, THREADS)
    wl.check_digests(p, json.loads((HERE / "digests.json").read_text())[workload])
    return [op for op in p.ops if op.failed]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for tiny in (False, True):
        first = wl.make_pass(workload, 7, 0, THREADS, walkvis, tiny=tiny)
        assert first == wl.make_pass(workload, 7, 0, THREADS, walkvis, tiny=tiny)
        assert first != wl.make_pass(workload, 8, 0, THREADS, walkvis, tiny=tiny)


def test_benchmark_json_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


@pytest.mark.parametrize("threads", (1, 3))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_canary_passes_its_checks_on_any_thread_count(workload, threads):
    assert _failed(workload, wl.Runner(walkvis).run_pass(_tiny(workload, threads))) == []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    runner = wl.Runner(walkvis)
    passes, m, spans = run.run_traced(walkvis, runner, workload, wl.DEFAULT_SEED, THREADS, _tiny(workload))
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    assert not [op for p in passes for op in p.ops if op.failed]
    assert spans["spans"] and all(len(row) == len(spans["columns"]) for row in spans["spans"])
    monte_carlo = workload != "density_sweep"
    assert (m["walk.draws"] > 0) == monte_carlo
    assert (m["visibility.calls"] > 0) == monte_carlo
    assert (m["visibility.ns_per_elem"] > 0) == monte_carlo
    assert (m["cli.output_bytes"] > 0) == monte_carlo
    assert m["numtheory.zeta_int.misses"] > 0
    if workload == "density_sweep":
        assert m["theory.density_walkers.calls"] > 0 and m["theory.ns_per_prime"] > 0
        assert m["numtheory.euler_product.calls"] > 0 and m["numtheory.sieve.calls"] > 0
    elif workload == "small_n":
        assert m["estimators.run_calls"] == 0  # the batched path
        assert m["estimators.trials"] > 0 and m["estimators.exact.steps"] > 0
        assert m["estimators.exact.self_s"] > 0
    else:
        assert m["estimators.run_calls"] == m["estimators.trials"] > 0
        assert m["estimators.parallel_efficiency"] > 0 and m["estimators.thread_speedup"] > 0
        assert m["estimators.ns_per_walker_step"] > 0


def test_restore_leaves_walkvis_functions_identical():
    def snapshot():
        return {(name, attr): obj for name, mod in sys.modules.items()
                if name == "walkvis" or name.startswith("walkvis.") for attr, obj in vars(mod).items()}

    before = snapshot()
    original = walkvis.visibility.visible_mask
    tracer = Tracer(walkvis)
    tracer.install()
    try:
        # one wrapper, installed in the defining module and in every importer
        assert walkvis.visibility.visible_mask is not original
        assert walkvis.estimators.visible_mask is walkvis.visibility.visible_mask
        assert walkvis.cli.aggregate_trials is walkvis.estimators.aggregate_trials
        assert walkvis.aggregate_trials is walkvis.estimators.aggregate_trials
    finally:
        tracer.restore()
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_corrupted_cli_output_is_counted(monkeypatch):
    render = walkvis.cli.render_csv

    def corrupt(rec):  # shift every digit 5 of the data rows to a 6
        head, _, body = render(rec).partition("\n")
        return head + "\n" + body.replace("5", "6")

    monkeypatch.setattr(walkvis.cli, "render_csv", corrupt)
    for workload in ("table1_watchpoints", "table2_walkers", "small_n"):
        p = wl.Runner(walkvis).run_pass(_tiny(workload))
        assert _failed(workload, p), workload


def test_corrupted_density_is_counted(monkeypatch):
    density = walkvis.theory.density_walkers

    def corrupt(b, r, tol=1e-9):
        d = density(b, r, tol)
        return type(d)(min(1.0, d.value * (1.0 + 1e-3 * r)), d.prime_cutoff, d.tail_bound)

    monkeypatch.setattr(walkvis.theory, "density_walkers", corrupt)
    p = wl.Runner(walkvis).run_pass(_tiny("density_sweep"))
    failed = _failed("density_sweep", p)
    assert failed and all("walkers" in op.req.label for op in failed)


def test_failing_request_is_counted():
    bad = wl.Request("bad", ("simulate", "walkers", "--b", "2,2", "--alphas", "0.5", "--steps", "5",
                             "--trials", "1"))
    op = wl.Runner(walkvis).run_op(bad)
    assert op.failed and op.error.startswith("exit 2")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_n", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
