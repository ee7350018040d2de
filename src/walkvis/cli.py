"""Command-line surface: densities, seeded simulations, identity verification,
and the built-in reference tables, emitted as CSV (data only, byte-stable)
or JSON (full record including timing).

Exit codes: 0 success, 2 argument/domain error, 3 invalid watchpoint set,
4 budget or capacity exceeded, 5 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .estimators import (
    SimulationSpec,
    WalkersMode,
    WatchpointsMode,
    aggregate_trials,
    exact_expectation_walkers,
    exact_expectation_watchpoints,
)
from .numtheory import BExponent, CapacityError, as_bexp
from .theory import density_walkers, density_watchpoints
from .verify import (
    check_congruence_sum,
    check_gcd_properties,
    check_mean_value,
    check_visibility_oracle,
)
from .visibility import WatchpointValidationError, validate_watchpoint_set
from .walk import MASK64, WalkerConfig, derive_trial_seed

SCHEMA_VERSION = 1
DEFAULT_TOL = 1e-9
DEFAULT_BUDGET = 4_000_000_000  # walker-steps: r * steps * trials

TABLE1_BS = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5)]
TABLE1_WATCHPOINTS = ((0, 0), (1, 2), (2, 1))
TABLE2_ROWS = [2, 3, 4, 5, 6, 10, 20, 30, 40, 50, 60, 100, 200, 500, 1000]


class BudgetExceededError(Exception):
    pass


@dataclass
class OutputRecord:
    command: str
    parameters: dict
    columns: list[str]
    rows: list[list]
    seed: int | None = None
    timing: float = 0.0
    schema_version: int = field(default=SCHEMA_VERSION)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def render_csv(rec: OutputRecord) -> str:
    lines = [",".join(rec.columns)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rec.rows)
    return "\n".join(lines) + "\n"


def render_json(rec: OutputRecord) -> str:
    payload = {
        "schema_version": rec.schema_version,
        "command": rec.command,
        "parameters": rec.parameters,
        "seed": rec.seed,
        "columns": rec.columns,
        "rows": rec.rows,
        "timing_seconds": rec.timing,
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(rec: OutputRecord, fmt: str) -> None:
    sys.stdout.write(render_csv(rec) if fmt == "csv" else render_json(rec))


def _parse_b(text: str) -> BExponent:
    try:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError("expected two comma-separated integers")
        return as_bexp((int(parts[0]), int(parts[1])))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad --b {text!r}: {e}") from None


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0) & MASK64  # decimal or 0x-hex
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None


def _parse_watchpoints(text: str) -> list[tuple[int, int]]:
    try:
        pts = []
        for chunk in text.split(";"):
            xs, ys = chunk.split(",")
            pts.append((int(xs), int(ys)))
        return pts
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --watchpoints {text!r}; expected 'x1,y1;x2,y2;...'") from None


def _parse_alphas(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --alphas {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _check_budget(total_steps: int, budget: int) -> None:
    if total_steps > budget:
        raise BudgetExceededError(
            f"requested {total_steps} walker-steps exceed the budget of {budget}; raise --budget to proceed"
        )


def _aggregate_rows(agg) -> list[list]:
    rows = [
        ["trial", t.trial_index, t.visible_count, t.proportion, None, None, None]
        for t in agg.trial_results
    ]
    rows.append(
        ["aggregate", None, None, agg.mean_proportion, agg.sample_std, agg.theory.value, agg.abs_deviation]
    )
    return rows


_AGG_COLUMNS = ["record", "trial", "visible_count", "proportion", "sample_std", "theory_value", "abs_deviation"]


def cmd_density(args) -> int:
    t0 = time.perf_counter()
    if args.mode == "watchpoints":
        res = density_watchpoints(args.b, args.J, args.tol)
        params = {"b": [args.b.b1, args.b.b2], "J": args.J, "tol": args.tol}
    else:
        res = density_walkers(args.b, args.r, args.tol)
        params = {"b": [args.b.b1, args.b.b2], "r": args.r, "tol": args.tol}
    rec = OutputRecord(
        command=f"density {args.mode}",
        parameters=params,
        columns=["value", "prime_cutoff", "tail_bound"],
        rows=[[res.value, res.prime_cutoff, res.tail_bound]],
        timing=time.perf_counter() - t0,
    )
    _emit(rec, args.format)
    return 0


def _make_spec(args) -> tuple[SimulationSpec, object]:
    if args.mode == "watchpoints":
        wset = validate_watchpoint_set(args.b, args.watchpoints)
        mode = WatchpointsMode(wset, WalkerConfig(args.alpha))
        theory = density_watchpoints(args.b, wset.size, args.tol)
        _check_budget(args.steps * args.trials, args.budget)
    else:
        alphas = tuple(WalkerConfig(a) for a in args.alphas)
        mode = WalkersMode(alphas)
        theory = density_walkers(args.b, len(alphas), args.tol)
        _check_budget(len(alphas) * args.steps * args.trials, args.budget)
    return SimulationSpec(args.b, mode, args.steps, args.trials, args.seed), theory


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    spec, theory = _make_spec(args)
    agg = aggregate_trials(spec, theory, threads=args.threads)
    params = {
        "b": [args.b.b1, args.b.b2],
        "steps": args.steps,
        "trials": args.trials,
    }
    if args.mode == "watchpoints":
        params["watchpoints"] = [list(p) for p in args.watchpoints]
        params["alpha"] = args.alpha
    else:
        params["alphas"] = list(args.alphas)
    rec = OutputRecord(
        command=f"simulate {args.mode}",
        parameters=params,
        columns=_AGG_COLUMNS,
        rows=_aggregate_rows(agg),
        seed=args.seed,
        timing=time.perf_counter() - t0,
    )
    _emit(rec, args.format)
    return 0


def cmd_exact(args) -> int:
    t0 = time.perf_counter()
    if args.mode == "watchpoints":
        wset = validate_watchpoint_set(args.b, args.watchpoints)
        value = exact_expectation_watchpoints(args.b, wset, args.alpha, args.steps)
        params = {
            "b": [args.b.b1, args.b.b2],
            "watchpoints": [list(p) for p in args.watchpoints],
            "alpha": args.alpha,
            "steps": args.steps,
        }
    else:
        value = exact_expectation_walkers(args.b, args.alphas, args.steps)
        params = {"b": [args.b.b1, args.b.b2], "alphas": list(args.alphas), "steps": args.steps}
    rec = OutputRecord(
        command=f"exact {args.mode}",
        parameters=params,
        columns=["steps", "expectation"],
        rows=[[args.steps, value]],
        timing=time.perf_counter() - t0,
    )
    _emit(rec, args.format)
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.check == "gcd-properties":
        results = check_gcd_properties(samples=args.samples)
        params = {"samples": args.samples}
    elif args.check == "visibility-oracle":
        results = check_visibility_oracle(args.b, args.box)
        params = {"b": [args.b.b1, args.b.b2], "box": args.box}
    elif args.check == "congruence-sum":
        results = check_congruence_sum(args.alpha, args.n, args.d, args.threshold)
        params = {"alpha": args.alpha, "n": args.n, "d": args.d, "threshold": args.threshold}
    else:  # mean-value
        if args.kind == "walker-moment" and args.r is None:
            raise ValueError("--kind walker-moment needs --r")
        if args.kind == "watchpoints-shifted" and not args.shifts:
            raise ValueError("--kind watchpoints-shifted needs --shifts")
        if args.J is not None and args.shifts is not None and args.J != len(args.shifts):
            raise ValueError(f"--J {args.J} disagrees with {len(args.shifts)} shifts")
        results = check_mean_value(args.kind, args.b, args.x, r=args.r, shifts=args.shifts)
        params = {
            "kind": args.kind,
            "b": [args.b.b1, args.b.b2],
            "x": args.x,
            "r": args.r,
            "shifts": args.shifts,
        }
    rec = OutputRecord(
        command=f"verify {args.check}",
        parameters=params,
        columns=["check", "status", "measured"],
        rows=[[r.name, "PASS" if r.passed else "FAIL", r.measured] for r in results],
        timing=time.perf_counter() - t0,
    )
    _emit(rec, args.format)
    return 0 if all(r.passed for r in results) else 5


def cmd_table1(args) -> int:
    """The eight-row watchpoint table: simulated means at alpha 0.5 and 0.3
    against the limiting density for W = {(0,0), (1,2), (2,1)}."""
    t0 = time.perf_counter()
    _check_budget(len(TABLE1_BS) * 2 * args.steps * args.trials, args.budget)
    rows = []
    for idx, bpair in enumerate(TABLE1_BS):
        b = as_bexp(bpair)
        wset = validate_watchpoint_set(b, TABLE1_WATCHPOINTS)
        theory = density_watchpoints(b, wset.size, args.tol)
        means = []
        for a_idx, alpha in enumerate((0.5, 0.3)):
            sub_seed = derive_trial_seed(args.seed, idx * 2 + a_idx, 0, 1)
            spec = SimulationSpec(b, WatchpointsMode(wset, WalkerConfig(alpha)), args.steps, args.trials, sub_seed)
            means.append(aggregate_trials(spec, theory, threads=args.threads).mean_proportion)
        rows.append(
            [b.b1, b.b2, means[0], means[1], theory.value,
             abs(means[0] - theory.value), abs(means[1] - theory.value)]
        )
    rec = OutputRecord(
        command="table1",
        parameters={"steps": args.steps, "trials": args.trials},
        columns=["b1", "b2", "numerical_alpha_0.5", "numerical_alpha_0.3", "theoretical",
                 "abs_dev_alpha_0.5", "abs_dev_alpha_0.3"],
        rows=rows,
        seed=args.seed,
        timing=time.perf_counter() - t0,
    )
    _emit(rec, args.format)
    return 0


def cmd_table2(args) -> int:
    """The multi-walker table: simulated means (all walkers at alpha 0.5)
    against the limiting density, one row per walker count."""
    t0 = time.perf_counter()
    b = args.b
    counts = args.rows
    _check_budget(sum(counts) * args.steps * args.trials, args.budget)
    rows = []
    for idx, r in enumerate(counts):
        theory = density_walkers(b, r, args.tol)
        sub_seed = derive_trial_seed(args.seed, idx, 0, 1)
        spec = SimulationSpec(b, WalkersMode(tuple(WalkerConfig(0.5) for _ in range(r))), args.steps, args.trials, sub_seed)
        agg = aggregate_trials(spec, theory, threads=args.threads)
        rows.append([r, agg.mean_proportion, theory.value, agg.abs_deviation])
    rec = OutputRecord(
        command="table2",
        parameters={"b": [b.b1, b.b2], "steps": args.steps, "trials": args.trials, "rows": counts},
        columns=["r", "numerical", "theoretical", "abs_deviation"],
        rows=rows,
        seed=args.seed,
        timing=time.perf_counter() - t0,
    )
    _emit(rec, args.format)
    return 0


def _default_threads() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _add_common(p, *, seed=True):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="density tolerance")
    if seed:
        p.add_argument("--seed", type=_parse_seed, default=1)
        p.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker threads (default: the CPUs this process may run on)")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="cap on total walker-steps (r*steps*trials)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="walkvis",
        description="Generalized lattice-point visibility: densities, seeded walk simulation, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="limiting densities")
    dm = p.add_subparsers(dest="mode", required=True)
    dw = dm.add_parser("watchpoints")
    dw.add_argument("--b", type=_parse_b, required=True)
    dw.add_argument("--J", type=int, required=True, help="number of watchpoints")
    _add_common(dw, seed=False)
    dw.set_defaults(func=cmd_density)
    dk = dm.add_parser("walkers")
    dk.add_argument("--b", type=_parse_b, required=True)
    dk.add_argument("--r", type=int, required=True, help="number of walkers")
    _add_common(dk, seed=False)
    dk.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="seeded Monte Carlo runs")
    sm = p.add_subparsers(dest="mode", required=True)
    sw = sm.add_parser("watchpoints")
    sw.add_argument("--b", type=_parse_b, required=True)
    sw.add_argument("--watchpoints", type=_parse_watchpoints, required=True)
    sw.add_argument("--alpha", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--trials", type=int, required=True)
    _add_common(sw)
    sw.set_defaults(func=cmd_simulate)
    sk = sm.add_parser("walkers")
    sk.add_argument("--b", type=_parse_b, required=True)
    sk.add_argument("--alphas", type=_parse_alphas, required=True)
    sk.add_argument("--steps", type=int, required=True)
    sk.add_argument("--trials", type=int, required=True)
    _add_common(sk)
    sk.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact small-n expectations")
    em = p.add_subparsers(dest="mode", required=True)
    ew = em.add_parser("watchpoints")
    ew.add_argument("--b", type=_parse_b, required=True)
    ew.add_argument("--watchpoints", type=_parse_watchpoints, required=True)
    ew.add_argument("--alpha", type=float, required=True)
    ew.add_argument("--steps", type=int, required=True)
    _add_common(ew, seed=False)
    ew.set_defaults(func=cmd_exact)
    ek = em.add_parser("walkers")
    ek.add_argument("--b", type=_parse_b, required=True)
    ek.add_argument("--alphas", type=_parse_alphas, required=True)
    ek.add_argument("--steps", type=int, required=True)
    _add_common(ek, seed=False)
    ek.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="property and identity checks")
    vm = p.add_subparsers(dest="check", required=True)
    vg = vm.add_parser("gcd-properties")
    vg.add_argument("--samples", type=int, default=10_000)
    _add_common(vg, seed=False)
    vg.set_defaults(func=cmd_verify)
    vo = vm.add_parser("visibility-oracle")
    vo.add_argument("--b", type=_parse_b, required=True)
    vo.add_argument("--box", type=int, default=40)
    _add_common(vo, seed=False)
    vo.set_defaults(func=cmd_verify)
    vc = vm.add_parser("congruence-sum")
    vc.add_argument("--alpha", type=float, required=True)
    vc.add_argument("--n", type=int, required=True)
    vc.add_argument("--d", type=int, required=True)
    vc.add_argument("--threshold", type=float, default=0.01)
    _add_common(vc, seed=False)
    vc.set_defaults(func=cmd_verify)
    vv = vm.add_parser("mean-value")
    vv.add_argument("--kind", choices=("walker-moment", "watchpoints-shifted"), required=True)
    vv.add_argument("--b", type=_parse_b, required=True)
    vv.add_argument("--x", type=int, required=True)
    vv.add_argument("--r", type=int, default=None)
    vv.add_argument("--J", type=int, default=None, help="consistency check against len(shifts)")
    vv.add_argument("--shifts", type=_parse_ints, default=None)
    _add_common(vv, seed=False)
    vv.set_defaults(func=cmd_verify)

    p1 = sub.add_parser("table1", help="watchpoint reference table (8 rows)")
    p1.add_argument("--steps", type=int, default=100_000)
    p1.add_argument("--trials", type=int, default=10)
    _add_common(p1)
    p1.set_defaults(func=cmd_table1)

    p2 = sub.add_parser("table2", help="multi-walker reference table")
    p2.add_argument("--b", type=_parse_b, default=BExponent(2, 3))
    p2.add_argument("--rows", type=_parse_ints, default=TABLE2_ROWS)
    p2.add_argument("--steps", type=int, default=100_000)
    p2.add_argument("--trials", type=int, default=10)
    _add_common(p2)
    p2.set_defaults(func=cmd_table2)

    return ap


def _keep_freed_memory() -> None:
    """On glibc, keep up to 64 MB of freed memory in the heap.  By default each
    visible_mask call hands its MBs of numpy temporaries back to the system
    and the next call page-faults them in again: table1 ran a third slower."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MB free at the heap top


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad flags; keep main() returning
        return int(e.code or 0)
    try:
        return args.func(args)
    except WatchpointValidationError as e:
        print(f"invalid watchpoint set: {e}", file=sys.stderr)
        return 3
    except (CapacityError, BudgetExceededError) as e:
        print(f"over budget: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
