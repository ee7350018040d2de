"""Command-line surface: densities, seeded simulations, identity verification,
and the built-in reference tables, emitted as CSV (data only, byte-stable)
or JSON (full record including timing).

Each subcommand is one row of ``COMMANDS``: its flags, and a handler that
returns (columns, rows, exit code); ``main`` times the handler and builds the
record, whose ``parameters`` are the row's recorded flags.

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
from typing import Callable, NamedTuple

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


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"bad --threads {text!r}; expected a positive integer")
    return threads


def _parse_watchpoints(text: str) -> list[tuple[int, int]]:
    try:
        pts = []
        for chunk in text.split(";"):
            xs, ys = chunk.split(",")
            pts.append((int(xs), int(ys)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --watchpoints {text!r}; expected 'x1,y1;x2,y2;...'") from None
    # validation factors gcds of coordinate differences: keep them to int64
    if any(not -(2**63) <= c < 2**63 for pt in pts for c in pt):
        raise argparse.ArgumentTypeError(f"bad --watchpoints {text!r}; coordinates must lie in int64")
    return pts


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


def _simulate(args, mode, theory, walker_steps: int):
    _check_budget(walker_steps, args.budget)
    spec = SimulationSpec(args.b, mode, args.steps, args.trials, args.seed)
    agg = aggregate_trials(spec, theory, threads=args.threads)
    rows = [
        ["trial", t.trial_index, t.visible_count, t.proportion, None, None, None]
        for t in agg.trial_results
    ]
    rows.append(
        ["aggregate", None, None, agg.mean_proportion, agg.sample_std, agg.theory.value, agg.abs_deviation]
    )
    return ["record", "trial", "visible_count", "proportion", "sample_std", "theory_value", "abs_deviation"], rows, 0


def _simulate_watchpoints(args):
    wset = validate_watchpoint_set(args.b, args.watchpoints)
    mode = WatchpointsMode(wset, WalkerConfig(args.alpha))
    theory = density_watchpoints(args.b, wset.size, args.tol)
    return _simulate(args, mode, theory, args.steps * args.trials)


def _simulate_walkers(args):
    mode = WalkersMode(tuple(WalkerConfig(a) for a in args.alphas))
    theory = density_walkers(args.b, len(mode.alphas), args.tol)
    return _simulate(args, mode, theory, len(mode.alphas) * args.steps * args.trials)


def _density(res):
    return ["value", "prime_cutoff", "tail_bound"], [[res.value, res.prime_cutoff, res.tail_bound]], 0


def _exact(args, value: float):
    return ["steps", "expectation"], [[args.steps, value]], 0


def _exact_watchpoints(args):
    wset = validate_watchpoint_set(args.b, args.watchpoints)
    return _exact(args, exact_expectation_watchpoints(args.b, wset, args.alpha, args.steps))


def _checks(results):
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.measured] for r in results]
    return ["check", "status", "measured"], rows, 0 if all(r.passed for r in results) else 5


def _table1(args):
    """The eight-row watchpoint table: simulated means at alpha 0.5 and 0.3
    against the limiting density for W = {(0,0), (1,2), (2,1)}."""
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
    columns = ["b1", "b2", "numerical_alpha_0.5", "numerical_alpha_0.3", "theoretical",
               "abs_dev_alpha_0.5", "abs_dev_alpha_0.3"]
    return columns, rows, 0


def _table2(args):
    """The multi-walker table: simulated means (all walkers at alpha 0.5)
    against the limiting density, one row per walker count."""
    _check_budget(sum(args.rows) * args.steps * args.trials, args.budget)
    rows = []
    for idx, r in enumerate(args.rows):
        theory = density_walkers(args.b, r, args.tol)
        sub_seed = derive_trial_seed(args.seed, idx, 0, 1)
        mode = WalkersMode(tuple(WalkerConfig(0.5) for _ in range(r)))
        agg = aggregate_trials(SimulationSpec(args.b, mode, args.steps, args.trials, sub_seed), theory,
                               threads=args.threads)
        rows.append([r, agg.mean_proportion, theory.value, agg.abs_deviation])
    return ["r", "numerical", "theoretical", "abs_deviation"], rows, 0


def _default_threads() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class Flag(NamedTuple):
    name: str
    kwargs: dict
    recorded: bool = True  # listed in the JSON record's parameters

    @property
    def dest(self) -> str:
        return self.name.lstrip("-")


def _flag(name: str, recorded: bool = True, **kwargs) -> Flag:
    return Flag(name, kwargs, recorded)


B = _flag("--b", type=_parse_b, required=True)
WATCHPOINTS = _flag("--watchpoints", type=_parse_watchpoints, required=True)
ALPHA = _flag("--alpha", type=float, required=True)
ALPHAS = _flag("--alphas", type=_parse_alphas, required=True)
STEPS = _flag("--steps", type=int, required=True)
TRIALS = _flag("--trials", type=int, required=True)
FORMAT = _flag("--format", recorded=False, choices=("csv", "json"), default="csv")
TOL = _flag("--tol", type=float, default=DEFAULT_TOL, help="density tolerance")
# seeded Monte Carlo commands; the seed goes into the record's own field
RUN = (
    _flag("--seed", recorded=False, type=_parse_seed, default=1),
    _flag("--threads", recorded=False, type=_parse_threads, default=_default_threads(),
          help="worker threads (default: the CPUs this process may run on)"),
    _flag("--budget", recorded=False, type=int, default=DEFAULT_BUDGET,
          help="cap on total walker-steps (r*steps*trials)"),
)
# the reference tables' run size
TABLE_RUN = (_flag("--steps", type=int, default=100_000), _flag("--trials", type=int, default=10), FORMAT, TOL, *RUN)


class Command(NamedTuple):
    name: str  # "<group> <mode>", or a top-level subcommand
    flags: tuple[Flag, ...]
    handler: Callable  # args -> (columns, rows, exit code)
    help: str | None = None


# group -> (dest of its mode, help)
GROUPS = {
    "density": ("mode", "limiting densities"),
    "simulate": ("mode", "seeded Monte Carlo runs"),
    "exact": ("mode", "exact small-n expectations"),
    "verify": ("check", "property and identity checks"),
}
COMMANDS = (
    Command("density watchpoints", (B, _flag("--J", type=int, required=True, help="number of watchpoints"),
                                    FORMAT, TOL),
            lambda a: _density(density_watchpoints(a.b, a.J, a.tol))),
    Command("density walkers", (B, _flag("--r", type=int, required=True, help="number of walkers"), FORMAT, TOL),
            lambda a: _density(density_walkers(a.b, a.r, a.tol))),
    Command("simulate watchpoints", (B, WATCHPOINTS, ALPHA, STEPS, TRIALS, FORMAT, TOL, *RUN), _simulate_watchpoints),
    Command("simulate walkers", (B, ALPHAS, STEPS, TRIALS, FORMAT, TOL, *RUN), _simulate_walkers),
    Command("exact watchpoints", (B, WATCHPOINTS, ALPHA, STEPS, FORMAT), _exact_watchpoints),
    Command("exact walkers", (B, ALPHAS, STEPS, FORMAT),
            lambda a: _exact(a, exact_expectation_walkers(a.b, a.alphas, a.steps))),
    Command("verify gcd-properties", (_flag("--samples", type=int, default=10_000), FORMAT),
            lambda a: _checks(check_gcd_properties(samples=a.samples))),
    Command("verify visibility-oracle", (B, _flag("--box", type=int, default=40), FORMAT),
            lambda a: _checks(check_visibility_oracle(a.b, a.box))),
    Command("verify congruence-sum",
            (ALPHA, _flag("--n", type=int, required=True), _flag("--d", type=int, required=True),
             _flag("--threshold", type=float, default=0.01), FORMAT),
            lambda a: _checks(check_congruence_sum(a.alpha, a.n, a.d, a.threshold))),
    Command("verify mean-value",
            (_flag("--kind", choices=("walker-moment", "watchpoints-shifted"), required=True), B,
             _flag("--x", type=int, required=True), _flag("--r", type=int, default=None),
             _flag("--shifts", type=_parse_ints, default=None), FORMAT),
            lambda a: _checks(check_mean_value(a.kind, a.b, a.x, r=a.r, shifts=a.shifts))),
    Command("table1", TABLE_RUN, _table1, help="watchpoint reference table (8 rows)"),
    Command("table2", (_flag("--b", type=_parse_b, default=BExponent(2, 3)),
                       _flag("--rows", type=_parse_ints, default=TABLE2_ROWS), *TABLE_RUN),
            _table2, help="multi-walker reference table"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="walkvis",
        description="Generalized lattice-point visibility: densities, seeded walk simulation, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    modes = {}
    for cmd in COMMANDS:
        group, _, mode = cmd.name.partition(" ")
        if not mode:
            p = sub.add_parser(group, help=cmd.help)
        else:
            if group not in modes:
                dest, help_ = GROUPS[group]
                modes[group] = sub.add_parser(group, help=help_).add_subparsers(dest=dest, required=True)
            p = modes[group].add_parser(mode)
        for flag in cmd.flags:
            p.add_argument(flag.name, **flag.kwargs)
        p.set_defaults(func=cmd)
    return ap


def _keep_freed_memory() -> None:
    """On glibc, keep up to 64 MB of freed memory in the heap.  By default each
    visible_mask call hands its MBs of numpy temporaries back to the system
    and the next call page-faults them in again: table1 ran a fifth slower."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MB free at the heap top


def _json_value(v):
    return [v.b1, v.b2] if isinstance(v, BExponent) else v


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad flags; keep main() returning
        return int(e.code or 0)
    cmd = args.func
    try:
        t0 = time.perf_counter()
        columns, rows, code = cmd.handler(args)
        rec = OutputRecord(
            command=cmd.name,
            parameters={f.dest: _json_value(getattr(args, f.dest)) for f in cmd.flags if f.recorded},
            columns=columns,
            rows=rows,
            seed=getattr(args, "seed", None),
            timing=time.perf_counter() - t0,
        )
        _emit(rec, args.format)
        return code
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
