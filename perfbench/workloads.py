"""Seeded workload inputs, request execution and output checks.

A workload is a list of requests (one "pass") generated from the workload
seed.  The program sees only the generated inputs: CLI argument vectors run
in-process through ``walkvis.cli.main``, or direct density calls.  Every
request is checked after the timed region, and a request that raises, exits
nonzero or fails a check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random
import time
import traceback

WORKLOADS = ("table1_watchpoints", "table2_walkers", "density_sweep", "small_n")
DEFAULT_SEED = 1
TOL = 1e-9

# The paper's Table 1: eight exponent pairs, one watchpoint set, two alphas.
TABLE1_BS = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5))
TABLE1_WATCHPOINTS = ((0, 0), (1, 2), (2, 1))
TABLE1_ALPHAS = (0.5, 0.3)
TABLE2_ROWS = (2, 10, 100, 1000)
SWEEP_BS = ((1, 1), (1, 2), (2, 3), (3, 5))
# Rows of table2 whose trials the scalar oracle can recount in a few seconds.
RECOUNT_MAX_WALKERS = 10


@dataclasses.dataclass(frozen=True)
class Request:
    """One operation: a CLI argument vector or a direct density call."""

    label: str
    argv: tuple[str, ...] = ()
    density: tuple | None = None  # (mode, (b1, b2), r or J)
    walker_steps: int = 0  # sum of r * n * T over the request's simulations
    exact_steps: int = 0  # walk steps n of an exact-expectation request
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def monte_carlo(self) -> bool:
        return self.walker_steps > 0


def _rng(*key) -> random.Random:
    # str seeding hashes with sha512: stable across processes and platforms
    return random.Random(":".join(str(k) for k in key))


def _fmt_b(b) -> str:
    return f"{b[0]},{b[1]}"


def _log_bins(rng: random.Random, lo: int, hi: int, bins: int) -> list[int]:
    """One integer per log-spaced bin of [lo, hi], uniform in log within its bin.

    Stratifying keeps the work of a pass nearly the same for every seed.
    """
    ratio = math.log(hi / lo)
    return [min(hi, int(lo * math.exp(ratio * (i + rng.random()) / bins))) for i in range(bins)]


def _watchpoints(rng: random.Random, b, size: int, wv) -> tuple[tuple[int, int], ...]:
    """Pairwise b-visible distinct points with small offsets, by rejection."""
    while True:
        pts = tuple((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(size))
        if len(set(pts)) == size and all(
            wv.is_b_visible(b, p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]
        ):
            return pts


def make_pass(workload: str, seed: int, pass_index: int, threads: int, wv, tiny: bool = False) -> list[Request]:
    """The requests of one pass.  The Monte Carlo workloads repeat the same
    requests every pass; density_sweep draws fresh values each pass, which
    averages the draw-to-draw jitter out of its medians.

    ``tiny`` shrinks every size while keeping every code path; it is used for
    the canary run and the benchmark's own tests.
    """
    rng = _rng(workload, seed, pass_index if workload == "density_sweep" else 0)
    master = str(rng.getrandbits(63))
    th = str(threads)
    if workload == "table1_watchpoints":
        n, trials = (2000, 2) if tiny else (100_000, 10)
        argv = ("table1", "--steps", str(n), "--trials", str(trials), "--seed", master, "--threads", th)
        meta = {"seed": master, "steps": n, "trials": trials}
        return [Request("table1", argv, walker_steps=len(TABLE1_BS) * 2 * n * trials, meta=meta)]
    if workload == "table2_walkers":
        # trials equal the thread count so that every thread has a trial; the
        # canary's output must not depend on the machine, so it fixes 2
        n, trials = (500, 2) if tiny else (100_000, threads)
        rows = ",".join(map(str, TABLE2_ROWS))
        argv = ("table2", "--b", "2,3", "--rows", rows, "--steps", str(n), "--trials", str(trials),
                "--seed", master, "--threads", th)
        meta = {"seed": master, "steps": n, "trials": trials, "b": (2, 3)}
        return [Request("table2", argv, walker_steps=sum(TABLE2_ROWS) * n * trials, meta=meta)]
    if workload == "density_sweep":
        reqs = []
        for b in SWEEP_BS:
            # (1,1) costs ~2.3 ms per walker at tol 1e-9 and its sieve is unbounded: cap r at 100
            r_hi, r_bins = ((10, 3) if tiny else (100, 16)) if b == (1, 1) else ((1000, 3) if tiny else (1000, 12))
            for r in _log_bins(rng, 2, r_hi, r_bins):
                reqs.append(Request(f"walkers b={_fmt_b(b)} r={r}", density=("walkers", b, r)))
            j_hi = 2 ** (b[0] + b[1]) - 1  # J = 2**(b1+b2) gives density exactly 0
            for J in _log_bins(rng, 1, j_hi, min(j_hi, 2 if tiny else 6)):
                reqs.append(Request(f"watchpoints b={_fmt_b(b)} J={J}", density=("watchpoints", b, J)))
        rng.shuffle(reqs)
        return [Request(f"#{i} {r.label}", density=r.density) for i, r in enumerate(reqs)]
    if workload == "small_n":
        n, trials, exact_n = (32, 128, 100) if tiny else (64, 8192, 2000)
        reqs = []
        for b in SWEEP_BS:
            pts = _watchpoints(rng, b, 3, wv)
            alpha = round(rng.uniform(0.3, 0.7), 3)
            wtext = ";".join(f"{x},{y}" for x, y in pts)
            # "=" keeps argparse from reading a negative first coordinate as an option
            argv = ("simulate", "watchpoints", "--b", _fmt_b(b), f"--watchpoints={wtext}", "--alpha", str(alpha),
                    "--steps", str(n), "--trials", str(trials), "--seed", master, "--threads", th)
            meta = {"seed": master, "steps": n, "trials": trials, "b": b, "points": pts, "alpha": alpha}
            reqs.append(Request(f"simulate b={_fmt_b(b)}", argv, walker_steps=n * trials, meta=meta))
        pts = _watchpoints(rng, (1, 2), 3, wv)
        alpha = round(rng.uniform(0.3, 0.7), 3)
        argv = ("exact", "watchpoints", "--b", "1,2", "--watchpoints=" + ";".join(f"{x},{y}" for x, y in pts),
                "--alpha", str(alpha), "--steps", str(exact_n))
        reqs.append(Request("exact watchpoints b=1,2", argv, exact_steps=exact_n, meta={"steps": exact_n}))
        alphas = ",".join(str(round(rng.uniform(0.3, 0.7), 3)) for _ in range(2))
        argv = ("exact", "walkers", "--b", "2,3", "--alphas", alphas, "--steps", str(exact_n))
        reqs.append(Request("exact walkers b=2,3", argv, exact_steps=exact_n, meta={"steps": exact_n}))
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


def single_thread(req: Request) -> Request:
    """The same request with --threads 1."""
    argv = list(req.argv)
    argv[argv.index("--threads") + 1] = "1"
    return dataclasses.replace(req, argv=tuple(argv))


@dataclasses.dataclass
class Op:
    id: int
    req: Request
    wall_ns: int
    output: object = None  # CSV text, or DensityResult for a density call
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def fail(self, why: str) -> None:
        if self.error is None:
            self.error = why

    def digest(self) -> str:
        if isinstance(self.output, str):
            text = self.output
        else:
            d = self.output
            text = f"{d.value!r},{d.prime_cutoff},{d.tail_bound!r}"
        return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Pass:
    ops: list[Op]
    wall_ns: int


class Runner:
    """Runs requests one at a time (a closed loop with one request in flight)."""

    def __init__(self, wv):
        self.wv = wv
        # the lru_cache object itself: its cache_clear/cache_info survive tracing
        self.zeta_int = wv.numtheory.zeta_int
        self.zeta_misses = 0
        self.output_bytes = 0
        self.tracer = None
        self._next_id = 0

    def _fresh_zeta_cache(self) -> None:
        # every CLI invocation is a fresh process and pays the zeta_int misses
        self.zeta_misses += self.zeta_int.cache_info().misses
        self.zeta_int.cache_clear()

    def run_op(self, req: Request) -> Op:
        op = Op(self._next_id, req, 0)
        self._next_id += 1
        if self.tracer is not None:
            self.tracer.request_id = op.id
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            if req.argv:
                self._fresh_zeta_cache()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.wv.cli.main(list(req.argv))
                op.output = out.getvalue()
                if rc != 0:
                    op.fail(f"exit {rc}: {err.getvalue().strip()}")
            else:
                mode, b, param = req.density
                fn = self.wv.theory.density_walkers if mode == "walkers" else self.wv.theory.density_watchpoints
                op.output = fn(b, param, TOL)
        except Exception:  # a failing request is counted, and the run goes on
            op.fail(traceback.format_exc(limit=3))
        op.wall_ns = time.perf_counter_ns() - t0
        if isinstance(op.output, str):
            self.output_bytes += len(op.output.encode())
        return op

    def run_pass(self, reqs: list[Request]) -> Pass:
        t0 = time.perf_counter_ns()
        self._fresh_zeta_cache()  # a density pass starts from a cold cache too
        ops = [self.run_op(r) for r in reqs]
        wall = time.perf_counter_ns() - t0
        self._fresh_zeta_cache()  # counts the last request's misses
        return Pass(ops, wall)


# ---------------------------------------------------------------- checks


def _csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().split("\n")]


def _fmt9(v: float) -> str:
    return f"{v:.9g}"  # the CLI's float format


def oracle_count(wv, b, streams, alphas, points, n: int) -> int:
    """Steps 1..n at which every walker is visible from every point, counted
    with the scalar walk and the scalar predicate (a step on a point is not
    visible)."""
    reach = n + max(max(abs(x), abs(y)) for x, y in points) + 1
    tables = wv.build_tables(reach)
    walks = [wv.walk_positions(a, s, n) for a, s in zip(alphas, streams)]
    count = 0
    for pos in zip(*walks):
        count += all(p != w and wv.is_b_visible(b, p, w, tables) for p in pos for w in points)
    return count


def _trial_streams(wv, master: int, trial: int, walkers: int) -> list[int]:
    # estimators: trial seed from the spec's master seed, then one stream per walker
    seed_t = wv.derive_trial_seed(master, trial, 0, 1)
    return [wv.derive_trial_seed(seed_t, 0, j, walkers) for j in range(walkers)]


def _check_theory_column(values: list[float], decreasing: bool) -> str | None:
    if not all(0.0 < v <= 1.0 for v in values):
        return f"theory value outside (0, 1]: {values}"
    if decreasing and any(b > a for a, b in zip(values, values[1:])):
        return f"theory value increases with r: {values}"
    return None


def _check_table1(wv, req: Request, text: str, rng: random.Random, threads: int) -> str | None:
    m = req.meta
    rows = _csv(text)[1:]
    if [(int(r[0]), int(r[1])) for r in rows] != list(TABLE1_BS):
        return "table1 rows are not the paper's exponent pairs"
    why = _check_theory_column([float(r[4]) for r in rows], decreasing=False)
    if why:
        return why
    idx, a_idx, t = rng.randrange(len(TABLE1_BS)), rng.randrange(2), rng.randrange(m["trials"])
    b, alpha = TABLE1_BS[idx], TABLE1_ALPHAS[a_idx]
    sub_seed = wv.derive_trial_seed(int(m["seed"]), idx * 2 + a_idx, 0, 1)
    wset = wv.validate_watchpoint_set(b, TABLE1_WATCHPOINTS)
    spec = wv.SimulationSpec(wv.BExponent(*b), wv.WatchpointsMode(wset, wv.WalkerConfig(alpha)),
                             m["steps"], m["trials"], sub_seed)
    agg = wv.aggregate_trials(spec, wv.density_watchpoints(b, len(TABLE1_WATCHPOINTS), TOL), threads)
    if _fmt9(agg.mean_proportion) != rows[idx][2 + a_idx]:
        return f"table1 b={b} alpha={alpha}: CSV mean {rows[idx][2 + a_idx]} != library {agg.mean_proportion}"
    want = agg.trial_results[t].visible_count
    got = oracle_count(wv, b, _trial_streams(wv, sub_seed, t, 1), [alpha], TABLE1_WATCHPOINTS, m["steps"])
    return None if got == want else f"table1 b={b} alpha={alpha} trial {t}: oracle {got} != {want}"


def _check_table2(wv, req: Request, text: str, rng: random.Random, threads: int) -> str | None:
    m = req.meta
    rows = _csv(text)[1:]
    if [int(r[0]) for r in rows] != list(TABLE2_ROWS):
        return f"table2 rows {[r[0] for r in rows]} != {TABLE2_ROWS}"
    why = _check_theory_column([float(r[2]) for r in rows], decreasing=True)
    if why:
        return why
    idx = rng.choice([i for i, r in enumerate(TABLE2_ROWS) if r <= RECOUNT_MAX_WALKERS])
    r, t = TABLE2_ROWS[idx], rng.randrange(m["trials"])
    sub_seed = wv.derive_trial_seed(int(m["seed"]), idx, 0, 1)
    mode = wv.WalkersMode(tuple(wv.WalkerConfig(0.5) for _ in range(r)))
    spec = wv.SimulationSpec(wv.BExponent(*m["b"]), mode, m["steps"], m["trials"], sub_seed)
    agg = wv.aggregate_trials(spec, wv.density_walkers(m["b"], r, TOL), threads)
    if _fmt9(agg.mean_proportion) != rows[idx][1]:
        return f"table2 r={r}: CSV mean {rows[idx][1]} != library {agg.mean_proportion}"
    want = agg.trial_results[t].visible_count
    got = oracle_count(wv, m["b"], _trial_streams(wv, sub_seed, t, r), [0.5] * r, [(0, 0)], m["steps"])
    return None if got == want else f"table2 r={r} trial {t}: oracle {got} != {want}"


def _check_simulate(wv, req: Request, text: str, rng: random.Random) -> str | None:
    m = req.meta
    rows = _csv(text)[1:]
    trials = [r for r in rows if r[0] == "trial"]
    if len(trials) != m["trials"] or rows[-1][0] != "aggregate" or len(rows) != m["trials"] + 1:
        return "simulate CSV does not hold one row per trial plus the aggregate"
    counts = [int(r[2]) for r in trials]
    mean = math.fsum(c / m["steps"] for c in counts) / m["trials"]
    if _fmt9(mean) != rows[-1][3]:
        return f"simulate aggregate {rows[-1][3]} != mean of the trial rows {mean}"
    why = _check_theory_column([float(rows[-1][5])], decreasing=False)
    if why:
        return why
    t = rng.randrange(m["trials"])
    got = oracle_count(wv, m["b"], _trial_streams(wv, int(m["seed"]), t, 1), [m["alpha"]], m["points"], m["steps"])
    return None if got == counts[t] else f"{req.label} trial {t}: oracle {got} != {counts[t]}"


def _check_exact(req: Request, text: str) -> str | None:
    rows = _csv(text)
    if rows[0] != ["steps", "expectation"] or len(rows) != 2 or int(rows[1][0]) != req.meta["steps"]:
        return "exact CSV is not one (steps, expectation) row"
    v = float(rows[1][1])
    return None if 0.0 <= v <= 1.0 else f"expectation {v} outside [0, 1]"


def _check_density(ops: list[Op]) -> None:
    series: dict = {}
    for op in ops:
        d = op.output
        if not (0.0 < d.value <= 1.0):
            op.fail(f"density {d.value} outside (0, 1]")
        elif not (0.0 <= d.tail_bound <= TOL):
            op.fail(f"tail bound {d.tail_bound} exceeds tol {TOL}")
        mode, b, param = op.req.density
        series.setdefault((mode, b), []).append((param, op))
    # the density never increases with r (or J) at fixed b, up to the truncation bounds
    for points in series.values():
        points.sort(key=lambda p: p[0])
        for (_, lo), (_, hi) in zip(points, points[1:]):
            slack = lo.output.tail_bound + hi.output.tail_bound
            if hi.output.value > lo.output.value + slack:
                hi.fail(f"density rises from {lo.req.label} to {hi.req.label}")


def check_pass(wv, workload: str, seed: int, p: Pass, threads: int, reference: Pass | None = None) -> None:
    """Mark every failed op of a pass.

    With a ``reference`` pass of the same requests, each output must be
    byte-identical to the reference's and is not checked again.
    """
    if reference is not None:
        for op, ref in zip(p.ops, reference.ops):
            if not op.failed and (ref.failed or op.digest() != ref.digest()):
                op.fail(f"{op.req.label}: output differs from the reference pass")
        return
    live = [op for op in p.ops if not op.failed]
    if workload == "density_sweep":
        _check_density(live)
        return
    for op in live:
        rng = _rng("check", workload, seed, op.req.label)
        kind = op.req.argv[0]
        try:
            if kind == "table1":
                why = _check_table1(wv, op.req, op.output, rng, threads)
            elif kind == "table2":
                why = _check_table2(wv, op.req, op.output, rng, threads)
            elif kind == "simulate":
                why = _check_simulate(wv, op.req, op.output, rng)
            else:
                why = _check_exact(op.req, op.output)
        except (ValueError, IndexError) as e:  # malformed output
            why = f"{op.req.label}: unreadable output ({e})"
        if why:
            op.fail(why)


def check_digests(p: Pass, reference: dict[str, str]) -> None:
    """Compare each op's output digest with the stored reference."""
    for op in p.ops:
        if op.failed:
            continue
        want = reference.get(op.req.label)
        if want is None:
            op.fail(f"{op.req.label}: no reference digest")
        elif op.digest() != want:
            op.fail(f"{op.req.label}: digest {op.digest()[:12]} != reference {want[:12]}")
