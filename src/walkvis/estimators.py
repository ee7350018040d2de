"""Monte Carlo estimation of visible-step proportions, plus exact small-n
expectation oracles from binomial sums.

Trials are embarrassingly parallel: every trial's stream is derived from the
master seed alone, and aggregation always runs in ascending trial order, so
results are identical no matter how execution is scheduled.  Every Monte
Carlo path, one walker seen from several watchpoints or several walkers seen
from the origin, runs through one engine that works in (trial block x step
chunk) units of the SplitMix64 streams, which keeps memory flat and
reproduces the lazy per-step walk bit-for-bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .numtheory import BExponent, CapacityError, DensityResult, as_bexp
from .visibility import WatchpointSet, validate_watchpoint_set, visible_mask
from .walk import (
    MASK64,
    WalkerConfig,
    as_walker,
    derive_trial_seed,
    right_threshold,
    splitmix64_block,
)

#: Largest step count accepted by the exact expectation oracles.
EXACT_STEP_CAP = 2000

_CHUNK = 1 << 20
_BATCH_STEP_LIMIT = 64
_ORIGIN = ((0, 0),)


@dataclass(frozen=True)
class WatchpointsMode:
    """One walker observed from a validated watchpoint set."""

    watchpoints: WatchpointSet
    alpha: WalkerConfig


@dataclass(frozen=True)
class WalkersMode:
    """Several independent walkers observed from the origin."""

    alphas: tuple[WalkerConfig, ...]

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ValueError("walkers mode needs at least one walker")


@dataclass(frozen=True)
class SimulationSpec:
    """A fully seeded simulation: everything needed to reproduce it."""

    b: BExponent
    mode: WatchpointsMode | WalkersMode
    steps: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class TrialResult:
    trial_index: int
    visible_count: int
    steps: int

    @property
    def proportion(self) -> float:
        return self.visible_count / self.steps


@dataclass(frozen=True)
class AggregateResult:
    mean_proportion: float
    sample_std: float
    trials: int
    theory: DensityResult
    abs_deviation: float
    trial_results: tuple[TrialResult, ...]


def _check_steps(points, n: int) -> None:
    """Reject n < 1, and points whose displacements over n steps would leave int64."""
    if n < 1:
        raise ValueError(f"steps must be >= 1, got {n}")
    reach = max(max(abs(u), abs(v)) for u, v in points) + n
    if reach >= 2**63:
        raise ValueError(
            f"watchpoint coordinates plus {n} steps reach {reach}, beyond int64 (2**63 - 1)"
        )


def _visible_counts(b, trial_seeds: np.ndarray, alphas, points, n: int) -> np.ndarray:
    """Visible-step count of each trial seed over steps 1..n.

    Trial t runs one stream per alpha, stream j seeded with
    derive_trial_seed(trial_seeds[t], 0, j, len(alphas)).  A step counts
    when, for every stream and every point, the stream's position minus the
    point is b-visible.  Work goes in (trial block x step chunk) units of at
    most _CHUNK steps per stream, each stream's x carrying across chunks.
    Raises ValueError when a displacement could leave int64.
    """
    _check_steps(points, n)
    thresholds = [right_threshold(a) for a in alphas]
    counts = np.zeros(len(trial_seeds), dtype=np.int64)
    block = max(1, _CHUNK // max(n, len(thresholds)))  # bounds the seed and carry matrices too
    for t0 in range(0, len(trial_seeds), block):
        seeds = splitmix64_block(trial_seeds[t0 : t0 + block, None], 0, len(thresholds))
        tb = len(seeds)
        x_prev = np.zeros(seeds.shape, dtype=np.int64)
        for start in range(0, n, _CHUNK):
            cnt = min(_CHUNK, n - start)
            i = np.arange(start + 1, start + cnt + 1, dtype=np.int64)
            ok = np.ones(tb * cnt, dtype=bool)
            for j, threshold in enumerate(thresholds):
                z = splitmix64_block(seeds[:, j, None], start, cnt)
                z >>= np.uint64(11)
                x = np.cumsum(z < threshold, axis=1, dtype=np.int64)
                x += x_prev[:, j, None]
                x_prev[:, j] = x[:, -1]
                y = (i - x).ravel()
                x = x.ravel()
                for u, v in points:
                    ok &= visible_mask(b, x - u if u else x, y - v if v else y)
            counts[t0 : t0 + tb] += np.count_nonzero(ok.reshape(tb, cnt), axis=1)
    return counts


def _one_trial(b, seed: int, alphas, points, n: int) -> TrialResult:
    count = _visible_counts(b, np.array([seed & MASK64], dtype=np.uint64), alphas, points, n)[0]
    return TrialResult(0, int(count), n)


def simulate_watchpoint_run(b, watchpoints, alpha, n, seed) -> TrialResult:
    """One seeded trial: the count of steps 1..n visible from every watchpoint.

    A step landing exactly on a watchpoint is not visible.  ``watchpoints``
    may be a validated WatchpointSet or a raw point list (validated here).
    """
    bb = as_bexp(b)
    wset = watchpoints if isinstance(watchpoints, WatchpointSet) else validate_watchpoint_set(bb, watchpoints)
    return _one_trial(bb, seed, (as_walker(alpha),), wset.points, n)


def simulate_walkers_run(b, alphas, n, seed) -> TrialResult:
    """One seeded trial: steps at which all walkers are visible from the origin.

    Walker j's stream seed is the (j+1)-th output of the given seed, so the
    walkers are mutually independent and the whole trial reproducible.
    """
    cfgs = tuple(as_walker(a) for a in alphas)
    if not cfgs:
        raise ValueError("need at least one walker")
    return _one_trial(as_bexp(b), seed, cfgs, _ORIGIN, n)


def _run_trial(spec: SimulationSpec, t: int) -> TrialResult:
    seed_t = derive_trial_seed(spec.master_seed, t, 0, 1)
    if isinstance(spec.mode, WatchpointsMode):
        res = simulate_watchpoint_run(
            spec.b, spec.mode.watchpoints, spec.mode.alpha, spec.steps, seed_t
        )
    else:
        res = simulate_walkers_run(spec.b, spec.mode.alphas, spec.steps, seed_t)
    return TrialResult(t, res.visible_count, res.steps)


def aggregate_trials(spec: SimulationSpec, theory: DensityResult, threads: int = 1) -> AggregateResult:
    """Run all trials of the spec and aggregate in ascending trial order.

    The per-trial seeds depend only on (master_seed, trial index), so the
    result is identical whether trials run serially, threaded, or batched.
    At or below _BATCH_STEP_LIMIT steps, all trials go to the engine in one
    call; above it, the pool maps the per-trial simulators over trials.
    """
    T = spec.trials
    if spec.steps <= _BATCH_STEP_LIMIT:
        mode = spec.mode
        if isinstance(mode, WatchpointsMode):
            alphas, points = (mode.alpha,), mode.watchpoints.points
        else:
            alphas, points = mode.alphas, _ORIGIN
        trial_seeds = splitmix64_block(spec.master_seed, 0, T)  # derive_trial_seed(master, t, 0, 1)
        counts = _visible_counts(spec.b, trial_seeds, alphas, points, spec.steps)
        results = [TrialResult(t, c, spec.steps) for t, c in enumerate(counts.tolist())]
    elif threads > 1 and T > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: _run_trial(spec, t), range(T)))
        results.sort(key=lambda r: r.trial_index)
    else:
        results = [_run_trial(spec, t) for t in range(T)]

    props = [r.proportion for r in results]
    mean = math.fsum(props) / T
    if T > 1:
        std = math.sqrt(math.fsum((p - mean) ** 2 for p in props) / (T - 1))
    else:
        std = 0.0
    return AggregateResult(
        mean_proportion=mean,
        sample_std=std,
        trials=T,
        theory=theory,
        abs_deviation=abs(mean - theory.value),
        trial_results=tuple(results),
    )


def _visible_mass(b, points, alphas, n: int) -> np.ndarray:
    """Row i-1, column c: the binomial mass at step i of the positions
    (k, i-k) visible from every point, for a walker of alpha ``alphas[c]``.

    The pmf is evaluated per term in log space to dodge underflow for i in
    the hundreds.
    """
    _check_steps(points, n)
    if n > EXACT_STEP_CAP:
        raise CapacityError(f"exact oracles are capped at n = {EXACT_STEP_CAP}, got {n}")
    lg = gammaln(np.arange(n + 2, dtype=np.float64))
    logs = [(math.log(a), math.log1p(-a)) for a in alphas]
    mass = np.empty((n, len(alphas)))
    for i in range(1, n + 1):
        k = np.arange(i + 1, dtype=np.int64)
        kf = k.astype(np.float64)
        ok = np.ones(i + 1, dtype=bool)
        for u, v in points:
            ok &= visible_mask(b, k - u, (i - k) - v)
        base = lg[i + 1] - lg[k + 1] - lg[i - k + 1]
        for c, (log_a, log_1a) in enumerate(logs):
            mass[i - 1, c] = np.exp(base + kf * log_a + (i - kf) * log_1a)[ok].sum()
    return mass


def exact_expectation_watchpoints(b, watchpoints, alpha, n) -> float:
    """Exact E of the visible-step proportion over n steps.

    Sums, for each step i, the binomial mass of the positions (k, i-k) that
    are visible from every watchpoint, with the same on-watchpoint and
    shared-coordinate conventions as the simulator.
    """
    bb = as_bexp(b)
    wset = watchpoints if isinstance(watchpoints, WatchpointSet) else validate_watchpoint_set(bb, watchpoints)
    mass = _visible_mass(bb, wset.points, [as_walker(alpha).alpha], n)
    return math.fsum(mass[:, 0].tolist()) / n


def exact_expectation_walkers(b, alphas, n) -> float:
    """Exact E of the all-walkers-visible proportion over n steps.

    Independence makes the step-i probability a product over walkers of
    one-walker visible-mass sums, each over positions (k, i-k).
    """
    bb = as_bexp(b)
    cfgs = tuple(as_walker(a) for a in alphas)
    if not cfgs:
        raise ValueError("need at least one walker")
    distinct = list(dict.fromkeys(cfg.alpha for cfg in cfgs))
    mass = _visible_mass(bb, _ORIGIN, distinct, n)
    cols = [distinct.index(cfg.alpha) for cfg in cfgs]
    return math.fsum(math.prod(row[c] for c in cols) for row in mass.tolist()) / n
