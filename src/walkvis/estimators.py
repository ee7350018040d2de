"""Monte Carlo estimation of visible-step proportions, plus exact small-n
expectation oracles from binomial sums.

Trials are embarrassingly parallel: every trial's stream is derived from the
master seed alone, and aggregation always runs in ascending trial order, so
results are identical no matter how execution is scheduled.  The simulators
process steps in fixed-size blocks of the SplitMix64 stream, which keeps
memory flat and reproduces the lazy per-step walk bit-for-bit.
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
    GOLDEN_GAMMA,
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
_BATCH_STEP_LIMIT = 64  # batch trials across the step axis below this n


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


def _right_steps(stream_seed: int, start: int, count: int, threshold) -> np.ndarray:
    z = splitmix64_block(stream_seed, start, count)
    z >>= np.uint64(11)
    return z < threshold


def _count_visible_watchpoints(b, points, alpha, stream_seed, n) -> int:
    count = 0
    x_prev = 0
    threshold = right_threshold(alpha)
    for start in range(0, n, _CHUNK):
        cnt = min(_CHUNK, n - start)
        rights = _right_steps(stream_seed, start, cnt, threshold)
        x = x_prev + np.cumsum(rights, dtype=np.int64)
        i = np.arange(start + 1, start + cnt + 1, dtype=np.int64)
        y = i - x
        ok = np.ones(cnt, dtype=bool)
        for u, v in points:
            ok &= visible_mask(b, x - u, y - v)
        count += int(np.count_nonzero(ok))
        x_prev = int(x[-1])
    return count


def simulate_watchpoint_run(b, watchpoints, alpha, n, seed) -> TrialResult:
    """One seeded trial: the count of steps 1..n visible from every watchpoint.

    A step landing exactly on a watchpoint is not visible.  ``watchpoints``
    may be a validated WatchpointSet or a raw point list (validated here).
    """
    bb = as_bexp(b)
    wset = watchpoints if isinstance(watchpoints, WatchpointSet) else validate_watchpoint_set(bb, watchpoints)
    a = as_walker(alpha).alpha
    if n < 1:
        raise ValueError(f"steps must be >= 1, got {n}")
    stream_seed = derive_trial_seed(seed, 0, 0, 1)
    count = _count_visible_watchpoints(bb, wset.points, a, stream_seed, n)
    return TrialResult(0, count, n)


def simulate_walkers_run(b, alphas, n, seed) -> TrialResult:
    """One seeded trial: steps at which all walkers are visible from the origin.

    Walker j's stream seed is the (j+1)-th output of the given seed, so the
    walkers are mutually independent and the whole trial reproducible.
    """
    bb = as_bexp(b)
    cfgs = tuple(as_walker(a) for a in alphas)
    if not cfgs:
        raise ValueError("need at least one walker")
    if n < 1:
        raise ValueError(f"steps must be >= 1, got {n}")
    r = len(cfgs)
    stream_seeds = [derive_trial_seed(seed, 0, j, r) for j in range(r)]
    thresholds = [right_threshold(cfg.alpha) for cfg in cfgs]
    count = 0
    x_prev = [0] * r
    for start in range(0, n, _CHUNK):
        cnt = min(_CHUNK, n - start)
        i = np.arange(start + 1, start + cnt + 1, dtype=np.int64)
        ok = np.ones(cnt, dtype=bool)
        for j in range(r):
            rights = _right_steps(stream_seeds[j], start, cnt, thresholds[j])
            x = x_prev[j] + np.cumsum(rights, dtype=np.int64)
            ok &= visible_mask(bb, x, i - x)
            x_prev[j] = int(x[-1])
        count += int(np.count_nonzero(ok))
    return TrialResult(0, count, n)


def _run_trial(spec: SimulationSpec, t: int) -> TrialResult:
    seed_t = derive_trial_seed(spec.master_seed, t, 0, 1)
    if isinstance(spec.mode, WatchpointsMode):
        res = simulate_watchpoint_run(
            spec.b, spec.mode.watchpoints, spec.mode.alpha, spec.steps, seed_t
        )
    else:
        res = simulate_walkers_run(spec.b, spec.mode.alphas, spec.steps, seed_t)
    return TrialResult(t, res.visible_count, res.steps)


def _batched_watchpoint_counts(spec: SimulationSpec) -> np.ndarray:
    """All trial counts at once for small n; bit-identical to _run_trial.

    Collapses the two seed derivations (master -> trial -> stream) and the
    per-step uniforms into direct SplitMix64 index arithmetic.
    """
    from .walk import mix_u64  # local import keeps module load light

    mode = spec.mode
    n, T = spec.steps, spec.trials
    threshold = right_threshold(mode.alpha.alpha)
    points = mode.watchpoints.points
    gamma = np.uint64(GOLDEN_GAMMA)
    counts = np.empty(T, dtype=np.int64)
    step_idx = np.arange(1, n + 1, dtype=np.uint64)
    i_row = np.arange(1, n + 1, dtype=np.int64)
    block = max(1, 4_000_000 // n)
    with np.errstate(over="ignore"):
        for t0 in range(0, T, block):
            tcnt = min(block, T - t0)
            t_idx = np.arange(t0 + 1, t0 + tcnt + 1, dtype=np.uint64)
            trial_seeds = mix_u64(np.uint64(spec.master_seed & MASK64) + t_idx * gamma)
            stream_seeds = mix_u64(trial_seeds + gamma)
            z = mix_u64(stream_seeds[:, None] + step_idx[None, :] * gamma)
            z >>= np.uint64(11)
            x = np.cumsum(z < threshold, axis=1, dtype=np.int64)
            y = i_row[None, :] - x
            ok = np.ones(x.shape, dtype=bool)
            for ux, vy in points:
                ok &= visible_mask(spec.b, x - ux, y - vy)
            counts[t0 : t0 + tcnt] = ok.sum(axis=1)
    return counts


def aggregate_trials(spec: SimulationSpec, theory: DensityResult, threads: int = 1) -> AggregateResult:
    """Run all trials of the spec and aggregate in ascending trial order.

    The per-trial seeds depend only on (master_seed, trial index), so the
    result is identical whether trials run serially, threaded, or batched.
    """
    T = spec.trials
    if (
        isinstance(spec.mode, WatchpointsMode)
        and spec.steps <= _BATCH_STEP_LIMIT
        and T >= 128
    ):
        counts = _batched_watchpoint_counts(spec)
        results = [TrialResult(t, int(counts[t]), spec.steps) for t in range(T)]
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


def _check_exact_cap(n: int) -> None:
    if n < 1:
        raise ValueError(f"steps must be >= 1, got {n}")
    if n > EXACT_STEP_CAP:
        raise CapacityError(f"exact oracles are capped at n = {EXACT_STEP_CAP}, got {n}")


def exact_expectation_watchpoints(b, watchpoints, alpha, n) -> float:
    """Exact E of the visible-step proportion over n steps.

    Sums, for each step i, the binomial mass of the positions (k, i-k) that
    are visible from every watchpoint, with the same on-watchpoint and
    shared-coordinate conventions as the simulator.  The pmf is evaluated
    per term in log space to dodge underflow for i in the hundreds.
    """
    bb = as_bexp(b)
    wset = watchpoints if isinstance(watchpoints, WatchpointSet) else validate_watchpoint_set(bb, watchpoints)
    a = as_walker(alpha).alpha
    _check_exact_cap(n)
    lg = gammaln(np.arange(n + 2, dtype=np.float64))
    log_a, log_1a = math.log(a), math.log1p(-a)
    per_step = []
    for i in range(1, n + 1):
        k = np.arange(i + 1, dtype=np.int64)
        kf = k.astype(np.float64)
        pmf = np.exp(lg[i + 1] - lg[k + 1] - lg[i - k + 1] + kf * log_a + (i - kf) * log_1a)
        ok = np.ones(i + 1, dtype=bool)
        for ux, vy in wset.points:
            ok &= visible_mask(bb, k - ux, (i - k) - vy)
        per_step.append(float(pmf[ok].sum()))
    return math.fsum(per_step) / n


def exact_expectation_walkers(b, alphas, n) -> float:
    """Exact E of the all-walkers-visible proportion over n steps.

    Independence makes the step-i probability a product over walkers of
    one-walker visible-mass sums, each over positions (k, i-k).
    """
    bb = as_bexp(b)
    cfgs = tuple(as_walker(a) for a in alphas)
    if not cfgs:
        raise ValueError("need at least one walker")
    _check_exact_cap(n)
    lg = gammaln(np.arange(n + 2, dtype=np.float64))
    per_step = []
    for i in range(1, n + 1):
        k = np.arange(i + 1, dtype=np.int64)
        kf = k.astype(np.float64)
        ok = visible_mask(bb, k, i - k)
        base = lg[i + 1] - lg[k + 1] - lg[i - k + 1]
        mass_by_alpha: dict[float, float] = {}
        prob = 1.0
        for cfg in cfgs:
            a = cfg.alpha
            if a not in mass_by_alpha:
                pmf = np.exp(base + kf * math.log(a) + (i - kf) * math.log1p(-a))
                mass_by_alpha[a] = float(pmf[ok].sum())
            prob *= mass_by_alpha[a]
        per_step.append(prob)
    return math.fsum(per_step) / n
