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

import bisect
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .numtheory import BExponent, CapacityError, DensityResult, _iroot, as_bexp, sieve_primes
from .visibility import WatchpointSet, validate_watchpoint_set, visible_mask
from .walk import (
    MASK64,
    WalkerConfig,
    as_walker,
    mix_u64,
    right_threshold,
    splitmix64_block,
    stream_increments,
)

#: Largest step count accepted by the exact expectation oracles.
EXACT_STEP_CAP = 2000

_CHUNK = 1 << 20
_BYTE_ONES = np.uint64(0x0101010101010101)
# Points within this reach of the origin keep the primes the candidate
# sieve strides over (see _candidates), those up to reach**(1/lo) <= 2**26,
# inside MAX_TABLE_ENTRIES.
_ALIVE_REACH = 1 << 52
_BATCH_STEP_LIMIT = 64
# The alive path masks its later walkers in groups of at most _GROUP_CAP,
# gathering at most _GROUP_BUDGET positions per group (or one walker's alive
# steps, when more), which bounds the memory of a group's mask.
_GROUP_CAP = 32
_GROUP_BUDGET = 1 << 15
_ORIGIN = ((0, 0),)
# The process's one trial pool as (threads, executor), so that repeated
# requests reuse its idle threads instead of starting new ones.
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class WatchpointsMode:
    """One walker observed from a watchpoint set (a raw point list is
    validated when the spec runs)."""

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


def _moves(seed_col, incs, limit: int, z, w, right) -> np.ndarray:
    """The right moves (a bool per step) of the streams seeded by the uint64
    column seed_col over one step chunk, a row per seed, written into right.
    A draw w moves right exactly when w < limit = right_threshold(alpha) << 11
    (as the threshold is below 2**53).  When limit's low 33 bits are 0, the
    mixer's last xorshift, which keeps bits 63..33, cannot change that test
    and is skipped.  z and w are uint64 scratch of right's shape."""
    np.add(seed_col, incs, out=z)
    mix_u64(z, out=w, last=limit % 2**33 != 0)
    return np.less(w, np.uint64(limit), out=right)


def _positions(seed_col, incs, limit, x_prev, z, w, right) -> np.ndarray:
    """x over one step chunk (see _moves), each row continuing from x_prev,
    as an int64 view of z of right's shape.  z, w and right hold a row per
    seed, padded past the chunk's len(incs) steps to whole 8-step words;
    x_prev advances in place to each row's last real step, and x is junk
    past it.  right is left holding byte counts, and w is free again.

    Viewed as little-endian words, the moves times 0x0101010101010101 hold
    in each byte the count of right moves through it within its word, the
    top byte the word's total.  A 1-D cumsum of those totals, into its own
    output (a cumsum over rows, or in place, holds the GIL), gives each
    word's base, and one broadcast add of the bytes writes x."""
    cnt = incs.size
    _moves(seed_col, incs, limit, z[:, :cnt], w[:, :cnt], right[:, :cnt])
    words = right.view("<u8")
    words *= _BYTE_ONES  # bytes past cnt change only later bytes and the last total
    base = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum((words >> np.uint64(56)).view(np.int64).ravel(), out=base[1:])
    base = base[:-1].reshape(words.shape)
    base += (x_prev - base[:, 0])[:, None]  # each row from its own x_prev
    x = z.view(np.int64)
    shape = (*words.shape, 8)
    np.add(base[..., None], right.view(np.uint8).reshape(shape), out=x.reshape(shape))
    x_prev[:] = x[:, cnt - 1]
    return x


# The trials of a request share their step chunks, so one entry serves them all.
@lru_cache(maxsize=1)
def _chunk_steps(start: int, cnt: int) -> tuple[np.ndarray, np.ndarray]:
    """The step indices start + 1 .. start + cnt as int64, and their
    SplitMix64 increments (see stream_increments).  Read-only, so trials on
    other threads may share them."""
    i = np.arange(start + 1, start + cnt + 1, dtype=np.int64)
    incs = stream_increments(start, cnt)
    i.flags.writeable = incs.flags.writeable = False
    return i, incs


@lru_cache(maxsize=1)
def _candidates(lo: int, start: int, cnt: int, points) -> np.ndarray:
    """Over the steps i = start + 1 .. start + cnt, those at which, for some
    point, s = i - (u + v) is 0 or has a prime p with p**lo | s.  Elsewhere
    every displacement from every point is visible unless it lies on an
    axis: an off-axis hidden displacement (dx, dy) has p**lo dividing both,
    so dx + dy = s.  Each distinct w = u + v marks s = 0 and strides over
    the multiples of p**lo, for the primes p with p**lo <= max|s|.
    Read-only, so trials on other threads may share it."""
    cand = np.zeros(cnt, dtype=bool)
    for w in {u + v for u, v in points}:
        if start < w <= start + cnt:
            cand[w - start - 1] = True
        reach = max(abs(start + 1 - w), abs(start + cnt - w), 1)
        for p in sieve_primes(_iroot(reach, lo)).tolist():
            cand[(w - start - 1) % p**lo :: p**lo] = True
    cand.flags.writeable = False
    return cand


def _counts(p: np.ndarray) -> np.ndarray:
    """Running counts of the True entries of bool flags packed 64 to a word,
    p = np.packbits(flags, bitorder="little").view("<u8"), in each row of p:
    bit t of p[..., w] is flags[..., 64w + t], and c[..., w] counts them in
    flags[..., : 64w], for w up to the row length.  One 1-D cumsum over all
    rows, into its own output, less each row's start: a cumsum over rows,
    or one that casts, holds the GIL."""
    rows = p.reshape(-1, p.shape[-1])
    run = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(rows).astype(np.int64).ravel(), out=run[1:])
    c = np.zeros((len(rows), rows.shape[1] + 1), dtype=np.int64)
    np.subtract(run[1:].reshape(rows.shape), run[:-1 : rows.shape[1], None], out=c[:, 1:])
    return c.reshape(*p.shape[:-1], -1)


def _count_through(p: np.ndarray, c: np.ndarray, k: np.ndarray, out=None) -> np.ndarray:
    """The number of True entries in flags[..., : k + 1] (see _counts), at
    each index k and in each row: the count before k's word, plus the bits
    of the word through k, shifted to the top.  Into out, an int64 array of
    the result's shape, when given."""
    w = k >> 6
    n = c.take(w, axis=-1, out=out, mode="clip")  # clip: out would be buffered for "raise"
    n += np.bitwise_count(p.take(w, axis=-1) << (~k & 63).view(np.uint64))
    return n


def _first_reaching(p: np.ndarray, c: np.ndarray, level: int, true: bool) -> int:
    """The smallest index whose count of True (with true=False, of False)
    entries through it reaches level: 0 for a level up to 0, and the padded
    length when the count never gets there."""
    if level <= 0:
        return 0

    def before(w: int) -> int:  # entries of the kind in words 0 .. w - 1
        return int(c[w]) if true else 64 * w - int(c[w])

    m = 1  # gallop to the first word past the level, as axis runs mostly start early
    while m <= p.size and before(m) < level:
        m *= 2
    w = bisect.bisect_left(range(m // 2 + 1, min(m, p.size) + 1), level, key=before) + m // 2
    if w == p.size:
        return 64 * w
    word = int(p[w]) if true else ~int(p[w]) & MASK64
    for _ in range(level - before(w) - 1):  # clear the word's lower entries of the kind
        word &= word - 1
    return 64 * w + (word & -word).bit_length() - 1


def _axis_runs(p, c, cnt: int, x0: int, start: int, points, ok) -> list[tuple[np.ndarray, np.ndarray]]:
    """Offsets into the chunk of the steps in ok at which the walk meets a
    point's axis (x == u or y == v), with the walk's x there, a pair of
    arrays per axis met.  p and c count its right moves over the chunk (see
    _counts), which follows step start at x = x0.  The walk is at x == u
    while its count of right moves reaches u - x0 and not yet one more, and
    at y == v likewise with the up moves."""
    rights = int(c[-1])
    runs = []
    for u, v in points:
        for true, level, count in ((True, u - x0, rights), (False, v - start + x0, cnt - rights)):
            if 0 <= level <= count:
                lo = _first_reaching(p, c, level, true)
                hi = min(_first_reaching(p, c, level + 1, true), cnt)
                if lo < hi:
                    steps = lo + np.flatnonzero(ok[lo:hi])
                    runs.append((steps, np.full(steps.size, u) if true else steps + (start + 1 - v)))
    return runs


def _box(x0: np.ndarray, x1: np.ndarray, start: int, cnt: int) -> tuple:
    """visible_mask bounds on the positions over steps start + 1 .. start +
    cnt of the walks at x0 after step start and at x1 after the chunk, an
    entry per walk: x never falls, and y = i - x."""
    return (int(x0.min()), int(x1.max())), (start - int(x0.max()), start + cnt - int(x1.min()))


def _visible_counts(b, trial_seeds: np.ndarray, alphas, points, n: int) -> np.ndarray:
    """Visible-step count of each trial seed over steps 1..n.

    Trial t runs one stream per alpha, stream j seeded with
    derive_trial_seed(trial_seeds[t], 0, j, len(alphas)).  A step counts
    when, for every stream and every point, the stream's position minus the
    point is b-visible.  Work goes in (trial block x step chunk) units of at
    most _CHUNK steps per stream, each stream's x carrying across chunks,
    with the draws made in place in per-block buffers.

    With several streams, lo = min(b) >= 2 and a block of one trial, stream
    0 is masked at every step and each later stream only at the steps it
    could still hide: the alive candidate steps (see _candidates) and the
    steps of its own axis runs not yet hidden (see _axis_runs).  The later
    streams draw one at a time but are masked in groups of consecutive
    streams (see _GROUP_CAP), with one gather and one mask of the alive
    steps per group, and one mask of its axis runs.  A step's count is the
    AND over the streams, so masking a stream at a step that another of
    its group hides, or at a step twice, changes nothing.  The alive set
    shrinks as the groups hide steps.  Blocks of several trials (the
    batched small-n path), which measured no faster that way, keep the
    full-length mask, and so do points farther than _ALIVE_REACH.  Raises
    ValueError when a displacement could leave int64.
    """
    _check_steps(points, n)
    points = tuple((int(u), int(v)) for u, v in points)  # hashable, for _candidates
    limits = [int(right_threshold(a)) << 11 for a in alphas]
    lo = as_bexp(b).lo
    prune = (
        len(limits) > 1
        and lo >= 2
        and max(abs(u) + abs(v) for u, v in points) + n < _ALIVE_REACH
    )
    counts = np.zeros(len(trial_seeds), dtype=np.int64)
    block = max(1, _CHUNK // max(n, len(limits)))  # bounds the seed and carry matrices too
    for t0 in range(0, len(trial_seeds), block):
        seeds = splitmix64_block(trial_seeds[t0 : t0 + block, None], 0, len(limits))
        tb = len(seeds)
        alive_path = prune and tb == 1
        x_prev = np.zeros(seeds.shape, dtype=np.int64)
        bufs = np.empty((2, tb * (min(n, _CHUNK) + 7)), dtype=np.uint64)
        gx, gy = bufs.view(np.int64)  # a group's gathers, between its draws
        flags = np.zeros((bufs.shape[1] // 64 + 1) * 64, dtype=bool)  # a False word past the end
        for start in range(0, n, _CHUNK):
            cnt = min(_CHUNK, n - start)
            i, incs = _chunk_steps(start, cnt)
            row = cnt + -cnt % 8  # padded to whole 8-step words, for _positions
            z, w = bufs[:, : tb * row].reshape(2, tb, row)
            r = flags[: tb * row].reshape(tb, row)
            y = w.view(np.int64)[:, :cnt]
            ok = np.ones(tb * cnt, dtype=bool)
            for j in range(1 if alive_path else len(limits)):
                x0 = x_prev[:, j].copy()
                x = _positions(seeds[:, j, None], incs, limits[j], x_prev[:, j], z, w, r)[:, :cnt]
                np.subtract(i, x, out=y)
                box = _box(x0, x_prev[:, j], start, cnt)
                ok &= visible_mask(b, x, y, points, bounds=box).ravel()
            if alive_path:
                cand = _candidates(lo, start, cnt, points)
                alive = np.flatnonzero(ok & cand)
                real = z[:, :cnt], w[:, :cnt], r[:, :cnt]
                padded = flags[: (cnt // 64 + 1) * 64]
                padded[cnt:] = False
                words = np.empty((_GROUP_CAP, padded.size // 64), dtype=np.uint64)
                j = 1
                while j < len(limits):
                    room = min(_GROUP_BUDGET, cnt) // max(alive.size, 1)  # gx and gy hold cnt entries
                    g = max(1, min(_GROUP_CAP, len(limits) - j, room))
                    p = words[:g]
                    for k in range(g):
                        _moves(seeds[:, j + k, None], incs, limits[j + k], *real)
                        p[k] = np.packbits(padded, bitorder="little").view("<u8")
                    c = _counts(p)
                    x0 = x_prev[0, j : j + g].copy()
                    x_prev[0, j : j + g] += c[:, -1]
                    box = _box(x0, x_prev[0, j : j + g], start, cnt)
                    runs = []
                    for k in range(g):
                        runs += _axis_runs(p[k], c[k], cnt, int(x0[k]), start, points, ok)
                    if runs:
                        idx, xs = map(np.concatenate, zip(*runs))
                        vis = visible_mask(b, xs, idx + (start + 1) - xs, points, bounds=box)
                        ok[idx[~vis]] = False  # not ok[idx] = vis: two streams may share a step
                        alive = alive[ok[alive]]
                    m = alive.size
                    xs = _count_through(p, c, alive, out=gx[: g * m].reshape(g, m))
                    xs += x0[:, None]
                    ys = np.subtract(alive + (start + 1), xs, out=gy[: g * m].reshape(g, m))
                    keep = visible_mask(b, xs, ys, points, bounds=box).all(axis=0)
                    ok[alive[~keep]] = False
                    alive = alive[keep]
                    j += g
            counts[t0 : t0 + tb] += np.count_nonzero(ok.reshape(tb, cnt), axis=1)
    return counts


def _one_trial(b, seed: int, alphas, points, n: int) -> TrialResult:
    count = _visible_counts(b, np.array([seed & MASK64], dtype=np.uint64), alphas, points, n)[0]
    return TrialResult(0, int(count), n)


def simulate_watchpoint_run(b, watchpoints, alpha, n, seed) -> TrialResult:
    """One seeded trial: the count of steps 1..n visible from every watchpoint.

    A step landing exactly on a watchpoint is not visible.  ``watchpoints``
    may be a point list or a WatchpointSet, checked by validate_watchpoint_set.
    """
    bb = as_bexp(b)
    return _one_trial(bb, seed, (as_walker(alpha),), validate_watchpoint_set(bb, watchpoints).points, n)


def simulate_walkers_run(b, alphas, n, seed) -> TrialResult:
    """One seeded trial: steps at which all walkers are visible from the origin.

    Walker j's stream seed is the (j+1)-th output of the given seed, so the
    walkers are mutually independent and the whole trial reproducible.
    """
    cfgs = tuple(as_walker(a) for a in alphas)
    if not cfgs:
        raise ValueError("need at least one walker")
    return _one_trial(as_bexp(b), seed, cfgs, _ORIGIN, n)


def _map_trials(run, seeds, threads: int):
    """Map run over the seeds, in order: by plain map with fewer than 2
    threads or seeds, else on the shared pool, first replacing it if its
    thread count differs, so no more threads idle than the last request
    asked for.
    Submitting under the lock keeps another call from shutting the pool down
    in between; a replaced pool still runs what it was given.
    """
    if threads < 2 or len(seeds) < 2:
        return map(run, seeds)
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (threads, ThreadPoolExecutor(max_workers=threads))
        return _pool[1].map(run, seeds)


def aggregate_trials(spec: SimulationSpec, theory: DensityResult, threads: int = 1) -> AggregateResult:
    """Run all trials of the spec and aggregate in ascending trial order.

    Trial t runs from seed t of one splitmix64_block(master_seed, 0, T),
    which is derive_trial_seed(master_seed, t, 0, 1), so the result is
    identical whether trials run serially, threaded, or batched.  At or
    below _BATCH_STEP_LIMIT steps, all trials go to the engine in one call;
    above it, the per-trial simulator maps over the seeds.
    """
    T, n, mode = spec.trials, spec.steps, spec.mode
    if isinstance(mode, WatchpointsMode):
        wset = validate_watchpoint_set(spec.b, mode.watchpoints)  # once here; each trial returns it at once
        alphas, points = (mode.alpha,), wset.points
        run = partial(simulate_watchpoint_run, spec.b, wset, mode.alpha, n)
    else:
        alphas, points = mode.alphas, _ORIGIN
        run = partial(simulate_walkers_run, spec.b, mode.alphas, n)
    seeds = splitmix64_block(spec.master_seed, 0, T)
    if n <= _BATCH_STEP_LIMIT:
        counts = _visible_counts(spec.b, seeds, alphas, points, n).tolist()
    else:
        counts = [r.visible_count for r in _map_trials(run, seeds.tolist(), threads)]
    results = [TrialResult(t, c, n) for t, c in enumerate(counts)]

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
    the hundreds, from lf[j] = log(j!) of the exact factorial.
    """
    _check_steps(points, n)
    if n > EXACT_STEP_CAP:
        raise CapacityError(f"exact oracles are capped at n = {EXACT_STEP_CAP}, got {n}")
    fact, lf = 1, [0.0]
    for j in range(1, n + 1):
        fact *= j
        lf.append(math.log(fact))
    lf = np.array(lf)
    logs = [(math.log(a), math.log1p(-a)) for a in alphas]
    mass = np.empty((n, len(alphas)))
    for i in range(1, n + 1):
        k = np.arange(i + 1, dtype=np.int64)
        kf = k.astype(np.float64)
        ok = visible_mask(b, k, i - k, points)
        base = lf[i] - lf[k] - lf[i - k]
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
    mass = _visible_mass(bb, validate_watchpoint_set(bb, watchpoints).points, [as_walker(alpha).alpha], n)
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
