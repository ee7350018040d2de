import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkvis.estimators
import walkvis.visibility
from walkvis.estimators import (
    EXACT_STEP_CAP,
    SimulationSpec,
    WalkersMode,
    WatchpointsMode,
    _chunk_steps,
    _count_through,
    _counts,
    _first_reaching,
    _positions,
    _visible_counts,
    aggregate_trials,
    exact_expectation_walkers,
    exact_expectation_watchpoints,
    simulate_walkers_run,
    simulate_watchpoint_run,
)
from walkvis.numtheory import CapacityError, as_bexp
from walkvis.theory import density_walkers, density_watchpoints
from walkvis.visibility import WatchpointValidationError, is_b_visible, validate_watchpoint_set
from walkvis.walk import WalkerConfig, derive_trial_seed, mix_u64, right_threshold, walk_positions


def exact_mean_by_enumeration(b, points, alpha, n):
    """Independent oracle: exact binomial coefficients, direct masking."""
    total = 0.0
    for i in range(1, n + 1):
        mass = 0.0
        for k in range(i + 1):
            pos = (k, i - k)
            if pos in points:
                continue
            if all(is_b_visible(b, pos, w) for w in points):
                mass += math.comb(i, k) * alpha**k * (1 - alpha) ** (i - k)
        total += mass
    return total / n


def test_exact_expectation_hand_case():
    # per-step visible masses 1, 1/2, 3/4, 7/8 -> mean 0.78125
    val = exact_expectation_watchpoints((1, 2), [(0, 0)], 0.5, 4)
    assert abs(val - 0.78125) < 1e-12


def test_exact_expectation_first_step_always_visible():
    for b in [(1, 1), (1, 2), (2, 3)]:
        assert abs(exact_expectation_watchpoints(b, [(0, 0)], 0.37, 1) - 1.0) < 1e-12


def test_exact_expectation_matches_enumeration():
    points = [(0, 0), (1, 2), (2, 1)]
    want = exact_mean_by_enumeration((1, 2), points, 0.5, 25)
    got = exact_expectation_watchpoints((1, 2), points, 0.5, 25)
    assert abs(want - got) < 1e-11
    want = exact_mean_by_enumeration((2, 3), [(0, 0)], 0.3, 25)
    got = exact_expectation_watchpoints((2, 3), [(0, 0)], 0.3, 25)
    assert abs(want - got) < 1e-11


def test_exact_walkers_reduces_to_watchpoints_at_r1():
    for b, alpha in [((1, 2), 0.5), ((2, 3), 0.3)]:
        lhs = exact_expectation_walkers(b, [alpha], 60)
        rhs = exact_expectation_watchpoints(b, [(0, 0)], alpha, 60)
        assert abs(lhs - rhs) < 1e-12


def test_exact_walkers_equal_alpha_power_identity():
    # step-i probability for r equal walkers is the one-walker mass to the r-th
    b, alpha, n, r = (2, 3), 0.4, 40, 3

    def one_walker_mass(i):
        return sum(
            math.comb(i, k) * alpha**k * (1 - alpha) ** (i - k)
            for k in range(i + 1)
            if is_b_visible(b, (k, i - k), (0, 0))
        )

    want = sum(one_walker_mass(i) ** r for i in range(1, n + 1)) / n
    got = exact_expectation_walkers(b, [alpha] * r, n)
    assert abs(want - got) < 1e-10


def test_exact_cap():
    with pytest.raises(CapacityError):
        exact_expectation_watchpoints((1, 2), [(0, 0)], 0.5, EXACT_STEP_CAP + 1)
    with pytest.raises(CapacityError):
        exact_expectation_walkers((1, 2), [0.5], EXACT_STEP_CAP + 1)


def test_exact_expectation_near_density_at_n_1000():
    # finite-n bias is ~n^(-1/2), so n=1000 sits close to the limiting density
    got = exact_expectation_watchpoints((1, 2), [(0, 0), (1, 2), (2, 1)], 0.5, 1000)
    assert abs(got - 0.534567) < 0.02
    got = exact_expectation_walkers((2, 3), [0.5, 0.5], 1000)
    assert abs(got - 0.933076) < 0.02


def test_simulate_axis_walk_sees_origin_once():
    # alpha ~ 1: the walk hugs the x-axis, so only step 1 is visible from (0,0)
    res = simulate_watchpoint_run((1, 2), [(0, 0)], 1 - 1e-15, 50, 99)
    assert res.visible_count == 1
    assert res.proportion == 1 / 50


def test_simulate_single_step():
    res = simulate_watchpoint_run((1, 2), [(0, 0)], 0.5, 1, 3)
    assert res.visible_count == 1 and res.proportion == 1.0  # both neighbors visible


def test_walkers_r1_equals_watchpoint_origin_run():
    for seed in (1, 9, 314159):
        a = simulate_walkers_run((2, 3), [0.5], 5000, seed)
        b = simulate_watchpoint_run((2, 3), [(0, 0)], 0.5, 5000, seed)
        assert a.visible_count == b.visible_count


def test_simulation_is_deterministic():
    wset = validate_watchpoint_set((1, 2), [(0, 0), (1, 2), (2, 1)])
    spec = SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.5)), 2000, 5, 42)
    theory = density_watchpoints((1, 2), 3)
    a = aggregate_trials(spec, theory)
    b = aggregate_trials(spec, theory)
    assert a == b


def test_aggregate_single_trial_std_zero():
    wset = validate_watchpoint_set((1, 2), [(0, 0)])
    spec = SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.5)), 500, 1, 7)
    agg = aggregate_trials(spec, density_watchpoints((1, 2), 1))
    assert agg.sample_std == 0.0
    assert agg.mean_proportion == agg.trial_results[0].proportion


def test_aggregate_matches_independent_trial_order():
    wset = validate_watchpoint_set((2, 3), [(0, 0), (1, 2)])
    spec = SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.4)), 1000, 6, 11)
    theory = density_watchpoints((2, 3), 2)
    agg = aggregate_trials(spec, theory)
    # recompute each trial in reverse order; aggregation must not care
    reversed_counts = [
        simulate_watchpoint_run(wset.b, wset, 0.4, 1000, derive_trial_seed(11, t, 0, 1)).visible_count
        for t in range(5, -1, -1)
    ]
    assert reversed_counts[::-1] == [t.visible_count for t in agg.trial_results]
    mean = math.fsum(c / 1000 for c in reversed_counts) / 6
    assert abs(mean - agg.mean_proportion) < 1e-15


def test_threaded_aggregation_identical():
    wset = validate_watchpoint_set((1, 2), [(0, 0), (1, 2), (2, 1)])
    spec = SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.5)), 3000, 8, 5)
    theory = density_watchpoints((1, 2), 3)
    assert aggregate_trials(spec, theory, threads=1) == aggregate_trials(spec, theory, threads=4)


def test_trial_pool_kept_until_thread_count_changes():
    wset = validate_watchpoint_set((1, 2), [(0, 0), (1, 2), (2, 1)])
    spec = SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.5)), 500, 4, 9)
    theory = density_watchpoints((1, 2), 3)
    serial = aggregate_trials(spec, theory, threads=1)
    assert aggregate_trials(spec, theory, threads=2) == serial
    pool = walkvis.estimators._pool
    assert pool[0] == 2
    assert aggregate_trials(spec, theory, threads=2) == serial
    assert walkvis.estimators._pool is pool  # reused, not rebuilt
    assert aggregate_trials(spec, theory, threads=3) == serial
    assert walkvis.estimators._pool[0] == 3
    with pytest.raises(RuntimeError):  # the replaced pool was shut down
        pool[1].submit(int)


def test_trial_pool_shared_by_concurrent_callers():
    # callers asking for different thread counts replace the pool under each
    # other; each must still get every trial of its own request
    wset = validate_watchpoint_set((1, 2), [(0, 0), (1, 2), (2, 1)])
    spec = SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.5)), 100, 3, 11)
    theory = density_watchpoints((1, 2), 3)
    serial = aggregate_trials(spec, theory, threads=1)
    results, errors = [], []

    def caller(threads):
        try:
            results.extend(aggregate_trials(spec, theory, threads=threads) for _ in range(10))
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    callers = [threading.Thread(target=caller, args=(k,)) for k in (2, 3, 2, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert errors == []
    assert results == [serial] * 40


def test_batched_small_n_matches_serial():
    wset = validate_watchpoint_set((1, 2), [(0, 0), (1, 2), (2, 1)])
    walkers = (WalkerConfig(0.5), WalkerConfig(0.3), WalkerConfig(0.7))
    runs = (
        (WatchpointsMode(wset, WalkerConfig(0.5)), lambda seed: simulate_watchpoint_run(wset.b, wset, 0.5, 20, seed)),
        (WalkersMode(walkers), lambda seed: simulate_walkers_run(wset.b, walkers, 20, seed)),
    )
    for mode, run in runs:
        spec = SimulationSpec(wset.b, mode, 20, 300, 31)
        agg = aggregate_trials(spec, density_watchpoints((1, 2), 3))  # batched: n <= 64
        serial = [run(derive_trial_seed(31, t, 0, 1)) for t in range(300)]
        assert [t.visible_count for t in agg.trial_results] == [t.visible_count for t in serial]


def test_raw_watchpoint_list_matches_validated_set():
    # n = 10 takes the batched path, n = 100 the per-trial one
    raw = [(0, 0), (1, 2)]
    wset = validate_watchpoint_set((1, 2), raw)
    theory = density_watchpoints((1, 2), 2)
    for n in (10, 100):
        specs = [SimulationSpec(wset.b, WatchpointsMode(w, WalkerConfig(0.5)), n, 3, 5) for w in (raw, wset)]
        assert aggregate_trials(specs[0], theory) == aggregate_trials(specs[1], theory)


def test_raw_watchpoint_list_validated_once(monkeypatch):
    # n = 100 takes the per-trial path, whose 20 trials must not check the
    # 3 pairs again: a revalidation in each would make 60 more calls
    raw = [(0, 0), (1, 2), (2, 1)]
    wset = validate_watchpoint_set((1, 2), raw)
    theory = density_watchpoints((1, 2), 3)
    want = aggregate_trials(SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.5)), 100, 20, 7), theory)
    calls = []

    def counting(b, p, q, tables=None):
        calls.append((p, q))
        return is_b_visible(b, p, q, tables)

    monkeypatch.setattr(walkvis.visibility, "is_b_visible", counting)
    spec = SimulationSpec(wset.b, WatchpointsMode(raw, WalkerConfig(0.5)), 100, 20, 7)
    for threads in (1, 2):
        calls.clear()
        assert aggregate_trials(spec, theory, threads=threads) == want
        assert len(calls) == 3


def test_watchpoint_set_for_another_b_is_validated_again():
    # a set validated for (2, 1) whose pair is not (1, 2)-visible must not
    # pass as valid at (1, 2)
    q = next((x, y) for x in range(1, 20) for y in range(1, 20)
             if is_b_visible((2, 1), (0, 0), (x, y)) and not is_b_visible((1, 2), (0, 0), (x, y)))
    wset = validate_watchpoint_set((2, 1), [(0, 0), q])
    spec = SimulationSpec(as_bexp((1, 2)), WatchpointsMode(wset, WalkerConfig(0.5)), 100, 2, 7)
    calls = (
        lambda: simulate_watchpoint_run((1, 2), wset, 0.5, 100, 7),
        lambda: aggregate_trials(spec, density_watchpoints((1, 2), 2)),
        lambda: exact_expectation_watchpoints((1, 2), wset, 0.5, 10),
    )
    for call in calls:
        with pytest.raises(WatchpointValidationError):
            call()


def test_monte_carlo_agrees_with_exact_oracle():
    b = (1, 2)
    wset = validate_watchpoint_set(b, [(0, 0), (1, 2), (2, 1)])
    n, trials = 50, 40_000
    exact = exact_expectation_watchpoints(b, wset, 0.5, n)
    spec = SimulationSpec(wset.b, WatchpointsMode(wset, WalkerConfig(0.5)), n, trials, 1234)
    agg = aggregate_trials(spec, density_watchpoints(b, 3))
    stderr = agg.sample_std / math.sqrt(trials)
    assert abs(agg.mean_proportion - exact) <= 5 * stderr


def test_walkers_mode_spec_roundtrip():
    spec = SimulationSpec(
        validate_watchpoint_set((2, 3), [(0, 0)]).b,
        WalkersMode((WalkerConfig(0.5), WalkerConfig(0.3))),
        100,
        4,
        9,
    )
    agg = aggregate_trials(spec, density_walkers((2, 3), 2))
    assert agg.trials == 4
    assert all(0 <= t.visible_count <= 100 for t in agg.trial_results)
    with pytest.raises(ValueError):
        WalkersMode(())
    with pytest.raises(ValueError):
        SimulationSpec(spec.b, spec.mode, 0, 1, 0)


def scalar_counts(b, trial_seeds, alphas, points, n):
    """Independent recount of _visible_counts: each stream walked step by step
    with walk_positions, each displacement checked with is_b_visible."""
    counts = []
    for seed in trial_seeds:
        walks = [
            list(walk_positions(a, derive_trial_seed(seed, 0, j, len(alphas)), n))
            for j, a in enumerate(alphas)
        ]
        counts.append(sum(
            all(pos[i] != w and is_b_visible(b, pos[i], w) for pos in walks for w in points)
            for i in range(n)
        ))
    return counts


@st.composite
def engine_cases(draw):
    b = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (2, 5), (3, 4)]))
    alphas = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), min_size=1, max_size=5))
    n = draw(st.integers(1, 200))
    # near the walk, so that axis runs and steps with i == u + v occur
    coord = st.integers(-30, n + 30)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3, unique=True))
    # one seed takes the per-trial block, several a batched block
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=max(1, min(100, 1500 // n))))
    return b, alphas, points, n, seeds


@settings(max_examples=60, deadline=None)
@given(engine_cases())
def test_visible_counts_matches_scalar_walk(case):
    b, alphas, points, n, seeds = case
    got = _visible_counts(b, np.array(seeds, dtype=np.uint64), alphas, points, n)
    assert got.tolist() == scalar_counts(b, seeds, alphas, points, n)


def test_visible_counts_at_steps_with_zero_displacement_sum():
    # from (16, 0) or (8, 8), step 16 has dx + dy = 0, and p**lo divides 0 for
    # every p: a later walker at (8, 8) or (16, 0) can hide it
    alphas = (0.9, 0.5, 0.9)
    for points in ([(16, 0)], [(8, 8)], [(0, 0), (16, 0)]):
        for seed in range(40):
            got = _visible_counts((2, 3), np.array([seed], dtype=np.uint64), alphas, points, 40)
            assert got.tolist() == scalar_counts((2, 3), [seed], alphas, points, 40), (points, seed)


def test_visible_counts_across_chunks(monkeypatch):
    # small chunks: each walker's x carries over, and axis runs and steps
    # with i == u + v fall in later chunks
    monkeypatch.setattr(walkvis.estimators, "_CHUNK", 40)
    points = [(0, 0), (60, 30), (45, 45), (20, 70)]
    for b in ((2, 3), (3, 2), (1, 2)):
        for seed in range(6):
            got = _visible_counts(b, np.array([seed], dtype=np.uint64), (0.5, 0.6, 0.4), points, 150)
            assert got.tolist() == scalar_counts(b, [seed], (0.5, 0.6, 0.4), points, 150), (b, seed)


# alphas on the 2**-31 grid (the mixer's last xorshift skipped) and off it
MIXED_ALPHAS = (0.5, 0.3, 0.25, 0.7, 0.375, 0.45, 0.625)


def test_grouped_later_walkers_match_scalar_walk(monkeypatch):
    # small chunks, so groups fall on both sides of chunk boundaries, and
    # points near the walk, so a group's walkers meet axes at the same step,
    # one hidden there and one visible (at step 3, (3, 0) and (1, 2) from
    # (0, 0) and (1, 1)); with a cap that these few alive steps fill, the
    # sizes seen cover a lone walker, groups cut by the budget and full groups
    monkeypatch.setattr(walkvis.estimators, "_CHUNK", 128)
    monkeypatch.setattr(walkvis.estimators, "_GROUP_CAP", 8)
    sizes = set()
    counts = walkvis.estimators._counts

    def counting(p):
        sizes.add(p.shape[0])
        return counts(p)

    monkeypatch.setattr(walkvis.estimators, "_counts", counting)
    points = [(0, 0), (1, 1), (5, 3)]
    for r in (2, 7, 40, 70):
        alphas = [MIXED_ALPHAS[j % len(MIXED_ALPHAS)] for j in range(r)]
        for b in ((2, 3), (3, 2)):
            for seed in range(3):
                got = _visible_counts(b, np.array([seed], dtype=np.uint64), alphas, points, 300)
                assert got.tolist() == scalar_counts(b, [seed], alphas, points, 300), (r, b, seed)
    cap = walkvis.estimators._GROUP_CAP
    assert {1, cap} <= sizes and any(1 < g < cap for g in sizes), sizes


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 20])
def test_group_budget_leaves_counts_unchanged(monkeypatch, chunk):
    # one walker per group, groups as large as the cap and the chunk allow,
    # and the default: the same count of every trial
    monkeypatch.setattr(walkvis.estimators, "_CHUNK", chunk)
    alphas = [MIXED_ALPHAS[j % len(MIXED_ALPHAS)] for j in range(60)]
    want = None
    for budget in (1, 1 << 30, walkvis.estimators._GROUP_BUDGET):
        monkeypatch.setattr(walkvis.estimators, "_GROUP_BUDGET", budget)
        got = [
            _visible_counts(b, np.array([seed], dtype=np.uint64), alphas, points, 5000).tolist()
            for b in ((2, 3), (3, 5))
            for points in ([(0, 0)], [(0, 0), (40, 25)])
            for seed in range(2)
        ]
        want = want or got
        assert got == want, budget


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("alpha", [0.5, 0.25, 0.3, 0.7])  # on the 2**-31 grid and off it
def test_positions_match_cumsum(rows, alpha):
    # every chunk length mod 8, rows padded to whole 8-step words as the
    # engine pads them, with junk in the padding and a carry per row
    limit = int(right_threshold(alpha)) << 11
    seeds = np.array([[7], [2**63 + 5], [2**64 - 1]][:rows], dtype=np.uint64)
    carry = np.array([0, -13, 2**40][:rows], dtype=np.int64)
    for cnt in range(1, 131):
        incs = _chunk_steps(1000, cnt)[1]
        padded = -(-cnt // 8) * 8
        z, w = np.full((2, rows, padded), 2**64 - 1, dtype=np.uint64)
        flags = np.full((rows, padded), 255, dtype=np.uint8).view(bool)
        x_prev = carry.copy()
        x = _positions(seeds, incs, limit, x_prev, z, w, flags)
        moves = mix_u64(seeds + incs) < np.uint64(limit)
        want = carry[:, None] + np.cumsum(moves, axis=1)
        assert x.shape == (rows, padded)
        assert x[:, :cnt].tolist() == want.tolist(), cnt
        assert x_prev.tolist() == want[:, -1].tolist(), cnt


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 200, 1000])
@pytest.mark.parametrize("share", [0.0, 0.5, 0.97])
def test_count_helpers_match_cumsum(n, share):
    # flags padded with False to a whole number of 64-step words, past the
    # last step, as the engine pads a chunk
    state = np.random.default_rng(n)
    flags = np.zeros((n // 64 + 1) * 64, dtype=bool)
    flags[:n] = state.random(n) < share
    p = np.packbits(flags, bitorder="little").view("<u8")
    c = _counts(p)
    ones = np.cumsum(flags)
    k = np.arange(flags.size)
    assert _count_through(p, c, k).tolist() == ones.tolist()
    # row-wise, as the engine counts a group of walkers: each row on its own
    rows = np.stack([p, ~p, np.roll(p, 1)])
    want = np.cumsum(np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little"), axis=1)
    assert _count_through(rows, _counts(rows), k).tolist() == want.tolist()
    picks = np.array([63, flags.size - 1, flags.size - 64, n - 1], dtype=np.int64)  # k & 63 == 63, last word
    assert _count_through(p, c, picks).tolist() == ones[picks].tolist()
    for true, through in ((True, ones), (False, np.cumsum(~flags))):
        total = int(through[-1])
        for level in sorted({-1, 0, 1, 2, 63, 64, 65, total // 2, total, total + 1, total + 100}):
            want = int(np.searchsorted(through, level)) if level > 0 else 0  # padded length past the count
            assert _first_reaching(p, c, level, true) == want, (true, level)
