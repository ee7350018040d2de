import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkvis.estimators import _moves
from walkvis.walk import (
    GOLDEN_GAMMA,
    MASK64,
    WalkerConfig,
    as_walker,
    derive_trial_seed,
    mix_u64,
    next_uniform,
    right_threshold,
    splitmix64_block,
    splitmix64_next,
    stream_increments,
    uniform_block,
    walk_positions,
)


def hand_mix(seed):
    # the three-step finalizer written out from the documented constants
    s = (seed + 0x9E3779B97F4A7C15) % 2**64
    z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def test_first_output_matches_hand_mix():
    z, _ = splitmix64_next(0)
    assert z == hand_mix(0) == 0xE220A8397B1DCDAF
    u, _ = next_uniform(0)
    assert u == (hand_mix(0) >> 11) * 2.0**-53
    for seed in (1, 42, 2**64 - 1, 0xDEADBEEF):
        z, _ = splitmix64_next(seed)
        assert z == hand_mix(seed)


def test_uniform_range_and_determinism():
    state = 987654321
    seen = []
    for _ in range(10_000):
        u, state = next_uniform(state)
        assert 0.0 <= u < 1.0
        seen.append(u)
    state = 987654321
    again = []
    for _ in range(10_000):
        u, state = next_uniform(state)
        again.append(u)
    assert seen == again


def test_blocks_match_scalar_stream():
    seed = 0x1234ABCD
    state = seed
    scalar = []
    for _ in range(500):
        z, state = splitmix64_next(state)
        scalar.append(z)
    assert splitmix64_block(seed, 0, 500).tolist() == scalar
    assert splitmix64_block(seed, 100, 50).tolist() == scalar[100:150]
    u_block = uniform_block(seed, 0, 500)
    assert u_block.tolist() == [(z >> 11) * 2.0**-53 for z in scalar]


def test_mix_u64_shapes():
    vals = np.arange(12, dtype=np.uint64).reshape(3, 4)
    flat = mix_u64(vals.ravel())
    assert np.array_equal(mix_u64(vals).ravel(), flat)


def test_derive_trial_seed():
    m = 777
    # first output of the master stream
    z1, _ = splitmix64_next(m)
    assert derive_trial_seed(m, 0, 0, 1) == z1
    # k-th output equals stepping k times
    state = m
    outs = []
    for _ in range(12):
        z, state = splitmix64_next(state)
        outs.append(z)
    for trial in range(3):
        for walker in range(4):
            assert derive_trial_seed(m, trial, walker, 4) == outs[trial * 4 + walker]
    # distinctness over many masters
    state = 99
    for _ in range(1000):
        z, state = splitmix64_next(state)
        assert derive_trial_seed(z, 0, 0, 2) != derive_trial_seed(z, 0, 1, 2)
    with pytest.raises(ValueError):
        derive_trial_seed(m, -1, 0, 1)


def test_walker_config_validation():
    assert as_walker(0.25).alpha == 0.25
    with pytest.raises(ValueError):
        WalkerConfig(0.0)
    with pytest.raises(ValueError):
        WalkerConfig(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, MASK64), st.floats(0.01, 0.99), st.integers(1, 300))
def test_walk_structure(seed, alpha, n):
    xs, ys = 0, 0
    for i, (x, y) in enumerate(walk_positions(WalkerConfig(alpha), seed, n), start=1):
        assert x + y == i
        assert x - xs in (0, 1) and y - ys in (0, 1)
        xs, ys = x, y


def test_walk_degenerate_drift():
    # alpha so close to 1 that 100 steps along the x-axis are certain
    # for any seed whose uniforms avoid [1-1e-15, 1)
    pts = list(walk_positions(WalkerConfig(1 - 1e-15), 2024, 100))
    assert pts == [(i, 0) for i in range(1, 101)]


def test_step_frequency():
    n = 10**6
    for seed, alpha in [(1, 0.5), (7, 0.3), (123, 0.8)]:
        rights = int((uniform_block(seed, 0, n) < alpha).sum())
        bound = 4 * (alpha * (1 - alpha) / n) ** 0.5
        assert abs(rights / n - alpha) <= bound


def test_drift_concentration_ten_seeds():
    n = 10**5
    for seed in range(1, 11):
        x_n = int((uniform_block(seed, 0, n) < 0.5).sum())
        assert abs(x_n / n - 0.5) <= 0.01


def test_walk_positions_matches_blocks():
    cfg = WalkerConfig(0.37)
    seed = 55555
    pts = list(walk_positions(cfg, seed, 2000))
    rights = uniform_block(seed, 0, 2000) < cfg.alpha
    x = np.cumsum(rights)
    assert [p.x for p in pts] == x.tolist()


def test_right_threshold_is_the_uniform_test():
    # alpha exactly on the 2**-53 grid, and its float neighbours on both sides
    edge = []
    for k0 in (1, 3, 2**52, 2**52 + 1, 3 * 2**51 + 7, 2**53 - 1):
        a = k0 * 2.0**-53
        edge += [a, float(np.nextafter(a, 0.0)), float(np.nextafter(a, 1.0))]
    for alpha in edge + [0.5, 0.3, 1 / 3, 0.1]:
        if not 0.0 < alpha < 1.0:
            continue
        t = int(right_threshold(alpha))
        for k in range(max(0, t - 3), min(2**53, t + 3)):
            assert (k < t) == (k * 2.0**-53 < alpha), (alpha, k)
        z = splitmix64_block(99, 0, 4096) >> np.uint64(11)
        assert np.array_equal(z < right_threshold(alpha), uniform_block(99, 0, 4096) < alpha)


# alphas on the 2**-31 grid, whose move test skips the mixer's last xorshift,
# and one off it
SHORTCUT_ALPHAS = [0.5, 0.25, 0.375, 0.75, 2.0**-31, 1 - 2.0**-31, 0.3]


@pytest.mark.parametrize("alpha", SHORTCUT_ALPHAS[:-1])
def test_last_xorshift_keeps_the_move_test(alpha):
    # t = threshold << 11 has its low 33 bits 0, and out ^ (out >> 31) keeps
    # bits 63..33 of out, so it falls below t exactly when out does
    t = int(right_threshold(alpha)) << 11
    assert t % 2**33 == 0 and 0 < t < 2**64
    high = t >> 33 << 33
    near = [t - 1, t, t + 2**33 - 1, t + 2**33, high + 1, high + 2**32, high + 2**33 - 2, t - 2**33, 0, MASK64]
    out = np.array([v % 2**64 for v in near], dtype=np.uint64)
    mixed = out ^ (out >> np.uint64(31))
    assert np.array_equal(mixed < np.uint64(t), out < np.uint64(t))


def test_mix_u64_without_the_last_step():
    z = np.arange(1, 5000, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    part = mix_u64(z, last=False)
    assert np.array_equal(part ^ (part >> np.uint64(31)), mix_u64(z))


def _unxorshift(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _state_before_last_step(out):
    """The SplitMix64 state whose output, before the last xorshift, is out."""
    x = _unxorshift(out * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    return _unxorshift(x * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)


@pytest.mark.parametrize("alpha", SHORTCUT_ALPHAS)
def test_moves_match_the_uniform_test(alpha):
    # states whose output before the last xorshift lies next to t, and a
    # random stretch of three streams
    t = int(right_threshold(alpha)) << 11
    high = t >> 33 << 33
    outs = [t - 1, t, t + 1, t + 2**33 - 1, t + 2**33, high + 1, high + 2**32, high + 2**33 - 1]
    outs += [high + (k * 0x9E3779B9) % 2**33 for k in range(64)]
    seeds = [(_state_before_last_step(o % 2**64) - GOLDEN_GAMMA) % 2**64 for o in outs] + [7, 2**63 + 5, MASK64]
    n = 20000
    col = np.array(seeds, dtype=np.uint64)[:, None]
    z, w = np.empty((2, len(seeds), n), dtype=np.uint64)
    right = np.empty((len(seeds), n), dtype=bool)
    _moves(col, stream_increments(0, n), t, z, w, right)
    flips = 0
    for row, seed, o in zip(right, seeds, outs + [None] * 3):
        assert np.array_equal(row, uniform_block(seed, 0, n) < alpha), (alpha, seed)
        if o is not None:
            assert mix_u64(np.array([(seed + GOLDEN_GAMMA) % 2**64], dtype=np.uint64), last=False)[0] == o % 2**64
            flips += (o % 2**64 < t) != ((o ^ (o >> 31)) % 2**64 < t)
    # off the grid, some of these states sit where skipping the step would flip the move
    assert (flips > 0) == (t % 2**33 != 0)
