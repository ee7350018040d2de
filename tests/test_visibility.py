import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkvis.visibility as visibility
from walkvis.estimators import _candidates
from walkvis.numtheory import CapacityError, factorize_distinct
from walkvis.visibility import (
    WatchpointValidationError,
    curve_oracle_visible,
    is_b_visible,
    validate_watchpoint_set,
    visible_mask,
)

BS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]


def test_examples():
    assert is_b_visible((1, 2), (1, 1), (0, 0))
    assert not is_b_visible((2, 3), (0, 2), (0, 0))  # shared x, gap 2
    assert not is_b_visible((1, 2), (4, 8), (0, 0))  # gcd_b = 2


def test_degenerate_rule():
    for b in BS:
        assert is_b_visible(b, (0, 1), (0, 0))
        assert is_b_visible(b, (5, 3), (5, 2))
        assert not is_b_visible(b, (5, 4), (5, 2))
        assert is_b_visible(b, (7, 2), (6, 2))
        assert not is_b_visible(b, (8, 2), (6, 2))
    with pytest.raises(ValueError):
        is_b_visible((1, 2), (3, 3), (3, 3))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BS),
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.integers(-200, 200),
)
def test_visibility_is_mutual(b, px, py, qx, qy):
    if (px, py) == (qx, qy):
        return
    assert is_b_visible(b, (px, py), (qx, qy)) == is_b_visible(b, (qx, qy), (px, py))


def test_oracle_examples():
    assert not curve_oracle_visible((1, 1), (2, 2), (0, 0))  # (1,1) sits on y=x
    assert not curve_oracle_visible((1, 2), (4, 8), (0, 0))
    assert curve_oracle_visible((2, 3), (7, 5), (0, 0))
    assert is_b_visible((2, 3), (7, 5), (0, 0))


def test_oracle_rejects_unsupported_displacements():
    with pytest.raises(ValueError):
        curve_oracle_visible((1, 2), (0, 5), (0, 0))  # degenerate vertical
    with pytest.raises(ValueError):
        curve_oracle_visible((1, 2), (-3, 5), (0, 0))
    with pytest.raises(ValueError):
        curve_oracle_visible((1, 2), (2, 2), (2, 2))


def test_oracle_agrees_on_small_box():
    # fast spot version of the acceptance box-40 sweep
    for b in BS:
        for dx in range(1, 16):
            for dy in range(1, 16):
                assert curve_oracle_visible(b, (dx, dy), (0, 0)) == is_b_visible(
                    b, (dx, dy), (0, 0)
                ), (b, dx, dy)


def test_predicates_depend_only_on_displacement():
    for b in BS:
        for (dx, dy) in [(1, 1), (2, 4), (3, 7), (8, 4), (5, 5)]:
            base = is_b_visible(b, (dx, dy), (0, 0))
            for (tx, ty) in [(3, 9), (-4, 11), (100, -57)]:
                assert is_b_visible(b, (dx + tx, dy + ty), (tx, ty)) == base


def test_origin_density_matches_inv_zeta2():
    n = 500
    xs, ys = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    vis = visible_mask((1, 1), xs.ravel(), ys.ravel())
    frac = vis.mean()
    assert abs(frac - 0.607927) < 0.02


def test_visible_mask_matches_scalar():
    state = np.random.default_rng(7)
    for b in BS + [(2, 5), (3, 4)]:
        dx = state.integers(-400, 400, size=300)
        dy = state.integers(-400, 400, size=300)
        keep = ~((dx == 0) & (dy == 0))
        dx, dy = dx[keep], dy[keep]
        mask = visible_mask(b, dx, dy)
        for i in range(len(dx)):
            assert mask[i] == is_b_visible(b, (int(dx[i]), int(dy[i])), (0, 0))


def test_visible_mask_zero_displacement_is_invisible():
    mask = visible_mask((1, 2), np.array([0, 0, 1]), np.array([0, 1, 0]))
    assert mask.tolist() == [False, True, True]


COPRIME_BS = [(b1, b2) for b1 in range(1, 6) for b2 in range(1, 6) if math.gcd(b1, b2) == 1]
# every kind of point the mask must get right: origin, both axes, unit steps
SPECIAL_DELTAS = [(0, 0), (0, 1), (0, -1), (0, 4), (1, 0), (-1, 0), (-8, 0), (4, 8), (-27, 9)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(COPRIME_BS),
    st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)), max_size=60),
    st.sampled_from([0, 10**9, -(10**9 + 7), 2**31 + 5]),
    st.booleans(),
)
def test_visible_mask_matches_scalar_differential(b, deltas, offset, offset_on_x):
    # the offset moves one coordinate's window far from 0, as a far watchpoint does
    pairs = [
        (dx + offset, dy) if offset_on_x else (dx, dy + offset)
        for dx, dy in SPECIAL_DELTAS + deltas
    ]
    dx = np.array([p[0] for p in pairs], dtype=np.int64)
    dy = np.array([p[1] for p in pairs], dtype=np.int64)
    mask = visible_mask(b, dx, dy)
    for got, p in zip(mask.tolist(), pairs):
        want = p != (0, 0) and is_b_visible(b, p, (0, 0))
        assert got == want, (b, p)


def _scalar_mask(b, xs, ys, points):
    return [
        all((x, y) != (u, v) and is_b_visible(b, (x, y), (u, v)) for u, v in points)
        for x, y in zip(xs.tolist(), ys.tolist())
    ]


def test_visible_mask_rechecks_primes_past_the_bits(monkeypatch):
    # 293 lies in P here but past the K-th prime of P (K = 61 for one point,
    # less for three), so these displacements reach the large bit of both
    # tables, which only the scalar recheck decides
    p, q = 293, 307
    k = np.arange(1, 9, dtype=np.int64)  # narrow value ranges keep the tables small
    cases = [
        ((1, 2), p * k, p * p * k),  # hidden at 293 unless a smaller prime hides it too
        ((1, 2), p * k + 1, p * p * k),
        ((1, 2), q * k, p * p * k),
        ((2, 3), p * p * k, np.full(8, p**3)),
        ((2, 3), p * p * k, np.full(8, 2 * q**3)),  # bit 0 on both sides, of different primes
    ]
    cases += [((b2, b1), dy, dx) for (b1, b2), dx, dy in cases]  # the axes swapped
    points = ((0, 0), (1, 2), (2, 1))
    want = [_scalar_mask(b, dx, dy, points) for b, dx, dy in cases]
    calls = []
    real = visibility._has_common_curve_divisor

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(visibility, "_has_common_curve_divisor", counted)
    for (b, dx, dy), w in zip(cases, want):
        assert visible_mask(b, dx, dy, points).tolist() == w, b
        assert visible_mask(b, dx, dy).tolist() == _scalar_mask(b, dx, dy, ((0, 0),)), b
    assert len(calls) > 0
    assert any(not w for w in sum(want, [])) and any(sum(want, []))


@pytest.mark.parametrize("b", [(1, 2), (2, 3), (3, 2), (5, 4)])
def test_visible_mask_point_ranges_straddling_zero(b):
    # per point, x - u and y - v lie above 0, below 0, or on both sides of it
    state = np.random.default_rng(5)
    xs = state.integers(10, 60, size=400)
    ys = state.integers(-30, 30, size=400)
    points = ((0, 0), (35, 0), (100, -40), (-5, 41), (60, 30))
    assert visible_mask(b, xs, ys, points).tolist() == _scalar_mask(b, xs, ys, points)
    for pt in points:
        assert visible_mask(b, xs, ys, (pt,)).tolist() == _scalar_mask(b, xs, ys, (pt,))


@pytest.mark.parametrize("b", [(1, 2), (2, 3), (3, 2), (5, 4)])
def test_visible_mask_bounds_give_the_same_mask(b):
    # bounds wider than the values move the windows, not the mask
    state = np.random.default_rng(8)
    xs = state.integers(10, 60, size=400)
    ys = state.integers(-30, 30, size=400)
    points = ((0, 0), (35, 0), (-5, 41))
    want = _scalar_mask(b, xs, ys, points)
    for bounds in (((10, 59), (-30, 29)), ((0, 1000), (-300, 29)), ((-70, 64), (-33, 70))):
        assert all(lo <= v.min() and v.max() <= hi for (lo, hi), v in zip(bounds, (xs, ys)))
        assert visible_mask(b, xs, ys, points, bounds=bounds).tolist() == want, bounds


def _greedy_watchpoints(b, candidates, most=40):
    """The candidates, in order, that keep a valid watchpoint set for b."""
    chosen = []
    for pt in candidates:
        if pt not in chosen and all(is_b_visible(b, pt, q) for q in chosen):
            chosen.append(pt)
        if len(chosen) == min(most, 2 ** sum(b)):
            break
    return validate_watchpoint_set(b, chosen).points if chosen else ()


NEAR = st.integers(-40, 40)
# far points sit about 1e9 from the positions, on one side or the other
COORD = st.one_of(NEAR, NEAR, NEAR, NEAR.map(lambda d: d + 10**9), NEAR.map(lambda d: d - 10**9))


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from([b for b in COPRIME_BS if b != (1, 1)]),
    st.one_of(  # long lists give sets past 21 points at b1 + b2 >= 5
        st.lists(st.tuples(COORD, COORD), min_size=2, max_size=24),
        st.lists(st.tuples(COORD, COORD), min_size=40, max_size=60),
    ),
    st.sampled_from([0, 7, -50, 1 << 20, 10**6 + 3]),
    st.sampled_from([0, 3, -9, 1 << 20]),
    st.sampled_from([12, 60, 400]),
    st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1, max_size=40),
    st.booleans(),
)
def test_visible_mask_watchpoint_sets_match_scalar(b, cands, bx, by, spread, deltas, two_d):
    # 2-40 validated points around the positions' window, whose base is bx,
    # by; past 21 points no one word holds every lane
    points = _greedy_watchpoints(b, [(u + bx, v + by) for u, v in cands])
    if len(points) < 2:
        return
    pairs = [(bx + dx % spread, by + dy % spread) for dx, dy in deltas]
    # on, beside and in line with the near points; positions spanning 1e9
    # would need tables past MAX_TABLE_ENTRIES, and no walk spans that far
    for u, v in points:
        if abs(u - bx) <= 100 and abs(v - by) <= 100:
            pairs += [(u + dx, v + dy) for dx, dy in SPECIAL_DELTAS]
    if two_d and len(pairs) % 2:
        pairs.append(pairs[0])
    xs = np.array([p[0] for p in pairs], dtype=np.int64)
    ys = np.array([p[1] for p in pairs], dtype=np.int64)
    if two_d:
        xs, ys = xs.reshape(2, -1), ys.reshape(2, -1)
    mask = visible_mask(b, xs, ys, points)
    assert mask.shape == xs.shape
    assert mask.ravel().tolist() == _scalar_mask(b, xs.ravel(), ys.ravel(), points), (b, points)


EIGHT = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
# a valid set at b = (3, 5), greedy along the diagonals near the origin
FORTY = (
    (0, 0), (0, 1), (1, 0), (1, 1), (-1, -1), (-1, -2), (-2, -1), (2, 2), (-2, -2), (2, 3),
    (3, 2), (3, 3), (-3, -3), (-3, -4), (-4, -3), (4, 4), (-4, -4), (4, 5), (5, 4), (5, 5),
    (-5, -5), (-5, -6), (-6, -5), (6, 6), (-6, -6), (6, 7), (7, 6), (7, 7), (-7, -7), (-7, -8),
    (-8, -7), (8, 8), (-8, -8), (8, 9), (9, 8), (9, 9), (-9, -9), (-9, -10), (-10, -9), (10, 10),
)

# 64 points, greedy over the diagonals s = |x| + |y| = 0, 1, ...
SIXTY_FOUR = _greedy_watchpoints(
    (3, 5), [(sx * x, sy * (d - x)) for d in range(40) for x in range(d + 1) for sx in (1, -1) for sy in (1, -1)],
    most=64,
)


# layout is (W words, K prime bits per lane, whether lanes carry a large bit);
# see visibility._layout
@pytest.mark.parametrize("b, points, xs, ys, layout", [
    # Table 1's set near the origin: |P| = 12 primes (p**3 <= 2**16 - 1), 3 lanes of 14 bits
    ((2, 3), ((0, 0), (1, 2), (2, 1)), (0, 70_000), (0, 60_000), (1, 12, False)),
    # the same set past the 2**20-step chunk boundary: a window base other than 0
    ((2, 5), ((0, 0), (1, 2), (2, 1)), (524_000, 524_600), (524_300, 524_800), (1, 6, False)),
    # b = (1, 2) there has the 54 primes p**2 <= 2**16 - 1: 3 * (2 + 54) > 64, so
    # lanes of 64 // 3 = 21 bits, K = 21 - 3 = 18 (primes to 61) and a large bit
    # for 67..251, whose recheck share bound 3 * sum 1/q * sum 1/q**2 is below 2**-8
    ((1, 2), ((0, 0), (1, 2), (2, 1)), (0, 70_000), (0, 60_000), (1, 18, True)),
    # a point far on both axes widens every displacement: the 168 primes
    # p**3 <= 1e9, lanes of 64 // 2 = 32 bits, K = 29
    ((2, 3), ((0, 0), (10**9, 10**9 + 1)), (0, 5000), (0, 5000), (1, 29, True)),
    # far on x only: p**3 <= |dy| still bounds P to the 8 primes up to 19
    ((2, 3), ((0, 0), (10**9, 1)), (0, 5000), (0, 5000), (1, 8, False)),
    # lanes of 8 bits (the six primes p**3 < 2**12): eight points fill one
    # word exactly; with a ninth, lanes of 64 // 9 = 7 bits, K = 4 and a large
    # bit for 11 and 13
    ((2, 3), EIGHT, (0, 3000), (0, 3000), (1, 6, False)),
    ((2, 3), EIGHT + ((4, 4),), (0, 3000), (0, 3000), (1, 4, True)),
    # 24 points and P = {2, 3, 5} (p**5 < 2**12): lanes of 5 bits, 12 to a word
    ((3, 5), FORTY[:24], (0, 3000), (0, 3000), (2, 3, False)),
    # with 7 in P as well (p**5 < 2**17), 12 lanes of 64 // 12 = 5 bits: K = 2
    # and a large bit for 5 and 7
    ((3, 5), FORTY[:24], (0, 100_000), (-50_000, 50_000), (2, 2, True)),
    # 40 points: two words would leave K = 0, with most positions to
    # recheck, three K = 1 (share bound 40 * 0.0107 * 0.00035 > 2**-8); four
    # hold all of P = {2, 3, 5}, 10 lanes of 5 bits each
    ((3, 5), FORTY, (0, 3000), (0, 3000), (4, 3, False)),
    # 64 points start from ceil(64 / 21) = 4 words, lanes of at least 3 bits;
    # 4 and 5 words leave K = 1, and six hold all of P in 11 lanes of 5 bits
    ((3, 5), SIXTY_FOUR, (0, 3000), (0, 3000), (6, 3, False)),
], ids=[  # the first seven keep the ids they had when the last value said whether lanes were used
    "b0-points0-xs0-ys0-True", "b1-points1-xs1-ys1-True", "b2-points2-xs2-ys2-False",
    "b3-points3-xs3-ys3-False", "b4-points4-xs4-ys4-True", "b5-points5-xs5-ys5-True",
    "b6-points6-xs6-ys6-False", "b3-5-24-points", "b3-5-24-points-wide", "b3-5-40-points",
    "b3-5-64-points",
])
def test_visible_mask_lane_selection(monkeypatch, b, points, xs, ys, layout):
    validate_watchpoint_set(b, points)
    state = np.random.default_rng(3)
    dx = state.integers(xs[0], xs[1] + 1, size=3000)
    dy = state.integers(ys[0], ys[1] + 1, size=3000)
    dx[:2], dy[:2] = xs, ys  # the window's ends
    real, calls = visibility._lane_table, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(visibility, "_lane_table", counted)
    assert visible_mask(b, dx, dy, points).tolist() == _scalar_mask(b, dx, dy, points)
    key, _, _, _, coords, root = calls[0]
    words, k, large = visibility._layout(key, len(coords), root)
    assert (words, k, large != 0) == layout
    assert [real(*args).shape[0] for args in calls] == [words, words]


@pytest.mark.parametrize("lo, start, cnt, points", [
    (2, 0, 3000, ((0, 0),)),
    (2, 0, 500, ((0, 0), (1, 2), (2, 1))),
    (3, 100_000, 2000, ((0, 0), (7, -3), (150_000, 2))),
    (2, 80_000, 12_000, ((0, 0), (3, -1))),  # s passes 293**2
    (3, 0, 5, ((1, 2),)),  # |s| <= 2: no prime to stride over, only s = 0
])
def test_candidates_match_factorization(lo, start, cnt, points):
    def candidate(i):
        return any(
            i == u + v or any(k >= lo for _, k in factorize_distinct(abs(i - u - v)))
            for u, v in points
        )

    want = [candidate(i) for i in range(start + 1, start + cnt + 1)]
    assert _candidates(lo, start, cnt, points).tolist() == want


def test_visible_mask_far_window_beyond_cap_raises():
    # far on both axes: P would need the primes up to ~3.2e8 (p**2 <= 1e17
    # and p <= 1e17), past MAX_TABLE_ENTRIES
    dx = np.array([10**17, 10**17 + 1], dtype=np.int64)
    with pytest.raises(CapacityError):
        visible_mask((2, 1), dx, dx + 1)
    # far on x only, p <= |dy| <= 2 bounds P to {2}: answered exactly
    dy = np.array([1, 2], dtype=np.int64)
    assert visible_mask((2, 1), dx, dy).tolist() == _scalar_mask((2, 1), dx, dy, ((0, 0),))


def test_visible_mask_threads_share_kernel_tables():
    # more threads than cores and more windows than the table cache holds, so
    # threads build, evict and read the shared tables while others use them
    state = np.random.default_rng(11)
    cases = []
    for b in [(1, 2), (2, 3), (3, 5), (5, 4)]:
        for offset in range(0, 12 * 4096, 4096):
            dx = offset + state.integers(0, 3000, size=2000)
            dy = state.integers(-500, 500, size=2000)
            cases.append((b, dx, dy))
    want = [visible_mask(b, dx, dy) for b, dx, dy in cases]

    def run(order):
        return [(i, visible_mask(*cases[i])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, state.permutation(len(cases))) for _ in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        for i, mask in result:
            assert np.array_equal(mask, want[i]), cases[i][0]


def test_validate_watchpoint_set():
    ws = validate_watchpoint_set((1, 2), [(0, 0), (1, 2), (2, 1)])
    assert ws.size == 3

    with pytest.raises(WatchpointValidationError) as exc:
        validate_watchpoint_set((1, 2), [(0, 0), (4, 8)])
    assert exc.value.pair == ((0, 0), (4, 8))

    # 5 points can never satisfy the bound 2**(1+1) = 4
    with pytest.raises(WatchpointValidationError) as exc:
        validate_watchpoint_set((1, 1), [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
    assert exc.value.cardinality == 5

    with pytest.raises(WatchpointValidationError):
        validate_watchpoint_set((1, 2), [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        validate_watchpoint_set((1, 2), [])


def test_validated_sets_respect_cardinality_bound():
    # greedy fill never exceeds 2**(b1+b2)
    for b in [(1, 1), (1, 2)]:
        cap = 2 ** (b[0] + b[1])
        chosen = []
        for x in range(8):
            for y in range(8):
                cand = chosen + [(x, y)]
                try:
                    validate_watchpoint_set(b, cand)
                except WatchpointValidationError:
                    continue
                chosen = cand
        assert len(chosen) <= cap
        assert validate_watchpoint_set(b, chosen).size == len(chosen)
