"""Deterministic, seedable step streams for the alpha-random walk.

The generator is SplitMix64 with the standard published constants, so the
same seed reproduces the same walk bit-for-bit on any platform.  The state
update is a plain 64-bit addition, which makes any window of a stream
addressable directly -- that is what the vectorized block helpers exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .visibility import LatticePoint

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53

#: RNG state is a bare 64-bit integer, advanced functionally.
RngState = int


@dataclass(frozen=True)
class WalkerConfig:
    """Step law: move (1, 0) with probability alpha, else (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")


def as_walker(cfg) -> WalkerConfig:
    if isinstance(cfg, WalkerConfig):
        return cfg
    return WalkerConfig(float(cfg))


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def splitmix64_next(state: RngState) -> tuple[int, RngState]:
    """Advance one step; return (64-bit output, new state)."""
    state = (state + GOLDEN_GAMMA) & MASK64
    return _mix(state), state


def next_uniform(state: RngState) -> tuple[float, RngState]:
    """Draw a uniform in [0, 1) from the top 53 bits; return (value, new state)."""
    z, state = splitmix64_next(state)
    return (z >> 11) * _INV_2_53, state


def derive_trial_seed(master: int, trial: int, walker: int = 0, num_walkers: int = 1) -> int:
    """Seed for (trial, walker): the (trial*num_walkers + walker + 1)-th
    output of the stream seeded by ``master``.

    Computed in closed form from the additive state update; distinct index
    pairs collide only with probability ~2**-64.
    """
    if trial < 0 or walker < 0 or num_walkers < 1:
        raise ValueError("trial/walker indices must be >= 0 and num_walkers >= 1")
    k = trial * num_walkers + walker + 1
    return _mix((master + k * GOLDEN_GAMMA) & MASK64)


def walk_positions(cfg, seed: int, n: int) -> Iterator[LatticePoint]:
    """Lazily yield P_1..P_n of the walk from the origin (P_0 is implicit).

    Step i moves right when the i-th uniform is strictly below alpha, so
    x_i + y_i = i and both coordinates are nondecreasing.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    alpha = as_walker(cfg).alpha
    x = y = 0
    state = seed & MASK64
    for _ in range(n):
        u, state = next_uniform(state)
        if u < alpha:
            x += 1
        else:
            y += 1
        yield LatticePoint(x, y)


def mix_u64(z: np.ndarray, out: np.ndarray | None = None, *, last: bool = True) -> np.ndarray:
    """SplitMix64 output finalizer on a uint64 array of any shape.

    With ``out``, a uint64 array of z's shape that does not overlap it, the
    result goes there and z serves as scratch: both are overwritten and
    nothing is allocated.  Without it, z is left as it was.  With
    last=False the final ``out ^= out >> 31`` is skipped; it leaves bits
    63..33 as they are, so a caller that reads only those may drop it.
    """
    if out is None:
        z = np.array(z, dtype=np.uint64)
        out = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=out)
        out ^= z
        out *= np.uint64(_MIX1)
        np.right_shift(out, np.uint64(27), out=z)
        out ^= z
        out *= np.uint64(_MIX2)
        if last:
            np.right_shift(out, np.uint64(31), out=z)
            out ^= z
    return out


def stream_increments(start: int, count: int) -> np.ndarray:
    """(start+1 .. start+count) * GOLDEN_GAMMA mod 2**64 as uint64: added to a
    seed, the SplitMix64 states of that window of its stream."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        idx *= np.uint64(GOLDEN_GAMMA)
    return idx


def splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of the stream seeded by ``seed``, a row
    per seed when ``seed`` is a uint64 column, as a uint64 array;
    bit-identical to stepping splitmix64_next."""
    state = np.asarray(seed & MASK64, dtype=np.uint64) + stream_increments(start, count)
    return mix_u64(state, out=np.empty_like(state))


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms start+1 .. start+count of the stream, as float64 in [0, 1)."""
    return (splitmix64_block(seed, start, count) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def right_threshold(alpha: float) -> np.uint64:
    """The integer t = ceil(alpha * 2**53): a draw z moves right exactly when
    (z >> 11) < t, which is the uniform test (z >> 11) * 2**-53 < alpha
    without the float conversion (alpha * 2**53 is exact)."""
    return np.uint64(math.ceil(as_walker(alpha).alpha * 2**53))
