"""Visibility of lattice points along power curves.

Two routes to the same predicate: a fast arithmetic criterion built on the
generalized gcd, and a brute-force oracle that scans the defining curve with
exact integer arithmetic.  Watchpoint sets are validated here against the
pairwise-visibility condition and the 2**(b1+b2) cardinality bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .numtheory import (
    MAX_TABLE_ENTRIES, BExponent, CapacityError, PrimeTables, _pow_divides, as_bexp,
    factorize_distinct, sieve_primes,
)


class LatticePoint(NamedTuple):
    x: int
    y: int


def _has_common_curve_divisor(b: BExponent, a: int, c: int, tables: PrimeTables | None) -> bool:
    # a, c >= 1; is there a prime p with p**b1 | a and p**b2 | c?
    # Such a prime divides gcd(a, c), so only the gcd is factored.
    for p, _ in factorize_distinct(math.gcd(a, c), tables):
        if _pow_divides(p, b.b1, a) and _pow_divides(p, b.b2, c):
            return True
    return False


def is_b_visible(b, p, q, tables: PrimeTables | None = None) -> bool:
    """Whether the distinct lattice points p and q see each other for this b.

    Off-axis pairs are visible exactly when gcd_b of the displacement is 1;
    pairs sharing a coordinate (degenerate vertical/horizontal curve) are
    visible exactly when the other coordinates differ by 1.
    """
    bb = as_bexp(b)
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    if dx == 0 and dy == 0:
        raise ValueError("visibility of a point from itself is undefined")
    if dx == 0:
        return abs(dy) == 1
    if dy == 0:
        return abs(dx) == 1
    return not _has_common_curve_divisor(bb, abs(dx), abs(dy), tables)


def curve_oracle_visible(b, p, q) -> bool:
    """Visibility checked directly on the defining curve, independent of gcd_b.

    Fits a1*(y - q2)**b1 = a2*(x - q1)**b2 through both points with
    a1 = (p1-q1)**b2, a2 = (p2-q2)**b1 and scans every interior lattice point
    of the bounding box in exact integer arithmetic.  Supports only
    displacements in the open positive quadrant (p strictly up-and-right
    of q); sign conventions for mixed-sign displacements with even exponents
    are deliberately not guessed at.
    """
    bb = as_bexp(b)
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    if dx == 0 and dy == 0:
        raise ValueError("visibility of a point from itself is undefined")
    if dx <= 0 or dy <= 0:
        raise ValueError(
            f"curve oracle supports only positive-quadrant displacements, got ({dx}, {dy})"
        )
    a1 = dx**bb.b2
    a2 = dy**bb.b1
    for rx in range(1, dx):
        rxp = a2 * rx**bb.b2
        for ry in range(1, dy):
            if a1 * ry**bb.b1 == rxp:
                return False
    return True


@dataclass(frozen=True)
class WatchpointSet:
    """Watchpoints validated for condition (*): pairwise mutually visible."""

    b: BExponent
    points: tuple[LatticePoint, ...]

    @property
    def size(self) -> int:
        return len(self.points)


class WatchpointValidationError(ValueError):
    """Rejection of a candidate watchpoint set.

    Carries the first offending pair (mutual-visibility or duplicate
    failures) or the cardinality that overflowed the 2**(b1+b2) bound.
    """

    def __init__(self, message: str, *, pair=None, cardinality: int | None = None):
        super().__init__(message)
        self.pair = pair
        self.cardinality = cardinality


def validate_watchpoint_set(b, points: Sequence) -> WatchpointSet:
    """Validate a nonempty point list as a watchpoint set for this b."""
    bb = as_bexp(b)
    pts = [LatticePoint(int(pt[0]), int(pt[1])) for pt in points]
    if not pts:
        raise ValueError("watchpoint set must be nonempty")
    cap = 2 ** (bb.b1 + bb.b2)
    if len(pts) > cap:
        raise WatchpointValidationError(
            f"{len(pts)} watchpoints exceed the cardinality bound 2**(b1+b2) = {cap}",
            cardinality=len(pts),
        )
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise WatchpointValidationError(
                    f"duplicate watchpoint {tuple(pts[i])}", pair=(pts[i], pts[j])
                )
            if not is_b_visible(bb, pts[i], pts[j]):
                raise WatchpointValidationError(
                    f"watchpoints {tuple(pts[i])} and {tuple(pts[j])} are not mutually visible",
                    pair=(pts[i], pts[j]),
                )
    return WatchpointSet(bb, tuple(pts))


# Bits of the tables M_e: bit 3 + k says whether the k-th prime of
# _BIT_PRIMES (2..283) has p**e | m.  Bit 0 stands for every larger prime:
# for e >= 2 it is set exactly when some p**e | m, while for e = 1 it is set
# at every m >= 2 and leaves the decision to the other exponent.  Bits 1 and
# 2 carry the axis rule crosswise (see _bit_table), and m = 0 sets every bit.
_BIT_PRIMES = tuple(sieve_primes(283).tolist())
_PAST = 1
_DIVISOR_BITS = ~np.uint64(6)  # every bit but the axis bits


# A call reads two tables per window (M_b1 for dx and M_b2 for dy); more
# cached tables measurably raised peak RSS on the Table 1 workload.
@lru_cache(maxsize=2)
def _bit_table(e: int, axis: int, lo: int, hi: int) -> np.ndarray:
    """M_e[m] for 0 <= lo <= m <= hi, at index m - lo, for the dx (axis 0)
    or dy (axis 1) coordinate.  The dx table sets bit 1 at m = 0 and bit 2
    at m != 1, the dy table the reverse, so the AND of a dx and a dy entry
    has bit 1 or 2 exactly when one coordinate is 0 and the other is not 1.
    Read-only, so threads may share it.  Raises CapacityError past
    MAX_TABLE_ENTRIES entries, or for e >= 2 past a sieve that long.
    """
    # at or just past the e-th root (extra primes stride nothing); no sieve at e = 1
    root = int(hi ** (1.0 / e)) + 1 if e > 1 else _BIT_PRIMES[-1]
    if root + 1 > MAX_TABLE_ENTRIES or hi - lo + 1 > MAX_TABLE_ENTRIES:
        raise CapacityError(
            f"visibility table M_{e} on [{lo}, {hi}] needs a sieve to {root} over "
            f"{hi - lo + 1} entries, beyond the cap of {MAX_TABLE_ENTRIES}"
        )
    nonunit = np.uint64(4 >> axis)
    table = np.full(hi - lo + 1, nonunit | np.uint64(_PAST if e == 1 else 0), dtype=np.uint64)
    primes = _BIT_PRIMES if e == 1 else sieve_primes(root).tolist()
    for k, p in enumerate(primes):
        q = p**e
        table[-(-lo // q) * q - lo :: q] |= np.uint64(1 << (3 + k) if k < len(_BIT_PRIMES) else _PAST)
    if lo <= 1 <= hi:
        table[1 - lo] = 0
    if lo == 0:
        table[0] = ~np.uint64(0)
    table.flags.writeable = False
    return table


def _window(lo: int, hi: int) -> tuple[int, int]:
    """(base, size) of the table window for values in [lo, hi]: base is the
    multiple of g at or below lo, where g is the power of two above the
    spread, and size the power of two (g or 2g) that reaches hi.  Successive
    calls on one walk, and points near one another, thus share a window."""
    g = 1 << (hi - lo).bit_length()
    base = lo - lo % g
    return base, 1 << (hi - base).bit_length()


def _bits(e: int, axis: int, v: np.ndarray, vmin: int, vmax: int, shift: int) -> np.ndarray:
    """M_e[|v - shift|] (see _bit_table) at every entry of v, whose values
    lie in [vmin, vmax], from the window (see _window) of |v - shift|.
    Only a range of v - shift that straddles 0 pays for an abs pass.
    """
    a, c = vmin - shift, vmax - shift
    lo, hi = (a, c) if a >= 0 else (-c, -a) if c <= 0 else (0, max(-a, c))
    base, size = _window(lo, hi)
    table = _bit_table(e, axis, base, base + size - 1)
    if a >= 0:
        return table[v - (shift + base)] if shift + base else table[v]
    if c <= 0:
        return table[(shift - base) - v]
    return table[np.abs(v - shift) if shift else np.abs(v)]  # base is 0 here


def _has_power_divisor(e: int, v: np.ndarray, vmin: int, vmax: int, shift: int) -> np.ndarray:
    """Whether v - shift is 0 or has a prime p with p**e | v - shift, at
    every entry of v, whose values lie in [vmin, vmax]; e >= 2, where bit 0
    of M_e is exact."""
    r = _bits(e, 0, v, vmin, vmax, shift)
    r &= _DIVISOR_BITS
    return r != 0


# One call reads one table per coordinate; more cached tables measurably
# raised peak RSS on the Table 1 workload.
@lru_cache(maxsize=2)
def _lane_table(e: int, axis: int, base: int, size: int, coords: tuple, nprimes: int) -> np.ndarray:
    """The packed table of one coordinate for several points, at index
    m - base for base <= m < base + size, where coords holds each point's
    coordinate c on this axis.  Point k owns the lane of bits kL .. kL+L-1,
    L = 2 + nprimes, and there reads the entries of M_e (see _bit_table) at
    |m - c|, restricted to the first nprimes primes: lane bit 2 + q is set
    when the q-th prime p has p**e | m - c, and lane bits 0 and 1 carry the
    axis rule crosswise, as bits 1 and 2 of M_e do.  m = c sets the whole
    lane, |m - c| = 1 none of it.  Read-only, so threads may share it.
    """
    width = 2 + nprimes
    table = np.full(size, sum((2 >> axis) << k * width for k in range(len(coords))), dtype=np.uint64)
    for k, c in enumerate(coords):
        for q, p in enumerate(_BIT_PRIMES[:nprimes]):
            table[(c - base) % p**e :: p**e] |= np.uint64(1 << (k * width + 2 + q))
        lane = ((1 << width) - 1) << k * width
        for m in (c - 1, c + 1):
            if base <= m < base + size:
                table[m - base] &= np.uint64(~lane & (2**64 - 1))
        if base <= c < base + size:
            table[c - base] |= np.uint64(lane)
    table.flags.writeable = False
    return table


def visible_mask(b, dx, dy, points=((0, 0),)) -> np.ndarray:
    """Vectorized is_b_visible over same-shape arrays of positions: whether
    (dx, dy) is b-visible from every point (u, v), that is, whether each
    displacement (dx - u, dy - v) is.

    Matches the scalar predicate exactly, shared-coordinate rule included;
    the all-zero displacement maps to False (a walker standing on a
    watchpoint does not count as visible).  An off-axis displacement is
    invisible exactly when some prime p has p**b1 | dx - u and
    p**b2 | dy - v.  Each point's two entries of the cached prime bit-set
    tables, M_b1 at |dx - u| and M_b2 at |dy - v| (see _bit_table), are
    ANDed, and the points' results ORed into one accumulator r: r = 0 is
    visible, r = 1 (bit 0 alone: both coordinates have a prime power past
    283, maybe of different primes) is rechecked by factoring, and
    anything else is hidden.  b = (1, 1) takes np.gcd instead, since every
    prime matters there.  Raises CapacityError when a table would need a
    sieve past MAX_TABLE_ENTRIES.

    Two or more points whose lanes fit one uint64 skip that loop.  P holds
    the primes with p**b1 <= max|x - u| and p**b2 <= max|y - v| over the
    windows (see _window) of dx and dy and every point, and each point gets
    a lane of 2 + |P| bits in one table per coordinate (see _lane_table),
    indexed by the raw coordinate.  A hiding prime lies in P, so
    (T_x[dx] & T_y[dy]) == 0 is exact: two gathers and one AND per
    position, whatever the number of points.
    """
    bb = as_bexp(b)
    dx, dy = np.asarray(dx), np.asarray(dy)
    if dx.size == 0:
        return np.ones(dx.shape, dtype=bool)
    if bb.b1 == 1 and bb.b2 == 1:
        vis = np.ones(dx.shape, dtype=bool)
        for u, v in points:
            vis &= np.gcd(dx - u, dy - v) == 1
        return vis
    xr = int(dx.min()), int(dx.max())
    yr = int(dy.min()), int(dy.max())
    if len(points) >= 2:
        (bx, nx), (by, ny) = _window(*xr), _window(*yr)
        mx = max(max(abs(bx - u), abs(bx + nx - 1 - u)) for u, _ in points)
        my = max(max(abs(by - v), abs(by + ny - 1 - v)) for _, v in points)
        # only these primes can hide a displacement within the windows; a
        # count of all of _BIT_PRIMES means maybe more, and no fit anyway
        nprimes = sum(1 for p in _BIT_PRIMES if p**bb.b1 <= mx and p**bb.b2 <= my)
        if len(points) * (2 + nprimes) <= 64 and max(nx, ny) <= MAX_TABLE_ENTRIES:
            tx = _lane_table(bb.b1, 0, bx, nx, tuple(u for u, _ in points), nprimes)
            ty = _lane_table(bb.b2, 1, by, ny, tuple(v for _, v in points), nprimes)
            r = tx[dx - bx] if bx else tx[dx]
            r &= ty[dy - by] if by else ty[dy]
            return r == 0
    acc = None
    for u, v in points:
        r = _bits(bb.b1, 0, dx, *xr, u)
        r &= _bits(bb.b2, 1, dy, *yr, v)
        if acc is None:
            acc = r
        else:
            acc |= r
    vis = acc == 0
    for k in np.flatnonzero(acc == _PAST).tolist():
        x, y = int(dx.flat[k]), int(dy.flat[k])
        # a point on an axis of (x, y) left r <= 1, so sees it by the axis rule
        vis.flat[k] = not any(
            x != u and y != v and _has_common_curve_divisor(bb, abs(x - u), abs(y - v), None)
            for u, v in points
        )
    return vis
