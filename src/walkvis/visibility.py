"""Visibility of lattice points along power curves.

Two routes to the same predicate: a fast arithmetic criterion built on the
generalized gcd, and a brute-force oracle that scans the defining curve with
exact integer arithmetic.  Watchpoint sets are validated here against the
pairwise-visibility condition and the 2**(b1+b2) cardinality bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .numtheory import (
    MAX_TABLE_ENTRIES, BExponent, CapacityError, PrimeTables, _iroot, _pow_divides, as_bexp,
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
    visible exactly when the other coordinates differ by 1.  Off axis,
    gcd(|dx|, |dy|) is factored, so it must lie below 2**64.
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


def validate_watchpoint_set(b, points: Sequence | WatchpointSet) -> WatchpointSet:
    """Validate a nonempty point list as a watchpoint set for this b.  A
    WatchpointSet validated for this b comes back unchanged; one validated
    for another b is validated again."""
    bb = as_bexp(b)
    if isinstance(points, WatchpointSet):
        if points.b == bb:
            return points
        points = points.points
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


def _window(lo: int, hi: int) -> tuple[int, int]:
    """(base, size) of the table window for values in [lo, hi]: base is the
    multiple of g at or below lo, where g is the power of two above the
    spread, and size the power of two (g or 2g) that reaches hi.  Successive
    calls on one walk, and points near one another, thus share a window."""
    g = 1 << (hi - lo).bit_length()
    base = lo - lo % g
    return base, 1 << (hi - base).bit_length()


@lru_cache(maxsize=64)
def _layout(b: tuple, npoints: int, root: int) -> tuple[int, int, int]:
    """(W, K, large) of the lane tables at b = (b1, b2) for npoints points
    and P, the primes up to root.  The points go round-robin to W words, g
    to a word.  A lane holds all of P (K = |P|, large = 0) when 2 + |P|
    bits fit g times, else the first K = 64 // g - 3 primes and one large
    bit for the rest of P.  W is the fewest words, from ceil(npoints / 21)
    (lanes of 3 bits), at which P fits, or the share of positions left to
    the recheck is at most 2**-8 by the union bound
    npoints * sum q**-b1 * sum q**-b2 over the primes q of P past the K-th,
    or g = 1: a recheck costs microseconds, a word a few ns per position.
    large is the mask of the large bits of a word.
    """
    past = sieve_primes(root).astype(float)
    for words in itertools.count(-(-npoints // 21)):
        g = -(-npoints // words)
        if g * (2 + len(past)) <= 64:
            return words, len(past), 0
        k = 64 // g - 3
        if g == 1 or npoints * (past[k:] ** -b[0]).sum() * (past[k:] ** -b[1]).sum() <= 2**-8:
            return words, k, sum(1 << j * (3 + k) + 2 + k for j in range(g))


# One call reads one table per coordinate; more cached tables measurably
# raised peak RSS on the Table 1 workload.
@lru_cache(maxsize=2)
def _lane_table(b: tuple, axis: int, base: int, size: int, coords: tuple, root: int) -> np.ndarray:
    """The packed words of one coordinate at b = (b1, b2) for several
    points, at index [w, m - base] for base <= m < base + size, where
    coords holds each point's coordinate c on this axis, e = b[axis], and P
    holds the primes up to root.  Point k owns lane k // W of word k % W,
    of 2 + K bits plus a large bit when there is one (see _layout): lane
    bit 2 + q is set when the q-th prime p has p**e | m - c, and the large
    bit when a prime of P past the K-th does.  Lane bits 0 and 1 carry the
    axis rule crosswise: the dx table (axis 0) sets bit 1 at every m, the
    dy table bit 0, so the AND of a dx and a dy lane has an axis bit
    exactly when one of m - c is 0 (whose entry sets the whole lane) and
    the other is not +-1 (whose entry clears it).  Read-only, so threads
    may share it.
    """
    words, nbits, large = _layout(b, len(coords), root)
    e, width = b[axis], 2 + nbits + (large > 0)
    table = np.zeros((words, size), dtype=np.uint64)
    for k, c in enumerate(coords):
        row, shift = table[k % words], k // words * width
        lane = ((1 << width) - 1) << shift
        row |= np.uint64((2 >> axis) << shift)
        for q, p in enumerate(sieve_primes(root).tolist()):
            row[(c - base) % p**e :: p**e] |= np.uint64(1 << shift + 2 + min(q, nbits))
        for m in (c - 1, c + 1):
            if base <= m < base + size:
                row[m - base] &= np.uint64(~lane & (2**64 - 1))
        if base <= c < base + size:
            row[c - base] |= np.uint64(lane)
    table.flags.writeable = False
    return table


def visible_mask(b, dx, dy, points=((0, 0),), bounds=None) -> np.ndarray:
    """Vectorized is_b_visible over same-shape arrays of positions: whether
    (dx, dy) is b-visible from every point (u, v), that is, whether each
    displacement (dx - u, dy - v) is.

    Matches the scalar predicate exactly, shared-coordinate rule included;
    the all-zero displacement maps to False (a walker standing on a
    watchpoint does not count as visible).  An off-axis displacement is
    invisible exactly when some prime p has p**b1 | dx - u and
    p**b2 | dy - v.  b = (1, 1) takes np.gcd, since every prime matters
    there.

    Otherwise P holds the primes with p**b1 <= max|x - u| and
    p**b2 <= max|y - v| over the windows (see _window) of dx and dy and
    every point; a hiding prime lies in P.  Each point gets a lane in one
    of the W words of a cached table per coordinate (see _layout and
    _lane_table), indexed by the raw coordinate, and the mask ORs
    T_x[w][dx] & T_y[w][dy] over the words into r: two gathers and one AND
    per word and position.  r = 0 is visible, a bit other than a large bit
    is hidden, and large bits alone (both coordinates have a prime of P
    past the K-th, maybe of different primes) are rechecked by factoring.
    bounds, ((xlo, xhi), (ylo, yhi)) with every dx in [xlo, xhi] and every
    dy in [ylo, yhi], takes the windows from those bounds instead of from
    the extremes of dx and dy; any bounds that hold give the same mask.
    Raises CapacityError when a window, or the primes of P, would pass
    MAX_TABLE_ENTRIES.
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
    if bounds is None:
        bounds = (int(dx.min()), int(dx.max())), (int(dy.min()), int(dy.max()))
    (bx, nx), (by, ny) = _window(*bounds[0]), _window(*bounds[1])
    if max(nx, ny) > MAX_TABLE_ENTRIES:
        raise CapacityError(f"a visibility table of {max(nx, ny)} entries passes the cap of {MAX_TABLE_ENTRIES}")
    mx = max(max(abs(bx - u), abs(bx + nx - 1 - u)) for u, _ in points)
    my = max(max(abs(by - v), abs(by + ny - 1 - v)) for _, v in points)
    root = min(_iroot(max(mx, 1), bb.b1), _iroot(max(my, 1), bb.b2))
    key = (bb.b1, bb.b2)
    tx = _lane_table(key, 0, bx, nx, tuple(u for u, _ in points), root)
    ty = _lane_table(key, 1, by, ny, tuple(v for _, v in points), root)
    ix, iy = dx - bx if bx else dx, dy - by if by else dy
    r = tx[0].take(ix)  # take is cheaper than fancy indexing
    r &= ty[0].take(iy)
    for w in range(1, len(tx)):
        s = tx[w].take(ix)
        s &= ty[w].take(iy)
        r |= s
    vis = r == 0
    large = _layout(key, len(points), root)[2]
    if large:
        r &= np.uint64(~large & (2**64 - 1))
        for k in np.flatnonzero((r == 0) != vis).tolist():
            x, y = int(dx.flat[k]), int(dy.flat[k])
            # a point on an axis of (x, y) left an empty lane, so sees it by the axis rule
            vis.flat[k] = not any(
                x != u and y != v and _has_common_curve_divisor(bb, abs(x - u), abs(y - v), None)
                for u, v in points
            )
    return vis
