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


# A call reads at most two tables (K_b1 and K_b2); more cached tables
# measurably raised peak RSS on the Table 1 workload.
@lru_cache(maxsize=2)
def _kernel_table(e: int, lo: int, hi: int) -> np.ndarray:
    """K_e[m] for lo <= m <= hi, at index m - lo: the product of the primes p
    with p**e | m, and 1 at m = 0.  Read-only, so threads may share it."""
    root = int(hi ** (1.0 / e)) + 1  # at or just past the e-th root; extra primes stride nothing
    if root + 1 > MAX_TABLE_ENTRIES or hi - lo + 1 > MAX_TABLE_ENTRIES:
        raise CapacityError(
            f"kernel table K_{e} on [{lo}, {hi}] needs a sieve to {root} over "
            f"{hi - lo + 1} entries, beyond the cap of {MAX_TABLE_ENTRIES}"
        )
    table = np.ones(hi - lo + 1, dtype=np.int32 if hi < 2**31 else np.int64)
    first = max(lo, 1)
    for p in sieve_primes(root).tolist():
        q = p**e
        table[-(-first // q) * q - lo :: q] *= p
    table.flags.writeable = False
    return table


def _kernel(e: int, v: np.ndarray) -> np.ndarray:
    """K_e at every entry of the nonnegative array v (v itself when e = 1).

    The table starts at base, the multiple of g at or below min(v), where g
    is the power of two above the spread of v, and its length is the power
    of two (g or 2g) that reaches max(v).  Successive calls on one walk thus
    share a window, built once.
    """
    if e == 1 or v.size == 0:
        return v
    lo, hi = int(v.min()), int(v.max())
    g = 1 << (hi - lo).bit_length()
    base = lo - lo % g
    table = _kernel_table(e, base, base + (1 << (hi - base).bit_length()) - 1)
    return table[v - base] if base else table[v]


def visible_mask(b, dx, dy) -> np.ndarray:
    """Vectorized is_b_visible over displacement arrays of any shape.

    Matches the scalar predicate exactly, shared-coordinate rule included;
    the all-zero displacement maps to False (a walker standing on a
    watchpoint does not count as visible).  An off-axis displacement is
    invisible exactly when some prime p has p**b1 | dx and p**b2 | dy, that
    is when gcd(K_b1[|dx|], K_b2[|dy|]) > 1, where K_e[m] is the product of
    the primes whose e-th power divides m (K_1[m] may be taken as m).  The
    K_e are looked up in cached tables over a window of the values, and the
    gcd runs only where both kernels exceed 1.  Raises CapacityError when a
    table would need a sieve past MAX_TABLE_ENTRIES.
    """
    bb = as_bexp(b)
    a = np.abs(dx)
    c = np.abs(dy)
    if bb.b1 == 1 and bb.b2 == 1:
        bad = np.gcd(a, c) != 1
    else:
        ka = _kernel(bb.b1, a)
        kc = _kernel(bb.b2, c)
        bad = (ka > 1) & (kc > 1)
        hit = np.nonzero(bad)
        bad[hit] = np.gcd(ka[hit], kc[hit]) > 1
    vis = ~bad
    zx = a == 0
    zy = c == 0
    vis[zx] = c[zx] == 1
    vis[zy] = a[zy] == 1
    return vis
