"""Deterministic property and identity checks, shared by the CLI and the tests.

Each check returns CheckResult rows rather than asserting, so the CLI can
render a report and exit nonzero on any failure.  All randomness comes from
a fixed SplitMix64 stream: reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import as_bexp, gcd_b
from .theory import binomial_congruence_sums, mean_value_check
from .visibility import curve_oracle_visible, is_b_visible
from .walk import MASK64, splitmix64_next

_COPRIME_B_PAIRS = [
    (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1),
    (2, 3), (3, 2), (3, 4), (4, 3),
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str


class _Rand:
    """Deterministic integer draws off a SplitMix64 stream."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def below(self, n: int) -> int:
        z, self.state = splitmix64_next(self.state)
        return z % n

    def range(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def gcd_b_bruteforce(b, m: int, n: int) -> int:
    """Independent oracle: scan every candidate d up to the root bound."""
    bb = as_bexp(b)
    m, n = abs(m), abs(n)
    if m == 0 and n == 0:
        raise ValueError("gcd_b(0, 0) is undefined")
    bounds = []
    if m:
        bounds.append(int(m ** (1.0 / bb.b1)) + 2)
    if n:
        bounds.append(int(n ** (1.0 / bb.b2)) + 2)
    d = np.arange(1, min(bounds) + 1, dtype=np.int64)
    ok = np.ones(len(d), dtype=bool)
    if m:
        ok &= m % d**bb.b1 == 0
    if n:
        ok &= n % d**bb.b2 == 0
    return int(d[ok].max())


def check_gcd_properties(samples: int = 10_000) -> list[CheckResult]:
    """Brute-force equivalence plus the exchange, shift, bi-multiplicativity
    and prime-power identities of the generalized gcd."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = _Rand(0xC0FFEE)
    results = []

    def rand_b():
        return _COPRIME_B_PAIRS[rng.below(len(_COPRIME_B_PAIRS))]

    def rand_mn():
        while True:
            m = rng.range(-1_000_000, 1_000_000)
            n = rng.range(-1_000_000, 1_000_000)
            if m or n:
                return m, n

    def brute_force() -> bool:
        b = rand_b()
        m, n = rand_mn()
        return gcd_b(b, m, n) == gcd_b_bruteforce(b, m, n)

    def divisor_criterion() -> bool:
        b = as_bexp(rand_b())
        m, n = rand_mn()
        d = rng.range(1, 50)
        return (gcd_b(b, m, n) % d == 0) == (m % d**b.b1 == 0 and n % d**b.b2 == 0)

    def shift_invariance() -> bool:
        b1, b2 = sorted(rand_b())
        m, n = rand_mn()
        n = n or 1
        a = rng.range(-10, 10)
        return gcd_b((b1, b2), m, n) == gcd_b((b1, b2), m + a * n, n)

    def bi_multiplicativity() -> bool:
        while True:  # redraw until m1*n1 and m2*n2 are coprime
            b = rand_b()
            m1, n1, m2, n2 = (rng.range(1, 2000) for _ in range(4))
            if math.gcd(m1 * n1, m2 * n2) == 1:
                return gcd_b(b, m1 * m2, n1 * n2) == gcd_b(b, m1, n1) * gcd_b(b, m2, n2)

    for name, agrees in (
        (f"gcd_b vs brute force ({samples} random cases)", brute_force),
        ("divisor criterion: d | gcd_b(m,n) iff d^b1|m and d^b2|n", divisor_criterion),
        ("shift invariance: gcd_b(m,n) = gcd_b(m+a*n, n) for b1<=b2", shift_invariance),
        (f"bi-multiplicativity on {samples} coprime quadruples", bi_multiplicativity),
    ):
        bad = sum(not agrees() for _ in range(samples))
        results.append(CheckResult(name, bad == 0, f"{bad} mismatches"))

    bad = 0
    for b1, b2 in _COPRIME_B_PAIRS:
        for p in (2, 3, 5):
            for k1 in range(13):
                for k2 in range(13):
                    if k1 == k2 == 0:
                        continue
                    want = p ** min(k1 // b1, k2 // b2)
                    if gcd_b((b1, b2), p**k1, p**k2) != want:
                        bad += 1
    results.append(CheckResult("prime-power formula gcd_b(p^k1, p^k2)", bad == 0, f"{bad} mismatches"))
    return results


def check_visibility_oracle(b, box: int = 40) -> list[CheckResult]:
    """Exhaustive fast-criterion vs curve-oracle agreement over a box.

    Both predicates depend on a pair only through its displacement, so the
    (box+1)^2-choose-style pair census reduces to the box*box displacement
    classes, each evaluated once per route.
    """
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    bb = as_bexp(b)
    mismatches = []
    pairs = 0
    for dx in range(1, box + 1):
        for dy in range(1, box + 1):
            fast = is_b_visible(bb, (dx, dy), (0, 0))
            slow = curve_oracle_visible(bb, (dx, dy), (0, 0))
            if fast != slow:
                mismatches.append((dx, dy))
            pairs += (box + 1 - dx) * (box + 1 - dy)
    name = f"oracle agreement b=({bb.b1},{bb.b2}) on {pairs} pairs ({box}x{box} box)"
    detail = "all agree" if not mismatches else f"disagreements at {mismatches[:5]}"
    return [CheckResult(name, not mismatches, detail)]


def check_congruence_sum(alpha: float, n: int, d: int, threshold: float = 0.01) -> list[CheckResult]:
    """Residue-class binomial masses: near-equidistribution and exact partition."""
    sums = binomial_congruence_sums(alpha, n, d)
    max_dev = max(abs(s - 1.0 / d) for s in sums)
    partition = abs(math.fsum(sums) - 1.0)
    return [
        CheckResult(
            f"congruence masses near 1/{d} (alpha={alpha}, n={n})",
            max_dev <= threshold,
            f"max deviation {max_dev:.3e} (threshold {threshold})",
        ),
        CheckResult("residue classes partition the total mass", partition <= 1e-12, f"|sum-1| = {partition:.2e}"),
    ]


def check_mean_value(
    kind: str,
    b,
    x: int,
    *,
    r: int | None = None,
    shifts=None,
) -> list[CheckResult]:
    """Partial sums against density*x at x//100 and x: the normalized error
    must not grow by more than a factor of 10."""
    x_small = max(100, x // 100)
    full = mean_value_check(kind, b, x, r=r, shifts=shifts)  # first: an x past the cap does no work
    small = mean_value_check(kind, b, x_small, r=r, shifts=shifts)
    ok = full.error_ratio <= 10.0 * small.error_ratio + 1e-12
    bb = as_bexp(b)
    lab = f"r={r}" if kind == "walker-moment" else f"shifts={tuple(shifts or ())}"
    return [
        CheckResult(
            f"mean value {kind} b=({bb.b1},{bb.b2}) {lab}: normalized error decay",
            ok,
            f"ratio {small.error_ratio:.4e} at x={x_small} -> {full.error_ratio:.4e} at x={x}",
        ),
        CheckResult(
            f"mean value {kind}: relative error at x={x}",
            abs(full.partial_sum / x - full.predicted_main / x) < 0.05,
            f"sum/x = {full.partial_sum / x:.8f} vs density {full.predicted_main / x:.8f}",
        ),
    ]
