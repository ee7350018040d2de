"""Closed-form limiting densities, the arithmetic functions behind them,
and numerical verifiers for the summation identities behind them.

The two density evaluators share the rigorous tail-bound machinery from
``numtheory``.  Both extract integer zeta factors so the corrected per-prime
factors decay much faster than the raw ones, keeping prime cutoffs small
even at tight tolerances:

* watchpoints, J observers:  prod_p (1 - J/p^k),  k = b1 + b2.  Corrected
  factor (1 - J*t)/(1 - t)^J with t = p^-k deviates from 1 by at most
  2*J^2*p^-2k once J*t <= 1/2, so kappa doubles to 2k.
* walkers, r of them:  prod_p (1 - p^-lo + p^-lo*(1 - p^-hi)^r).  After
  extracting zeta(k)^-r the deviation is below 3*r^2*p^-(lo+2hi); the
  corrected factors overflow float range for large r, so this product is
  accumulated in log space.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numtheory import (
    MAX_TABLE_ENTRIES,
    BExponent,
    CapacityError,
    DensityResult,
    _euler_primes,
    as_bexp,
    euler_product_truncated,
    factorize_distinct,
    gcd_b,
    sieve_primes,
    zeta_int,
)

ShiftVector = tuple[int, ...]


def density_watchpoints(b, J: int, tol: float = 1e-9) -> DensityResult:
    """Limiting proportion of steps visible from J pairwise-visible watchpoints.

    Exactly zero when J = 2**(b1+b2) (the factor at p = 2 vanishes: no point
    is visible from a saturated set).
    """
    bb = as_bexp(b)
    k = bb.b1 + bb.b2
    if not 1 <= J <= 2**k:
        raise ValueError(f"J must lie in 1..2**(b1+b2) = {2**k}, got {J}")

    def corrected(p: int) -> float:
        t = 1 / p**k
        return (1.0 - J * t) / (1.0 - t) ** J

    raw = euler_product_truncated(corrected, 2 * k, tol, dev_constant=2.0 * J * J)
    if raw.value == 0.0:
        return raw
    return DensityResult(raw.value * zeta_int(k) ** (-J), raw.prime_cutoff, raw.tail_bound)


def density_walkers(b, r: int, tol: float = 1e-9) -> DensityResult:
    """Limiting proportion of steps at which r independent walkers are all
    visible from the origin.

    Depends on b only through lo = min(b1, b2) and hi = max(b1, b2); strictly
    decreasing in r with limit 1/zeta(lo) when lo >= 2.
    """
    bb = as_bexp(b)
    if r < 1:
        raise ValueError(f"walker count must be >= 1, got {r}")
    lo, hi = bb.lo, bb.hi
    k = lo + hi
    primes, tail = _euler_primes(3.0 * r * r, lo + 2 * hi, tol)
    log_acc = -r * math.log(zeta_int(k))
    for p in primes:
        y = 1 / p**lo
        z = 1 / p**hi
        f = 1.0 - y * (1.0 - (1.0 - z) ** r)
        log_acc += math.log(f) - r * math.log1p(-1 / p**k)
    return DensityResult(math.exp(log_acc), primes[-1], tail)


def f_b_value(b, n: int) -> float:
    """Multiplicative visibility density factor of n.

    On a prime power p^k the value is 1 for k < b1 and 1 - p^-b2 for k >= b1,
    so f(n) = prod over primes with p^b1 | n of (1 - p^-b2); always in (0, 1].
    """
    if n < 1:
        raise ValueError(f"f_b is defined on positive integers, got {n}")
    return f_bs_value(b, (0,), n)


def f_b_values_upto(b, x: int) -> np.ndarray:
    """f_b(n) for all n <= x at once (index 0 is unused and set to 0)."""
    bb = as_bexp(b)
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    vals = _f_bs_table(bb, (0,), 0, x)
    vals[0] = 0.0
    return vals


def f_bs_value(b, shifts: Sequence[int], n: int) -> float:
    """Shifted Mobius sum over tuples (d_1..d_J): each d_j**b1 | n - s_j,
    the d_j pairwise coprime, summing prod mu(d_j) / (prod d_j)**b2.

    Coprimality puts each prime in at most one d_j, so the sum is the product
    over primes p of (1 - c_p / p**b2), c_p the number of j with
    p**b1 | n - s_j.  Defined for n beyond every |s_j|; with J = 1, s = 0
    this is f_b(n).
    """
    bb = as_bexp(b)
    s = tuple(int(v) for v in shifts)
    if not s:
        raise ValueError("need at least one shift")
    if n <= max(abs(v) for v in s):
        raise ValueError(f"n must exceed every |shift|, got n={n}, shifts={s}")
    counts = Counter(p for sj in s for p, k in factorize_distinct(n - sj) if k >= bb.b1)
    return math.prod((1.0 - c / p**bb.b2 for p, c in sorted(counts.items())), start=1.0)


def _f_bs_table(bb: BExponent, s: ShiftVector, lo: int, hi: int) -> np.ndarray:
    """f_{b,s}(n) for lo <= n <= hi, sieved: each prime p scales each residue
    class of the s_j mod p**b1 once, in ascending prime order as f_bs_value
    multiplies, so the two agree bit for bit."""
    if hi < lo:
        return np.ones(0)
    if hi - lo + 1 > MAX_TABLE_ENTRIES:
        raise CapacityError(f"f_b table on [{lo}, {hi}] exceeds the cap of {MAX_TABLE_ENTRIES} entries")
    top = hi - min(s)  # the largest n - s_j; at least 1 once lo > max|s_j|
    span = max(s) - min(s)
    distinct = Counter(s)  # once p**b1 > span, the distinct s_j are the classes
    primes = sieve_primes(round(top ** (1.0 / bb.b1)) + 1)  # raises past the cap before vals exists
    vals = np.ones(hi - lo + 1)
    for p in primes.tolist():
        q = p**bb.b1
        if q > top:
            break
        classes = distinct if q > span else Counter(v % q for v in s)
        for r, c in classes.items():
            vals[(r - lo) % q :: q] *= 1.0 - c / p**bb.b2
    return vals


@dataclass(frozen=True)
class MeanValueReport:
    """One partial-sum comparison against its predicted main term.

    ``error_ratio`` normalizes abs_error by the expected scale of the error
    term: log(x)**J for the shifted sums, sqrt(x) for walker moments.
    """

    x: int
    partial_sum: float
    predicted_main: float
    abs_error: float
    error_ratio: float


def mean_value_check(
    kind: str,
    b,
    x: int,
    *,
    r: int | None = None,
    shifts: Sequence[int] | None = None,
) -> MeanValueReport:
    """Compare a partial sum of f_b**r (kind "walker-moment") or f_{b,s}
    (kind "watchpoints-shifted") with density * x, the density at its
    default tolerance 1e-9.

    Stated for b1 <= b2 only; swap the axes to handle the mirrored case.
    The shifted sum starts just past max|s_j| (earlier terms are undefined);
    that offset is part of the reported error.
    """
    bb = as_bexp(b)
    if bb.b1 > bb.b2:
        raise ValueError("mean-value sums assume b1 <= b2; swap the axes first")
    if x < 100:
        raise ValueError(f"need x >= 100, got {x}")
    if kind == "walker-moment":
        if r is None or r < 1:
            raise ValueError("walker-moment needs r >= 1")
        vals = f_b_values_upto(bb, x)
        partial = float(math.fsum(np.power(vals[1:], r).tolist()))
        theory = density_walkers(bb, r)
        scale = math.sqrt(x)
    elif kind == "watchpoints-shifted":
        if not shifts:
            raise ValueError("watchpoints-shifted needs a nonempty shift vector")
        s = tuple(int(v) for v in shifts)
        partial = math.fsum(_f_bs_table(bb, s, max(abs(v) for v in s) + 1, x).tolist())
        theory = density_watchpoints(bb, len(s))
        scale = math.log(x) ** len(s)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    predicted = theory.value * x
    abs_error = abs(partial - predicted)
    return MeanValueReport(x, partial, predicted, abs_error, abs_error / scale)


def _binomial_pmf_row(alpha: float, n: int) -> np.ndarray:
    """pmf of Binomial(n, alpha) for k = 0..n, in extended precision.

    Anchored at k = 0 and built by the multiplicative recurrence in
    longdouble, which stays far inside the 1e-12 round-off budget of the
    partition identity.  Once the anchor (1-alpha)**n falls so far below the
    longdouble range that the running product of ratios overflows, the row
    cannot be formed this way and a ValueError says so.
    """
    if n + 1 > MAX_TABLE_ENTRIES:
        raise CapacityError(f"a Binomial(n={n}) pmf row exceeds the cap of {MAX_TABLE_ENTRIES} entries")
    a = np.longdouble(alpha)
    row = np.empty(n + 1, dtype=np.longdouble)
    row[0] = (1 - a) ** np.longdouble(n)
    if n:
        k = np.arange(1, n + 1, dtype=np.longdouble)
        ratios = (np.longdouble(n) - k + 1) / k * (a / (1 - a))
        with np.errstate(over="ignore", invalid="ignore"):
            row[1:] = row[0] * np.cumprod(ratios)
    if not np.isfinite(row).all():
        raise ValueError(
            f"Binomial(n={n}, alpha={alpha}) pmf is out of extended-precision range: "
            f"the anchor (1-alpha)**n = {row[0]!s} is too small and the ratio recurrence overflows"
        )
    return row


def binomial_congruence_sums(alpha: float, n: int, d: int) -> list[float]:
    """Binomial(n, alpha) mass on each residue class k = a (mod d), a = 0..d-1,
    from one pmf row.

    Each tends to 1/d at rate O(n^-1/2); d = 1 gives the whole mass, and the
    d classes of any modulus partition it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    row = _binomial_pmf_row(alpha, n)
    return [float(math.fsum(row[a::d].astype(np.float64).tolist())) for a in range(d)]


def binomial_congruence_sum(alpha: float, n: int, d: int, a: int) -> float:
    """Binomial(n, alpha) mass on the residue class k = a (mod d); see
    binomial_congruence_sums."""
    if not 0 <= a < d:
        raise ValueError(f"residue must satisfy 0 <= a < d, got a={a}")
    return binomial_congruence_sums(alpha, n, d)[a]


def gcdb_conditioned_binomial_sum(
    b,
    alpha: float,
    m: int,
    n: int,
    shifts: Sequence[int],
    tshifts: Sequence[int],
) -> float:
    """Binomial(m, alpha) mass on the k with gcd_b(n - s_j, k - t_j) = 1 for
    every j.

    Requires the pairwise hypothesis gcd_b(s_j1 - s_j2, t_j1 - t_j2) = 1;
    the offending pair is named otherwise.  Tends to f_{b,s}(n).
    """
    bb = as_bexp(b)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    s = tuple(int(v) for v in shifts)
    t = tuple(int(v) for v in tshifts)
    if not s or len(s) != len(t):
        raise ValueError("shift vectors must be nonempty and of equal length")
    if n <= max(abs(v) for v in s):
        raise ValueError(f"n must exceed every |shift|, got n={n}, shifts={s}")
    for j1 in range(len(s)):
        for j2 in range(j1 + 1, len(s)):
            ds, dt = s[j1] - s[j2], t[j1] - t[j2]
            if (ds == 0 and dt == 0) or gcd_b(bb, ds, dt) != 1:
                raise ValueError(
                    f"shift pairs {j1} and {j2} violate the pairwise gcd_b hypothesis: "
                    f"gcd_b({ds}, {dt}) != 1"
                )
    if m == 0:
        row = np.array([1.0])
    else:
        row = _binomial_pmf_row(alpha, m).astype(np.float64)
    k = np.arange(m + 1, dtype=np.int64)
    ok = np.ones(m + 1, dtype=bool)
    for j in range(len(s)):
        target = n - s[j]
        for p, kk in factorize_distinct(target):
            if kk >= bb.b1:
                ok &= (k - t[j]) % p**bb.b2 != 0
    return float(math.fsum(row[ok].tolist()))
