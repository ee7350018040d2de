"""Arithmetic substrate: sieves, the curve-generalized gcd, integer zeta
values, and truncated Euler products carrying rigorous tail bounds.

Everything here is a pure function of its inputs; the sieve tables are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

#: Hard cap on sieve size (number of table entries).
MAX_TABLE_ENTRIES = 200_000_000


class CapacityError(Exception):
    """A requested table or computation exceeds the configured size cap."""


@dataclass(frozen=True)
class BExponent:
    """Coprime exponent pair (b1, b2) selecting the family of visibility curves.

    b1 acts on the y-displacement, b2 on the x-displacement.  (1, 1) is
    ordinary straight-line visibility.
    """

    b1: int
    b2: int

    def __post_init__(self) -> None:
        if self.b1 < 1 or self.b2 < 1:
            raise ValueError(f"exponents must be positive, got ({self.b1}, {self.b2})")
        if math.gcd(self.b1, self.b2) != 1:
            raise ValueError(f"exponents must be coprime, got ({self.b1}, {self.b2})")

    @property
    def lo(self) -> int:
        """min(b1, b2); floor exponent in the multi-walker density."""
        return min(self.b1, self.b2)

    @property
    def hi(self) -> int:
        """max(b1, b2)."""
        return max(self.b1, self.b2)

    def swapped(self) -> "BExponent":
        return BExponent(self.b2, self.b1)


def as_bexp(b) -> BExponent:
    """Coerce a BExponent or (b1, b2) pair, validating on the way."""
    if isinstance(b, BExponent):
        return b
    b1, b2 = b
    return BExponent(int(b1), int(b2))


@dataclass(frozen=True)
class PrimeTables:
    """Sieve tables up to ``limit``: primes, Mobius values, smallest prime factors.

    Invariants: mobius[1] = 1, mobius[p] = -1 for primes, mobius[n] = 0 exactly
    when n has a squared factor; spf[n] is the least prime dividing n (n >= 2);
    primes holds exactly the n with spf[n] = n.
    """

    limit: int
    primes: np.ndarray  # int64, ascending
    mobius: np.ndarray  # int8, indexed 0..limit
    spf: np.ndarray  # int32, indexed 0..limit


# The primes up to _PRIMES[0], ascending and read-only, shared by every
# caller.  The list only grows (under _GROW), so a prefix read before a
# growth keeps its values.
_PRIMES = (1, np.zeros(0, dtype=np.int64))
_PRIMES[1].flags.writeable = False
_GROW = threading.Lock()


def sieve_primes(limit) -> np.ndarray:
    """Primes <= limit, ascending, as a read-only int64 prefix of one shared
    list.  A limit past the list grows it, by Eratosthenes, to
    max(limit, min(2 * current, MAX_TABLE_ENTRIES), 1024).  Raises
    CapacityError, before anything is sieved, for a limit (NaN and infinity
    included) that is not below MAX_TABLE_ENTRIES."""
    global _PRIMES
    if not limit < MAX_TABLE_ENTRIES:
        raise CapacityError(f"the primes up to {limit} exceed the cap of {MAX_TABLE_ENTRIES} table entries")
    limit = int(max(limit, 0))
    with _GROW:
        if limit > _PRIMES[0]:
            top = max(limit, min(2 * _PRIMES[0], MAX_TABLE_ENTRIES), 1 << 10)
            flags = np.ones(top + 1, dtype=bool)
            flags[:2] = False
            for i in range(2, math.isqrt(top) + 1):
                if flags[i]:
                    flags[i * i :: i] = False
            primes = np.flatnonzero(flags).astype(np.int64, copy=False)
            primes.flags.writeable = False
            _PRIMES = (top, primes)
        primes = _PRIMES[1]
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def build_tables(limit: int) -> PrimeTables:
    """Sieve primes, Mobius values and smallest prime factors up to ``limit``."""
    if limit < 2:
        raise CapacityError(f"sieve limit must be at least 2, got {limit}")
    if limit + 1 > MAX_TABLE_ENTRIES:
        raise CapacityError(f"sieve of {limit + 1} entries exceeds the cap of {MAX_TABLE_ENTRIES}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    untouched = np.nonzero(spf[2:] == 0)[0].astype(np.int64) + 2
    spf[untouched] = untouched  # primes > sqrt(limit), and the sieving primes
    spf[1] = 1

    primes = np.nonzero(spf[2:] == np.arange(2, limit + 1, dtype=np.int32))[0] + 2
    primes = primes.astype(np.int64)

    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    for p in primes.tolist():
        mobius[p::p] *= -1
        sq = p * p
        if sq <= limit:
            mobius[sq::sq] = 0
    return PrimeTables(limit, primes, mobius, spf)


def _multiplicity(p: int, x: int) -> int:
    """The exponent of the prime p in x != 0."""
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


# Miller-Rabin with these bases decides the primality of every n below
# _MR_LIMIT (Sorenson and Webster, 2015), so of every 64-bit n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_TRIAL_LIMIT = 1 << 10


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n with no prime factor up to 41: exact below
    _MR_LIMIT.  Past it a False still proves n composite, and a True needs
    a strong Lucas test as well (together Baillie-PSW, with base 2 among
    the bases): no composite is known to pass both, but none is proven to
    fail, so past _MR_LIMIT a True means a probable prime."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return n < _MR_LIMIT or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """The strong Lucas probable-prime test of odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4.  With n + 1 = d * 2**s, d odd, n passes when U_d = 0 or
    V_(d * 2**r) = 0 (mod n) for some 0 <= r < s.  Primes always pass."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod n, n odd
        x %= n
        return (x + n * (x & 1)) >> 1

    U, V, Qk = 1, 1, Q % n  # U_1, V_1 = P and Q**1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # k -> 2k
        if bit == "1":  # 2k -> 2k + 1
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of Pollard's rho."""
    for c in itertools.count(1):
        y = ys = x = 2
        q = g = r = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: replay the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=1)
def _pm1_exponent() -> int:
    return math.lcm(*range(1, 4097))


def _pm1_divisor(n: int) -> int:
    """gcd(3**E - 1, n) with E = lcm(1 .. 4096), Pollard's p - 1 stage one:
    a proper divisor of n when the order of 3 modulo some prime factor
    divides E (as when p - 1 is 4096-powersmooth) and modulo another does
    not, else 1 or n.  Base 2 would give n whenever a Mersenne prime
    2**k - 1, k <= 4096, is a factor: 2 has order k modulo it."""
    return math.gcd(pow(3, _pm1_exponent(), n) - 1, n)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_divisors(n: int) -> set[int]:
    """Distinct primes of n > 1 with no prime factor below _TRIAL_LIMIT.

    An n that _is_prime calls composite is first tested for n = r**k.  Past
    2**50 Pollard's p - 1 stage (a 5900-bit modular power) goes before rho,
    which needs about sqrt(p) steps for the least prime factor p.
    Every prime factor exceeds 2**10, so k <= bit_length/10.  Still out of
    reach: two large primes whose p - 1 are both far from smooth, such as
    (2**89 - 1) * (2**107 - 1), on which the p - 1 stage gives 1.  At or
    past _MR_LIMIT a prime is a Baillie-PSW probable prime (unproven).
    """
    if _is_prime(n):
        return {n}
    for k in range(2, n.bit_length() // 10 + 1):
        r = _iroot(n, k)
        if r**k == n:
            return _prime_divisors(r)
    d = _pm1_divisor(n) if n >> 50 else 1
    if d in (1, n):
        d = _rho_divisor(n)
    return _prime_divisors(d) | _prime_divisors(n // d)


def factorize_distinct(x: int, tables: PrimeTables | None = None) -> Iterator[tuple[int, int]]:
    """Yield (prime, multiplicity) for x >= 1 in ascending order of prime.

    Uses the spf walk when x is in range.  Otherwise it trial-divides below
    _TRIAL_LIMIT, and splits the cofactor with Miller-Rabin, k-th roots and rho.
    A factor at or past _MR_LIMIT (about 3.3e24) is called prime by the
    Baillie-PSW probable-prime test, which is unproven there.
    """
    if x < 1:
        raise ValueError(f"cannot factor {x}")
    if tables is not None and x <= tables.limit:
        spf = tables.spf
        while x > 1:
            p = int(spf[x])
            k = 0
            while x % p == 0:
                x //= p
                k += 1
            yield p, k
        return
    d = 2
    while d * d <= x and d < _TRIAL_LIMIT:
        if x % d == 0:
            k = _multiplicity(d, x)
            x //= d**k
            yield d, k
        d += 1 if d == 2 else 2
    if d * d > x:
        if x > 1:
            yield x, 1
        return
    for p in sorted(_prime_divisors(x)):
        yield p, _multiplicity(p, x)


def _pow_divides(p: int, e: int, x: int) -> bool:
    """Whether p**e divides x (x > 0), rejecting early when p**e > x."""
    pe = p**e
    return pe <= x and x % pe == 0


def gcd_b(b, m: int, n: int) -> int:
    """Largest d >= 1 with d**b1 | m and d**b2 | n.

    Divisibility is taken on absolute values, and every d divides 0, so a
    single zero argument is fine; (0, 0) is rejected.  With b = (1, 1) this
    is the ordinary gcd.
    """
    bb = as_bexp(b)
    m, n = abs(m), abs(n)
    if m == 0 and n == 0:
        raise ValueError("gcd_b(0, 0) is undefined")
    if m == 0:
        return math.prod(p ** (k // bb.b2) for p, k in factorize_distinct(n))
    if n == 0:
        return math.prod(p ** (k // bb.b1) for p, k in factorize_distinct(m))
    # a contributing prime divides both arguments, so only their gcd is factored
    g = 1
    for p, _ in factorize_distinct(math.gcd(m, n)):
        g *= p ** min(_multiplicity(p, m) // bb.b1, _multiplicity(p, n) // bb.b2)
    return g


# B_2, B_4, ..., B_16: the Bernoulli numbers of the Euler-Maclaurin corrections
_BERNOULLI_EVEN = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
)


@lru_cache(maxsize=None)
def zeta_int(k: int) -> float:
    """Riemann zeta at an integer k >= 2, as one rounding of an exact sum.

    The sum is Euler-Maclaurin at N = 16 with eight Bernoulli corrections,
    in rationals:  sum_{n<16} n**-k + 16**(1-k)/(k-1) + 16**-k/2
    + sum_{j=1..8} B_2j/(2j)! * k(k+1)...(k+2j-2) * 16**(1-k-2j), within
    4e-22 relative of zeta(k) at k = 2 and closer for larger k.  For
    k >= 54, zeta(k) - 1 <= 2**-k + 2**(1-k)/(k-1) < 2**-53 rounds to 1.0.
    """
    if k < 2:
        raise ValueError(f"zeta_int requires k >= 2, got {k}")
    if k >= 54:
        return 1.0
    N = 16
    total = sum(Fraction(1, n**k) for n in range(1, N))
    total += Fraction(1, (k - 1) * N ** (k - 1)) + Fraction(1, 2 * N**k)
    rising, factorial = k, 2  # k(k+1)...(k+2j-2) and (2j)!, at j = 1
    for j, bern in enumerate(_BERNOULLI_EVEN, start=1):
        total += bern * Fraction(rising, factorial * N ** (k + 2 * j - 1))
        rising *= (k + 2 * j - 1) * (k + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
    return float(total)


@dataclass(frozen=True)
class DensityResult:
    """A truncated Euler product together with a rigorous truncation bound.

    ``tail_bound`` dominates |value - infinite product|; ``prime_cutoff`` is
    the largest prime whose factor was multiplied in.
    """

    value: float
    prime_cutoff: int
    tail_bound: float


def euler_tail_cutoff(dev_constant: float, kappa: float, tol: float) -> float:
    """Smallest real P making the tail bound 2*C*P**(1-kappa)/(kappa-1) <= tol.

    Also enforces C*P**-kappa <= 1/2, the regime in which that bound is valid.
    """
    if kappa < 2:
        raise ValueError(f"decay exponent must be >= 2, got {kappa}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if dev_constant < 0:
        raise ValueError(f"deviation constant must be >= 0, got {dev_constant}")
    if dev_constant == 0:
        return 2.0
    from_tol = (2.0 * dev_constant / (tol * (kappa - 1))) ** (1.0 / (kappa - 1))
    from_validity = (2.0 * dev_constant) ** (1.0 / kappa)
    return max(from_tol, from_validity, 2.0)


def _euler_primes(dev_constant: float, kappa: float, tol: float) -> tuple[list[int], float]:
    """The primes up to the first one, P, at or past euler_tail_cutoff, and
    the tail bound 2*C*P**(1-kappa)/(kappa-1) at P.  The list reaches P: by
    Nagura (1952) there is a prime in (n, 6n/5) for n >= 25, and the +64
    covers smaller cutoffs."""
    cutoff = euler_tail_cutoff(dev_constant, kappa, tol)
    primes = sieve_primes(1.3 * cutoff + 64)
    included = primes[: int(np.searchsorted(primes, math.ceil(cutoff))) + 1].tolist()
    tail = 2.0 * dev_constant * float(included[-1]) ** (1.0 - kappa) / (kappa - 1.0)
    return included, tail


def euler_product_truncated(
    factor: Callable[[int], float],
    kappa: float,
    tol: float,
    *,
    dev_constant: float,
) -> DensityResult:
    """prod_p F(p) over primes p <= P, with P chosen so the discarded tail
    is rigorously below ``tol``.

    The caller guarantees 0 < F(p) <= 1 on the sieved range and
    |1 - F(p)| <= dev_constant * p**-kappa beyond the cutoff.  P is the
    smallest prime at which 2*C*P**(1-kappa)/(kappa-1) <= tol (valid once
    C*P**-kappa <= 1/2); that bound is recorded in ``tail_bound``.
    An exact zero factor short-circuits to value 0 with tail_bound 0.
    """
    primes, tail = _euler_primes(dev_constant, kappa, tol)
    value = 1.0
    for p in primes:
        f = factor(p)
        if f == 0.0:
            return DensityResult(0.0, p, 0.0)
        if f < 0.0 or f > 1.0 + 1e-12:
            raise ValueError(f"factor at p={p} is {f}, outside (0, 1]")
        value *= min(f, 1.0)  # float round-off may graze 1 from above
    return DensityResult(value, primes[-1], tail)
