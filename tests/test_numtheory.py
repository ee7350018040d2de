import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from walkvis import numtheory
from walkvis.numtheory import (
    MAX_TABLE_ENTRIES,
    BExponent,
    CapacityError,
    as_bexp,
    build_tables,
    euler_product_truncated,
    factorize_distinct,
    gcd_b,
    sieve_primes,
    zeta_int,
)
from walkvis.verify import gcd_b_bruteforce
from walkvis.walk import splitmix64_next

# independent high-precision constants
ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854  # Apery's constant
ZETA4 = math.pi**4 / 90


def factor_slow(n):
    """Trial-division oracle used to check the sieve tables."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_bexponent_validation():
    assert BExponent(2, 3).lo == 2 and BExponent(2, 3).hi == 3
    assert as_bexp((3, 2)).swapped() == BExponent(2, 3)
    with pytest.raises(ValueError):
        BExponent(2, 4)
    with pytest.raises(ValueError):
        BExponent(0, 1)


def test_build_tables_small():
    t = build_tables(10)
    assert t.primes.tolist() == [2, 3, 5, 7]
    assert t.mobius[6] == 1
    assert t.spf[9] == 3
    assert t.mobius[1] == 1
    t30 = build_tables(30)
    assert t30.mobius[30] == -1  # three distinct primes


def test_mertens_sum_brute_force():
    # Mertens sum over n <= 100, with mu recomputed by factoring each n
    def mu_slow(n):
        f = factor_slow(n)
        if any(k > 1 for k in f.values()):
            return 0
        return -1 if len(f) % 2 else 1

    t = build_tables(100)
    expected = sum(mu_slow(n) for n in range(1, 101))
    assert expected == 1
    assert int(t.mobius[1:101].sum()) == 1


def test_tables_invariants():
    t = build_tables(2000)
    prime_set = set(t.primes.tolist())
    for n in range(2, 2001):
        p = int(t.spf[n])
        assert n % p == 0 and p in prime_set
        f = factor_slow(n)
        assert p == min(f)
        squarefree = all(k == 1 for k in f.values())
        assert (t.mobius[n] == 0) == (not squarefree)
        if n in prime_set:
            assert t.mobius[n] == -1
    assert prime_set == {n for n in range(2, 2001) if t.spf[n] == n}


def test_build_tables_capacity():
    with pytest.raises(CapacityError):
        build_tables(1)
    with pytest.raises(CapacityError):
        build_tables(MAX_TABLE_ENTRIES)  # raises before allocating


def eratosthenes(limit):
    """Primes <= limit, by a plain bytearray sieve, to check the shared list."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [n for n in range(limit + 1) if flags[n]]


@pytest.fixture
def fresh_primes(monkeypatch):
    """An empty shared prime list for one test; the process's list is put back after it."""
    monkeypatch.setattr(numtheory, "_PRIMES", (1, numtheory._PRIMES[1][:0]))


@pytest.mark.parametrize("limit", [-1, 0, 1, 2, 3, 1023, 1024, 1025, 65537, 10**6])
def test_sieve_primes_matches_eratosthenes(fresh_primes, limit):
    got = sieve_primes(limit)
    assert got.dtype == np.int64
    assert got.tolist() == eratosthenes(limit)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[:1] = 4


def test_sieve_primes_prefix_survives_growth(fresh_primes):
    small = sieve_primes(1000)
    assert numtheory._PRIMES[0] == 1024  # the floor of one growth
    want = small.tolist()
    big = sieve_primes(50_000)
    assert numtheory._PRIMES[0] == 50_000
    assert small.tolist() == want and big[: len(small)].tolist() == want
    sieve_primes(60_000)  # doubles: 2 * 50_000 passes 60_000
    assert numtheory._PRIMES[0] == 100_000
    assert big.tolist() == eratosthenes(50_000)


def test_sieve_primes_grows_once_under_threads(fresh_primes):
    barrier, out = threading.Barrier(4), [None] * 4

    def read(i):
        barrier.wait()
        out[i] = sieve_primes(200_000)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert numtheory._PRIMES[0] == 200_000
    assert all(np.shares_memory(a, numtheory._PRIMES[1]) for a in out)  # one growth, read by all four
    want = eratosthenes(200_000)
    assert all(a.tolist() == want for a in out)


@pytest.mark.parametrize("limit", [MAX_TABLE_ENTRIES, MAX_TABLE_ENTRIES + 0.5, math.inf, math.nan])
def test_sieve_primes_capped(fresh_primes, limit):
    with pytest.raises(CapacityError):
        sieve_primes(limit)
    assert numtheory._PRIMES[0] == 1  # nothing was sieved


def test_gcd_b_examples():
    assert gcd_b((1, 1), 12, 18) == 6  # classical gcd
    assert gcd_b((2, 3), 2**4, 2**6) == 4 == gcd_b_bruteforce((2, 3), 16, 64)
    assert gcd_b((1, 2), 4, 8) == 2 == gcd_b_bruteforce((1, 2), 4, 8)


def test_gcd_b_zero_and_signs():
    with pytest.raises(ValueError):
        gcd_b((1, 2), 0, 0)
    assert gcd_b((1, 2), 0, 9) == 3  # d^2 | 9 forces d <= 3, d^1 | 0 is free
    assert gcd_b((1, 2), 9, 0) == 9
    assert gcd_b((1, 2), -4, 8) == gcd_b((1, 2), 4, -8) == 2


def test_gcd_b_matches_brute_force_random():
    # deterministic sample; the big 1e4-case sweep runs under acceptance
    state = 2024
    pairs = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 4), (3, 4)]
    for i in range(800):
        z1, state = splitmix64_next(state)
        z2, state = splitmix64_next(state)
        z3, state = splitmix64_next(state)
        m = z1 % 200_001 - 100_000
        n = z2 % 200_001 - 100_000
        if m == 0 and n == 0:
            continue
        b = pairs[z3 % len(pairs)]
        assert gcd_b(b, m, n) == gcd_b_bruteforce(b, m, n)


def run_with_time_limit(code, seconds=20):
    """Run python code in a fresh process that is killed after ``seconds``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=seconds, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_factorize_distinct_past_trial_division():
    # cofactors with no prime below 2**10 go to Miller-Rabin and Brent's rho
    m61 = 2**61 - 1
    cases = {
        m61: [(m61, 1)],
        2 * m61: [(2, 1), (m61, 1)],
        4 * 3 * 1073741827**2: [(2, 2), (3, 1), (1073741827, 2)],
        999983 * 1000003 * 16777213: [(999983, 1), (1000003, 1), (16777213, 1)],
        1031**2 * 999983**2: [(1031, 2), (999983, 2)],
        3215031751: [(151, 1), (751, 1), (28351, 1)],  # strong pseudoprime to bases 2, 3, 5, 7
    }
    for x, want in cases.items():
        assert list(factorize_distinct(x)) == want, x
    state = 7
    for _ in range(300):
        z, state = splitmix64_next(state)
        x = z % 10 ** (1 + z % 12) + 1
        assert list(factorize_distinct(x)) == sorted(factor_slow(x).items()), x
    # the same shapes past the domain are refused
    for x in (4 * 1000003 * (2**31 - 1) ** 2, 999983 * 1000003 * (2**31 - 1), 1031**2 * 1033 * 999983**2):
        with pytest.raises(ValueError):
            list(factorize_distinct(x))


def _draw_32_bit_prime(state):
    """The first prime at or past a SplitMix64 draw with its top bit set, by
    trial division by the primes below 2**16."""
    small = sieve_primes(1 << 16)
    z, state = splitmix64_next(state)
    p = (z >> 32) | (1 << 31) | 1
    while (p % small == 0).any():
        p += 2
    return p, state


def test_factorize_distinct_splits_balanced_semiprimes():
    # rho needs about sqrt(p) <= 2**16 steps on a product of two 32-bit primes
    state = 27
    want = {(2**32 - 5) ** 2: [(2**32 - 5, 2)]}
    for _ in range(20):
        p, state = _draw_32_bit_prime(state)
        q, state = _draw_32_bit_prime(state)
        assert 2**62 <= p * q < 2**64
        want[p * q] = sorted([(p, 1), (q, 1)])
    out = run_with_time_limit(
        "from walkvis.numtheory import factorize_distinct\n"
        f"for x in {list(want)}:\n"
        "    print(list(factorize_distinct(x)))"
    )
    assert out.split("\n")[: len(want)] == [str(v) for v in want.values()]


def test_factorize_distinct_splits_prime_powers():
    # rho splits p**k too: modulo p its sequence cycles long before modulo p**k
    out = run_with_time_limit(
        "from walkvis.numtheory import factorize_distinct\n"
        f"for x in ({2**32 - 5}**2, {2**21 - 9}**3, 1031**6):\n"
        "    print(list(factorize_distinct(x)))"
    )
    assert out.split("\n")[:3] == [str([(2**32 - 5, 2)]), str([(2**21 - 9, 3)]), str([(1031, 6)])]


def test_numbers_past_2_64_are_refused_at_once():
    # X = (2**89 - 1)(2**107 - 1) is beyond rho's reach; every entry point
    # that would factor it, or any number of 2**64 or more, raises first
    out = run_with_time_limit(
        "import time\n"
        "from walkvis.numtheory import factorize_distinct, gcd_b\n"
        "from walkvis.theory import f_bs_value, gcdb_conditioned_binomial_sum\n"
        "from walkvis.visibility import WatchpointValidationError, validate_watchpoint_set\n"
        "X = (2**89 - 1) * (2**107 - 1)\n"
        "calls = [\n"
        "    lambda: list(factorize_distinct(2**64)),\n"
        "    lambda: gcd_b((1, 1), X, X),\n"
        "    lambda: gcd_b((1, 2), 0, 2**64),\n"
        "    lambda: f_bs_value((1, 2), (0,), 2**64),\n"
        "    lambda: f_bs_value((2, 3), (0, 1), X),\n"
        "    lambda: gcdb_conditioned_binomial_sum((1, 1), 0.5, 4, 2**64, (0,), (0,)),\n"
        "    lambda: validate_watchpoint_set((1, 1), [(0, 0), (X, X)]),\n"
        "]\n"
        "for call in calls:\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as e:\n"
        "        assert not isinstance(e, WatchpointValidationError), e\n"
        "        print(time.perf_counter() - start)\n"
        "    else:\n"
        "        raise AssertionError('no ValueError')\n"
        "print(list(factorize_distinct(2**64 - 1)))"
    )
    lines = out.split("\n")
    assert all(float(t) < 1.0 for t in lines[:7]), lines
    assert lines[7] == str([(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)])


def test_gcd_b_of_huge_coprime_pair_is_fast():
    # gcd_b factors gcd(m, n) = 1, not the 19-digit smaller argument
    out = run_with_time_limit(
        "from walkvis.numtheory import gcd_b\n"
        "print(gcd_b((1, 1), 4000000000000000037, 4000000000000000091))"
    )
    assert out.strip() == "1"


def test_zeta_values():
    assert abs(zeta_int(2) - ZETA2) < 1e-15
    assert abs(zeta_int(3) - ZETA3) < 1e-15
    assert abs(zeta_int(4) - ZETA4) < 1e-15
    assert abs(1 / zeta_int(2) - 0.607927) < 1e-6
    assert abs(1 / zeta_int(3) - 0.831907) < 1e-6
    assert 0 <= zeta_int(60) - 1 < 1e-15 + 2 * 2.0**-60
    with pytest.raises(ValueError):
        zeta_int(1)


def test_zeta_int_is_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for k in range(2, 81):  # k >= 54 takes the early return of 1.0
            assert zeta_int(k) == float(mpmath.zeta(k)), k


def test_euler_product_raw_inv_zeta2():
    # raw factor 1 - 1/p^2 at kappa=2 needs a large cutoff, so only ask 1e-3
    res = euler_product_truncated(lambda p: 1.0 - 1.0 / p**2, 2, 1e-3, dev_constant=1.0)
    assert res.tail_bound <= 1e-3
    assert abs(res.value - 1 / ZETA2) < 1e-3


def test_euler_product_trivial_and_zero():
    res = euler_product_truncated(lambda p: 1.0, 4, 1e-9, dev_constant=0.0)
    assert res.value == 1.0 and res.tail_bound == 0.0
    res0 = euler_product_truncated(lambda p: 0.0 if p == 2 else 1.0, 4, 1e-9, dev_constant=1.0)
    assert res0.value == 0.0 and res0.tail_bound == 0.0
    with pytest.raises(ValueError):
        euler_product_truncated(lambda p: -0.5, 4, 1e-9, dev_constant=1.0)


def test_euler_product_monotone_in_tol():
    factor = lambda p: 1.0 - 2.0 / p**3
    loose = euler_product_truncated(factor, 3, 1e-4, dev_constant=2.0)
    tight = euler_product_truncated(factor, 3, 1e-9, dev_constant=2.0)
    assert abs(loose.value - tight.value) <= loose.tail_bound
    assert tight.prime_cutoff >= loose.prime_cutoff
