import hashlib
import itertools
import math

import numpy as np
import pytest

from walkvis import numtheory
from walkvis.numtheory import DensityResult, as_bexp, zeta_int
from walkvis.theory import (
    _f_bs_table,
    binomial_congruence_sum,
    density_walkers,
    density_watchpoints,
    f_b_value,
    f_b_values_upto,
    f_bs_value,
    gcdb_conditioned_binomial_sum,
    mean_value_check,
)

INV_ZETA2 = 1 / zeta_int(2)


def test_density_watchpoints_spot_values():
    assert abs(density_watchpoints((1, 2), 3).value - 0.534567) < 5e-7
    assert abs(density_watchpoints((3, 5), 3).value - 0.987821) < 5e-7
    assert abs(density_watchpoints((2, 5), 3).value - 0.975182) < 5e-7


def test_density_watchpoints_saturated_set_is_zero():
    res = density_watchpoints((1, 1), 4)
    assert res.value == 0.0 and res.tail_bound == 0.0
    with pytest.raises(ValueError):
        density_watchpoints((1, 1), 5)
    with pytest.raises(ValueError):
        density_watchpoints((1, 2), 0)


def test_density_watchpoints_accelerated_tight_tolerance():
    # the raw kappa=2 product would need ~1e7/tol primes; acceleration keeps
    # the cutoff tiny even at 1e-7
    res = density_watchpoints((1, 1), 1, tol=1e-7)
    assert abs(res.value - 1 / zeta_int(2)) <= 1e-7
    assert res.prime_cutoff < 10_000


def test_density_watchpoints_tail_bound_honored():
    for tol in (1e-6, 1e-9, 1e-11):
        res = density_watchpoints((1, 2), 3, tol)
        assert res.tail_bound <= tol
    tight = density_watchpoints((1, 2), 3, 1e-12).value
    loose = density_watchpoints((1, 2), 3, 1e-6)
    assert abs(loose.value - tight) <= loose.tail_bound


def test_density_walkers_spot_values():
    assert abs(density_walkers((2, 3), 2).value - 0.933076) < 5e-7
    assert abs(density_walkers((3, 5), 1000).value - 0.841122919) < 5e-7
    with pytest.raises(ValueError):
        density_walkers((2, 3), 0)


def test_densities_bit_identical():
    # exact floats, cutoffs and tail bounds: a reordered product or a moved
    # cutoff shows here even when it stays inside the spot-value tolerance
    assert density_walkers((2, 3), 2) == DensityResult(0.9330762040368218, 29, 1.9875918917648098e-10)
    assert density_walkers((3, 5), 1000) == DensityResult(0.8411229185953661, 17, 8.581890083313479e-10)
    assert density_walkers((1, 1), 3) == DensityResult(0.3371878737900922, 164321, 9.999484826171404e-10)
    assert density_watchpoints((1, 2), 3) == DensityResult(0.5345668720928765, 97, 8.384435441615226e-10)
    assert density_watchpoints((1, 1), 4) == DensityResult(0.0, 2, 0.0)
    assert density_watchpoints((3, 5), 3) == DensityResult(0.9878212422994396, 5, 7.864320000000001e-11)


def test_density_walkers_r1_collapses_to_watchpoints():
    for b in [(1, 2), (2, 3), (3, 5), (1, 1)]:
        lhs = density_walkers(b, 1).value
        rhs = density_watchpoints(b, 1).value
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_density_walkers_axis_symmetry():
    for r in (1, 2, 17, 400):
        assert density_walkers((2, 3), r).value == density_walkers((3, 2), r).value


def test_density_walkers_monotone_and_bounded():
    vals = [density_walkers((2, 3), r, tol=1e-12).value for r in range(1, 1001)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 5e-11  # nonincreasing within float noise
    for i in range(99):
        assert vals[i + 1] < vals[i]  # strictly decreasing while resolvable
    assert all(v >= 0.607927 - 1e-6 for v in vals)


def test_density_walkers_limit_is_inv_zeta_lo():
    dists = [abs(density_walkers((2, 3), r).value - INV_ZETA2) for r in (10**3, 10**4, 10**5, 10**6)]
    assert dists == sorted(dists, reverse=True)
    assert dists[-1] < 1e-3  # reached by r = 10**6 (r = 10**5 is still 2.3e-3 away)


def test_f_b_prime_power_table():
    assert f_b_value((2, 3), 12) == pytest.approx(0.875, abs=1e-15)  # 12 = 2^2*3
    assert f_b_value((1, 2), 1) == 1.0
    for p in (2, 3, 5, 7, 11):
        assert f_b_value((1, 2), p) == pytest.approx(1 - p**-2.0, abs=1e-15)
        assert f_b_value((2, 3), p) == 1.0  # k=1 < b1=2
        assert f_b_value((2, 3), p * p) == pytest.approx(1 - p**-3.0, abs=1e-15)


def test_f_b_multiplicative_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        if math.gcd(m, n) != 1:
            continue
        lhs = f_b_value((2, 3), m * n)
        rhs = f_b_value((2, 3), m) * f_b_value((2, 3), n)
        assert math.isclose(lhs, rhs, rel_tol=1e-14)
    vals = f_b_values_upto((2, 3), 10**6)
    assert (vals[1:] > 0).all() and (vals[1:] <= 1).all()


def test_f_b_vector_matches_pointwise():
    for b in [(1, 1), (1, 2), (2, 3), (3, 2)]:
        vec = f_b_values_upto(b, 5000)
        for n in range(1, 5001, 97):
            assert math.isclose(vec[n], f_b_value(b, n), rel_tol=1e-13)


def test_f_b_table_digests_pinned():
    # the f_b tables are bit-identical to the earlier per-prime multiples sieve
    want = {
        (1, 1): "0a958be0b2ba0611ba58c67eee6b036543216b7980187e50d55f6ec1c76355f4",
        (1, 2): "8c8f27264010ea9312eb8b5eab84fa1510bb0eeb98933a7d54eb0ce88d00178f",
        (2, 3): "e0d9302e3bad95e0d833eaa765a6f4302076bcb624f78a372d0fb33e24ec2bc6",
        (3, 2): "d8447c7b52ae6aaaa37d6cd9b2a503b9bf8f2ddf8a38617722f1268521693707",
    }
    for b, digest in want.items():
        assert hashlib.sha256(f_b_values_upto(b, 10**5).tobytes()).hexdigest() == digest, b


def test_f_bs_examples():
    # divisors of 4 with d | 4: mu(1)/1 + mu(2)/4 + mu(4)/16 = 1 - 1/4
    assert f_bs_value((1, 2), [0], 4) == pytest.approx(0.75, abs=1e-15)
    for q in (101, 997):
        assert f_bs_value((1, 3), [0], q) == pytest.approx(1 - q**-3.0, abs=1e-15)
    with pytest.raises(ValueError):
        f_bs_value((1, 2), [5], 4)


def test_f_bs_reduces_to_f_b():
    for b in [(1, 2), (2, 3)]:
        for n in range(1, 10_001, 7):
            assert math.isclose(
                f_bs_value(b, [0], n), f_b_value(b, n), rel_tol=1e-13
            )


def test_f_bs_two_shifts_brute_force():
    # direct loop over admissible (d_1..d_J) as an independent oracle

    def brute(b1, b2, s, n):
        total = 0.0
        lim = int(round((n + max(abs(v) for v in s)) ** (1.0 / b1))) + 2

        def mu(d):
            out, x, dd = 1, d, 2
            while dd * dd <= x:
                if x % dd == 0:
                    x //= dd
                    if x % dd == 0:
                        return 0
                    out = -out
                dd += 1
            if x > 1:
                out = -out
            return out

        choices = [[d for d in range(1, lim) if (n - sj) % d**b1 == 0 and mu(d)] for sj in s]
        for ds in itertools.product(*choices):
            if any(math.gcd(d1, d2) != 1 for d1, d2 in itertools.combinations(ds, 2)):
                continue
            total += math.prod(mu(d) for d in ds) / math.prod(ds) ** b2
        return total

    for n in (10, 36, 97, 250):
        got = f_bs_value((1, 2), [0, 3], n)
        assert math.isclose(got, brute(1, 2, [0, 3], n), rel_tol=1e-12)
        got = f_bs_value((2, 3), [1, -1], n)
        assert math.isclose(got, brute(2, 3, [1, -1], n), rel_tol=1e-12)
        got = f_bs_value((1, 2), [0, 1, 2], n)
        assert math.isclose(got, brute(1, 2, [0, 1, 2], n), rel_tol=1e-12)


def test_densities_and_f_b_read_the_shared_primes():
    # once the shared list reaches a call's limit, a repeat call sieves nothing
    calls = [
        lambda: density_walkers((1, 1), 3),
        lambda: density_watchpoints((1, 2), 3, tol=1e-12),
        lambda: f_b_values_upto((1, 2), 10**5),
        lambda: mean_value_check("watchpoints-shifted", (1, 2), 10**4, shifts=(0, 3)),
    ]
    for call in calls:
        call()
    before = numtheory._PRIMES
    for call in calls:
        call()
    assert numtheory._PRIMES is before


def test_f_bs_table_matches_pointwise():
    # the sieve multiplies the same factors in the same order as f_bs_value
    for b, s in [((1, 2), (0, 3)), ((2, 3), (1, -1)), ((1, 1), (0, 1, 2)), ((1, 3), (5, -7, 5))]:
        lo = max(abs(v) for v in s) + 1
        table = _f_bs_table(as_bexp(b), s, lo, lo + 2000)
        assert table.tolist() == [f_bs_value(b, s, n) for n in range(lo, lo + 2001)], (b, s)


def test_mean_value_walker_moment():
    rep = mean_value_check("walker-moment", (2, 3), 10**5, r=2)
    assert abs(rep.partial_sum / rep.x - 0.933076) < 1e-2
    assert rep.abs_error == abs(rep.partial_sum - rep.predicted_main)
    assert rep.error_ratio == rep.abs_error / math.sqrt(rep.x)


def test_mean_value_shifted_inv_zeta2():
    rep = mean_value_check("watchpoints-shifted", (1, 1), 10**6, shifts=[0])
    assert abs(rep.partial_sum / rep.x - INV_ZETA2) < 1e-3


def test_mean_value_shifted_two_shifts():
    rep = mean_value_check("watchpoints-shifted", (1, 2), 2000, shifts=[0, 3])
    assert abs(rep.partial_sum / rep.x - rep.predicted_main / rep.x) < 0.01


def test_mean_value_shifted_negative_shift():
    rep = mean_value_check("watchpoints-shifted", (1, 2), 5000, shifts=[-3])
    assert abs(rep.partial_sum / rep.x - density_watchpoints((1, 2), 1).value) < 0.01


def test_mean_value_shifted_partial_sums_pinned():
    for b, x, s, want in [
        ((1, 2), 2000, [0, 3], "1351.8848326677191"),
        ((2, 3), 3000, [1, -1], "2786.330795824809"),
        ((1, 2), 1000, [0, 1, 2], "533.5628331922125"),
        ((1, 2), 5000, [-3], "4157.236644839295"),
    ]:
        assert repr(mean_value_check("watchpoints-shifted", b, x, shifts=s).partial_sum) == want, (b, x, s)


def test_mean_value_shifted_sum_empty_below_the_shifts():
    # no n in max|s_j| < n <= x: the partial sum is empty
    for s in ([150], [-100], [0, 150]):
        assert mean_value_check("watchpoints-shifted", (2, 3), 100, shifts=s).partial_sum == 0.0


def test_mean_value_domain_errors():
    with pytest.raises(ValueError):
        mean_value_check("walker-moment", (2, 1), 1000, r=2)  # b1 > b2
    with pytest.raises(ValueError):
        mean_value_check("walker-moment", (1, 2), 50, r=2)  # x too small
    with pytest.raises(ValueError):
        mean_value_check("nonsense", (1, 2), 1000, r=2)


def test_congruence_check_builds_one_binomial_row(monkeypatch):
    import walkvis.theory as theory
    from walkvis.verify import check_congruence_sum

    builds = []
    real = theory._binomial_pmf_row
    monkeypatch.setattr(theory, "_binomial_pmf_row", lambda *a: builds.append(a) or real(*a))
    results = check_congruence_sum(0.3, 10_000, 7)
    assert builds == [(0.3, 10_000)]
    assert all(r.passed for r in results)


def test_binomial_congruence_sum():
    assert binomial_congruence_sum(0.37, 500, 1, 0) == pytest.approx(1.0, abs=1e-13)
    for a in range(7):
        assert abs(binomial_congruence_sum(0.5, 10_000, 7, a) - 1 / 7) < 0.01
    total = math.fsum(binomial_congruence_sum(0.3, 10_000, 7, a) for a in range(7))
    assert abs(total - 1.0) < 1e-12
    with pytest.raises(ValueError):
        binomial_congruence_sum(0.5, 10, 11, 0)
    with pytest.raises(ValueError):
        binomial_congruence_sum(0.5, 10, 5, 5)
    with pytest.raises(ValueError):
        binomial_congruence_sum(1.5, 10, 5, 0)
    # the longdouble row overflows: 0.5**16392 is too small an anchor
    with pytest.raises(ValueError, match="extended-precision range"):
        gcdb_conditioned_binomial_sum((1, 2), 0.5, 16392, 7, [0], [0])


def test_gcdb_conditioned_hand_case():
    # b=(1,2), n=3, m=3: gcd_b(3, k) > 1 only at k=0 (3 | 3, 9 | 0),
    # so the sum keeps k=1,2,3: (3 + 3 + 1)/8
    val = gcdb_conditioned_binomial_sum((1, 2), 0.5, 3, 3, [0], [0])
    assert val == pytest.approx(7 / 8, abs=1e-14)


def test_gcdb_conditioned_tends_to_f_b():
    for m in (100, 1000, 10_000):
        got = gcdb_conditioned_binomial_sum((1, 2), 0.5, m, m, [0], [0])
        want = f_b_value((1, 2), m)
        tau = sum(1 for d in range(1, m + 1) if m % d == 0)
        assert abs(got - want) <= tau * m**-0.5


def test_gcdb_conditioned_point_mass():
    # m=0 keeps only k=0, where the condition is gcd_b(n, 0) = 1
    assert gcdb_conditioned_binomial_sum((2, 3), 0.5, 0, 6, [0], [0]) == 1.0  # 6 squarefree
    assert gcdb_conditioned_binomial_sum((1, 2), 0.5, 0, 6, [0], [0]) == 0.0  # gcd_b(6,0)=6


def test_gcdb_conditioned_hypothesis_violation():
    with pytest.raises(ValueError, match="pairwise gcd_b"):
        gcdb_conditioned_binomial_sum((1, 2), 0.5, 10, 50, [0, 4], [0, 8])
    with pytest.raises(ValueError, match="pairwise gcd_b"):
        gcdb_conditioned_binomial_sum((1, 2), 0.5, 10, 50, [0, 0], [0, 0])
