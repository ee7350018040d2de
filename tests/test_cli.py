import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from walkvis.cli import build_parser, main
from walkvis.numtheory import BExponent, build_tables
from walkvis.theory import density_walkers, density_watchpoints
from walkvis.visibility import is_b_visible
from walkvis.walk import derive_trial_seed, walk_positions


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_density_watchpoints_csv():
    code, out = run_cli("density", "watchpoints", "--b", "1,2", "--J", "3")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["value", "prime_cutoff", "tail_bound"]
    assert abs(float(rows[0][0]) - 0.534567) < 5e-7


def test_density_walkers_csv():
    code, out = run_cli("density", "walkers", "--b", "3,5", "--r", "50")
    assert code == 0
    _, rows = csv_rows(out)
    assert abs(float(rows[0][0]) - 0.894220) < 5e-7


def test_density_identity_walkers_r1():
    _, out1 = run_cli("density", "walkers", "--b", "2,3", "--r", "1")
    _, out2 = run_cli("density", "watchpoints", "--b", "2,3", "--J", "1")
    v1 = float(csv_rows(out1)[1][0][0])
    v2 = float(csv_rows(out2)[1][0][0])
    assert abs(v1 - v2) < 1e-9


@pytest.mark.parametrize("argv", [
    ("density", "walkers", "--b", "1,2000", "--r", "2"),
    ("density", "watchpoints", "--b", "1,2000", "--J", "3"),
    ("density", "walkers", "--b", "999,1000", "--r", "2"),
    ("table2", "--b", "1,2000", "--rows", "2", "--steps", "100", "--trials", "1"),
])
def test_density_with_large_exponents(argv):
    # p**k past float range: 1 / p**k divides the ints, where a float
    # conversion of p**k would raise OverflowError
    code, out = run_cli(*argv)
    assert code == 0
    header, rows = csv_rows(out)
    assert float(rows[0][header.index("theoretical" if argv[0] == "table2" else "value")]) == 1.0


def test_bad_b_exits_2():
    code, _ = run_cli("density", "watchpoints", "--b", "2,4", "--J", "1")
    assert code == 2
    code, _ = run_cli("density", "watchpoints", "--b", "1,2", "--J", "99")
    assert code == 2  # J above 2**(b1+b2)


def test_simulate_watchpoints_rows():
    code, out = run_cli(
        "simulate", "watchpoints", "--b", "1,2", "--watchpoints", "0,0;1,2;2,1",
        "--alpha", "0.5", "--steps", "200", "--trials", "3", "--seed", "1",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header[0] == "record"
    assert [r[0] for r in rows] == ["trial", "trial", "trial", "aggregate"]
    agg = rows[-1]
    assert abs(float(agg[5]) - density_watchpoints((1, 2), 3).value) < 1e-8


def test_simulate_invalid_watchpoints_exits_3(capsys):
    code, _ = run_cli(
        "simulate", "watchpoints", "--b", "1,2", "--watchpoints", "0,0;4,8",
        "--alpha", "0.5", "--steps", "100", "--trials", "1", "--seed", "1",
    )
    assert code == 3


def test_simulate_budget_exits_4():
    code, _ = run_cli(
        "simulate", "walkers", "--b", "2,3", "--alphas", "0.5,0.5",
        "--steps", "1000", "--trials", "10", "--seed", "1", "--budget", "100",
    )
    assert code == 4


def test_simulate_far_watchpoint_matches_scalar_oracle():
    # a watchpoint near x = 1e9 gets a bit table over its own window
    wps = [(0, 0), (1_000_000_001, 1)]
    n, seed = 100_000, 5
    code, out = run_cli(
        "simulate", "watchpoints", "--b", "2,1", "--watchpoints", "0,0;1000000001,1",
        "--alpha", "0.5", "--steps", str(n), "--trials", "2", "--seed", str(seed),
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)
    trial0 = rec["rows"][0]
    assert trial0[:2] == ["trial", 0]
    stream = derive_trial_seed(derive_trial_seed(seed, 0, 0, 1), 0, 0, 1)
    tables = build_tables(n + 2)  # the scalar predicate factors the smaller |displacement|
    want = sum(
        pos not in wps and all(is_b_visible((2, 1), pos, w, tables) for w in wps)
        for pos in walk_positions(0.5, stream, n)
    )
    assert trial0[2] == want


def test_simulate_watchpoint_beyond_sieve_cap_exits_4(capsys):
    # a point far on both axes: P would need the primes up to ~3.2e8
    # (p**2 <= 1e17 and p <= 1e17): refused, nothing that size allocated
    code, out = run_cli(
        "simulate", "watchpoints", "--b", "2,1",
        "--watchpoints", "0,0;100000000000000001,100000000000000001",
        "--alpha", "0.5", "--steps", "1000", "--trials", "2", "--threads", "1",
    )
    assert code == 4
    assert out == ""
    assert "cap" in capsys.readouterr().err
    # far on x only, p <= |y - 1| bounds P to the primes below 1000: answered
    # exactly, as the scalar oracle counts it
    wps = [(0, 0), (10**17 + 1, 1)]
    code, out = run_cli(
        "simulate", "watchpoints", "--b", "2,1", "--watchpoints", "0,0;100000000000000001,1",
        "--alpha", "0.5", "--steps", "1000", "--trials", "2", "--seed", "5", "--format", "json",
    )
    assert code == 0
    stream = derive_trial_seed(derive_trial_seed(5, 0, 0, 1), 0, 0, 1)
    want = sum(
        pos not in wps and all(is_b_visible((2, 1), pos, w) for w in wps)
        for pos in walk_positions(0.5, stream, 1000)
    )
    assert json.loads(out)["rows"][0][2] == want


def test_simulate_watchpoint_past_int64_exits_2(capsys):
    # |v| + n must stay below 2**63, or the displacements would wrap
    for v, code_want in (("-9223372036854775798", 2), ("-9223372036854775598", 0)):
        code, out = run_cli(
            "simulate", "watchpoints", "--b", "1,1", f"--watchpoints=0,0;1,{v}",
            "--alpha", "0.5", "--steps", "200", "--trials", "1", "--seed", "4",
        )
        assert code == code_want
    # the in-range point is counted as the scalar oracle counts it
    wps = [(0, 0), (1, -9223372036854775598)]
    stream = derive_trial_seed(derive_trial_seed(4, 0, 0, 1), 0, 0, 1)
    want = sum(
        pos not in wps and all(is_b_visible((1, 1), pos, w) for w in wps)
        for pos in walk_positions(0.5, stream, 200)
    )
    assert csv_rows(out)[1][0][2] == str(want)
    code, _ = run_cli(
        "simulate", "watchpoints", "--b", "1,2", "--watchpoints", "0,0;10000000000000000001,1",
        "--alpha", "0.5", "--steps", "100", "--trials", "1",
    )
    assert code == 2
    code, _ = run_cli(
        "exact", "watchpoints", "--b", "1,2", "--watchpoints", "0,0;10000000000000000001,1",
        "--alpha", "0.5", "--steps", "10",
    )
    assert code == 2
    assert "int64" in capsys.readouterr().err


def test_simulate_watchpoints_with_large_coprime_coordinates():
    # validation factors gcd(dx, dy) = 1, not the 19-digit smaller coordinate
    code, out = run_cli(
        "simulate", "watchpoints", "--b", "1,1",
        "--watchpoints", "0,0;4000000000000000037,4000000000000000091",
        "--alpha", "0.5", "--steps", "10", "--trials", "1",
    )
    assert code == 0
    assert csv_rows(out)[1][-1][0] == "aggregate"


def run_fresh_python(args, timeout, **kwargs):
    """Run python with these arguments (a str: code for -c) against this
    checkout's src in a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    args = ["-c", args] if isinstance(args, str) else list(args)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env, **kwargs)


def test_watchpoints_with_huge_prime_gcd_exit_promptly():
    # gcd(dx, dy) is the prime 2**61 - 1: validation factors it at once, so
    # the pair is rejected as not mutually visible at b = (1, 1) (exit 3)
    # in a fresh process killed after 20 s
    argv = ["simulate", "watchpoints", "--b", "1,1",
            "--watchpoints", "0,0;4611686018427387902,6917529027641081853",
            "--alpha", "0.5", "--steps", "10", "--trials", "1"]
    proc = run_fresh_python(f"from walkvis.cli import main; raise SystemExit(main({argv!r}))", timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "not mutually visible" in proc.stderr
    # at b = (1, 2) the same pair is visible: (2**61 - 1)**2 does not divide dy
    assert is_b_visible((1, 2), (0, 0), (4611686018427387902, 6917529027641081853))


def test_watchpoint_coordinates_past_int64_exit_2_promptly():
    # X = (2**89 - 1)(2**107 - 1): validating (0,0) against (X, X) would
    # factor gcd(X, X) = X by rho, about 2**44 steps; the parser refuses any
    # coordinate outside int64 first, in a fresh process killed after 20 s
    x = (2**89 - 1) * (2**107 - 1)
    run = ("--b", "1,1", "--watchpoints", f"0,0;{x},{x}", "--alpha", "0.5", "--steps", "10")
    for argv in (["simulate", "watchpoints", *run, "--trials", "1"], ["exact", "watchpoints", *run]):
        proc = run_fresh_python(f"from walkvis.cli import main; raise SystemExit(main({argv!r}))", timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "int64" in proc.stderr


def test_walkvis_never_imports_scipy():
    # numpy is the only runtime dependency; checked in a fresh interpreter,
    # also after an exact oracle ran
    proc = run_fresh_python(
        "import sys, walkvis, walkvis.cli\n"
        "from walkvis.estimators import exact_expectation_walkers\n"
        "assert exact_expectation_walkers((2, 3), [0.5], 5) == 0.8125\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n",
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_verify_mean_value_five_shifts_finishes():
    # the shifted sum is sieved as a product over primes; a sum over subsets
    # of prime supports would cost exponentially more with each shift
    argv = ["verify", "mean-value", "--kind", "watchpoints-shifted", "--b", "1,3",
            "--shifts", "0,1,2,3,4", "--x", "20000"]
    proc = run_fresh_python(f"from walkvis.cli import main; raise SystemExit(main({argv!r}))", timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(",PASS,") == 2


def test_verify_congruence_sum_out_of_range_exits_2(capsys):
    # at alpha = 0.99 the longdouble binomial row overflows from n = 2467 on
    code, out = run_cli("verify", "congruence-sum", "--alpha", "0.99", "--n", "2466", "--d", "3")
    assert code == 0
    assert out.count(",PASS,") == 2
    code, out = run_cli("verify", "congruence-sum", "--alpha", "0.99", "--n", "2467", "--d", "3")
    assert code == 2
    assert out == ""
    assert "n=2467, alpha=0.99" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "mean-value", "--kind", "walker-moment", "--b", "1,2", "--r", "2", "--x", "1000000000"),
    ("verify", "mean-value", "--kind", "watchpoints-shifted", "--b", "1,2", "--shifts", "0,3",
     "--x", "1000000000"),
    ("verify", "congruence-sum", "--alpha", "0.5", "--n", "1000000000", "--d", "3"),
])
def test_verify_inputs_past_table_cap_exit_4(argv, capsys):
    # refused before any table of 1e9 entries is allocated
    code, out = run_cli(*argv)
    assert code == 4
    assert out == ""
    assert "exceeds the cap" in capsys.readouterr().err


def test_simulate_single_step_proportion_binary():
    for seed in ("1", "2", "3", "0x10"):
        code, out = run_cli(
            "simulate", "watchpoints", "--b", "1,1", "--watchpoints", "0,0",
            "--alpha", "0.5", "--steps", "1", "--trials", "1", "--seed", seed,
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][3]) in (0.0, 1.0)


def test_exact_cli():
    code, out = run_cli(
        "exact", "watchpoints", "--b", "1,2", "--watchpoints", "0,0",
        "--alpha", "0.5", "--steps", "4",
    )
    assert code == 0
    assert abs(float(csv_rows(out)[1][0][1]) - 0.78125) < 1e-12
    code, out = run_cli(
        "exact", "watchpoints", "--b", "2,3", "--watchpoints", "0,0",
        "--alpha", "0.3", "--steps", "1",
    )
    assert abs(float(csv_rows(out)[1][0][1]) - 1.0) < 1e-12


def test_exact_walkers_identity_to_watchpoints_power():
    code, out1 = run_cli(
        "exact", "walkers", "--b", "2,3", "--alphas", "0.5", "--steps", "200"
    )
    code2, out2 = run_cli(
        "exact", "watchpoints", "--b", "2,3", "--watchpoints", "0,0",
        "--alpha", "0.5", "--steps", "200",
    )
    assert code == code2 == 0
    assert abs(float(csv_rows(out1)[1][0][1]) - float(csv_rows(out2)[1][0][1])) < 1e-12


def test_exact_over_cap_exits_4():
    code, _ = run_cli(
        "exact", "watchpoints", "--b", "1,2", "--watchpoints", "0,0",
        "--alpha", "0.5", "--steps", "3000",
    )
    assert code == 4


def test_verify_congruence_pass_and_fail():
    code, out = run_cli("verify", "congruence-sum", "--alpha", "0.3", "--n", "10000", "--d", "7")
    assert code == 0
    assert "FAIL" not in out
    # d close to n concentrates mass far from equidistribution
    code, out = run_cli("verify", "congruence-sum", "--alpha", "0.5", "--n", "100", "--d", "97")
    assert code == 5
    assert "FAIL" in out


def test_verify_visibility_oracle_cli():
    code, out = run_cli("verify", "visibility-oracle", "--b", "2,3", "--box", "12")
    assert code == 0
    assert "PASS" in out


def test_verify_gcd_properties_cli():
    code, out = run_cli("verify", "gcd-properties", "--samples", "300")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ("verify", "gcd-properties", "--samples", "0"),
    ("verify", "visibility-oracle", "--b", "2,3", "--box", "0"),
])
def test_verify_empty_sample_exits_2(argv, capsys):
    # a check over no cases would pass vacuously
    code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "must be >= 1" in capsys.readouterr().err


def test_verify_mean_value_cli():
    code, out = run_cli(
        "verify", "mean-value", "--kind", "walker-moment", "--b", "2,3", "--x", "20000", "--r", "2"
    )
    assert code == 0


def test_table1_small_deterministic():
    args = ("table1", "--steps", "1500", "--trials", "2", "--seed", "42")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    header, rows = csv_rows(out1)
    assert len(rows) == 8
    assert header[4] == "theoretical"
    theo = {(int(r[0]), int(r[1])): float(r[4]) for r in rows}
    assert abs(theo[(1, 2)] - 0.534567) < 5e-7


def test_table2_rows_1_equals_watchpoint_density():
    code, out = run_cli("table2", "--b", "2,3", "--rows", "1", "--steps", "500", "--trials", "2", "--seed", "3")
    assert code == 0
    _, rows = csv_rows(out)
    assert abs(float(rows[0][2]) - density_watchpoints((2, 3), 1).value) < 1e-9


def test_table2_theory_column():
    code, out = run_cli(
        "table2", "--b", "3,5", "--rows", "2,10,100", "--steps", "200", "--trials", "1", "--seed", "5"
    )
    assert code == 0
    _, rows = csv_rows(out)
    for row, want in zip(rows, (0.9920022709, 0.9645252673, 0.868973788)):
        assert abs(float(row[2]) - want) < 1e-9


def test_json_output_stable_keys():
    code, out1 = run_cli("density", "walkers", "--b", "2,3", "--r", "5", "--format", "json")
    assert code == 0
    doc1 = json.loads(out1)
    assert doc1["schema_version"] == 1
    assert list(doc1) == ["schema_version", "command", "parameters", "seed", "columns", "rows", "timing_seconds"]
    _, out2 = run_cli("density", "walkers", "--b", "2,3", "--r", "5", "--format", "json")
    doc2 = json.loads(out2)
    doc1.pop("timing_seconds")
    doc2.pop("timing_seconds")
    assert doc1 == doc2
    assert abs(doc1["rows"][0][0] - density_walkers((2, 3), 5).value) < 1e-12


def test_threads_default_to_usable_cpus():
    args = build_parser().parse_args(["table1"])
    assert args.threads == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_threads_below_one_exit_2(threads, capsys):
    code, out = run_cli("simulate", "walkers", "--b", "2,3", "--alphas", "0.5,0.5", "--steps", "100",
                        "--trials", "2", "--threads", threads)
    assert (code, out) == (2, "")
    assert f"bad --threads {threads!r}; expected a positive integer" in capsys.readouterr().err


# sha256 of the CSV each command prints; every Monte Carlo path (per-trial,
# threaded, batched small n, a run across the 2**20-step chunk boundary) and
# both exact oracles are pinned to the same bytes.
GOLDEN_CSV = [
    (("table1", "--steps", "2000", "--trials", "3", "--seed", "42"),
     "45478bfbbc49608491d67a0e4ef5a1c52c7e5e1448f3af89dde7f7fe06c2fedb"),
    (("table2", "--rows", "2,10", "--steps", "2000", "--trials", "3", "--seed", "7"),
     "efb551e5e2675a01ae00fde224fe441c271441368b9b06bf4de02b0085c6f460"),
    (("simulate", "walkers", "--b", "2,3", "--alphas", "0.5,0.3,0.7", "--steps", "3000",
      "--trials", "5", "--seed", "9"),
     "b3df3e19f7a254910ab3c1a101ca8db68d4ecfda933b0f1b118ecb849d6c7eb7"),
    (("simulate", "walkers", "--b", "1,2", "--alphas", "0.5,0.3", "--steps", "40",
      "--trials", "300", "--seed", "9"),
     "43918e0e12b0d2abf65f19c5f2bec6275ce0c299a90ded29122982bd1a1f0f85"),
    (("simulate", "watchpoints", "--b", "1,2", "--watchpoints", "0,0;1,2;2,1", "--alpha", "0.4",
      "--steps", "50", "--trials", "300", "--seed", "5"),
     "d8261241705a6ede2ceaa29695a3e6953c62cacf1fe9496a36dfff26f1814f33"),
    (("simulate", "watchpoints", "--b", "2,1", "--watchpoints", "0,0;3,1", "--alpha", "0.5",
      "--steps", "1049576", "--trials", "1", "--seed", "3"),
     "2dc90209a2205465f19945373d53dfb1b2324ea3f18393fc66668640044cadd2"),
    # several walkers at lo = min(b) >= 2: the alive-step engine, the hi
    # exponent on y and on x, a batched multi-stream block, and walkers
    # across the 2**20-step chunk boundary
    (("table2", "--rows", "100,1000", "--steps", "3000", "--trials", "2", "--seed", "11"),
     "ad5cfed86c4bbe5e56cdb2b335168967db51f341fe0913f45805511ac1a2fb55"),
    (("table2", "--b", "3,2", "--rows", "10,100", "--steps", "2000", "--trials", "2", "--seed", "12"),
     "ebf8281f4d5ef0abb19565bc7a4ee904f5732da0e568dce8e6ea03ec63ab0af1"),
    (("simulate", "walkers", "--b", "2,5", "--alphas", "0.5,0.3,0.7,0.45,0.6", "--steps", "60",
      "--trials", "500", "--seed", "13"),
     "6e326c1391b4d6782d4141c2a8a4c7eb0d57638e234132b48a75ac655dbdc6f1"),
    (("simulate", "walkers", "--b", "2,3", "--alphas", "0.5,0.3,0.7", "--steps", "1049000",
      "--trials", "2", "--seed", "17"),
     "6bbe1c4b067506a23d1e9a525f7a29987370775e8a9703bbfd1e845d312fcffb"),
    # three watchpoints whose lanes fit one word, across the 2**20-step chunk
    # boundary, so the second chunk's tables start at a base other than 0
    (("simulate", "watchpoints", "--b", "2,5", "--watchpoints", "0,0;1,2;2,1", "--alpha", "0.5",
      "--steps", "1049000", "--trials", "1", "--seed", "19"),
     "95c860009a248f9077919a27fcc3ac883b140fcd42440a8c9407559e9e13495a"),
    # 24 watchpoints: lanes in two words, with large bits and their recheck
    (("simulate", "watchpoints", "--b", "3,5", "--watchpoints",
      "0,0;0,1;1,0;1,1;-1,-1;-1,-2;-2,-1;2,2;-2,-2;2,3;3,2;3,3;-3,-3;-3,-4;-4,-3;4,4;-4,-4;4,5;5,4;5,5;"
      "-5,-5;-5,-6;-6,-5;6,6", "--alpha", "0.5", "--steps", "200000", "--trials", "1", "--seed", "23"),
     "9bc3bcb348db319deeca524fe6cbb612aa15e686e5591d9c8f9abf1ba5534df9"),
    # later walkers at two alphas on the 2**-31 grid, which skip the mixer's
    # last xorshift, and one off it, which does not
    (("simulate", "walkers", "--b", "2,3", "--alphas", "0.25,0.375,0.3", "--steps", "3000",
      "--trials", "3", "--seed", "31"),
     "e8439d0d1cbcdd58321828f62bb7952fae2beff12a315907c91b7e1ae52d3059"),
    # 40 later walkers, on and off the 2**-31 grid, masked in groups on both
    # sides of the 2**20-step chunk boundary
    (("simulate", "walkers", "--b", "2,3", "--alphas", ",".join(["0.5,0.3,0.25,0.7,0.375,0.45,0.625,0.6,0.125,0.55"] * 4),
      "--steps", "1049000", "--trials", "1", "--seed", "37"),
     "2de40b09f0d29800fe1963d4feb2ba3f785a4193c0c944df1418d70188dba307"),
    # 2**20 + 7 steps: the second chunk is shorter than one 8-step byte
    # word, and alpha 0.3 is off the 2**-31 grid
    (("simulate", "watchpoints", "--b", "1,3", "--watchpoints", "0,0;1,2;2,1", "--alpha", "0.3",
      "--steps", "1048583", "--trials", "2", "--seed", "41"),
     "1e5febdfae31248d5b6e2e7ea4282550b90d317c7724a20a61c1c11e28b60440"),
]
GOLDEN_EXACT_CSV = [
    (("exact", "watchpoints", "--b", "1,2", "--watchpoints", "0,0;1,2;2,1", "--alpha", "0.4",
      "--steps", "200"),
     "a3878ac1cbba8cc334b9db9ad09aed7e4a0a7da19b857a40bcc569cbf12b491f"),
    (("exact", "walkers", "--b", "2,3", "--alphas", "0.5,0.3,0.7", "--steps", "200"),
     "9e2e2932f4daa359b3663b64d1a54fd9fffe24125bbcb0e06e346126ba7de721"),
]


def test_golden_csv_digests():
    for argv, digest in GOLDEN_CSV:
        for threads in ("1", "2"):
            code, out = run_cli(*argv, "--threads", threads)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, threads)
    for argv, digest in GOLDEN_EXACT_CSV:
        code, out = run_cli(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# One minimal argv per leaf subcommand: the namespace the parser gives it
# (handler aside) and the JSON record it prints. `exact` and `verify` take no
# --tol: no density is computed there.
THREADS = len(os.sched_getaffinity(0))
MC_DEFAULTS = {"format": "csv", "tol": 1e-09, "seed": 1, "threads": THREADS, "budget": 4000000000}
AGG_COLUMNS = ["record", "trial", "visible_count", "proportion", "sample_std", "theory_value", "abs_deviation"]
CHECK_COLUMNS = ["check", "status", "measured"]
SURFACE = [
    (["density", "watchpoints", "--b", "1,2", "--J", "3"],
     {"command": "density", "mode": "watchpoints", "b": BExponent(1, 2), "J": 3, "format": "csv", "tol": 1e-09},
     {"command": "density watchpoints", "seed": None, "parameters": {"b": [1, 2], "J": 3, "tol": 1e-09},
      "columns": ["value", "prime_cutoff", "tail_bound"],
      "rows": [[0.5345668720928765, 97, 8.384435441615226e-10]]}),
    (["density", "walkers", "--b", "2,3", "--r", "5"],
     {"command": "density", "mode": "walkers", "b": BExponent(2, 3), "r": 5, "format": "csv", "tol": 1e-09},
     {"command": "density walkers", "seed": None, "parameters": {"b": [2, 3], "r": 5, "tol": 1e-09},
      "columns": ["value", "prime_cutoff", "tail_bound"],
      "rows": [[0.8597915899367796, 31, 7.788635184616618e-10]]}),
    (["simulate", "watchpoints", "--b", "1,2", "--watchpoints", "0,0;1,2;2,1", "--alpha", "0.5",
      "--steps", "50", "--trials", "2"],
     {"command": "simulate", "mode": "watchpoints", "b": BExponent(1, 2), "watchpoints": [(0, 0), (1, 2), (2, 1)],
      "alpha": 0.5, "steps": 50, "trials": 2, **MC_DEFAULTS},
     {"command": "simulate watchpoints", "seed": 1,
      "parameters": {"b": [1, 2], "steps": 50, "trials": 2, "watchpoints": [[0, 0], [1, 2], [2, 1]], "alpha": 0.5},
      "columns": AGG_COLUMNS,
      "rows": [["trial", 0, 27, 0.54, None, None, None], ["trial", 1, 28, 0.56, None, None, None],
               ["aggregate", None, None, 0.55, 0.014142135623730963, 0.5345668720928765, 0.01543312790712359]]}),
    (["simulate", "walkers", "--b", "2,3", "--alphas", "0.5,0.3", "--steps", "50", "--trials", "2"],
     {"command": "simulate", "mode": "walkers", "b": BExponent(2, 3), "alphas": [0.5, 0.3], "steps": 50, "trials": 2,
      **MC_DEFAULTS},
     {"command": "simulate walkers", "seed": 1,
      "parameters": {"b": [2, 3], "steps": 50, "trials": 2, "alphas": [0.5, 0.3]},
      "columns": AGG_COLUMNS,
      "rows": [["trial", 0, 44, 0.88, None, None, None], ["trial", 1, 47, 0.94, None, None, None],
               ["aggregate", None, None, 0.9099999999999999, 0.04242640687119281, 0.9330762040368218,
                0.023076204036821868]]}),
    (["exact", "watchpoints", "--b", "1,2", "--watchpoints", "0,0", "--alpha", "0.5", "--steps", "4"],
     {"command": "exact", "mode": "watchpoints", "b": BExponent(1, 2), "watchpoints": [(0, 0)], "alpha": 0.5,
      "steps": 4, "format": "csv"},
     {"command": "exact watchpoints", "seed": None,
      "parameters": {"b": [1, 2], "watchpoints": [[0, 0]], "alpha": 0.5, "steps": 4},
      "columns": ["steps", "expectation"], "rows": [[4, 0.78125]]}),
    (["exact", "walkers", "--b", "2,3", "--alphas", "0.5", "--steps", "5"],
     {"command": "exact", "mode": "walkers", "b": BExponent(2, 3), "alphas": [0.5], "steps": 5, "format": "csv"},
     {"command": "exact walkers", "seed": None, "parameters": {"b": [2, 3], "alphas": [0.5], "steps": 5},
      "columns": ["steps", "expectation"], "rows": [[5, 0.8125]]}),
    (["verify", "gcd-properties", "--samples", "10"],
     {"command": "verify", "check": "gcd-properties", "samples": 10, "format": "csv"},
     {"command": "verify gcd-properties", "seed": None, "parameters": {"samples": 10}, "columns": CHECK_COLUMNS,
      "rows": [["gcd_b vs brute force (10 random cases)", "PASS", "0 mismatches"],
               ["divisor criterion: d | gcd_b(m,n) iff d^b1|m and d^b2|n", "PASS", "0 mismatches"],
               ["shift invariance: gcd_b(m,n) = gcd_b(m+a*n, n) for b1<=b2", "PASS", "0 mismatches"],
               ["bi-multiplicativity on 10 coprime quadruples", "PASS", "0 mismatches"],
               ["prime-power formula gcd_b(p^k1, p^k2)", "PASS", "0 mismatches"]]}),
    (["verify", "visibility-oracle", "--b", "2,3", "--box", "6"],
     {"command": "verify", "check": "visibility-oracle", "b": BExponent(2, 3), "box": 6, "format": "csv"},
     {"command": "verify visibility-oracle", "seed": None, "parameters": {"b": [2, 3], "box": 6},
      "columns": CHECK_COLUMNS, "rows": [["oracle agreement b=(2,3) on 441 pairs (6x6 box)", "PASS", "all agree"]]}),
    (["verify", "congruence-sum", "--alpha", "0.3", "--n", "1000", "--d", "7"],
     {"command": "verify", "check": "congruence-sum", "alpha": 0.3, "n": 1000, "d": 7, "threshold": 0.01,
      "format": "csv"},
     {"command": "verify congruence-sum", "seed": None,
      "parameters": {"alpha": 0.3, "n": 1000, "d": 7, "threshold": 0.01}, "columns": CHECK_COLUMNS,
      "rows": [["congruence masses near 1/7 (alpha=0.3, n=1000)", "PASS", "max deviation 0.000e+00 (threshold 0.01)"],
               ["residue classes partition the total mass", "PASS", "|sum-1| = 0.00e+00"]]}),
    (["verify", "mean-value", "--kind", "walker-moment", "--b", "2,3", "--x", "1000", "--r", "2"],
     {"command": "verify", "check": "mean-value", "kind": "walker-moment", "b": BExponent(2, 3), "x": 1000, "r": 2,
      "shifts": None, "format": "csv"},
     {"command": "verify mean-value", "seed": None,
      "parameters": {"kind": "walker-moment", "b": [2, 3], "x": 1000, "r": 2, "shifts": None},
      "columns": CHECK_COLUMNS,
      "rows": [["mean value walker-moment b=(2,3) r=2: normalized error decay", "PASS",
                "ratio 4.2956e-04 at x=100 -> 6.6930e-05 at x=1000"],
               ["mean value walker-moment: relative error at x=1000", "PASS",
                "sum/x = 0.93307409 vs density 0.93307620"]]}),
    (["table1", "--steps", "200", "--trials", "1"],
     {"command": "table1", "steps": 200, "trials": 1, **MC_DEFAULTS},
     {"command": "table1", "seed": 1, "parameters": {"steps": 200, "trials": 1},
      "columns": ["b1", "b2", "numerical_alpha_0.5", "numerical_alpha_0.3", "theoretical", "abs_dev_alpha_0.5",
                  "abs_dev_alpha_0.3"],
      "rows": [[1, 2, 0.56, 0.505, 0.5345668720928765, 0.0254331279071236, 0.02956687209287645],
               [1, 3, 0.78, 0.74, 0.7773734287728712, 0.0026265712271288377, 0.0373734287728712],
               [1, 4, 0.905, 0.89, 0.8940152520585033, 0.01098474794149673, 0.0040152520585032825],
               [1, 5, 0.94, 0.94, 0.9489938230042931, 0.008993823004293189, 0.008993823004293189],
               [2, 3, 0.87, 0.85, 0.8940152520585033, 0.0240152520585033, 0.04401525205850332],
               [2, 5, 0.94, 0.91, 0.975181698774648, 0.03518169877464805, 0.06518169877464797],
               [3, 4, 0.955, 0.955, 0.975181698774648, 0.020181698774648038, 0.020181698774648038],
               [3, 5, 0.975, 0.89, 0.9878212422994396, 0.012821242299439595, 0.09782124229943956]]}),
    (["table2", "--rows", "2,10", "--steps", "200", "--trials", "1"],
     {"command": "table2", "b": BExponent(2, 3), "rows": [2, 10], "steps": 200, "trials": 1, **MC_DEFAULTS},
     {"command": "table2", "seed": 1, "parameters": {"b": [2, 3], "steps": 200, "trials": 1, "rows": [2, 10]},
      "columns": ["r", "numerical", "theoretical", "abs_deviation"],
      "rows": [[2, 0.95, 0.9330762040368218, 0.016923795963178168],
               [10, 0.75, 0.7843030473249477, 0.03430304732494771]]}),
]


@pytest.mark.parametrize("argv, parsed, record", SURFACE, ids=[rec["command"] for _, _, rec in SURFACE])
def test_cli_surface(argv, parsed, record):
    ns = vars(build_parser().parse_args(argv))
    ns.pop("func")
    assert ns == parsed
    code, out = run_cli(*argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {k: doc[k] for k in ("command", "seed", "columns", "rows")} == {
        k: record[k] for k in ("command", "seed", "columns", "rows")}
    # parameters lists the subcommand's flags; these keys are always among them
    assert {k: doc["parameters"].get(k, "missing") for k in record["parameters"]} == record["parameters"]


def test_tol_only_where_a_density_is_computed(capsys):
    code, _ = run_cli("exact", "walkers", "--b", "2,3", "--alphas", "0.5", "--steps", "5", "--tol", "1e-6")
    assert code == 2
    code, _ = run_cli("verify", "gcd-properties", "--samples", "10", "--tol", "1")
    assert code == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err


def test_verify_mean_value_missing_input_exits_2():
    for argv in (("--kind", "walker-moment"), ("--kind", "watchpoints-shifted")):
        code, out = run_cli("verify", "mean-value", "--b", "2,3", "--x", "1000", *argv)
        assert code == 2
        assert out == ""


@pytest.mark.parametrize("argv", [
    ("density", "walkers", "--b", "1,1", "--r", "3"),
    ("density", "watchpoints", "--b", "1,2", "--J", "2"),
    ("simulate", "walkers", "--b", "2,3", "--alphas", "0.5", "--steps", "10", "--trials", "1"),
])
@pytest.mark.parametrize("tol, want", [("nan", 2), ("5e-324", 4), ("1e-320", 4)])
def test_tolerance_edge_cases_exit_cleanly(argv, tol, want, capsys):
    # NaN is not a positive tolerance; a subnormal one puts the prime cutoff
    # at infinity, past the sieve cap
    code, out = run_cli(*argv, "--tol", tol)
    assert code == want
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance must be positive" if want == 2 else "over budget:")


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv", [
    ("density", "walkers", "--b", "1,1", "--r", "1000000000"),
    ("density", "walkers", "--b", "1,1", "--r", "10000"),
    ("density", "walkers", "--b", "1,1", "--r", "300", "--tol", "1e-15"),
    ("density", "walkers", "--b", "2,3", "--r", "5", "--tol", "1e-300"),
    ("density", "watchpoints", "--b", "1,2", "--J", "8", "--tol", "1e-300"),
    # the first r at (1, 1) whose prime cutoff, at the default tol, passes the cap
    ("density", "walkers", "--b", "1,1", "--r", "2809"),
])
def test_density_past_prime_cap_exits_4_in_bounded_memory(argv):
    # in a fresh process limited to 1 GB of address space: refused before
    # any sieve of the cutoff's size is allocated
    proc = run_fresh_python(["-m", "walkvis.cli", *argv], timeout=20, preexec_fn=_limit_address_space)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("over budget:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
