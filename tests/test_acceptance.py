"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget. Run with -s to watch the lines.
"""

import json
import random
import time
from contextlib import contextmanager
from math import gcd, log2


from helpers import slow_is_prime, slow_primes_below
from primekit.bigsearch import build_state, search
from primekit.cli import run
from primekit.exclusion import ExclusionSpec, excluded_k, primes_below
from primekit.mersenne import (
    check_exponent_contrapositive,
    check_multiple_step_composite,
    check_strict_growth,
    scan_prime_zn,
)
from primekit.oracle import primes_leq_sqrt, sieve_primes_below
from primekit.reference import relation1_report, relation2_report, relation3_report
from primekit.relations import (
    Parity,
    Relation3Params,
    default_partition,
    enumerate_certified,
    enumeration_grid_size,
    eval_relation1,
    eval_relation3,
)

E, O = Parity.EVEN, Parity.ODD


@contextmanager
def criterion(number, name, limit_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    within = limit_seconds is None or elapsed <= limit_seconds
    verdict = "PASS" if within else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({elapsed:.2f}s)", flush=True)
    assert within, f"criterion {number} took {elapsed:.2f}s, budget {limit_seconds}s"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1_worked_sieve_example(capsys):
    with criterion(1, "sieve bound 120, paper-faithful", 1.0):
        code, out = run_cli(capsys, "sieve", "--bound", "120", "--paper-faithful")
        assert code == 0
        values = [int(line) for line in out.splitlines()]
        assert values == slow_primes_below(120)[1:]
        assert len(values) == 29 and values[0] == 3 and values[-1] == 113

        spec = ExclusionSpec.for_bound(120)
        assert excluded_k(spec, 0) == list(range(4, 59, 3))
        assert excluded_k(spec, 1) == list(range(12, 58, 5))
        assert excluded_k(spec, 2) == [24, 31, 38, 45, 52, 59]

        code, out = run_cli(capsys, "sieve", "--bound", "120", "--show-exclusions")
        assert code == 0
        assert out.splitlines() == [
            "C=3: " + ",".join(str(k) for k in range(4, 59, 3)),
            "C=5: " + ",".join(str(k) for k in range(12, 58, 5)),
            "C=7: 24,31,38,45,52,59",
        ]


def test_criterion_2_oracle_equivalence_sweep():
    with criterion(2, "exclusion sieve equals oracle sieve", 30.0):
        for bound in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 6):
            assert primes_below(bound, include_two=True) == sieve_primes_below(bound)


def test_criterion_3_relation2_columns():
    with criterion(3, "relation2 reference columns", 1.0):
        entries = relation2_report()
        assert [e.certificate.value for e in entries] == [59, 73, 89, 79, 43, 17, 61]
        assert all(e.consistent and e.certificate.accepted for e in entries)


def test_criterion_4_relation3_columns():
    with criterion(4, "relation3 reference columns", 1.0):
        entries = relation3_report()
        assert [e.certificate.value for e in entries] == [107, 61, 103, 101]
        assert all(e.consistent and e.certificate.accepted for e in entries)


def test_criterion_5_relation1_columns_with_errata():
    with criterion(5, "relation1 columns, errata flagged and recovered", 5.0):
        by_column = {e.column: e for e in relation1_report()}
        assert [by_column[c].certificate.value for c in (1, 3, 5)] == [89, 67, 103]
        assert all(by_column[c].consistent for c in (1, 3, 5))

        assert not by_column[2].consistent
        assert by_column[2].certificate.signed_value == -1139
        assert not by_column[4].consistent
        assert by_column[4].certificate.signed_value == -31

        for column, target in ((2, 71), (4, 31)):
            replacement = by_column[column].replacement
            assert replacement is not None
            cert = eval_relation1(replacement)
            assert cert.accepted and cert.value == target


def test_criterion_6_search_worked_example():
    with criterion(6, "seed-13 search trace", 1.0):
        state = build_state(13)
        assert state.product == 1155
        hits = search(state, 18)
        assert [(h.k, h.n, h.value) for h in hits] == [(1, 10, 131), (227, 18, 41)]


ACCEPT_GRID_CAP = 300_000
SAMPLES_PER_BASIS = 1200


def _distinct_bases(max_bound):
    primes = slow_primes_below(102)
    bases = []
    for p, q in zip(primes, primes[1:]):
        rep = min(q * q - 1, max_bound)
        if rep < max(5, p * p):
            continue
        basis = primes_leq_sqrt(rep)
        assert basis.small_primes[-1] == p
        bases.append(basis)
    return bases


def _max_feasible_budget(construction, basis, **kwargs):
    for budget in range(32, 0, -1):
        if enumeration_grid_size(construction, basis, budget, **kwargs) <= ACCEPT_GRID_CAP:
            return budget
    return None


def _sampled_relation3_soundness(basis, rng):
    violations = []
    for _ in range(SAMPLES_PER_BASIS):
        signs = tuple(rng.choice((E, O)) for _ in range(len(basis.small_primes) + 1))
        ks = []
        for prime in basis.small_primes:
            k = rng.randrange(1, 33)
            while k % prime == 0:
                k = rng.randrange(1, 33)
            ks.append(k)
        ks.append(rng.randrange(0, 33))
        cert = eval_relation3(Relation3Params(basis, signs, tuple(ks)))
        if cert.accepted and not cert.verdict.is_prime:
            violations.append(cert)
    return violations


def test_criterion_7a_relation_soundness():
    with criterion("7a", "relations 1-3 soundness over all bases <= 10^4", 600.0):
        rng = random.Random(0x5EED)
        violations = []
        accepted_total = 0
        for basis in _distinct_bases(10 ** 4):
            jobs = [("relation1", {"exponent_slots": 2}), ("relation1-factorial", {"exponent_slots": 2})]
            if len(basis.small_primes) >= 2:
                jobs.append(("relation2", {"partition": default_partition(basis)}))
            jobs.append(("relation3", {}))
            for construction, kwargs in jobs:
                budget = _max_feasible_budget(construction, basis, **kwargs)
                if budget is None:
                    assert construction == "relation3"
                    violations.extend(_sampled_relation3_soundness(basis, rng))
                    continue
                certs = enumerate_certified(
                    construction, basis, budget, candidate_cap=ACCEPT_GRID_CAP, **kwargs
                )
                accepted_total += len(certs)
                for cert in certs:
                    if not cert.verdict.is_prime:
                        violations.append(cert)
                    low, high = cert.window
                    assert low < cert.value <= high
        assert accepted_total > 250  # the sweep actually exercises acceptance
        assert violations == []


def test_criterion_7b_search_soundness():
    with criterion("7b", "big-search soundness over six seeds", 300.0):
        violations = []
        for seed in (5, 7, 13, 31, 101, 997):
            state = build_state(seed)
            limit = int(2 * log2(seed * seed)) + 1
            hits = search(state, limit, min_n=1)
            for hit in hits:
                prime_ok = hit.verdict.is_prime and slow_is_prime(hit.value)
                in_range = state.low < hit.value <= state.high
                if not (prime_ok and in_range and gcd(hit.value, state.product) == 1):
                    violations.append(hit)
        assert violations == []


def test_criterion_7c_exponent_and_multiple_step_grids():
    with criterion("7c", "composite-exponent and multiple-step grids", 120.0):
        for base in range(1, 21):
            for step in range(1, 21):
                assert check_exponent_contrapositive(base, step, 24) == []
        for base in range(2, 11):
            for multiplier in range(1, 6):
                assert check_multiple_step_composite(base, multiplier, 12) == []


def test_criterion_7d_strict_growth():
    with criterion("7d", "strict growth and Mersenne domination", 60.0):
        for exponent in range(2, 17):
            assert check_strict_growth(exponent, 10 ** 3)


def test_criterion_8_mersenne_cross_check():
    with criterion(8, "classic Mersenne exponents below 32", 60.0):
        hits = list(scan_prime_zn((1, 1), (1, 1), (2, 31)))
        assert [r.params.exponent for r in hits] == [2, 3, 5, 7, 13, 17, 19, 31]


TIMING_KEYS = {"elapsed_ms", "timestamp"}


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _normalize(out, fmt):
    if fmt == "json":
        return json.dumps(_strip_timing(json.loads(out)))
    if fmt == "jsonl":
        return "\n".join(
            json.dumps(_strip_timing(json.loads(line))) for line in out.splitlines()
        )
    return out


def test_criterion_9_determinism_across_worker_counts(capsys, tmp_path):
    log = tmp_path / "hits.jsonl"
    commands = [
        (["sieve", "--bound", "1000", "--format", "jsonl"], "jsonl"),
        (["sieve", "--bound", "120", "--paper-faithful", "--show-exclusions", "--format", "json"], "json"),
        (["zscan", "--a", "1..3", "--c", "1..3", "--n", "2..8", "--format", "jsonl"], "jsonl"),
        (["rel1", "--bound", "119", "--b1", "2", "--b2", "1", "--k", "1", "--m", "2", "--format", "json"], "json"),
        (["rel1", "--bound", "119", "--enumerate", "--budget", "6", "--format", "jsonl"], "jsonl"),
        (["rel1f", "--bound", "119", "--b1", "2", "--b2", "1", "--k1", "1", "--format", "json"], "json"),
        (["rel2", "--bound", "119", "--s1", "2,7", "--s2", "3,5", "--b1", "2", "--b2", "2",
          "--k1", "1", "--k2", "3", "--format", "json"], "json"),
        (["rel2", "--bound", "48", "--enumerate", "--budget", "6", "--format", "jsonl"], "jsonl"),
        (["rel3", "--bound", "119", "--b", "2,1,2,2", "--k", "1,1,1,1", "--format", "json"], "json"),
        (["rel3", "--bound", "119", "--enumerate", "--budget", "2", "--format", "jsonl"], "jsonl"),
        (["bigsearch", "--seed", "13", "--max-n", "18", "--format", "jsonl"], "jsonl"),
    ]
    with criterion(9, "worker count never changes non-timing output", None):
        code, _ = run_cli_quiet(capsys, "bigsearch", "--seed", "13", "--max-n", "18",
                                "--log", str(log))
        assert code == 0
        commands.append((["verify", "--log", str(log), "--format", "text"], "text"))
        for argv, fmt in commands:
            outputs = []
            for workers in ("1", "8"):
                code, out = run_cli_quiet(capsys, *argv, "--workers", workers)
                assert code == 0, argv
                outputs.append(_normalize(out, fmt))
            assert outputs[0] == outputs[1], argv


def run_cli_quiet(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out
