"""Tests of the benchmark's own checks: each must reject a corrupted output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from math import isqrt
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from primekit import cli  # noqa: E402
from primekit.bigsearch import build_state, search  # noqa: E402
from primekit.oracle import primes_leq_sqrt  # noqa: E402
from primekit.relations import enumerate_certified, enumeration_grid_size  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Reference  # noqa: E402

REF = Reference(200_000)


def primekit_output(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return out.getvalue()


def jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def test_probable_prime_agrees_with_trial_division():
    def slow(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(3000) if checks.is_probable_prime(n)] == [n for n in range(3000) if slow(n)]
    assert checks.is_probable_prime(2 ** 127 - 1)
    assert checks.is_probable_prime(2 ** 521 - 1)
    for composite in (561, 3215031751, 2 ** 128 + 1, (2 ** 89 - 1) * (2 ** 107 - 1), 3317044064679887385961981):
        assert not checks.is_probable_prime(composite)


def test_reference_rejects_wrong_prime_counts(monkeypatch):
    monkeypatch.setitem(checks.KNOWN_PI, 1000, 169)
    with pytest.raises(CheckError, match="pi"):
        Reference(2000)


@pytest.mark.parametrize("fmt", ["text", "jsonl", "csv"])
def test_sieve_check_rejects_dropped_and_added_values(fmt):
    text = primekit_output("sieve", "--bound", "5000", "--format", fmt)
    assert checks.check_sieve(text, fmt, 5000, REF) == 669
    lines = text.splitlines(keepends=True)
    dropped = "".join(lines[:40] + lines[41:])
    with pytest.raises(CheckError, match="missing \\[1[0-9]{2}\\]"):
        checks.check_sieve(dropped, fmt, 5000, REF)
    added_line = {"text": "91\n", "jsonl": '{"value":"91"}\n', "csv": "91\n"}[fmt]
    added = "".join(lines[:26] + [added_line] + lines[26:])
    with pytest.raises(CheckError, match="extra \\[91\\]"):
        checks.check_sieve(added, fmt, 5000, REF)


def relation_records(name: str, bound: int, budget: int, *extra: str) -> list[dict]:
    text = primekit_output(name, "--bound", str(bound), "--enumerate", "--budget", str(budget), "--format", "jsonl",
                           *extra)
    return checks.jsonl_records(text)


@pytest.mark.parametrize("name,construction,bound,budget,slots", [
    ("rel1", "relation1", 24, 8, 2),
    ("rel1", "relation1", 24, 5, 3),
    ("rel1f", "relation1-factorial", 24, 8, 2),
    ("rel1f", "relation1-factorial", 24, 5, 3),
    ("rel2", "relation2", 120, 16, None),
    ("rel3", "relation3", 120, 4, None),
])
def test_relation_check_matches_brute_force_and_rejects_a_dropped_certificate(name, construction, bound, budget,
                                                                              slots):
    records = relation_records(name, bound, budget, *(["--slots", str(slots)] if slots else []))
    expected = checks.brute_force_relation(construction, bound, budget, slots, REF)
    assert len(records) >= 3
    assert checks.check_relation(jsonl(records), construction, bound, REF, expected) == len(records)
    with pytest.raises(CheckError, match="brute-force"):
        checks.check_relation(jsonl(records[:1] + records[2:]), construction, bound, REF, expected)


def test_relation_check_rejects_a_certificate_outside_its_window():
    record = relation_records("rel2", 120, 16)[0]
    params = record["params"]
    # one more k3 moves the value by P1*P2 = 210, out of (7, 120]
    params["k3"] = str(int(params["k3"]) + 1)
    basis = [2, 3, 5, 7]
    record["value"] = str(checks.relation_value("relation2", params, basis, REF.above(10, 4)))
    with pytest.raises(CheckError, match="outside"):
        checks.check_relation(jsonl([record]), "relation2", 120, REF)


def test_relation_check_rejects_a_wrong_value():
    record = relation_records("rel3", 120, 4)[0]
    record["value"] = str(int(record["value"]) + 2)
    with pytest.raises(CheckError, match="params give"):
        checks.check_relation(jsonl([record]), "relation3", 120, REF)


def test_grid_sizes_are_primekit_enumeration_grid_sizes():
    for command in workloads.round_commands("relations-sweep", 1, Path("unused")):
        p = command.params
        basis = primes_leq_sqrt(p["bound"])
        slots = {"exponent_slots": p["slots"]} if p["slots"] else {}
        assert workloads.relation_grid_size(p["construction"], basis.small_primes, p["budget"], p["slots"]) == \
            enumeration_grid_size(p["construction"], basis, p["budget"], **slots)


@pytest.mark.parametrize("bound", [8, 48, 120])
def test_brute_force_equals_primekit_enumeration(bound):
    basis = primes_leq_sqrt(bound)
    for construction, slots in (("relation1", 2), ("relation1", 3), ("relation1-factorial", 2),
                                ("relation1-factorial", 3), ("relation2", None), ("relation3", None)):
        if construction == "relation2" and len(basis.small_primes) < 2:
            continue
        certs = enumerate_certified(construction, basis, 4, **({"exponent_slots": slots} if slots else {}))
        assert {c.value for c in certs} == checks.brute_force_relation(construction, bound, 4, slots, REF)


@pytest.mark.parametrize("seed,min_n", [(5, None), (7, None), (11, None), (13, None), (13, 1), (17, 1)])
def test_search_hits_equal_primekit_search(seed, min_n):
    hits = search(build_state(seed), 200, min_n=min_n)
    assert [(h.n, h.k, h.value) for h in hits] == checks.search_hits(seed, 200, min_n, REF)


def test_bigsearch_check_rejects_dropped_and_out_of_window_hits():
    text = primekit_output("bigsearch", "--seed", "13", "--max-n", "120", "--format", "jsonl")
    records = checks.jsonl_records(text)
    assert checks.check_bigsearch(text, 13, 120, None, REF) == len(records) > 3
    with pytest.raises(CheckError, match="expected"):
        checks.check_bigsearch(jsonl(records[:2] + records[3:]), 13, 120, None, REF)
    outside = dict(records[-1])
    n = outside["n"]
    k = (13 * 13 - 1 + 2 ** n) // 1155 + 2  # R = c*k - 2^n lands above seed^2 - 1
    outside.update(k=str(k), value=str(1155 * k - 2 ** n))
    with pytest.raises(CheckError, match="one list only"):
        checks.check_bigsearch(jsonl(records + [outside]), 13, 120, None, REF)


def test_zscan_check_rejects_a_composite_and_a_missing_log_record():
    text = primekit_output("zscan", "--a", "1..1", "--c", "1..1", "--n", "2..31", "--format", "jsonl")
    records = checks.jsonl_records(text)
    log = jsonl([{"value": r["value"]} for r in records])
    assert checks.check_zscan(text, 1, 1, (2, 31), log) == [3, 7, 31, 127, 8191, 131071, 524287, 2147483647]
    composite = dict(records[0], exponent=11, value=str(2 ** 11 - 1))
    with pytest.raises(CheckError, match="composite"):
        checks.check_zscan(jsonl(records + [composite]), 1, 1, (2, 31), log)
    with pytest.raises(CheckError, match="log gained"):
        checks.check_zscan(text, 1, 1, (2, 31), jsonl([{"value": r["value"]} for r in records[1:]]))


def test_verify_check_compares_with_records_written():
    assert checks.check_verify('{"checked":8,"mismatches":0}\n', 8) == 8
    with pytest.raises(CheckError):
        checks.check_verify('{"checked":7,"mismatches":0}\n', 8)
    with pytest.raises(CheckError):
        checks.check_verify('{"checked":8,"mismatches":1}\n', 8)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_rounds_follow_the_seed_and_keep_their_make_up(workload):
    def shape(seed):
        return sorted((c.kind, c.argv[0]) for c in workloads.round_commands(workload, seed, Path("w")))

    one = workloads.round_commands(workload, 1, Path("w"))
    assert [c.argv for c in one] == [c.argv for c in workloads.round_commands(workload, 1, Path("w"))]
    assert len(one) >= 40
    assert shape(1) == shape(2)
    assert workload in workloads.WARMUP


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tally = run.Tally()
    tally.ms, tally.certified = [1.0], 1
    layers = {"calls": {}, "ms": {}, "self_ms": {}, "counts": {}}
    printed = run.per_layer(layers, tally, tally, 1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in printed.items()}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_tail_percentile_leaves_ten_commands_of_a_round_above(workload):
    n = len(workloads.round_commands(workload, 1, Path("w")))
    p = workloads.tail_percentile(n)
    values = list(range(n))
    assert sum(v > run.percentile(values, p) for v in values) >= 10
    assert sum(v > run.percentile(values, p + 1) for v in values) < 10


def test_checker_checks_a_repeated_command_in_full():
    command = workloads.Command(["sieve", "--bound", "5000", "--format", "text"], "sieve",
                                {"bound": 5000, "format": "text"})
    checker = checks.Checker([command])
    text = primekit_output(*command.argv)
    assert checker.check(command, text, "") == checker.check(command, text, "") == 669
    with pytest.raises(CheckError):
        checker.check(command, text.replace("\n97\n", "\n"), "")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_capture_stamps_the_first_block_of_output_not_the_last(tmp_path, fmt):
    out = tmp_path / "stdout.txt"
    result = worker.execute(str(out), ["sieve", "--bound", "200000", "--format", fmt])
    assert result["code"] == 0
    assert result["bytes_out"] == out.stat().st_size
    assert checks.check_sieve(out.read_text(encoding="utf-8"), fmt, 200_000, REF) == 17_984
    # serializing ~18k records takes about half of these commands, and the first
    # block reaches the file at its start; a stamp that every write renewed
    # would land near the return
    assert result["first_ms"] < 0.8 * result["ms"]

