import contextlib
import csv
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

import pytest

from helpers import slow_primes_below
from primekit import bigsearch, cli, exclusion, relations
from primekit.cli import run
from primekit.errors import InvariantViolation, digit_limit
from primekit.mersenne import scan_prime_zn
from primekit.oracle import OracleVerdict, is_prime, primes_leq_sqrt, sieve_primes_below
from primekit.reference import relation1_report, relation2_report, relation3_report
from primekit.relations import (
    RELATION1,
    RELATION2,
    Parity,
    Relation1Params,
    enumerate_certified,
    eval_relation1,
)
from reference_writer import Item, emitted


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSieve:
    def test_paper_faithful_120(self, capsys):
        code, out, _ = run_cli(capsys, "sieve", "--bound", "120", "--paper-faithful")
        assert code == 0
        values = [int(line) for line in out.splitlines()]
        assert values == slow_primes_below(120)[1:]
        assert len(values) == 29

    def test_default_includes_two(self, capsys):
        code, out, _ = run_cli(capsys, "sieve", "--bound", "10")
        assert code == 0
        assert [int(x) for x in out.split()] == [2, 3, 5, 7]

    def test_show_exclusions(self, capsys):
        code, out, _ = run_cli(capsys, "sieve", "--bound", "120", "--show-exclusions")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "C=3: 4,7,10,13,16,19,22,25,28,31,34,37,40,43,46,49,52,55,58"
        assert lines[1] == "C=5: 12,17,22,27,32,37,42,47,52,57"
        assert lines[2] == "C=7: 24,31,38,45,52,59"

    def test_bound_below_nine_fails_validation(self, capsys):
        code, _, err = run_cli(capsys, "sieve", "--bound", "5")
        assert code == 1
        assert "error:" in err

    def test_show_exclusions_bound_below_nine_exit_one(self, capsys):
        for bound in ("5", "6", "7", "8"):
            code, out, err = run_cli(capsys, "sieve", "--bound", bound, "--show-exclusions")
            assert code == 1 and out == "" and "at least 9" in err, bound

    def test_show_exclusions_cap_refuses_before_building(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("built past the dense-sieve cap")

        monkeypatch.setattr(exclusion, "primes_leq_sqrt", never)
        monkeypatch.setattr(cli, "excluded_k", never)
        code, out, err = run_cli(
            capsys, "sieve", "--bound", str(exclusion.DENSE_BOUND_MAX + 1), "--show-exclusions",
        )
        assert code == 2 and out == "" and "dense-sieve cap" in err

    def test_show_exclusions_candidate_cap_refuses_before_building(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("built past the candidate cap")

        monkeypatch.setattr(cli, "excluded_k", never)
        # bound 3e6 strikes 2,554,683 K values, past the default cap of 2e6
        for argv in (["--bound", "3000000"], ["--bound", "120", "--candidate-cap", "34"]):
            for fmt in cli.FORMATS:
                code, out, err = run_cli(capsys, "sieve", *argv, "--show-exclusions", "--format", fmt)
                assert code == 2 and out == "" and "candidate cap" in err, (argv, fmt)

    def test_show_exclusions_at_the_candidate_cap(self, capsys):
        # 19 + 10 + 6 struck K values at bound 120
        code, out, _ = run_cli(capsys, "sieve", "--bound", "120", "--show-exclusions", "--candidate-cap", "35")
        assert code == 0 and len(out.splitlines()) == 3

    def test_log_file_is_created_and_nothing_appended(self, capsys, tmp_path):
        fresh, kept = tmp_path / "fresh.jsonl", tmp_path / "kept.jsonl"
        kept.write_text("earlier line\n")
        for log in (fresh, kept):
            code, out, _ = run_cli(capsys, "sieve", "--bound", "30", "--log", str(log))
            assert code == 0 and out.split()[-1] == "29"
        assert fresh.read_text() == ""
        assert kept.read_text() == "earlier line\n"

    def test_closed_pipe_exits_141_quietly(self):
        # as in `primekit sieve --bound 2000000 | head -1`
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "primekit.cli", "sieve", "--bound", "2000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"2\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""


# flags -> whether the sieve prints 2
_SIEVE_FLAGS = {
    (): True,
    ("--include-two",): True,
    ("--paper-faithful",): False,
    ("--paper-faithful", "--include-two"): True,
}


# the largest list of primes the sieve writer tests compare, 2 included
_REFERENCE_BOUND = 2_500_000


def _emitted_primes(primes, fmt):
    return emitted([Item({"value": str(p)}, str(p)) for p in primes], fmt)


@functools.cache
def _sieve_reference(fmt):
    """The batch writer's rendering of the primes below _REFERENCE_BOUND,
    2 included, made once per format and process: the primes, the text,
    where each prime's digits start in it, and what follows the last
    prime's digits (its record's close and the format's tail). Every record
    has the same text around its digits, so consecutive primes' digits lie
    one fixed step apart beyond the digits themselves."""
    primes = sieve_primes_below(_REFERENCE_BOUND)
    text = _emitted_primes(primes, fmt)
    first = text.index("2")
    step = text.index("3", first) - first - 1
    starts = list(accumulate((len(str(p)) + step for p in primes[:-1]), initial=first))
    assert all(text.startswith(str(p), start) for p, start in zip(primes, starts))
    return primes, text, starts, text[starts[-1] + len(str(primes[-1])) :]


def _expected_sieve(bound, with_two, fmt):
    """The batch writer's rendering of the primes below bound (at least 4),
    2 left out unless with_two, taken from the reference: its text up to
    the last prime's digits, then what follows the reference's last digits.
    Without 2, the text from 2's digits to 3's goes, which is the first
    record and the separator after it, shifted by the text before a
    record's digits (the same in every record)."""
    primes, text, starts, end = _sieve_reference(fmt)
    last = bisect_left(primes, bound) - 1
    cut = starts[0] if with_two else starts[1]
    return text[: starts[0]] + text[cut : starts[last] + len(str(primes[last]))] + end


class TestSieveWriter:
    """The streamed sieve writer against the batch reference writer with
    one Item per prime, which is how every sieve was written before it
    streamed. The reference is rendered once per format, at the largest
    list; every other list's rendering is a cut of it (_expected_sieve),
    which test_reference_cuts_equal_fresh_renderings holds to the batch
    writer itself."""

    @staticmethod
    def _sieved(bound, fmt, flags):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["sieve", "--bound", str(bound), "--format", fmt, *flags]) == 0
        return out.getvalue()

    def _check(self, cases, fmt):
        """Each (bound, flags) against the reference's rendering of the primes
        below bound."""
        for bound, flags in cases:
            expected = _expected_sieve(bound, _SIEVE_FLAGS[flags], fmt)
            assert self._sieved(bound, fmt, flags) == expected, (bound, flags)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_reference_cuts_equal_fresh_renderings(self, fmt):
        # bounds where 2, 3 and 5 are the whole list or near its end, a
        # bound at a prime and one past it, block edges and a bound past a
        # prefix's new digit, each with every flag set
        for bound in (4, 6, 7, 8, 9, 2000, 10_007, 10_008, 100_003):
            for flags, with_two in _SIEVE_FLAGS.items():
                primes = sieve_primes_below(bound)[0 if with_two else 1 :]
                assert _expected_sieve(bound, with_two, fmt) == _emitted_primes(primes, fmt), (bound, flags)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_every_bound_to_2000(self, fmt):
        # the four flag sets take turns, so each meets about 500 bounds of every residue mod 4
        flag_sets = list(_SIEVE_FLAGS)
        self._check([(bound, flag_sets[bound // 4 % 4]) for bound in range(9, 2001)], fmt)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_large_bounds(self, fmt):
        # 10^5 and 10^6 are among test_counts_around_whole_chunks' bounds
        self._check([(_REFERENCE_BOUND, flags) for flags in _SIEVE_FLAGS], fmt)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_counts_around_whole_chunks(self, fmt):
        # bounds one below, at, and one and two above the end of 1, 2, 10
        # and 100 whole blocks of exclusion.BLOCK integers, where a block's
        # prefix gains a digit at 10^5 and 10^6: the last block is whole,
        # or holds one K or two. At BLOCK*q + 2 its one K is the composite
        # BLOCK*q + 1, so that block has no prime and writes nothing
        block = exclusion.BLOCK
        bounds = [block * q + d for q in (1, 2, 10, 100) for d in (-1, 0, 1, 2)]
        self._check([(bound, flags) for bound in bounds for flags in _SIEVE_FLAGS], fmt)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_writes_each_block_as_it_comes(self, fmt, monkeypatch):
        # stdout as it stands each time the engine is asked for a block:
        # nothing before the first, and before block i is read out, every
        # prime below BLOCK*i, rendered in full but for the format's tail
        out = io.StringIO()
        seen = []
        real = exclusion.prime_blocks

        def watched(bound, include_two):
            blocks = real(bound, include_two=include_two)
            while True:
                seen.append(out.getvalue())
                block = next(blocks, None)
                if block is None:
                    return
                yield block

        monkeypatch.setattr(cli, "prime_blocks", watched)
        with contextlib.redirect_stdout(out):
            assert run(["sieve", "--bound", "100000", "--format", fmt]) == 0
        assert len(seen) == 100_000 // exclusion.BLOCK + 1
        # what the reference writes after the last record: the close of a
        # json array; every other format ends with its last record's line
        full = _expected_sieve(100_000, True, fmt)
        tail = full[full.rindex("}") + 1 :] if fmt == "json" else ""
        assert out.getvalue() == full
        assert seen[0] == ""
        for i, text in enumerate(seen[1:-1], 1):
            assert text + tail == _expected_sieve(i * exclusion.BLOCK, True, fmt), i

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_show_exclusions_writes_each_row_as_it_comes(self, fmt, monkeypatch):
        # stdout as it stands when the struck K values of each prime are
        # listed: the rows of the primes before are written by then (csv
        # is given its header up front, so it streams too)
        out = io.StringIO()
        seen = []
        real = exclusion.excluded_k

        def watched(spec, i):
            seen.append(out.getvalue())
            return real(spec, i)

        monkeypatch.setattr(cli, "excluded_k", watched)
        with contextlib.redirect_stdout(out):
            assert run(["sieve", "--bound", "20000", "--show-exclusions", "--format", fmt]) == 0
        items = _exclusion_items(20_000)
        assert len(seen) == len(items) == 33 and seen[0] == ""  # the odd primes to 139
        assert out.getvalue() == emitted(items, fmt) and out.getvalue().startswith(seen[-1])
        if fmt == "json":
            assert json.loads(seen[-1] + "\n]") == [item.record for item in items[:-1]]
        else:
            assert seen[-1] == emitted(items[:-1], fmt)


class TestRelationCommands:
    def test_rel2_reference_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "rel2", "--bound", "119", "--s1", "2,7", "--s2", "3,5",
            "--k1", "1", "--k2", "3", "--b1", "2", "--b2", "2", "--k3", "0",
        )
        assert code == 0
        assert out.strip() == "59"

    def test_rel1_erratum_column_rejected(self, capsys):
        code, out, _ = run_cli(
            capsys, "rel1", "--bound", "119", "--b1", "1", "--b2", "2",
            "--k", "6", "--m", "2",
        )
        assert code == 0
        assert "rejected" in out and "-1139" in out

    def test_rel1_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "rel1", "--bound", "119", "--b1", "2", "--b2", "1",
            "--k", "1", "--m", "2", "--format", "json",
        )
        assert code == 0
        (record,) = json.loads(out)
        assert record["value"] == "89"
        assert record["accepted"] is True
        assert record["window"] == {"low": "7", "high": "168"}
        assert record["verdict"]["status"] == "proven-prime"

    def test_rel3_defaults_trailing_term(self, capsys):
        code, out, _ = run_cli(
            capsys, "rel3", "--bound", "119", "--b", "2,1,2,2", "--k", "1,1,1,1",
        )
        assert code == 0
        assert out.strip() == "107"

    def test_rel1f_overshoot(self, capsys):
        code, out, _ = run_cli(
            capsys, "rel1f", "--bound", "119", "--b1", "2", "--b2", "1", "--k1", "1",
        )
        assert code == 0
        assert "rejected" in out and "3628799" in out

    def test_enumerate_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys, "rel2", "--bound", "48", "--enumerate", "--budget", "8",
            "--s1", "2,3", "--s2", "5", "--format", "jsonl",
        )
        assert code == 0
        values = {int(json.loads(line)["value"]) for line in out.splitlines()}
        assert {29, 31, 37, 41, 43, 47} <= values

    def test_enumerate_with_s1_alone_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "rel2", "--bound", "120", "--enumerate", "--budget", "3", "--s1", "2,3",
        )
        assert code == 1 and out == "" and "missing required flag --s2" in err

    def test_enumerate_with_s2_alone_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "rel2", "--bound", "120", "--enumerate", "--budget", "3", "--s2", "5,7",
        )
        assert code == 1 and out == "" and "missing required flag --s1" in err

    def test_rel2_enumerate_over_a_one_prime_basis(self, capsys):
        # an empty grid is settled before any split is built; a nonempty one
        # needs the two groups that a one-prime basis cannot give
        assert run_cli(capsys, "rel2", "--bound", "8", "--enumerate", "--budget", "0") == (0, "", "")
        code, out, err = run_cli(capsys, "rel2", "--bound", "8", "--enumerate", "--budget", "1")
        assert code == 1 and out == "" and "two basis primes" in err

    @pytest.mark.parametrize("bound", ["48", "10000"])
    def test_enumerate_with_a_partial_split_exit_one(self, capsys, bound):
        # 2 and 3 leave basis primes out; at 48 a grid point lands in the
        # window and at 10000 none does, and the split is refused either way
        code, out, err = run_cli(
            capsys, "rel2", "--bound", bound, "--enumerate", "--budget", "3", "--s1", "2", "--s2", "3",
        )
        assert code == 1 and out == "" and "groups must cover exactly the basis primes" in err

    def test_negative_slots_exit_one(self, capsys):
        for name in ("rel1", "rel1f"):
            argv = [name, "--bound", "119", "--enumerate", "--budget", "3"]
            code, out, err = run_cli(capsys, *argv, "--slots", "-1")
            assert code == 1 and out == "" and "slots" in err, name
            assert run_cli(capsys, *argv, "--slots", "0")[0] == 0, name

    @pytest.mark.parametrize(
        "argv, flag, good",
        [
            (["rel1", "--b1", "2", "--b2", "1", "--k", "1", "--m"], "m", "1,0,1"),
            (["rel1f", "--b1", "2", "--b2", "1", "--k1", "1", "--m"], "m", "1,0,1"),
            (["rel3", "--b", "2,1,2,2", "--k"], "k", "1,1,1,1,1"),
            (["rel2", "--s2", "3,5", "--b1", "2", "--b2", "2", "--k1", "1", "--k2", "3", "--s1"], "s1", "2,7"),
            (["rel2", "--s1", "2,7", "--b1", "2", "--b2", "2", "--k1", "1", "--k2", "3", "--s2"], "s2", "3,5"),
            (["rel2", "--enumerate", "--budget", "3", "--s2", "3,5", "--s1"], "s1", "2,7"),
        ],
    )
    def test_empty_list_token_exit_one(self, capsys, argv, flag, good):
        # an empty token would shift every later position of the list, so
        # "1,,1" is refused rather than read as "1,1"
        argv = [argv[0], "--bound", "119", *argv[1:]]
        assert run_cli(capsys, *argv, good)[0] == 0
        for bad in (good.replace(",", ",,", 1), "," + good, good + ","):
            code, out, err = run_cli(capsys, *argv, bad)
            assert (code, out) == (1, ""), bad
            assert f"cannot parse {flag} list {bad!r}" in err, bad

    def test_empty_exponent_list_is_no_exponents(self, capsys):
        argv = ["rel1", "--bound", "119", "--b1", "2", "--b2", "1", "--k", "1"]
        want = (0, "rejected (above window high 120): R=209\n", "")
        assert run_cli(capsys, *argv, "--m", "") == run_cli(capsys, *argv) == want

    # a valid single evaluation of each relation, flag by flag in field order,
    # and whether each flag is required: a sign flag names itself as one
    REQUIRED = {
        "rel1": [("--b1", "2", "sign flag"), ("--b2", "1", "sign flag"), ("--k", "1", "flag"), ("--m", "2", None)],
        "rel1f": [("--b1", "2", "sign flag"), ("--b2", "1", "sign flag"), ("--k1", "1", "flag"), ("--m", "1", None)],
        "rel2": [
            ("--s1", "2,7", "flag"), ("--s2", "3,5", "flag"), ("--b1", "2", "sign flag"),
            ("--b2", "2", "sign flag"), ("--b3", "2", None), ("--k1", "1", "flag"), ("--k2", "3", "flag"),
            ("--k3", "0", None),
        ],
        "rel3": [("--b", "2,1,2,2", "flag"), ("--k", "1,1,1,1", "flag")],
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_each_missing_required_flag_exit_one(self, capsys, command):
        flags = self.REQUIRED[command]
        argv = [command, "--bound", "119"]
        assert run_cli(capsys, *argv, *(x for flag, value, _ in flags for x in (flag, value)))[0] == 0
        for i, (flag, _, what) in enumerate(flags):
            if what is None:
                continue
            # left out alone, and with every later flag: the flags are read
            # in field order, so the first one missing is the one named
            want = (1, "", f"error: missing required {what} {flag}\n")
            alone = [x for f, value, _ in flags if f != flag for x in (f, value)]
            rest = [x for f, value, _ in flags[:i] for x in (f, value)]
            assert run_cli(capsys, *argv, *alone) == want, alone
            assert run_cli(capsys, *argv, *rest) == want, rest

    USAGE_HEAD = (
        "[-h] [--format {text,json,csv,jsonl}] [--workers WORKERS] [--seed-cap-digits SEED_CAP_DIGITS] "
        "[--candidate-cap CANDIDATE_CAP] [--paper-faithful] [--log LOG] --bound BOUND [--enumerate] "
        "[--budget BUDGET] [--multiset]"
    )

    @pytest.mark.parametrize(
        "command, tail",
        [
            ("rel1", "[--b1 B1] [--b2 B2] [--k K] [--m M] [--slots SLOTS] [--worked-examples]"),
            ("rel1f", "[--b1 B1] [--b2 B2] [--k1 K1] [--m M] [--slots SLOTS]"),
            (
                "rel2",
                "[--s1 S1] [--s2 S2] [--b1 B1] [--b2 B2] [--b3 B3] [--k1 K1] [--k2 K2] [--k3 K3] "
                "[--worked-examples]",
            ),
            ("rel3", "[--b B] [--k K] [--worked-examples]"),
        ],
    )
    def test_help_usage_lists_the_flags_in_order(self, capsys, command, tail):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        usage = " ".join(out.split("\n\n")[0].split())
        assert usage == f"usage: primekit {command} {self.USAGE_HEAD} {tail}"

    def test_enumerate_needs_budget(self, capsys):
        code, _, err = run_cli(capsys, "rel1", "--bound", "119", "--enumerate")
        assert code == 1 and "--budget" in err

    def test_missing_sign_flag(self, capsys):
        code, _, err = run_cli(capsys, "rel1", "--bound", "119", "--k", "1")
        assert code == 1 and "--b1" in err

    def test_worked_examples(self, capsys):
        code, out, _ = run_cli(capsys, "rel1", "--bound", "119", "--worked-examples")
        assert code == 0
        assert out.count("erratum") == 2
        assert "-1139" in out and "-31" in out

    def test_worked_examples_paper_faithful(self, capsys):
        code, out, err = run_cli(
            capsys, "rel1", "--bound", "119", "--worked-examples", "--paper-faithful",
        )
        assert code == 0
        assert len(out.splitlines()) == 3
        assert "erratum" not in out
        assert "2 column(s)" in err

    def test_candidate_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "rel3", "--bound", "9408", "--enumerate", "--budget", "32",
        )
        assert code == 2
        assert "resource error" in err

    @pytest.mark.parametrize("command", ["rel1", "rel1f"])
    def test_relation1_cap_counts_the_full_power_grid(self, capsys, command):
        # the walk only builds the power products that can reach the
        # window, but the cap still counts every grid point: 4 * 15 * 16**3
        argv = [command, "--bound", "9408", "--enumerate", "--budget", "15", "--slots", "3"]
        code, out, err = run_cli(capsys, *argv, "--candidate-cap", "245759")
        assert (code, out) == (2, "")
        assert "245760 candidates" in err
        assert run_cli(capsys, *argv, "--candidate-cap", "245760") == (0, "", "")

    @pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
    @pytest.mark.parametrize("command", ["rel1", "rel2"])
    def test_value_past_the_int_to_str_limit_exit_two(self, capsys, monkeypatch, command):
        # 11^limit, and 14 times a k of limit sevens, have more digits than
        # Python converts to str: refused before the oracle runs
        limit = digit_limit()
        argv = {
            "rel1": ["rel1", "--bound", "119", "--b1", "2", "--b2", "2", "--k", "1", "--m", str(limit)],
            "rel2": ["rel2", "--bound", "119", "--s1", "2,7", "--s2", "3,5", "--b1", "2", "--b2", "2",
                     "--k1", "7" * limit, "--k2", "1"],
        }[command]
        calls = []
        monkeypatch.setattr(relations, "is_prime", calls.append)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, calls) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert err.startswith("resource error: ") and f"Python's {limit}-digit limit" in err

    @pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
    @pytest.mark.parametrize("parity", ["2", "1"])
    def test_a_value_of_the_limit_s_digits_is_judged_and_one_more_is_refused(self, capsys, parity):
        # with s1 = {2, 7} and s2 = {3, 5}, R = +-(14 * k1 + 15 * k2): 10^L - 1
        # has L digits and is judged (composite, as 3 divides it), 10^L is refused
        limit = digit_limit()
        for value in (10 ** limit - 1, 10 ** limit):
            k2 = value % 14 or 14
            k1 = (value - 15 * k2) // 14
            code, out, err = run_cli(
                capsys, "rel2", "--bound", "119", "--s1", "2,7", "--s2", "3,5", "--b1", parity, "--b2", parity,
                "--k1", str(k1), "--k2", str(k2), "--format", "jsonl",
            )
            if value < 10 ** limit:
                assert (code, err) == (0, "")
                record = json.loads(out)
                assert record["value"] == "9" * limit and record["verdict"]["status"] == "proven-composite"
            else:
                bits = value.bit_length()
                assert (code, out) == (2, "")
                assert err == (
                    f"resource error: relation2 value of {bits} bits would pass Python's {limit}-digit limit "
                    "on int-to-str conversion (sys.get_int_max_str_digits())\n"
                )


class TestRefusedArguments:
    @pytest.mark.parametrize("argv, message", [
        # a negative sign exponent is refused by its value, here and in the last case
        (["rel1", "--bound", "119", "--b1", "-1", "--b2", "1", "--k", "1"], "parity exponent must be >= 0, got -1"),
        (["rel1", "--bound", "119", "--b1", "1", "--b2", "1", "--k", "1", "--m", "1,-1"],
         "exponents must be >= 0, got -1"),
        (["rel2", "--bound", "119", "--s1", "2,7", "--s2", "3,5", "--b1", "2", "--b2", "2",
          "--k1", "1", "--k2", "3", "--k3", "-1"], "k3 must be >= 0"),
        (["rel1", "--bound", "119", "--enumerate", "--budget", "-1"], "budget must be >= 0"),
        (["rel3", "--bound", "119", "--enumerate", "--budget", "-1"], "budget must be >= 0"),
        (["zscan", "--a", "0..2", "--c", "1", "--n", "2..5"], "base and step must start at 1 or above"),
        (["rel3", "--bound", "119", "--b", "2,-1,2,2", "--k", "1,1,1,1"], "parity exponent must be >= 0, got -1"),
    ])
    def test_exit_1_with_one_error_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    # a comma list that starts with "-" is its flag's value, as with "=",
    # so each flag gives its own refusal, not argparse's "expected one argument"
    @pytest.mark.parametrize("argv, flag, value, message", [
        (["rel3", "--bound", "119", "--k", "1,1,1,1"], "--b", "-1,1,1,1", "parity exponent must be >= 0, got -1"),
        (["rel3", "--bound", "119", "--b", "1,1,1,1"], "--k", "-1,1,1,1", "per-prime multipliers must be >= 1"),
        (["rel2", "--bound", "119", "--s2", "3,5", "--b1", "2", "--b2", "2", "--k1", "1", "--k2", "1"],
         "--s1", "-2,7", "groups must cover exactly the basis primes"),
        (["rel2", "--bound", "119", "--s1", "2,7", "--b1", "2", "--b2", "2", "--k1", "1", "--k2", "1"],
         "--s2", "-3,5", "groups must cover exactly the basis primes"),
        (["rel1", "--bound", "119", "--b1", "2", "--b2", "1", "--k", "1"], "--m", "-1,1", "exponents must be >= 0, got -1"),
    ])
    def test_a_comma_list_that_starts_with_a_minus_is_a_value(self, capsys, argv, flag, value, message):
        want = (1, "", f"error: {message}\n")
        assert run_cli(capsys, *argv, flag, value) == want
        assert run_cli(capsys, *argv, f"{flag}={value}") == want

    # every integer argument, flag, comma list, range, sign or environment
    # variable, is read by one reader; "{}" is a token of one digit more
    # than Python reads from a str
    @pytest.mark.skipif(not digit_limit(), reason="no limit on str-to-int conversion")
    @pytest.mark.parametrize("env, argv", [
        ({}, ["rel2", "--bound", "119", "--s1", "2,7", "--s2", "3,5", "--b1", "2", "--b2", "2",
              "--k1", "{}", "--k2", "1"]),
        ({}, ["sieve", "--bound", "{}"]),
        ({}, ["rel3", "--bound", "119", "--b", "2,1,1,1", "--k", "{},1,1,1"]),
        ({}, ["zscan", "--a", "1..{}", "--c", "1", "--n", "2..3"]),
        ({}, ["rel1", "--bound", "119", "--b1", "{}", "--b2", "1", "--k", "1"]),
        ({"PRIMEKIT_CANDIDATE_CAP": "{}"}, ["sieve", "--bound", "100"]),
    ])
    def test_an_integer_past_the_str_to_int_limit_exits_2(self, capsys, monkeypatch, env, argv):
        # refused as a resource error that gives the digit count, not the digits
        sevens = "7" * (digit_limit() + 1)
        for name, value in env.items():
            monkeypatch.setenv(name, value.format(sevens))
        code, out, err = run_cli(capsys, *(arg.format(sevens) for arg in argv))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and len(err.encode()) < 300
        assert err.startswith(f"resource error: integer argument of {len(sevens)} digits ")
        assert "7" * 100 not in err

    @pytest.mark.skipif(not digit_limit(), reason="no limit on str-to-int conversion")
    def test_an_integer_at_the_str_to_int_limit_reads(self, capsys):
        # a token of exactly the limit's digits reads and reaches the sieve's
        # cap; one that is no integer fails as int() fails, however long
        # (each message gives the echoed token's digits as their count)
        bound = "7" * digit_limit()
        code, out, err = run_cli(capsys, "sieve", "--bound", bound)
        assert (code, out) == (2, "")
        assert err == (
            f"resource error: bound <{len(bound)} digits> exceeds the dense-sieve cap {exclusion.DENSE_BOUND_MAX}\n"
        )
        code, out, err = run_cli(capsys, "sieve", "--bound", "x" + bound)
        assert (code, out) == (1, "")
        assert err == f"error: argument --bound: invalid int value: 'x<{len(bound)} digits>'\n"

    @pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
    @pytest.mark.parametrize("code, argv", [
        (2, ["sieve", "--bound", "{}"]),
        (1, ["sieve", "--bound", "-{}"]),
        (2, ["zscan", "--a", "1", "--c", "1", "--n", "{}"]),
        (1, ["rel1", "--bound", "{}", "--b1", "2", "--b2", "1", "--k", "1"]),
    ])
    def test_a_refusal_names_a_long_integer_by_its_digit_count(self, capsys, code, argv):
        # these refusals check a value of exactly the limit's digits (rel1's
        # sieve echoes its root) and give it as "<N digits>", in one short line
        sevens = "7" * digit_limit()
        got, out, err = run_cli(capsys, *(arg.format(sevens) for arg in argv))
        assert (got, out) == (code, "")
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200
        assert " digits>" in err and "7" * 41 not in err

    @pytest.mark.parametrize("digits, shown", [(40, "7" * 40), (41, "<41 digits>")])
    def test_a_refusal_keeps_an_integer_of_40_digits(self, capsys, digits, shown):
        cap = exclusion.DENSE_BOUND_MAX
        assert run_cli(capsys, "sieve", "--bound", "7" * digits) == (
            2, "", f"resource error: bound {shown} exceeds the dense-sieve cap {cap}\n",
        )
        assert run_cli(capsys, "sieve", "--bound", "xx" + "7" * digits) == (
            1, "", f"error: argument --bound: invalid int value: 'xx{shown}'\n",
        )

    def test_an_invariant_violation_is_written_in_full(self, capsys, monkeypatch):
        def refuted(*args, **kwargs):
            raise InvariantViolation(f"value {'7' * 50} refuted")

        monkeypatch.setattr(cli, "prime_blocks", refuted)
        assert run_cli(capsys, "sieve", "--bound", "100") == (3, "", f"INVARIANT VIOLATION: value {'7' * 50} refuted\n")


class TestZscan:
    def test_mersenne_exponents(self, capsys):
        code, out, _ = run_cli(capsys, "zscan", "--a", "1", "--c", "1", "--n", "2..13")
        assert code == 0
        exponents = [int(line.split()[2].split("=")[1]) for line in out.splitlines()]
        assert exponents == [2, 3, 5, 7, 13]

    def test_no_skip_same_hits(self, capsys):
        _, fast, _ = run_cli(capsys, "zscan", "--a", "1..3", "--c", "1..3", "--n", "2..6")
        _, full, _ = run_cli(
            capsys, "zscan", "--a", "1..3", "--c", "1..3", "--n", "2..6", "--no-skip",
        )
        assert fast == full

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "zscan", "--a", "x..y", "--c", "1", "--n", "2")
        assert code == 1

    @pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
    def test_z_past_the_int_to_str_limit_exit_two(self, capsys):
        # at a = c = 1, Z = 2^n - 1: the last exponent whose Z Python still
        # converts to str is evaluated (composite, so no output); past it,
        # zscan refuses before computing any Z
        last = (10 ** digit_limit()).bit_length() - 1
        assert run_cli(capsys, "zscan", "--a", "1", "--c", "1", "--n", str(last), "--no-skip") == (0, "", "")
        for n in (last + 1, 21701):
            code, out, err = run_cli(capsys, "zscan", "--a", "1", "--c", "1", "--n", f"2..{n}")
            assert code == 2 and out == "", n
            assert "resource error" in err and "get_int_max_str_digits" in err

    @pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
    def test_a_base_at_the_digit_limit_is_refused_at_once(self, capsys):
        # the refusal builds Z only at the few exponents its base's size needs,
        # never at the range's end
        base = "7" * digit_limit()
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "zscan", "--a", base, "--c", "1", "--n", f"2..{10 ** 12}")
        assert time.perf_counter() - began < 10
        assert (code, out) == (2, "")
        assert err == (
            f"resource error: Z at base <{len(base)} digits>, step 1, exponent {10 ** 12} would pass "
            f"Python's {digit_limit()}-digit limit on int-to-str conversion (sys.get_int_max_str_digits())\n"
        )


class TestBigsearch:
    def test_seed_13_text(self, capsys):
        code, out, _ = run_cli(capsys, "bigsearch", "--seed", "13", "--max-n", "18")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n=10 k=1 R=131")
        assert lines[1].startswith("n=18 k=227 R=41")

    def test_jsonl_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "bigsearch", "--seed", "13", "--max-n", "18", "--format", "jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["value"] for r in records] == ["131", "41"]
        for r in records:
            assert set(r) == {"seed", "k", "n", "value", "digits", "verdict", "elapsed_ms"}

    def test_elapsed_ms_is_the_time_of_each_hit(self, capsys):
        # hits come over the whole scan, so the first (n=1) is stamped far
        # earlier than the last (n=2000), not when the output is written
        code, out, _ = run_cli(
            capsys, "bigsearch", "--seed", "7", "--max-n", "2000", "--format", "jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["n"] == 1 and records[-1]["n"] == 2000
        assert records[0]["elapsed_ms"] < records[-1]["elapsed_ms"] / 2

    def test_default_start_scans_up_to_max_n(self, capsys):
        # seed 17 has no hit at any exponent: without --min-n the scan
        # starts at exponent 1 and ends as --min-n 1 does
        default = run_cli(capsys, "bigsearch", "--seed", "17", "--max-n", "1000")
        from_one = run_cli(capsys, "bigsearch", "--seed", "17", "--max-n", "1000", "--min-n", "1")
        assert default == from_one == (0, "", "")

    def test_max_hits_zero_is_refused_as_without_it(self, capsys):
        for argv, code in (
            (["--seed", "13", "--max-n", "-5"], 1),
            (["--seed", "13", "--max-n", "18", "--min-n", "0"], 1),
            (["--seed", "7", "--min-n", "14400", "--max-n", "14410"], 2),
        ):
            plain = run_cli(capsys, "bigsearch", *argv)
            assert plain[0] == code and plain[1] == "", argv
            assert run_cli(capsys, "bigsearch", *argv, "--max-hits", "0") == plain, argv
        assert run_cli(capsys, "bigsearch", "--seed", "13", "--max-n", "18", "--max-hits", "0") == (0, "", "")

    def test_negative_max_hits_exit_one(self, capsys):
        for max_hits in ("-1", "-5"):
            code, out, err = run_cli(
                capsys, "bigsearch", "--seed", "13", "--max-n", "18", "--max-hits", max_hits,
            )
            assert code == 1 and out == "" and "max hits" in err, max_hits

    def test_refuted_hit_exit_three(self, capsys, monkeypatch):
        # the oracle passes the seed 13 and refutes both hits (131 and 41)
        real = bigsearch.is_prime
        monkeypatch.setattr(
            bigsearch, "is_prime",
            lambda x: real(x) if x == 13 else OracleVerdict(x, "proven-composite", "sieve-lookup", 3),
        )
        code, out, err = run_cli(capsys, "bigsearch", "--seed", "13", "--max-n", "18")
        assert code == 3 and out == ""
        assert err.startswith("INVARIANT VIOLATION") and "refuted by oracle" in err

    def test_composite_seed_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "bigsearch", "--seed", "9", "--max-n", "10")
        assert code == 1 and "composite" in err

    def test_seed_cap_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "bigsearch", "--seed", "101", "--max-n", "10",
            "--seed-cap-digits", "10",
        )
        assert code == 2 and "resource error" in err

    def test_k_past_the_int_to_str_limit_exit_two(self, capsys):
        # k near 2^14410 / 15 has over 4,300 digits, more than Python converts to str
        code, out, err = run_cli(capsys, "bigsearch", "--seed", "7", "--min-n", "14400", "--max-n", "14410")
        assert code == 2 and out == ""
        assert "resource error" in err and "get_int_max_str_digits" in err


# elapsed_ms in json and jsonl, or as the last csv cell; a log's timestamp
_ELAPSED = re.compile(r'("elapsed_ms": ?)[-+.e0-9]+|(?<=,)[-+.e0-9]+$', re.M)
_TIMESTAMP = re.compile(r'("timestamp":)"[^"]*"')


def _masked(text, pattern=_ELAPSED):
    """text with every timing value replaced by X, and how many there were."""
    return pattern.subn(r"\1X", text)


class TestBigsearchWriter:
    """Streamed bigsearch output against the batch reference writer with
    one Item per hit of search's list, which is how bigsearch was written
    before it streamed. elapsed_ms is masked in every comparison."""

    @staticmethod
    def _emitted(seed, max_n, min_n, max_hits, fmt, log=None):
        state = bigsearch.build_state(seed)
        began = time.perf_counter()
        items = []
        for n, k, value, verdict in bigsearch.search(state, max_n, max_hits=max_hits, min_n=min_n):
            params = {"seed": str(seed), "k": str(k), "n": n}
            text = str(value)
            record = {
                **params,
                "value": text,
                "digits": len(text),
                "verdict": verdict.to_json_dict(),
                "elapsed_ms": round((time.perf_counter() - began) * 1000.0, 3),
            }
            line = f"n={n} k={k} R={text} {verdict.status}"
            items.append(Item(record, line, "big-search", params, value, verdict))
        return emitted(items, fmt, log), len(items)

    @staticmethod
    def _streamed(seed, max_n, min_n, max_hits, fmt, log=None):
        argv = ["bigsearch", "--seed", str(seed), "--max-n", str(max_n), "--format", fmt]
        for flag, value in (("--min-n", min_n), ("--max-hits", max_hits), ("--log", log)):
            if value is not None:
                argv += [flag, str(value)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        return out.getvalue()

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("seed", [5, 7, 11, 13, 17])
    def test_matches_the_per_record_rendering(self, fmt, seed):
        for min_n in (None, 7):
            for max_hits in (None, 0, 1, 5):
                want, hits = self._emitted(seed, 150, min_n, max_hits, fmt)
                got = self._streamed(seed, 150, min_n, max_hits, fmt)
                masked, timings = _masked(got)
                assert masked == _masked(want)[0], (min_n, max_hits)
                assert timings == (0 if fmt == "text" else hits), (min_n, max_hits)
                assert (hits > 0) == (seed <= 13 and max_hits != 0), (min_n, max_hits)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_log_matches_the_per_record_log(self, fmt, tmp_path):
        # seed 7 has hits at every exponent and its k reach DECIMAL_K_BITS at
        # n = 1203; from n = 1250 its first power of two is built in one jump
        assert ((2 ** 1250 + 11) // 15).bit_length() >= bigsearch.DECIMAL_K_BITS
        for seed, max_n, min_n, count in ((13, 200, None, 20), (7, 1300, None, 1950), (7, 1300, 1250, 76)):
            want, got = tmp_path / f"want-{seed}-{min_n}.jsonl", tmp_path / f"got-{seed}-{min_n}.jsonl"
            wanted, hits = self._emitted(seed, max_n, min_n, None, fmt, log=str(want))
            out = self._streamed(seed, max_n, min_n, None, fmt, log=str(got))
            assert _masked(out)[0] == _masked(wanted)[0], (seed, min_n)
            masked, stamps = _masked(got.read_text(), _TIMESTAMP)
            assert masked == _masked(want.read_text(), _TIMESTAMP)[0], (seed, min_n)
            assert stamps == hits == count

    def test_oracle_called_once_per_distinct_value(self, monkeypatch):
        values = []
        real = bigsearch.is_prime
        monkeypatch.setattr(bigsearch, "is_prime", lambda x: values.append(x) or real(x))
        out = self._streamed(7, 300, None, None, "text")
        printed = [int(line.split("R=")[1].split()[0]) for line in out.splitlines()]
        # the seed, then each distinct R in the order of its first hit
        assert values == [7] + list(dict.fromkeys(printed))
        assert len(printed) == 450 and len(values) == 7

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--seed", "9", "--max-n", "10"], 1),  # composite
            (["--seed", "3", "--max-n", "10"], 1),  # below 5
            (["--seed", "13", "--max-n", "18", "--max-hits", "-1"], 1),
            (["--seed", "13", "--min-n", "19", "--max-n", "18"], 1),
            (["--seed", "7", "--min-n", "14400", "--max-n", "14410"], 2),  # k past the int-to-str limit
        ],
    )
    def test_refusals_write_nothing(self, capsys, fmt, argv, code):
        got, out, err = run_cli(capsys, "bigsearch", *argv, "--format", fmt)
        assert got == code and out == "" and err

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_refuted_third_hit_keeps_the_first_two(self, capsys, monkeypatch, fmt):
        # seed 5's first three hits are 7, 13 and 19, all at n = 1
        real = bigsearch.is_prime
        seen = []

        def oracle(x):
            seen.append(x)
            return OracleVerdict(x, "proven-composite", "sieve-lookup", None) if len(seen) == 4 else real(x)

        monkeypatch.setattr(bigsearch, "is_prime", oracle)
        code, out, err = run_cli(capsys, "bigsearch", "--seed", "5", "--max-n", "10", "--format", fmt)
        assert code == 3 and seen == [5, 7, 13, 19]
        assert err.startswith("INVARIANT VIOLATION") and "certified search value 19 " in err
        monkeypatch.setattr(bigsearch, "is_prime", real)
        first_two, _ = self._emitted(5, 10, None, 2, fmt)
        if fmt == "json":
            first_two = first_two.removesuffix("\n]\n")
        assert _masked(out)[0] == _masked(first_two)[0]
        assert "19" not in _masked(out)[0]


def _certificate_item(cert):
    record = cert.to_json_dict()
    if cert.accepted:
        return Item(record, str(cert.value), cert.construction, record["params"], cert.value, cert.verdict)
    return Item(record, f"rejected ({cert.reason}): R={cert.signed_value}")


def _zscan_items(base, step, exponent):
    items = []
    for r in scan_prime_zn(base, step, exponent):
        params = {"base": str(r.params.base), "step": str(r.params.step), "exponent": r.params.exponent}
        record = {**params, "value": str(r.value), "digits": len(str(r.value)), "verdict": r.verdict.to_json_dict()}
        text = f"a={r.params.base} c={r.params.step} n={r.params.exponent} Z={r.value} {r.verdict.status}"
        items.append(Item(record, text, "general-mersenne", params, r.value, r.verdict))
    return items


def _worked_example_items(report, paper_faithful):
    items = []
    for entry in report:
        if paper_faithful and not entry.consistent:
            continue
        cert = entry.certificate
        record = {
            "column": entry.column,
            "printed": str(entry.printed_value),
            "computed": str(cert.signed_value),
            "accepted": cert.accepted,
            "consistent": entry.consistent,
        }
        if entry.replacement is not None:
            record["replacement"] = entry.replacement.to_json_dict()
        marker = "" if entry.consistent else "  [erratum: printed value not reproduced]"
        text = f"column {entry.column}: printed {entry.printed_value}, computed {cert.signed_value}{marker}"
        logged = (cert.construction, cert.params.to_json_dict(), cert.value, cert.verdict) if cert.accepted else ()
        items.append(Item(record, text, *logged))
    return items


def _exclusion_items(bound):
    spec = exclusion.ExclusionSpec.for_bound(bound)
    items = []
    for i, (prime, _, _) in enumerate(spec.per_prime_windows):
        ks = [str(k) for k in exclusion.excluded_k(spec, i)]
        items.append(Item({"prime": str(prime), "excluded": ks}, f"C={prime}: {','.join(ks)}"))
    return items


def _verify_items(log):
    items = []
    lines = log.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        record = json.loads(line)
        claimed = record["verdict"]["status"]
        actual = is_prime(int(record["value"]))
        if actual.is_prime != (claimed in ("proven-prime", "probable-prime")):
            record = {
                "line": lineno,
                "value": record["value"],
                "claimed": claimed,
                "actual": actual.status,
                "witness": None if actual.witness is None else str(actual.witness),
            }
            text = f"line {lineno}: value {record['value']} claimed {claimed} but oracle says {actual.status}"
            items.append(Item(record, text))
    summary = {"checked": len(lines), "mismatches": len(items)}
    return items + [Item(summary, f"checked {len(lines)} record(s), {len(items)} mismatch(es)")]


_BASIS_119 = primes_leq_sqrt(119)

# (argv, the items the batch writer gets for it)
_RECORD_COMMANDS = {
    "zscan": (["zscan", "--a", "1..3", "--c", "1..3", "--n", "2..13"], lambda: _zscan_items((1, 3), (1, 3), (2, 13))),
    "zscan-empty": (["zscan", "--a", "2", "--c", "2", "--n", "2..3"], lambda: _zscan_items((2, 2), (2, 2), (2, 3))),
    "enumerate": (
        ["rel2", "--bound", "120", "--enumerate", "--budget", "3"],
        lambda: [_certificate_item(c) for c in enumerate_certified(RELATION2, primes_leq_sqrt(120), 3)],
    ),
    "enumerate-multiset": (
        ["rel1", "--bound", "119", "--enumerate", "--budget", "2", "--multiset"],
        lambda: [_certificate_item(c) for c in enumerate_certified(RELATION1, _BASIS_119, 2, verbose=True)],
    ),
    "accepted": (
        ["rel1", "--bound", "119", "--b1", "2", "--b2", "1", "--k", "1", "--m", "2"],
        lambda: [_certificate_item(eval_relation1(Relation1Params(_BASIS_119, Parity.EVEN, Parity.ODD, 1, ((1, 2),))))],
    ),
    "rejected": (
        ["rel1", "--bound", "119", "--b1", "1", "--b2", "2", "--k", "6", "--m", "2"],
        lambda: [_certificate_item(eval_relation1(Relation1Params(_BASIS_119, Parity.ODD, Parity.EVEN, 6, ((1, 2),))))],
    ),
    **{
        f"{name}-worked-examples{'-paper' if paper else ''}": (
            [name, "--bound", "119", "--worked-examples", *(["--paper-faithful"] if paper else [])],
            lambda report=report, paper=paper: _worked_example_items(report(), paper),
        )
        for name, report in (("rel1", relation1_report), ("rel2", relation2_report), ("rel3", relation3_report))
        for paper in (False, True)
    },
    "show-exclusions": (["sieve", "--bound", "1000", "--show-exclusions"], lambda: _exclusion_items(1000)),
}


class TestRecordWriter:
    """Every command that writes records through _write_records against the
    batch reference writer, byte for byte in every format, with its log."""

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("case", sorted(_RECORD_COMMANDS))
    def test_matches_the_batch_writer(self, capsys, tmp_path, case, fmt):
        argv, items = _RECORD_COMMANDS[case]
        want_log, got_log = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        want = emitted(items(), fmt, str(want_log))
        code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--log", str(got_log))
        assert code == 0 and out == want
        assert _masked(got_log.read_text(), _TIMESTAMP) == _masked(want_log.read_text(), _TIMESTAMP)

    @staticmethod
    def _flipped_log(capsys, tmp_path):
        """bigsearch --seed 13 --max-n 18's log, each status flipped to proven-composite."""
        log = tmp_path / "results.jsonl"
        run_cli(capsys, "bigsearch", "--seed", "13", "--max-n", "18", "--log", str(log))
        records = [json.loads(line) for line in log.read_text().splitlines()]
        flipped = tmp_path / "flipped.jsonl"
        for record in records:
            record["verdict"]["status"] = "proven-composite"
        flipped.write_text("".join(json.dumps(record) + "\n" for record in records))
        return log, flipped

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_verify_matches_the_batch_writer(self, capsys, tmp_path, fmt):
        good, flipped = self._flipped_log(capsys, tmp_path)
        tampered = tmp_path / "tampered.jsonl"  # a composite value, with its witness
        lines = good.read_text().splitlines()
        tampered.write_text(lines[0].replace('"value":"131","digits":3', '"value":"1139","digits":4') + "\n" + lines[1] + "\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for log, code in ((good, 0), (flipped, 3), (tampered, 3), (empty, 0)):
            assert run_cli(capsys, "verify", "--log", str(log), "--format", fmt) == (
                code, emitted(_verify_items(log), fmt), ""
            ), log.name

    def test_verify_csv_keeps_the_counts(self, capsys, tmp_path):
        _, flipped = self._flipped_log(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--log", str(flipped), "--format", "csv")
        assert code == 3
        assert out.splitlines() == [
            "line,value,claimed,actual,witness,checked,mismatches",
            "1,131,proven-composite,proven-prime,null,,",
            "2,41,proven-composite,proven-prime,null,,",
            ",,,,,2,2",
        ]

    def test_worked_examples_csv_keeps_the_replacement(self, capsys):
        _, out, _ = run_cli(capsys, "rel1", "--bound", "119", "--worked-examples", "--format", "csv")
        header, *rows = out.splitlines()
        assert header == "column,printed,computed,accepted,consistent,replacement"
        _, text, _ = run_cli(capsys, "rel1", "--bound", "119", "--worked-examples", "--format", "json")
        records = json.loads(text)
        assert len(rows) == len(records) == 5
        for row, record in zip(csv.reader(rows), records):
            assert row[-1] == (json.dumps(record["replacement"], separators=(",", ":")) if "replacement" in record else "")
        assert sum("replacement" in record for record in records) == 2

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_malformed_line_after_mismatches_writes_nothing(self, capsys, tmp_path, fmt):
        _, flipped = self._flipped_log(capsys, tmp_path)
        with flipped.open("a") as fh:
            fh.write("5\n")
        code, out, err = run_cli(capsys, "verify", "--log", str(flipped), "--format", fmt)
        assert code == 1 and out == "" and err.startswith("error: log line 3: ")


class TestLogAndVerify:
    def test_round_trip(self, capsys, tmp_path):
        log = tmp_path / "results.jsonl"
        code, _, _ = run_cli(
            capsys, "bigsearch", "--seed", "13", "--max-n", "18", "--log", str(log),
        )
        assert code == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["value"] for r in records] == ["131", "41"]
        for r in records:
            assert set(r) == {
                "timestamp", "construction", "params", "value", "digits",
                "verdict", "tool_version",
            }
            assert r["construction"] == "big-search"

        code, out, _ = run_cli(capsys, "verify", "--log", str(log))
        assert code == 0
        assert "checked 2 record(s), 0 mismatch(es)" in out

    def test_tampered_value_detected(self, capsys, tmp_path):
        log = tmp_path / "results.jsonl"
        run_cli(capsys, "bigsearch", "--seed", "13", "--max-n", "18", "--log", str(log))
        lines = log.read_text().splitlines()
        record = json.loads(lines[0])
        record.update(value="1139", digits=4)  # 17 * 67
        lines[0] = json.dumps(record)
        log.write_text("\n".join(lines) + "\n")

        code, out, _ = run_cli(capsys, "verify", "--log", str(log))
        assert code == 3
        assert "1139" in out and "proven-composite" in out
        assert "1 mismatch(es)" in out

    def test_empty_log(self, capsys, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        code, out, _ = run_cli(capsys, "verify", "--log", str(log))
        assert code == 0 and "checked 0" in out

    def test_parse_failure_names_line(self, capsys, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"ok": 1}\nnot json\n')
        code, _, err = run_cli(capsys, "verify", "--log", str(log))
        assert code == 1 and "line 1" in err  # first line lacks required keys

    _GOOD = {
        "timestamp": "t", "construction": "big-search", "params": {}, "value": "131",
        "digits": 3, "verdict": {"status": "proven-prime"}, "tool_version": "0",
    }

    def test_malformed_lines_name_the_line(self, capsys, tmp_path):
        good = self._GOOD
        cases = [
            ("5", "not a JSON object"),
            (json.dumps({**good, "verdict": "x"}), "verdict"),
            # value is read strictly: ASCII digits, as many as digits says
            (json.dumps({**good, "value": "-7"}), "value is not a decimal string"),
            (json.dumps({**good, "value": " 1_0_1 "}), "value is not a decimal string"),  # int() reads 101
            (json.dumps({**good, "value": 131}), "value is not a decimal string"),  # a JSON number
            (json.dumps({**good, "value": "١٣١"}), "value is not a decimal string"),  # non-ASCII digits
            (json.dumps({**good, "value": "+131"}), "value is not a decimal string"),
            (json.dumps({**good, "value": ""}), "value is not a decimal string"),
            (json.dumps({**good, "digits": 4}), "digits is 4, but value has 3"),
            (json.dumps({**good, "digits": "3"}), "digits is '3', but value has 3"),
            (json.dumps({**good, "digits": True, "value": "7"}), "digits is True, but value has 1"),
        ]
        for bad, message in cases:
            log = tmp_path / "bad.jsonl"
            log.write_text(json.dumps(good) + "\n" + bad + "\n")
            code, out, err = run_cli(capsys, "verify", "--log", str(log))
            assert code == 1 and out == "", bad
            assert err.startswith("error: log line 2: ") and message in err, bad

    @pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
    def test_value_past_the_int_str_limit_exits_2(self, capsys, tmp_path):
        # 10^(d-1) has d digits and is even, so the oracle refutes it at once
        limit = digit_limit()
        log = tmp_path / "big.jsonl"
        for digits, want in ((limit, 0), (limit + 1, 2), (limit + 2, 2)):
            text = "1" + "0" * (digits - 1)
            big = {**self._GOOD, "value": text, "digits": digits, "verdict": {"status": "proven-composite"}}
            log.write_text(json.dumps(self._GOOD) + "\n" + json.dumps(big) + "\n")
            code, out, err = run_cli(capsys, "verify", "--log", str(log))
            assert code == want, digits
            if want:
                assert out == "" and err.startswith(f"resource error: log line 2: value has {digits} digits")
                assert f"{limit}-digit limit" in err
            else:
                assert out == "checked 2 record(s), 0 mismatch(es)\n" and err == ""

    def test_missing_log_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert run_cli(capsys, "verify", "--log", str(missing)) == (
            1, "", f"error: log file {missing} does not exist\n",
        )

    def test_log_that_cannot_be_opened_exits_1(self, capsys, tmp_path, monkeypatch):
        # a directory, or a file in a directory that does not exist: one
        # error line naming the path, nothing on stdout
        missing = tmp_path / "missing-dir" / "x.jsonl"
        cases = [
            ([], ["verify", "--log", str(tmp_path)], f"{tmp_path}: Is a directory"),
            ([], ["sieve", "--bound", "100", "--log", str(tmp_path)], f"{tmp_path}: Is a directory"),
            ([], ["sieve", "--bound", "100", "--log", str(missing)], f"{missing}: No such file or directory"),
            ([("PRIMEKIT_LOG", str(missing))], ["rel1", "--bound", "119", "--b1", "2", "--b2", "1", "--k", "1"],
             f"{missing}: No such file or directory"),
        ]
        for env, argv, reason in cases:
            for name, value in env:
                monkeypatch.setenv(name, value)
            assert run_cli(capsys, *argv) == (1, "", f"error: cannot open log file {reason}\n"), argv
        assert not missing.parent.exists()

    def test_log_that_is_not_utf8_names_the_line(self, capsys, tmp_path):
        log = tmp_path / "bytes.jsonl"
        for data, lineno in ((b"\xff\xfe", 1), (b"\n" + json.dumps(self._GOOD).encode() + b"\n\xff\xfe\n", 3)):
            log.write_bytes(data)
            assert run_cli(capsys, "verify", "--log", str(log)) == (
                1, "", f"error: log file {log} line {lineno}: not UTF-8 (invalid start byte)\n",
            )

    def test_blank_lines_are_skipped_and_counted(self, capsys, tmp_path):
        # blank and all-space lines are passed over, but still count for the
        # number of a later line that is refused
        log = tmp_path / "blank.jsonl"
        good = json.dumps(self._GOOD)
        log.write_text(f"\n{good}\n  \n\n{good}\n\n")
        assert run_cli(capsys, "verify", "--log", str(log)) == (0, "checked 2 record(s), 0 mismatch(es)\n", "")
        log.write_text(f"{good}\n\n \nnot json\n")
        assert run_cli(capsys, "verify", "--log", str(log)) == (
            1, "", "error: log line 4: invalid JSON (Expecting value)\n",
        )

    def test_accepted_certificates_are_logged(self, capsys, tmp_path):
        log = tmp_path / "rel.jsonl"
        run_cli(
            capsys, "rel2", "--bound", "119", "--s1", "2,7", "--s2", "3,5",
            "--k1", "1", "--k2", "3", "--b1", "2", "--b2", "2", "--log", str(log),
        )
        (record,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert record["value"] == "59"
        assert record["construction"] == "relation2"

    def test_rejected_certificates_are_not_logged(self, capsys, tmp_path):
        log = tmp_path / "rel.jsonl"
        run_cli(
            capsys, "rel1", "--bound", "119", "--b1", "1", "--b2", "2",
            "--k", "6", "--m", "2", "--log", str(log),
        )
        assert not log.exists() or log.read_text() == ""

    def test_every_printed_enumeration_hit_is_logged(self, capsys, tmp_path):
        log = tmp_path / "enum.jsonl"
        code, out, _ = run_cli(
            capsys, "rel2", "--bound", "48", "--enumerate", "--budget", "6",
            "--log", str(log),
        )
        assert code == 0
        printed = [line for line in out.splitlines() if line]
        logged = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(printed) == len(logged)
        assert [int(line) for line in printed] == [int(r["value"]) for r in logged]

    def test_env_log_path(self, capsys, tmp_path, monkeypatch):
        log = tmp_path / "env.jsonl"
        monkeypatch.setenv("PRIMEKIT_LOG", str(log))
        code, _, _ = run_cli(capsys, "bigsearch", "--seed", "13", "--max-n", "10")
        assert code == 0
        assert len(log.read_text().splitlines()) == 1


class TestConfig:
    def test_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIMEKIT_FORMAT", "json")
        code, out, _ = run_cli(capsys, "sieve", "--bound", "10")
        assert code == 0
        assert json.loads(out) == [
            {"value": "2"}, {"value": "3"}, {"value": "5"}, {"value": "7"},
        ]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIMEKIT_FORMAT", "json")
        code, out, _ = run_cli(capsys, "sieve", "--bound", "10", "--format", "text")
        assert out.splitlines() == ["2", "3", "5", "7"]

    @pytest.mark.parametrize("env, argv, message", [
        # the environment half of each integer setting, read only when its
        # flag is left out
        ({"PRIMEKIT_CANDIDATE_CAP": "x"}, ["rel1", "--bound", "24", "--enumerate", "--budget", "2"],
         "PRIMEKIT_CANDIDATE_CAP must be an integer, got 'x'"),
        ({"PRIMEKIT_SEED_CAP_DIGITS": "1e3"}, ["bigsearch", "--seed", "13", "--max-n", "18"],
         "PRIMEKIT_SEED_CAP_DIGITS must be an integer, got '1e3'"),
        ({"PRIMEKIT_WORKERS": "two"}, ["sieve", "--bound", "10"], "PRIMEKIT_WORKERS must be an integer, got 'two'"),
        ({"PRIMEKIT_FORMAT": "xml"}, ["sieve", "--bound", "10"], "unsupported format 'xml'"),
        ({}, ["sieve", "--bound", "10", "--candidate-cap", "0"], "resource caps must be positive"),
        ({}, ["bigsearch", "--seed", "13", "--max-n", "18", "--seed-cap-digits", "0"],
         "resource caps must be positive"),
    ])
    def test_bad_settings_exit_1(self, capsys, monkeypatch, env, argv, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_workers_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "sieve", "--bound", "10", "--workers", "0")
        assert code == 1

    def test_worker_count_does_not_change_output(self, capsys):
        _, one, _ = run_cli(capsys, "sieve", "--bound", "1000", "--workers", "1")
        _, eight, _ = run_cli(capsys, "sieve", "--bound", "1000", "--workers", "8")
        assert one == eight

    def test_retired_bench_and_segment_size_are_rejected(self, capsys):
        for argv in (
            ["bench", "--suite", "sieve-vs-oracle", "--ladder", "10000"],
            ["sieve", "--bound", "100", "--segment-size", "128"],
            ["bigsearch", "--seed", "13", "--max-n", "18", "--min-mode", "any"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 1 and out == "", argv

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # (PRIMEKIT_FORMAT, argv): alternating subcommands, a failed parse
        # followed by a good one, format changes through the environment,
        # and --version
        rel3 = ["rel3", "--bound", "119", "--b", "2,1,2,2", "--k", "1,1,1,1"]
        steps = [
            (None, ["sieve", "--bound", "30"]),
            (None, rel3),
            (None, ["sieve", "--bound", "30", "--segment-size", "128"]),
            (None, ["bigsearch", "--seed", "13", "--max-n", "18"]),
            ("json", ["sieve", "--bound", "30"]),
            ("csv", rel3),
            (None, ["--version"]),
            (None, ["zscan", "--a", "1", "--c", "1", "--n", "2..13"]),
            (None, []),
            (None, ["sieve", "--bound", "30"]),
        ]

        def outcome(fmt, argv):
            if fmt is None:
                monkeypatch.delenv("PRIMEKIT_FORMAT", raising=False)
            else:
                monkeypatch.setenv("PRIMEKIT_FORMAT", fmt)
            return (run(argv), *capsys.readouterr())

        cli._build_parser.cache_clear()
        shared = [outcome(fmt, argv) for fmt, argv in steps]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for fmt, argv in steps:
            cli._build_parser.cache_clear()
            fresh.append(outcome(fmt, argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0, 0, 0, 0, 1, 0]
        assert json.loads(shared[4][1])[0] == {"value": "2"}
        assert shared[5][1].startswith("value,") and shared[9] == shared[0]

    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "sieve", "--bound", "10", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "value"
        assert lines[1:] == ["2", "3", "5", "7"]
