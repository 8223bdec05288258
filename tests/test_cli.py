import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path

import pytest

from helpers import slow_primes_below
from primekit import bigsearch, cli, exclusion
from primekit.cli import run
from primekit.oracle import OracleVerdict, sieve_primes_below


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


class TestSieveWriter:
    """The chunked sieve writer against _emit writing one Item per prime,
    which is how every sieve was written before and how the other commands
    still write."""

    @staticmethod
    def _emitted(primes, fmt):
        out = io.StringIO()
        cfg = cli.RunConfig(fmt, None, 1, 1, 1, False)
        with contextlib.redirect_stdout(out):
            cli._emit([cli.Item({"value": str(p)}, str(p)) for p in primes], cfg)
        return out.getvalue()

    @staticmethod
    def _sieved(bound, fmt, flags):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["sieve", "--bound", str(bound), "--format", fmt, *flags]) == 0
        return out.getvalue()

    def _check(self, reference, cases, fmt):
        """Each (bound, flags) against _emit of the primes below bound in
        `reference`, rendered once per list."""
        expected = {}
        for bound, flags in cases:
            primes = reference[: bisect_left(reference, bound)]
            if not _SIEVE_FLAGS[flags]:
                primes = primes[1:]
            key = (len(primes), primes[0])
            if key not in expected:
                expected[key] = self._emitted(primes, fmt)
            assert self._sieved(bound, fmt, flags) == expected[key], (bound, flags)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_every_bound_to_2000(self, fmt):
        # the four flag sets take turns, so each meets about 500 bounds of every residue mod 4
        flag_sets = list(_SIEVE_FLAGS)
        cases = [(bound, flag_sets[bound // 4 % 4]) for bound in range(9, 2001)]
        self._check(sieve_primes_below(2000), cases, fmt)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_large_bounds(self, fmt):
        cases = [(bound, flags) for bound in (10 ** 5, 10 ** 6) for flags in _SIEVE_FLAGS]
        self._check(sieve_primes_below(10 ** 6), cases, fmt)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_counts_around_whole_chunks(self, fmt):
        # bound p_i + 1 leaves the i primes 2..p_i, or i - 1 without 2: so
        # one below, at and one above one and two whole chunks
        chunk = cli.SIEVE_CHUNK
        reference = sieve_primes_below(400_000)
        bounds = [reference[n + d - 1] + 1 for n in (chunk, 2 * chunk) for d in (0, 1)]
        self._check(reference, [(bound, flags) for bound in bounds for flags in _SIEVE_FLAGS], fmt)


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

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits(),
        reason="no limit on int-to-str conversion",
    )
    def test_z_past_the_int_to_str_limit_exit_two(self, capsys):
        # at a = c = 1, Z = 2^n - 1: the last exponent whose Z Python still
        # converts to str is evaluated (composite, so no output); past it,
        # zscan refuses before computing any Z
        last = (10 ** sys.get_int_max_str_digits()).bit_length() - 1
        assert run_cli(capsys, "zscan", "--a", "1", "--c", "1", "--n", str(last), "--no-skip") == (0, "", "")
        for n in (last + 1, 21701):
            code, out, err = run_cli(capsys, "zscan", "--a", "1", "--c", "1", "--n", f"2..{n}")
            assert code == 2 and out == "", n
            assert "resource error" in err and "get_int_max_str_digits" in err


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
    """Streamed bigsearch output against _emit writing one Item per hit of
    search's list, which is how bigsearch was written before it streamed."""

    @staticmethod
    def _emitted(seed, max_n, min_n, max_hits, fmt, log=None):
        state = bigsearch.build_state(seed)
        began = time.perf_counter()
        items = []
        for hit in bigsearch.search(state, max_n, max_hits=max_hits, min_n=min_n):
            params = hit.certificate.params
            value = str(hit.value)
            verdict = hit.certificate.verdict
            record = {
                **params,
                "value": value,
                "digits": len(value),
                "verdict": verdict.to_json_dict(),
                "elapsed_ms": round((hit.found_at - began) * 1000.0, 3),
            }
            text = f"n={hit.n} k={params['k']} R={value} {verdict.status}"
            items.append(cli.Item(record, text, "big-search", params, hit.value, verdict))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(items, cli.RunConfig(fmt, log, 1, 1, 1, False))
        return out.getvalue(), len(items)

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
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        _, hits = self._emitted(13, 200, None, None, fmt, log=str(want))
        self._streamed(13, 200, None, None, fmt, log=str(got))
        masked, stamps = _masked(got.read_text(), _TIMESTAMP)
        assert masked == _masked(want.read_text(), _TIMESTAMP)[0]
        assert stamps == hits == 20

    def test_oracle_called_once_per_hit(self, monkeypatch):
        values = []
        real = bigsearch.is_prime
        monkeypatch.setattr(bigsearch, "is_prime", lambda x: values.append(x) or real(x))
        out = self._streamed(7, 300, None, None, "text")
        # the seed, then each printed R in order
        assert values == [7] + [int(line.split("R=")[1].split()[0]) for line in out.splitlines()]
        assert len(values) == 451

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
        record["value"] = "1139"  # 17 * 67
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

    def test_malformed_lines_name_the_line(self, capsys, tmp_path):
        good = {
            "timestamp": "t", "construction": "big-search", "params": {}, "value": "131",
            "digits": 3, "verdict": {"status": "proven-prime"}, "tool_version": "0",
        }
        cases = [
            ("5", "not a JSON object"),
            (json.dumps({**good, "verdict": "x"}), "verdict"),
            (json.dumps({**good, "value": "-7"}), "non-negative"),
        ]
        for bad, message in cases:
            log = tmp_path / "bad.jsonl"
            log.write_text(json.dumps(good) + "\n" + bad + "\n")
            code, out, err = run_cli(capsys, "verify", "--log", str(log))
            assert code == 1 and out == "", bad
            assert err.startswith("error: log line 2: ") and message in err, bad

    def test_missing_log_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--log", str(tmp_path / "nope.jsonl"))
        assert code == 1

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
