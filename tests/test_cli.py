import json

from helpers import slow_primes_below
from primekit.cli import run


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
        # seed 17 has no usable exponent up to 1000: without --min-n the
        # scan still covers all of them and ends as --min-n 1 does
        default = run_cli(capsys, "bigsearch", "--seed", "17", "--max-n", "1000")
        from_one = run_cli(capsys, "bigsearch", "--seed", "17", "--max-n", "1000", "--min-n", "1")
        assert default == from_one == (0, "", "")

    def test_composite_seed_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "bigsearch", "--seed", "9", "--max-n", "10")
        assert code == 1 and "composite" in err

    def test_seed_cap_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "bigsearch", "--seed", "101", "--max-n", "10",
            "--seed-cap-digits", "10",
        )
        assert code == 2 and "resource error" in err


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


class TestBench:
    def test_sieve_vs_oracle_counts_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "sieve-vs-oracle", "--ladder", "10000,100000",
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert "count" in header
        assert len(lines) == 3

    def test_relations_throughput_deterministic_counts(self, capsys):
        _, first, _ = run_cli(
            capsys, "bench", "--suite", "relations-throughput", "--ladder", "4",
        )
        _, second, _ = run_cli(
            capsys, "bench", "--suite", "relations-throughput", "--ladder", "4",
        )
        parse = lambda text: [line.split(",")[:4] for line in text.splitlines()]
        assert parse(first) == parse(second)

    def test_bigsearch_scaling_digit_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "bigsearch-scaling", "--ladder", "13,31,101",
        )
        assert code == 0
        lines = [line.split(",") for line in out.splitlines()]
        header = lines[0]
        digit_col = header.index("c_digits")
        assert [row[digit_col] for row in lines[1:]] == ["4", "10", "37"]

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--suite", "nope", "--ladder", "1")
        assert code == 1


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

    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "sieve", "--bound", "10", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "value"
        assert lines[1:] == ["2", "3", "5", "7"]
