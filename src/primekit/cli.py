"""Command-line surface: sieve, zscan, rel1/rel1f/rel2/rel3, bigsearch, verify.

Exit codes: 0 success, 1 validation error, 2 resource-cap error, 3 an
invariant the constructions guarantee was refuted (which falsifies the
implementation, so it is never swallowed or shortened; exits 1 and 2 give
a run of over 40 digits as its count). The console script also exits
141 (128 + SIGPIPE), quietly, when the reader closes stdout early, as in
`primekit sieve --bound 2000000 | head -1`.

Big integers are serialized as decimal strings in every structured format;
floats never carry values. Environment variables PRIMEKIT_* mirror the
global flags and lose to explicit flags. --workers is accepted for
interface compatibility: execution is sequential and output is identical
for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

from . import __version__
from .errors import (
    DEFAULT_C_DIGIT_CAP,
    DEFAULT_CANDIDATE_CAP,
    InvariantViolation,
    ResourceLimitError,
    ValidationError,
    digit_limit,
    read_int,
)
from .oracle import PROBABLE_PRIME, PROVEN_PRIME, OracleVerdict, is_prime, primes_leq_sqrt

ENV_PREFIX = "PRIMEKIT_"
FORMATS = ("text", "json", "csv", "jsonl")
# A hit's k, n and elapsed_ms while bigsearch derives its line template:
# 40-digit runs and a float that a seed, R or verdict would have to repeat
# by chance (a 10^-40 chance per digit) to be taken for one of them
_K, _N, _MS = "7" * 20 + "3" * 20, int("5" * 20 + "1" * 20), 0.0123456789
# each relation subcommand's construction and params class, by their names
# in relations, and its worked examples' report in reference, if it has one
_RELATIONS = {
    "rel1": ("RELATION1", "Relation1Params", "relation1_report"),
    "rel1f": ("RELATION1_FACTORIAL", "Relation1FactorialParams", None),
    "rel2": ("RELATION2", "Relation2Params", "relation2_report"),
    "rel3": ("RELATION3", "Relation3Params", "relation3_report"),
}


@dataclass
class RunConfig:
    format: str
    log_path: str | None
    seed_cap_digits: int
    candidate_cap: int
    paper_faithful: bool


_NEGATIVE_INT_LIST = re.compile(r"-\d+(,-?\d+)+")
_LONG_DIGITS = re.compile(r"\d{41,}")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every type=int flag reads through read_int; argparse lets its
        # ResourceLimitError through and still names the type "int"
        self.register("type", int, read_int)
        self.register("action", "parsers", _Subcommands)

    def error(self, message):  # argparse would sys.exit(2); keep 1 for validation
        raise ValidationError(message)

    def _parse_optional(self, arg_string):
        # a comma list of integers that starts with "-" (--b -1,1,1,1) is a
        # value, as argparse already reads a lone negative number
        if _NEGATIVE_INT_LIST.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


class _Subcommands(argparse._SubParsersAction):
    """Subcommands whose own flags, and handler, are added when argparse
    first dispatches to them: a command builds only its own flags and
    imports only its own engine, while the top-level help lists them all.
    Each handler imports its engine module when it runs (reference only for
    --worked-examples), so where no .pyc is written a fresh process
    compiles one engine, not five."""

    def __call__(self, parser, namespace, values, option_string=None):
        sub = self._name_parser_map.get(values[0])
        if sub is not None and sub.get_default("handler") is None:
            _add_flags(sub, values[0])
        super().__call__(parser, namespace, values, option_string)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _resolve_int(flag_value, env_name: str, default: int) -> int:
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        try:
            return read_int(raw)
        except ValueError:
            raise ValidationError(f"{ENV_PREFIX}{env_name} must be an integer, got {raw!r}") from None
    return default


@cache  # the tree holds no per-call state; config is resolved per call
def _build_parser() -> _Parser:
    core = _Parser(add_help=False)
    core.add_argument("--format", choices=FORMATS, default=None)
    core.add_argument("--workers", type=int, default=None)
    core.add_argument("--seed-cap-digits", type=int, default=None)
    core.add_argument("--candidate-cap", type=int, default=None)
    core.add_argument("--paper-faithful", action="store_true", default=None)

    logp = _Parser(add_help=False)
    logp.add_argument("--log", default=None, help="append result records to this JSONL file")

    parser = _Parser(prog="primekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"primekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's handler and own flags are added by _add_flags
    logged = [core, logp]
    sub.add_parser("sieve", parents=logged, help="residue-exclusion prime sieve")
    sub.add_parser("zscan", parents=logged, help="scan generalized Mersenne values")
    for name in _RELATIONS:
        sub.add_parser(name, parents=logged, help=f"{name} certificate construction")
    sub.add_parser("bigsearch", parents=logged, help="certified search above a seed prime")
    sub.add_parser("verify", parents=[core], help="re-check a result log against the oracle")
    return parser


def _add_flags(p: _Parser, name: str) -> None:
    """Give subcommand `name`'s parser p its handler and its own flags."""
    if name == "sieve":
        p.set_defaults(handler=_cmd_sieve)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--include-two", action="store_true")
        p.add_argument("--show-exclusions", action="store_true",
                       help="print the struck K progressions instead of the primes")
    elif name == "zscan":
        p.set_defaults(handler=_cmd_zscan)
        p.add_argument("--a", required=True, metavar="LO..HI", help="base range")
        p.add_argument("--c", required=True, metavar="LO..HI", help="step range")
        p.add_argument("--n", required=True, metavar="LO..HI", help="exponent range")
        p.add_argument("--no-skip", action="store_true",
                       help="evaluate provably-composite grid points too")
    elif name in _RELATIONS:
        p.set_defaults(handler=_cmd_relation)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--enumerate", action="store_true")
        p.add_argument("--budget", type=int)
        p.add_argument("--multiset", action="store_true",
                       help="with --enumerate, judge every window hit and keep duplicate "
                            "values (by default each value is evaluated and oracle-checked "
                            "once, at its first accepted grid point)")
        for key, _, _, read, flag in _relation(name)[2].FIELDS:
            if read:
                p.add_argument("--" + key, **flag)
        if name in ("rel1", "rel1f"):
            p.add_argument("--slots", type=int, default=2,
                           help="exponent positions covered by --enumerate")
        if _RELATIONS[name][2]:
            p.add_argument("--worked-examples", action="store_true",
                           help="evaluate the published reference columns (bound 119)")
    elif name == "bigsearch":
        p.set_defaults(handler=_cmd_bigsearch)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--max-n", type=int, required=True)
        p.add_argument("--max-hits", type=int, default=None)
        p.add_argument("--min-n", type=int, default=None)
    else:
        p.set_defaults(handler=_cmd_verify)
        p.add_argument("--log", required=True, help="JSONL result log to verify")


def _relation(command: str):
    """The relations module, and a relation subcommand's construction and
    params class in it."""
    from . import relations

    construction, params, _ = _RELATIONS[command]
    return relations, getattr(relations, construction), getattr(relations, params)


def _parse_range(text: str, name: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return read_int(lo), read_int(hi)
        value = read_int(text)
        return value, value
    except ValueError:
        raise ValidationError(f"cannot parse {name} range {text!r}; use LO..HI") from None


def _write_log(log_file, construction: str, params: dict, value: int, verdict: OracleVerdict) -> None:
    """Append one record's log entry to log_file and flush it."""
    text = str(value)
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "construction": construction,
        "params": params,
        "value": text,
        "digits": len(text),
        "verdict": verdict.to_json_dict(),
        "tool_version": __version__,
    }
    log_file.write(json.dumps(entry, separators=(",", ":")) + "\n")
    log_file.flush()


def _open_log(path, append: bool):
    """The --log file opened to append entries, or verify's log opened to
    read bytes, or a ValidationError naming the path. Only the open is
    guarded, so an error writing stdout still reaches main."""
    try:
        return open(path, "a", encoding="utf-8") if append else open(path, "rb")
    except OSError as exc:
        if isinstance(exc, FileNotFoundError) and not append:
            raise ValidationError(f"log file {path} does not exist") from None
        raise ValidationError(f"cannot open log file {path}: {exc.strerror or exc}") from None


def _write(pieces, layout, cfg: RunConfig) -> None:
    """Write each (text, logged) piece to stdout as it comes, framed by
    layout = (head, between, tail, empty). A piece's `logged`, unless None,
    is the (construction, params, value, verdict) of its --log entry. The
    log file, when there is one, is opened before the first piece and
    closed when the pieces end or raise; a raise leaves the tail unwritten."""
    head, between, tail, empty = layout
    write = sys.stdout.write
    log_file = _open_log(cfg.log_path, append=True) if cfg.log_path else None
    try:
        first = True
        for text, logged in pieces:
            write(head if first else between)
            write(text)
            first = False
            if logged and log_file:
                _write_log(log_file, *logged)
        write(empty if first else tail)
    finally:
        if log_file:
            log_file.close()


def _csv_line(cells) -> str:
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(cells)
    return line.getvalue()


def _csv_cell(record: dict, key: str):
    """A key the record lacks is an empty cell; a value that is not a plain
    string or number (None included) is its compact JSON."""
    if key not in record:
        return ""
    value = record[key]
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return value
    return json.dumps(value, separators=(",", ":"))


def _renderer(fmt: str, keys: tuple[str, ...] | None = None):
    """(render, layout) of fmt: render(record, text) is one row's piece of
    output, the text line, the record as compact JSON, a csv row of `keys`
    or an element of an indent-2 JSON array, and layout frames the pieces
    for _write. Every command's output is rendered here."""
    if fmt == "text":
        return (lambda record, text: text + "\n"), ("", "", "", "")
    if fmt == "jsonl":
        return (lambda record, text: json.dumps(record, separators=(",", ":")) + "\n"), ("", "", "", "")
    if fmt == "json":
        return (
            (lambda record, text: "  " + json.dumps(record, indent=2).replace("\n", "\n  ")),
            ("[\n", ",\n", "\n]\n", "[]\n"),
        )
    return (
        (lambda record, text: _csv_line([_csv_cell(record, key) for key in keys])),
        (_csv_line(keys), "", "", ""),
    )


def _write_records(rows, cfg: RunConfig, keys: tuple[str, ...] | None = None) -> None:
    """Write (record, text, logged) rows through _write, one piece per row
    as _renderer renders it. The csv header is `keys` when the caller knows
    its rows' shape; else it is the union of the records' keys in
    first-seen order, and csv holds every row before its first write."""
    if cfg.format == "csv" and keys is None:
        rows = list(rows)
        keys = tuple(dict.fromkeys(key for record, _, _ in rows for key in record))
    render, layout = _renderer(cfg.format, keys)
    _write(((render(record, text), logged) for record, text, logged in rows), layout, cfg)


def _cmd_sieve(args, cfg: RunConfig) -> int:
    from . import exclusion

    include_two = bool(args.include_two) or not cfg.paper_faithful
    if args.show_exclusions:
        spec = exclusion.ExclusionSpec.for_bound(args.bound)
        struck = spec.struck_count()
        if struck > cfg.candidate_cap:
            raise ResourceLimitError(
                f"--show-exclusions would list {struck} struck K values, over the candidate cap {cfg.candidate_cap}"
            )
        _write_records(_exclusion_rows(spec), cfg, ("prime", "excluded"))
        return 0
    blocks = exclusion.prime_blocks(args.bound, include_two=include_two)  # a bound >= 9 keeps 3, 5 and 7
    # one piece per block with a prime: every line of a block shares its
    # prefix, so the lines are the block's suffixes joined by what ends one
    # line and starts the next, from the record {"value": "0"} split around
    # its one value; the sieve logs no record, but --log creates the file as
    # for every command
    render, layout = _renderer(cfg.format, ("value",))
    before, after = render({"value": "0"}, "0").split("0")
    between = after + layout[1] + before
    pieces = (
        (before + prefix + (between + prefix).join(suffixes) + after, None)
        for prefix, suffixes in blocks
        if suffixes
    )
    _write(pieces, layout, cfg)
    return 0


def _exclusion_rows(spec):
    """One row per odd basis prime of an exclusion.ExclusionSpec, its struck
    K values listed as it comes."""
    from . import exclusion

    for i, (prime, _, _) in enumerate(spec.per_prime_windows):
        ks = [str(k) for k in exclusion.excluded_k(spec, i)]
        yield {"prime": str(prime), "excluded": ks}, f"C={prime}: {','.join(ks)}", None


def _cmd_zscan(args, cfg: RunConfig) -> int:
    from . import mersenne

    results = mersenne.scan_prime_zn(
        _parse_range(args.a, "base"),
        _parse_range(args.c, "step"),
        _parse_range(args.n, "exponent"),
        skip=not args.no_skip,
    )
    _write_records(map(_zscan_row, results), cfg)
    return 0


def _zscan_row(r):
    params = {"base": str(r.params.base), "step": str(r.params.step), "exponent": r.params.exponent}
    text = str(r.value)
    record = {**params, "value": text, "digits": len(text), "verdict": r.verdict.to_json_dict()}
    line = f"a={r.params.base} c={r.params.step} n={r.params.exponent} Z={text} {r.verdict.status}"
    return record, line, ("general-mersenne", params, r.value, r.verdict)


def _certificate_row(cert):
    record = cert.to_json_dict()
    if cert.accepted:
        return record, str(cert.value), (cert.construction, record["params"], cert.value, cert.verdict)
    return record, f"rejected ({cert.reason}): R={cert.signed_value}", None


def _worked_example_rows(reports, paper_faithful: bool) -> list[tuple]:
    rows = []
    skipped = 0
    for entry in reports:
        if paper_faithful and not entry.consistent:
            skipped += 1
            continue
        record = {
            "column": entry.column,
            "printed": str(entry.printed_value),
            "computed": str(entry.certificate.signed_value),
            "accepted": entry.certificate.accepted,
            "consistent": entry.consistent,
        }
        if entry.replacement is not None:
            record["replacement"] = entry.replacement.to_json_dict()
        marker = "" if entry.consistent else "  [erratum: printed value not reproduced]"
        text = f"column {entry.column}: printed {entry.printed_value}, computed {entry.certificate.signed_value}{marker}"
        cert = entry.certificate
        logged = (cert.construction, cert.params.to_json_dict(), cert.value, cert.verdict) if cert.accepted else None
        rows.append((record, text, logged))
    if skipped:
        print(
            f"note: {skipped} column(s) inconsistent with the defining formula omitted",
            file=sys.stderr,
        )
    return rows


def _cmd_relation(args, cfg: RunConfig) -> int:
    relations, construction, params = _relation(args.command)
    if getattr(args, "worked_examples", False):
        from . import reference

        report = getattr(reference, _RELATIONS[args.command][2])
        _write_records(_worked_example_rows(report(), cfg.paper_faithful), cfg)
        return 0

    basis = primes_leq_sqrt(args.bound)
    # each field's reader, called in field order, so the first bad flag is reported
    readers = [(key, attr, read) for key, attr, _, read, _ in params.FIELDS if read]
    if args.enumerate:
        if args.budget is None:
            raise ValidationError("--enumerate needs --budget")
        partition = None
        if construction == relations.RELATION2 and (args.s1 is not None or args.s2 is not None):
            partition = tuple(read(getattr(args, key), key) for key, _, read in readers if key in ("s1", "s2"))
        certs = relations.enumerate_certified(
            construction,
            basis,
            args.budget,
            exponent_slots=getattr(args, "slots", 2),
            partition=partition,
            candidate_cap=cfg.candidate_cap,
            verbose=args.multiset,
        )
    else:
        values = {attr: read(getattr(args, key), key) for key, attr, read in readers}
        certs = [relations.evaluator(construction)(params(basis, **values))]

    _write_records(map(_certificate_row, certs), cfg)
    return 0


def _cmd_bigsearch(args, cfg: RunConfig) -> int:
    """Write each hit as proven_hits proves it, with k in decimal from
    in_decimal, through a line template per distinct R: the hit's record,
    rendered as _write_records renders it, with k, n and elapsed_ms left
    open (a refuted hit stops the run with the hits before it written).
    elapsed_ms is the time from the start of the search to the hit."""
    from . import bigsearch

    state = bigsearch.build_state(args.seed, c_digit_cap=cfg.seed_cap_digits)
    began = time.perf_counter()
    hits = bigsearch.in_decimal(
        state, bigsearch.proven_hits(state, args.max_n, max_hits=args.max_hits, min_n=args.min_n)
    )
    keys = ("seed", "k", "n", "value", "digits", "verdict", "elapsed_ms")
    render, layout = _renderer(cfg.format, keys)
    seed = str(state.seed)
    templates: dict[int, str] = {}

    def template(value: int, verdict: OracleVerdict) -> str:
        text = str(value)
        record = dict(zip(keys, (seed, _K, _N, text, len(text), verdict.to_json_dict(), _MS)))
        line = render(record, f"n={_N} k={_K} R={text} {verdict.status}").replace("{", "{{").replace("}", "}}")
        return line.replace(_K, "{0}").replace(str(_N), "{1}").replace(repr(_MS), "{2!r}")

    def pieces():
        for n, k, value, verdict in hits:
            ms = round((time.perf_counter() - began) * 1000.0, 3)
            if value not in templates:  # proven_hits gives one verdict per R
                templates[value] = template(value, verdict)
            logged = (bigsearch.BIG_SEARCH, {"seed": seed, "k": k, "n": n}, value, verdict) if cfg.log_path else None
            yield templates[value].format(k, n, ms), logged

    _write(pieces(), layout, cfg)
    return 0


_REQUIRED_LOG_KEYS = ("timestamp", "construction", "params", "value", "digits", "verdict", "tool_version")


def _cmd_verify(args, cfg: RunConfig) -> int:
    path = Path(args.log)
    checked = 0
    mismatches: list[tuple] = []
    limit = digit_limit()
    with _open_log(path, append=False) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"log file {path} line {lineno}: not UTF-8 ({exc.reason})") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"log line {lineno}: invalid JSON ({exc.msg})") from None
            except ValueError:  # json reads a number of more digits than the limit this way
                raise ResourceLimitError(
                    f"log line {lineno}: a JSON integer passes Python's {limit}-digit limit "
                    "on str-to-int conversion (sys.get_int_max_str_digits())"
                ) from None
            if not isinstance(record, dict):
                raise ValidationError(f"log line {lineno}: not a JSON object")
            missing = [key for key in _REQUIRED_LOG_KEYS if key not in record]
            if missing:
                raise ValidationError(f"log line {lineno}: missing keys {missing}")
            text, digits = record["value"], record["digits"]
            if not (isinstance(text, str) and text.isascii() and text.isdigit()):
                raise ValidationError(f"log line {lineno}: value is not a decimal string")
            if type(digits) is not int or digits != len(text):
                raise ValidationError(f"log line {lineno}: digits is {digits!r}, but value has {len(text)}")
            if limit and len(text) > limit:
                raise ResourceLimitError(
                    f"log line {lineno}: value has {len(text)} digits, past Python's {limit}-digit "
                    "limit on int-to-str conversion (sys.get_int_max_str_digits())"
                )
            claimed = record["verdict"].get("status") if isinstance(record["verdict"], dict) else None
            if not isinstance(claimed, str):
                raise ValidationError(f"log line {lineno}: verdict is not an object with a status")
            actual = is_prime(int(text))  # a digit string is in the oracle's domain
            checked += 1
            if actual.is_prime != (claimed in (PROVEN_PRIME, PROBABLE_PRIME)):
                mismatches.append((
                    {
                        "line": lineno,
                        "value": record["value"],
                        "claimed": claimed,
                        "actual": actual.status,
                        "witness": None if actual.witness is None else str(actual.witness),
                    },
                    f"line {lineno}: value {record['value']} claimed {claimed} but oracle says {actual.status}",
                    None,
                ))
    summary = (
        {"checked": checked, "mismatches": len(mismatches)},
        f"checked {checked} record(s), {len(mismatches)} mismatch(es)",
        None,
    )
    _write_records(mismatches + [summary], cfg)
    return 3 if mismatches else 0


def _resolve_config(args) -> RunConfig:
    fmt = args.format or _env("FORMAT") or "text"
    if fmt not in FORMATS:
        raise ValidationError(f"unsupported format {fmt!r}")
    log_path = getattr(args, "log", None)
    if args.command != "verify" and log_path is None:
        log_path = _env("LOG")
    if _resolve_int(args.workers, "WORKERS", 1) < 1:
        raise ValidationError("--workers must be >= 1")
    paper = args.paper_faithful
    if paper is None:
        paper = _env("PAPER_FAITHFUL") not in (None, "", "0", "false")
    cfg = RunConfig(
        format=fmt,
        log_path=None if args.command == "verify" else log_path,
        seed_cap_digits=_resolve_int(args.seed_cap_digits, "SEED_CAP_DIGITS", DEFAULT_C_DIGIT_CAP),
        candidate_cap=_resolve_int(args.candidate_cap, "CANDIDATE_CAP", DEFAULT_CANDIDATE_CAP),
        paper_faithful=bool(paper),
    )
    if cfg.seed_cap_digits < 1 or cfg.candidate_cap < 1:
        raise ValidationError("resource caps must be positive")
    return cfg


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except (ValidationError, ResourceLimitError) as exc:
        # a run of more than 40 digits, such as an echoed argument, is named by its count
        message = _LONG_DIGITS.sub(lambda digits: f"<{len(digits[0])} digits>", str(exc))
        prefix, code = ("error", 1) if isinstance(exc, ValidationError) else ("resource error", 2)
        print(f"{prefix}: {message}", file=sys.stderr)
        return code
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help and --version exit through argparse once printed
        return exc.code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe shows here, or in a write inside run
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left to
        # devnull, so that flush cannot fail and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a process the signal ended
    sys.exit(code)


if __name__ == "__main__":
    main()
