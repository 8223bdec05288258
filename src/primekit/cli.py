"""Command-line surface: sieve, zscan, rel1/rel1f/rel2/rel3, bigsearch, verify.

Exit codes: 0 success, 1 validation error, 2 resource-cap error, 3 an
invariant the constructions guarantee was refuted (which falsifies the
implementation, so it is never swallowed). The console script also exits
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
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

from . import __version__
from .bigsearch import DEFAULT_C_DIGIT_CAP, build_state, proven_hits
from .errors import InvariantViolation, ResourceLimitError, ValidationError
from .exclusion import ExclusionSpec, excluded_k, primes_below
from .mersenne import scan_prime_zn
from .oracle import OracleVerdict, is_prime, primes_leq_sqrt
from .reference import relation1_report, relation2_report, relation3_report
from .relations import (
    BIG_SEARCH,
    DEFAULT_CANDIDATE_CAP,
    RELATION1,
    RELATION1_FACTORIAL,
    RELATION2,
    RELATION3,
    Parity,
    Relation1FactorialParams,
    Relation1Params,
    Relation2Params,
    Relation3Params,
    enumerate_certified,
    eval_relation1,
    eval_relation1_factorial,
    eval_relation2,
    eval_relation3,
)

ENV_PREFIX = "PRIMEKIT_"
FORMATS = ("text", "json", "csv", "jsonl")
# values rendered per write: from values of four digits up, 2048 lines fill
# at least one 8 KiB block of a buffered stdout; a larger chunk only holds
# the first block back
SIEVE_CHUNK = 1 << 11
# per format: what precedes the values, the line of every value but the
# last, and the line of the last (json closes its array there); each line
# is _emit's rendering of the record {"value": str(v)}
_VALUE_LAYOUTS = {
    "text": ("", "{}\n", "{}\n"),
    "jsonl": ("", '{{"value":"{}"}}\n', '{{"value":"{}"}}\n'),
    "csv": ("value\n", "{}\n", "{}\n"),
    "json": ("[\n", '  {{\n    "value": "{}"\n  }},\n', '  {{\n    "value": "{}"\n  }}\n]\n'),
}
# per format: what precedes the first hit, the line of one hit, what goes
# between two hits, what follows the last, and the whole output when there
# is no hit; a line's fields are {0} seed, {1} k, {2} n, {3} R, {4} R's
# digit count, {5} the verdict as rendered for the format (_hit_verdict)
# and {6} elapsed_ms, and it is _emit's rendering of the hit's record
_HIT_LAYOUTS = {
    "text": ("", "n={2} k={1} R={3} {5}\n", "", "", ""),
    "jsonl": (
        "",
        '{{"seed":"{0}","k":"{1}","n":{2},"value":"{3}","digits":{4},"verdict":{5},"elapsed_ms":{6!r}}}\n',
        "", "", "",
    ),
    "csv": ("seed,k,n,value,digits,verdict,elapsed_ms\n", "{0},{1},{2},{3},{4},{5},{6!r}\n", "", "", ""),
    "json": (
        "[\n",
        '  {{\n    "seed": "{0}",\n    "k": "{1}",\n    "n": {2},\n    "value": "{3}",\n'
        '    "digits": {4},\n    "verdict": {5},\n    "elapsed_ms": {6!r}\n  }}',
        ",\n", "\n]\n", "[]\n",
    ),
}


@dataclass
class RunConfig:
    format: str
    log_path: str | None
    workers: int
    seed_cap_digits: int
    candidate_cap: int
    paper_faithful: bool


@dataclass(slots=True)
class Item:
    """One output record, its text rendering and, for a value the log keeps,
    what its log entry needs."""

    record: dict
    text: str
    construction: str | None = None
    params: dict | None = None
    value: int | None = None
    verdict: OracleVerdict | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 1 for validation
        raise ValidationError(message)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _resolve_int(flag_value, env_name: str, default: int) -> int:
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        try:
            return int(raw)
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

    p = sub.add_parser("sieve", parents=[core, logp], help="residue-exclusion prime sieve")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--include-two", action="store_true")
    p.add_argument("--show-exclusions", action="store_true",
                   help="print the struck K progressions instead of the primes")

    p = sub.add_parser("zscan", parents=[core, logp], help="scan generalized Mersenne values")
    p.add_argument("--a", required=True, metavar="LO..HI", help="base range")
    p.add_argument("--c", required=True, metavar="LO..HI", help="step range")
    p.add_argument("--n", required=True, metavar="LO..HI", help="exponent range")
    p.add_argument("--no-skip", action="store_true",
                   help="evaluate provably-composite grid points too")

    for name in ("rel1", "rel1f", "rel2", "rel3"):
        p = sub.add_parser(name, parents=[core, logp], help=f"{name} certificate construction")
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--enumerate", action="store_true")
        p.add_argument("--budget", type=int)
        p.add_argument("--multiset", action="store_true",
                       help="with --enumerate, keep duplicate values")
        if name in ("rel1", "rel1f"):
            p.add_argument("--b1")
            p.add_argument("--b2")
            p.add_argument("--k" if name == "rel1" else "--k1", type=int)
            p.add_argument("--m", default="", help="comma list of exponents m1,m2,...")
            p.add_argument("--slots", type=int, default=2,
                           help="exponent positions covered by --enumerate")
        if name == "rel2":
            p.add_argument("--s1", help="comma list: first prime group")
            p.add_argument("--s2", help="comma list: second prime group")
            p.add_argument("--b1")
            p.add_argument("--b2")
            p.add_argument("--b3", default="2")
            p.add_argument("--k1", type=int)
            p.add_argument("--k2", type=int)
            p.add_argument("--k3", type=int, default=0)
        if name == "rel3":
            p.add_argument("--b", help="comma list of n or n+1 sign exponents")
            p.add_argument("--k", help="comma list of n or n+1 multipliers")
        if name != "rel1f":
            p.add_argument("--worked-examples", action="store_true",
                           help="evaluate the published reference columns (bound 119)")

    p = sub.add_parser("bigsearch", parents=[core, logp], help="certified search above a seed prime")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-hits", type=int, default=None)
    p.add_argument("--min-n", type=int, default=None)

    p = sub.add_parser("verify", parents=[core], help="re-check a result log against the oracle")
    p.add_argument("--log", required=True, help="JSONL result log to verify")

    return parser


def _parse_range(text: str, name: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise ValidationError(f"cannot parse {name} range {text!r}; use LO..HI") from None


def _parse_int_list(text: str, name: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"cannot parse {name} list {text!r}") from None


def _parse_parity(text: str | None, name: str) -> Parity:
    if text is None:
        raise ValidationError(f"missing required sign flag --{name}")
    return Parity.parse(text)


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


def _certificate_item(cert) -> Item:
    record = cert.to_json_dict()
    if cert.accepted:
        return Item(record, str(cert.value), cert.construction, record["params"], cert.value, cert.verdict)
    return Item(record, f"rejected ({cert.reason}): R={cert.signed_value}")


def _emit(items: list[Item], cfg: RunConfig) -> None:
    out = sys.stdout
    log_file = open(cfg.log_path, "a", encoding="utf-8") if cfg.log_path else None

    def write_log(item: Item) -> None:
        if log_file and item.construction is not None:
            _write_log(log_file, item.construction, item.params, item.value, item.verdict)

    try:
        if cfg.format == "json":
            out.write(json.dumps([i.record for i in items], indent=2) + "\n")
            for item in items:
                write_log(item)
        elif cfg.format == "csv":
            if items:
                writer = csv.writer(out, lineterminator="\n")
                fields = list(items[0].record.keys())
                writer.writerow(fields)
                for item in items:
                    writer.writerow(
                        [
                            v if isinstance(v, (str, int, float)) and not isinstance(v, bool)
                            else json.dumps(v, separators=(",", ":"))
                            for v in (item.record.get(f) for f in fields)
                        ]
                    )
                    write_log(item)
        elif cfg.format == "jsonl":
            for item in items:
                out.write(json.dumps(item.record, separators=(",", ":")) + "\n")
                write_log(item)
        else:
            for item in items:
                out.write(item.text + "\n")
                write_log(item)
    finally:
        if log_file:
            log_file.close()


def _write_values(values: list[int], fmt: str) -> None:
    """Write `values` (never empty) in `fmt`, byte for byte as _emit writes
    one Item({"value": str(v)}, str(v)) per value: SIEVE_CHUNK lines per
    write, each chunk rendered by one format call."""
    head, line, last = _VALUE_LAYOUTS[fmt]
    write = sys.stdout.write
    write(head)
    end = len(values) - 1
    for start in range(0, end, SIEVE_CHUNK):
        chunk = values[start : min(start + SIEVE_CHUNK, end)]
        write((line * len(chunk)).format(*chunk))
    write(last.format(values[end]))


def _cmd_sieve(args, cfg: RunConfig) -> int:
    include_two = bool(args.include_two) or not cfg.paper_faithful
    if args.show_exclusions:
        spec = ExclusionSpec.for_bound(args.bound)
        items = []
        for i, (prime, _, _) in enumerate(spec.per_prime_windows):
            ks = [str(k) for k in excluded_k(spec, i)]
            items.append(Item({"prime": str(prime), "excluded": ks}, f"C={prime}: {','.join(ks)}"))
        _emit(items, cfg)
        return 0
    primes = primes_below(args.bound, include_two=include_two)  # a bound >= 9 keeps 3, 5 and 7
    if cfg.log_path:  # the sieve logs no record, but --log creates the file as for every command
        open(cfg.log_path, "a", encoding="utf-8").close()
    _write_values(primes, cfg.format)
    return 0


def _cmd_zscan(args, cfg: RunConfig) -> int:
    results = scan_prime_zn(
        _parse_range(args.a, "base"),
        _parse_range(args.c, "step"),
        _parse_range(args.n, "exponent"),
        skip=not args.no_skip,
    )
    items = []
    for r in results:
        params = {
            "base": str(r.params.base),
            "step": str(r.params.step),
            "exponent": r.params.exponent,
        }
        record = {
            **params,
            "value": str(r.value),
            "digits": len(str(r.value)),
            "verdict": r.verdict.to_json_dict(),
        }
        text = (
            f"a={r.params.base} c={r.params.step} n={r.params.exponent} "
            f"Z={r.value} {r.verdict.status}"
        )
        items.append(Item(record, text, "general-mersenne", params, r.value, r.verdict))
    _emit(items, cfg)
    return 0


def _require(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise ValidationError(f"missing required flag --{flag}")
    return value


def _exponent_map(args) -> tuple[tuple[int, int], ...]:
    dense = _parse_int_list(args.m, "m")
    return tuple((i + 1, e) for i, e in enumerate(dense) if e)


def _worked_example_items(reports, paper_faithful: bool) -> list[Item]:
    items = []
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
        logged = (cert.construction, cert.params.to_json_dict(), cert.value, cert.verdict) if cert.accepted else ()
        items.append(Item(record, text, *logged))
    if skipped:
        print(
            f"note: {skipped} column(s) inconsistent with the defining formula omitted",
            file=sys.stderr,
        )
    return items


def _cmd_relation(args, cfg: RunConfig) -> int:
    name = args.command
    construction = {
        "rel1": RELATION1,
        "rel1f": RELATION1_FACTORIAL,
        "rel2": RELATION2,
        "rel3": RELATION3,
    }[name]

    if getattr(args, "worked_examples", False):
        reports = {
            "rel1": relation1_report,
            "rel2": relation2_report,
            "rel3": relation3_report,
        }[name]()
        _emit(_worked_example_items(reports, cfg.paper_faithful), cfg)
        return 0

    basis = primes_leq_sqrt(args.bound)

    if args.enumerate:
        if args.budget is None:
            raise ValidationError("--enumerate needs --budget")
        partition = None
        if name == "rel2" and (args.s1 is not None or args.s2 is not None):
            partition = (
                tuple(_parse_int_list(_require(args, "s1"), "s1")),
                tuple(_parse_int_list(_require(args, "s2"), "s2")),
            )
        certs = enumerate_certified(
            construction,
            basis,
            args.budget,
            exponent_slots=getattr(args, "slots", 2),
            partition=partition,
            candidate_cap=cfg.candidate_cap,
            verbose=args.multiset,
        )
        _emit([_certificate_item(c) for c in certs], cfg)
        return 0

    if name == "rel1":
        params = Relation1Params(
            basis,
            _parse_parity(args.b1, "b1"),
            _parse_parity(args.b2, "b2"),
            _require(args, "k"),
            _exponent_map(args),
        )
        cert = eval_relation1(params)
    elif name == "rel1f":
        params = Relation1FactorialParams(
            basis,
            _parse_parity(args.b1, "b1"),
            _parse_parity(args.b2, "b2"),
            _require(args, "k1"),
            _exponent_map(args),
        )
        cert = eval_relation1_factorial(params)
    elif name == "rel2":
        params = Relation2Params(
            basis,
            tuple(_parse_int_list(_require(args, "s1"), "s1")),
            tuple(_parse_int_list(_require(args, "s2"), "s2")),
            _parse_parity(args.b1, "b1"),
            _parse_parity(args.b2, "b2"),
            _parse_parity(args.b3, "b3"),
            _require(args, "k1"),
            _require(args, "k2"),
            args.k3,
        )
        cert = eval_relation2(params)
    else:
        signs = [Parity.parse(tok) for tok in _require(args, "b").split(",")]
        ks = _parse_int_list(_require(args, "k"), "k")
        n = len(basis.small_primes)
        if len(signs) == n:
            signs.append(Parity.EVEN)
        if len(ks) == n:
            ks.append(0)
        params = Relation3Params(basis, tuple(signs), tuple(ks))
        cert = eval_relation3(params)

    _emit([_certificate_item(cert)], cfg)
    return 0


def _hit_verdict(verdict: OracleVerdict, fmt: str) -> str:
    """verdict as _emit renders it in a bigsearch record in fmt."""
    if fmt == "text":
        return verdict.status
    if fmt == "json":  # nested two levels deep in the indented array
        return json.dumps(verdict.to_json_dict(), indent=2).replace("\n", "\n    ")
    compact = json.dumps(verdict.to_json_dict(), separators=(",", ":"))
    if fmt == "jsonl":
        return compact
    cell = io.StringIO()
    csv.writer(cell, lineterminator="").writerow([compact])
    return cell.getvalue()


def _cmd_bigsearch(args, cfg: RunConfig) -> int:
    """Write each hit as proven_hits proves it, from one line template per
    format, byte for byte as _emit writes the hit's record (a refuted hit
    stops the run with the hits before it written). elapsed_ms is the time
    from the start of the search to the hit."""
    state = build_state(args.seed, c_digit_cap=cfg.seed_cap_digits)
    began = time.perf_counter()
    hits = proven_hits(state, args.max_n, max_hits=args.max_hits, min_n=args.min_n)
    head, line, between, tail, empty = _HIT_LAYOUTS[cfg.format]
    seed = str(state.seed)
    verdicts: dict[tuple, str] = {}  # (status, method, witness): its rendering in cfg.format
    write = sys.stdout.write
    log_file = open(cfg.log_path, "a", encoding="utf-8") if cfg.log_path else None
    try:
        found = False
        for n, k, value, verdict in hits:
            ms = round((time.perf_counter() - began) * 1000.0, 3)
            key = (verdict.status, verdict.method, verdict.witness)
            if key not in verdicts:
                verdicts[key] = _hit_verdict(verdict, cfg.format)
            k, text = str(k), str(value)
            write(between if found else head)
            write(line.format(seed, k, n, text, len(text), verdicts[key], ms))
            found = True
            if log_file:
                _write_log(log_file, BIG_SEARCH, {"seed": seed, "k": k, "n": n}, value, verdict)
        write(tail if found else empty)
    finally:
        if log_file:
            log_file.close()
    return 0


_REQUIRED_LOG_KEYS = ("timestamp", "construction", "params", "value", "digits", "verdict", "tool_version")


def _cmd_verify(args, cfg: RunConfig) -> int:
    path = Path(args.log)
    if not path.exists():
        raise ValidationError(f"log file {path} does not exist")
    checked = 0
    mismatches: list[Item] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"log line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise ValidationError(f"log line {lineno}: not a JSON object")
            missing = [key for key in _REQUIRED_LOG_KEYS if key not in record]
            if missing:
                raise ValidationError(f"log line {lineno}: missing keys {missing}")
            try:
                value = int(record["value"])
            except (TypeError, ValueError):
                raise ValidationError(f"log line {lineno}: value is not a decimal string") from None
            claimed = record["verdict"].get("status") if isinstance(record["verdict"], dict) else None
            if not isinstance(claimed, str):
                raise ValidationError(f"log line {lineno}: verdict is not an object with a status")
            try:
                actual = is_prime(value)
            except ValidationError as exc:
                raise ValidationError(f"log line {lineno}: {exc}") from None
            checked += 1
            if actual.is_prime != (claimed in ("proven-prime", "probable-prime")):
                mismatches.append(
                    Item(
                        {
                            "line": lineno,
                            "value": record["value"],
                            "claimed": claimed,
                            "actual": actual.status,
                            "witness": None if actual.witness is None else str(actual.witness),
                        },
                        f"line {lineno}: value {record['value']} claimed "
                        f"{claimed} but oracle says {actual.status}",
                    )
                )
    summary = Item(
        {"checked": checked, "mismatches": len(mismatches)},
        f"checked {checked} record(s), {len(mismatches)} mismatch(es)",
    )
    _emit(mismatches + [summary], cfg)
    return 3 if mismatches else 0


_HANDLERS = {
    "sieve": _cmd_sieve,
    "zscan": _cmd_zscan,
    "rel1": _cmd_relation,
    "rel1f": _cmd_relation,
    "rel2": _cmd_relation,
    "rel3": _cmd_relation,
    "bigsearch": _cmd_bigsearch,
    "verify": _cmd_verify,
}


def _resolve_config(args) -> RunConfig:
    fmt = args.format or _env("FORMAT") or "text"
    if fmt not in FORMATS:
        raise ValidationError(f"unsupported format {fmt!r}")
    log_path = getattr(args, "log", None)
    if args.command != "verify" and log_path is None:
        log_path = _env("LOG")
    workers = _resolve_int(args.workers, "WORKERS", 1)
    if workers < 1:
        raise ValidationError("--workers must be >= 1")
    paper = args.paper_faithful
    if paper is None:
        paper = _env("PAPER_FAITHFUL") not in (None, "", "0", "false")
    cfg = RunConfig(
        format=fmt,
        log_path=None if args.command == "verify" else log_path,
        workers=workers,
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
        return _HANDLERS[args.command](args, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
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
