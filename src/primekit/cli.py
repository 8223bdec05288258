"""Command-line surface: sieve, zscan, rel1/rel1f/rel2/rel3, bigsearch,
bench, verify.

Exit codes: 0 success, 1 validation error, 2 resource-cap error, 3 an
invariant the constructions guarantee was refuted (which falsifies the
implementation, so it is never swallowed).

Big integers are serialized as decimal strings in every structured format;
floats never carry values. Environment variables PRIMEKIT_* mirror the
global flags and lose to explicit flags. --workers is accepted for
interface compatibility: execution is sequential and output is identical
for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bigsearch import DEFAULT_C_DIGIT_CAP, build_state, min_exponent, search
from .errors import InvariantViolation, ResourceLimitError, ValidationError
from .exclusion import ExclusionSpec, excluded_k, primes_below
from .mersenne import scan_prime_zn
from .oracle import DEFAULT_SEGMENT_SIZE, is_prime, primes_leq_sqrt, sieve_primes_below
from .reference import relation1_report, relation2_report, relation3_report
from .relations import (
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


@dataclass
class RunConfig:
    format: str
    log_path: str | None
    workers: int
    seed_cap_digits: int
    candidate_cap: int
    segment_size: int
    paper_faithful: bool


@dataclass
class Item:
    """One output record, its text rendering, and an optional log entry."""

    record: dict
    text: str
    log: dict | None = None


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


def _build_parser() -> _Parser:
    core = _Parser(add_help=False)
    core.add_argument("--format", choices=FORMATS, default=None)
    core.add_argument("--workers", type=int, default=None)
    core.add_argument("--seed-cap-digits", type=int, default=None)
    core.add_argument("--candidate-cap", type=int, default=None)
    core.add_argument("--segment-size", type=int, default=None)
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
    p.add_argument("--min-mode", choices=("auto", "k1", "any"), default="auto")

    p = sub.add_parser("bench", parents=[core], help="benchmark suites (CSV report)")
    p.add_argument("--suite", required=True,
                   choices=("sieve-vs-oracle", "relations-throughput", "bigsearch-scaling"))
    p.add_argument("--ladder", required=True, help="comma list of sizes/budgets/seeds")

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


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _log_entry(construction: str, params: dict, value: int, verdict) -> dict:
    return {
        "timestamp": _timestamp(),
        "construction": construction,
        "params": params,
        "value": str(value),
        "digits": len(str(value)),
        "verdict": verdict.to_json_dict(),
        "tool_version": __version__,
    }


def _certificate_item(cert, text: str | None = None) -> Item:
    record = cert.to_json_dict()
    if text is None:
        if cert.accepted:
            text = str(cert.value)
        else:
            text = f"rejected ({cert.reason}): R={cert.signed_value}"
    log = None
    if cert.accepted:
        log = _log_entry(cert.construction, record["params"], cert.value, cert.verdict)
    return Item(record, text, log)


def _emit(items: list[Item], cfg: RunConfig) -> None:
    out = sys.stdout
    log_file = open(cfg.log_path, "a", encoding="utf-8") if cfg.log_path else None

    def write_log(item: Item) -> None:
        if log_file and item.log is not None:
            log_file.write(json.dumps(item.log, separators=(",", ":")) + "\n")
            log_file.flush()

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


def _cmd_sieve(args, cfg: RunConfig) -> int:
    include_two = bool(args.include_two) or not cfg.paper_faithful
    if args.show_exclusions:
        spec = ExclusionSpec.for_bound(args.bound)
        items = []
        for i, (prime, _, _) in enumerate(spec.per_prime_windows):
            ks = excluded_k(spec, i)
            items.append(
                Item(
                    {"prime": str(prime), "excluded": [str(k) for k in ks]},
                    f"C={prime}: {','.join(str(k) for k in ks)}",
                )
            )
        _emit(items, cfg)
        return 0
    primes = primes_below(args.bound, include_two=include_two)
    _emit([Item({"value": str(p)}, str(p)) for p in primes], cfg)
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
        items.append(Item(record, text, _log_entry("general-mersenne", params, r.value, r.verdict)))
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
        log = None
        if entry.certificate.accepted:
            log = _log_entry(
                entry.certificate.construction,
                entry.certificate.to_json_dict()["params"],
                entry.certificate.value,
                entry.certificate.verdict,
            )
        items.append(Item(record, text, log))
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
        if name == "rel2" and args.s1 and args.s2:
            partition = (
                tuple(_parse_int_list(args.s1, "s1")),
                tuple(_parse_int_list(args.s2, "s2")),
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


def _cmd_bigsearch(args, cfg: RunConfig) -> int:
    state = build_state(args.seed, c_digit_cap=cfg.seed_cap_digits)
    start = args.min_n
    if start is None:
        unit = {"auto": None, "k1": True, "any": False}[args.min_mode]
        try:
            start = min_exponent(state, unit_multiplier=unit, max_scan=args.max_n)
        except ResourceLimitError:
            # no usable exponent up to --max-n: search them all, as --min-n 1 does
            start = 1
    began = time.perf_counter()
    hits = search(state, args.max_n, max_hits=args.max_hits, min_n=start)
    items = []
    for hit in hits:
        elapsed_ms = round((hit.found_at - began) * 1000.0, 3)
        record = {
            "seed": str(state.seed),
            "k": str(hit.k),
            "n": hit.n,
            "value": str(hit.value),
            "digits": len(str(hit.value)),
            "verdict": hit.certificate.verdict.to_json_dict(),
            "elapsed_ms": elapsed_ms,
        }
        text = f"n={hit.n} k={hit.k} R={hit.value} {hit.certificate.verdict.status}"
        items.append(
            Item(
                record,
                text,
                _log_entry(
                    "big-search",
                    {"seed": str(state.seed), "k": str(hit.k), "n": hit.n},
                    hit.value,
                    hit.certificate.verdict,
                ),
            )
        )
    _emit(items, cfg)
    return 0


def _bench_rows(args, cfg: RunConfig) -> list[dict]:
    ladder = _parse_int_list(args.ladder, "ladder")
    if not ladder:
        raise ValidationError("bench needs a nonempty --ladder")
    rows = []
    if args.suite == "sieve-vs-oracle":
        for bound in ladder:
            t0 = time.perf_counter()
            oracle = sieve_primes_below(bound, segment_size=cfg.segment_size)
            t1 = time.perf_counter()
            mine = primes_below(bound, include_two=True)
            t2 = time.perf_counter()
            if len(oracle) != len(mine) or oracle != mine:
                raise InvariantViolation(
                    f"exclusion sieve disagrees with oracle at bound {bound}"
                )
            rows.append(
                {
                    "suite": args.suite,
                    "bound": bound,
                    "count": len(oracle),
                    "oracle_ms": round((t1 - t0) * 1000, 3),
                    "exclusion_ms": round((t2 - t1) * 1000, 3),
                    "oracle_primes_per_s": int(len(oracle) / max(t1 - t0, 1e-9)),
                    "exclusion_primes_per_s": int(len(mine) / max(t2 - t1, 1e-9)),
                }
            )
    elif args.suite == "relations-throughput":
        basis = primes_leq_sqrt(1000)
        for budget in ladder:
            for construction in (RELATION1, RELATION2, RELATION3):
                t0 = time.perf_counter()
                try:
                    certs = enumerate_certified(
                        construction, basis, budget, candidate_cap=cfg.candidate_cap
                    )
                except ResourceLimitError:
                    rows.append(
                        {
                            "suite": args.suite,
                            "construction": construction,
                            "budget": budget,
                            "accepted": "over-candidate-cap",
                            "elapsed_ms": 0.0,
                            "certs_per_s": 0,
                        }
                    )
                    continue
                dt = time.perf_counter() - t0
                rows.append(
                    {
                        "suite": args.suite,
                        "construction": construction,
                        "budget": budget,
                        "accepted": len(certs),
                        "elapsed_ms": round(dt * 1000, 3),
                        "certs_per_s": int(len(certs) / max(dt, 1e-9)),
                    }
                )
    else:  # bigsearch-scaling
        for seed in ladder:
            t0 = time.perf_counter()
            state = build_state(seed, c_digit_cap=cfg.seed_cap_digits)
            t1 = time.perf_counter()
            from .bigsearch import odd_k_candidates

            nonempty = 0
            scanned = 64
            for n in range(1, scanned + 1):
                if odd_k_candidates(state, n):
                    nonempty += 1
            t2 = time.perf_counter()
            rows.append(
                {
                    "suite": args.suite,
                    "seed": seed,
                    "c_digits": len(str(state.product)),
                    "build_ms": round((t1 - t0) * 1000, 3),
                    "windows_scanned": scanned,
                    "nonempty_windows": nonempty,
                    "scan_ms": round((t2 - t1) * 1000, 3),
                }
            )
    return rows


def _cmd_bench(args, cfg: RunConfig) -> int:
    rows = _bench_rows(args, cfg)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(list(rows[0].keys()))
    for row in rows:
        writer.writerow(list(row.values()))
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
            missing = [key for key in _REQUIRED_LOG_KEYS if key not in record]
            if missing:
                raise ValidationError(f"log line {lineno}: missing keys {missing}")
            try:
                value = int(record["value"])
            except (TypeError, ValueError):
                raise ValidationError(f"log line {lineno}: value is not a decimal string") from None
            checked += 1
            claimed_prime = record["verdict"]["status"] in ("proven-prime", "probable-prime")
            actual = is_prime(value)
            if actual.is_prime != claimed_prime:
                mismatches.append(
                    Item(
                        {
                            "line": lineno,
                            "value": record["value"],
                            "claimed": record["verdict"]["status"],
                            "actual": actual.status,
                            "witness": None if actual.witness is None else str(actual.witness),
                        },
                        f"line {lineno}: value {record['value']} claimed "
                        f"{record['verdict']['status']} but oracle says {actual.status}",
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
    "bench": _cmd_bench,
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
        segment_size=_resolve_int(args.segment_size, "SEGMENT_SIZE", DEFAULT_SEGMENT_SIZE),
        paper_faithful=bool(paper),
    )
    if cfg.seed_cap_digits < 1 or cfg.candidate_cap < 1 or cfg.segment_size < 64:
        raise ValidationError("resource caps must be positive (segment size >= 64)")
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
