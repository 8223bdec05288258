"""Checks of primekit's outputs that share no code with primekit.

Every check recomputes what a command must print from the definitions in
the paper (or from the command's documented output format) with its own
arithmetic: a plain sieve, its own Miller-Rabin test, the relations'
formulas, and the big search as a residue class of 2^n mod 2c. A check
raises CheckError on the first difference and otherwise returns the
number of certified primes the command emitted or re-verified.
"""

from __future__ import annotations

import csv
import json
import random
from bisect import bisect_left
from itertools import product
from math import factorial, isqrt, prod

from workloads import Command, plain_primes

# pi(10^k), from the published tables
KNOWN_PI = {10: 4, 100: 25, 1_000: 168, 10_000: 1_229, 100_000: 9_592,
            1_000_000: 78_498, 10_000_000: 664_579}

_SMALL_PRIMES = plain_primes(1000)
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981
_EXTRA_ROUNDS = 16
# primes above sqrt(bound) kept for relation1: more than any exponent slot reaches
_LARGE_PRIMES = 8


class CheckError(Exception):
    """A command's output differs from what the independent computation gives."""


def is_probable_prime(n: int) -> bool:
    """Trial division, then Miller-Rabin: the first 13 prime bases, which
    decide every n below 3.3e24, plus seeded random bases above that."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1_000_000:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_DETERMINISTIC_BASES)
    if n >= _DETERMINISTIC_BELOW:
        rng = random.Random(n * 31 + 7)
        bases += [rng.randrange(2, n - 1) for _ in range(_EXTRA_ROUNDS)]
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lines(text: str) -> list[str]:
    if not text:
        return []
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    return text[:-1].split("\n")


def jsonl_records(text: str) -> list[dict]:
    lines = _lines(text)
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON lines: {exc}") from None
    if len(records) != len(lines) or not all(isinstance(r, dict) for r in records):
        raise CheckError("output is not one JSON object per line")
    return records


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Reference:
    """Primes up to a limit from the plain sieve, checked against pi(10^k)."""

    def __init__(self, limit: int):
        self.limit = limit
        self.primes = plain_primes(limit)
        for power, count in KNOWN_PI.items():
            if power <= limit and bisect_left(self.primes, power) != count:
                raise CheckError(f"reference sieve gives pi({power}) = "
                                 f"{bisect_left(self.primes, power)}, not {count}")

    def below(self, bound: int) -> list[int]:
        if bound > self.limit:
            raise ValueError(f"reference holds primes below {self.limit}, not {bound}")
        return self.primes[: bisect_left(self.primes, bound)]

    def above(self, root: int, count: int) -> list[int]:
        start = bisect_left(self.primes, root + 1)
        out = self.primes[start : start + count]
        if len(out) < count:
            raise ValueError(f"reference holds too few primes above {root}")
        return out


# --- sieve -----------------------------------------------------------------

def sieve_values(text: str, fmt: str) -> list[int]:
    """The primes a `sieve` command printed, read by the documented format."""
    if fmt == "text":
        return [int(line) for line in _lines(text)]
    if fmt == "jsonl":
        records = jsonl_records(text)
        _expect(all(r.keys() == {"value"} for r in records), "jsonl sieve record with keys other than 'value'")
        return [int(r["value"]) for r in records]
    if fmt == "csv":
        rows = list(csv.reader(_lines(text)))
        if not rows:
            return []
        _expect(rows[0] == ["value"], f"csv header is {rows[0]}, not ['value']")
        _expect(all(len(r) == 1 for r in rows[1:]), "csv sieve row with more than one field")
        return [int(r[0]) for r in rows[1:]]
    raise ValueError(f"no reader for format {fmt!r}")


def check_sieve(text: str, fmt: str, bound: int, reference: Reference) -> int:
    got = sieve_values(text, fmt)
    want = reference.below(bound)
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        raise CheckError(f"sieve --bound {bound} --format {fmt}: {len(got)} values, "
                         f"{len(want)} primes; missing {missing}, extra {extra}")
    return len(got)


# --- relations ---------------------------------------------------------------

def _sign(parity: str) -> int:
    _expect(parity in ("even", "odd"), f"parity {parity!r}")
    return 1 if parity == "even" else -1


def _power(larges: list[int], exponents: dict[int, int]) -> int:
    return prod(larges[i - 1] ** e for i, e in exponents.items())


def relation1_high(larges: list[int], exponents: dict[int, int], k: int) -> int:
    """High end of the relation1 window: next_prime^2 - 1 extended one large
    prime at a time while the dense exponent prefix is nonzero and
    non-increasing and k is not divisible by that prime."""
    dense = [exponents.get(i, 0) for i in range(1, max(exponents, default=0) + 1)]
    while dense and dense[-1] == 0:
        dense.pop()
    covered = 0
    if all(x >= y for x, y in zip(dense, dense[1:])):
        for q in larges[: len(dense)]:
            if k % q == 0:
                break
            covered += 1
    return larges[covered] ** 2 - 1


def relation_value(construction: str, params: dict, basis: list[int], larges: list[int]) -> int:
    """R recomputed from printed params by the relation's formula."""
    full = prod(basis)
    if construction in ("relation1", "relation1-factorial"):
        exponents = {int(i): int(e) for i, e in params["m"].items()}
        if construction == "relation1":
            _expect([int(p) for p in params["basis"]] == basis, "printed basis is not the primes <= sqrt(bound)")
            lead = int(params["k"]) * full
        else:
            _expect(int(params["d"]) == isqrt(int(params["bound"])), "printed d is not floor(sqrt(bound))")
            lead = int(params["k1"]) * factorial(int(params["d"]))
        return _sign(params["b1"]) * lead + _sign(params["b2"]) * _power(larges, exponents)
    if construction == "relation2":
        s1, s2 = [int(p) for p in params["s1"]], [int(p) for p in params["s2"]]
        _expect(sorted(s1 + s2) == basis, "relation2 groups do not split the basis")
        p1, p2 = prod(s1), prod(s2)
        return (_sign(params["b1"]) * p1 * int(params["k1"]) + _sign(params["b2"]) * p2 * int(params["k2"])
                + _sign(params["b3"]) * p1 * p2 * int(params["k3"]))
    _expect([int(p) for p in params["basis"]] == basis, "printed basis is not the primes <= sqrt(bound)")
    signs, ks = [_sign(b) for b in params["b"]], [int(k) for k in params["k"]]
    _expect(len(signs) == len(ks) == len(basis) + 1, "relation3 needs one sign and k per prime, plus one")
    return sum(s * (full // p) * k for s, p, k in zip(signs, basis, ks)) + signs[-1] * full * ks[-1]


def relation_window(construction: str, params: dict, basis: list[int], larges: list[int]) -> tuple[int, int]:
    if construction in ("relation1", "relation1-factorial"):
        k = int(params["k"] if construction == "relation1" else params["k1"])
        exponents = {int(i): int(e) for i, e in params["m"].items()}
        return basis[-1], relation1_high(larges, exponents, k)
    return basis[-1], larges[0] ** 2 - 1


def check_relation(text: str, construction: str, bound: int, reference: Reference,
                   expected: set[int] | None = None) -> int:
    """Every accepted certificate of an --enumerate command: its value
    recomputed, inside its window, prime; values ascending and distinct.
    With `expected`, the values must be exactly that set."""
    root = isqrt(bound)
    basis = reference.below(root + 1)
    larges = reference.above(root, _LARGE_PRIMES)
    values = []
    for record in jsonl_records(text):
        _expect(record.get("construction") == construction, f"construction {record.get('construction')!r}")
        _expect(record.get("accepted") is True, "an --enumerate record that is not accepted")
        params = record["params"]
        _expect(int(params["bound"]) == bound, f"params bound {params['bound']}, command bound {bound}")
        value = int(record["value"])
        recomputed = relation_value(construction, params, basis, larges)
        _expect(recomputed == value, f"{construction} params give {recomputed}, printed {value}")
        low, high = relation_window(construction, params, basis, larges)
        _expect((int(record["window"]["low"]), int(record["window"]["high"])) == (low, high),
                f"{construction} window {record['window']}, expected ({low}, {high}]")
        _expect(low < value <= high, f"{construction} value {value} outside ({low}, {high}]")
        _expect(is_probable_prime(value), f"{construction} certified {value}, which is composite")
        values.append(value)
    _expect(values == sorted(set(values)), f"{construction} values are not ascending and distinct")
    if expected is not None and set(values) != expected:
        raise CheckError(f"{construction} bound {bound}: accepted {len(values)} values, the brute-force walk "
                         f"{len(expected)}; missing {sorted(expected - set(values))[:3]}, "
                         f"extra {sorted(set(values) - expected)[:3]}")
    return len(values)


def brute_force_relation(construction: str, bound: int, budget: int, slots: int | None,
                         reference: Reference) -> set[int]:
    """Values of every point of the enumeration grid that lands in its
    window, walked point by point (relation3 by its set of partial sums)."""
    root = isqrt(bound)
    basis = reference.below(root + 1)
    larges = reference.above(root, _LARGE_PRIMES)
    low, high = basis[-1], larges[0] ** 2 - 1
    signs = (1, -1)
    accepted = set()
    if construction in ("relation1", "relation1-factorial"):
        lead = prod(basis) if construction == "relation1" else factorial(root)
        for exps in product(range(budget + 1), repeat=slots):
            exponents = {i + 1: e for i, e in enumerate(exps)}
            power = _power(larges, exponents)
            for s1, s2, k in product(signs, signs, range(1, budget + 1)):
                value = s1 * k * lead + s2 * power
                if low < value <= relation1_high(larges, exponents, k):
                    accepted.add(value)
    elif construction == "relation2":
        g1, g2 = basis[0::2], basis[1::2]
        p1, p2 = prod(g1), prod(g2)
        k1s = [k for k in range(1, budget + 1) if all(k % p for p in g2)]
        k2s = [k for k in range(1, budget + 1) if all(k % p for p in g1)]
        for s1, s2, s3, k1, k2, k3 in product(signs, signs, signs, k1s, k2s, range(budget + 1)):
            value = s1 * p1 * k1 + s2 * p2 * k2 + s3 * p1 * p2 * k3
            if low < value <= high:
                accepted.add(value)
    else:
        full = prod(basis)
        sums = {0}
        for p in basis:
            terms = [s * (full // p) * k for s in signs for k in range(1, budget + 1) if k % p]
            sums = {x + t for x in sums for t in terms}
        terms = [s * full * k for s in signs for k in range(budget + 1)]
        accepted = {x + t for x in sums for t in terms if low < x + t <= high}
    return accepted


# --- big search ----------------------------------------------------------------

def search_hits(seed: int, max_n: int, min_n: int | None, reference: Reference) -> list[tuple[int, int, int]]:
    """(n, k, R) for every R = c*k - 2^n, k odd, in (seed, seed^2 - 1].

    With k odd, R lies in the window exactly when R = c - 2^n (mod 2c), so
    each exponent's hits are one residue class. Without min_n the scan
    starts at the smallest n that puts k = 1 in the window, or else at the
    smallest n with any hit.
    """
    c = prod(p for p in reference.below(seed - 1) if p != 2)
    low, high, modulus = seed, seed * seed - 1, 2 * c

    def hits_at(n: int) -> list[tuple[int, int, int]]:
        residue = (c - pow(2, n, modulus)) % modulus
        first = low + 1 + (residue - low - 1) % modulus
        return [(n, (r + 2 ** n) // c, r) for r in range(first, high + 1, modulus)]

    if min_n is None:
        min_n = max(1, (max(2, c - high) - 1).bit_length())
        if not 2 ** min_n <= c - low - 1:
            min_n = next((n for n in range(1, max_n + 1) if hits_at(n)), max_n + 1)
    return [hit for n in range(min_n, max_n + 1) for hit in hits_at(n)]


def check_bigsearch(text: str, seed: int, max_n: int, min_n: int | None, reference: Reference) -> int:
    got = [(r["n"], int(r["k"]), int(r["value"])) for r in jsonl_records(text)]
    want = search_hits(seed, max_n, min_n, reference)
    if got != want:
        differ = sorted(set(got) ^ set(want))[:3]
        raise CheckError(f"bigsearch --seed {seed} --max-n {max_n}: {len(got)} hits, expected {len(want)}; "
                         f"(n, k, R) in one list only: {differ}")
    for _, _, value in got:
        _expect(is_probable_prime(value), f"bigsearch hit {value} is composite")
    return len(got)


# --- zscan and verify ---------------------------------------------------------

def check_zscan(text: str, a: int, c: int, n_range: tuple[int, int], log_text: str) -> list[int]:
    """Every printed Z recomputed from (a, c, n) and tested; the log gained
    exactly one record per hit, with the same value. Returns the values."""
    values = []
    for record in jsonl_records(text):
        n = int(record["exponent"])
        _expect((int(record["base"]), int(record["step"])) == (a, c), f"zscan record for a={record['base']} c={record['step']}")
        _expect(n_range[0] <= n <= n_range[1], f"zscan exponent {n} outside {n_range}")
        value = ((a + c) ** n - a ** n) // c
        _expect(int(record["value"]) == value, f"zscan a={a} c={c} n={n}: printed {record['value']}, Z = {value}")
        _expect(is_probable_prime(value), f"zscan a={a} c={c} n={n}: Z is composite")
        values.append(value)
    logged = [int(r["value"]) for r in jsonl_records(log_text)]
    _expect(logged == values, f"log gained {len(logged)} records for {len(values)} hits")
    return values


def check_verify(text: str, records_written: int) -> int:
    records = jsonl_records(text)
    _expect(len(records) == 1, f"verify printed {len(records)} records, expected the summary alone")
    summary = records[0]
    _expect(summary == {"checked": records_written, "mismatches": 0},
            f"verify says {summary}, {records_written} records were written")
    return records_written


class Checker:
    """Runs the check that fits each command, keeping the reference data,
    the brute-force sets and the records written to each log. Every output
    is checked in full, in every round."""

    def __init__(self, commands: list[Command]):
        bounds = [c.params["bound"] for c in commands if c.kind == "sieve"]
        self.reference = Reference(max(bounds + [20_000]) + 1)
        self.brute_force: dict[tuple, set[int]] = {}
        self.log_records: dict = {}

    def start_round(self, commands: list[Command]) -> None:
        """Forget the logs: each round starts them afresh."""
        for command in commands:
            if command.log is not None:
                command.log.unlink(missing_ok=True)
                self.log_records[command.log] = 0

    def check(self, command: Command, text: str, log_text: str) -> int:
        try:
            certified = self._check(command, text, log_text)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckError(f"malformed output: {exc!r}") from None
        if command.kind == "zscan":
            self.log_records[command.log] += certified
        return certified

    def _check(self, command: Command, text: str, log_text: str) -> int:
        p = command.params
        if command.kind == "sieve":
            return check_sieve(text, p["format"], p["bound"], self.reference)
        if command.kind == "relation":
            expected = None
            if p["brute_force"]:
                key = (p["construction"], p["bound"], p["budget"], p["slots"])
                if key not in self.brute_force:
                    self.brute_force[key] = brute_force_relation(*key, self.reference)
                expected = self.brute_force[key]
            return check_relation(text, p["construction"], p["bound"], self.reference, expected)
        if command.kind == "bigsearch":
            return check_bigsearch(text, p["seed"], p["max_n"], p["min_n"], self.reference)
        if command.kind == "zscan":
            return len(check_zscan(text, p["a"], p["c"], p["n"], log_text))
        if command.kind == "verify":
            return check_verify(text, self.log_records[command.log])
        raise ValueError(f"no check for {command.kind!r}")
