"""The four workloads: one round of primekit commands per workload, built from a seed.

A round is the unit a run repeats: every run executes whole rounds, so the
mix of commands behind each median is the same whatever the seed and run
length. Each command carries what its independent check needs.

Where a workload draws sizes, it draws one value per stratum of a fixed
log-spaced ladder and lets the seed move it by at most LADDER_JITTER.
A free log-uniform draw would move the median command of a round by tens
of percent from one seed to the next, more than any bound could absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, isqrt, log10
from pathlib import Path

LADDER_JITTER = 0.01

SIEVE_FORMATS = ("text", "jsonl", "csv")
# an odd number of bounds: a sieve command's first block of output comes at
# about the same time in every format, so the median first output is the
# middle one of the middle bound's three, not a midpoint between two bounds
SIEVE_LOW, SIEVE_HIGH, SIEVE_STEPS = 10_000, 2_500_000, 17

# (command, construction, exponent slots). Both relation1 forms also run
# with three slots: those walks are the slowest of a round, and with them
# the round's median command lies inside the evenly timed group of
# two-slot walks at bounds >= 288, not at its edge, where the median
# moved by a quarter from run to run.
RELATION_COMMANDS = (
    ("rel1", "relation1", 2),
    ("rel1", "relation1", 3),
    ("rel1f", "relation1-factorial", 2),
    ("rel1f", "relation1-factorial", 3),
    ("rel2", "relation2", None),
    ("rel3", "relation3", None),
)
RELATION_MAX_BOUND = 10_000
RELATION_MAX_BUDGET = 32
RELATION_GRID_CAP = 300_000
BRUTE_FORCE_PER_ROUND = 10
# no --enumerate command at this bound or above accepts a certificate
RELATION_ACCEPTING_BELOW = 840

HIT_SEEDS = (5, 7, 11, 13)
SCAN_SEEDS = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
SEARCH_LOW, SEARCH_HIGH, SEARCH_STEPS = 300, 4000, 4

ZSCAN_MAX_BASE = 8
ZSCAN_MIN_EXPONENT = 20
ZSCAN_DIGITS = 220
ZSCAN_GROUPS = 5

WARMUP = {
    "sieve-ladder": ["sieve", "--bound", "20000", "--format", "jsonl"],
    "relations-sweep": ["rel2", "--bound", "120", "--enumerate", "--budget", "8", "--format", "jsonl"],
    "bigsearch-deep": ["bigsearch", "--seed", "13", "--max-n", "64", "--format", "jsonl"],
    "zscan-verify": ["zscan", "--a", "1..2", "--c", "1..2", "--n", "2..40", "--format", "jsonl"],
}


@dataclass
class Command:
    """One primekit invocation and what its check needs to know."""

    argv: list[str]
    kind: str
    params: dict = field(default_factory=dict)
    log: Path | None = None


def _ladder(rng: random.Random, low: int, high: int, steps: int) -> list[int]:
    ratio = (high / low) ** (1 / (steps - 1))
    return [
        round(low * ratio ** i * (1 + rng.uniform(-LADDER_JITTER, LADDER_JITTER)))
        for i in range(steps)
    ]


def plain_primes(limit: int) -> list[int]:
    """Primes below `limit` by a dense sieve of Eratosthenes."""
    if limit < 3:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [i for i, f in enumerate(flags) if f]


def sieve_ladder(rng: random.Random, workdir: Path) -> list[Command]:
    commands = [
        Command(["sieve", "--bound", str(bound), "--format", fmt], "sieve",
                {"bound": bound, "format": fmt})
        for bound in _ladder(rng, SIEVE_LOW, SIEVE_HIGH, SIEVE_STEPS)
        for fmt in SIEVE_FORMATS
    ]
    rng.shuffle(commands)
    return commands


def relation_bases() -> list[tuple[int, tuple[int, ...]]]:
    """(bound, basis primes) for every distinct prime basis with bound <= 1e4.

    Each basis is named by its largest bound below the next prime's square.
    """
    primes = plain_primes(isqrt(RELATION_MAX_BOUND) + 50)
    out = []
    for p, q in zip(primes, primes[1:]):
        bound = min(q * q - 1, RELATION_MAX_BOUND)
        if bound < max(5, p * p):
            continue
        out.append((bound, tuple(x for x in primes if x <= isqrt(bound))))
    return out


def _coprime_count(budget: int, primes) -> int:
    return sum(1 for k in range(1, budget + 1) if all(k % p for p in primes))


def relation_grid_size(construction: str, basis: tuple[int, ...], budget: int, slots: int | None = None) -> int:
    """Grid points one --enumerate command walks, from the grid's definition:
    signs, k and `slots` exponents for relation1, the alternating two-set
    split for relation2, one coprime multiplier per basis prime for relation3."""
    if construction in ("relation1", "relation1-factorial"):
        return 4 * budget * (budget + 1) ** slots
    if construction == "relation2":
        return 8 * _coprime_count(budget, basis[1::2]) * _coprime_count(budget, basis[0::2]) * (budget + 1)
    size = 2 * (budget + 1)
    for p in basis:
        size *= 2 * _coprime_count(budget, (p,))
    return size


def relations_sweep(rng: random.Random, workdir: Path) -> list[Command]:
    commands = []
    for bound, basis in relation_bases():
        for name, construction, slots in RELATION_COMMANDS:
            if construction == "relation2" and len(basis) < 2:
                continue
            budget = next(
                (b for b in range(RELATION_MAX_BUDGET, 0, -1)
                 if relation_grid_size(construction, basis, b, slots) <= RELATION_GRID_CAP),
                None,
            )
            if budget is None:
                continue
            argv = [name, "--bound", str(bound), "--enumerate", "--budget", str(budget), "--format", "jsonl"]
            if slots is not None:
                argv += ["--slots", str(slots)]
            commands.append(Command(argv, "relation", {
                "construction": construction, "bound": bound, "budget": budget, "slots": slots,
                "brute_force": False,
            }))
    rng.shuffle(commands)
    # half the brute-force subset from bases that accept certificates, half from the rest
    small = [c for c in commands if c.params["bound"] < RELATION_ACCEPTING_BELOW]
    large = [c for c in commands if c.params["bound"] >= RELATION_ACCEPTING_BELOW]
    half = BRUTE_FORCE_PER_ROUND // 2
    for command in small[:half] + large[:half]:
        command.params["brute_force"] = True
    return commands


def bigsearch_deep(rng: random.Random, workdir: Path) -> list[Command]:
    commands = []
    for seed in HIT_SEEDS + SCAN_SEEDS:
        min_n = None if seed in HIT_SEEDS else 1
        for max_n in _ladder(rng, SEARCH_LOW, SEARCH_HIGH, SEARCH_STEPS):
            argv = ["bigsearch", "--seed", str(seed), "--max-n", str(max_n), "--format", "jsonl"]
            if min_n is not None:
                argv += ["--min-n", str(min_n)]
            commands.append(Command(argv, "bigsearch", {"seed": seed, "max_n": max_n, "min_n": min_n}))
    rng.shuffle(commands)
    return commands


def zscan_cells() -> list[tuple[int, int, int]]:
    """(base, step, top exponent) cells: coprime base and step (a common
    factor makes every Z composite), exponents up to ~ZSCAN_DIGITS digits."""
    return [
        (a, c, int(ZSCAN_DIGITS / log10(a + c)))
        for a in range(1, ZSCAN_MAX_BASE + 1)
        for c in range(1, ZSCAN_MAX_BASE + 1)
        if gcd(a, c) == 1
    ]


def zscan_verify(rng: random.Random, workdir: Path) -> list[Command]:
    cells = zscan_cells()
    rng.shuffle(cells)
    commands = []
    for group in range(ZSCAN_GROUPS):
        log = workdir / f"zscan-{group}.jsonl"
        for a, c, top in cells[group::ZSCAN_GROUPS]:
            commands.append(Command(
                ["zscan", "--a", f"{a}..{a}", "--c", f"{c}..{c}", "--n", f"{ZSCAN_MIN_EXPONENT}..{top}",
                 "--log", str(log), "--format", "jsonl"],
                "zscan",
                {"a": a, "c": c, "n": (ZSCAN_MIN_EXPONENT, top)},
                log,
            ))
        commands.append(Command(["verify", "--log", str(log), "--format", "jsonl"], "verify", {}, log))
    return commands


BUILDERS = {
    "sieve-ladder": sieve_ladder,
    "relations-sweep": relations_sweep,
    "bigsearch-deep": bigsearch_deep,
    "zscan-verify": zscan_verify,
}


def round_commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of one round of `workload`; the same seed gives the same round."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


def tail_percentile(commands_per_round: int) -> int:
    """Highest whole percentile with at least 10 of a round's commands above it."""
    return (100 * (commands_per_round - 10)) // commands_per_round
