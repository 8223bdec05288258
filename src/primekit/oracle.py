"""Ground-truth primality oracle and exact prime-list utilities.

Everything downstream (the sieve, the certificate constructions, the big
search) is checked against this module, so it stays independent of them:
plain segmented Eratosthenes, trial division, and strong-pseudoprime
testing with published deterministic base sets.

Python ints are the arbitrary-precision integer type throughout; all
arithmetic is exact at any size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import ResourceLimitError, ValidationError

# Verdict statuses.
PROVEN_PRIME = "proven-prime"
PROVEN_COMPOSITE = "proven-composite"
PROBABLE_PRIME = "probable-prime"

# Verdict methods.
SIEVE_LOOKUP = "sieve-lookup"
TRIAL_DIVISION = "trial-division"
DETERMINISTIC_SPP = "deterministic-spp"
PROBABILISTIC_SPP = "probabilistic-spp"

SIEVE_LIMIT_MAX = 1 << 40
# the integers sieve_primes_below strikes at a time
SEGMENT_SIZE = 1 << 20

# Published strong-pseudoprime base sets: testing against `bases` is a
# primality proof for every odd number below `limit`.
_SPP_LADDER = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# Below this the oracle only ever answers proven-prime / proven-composite.
DETERMINISTIC_LIMIT = _SPP_LADDER[-1][0]

SPP_ROUNDS = 64

_LOOKUP_LIMIT = 1 << 16
_TRIAL_LIMIT = 1000


@dataclass(frozen=True)
class OracleVerdict:
    """Primality verdict for a single value.

    witness, when present on a composite verdict, is a nontrivial factor;
    strong-pseudoprime refutations prove compositeness without one.
    """

    value: int
    status: str
    method: str
    witness: int | None = None

    @property
    def is_prime(self) -> bool:
        return self.status in (PROVEN_PRIME, PROBABLE_PRIME)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "method": self.method,
            "witness": None if self.witness is None else str(self.witness),
        }


@dataclass(frozen=True)
class PrimeBasis:
    """The primes at or below sqrt(bound), plus the first prime above it.

    Any composite below next_prime**2 has a factor among small_primes; that
    gap-free property is what every certificate construction leans on.
    """

    bound: int
    small_primes: tuple[int, ...]
    next_prime: int

    def __post_init__(self) -> None:
        if not self.small_primes:
            raise ValidationError("prime basis needs at least one small prime")
        if list(self.small_primes) != sorted(set(self.small_primes)):
            raise ValidationError("small_primes must be strictly increasing")
        if self.next_prime <= self.small_primes[-1]:
            raise ValidationError("next_prime must exceed every small prime")

    @property
    def odd_primes(self) -> tuple[int, ...]:
        return tuple(p for p in self.small_primes if p != 2)

    @property
    def largest(self) -> int:
        return self.small_primes[-1]


def _prime_mask(limit: int) -> bytearray:
    # flags[x] is 1 exactly when x is prime, for x < limit (limit > 2);
    # dense bytearray, fine for limit <~ 10^8
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return flags


def _simple_sieve(limit: int) -> list[int]:
    # primes strictly below limit
    if limit <= 2:
        return []
    return list(compress(range(limit), _prime_mask(limit)))


def sieve_primes_below(limit: int) -> list[int]:
    """All primes p with p < limit, ascending, by segmented Eratosthenes."""
    if limit < 2 or limit > SIEVE_LIMIT_MAX:
        raise ValidationError(
            f"sieve limit must be in [2, 2^40], got {limit}"
        )
    if limit <= SEGMENT_SIZE:
        return _simple_sieve(limit)

    base_limit = isqrt(limit - 1) + 1
    base = _simple_sieve(base_limit)
    primes = list(base)
    low = base_limit
    while low < limit:
        high = min(low + SEGMENT_SIZE, limit)
        flags = bytearray([1]) * (high - low)
        for p in base:
            if p * p >= high:
                break
            start = max(p * p, ((low + p - 1) // p) * p)
            flags[start - low :: p] = bytearray(len(range(start, high, p)))
        primes.extend(compress(range(low, high), flags))
        low = high
    return primes


@lru_cache(maxsize=1)
def _lookup_mask() -> bytearray:
    return _prime_mask(_LOOKUP_LIMIT)


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(_simple_sieve(_TRIAL_LIMIT))


def _strong_probable_prime(x: int, base: int) -> bool:
    # x odd, x > 2
    base %= x
    if base == 0:
        return True
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    y = pow(base, d, x)
    if y == 1 or y == x - 1:
        return True
    for _ in range(r - 1):
        y = y * y % x
        if y == x - 1:
            return True
    return False


def _smallest_factor(x: int) -> int:
    for p in _trial_primes():
        if p * p > x:
            break
        if x % p == 0:
            return p
    return x


def is_prime(x: int) -> OracleVerdict:
    """Total primality verdict for x >= 0.

    Deterministic (proven-*) below DETERMINISTIC_LIMIT; above it, composites
    are still proven but survivors are only probable-prime after SPP_ROUNDS
    extra pseudo-random strong-pseudoprime rounds.
    """
    if x < 0:
        raise ValidationError("oracle domain is the non-negative integers")
    if x < 2:
        # units and zero are not prime; no nontrivial factor exists
        return OracleVerdict(x, PROVEN_COMPOSITE, TRIAL_DIVISION, None)
    if x < _LOOKUP_LIMIT:
        if _lookup_mask()[x]:
            return OracleVerdict(x, PROVEN_PRIME, SIEVE_LOOKUP, None)
        return OracleVerdict(x, PROVEN_COMPOSITE, SIEVE_LOOKUP, _smallest_factor(x))

    for p in _trial_primes():
        if p * p > x:
            return OracleVerdict(x, PROVEN_PRIME, TRIAL_DIVISION, None)
        if x % p == 0:
            return OracleVerdict(x, PROVEN_COMPOSITE, TRIAL_DIVISION, p)

    if x < DETERMINISTIC_LIMIT:
        for limit, bases in _SPP_LADDER:
            if x < limit:
                break
        for base in bases:
            if not _strong_probable_prime(x, base):
                return OracleVerdict(x, PROVEN_COMPOSITE, DETERMINISTIC_SPP, None)
        return OracleVerdict(x, PROVEN_PRIME, DETERMINISTIC_SPP, None)

    for base in _SPP_LADDER[-1][1]:
        if not _strong_probable_prime(x, base):
            return OracleVerdict(x, PROVEN_COMPOSITE, PROBABILISTIC_SPP, None)
    rng = random.Random(x)  # deterministic per value, reproducible runs
    for _ in range(SPP_ROUNDS):
        base = rng.randrange(2, x - 1)
        if not _strong_probable_prime(x, base):
            return OracleVerdict(x, PROVEN_COMPOSITE, PROBABILISTIC_SPP, None)
    return OracleVerdict(x, PROBABLE_PRIME, PROBABILISTIC_SPP, None)


def next_prime_after(n: int) -> int:
    """Smallest prime strictly greater than n."""
    x = n + 1
    if x <= 2:
        return 2
    if x % 2 == 0:
        x += 1
    while not is_prime(x).is_prime:
        x += 2
    return x


def primes_leq_sqrt(bound: int) -> PrimeBasis:
    """PrimeBasis for `bound`: primes p with p*p <= bound, and the next one up."""
    if bound < 5:
        raise ValidationError(f"bound must be at least 5, got {bound}")
    root = isqrt(bound)
    small = sieve_primes_below(root + 1)
    return PrimeBasis(bound=bound, small_primes=tuple(small), next_prime=next_prime_after(root))


@lru_cache(maxsize=1024)
def large_primes(basis: PrimeBasis, count: int) -> tuple[int, ...]:
    """The first `count` primes above sqrt(bound), starting at next_prime.

    Cached: the relation1 walk asks for the same basis once or more per
    window hit, and each fresh answer walks next_prime_after."""
    out: list[int] = []
    p = basis.next_prime
    while len(out) < count:
        out.append(p)
        p = next_prime_after(p)
    return tuple(out)


def _product_tree(values: list[int]) -> int:
    # values is never empty: odd_prime_product passes at least the prime 3
    layer = values
    while len(layer) > 1:
        nxt = [layer[i] * layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def odd_prime_product(limit: int, max_digits: int | None = None) -> int:
    """Product of every odd prime p <= limit, via a balanced product tree.

    A naive left fold is quadratic in digit count; pairing keeps operands
    balanced. max_digits, when given, refuses products whose decimal size
    would exceed it (estimated from log10 before multiplying anything out).
    """
    if limit < 3:
        raise ValidationError(f"limit must be at least 3, got {limit}")
    if max_digits is not None and limit * 0.21 > max_digits:
        # the product has at least 0.21*limit digits for every limit >= 3
        # (Chebyshev bound above 100, checked exhaustively below), so this
        # refusal is never wrong; firing before the sieve keeps hopeless
        # limits from hanging
        raise ResourceLimitError(
            f"odd-prime product up to {limit} needs at least {int(limit * 0.21)} "
            f"decimal digits, over the configured cap of {max_digits}"
        )
    primes = [p for p in sieve_primes_below(limit + 1) if p != 2]
    if max_digits is not None:
        est = sum(math.log10(p) for p in primes)
        if est > max_digits:
            raise ResourceLimitError(
                f"odd-prime product up to {limit} needs about {int(est) + 1} "
                f"decimal digits, over the configured cap of {max_digits}"
            )
    return _product_tree(primes)
