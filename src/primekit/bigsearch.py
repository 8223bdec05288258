"""Certified search above a seed prime a: R = c*k - 2^n.

c is the product of every odd prime up to a-2. k is odd because R must
be: c is odd and 2^n even. Such an R is also coprime to c (it is -2^n
modulo each prime of c), so an R strictly between a and a**2 - 1 has no
prime factor below its square root and is prime outright. Since
c*k = c (mod 2c) for every odd k, R is a hit at exponent n exactly when it
is odd, lies in (a, a**2 - 1] and has -R = 2^n (mod p) for every prime p
of c.

every_hit solves that for all exponents at once. The exponents at which
one R is a hit form a single class n = n0 (mod L), L = ord_c(2): the
discrete log of -R mod c splits into one per prime (the Pohlig-Hellman
reduction), each read from a table of 2^e mod p, and their classes mod
each ord_p(2) combine by the generalized Chinese remainder theorem or
prove that no exponent exists. The hit set is therefore a short list of
(R, n0, L), and a search expands it in (n, R) order: its cost follows its
hits, not its largest exponent. This proves that hits are periodic with
period ord_c(2) (2, 4, 12 and 60 for seeds 5, 7, 11 and 13), that no prime
seed from 17 to 1009 has a hit at any exponent, and that seeds 5 to 1009
together yield only 18 distinct primes, the largest 157.

c grows in digit count roughly like the seed itself, so the search is
exponential in the seed's digit count; the digit cap exists so oversized
seeds fail loudly instead of hanging.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from math import gcd, lcm

from .errors import InvariantViolation, ResourceLimitError, ValidationError
from .oracle import OracleVerdict, is_prime, odd_prime_product, sieve_primes_below
from .relations import BIG_SEARCH, CandidateCertificate

DEFAULT_C_DIGIT_CAP = 1_000_000


@dataclass(frozen=True)
class SearchState:
    """seed prime, the odd-prime cutoff (seed-2), their product, and the
    (low, high] interval every hit must land in."""

    seed: int
    odd_limit: int
    product: int
    low: int
    high: int


@dataclass(frozen=True)
class SearchHit:
    """One certified R = c*k - 2^n as search lists it; found_at is
    time.perf_counter() when proven_hits proved it. The CLI streams the
    plain tuples of proven_hits instead."""

    k: int
    n: int
    value: int
    certificate: CandidateCertificate
    found_at: float


def build_state(seed: int, c_digit_cap: int = DEFAULT_C_DIGIT_CAP) -> SearchState:
    if seed < 5:
        raise ValidationError(f"seed must be at least 5, got {seed}")
    verdict = is_prime(seed)
    if not verdict.is_prime:
        detail = f" (factor {verdict.witness})" if verdict.witness else ""
        raise ValidationError(f"seed {seed} is composite{detail}")
    product = odd_prime_product(seed - 2, max_digits=c_digit_cap)
    return SearchState(
        seed=seed,
        odd_limit=seed - 2,
        product=product,
        low=seed,
        high=seed * seed - 1,
    )


def _log_table(p: int) -> dict[int, int]:
    """{2^e mod p: e} for e in [0, ord_p(2)); its size is ord_p(2)."""
    table: dict[int, int] = {}
    power = 1
    while power not in table:
        table[power] = len(table)
        power = 2 * power % p
    return table


def every_hit(state: SearchState) -> list[tuple[int, int, int]]:
    """Every R that is a hit at some exponent, as (R, n0, L), sorted by
    (n0, R): R is a hit at exponent n >= 1 exactly when n = n0 (mod L), with
    n0 in [1, L] and L = ord_c(2). An empty list proves that no exponent
    has a hit.

    P0 is the smallest product of c's leading primes above the window's
    top, or c itself if none is; above the top, it leaves at most one R per
    exponent. One period of 2^n mod 2*P0, L0 = ord_P0(2), yields each
    candidate R with its exponent class mod L0; each remaining prime p
    then looks up -R in its table of 2^e mod p and joins n = e (mod
    ord_p(2)) to the class, and R is dropped at the first inconsistency.
    """
    primes = [p for p in sieve_primes_below(state.odd_limit + 1) if p != 2]
    head, count = 1, 0
    while count < len(primes) and head <= state.high:
        head *= primes[count]
        count += 1
    rest = primes[count:]
    modulus = 2 * head
    head_period = lcm(*(len(_log_table(p)) for p in primes[:count]))
    tables: dict[int, dict[int, int]] = {}
    hits = []
    power = 1  # 2^n mod 2*P0, doubled once per exponent
    for n in range(1, head_period + 1):
        power = 2 * power % modulus
        first = state.low + 1 + (head - power - state.low - 1) % modulus
        for value in range(first, state.high + 1, modulus):
            n0, period = n, head_period
            for p in rest:
                if p not in tables:
                    tables[p] = _log_table(p)
                e = tables[p].get(-value % p)
                if e is None:
                    break
                order = len(tables[p])
                g = gcd(period, order)
                if (e - n0) % g:
                    break
                n0 += period * ((e - n0) // g * pow(period // g, -1, order // g) % (order // g))
                period = period // g * order
            else:
                hits.append((value, n0, period))
    return sorted(hits, key=lambda hit: (hit[1], hit[0]))


def _expand(hit_set: list[tuple[int, int, int]], first: int, last: int) -> Iterator[tuple[int, int]]:
    """(n, R) for first <= n <= last at which hit_set puts R, in (n, R)
    order. Every class has the period ord_c(2), so the order of one period
    from first repeats in each later one."""
    if not hit_set:
        return
    period = hit_set[0][2]
    cycle = sorted(((n0 - first) % period, value) for value, n0, _ in hit_set)
    for base in range(first, last + 1, period):
        for offset, value in cycle:
            if base + offset > last:
                return
            yield base + offset, value


def proven_hits(
    state: SearchState,
    max_exponent: int,
    max_hits: int | None = None,
    min_n: int | None = None,
) -> Iterator[tuple[int, int, int, OracleVerdict]]:
    """Every R = c*k - 2^n with min_n <= n <= max_exponent (min_n defaults
    to 1), oracle-checked, in (n, R) order (ascending R at one n is
    ascending k), up to max_hits, as (n, k, R, verdict): the classes of
    every_hit expanded over those exponents. The arguments are checked at
    the call; each hit is produced as soon as it is proven.

    Every hit is checked again on its own: inside the window and odd,
    prime by the oracle, coprime to c, and c*k - 2^n for an odd k; any
    failure is an InvariantViolation, raised when that hit is reached.

    ResourceLimitError, before any exponent is scanned, when k could pass
    Python's limit on int-to-str conversion (sys.get_int_max_str_digits()),
    since every hit carries k in decimal."""
    if max_hits is not None and max_hits < 0:
        raise ValidationError(f"max hits must be >= 0, got {max_hits}")
    start = min_n if min_n is not None else 1
    if max_exponent < start:
        raise ValidationError(
            f"max exponent {max_exponent} is below the starting exponent {start}"
        )
    # 0 means no limit, as before Python 3.10.7, which lacks the call too
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # with N = max_exponent, k <= high + 2^N < 2^(m + 1) <= 8^digit_limit while
    # m = max(N, bits(high)) < 3 * digit_limit; past that, exactly: k has more than
    # digit_limit digits iff high + 2^N >= c * 10^digit_limit (true once N >= bits(bound))
    if digit_limit and max(max_exponent, state.high.bit_length()) >= 3 * digit_limit:
        bound = state.product * 10 ** digit_limit
        if max_exponent >= bound.bit_length() or state.high + 2 ** max_exponent >= bound:
            raise ResourceLimitError(
                f"k at exponent {max_exponent} for seed {state.seed} would pass Python's "
                f"{digit_limit}-digit limit on int-to-str conversion (sys.get_int_max_str_digits())"
            )
    if start < 1:
        raise ValidationError(f"exponent must be >= 1, got {start}")
    if max_hits == 0:
        return iter(())
    return _checked(state, islice(_expand(every_hit(state), start, max_exponent), max_hits))


def _checked(state: SearchState, hits: Iterator[tuple[int, int]]) -> Iterator[tuple[int, int, int, OracleVerdict]]:
    """(n, k, R, verdict) for each (n, R) of hits that passes every check."""
    product, low, high = state.product, state.low, state.high
    for n, value in hits:
        shift = 1 << n
        k = (value + shift) // product
        if not low < value <= high or value % 2 == 0:
            raise InvariantViolation(
                f"window arithmetic produced out-of-range value {value} at n={n}, k={k}"
            )
        verdict = is_prime(value)
        if not verdict.is_prime:
            raise InvariantViolation(
                f"certified search value {value} = c*{k} - 2^{n} refuted by oracle"
            )
        if gcd(value, product) != 1:
            raise InvariantViolation(
                f"search value {value} shares a factor with the odd-prime product"
            )
        if product * k - shift != value or k % 2 == 0:
            raise InvariantViolation(
                f"search value {value} at n={n} is not c*k - 2^n for an odd k"
            )
        yield n, k, value, verdict


def search(
    state: SearchState,
    max_exponent: int,
    max_hits: int | None = None,
    min_n: int | None = None,
) -> list[SearchHit]:
    """proven_hits as a list of SearchHit, each with its certificate."""
    hits = proven_hits(state, max_exponent, max_hits, min_n)
    seed, window = str(state.seed), (state.low, state.high)
    return [
        SearchHit(k, n, value, CandidateCertificate(
            value=value,
            construction=BIG_SEARCH,
            params={"seed": seed, "k": str(k), "n": n},
            window=window,
            accepted=True,
            verdict=verdict,
            signed_value=value,
        ), time.perf_counter())
        for n, k, value, verdict in hits
    ]
