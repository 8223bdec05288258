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

import decimal
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from math import gcd, lcm
from typing import NamedTuple

from .errors import InvariantViolation, ValidationError, check_digits, digit_limit
from .oracle import OracleVerdict, is_prime, odd_prime_product, sieve_primes_below

DEFAULT_C_DIGIT_CAP = 1_000_000
# k's bit length from which in_decimal writes k by decimal arithmetic, not
# str(k): the crossover measured per hit was 1,050 to 1,500 bits on seeds 5-13
DECIMAL_K_BITS = 1200


@dataclass(frozen=True)
class SearchState:
    """seed prime, the odd-prime cutoff (seed-2), their product, and the
    (low, high] interval every hit must land in."""

    seed: int
    odd_limit: int
    product: int
    low: int
    high: int


class SearchHit(NamedTuple):
    """One certified R = c*k - 2^n, a tuple of proven_hits with names."""

    n: int
    k: int
    value: int
    verdict: OracleVerdict


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

    Every hit is checked again on its own (_checked): each distinct R,
    at its first hit, is inside the window and odd, prime by the oracle and
    coprime to c, and every hit is c*k - 2^n for an odd k; any failure is an
    InvariantViolation, raised when that hit is reached.

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
    # the largest k is (high + 2^N) // c; an N past bits(c) + 4 * limit puts it
    # past the limit whatever c is (2^N > c * 16^limit), so 2^N is not built
    # (an N below 1 is refused just below)
    shift = max(0, min(max_exponent, state.product.bit_length() + 4 * digit_limit()))
    check_digits(f"k at exponent {max_exponent} for seed {state.seed}", state.high + (1 << shift), state.product)
    if start < 1:
        raise ValidationError(f"exponent must be >= 1, got {start}")
    if max_hits == 0:
        return iter(())
    return _checked(state, islice(_expand(every_hit(state), start, max_exponent), max_hits))


def _checked(state: SearchState, hits: Iterator[tuple[int, int]]) -> Iterator[tuple[int, int, int, OracleVerdict]]:
    """(n, k, R, verdict) for each (n, R) of hits that passes every check.
    The window, parity, oracle and coprimality checks depend on R alone, so
    they run at R's first hit and its verdict is reused at its later hits;
    c*k - 2^n = R with k odd is checked at every hit."""
    product, low, high = state.product, state.low, state.high
    verdicts: dict[int, OracleVerdict] = {}
    for n, value in hits:
        shift = 1 << n
        k = (value + shift) // product
        verdict = verdicts.get(value)
        if verdict is None:
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
            verdicts[value] = verdict
        if product * k - shift != value or k % 2 == 0:
            raise InvariantViolation(
                f"search value {value} at n={n} is not c*k - 2^n for an odd k"
            )
        yield n, k, value, verdict


def in_decimal(
    state: SearchState, hits: Iterator[tuple[int, int, int, OracleVerdict]]
) -> Iterator[tuple[int, str, int, OracleVerdict]]:
    """(n, k in decimal, R, verdict) for each hit of proven_hits, in order.

    str(k) costs time quadratic in k's digit count. From DECIMAL_K_BITS bits
    on, k is computed again as (2^n + R) // c in decimal arithmetic, whose
    multiply, divide and str are linear at these sizes (libmpdec keeps
    digits in base 10^19). 2^n is kept as a Decimal and multiplied by
    2^(n - previous n) as the exponents of proven_hits ascend. The division
    is exact, since c*k - 2^n = R has passed for the hit, and the context
    traps Inexact and Rounded, so a rounded k would raise instead of being
    written. Nothing is built for a search whose hits all lie below
    DECIMAL_K_BITS."""
    context = None
    for n, k, value, verdict in hits:
        if k.bit_length() < DECIMAL_K_BITS:
            yield n, str(k), value, verdict
            continue
        if context is None:
            context = decimal.Context(
                prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
            )
            product, power, at = decimal.Decimal(state.product), decimal.Decimal(1), 0
        if n != at:
            power = context.multiply(power, context.power(2, n - at))
            at = n
        yield n, str(context.divide_int(context.add(power, value), product)), value, verdict


def search(
    state: SearchState,
    max_exponent: int,
    max_hits: int | None = None,
    min_n: int | None = None,
) -> list[SearchHit]:
    """proven_hits as a list of SearchHit."""
    return list(map(SearchHit._make, proven_hits(state, max_exponent, max_hits, min_n)))
