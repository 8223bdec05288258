"""Certified search above a seed prime a: R = c*k - 2^n.

c is the product of every odd prime up to a-2. k is odd because R must
be: c is odd and 2^n even. Such an R is also coprime to c (it is -2^n
modulo each prime of c), so an R strictly between a and a**2 - 1 has no
prime factor below its square root and is prime outright. Since c*k = c (mod 2c) for every odd k, the hits at
exponent n are exactly the R in (a, a**2 - 1] with R = c - 2^n (mod 2c).
The search walks 2^n mod 2c by doubling, reads off that residue class in
the window, and computes k = (R + 2^n)/c only for the hits. This is the
exact rational window (a + 2^n)/c < k <= (a**2 - 1 + 2^n)/c restated; the
window form is kept in the tests as the reference the search must match.

c doubles in digit count roughly like the seed itself, which makes this
method exponential in the seed's digit count; the digit cap exists so
oversized seeds fail loudly instead of hanging.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd

from .errors import InvariantViolation, ResourceLimitError, ValidationError
from .oracle import is_prime, odd_prime_product
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
    """One certified R = c*k - 2^n; found_at is time.perf_counter() when
    the search found it."""

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


def _window_values(state: SearchState, first: int, last: int) -> Iterator[tuple[int, range]]:
    """(n, values) for n = first..last: the R in (low, high] with
    R = c - 2^n (mod 2c), ascending, which is ascending k."""
    if first < 1:
        raise ValidationError(f"exponent must be >= 1, got {first}")
    modulus = 2 * state.product
    power = pow(2, first, modulus)  # 2^n mod 2c, doubled once per exponent
    for n in range(first, last + 1):
        head = state.low + 1 + (state.product - power - state.low - 1) % modulus
        yield n, range(head, state.high + 1, modulus)
        power = 2 * power % modulus


def min_exponent(state: SearchState, unit_multiplier: bool | None = None, max_scan: int | None = None) -> int:
    """Smallest usable exponent up to max_scan (default 4*bits(c) + 64).

    unit_multiplier=True asks for the smallest n whose window contains
    k = 1; False for the smallest n whose window contains any odd k; None
    tries the k = 1 reading first and falls back to the general one.
    ResourceLimitError when no exponent up to max_scan is usable.
    """
    c, low, high = state.product, state.low, state.high
    cap = max_scan if max_scan is not None else 4 * c.bit_length() + 64
    if unit_multiplier is not False:
        # k = 1 admissible iff c - high <= 2^n <= c - low - 1
        lo_target = max(2, c - high)
        hi_target = c - low - 1
        n = max(1, (lo_target - 1).bit_length())  # smallest n with 2^n >= lo_target
        if 2 ** n <= hi_target:
            if n > cap:
                # no window below this n holds any k >= 1, so none is usable
                raise ResourceLimitError(
                    f"k=1 first fits the window for seed {state.seed} at exponent {n}, above {cap}"
                )
            return n
        if unit_multiplier is True:
            raise ValidationError(
                f"no exponent puts k=1 in the window for seed {state.seed}"
            )
    for n, values in _window_values(state, 1, cap):
        if values:
            return n
    raise ResourceLimitError(
        f"no nonempty odd-k window for seed {state.seed} within {cap} exponents"
    )


def search(
    state: SearchState,
    max_exponent: int,
    max_hits: int | None = None,
    min_n: int | None = None,
) -> list[SearchHit]:
    """Enumerate exponents ascending, odd k ascending within each window,
    and emit every R = c*k - 2^n, oracle-checked, up to max_hits.

    Every hit is checked again on its own: inside the window and odd,
    prime by the oracle, coprime to c, and c*k - 2^n for an odd k; any
    failure is an InvariantViolation.

    ResourceLimitError, before any exponent is scanned, when k could pass
    Python's limit on int-to-str conversion (sys.get_int_max_str_digits()),
    since every hit carries k in decimal."""
    if max_hits == 0:
        return []
    start = min_n if min_n is not None else min_exponent(state)
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
    hits: list[SearchHit] = []
    for n, values in _window_values(state, start, max_exponent):
        for value in values:
            shift = 2 ** n
            k = (value + shift) // state.product
            if not state.low < value <= state.high or value % 2 == 0:
                raise InvariantViolation(
                    f"window arithmetic produced out-of-range value {value} at n={n}, k={k}"
                )
            verdict = is_prime(value)
            if not verdict.is_prime:
                raise InvariantViolation(
                    f"certified search value {value} = c*{k} - 2^{n} refuted by oracle"
                )
            if gcd(value, state.product) != 1:
                raise InvariantViolation(
                    f"search value {value} shares a factor with the odd-prime product"
                )
            if state.product * k - shift != value or k % 2 == 0:
                raise InvariantViolation(
                    f"search value {value} at n={n} is not c*k - 2^n for an odd k"
                )
            certificate = CandidateCertificate(
                value=value,
                construction=BIG_SEARCH,
                params={"seed": str(state.seed), "k": str(k), "n": n},
                window=(state.low, state.high),
                accepted=True,
                verdict=verdict,
                signed_value=value,
            )
            hits.append(SearchHit(k=k, n=n, value=value, certificate=certificate, found_at=time.perf_counter()))
            if max_hits is not None and len(hits) >= max_hits:
                return hits
    return hits
