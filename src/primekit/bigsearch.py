"""Certified search above a seed prime: R = c*k - 2^n.

c is the product of every odd prime up to seed-2. Any R strictly between
the seed and seed**2 - 1 is odd and coprime to every odd prime below its
own square root, so landing k (odd) inside the exact rational window
(seed + 2^n)/c < k <= (seed**2 - 1 + 2^n)/c makes R prime outright. The
window bounds stay rational end to end; the decimal forms people write
down are display artifacts and rounding them is exactly how a composite
slips in or the largest hit gets dropped.

c doubles in digit count roughly like the seed itself, which makes this
method exponential in the seed's digit count; the digit cap exists so
oversized seeds fail loudly instead of hanging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
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


def k_window(state: SearchState, n: int) -> tuple[Fraction, Fraction]:
    """Exact (exclusive, inclusive] bounds on k for this exponent."""
    if n < 1:
        raise ValidationError(f"exponent must be >= 1, got {n}")
    shift = 2 ** n
    return (
        Fraction(state.low + shift, state.product),
        Fraction(state.high + shift, state.product),
    )


def odd_k_candidates(state: SearchState, n: int) -> list[int]:
    """Odd integers inside the exact window, ascending."""
    lo, hi = k_window(state, n)
    first = int(lo) + 1  # smallest integer strictly above lo
    last = hi.numerator // hi.denominator  # largest integer at or below hi
    if first % 2 == 0:
        first += 1
    return list(range(first, last + 1, 2))


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
    for n in range(1, cap + 1):
        if odd_k_candidates(state, n):
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
    and emit every R = c*k - 2^n, oracle-checked, up to max_hits."""
    if max_hits == 0:
        return []
    start = min_n if min_n is not None else min_exponent(state)
    if max_exponent < start:
        raise ValidationError(
            f"max exponent {max_exponent} is below the starting exponent {start}"
        )
    hits: list[SearchHit] = []
    for n in range(start, max_exponent + 1):
        shift = 2 ** n
        for k in odd_k_candidates(state, n):
            value = state.product * k - shift
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
