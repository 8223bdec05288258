"""The big search as it stood before its hit set was solved by discrete
logs, kept as references the search must match hit for hit
(tests/test_bigsearch.py): the exact rational k window per exponent, its
odd integers, and the search built on them; and the residue-class walk
that replaced them, one exponent at a time."""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd

from primekit.bigsearch import SearchHit, SearchState
from primekit.errors import InvariantViolation, ValidationError
from primekit.oracle import is_prime


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


def search(
    state: SearchState,
    max_exponent: int,
    max_hits: int | None = None,
    *,
    min_n: int,
) -> list[SearchHit]:
    """Enumerate exponents ascending from min_n, odd k ascending within each
    window, and emit every R = c*k - 2^n, oracle-checked, up to max_hits."""
    if max_hits == 0:
        return []
    if max_exponent < min_n:
        raise ValidationError(
            f"max exponent {max_exponent} is below the starting exponent {min_n}"
        )
    hits: list[SearchHit] = []
    for n in range(min_n, max_exponent + 1):
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
            hits.append(SearchHit(n, k, value, verdict))
            if max_hits is not None and len(hits) >= max_hits:
                return hits
    return hits
