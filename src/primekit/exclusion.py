"""Residue-exclusion sieve: primes as R = 2K+1 with K dodging progressions.

Every odd composite below a bound factors as C*(2m+1) for some odd prime
C <= sqrt(bound), which in K-space is the arithmetic progression
K = C*m + (C-1)/2. Striking those progressions over the window
(C-1)/2 <= m < (bound-C)/(2C) leaves exactly the odd primes. Structurally
this is a wheel-style sieve, so the admissible K are kept in a byte mask;
the exact rational window bounds are kept around (and are what excluded_k
reports) because an off-by-one at either end silently drops the largest
prime or keeps a composite.

The mask is struck in one pass and then read out SPAN K's at a time
(prime_spans), so a caller can write the first primes before the last are
built and never holds a list of all of them; primes_below is those spans
joined. This is the segmented output of Bays & Hudson, BIT 17 (1977).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import ceil

from .errors import ResourceLimitError, ValidationError
from .oracle import PrimeBasis, primes_leq_sqrt

DENSE_BOUND_MAX = 1 << 31
# K's per list that prime_spans yields: R over 16,384 integers, about 1,100
# primes near 2.5e6, so one span's lines fill an 8 KiB block of a buffered
# stdout; a larger span holds the first block back
SPAN = 1 << 13


@dataclass(frozen=True)
class ExclusionSpec:
    """Per-prime strike windows for one bound.

    per_prime_windows rows are (prime, m_low, m_high_exclusive) with the
    high end an exact rational; 2 never takes part (R = 2K+1 is odd).
    """

    bound: int
    basis: PrimeBasis
    per_prime_windows: tuple[tuple[int, int, Fraction], ...]

    @classmethod
    def for_bound(cls, bound: int) -> "ExclusionSpec":
        """The sieve's windows for `bound`, refused as primes_below refuses it."""
        return cls.for_basis(_basis(bound), bound)

    @classmethod
    def for_basis(cls, basis: PrimeBasis, bound: int) -> "ExclusionSpec":
        windows = tuple(
            (p, (p - 1) // 2, Fraction(bound - p, 2 * p)) for p in basis.odd_primes
        )
        return cls(bound=bound, basis=basis, per_prime_windows=windows)

    def struck_count(self) -> int:
        """How many K values excluded_k lists over every prime, counted
        from the windows without listing them."""
        return sum(max(0, ceil(m_high) - m_low) for _, m_low, m_high in self.per_prime_windows)


def excluded_k(spec: ExclusionSpec, prime_index: int) -> list[int]:
    """Struck K values for the prime at `prime_index` (0-based over the odd
    basis primes), evaluated from the exact rational window."""
    if not 0 <= prime_index < len(spec.per_prime_windows):
        raise ValidationError(
            f"prime index {prime_index} out of range for {len(spec.per_prime_windows)} odd primes"
        )
    prime, m_low, m_high = spec.per_prime_windows[prime_index]
    half = (prime - 1) // 2
    out = []
    m = m_low
    while m < m_high:
        out.append(prime * m + half)
        m += 1
    return out


def _strike(bound: int, odd_primes: tuple[int, ...]) -> bytearray:
    """keep[K] is 1 exactly when R = 2K+1 < bound is admissible."""
    k_max = (bound - 2) // 2  # largest K with R = 2K+1 < bound
    keep = bytearray(b"\x01") * (k_max + 1)
    keep[0] = 0  # K = 0 is R = 1
    for p in odd_primes:
        first = (p * p - 1) // 2  # m = (p-1)/2, i.e. R = p*p
        if first <= k_max:
            keep[first :: p] = bytes(len(range(first, k_max + 1, p)))
    return keep


def _spans(keep: bytearray, include_two: bool) -> Iterator[list[int]]:
    """The admissible R, one list per SPAN K's (2 first when included)."""
    primes = [2] if include_two else []
    for lo in range(0, len(keep), SPAN):
        primes.extend(compress(range(2 * lo + 1, 2 * (lo + SPAN) + 1, 2), keep[lo : lo + SPAN]))
        yield primes
        primes = []


def _basis(bound: int) -> PrimeBasis:
    """The primes at or below sqrt(bound), once `bound` passes the sieve's
    checks: ValidationError below 9, ResourceLimitError above DENSE_BOUND_MAX."""
    if bound < 9:
        raise ValidationError(f"bound must be at least 9, got {bound}")
    if bound > DENSE_BOUND_MAX:
        raise ResourceLimitError(
            f"bound {bound} exceeds the dense-sieve cap {DENSE_BOUND_MAX}"
        )
    return primes_leq_sqrt(bound)


def prime_spans(bound: int, include_two: bool = True) -> Iterator[list[int]]:
    """The primes below `bound` in ascending lists, one per SPAN K's (a
    list may be empty). The bound is checked and the mask struck at the
    call; the lists are built as they are asked for."""
    return _spans(_strike(bound, _basis(bound).odd_primes), include_two)


def primes_below(bound: int, include_two: bool = True) -> list[int]:
    """All primes below `bound` as 2K+1 over admissible K (plus 2 on request)."""
    return list(chain.from_iterable(prime_spans(bound, include_two)))


def primes_below_next_square(basis: PrimeBasis, include_two: bool = True) -> list[int]:
    """Primes below next_prime**2 - 1 using only this basis's progressions.

    The same odd primes suffice all the way up to that bound, so a basis
    built for some smaller bound loses nothing by sieving to the square.
    """
    bound = basis.next_prime ** 2 - 1
    if bound > DENSE_BOUND_MAX:
        raise ResourceLimitError(
            f"bound {bound} exceeds the dense-sieve cap {DENSE_BOUND_MAX}"
        )
    return list(chain.from_iterable(_spans(_strike(bound, basis.odd_primes), include_two)))
