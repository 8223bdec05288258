"""Residue-exclusion sieve: primes as R = 2K+1 with K dodging progressions.

Every odd composite below a bound factors as C*(2m+1) for some odd prime
C <= sqrt(bound), which in K-space is the arithmetic progression
K = C*m + (C-1)/2. Striking those progressions over the window
(C-1)/2 <= m < (bound-C)/(2C) leaves exactly the odd primes. Structurally
this is a wheel-style sieve, so the admissible K are kept in a byte mask;
the exact rational window bounds are kept around (and are what excluded_k
reports) because an off-by-one at either end silently drops the largest
prime or keeps a composite.

The mask is struck in one pass and then read out as decimal text, one
block of 10^4 integers (5,000 K's) at a time (prime_blocks), so a caller
can write the first primes before the last are read out. Every odd R of
block q >= 1 is str(q) followed by a 4-digit zero-padded suffix, so a
block's primes are its prefix and the suffixes its mask keeps, picked
from one cached table (block 0's from the same table without leading
zeros): no int is made and nothing is formatted per K. Memory is the
mask, one block and the suffix tables. This is the segmented output of
Bays & Hudson, BIT 17 (1977). primes_below and primes_below_next_square
return lists of ints, which they read straight from the same mask.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from math import ceil

from .errors import ResourceLimitError, ValidationError
from .oracle import PrimeBasis, primes_leq_sqrt

DENSE_BOUND_MAX = 1 << 31
# integers per block that prime_blocks yields, and the K's they hold: a
# power of ten, so a block's odd R share their digits but the last four.
# One block is about 700 primes near 2.5e6, so its lines fill most of an
# 8 KiB block of a buffered stdout
BLOCK = 10 ** 4
BLOCK_K = BLOCK // 2


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


@cache
def _suffixes() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The odd R of a block in K order as the text after its prefix: 4
    digits, '0001' to '9999', and for block 0 the same without leading
    zeros, '1' to '9999'. Built from digit strings at the first call."""
    digits = "0123456789"
    pairs = [a + b for a in digits for b in digits]
    odd_pairs = [a + b for a in digits for b in "13579"]
    padded = tuple([x + y for x in pairs for y in odd_pairs])
    return padded, tuple([s.lstrip("0") for s in padded[:500]]) + padded[500:]  # 500 odd R < 1000


def _blocks(keep: bytearray, include_two: bool) -> Iterator[tuple[str, list[str]]]:
    """(prefix, suffixes) per BLOCK integers, the suffixes those of the
    admissible K: block q >= 1 has prefix str(q) and 4-digit suffixes,
    block 0 an empty prefix and plain suffixes (2 first when included).
    A list may be empty."""
    padded, plain = _suffixes()
    first = list(compress(plain, keep[:BLOCK_K]))
    yield "", ["2", *first] if include_two else first
    for q in range(1, -(-len(keep) // BLOCK_K)):
        lo = q * BLOCK_K
        yield str(q), list(compress(padded, keep[lo : lo + BLOCK_K]))


def _check_cap(bound: int) -> None:
    """ResourceLimitError when the mask for `bound` would pass the cap."""
    if bound > DENSE_BOUND_MAX:
        raise ResourceLimitError(
            f"bound {bound} exceeds the dense-sieve cap {DENSE_BOUND_MAX}"
        )


def _basis(bound: int) -> PrimeBasis:
    """The primes at or below sqrt(bound), once `bound` passes the sieve's
    checks: ValidationError below 9, ResourceLimitError above DENSE_BOUND_MAX."""
    if bound < 9:
        raise ValidationError(f"bound must be at least 9, got {bound}")
    _check_cap(bound)
    return primes_leq_sqrt(bound)


def prime_blocks(bound: int, include_two: bool = True) -> Iterator[tuple[str, list[str]]]:
    """The primes below `bound` as decimal text, ascending, one
    (prefix, suffixes) per BLOCK integers: each prime is prefix + suffix.
    The bound is checked and the mask struck at the call; the blocks are
    read out as they are asked for."""
    return _blocks(_strike(bound, _basis(bound).odd_primes), include_two)


def _values(keep: bytearray, include_two: bool) -> list[int]:
    """The R = 2K+1 of the admissible K, as ints in order (2 first when
    included)."""
    odd = compress(range(1, 2 * len(keep), 2), keep)
    return [2, *odd] if include_two else list(odd)


def primes_below(bound: int, include_two: bool = True) -> list[int]:
    """All primes below `bound` as 2K+1 over admissible K (plus 2 on request)."""
    return _values(_strike(bound, _basis(bound).odd_primes), include_two)


def primes_below_next_square(basis: PrimeBasis, include_two: bool = True) -> list[int]:
    """Primes below next_prime**2 - 1 using only this basis's progressions.

    The same odd primes suffice all the way up to that bound, so a basis
    built for some smaller bound loses nothing by sieving to the square.
    """
    bound = basis.next_prime ** 2 - 1
    _check_cap(bound)
    return _values(_strike(bound, basis.odd_primes), include_two)
