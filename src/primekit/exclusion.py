"""Residue-exclusion sieve: primes as R = 2K+1 with K dodging progressions.

Every odd composite below a bound factors as C*(2m+1) for some odd prime
C <= sqrt(bound), which in K-space is the arithmetic progression
K = C*m + (C-1)/2. Striking those progressions over the window
(C-1)/2 <= m < (bound-C)/(2C) leaves exactly the odd primes. Structurally
this is a wheel-style sieve, so the admissible K are kept in a byte mask;
the exact rational window bounds are kept around (and are what excluded_k
reports) because an off-by-one at either end silently drops the largest
prime or keeps a composite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import ResourceLimitError, ValidationError
from .oracle import PrimeBasis, primes_leq_sqrt

DENSE_BOUND_MAX = 1 << 31


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


def _admissible_values(bound: int, odd_primes: tuple[int, ...], include_two: bool) -> list[int]:
    k_max = (bound - 2) // 2  # largest K with R = 2K+1 < bound
    keep = bytearray(b"\x01") * (k_max + 1)
    keep[0] = 0  # K = 0 is R = 1
    for p in odd_primes:
        first = (p * p - 1) // 2  # m = (p-1)/2, i.e. R = p*p
        if first <= k_max:
            keep[first :: p] = bytes(len(range(first, k_max + 1, p)))
    primes = [2] if include_two else []
    primes.extend(compress(range(1, 2 * k_max + 2, 2), keep))  # R = 2K+1 for K = 0..k_max
    return primes


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


def primes_below(bound: int, include_two: bool = True) -> list[int]:
    """All primes below `bound` as 2K+1 over admissible K (plus 2 on request)."""
    return _admissible_values(bound, _basis(bound).odd_primes, include_two)


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
    return _admissible_values(bound, basis.odd_primes, include_two)
