"""Residue-exclusion sieve: primes as R = 2K+1 with K dodging progressions.

Every odd composite below a bound factors as C*(2m+1) for some odd prime
C <= sqrt(bound), which in K-space is the arithmetic progression
K = C*m + (C-1)/2. Striking those progressions over the window
(C-1)/2 <= m < (bound-C)/(2C) leaves exactly the odd primes. Structurally
this is a wheel-style sieve, so the admissible K are kept in a byte mask;
the exact rational window bounds are kept around (excluded_k and
struck_count read their ends off them) because an off-by-one at either end
silently drops the largest prime or keeps a composite.

The mask is struck in one pass and then read out as decimal text, one
block of 10^4 integers (5,000 K's) at a time (prime_blocks), so a caller
can write the first primes before the last are read out. The read-out
turns a mod-30 wheel (Pritchard, Acta Informatica 17, 1982): of every 15
K's, the 7 whose R is a multiple of 3 or 5 are never read, so 3 and 5
take effect because their K's are never read, not by a strike, and are
written ahead of block 0's primes. Each super-block of three blocks
(30,000 integers, 1,000 turns of the wheel) is gathered, when its first
block is asked for, by eight strided copies into one reused buffer of
the 8,000 K's whose R is coprime to 30, and each of its blocks reads its
slice of that buffer. Every odd R of block q >= 1 is str(q) followed by
a 4-digit zero-padded suffix, so a block's primes are its prefix and the
suffixes its slice keeps, picked from a cached table for its phase,
q mod 3 (block 0's without leading zeros): no int is made and nothing is
formatted per K. Memory is the mask, one 8,000-byte wheel buffer and
the tables. This is the segmented output of Bays & Hudson, BIT 17
(1977). primes_below and primes_below_next_square read the same wheel
into lists of ints.
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
# K's per super-block: three blocks, or 1,000 turns of the mod-30 wheel
# (15 K's a turn). _CLASSES are the K's of a turn whose R = 2K+1 is
# coprime to 30 (R = 1, 7, 11, 13, 17, 19, 23, 29 mod 30); the wheel reads
# WHEEL_K of them per super-block, and _CUTS splits those into its blocks
SUPER_K = 3 * BLOCK_K
_CLASSES = tuple(c for c in range(15) if (2 * c + 1) % 3 and (2 * c + 1) % 5)
WHEEL_K = SUPER_K // 15 * len(_CLASSES)
_CUTS = tuple(sum(len(range(c, p * BLOCK_K, 15)) for c in _CLASSES) for p in range(4))


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
        basis = _basis(bound)
        windows = tuple((p, (p - 1) // 2, Fraction(bound - p, 2 * p)) for p in basis.odd_primes)
        return cls(bound=bound, basis=basis, per_prime_windows=windows)

    def struck_count(self) -> int:
        """How many K values excluded_k lists over every prime, counted
        from the windows without listing them."""
        return sum(max(0, ceil(m_high) - m_low) for _, m_low, m_high in self.per_prime_windows)


def excluded_k(spec: ExclusionSpec, prime_index: int) -> list[int]:
    """Struck K values for the prime at `prime_index` (0-based over the odd
    basis primes): K = prime*m + (prime-1)/2 for the integers m in the
    window, m_low <= m < ceil(m_high) since m_high is exact."""
    if not 0 <= prime_index < len(spec.per_prime_windows):
        raise ValidationError(
            f"prime index {prime_index} out of range for {len(spec.per_prime_windows)} odd primes"
        )
    prime, m_low, m_high = spec.per_prime_windows[prime_index]
    half = (prime - 1) // 2
    return list(range(prime * m_low + half, prime * ceil(m_high) + half, prime))


def _strike(bound: int, odd_primes: tuple[int, ...]) -> bytearray:
    """keep[K] for R = 2K+1 < bound is 0 when R is 1 or a multiple of an
    odd prime in odd_primes from 7 up (its square and above). 3 and 5
    strike nothing: the wheel never reads their K's."""
    size = bound // 2  # K's with R = 2K+1 < bound
    keep = bytearray(b"\x01") * size
    keep[0] = 0  # K = 0 is R = 1
    for p in odd_primes:
        if p > 5:
            first = (p * p - 1) // 2  # m = (p-1)/2, i.e. R = p*p
            keep[first::p] = bytes(len(range(first, size, p)))
    return keep


def _gather(out, table, base: int = 0) -> int:
    """Set out[8*i + j] to table[base + 15*i + _CLASSES[j]] over one
    super-block, stopping where table ends: its entries whose R is coprime
    to 30, in order. Returns how many it set."""
    read = 0
    for j, c in enumerate(_CLASSES):
        part = table[base + c : base + SUPER_K : 15]
        out[j : 8 * len(part) : 8] = part
        read += len(part)
    return read


def _wheels(keep: bytearray) -> Iterator[bytearray]:
    """The wheel of each super-block of keep, gathered as it is asked for
    into one reused WHEEL_K-byte buffer; the last is cut where keep ends."""
    wheel = bytearray(WHEEL_K)
    for base in range(0, len(keep), SUPER_K):
        read = _gather(wheel, keep, base)
        yield wheel if read == WHEEL_K else wheel[:read]


def _wheel_order(table) -> list:
    """The wheel's entries of a SUPER_K-entry table in K order."""
    out = [None] * WHEEL_K
    _gather(out, table)
    return out


@cache
def _tables() -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...], tuple[int, ...]]:
    """What the wheel's entries read out as: block 0's suffixes without
    leading zeros, each phase's 4-digit suffixes (block q's phase is q mod 3)
    and R mod 2*SUPER_K. Built from digit strings and strided slices at the
    first call."""
    digits = "0123456789"
    pairs = [a + b for a in digits for b in digits]
    odd_pairs = [a + b for a in digits for b in "13579"]
    padded = [x + y for x in pairs for y in odd_pairs]  # a block's odd R in K order: '0001' to '9999'
    plain = [s.lstrip("0") for s in padded[:500]] + padded[500:]  # 500 odd R < 1000
    ordered = _wheel_order(padded * 3)
    phases = tuple(tuple(ordered[lo:hi]) for lo, hi in zip(_CUTS, _CUTS[1:]))
    first = tuple(_wheel_order(plain + padded * 2)[: _CUTS[1]])
    return first, phases, tuple(_wheel_order(range(1, 2 * SUPER_K, 2)))


def _text_blocks(wheels: Iterator[bytearray], n_blocks: int, include_two: bool) -> Iterator[tuple[str, list[str]]]:
    """(prefix, suffixes) for the first n_blocks blocks the wheels read:
    block q >= 1 has prefix str(q) and 4-digit suffixes, block 0 an empty
    prefix and plain suffixes, 3 and 5 first (2 before them when included).
    A list may be empty."""
    first, phases, _ = _tables()
    wheel = next(wheels)
    head = ["2", "3", "5"] if include_two else ["3", "5"]
    yield "", head + list(compress(first, wheel[: _CUTS[1]]))
    for q in range(1, n_blocks):
        phase = q % 3
        if not phase:
            wheel = next(wheels)
        yield str(q), list(compress(phases[phase], wheel[_CUTS[phase] : _CUTS[phase + 1]]))


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
    wheels = _wheels(_strike(bound, _basis(bound).odd_primes))
    return _text_blocks(wheels, -(-(bound // 2) // BLOCK_K), include_two)


def _ints(wheels: Iterator[bytearray], include_two: bool) -> list[int]:
    """The primes the wheels read, as ints in order: 3 and 5 (2 first when
    included), then the R = 2K+1 of each admissible K."""
    offsets = _tables()[2]
    out = [2, 3, 5] if include_two else [3, 5]
    for s, wheel in enumerate(wheels):
        found = compress(offsets, wheel)
        out += map((2 * SUPER_K * s).__add__, found) if s else found
    return out


def primes_below(bound: int, include_two: bool = True) -> list[int]:
    """All primes below `bound` as 2K+1 over admissible K (plus 2 on request)."""
    return _ints(_wheels(_strike(bound, _basis(bound).odd_primes)), include_two)


def primes_below_next_square(basis: PrimeBasis, include_two: bool = True) -> list[int]:
    """Primes below next_prime**2 - 1 using only this basis's progressions.

    The same odd primes suffice all the way up to that bound, so a basis
    built for some smaller bound loses nothing by sieving to the square.
    """
    bound = basis.next_prime ** 2 - 1
    _check_cap(bound)
    return _ints(_wheels(_strike(bound, basis.odd_primes)), include_two)
