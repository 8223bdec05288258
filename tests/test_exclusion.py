from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest

from helpers import slow_is_prime, slow_primes_below
from primekit.errors import ResourceLimitError, ValidationError
from primekit.exclusion import (
    BLOCK,
    BLOCK_K,
    SUPER_K,
    ExclusionSpec,
    _tables,
    excluded_k,
    prime_blocks,
    primes_below,
    primes_below_next_square,
)
from primekit.oracle import primes_leq_sqrt, sieve_primes_below


class TestExcludedK:
    def test_bound_120_progressions_verbatim(self):
        spec = ExclusionSpec.for_bound(120)
        assert excluded_k(spec, 0) == [
            4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 43, 46, 49, 52, 55, 58,
        ]
        assert excluded_k(spec, 1) == [12, 17, 22, 27, 32, 37, 42, 47, 52, 57]
        assert excluded_k(spec, 2) == [24, 31, 38, 45, 52, 59]

    def test_index_out_of_range(self):
        spec = ExclusionSpec.for_bound(120)
        with pytest.raises(ValidationError):
            excluded_k(spec, 3)
        with pytest.raises(ValidationError):
            excluded_k(spec, -1)

    def test_windows_are_exact_rationals(self):
        spec = ExclusionSpec.for_bound(120)
        assert spec.per_prime_windows[0] == (3, 1, Fraction(117, 6))
        assert spec.per_prime_windows[2] == (7, 3, Fraction(113, 14))

    def test_smallest_strike_is_the_square(self):
        # the first K struck for prime C turns R into exactly C^2
        for bound in (48, 120, 1000, 10 ** 4):
            spec = ExclusionSpec.for_bound(bound)
            for i, (prime, _, _) in enumerate(spec.per_prime_windows):
                ks = excluded_k(spec, i)
                if ks:
                    assert 2 * ks[0] + 1 == prime * prime

    def test_largest_strike_stays_below_bound(self):
        for bound in (48, 120, 997, 10 ** 4):
            spec = ExclusionSpec.for_bound(bound)
            for i, (prime, low, high) in enumerate(spec.per_prime_windows):
                ks = excluded_k(spec, i)
                if ks:
                    top_m = low + len(ks) - 1
                    assert prime * (2 * top_m + 1) < bound
                    assert Fraction(top_m) < high <= Fraction(top_m + 1)


class TestPrimesBelow:
    def test_bound_120_paper_mode(self):
        primes = primes_below(120, include_two=False)
        assert primes[0] == 3 and primes[-1] == 113
        assert len(primes) == 29
        assert primes == slow_primes_below(120)[1:]

    def test_bound_10_with_two(self):
        assert primes_below(10, include_two=True) == [2, 3, 5, 7]

    def test_bound_9_no_exclusions_apply(self):
        assert primes_below(9, include_two=False) == [3, 5, 7]

    def test_include_two_is_default(self):
        assert primes_below(100)[0] == 2

    @pytest.mark.parametrize("bound", [9, 10, 25, 48, 100, 120, 10 ** 4, 10 ** 6])
    def test_equals_oracle_sieve(self, bound):
        assert primes_below(bound, include_two=True) == sieve_primes_below(bound)

    def test_every_bound_to_4096_equals_oracle_sieve(self):
        # each bound ends the K range at another residue: the compress
        # range's last value must be kept exactly when it is a prime below bound
        reference = sieve_primes_below(4096)
        for bound in range(9, 4097):
            expected = reference[: bisect_left(reference, bound)]
            assert primes_below(bound) == expected, bound
            assert primes_below(bound, include_two=False) == expected[1:], bound

    def test_equals_oracle_sieve_around_block_edges(self):
        # the last K, (bound - 2) // 2, one below, at and one above the end
        # of one, two and three whole blocks, with either parity of the bound
        last_ks = [n * BLOCK_K - 1 + d for n in (1, 2, 3) for d in (-1, 0, 1)]
        bounds = [2 * k + 2 + odd for k in last_ks for odd in (0, 1)]
        reference = sieve_primes_below(max(bounds))
        for bound in bounds:
            expected = reference[: bisect_left(reference, bound)]
            assert primes_below(bound) == expected, bound
            assert primes_below(bound, include_two=False) == expected[1:], bound

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 10, 30, 31, 32, 100])
    def test_blocks_hold_the_oracle_primes_of_their_integers(self, q):
        # bounds BLOCK*q + {-1, 0, 1, 2}: the last block is whole, or holds
        # one K or two; the prefix gains a digit at 10^5 and 10^6, and the
        # edge falls in every phase of the wheel (q mod 3). Block i is
        # str(i) (empty for 0) and the suffixes that spell, digit for digit,
        # the primes in [BLOCK*i, BLOCK*(i+1)) below the bound
        reference = sieve_primes_below(BLOCK * q + 2)
        for bound in range(BLOCK * q - 1, BLOCK * q + 3):
            for include_two in (True, False):
                blocks = list(prime_blocks(bound, include_two))
                assert len(blocks) == -(-((bound - 2) // 2 + 1) // BLOCK_K), bound
                for i, (prefix, suffixes) in enumerate(blocks):
                    lo, hi = BLOCK * i, min(BLOCK * (i + 1), bound)
                    expected = reference[bisect_left(reference, lo) : bisect_left(reference, hi)]
                    if not include_two:
                        expected = [p for p in expected if p != 2]
                    assert prefix == (str(i) if i else ""), (bound, i)
                    assert [prefix + suffix for suffix in suffixes] == list(map(str, expected)), (bound, i)
                if bound == BLOCK * q + 2:
                    # its last block is the one K of BLOCK*q + 1, a composite
                    # for every q here, and yields no suffix
                    assert blocks[-1] == (str(q), []), bound

    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_super_block_edges_equal_oracle_sieve(self, m):
        # bounds 2*SUPER_K*m + {-1, 0, 1, 2}: the last super-block the wheel
        # reads is whole, or is cut after one K or two
        reference = sieve_primes_below(2 * SUPER_K * m + 2)
        for bound in range(2 * SUPER_K * m - 1, 2 * SUPER_K * m + 3):
            expected = reference[: bisect_left(reference, bound)]
            for include_two in (True, False):
                want = expected if include_two else expected[1:]
                assert primes_below(bound, include_two) == want, bound
                blocks = prime_blocks(bound, include_two)
                assert [int(prefix + suffix) for prefix, suffixes in blocks for suffix in suffixes] == want, bound

    def test_wheel_tables_equal_the_digits_of_each_r(self):
        # slow path: each entry built alone from str(R), for every R in
        # [0, 2*SUPER_K) coprime to 30, in order; block 0 reads plain
        # suffixes, every block of phase q mod 3 the 4-digit ones
        first, phases, offsets = _tables()
        coprime = [r for r in range(2 * SUPER_K) if gcd(r, 30) == 1]
        assert list(offsets) == coprime
        assert list(first) == [str(r) for r in coprime if r < BLOCK]
        assert len(phases) == 3
        for phase, table in enumerate(phases):
            assert list(table) == [str(r % BLOCK).zfill(4) for r in coprime if r // BLOCK == phase], phase

    @pytest.mark.parametrize("bound", [16385, 16386, 16387])
    def test_spans_cover_their_k_ranges(self, bound):
        # a last block cut part-way, not at a block edge: its last K is 8191
        # or 8192, the latter for an even and an odd bound. Each block spans
        # BLOCK_K K's, so block i holds exactly the primes R = 2K+1 of
        # K in [BLOCK_K*i, BLOCK_K*(i+1)) (2 in the first), ascending
        blocks = list(prime_blocks(bound))
        assert len(blocks) == -(-((bound - 2) // 2 + 1) // BLOCK_K) == 2
        reference = sieve_primes_below(bound)
        for i, (prefix, suffixes) in enumerate(blocks):
            lo, hi = 2 * i * BLOCK_K, 2 * (i + 1) * BLOCK_K
            assert [int(prefix + suffix) for suffix in suffixes] == [p for p in reference if lo <= p < hi], i

    def test_blocks_check_the_bound_at_the_call(self):
        with pytest.raises(ValidationError):
            prime_blocks(8)
        with pytest.raises(ResourceLimitError):
            prime_blocks(2 ** 31 + 1)

    def test_soundness_no_admissible_composite(self):
        for bound in (9, 48, 120, 2000):
            for value in primes_below(bound, include_two=False):
                assert slow_is_prime(value)

    def test_bound_too_small(self):
        with pytest.raises(ValidationError):
            primes_below(8)

    def test_dense_cap(self):
        with pytest.raises(ResourceLimitError):
            primes_below(2 ** 31 + 2)


class TestPrimesBelowNextSquare:
    def test_basis_for_120_reaches_120(self):
        basis = primes_leq_sqrt(120)
        assert basis.next_prime == 11
        assert primes_below_next_square(basis, include_two=False) == primes_below(
            120, include_two=False
        )

    def test_two_three_basis(self):
        basis = primes_leq_sqrt(10)  # {2, 3}, next prime 5
        assert basis.small_primes == (2, 3)
        assert primes_below_next_square(basis, include_two=False) == [
            3, 5, 7, 11, 13, 17, 19, 23,
        ]

    def test_singleton_basis(self):
        basis = primes_leq_sqrt(5)  # {2}, next prime 3: no odd strikes at all
        assert primes_below_next_square(basis, include_two=False) == [3, 5, 7]

    def test_dense_cap(self):
        # 46337 is the largest prime below sqrt(2^31) and 46349 the next, so
        # the square's bound passes the cap that primes_below applies
        basis = primes_leq_sqrt(46340 ** 2)
        assert basis.next_prime == 46349
        with pytest.raises(ResourceLimitError, match=f"bound {46349 ** 2 - 1} exceeds the dense-sieve cap"):
            primes_below_next_square(basis)

    def test_matches_oracle(self):
        for bound in (30, 120, 400):
            basis = primes_leq_sqrt(bound)
            top = basis.next_prime ** 2 - 1
            assert primes_below_next_square(basis, True) == sieve_primes_below(top)


class TestStruckCount:
    @pytest.mark.parametrize("bound", [9, 25, 48, 120, 121, 997, 10 ** 4, 10 ** 5])
    def test_equals_the_listed_k(self, bound):
        spec = ExclusionSpec.for_bound(bound)
        assert spec.struck_count() == sum(len(excluded_k(spec, i)) for i in range(len(spec.per_prime_windows)))

    def test_bound_120(self):
        assert ExclusionSpec.for_bound(120).struck_count() == 19 + 10 + 6


class TestKSet:
    """The struck K of excluded_k per odd prime against the admissible K
    behind primes_below."""

    @staticmethod
    def _struck_and_admissible(bound):
        spec = ExclusionSpec.for_bound(bound)
        k_max = (bound - 2) // 2  # largest K with 2K + 1 < bound
        struck = {
            prime: {k for k in excluded_k(spec, i) if k <= k_max}
            for i, (prime, _, _) in enumerate(spec.per_prime_windows)
        }
        admissible = {(r - 1) // 2 for r in primes_below(bound, include_two=False)}
        return struck, admissible

    def test_admissible_and_excluded_partition(self):
        struck, admissible = self._struck_and_admissible(120)
        every_struck = set().union(*struck.values())
        assert admissible.isdisjoint(every_struck)
        top = 59  # ceil(119/2) - 1
        assert admissible | every_struck == set(range(1, top + 1))

    def test_boundary_k_59_struck_only_by_seven(self):
        # K=59 sits at the very top of the range and is struck by C=7 alone
        struck, admissible = self._struck_and_admissible(120)
        assert 59 in struck[7]
        assert 59 not in struck[3]
        assert 59 not in struck[5]
        assert 59 not in admissible

    def test_multiply_struck_k_is_fine(self):
        # 52 is on both the C=5 and C=7 progressions; set semantics
        struck, _ = self._struck_and_admissible(120)
        assert 52 in struck[5] and 52 in struck[7]
