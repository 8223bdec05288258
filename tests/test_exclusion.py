from fractions import Fraction

import pytest

from helpers import slow_is_prime, slow_primes_below
from primekit.errors import ValidationError
from primekit.exclusion import (
    ExclusionSpec,
    excluded_k,
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

    def test_soundness_no_admissible_composite(self):
        for bound in (9, 48, 120, 2000):
            for value in primes_below(bound, include_two=False):
                assert slow_is_prime(value)

    def test_bound_too_small(self):
        with pytest.raises(ValidationError):
            primes_below(8)

    def test_dense_cap(self):
        from primekit.errors import ResourceLimitError

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

    def test_matches_oracle(self):
        for bound in (30, 120, 400):
            basis = primes_leq_sqrt(bound)
            top = basis.next_prime ** 2 - 1
            assert primes_below_next_square(basis, True) == sieve_primes_below(top)


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
