import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import slow_is_prime, slow_primes_below, slow_smallest_factor
from primekit import oracle
from primekit.errors import ResourceLimitError, ValidationError
from primekit.oracle import (
    DETERMINISTIC_LIMIT,
    PROVEN_COMPOSITE,
    PROVEN_PRIME,
    SIEVE_LOOKUP,
    OracleVerdict,
    PrimeBasis,
    is_prime,
    large_primes,
    next_prime_after,
    odd_prime_product,
    primes_leq_sqrt,
    sieve_primes_below,
)


class TestSievePrimesBelow:
    def test_only_prime_below_three(self):
        assert sieve_primes_below(3) == [2]

    def test_textbook_ten(self):
        assert sieve_primes_below(10) == [2, 3, 5, 7]

    def test_matches_trial_division_at_120(self):
        expected = slow_primes_below(120)
        assert sieve_primes_below(120) == expected
        assert len(expected) == 30

    def test_limit_two_is_empty(self):
        assert sieve_primes_below(2) == []

    @pytest.mark.parametrize("limit", [1, 0, -5, (1 << 40) + 1])
    def test_out_of_range_limits(self, limit):
        with pytest.raises(ValidationError):
            sieve_primes_below(limit)

    def test_small_limit_sweep(self):
        for limit in range(2, 400):
            assert sieve_primes_below(limit) == slow_primes_below(limit), limit

    @pytest.mark.parametrize("limit", [1009, 4999, 65537])
    def test_medium_limits(self, limit):
        assert sieve_primes_below(limit) == slow_primes_below(limit)

    def test_segmented_path_agrees_with_simple(self, monkeypatch):
        # small segment size forces several segments over the same range
        simple = sieve_primes_below(200_000)
        monkeypatch.setattr(oracle, "SEGMENT_SIZE", 1 << 10)
        assert sieve_primes_below(200_000) == simple

    def test_prime_count_at_one_million(self):
        assert len(sieve_primes_below(10 ** 6)) == 78498

    @given(st.integers(min_value=2, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_trial_division(self, limit):
        assert sieve_primes_below(limit) == slow_primes_below(limit)


class TestIsPrime:
    def test_units_are_not_prime(self):
        for x in (0, 1):
            verdict = is_prime(x)
            assert verdict.status == "proven-composite"
            assert verdict.witness is None

    def test_113_prime(self):
        assert is_prime(113).status == "proven-prime"

    def test_1139_composite_with_witness(self):
        verdict = is_prime(1139)
        assert verdict.status == "proven-composite"
        assert verdict.witness == 17

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            is_prime(-7)

    def test_agrees_with_sieve_below_one_million(self):
        members = set(sieve_primes_below(10 ** 6))
        for x in range(10 ** 6):
            assert is_prime(x).is_prime == (x in members), x

    def test_every_verdict_below_the_lookup_limit(self):
        # each x in [2, 2^16) is answered by the lookup: its status, its
        # method, and a composite's least prime factor as the witness
        members = set(sieve_primes_below(1 << 16))
        for x in range(2, 1 << 16):
            if x in members:
                expected = OracleVerdict(x, PROVEN_PRIME, SIEVE_LOOKUP, None)
            else:
                expected = OracleVerdict(x, PROVEN_COMPOSITE, SIEVE_LOOKUP, slow_smallest_factor(x))
            assert is_prime(x) == expected, x

    def test_trial_division_band_against_slow_oracle(self):
        # exercises the path above the lookup table
        for x in range(10 ** 6, 10 ** 6 + 2000):
            assert is_prime(x).is_prime == slow_is_prime(x), x

    def test_deterministic_regime_large_prime(self):
        verdict = is_prime(2 ** 61 - 1)
        assert verdict.status == "proven-prime"
        assert verdict.method == "deterministic-spp"

    def test_probable_prime_above_deterministic_limit(self):
        value = 2 ** 89 - 1
        assert value > DETERMINISTIC_LIMIT
        verdict = is_prime(value)
        assert verdict.status == "probable-prime"
        assert verdict.method == "probabilistic-spp"

    def test_composite_above_deterministic_limit_is_proven(self):
        value = (2 ** 61 - 1) ** 2
        assert value > DETERMINISTIC_LIMIT
        verdict = is_prime(value)
        assert verdict.status == "proven-composite"

    def test_proven_below_deterministic_limit(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rng.randrange(2, 10 ** 12)
            assert is_prime(x).status in (PROVEN_PRIME, PROVEN_COMPOSITE)

    @given(st.integers(min_value=4, max_value=10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_witness_divides(self, x):
        verdict = is_prime(x)
        if verdict.witness is not None:
            assert verdict.status == "proven-composite"
            assert 1 < verdict.witness < x
            assert x % verdict.witness == 0


class TestPrimeBasis:
    def test_bound_119(self):
        basis = primes_leq_sqrt(119)
        assert basis.small_primes == (2, 3, 5, 7)
        assert basis.next_prime == 11

    def test_bound_120(self):
        basis = primes_leq_sqrt(120)
        assert basis.small_primes == (2, 3, 5, 7)
        assert basis.next_prime == 11

    def test_sqrt_boundary_inclusive(self):
        basis = primes_leq_sqrt(25)
        assert basis.small_primes == (2, 3, 5)
        assert basis.next_prime == 7

    def test_below_five_rejected(self):
        with pytest.raises(ValidationError):
            primes_leq_sqrt(4)

    def test_gap_property(self):
        # nothing prime strictly between the last small prime and next_prime
        for bound in (5, 9, 25, 120, 1000, 10 ** 4, 10 ** 6):
            basis = primes_leq_sqrt(bound)
            for x in range(basis.largest + 1, basis.next_prime):
                assert not slow_is_prime(x)
            assert slow_is_prime(basis.next_prime)
            assert basis.next_prime ** 2 > bound

    def test_small_primes_exactly_below_root(self):
        for bound in (5, 48, 119, 121, 122, 10 ** 4):
            basis = primes_leq_sqrt(bound)
            assert all(p * p <= bound for p in basis.small_primes)
            assert basis.next_prime ** 2 > bound

    def test_large_primes_extension(self):
        basis = primes_leq_sqrt(119)
        assert large_primes(basis, 4) == (11, 13, 17, 19)

    @pytest.mark.parametrize("small, next_prime, message", [
        ((), 3, "prime basis needs at least one small prime"),
        ((3, 2), 5, "small_primes must be strictly increasing"),
        ((2, 2, 3), 5, "small_primes must be strictly increasing"),
        ((2, 3), 3, "next_prime must exceed every small prime"),
    ])
    def test_malformed_basis_rejected(self, small, next_prime, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            PrimeBasis(10, small, next_prime)

    def test_next_prime_after(self):
        assert next_prime_after(10) == 11
        assert next_prime_after(11) == 13
        assert next_prime_after(1) == 2
        assert next_prime_after(2) == 3


class TestOddPrimeProduct:
    def test_example_1155(self):
        assert odd_prime_product(11) == 1155

    def test_single_odd_prime(self):
        assert odd_prime_product(3) == 3

    def test_product_up_to_29(self):
        assert odd_prime_product(29) == 3234846615

    def test_matches_direct_multiplication(self):
        for limit in (3, 7, 50, 200):
            expected = 1
            for p in slow_primes_below(limit + 1):
                if p != 2:
                    expected *= p
            assert odd_prime_product(limit) == expected

    def test_squarefree_and_exact_divisors(self):
        limit = 100
        value = odd_prime_product(limit)
        assert value % 2 == 1
        for p in slow_primes_below(300):
            if p == 2:
                continue
            if p <= limit:
                assert value % p == 0
                assert value % (p * p) != 0
            else:
                assert value % p != 0

    def test_digit_cap_names_the_cap(self):
        with pytest.raises(ResourceLimitError, match="cap of 10"):
            odd_prime_product(1000, max_digits=10)

    def test_digit_cap_from_the_logarithms(self):
        # 0.21 * 100 = 21 digits passes the first estimate under a cap of 30;
        # the sum of log10 p then gives the 37 digits of the product
        with pytest.raises(ResourceLimitError, match=r"^odd-prime product up to 100 needs about 37 decimal "
                                                     r"digits, over the configured cap of 30$"):
            odd_prime_product(100, max_digits=30)
        assert len(str(odd_prime_product(100, max_digits=37))) == 37

    def test_limit_below_three_rejected(self):
        with pytest.raises(ValidationError):
            odd_prime_product(2)


class TestVerdictShape:
    def test_json_round_trip(self):
        verdict = is_prime(1139)
        data = verdict.to_json_dict()
        assert data == {"status": "proven-composite", "method": "sieve-lookup", "witness": "17"}

    def test_verdict_is_frozen(self):
        verdict = is_prime(7)
        with pytest.raises(AttributeError):
            verdict.status = "proven-composite"
