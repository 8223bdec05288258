import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import slow_is_prime
from primekit.errors import ValidationError
from primekit.mersenne import (
    GeneralMersenneParams,
    compute_zn,
    check_exponent_contrapositive,
    check_multiple_step_composite,
    check_strict_growth,
    scan_prime_zn,
)


class TestComputeZn:
    def test_classic_case(self):
        result = compute_zn(GeneralMersenneParams(1, 1, 2))
        assert result.value == 3
        assert result.verdict.is_prime

    def test_prime_exponent_composite_value(self):
        # prime exponent does not make the value prime: the converse fails
        result = compute_zn(GeneralMersenneParams(1, 1, 11))
        assert result.value == 2047
        assert not result.verdict.is_prime
        assert result.verdict.witness == 23

    def test_step_equal_base(self):
        result = compute_zn(GeneralMersenneParams(2, 2, 2))
        assert result.value == 6
        assert not result.verdict.is_prime

    def test_direct_formula_sample(self):
        rng = random.Random(99)
        for _ in range(200):
            a = rng.randrange(1, 30)
            c = rng.randrange(1, 30)
            n = rng.randrange(2, 12)
            value = compute_zn(GeneralMersenneParams(a, c, n)).value
            assert value == ((a + c) ** n - a ** n) // c

    @pytest.mark.parametrize("base,step,exponent", [(0, 1, 2), (1, 0, 2), (1, 1, 1)])
    def test_invalid_params(self, base, step, exponent):
        with pytest.raises(ValidationError):
            GeneralMersenneParams(base, step, exponent)


class TestExactDivisibility:
    def test_fuzzed_grid(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            a = rng.randrange(1, 200)
            c = rng.randrange(1, 200)
            n = rng.randrange(2, 24)
            assert ((a + c) ** n - a ** n) % c == 0

    @given(
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, a, c, n):
        assert ((a + c) ** n - a ** n) % c == 0


class TestExponentContrapositive:
    def test_classic_mersenne(self):
        assert check_exponent_contrapositive(1, 1, 12) == []

    def test_general_pair(self):
        assert check_exponent_contrapositive(3, 4, 10) == []

    def test_multiple_step_instance(self):
        assert check_exponent_contrapositive(2, 6, 8) == []
        assert check_multiple_step_composite(2, 3, 8) == []

    def test_max_exponent_too_small(self):
        with pytest.raises(ValidationError):
            check_exponent_contrapositive(1, 1, 3)


class TestMultipleStep:
    def test_base_two(self):
        assert check_multiple_step_composite(2, 1, 6) == []

    def test_base_three(self):
        assert check_multiple_step_composite(3, 2, 5) == []

    def test_predicted_factor_divides(self):
        result = compute_zn(GeneralMersenneParams(2, 6, 2))
        assert result.value == 10
        assert result.value % 2 == 0  # base^(n-1) = 2

    def test_base_one_rejected(self):
        with pytest.raises(ValidationError):
            check_multiple_step_composite(1, 1, 6)

    def test_multiplier_zero_rejected(self):
        with pytest.raises(ValidationError, match="multiplier must be >= 1"):
            check_multiple_step_composite(2, 0, 5)


class TestStrictGrowth:
    def test_square_case(self):
        assert check_strict_growth(2, 100)

    def test_fifth_powers(self):
        assert check_strict_growth(5, 50)

    def test_exponent_below_two_rejected(self):
        with pytest.raises(ValidationError, match="exponent must be >= 2"):
            check_strict_growth(1, 5)

    def test_max_base_below_two_rejected(self):
        with pytest.raises(ValidationError, match="max_base must be >= 2"):
            check_strict_growth(5, 1)

    def test_beats_mersenne_at_boundary(self):
        # n=3, a=2: 27 - 8 = 19 > 2^3 - 1 = 7
        assert (2 + 1) ** 3 - 2 ** 3 == 19 > 2 ** 3 - 1
        assert check_strict_growth(3, 2)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_property(self, n, a):
        assert (a + 1) ** n - a ** n > a ** n - (a - 1) ** n
        assert (a + 1) ** n - a ** n > 2 ** n - 1


class TestScan:
    def test_mersenne_exponents_to_13(self):
        hits = scan_prime_zn((1, 1), (1, 1), (2, 13))
        assert [r.params.exponent for r in hits] == [2, 3, 5, 7, 13]

    def test_base_two_small(self):
        hits = scan_prime_zn((2, 2), (1, 1), (2, 2))
        assert len(hits) == 1 and hits[0].value == 5

    def test_skip_agrees_with_full_grid(self):
        fast = scan_prime_zn((1, 3), (1, 3), (2, 8))
        full = scan_prime_zn((1, 3), (1, 3), (2, 8), skip=False)
        key = lambda r: (r.params.base, r.params.step, r.params.exponent)
        assert [key(r) for r in fast] == [key(r) for r in full]

    def test_skipped_tuples_are_composite(self):
        # the two skip rules only ever drop composite values
        for a in range(1, 4):
            for c in range(1, 4):
                for n in range(2, 9):
                    skipped = (not slow_is_prime(n)) or (a >= 2 and c % a == 0)
                    if skipped:
                        value = compute_zn(GeneralMersenneParams(a, c, n)).value
                        assert not slow_is_prime(value), (a, c, n, value)

    def test_grid_of_nine_with_two_skips(self):
        evaluated = scan_prime_zn((1, 3), (1, 3), (2, 2), skip=False)
        assert len({(r.params.base, r.params.step) for r in evaluated}) <= 9
        fast = scan_prime_zn((1, 3), (1, 3), (2, 2))
        skipped_pairs = {(2, 2), (3, 3)}
        assert all((r.params.base, r.params.step) not in skipped_pairs for r in fast)

    def test_empty_range_rejected(self):
        with pytest.raises(ValidationError):
            scan_prime_zn((3, 1), (1, 1), (2, 4))
        with pytest.raises(ValidationError):
            scan_prime_zn((1, 1), (1, 1), (1, 4))

    def test_oracle_confirms_hits(self):
        for result in scan_prime_zn((1, 4), (1, 4), (2, 11)):
            assert slow_is_prime(result.value)
