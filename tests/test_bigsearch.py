import random
from fractions import Fraction
from math import gcd, log2

import pytest

from helpers import slow_is_prime
from primekit.bigsearch import (
    build_state,
    k_window,
    min_exponent,
    odd_k_candidates,
    search,
)
from primekit.errors import ResourceLimitError, ValidationError


class TestBuildState:
    def test_seed_13(self):
        state = build_state(13)
        assert state.odd_limit == 11
        assert state.product == 1155
        assert (state.low, state.high) == (13, 168)

    def test_seed_5(self):
        state = build_state(5)
        assert state.odd_limit == 3 and state.product == 3

    def test_composite_seed_rejected(self):
        with pytest.raises(ValidationError, match="composite"):
            build_state(9)

    def test_tiny_seed_rejected(self):
        with pytest.raises(ValidationError):
            build_state(3)

    def test_digit_cap_enforced(self):
        with pytest.raises(ResourceLimitError, match="cap of 10"):
            build_state(101, c_digit_cap=10)


class TestKWindow:
    def test_exact_rationals_at_n10(self):
        state = build_state(13)
        lo, hi = k_window(state, 10)
        assert lo == Fraction(1037, 1155)
        assert hi == Fraction(1192, 1155)
        assert odd_k_candidates(state, 10) == [1]

    def test_n18_yields_227(self):
        state = build_state(13)
        assert odd_k_candidates(state, 18) == [227]

    def test_n19_only_an_even_candidate(self):
        # 454 is the only integer in the window and is even, so dropped
        state = build_state(13)
        lo, hi = k_window(state, 19)
        assert lo < 454 <= hi
        assert odd_k_candidates(state, 19) == []

    def test_exponent_must_be_positive(self):
        with pytest.raises(ValidationError):
            k_window(build_state(13), 0)

    def test_window_membership_equals_range_membership(self):
        # k sits in the rational window iff c*k - 2^n lands in (seed, seed^2-1]
        rng = random.Random(424242)
        seeds = [build_state(s) for s in (5, 7, 13, 31)]
        for _ in range(1000):
            state = rng.choice(seeds)
            n = rng.randrange(1, 40)
            lo, hi = k_window(state, n)
            k = rng.randrange(max(1, int(lo) - 2), int(hi) + 3)
            value = state.product * k - 2 ** n
            in_window = lo < Fraction(k) <= hi
            in_range = state.low < value <= state.high
            assert in_window == in_range, (state.seed, n, k)


class TestMinExponent:
    def test_seed_13_unit_multiplier(self):
        state = build_state(13)
        assert min_exponent(state) == 10
        assert min_exponent(state, unit_multiplier=True) == 10
        assert min_exponent(state, unit_multiplier=False) == 10

    def test_seed_5_falls_back_to_nonempty(self):
        state = build_state(5)
        assert min_exponent(state) == 1
        with pytest.raises(ValidationError):
            min_exponent(state, unit_multiplier=True)
        assert min_exponent(state, unit_multiplier=False) == 1

    def test_window_at_min_exponent_is_nonempty(self):
        for seed in (5, 7, 13):
            state = build_state(seed)
            assert odd_k_candidates(state, min_exponent(state))

    def test_scan_cap(self):
        state = build_state(31)
        with pytest.raises(ResourceLimitError):
            min_exponent(state, unit_multiplier=False, max_scan=3)

    def test_scan_cap_bounds_the_unit_multiplier_exponent(self):
        state = build_state(13)  # k = 1 first fits at n = 10
        assert min_exponent(state, max_scan=10) == 10
        for unit in (None, True):
            with pytest.raises(ResourceLimitError):
                min_exponent(state, unit_multiplier=unit, max_scan=9)


class TestSearch:
    def test_seed_13_trace(self):
        state = build_state(13)
        hits = search(state, 18)
        assert [(h.k, h.n, h.value) for h in hits] == [(1, 10, 131), (227, 18, 41)]
        for hit in hits:
            cert = hit.certificate
            assert cert.accepted and cert.construction == "big-search"
            assert cert.window == (13, 168)
            assert cert.verdict.status == "proven-prime"

    def test_seed_5_first_window(self):
        hits = search(build_state(5), 1)
        assert [(h.k, h.value) for h in hits] == [(3, 7), (5, 13), (7, 19)]

    def test_max_hits_zero(self):
        assert search(build_state(13), 18, max_hits=0) == []

    def test_max_hits_one(self):
        hits = search(build_state(13), 18, max_hits=1)
        assert len(hits) == 1 and hits[0].value == 131

    def test_max_exponent_below_start(self):
        with pytest.raises(ValidationError):
            search(build_state(13), 5)

    def test_hits_are_prime_odd_in_range_coprime(self):
        for seed in (5, 7, 13, 31):
            state = build_state(seed)
            limit = int(2 * log2(seed * seed)) + 1
            start = 1
            hits = search(state, limit, min_n=start)
            for hit in hits:
                assert slow_is_prime(hit.value)
                assert hit.value % 2 == 1
                assert hit.k % 2 == 1
                assert state.low < hit.value <= state.high
                assert gcd(hit.value, state.product) == 1

    def test_enumeration_order(self):
        state = build_state(7)
        hits = search(state, 8, min_n=1)
        keys = [(h.n, h.k) for h in hits]
        assert keys == sorted(keys)

    def test_certificate_params_round_trip(self):
        hit = search(build_state(13), 10)[0]
        data = hit.certificate.to_json_dict()
        assert data["params"] == {"seed": "13", "k": "1", "n": 10}
        assert data["value"] == "131"
