import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, log2

import pytest

import brute_force_bigsearch as reference
from brute_force_bigsearch import _window_values, k_window, odd_k_candidates
from helpers import slow_is_prime
from primekit import bigsearch
from primekit.bigsearch import SearchHit, build_state, every_hit, proven_hits, search
from primekit.cli import run
from primekit.errors import InvariantViolation, ResourceLimitError, ValidationError, digit_limit
from primekit.oracle import OracleVerdict


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


class TestSearch:
    def test_seed_13_trace(self):
        state = build_state(13)
        hits = search(state, 18)
        assert [(h.k, h.n, h.value) for h in hits] == [(1, 10, 131), (227, 18, 41)]
        for hit in hits:
            assert tuple(hit) == (hit.n, hit.k, hit.value, hit.verdict)
            assert (state.low, state.high) == (13, 168) and 13 < hit.value <= 168
            assert hit.verdict.status == "proven-prime" and hit.verdict.value == hit.value

    def test_seed_5_first_window(self):
        hits = search(build_state(5), 1)
        assert [(h.k, h.value) for h in hits] == [(3, 7), (5, 13), (7, 19)]

    def test_max_hits_zero(self):
        assert search(build_state(13), 18, max_hits=0) == []

    def test_max_hits_one(self):
        hits = search(build_state(13), 18, max_hits=1)
        assert len(hits) == 1 and hits[0].value == 131

    def test_negative_max_hits(self):
        for max_hits in (-1, -5):
            with pytest.raises(ValidationError, match="max hits"):
                search(build_state(13), 18, max_hits=max_hits)

    def test_max_exponent_below_start(self):
        with pytest.raises(ValidationError):
            search(build_state(13), 5, min_n=7)

    def test_no_hit_is_an_empty_result(self):
        # seed 17 has no hit at any exponent: that is a result, not a cap
        assert search(build_state(17), 1000) == []

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

    @pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
    def test_k_up_to_the_int_to_str_limit(self):
        # seed 7: c = 15 and every exponent has hits; the last exponent whose
        # largest k still fits the digit limit keeps them, the next one refuses
        limit = digit_limit()
        state = build_state(7)
        last = (state.product * 10 ** limit - state.high - 1).bit_length() - 1
        hits = search(state, last, min_n=last - 2)
        assert {h.n for h in hits} == {last - 2, last - 1, last}
        assert len(str(hits[-1].k)) == limit
        with pytest.raises(ResourceLimitError):
            search(state, last + 1, min_n=last - 2)

    @pytest.mark.parametrize("seed", [5, 7, 11, 13])
    def test_is_proven_hits_as_a_list(self, seed):
        state = build_state(seed)
        for min_n in (None, 1, 7):
            for max_hits in (None, 0, 1, 5):
                hits = search(state, 150, max_hits, min_n)
                assert hits == list(proven_hits(state, 150, max_hits, min_n)), (min_n, max_hits)
                assert all(type(hit) is SearchHit for hit in hits)
                # not vacuous: every cap but 0 is reached below exponent 150
                assert len(hits) == max_hits if max_hits is not None else len(hits) > 5

    def test_certificate_params_round_trip(self, tmp_path, capsys):
        # a hit's log record carries (seed, k, n) as its params: what
        # verify and a rebuild need to reproduce its value
        hit = search(build_state(13), 10)[0]
        log = tmp_path / "hits.jsonl"
        assert run(["bigsearch", "--seed", "13", "--max-n", "10", "--log", str(log)]) == 0
        capsys.readouterr()
        (data,) = map(json.loads, log.read_text().splitlines())
        assert data["construction"] == "big-search"
        assert data["params"] == {"seed": "13", "k": str(hit.k), "n": hit.n} == {"seed": "13", "k": "1", "n": 10}
        assert data["value"] == str(hit.value) == "131"
        assert data["verdict"] == hit.verdict.to_json_dict()


def _outcome(call):
    """A call's result, or its error's type and text."""
    try:
        return call()
    except (ValidationError, ResourceLimitError, InvariantViolation) as exc:
        return type(exc), str(exc)


def _hit_keys(hits):
    return [(h.n, h.k, h.value, h.verdict) for h in hits]


PRIME_SEEDS = [p for p in range(5, 114) if slow_is_prime(p)]


class TestMatchesWindowReference:
    """The residue-class walk against the seed's exact rational windows."""

    def test_search(self):
        for seed in PRIME_SEEDS:
            state = build_state(seed)
            for min_n in (None, 1, 7):
                for max_exponent in (1, 7, 18, 300):
                    for max_hits in (None, 1, 3):
                        args = (state, max_exponent, max_hits)
                        # without min_n the search starts at exponent 1
                        want = _outcome(lambda: _hit_keys(reference.search(*args, min_n=min_n or 1)))
                        got = _outcome(lambda: _hit_keys(search(*args, min_n)))
                        assert got == want, (seed, min_n, max_exponent, max_hits)

    def test_nonpositive_start(self):
        state = build_state(13)
        for min_n in (0, -3):
            want = _outcome(lambda: reference.search(state, 18, min_n=min_n))
            assert _outcome(lambda: search(state, 18, min_n=min_n)) == want


def _expand(hit_set, last):
    """(n, R) for every n <= last at which a triple puts R, in (n, R) order."""
    return sorted((n, value) for value, n0, period in hit_set for n in range(n0, last + 1, period))


def _walk(state, last):
    return [(n, value) for n, values in _window_values(state, 1, last) for value in values]


def _order_of_two(modulus):
    n, power = 1, 2 % modulus
    while power != 1:
        n, power = n + 1, 2 * power % modulus
    return n


class TestEveryHit:
    """The hit set solved by discrete logs against the exponent-by-exponent walk."""

    def test_expansion_matches_the_walk(self):
        for seed in PRIME_SEEDS:
            state = build_state(seed)
            assert _expand(every_hit(state), 1500) == _walk(state, 1500), seed

    @pytest.mark.parametrize("seed, high", [(19, 15014), (23, 100000), (29, 100000)])
    def test_wider_windows_match_the_walk(self, seed, high):
        # no real seed past 13 has a hit, so windows (1, high] wider than the
        # seed's leave hits for c's last one or two primes to refine, with
        # moduli that share a factor (60 and ord_17(2) = 8, for seed 19)
        state = replace(build_state(seed), low=1, high=high)
        hits = every_hit(state)
        period = _order_of_two(state.product)
        assert hits and {p for _, _, p in hits} == {period}
        assert _expand(hits, 2 * period) == _walk(state, 2 * period)

    def test_each_class(self):
        periods = {}
        for seed in PRIME_SEEDS:
            state = build_state(seed)
            c = state.product
            for value, n0, period in every_hit(state):
                assert period == _order_of_two(c) and 1 <= n0 <= period
                assert pow(2, n0, c) == -value % c
                assert all(pow(2, n, c) != -value % c for n in range(1, n0))
                periods[seed] = period
        assert periods == {5: 2, 7: 4, 11: 12, 13: 60}

    def test_no_hit_past_seed_13(self):
        found = set()
        for seed in (p for p in range(5, 1010) if slow_is_prime(p)):
            hits = every_hit(build_state(seed))
            assert seed <= 13 or not hits, seed
            found |= {value for value, _, _ in hits}
        assert sorted(found) == [7, 11, 13, 17, 19, 23, 29, 37, 41, 43, 59, 73, 89, 97, 101, 103, 131, 157]


class TestPerHitChecks:
    """Each check on a hit raises InvariantViolation on its own."""

    def test_oracle_refutation(self, monkeypatch):
        state = build_state(13)
        monkeypatch.setattr(
            bigsearch, "is_prime", lambda x: OracleVerdict(x, "proven-composite", "sieve-lookup", 3)
        )
        with pytest.raises(InvariantViolation, match="refuted by oracle"):
            search(state, 18)

    @pytest.mark.parametrize(
        "value, message",
        [
            (171, "out-of-range"),  # above the window (13, 168]
            (130, "out-of-range"),  # even
            (165, "shares a factor"),  # 3 * 5 * 11, passed off as prime
            (137, "not c\\*k - 2\\^n"),  # prime, but 1155*1 - 2^10 is 131
        ],
    )
    def test_bad_value_at_n10(self, monkeypatch, value, message):
        # one class, n = 10 (mod 60), puts the bad value at n = 10 only
        monkeypatch.setattr(bigsearch, "every_hit", lambda state: [(value, 10, 60)])
        monkeypatch.setattr(
            bigsearch, "is_prime", lambda x: OracleVerdict(x, "proven-prime", "sieve-lookup", None)
        )
        with pytest.raises(InvariantViolation, match=message):
            search(build_state(13), 18)

    def test_a_later_hit_of_a_checked_value_is_still_checked(self, monkeypatch):
        # 131 = 1155*1 - 2^10 holds at n = 10; the same R at n = 11 does not
        monkeypatch.setattr(bigsearch, "every_hit", lambda state: [(131, 10, 60), (131, 11, 60)])
        state = build_state(13)
        asked = []
        real = bigsearch.is_prime
        monkeypatch.setattr(bigsearch, "is_prime", lambda x: asked.append(x) or real(x))
        hits = bigsearch.proven_hits(state, 18)
        assert next(hits)[:3] == (10, 1, 131)
        with pytest.raises(InvariantViolation, match="not c\\*k - 2\\^n"):
            next(hits)
        assert asked == [131]


class TestInDecimal:
    """in_decimal writes each k as str(k) does, on both sides of DECIMAL_K_BITS."""

    @staticmethod
    def _written(seed, max_n, min_n):
        state = build_state(seed)
        hits = list(bigsearch.proven_hits(state, max_n, min_n=min_n))
        return list(bigsearch.in_decimal(state, iter(hits))), hits

    @pytest.mark.parametrize("seed", [5, 7, 11, 13])
    @pytest.mark.parametrize("min_n", [1, 1500])  # from 1500 the first power is one jump past the switch
    def test_every_hit_up_to_n_4000(self, seed, min_n):
        written, hits = self._written(seed, 4000, min_n)
        assert written == [(n, str(k), value, verdict) for n, k, value, verdict in hits]
        assert hits[0][1].bit_length() >= bigsearch.DECIMAL_K_BITS or min_n == 1
        assert hits[-1][1].bit_length() >= bigsearch.DECIMAL_K_BITS

    @pytest.mark.parametrize("seed", [5, 7, 11, 13])
    def test_every_k_in_decimal(self, monkeypatch, seed):
        # with no switch, the smallest k (3 for seed 5 at n = 1) takes the decimal path too
        monkeypatch.setattr(bigsearch, "DECIMAL_K_BITS", 0)
        written, hits = self._written(seed, 400, None)
        assert written == [(n, str(k), value, verdict) for n, k, value, verdict in hits]

    def test_builds_nothing_below_the_switch(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a decimal context was built")

        monkeypatch.setattr(bigsearch.decimal, "Context", refused)
        written, hits = self._written(5, bigsearch.DECIMAL_K_BITS, None)
        assert len(written) == len(hits) == 3 * bigsearch.DECIMAL_K_BITS
        with pytest.raises(AssertionError, match="decimal context"):
            self._written(5, bigsearch.DECIMAL_K_BITS + 2, None)
