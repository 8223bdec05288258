import json
from itertools import combinations
from itertools import product as iter_product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import slow_is_prime
from primekit import oracle, relations
from primekit.errors import ResourceLimitError, ValidationError
from primekit.oracle import PROVEN_COMPOSITE, primes_leq_sqrt
from primekit.reference import (
    RELATION2_COLUMNS,
    RELATION3_COLUMNS,
    relation1_report,
    relation2_report,
    relation3_report,
)
from primekit.relations import (
    RELATION1,
    Parity,
    Relation1FactorialParams,
    Relation1Params,
    Relation2Params,
    Relation3Params,
    certificate_window,
    default_partition,
    enumerate_certified,
    enumeration_grid_size,
    eval_relation1,
    eval_relation1_factorial,
    eval_relation2,
    eval_relation3,
)

E, O = Parity.EVEN, Parity.ODD

BASIS_119 = primes_leq_sqrt(119)


class TestParity:
    def test_representatives(self):
        assert Parity.from_int(2) is E and Parity.from_int(1) is O
        assert Parity.from_int(0) is E and Parity.from_int(7) is O

    def test_signs(self):
        assert E.sign == 1 and O.sign == -1

    def test_parse(self):
        assert Parity.parse("even") is E
        assert Parity.parse("ODD") is O
        assert Parity.parse("2") is E
        with pytest.raises(ValidationError):
            Parity.parse("sideways")


class TestRelation1:
    def test_column_one(self):
        cert = eval_relation1(Relation1Params(BASIS_119, E, O, 1, ((1, 2),)))
        assert cert.accepted and cert.value == 89
        assert cert.verdict.status == "proven-prime"

    def test_column_three(self):
        cert = eval_relation1(Relation1Params(BASIS_119, E, O, 1, ((1, 1), (2, 1))))
        assert cert.accepted and cert.value == 67

    def test_column_five(self):
        cert = eval_relation1(Relation1Params(BASIS_119, O, E, 7, ((1, 2), (2, 1))))
        assert cert.accepted and cert.value == 103

    def test_repeat_evaluation_calls_the_oracle_once(self, monkeypatch):
        # the large primes of a basis are computed once; a second evaluation
        # asks the oracle only about its own value, in _judge
        params = Relation1Params(BASIS_119, O, E, 7, ((1, 2), (2, 1), (3, 1)))
        eval_relation1(params)
        calls = []
        for module in (oracle, relations):
            real = module.is_prime
            monkeypatch.setattr(module, "is_prime", lambda x, real=real: calls.append(x) or real(x))
        cert = eval_relation1(params)
        assert calls == [cert.value]

    def test_column_two_erratum(self):
        cert = eval_relation1(Relation1Params(BASIS_119, O, E, 6, ((1, 2),)))
        assert not cert.accepted
        assert cert.signed_value == -1139
        assert cert.reason == "not a natural number"
        assert cert.verdict.witness == 17

    def test_column_four_erratum(self):
        cert = eval_relation1(Relation1Params(BASIS_119, O, E, 9, ((1, 1), (2, 2))))
        assert not cert.accepted and cert.signed_value == -31

    def test_printed_values_recoverable_by_search(self):
        # the first accepted grid points, in grid order, that reach the
        # errata's printed values
        certs = enumerate_certified(RELATION1, BASIS_119, 10, 2, verbose=True)
        p71 = next(c.params for c in certs if c.value == 71)
        cert = eval_relation1(p71)
        assert cert.accepted and cert.value == 71
        assert (p71.sign_small, p71.sign_large, p71.multiplier, p71.large_exponents) == (O, E, 6, ((1, 3),))

        p31 = next(c.params for c in certs if c.value == 31)
        assert eval_relation1(p31).accepted
        assert (p31.sign_small, p31.sign_large, p31.multiplier, p31.large_exponents) == (E, O, 9, ((1, 1), (2, 2)))

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ValidationError):
            Relation1Params(BASIS_119, E, O, 0)

    def test_large_prime_index_zero_rejected(self):
        with pytest.raises(ValidationError, match="large-prime indices start at 1, got 0"):
            Relation1Params(BASIS_119, E, O, 1, ((0, 2),))

    def test_window_extends_with_nonzero_descending_exponents(self):
        # both large primes present: the window reaches the third square
        cert = eval_relation1(Relation1Params(BASIS_119, E, O, 2, ((1, 1), (2, 1))))
        assert cert.window == (7, 17 ** 2 - 1)
        assert cert.accepted and cert.value == 277
        assert slow_is_prime(277)

    def test_window_extension_needs_coprime_multiplier(self):
        # basis {2}: K=3 shares a factor with the first large prime, so the
        # window must NOT extend; 2*3 + 3 = 9 is composite and lies inside
        # the naively extended range
        basis = primes_leq_sqrt(8)
        cert = eval_relation1(Relation1Params(basis, E, E, 3, ((1, 1),)))
        assert cert.signed_value == 9
        assert cert.window == (2, 8)
        assert not cert.accepted

    def test_non_descending_exponents_keep_base_window(self):
        cert = eval_relation1(Relation1Params(BASIS_119, E, O, 1, ((2, 1),)))
        assert cert.window == (7, 120)

    def test_empty_exponents_are_plus_minus_one(self):
        cert = eval_relation1(Relation1Params(BASIS_119, E, O, 1))
        assert cert.signed_value == 209  # 210 - 1
        assert not cert.accepted  # above the 120 window


class TestRelation1Factorial:
    def test_bound_119_overshoots(self):
        params = Relation1FactorialParams(BASIS_119, E, O, 1)
        cert = eval_relation1_factorial(params)
        assert cert.signed_value == 3628799  # 10! - 1
        assert not cert.accepted
        assert "above window" in cert.reason

    def test_bound_25_sparse(self):
        basis = primes_leq_sqrt(25)
        negative = eval_relation1_factorial(Relation1FactorialParams(basis, O, E, 1, ((1, 2),)))
        assert negative.signed_value == -71 and not negative.accepted
        above = eval_relation1_factorial(Relation1FactorialParams(basis, O, E, 1, ((1, 3),)))
        assert above.signed_value == 223 and not above.accepted

    def test_k1_zero_is_a_precondition_violation(self):
        with pytest.raises(ValidationError):
            Relation1FactorialParams(BASIS_119, O, E, 0)

    def test_accepted_factorial_certificates_are_prime(self):
        basis = primes_leq_sqrt(16)  # d = 4, so the leading block is 4! = 24
        accepted = set()
        for b1, b2 in iter_product((E, O), repeat=2):
            for k1 in range(1, 21):
                for m1 in range(3):
                    for m2 in range(3):
                        exps = tuple((i, e) for i, e in ((1, m1), (2, m2)) if e)
                        cert = eval_relation1_factorial(
                            Relation1FactorialParams(basis, b1, b2, k1, exps)
                        )
                        if cert.accepted:
                            accepted.add(cert.value)
                            assert slow_is_prime(cert.value)
        assert 23 in accepted  # 1*4! - 1


class TestRelation2:
    @pytest.mark.parametrize(
        "column,expected", list(enumerate([59, 73, 89, 79, 43, 17, 61], start=1))
    )
    def test_reference_columns(self, column, expected):
        b1, b2, b3, k1, k2, k3, printed = RELATION2_COLUMNS[column - 1]
        assert printed == expected
        cert = eval_relation2(
            Relation2Params(BASIS_119, (2, 7), (3, 5), b1, b2, b3, k1, k2, k3)
        )
        assert cert.accepted and cert.value == expected

    def test_constraint_violation_is_a_rejection(self):
        params = Relation2Params(BASIS_119, (2, 7), (3, 5), E, E, E, 3, 1, 0)
        cert = eval_relation2(params)
        assert not cert.accepted
        assert "k1 divisible by 3" in cert.reason

    def test_constraint_names_the_first_group_prime_of_the_first_broken_term(self):
        # 15 breaks k1 by 3 and 5, 14 breaks k2 by 2 and 7; the groups are
        # passed unsorted and read in sorted order
        for k1, k2, reason in ((15, 14, "k1 divisible by 3"), (1, 14, "k2 divisible by 2")):
            params = Relation2Params(BASIS_119, (7, 2), (5, 3), E, E, E, k1, k2, 0)
            assert eval_relation2(params).reason == f"constraint violation: {reason}"

    def test_constraint_is_necessary(self):
        # only the k2 constraint rejects 14 + 15*7 = 119 = 7*17, which lies
        # inside the window
        cert = eval_relation2(Relation2Params(BASIS_119, (2, 7), (3, 5), E, E, E, 1, 7, 0))
        assert not cert.accepted
        assert cert.reason == "constraint violation: k2 divisible by 7"
        low, high = cert.window
        assert cert.signed_value == 119 and low < 119 <= high
        assert cert.verdict.status == PROVEN_COMPOSITE

    def test_refuted_certified_acceptance_is_loud(self):
        # a certified construction accepting a composite is an implementation
        # bug and must raise, never return quietly
        from primekit.errors import InvariantViolation
        from primekit.relations import _judge

        with pytest.raises(InvariantViolation, match="composite"):
            _judge(119, "relation2", {}, (7, 120))

    def test_partition_validation(self):
        with pytest.raises(ValidationError):
            Relation2Params(BASIS_119, (2, 3), (3, 5), E, E, E, 1, 1, 0)  # overlap
        with pytest.raises(ValidationError):
            Relation2Params(BASIS_119, (2,), (3, 5), E, E, E, 1, 1, 0)  # missing 7
        with pytest.raises(ValidationError):
            Relation2Params(BASIS_119, (), (2, 3, 5, 7), E, E, E, 1, 1, 0)
        with pytest.raises(ValidationError):
            Relation2Params(BASIS_119, (2, 7), (3, 5), E, E, E, 0, 1, 0)

    def test_bad_split_is_refused_on_every_call(self):
        good = Relation2Params(BASIS_119, (2, 7), (3, 5), E, E, E, 1, 1, 0)
        for _ in range(3):
            with pytest.raises(ValidationError, match="disjoint"):
                Relation2Params(BASIS_119, (2, 3), (3, 5, 7), E, E, E, 1, 1, 0)
            with pytest.raises(ValidationError, match="cover"):
                enumerate_certified("relation2", BASIS_119, 2, partition=((2,), (3, 5)))
        assert Relation2Params(BASIS_119, (7, 2), (5, 3), E, E, E, 1, 1, 0) == good

    def test_default_partition_alternates(self):
        assert default_partition(BASIS_119) == ((2, 5), (3, 7))
        with pytest.raises(ValidationError):
            default_partition(primes_leq_sqrt(5))

    def test_full_product_term_participates(self):
        # k3 shifts by 210: -14 - 15 + 210 = 181? pick an accepted one
        params = Relation2Params(BASIS_119, (2, 7), (3, 5), O, O, E, 1, 1, 0)
        assert eval_relation2(params).signed_value == -29
        shifted = Relation2Params(BASIS_119, (2, 7), (3, 5), O, O, E, 1, 1, 1)
        cert = eval_relation2(shifted)
        assert cert.signed_value == 181
        assert not cert.accepted  # 181 > 120


class TestRelation3:
    @pytest.mark.parametrize(
        "column,expected", list(enumerate([107, 61, 103, 101], start=1))
    )
    def test_reference_columns(self, column, expected):
        signs, ks, printed = RELATION3_COLUMNS[column - 1]
        assert printed == expected
        cert = eval_relation3(Relation3Params(BASIS_119, signs, ks))
        assert cert.accepted and cert.value == expected

    def test_constraint_violation_rejects(self):
        params = Relation3Params(BASIS_119, (E, E, E, E, E), (2, 1, 1, 1, 0))
        cert = eval_relation3(params)
        assert not cert.accepted and "divisible by 2" in cert.reason

    def test_constraint_is_necessary(self):
        # only the constraint on 2 rejects 2*105 - 70 - 42 - 30 = 68 = 2*34,
        # which lies inside the window
        cert = eval_relation3(Relation3Params(BASIS_119, (E, O, O, O, E), (2, 1, 1, 1, 0)))
        assert not cert.accepted
        assert cert.reason == "constraint violation: multiplier for 2 divisible by 2"
        low, high = cert.window
        assert cert.signed_value == 68 and low < 68 <= high
        assert cert.verdict.status == PROVEN_COMPOSITE

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            Relation3Params(BASIS_119, (E, E, E), (1, 1, 1))
        with pytest.raises(ValidationError):
            Relation3Params(BASIS_119, (E,) * 5, (1, 1, 1, 0, 0))
        with pytest.raises(ValidationError):
            Relation3Params(BASIS_119, (E,) * 5, (1, 1, 1, 1, -1))

    def test_n_entries_default_the_full_product_term(self):
        # an n-prime basis given n signs or multipliers gets an even sign
        # and k = 0 for the full-product term, each list on its own
        full = Relation3Params(BASIS_119, (E, O, E, E, E), (1, 1, 1, 1, 0))
        assert Relation3Params(BASIS_119, (E, O, E, E), (1, 1, 1, 1)) == full
        assert Relation3Params(BASIS_119, (E, O, E, E), (1, 1, 1, 1, 0)) == full
        assert Relation3Params(BASIS_119, (E, O, E, E, E), (1, 1, 1, 1)) == full
        for width in (3, 6):
            with pytest.raises(ValidationError):
                Relation3Params(BASIS_119, (E,) * width, (1, 1, 1, 1))
            with pytest.raises(ValidationError):
                Relation3Params(BASIS_119, (E, O, E, E), (1,) * width)

    def test_full_product_multiplier_may_be_zero(self):
        params = Relation3Params(BASIS_119, (E, O, E, E, E), (1, 1, 1, 1, 0))
        assert eval_relation3(params).value == 107


class TestWindows:
    def test_certificate_window(self):
        assert certificate_window(BASIS_119) == (7, 120)
        assert certificate_window(primes_leq_sqrt(24)) == (3, 24)

    def test_no_accepted_value_outside_window(self):
        for construction, budget in (("relation1", 6), ("relation2", 6), ("relation3", 3)):
            basis = primes_leq_sqrt(48)
            for cert in enumerate_certified(construction, basis, budget):
                low, high = cert.window
                assert low < cert.value <= high


class TestEnumerate:
    def test_budget_zero_is_empty(self):
        for construction in ("relation1", "relation1-factorial", "relation2", "relation3"):
            assert enumerate_certified(construction, BASIS_119, 0) == []

    def test_relation1_small_bound(self):
        basis = primes_leq_sqrt(24)
        certs = enumerate_certified("relation1", basis, 4)
        values = [c.value for c in certs]
        assert values == sorted(set(values))
        # every prime reachable below the base bound shows up
        assert {v for v in values if v <= 24} == {5, 7, 11, 13, 17, 19, 23}
        for v in values:
            assert slow_is_prime(v)

    def test_relation2_includes_window_primes(self):
        basis = primes_leq_sqrt(48)
        certs = enumerate_certified("relation2", basis, 8, partition=((2, 3), (5,)))
        values = {c.value for c in certs}
        assert {29, 31, 37, 41, 43, 47} <= values
        for v in values:
            assert slow_is_prime(v)

    def test_relation3_sound(self):
        certs = enumerate_certified("relation3", BASIS_119, 2)
        assert certs and all(c.verdict.status == "proven-prime" for c in certs)

    def test_unknown_construction(self):
        with pytest.raises(ValidationError):
            enumerate_certified("relation9", BASIS_119, 2)

    def test_candidate_cap(self):
        size = enumeration_grid_size("relation1", BASIS_119, 8)
        assert size == 4 * 8 * 81
        with pytest.raises(ResourceLimitError, match=str(size)):
            enumerate_certified("relation1", BASIS_119, 8, candidate_cap=size - 1)

    def test_multiset_mode_keeps_duplicates(self):
        basis = primes_leq_sqrt(24)
        dedup = enumerate_certified("relation1", basis, 4)
        multi = enumerate_certified("relation1", basis, 4, verbose=True)
        assert len(multi) >= len(dedup)
        assert {c.value for c in multi} == {c.value for c in dedup}

    def test_matches_brute_force_relation1(self):
        basis = primes_leq_sqrt(48)
        budget, slots = 3, 2
        expected = set()
        count = 0
        for b1, b2 in iter_product((E, O), repeat=2):
            for k in range(1, budget + 1):
                for m1 in range(budget + 1):
                    for m2 in range(budget + 1):
                        exps = tuple((i, e) for i, e in ((1, m1), (2, m2)) if e)
                        cert = eval_relation1(Relation1Params(basis, b1, b2, k, exps))
                        count += 1
                        if cert.accepted:
                            expected.add(cert.value)
        got = {c.value for c in enumerate_certified("relation1", basis, budget, exponent_slots=slots)}
        assert got == expected
        assert count == enumeration_grid_size("relation1", basis, budget, slots)

    @pytest.mark.parametrize("budget", range(7))
    def test_grid_size_counts_the_loops_of_relations_2_and_3(self, budget):
        # every prime basis up to bound 528, relation2 over every ordered
        # partition; a multiplier must be coprime to its term's group
        def ks(group):
            return [k for k in range(1, budget + 1) if gcd(k, prod(group)) == 1]

        for bound in (8, 9, 25, 49, 121, 169, 289, 361, 528):
            basis = primes_leq_sqrt(bound)
            primes = basis.small_primes
            for size in range(1, len(primes)):
                for group1 in combinations(primes, size):
                    group2 = tuple(p for p in primes if p not in group1)
                    count = 0
                    for _signs in iter_product((E, O), repeat=3):
                        for _k1 in ks(group2):
                            for _k2 in ks(group1):
                                for _k3 in range(budget + 1):
                                    count += 1
                    partition = (group1, group2)
                    assert enumeration_grid_size("relation2", basis, budget, partition=partition) == count

            # relation3's nested loops, one per term: each loop adds, for
            # each of its signs and multipliers, the count of the loops
            # inside it, which is the same for every option it loops over
            inner = 0
            for _sign in (E, O):
                for _k in range(budget + 1):
                    inner += 1
            for p in reversed(primes):
                count = 0
                for _sign in (E, O):
                    for _k in ks((p,)):
                        count += inner
                inner = count
            assert enumeration_grid_size("relation3", basis, budget) == inner

    def test_matches_brute_force_relation2(self):
        basis = primes_leq_sqrt(119)
        budget = 3
        group1, group2 = default_partition(basis)
        expected = set()
        for b1, b2, b3 in iter_product((E, O), repeat=3):
            for k1 in range(1, budget + 1):
                for k2 in range(1, budget + 1):
                    for k3 in range(budget + 1):
                        try:
                            params = Relation2Params(
                                basis, group1, group2, b1, b2, b3, k1, k2, k3
                            )
                        except ValidationError:
                            continue
                        cert = eval_relation2(params)
                        if cert.accepted:
                            expected.add(cert.value)
        got = {c.value for c in enumerate_certified("relation2", basis, budget)}
        assert got == expected

    def test_matches_brute_force_relation3(self):
        basis = primes_leq_sqrt(48)
        budget = 2
        expected = set()
        for signs in iter_product((E, O), repeat=4):
            for ks in iter_product(range(1, budget + 1), range(1, budget + 1),
                                   range(1, budget + 1), range(budget + 1)):
                cert = eval_relation3(Relation3Params(basis, signs, ks))
                if cert.accepted:
                    expected.add(cert.value)
        got = {c.value for c in enumerate_certified("relation3", basis, budget)}
        assert got == expected


class TestSignSymmetry:
    @given(
        st.sampled_from([24, 48, 119, 168]),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_flipping_both_signs_negates(self, bound, f1, f2, k, dense):
        basis = primes_leq_sqrt(bound)
        b1 = O if f1 else E
        b2 = O if f2 else E
        exps = tuple((i + 1, e) for i, e in enumerate(dense) if e)
        plus = eval_relation1(Relation1Params(basis, b1, b2, k, exps))
        minus = eval_relation1(Relation1Params(basis, b1.flipped(), b2.flipped(), k, exps))
        assert plus.signed_value == -minus.signed_value


class TestSoundness:
    @given(
        st.sampled_from([24, 48, 119, 360, 1000]),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=0, max_value=5), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_relation1_accepted_implies_prime(self, bound, f1, f2, k, dense):
        basis = primes_leq_sqrt(bound)
        exps = tuple((i + 1, e) for i, e in enumerate(dense) if e)
        cert = eval_relation1(
            Relation1Params(basis, O if f1 else E, O if f2 else E, k, exps)
        )
        if cert.accepted:
            assert slow_is_prime(cert.value), cert

    @given(
        st.sampled_from([119, 360, 1000]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=48),
    )
    @settings(max_examples=150, deadline=None)
    def test_relation2_accepted_implies_prime(self, bound, signbits, k1, k2, k3):
        basis = primes_leq_sqrt(bound)
        group1, group2 = default_partition(basis)
        signs = [O if signbits & (1 << i) else E for i in range(3)]
        cert = eval_relation2(
            Relation2Params(basis, group1, group2, *signs, k1, k2, k3)
        )
        if cert.accepted:
            assert slow_is_prime(cert.value), cert


class TestCertificateShape:
    def test_json_schema_accepted(self):
        cert = eval_relation1(Relation1Params(BASIS_119, E, O, 1, ((1, 2),)))
        data = cert.to_json_dict()
        assert set(data) == {"value", "construction", "params", "window", "accepted", "verdict"}
        assert data["value"] == "89"
        assert data["window"] == {"low": "7", "high": "168"}
        json.dumps(data)  # serializable

    def test_json_schema_rejected_adds_reason(self):
        cert = eval_relation1(Relation1Params(BASIS_119, O, E, 6, ((1, 2),)))
        data = cert.to_json_dict()
        assert data["accepted"] is False
        assert "reason" in data

    @pytest.mark.parametrize(
        "params, record",
        [
            (
                Relation1Params(BASIS_119, E, O, 1, ((1, 2),)),
                '{"bound": "119", "basis": ["2", "3", "5", "7"], "b1": "even", "b2": "odd", "k": "1", "m": {"1": 2}}',
            ),
            (
                Relation1FactorialParams(BASIS_119, O, E, 3, ((3, 2), (1, 1))),
                '{"bound": "119", "d": 10, "b1": "odd", "b2": "even", "k1": "3", "m": {"1": 1, "3": 2}}',
            ),
            (
                Relation2Params(BASIS_119, (7, 2), (5, 3), E, E, O, 1, 3, 2),
                '{"bound": "119", "s1": ["2", "7"], "s2": ["3", "5"], "b1": "even", "b2": "even", "b3": "odd", '
                '"k1": "1", "k2": "3", "k3": "2"}',
            ),
            (
                Relation3Params(BASIS_119, (E, O, E, E, E), (1, 1, 1, 1, 0)),
                '{"bound": "119", "basis": ["2", "3", "5", "7"], "b": ["even", "odd", "even", "even", "even"], '
                '"k": ["1", "1", "1", "1", "0"]}',
            ),
        ],
    )
    def test_params_record_byte_for_byte(self, params, record):
        # key order and types: d and the exponents are ints, every other
        # number a decimal string
        assert json.dumps(params.to_json_dict()) == record

    def test_certificates_are_frozen(self):
        cert = eval_relation1(Relation1Params(BASIS_119, E, O, 1, ((1, 2),)))
        with pytest.raises(AttributeError):
            cert.value = 7


class TestReferenceReports:
    def test_relation1_report(self):
        entries = relation1_report()
        by_column = {e.column: e for e in entries}
        assert [by_column[c].certificate.value for c in (1, 3, 5)] == [89, 67, 103]
        assert all(by_column[c].consistent for c in (1, 3, 5))
        assert by_column[2].certificate.signed_value == -1139
        assert by_column[4].certificate.signed_value == -31
        for column in (2, 4):
            entry = by_column[column]
            assert not entry.consistent
            assert entry.replacement is not None
            fixed = eval_relation1(entry.replacement)
            assert fixed.accepted and fixed.value == entry.printed_value

    def test_relation2_report_all_consistent(self):
        entries = relation2_report()
        assert [e.certificate.value for e in entries] == [59, 73, 89, 79, 43, 17, 61]
        assert all(e.consistent for e in entries)

    def test_relation3_report_all_consistent(self):
        entries = relation3_report()
        assert [e.certificate.value for e in entries] == [107, 61, 103, 101]
        assert all(e.consistent for e in entries)
