"""The meet-in-the-middle engine against the nested-loop walks it replaced.

Every basis with bound <= 528 (the bases {2} up to {2, ..., 19}), every
budget 0..6, both relation1 forms with 1..3 exponent slots, relation2 over
every ordered two-set partition and relation3: the certificates, their
order and the first-in-grid-order representative of each value must be
the same, in dedup and in multiset mode.
"""

from itertools import combinations

import pytest

from brute_force_enumerators import (
    _enumerate_relation1,
    _enumerate_relation2,
    _enumerate_relation3,
)
from primekit.oracle import primes_leq_sqrt
from primekit.relations import (
    RELATION1,
    RELATION1_FACTORIAL,
    RELATION2,
    RELATION3,
    enumerate_certified,
    enumeration_grid_size,
)

# one bound per distinct basis: next_prime**2 - 1 for next_prime 3 .. 23
BOUNDS = (8, 24, 48, 120, 168, 288, 360, 528)
BUDGETS = range(7)
# the nested loops cost about 2 s per million points; larger grids are
# skipped (relation3 over the bigger bases at the higher budgets)
REFERENCE_GRID_CAP = 200_000


def _json(certs):
    return [c.to_json_dict() for c in certs]


def _first_per_value(certs):
    best = {}
    for cert in certs:
        best.setdefault(cert.value, cert)
    return [best[v] for v in sorted(best)]


def _ordered_partitions(primes):
    for size in range(1, len(primes)):
        for group1 in combinations(primes, size):
            yield group1, tuple(p for p in primes if p not in group1)


def _cases(construction):
    for bound in BOUNDS:
        basis = primes_leq_sqrt(bound)
        for budget in BUDGETS:
            if construction in (RELATION1, RELATION1_FACTORIAL):
                for slots in (1, 2, 3):
                    yield basis, budget, {"exponent_slots": slots}
            elif construction == RELATION2:
                for partition in _ordered_partitions(basis.small_primes):
                    yield basis, budget, {"partition": partition}
            else:
                yield basis, budget, {}


def _reference(construction, basis, budget, exponent_slots=2, partition=None):
    if construction in (RELATION1, RELATION1_FACTORIAL):
        return _enumerate_relation1(construction, basis, budget, exponent_slots)
    if construction == RELATION2:
        return _enumerate_relation2(basis, budget, partition)
    return _enumerate_relation3(basis, budget)


@pytest.mark.parametrize("construction", [RELATION1, RELATION1_FACTORIAL, RELATION2, RELATION3])
def test_engine_matches_nested_loops(construction):
    compared = accepted = 0
    for basis, budget, kwargs in _cases(construction):
        if enumeration_grid_size(construction, basis, budget, **kwargs) > REFERENCE_GRID_CAP:
            continue
        want = _reference(construction, basis, budget, **kwargs)
        multiset = enumerate_certified(construction, basis, budget, verbose=True, **kwargs)
        dedup = enumerate_certified(construction, basis, budget, **kwargs)
        where = (construction, basis.bound, budget, kwargs)
        assert _json(multiset) == _json(want), where
        assert _json(dedup) == _json(_first_per_value(want)), where
        compared += 1
        accepted += len(want)
    # the comparison is not vacuous: many grids, many certificates
    assert compared >= 40 and accepted >= 500
