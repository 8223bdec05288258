"""The relation walks against the nested-loop walks they replaced.

Every basis with bound <= 528 (the bases {2} up to {2, ..., 19}), every
budget 0..6, both relation1 forms with 0..3 exponent slots (0 slots is a
power grid of the one value 1), relation2 over every ordered two-set
partition and relation3: the certificates, their order and the
first-in-grid-order representative of each value must be the same, in
dedup and in multiset mode.

The relation1 forms are also compared at the benchmark's shape: budget 32
with 2 exponent slots, where the power grid has 2 * 33**2 signed options
against 64 signed multiples. relation1 walks only the power products that
can reach the window; that pruned grid is held to the full one filtered by
the same rule (exponents, value and order), and its division walk to the
full grid's walk at every basis to 528 and two beyond, 0..3 slots and
budgets 1..15 (the benchmark's 3-slot shape is budget 15), with and
without values to skip. The table of window tops that relation1's walk
holds its hits to is held to the evaluator's own extended window. The
meet-in-the-middle walk of relations 2 and 3 is held to a brute force over
random terms and windows, with and without a consumer that certifies
values as the walk runs, and the worked examples' errata search to the
nested loops.

In dedup mode each value is evaluated only until one of its grid points
is accepted; the last tests count those evaluations (and relation1's
window computations) and hold the skip to the multiset, the slow path
that judges every hit.
"""

import dataclasses
import json
from collections import Counter
from itertools import combinations, product
from math import factorial, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force_enumerators import (
    _enumerate_relation1,
    _enumerate_relation2,
    _enumerate_relation3,
    _full_power_grid,
    _relation1_points_full_grid,
)
from primekit import reference, relations
from primekit.cli import FORMATS, run
from primekit.oracle import large_primes, primes_leq_sqrt
from primekit.relations import (
    RELATION1,
    RELATION1_FACTORIAL,
    RELATION2,
    RELATION3,
    _extended_window,
    _prefix_length,
    _reachable_powers,
    _points,
    _walk,
    _window_tops,
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
                for slots in (0, 1, 2, 3):
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


# bases that accept certificates at this shape (24, 120) and the bound 960,
# a basis whose grid holds no certificate
@pytest.mark.parametrize("bound", [24, 120, 960])
@pytest.mark.parametrize("construction", [RELATION1, RELATION1_FACTORIAL])
def test_relation1_at_budget_32_with_two_slots(construction, bound):
    basis = primes_leq_sqrt(bound)
    assert enumeration_grid_size(construction, basis, 32, 2) == 139_392 <= REFERENCE_GRID_CAP
    want = _enumerate_relation1(construction, basis, 32, 2)
    multiset = enumerate_certified(construction, basis, 32, 2, verbose=True)
    assert _json(multiset) == _json(want)
    assert _json(enumerate_certified(construction, basis, 32, 2)) == _json(_first_per_value(want))
    if bound == 24:
        assert len(want) >= 30


def _filtered(primes, budget, near, far, top):
    """(exponents, value) of the full grid's products in [1, near] or
    [far, top], the exponents from itertools.product in the grid's order."""
    grid = zip(product(range(budget + 1), repeat=len(primes)), _full_power_grid(primes, budget))
    return [(es, g) for es, g in grid if g <= near or far <= g <= top]


# (primes, budget, high, lead): high, lead - high and budget * lead + high
# are all products in the grid, so each inclusive edge is met; in the last
# two lead <= 2 * high, and the two ranges overlap
EDGES = [
    ((3, 5), 5, 5, 80),
    ((3, 5, 7), 4, 3, 18),
    ((3,), 6, 3, 4),
    ((2, 3), 3, 6, 7),
]


@pytest.mark.parametrize("primes, budget, high, lead", EDGES)
def test_reachable_powers_keep_their_inclusive_edges(primes, budget, high, lead):
    grid = _full_power_grid(primes, budget)
    edges = (high, lead - high, budget * lead + high)
    assert set(edges) <= set(grid)
    assert set(edges) <= set(_reachable_powers(primes, budget, *edges)[1])
    # each range one step narrower at each end
    for near, far, top in (edges, (high - 1, lead - high + 1, budget * lead + high - 1)):
        got = list(zip(*_reachable_powers(primes, budget, near, far, top)))
        assert got == _filtered(primes, budget, near, far, top), (near, far, top)


@pytest.mark.parametrize("construction", [RELATION1, RELATION1_FACTORIAL])
def test_reachable_powers_equal_the_filtered_full_grid(construction):
    # the walk's own arguments, for every basis to bound 528 and two past
    # the last accepting bound, 0..4 slots and budgets 1..6, and budget 15
    # (the benchmark's 3-slot budget) at those two, where the full grid
    # stays under the reference cap
    overlapping = far_kept = 0
    for bound in BOUNDS + (960, 9408):
        basis = primes_leq_sqrt(bound)
        lead = factorial(isqrt(bound)) if construction == RELATION1_FACTORIAL else prod(basis.small_primes)
        for slots in range(5):
            larges = large_primes(basis, slots + 1)
            high = larges[-1] ** 2 - 1
            for budget in [*range(1, 7), *[15] * (bound > 528)]:
                if (budget + 1) ** slots > REFERENCE_GRID_CAP:
                    continue
                near, far, top = high, lead - high, budget * lead + high
                got = list(zip(*_reachable_powers(larges[:slots], budget, near, far, top)))
                assert got == _filtered(larges[:slots], budget, near, far, top), (
                    bound, slots, budget,
                )
                overlapping += far <= near
                far_kept += any(g > near for _, g in got)
    assert overlapping and far_kept


@pytest.mark.parametrize("bound", BOUNDS)
def test_window_tops_equal_the_extended_window(bound):
    # the table relation1's walk reads a hit's window from, against the
    # evaluator's own window, for every power option of every slot count to
    # 3 and every k to 15; a smaller budget's table is the first columns
    basis = primes_leq_sqrt(bound)
    for slots in range(4):
        tops = _window_tops(basis, slots, 15)
        for dense in product(range(16), repeat=slots):
            sparse = tuple((slot, e) for slot, e in enumerate(dense, 1) if e)
            row = tops[_prefix_length(dense)]
            assert row == [_extended_window(basis, sparse, k)[1] for k in range(1, 16)], (slots, dense)
        for budget in range(16):
            assert _window_tops(basis, slots, budget) == [row[:budget] for row in tops]


# every basis to bound 528 and two past the last accepting bound, where
# neither form accepts, at 0..3 slots and budgets 1..15 (the benchmark's
# 3-slot shape is budget 15)
@pytest.mark.parametrize("bound", BOUNDS + (960, 9408))
@pytest.mark.parametrize("construction", [RELATION1, RELATION1_FACTORIAL])
def test_pruned_relation1_walk_matches_the_full_grid(construction, bound):
    basis = primes_leq_sqrt(bound)
    hits = skipped = 0
    for slots, budget in product(range(4), range(1, 16)):
        want = _relation1_points_full_grid(construction, basis, budget, slots)
        assert list(_points(construction, basis, budget, slots)) == want, (slots, budget)
        # a skip set that holds every other value of the reference: the walk
        # yields the rest, in the same order
        skip = set(sorted({value for value, _ in want})[::2])
        got = list(_points(construction, basis, budget, slots, skip=skip))
        assert got == [(value, p) for value, p in want if value not in skip], (slots, budget)
        hits, skipped = hits + len(want), skipped + len(want) - len(got)
    assert bool(skipped) == bool(hits)
    if bound == 24:
        # hits with each sign pair that can land in the window: all but (-, -)
        assert len({(p.sign_small, p.sign_large) for _, p in want}) == 3


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.lists(st.integers(-30, 30), min_size=1, max_size=6), min_size=1, max_size=4),
    low=st.integers(-60, 60),
    width=st.integers(-5, 60),
)
def test_walk_matches_brute_force(terms, low, width):
    # small values, so that many choices share a sum and the order of the
    # tied ones is tested too; a negative width is an empty window
    high = low + width
    want = []
    for indices in product(*(range(len(term)) for term in terms)):
        total = sum(term[i] for term, i in zip(terms, indices))
        if low < total <= high:
            want.append((total, indices))
    assert list(_walk(terms, low, high)) == want


@pytest.mark.parametrize("fmt", FORMATS)
def test_worked_examples_match_the_nested_loops(fmt, capsys, monkeypatch):
    # two of the five printed relation1 values are errata; their
    # replacements are the first accepted grid points with those values,
    # taken from the enumerator's multiset, here from the nested loops'
    argv = ["rel1", "--bound", "119", "--worked-examples", "--format", fmt]
    assert run(argv) == 0
    got = capsys.readouterr()
    calls = []

    def nested_loops(construction, basis, budget, exponent_slots=2, verbose=False):
        assert verbose
        calls.append(construction)
        return _enumerate_relation1(construction, basis, budget, exponent_slots)

    monkeypatch.setattr(reference, "enumerate_certified", nested_loops)
    assert run(argv) == 0
    assert capsys.readouterr() == got
    assert calls == [RELATION1, RELATION1]
    if fmt == "json":
        replacements = [r["replacement"] for r in json.loads(got.out) if "replacement" in r]
        assert [(r["b1"], r["b2"], r["k"], r["m"]) for r in replacements] == [
            ("odd", "even", "6", {"1": 3}),
            ("even", "odd", "9", {"1": 1, "2": 2}),
        ]


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.lists(st.integers(-30, 30), min_size=1, max_size=6), min_size=1, max_size=4),
    low=st.integers(-60, 60),
    width=st.integers(-5, 60),
    certified=st.sets(st.integers(-60, 120), max_size=8),
    verdicts=st.lists(st.booleans(), min_size=1, max_size=8),
)
def test_skipping_walk_matches_brute_force(terms, low, width, certified, verdicts):
    # the consumer judges the points it is given in turn by the verdicts
    # (cycled) and certifies each accepted value, as the enumerator does,
    # while the walk is running; a value already certified when its point
    # is reached is left out, and a rejected point leaves its value to the
    # next point with that value
    high = low + width

    def consume(points, skip):
        seen = []
        for total, indices in points:
            seen.append((total, indices))
            if verdicts[(len(seen) - 1) % len(verdicts)]:
                skip.add(total)
        return seen

    brute = [
        (sum(term[i] for term, i in zip(terms, indices)), indices)
        for indices in product(*(range(len(term)) for term in terms))
    ]
    want_skip = set(certified)
    want = consume(
        ((total, indices) for total, indices in brute if low < total <= high and total not in want_skip),
        want_skip,
    )
    skip = set(certified)
    assert consume(_walk(terms, low, high, skip), skip) == want
    assert skip == want_skip


# 12,230 window hits of 12 distinct values, each reached at least 1,018 times
DUPLICATES = ["rel3", "--bound", "48", "--enumerate", "--budget", "15"]


def _counted(monkeypatch, name):
    calls = []
    original = getattr(relations, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(relations, name, counted)
    return calls


@pytest.mark.parametrize("multiset, evaluations", [(False, 12), (True, 12_230)])
def test_dedup_evaluates_each_value_once(multiset, evaluations, capsys, monkeypatch):
    oracle_calls = _counted(monkeypatch, "is_prime")
    eval_calls = _counted(monkeypatch, "eval_relation3")
    assert run(DUPLICATES + ["--multiset"] * multiset) == 0
    assert len(capsys.readouterr().out.splitlines()) == evaluations
    assert len(oracle_calls) == len(eval_calls) == evaluations


def test_relation1_window_is_computed_once_per_evaluated_hit(capsys, monkeypatch):
    # the walk holds its hits to their windows through _window_tops, so
    # only the evaluator, as its own check, computes a window
    windows = _counted(monkeypatch, "_extended_window")
    evaluations = _counted(monkeypatch, "eval_relation1")
    assert run(["rel1", "--bound", "8", "--enumerate", "--budget", "15", "--slots", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 23
    assert len(windows) == len(evaluations) == 23


# (construction, bound, budget, evaluator, values with a second hit): all
# 12 values of the two grids with duplicates, 20 of relation1's 28
@pytest.mark.parametrize(
    "construction, bound, budget, evaluate, emitted",
    [
        (RELATION1, 24, 32, "eval_relation1", 20),
        (RELATION2, 48, 6, "eval_relation2", 12),
        (RELATION3, 48, 15, "eval_relation3", 12),
    ],
)
def test_a_rejected_hit_does_not_skip_its_value(construction, bound, budget, evaluate, emitted, monkeypatch):
    # every window hit of these grids is accepted; rejecting the first one
    # of each value must leave the value to its second hit, and drop the
    # values that have no second hit
    basis = primes_leq_sqrt(bound)
    second, hits = {}, Counter()
    for cert in enumerate_certified(construction, basis, budget, verbose=True):
        hits[cert.value] += 1
        if hits[cert.value] == 2:
            second[cert.value] = cert
    original, rejected = getattr(relations, evaluate), set()

    def reject_first(params):
        cert = original(params)
        if cert.value in rejected:
            return cert
        rejected.add(cert.value)
        return dataclasses.replace(cert, accepted=False, reason="rejected by the test")

    monkeypatch.setattr(relations, evaluate, reject_first)
    dedup = enumerate_certified(construction, basis, budget)
    assert _json(dedup) == _json([second[v] for v in sorted(second)])
    assert rejected == set(hits) and len(dedup) == emitted


@pytest.mark.parametrize(
    "command, points",
    [
        ("rel1", "_points"),
        ("rel1f", "_points"),
        ("rel2", "_points"),
        ("rel3", "_points"),
    ],
)
@pytest.mark.parametrize("multiset", [False, True])
def test_a_walk_sum_its_params_do_not_give_exits_three(command, points, multiset, capsys, monkeypatch):
    original = getattr(relations, points)

    def off_by_two(*args):
        for value, params in original(*args):
            yield value + 2, params

    monkeypatch.setattr(relations, points, off_by_two)
    argv = [command, "--bound", "24", "--enumerate", "--budget", "3"] + ["--multiset"] * multiset
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "walk summed" in err
