"""The grid walks that enumerate_certified used before the meet-in-the-middle
engine: one nested loop per construction, kept as the reference the engine
must match point for point (tests/test_relation_engine.py)."""

from __future__ import annotations

from itertools import product as iter_product
from math import factorial, isqrt, prod

from primekit.oracle import PrimeBasis, large_primes
from primekit.relations import (
    RELATION1_FACTORIAL,
    CandidateCertificate,
    Parity,
    Relation1FactorialParams,
    Relation1Params,
    Relation2Params,
    Relation3Params,
    _coprime_multipliers,
    certificate_window,
    default_partition,
    eval_relation1,
    eval_relation1_factorial,
    eval_relation2,
    eval_relation3,
)

_PARITIES = (Parity.EVEN, Parity.ODD)


def _enumerate_relation1(
    construction: str, basis: PrimeBasis, budget: int, exponent_slots: int
) -> list[CandidateCertificate]:
    if construction == RELATION1_FACTORIAL:
        lead = factorial(isqrt(basis.bound))
    else:
        lead = prod(basis.small_primes)
    larges = large_primes(basis, exponent_slots + 1)
    squares = [p * p - 1 for p in larges]
    low = basis.largest
    out = []
    for exps in iter_product(range(budget + 1), repeat=exponent_slots):
        dense = list(exps)
        while dense and dense[-1] == 0:
            dense.pop()
        power = prod(p ** e for p, e in zip(larges, exps))
        descending = all(dense[i] >= dense[i + 1] for i in range(len(dense) - 1))
        first_zero = len(dense) + 1 if descending else 1
        exponents = tuple((i + 1, e) for i, e in enumerate(exps) if e)
        for sign_small, sign_large in iter_product(_PARITIES, _PARITIES):
            for k in range(1, budget + 1):
                effective = 1
                for i in range(1, first_zero):
                    if k % larges[i - 1] == 0:
                        break
                    effective += 1
                value = sign_small.sign * k * lead + sign_large.sign * power
                if low < value <= squares[effective - 1]:
                    if construction == RELATION1_FACTORIAL:
                        params: object = Relation1FactorialParams(
                            basis, sign_small, sign_large, k, exponents
                        )
                        cert = eval_relation1_factorial(params)
                    else:
                        params = Relation1Params(basis, sign_small, sign_large, k, exponents)
                        cert = eval_relation1(params)
                    if cert.accepted:
                        out.append(cert)
    return out


def _enumerate_relation2(
    basis: PrimeBasis,
    budget: int,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None,
) -> list[CandidateCertificate]:
    group1, group2 = partition or default_partition(basis)
    p1, p2 = prod(group1), prod(group2)
    k1s = _coprime_multipliers(budget, group2)
    k2s = _coprime_multipliers(budget, group1)
    low, high = certificate_window(basis)
    out = []
    for s1, s2, s3 in iter_product(_PARITIES, _PARITIES, _PARITIES):
        for k1 in k1s:
            t1 = s1.sign * p1 * k1
            for k2 in k2s:
                t12 = t1 + s2.sign * p2 * k2
                for k3 in range(budget + 1):
                    value = t12 + s3.sign * p1 * p2 * k3
                    if low < value <= high:
                        params = Relation2Params(
                            basis, group1, group2, s1, s2, s3, k1, k2, k3
                        )
                        cert = eval_relation2(params)
                        if cert.accepted:
                            out.append(cert)
    return out


def _enumerate_relation3(basis: PrimeBasis, budget: int) -> list[CandidateCertificate]:
    primes = basis.small_primes
    full = prod(primes)
    low, high = certificate_window(basis)
    slots = []
    for prime in primes:
        term = full // prime
        slots.append(
            [
                (sign.sign * term * k, sign, k)
                for sign in _PARITIES
                for k in _coprime_multipliers(budget, (prime,))
            ]
        )
    slots.append(
        [(sign.sign * full * k, sign, k) for sign in _PARITIES for k in range(budget + 1)]
    )

    out = []
    chosen: list[tuple[int, Parity, int]] = []

    def descend(depth: int, partial: int) -> None:
        if depth == len(slots):
            if low < partial <= high:
                signs = tuple(c[1] for c in chosen)
                ks = tuple(c[2] for c in chosen)
                cert = eval_relation3(Relation3Params(basis, signs, ks))
                if cert.accepted:
                    out.append(cert)
            return
        for option in slots[depth]:
            chosen.append(option)
            descend(depth + 1, partial + option[0])
            chosen.pop()

    descend(0, 0)
    return out
