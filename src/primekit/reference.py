"""Published worked-example columns for the three constructions, bound 119.

These are regression fixtures: each column records the parameters as
printed alongside the value they are supposed to produce. Two relation1
columns are internally inconsistent (the printed parameters evaluate to
-1139 and -31, not 71 and 31); those stay flagged as errata rather than
being encoded as golden values, and the relation1 enumerator, walked over
a bounded grid, recovers parameters that genuinely reach the printed
targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import PrimeBasis, primes_leq_sqrt
from .relations import (
    RELATION1,
    RELATION2,
    RELATION3,
    CandidateCertificate,
    Parity,
    Relation1Params,
    Relation2Params,
    Relation3Params,
    enumerate_certified,
    evaluator,
)

REFERENCE_BOUND = 119

_E = Parity.EVEN
_O = Parity.ODD

# (b1, b2, K, exponent map, printed R)
RELATION1_COLUMNS = (
    (_E, _O, 1, ((1, 2),), 89),
    (_O, _E, 6, ((1, 2),), 71),
    (_E, _O, 1, ((1, 1), (2, 1)), 67),
    (_O, _E, 9, ((1, 1), (2, 2)), 31),
    (_O, _E, 7, ((1, 2), (2, 1)), 103),
)

# (b1, b2, b3, k1, k2, k3, printed R) over the split {2, 7} / {3, 5}
RELATION2_GROUPS = ((2, 7), (3, 5))
RELATION2_COLUMNS = (
    (_E, _E, _E, 1, 3, 0, 59),
    (_E, _E, _E, 2, 3, 0, 73),
    (_E, _E, _E, 1, 5, 0, 89),
    (_E, _O, _E, 11, 5, 0, 79),
    (_E, _E, _E, 2, 1, 0, 43),
    (_O, _E, _E, 2, 3, 0, 17),
    (_O, _E, _E, 1, 5, 0, 61),
)

# (signs, multipliers, printed R); the full-product term is fixed at k = 0
RELATION3_COLUMNS = (
    ((_E, _O, _E, _E, _E), (1, 1, 1, 1, 0), 107),
    ((_E, _E, _O, _O, _E), (1, 1, 2, 1, 0), 61),
    ((_E, _E, _O, _O, _E), (1, 1, 1, 1, 0), 103),
    ((_E, _E, _O, _O, _E), (1, 2, 2, 2, 0), 101),
)

ERRATA_SEARCH_BUDGET = 10


@dataclass(frozen=True)
class ReferenceEntry:
    column: int
    printed_value: int
    certificate: CandidateCertificate
    consistent: bool
    replacement: Relation1Params | None = None


def _report(construction: str, columns, make, recover=None) -> list[ReferenceEntry]:
    """Evaluate each column's params, make(basis, *fields), against its
    printed value; an inconsistent column gets recover(basis, printed)."""
    basis = primes_leq_sqrt(REFERENCE_BOUND)
    evaluate = evaluator(construction)
    entries = []
    for index, (*fields, printed) in enumerate(columns, start=1):
        cert = evaluate(make(basis, *fields))
        consistent = cert.accepted and cert.signed_value == printed
        replacement = None if consistent or recover is None else recover(basis, printed)
        entries.append(ReferenceEntry(index, printed, cert, consistent, replacement))
    return entries


def _first_reaching(basis: PrimeBasis, printed: int) -> Relation1Params | None:
    """The params of the first accepted relation1 grid point reaching `printed`."""
    certs = enumerate_certified(RELATION1, basis, ERRATA_SEARCH_BUDGET, 2, verbose=True)
    return next((cert.params for cert in certs if cert.value == printed), None)


def relation1_report() -> list[ReferenceEntry]:
    """The relation1 columns; for inconsistent ones, parameters from the
    bounded grid that do reach the printed value."""
    return _report(RELATION1, RELATION1_COLUMNS, Relation1Params, _first_reaching)


def relation2_report() -> list[ReferenceEntry]:
    return _report(
        RELATION2, RELATION2_COLUMNS, lambda basis, *fields: Relation2Params(basis, *RELATION2_GROUPS, *fields)
    )


def relation3_report() -> list[ReferenceEntry]:
    return _report(RELATION3, RELATION3_COLUMNS, Relation3Params)
