"""Certificate constructions: sums of small-prime products that force primality.

All three shapes share one engine: build R as a signed combination of terms
such that, for every prime C in the basis, exactly one term survives mod C
and that term is provably nonzero. Then any natural R in the window
(largest basis prime, next_prime**2 - 1] has no factor small enough to
exist, so it is prime. Acceptance is a value, never an error: parameters
that land outside the window (or break a divisibility constraint) come
back as rejected certificates with a reason.

Shapes:
  relation1            R = +-K * (product of all basis primes)
                           +- (product of powers of primes above the root)
  relation1-factorial  same with K * product replaced by k1 * floor(sqrt(a))!
  relation2            R = +-P1*k1 +- P2*k2 +- P1*P2*k3 over a two-set split
  relation3            R = sum over i of +-(product omitting prime i)*k_i,
                           plus +-(full product)*k_last

Enumeration walks one engine for every shape. Each shape is a list of
terms, each term a list of options (signed value, grid-key part), and a
grid point is one option per term. Only points whose sum lies in the
window can be accepted, so the walk finds just those, meet-in-the-middle
(Horowitz and Sahni, 1974): it sorts the partial sums of the right half
of the terms and loops over the partial sums of the left half, bisecting
the sorted half once per left sum. relation1 puts its 2 * budget signed
multiples on the left and its much larger power grid on the right.
The points found are then evaluated in grid-key order, which is the
order of the nested loops over signs, multipliers and exponents that
define the grid, so the same grid always yields the same certificates in
the same order.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from math import factorial, isqrt, prod
from operator import itemgetter

from .errors import InvariantViolation, ResourceLimitError, ValidationError
from .oracle import PROVEN_COMPOSITE, OracleVerdict, PrimeBasis, is_prime, large_primes

RELATION1 = "relation1"
RELATION1_FACTORIAL = "relation1-factorial"
RELATION2 = "relation2"
RELATION3 = "relation3"
BIG_SEARCH = "big-search"

DEFAULT_CANDIDATE_CAP = 2_000_000


class Parity(enum.Enum):
    """Sign selector: only (-1)**b matters, so store the parity of b."""

    EVEN = "even"
    ODD = "odd"

    @property
    def sign(self) -> int:
        return 1 if self is Parity.EVEN else -1

    @classmethod
    def from_int(cls, b: int) -> "Parity":
        if b < 0:
            raise ValidationError(f"parity exponent must be >= 0, got {b}")
        return cls.EVEN if b % 2 == 0 else cls.ODD

    @classmethod
    def parse(cls, text: str) -> "Parity":
        t = text.strip().lower()
        if t in ("even", "odd"):
            return cls(t)
        try:
            return cls.from_int(int(t))
        except ValueError:
            raise ValidationError(f"cannot read parity from {text!r}") from None

    def flipped(self) -> "Parity":
        return Parity.ODD if self is Parity.EVEN else Parity.EVEN


def _normalize_exponents(large_exponents) -> tuple[tuple[int, int], ...]:
    items = []
    for index, exponent in dict(large_exponents).items():
        if index < 1:
            raise ValidationError(f"large-prime indices start at 1, got {index}")
        if exponent < 0:
            raise ValidationError(f"exponents must be >= 0, got {exponent}")
        if exponent:
            items.append((int(index), int(exponent)))
    return tuple(sorted(items))


@dataclass(frozen=True)
class Relation1Params:
    """K times the full basis product, plus or minus a product of powers of
    the primes above the root (index 1 = next_prime)."""

    basis: PrimeBasis
    sign_small: Parity
    sign_large: Parity
    multiplier: int
    large_exponents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.multiplier < 1:
            raise ValidationError(f"multiplier must be >= 1, got {self.multiplier}")
        object.__setattr__(self, "large_exponents", _normalize_exponents(self.large_exponents))

    def to_json_dict(self) -> dict:
        return {
            "bound": str(self.basis.bound),
            "basis": [str(p) for p in self.basis.small_primes],
            "b1": self.sign_small.value,
            "b2": self.sign_large.value,
            "k": str(self.multiplier),
            "m": {str(i): e for i, e in self.large_exponents},
        }


@dataclass(frozen=True)
class Relation1FactorialParams:
    """Same window and large part as relation1, but the small part is
    k1 * d! with d = floor(sqrt(bound)); d! covers every basis prime."""

    basis: PrimeBasis
    sign_small: Parity
    sign_large: Parity
    k1: int
    large_exponents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.k1 < 1:
            raise ValidationError(f"k1 must be >= 1, got {self.k1}")
        object.__setattr__(self, "large_exponents", _normalize_exponents(self.large_exponents))

    @property
    def d(self) -> int:
        return isqrt(self.basis.bound)

    def to_json_dict(self) -> dict:
        return {
            "bound": str(self.basis.bound),
            "d": self.d,
            "b1": self.sign_small.value,
            "b2": self.sign_large.value,
            "k1": str(self.k1),
            "m": {str(i): e for i, e in self.large_exponents},
        }


def _check_partition(basis: PrimeBasis, group1: tuple[int, ...], group2: tuple[int, ...]) -> None:
    """ValidationError unless the two groups split the basis primes."""
    if not group1 or not group2:
        raise ValidationError("both groups must be nonempty")
    if set(group1) & set(group2):
        raise ValidationError("groups must be disjoint")
    if set(group1) | set(group2) != set(basis.small_primes):
        raise ValidationError("groups must cover exactly the basis primes")


@dataclass(frozen=True)
class Relation2Params:
    """Two-set split of the basis: R = +-P1*k1 +- P2*k2 +- P1*P2*k3.

    k1 must avoid every prime in group2 and k2 every prime in group1;
    those checks live in eval_relation2 and reject rather than raise.
    """

    basis: PrimeBasis
    group1: tuple[int, ...]
    group2: tuple[int, ...]
    sign1: Parity
    sign2: Parity
    sign3: Parity
    k1: int
    k2: int
    k3: int = 0

    def __post_init__(self) -> None:
        g1, g2 = tuple(sorted(self.group1)), tuple(sorted(self.group2))
        object.__setattr__(self, "group1", g1)
        object.__setattr__(self, "group2", g2)
        _check_partition(self.basis, g1, g2)
        if self.k1 < 1 or self.k2 < 1:
            raise ValidationError("k1 and k2 must be >= 1")
        if self.k3 < 0:
            raise ValidationError("k3 must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "bound": str(self.basis.bound),
            "s1": [str(p) for p in self.group1],
            "s2": [str(p) for p in self.group2],
            "b1": self.sign1.value,
            "b2": self.sign2.value,
            "b3": self.sign3.value,
            "k1": str(self.k1),
            "k2": str(self.k2),
            "k3": str(self.k3),
        }


@dataclass(frozen=True)
class Relation3Params:
    """One term per basis prime, each omitting exactly that prime, plus an
    optional full-product term. multipliers[i] pairs with signs[i]; the
    last entries belong to the full-product term and its k may be 0."""

    basis: PrimeBasis
    signs: tuple[Parity, ...]
    multipliers: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.basis.small_primes)
        if len(self.signs) != n + 1 or len(self.multipliers) != n + 1:
            raise ValidationError(
                f"need {n + 1} signs and multipliers for a {n}-prime basis"
            )
        if any(k < 1 for k in self.multipliers[:-1]):
            raise ValidationError("per-prime multipliers must be >= 1")
        if self.multipliers[-1] < 0:
            raise ValidationError("the full-product multiplier must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "bound": str(self.basis.bound),
            "basis": [str(p) for p in self.basis.small_primes],
            "b": [s.value for s in self.signs],
            "k": [str(k) for k in self.multipliers],
        }


@dataclass(frozen=True)
class CandidateCertificate:
    """Outcome of one construction: the computed value, whether it lies in
    the certifying window, and the independent oracle's verdict."""

    value: int
    construction: str
    params: object
    window: tuple[int, int]
    accepted: bool
    verdict: OracleVerdict
    signed_value: int
    reason: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "value": str(self.value),
            "construction": self.construction,
            "params": _params_jsonable(self.params),
            "window": {"low": str(self.window[0]), "high": str(self.window[1])},
            "accepted": self.accepted,
            "verdict": self.verdict.to_json_dict(),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _params_jsonable(params) -> dict:
    if hasattr(params, "to_json_dict"):
        return params.to_json_dict()
    if isinstance(params, dict):
        return params
    raise TypeError(f"cannot serialize params of type {type(params)!r}")


def certificate_window(basis: PrimeBasis) -> tuple[int, int]:
    """(low, high]: coprimality to the basis proves primality inside it."""
    return basis.largest, basis.next_prime ** 2 - 1


def _judge(
    value: int, construction: str, params, window, reason_override=None, certified: bool = True
) -> CandidateCertificate:
    low, high = window
    reason = reason_override
    if reason is None:
        if value <= 0:
            reason = "not a natural number"
        elif value <= low:
            reason = f"at or below window low {low}"
        elif value > high:
            reason = f"above window high {high}"
    accepted = reason is None
    verdict = is_prime(abs(value))
    if certified and accepted and verdict.status == PROVEN_COMPOSITE:
        # the construction guarantees primality here; a refutation means the
        # implementation is wrong and must not pass silently
        raise InvariantViolation(
            f"{construction} accepted {value} inside {window} but it is composite"
            + (f" (factor {verdict.witness})" if verdict.witness else "")
        )
    return CandidateCertificate(
        value=abs(value),
        construction=construction,
        params=params,
        window=window,
        accepted=accepted,
        verdict=verdict,
        signed_value=value,
        reason=reason,
    )


def _extended_window(basis: PrimeBasis, exponents: tuple[tuple[int, int], ...], multiplier: int) -> tuple[int, int]:
    """Window for the relation1 family.

    The high end starts at next_prime**2 - 1 and walks up one prime at a
    time while the candidate stays provably coprime to that prime: its
    exponent must be nonzero (with the dense prefix descending) and the
    multiplier must not be divisible by it. Without the multiplier check
    the extension is unsound: basis {2}, K=3, exponents {1: 1} gives
    R = 2*3 + 3 = 9 inside the extended window.
    """
    low = basis.largest
    dense: list[int] = []
    if exponents:
        top = max(i for i, _ in exponents)
        emap = dict(exponents)
        dense = [emap.get(i, 0) for i in range(1, top + 1)]
    descending = all(dense[i] >= dense[i + 1] for i in range(len(dense) - 1))
    first_zero = len(dense) + 1 if descending else 1
    larges = large_primes(basis, first_zero)
    effective = 1
    for i in range(1, first_zero):
        if multiplier % larges[i - 1] == 0:
            break
        effective += 1
    return low, larges[effective - 1] ** 2 - 1


def _power_product(basis: PrimeBasis, exponents: tuple[tuple[int, int], ...]) -> int:
    if not exponents:
        return 1
    top = max(i for i, _ in exponents)
    larges = large_primes(basis, top)
    return prod(larges[i - 1] ** e for i, e in exponents)


def eval_relation1(params: Relation1Params) -> CandidateCertificate:
    small = prod(params.basis.small_primes)
    power = _power_product(params.basis, params.large_exponents)
    value = params.sign_small.sign * params.multiplier * small + params.sign_large.sign * power
    window = _extended_window(params.basis, params.large_exponents, params.multiplier)
    return _judge(value, RELATION1, params, window)


def eval_relation1_factorial(params: Relation1FactorialParams) -> CandidateCertificate:
    power = _power_product(params.basis, params.large_exponents)
    value = params.sign_small.sign * params.k1 * factorial(params.d) + params.sign_large.sign * power
    window = _extended_window(params.basis, params.large_exponents, params.k1)
    return _judge(value, RELATION1_FACTORIAL, params, window)


def _relation2_constraint_reason(params: Relation2Params) -> str | None:
    for p in params.group2:
        if params.k1 % p == 0:
            return f"constraint violation: k1 divisible by {p}"
    for p in params.group1:
        if params.k2 % p == 0:
            return f"constraint violation: k2 divisible by {p}"
    return None


def eval_relation2(params: Relation2Params, check_constraints: bool = True) -> CandidateCertificate:
    p1, p2 = prod(params.group1), prod(params.group2)
    value = (
        params.sign1.sign * p1 * params.k1
        + params.sign2.sign * p2 * params.k2
        + params.sign3.sign * p1 * p2 * params.k3
    )
    reason = _relation2_constraint_reason(params) if check_constraints else None
    return _judge(
        value, RELATION2, params, certificate_window(params.basis), reason,
        certified=check_constraints,
    )


def _relation3_constraint_reason(params: Relation3Params) -> str | None:
    for prime, k in zip(params.basis.small_primes, params.multipliers):
        if k % prime == 0:
            return f"constraint violation: multiplier for {prime} divisible by {prime}"
    return None


def eval_relation3(params: Relation3Params, check_constraints: bool = True) -> CandidateCertificate:
    primes = params.basis.small_primes
    full = prod(primes)
    value = 0
    for i, prime in enumerate(primes):
        value += params.signs[i].sign * (full // prime) * params.multipliers[i]
    value += params.signs[-1].sign * full * params.multipliers[-1]
    reason = _relation3_constraint_reason(params) if check_constraints else None
    return _judge(
        value, RELATION3, params, certificate_window(params.basis), reason,
        certified=check_constraints,
    )


def default_partition(basis: PrimeBasis) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic two-set split used when the caller does not supply one:
    alternate primes between the groups."""
    if len(basis.small_primes) < 2:
        raise ValidationError("relation2 needs at least two basis primes")
    return basis.small_primes[0::2], basis.small_primes[1::2]


def _coprime_multipliers(budget: int, primes: tuple[int, ...]) -> list[int]:
    return [k for k in range(1, budget + 1) if all(k % p for p in primes)]


def enumeration_grid_size(
    construction: str,
    basis: PrimeBasis,
    budget: int,
    exponent_slots: int = 2,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> int:
    """Exact number of parameter tuples enumerate_certified would evaluate."""
    if budget < 0:
        raise ValidationError("budget must be >= 0")
    if exponent_slots < 0:
        raise ValidationError("exponent slots must be >= 0")
    if budget == 0:
        return 0
    if construction in (RELATION1, RELATION1_FACTORIAL):
        return 4 * budget * (budget + 1) ** exponent_slots
    if construction == RELATION2:
        group1, group2 = partition or default_partition(basis)
        k1s = len(_coprime_multipliers(budget, group2))
        k2s = len(_coprime_multipliers(budget, group1))
        return 8 * k1s * k2s * (budget + 1)
    if construction == RELATION3:
        size = 2 * (budget + 1)
        for prime in basis.small_primes:
            size *= 2 * len(_coprime_multipliers(budget, (prime,)))
        return size
    raise ValidationError(f"unknown construction {construction!r}")


def enumerate_certified(
    construction: str,
    basis: PrimeBasis,
    budget: int,
    exponent_slots: int = 2,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
    verbose: bool = False,
) -> list[CandidateCertificate]:
    """Walk the full bounded parameter grid, evaluate each point whose value
    lies in the window and keep what is accepted.

    Signs range over both parities, multipliers over [1, budget] (the
    optional trailing multiplier over [0, budget]), exponents over
    [0, budget]; multipliers with a forbidden divisor are skipped since
    they can only reject. Returns accepted certificates deduplicated by
    value in ascending order, or the full accepted multiset in grid order
    when verbose is set.

    A given partition is checked before anything is walked, so a bad one
    is refused whether or not a grid point lands in the window.
    """
    if partition is not None:
        _check_partition(basis, *partition)
    size = enumeration_grid_size(construction, basis, budget, exponent_slots, partition)
    if size > candidate_cap:
        raise ResourceLimitError(
            f"{construction} grid has {size} candidates, over the cap of {candidate_cap}"
        )
    if size == 0:
        return []

    if construction in (RELATION1, RELATION1_FACTORIAL):
        points = _relation1_points(construction, basis, budget, exponent_slots)
    elif construction == RELATION2:
        points = _relation2_points(basis, budget, partition)
    else:
        points = _relation3_points(basis, budget)
    evaluate = {
        RELATION1: eval_relation1,
        RELATION1_FACTORIAL: eval_relation1_factorial,
        RELATION2: eval_relation2,
        RELATION3: eval_relation3,
    }[construction]
    certs = [cert for cert in (evaluate(params) for _, params in points) if cert.accepted]

    if verbose:
        return certs
    best: dict[int, CandidateCertificate] = {}
    for cert in certs:
        best.setdefault(cert.value, cert)
    return [best[v] for v in sorted(best)]


def _signed(options) -> list[tuple[int, tuple]]:
    """Both signs of each (value, key) option: ((-1)**b * value, (b, key)),
    the b = 0 half first."""
    options = list(options)
    return [(value, (0, key)) for value, key in options] + [(-value, (1, key)) for value, key in options]


def _partial_sums(terms) -> list[tuple[int, tuple]]:
    """(sum, keys) for every choice of one option per term, as a list in key
    order: the order of itertools.product over the terms, last term fastest."""
    sums = [(0, ())]
    for term in terms:
        sums = [(total + value, keys + (key,)) for total, keys in sums for value, key in term]
    return sums


def _walk(terms, low: int, high: int):
    """Every choice of one option per term whose values sum into (low, high],
    as (sum, keys) with one key per term, in ascending order of the keys
    when each term lists its options in key order.

    Meet in the middle: the right half's partial sums are sorted once, and
    the loop runs over the left half's partial sums a, bisecting the sorted
    right half for the slice in (low - a, high - a]; so the smaller half
    belongs on the left.
    """
    half = len(terms) // 2
    right = sorted(_partial_sums(terms[half:]), key=itemgetter(0))
    right_sums = [total for total, _ in right]
    for a, keys in _partial_sums(terms[:half]):
        first = bisect_right(right_sums, low - a)
        last = bisect_right(right_sums, high - a)
        for total, more in sorted(right[first:last], key=itemgetter(1)):
            yield a + total, keys + more


def _relation1_points(construction: str, basis: PrimeBasis, budget: int, exponent_slots: int):
    """(value, params) for each relation1 point in its extended window, in
    grid order.

    The terms are +-k * lead, first since there are only 2 * budget of
    them, and +-(product of large-prime powers), 2 * (budget + 1)**slots
    options built one prime at a time. The walk runs over the widest
    extended window; each hit is then held to its own window, which
    depends on its exponents and k.
    """
    if construction == RELATION1_FACTORIAL:
        lead, make = factorial(isqrt(basis.bound)), Relation1FactorialParams
    else:
        lead, make = prod(basis.small_primes), Relation1Params
    larges = large_primes(basis, exponent_slots + 1)
    grid = [(1, ())]
    for p in larges[:exponent_slots]:
        powers_of_p = [p ** e for e in range(budget + 1)]
        grid = [(value * pe, exps + (e,)) for value, exps in grid for e, pe in enumerate(powers_of_p)]
    powers = _signed(grid)
    multiples = _signed((k * lead, k) for k in range(1, budget + 1))
    hits = []
    for value, ((b1, k), (b2, exps)) in _walk([multiples, powers], basis.largest, larges[-1] ** 2 - 1):
        exponents = tuple((i + 1, e) for i, e in enumerate(exps) if e)
        if value <= _extended_window(basis, exponents, k)[1]:
            hits.append(((exps, b1, b2, k), value, exponents))
    for (_, b1, b2, k), value, exponents in sorted(hits):
        yield value, make(basis, Parity.from_int(b1), Parity.from_int(b2), k, exponents)


def _relation2_points(
    basis: PrimeBasis, budget: int, partition: tuple[tuple[int, ...], tuple[int, ...]] | None
):
    """(value, params) for each relation2 point in the window, in grid
    order; the terms are +-P1*k1, +-P2*k2 and +-P1*P2*k3."""
    group1, group2 = partition or default_partition(basis)
    p1, p2 = prod(group1), prod(group2)
    terms = [
        _signed((p1 * k, k) for k in _coprime_multipliers(budget, group2)),
        _signed((p2 * k, k) for k in _coprime_multipliers(budget, group1)),
        _signed((p1 * p2 * k, k) for k in range(budget + 1)),
    ]
    hits = sorted(
        ((b1, b2, b3, k1, k2, k3), value)
        for value, ((b1, k1), (b2, k2), (b3, k3)) in _walk(terms, *certificate_window(basis))
    )
    for (b1, b2, b3, k1, k2, k3), value in hits:
        signs = map(Parity.from_int, (b1, b2, b3))
        yield value, Relation2Params(basis, group1, group2, *signs, k1, k2, k3)


def _relation3_points(basis: PrimeBasis, budget: int):
    """(value, params) for each relation3 point in the window, in grid
    order; the terms are +-(P/p)*k_p for each basis prime p, then +-P*k_last."""
    full = prod(basis.small_primes)
    terms = [
        _signed((full // p * k, k) for k in _coprime_multipliers(budget, (p,)))
        for p in basis.small_primes
    ]
    terms.append(_signed((full * k, k) for k in range(budget + 1)))
    for value, keys in _walk(terms, *certificate_window(basis)):
        signs, ks = zip(*keys)
        yield value, Relation3Params(basis, tuple(map(Parity.from_int, signs)), ks)


def find_relation1_params(
    basis: PrimeBasis, target: int, budget: int, exponent_slots: int = 2
) -> Relation1Params | None:
    """First relation1 point in grid order whose accepted value equals
    `target`; None when the grid holds no such tuple."""
    for value, params in _relation1_points(RELATION1, basis, budget, exponent_slots):
        if value == target and eval_relation1(params).accepted:
            return params
    return None
