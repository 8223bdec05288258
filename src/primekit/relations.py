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

Relations 2 and 3 are one relation over a split of the basis primes into
groups: R = sum over the groups g of +-(P/P_g)*k_g, plus +-P*k_last, where
P_g is the product of group g and no prime of g divides k_g. relation2
splits the basis into (group2, group1), relation3 into one group per prime
(_split); one evaluator (_eval_split) and one choice of multipliers
(_split_choices) serve both.

Enumeration finds just the grid points whose sum lies in the window,
since only those can be accepted. A grid point is one option per term;
a term's options are its values with the + sign, then with the - sign,
each half in the order of its grid keys (multipliers or exponents).
relation1's left term is an arithmetic progression, +-k * lead for k in
[1, budget], so for each power product g the k that land in the window
(low, high] are read off by floor division. A g outside [1, high] and
[lead - high, budget * lead + high] pairs with no sign and no multiplier,
and a prefix product that can reach neither range is dropped at the prime
it passes, so neither is ever built. A g more than high from every
multiple of lead pairs with none either; one residue test passes it over
before its divisions. Relations 2 and 3 meet in the middle (Horowitz and
Sahni, 1974): the right half's choices are ranked once (each its sum and
its rank in one int, so one plain sort orders them) and the loop runs
over the left half's sums, bisecting the ranked half once per left sum.
Every walk yields its points in grid-key order, the order of the nested
loops over signs, multipliers and exponents that define the grid, so the
same grid always yields the same certificates in the same order, and a
point's params are built only as it is yielded (_points). Deduplicated
enumeration skips a point whose sum is already certified, inside the
walk; relations 2 and 3 drop a left sum's slice of totals already
certified by one set difference. relation1 holds each point to its own
window through a table of window tops (_window_tops).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, compress, product
from math import factorial, isqrt, prod
from operator import attrgetter, ge

from .errors import (
    DEFAULT_CANDIDATE_CAP,
    InvariantViolation,
    ResourceLimitError,
    ValidationError,
    check_digits,
    decimal,
    read_int,
)
from .oracle import PROVEN_COMPOSITE, OracleVerdict, PrimeBasis, is_prime, large_primes

RELATION1 = "relation1"
RELATION1_FACTORIAL = "relation1-factorial"
RELATION2 = "relation2"
RELATION3 = "relation3"


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
            b = read_int(t)
        except ValueError:
            raise ValidationError(f"cannot read parity from {text!r}") from None
        return cls.from_int(b)

    def flipped(self) -> "Parity":
        return Parity.ODD if self is Parity.EVEN else Parity.EVEN


def _given(value, key: str, what: str = "flag"):
    if value is None:
        raise ValidationError(f"missing required {what} --{key}")
    return value


def _parse_int_list(text: str, key: str) -> list[int]:
    if not text:
        return []
    try:
        return [read_int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse {key} list {text!r}") from None


def _read_sign(text, key: str) -> Parity:
    return Parity.parse(_given(text, key, "sign flag"))


def _read_signs(text, key: str) -> tuple[Parity, ...]:
    return tuple(Parity.parse(tok) for tok in _given(text, key).split(","))


def _read_ints(text, key: str) -> tuple[int, ...]:
    return tuple(_parse_int_list(_given(text, key), key))


def _read_exponents(text, key: str) -> tuple[tuple[int, int], ...]:
    """The dense comma list m1,m2,... as its nonzero (index, exponent) pairs."""
    return tuple((i, e) for i, e in enumerate(_parse_int_list(text, key), 1) if e)


def _strs(values) -> list[str]:
    return [str(v) for v in values]


# A params class's FIELDS, in the order of its JSON record and of its
# subcommand's flags, are (key, attribute, render, read, flag keywords):
# the record's key, which is also the flag --key; the attribute the field
# fills; how the attribute is written to JSON; and, for a field set from
# the command line, how the flag's text is read (an int for a type=int
# flag, None when the flag is left out) and the flag's add_argument
# keywords. A field only written to JSON has no reader.
_BOUND = ("bound", "basis", lambda basis: str(basis.bound), None, None)
_BASIS = ("basis", "basis", lambda basis: _strs(basis.small_primes), None, None)
_SIGN = attrgetter("value")
_B1 = ("b1", "sign_small", _SIGN, _read_sign, {})
_B2 = ("b2", "sign_large", _SIGN, _read_sign, {})
_M = ("m", "large_exponents", lambda m: {str(i): e for i, e in m}, _read_exponents,
      {"default": "", "help": "comma list of exponents m1,m2,..."})
_INT = {"type": int}


class _Params:
    """A relation's params, written to JSON as its FIELDS say."""

    def to_json_dict(self) -> dict:
        return {key: render(getattr(self, attr)) for key, attr, render, _, _ in self.FIELDS}


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
class Relation1Params(_Params):
    """K times the full basis product, plus or minus a product of powers of
    the primes above the root (index 1 = next_prime)."""

    FIELDS = (_BOUND, _BASIS, _B1, _B2, ("k", "multiplier", str, _given, _INT), _M)

    basis: PrimeBasis
    sign_small: Parity
    sign_large: Parity
    multiplier: int
    large_exponents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.multiplier < 1:
            raise ValidationError(f"multiplier must be >= 1, got {self.multiplier}")
        object.__setattr__(self, "large_exponents", _normalize_exponents(self.large_exponents))


@dataclass(frozen=True)
class Relation1FactorialParams(_Params):
    """Same window and large part as relation1, but the small part is
    k1 * d! with d = floor(sqrt(bound)); d! covers every basis prime."""

    FIELDS = (_BOUND, ("d", "d", int, None, None), _B1, _B2, ("k1", "k1", str, _given, _INT), _M)

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


def _check_partition(basis: PrimeBasis, group1: tuple[int, ...], group2: tuple[int, ...]) -> None:
    """ValidationError unless the two groups split the basis primes."""
    if not group1 or not group2:
        raise ValidationError("both groups must be nonempty")
    if set(group1) & set(group2):
        raise ValidationError("groups must be disjoint")
    if set(group1) | set(group2) != set(basis.small_primes):
        raise ValidationError("groups must cover exactly the basis primes")


@dataclass(frozen=True)
class Relation2Params(_Params):
    """Two-set split of the basis: R = +-P1*k1 +- P2*k2 +- P1*P2*k3.

    k1 must avoid every prime in group2 and k2 every prime in group1;
    those checks live in eval_relation2 and reject rather than raise.
    """

    FIELDS = (
        _BOUND,
        ("s1", "group1", _strs, _read_ints, {"help": "comma list: first prime group"}),
        ("s2", "group2", _strs, _read_ints, {"help": "comma list: second prime group"}),
        ("b1", "sign1", _SIGN, _read_sign, {}),
        ("b2", "sign2", _SIGN, _read_sign, {}),
        ("b3", "sign3", _SIGN, _read_sign, {"default": "2"}),
        ("k1", "k1", str, _given, _INT),
        ("k2", "k2", str, _given, _INT),
        ("k3", "k3", str, _given, {"type": int, "default": 0}),
    )

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


@dataclass(frozen=True)
class Relation3Params(_Params):
    """One term per basis prime, each omitting exactly that prime, plus an
    optional full-product term. multipliers[i] pairs with signs[i]; the
    last entries belong to the full-product term and its k may be 0. Given
    only n entries for an n-prime basis, that term's sign is even and its
    k is 0."""

    FIELDS = (
        _BOUND,
        _BASIS,
        ("b", "signs", lambda signs: [s.value for s in signs], _read_signs,
         {"help": "comma list of n or n+1 sign exponents"}),
        ("k", "multipliers", _strs, _read_ints, {"help": "comma list of n or n+1 multipliers"}),
    )

    basis: PrimeBasis
    signs: tuple[Parity, ...]
    multipliers: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.basis.small_primes)
        if len(self.signs) == n:
            object.__setattr__(self, "signs", (*self.signs, Parity.EVEN))
        if len(self.multipliers) == n:
            object.__setattr__(self, "multipliers", (*self.multipliers, 0))
        if len(self.signs) != n + 1 or len(self.multipliers) != n + 1:
            raise ValidationError(
                f"need {n + 1} signs and multipliers for a {n}-prime basis"
            )
        if any(k < 1 for k in self.multipliers[:-1]):
            raise ValidationError("per-prime multipliers must be >= 1")
        if self.multipliers[-1] < 0:
            raise ValidationError("the full-product multiplier must be >= 0")


@dataclass(frozen=True)
class CandidateCertificate:
    """Outcome of one construction: the computed value, whether it lies in
    the certifying window, and the independent oracle's verdict."""

    value: int
    construction: str
    params: _Params
    window: tuple[int, int]
    accepted: bool
    verdict: OracleVerdict
    signed_value: int
    reason: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "value": str(self.value),
            "construction": self.construction,
            "params": self.params.to_json_dict(),
            "window": {"low": str(self.window[0]), "high": str(self.window[1])},
            "accepted": self.accepted,
            "verdict": self.verdict.to_json_dict(),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def certificate_window(basis: PrimeBasis) -> tuple[int, int]:
    """(low, high]: coprimality to the basis proves primality inside it."""
    return basis.largest, basis.next_prime ** 2 - 1


def _judge(value: int, construction: str, params, window, reason=None) -> CandidateCertificate:
    # refuse, before the oracle runs, a value that could not be written
    check_digits(f"{construction} value of {abs(value).bit_length()} bits", abs(value))
    low, high = window
    if reason is None:
        if value <= 0:
            reason = "not a natural number"
        elif value <= low:
            reason = f"at or below window low {low}"
        elif value > high:
            reason = f"above window high {high}"
    accepted = reason is None
    verdict = is_prime(abs(value))
    if accepted and verdict.status == PROVEN_COMPOSITE:
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

    The sorted sparse exponents are such a prefix exactly when their
    indices are 1..t, which the last index being t shows, and their
    exponents do not increase; otherwise only next_prime is walked past.
    """
    t = len(exponents)
    if t and (exponents[-1][0] != t or any(a < b for (_, a), (_, b) in zip(exponents, exponents[1:]))):
        t = 0
    larges = large_primes(basis, t + 1)
    stop = next((i for i, p in enumerate(larges[:t]) if multiplier % p == 0), t)
    return basis.largest, larges[stop] ** 2 - 1


def _power_product(basis: PrimeBasis, exponents: tuple[tuple[int, int], ...]) -> int:
    larges = large_primes(basis, max((i for i, _ in exponents), default=0))
    return prod(larges[i - 1] ** e for i, e in exponents)


def _eval_relation1(construction: str, params, lead: int, k: int) -> CandidateCertificate:
    """Judge +-k * lead +- the power product, in its own extended window."""
    power = _power_product(params.basis, params.large_exponents)
    value = params.sign_small.sign * k * lead + params.sign_large.sign * power
    window = _extended_window(params.basis, params.large_exponents, k)
    return _judge(value, construction, params, window)


def eval_relation1(params: Relation1Params) -> CandidateCertificate:
    return _eval_relation1(RELATION1, params, prod(params.basis.small_primes), params.multiplier)


def eval_relation1_factorial(params: Relation1FactorialParams) -> CandidateCertificate:
    return _eval_relation1(RELATION1_FACTORIAL, params, factorial(params.d), params.k1)


def _eval_split(construction: str, params, groups, signs, ks, violation):
    """Judge the signed sum over a split of the basis: term g is
    +-(P/P_g)*k_g and the last term +-P*k_last. The reason is
    violation(g, p) for the first prime p of a group g that divides k_g."""
    value = sum(sign.sign * c * k for sign, c, k in zip(signs, _split_coefficients(groups), ks))
    broken = [(g, p) for g, (group, k) in enumerate(zip(groups, ks)) for p in group if k % p == 0]
    reason = f"constraint violation: {violation(*broken[0])}" if broken else None
    return _judge(value, construction, params, certificate_window(params.basis), reason)


def eval_relation2(params: Relation2Params) -> CandidateCertificate:
    groups = _split(RELATION2, params.basis, (params.group1, params.group2))
    signs, ks = (params.sign1, params.sign2, params.sign3), (params.k1, params.k2, params.k3)
    return _eval_split(RELATION2, params, groups, signs, ks, lambda g, p: f"k{g + 1} divisible by {p}")


def eval_relation3(params: Relation3Params) -> CandidateCertificate:
    return _eval_split(
        RELATION3, params, _split(RELATION3, params.basis), params.signs, params.multipliers,
        lambda g, p: f"multiplier for {p} divisible by {p}",
    )


def evaluator(construction: str):
    """The evaluator of a construction, looked up at each call, so that a
    wrapper set on this module's eval_relation* is the one returned."""
    return {
        RELATION1: eval_relation1,
        RELATION1_FACTORIAL: eval_relation1_factorial,
        RELATION2: eval_relation2,
        RELATION3: eval_relation3,
    }[construction]


def default_partition(basis: PrimeBasis) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic two-set split used when the caller does not supply one:
    alternate primes between the groups."""
    if len(basis.small_primes) < 2:
        raise ValidationError("relation2 needs at least two basis primes")
    return basis.small_primes[0::2], basis.small_primes[1::2]


def _split(construction: str, basis: PrimeBasis, partition=None) -> tuple[tuple[int, ...], ...]:
    """The groups of basis primes, one per term, of relation2 (k1 avoids
    group2, k2 group1) or relation3 (one group per basis prime)."""
    if construction == RELATION2:
        group1, group2 = partition or default_partition(basis)
        return group2, group1
    if construction == RELATION3:
        return tuple((p,) for p in basis.small_primes)
    raise ValidationError(f"unknown construction {construction!r}")


def _split_coefficients(groups) -> tuple[int, ...]:
    """P/P_g for each group g of a split, then P: its terms' coefficients."""
    full = prod(map(prod, groups))
    return tuple(full // prod(group) for group in groups) + (full,)


def _coprime_multipliers(budget: int, primes: tuple[int, ...]) -> list[int]:
    """The k in [1, budget] that no prime of `primes` divides: a sieve."""
    keep = bytearray([1]) * (budget + 1)
    for p in primes:
        keep[p::p] = bytes(len(range(p, budget + 1, p)))
    return list(compress(range(1, budget + 1), keep[1:]))


def _split_choices(groups, budget: int) -> list:
    """Each term's multipliers: the k in [1, budget] that no prime of its
    group divides, then k in [0, budget] for the last term, P*k."""
    return [_coprime_multipliers(budget, group) for group in groups] + [range(budget + 1)]


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
    if budget == 0:  # before any split: a one-prime basis has no relation2 split
        return 0
    if construction in (RELATION1, RELATION1_FACTORIAL):
        return 4 * budget * (budget + 1) ** exponent_slots
    return prod(2 * len(ks) for ks in _split_choices(_split(construction, basis, partition), budget))


def enumerate_certified(
    construction: str,
    basis: PrimeBasis,
    budget: int,
    exponent_slots: int = 2,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
    verbose: bool = False,
) -> Iterator[CandidateCertificate] | list[CandidateCertificate]:
    """Evaluate each point of the bounded parameter grid whose value lies in
    the window, as the walk finds it, and keep what is accepted.

    Signs range over both parities, multipliers over [1, budget] (the
    optional trailing multiplier over [0, budget]), exponents over
    [0, budget]; multipliers with a forbidden divisor are skipped since
    they can only reject. Returns accepted certificates deduplicated by
    value in ascending order, as a list, or, when verbose is set, an
    iterator that yields the full accepted multiset in grid order, each
    certificate as it is judged.

    Deduplicated, each distinct value is evaluated and checked by the
    oracle once, at its first accepted grid point: a hit whose walk sum is
    already certified is skipped before its params are built, while a
    rejected hit does not stop a later one with the same value. Verbose
    judges every hit. Each evaluated hit's value must equal its walk sum.

    The arguments are checked at the call, before any point is evaluated,
    so a bad partition or a grid over the cap is refused whether or not a
    grid point lands in the window.
    """
    if partition is not None:
        _check_partition(basis, *partition)
    size = enumeration_grid_size(construction, basis, budget, exponent_slots, partition)
    if size > candidate_cap:
        raise ResourceLimitError(
            f"{construction} grid has {decimal(size)} candidates, over the cap of {candidate_cap}"
        )
    certs = _accepted(construction, basis, budget, exponent_slots, partition, verbose) if size else iter(())
    return certs if verbose else sorted(certs, key=attrgetter("value"))


def _accepted(construction: str, basis: PrimeBasis, budget: int, exponent_slots: int, partition, verbose: bool):
    """Each accepted certificate of a nonempty grid, in grid order, as it
    is judged; deduplicated unless verbose (enumerate_certified)."""
    certified: set[int] = set()
    # the walk sums to skip: none when every hit is to be judged
    skip = () if verbose else certified
    evaluate = evaluator(construction)
    for value, params in _points(construction, basis, budget, exponent_slots, partition, skip):
        cert = evaluate(params)
        if cert.signed_value != value:
            raise InvariantViolation(
                f"{construction} walk summed {value} but its params give {cert.signed_value}"
            )
        if cert.accepted:
            certified.add(value)
            yield cert


def _signed(values: list[int]) -> list[int]:
    """A term's options: each value with the + sign, then each with the -
    sign, so option i has parity i // len(values) and choice i % len(values)."""
    return values + [-value for value in values]


def _sums(terms) -> list[int]:
    """The sum of every choice of one option per term, in the order of
    itertools.product over the terms, last term fastest."""
    sums = [0]
    for term in terms:
        sums = [total + value for total in sums for value in term]
    return sums


def _ranked(terms) -> tuple[list[int], int, list[int]]:
    """(sizes, shift, ordered): the right half's term sizes and its choices,
    each the one int (s << shift) + j for its sum s and its rank j in the
    order of itertools.product, sorted once. One plain sort thus orders
    them by sum, then rank, and those with sum s lie in
    [s << shift, (s + 1) << shift)."""
    sizes = [len(term) for term in terms]
    stride = prod(sizes)
    shift = (stride - 1).bit_length()
    ranked = []
    for term in terms:
        stride //= len(term)
        ranked.append([(value << shift) + i * stride for i, value in enumerate(term)])
    return sizes, shift, sorted(_sums(ranked))


def _walk(terms, low: int, high: int, skip=()):
    """Every choice of one option per term whose values sum into (low, high],
    as (sum, option indices), in ascending order of the indices, leaving
    out a choice whose sum is in `skip` when it is reached.

    Meet in the middle (_meet): the right half's choices are sorted once
    and the loop runs over the left half's, so the smaller half belongs on
    the left."""
    half = len(terms) // 2
    left, right = terms[:half], _ranked(terms[half:])
    sizes = [len(term) for term in left]
    for total, (i, j) in _meet(left, right, low, high, skip):
        yield total, _unrank(i, sizes) + _unrank(j, right[0])


def _meet(left, right, low: int, high: int, skip):
    """(sum, (i, j)) for each choice of the terms `left`, then of the terms
    ranked in `right` (_ranked), whose sum lies in (low, high] and is not
    in `skip` when it is reached, i and j its ranks on either side, in
    ascending order of (i, j).

    For each left sum a, the ranked right choices are bisected for the
    slice whose sums lie in (low - a, high - a]. While `skip` holds values,
    a slice whose distinct totals are all in it is passed over at C speed,
    by one set difference, so a certified value costs nothing per point.
    In any other slice each choice is checked against `skip` as it is
    reached, since the caller may add to it between two choices."""
    _, shift, ordered = right
    mask = (1 << shift) - 1
    # the distinct right sums, ascending: built once the slices scanned
    # for their totals add up to as many choices as building them scans
    distinct, scanned = None, 0
    # the left sums shifted as the right's, to bisect with one subtraction
    above, top = (low + 1) << shift, (high + 1) << shift
    for i, a in enumerate(_sums([[value << shift for value in term] for term in left])):
        first = bisect_left(ordered, above - a)
        last = bisect_left(ordered, top - a)
        if first == last:
            continue
        a >>= shift
        chosen = ordered[first:last]
        if skip:
            if distinct is None and scanned >= len(ordered):
                distinct = list(dict.fromkeys(map(shift.__rrshift__, ordered)))
            if distinct is None:
                scanned += last - first
                sums = map(shift.__rrshift__, chosen)
            else:
                sums = distinct[bisect_right(distinct, low - a) : bisect_right(distinct, high - a)]
            if not set(map(a.__add__, sums)) - skip:
                continue
        for choice in sorted(chosen, key=mask.__and__):
            total = a + (choice >> shift)
            if total not in skip:
                yield total, (i, choice & mask)


def _unrank(rank: int, sizes: list[int]) -> tuple[int, ...]:
    """The option indices of the rank-th choice in the order of
    itertools.product over terms of these sizes: mixed radix, last fastest."""
    digits = []
    for size in reversed(sizes):
        rank, digit = divmod(rank, size)
        digits.append(digit)
    return tuple(reversed(digits))


def _reachable_powers(primes: tuple[int, ...], budget: int, near: int, far: int, top: int):
    """(exponents, values) of the products of p**e, e in [0, budget], one
    power per prime, whose value lies in [1, near] or [far, top] (1 <= near
    <= top), in grid order: the order of itertools.product over the
    exponents, the last prime's fastest, which is the order of the exponent
    tuples (e_1, ..., e_s) themselves.

    The products are built one prime at a time, and both ranges apply at
    every level: a prefix product v survives only if v <= top and v <= near
    or v * reach >= far, where reach is the largest product the later
    primes can add (1 at the last prime). A prefix past near whose every
    extension stays below far can reach neither range, so it is dropped
    before it is extended. Each level's exponents come as two ranges,
    bisected from the prime's power list."""
    reach = prod(p ** budget for p in primes)
    prefixes = [((), 1)]
    for p in primes:
        powers = [p ** e for e in range(budget + 1)]
        reach //= powers[-1]
        least = -(-far // reach)  # the least prefix that can still reach far
        if least <= near + 1:  # the two ranges meet: only top prunes
            prefixes = [
                ((*es, e), v * pe)
                for es, v in prefixes
                for e, pe in enumerate(powers[: bisect_right(powers, top // v)])
            ]
            continue
        # least > near + 1, so the two ranges of exponents do not overlap
        prefixes = [
            ((*es, e), v * powers[e])
            for es, v in prefixes
            for e in chain(
                range(bisect_right(powers, near // v)),
                range(bisect_left(powers, -(-least // v)), bisect_right(powers, top // v)),
            )
        ]
    exponents, values = zip(*prefixes)  # never empty: 1 <= near keeps the empty product
    return list(exponents), list(values)


def _prefix_length(dense: tuple[int, ...]) -> int:
    """t of _extended_window for the dense exponents (e_1, ..., e_s): the
    number of nonzero exponents when they do not increase (so the nonzero
    ones are a descending prefix), else 0."""
    return sum(map(bool, dense)) if all(map(ge, dense, dense[1:])) else 0


def _window_tops(basis: PrimeBasis, slots: int, budget: int) -> list[list[int]]:
    """tops[t][k - 1]: the high end of _extended_window for k in [1, budget]
    and exponents of _prefix_length t (0 <= t <= slots). The walk is past
    next_prime while k avoids the first prime above the root, and so on,
    up to the t-th."""
    larges = large_primes(basis, slots + 1)
    stops = [next((i for i, p in enumerate(larges[:slots]) if k % p == 0), slots) for k in range(1, budget + 1)]
    return [[larges[min(t, stop)] ** 2 - 1 for stop in stops] for t in range(slots + 1)]


def _points(
    construction: str,
    basis: PrimeBasis,
    budget: int,
    exponent_slots: int = 2,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    skip=(),
):
    """(value, params) for each grid point in the window whose value is not
    in `skip` when it is reached, in grid order. Each walk checks `skip`
    just before it yields, so a value the caller certifies after one point
    is skipped from the next on.

    relation1's grid key is (exponents, b1, b2, k). Its walk takes the
    reachable power products g (_reachable_powers) in exponent order, and
    for each the sign pairs (+, +), (+, -) and (-, +) ((-, -) is
    negative). The k whose sum s1 * k * lead + s2 * g lies in the widest
    extended window (low, high] form one interval:
    (low - g) // lead < k <= (high - g) // lead (+, +),
    (low + g) // lead < k <= (high + g) // lead (+, -) and
    ceil((g - high) / lead) <= k <= (g - low - 1) // lead (-, +),
    clipped to [1, budget]. A g that pairs is at most high, or within high
    of a multiple of lead, so a g whose residue mod lead lies in
    (high, lead - high) is passed over before its six big-int divisions.
    Each hit is held to its own window, read from _window_tops by the
    exponents' _prefix_length and k; the table is built at the first hit
    that is not skipped.

    relation2's grid key is its three signs, then its three multipliers,
    so it walks one sign block (b1, b2, b3) after another: +-P1 * k1 on
    the left and, on the right, one of the four sign patterns of
    (+-P2 * k2, +-P * k3), each ranked once (_meet). Its hits come out in
    grid order, as relation3's do from its one walk (_walk).
    """
    parities = (Parity.EVEN, Parity.ODD)
    if construction in (RELATION1, RELATION1_FACTORIAL):
        if construction == RELATION1_FACTORIAL:
            lead, make = factorial(isqrt(basis.bound)), Relation1FactorialParams
        else:
            lead, make = prod(basis.small_primes), Relation1Params
        larges = large_primes(basis, exponent_slots + 1)
        low, high = basis.largest, larges[-1] ** 2 - 1
        exponents, powers = _reachable_powers(
            larges[:exponent_slots], budget, high, lead - high, budget * lead + high
        )
        even, odd = parities
        tops = None
        for dense, g in zip(exponents, powers):
            if high < g % lead < lead - high:
                continue
            for sign_small, sign_large, first, last in (
                (even, even, (low - g) // lead + 1, (high - g) // lead),
                (even, odd, (low + g) // lead + 1, (high + g) // lead),
                (odd, even, -((high - g) // lead), (g - low - 1) // lead),
            ):
                for k in range(max(first, 1), min(last, budget) + 1):
                    value = sign_small.sign * k * lead + sign_large.sign * g
                    if value in skip:
                        continue
                    if tops is None:
                        tops = _window_tops(basis, exponent_slots, budget)
                    if value <= tops[_prefix_length(dense)][k - 1]:
                        sparse = tuple((slot, e) for slot, e in enumerate(dense, 1) if e)
                        yield value, make(basis, sign_small, sign_large, k, sparse)
        return
    groups = _split(construction, basis, partition)
    keys = _split_choices(groups, budget)
    values = [[c * k for k in ks] for c, ks in zip(_split_coefficients(groups), keys)]
    low, high = certificate_window(basis)
    if construction == RELATION2:
        # each term's options by sign bit, + then -
        signed = [(term, [-v for v in term]) for term in values]
        rights = {bits: _ranked([signed[1][bits[0]], signed[2][bits[1]]]) for bits in product((0, 1), repeat=2)}
        k1s, k2s, k3s = keys
        # the sign blocks in grid order
        for bits in product((0, 1), repeat=3):
            signs = [parities[bit] for bit in bits]
            for value, (i, j) in _meet([signed[0][bits[0]]], rights[bits[1:]], low, high, skip):
                k2, k3 = divmod(j, len(k3s))
                yield value, Relation2Params(basis, groups[1], groups[0], *signs, k1s[i], k2s[k2], k3s[k3])
        return
    # one (parity, k) table per term, in the layout of _signed
    tables = [list(product(parities, ks)) for ks in keys]
    for value, indices in _walk([_signed(term) for term in values], low, high, skip):
        yield value, Relation3Params(basis, *zip(*map(list.__getitem__, tables, indices)))
