"""Generalized Mersenne values Z = ((base+step)^n - base^n) / step.

At base = step = 1 this is the classic 2^n - 1. The division is always
exact (binomial expansion), Z prime forces n prime (contrapositive checked
here over grids), and step being a multiple of base >= 2 forces Z composite
with base^(n-1) as a factor. For fixed n the value grows strictly with the
base and beats 2^n - 1 as soon as base > 1.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

from .errors import InvariantViolation, ValidationError, check_digits, digit_limit
from .oracle import OracleVerdict, is_prime


@dataclass(frozen=True)
class GeneralMersenneParams:
    base: int
    step: int
    exponent: int

    def __post_init__(self) -> None:
        if self.base < 1:
            raise ValidationError(f"base must be >= 1, got {self.base}")
        if self.step < 1:
            raise ValidationError(f"step must be >= 1, got {self.step}")
        if self.exponent < 2:
            raise ValidationError(f"exponent must be >= 2, got {self.exponent}")


@dataclass(frozen=True)
class ZnResult:
    params: GeneralMersenneParams
    value: int
    verdict: OracleVerdict


@dataclass(frozen=True)
class ZnViolation:
    """A grid point contradicting one of the proven composite-ness claims."""

    params: GeneralMersenneParams
    value: int
    kind: str
    predicted_factor: int | None = None


def compute_zn(params: GeneralMersenneParams) -> ZnResult:
    a, c, n = params.base, params.step, params.exponent
    quotient, remainder = divmod((a + c) ** n - a ** n, c)
    if remainder:
        # binomial expansion guarantees exactness; a remainder is a bug
        raise InvariantViolation(f"step {c} does not divide power difference at {params}")
    return ZnResult(params, quotient, is_prime(quotient))


def check_exponent_contrapositive(base: int, step: int, max_exponent: int) -> list[ZnViolation]:
    """Every composite exponent in [4, max_exponent] must give composite Z.

    Returns the offending grid points; an empty list is the expected outcome.
    """
    if max_exponent < 4:
        raise ValidationError("max_exponent must be at least 4")
    violations = []
    for n in range(4, max_exponent + 1):
        if is_prime(n).is_prime:
            continue
        result = compute_zn(GeneralMersenneParams(base, step, n))
        if result.verdict.is_prime:
            violations.append(ZnViolation(result.params, result.value, "prime-at-composite-exponent"))
    return violations


def check_multiple_step_composite(base: int, multiplier: int, max_exponent: int) -> list[ZnViolation]:
    """With step = base*multiplier and base >= 2, Z must be composite with
    base^(n-1) dividing it, for every exponent in [2, max_exponent]."""
    if base < 2:
        raise ValidationError("base must be >= 2 for the multiple-step check")
    if multiplier < 1:
        raise ValidationError("multiplier must be >= 1")
    violations = []
    for n in range(2, max_exponent + 1):
        result = compute_zn(GeneralMersenneParams(base, base * multiplier, n))
        factor = base ** (n - 1)
        if result.verdict.is_prime:
            violations.append(ZnViolation(result.params, result.value, "prime-at-multiple-step", factor))
        if result.value % factor:
            violations.append(ZnViolation(result.params, result.value, "missing-predicted-factor", factor))
    return violations


def check_strict_growth(exponent: int, max_base: int) -> bool:
    """True iff, for this exponent, (a+1)^n - a^n strictly increases in a
    over [2, max_base] and always exceeds 2^n - 1."""
    if exponent < 2:
        raise ValidationError("exponent must be >= 2")
    if max_base < 2:
        raise ValidationError("max_base must be >= 2")
    n = exponent
    mersenne = 2 ** n - 1
    for a in range(2, max_base + 1):
        current = (a + 1) ** n - a ** n
        previous = a ** n - (a - 1) ** n
        if current <= previous or current <= mersenne:
            return False
    return True


def scan_prime_zn(
    base_range: tuple[int, int],
    step_range: tuple[int, int],
    exponent_range: tuple[int, int],
    skip: bool = True,
) -> Iterator[ZnResult]:
    """Walk the (base, step, exponent) grid lexicographically and yield each
    point whose Z the oracle certifies prime, as it is proven. The ranges
    are checked, and a Z too long to write refused, at the call, before any
    point is evaluated.

    With skip enabled, composite exponents and steps divisible by a base >= 2
    are not evaluated (both provably composite); skip=False evaluates the
    full grid so those claims can be confirmed empirically.
    """
    for lo, hi, name in (
        (*base_range, "base"),
        (*step_range, "step"),
        (*exponent_range, "exponent"),
    ):
        if lo > hi:
            raise ValidationError(f"empty {name} range {lo}..{hi}")
    if base_range[0] < 1 or step_range[0] < 1:
        raise ValidationError("base and step must start at 1 or above")
    if exponent_range[0] < 2:
        raise ValidationError("exponents below 2 are not defined")
    # every hit is printed in decimal: refuse before computing any Z when the
    # grid's largest, at its last point (Z grows in base, step and exponent),
    # could not be written. Z >= (a + c)^(n - 1) >= 2^((n - 1) * (bits(a + c) - 1)),
    # which passes 16^limit at the clamped exponent, so no larger power is built
    a, c, n = base_range[1], step_range[1], exponent_range[1]
    clamped = min(n, 1 + -(-4 * digit_limit() // ((a + c).bit_length() - 1)))
    check_digits(f"Z at base {a}, step {c}, exponent {n}", (a + c) ** clamped - a ** clamped, c)

    points = product(
        range(base_range[0], base_range[1] + 1),
        range(step_range[0], step_range[1] + 1),
        range(exponent_range[0], exponent_range[1] + 1),
    )
    if skip:
        points = ((a, c, n) for a, c, n in points if is_prime(n).is_prime and (a < 2 or c % a))
    results = (compute_zn(GeneralMersenneParams(*point)) for point in points)
    return (result for result in results if result.verdict.is_prime)
