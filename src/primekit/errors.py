"""Exception hierarchy shared by all primekit modules, and the one owner of
Python's limit on int<->str conversion: the reader of integer arguments
(read_int, str to int), the refusal of a value too long to write
(check_digits, int to str) and the naming of one in a message (decimal).
The resource caps' defaults live here too.

The CLI maps these onto exit codes: ValidationError -> 1,
ResourceLimitError -> 2, InvariantViolation -> 3.
"""

import re
import sys

# what int() reads in base 10: a sign, digits with single underscores
# between them, and surrounding whitespace
_INT_TOKEN = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")

# the resource caps' defaults, which the CLI reads on every command: the
# candidates a relation grid may hold, and the digits of the big search's
# odd-prime product
DEFAULT_CANDIDATE_CAP = 2_000_000
DEFAULT_C_DIGIT_CAP = 1_000_000


class PrimekitError(Exception):
    pass


class ValidationError(PrimekitError, ValueError):
    """Caller-supplied parameters violate a documented precondition."""


class ResourceLimitError(PrimekitError, RuntimeError):
    """A configured resource cap (digits, candidates) would be exceeded."""


class InvariantViolation(PrimekitError, AssertionError):
    """A value the construction guarantees prime was refuted by the oracle.

    This never fires unless the implementation (or the underlying theorem)
    is wrong, so it is kept maximally loud and is never caught internally.
    """


def digit_limit() -> int:
    """Python's limit on int<->str conversion in digits, 0 for none (as
    before Python 3.10.7, which lacks the call too)."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def check_digits(what: str, top: int, divisor: int = 1) -> None:
    """ResourceLimitError, naming `what`, exactly when top // divisor (top
    >= 0, divisor >= 1) has more digits than Python converts to str. While
    bits(top) - bits(divisor) < 3 * limit the quotient is under 8^limit."""
    limit = digit_limit()
    if limit and top.bit_length() - divisor.bit_length() >= 3 * limit and top >= divisor * 10 ** limit:
        raise ResourceLimitError(
            f"{what} would pass Python's {limit}-digit limit on int-to-str conversion "
            "(sys.get_int_max_str_digits())"
        )


def decimal(value: int) -> str:
    """str(value) for value >= 0, or "<N digits>" when it has more digits
    than Python converts to str, as the CLI names a long integer in a
    refusal."""
    limit = digit_limit()
    if not limit or value.bit_length() < 3 * limit or value < 10 ** limit:
        return str(value)
    # value has exactly `dropped` more digits than value // 10**dropped.
    # 0.301029995 is just under log10(2), so that quotient is at least 1,
    # and below 2^(10^11) it has fewer than 70 digits, which str() writes
    dropped = (value.bit_length() - 1) * 301029995 // 10 ** 9
    return f"<{len(str(value // 10 ** dropped)) + dropped} digits>"


def read_int(text: str) -> int:
    """int(text), except that an integer of more digits than Python reads
    from a str raises ResourceLimitError, which names the digit count and
    the limit but not the digits. Anything else reads, or fails, as with
    int(); with no limit this is int()."""
    limit = digit_limit()
    if limit and len(text) > limit and _INT_TOKEN.fullmatch(text):
        digits = sum(map(str.isdecimal, text))
        if digits > limit:
            raise ResourceLimitError(
                f"integer argument of {digits} digits passes Python's {limit}-digit limit "
                "on str-to-int conversion (sys.get_int_max_str_digits())"
            )
    return int(text)
