"""Exception hierarchy shared by all primekit modules, and the one owner of
Python's limit on int<->str conversion: the reader of integer arguments
(read_int, str to int) and the refusal of a value too long to write
(check_digits, int to str).

The CLI maps these onto exit codes: ValidationError -> 1,
ResourceLimitError -> 2, InvariantViolation -> 3.
"""

import re
import sys

# what int() reads in base 10: a sign, digits with single underscores
# between them, and surrounding whitespace
_INT_TOKEN = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


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
