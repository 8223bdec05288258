import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primekit.errors import ResourceLimitError, check_digits, digit_limit

LOW = 640  # the smallest limit Python lets a program set


@st.composite
def tops_and_divisors(draw):
    divisor = draw(st.integers(1, 10 ** draw(st.integers(0, 60))))
    first = divisor * 10 ** LOW  # the smallest top whose quotient is past the limit
    top = draw(st.one_of(
        st.integers(max(0, first - 10 * divisor), first + 10 * divisor),
        st.integers(0, 2 * first),
        st.integers(0, 10 ** (LOW + 80)),
    ))
    return top, divisor


@pytest.mark.skipif(not digit_limit(), reason="no limit on int-to-str conversion")
@given(tops_and_divisors())
@example((10 ** LOW - 1, 1))
@example((10 ** LOW, 1))
@example((7 * 10 ** LOW - 1, 7))
@example((7 * 10 ** LOW, 7))
@example((0, 1))
@settings(max_examples=300, deadline=None)
def test_check_digits_refuses_exactly_a_quotient_past_the_limit(case):
    # the slow path writes the quotient under the interpreter's own limit;
    # check_digits then runs under the lowest one
    top, divisor = case
    past = len(str(top // divisor)) > LOW
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LOW)
    try:
        assert digit_limit() == LOW
        if past:
            with pytest.raises(ResourceLimitError) as refusal:
                check_digits("the quotient", top, divisor)
            assert str(refusal.value) == (
                f"the quotient would pass Python's {LOW}-digit limit on int-to-str conversion "
                "(sys.get_int_max_str_digits())"
            )
        else:
            check_digits("the quotient", top, divisor)
    finally:
        sys.set_int_max_str_digits(limit)
