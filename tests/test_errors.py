"""The error classes: every one survives a pickle round trip and a
copy."""
import copy
import pickle
import sys

import pytest

from fpaths import errors

#: One instance of every class, built the way the package raises it.
INSTANCES = [
    errors.FpathsError("base message"),
    errors.StepNotInF((0, 2), 3),
    errors.PrefixViolation(4),
    errors.GuardExceeded(11, 10),
    errors.BelowAxis(3),
    errors.NotClosed(2),
    errors.TripleDescent(5),
    errors.RunFormViolation(6, "red after black"),
    errors.RunFormViolation(1),
    errors.NotAvoider([2, 3, 4, 1]),
    errors.FormViolation("n must be >= 0, got -1"),
    errors.WeightOutOfRange(2, 5, 3),
    errors.WeightOnLeafOrRoot(0, 1),
    errors.InexactDivision(7, 2),
    errors.ParseError(3, "non-integer step '1,x'"),
]


def test_every_class_is_covered():
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.FpathsError)}
    assert classes == {type(exc) for exc in INSTANCES}


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(exc):
    backs = [pickle.loads(pickle.dumps(exc, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in [*backs, copy.copy(exc), copy.deepcopy(exc)]:
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)


def test_inexact_division_names_a_numerator_past_the_digit_limit():
    """A numerator over CPython's 4300-digit int-to-str limit still gets
    its digits in the message, and the process-wide limit is untouched."""
    limit = sys.get_int_max_str_digits()
    exc = errors.InexactDivision(10**5000, 3)
    assert str(exc) == "1" + "0" * 5000 + " is not divisible by 3"
    assert str(errors.InexactDivision(-(10**5000), 7)).startswith("-10000")
    assert str(errors.InexactDivision(7, 2)) == "7 is not divisible by 2"
    assert sys.get_int_max_str_digits() == limit
