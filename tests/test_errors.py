"""The error classes: every one survives a pickle round trip and a
copy, and every message prints ints past the int-to-str digit limit."""
import copy
import pickle
import sys

import pytest

from fpaths import errors
from fpaths.counting import a_joint, comb0
from fpaths.families import FAMILIES, parse_object
from fpaths.fpath_core import common_index, int_entries, validate_fpath
from fpaths.inversion_seqs import validate_invseq
from fpaths.verify_harness import run_all

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


#: An int past the 4300-digit limit, and its digits, written without
#: ``str``, which refuses it.
BIG = 10**5000
DIGITS = "1" + "0" * 5000


@pytest.mark.parametrize("call, error, message", [
    (lambda: common_index(BIG), errors.GuardExceeded,
     f"n must be <= 10, got {DIGITS}"),
    (lambda: common_index(-BIG), errors.FormViolation,
     f"n must be >= 0, got -{DIGITS}"),
    (lambda: FAMILIES["perm"].generate(BIG), errors.GuardExceeded,
     f"n must be <= 10, got {DIGITS}"),
    (lambda: run_all(BIG), errors.GuardExceeded,
     f"n must be <= 10, got {DIGITS}"),
    (lambda: validate_fpath([(1, BIG)]), errors.StepNotInF,
     f"step (1, {DIGITS}) at position 0 is not in F"),
    (lambda: validate_fpath([[1.5, BIG]]), errors.StepNotInF,
     f"step [1.5, {DIGITS}] at position 0 is not in F"),
    (lambda: FAMILIES["tree"].stats(((BIG, 1), (None, 0))),
     errors.WeightOnLeafOrRoot, f"vertex 0 must be unweighted, got {DIGITS}"),
    (lambda: FAMILIES["tree"].stats(((None, 1), (BIG, 1), (None, 0))),
     errors.WeightOutOfRange, f"vertex 1 has weight {DIGITS}, expected 1..1"),
    (lambda: FAMILIES["tree"].stats(((None, BIG),)), errors.FormViolation,
     f"the tree is missing {DIGITS} vertexes"),
    (lambda: FAMILIES["inv-i"].stats([0, BIG]), errors.FormViolation,
     f"entry {DIGITS} at position 2 outside 0..1"),
    (lambda: FAMILIES["perm"].stats([BIG]), errors.FormViolation,
     f"not a permutation of 1..1: ({DIGITS},)"),
    (lambda: int_entries([(BIG,)]), errors.FormViolation,
     f"entry ({DIGITS},) at position 1 is not an integer"),
    (lambda: a_joint(BIG, 1.5, 0, 0), errors.FormViolation,
     f"counts take integer arguments, got ({DIGITS}, 1.5, 0, 0)"),
    (lambda: comb0([BIG], 1), errors.FormViolation,
     f"counts take integer arguments, got [{DIGITS}]"),
    (lambda: parse_object(BIG, "x"), errors.ParseError,
     f"parse error at offset 0: unknown family {DIGITS}"),
    (lambda: validate_invseq([0], BIG), errors.FormViolation,
     f"unknown inversion-sequence family {DIGITS}"),
], ids=["guard", "negative", "generate", "run_all", "step", "step-list",
        "root-weight", "weight", "missing", "inv-i", "perm", "entry",
        "a_joint", "comb0", "family", "invseq-family"])
def test_messages_print_ints_past_the_digit_limit(call, error, message):
    """An int past CPython's int-to-str limit in a refused input gets its
    digits in the typed error, not a bare ValueError from ``str``."""
    limit = sys.get_int_max_str_digits()
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
    assert sys.get_int_max_str_digits() == limit


def test_int_text_keeps_str_and_repr_below_the_limit():
    for value in (0, -7, (1, 2), (3,), [4, "a"], "b", None, 1.5):
        assert errors.int_text(value) == str(value)
        assert errors.int_text(value, repr) == repr(value)
    assert errors.int_text(("a", BIG), repr) == f"('a', {DIGITS})"
