"""The error classes: every one survives a pickle round trip and a
copy, every message prints ints past the int-to-str digit limit, and
every public name gives a result or a typed error on hostile input."""
import copy
import inspect
import pickle
import sys
from itertools import product

import pytest

import fpaths
from fpaths import errors
from fpaths.bicolored_dyck import validate_bicolored
from fpaths.counting import a_joint, comb0
from fpaths.families import FAMILIES, TAGS, parse_fpath, parse_object
from fpaths.fpath_core import (
    common_index, int_entries, require_str, validate_fpath)
from fpaths.inversion_seqs import parse_invseq, validate_invseq
from fpaths.pattern_perms import parse_perm, validate_avoider
from fpaths.schroder_paths import validate_schroder
from fpaths.verify_harness import run_all
from fpaths.weighted_trees import parse_wtree, validate_wtree

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


@pytest.mark.parametrize("family, shown", [
    ("X", "'X'"), (None, "None"), ([[1]], "[[1]]"), (BIG, DIGITS),
], ids=["str", "None", "list", "big"])
def test_both_invseq_readers_refuse_an_unknown_family_alike(family, shown):
    """The text reader and the validator refuse a family that is none of
    theirs with one typed error and one message, before any entry."""
    for read, entries in ((parse_invseq, "0,0"), (validate_invseq, [0, 0])):
        with pytest.raises(errors.FormViolation) as caught:
            read(entries, family)
        assert str(caught.value) == \
            f"unknown inversion-sequence family {shown}", read.__name__


def test_int_text_keeps_str_and_repr_below_the_limit():
    for value in (0, -7, (1, 2), (3,), [4, "a"], "b", None, 1.5):
        assert errors.int_text(value) == str(value)
        assert errors.int_text(value, repr) == repr(value)
    assert errors.int_text(("a", BIG), repr) == f"('a', {DIGITS})"


# ------------------------------------------------------- hostile arguments

#: Each value put in place of one valid argument at a time.
HOSTILE = [None, 1.5, float("nan"), True, -1, BIG, "", b"x", [[1]], object(),
           ()]

#: The exported F-path helpers that README documents as trusted: they
#: take a valid path, and raise what they meet on anything else.
TRUSTED = {"fpath_stats", "fpath_decompose", "fpath_direct_sum",
           "involution_phi_F"}

Q = ((0, 1), (1, 1))

#: The valid arguments of every exported function, by name.
EXPORTED_ARGS = {
    "a_joint": (2, 1, 1, 1), "a_marginal": (5, 2, 3, None),
    "a_total": (4,), "f_refined": (2, 1, 0, 0, 1, 1),
    "multinomial": (3, (1, 2)), "sequence": (5,), "series_coeff": (2, 3),
    "parse_object": ("perm", "1 3 2"), "fpath_decompose": (Q,),
    "fpath_direct_sum": (Q, Q), "fpath_stats": (Q,), "gen_fpaths": (2,),
    "involution_phi_F": (Q,), "validate_fpath": (Q,), "run_all": (1,),
}


def _targets():
    """(name, function, valid arguments) of every probed name."""
    exported = [name for name in fpaths.__all__
                if inspect.isfunction(getattr(fpaths, name))]
    assert sorted(exported) == sorted(EXPORTED_ARGS)
    out = [(name, getattr(fpaths, name), EXPORTED_ARGS[name])
           for name in exported]
    for tag in TAGS:
        fam = FAMILIES[tag]
        obj = fam.generate(2)[1]
        out += [(f"FAMILIES[{tag!r}].{field}", getattr(fam, field), args)
                for field, args in (("parse", (fam.render(obj),)),
                                    ("generate", (2,)), ("to_fpath", (obj,)),
                                    ("from_fpath", (Q,)), ("stats", (obj,)))]
    out += [
        ("common_index", common_index, (3,)),
        ("int_entries", int_entries, ((1, 2),)),
        ("require_str", require_str, ("x",)),
        ("parse_fpath", parse_fpath, ("0,1 1,1",)),
        ("parse_object", parse_object, ("tree", "[L (1 L)]")),
        ("validate_schroder", validate_schroder, ("udud",)),
        ("validate_bicolored", validate_bicolored, ("ubuurr",)),
        ("validate_avoider", validate_avoider, ((1, 3, 2),)),
        ("parse_perm", parse_perm, ("1 3 2",)),
        ("validate_invseq", validate_invseq, ((0, 0, 1), "I")),
        ("parse_invseq", parse_invseq, ("0,0,1", "J")),
        ("validate_wtree", validate_wtree,
         (((None, 2), (None, 0), (1, 1), (None, 0)),)),
        ("parse_wtree", parse_wtree, ("[L (1 L)]",)),
        ("comb0", comb0, (5, 2)),
    ]
    return out


def test_every_public_name_answers_or_raises_a_typed_error():
    """Each argument of each public function, each checked family field
    and each public reader and validator, replaced in turn by each
    hostile value, the others valid, gives a result or an
    ``FpathsError``; only the trusted helpers may raise anything else."""
    leaks = []
    for name, func, args in _targets():
        func(*args)  # the valid call answers
        for at, value in product(range(len(args)), HOSTILE):
            try:
                func(*args[:at], value, *args[at + 1:])
            except errors.FpathsError:
                pass
            except Exception as exc:  # the leak under test
                leaks.append((name, at, type(value).__name__,
                              type(exc).__name__))
    assert [leak for leak in leaks if leak[0] not in TRUSTED] == []
    assert {leak[0] for leak in leaks} == TRUSTED
