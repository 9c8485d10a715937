"""Registry wiring: parse/render round trips and the common size index."""
import dataclasses
import doctest
import hashlib
import importlib
import pkgutil
import random
from functools import reduce

import pytest

import fpaths
from fpaths import errors
from fpaths.errors import (
    FormViolation,
    GuardExceeded,
    NotAvoider,
    ParseError,
    StepNotInF,
)
from fpaths.families import FAMILIES, TAGS, FamilyInfo, parse_object
from fpaths.fpath_core import (
    MAX_N,
    NORTH,
    common_index,
    fpath_decompose,
    fpath_stats,
    gen_fpaths,
    validate_fpath,
)
import oracles


def test_tags_complete():
    assert TAGS == ("fpath", "schroder", "bicolored", "perm", "inv-i", "inv-j", "tree")
    assert set(FAMILIES) == set(TAGS)


def test_all_families_share_the_size_index():
    for n, want in enumerate((1, 2, 6, 21)):
        for tag in TAGS:
            assert len(FAMILIES[tag].generate(n)) == want, (tag, n)


@pytest.mark.parametrize("tag", TAGS)
def test_every_generator_guards_the_common_index(tag):
    """Every ``generate`` refuses a size above MAX_N, a negative one and a
    non-integer one before it builds anything."""
    with pytest.raises(GuardExceeded) as info:
        FAMILIES[tag].generate(MAX_N + 1)
    assert (info.value.requested, info.value.guard) == (MAX_N + 1, MAX_N)
    assert str(info.value) == f"n must be <= {MAX_N}, got {MAX_N + 1}"
    for n in (-1, 2.5, "2"):
        with pytest.raises(FormViolation):
            FAMILIES[tag].generate(n)
    assert common_index(MAX_N) == MAX_N
    for n in ("2", 2.0):
        with pytest.raises(FormViolation):
            gen_fpaths(n)


def test_parse_render_round_trip():
    for n in range(4):
        for tag in TAGS:
            fam = FAMILIES[tag]
            for obj in fam.generate(n):
                assert fam.parse(fam.render(obj)) == obj


def test_registry_maps_agree_with_stats():
    for n in range(4):
        for tag in TAGS:
            fam = FAMILIES[tag]
            for obj in fam.generate(n):
                q = fam.to_fpath(obj)
                validate_fpath(q)
                assert fam.from_fpath(q) == obj
                assert fam.stats(obj) == fpath_stats(q)[0]


def test_public_stats_validates():
    perm, inv_i = FAMILIES["perm"], FAMILIES["inv-i"]
    with pytest.raises(NotAvoider):
        perm.stats((2, 3, 4, 1))
    with pytest.raises(FormViolation):
        inv_i.stats((0, 0.5))
    with pytest.raises(FormViolation):
        FAMILIES["inv-j"].stats(())
    with pytest.raises(FormViolation):
        inv_i.to_fpath((0, 0.5))
    for tag in TAGS:
        fam = FAMILIES[tag]
        for obj in fam.generate(3):
            assert fam.stats(obj) == fam.stats_core(obj)


#: sha256 of the "\n"-joined ``render(psi(q))`` over every F-path of
#: length 0..6 in generation order (1,779 lines); the tree family's pin
#: is in test_weighted_trees.py.
MAP_SHA256 = {
    "schroder":
        "41f2a33a21ea161c9650f7404853fa542c44c5d06d9edf1620b9246805a077ba",
    "bicolored":
        "0e815d93939d8d058f60902aa1c02b7b6a139648c621370600ca60c89aae10bd",
    "perm":
        "96fa9bbad6c1232be3412409ef6a12d37104c152ff51fd44b7ea51e808dae1cb",
    "inv-i":
        "dca85e15a0ee745aed637ca6cdc08f34612353836658f70f079ae05091e687ed",
    "inv-j":
        "92fb59bec2818826b5dc869668d256df534bdf4d7a8a7f4226a3811a116b5c3d",
}


@pytest.mark.parametrize("tag", sorted(MAP_SHA256))
def test_family_map_is_pinned(tag):
    """Round trips and statistics cannot tell another bijection from
    this one; the hash of every image up to length 6 can."""
    fam = FAMILIES[tag]
    lines = [fam.render(fam.psi(q)) for n in range(7) for q in gen_fpaths(n)]
    assert len(lines) == 1779
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MAP_SHA256[tag]


MAPPED = ("schroder", "bicolored", "perm", "inv-i", "inv-j", "tree")


@pytest.mark.parametrize(
    "tag, n",
    [(tag, n) for n in (50, 500, 3000) for tag in MAPPED],
)
def test_large_objects_cross_the_boundary(random_fpath, tag, n):
    """Seeded random paths: the checked round trip through text,
    statistics, direct sums and the decomposition into summands."""
    fam = FAMILIES[tag]
    rng = random.Random(n)
    q, q1, q2 = (random_fpath(rng, n) for _ in range(3))
    obj = fam.psi(q)
    assert fam.to_fpath(fam.parse(fam.render(obj))) == q
    assert fam.stats(obj) == fpath_stats(q)[0]
    joined = q1 + (NORTH,) + q2
    assert fam.direct_sum(fam.psi(q1), fam.psi(q2)) == fam.psi(joined)
    assert (fam.decompose(fam.psi(joined))
            == [fam.psi(r) for r in fpath_decompose(joined)])


def test_decompose_undoes_the_fold():
    """Every object of every family with n <= 7 unfolds into height + 1
    summands of height 0 that fold back to it."""
    for tag in TAGS:
        fam = FAMILIES[tag]
        for n in range(8):
            for obj in fam.generate(n):
                parts = fam.decompose(obj)
                assert reduce(fam.direct_sum, parts) == obj, (tag, obj)
                assert len(parts) == fam.stats_core(obj).h + 1, (tag, obj)
                assert all(fam.stats_core(r).h == 0 for r in parts), (tag, obj)


@pytest.mark.parametrize("tag", TAGS)
def test_decompose_keeps_a_height_zero_object(random_fpath, tag):
    """An object of height 0 is its own single summand: ``decompose``
    returns it without a ψ call.  One of height h costs h + 1 calls of
    the entry's own ψ: ``decompose`` is a method, not a field."""
    fam = FAMILIES[tag]
    calls = []

    def psi(q):
        calls.append(q)
        return fam.psi(q)

    assert "decompose" not in {f.name for f in dataclasses.fields(FamilyInfo)}
    decompose = dataclasses.replace(fam, psi=psi).decompose
    walk = random_fpath(random.Random(2999), 2999)
    height = fpath_stats(walk)[0].h
    obj = fam.psi(walk + ((height + 1, 1),))
    assert decompose(obj) == [obj] and not calls
    joined = fam.psi(walk)
    assert decompose(joined) == fam.decompose(joined)
    assert len(calls) == height + 1 > 1


def test_empty_conventions():
    assert FAMILIES["fpath"].render(()) == "-"
    assert FAMILIES["fpath"].parse("-") == ()
    assert FAMILIES["schroder"].render("") == "-"
    assert FAMILIES["schroder"].parse("-") == ""


# ------------------------------------------------------------ parse errors


@pytest.mark.parametrize(
    "tag, text, offset",
    [
        ("fpath", "0,1 x", 4),
        ("fpath", "0,1 0,1 0,1,2", 8),
        ("fpath", "0,1 0,1x 0,1", 4),
        ("fpath", "1,1 1,1 1", 8),
        ("fpath", "0 1", 0),
        ("schroder", "uxd", 1),
        ("bicolored", "uq", 1),
        ("perm", "1 two", 0),
        ("perm", "1 3", 0),
        ("inv-i", "0,a", 0),
        ("tree", "", 0),
        ("tree", "[", 1),
        ("tree", "[(L)]", 2),
        ("tree", "[L L] x", 6),
        ("tree", "[(9z L)]", 3),
        ("tree", "[(- L)]", 2),
        ("tree", "[(1-2 L)]", 2),
        ("tree", "[L (\u00b2 L)]", 4),
    ],
)
def test_parse_error_offsets(tag, text, offset):
    with pytest.raises(ParseError) as exc:
        parse_object(tag, text)
    assert exc.value.offset == offset


def test_parse_object_refuses_an_unknown_family():
    with pytest.raises(ParseError) as exc:
        parse_object("nope", "x")
    assert exc.value.offset == 0
    assert str(exc.value) == "parse error at offset 0: unknown family 'nope'"
    # A key that is not a string, hashable or not, is an unknown name.
    for family in (None, [], {}, set()):
        with pytest.raises(ParseError) as exc:
            parse_object(family, "1")
        assert exc.value.offset == 0
        assert str(exc.value) == (
            f"parse error at offset 0: unknown family {family!r}")


#: Bad texts and how ``parse`` refuses them: the exception class, its
#: text and, for a ParseError, its offset into the stripped line.  The
#: order of the checks shows where one text breaks two rules: a bad token
#: beats an earlier bad step, an inversion bound beats any pattern, 101
#: beats a 102 or 021 completed before it, and a tree's syntax beats its
#: weights.
REJECTED = [
    ("fpath", "x", "ParseError", "expected 'a,b', got 'x'", 0),
    ("fpath", "-1", "ParseError", "expected 'a,b', got '-1'", 0),
    ("fpath", "0,1 x", "ParseError", "expected 'a,b', got 'x'", 4),
    ("fpath", "2,1 x", "ParseError", "expected 'a,b', got 'x'", 4),
    ("fpath", "0,1 1,2 x", "ParseError", "expected 'a,b', got 'x'", 8),
    ("fpath", "0,1 1,1 0,1 3,1 2,x", "ParseError",
     "non-integer step '2,x'", 16),
    ("fpath", "2,1 0,1", "PrefixViolation",
     "prefix of length 1 has sum(dx) > sum(dy)", None),
    ("fpath", "1,1 1,1 2,1", "PrefixViolation",
     "prefix of length 3 has sum(dx) > sum(dy)", None),
    ("fpath", "\u0663,1", "PrefixViolation",
     "prefix of length 1 has sum(dx) > sum(dy)", None),
    ("fpath", "0,1 1,2", "StepNotInF", "step (1, 2) at position 1 is not in F",
     None),
    ("fpath", "0,1 0,0", "StepNotInF", "step (0, 0) at position 1 is not in F",
     None),
    ("fpath", "0,1 -1,1", "StepNotInF",
     "step (-1, 1) at position 1 is not in F", None),
    ("fpath", "0,1 0,1 0,1,2", "ParseError", "expected 'a,b', got '0,1,2'", 8),
    ("fpath", "0,1 0,1x 0,1", "ParseError", "non-integer step '0,1x'", 4),
    ("fpath", "1,1 1,1 1", "ParseError", "expected 'a,b', got '1'", 8),
    ("fpath", "0 1", "ParseError", "expected 'a,b', got '0'", 0),
    ("fpath", "--", "ParseError", "expected 'a,b', got '--'", 0),
    ("fpath", "0,1 3,-1 0,1,", "ParseError", "expected 'a,b', got '0,1,'", 9),
    ("fpath", "0,1\t2,1 1,1,", "ParseError", "expected 'a,b', got '1,1,'", 8),
    ("fpath", "1.5,1", "ParseError", "non-integer step '1.5,1'", 0),
    ("fpath", "0,1 ,1", "ParseError", "non-integer step ',1'", 4),
    ("schroder", "uxd", "ParseError", "letter 'x' not in 'udh'", 1),
    ("schroder", "-x", "ParseError", "letter '-' not in 'udh'", 0),
    ("schroder", "d", "BelowAxis", "letter 0 takes the path below the x-axis",
     None),
    ("schroder", "uhdd", "BelowAxis",
     "letter 3 takes the path below the x-axis", None),
    ("schroder", "u", "NotClosed", "path ends at height 1, not 0", None),
    ("bicolored", "uurdb", "ParseError", "letter 'd' not in 'urb'", 3),
    ("bicolored", "", "RunFormViolation",
     "run form broken at letter 0: empty word", None),
    ("bicolored", "ub", "RunFormViolation",
     "run form broken at letter 1: word must end with a red run", None),
    ("bicolored", "urb", "BelowAxis",
     "letter 2 takes the path below the x-axis", None),
    ("perm", "", "ParseError",
     "empty permutation; the smallest has length 1", 0),
    ("perm", "   ", "ParseError",
     "empty permutation; the smallest has length 1", 0),
    ("perm", "1 x", "ParseError", "non-integer entry in '1 x'", 0),
    ("perm", "1,2", "ParseError", "non-integer entry in '1,2'", 0),
    ("perm", "1 2 3 4 6 5 7 x", "ParseError",
     "non-integer entry in '1 2 3 4 6 5 7 x'", 0),
    ("perm", "1 3", "ParseError", "not a permutation of 1..2: '1 3'", 0),
    ("perm", "1 1", "ParseError", "not a permutation of 1..2: '1 1'", 0),
    ("perm", "0", "ParseError", "not a permutation of 1..1: '0'", 0),
    ("perm", "2 1 2", "ParseError", "not a permutation of 1..3: '2 1 2'", 0),
    ("perm", "2 3 4 1", "NotAvoider", "contains pattern (2, 3, 4, 1)", None),
    ("perm", "2 4 3 1", "NotAvoider", "contains pattern (2, 4, 3, 1)", None),
    ("perm", "3 2 4 1", "NotAvoider", "contains pattern (3, 2, 4, 1)", None),
    ("perm", "5 2 3 4 1", "NotAvoider", "contains pattern (2, 3, 4, 1)", None),
    ("perm", "3 2 5 4 1", "NotAvoider", "contains pattern (2, 4, 3, 1)", None),
    ("perm", "4 2 5 3 6 1", "NotAvoider", "contains pattern (2, 3, 4, 1)",
     None),
    ("inv-i", "", "ParseError", "non-integer entry in ''", 0),
    ("inv-i", "-", "ParseError", "non-integer entry in '-'", 0),
    ("inv-i", "0,a", "ParseError", "non-integer entry in '0,a'", 0),
    ("inv-i", "0,,1", "ParseError", "non-integer entry in '0,,1'", 0),
    ("inv-i", "1", "FormViolation", "entry 1 at position 1 outside 0..0", None),
    ("inv-i", "0,2", "FormViolation", "entry 2 at position 2 outside 0..1",
     None),
    ("inv-i", "0,-1", "FormViolation", "entry -1 at position 2 outside 0..1",
     None),
    ("inv-i", "0,1,0,1,9", "FormViolation",
     "entry 9 at position 5 outside 0..4", None),
    ("inv-i", "0,5,0,1,0", "FormViolation",
     "entry 5 at position 2 outside 0..1", None),
    ("inv-i", "0,1,0,1", "NotAvoider", "contains pattern (1, 0, 1)", None),
    ("inv-i", "0, 1,0,1", "NotAvoider", "contains pattern (1, 0, 1)", None),
    ("inv-i", "0,1,0,2,1", "NotAvoider", "contains pattern (1, 0, 1)", None),
    ("inv-i", "0,1,2,0,1,5", "NotAvoider", "contains pattern (1, 0, 1)", None),
    ("inv-i", "0,0,1,0,2", "NotAvoider", "contains pattern (1, 0, 2)", None),
    ("inv-i", "0,1,0,2", "NotAvoider", "contains pattern (1, 0, 2)", None),
    ("inv-j", "", "ParseError", "non-integer entry in ''", 0),
    ("inv-j", "0,a", "ParseError", "non-integer entry in '0,a'", 0),
    ("inv-j", "1", "FormViolation", "entry 1 at position 1 outside 0..0", None),
    ("inv-j", "0,1,0,1,9", "FormViolation",
     "entry 9 at position 5 outside 0..4", None),
    ("inv-j", "0,1,3,0,2,7", "FormViolation",
     "entry 3 at position 3 outside 0..2", None),
    ("inv-j", "0,1,0,1", "NotAvoider", "contains pattern (1, 0, 1)", None),
    ("inv-j", "0,1,2,1,0,1", "NotAvoider", "contains pattern (1, 0, 1)", None),
    ("inv-j", "0,0,2,1,0,2", "NotAvoider", "contains pattern (1, 0, 1)", None),
    ("inv-j", "0,0,1,3,2", "NotAvoider", "contains pattern (0, 2, 1)", None),
    ("inv-j", "0,0,2,1", "NotAvoider", "contains pattern (0, 2, 1)", None),
    ("tree", "", "ParseError", "expected '['", 0),
    ("tree", "x", "ParseError", "expected '['", 0),
    ("tree", "[", "ParseError", "missing ']'", 1),
    ("tree", "[L", "ParseError", "missing ']'", 2),
    ("tree", "[(1 L", "ParseError", "missing ')'", 5),
    ("tree", "[(L)]", "ParseError", "expected a weight", 2),
    ("tree", "[L (\u00b2 L)]", "ParseError", "expected a weight", 4),
    ("tree", "[(\u0663 L L L)]", "ParseError", "expected a weight", 2),
    ("tree", "[(- L)]", "ParseError", "bad weight '-'", 2),
    ("tree", "[(1-2 L)]", "ParseError", "bad weight '1-2'", 2),
    ("tree", "[(1)]", "ParseError", "weighted vertex needs children", 4),
    ("tree", "[1 L]", "ParseError", "expected 'L' or '(', got '1'", 1),
    ("tree", "[(9z L)]", "ParseError", "expected 'L' or '(', got 'z'", 3),
    ("tree", "  [x]", "ParseError", "expected 'L' or '(', got 'x'", 1),
    ("tree", "[\t(1 L)]", "ParseError", "expected 'L' or '(', got '\\t'", 1),
    ("tree", "[(1 L) L) L]", "ParseError", "expected 'L' or '(', got ')'", 8),
    ("tree", "[L L] x", "ParseError", "trailing characters", 6),
    ("tree", "[(1 L L)]]", "ParseError", "trailing characters", 9),
    ("tree", "[]", "FormViolation", "tree must have at least one edge", None),
    ("tree", "[(2 L)]", "WeightOutOfRange",
     "vertex 1 has weight 2, expected 1..1", None),
    ("tree", "[(0 L)]", "WeightOutOfRange",
     "vertex 1 has weight 0, expected 1..1", None),
    ("tree", "[(-1 L)]", "WeightOutOfRange",
     "vertex 1 has weight -1, expected 1..1", None),
    ("tree", "[(3 L L)]", "WeightOutOfRange",
     "vertex 1 has weight 3, expected 1..2", None),
    ("tree", "[(1 (2 L) L)]", "WeightOutOfRange",
     "vertex 2 has weight 2, expected 1..1", None),
    ("tree", "[(2 L) (3 L L)]", "WeightOutOfRange",
     "vertex 1 has weight 2, expected 1..1", None),
    ("tree", "[(3 (2 L) L)]", "WeightOutOfRange",
     "vertex 1 has weight 3, expected 1..2", None),
    ("tree", "[(12345678901234567890 L)]", "WeightOutOfRange",
     "vertex 1 has weight 12345678901234567890, expected 1..1", None),
]


@pytest.mark.parametrize("tag, text, kind, message, offset", REJECTED)
def test_rejections_are_pinned(tag, text, kind, message, offset):
    with pytest.raises(errors.FpathsError) as info:
        FAMILIES[tag].parse(text)
    exc = info.value
    assert type(exc) is getattr(errors, kind)
    if offset is None:
        assert str(exc) == message
    else:
        assert (exc.offset, str(exc)) == (
            offset, f"parse error at offset {offset}: {message}")


#: Odd texts that ``parse`` accepts, with the render of what it reads:
#: int() takes signs, underscores and any Unicode decimal digit, and a
#: tree's weight may run straight into its first child.
ACCEPTED = [
    ("fpath", "", "-"),
    ("fpath", "+0,+1 \u0661,1", "0,1 1,1"),
    ("fpath", "0,1\t1,0_0", "0,1 1,0"),
    ("perm", " 2  \u0663 1 ", "2 3 1"),
    ("inv-i", "0, 1 ,+0", "0,1,0"),
    ("inv-j", "0,0_0,\u0661", "0,0,1"),
    ("tree", "[(1L)]", "[(1 L)]"),
    ("tree", "[ (01 L) ]", "[(1 L)]"),
    ("tree", "[(2(1 L)L)]", "[(2 (1 L) L)]"),
]


@pytest.mark.parametrize("tag, text, rendered", ACCEPTED)
def test_odd_acceptances_are_pinned(tag, text, rendered):
    fam = FAMILIES[tag]
    assert fam.render(fam.parse(text)) == rendered


#: Bad Python values and how the public ``to_fpath`` and ``stats`` refuse
#: them: the exception class and its text.
REFUSED = [
    ("fpath", [(0, 1), (1, 2)], "StepNotInF",
     "step (1, 2) at position 1 is not in F"),
    ("fpath", [(2, 1)], "PrefixViolation",
     "prefix of length 1 has sum(dx) > sum(dy)"),
    ("fpath", [(0, 1), (1.0, 1)], "StepNotInF",
     "step (1.0, 1) at position 1 is not in F"),
    ("fpath", [(0, 1), (1,)], "StepNotInF", "step (1,) at position 1 is not in F"),
    ("fpath", [(0, 1), "ab"], "StepNotInF", "step ab at position 1 is not in F"),
    ("fpath", 5, "FormViolation", "expected a sequence of steps, got int"),
    ("perm", (), "FormViolation", "empty permutation; the shortest has length 1"),
    ("perm", (1, 3), "FormViolation", "not a permutation of 1..2: (1, 3)"),
    ("perm", [1, True], "FormViolation", "not a permutation of 1..2: (1, 1)"),
    ("perm", (1, 2.0), "FormViolation",
     "entry 2.0 at position 2 is not an integer"),
    ("perm", "12", "FormViolation", "entry '1' at position 1 is not an integer"),
    ("perm", (2, 3, 4, 1), "NotAvoider", "contains pattern (2, 3, 4, 1)"),
    ("perm", (3, 2, 5, 4, 1), "NotAvoider", "contains pattern (2, 4, 3, 1)"),
    ("inv-i", (), "FormViolation", "empty sequence; the shortest has length 1"),
    ("inv-i", (0, 0.5), "FormViolation",
     "entry 0.5 at position 2 is not an integer"),
    ("inv-i", [0, "1"], "FormViolation",
     "entry '1' at position 2 is not an integer"),
    ("inv-i", (1,), "FormViolation", "entry 1 at position 1 outside 0..0"),
    ("inv-i", (0, 1, 0, 1, 9), "FormViolation",
     "entry 9 at position 5 outside 0..4"),
    ("inv-i", (0, 1, 0, 2, 1), "NotAvoider", "contains pattern (1, 0, 1)"),
    ("inv-i", (0, 1, 0, 2), "NotAvoider", "contains pattern (1, 0, 2)"),
    ("inv-j", (), "FormViolation", "empty sequence; the shortest has length 1"),
    ("inv-j", (0, 3), "FormViolation", "entry 3 at position 2 outside 0..1"),
    ("inv-j", (0, 0, 2, 1, 0, 2), "NotAvoider", "contains pattern (1, 0, 1)"),
    ("inv-j", (0, 0, 1, 3, 2), "NotAvoider", "contains pattern (0, 2, 1)"),
    ("tree", (), "FormViolation",
     "a tree is a non-empty tuple of (weight, outdegree) pairs"),
    ("tree", [(None, 1), (None, 0)], "FormViolation",
     "a tree is a non-empty tuple of (weight, outdegree) pairs"),
    ("tree", ((None, 0),), "FormViolation", "tree must have at least one edge"),
    ("tree", ((None, 1), (2, 0)), "WeightOnLeafOrRoot",
     "vertex 1 must be unweighted, got 2"),
    ("tree", ((1, 1), (None, 0)), "WeightOnLeafOrRoot",
     "vertex 0 must be unweighted, got 1"),
    ("tree", ((None, 1), (0, 1), (None, 0)), "WeightOutOfRange",
     "vertex 1 has weight 0, expected 1..1"),
    ("tree", ((None, 1), (None, 1), (None, 0)), "WeightOutOfRange",
     "vertex 1 has weight None, expected 1..1"),
    ("tree", ((None, 1), (1.0, 1), (None, 0)), "WeightOutOfRange",
     "vertex 1 has weight 1.0, expected 1..1"),
    ("tree", ((None, 2), (None, 0)), "FormViolation",
     "the tree is missing 1 vertexes"),
    ("tree", ((None, 1), (None, 0), (None, 0)), "FormViolation",
     "vertex 2 lies past the end of the tree"),
    ("tree", ((None, 1), [1, 1], (None, 0)), "FormViolation",
     "vertex 1 is not a (weight, outdegree >= 0) pair"),
    ("tree", ((None, -1),), "FormViolation",
     "vertex 0 is not a (weight, outdegree >= 0) pair"),
]


@pytest.mark.parametrize("tag, value, kind, message", REFUSED)
def test_python_value_refusals_are_pinned(tag, value, kind, message):
    for field in ("to_fpath", "stats"):
        with pytest.raises(errors.FpathsError) as info:
            getattr(FAMILIES[tag], field)(value)
        assert type(info.value) is getattr(errors, kind), field
        assert str(info.value) == message, field


def test_perm_parse_rejects_the_empty_permutation():
    # every perm of common index n >= 0 has length >= 1
    for text in ("", "   "):
        with pytest.raises(ParseError):
            parse_object("perm", text)


def test_parse_validates_semantics_too():
    with pytest.raises(StepNotInF):
        parse_object("fpath", "0,1 1,2")


# ---------------------------------------------------------------- doctests


@pytest.mark.parametrize(
    "module",
    [fpaths]
    + [importlib.import_module(f"fpaths.{info.name}")
       for info in pkgutil.iter_modules(fpaths.__path__)]
    + [oracles],
)
def test_doctests(module):
    """The examples in every module of the package, found by walking it,
    so that a new module's examples run too."""
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
