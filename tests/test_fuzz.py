"""Fuzz at the family boundary: parse, to_fpath and from_fpath.

Short text over each family's alphabet plus separators, and short
sequences of raw step tuples of small ints, are fed to the public entry
points of every family, and short raw codes to the tree family's.  Only
``FpathsError`` subclasses may escape, and every accepted input must
round-trip.  Inputs stay short, so trees stay shallow.  The runs are
derandomized, so the suite is repeatable.
Arguments of the wrong type go to every checking field of every family.
The one-pass readers are checked against the readers they replaced,
``oracles.READERS``, on renders of ψ(q) for n <= 30 with one character
inserted, deleted or replaced.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from fpaths.errors import FormViolation, FpathsError  # noqa: E402
from fpaths.families import FAMILIES, TAGS  # noqa: E402
from fpaths.fpath_core import fpath_stats  # noqa: E402
import oracles  # noqa: E402

FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                database=None)

#: Pieces of each text form.  Fuzz text is a run of pieces, a run of
#: their letters plus separators, or a small edit of a rendered object.
PIECES = {
    "fpath": ("0,1 ", "1,1 ", "1,0 ", "2,1 ", "1,-1 ", "3", ","),
    "schroder": ("u", "d", "h", "ud"),
    "bicolored": ("u", "r", "b", "ur", "ub"),
    "perm": ("1 ", "2 ", "3 ", "4 ", "0"),
    "inv-i": ("0,", "1,", "2,", "0", "1", "3"),
    "inv-j": ("0,", "1,", "2,", "0", "1", "3"),
    "tree": ("[", "]", "L ", "(1 ", "(2 ", ")", "(3"),
}


def texts(tag):
    fam = FAMILIES[tag]
    pieces = PIECES[tag]
    letters = "".join(sorted(set("".join(pieces)))) + " \t-"
    rendered = [fam.render(o) for n in range(4) for o in fam.generate(n)]
    edits = st.builds(
        lambda text, at, cut, put: text[:at] + put + text[at + cut:],
        st.sampled_from(rendered), st.integers(0, 16), st.integers(0, 2),
        st.text(letters, max_size=2))
    return st.one_of(st.lists(st.sampled_from(pieces), max_size=8).map("".join),
                     st.text(letters, max_size=14), edits)


@pytest.mark.parametrize("tag", TAGS)
def test_parse_accepts_only_round_trippers(tag):
    fam = FAMILIES[tag]

    @FUZZ
    @given(texts(tag))
    def check(text):
        try:
            obj = fam.parse(text)
        except FpathsError:
            return
        assert fam.from_fpath(fam.to_fpath(obj)) == obj
        assert fam.parse(fam.render(obj)) == obj

    check()


small = st.integers(-3, 3)
#: North steps and (a, b) with a >= 1, b <= 1: paths of these alone are
#: often accepted.  Mixed in: any small pair, wrong lengths and floats.
f_like = st.one_of(st.just((0, 1)),
                   st.tuples(st.integers(1, 3), st.integers(-2, 1)))
any_step = st.one_of(
    st.tuples(small, small),
    st.lists(small, max_size=3).map(tuple),
    st.tuples(st.floats(-3, 3, allow_nan=False), small),
)
raw_steps = st.one_of(st.lists(f_like, max_size=8),
                      st.lists(st.one_of(f_like, any_step), max_size=8))


@pytest.mark.parametrize("tag", TAGS)
def test_from_fpath_accepts_only_f_paths(tag):
    fam = FAMILIES[tag]

    @FUZZ
    @given(raw_steps)
    def check(steps):
        try:
            obj = fam.from_fpath(steps)
        except FpathsError:
            return
        assert fam.to_fpath(obj) == tuple(steps)

    check()


#: Pieces of raw tree codes: a weight or an outdegree is None, a small
#: int or a float, and a few items have the wrong length.
code_value = st.one_of(st.none(), st.integers(-1, 3),
                       st.floats(-1, 3, allow_nan=False))
code_item = st.one_of(st.tuples(st.none(), st.integers(0, 3)),
                      st.tuples(st.integers(1, 3), st.integers(1, 3)),
                      st.tuples(code_value, code_value),
                      st.lists(code_value, max_size=3).map(tuple))
#: Raw codes are runs of such items, or generated trees with at most one
#: item cut and one put in.
raw_codes = st.one_of(
    st.lists(code_item, max_size=8).map(tuple),
    st.builds(lambda t, at, cut, put: t[:at] + tuple(put) + t[at + cut:],
              st.sampled_from([t for n in range(4)
                               for t in FAMILIES["tree"].generate(n)]),
              st.integers(0, 6), st.integers(0, 1),
              st.lists(code_item, max_size=1)))


def test_tree_codes_accepted_only_if_they_round_trip():
    """A tree is a plain tuple any caller can build: to_fpath and stats
    refuse a bad one with an FpathsError, and agree on a good one."""
    fam = FAMILIES["tree"]

    @FUZZ
    @given(raw_codes)
    def check(code):
        try:
            q = fam.to_fpath(code)
        except FpathsError:
            with pytest.raises(FpathsError):
                fam.stats(code)
            return
        assert fam.from_fpath(q) == code
        assert fam.stats(code) == fpath_stats(q)[0]

    check()


#: The fields of ``FamilyInfo`` that check their argument.  ``render``,
#: ``direct_sum`` and the cores ``phi``, ``psi``, ``stats_core`` trust
#: theirs: they take only values these fields have checked.
CHECKING = ("parse", "generate", "to_fpath", "from_fpath", "stats")


@pytest.mark.parametrize("field", CHECKING)
@pytest.mark.parametrize("tag", TAGS)
def test_wrong_type_arguments_raise_form_violation(tag, field):
    entry = getattr(FAMILIES[tag], field)
    # 5 is a valid common index; generate gets the string "5" instead.
    for arg in (None, 1.5, object(), "5" if field == "generate" else 5):
        with pytest.raises(FormViolation):
            entry(arg)


@st.composite
def f_paths(draw, max_n=30):
    """An F-path of length <= max_n: from height h, a north step or a
    step (a, b) with 1 <= a <= min(h + 1, 4) and a - h <= b <= 1, b >= -3."""
    q, h = [], 0
    for _ in range(draw(st.integers(0, max_n))):
        a = draw(st.integers(0, min(h + 1, 4)))
        b = draw(st.integers(max(a - h, -3), 1)) if a else 1
        q.append((a, b))
        h += b - a
    return tuple(q)


#: Characters a one-character edit puts in: the letters of these five
#: text forms, some other ASCII, a tab, and a superscript and an
#: Arabic-Indic digit (int() reads the second but not the first).
EDIT_CHARS = "0123456789,- L()[]x+_\t\u00b2\u0663"


def outcome(read, text):
    """What ``read`` makes of ``text``: the value, or the exception's
    class, text and offset."""
    try:
        return read(text)
    except FpathsError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@pytest.mark.parametrize("tag", sorted(oracles.READERS))
def test_one_pass_readers_match_the_token_walkers(tag):
    fam = FAMILIES[tag]
    read = oracles.READERS[tag]

    @FUZZ
    @given(f_paths(), st.integers(0, 200), st.sampled_from("idr"),
           st.sampled_from(EDIT_CHARS))
    def check(q, at, op, char):
        text = fam.render(fam.psi(q))
        at %= len(text) + (op == "i")
        cut = op != "i"
        text = text[:at] + ("" if op == "d" else char) + text[at + cut:]
        assert outcome(fam.parse, text) == outcome(read, text)

    check()
