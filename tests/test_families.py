"""Registry wiring: parse/render round trips and the common size index."""
import doctest

import pytest

from fpaths import bicolored_dyck, counting, fpath_core, inversion_seqs
from fpaths import pattern_perms, schroder_paths, weighted_trees
from fpaths.errors import (
    FormViolation,
    GuardExceeded,
    NotAvoider,
    ParseError,
    StepNotInF,
)
from fpaths.families import FAMILIES, TAGS, parse_object
from fpaths.fpath_core import DEFAULT_GUARD, fpath_stats, validate_fpath


def test_tags_complete():
    assert TAGS == ("fpath", "schroder", "bicolored", "perm", "inv-i", "inv-j", "tree")
    assert set(FAMILIES) == set(TAGS)


def test_all_families_share_the_size_index():
    for n, want in enumerate((1, 2, 6, 21)):
        for tag in TAGS:
            assert len(FAMILIES[tag].generate(n)) == want, (tag, n)


def test_every_generator_guards_the_common_index():
    for tag in TAGS:
        with pytest.raises(GuardExceeded) as info:
            FAMILIES[tag].generate(DEFAULT_GUARD + 1)
        assert info.value.requested == DEFAULT_GUARD + 1, tag
        assert info.value.guard == DEFAULT_GUARD, tag


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
    [
        fpath_core,
        counting,
        schroder_paths,
        bicolored_dyck,
        pattern_perms,
        inversion_seqs,
        weighted_trees,
    ],
)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
