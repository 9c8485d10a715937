"""Registry wiring: parse/render round trips and the common size index."""
import doctest
import hashlib
import importlib
import pkgutil
import random
from functools import reduce

import pytest

import fpaths
from fpaths.errors import (
    FormViolation,
    GuardExceeded,
    NotAvoider,
    ParseError,
    StepNotInF,
)
from fpaths.families import FAMILIES, TAGS, parse_object
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
