"""Ordered trees with interior weights bounded by outdegree.

The counting oracle is a direct recursion over child compositions: a
non-root subtree with e >= 1 edges picks an outdegree d (weight factor d),
a root tree never takes the factor.
"""
import functools
import hashlib
import itertools
import random

import pytest

from fpaths.counting import a_total
from fpaths.errors import (
    FormViolation,
    WeightOnLeafOrRoot,
    WeightOutOfRange,
)
from fpaths.families import FAMILIES
from fpaths.fpath_core import NORTH, fpath_stats, gen_fpaths
from fpaths.weighted_trees import (
    LEAF,
    gen_wtrees,
    phi_T,
    psi_T,
    validate_wtree,
    wtree_direct_sum,
    wtree_stats,
)

parse = FAMILIES["tree"].parse
render = FAMILIES["tree"].render


@functools.lru_cache(maxsize=None)
def oracle_subtree_count(edges):
    if edges == 0:
        return 1
    return sum(d * oracle_forest_count(edges - d, d) for d in range(1, edges + 1))


@functools.lru_cache(maxsize=None)
def oracle_forest_count(edges, k):
    if k == 0:
        return 1 if edges == 0 else 0
    return sum(
        oracle_subtree_count(e) * oracle_forest_count(edges - e, k - 1)
        for e in range(edges + 1)
    )


def oracle_count(edges):
    return sum(oracle_forest_count(edges - d, d) for d in range(1, edges + 1))


# ------------------------------------------------------------- validation


def test_validate_errors():
    with pytest.raises(FormViolation):
        validate_wtree(((None, 0),))
    with pytest.raises(WeightOnLeafOrRoot) as exc:
        validate_wtree(((None, 1), (2, 0)))
    assert exc.value.vertex == 1
    with pytest.raises(WeightOnLeafOrRoot) as exc:
        validate_wtree(((1, 1), LEAF))
    assert exc.value.vertex == 0
    with pytest.raises(WeightOutOfRange) as exc:
        parse("[(3 L L)]")
    assert exc.value.vertex == 1
    with pytest.raises(WeightOutOfRange):
        validate_wtree(((None, 1), (0, 1), LEAF))
    # unweighted interior non-root vertex is just as illegal
    with pytest.raises(WeightOutOfRange):
        validate_wtree(((None, 1), (None, 1), LEAF))


def test_validate_refuses_non_trees():
    for bad in (5, None, (), ((None, 1), 5), [(None, 1), LEAF],
                ((None, 1), (1, 2), LEAF, None),
                ((None, 1), (1, 2), LEAF),            # a vertex missing
                ((None, 1), LEAF, LEAF),              # a vertex past the end
                ((None, 1), LEAF, (1, 1)),            # one that fills a slot
                ((None, 1), (None, -1)),              # negative outdegree
                ((None, 1.0), LEAF),                  # float outdegree
                ((None, 1), (1, 1.0), LEAF),
                ((None, 1), (None, 0, 0)), ((None, 1), (None,))):
        with pytest.raises(FormViolation):
            validate_wtree(bad)


def test_depth_5000_without_recursion():
    """A chain of 5000 weight-1 vertices parses, validates, maps both
    ways and renders back."""
    depth = 5000
    text = "[" + "(1 " * depth + "L" + ")" * depth + "]"
    t = parse(text)
    assert render(t) == text
    q = phi_T(t)
    assert q == ((1, 1),) * depth
    assert render(psi_T(q)) == text
    assert tuple(wtree_stats(t)) == (0, 0, depth)


def _chain(depth, last_weight):
    """A root over ``depth`` nested vertices of weight 1, except the
    deepest, which has weight ``last_weight`` and two leaves."""
    return ((None, 1),) + ((1, 1),) * (depth - 1) + ((last_weight, 2), LEAF, LEAF)


def test_deep_trees_compare_and_hash_without_recursion():
    a, b, c = _chain(2000, 1), _chain(2000, 1), _chain(2000, 2)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "L"
    assert render(a) == "[" + "(1 " * 2000 + "L L" + ")" * 2000 + "]"


# ------------------------------------------------------------- generation


def test_gen_counts_match_oracle_and_closed_form():
    for edges in range(1, 7):
        got = gen_wtrees(edges)
        assert len(got) == oracle_count(edges) == a_total(edges - 1)
        assert len(set(got)) == len(got)
        for t in got:
            assert validate_wtree(t) is t or validate_wtree(t) == t


def test_gen_canonical_order():
    assert [render(t) for t in gen_wtrees(3)] == [
        "[L L L]",
        "[L (1 L)]",
        "[(1 L) L]",
        "[(1 L L)]",
        "[(2 L L)]",
        "[(1 (1 L))]",
    ]


def test_generated_trees_share_their_pairs():
    """One call builds each non-root pair once, however many trees hold
    it: a fresh pair per vertex would cost memory at every n."""
    pairs = [v for t in gen_wtrees(7) for v in t[1:]]
    assert len({id(v) for v in pairs}) == len(set(pairs))


# ------------------------------------------------------------- statistics


def test_stats_hand_checks():
    assert tuple(wtree_stats(parse("[(1 L L) L]"))) == (1, 2, 1)
    assert tuple(wtree_stats(parse("[(3 L L L L L)]"))) == (0, 4, 0)
    assert tuple(wtree_stats(parse("[L L L]"))) == (2, 2, 0)
    assert tuple(wtree_stats(parse("[(1 (1 L))]"))) == (0, 0, 2)


def test_stats_transport():
    for edges in range(1, 6):
        for t in gen_wtrees(edges):
            assert wtree_stats(t) == fpath_stats(phi_T(t))[0]


# --------------------------------------------------------------- bijection

SIX_FPATHS = (
    ((0, 1), (1, 0)),
    ((0, 1), (2, 1)),
    ((1, 1), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (0, 1)),
    ((0, 1), (0, 1)),
)
SIX_TREES = (
    "[(1 L L)]",
    "[(2 L L)]",
    "[(1 (1 L))]",
    "[(1 L) L]",
    "[L (1 L)]",
    "[L L L]",
)


def test_six_object_table():
    for q, s in zip(SIX_FPATHS, SIX_TREES):
        t = parse(s)
        assert phi_T(t) == q, s
        assert psi_T(q) == t


def test_round_trip_small():
    for edges in range(1, 6):
        for t in gen_wtrees(edges):
            assert psi_T(phi_T(t)) == t
    for n in range(5):
        for q in gen_fpaths(n):
            assert phi_T(psi_T(q)) == q


def test_pinned_image():
    from fpaths.verify_harness import PINNED_IMAGES, PINNED_Q

    t = parse(PINNED_IMAGES["tree"])
    assert phi_T(t) == PINNED_Q
    assert psi_T(PINNED_Q) == t
    assert tuple(wtree_stats(t)) == (4, 11, 2)


#: sha256 of the "\n"-joined ``render(psi_T(q))`` over every F-path of
#: length 0..6 in generation order (1,779 lines).
TREE_MAP_SHA256 = (
    "3023ff9eccdb9fafb2caa20dceabb073e4b65472805e53fc2e6c3633435eb884")


def test_tree_map_is_pinned():
    """Round trips and statistics cannot tell another bijection from
    this one; the hash of every image up to length 6 can."""
    lines = [render(psi_T(q)) for n in range(7) for q in gen_fpaths(n)]
    assert len(lines) == 1779
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TREE_MAP_SHA256


@pytest.mark.parametrize("n", [50, 500, 3000])
def test_large_trees(random_fpath, n):
    """Round trips, statistics and direct sums on seeded random paths,
    comparing separately built trees with ``==``."""
    rng = random.Random(n)
    q, q1, q2 = (random_fpath(rng, n) for _ in range(3))
    t = parse(render(psi_T(q)))
    assert phi_T(t) == q
    assert psi_T(phi_T(t)) == t
    assert wtree_stats(psi_T(q)) == fpath_stats(q)[0]
    assert (wtree_direct_sum(psi_T(q1), psi_T(q2))
            == psi_T(q1 + (NORTH,) + q2))


# -------------------------------------------------------------- direct sum


def test_direct_sum_grafts_left_summand_last():
    t = parse("[(1 L L)]")
    s = parse("[L]")
    assert render(wtree_direct_sum(t, s)) == "[L (1 L L)]"
    assert render(wtree_direct_sum(s, t)) == "[(1 L L) L]"


def test_direct_sum_is_a_homomorphism():
    pool = [t for edges in range(1, 4) for t in gen_wtrees(edges)]
    for t, s in itertools.product(pool, pool):
        assert phi_T(wtree_direct_sum(t, s)) == phi_T(t) + (NORTH,) + phi_T(s)
