"""Avoiders of 2341/2431/3241: containment, blocks, shape, bijection.

The containment oracle re-implements pattern matching with
itertools.combinations and order-type comparison, sharing nothing with
the backtracking matcher ``perm_contains``, which in turn is the oracle
for the pattern scan ``_first_forbidden``.  ``validate_avoider`` decides
membership by the one-pass bit-set scan ``_scan``, with no bijection
involved, and is checked against ``_first_forbidden`` on every
permutation of length <= 8 and against the order scan
``contains_forbidden`` of the oracles at n = 3000.  The
cores ``phi_S``/``psi_S`` are checked against the shape-case surgeries
``shape_phi_S``/``shape_psi_S`` of the oracles, and the one-pass tree
reading ``phi_S`` against ``record_phi_S``, which replays the value-list
``value_record`` on ψ's block stack.
"""
import itertools
import random

import pytest

from collections import Counter

from fpaths import pattern_perms
from fpaths.counting import a_total
from fpaths.errors import FormViolation, FpathsError, NotAvoider
from fpaths.families import FAMILIES
from fpaths.fpath_core import NORTH, fpath_stats, gen_fpaths, validate_fpath
from fpaths.pattern_perms import (
    FORBIDDEN,
    _first_forbidden,
    asc,
    gen_avoiders,
    perm_direct_sum,
    perm_stats,
    phi_S,
    psi_S,
    validate_avoider,
)
from oracles import (
    Z_EQ_GT,
    Z_EQ_LT,
    Z_LT_GT,
    Z_LT_LT,
    block_count,
    block_decompose,
    brute_crit,
    contains_forbidden,
    crit,
    perm_contains,
    record_phi_S,
    shape_analysis,
    shape_phi_S,
    shape_psi_S,
)

SIX = ((3, 1, 2), (2, 3, 1), (3, 2, 1), (1, 3, 2), (2, 1, 3), (1, 2, 3))
SIX_FPATHS = (
    ((0, 1), (1, 0)),
    ((0, 1), (2, 1)),
    ((1, 1), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (0, 1)),
    ((0, 1), (0, 1)),
)


def oracle_contains(p, pattern):
    k = len(pattern)
    target = tuple(
        sorted(range(k), key=lambda i: pattern[i])
    )  # positions by value
    for idxs in itertools.combinations(range(len(p)), k):
        vals = [p[i] for i in idxs]
        order = tuple(sorted(range(k), key=lambda i: vals[i]))
        if order == target:
            return True
    return False


# -------------------------------------------------------------- containment


def test_contains_against_oracle():
    for n in range(7):
        for p in itertools.permutations(range(1, n + 1)):
            for pat in FORBIDDEN + ((1, 2, 3), (3, 2, 1, 4)):
                assert perm_contains(p, pat) == oracle_contains(p, pat), (
                    p,
                    pat,
                )


def test_validate_avoider():
    assert validate_avoider((2, 3, 1)) == (2, 3, 1)
    with pytest.raises(NotAvoider):
        validate_avoider((2, 3, 4, 1))
    with pytest.raises(NotAvoider):
        validate_avoider((2, 4, 3, 1))
    with pytest.raises(NotAvoider):
        validate_avoider((3, 2, 4, 1))
    with pytest.raises(NotAvoider):
        validate_avoider((5, 2, 3, 4, 1))  # contains 2341 inside
    with pytest.raises(ValueError):
        validate_avoider((1, 3))
    with pytest.raises(FormViolation):
        validate_avoider((1, 3))
    with pytest.raises(FormViolation):
        validate_avoider(())  # every avoider has length >= 1
    with pytest.raises(FormViolation, match="entry 1.0 at position 1"):
        validate_avoider((1.0, 2.0))  # a float is refused, not compared


def first_forbidden_oracle(p):
    """The pattern the brute-force check names: first in FORBIDDEN order."""
    return next((f for f in FORBIDDEN if perm_contains(p, f)), None)


def named_pattern(p):
    try:
        validate_avoider(p)
    except NotAvoider as exc:
        return exc.pattern
    return None


def test_membership_and_generation_match_oracle_exhaustively():
    with pytest.raises(FormViolation):
        validate_avoider(())
    for n in range(1, 8):
        avoiders = []
        for p in itertools.permutations(range(1, n + 1)):
            want = first_forbidden_oracle(p)
            assert named_pattern(p) == want, p
            if want is None:
                assert validate_avoider(p) == p
                avoiders.append(p)
            else:
                with pytest.raises(FpathsError):
                    validate_avoider(p)
        assert list(gen_avoiders(n)) == avoiders, n


def test_membership_scan_matches_the_pattern_scan():
    """validate_avoider accepts, or names a pattern, exactly as the
    O(n^2) scan does, on every permutation of length <= 8."""
    for n in range(1, 9):
        for p in itertools.permutations(range(1, n + 1)):
            assert named_pattern(p) == _first_forbidden(p), p


def test_membership_runs_no_bijection(monkeypatch):
    """validate_avoider decides without φ_S or ψ_S, so a perm's
    ``to_fpath`` runs φ_S once, as its core."""

    def refuse(*args):
        raise AssertionError("membership must not run the bijection")

    monkeypatch.setattr(pattern_perms, "phi_S", refuse)
    monkeypatch.setattr(pattern_perms, "psi_S", refuse)
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            want = _first_forbidden(p)
            if want is None:
                assert validate_avoider(p) == p
            else:
                with pytest.raises(NotAvoider) as exc:
                    validate_avoider(p)
                assert exc.value.pattern == want, p


def test_validate_avoider_refuses_every_non_avoider_input():
    for p in ([1, 1, 1], [0, 5], "abc", [], 5, (2, 3, 4, 1), (1.0,)):
        with pytest.raises(FpathsError):
            validate_avoider(p)
    assert validate_avoider([2, 3, 1]) == (2, 3, 1)


def test_round_trip_holds_on_every_avoider():
    """φ_S and ψ_S invert each other on every avoider of length <= 9."""
    for n in range(1, 10):
        for p in gen_avoiders(n):
            assert psi_S(validate_fpath(phi_S(p))) == p, p


def plant(rng, p, pattern):
    """Rearrange the values at four random positions of p into ``pattern``."""
    out = list(p)
    positions = sorted(rng.sample(range(len(p)), len(pattern)))
    values = sorted(out[i] for i in positions)
    for i, rank in zip(positions, pattern):
        out[i] = values[rank - 1]
    return tuple(out)


def test_membership_matches_oracle_on_long_inputs(random_fpath):
    rng = random.Random(20240405)
    for _ in range(3):
        p = psi_S(random_fpath(rng, rng.randint(19, 79)))
        assert named_pattern(p) is None
        assert first_forbidden_oracle(p) is None
        for pattern in FORBIDDEN:
            planted = plant(rng, p, pattern)
            want = first_forbidden_oracle(planted)
            assert want is not None
            assert named_pattern(planted) == want, planted


def test_gen_counts():
    expected = (1, 2, 6, 21, 80, 322, 1347, 5798, 25512)
    for n, want in enumerate(expected, 1):
        assert len(gen_avoiders(n)) == want


def test_gen_is_filtered_lex():
    got = gen_avoiders(4)
    brute = [
        p
        for p in itertools.permutations(range(1, 5))
        if not any(oracle_contains(p, f) for f in FORBIDDEN)
    ]
    assert list(got) == brute
    assert sorted(got) == list(got)


# ------------------------------------------------------- blocks, statistics


def test_block_decompose():
    assert block_decompose(()) == []
    assert block_decompose((1, 2, 3)) == [(1,), (1,), (1,)]
    assert block_decompose((3, 2, 1, 5, 4)) == [(3, 2, 1), (2, 1)]
    assert block_decompose((2, 1, 4, 3, 5)) == [(2, 1), (2, 1), (1,)]
    for n in range(6):
        for p in itertools.permutations(range(1, n + 1)):
            assert block_count(p) == len(block_decompose(p))


def test_block_count_reads_unreduced_sequences():
    """block_count counts the blocks of a sequence's reduction without
    building it, on every avoider with n <= 8 spread out and shifted."""
    rng = random.Random(4)
    for n in range(9):
        for p in gen_avoiders(n + 1):
            spread = tuple(3 * v + rng.randint(0, 2) for v in p)
            assert block_count(spread) == len(block_decompose(p))
    assert block_count(()) == 0


def test_direct_sum_blocks():
    p = perm_direct_sum((2, 1), (1, 3, 2))
    assert p == (2, 1, 3, 5, 4)
    assert block_count(p) == block_count((2, 1)) + block_count((1, 3, 2))


def test_crit_pinned():
    assert crit((2, 4, 1, 3)) == 3
    assert crit((1, 2, 3)) == 3
    assert crit((3, 2, 1)) == 3  # vacuous everywhere
    assert crit((2, 3, 1)) == 2  # index 2 fails via (2,1) after 3


def test_crit_matches_brute_force():
    """The O(n log n) crit, and perm_stats' one pass that counts blocks
    and critical indexes together, against trying every triple and
    splitting every block, on every avoider with n <= 8 and on every
    permutation of length 7."""
    perms = itertools.chain(
        (p for n in range(9) for p in gen_avoiders(n + 1)),
        itertools.permutations(range(1, 8)))
    for p in perms:
        c, a = brute_crit(p), asc(p)
        assert crit(p) == c
        assert perm_stats(p) == (len(block_decompose(p)) - 1, a, c - a - 1), p


def test_perm_stats_six():
    expected = [(0, 1, 1), (0, 1, 0), (0, 0, 2), (1, 1, 1), (1, 1, 1), (2, 2, 0)]
    for p, st in zip(SIX, expected):
        assert tuple(perm_stats(p)) == st, p


# ------------------------------------------------------------------- shape


def test_shape_pinned_examples():
    sh = shape_analysis((3, 2, 1, 5, 4, 7, 6, 8, 9))
    assert (sh.x, sh.y, sh.z, sh.w, sh.case) == (9, 8, 8, 9, Z_EQ_LT)
    sh = shape_analysis((3, 2, 1, 5, 4, 9, 7, 6, 8))
    assert (sh.x, sh.y, sh.z, sh.w, sh.case) == (6, 4, 5, 6, Z_LT_LT)
    sh = shape_analysis((3, 2, 1, 8, 4, 9, 6, 5, 7))
    assert (sh.x, sh.y, sh.z, sh.w, sh.case) == (6, 4, 8, 5, Z_EQ_GT)
    sh = shape_analysis((3, 2, 1, 7, 4, 9, 6, 5, 8))
    assert (sh.x, sh.y, sh.z, sh.w, sh.case) == (6, 4, 7, 5, Z_LT_GT)


def test_shape_sentinel_case():
    sh = shape_analysis((2, 1))
    assert (sh.x, sh.y, sh.z, sh.w) == (1, 0, 0, 1)
    assert sh.case == Z_LT_LT


def shape_facts(p, sh):
    """The 13 facts the surgeries of ``phi_S`` rely on, one bool each:
    z != w, then per case the bounds on x, z, w and the value sets of
    the prefix (without y) and of the segments right of x."""
    n1 = len(p)
    n, x, z, w = n1 - 1, sh.x, sh.z, sh.w
    prefix_rest = {p[i] for i in range(x - 1) if i + 1 != sh.y}
    facts = [z != w]
    if sh.case == Z_EQ_LT:
        facts += [
            x == n1 and w == n1,
            prefix_rest == set(range(1, n)),
        ]
    elif sh.case == Z_EQ_GT:
        facts += [
            2 <= x <= n and w == x - 1,
            prefix_rest == set(range(1, x - 1)),
            {p[i] for i in range(x, n1)} == set(range(x - 1, n)),
        ]
    elif sh.case == Z_LT_LT:
        facts += [
            1 <= x <= n and z == x - 1 and w == x,
            prefix_rest == set(range(1, x - 1)),
            {p[i] for i in range(x, n1)} == set(range(x, n1)),
        ]
    else:
        facts += [
            2 <= x <= n - 1 and x - 1 < z < n and w == x - 1,
            prefix_rest == set(range(1, x - 1)),
            {p[i] for i in range(x, z + 1)} == set(range(x - 1, z)),
            {p[i] for i in range(z + 1, n1)} == set(range(z + 1, n1)),
        ]
    return facts


def test_shape_runs_on_all_avoiders():
    case_of = {(True, True): Z_EQ_LT, (True, False): Z_EQ_GT,
               (False, True): Z_LT_LT, (False, False): Z_LT_GT}
    cases = Counter()
    for n in range(2, 9):
        for p in gen_avoiders(n):
            sh = shape_analysis(p)
            x = p.index(n) + 1
            z = max(p[: x - 1], default=0)
            assert (sh.x, sh.z, sh.w) == (x, z, min(p[x - 1:])), p
            assert sh.y == (p.index(z) + 1 if z else 0), p
            assert sh.case == case_of[z == n - 1, z < sh.w], p
            facts = shape_facts(p, sh)
            assert all(facts), (p, sh, facts)
            cases[sh.case] += 1
    assert set(cases) == set(case_of.values())  # all 13 facts were checked


# --------------------------------------------------------------- bijection


def test_six_object_table():
    for p, q in zip(SIX, SIX_FPATHS):
        assert phi_S(p) == q, p
        assert psi_S(q) == p


def test_case3_case4_surgeries():
    base = (3, 2, 1, 5, 4, 7, 6, 8)
    for phi, psi in ((phi_S, psi_S), (shape_phi_S, shape_psi_S)):
        q = phi(base)
        assert phi((3, 2, 1, 8, 4, 9, 6, 5, 7)) == q + ((3, 1),)
        assert phi((3, 2, 1, 7, 4, 9, 6, 5, 8)) == q + ((2, 0),)
        assert psi(q + ((3, 1),)) == (3, 2, 1, 8, 4, 9, 6, 5, 7)
        assert psi(q + ((2, 0),)) == (3, 2, 1, 7, 4, 9, 6, 5, 8)


def test_record_cores_match_the_shape_oracles():
    """Every F-path of length <= 8 and every avoider of length <= 9, also
    against the record replay."""
    for n in range(9):
        for q in gen_fpaths(n):
            assert psi_S(q) == shape_psi_S(q), q
        for p in gen_avoiders(n + 1):
            assert phi_S(p) == shape_phi_S(p) == record_phi_S(p), p


def test_phi_returns_int_pairs_on_every_permutation():
    """A trusted core: on every permutation of length <= 7, avoider or
    not, ``phi_S`` raises nothing and returns len(p) - 1 int pairs."""
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            q = phi_S(p)
            assert type(q) is tuple and len(q) == max(n - 1, 0), p
            assert all(type(s) is tuple and len(s) == 2
                       and type(s[0]) is type(s[1]) is int for s in q), p


#: Paths of length about 3000 whose steps reach deep into the block
#: stack: a >= 3 and b <= -2, long runs of one step, and a seeded walk;
#: then seeded walks of length 500, which the shape oracles check whole.
LARGE_PATHS = {
    "(0,1)^6(3,-2)": lambda walk: (((0, 1),) * 6 + ((3, -2),)) * 400,
    "(0,1)^4(5,1)": lambda walk: (((0, 1),) * 4 + ((5, 1),)) * 600,
    "(1,1)": lambda walk: ((1, 1),) * 3000,
    "(0,1)^1500(2,1)^1499": lambda walk: ((0, 1),) * 1500 + ((2, 1),) * 1499,
    "walk": lambda walk: walk(random.Random(3000), 3000),
    **{
        f"walk500-{seed}": lambda walk, seed=seed: walk(random.Random(seed), 500)
        for seed in (500, 501, 502)
    },
}


@pytest.mark.parametrize("name", LARGE_PATHS)
def test_large_paths_with_deep_steps(random_fpath, name):
    """Membership, round trip, the record replay, statistics, direct sum,
    and the shape oracles on the first 500 steps."""
    q = LARGE_PATHS[name](random_fpath)
    p = psi_S(q)
    assert validate_avoider(p) == p
    assert phi_S(p) == q
    assert record_phi_S(p) == q
    assert perm_stats(p) == fpath_stats(q)[0]
    half = q[: len(q) // 2]
    assert perm_direct_sum(p, psi_S(half)) == psi_S(q + (NORTH,) + half)
    head = q[:500]
    p = shape_psi_S(head)
    assert psi_S(head) == p
    assert phi_S(p) == shape_phi_S(p) == head


#: LARGE_PATHS and two more seeded walks of length 3000.
SCANNED_PATHS = {
    **LARGE_PATHS,
    **{
        f"walk-{seed}": lambda walk, seed=seed: walk(random.Random(seed), 3000)
        for seed in (3001, 3002)
    },
}


@pytest.mark.parametrize("pattern", (None, *FORBIDDEN),
                         ids=["as-is", "2341", "2431", "3241"])
@pytest.mark.parametrize("name", SCANNED_PATHS)
def test_membership_matches_the_order_scan_at_large_n(random_fpath, name,
                                                      pattern):
    """validate_avoider accepts ψ_S of each path, and refuses it with
    ``pattern`` planted, exactly when ``contains_forbidden``, the order
    scan the bit-set ``_scan`` replaced, finds no pattern."""
    p = psi_S(SCANNED_PATHS[name](random_fpath))
    if pattern:
        p = plant(random.Random(len(p)), p, pattern)
    try:
        accepted = validate_avoider(p) == p
    except NotAvoider:
        accepted = False
    assert accepted is not contains_forbidden(p)
    assert accepted is (pattern is None)


def test_gen_avoiders_9_is_the_filtered_lexicographic_list():
    """Strictly increasing, every member accepted, and a_total(8) of
    them: so it is the lexicographic list of all avoiders of length 9."""
    got = gen_avoiders(9)
    assert len(got) == a_total(8) == 25512
    assert all(a < b for a, b in zip(got, got[1:]))
    assert all(validate_avoider(p) == p for p in got)


def test_round_trip_small():
    for n in range(5):
        for p in gen_avoiders(n + 1):
            assert psi_S(phi_S(p)) == p
        for q in gen_fpaths(n):
            assert phi_S(psi_S(q)) == q


def test_stats_transport():
    for n in range(5):
        for p in gen_avoiders(n + 1):
            assert perm_stats(p) == fpath_stats(phi_S(p))[0]


def test_phi_rejects_non_avoider():
    with pytest.raises(NotAvoider):
        FAMILIES["perm"].to_fpath((2, 3, 4, 1))


def test_pinned_image():
    from fpaths.verify_harness import PINNED_IMAGES, PINNED_Q

    want = tuple(int(v) for v in PINNED_IMAGES["perm"].split())
    assert psi_S(PINNED_Q) == want
    assert phi_S(want) == PINNED_Q


def test_pinned_component_images():
    r3 = ((0, 1), (0, 1), (0, 1), (0, 1), (3, -1))
    r5 = ((0, 1), (1, 1), (2, 1), (0, 1), (0, 1), (1, -1))
    assert psi_S(r3) == (3, 6, 1, 2, 4, 5)
    assert psi_S(r5) == (7, 3, 4, 2, 1, 5, 6)
