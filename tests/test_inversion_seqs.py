"""Inversion sequences avoiding (101,102) and (101,021).

The avoidance oracle spells out each pattern as explicit triple
comparisons - no shared code with the reduction matcher
``invseq_contains``, which in turn is the oracle for the linear scan
behind ``validate_invseq``.  The paper's max deletion,
``oracles.delete_max_phi_I``, is the oracle for the one-pass phi_I, and
the connectedness peelers ``oracles.decompose_I``/``decompose_J`` for
the families' decompose through the F-path components.
"""
import itertools
import random

import pytest

from fpaths.errors import FormViolation, NotAvoider
from fpaths.families import FAMILIES
from fpaths.fpath_core import fpath_stats, gen_fpaths
from fpaths.inversion_seqs import (
    _PATTERNS,
    FAMILY_I,
    FAMILY_J,
    dsum_I,
    dsum_J,
    gen_invseq,
    max_and_maxid,
    phi_I,
    phi_J,
    psi_I,
    psi_J,
    stats_I,
    stats_J,
    validate_invseq,
)
from oracles import (
    decompose_I,
    decompose_J,
    delete_max_phi_I,
    invseq_contains,
    word_reduction,
)

SIX_FPATHS = (
    ((0, 1), (1, 0)),
    ((0, 1), (2, 1)),
    ((1, 1), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (0, 1)),
    ((0, 1), (0, 1)),
)
SIX_I = ((0, 1, 0), (0, 0, 2), (0, 1, 2), (0, 0, 1), (0, 1, 1), (0, 0, 0))
SIX_J = ((0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 1), (0, 0, 2), (0, 0, 0))


def oracle_has_101(e):
    n = len(e)
    return any(
        e[i] == e[k] and e[j] < e[i]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def oracle_has_102(e):
    n = len(e)
    return any(
        e[j] < e[i] < e[k]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def oracle_has_021(e):
    n = len(e)
    return any(
        e[i] < e[k] < e[j]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def oracle_invseqs(length, family):
    ranges = [range(i) for i in range(1, length + 1)]
    for e in itertools.product(*ranges):
        if family == FAMILY_I:
            if not oracle_has_101(e) and not oracle_has_102(e):
                yield e
        else:
            if not oracle_has_101(e) and not oracle_has_021(e):
                yield e


# ---------------------------------------------------------------- plumbing


def test_word_reduction():
    assert word_reduction((5, 2, 5)) == (1, 0, 1)
    assert word_reduction((3, 1, 7)) == (1, 0, 2)
    assert word_reduction((0, 4, 2)) == (0, 2, 1)
    assert word_reduction(()) == ()
    assert word_reduction((2, 2, 2)) == (0, 0, 0)


def test_contains_against_oracle():
    for length in range(7):
        ranges = [range(i) for i in range(1, length + 1)]
        for e in itertools.product(*ranges):
            assert invseq_contains(e, (1, 0, 1)) == oracle_has_101(e)
            assert invseq_contains(e, (1, 0, 2)) == oracle_has_102(e)
            assert invseq_contains(e, (0, 2, 1)) == oracle_has_021(e)


def test_validate():
    assert validate_invseq((0, 1, 0), FAMILY_I) == (0, 1, 0)
    with pytest.raises(FormViolation, match="entry 0.5 at position 2"):
        # a float is refused, not truncated
        validate_invseq((0, 0.5), FAMILY_I)
    with pytest.raises(FormViolation):
        validate_invseq((0, 2, 0), FAMILY_I)  # entry 2 needs position >= 3
    with pytest.raises(FormViolation):
        validate_invseq((1,), FAMILY_I)
    with pytest.raises(NotAvoider):
        validate_invseq((0, 1, 0, 1), FAMILY_I)
    with pytest.raises(NotAvoider):
        validate_invseq((0, 1, 0, 1), FAMILY_J)
    # (0,0,1,3,2) is fine for I but contains 021 for J
    validate_invseq((0, 0, 1, 3, 2), FAMILY_I)
    with pytest.raises(NotAvoider):
        validate_invseq((0, 0, 1, 3, 2), FAMILY_J)

    class Unread:
        def __iter__(self):
            raise AssertionError("the entries were read")

    # An unknown family, a key that is not a string included, is named
    # before the entries are read.
    for family in ("K", None, [], {}, set()):
        for e in ((0, 1), (), Unread()):
            with pytest.raises(FormViolation) as exc:
                validate_invseq(e, family)
            assert str(exc.value) == (
                f"unknown inversion-sequence family {family!r}")


def first_pattern_oracle(e, family, contained=None):
    """The pattern the brute-force check names: first in family order.

    ``contained`` (pattern -> bool) is filled in as the patterns are
    tested, so several families can share one sequence's tests.
    """
    contained = {} if contained is None else contained
    for p in _PATTERNS[family]:
        if p not in contained:
            contained[p] = invseq_contains(e, p)
        if contained[p]:
            return p
    return None


def named_pattern(e, family):
    try:
        validate_invseq(e, family)
    except NotAvoider as exc:
        return exc.pattern
    return None


def test_membership_and_generation_match_oracle_exhaustively():
    for family in (FAMILY_I, FAMILY_J):
        with pytest.raises(FormViolation):
            validate_invseq((), family)
    for length in range(1, 8):
        ranges = [range(i) for i in range(1, length + 1)]
        avoiders = {FAMILY_I: [], FAMILY_J: []}
        for e in itertools.product(*ranges):
            contained = {}
            for family in (FAMILY_I, FAMILY_J):
                want = first_pattern_oracle(e, family, contained)
                assert named_pattern(e, family) == want, (e, family)
                if want is None:
                    avoiders[family].append(e)
        for family in (FAMILY_I, FAMILY_J):
            assert list(gen_invseq(length, family)) == avoiders[family]


def plant(rng, e, pattern):
    """Overwrite three random entries of e with an occurrence of
    ``pattern``, keeping the inversion bound."""
    while True:
        positions = sorted(rng.sample(range(len(e)), 3))
        values = [rng.randint(0, i) for i in positions]
        if word_reduction(values) == pattern:
            out = list(e)
            for i, v in zip(positions, values):
                out[i] = v
            return tuple(out)


def test_membership_matches_oracle_on_long_inputs(random_fpath):
    rng = random.Random(20240405)
    for psi, family in ((psi_I, FAMILY_I), (psi_J, FAMILY_J)):
        for _ in range(2):
            e = psi(random_fpath(rng, rng.randint(19, 79)))
            assert named_pattern(e, family) is None
            for pattern in ((1, 0, 1), (1, 0, 2), (0, 2, 1)):
                planted = plant(rng, e, pattern)
                contained = {}
                for fam in (FAMILY_I, FAMILY_J):
                    want = first_pattern_oracle(planted, fam, contained)
                    assert named_pattern(planted, fam) == want, (planted, fam)


def test_max_and_maxid_rightmost():
    assert max_and_maxid((0, 1, 1, 0)) == (1, 3)
    assert max_and_maxid((0,)) == (0, 1)
    assert max_and_maxid((0, 0)) == (0, 2)


def test_gen_counts_and_oracle():
    expected = (1, 2, 6, 21, 80)
    for k, want in enumerate(expected):
        length = k + 1
        for family in (FAMILY_I, FAMILY_J):
            got = gen_invseq(length, family)
            assert len(got) == want
            assert list(got) == sorted(oracle_invseqs(length, family))
    assert gen_invseq(3, FAMILY_I) == tuple(sorted(SIX_I))
    assert gen_invseq(3, FAMILY_J) == tuple(sorted(SIX_J))
    assert len(gen_invseq(9, FAMILY_I)) == len(gen_invseq(9, FAMILY_J)) == 25512


# ------------------------------------------------------------- statistics


def test_stats_I_six():
    expected = [(0, 1, 1), (0, 1, 0), (0, 0, 2), (1, 1, 1), (1, 1, 1), (2, 2, 0)]
    for e, st in zip(SIX_I, expected):
        assert tuple(stats_I(e)) == st, e


def test_stats_J_six():
    expected = [(0, 1, 1), (0, 1, 0), (0, 0, 2), (1, 1, 1), (1, 1, 1), (2, 2, 0)]
    for e, st in zip(SIX_J, expected):
        assert tuple(stats_J(e)) == st, e


def test_stats_transport():
    for n in range(5):
        for e in gen_invseq(n + 1, FAMILY_I):
            assert stats_I(e) == fpath_stats(phi_I(e))[0]
        for e in gen_invseq(n + 1, FAMILY_J):
            assert stats_J(e) == fpath_stats(phi_J(e))[0]


def test_stats_J_pinned_component():
    assert tuple(stats_J((0, 1, 1, 1, 0, 0))) == (0, 4, 0)


# --------------------------------------------------------------- bijection


def test_six_object_tables():
    for e, q in zip(SIX_I, SIX_FPATHS):
        assert phi_I(e) == q, e
        assert psi_I(q) == e
    for e, q in zip(SIX_J, SIX_FPATHS):
        assert phi_J(e) == q, e
        assert psi_J(q) == e


def test_round_trip_small():
    for n in range(5):
        for e in gen_invseq(n + 1, FAMILY_I):
            assert psi_I(phi_I(e)) == e
        for e in gen_invseq(n + 1, FAMILY_J):
            assert psi_J(phi_J(e)) == e
        for q in gen_fpaths(n):
            assert phi_I(psi_I(q)) == q
            assert phi_J(psi_J(q)) == q


def test_phi_I_equals_max_deletion():
    for n in range(8):
        for e in gen_invseq(n + 1, FAMILY_I):
            assert phi_I(e) == delete_max_phi_I(e), e


@pytest.mark.parametrize("n", [50, 500])
def test_max_deletion_inverts_psi_I(random_fpath, n):
    rng = random.Random(n)
    for _ in range(3):
        q = random_fpath(rng, n)
        assert delete_max_phi_I(psi_I(q)) == q


def test_phi_rejects_non_avoiders():
    with pytest.raises(NotAvoider):
        FAMILIES["inv-i"].to_fpath((0, 1, 0, 1))
    with pytest.raises(NotAvoider):
        FAMILIES["inv-j"].to_fpath((0, 0, 1, 3, 2))


def test_pinned_images():
    from fpaths.verify_harness import PINNED_IMAGES, PINNED_Q

    want_i = tuple(int(v) for v in PINNED_IMAGES["inv-i"].split(","))
    want_j = tuple(int(v) for v in PINNED_IMAGES["inv-j"].split(","))
    assert psi_I(PINNED_Q) == want_i
    assert phi_I(want_i) == PINNED_Q
    assert psi_J(PINNED_Q) == want_j
    assert phi_J(want_j) == PINNED_Q


# -------------------------------------------------------------- direct sums

CHAIN_I = ((0,), (0,), (0, 0, 0, 3, 0, 0), (0,), (0, 0, 1, 3, 4, 3, 3))
CHAIN_J = ((0,), (0,), (0, 1, 1, 1, 0, 0), (0,), (0, 1, 0, 0, 4, 4, 5))


def test_pinned_chains():
    import functools

    from fpaths.verify_harness import PINNED_IMAGES

    want_i = tuple(int(v) for v in PINNED_IMAGES["inv-i"].split(","))
    want_j = tuple(int(v) for v in PINNED_IMAGES["inv-j"].split(","))
    assert functools.reduce(dsum_I, CHAIN_I) == want_i
    assert functools.reduce(dsum_J, CHAIN_J) == want_j
    assert FAMILIES["inv-i"].decompose(want_i) == list(CHAIN_I)
    assert FAMILIES["inv-j"].decompose(want_j) == list(CHAIN_J)
    assert decompose_I(want_i) == list(CHAIN_I)
    assert decompose_J(want_j) == list(CHAIN_J)


def test_decompose_j_fallback_summand_reaches_the_end():
    # the 011100 block admits no index with g_{r+m} >= m+1, so the first
    # peeled summand runs to the end of the sequence
    g = dsum_J((0, 0), (0, 1, 1, 1, 0, 0))
    assert g == (0, 0, 0, 1, 1, 1, 0, 0)
    assert decompose_J(g) == [(0,), (0,), (0, 1, 1, 1, 0, 0)]
    assert FAMILIES["inv-j"].decompose(g) == [(0,), (0,), (0, 1, 1, 1, 0, 0)]


def test_decompose_matches_fpath_components():
    """The peelers, which read connectedness off the sequence, agree with
    the families' decompose through the F-path components on every
    avoider with n <= 8, and fold back to it."""
    import functools

    for family, tag, peel, dsum in ((FAMILY_I, "inv-i", decompose_I, dsum_I),
                                    (FAMILY_J, "inv-j", decompose_J, dsum_J)):
        decompose = FAMILIES[tag].decompose
        for n in range(9):
            for e in gen_invseq(n + 1, family):
                parts = peel(e)
                assert functools.reduce(dsum, parts) == e
                assert decompose(e) == parts, (tag, e)
