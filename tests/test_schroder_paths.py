"""Schröder words without triple descents: validity, stats, bijection.

Enumeration oracle: compose all letter strings of the right width and
filter with string-level checks (``"ddd" in w`` for the descent rule),
sharing no code with the production generator.  The paper's suffix
peeling, ``oracles.peel_phi_P``, is the oracle for the one-pass phi_P.
"""
import random

import pytest

from fpaths.errors import (
    BelowAxis,
    NotClosed,
    ParseError,
    TripleDescent,
)
from fpaths.fpath_core import fpath_stats, gen_fpaths
from fpaths.schroder_paths import (
    gen_schroder,
    phi_P,
    psi_P,
    schroder_direct_sum,
    schroder_stats,
    validate_schroder,
)
from oracles import peel_phi_P

SIX = ("uudd", "uhd", "udud", "hud", "udh", "hh")
SIX_FPATHS = (
    ((0, 1), (1, 0)),
    ((0, 1), (2, 1)),
    ((1, 1), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (0, 1)),
    ((0, 1), (0, 1)),
)


def oracle_schroder(n):
    words = set()

    def grow(w, width):
        if width == 2 * n:
            heights = []
            h = 0
            ok = True
            for c in w:
                h += {"u": 1, "d": -1, "h": 0}[c]
                heights.append(h)
                if h < 0:
                    ok = False
                    break
            if ok and (not heights or heights[-1] == 0) and "ddd" not in w:
                words.add(w)
            return
        if width > 2 * n:
            return
        for c in "udh":
            grow(w + c, width + (2 if c == "h" else 1))

    grow("", 0)
    return words


# -------------------------------------------------------------- validation


def test_validate_ok():
    for w in SIX:
        assert validate_schroder(w) == w
    assert validate_schroder("") == ""


def test_below_axis_index():
    with pytest.raises(BelowAxis) as info:
        validate_schroder("udd")
    assert info.value.index == 2
    with pytest.raises(BelowAxis) as info:
        validate_schroder("duu")
    assert info.value.index == 0


def test_not_closed():
    with pytest.raises(NotClosed):
        validate_schroder("u")
    with pytest.raises(NotClosed):
        validate_schroder("uudh")


def test_triple_descent_index_is_factor_start():
    with pytest.raises(TripleDescent) as info:
        validate_schroder("uuuddd")
    assert info.value.index == 3


def test_parse_error_bad_letter():
    with pytest.raises(ParseError) as info:
        validate_schroder("uxd")
    assert info.value.offset == 1


# -------------------------------------------------------------- statistics


@pytest.mark.parametrize(
    "word,expected",
    [
        ("", (0, 0, 0)),
        ("hh", (2, 2, 0)),
        ("uudd", (0, 1, 1)),
        ("udud", (0, 0, 2)),
        ("uhd", (0, 1, 0)),
        ("hud", (1, 1, 1)),
        ("udh", (1, 1, 1)),
        ("uhhd", (0, 2, 0)),
        ("uuddh", (1, 2, 1)),
    ],
)
def test_stats_hand_values(word, expected):
    assert tuple(schroder_stats(word)) == expected


# --------------------------------------------------------------- bijection


def test_six_object_table():
    for word, q in zip(SIX, SIX_FPATHS):
        assert phi_P(word) == q, word
        assert psi_P(q) == word


def test_round_trip_small():
    for n in range(5):
        for w in gen_schroder(n):
            assert psi_P(phi_P(w)) == w
        for q in gen_fpaths(n):
            assert phi_P(psi_P(q)) == q


def test_phi_equals_suffix_peeling():
    for n in range(8):
        for w in gen_schroder(n):
            assert phi_P(w) == peel_phi_P(w), w


@pytest.mark.parametrize("n", [50, 500])
def test_suffix_peeling_inverts_psi(random_fpath, n):
    rng = random.Random(n)
    for _ in range(3):
        q = random_fpath(rng, n)
        # the peeling never ends on some invalid words, so check first
        assert peel_phi_P(validate_schroder(psi_P(q))) == q


def test_stats_transport():
    for n in range(5):
        for w in gen_schroder(n):
            assert schroder_stats(w) == fpath_stats(phi_P(w))[0]


def test_pinned_image():
    from fpaths.verify_harness import PINNED_IMAGES, PINNED_Q

    assert psi_P(PINNED_Q) == PINNED_IMAGES["schroder"]
    assert phi_P(PINNED_IMAGES["schroder"]) == PINNED_Q


# ------------------------------------------------------------- enumeration


def test_counts_and_oracle():
    expected = (1, 2, 6, 21, 80)
    for n, want in enumerate(expected):
        got = gen_schroder(n)
        assert len(got) == want
        assert len(set(got)) == want
        assert set(got) == oracle_schroder(n)


def test_canonical_order_n2():
    assert gen_schroder(2) == ("uudd", "udud", "udh", "uhd", "hud", "hh")


# ------------------------------------------------------------- direct sums


def test_direct_sum_is_h_join():
    assert schroder_direct_sum("uudd", "") == "uuddh"
    assert schroder_direct_sum("", "uudd") == "huudd"
    both = schroder_direct_sum("uudd", "udud")
    assert both == "uuddhudud"
    st = schroder_stats(both)
    assert st.h == 1  # one new axis-level horizontal step
