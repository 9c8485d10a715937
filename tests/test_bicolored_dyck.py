"""Bicolored Dyck paths: run form, stats, bijection, direct sums.

Enumeration oracle: all strings over {u, r, b} of length 2(n+1), kept
when a regex certifies the run form and a scan certifies the Dyck
conditions - fully independent of the production generator's pruning.
"""
import itertools
import re

import pytest

from fpaths.bicolored_dyck import (
    bicolored_direct_sum,
    bicolored_stats,
    gen_bicolored,
    phi_B,
    psi_B,
    validate_bicolored,
)
from fpaths.errors import BelowAxis, NotClosed, RunFormViolation
from fpaths.fpath_core import fpath_stats, gen_fpaths

RUN_FORM = re.compile(r"(u+r*b+)*u+r+")

SIX = ("uurbur", "uubbur", "ububur", "uuburr", "ubuurr", "uuurrr")
SIX_FPATHS = (
    ((0, 1), (1, 0)),
    ((0, 1), (2, 1)),
    ((1, 1), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (0, 1)),
    ((0, 1), (0, 1)),
)


def oracle_bicolored(n_plus_1):
    words = set()
    for letters in itertools.product("urb", repeat=2 * n_plus_1):
        w = "".join(letters)
        if not RUN_FORM.fullmatch(w):
            continue
        h = 0
        ok = True
        for c in w:
            h += 1 if c == "u" else -1
            if h < 0:
                ok = False
                break
        if ok and h == 0:
            words.add(w)
    return words


# -------------------------------------------------------------- validation


def test_validate_ok():
    for w in SIX:
        assert validate_bicolored(w) == w
    assert validate_bicolored("ur") == "ur"
    assert validate_bicolored("uurr") == "uurr"
    assert validate_bicolored("ubur") == "ubur"


def test_below_axis():
    with pytest.raises(BelowAxis) as info:
        validate_bicolored("ru")
    assert info.value.index == 0
    with pytest.raises(BelowAxis) as info:
        validate_bicolored("urr")
    assert info.value.index == 2


def test_up_after_red_needs_black():
    with pytest.raises(RunFormViolation) as info:
        validate_bicolored("urur")
    assert info.value.index == 2


def test_red_after_black():
    with pytest.raises(RunFormViolation) as info:
        validate_bicolored("uubru")
    assert info.value.index == 3


def test_trailing_black():
    with pytest.raises(RunFormViolation) as info:
        validate_bicolored("ub")
    assert info.value.index == 1


def test_empty_word():
    with pytest.raises(RunFormViolation) as info:
        validate_bicolored("")
    assert info.value.index == 0


def test_not_closed():
    with pytest.raises(NotClosed):
        validate_bicolored("uur")


# -------------------------------------------------------------- statistics


@pytest.mark.parametrize(
    "word,expected",
    [
        ("ur", (0, 0, 0)),
        ("uurr", (1, 1, 0)),
        ("ububur", (0, 0, 2)),
        ("uuurrr", (2, 2, 0)),
        ("uurbur", (0, 1, 1)),
        ("uubbur", (0, 1, 0)),
        ("uuburr", (1, 1, 1)),
        ("ubuurr", (1, 1, 1)),
    ],
)
def test_stats_hand_values(word, expected):
    assert tuple(bicolored_stats(word)) == expected


# --------------------------------------------------------------- bijection


def test_six_object_table():
    for word, q in zip(SIX, SIX_FPATHS):
        assert phi_B(word) == q, word
        assert psi_B(q) == word


def test_round_trip_small():
    for n in range(5):
        for w in gen_bicolored(n + 1):
            assert psi_B(phi_B(w)) == w
        for q in gen_fpaths(n):
            assert phi_B(psi_B(q)) == q


def test_stats_transport():
    for n in range(5):
        for w in gen_bicolored(n + 1):
            assert bicolored_stats(w) == fpath_stats(phi_B(w))[0]


def test_pinned_image():
    from fpaths.verify_harness import PINNED_IMAGES, PINNED_Q

    assert psi_B(PINNED_Q) == PINNED_IMAGES["bicolored"]
    assert phi_B(PINNED_IMAGES["bicolored"]) == PINNED_Q


# ------------------------------------------------------------- enumeration


def test_counts_and_oracle():
    expected = (1, 2, 6, 21)
    for n, want in enumerate(expected):
        got = gen_bicolored(n + 1)
        assert len(got) == want
        assert set(got) == oracle_bicolored(n + 1)
    assert len(gen_bicolored(5)) == 80


def test_canonical_order_is_string_order():
    got = gen_bicolored(3)
    assert got == ("ububur", "ubuurr", "uubbur", "uuburr", "uurbur", "uuurrr")
    assert list(got) == sorted(got)


# ------------------------------------------------------------- direct sums


def test_direct_sum_pinned_words():
    assert bicolored_direct_sum("ur", "ur") == "uurr"
    assert bicolored_direct_sum("uurbur", "ur") == "uurbuurr"
    assert bicolored_direct_sum("ur", "uurbur") == "uuurburr"


def test_direct_sum_final_run_adds():
    for w1 in gen_bicolored(2):
        for w2 in gen_bicolored(2):
            joined = bicolored_direct_sum(w1, w2)
            validate_bicolored(joined)
            assert (
                bicolored_stats(joined).h
                == bicolored_stats(w1).h + bicolored_stats(w2).h + 1
            )
