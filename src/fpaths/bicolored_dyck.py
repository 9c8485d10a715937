"""Bicolored Dyck paths in run form, and their F-path bijection.

Words over ``u`` (up), ``r`` (red down), ``b`` (black down) of the shape

    u^{i_1} r^{j_1} b^{k_1} u^{i_2} r^{j_2} b^{k_2} ... u^{i_L} r^{j_L}

with every i_m >= 1, every k_m >= 1 except after the final descent, and
j_m >= 0 - i.e. each maximal descent runs red-then-black, a non-final
descent ends with at least one black step, and the word ends with a
(necessarily non-empty) red run.  The word must also stay weakly above
the axis and close on it, with u counting +1 and r, b counting -1.

Statistics matched to F-paths:

    last - 1   length of the final red run, minus 1    = height
    dasc       number of uu factors (double ascents)   = north
    bval       number of bu factors whose b "sees" a   = aone
               red or up step on its left (ubu / rbu)

The bijection is segment-local: splitting the word before each u gives
one segment per F-step plus a final ``u r^{height+1}``; a segment
``u r^p b^q`` encodes the step (q, 1 - p).
"""
from __future__ import annotations

from .errors import (
    BelowAxis,
    NotClosed,
    ParseError,
    RunFormViolation,
)
from .fpath_core import FPath, StatTriple, fpath_height, require_str

BicoloredWord = str


def validate_bicolored(word: str) -> BicoloredWord:
    """Check axis, closure and the run form.

    Index conventions (0-based letters): :class:`BelowAxis` fires on the
    letter that dips below the axis and takes priority over form errors
    at the same letter; :class:`RunFormViolation` fires on a ``u``
    directly following a red step (the descent had no black step), on an
    ``r`` directly following a black step, on a trailing black step (the
    word must end with its red run), and on the empty word (index 0).
    """
    if require_str(word) == "":
        raise RunFormViolation(0, "empty word")
    height = 0
    prev = ""
    for i, c in enumerate(word):
        if c not in "urb":
            raise ParseError(i, f"letter {c!r} not in 'urb'")
        if c == "u":
            if prev == "r":
                raise RunFormViolation(i, "descent ended without a black step")
            height += 1
        else:
            if height == 0:
                raise BelowAxis(i)
            if c == "r" and prev == "b":
                raise RunFormViolation(i, "red step after black")
            height -= 1
        prev = c
    if word[-1] == "b":
        raise RunFormViolation(len(word) - 1, "word must end with a red run")
    if height != 0:
        raise NotClosed(height)
    return word


def _final_red_run(word: str) -> int:
    n = len(word)
    i = n
    while i > 0 and word[i - 1] == "r":
        i -= 1
    return n - i


def bicolored_stats(w: BicoloredWord) -> StatTriple:
    """(last - 1, dasc, bval) for a valid word.

    >>> bicolored_stats("ububur")
    StatTriple(h=0, l=0, a1=2)
    """
    h = _final_red_run(w) - 1
    dasc = sum(1 for i in range(len(w) - 1) if w[i] == w[i + 1] == "u")
    bval = sum(1 for i in range(len(w) - 2) if w[i + 1: i + 3] == "bu" and w[i] != "b")
    return StatTriple(h, dasc, bval)


def phi_B(b: BicoloredWord) -> FPath:
    """Map a valid bicolored word to its F-path: each segment u r^p b^q
    before the last gives the step (q, 1 - p).
    A trusted core: the word is not checked."""
    return tuple((s.count("b"), 1 - s.count("r"))
                 for s in b.split("u")[1:-1])


def psi_B(q: FPath) -> BicoloredWord:
    """Inverse of :func:`phi_B`: one segment per step, then u r^{height+1}.
    A trusted core: ``q`` must be a valid F-path."""
    parts = ["u" + "r" * (1 - b) + "b" * a for a, b in q]
    parts.append("u" + "r" * (fpath_height(q) + 1))
    return "".join(parts)


def gen_bicolored(n_plus_1: int) -> tuple[BicoloredWord, ...]:
    """All valid words with n_plus_1 up steps, in plain string order (b<r<u).
    A trusted core: n_plus_1 must be an integer >= 1, checked by
    ``FAMILIES["bicolored"].generate``."""
    total = 2 * n_plus_1
    out: list[str] = []

    def rec(prefix: list[str], ups: int, height: int) -> None:
        pos = len(prefix)
        if pos == total:
            if prefix[-1] == "r":
                out.append("".join(prefix))
            return
        downs = pos - ups
        prev = prefix[-1] if prefix else ""
        # letters tried in ASCII order so the output is sorted
        if height > 0 and downs < n_plus_1:
            prefix.append("b")  # black may follow u, r or b
            rec(prefix, ups, height - 1)
            prefix.pop()
            if prev != "b":  # red may not follow black
                prefix.append("r")
                rec(prefix, ups, height - 1)
                prefix.pop()
        # up may not follow red, and must leave room to come back down
        if ups < n_plus_1 and prev != "r" and height + 1 <= n_plus_1 - downs:
            prefix.append("u")
            rec(prefix, ups + 1, height + 1)
            prefix.pop()

    rec([], 0, 0)
    return tuple(out)


def bicolored_direct_sum(b1: BicoloredWord, b2: BicoloredWord) -> BicoloredWord:
    """Graft b2 between b1's body and b1's final red run."""
    last1 = _final_red_run(b1)
    return b1[: len(b1) - last1] + b2 + "r" * last1
