"""Schröder paths with no triple descent, and their F-path bijection.

A Schröder word of semilength n is a string over ``u`` (up, +1), ``d``
(down, -1) and ``h`` (horizontal, width 2) that stays weakly above the
x-axis, ends on it, and contains no ``ddd`` factor.  The letters u and d
have width 1, so total width is 2n.

Statistics matched to F-paths:

    comp  horizontal steps ON the x-axis        = height
    hdd   all horizontal steps + all dd factors = north
    peak  all ud factors                        = aone

The bijection reads a word as the record of how ψ built it, one piece
``[uh]d*`` per step, left to right.  A north step appends an ``h`` on
the x-axis; any other step appends ``ud``, ``hd``, ``udd`` or ``hdd``
and may lift one or two axis ``h``'s to ``u``'s, which takes them and
the axis ``h``'s after them off the axis.
"""
from __future__ import annotations

import re

from .errors import (
    BelowAxis,
    NotClosed,
    ParseError,
    TripleDescent,
)
from .fpath_core import FPath, StatTriple, require_str

SchroderWord = str

_RISE = {"u": 1, "d": -1, "h": 0}


def validate_schroder(letters: str) -> SchroderWord:
    """Check alphabet, non-negativity, closure and the no-ddd rule.

    Errors carry 0-based letter indexes: :class:`BelowAxis` points at the
    offending ``d``, :class:`TripleDescent` at the *start* of the ``ddd``
    factor ("uuuddd" -> index 3).
    """
    height = 0
    run = 0  # current streak of d's
    for i, c in enumerate(require_str(letters)):
        if c not in _RISE:
            raise ParseError(i, f"letter {c!r} not in 'udh'")
        height += _RISE[c]
        if height < 0:
            raise BelowAxis(i)
        run = run + 1 if c == "d" else 0
        if run == 3:
            raise TripleDescent(i - 2)
    if height != 0:
        raise NotClosed(height)
    return letters


def schroder_stats(p: SchroderWord) -> StatTriple:
    """(comp, hdd, peak) for a valid word.

    >>> schroder_stats("hh")
    StatTriple(h=2, l=2, a1=0)
    >>> schroder_stats("uudd")
    StatTriple(h=0, l=1, a1=1)
    """
    height = comp = 0
    for c in p:
        if c == "h" and not height:
            comp += 1
        height += _RISE[c]
    # A valid word has no ddd, so its dd factors never overlap and
    # str.count counts them all.
    return StatTriple(comp, p.count("h") + p.count("dd"), p.count("ud"))


# -------------------------------------------------------------- bijection

_PIECE = re.compile("[uh]d*")


def phi_P(p: SchroderWord) -> FPath:
    """Read a valid Schröder word left to right as the pieces
    :func:`psi_P` appended.  A trusted core: the word is not checked.

    ``axis`` holds the letters of the north pieces still on the x-axis (a
    ``u`` was lifted by a later piece); ``lift()`` pops it up to and
    including the topmost ``u`` and counts the entries popped:

        h or u  -> (0, 1), pushed       udd  -> (1, 1 - lift())
        ud      -> (1, 1)               hdd  -> (r2 + 1, 1 - r1)
        hd      -> (lift() + 1, 1)              r1, r2 = lift(), lift()
    """
    steps = []
    axis: list[str] = []

    def lift() -> int:
        r = 1
        while axis.pop() != "u":
            r += 1
        return r

    for piece in _PIECE.findall(p):
        if len(piece) == 1:
            axis.append(piece)
            steps.append((0, 1))
            continue
        r1 = lift() if len(piece) == 3 else 0
        steps.append((1 if piece[0] == "u" else lift() + 1, 1 - r1))
    return tuple(steps)


def psi_P(q: FPath) -> SchroderWord:
    """Inverse of :func:`phi_P`: one piece per step.  A trusted core:
    ``q`` must be a valid F-path.

    ``axis`` holds the indexes of the ``h``'s on the x-axis.  A step
    (a, b) != (0, 1) lifts ``axis[b - 1]`` to ``u`` when b <= 0 and
    ``axis[b - a]`` when a > b, dropping the top a - b entries.
    """
    w: list[str] = []
    axis: list[int] = []
    for a, b in q:
        if a == 0:
            axis.append(len(w))
            w.append("h")
            continue
        if b <= 0:
            w[axis[b - 1]] = "u"
        if a > b:
            w[axis[b - a]] = "u"
            del axis[b - a:]
        w.append("u" if a == 1 else "h")
        w.append("d" if b == 1 else "dd")
    return "".join(w)


# ------------------------------------------------------------ enumeration


def gen_schroder(n: int) -> tuple[SchroderWord, ...]:
    """All valid words of semilength n, lexicographic with u < d < h.
    A trusted core: n must be an integer >= 0, checked by
    ``FAMILIES["schroder"].generate``."""
    out: list[str] = []

    def rec(prefix: list[str], width: int, height: int, dd: int) -> None:
        rest = 2 * n - width
        if rest == 0:
            out.append("".join(prefix))
            return
        # u: must still be able to come down
        if height + 1 <= rest - 1:
            prefix.append("u")
            rec(prefix, width + 1, height + 1, 0)
            prefix.pop()
        if height > 0 and dd < 2:
            prefix.append("d")
            rec(prefix, width + 1, height - 1, dd + 1)
            prefix.pop()
        if rest >= 2 + height:
            prefix.append("h")
            rec(prefix, width + 2, height, 0)
            prefix.pop()

    rec([], 0, 0, 0)
    return tuple(out)


def schroder_direct_sum(p1: SchroderWord, p2: SchroderWord) -> SchroderWord:
    """Join with a fresh axis-level horizontal step."""
    return p1 + "h" + p2
