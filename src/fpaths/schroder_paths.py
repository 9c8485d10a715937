"""Schröder paths with no triple descent, and their F-path bijection.

A Schröder word of semilength n is a string over ``u`` (up, +1), ``d``
(down, -1) and ``h`` (horizontal, width 2) that stays weakly above the
x-axis, ends on it, and contains no ``ddd`` factor.  The letters u and d
have width 1, so total width is 2n.

Statistics matched to F-paths:

    comp  horizontal steps ON the x-axis        = height
    hdd   all horizontal steps + all dd factors = north
    peak  all ud factors                        = aone

The bijection peels a step off the right end of the word; which rule
applies is decided by the word's suffix class (h / ud / hd / udd / hdd).
"""
from __future__ import annotations

from .errors import (
    BelowAxis,
    FormViolation,
    GuardExceeded,
    NotClosed,
    ParseError,
    TripleDescent,
)
from .fpath_core import DEFAULT_GUARD, FPath, StatTriple, require_str

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
    height = 0
    comp = hdd = peak = 0
    for i, c in enumerate(p):
        if c == "h":
            if height == 0:
                comp += 1
            hdd += 1
        height += _RISE[c]
        if i > 0:
            pair = p[i - 1] + c
            if pair == "dd":
                hdd += 1
            elif pair == "ud":
                peak += 1
    return StatTriple(comp, hdd, peak)


# ------------------------------------------------------- axis bookkeeping


def _axis_blocks(word: str) -> list[str]:
    """Split at the horizontal steps lying on the x-axis.

    A word with comp = c yields c+1 blocks (possibly empty); the blocks
    may still contain horizontal steps at positive height.
    """
    blocks = []
    height = 0
    cur = []
    for c in word:
        if c == "h" and height == 0:
            blocks.append("".join(cur))
            cur = []
        else:
            cur.append(c)
            height += _RISE[c]
    blocks.append("".join(cur))
    return blocks


def _last_rise_from(word: str, level: int) -> int:
    """Index of the last ``u`` that rises from ``level`` to ``level + 1``."""
    height = 0
    found = -1
    for i, c in enumerate(word):
        if c == "u" and height == level:
            found = i
        height += _RISE[c]
    return found


# -------------------------------------------------------------- bijection


def phi_P(p: SchroderWord) -> FPath:
    """Map a valid Schröder word to its F-path, peeling steps off the
    right.  A trusted core: the word is not checked.

    Suffix classes and the peeled step (Y, Z are the segments at heights
    1 and 2 delimited by the last rises from levels 0 and 1):

        ... h                  -> (0, 1)
        ... ud                 -> (1, 1)
        X u Y  hd              -> (comp(Y) + 2, 1)          rest X h Y
        X u Z  udd             -> (1, -comp(Z))             rest X h Z
        X u Y u Z  hdd         -> (comp(Y) + 2, -comp(Z))   rest X h Y h Z

    comp(W) = len(_axis_blocks(W)) - 1.
    """
    steps = []
    w = p
    while w:
        if w[-1] == "h":
            steps.append((0, 1))
            w = w[:-1]
        elif w[-2] == "u":  # ...ud
            steps.append((1, 1))
            w = w[:-2]
        elif w[-2] == "h":  # ...hd
            body = w[:-2]
            u0 = _last_rise_from(body, 0)
            x, y = body[:u0], body[u0 + 1:]
            steps.append((len(_axis_blocks(y)) + 1, 1))
            w = x + "h" + y
        elif w[-3] == "u":  # ...udd
            body = w[:-3]
            u0 = _last_rise_from(body, 0)
            x, z = body[:u0], body[u0 + 1:]
            steps.append((1, 1 - len(_axis_blocks(z))))
            w = x + "h" + z
        else:  # ...hdd
            body = w[:-3]
            u0 = _last_rise_from(body, 0)
            u1 = _last_rise_from(body, 1)
            x, y, z = body[:u0], body[u0 + 1:u1], body[u1 + 1:]
            steps.append((len(_axis_blocks(y)) + 1,
                          1 - len(_axis_blocks(z))))
            w = x + "h" + y + "h" + z
    steps.reverse()
    return tuple(steps)


def psi_P(q: FPath) -> SchroderWord:
    """Inverse of :func:`phi_P`, appending one suffix per step of ``q``.
    A trusted core: ``q`` must be a valid F-path."""
    w = ""
    for a, b in q:
        if (a, b) == (0, 1):
            w += "h"
        elif (a, b) == (1, 1):
            w += "ud"
        else:
            blocks = _axis_blocks(w)
            c = len(blocks) - 1
            if a == 1:  # b <= 0: X u Z udd
                j = -b
                x = "h".join(blocks[: c - j])
                z = "h".join(blocks[c - j:])
                w = x + "u" + z + "udd"
            elif b == 1:  # a >= 2: X u Y hd
                k = a - 2
                x = "h".join(blocks[: c - k])
                y = "h".join(blocks[c - k:])
                w = x + "u" + y + "hd"
            else:  # a >= 2, b <= 0: X u Y u Z hdd
                k, j = a - 2, -b
                x = "h".join(blocks[: c - k - j - 1])
                y = "h".join(blocks[c - k - j - 1: c - j])
                z = "h".join(blocks[c - j:])
                w = x + "u" + y + "u" + z + "hdd"
    return w


# ------------------------------------------------------------ enumeration


def gen_schroder(n: int, guard: int = DEFAULT_GUARD) -> tuple[SchroderWord, ...]:
    """All valid words of semilength n, lexicographic with u < d < h."""
    if n < 0:
        raise FormViolation(f"n must be >= 0, got {n}")
    if n > guard:
        raise GuardExceeded(n, guard)
    out: list[str] = []

    def rec(prefix: list[str], width: int, height: int, dd: int) -> None:
        rest = 2 * n - width
        if rest == 0:
            out.append("".join(prefix))
            return
        # u: must still be able to come down
        if height + 1 <= rest - 1 and (rest - 1 - height - 1) % 2 == 0:
            prefix.append("u")
            rec(prefix, width + 1, height + 1, 0)
            prefix.pop()
        if height > 0 and dd < 2 and (rest - 1 - height + 1) % 2 == 0:
            prefix.append("d")
            rec(prefix, width + 1, height - 1, dd + 1)
            prefix.pop()
        if rest >= 2 + height and (rest - 2 - height) % 2 == 0:
            prefix.append("h")
            rec(prefix, width + 2, height, 0)
            prefix.pop()

    rec([], 0, 0, 0)
    return tuple(out)


def schroder_direct_sum(p1: SchroderWord, p2: SchroderWord) -> SchroderWord:
    """Join with a fresh axis-level horizontal step."""
    return p1 + "h" + p2
