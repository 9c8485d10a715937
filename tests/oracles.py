"""Brute-force matchers and the paper's maps, the reference oracles of
the tests.

The library decides membership with linear or quadratic scans
(``pattern_perms.validate_avoider``, ``inversion_seqs.validate_invseq``)
and counts critical indexes in O(n log n) (``pattern_perms.crit``);
these oracles try every subsequence or triple instead, so the tests can
check the fast code against a definition that shares no code with it.
Likewise ``schroder_paths.phi_P`` and ``inversion_seqs.phi_I`` read the
construction record in one pass, while :func:`peel_phi_P` and
:func:`delete_max_phi_I` take the object apart one step at a time, as
the paper defines φ_P and φ_I.
"""
from itertools import combinations

from fpaths.inversion_seqs import max_and_maxid


def perm_contains(p, pattern) -> bool:
    """Classical containment: some subsequence of p is order-isomorphic
    to ``pattern``.  Backtracking over positions with pairwise checks."""
    k = len(pattern)
    n = len(p)
    if k == 0:
        return True

    def extend(chosen: list[int], start: int) -> bool:
        t = len(chosen)
        if t == k:
            return True
        for idx in range(start, n - (k - t) + 1):
            v = p[idx]
            ok = True
            for s in range(t):
                if (pattern[s] < pattern[t]) != (p[chosen[s]] < v):
                    ok = False
                    break
            if ok:
                chosen.append(idx)
                if extend(chosen, idx + 1):
                    return True
                chosen.pop()
        return False

    return extend([], 0)


def word_reduction(word) -> tuple[int, ...]:
    """Order type of a word, ranks from 0, ties kept.

    >>> word_reduction((5, 2, 5))
    (1, 0, 1)
    """
    ranks = {v: r for r, v in enumerate(sorted(set(word)))}
    return tuple(ranks[v] for v in word)


def invseq_contains(e, pattern) -> bool:
    """True if some subsequence of e reduces to ``pattern``, as a word."""
    pattern = tuple(pattern)
    return any(
        word_reduction(sub) == pattern
        for sub in combinations(e, len(pattern))
    )


def brute_crit(p) -> int:
    """Indexes i where every pair j < i < k with p(j), p(k) < p(i)
    appears in increasing order, by trying every such triple.

    >>> brute_crit((2, 4, 1, 3))
    3
    """
    n = len(p)
    return sum(
        not any(p[k] < p[j] < p[i] for j in range(i) for k in range(i + 1, n))
        for i in range(n)
    )


# ------------------------------------------------------------ paper's maps

_RISE = {"u": 1, "d": -1, "h": 0}


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


def peel_phi_P(p: str) -> tuple:
    """φ_P of a valid Schröder word, peeling steps off the right.

    Suffix classes and the peeled step (Y, Z are the segments at heights
    1 and 2 delimited by the last rises from levels 0 and 1):

        ... h                  -> (0, 1)
        ... ud                 -> (1, 1)
        X u Y  hd              -> (comp(Y) + 2, 1)          rest X h Y
        X u Z  udd             -> (1, -comp(Z))             rest X h Z
        X u Y u Z  hdd         -> (comp(Y) + 2, -comp(Z))   rest X h Y h Z

    comp(W) = len(_axis_blocks(W)) - 1.

    >>> peel_phi_P("uhd")
    ((0, 1), (2, 1))
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


def delete_max_phi_I(e) -> tuple:
    """φ_I of a nonempty (101,102)-avoider: delete the rightmost maximum,
    recording (max drop, maxid drop).

    >>> delete_max_phi_I((0, 1, 0))
    ((0, 1), (1, 0))
    """
    steps = []
    while len(e) > 1:
        m, mi = max_and_maxid(e)
        nxt = e[: mi - 1] + e[mi:]
        m2, mi2 = max_and_maxid(nxt)
        steps.append((m - m2, mi - mi2))
        e = nxt
    steps.reverse()
    return tuple(steps)
