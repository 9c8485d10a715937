"""Brute-force pattern matchers, the reference oracles of the tests.

The library decides membership with linear or quadratic scans
(``pattern_perms.validate_avoider``, ``inversion_seqs.validate_invseq``);
these matchers try every subsequence instead, so the tests can check
the scans against a definition that shares no code with them.
"""
from itertools import combinations


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
