"""Brute-force matchers, the reference oracles of the tests.

The library decides membership with linear or quadratic scans
(``pattern_perms.validate_avoider``, ``inversion_seqs.validate_invseq``)
and counts critical indexes in O(n log n) (``pattern_perms.crit``);
these oracles try every subsequence or triple instead, so the tests can
check the fast code against a definition that shares no code with it.
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
