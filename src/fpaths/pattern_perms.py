"""Permutations avoiding 2341, 2431 and 3241, and their F-path bijection.

Permutations are tuples of 1..N, and an avoider of length n+1 maps to
an F-path of length n.

Statistics matched to F-paths:

    block - 1   plus-indecomposable blocks, minus 1        = height
    asc         adjacent ascents pi(i) < pi(i+1)           = north
    crit        critical indexes (see :func:`perm_stats`)  = aone + asc + 1
                so aone = crit - asc - 1

The bijection reads an avoider as the record of how ψ built it from
(1,), inserting the new maximum once per step.  A north step (0, 1)
appends it as a block of its own.  Any other step (a, b) takes blocks
off the right: the last blocks τ, 2 - b of them when a = 1 and 1 - b
when a >= 2, and when a >= 2 the a - 1 blocks ω before them.  The
maximum goes right before ω τ.  When a >= 2 the largest value before ω
rises to the top of ω's values, which each drop by one, so that the
block holding it (the head block), the maximum, ω and τ merge into one
block; when a = 1 the maximum and τ do.  Undoing a step removes the
maximum and leaves, in order, the entries to its left on the values
1..x and those to its right above x: a direct sum.  So φ reads the steps
off p's max-Cartesian tree (Vuillemin, CACM 1980), whose nodes in
postorder are the inserted entries: at a node m, ω is the entries of m's
right subtree below m's left child, τ the rest, and their blocks start
on the left spine of m's right child.

:func:`validate_avoider` decides membership in one O(n log n) scan and
scans in O(n^2) only to name a pattern.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from math import inf

from .errors import FormViolation, NotAvoider
from .fpath_core import FPath, StatTriple, int_entries

Permutation = tuple[int, ...]

FORBIDDEN = ((2, 3, 4, 1), (2, 4, 3, 1), (3, 2, 4, 1))


# ------------------------------------------------------ pattern machinery


def _contains_123(s) -> bool:
    """``first`` is the smallest value so far, ``second`` the smallest
    value so far with a smaller one before it."""
    first = second = inf
    for v in s:
        if v <= first:
            first = v
        elif v <= second:
            second = v
        else:
            return True
    return False


def _contains_132(s) -> bool:
    """Right-to-left stack scan; ``third`` is the largest value seen so
    far that has a larger value to its left."""
    third = -inf
    stack: list[int] = []
    for v in reversed(s):
        if v < third:
            return True
        while stack and stack[-1] < v:
            third = stack.pop()
        stack.append(v)
    return False


def _forbidden_ending_at(prefix, x) -> Permutation | None:
    """The first pattern of FORBIDDEN with an occurrence whose last entry
    is x, placed right after ``prefix``; None if there is none.

    Every forbidden pattern ends in its smallest entry, so such an
    occurrence exists iff the entries of ``prefix`` larger than x contain
    123 (2341), 132 (2431) or 213 (3241).  213 is 132 reversed and
    complemented.  Linear in len(prefix).
    """
    above = [v for v in prefix if v > x]
    if len(above) < 3:
        return None
    if _contains_123(above):
        return FORBIDDEN[0]
    if _contains_132(above):
        return FORBIDDEN[1]
    if _contains_132([-v for v in reversed(above)]):
        return FORBIDDEN[2]
    return None


def _first_forbidden(p: Permutation) -> Permutation | None:
    """The first pattern of FORBIDDEN that p contains, or None.  O(n^2)."""
    found = {_forbidden_ending_at(p[:k], p[k]) for k in range(3, len(p))}
    return next((pat for pat in FORBIDDEN if pat in found), None)


def _contains_forbidden(p: Permutation) -> bool:
    """True iff the permutation p contains a pattern of FORBIDDEN, in one
    scan with O(n log n) comparisons.

    The orders 123, 132 and 213 are those whose first entry is below
    their last, so (see :func:`_forbidden_ending_at`) p contains one iff
    some i < j < k < l have p_l < p_i < p_k and p_l < p_j.  At k, take
    p_l = t, the least entry after k, and r the last index before k with
    p_r > t; the entries between r and k lie below t.  So one exists iff
    a value before k other than p_r lies in (t, p_k).  ``tops`` holds the
    prefix's right-to-left maxima, negated, and p_r is the last above t.
    """
    seen: list[int] = []
    tops: list[int] = []
    for v, t in zip(p, _later_minima(p)):
        if v > t:
            lo = bisect_left(seen, t)
            between = bisect_left(seen, v, lo) - lo
            if between > 1 or between and -tops[bisect_left(tops, -t) - 1] > v:
                return True
        insort(seen, v)
        while tops and tops[-1] > -v:
            tops.pop()
        tops.append(-v)
    return False


def validate_avoider(p: Permutation) -> Permutation:
    """Return p as a tuple, or raise: FormViolation when p is empty, has
    an entry that is not an integer or is not a permutation of 1..len(p),
    then NotAvoider as :func:`_check_avoider` does."""
    p = int_entries(p)
    if not p:
        raise FormViolation("empty permutation; the shortest has length 1")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise FormViolation(f"not a permutation of 1..{len(p)}: {p!r}")
    return _check_avoider(p)


def _check_avoider(p: Permutation) -> Permutation:
    """The tuple permutation p, as parsed text is, if it avoids FORBIDDEN:
    :func:`_contains_forbidden` decides, and :func:`_first_forbidden`
    runs only on a rejection, to name the pattern in NotAvoider."""
    if _contains_forbidden(p):
        raise NotAvoider(_first_forbidden(p))
    return p


def gen_avoiders(n: int) -> tuple[Permutation, ...]:
    """All avoiders of length n in lexicographic order.

    Depth-first over prefixes, values in increasing order.  Containment
    is closed under extension, so a prefix is dropped as soon as its last
    entry completes a pattern.  The entries that can follow a prefix are
    the unused values from some threshold up (a smaller entry sees more
    entries above it), so once one value passes, the larger ones do too.
    A trusted core: n must be an integer >= 1, checked by
    ``FAMILIES["perm"].generate``.
    """
    out: list[Permutation] = []
    prefix: list[int] = []
    used = [False] * (n + 1)

    def rec() -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        passed = False
        for v in range(1, n + 1):
            if used[v] or (
                not passed and _forbidden_ending_at(prefix, v) is not None
            ):
                continue
            passed = True
            used[v] = True
            prefix.append(v)
            rec()
            prefix.pop()
            used[v] = False

    rec()
    return tuple(out)


# ---------------------------------------------------- blocks & statistics


def _later_minima(p) -> list:
    """Entry i is min(p[i+1:]), inf for the last position."""
    later = []
    low = inf
    for v in reversed(p):
        later.append(low)
        if v < low:
            low = v
    later.reverse()
    return later


def asc(p: Permutation) -> int:
    return sum(1 for i in range(len(p) - 1) if p[i] < p[i + 1])


def perm_stats(p: Permutation) -> StatTriple:
    """(block - 1, asc, crit - asc - 1) for a nonempty avoider.

    Blocks end at the cut points, positions whose prefix maximum is
    below every later entry (the last position always cuts).  An index
    i is critical when every pair j < i < k with pi(j), pi(k) < pi(i)
    appears in increasing order.  With L(i) the largest value left of i
    below pi(i), that holds iff no later entry is below L(i) (vacuously
    when there is no such value).  One pass over the suffix minima,
    with a sorted list of the values seen so far, counts both in
    O(n log n) comparisons.

    >>> perm_stats((2, 4, 1, 3))
    StatTriple(h=0, l=2, a1=0)
    """
    blocks = crit = 0
    top = -inf
    seen: list[int] = []
    for v, low in zip(p, _later_minima(p)):
        if v > top:
            top = v
        if top < low:
            blocks += 1
        at = bisect_left(seen, v)
        if at == 0 or seen[at - 1] < low:
            crit += 1
        seen.insert(at, v)
    a = asc(p)
    return StatTriple(blocks - 1, a, crit - a - 1)


def perm_direct_sum(p1: Permutation, p2: Permutation) -> Permutation:
    return tuple(p1) + tuple(v + len(p1) for v in p2)


# -------------------------------------------------------------- bijection


def phi_S(p: Permutation) -> FPath:
    """Map an avoider of length n+1 to its F-path of length n.  A trusted
    core: on a permutation that is no avoider it returns some tuple of
    pairs and raises nothing.

    The stack pops the tree's nodes in postorder, each once a larger
    entry arrives, and the first node popped is ψ's initial entry.  At a
    popped node m, ``top`` is its left child's value.  Going down the
    left spine of m's right child, a block of τ (above ``top``) or ω
    (below it) starts at each node whose next node down is absent or
    lies below ``tail``, the least minimum of the right subtrees passed
    so far; τ's minima lie above ``top``, so above every node of ω.
    Each spine is walked by one pop: O(n).
    """
    n = len(p)
    val = (*p, inf, 0)  # val[n]: a sentinel above every entry; -1: no node
    left = [-1] * (n + 2)
    right = [-1] * (n + 2)
    low = [inf] * (n + 2)  # subtree minima
    steps = []
    stack: list[int] = []
    for i in range(n + 1):
        v = val[i]
        child = -1
        while stack and val[stack[-1]] < v:
            m = stack.pop()
            right[m] = child
            low[m] = min(low[left[m]], val[m], low[child])
            top, tail, s = val[left[m]], inf, child
            tau = omega = 0  # blocks of τ, above top, and of ω, below it
            while s >= 0:
                if low[right[s]] < tail:
                    tail = low[right[s]]
                if val[left[s]] < tail:
                    if val[s] < top:
                        omega += 1
                    else:
                        tau += 1
                s = left[s]
            steps.append((omega + 1, 1 - tau) if omega
                         else (1, 2 - tau) if tau else (0, 1))
            child = m
        left[i] = child
        stack.append(i)
    return tuple(steps[1:])


def psi_S(q: FPath) -> Permutation:
    """Inverse of :func:`phi_S`: insert the maximum once per step of
    ``q``.  A trusted core: ``q`` must be a valid F-path.

    Entry e is the one that step e inserted, 0 the initial 1.  ``by_pos``
    holds the entries in position order, ``by_val`` in value order and
    ``blocks`` the block lengths; the values are read off ``by_val``
    once, at the end.  On a permutation of length e, step e inserts e at
    index e - |ω| - |τ| and, when a >= 2, moves the head block's largest
    value to the top of ω's with one pop and one insert on ``by_val``.
    """
    by_pos = [0]
    by_val = [0]
    blocks = [1]
    for e, (a, b) in enumerate(q, 1):
        t = len(blocks) - (2 - b if a == 1 else 1 - b)  # the first τ block
        cut = tau = sum(blocks[t:])
        if a >= 2:
            t -= a - 1  # the first ω block
            cut = sum(blocks[t:])
            by_val.insert(e - tau - 1, by_val.pop(e - cut - 1))
            t -= 1  # the head block
        blocks[t:] = [sum(blocks[t:]) + 1]
        by_pos.insert(e - cut, e)
        by_val.append(e)
    value = [0] * len(by_val)
    for v, i in enumerate(by_val, 1):
        value[i] = v
    return tuple(value[i] for i in by_pos)
