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
block; when a = 1 the maximum and τ do.  φ undoes this from the last
step: the maximum's index x and the number w of values it rotated give
back, with the same blocks, how many of them the step took.

:func:`validate_avoider` decides membership in one O(n log n) scan and
scans in O(n^2) only to name a pattern.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from math import inf

from .errors import FormViolation, FpathsError, NotAvoider
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


def is_avoider(p) -> bool:
    """True iff :func:`validate_avoider` accepts p, whatever p is."""
    try:
        validate_avoider(p)
    except FpathsError:
        return False
    return True


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


def _take(blocks: list[int], total: int) -> int:
    """Pop blocks off the right until their lengths add up to ``total``;
    return how many were popped."""
    count = 0
    while total > 0:
        total -= blocks.pop()
        count += 1
    if total:  # only on a permutation that is no avoider
        raise FormViolation("the blocks do not split as an avoider's do")
    return count


def _insertion_record(p: Permutation) -> list[tuple[int, int]]:
    """The (x, w) of each step of :func:`psi_S`, last step first, over ids
    (indexes in p) in value order and in position order (``alive``).  The
    values left of the maximum, at x, are 1..x-1 and the z >= x of least
    id; undoing ψ's rotation moves z down to x, and w = z - x."""
    by_val = sorted(range(len(p)), key=p.__getitem__)
    alive = list(range(len(p)))
    record = []
    while len(by_val) > 1:
        x = bisect_left(alive, by_val.pop())
        del alive[x]
        w = 0
        if x:
            upper = by_val[x - 1:]
            w = upper.index(min(upper))
            by_val.insert(x - 1, by_val.pop(x - 1 + w))
        record.append((x, w))
    return record


def phi_S(p: Permutation) -> FPath:
    """Map an avoider of length n+1 to its F-path of length n.  A trusted
    core: on a permutation that is no avoider it returns some tuple or
    raises FormViolation.

    ψ's block stack reads the record (x, w) of each step on a
    permutation of length ``size``: the blocks covering its last size -
    x - w entries are τ, those covering the w before them are ω.
    """
    steps = []
    blocks = [1]
    for size, (x, w) in enumerate(reversed(_insertion_record(p)), 1):
        tau = _take(blocks, size - x - w)
        head = 0
        if w:
            steps.append((_take(blocks, w) + 1, 1 - tau))
            head = blocks.pop()
        else:
            steps.append((1, 2 - tau) if tau else (0, 1))
        blocks.append(size - x + head + 1)
    return tuple(steps)


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
