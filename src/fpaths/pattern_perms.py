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

:func:`validate_avoider` decides membership in one scan over bit sets,
:func:`_scan`, which :func:`gen_avoiders` carries down its search, and
scans in O(n^2) only to name a pattern.
"""
from __future__ import annotations

from math import inf

from .errors import FormViolation, NotAvoider, int_text
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


def _first_forbidden(p: Permutation) -> Permutation | None:
    """The first pattern of FORBIDDEN that p contains, or None.  O(n^2).

    Every forbidden pattern ends in its smallest entry, so an occurrence
    ends at x = p_l iff the entries before l larger than x contain 123
    (2341), 132 (2431) or 213 (3241).  213 is 132 reversed and
    complemented.
    """
    found = set()
    for k in range(3, len(p)):
        above = [v for v in p[:k] if v > p[k]]
        if _contains_123(above):
            found.add(FORBIDDEN[0])
        elif _contains_132(above):
            found.add(FORBIDDEN[1])
        elif _contains_132([-v for v in reversed(above)]):
            found.add(FORBIDDEN[2])
    return next((pat for pat in FORBIDDEN if pat in found), None)


def _scan(p, seen: int = 0, rl: int = 0, low: int = 0):
    """Read the entries p after a prefix whose state is ``seen``, ``rl``
    and ``low``, and return ``(found, seen, rl, low)``: found is True,
    and the scan stops, at the first entry that completes a pattern of
    FORBIDDEN.

    By :func:`_first_forbidden`, an entry x completes one iff some
    i < j < k before it have x < p_i < p_k and x < p_j.  For y = p_k,
    let T(y) be the largest min(p_i, p_j) over i < j < k with p_i < y,
    and b the largest earlier value below y.  If a larger entry follows
    b, then (b, that entry) is a pair, so T(y) = b.  If none does, b is
    a right-to-left maximum of p_1..p_(k-1): every pair then holds an
    entry below b, and b with the largest earlier value c below it is a
    pair in either order, so T(y) = c, or 0 when there is no c.  So x
    completes a pattern iff x < ``low``, the largest T so far.  ``seen``
    and ``rl`` are the bit sets of the values and of the right-to-left
    maxima seen so far; an entry y removes the maxima below it.
    """
    for y in p:
        if y < low:
            return True, seen, rl, low
        bit = 1 << y
        below = seen & (bit - 1)
        b = below.bit_length() - 1
        if b > low:  # T(y) <= b
            t = (below ^ 1 << b).bit_length() - 1 if rl >> b & 1 else b
            if t > low:
                low = t
        seen |= bit
        rl = rl & -bit | bit
    return False, seen, rl, low


def validate_avoider(p: Permutation) -> Permutation:
    """Return p as a tuple, or raise: FormViolation when p is empty, has
    an entry that is not an integer or is not a permutation of 1..len(p),
    then NotAvoider as :func:`_check_avoider` does."""
    p = int_entries(p)
    if not p:
        raise FormViolation("empty permutation; the shortest has length 1")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise FormViolation(f"not a permutation of 1..{len(p)}: {int_text(p)}")
    return _check_avoider(p)


def _check_avoider(p: Permutation) -> Permutation:
    """The tuple permutation p, as parsed text is, if it avoids FORBIDDEN:
    :func:`_scan` decides, and :func:`_first_forbidden` runs only on a
    rejection, to name the pattern in NotAvoider."""
    if _scan(p)[0]:
        raise NotAvoider(_first_forbidden(p))
    return p


def gen_avoiders(n: int) -> tuple[Permutation, ...]:
    """All avoiders of length n in lexicographic order.

    Depth-first over prefixes, values in increasing order, carrying each
    prefix's :func:`_scan` state.  Containment is closed under extension,
    and the entries that can follow a prefix are its unused values above
    its threshold ``low``, so no candidate is tested.  A trusted core: n
    must be an integer >= 1, checked by ``FAMILIES["perm"].generate``.
    """
    out: list[Permutation] = []
    prefix: list[int] = []

    def rec(seen: int, rl: int, low: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(low + 1, n + 1):
            if not seen >> v & 1:
                prefix.append(v)
                rec(*_scan((v,), seen, rl, low)[1:])
                prefix.pop()

    rec(0, 0, 0)
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
    when there is no such value).  One pass over the suffix minima
    counts both, reading L(i) + 1 as the bit length of ``seen``, the bit
    set of the values so far, below pi(i).

    >>> perm_stats((2, 4, 1, 3))
    StatTriple(h=0, l=2, a1=0)
    """
    blocks = crit = seen = 0
    top = -inf
    for v, low in zip(p, _later_minima(p)):
        if v > top:
            top = v
        if top < low:
            blocks += 1
        if (seen & ((1 << v) - 1)).bit_length() <= low:
            crit += 1
        seen |= 1 << v
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
