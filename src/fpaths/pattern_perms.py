"""Permutations avoiding 2341, 2431 and 3241, and their F-path bijection.

Permutations are tuples of 1..N.  The class avoiding the three patterns
is closed under removing the maximum's "shape surgery" below, and a
permutation of length n+1 maps to an F-path of length n.

Statistics matched to F-paths:

    block - 1   plus-indecomposable blocks, minus 1        = height
    asc         adjacent ascents pi(i) < pi(i+1)           = north
    crit        "critical" indexes (see :func:`crit`),     = aone + asc + 1
                so aone = crit - asc - 1

Shape of a permutation pi of length N (with the sentinel pi(0) = 0):

    x = position of the maximum N
    z = largest value left of x   (0 if x = 1)
    y = position of z             (0 if z = 0)
    w = smallest value at or right of x

Avoiders always have z != w, giving four cases by (z == N-1?) and
(z > w?); each case removes the maximum by a different value surgery and
emits one F-step.  :func:`shape_analysis` exposes (x, y, z, w, case).
"""
from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import NamedTuple

from .errors import FormViolation, GuardExceeded, NotAvoider
from .fpath_core import DEFAULT_GUARD, FPath, StatTriple, int_entries

Permutation = tuple[int, ...]

FORBIDDEN = ((2, 3, 4, 1), (2, 4, 3, 1), (3, 2, 4, 1))

Z_EQ_LT = "Z_EQ_LT"   # z = N-1, z < w   (max at the last position)
Z_LT_LT = "Z_LT_LT"   # z < N-1, z < w
Z_EQ_GT = "Z_EQ_GT"   # z = N-1, z > w
Z_LT_GT = "Z_LT_GT"   # z < N-1, z > w


class ShapeData(NamedTuple):
    x: int
    y: int
    z: int
    w: int
    case: str


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
    first = len(FORBIDDEN)
    for k in range(3, len(p)):
        pat = _forbidden_ending_at(p[:k], p[k])
        if pat is not None:
            first = min(first, FORBIDDEN.index(pat))
            if first == 0:
                break
    return FORBIDDEN[first] if first < len(FORBIDDEN) else None


def is_avoider(p: Permutation) -> bool:
    return _first_forbidden(tuple(p)) is None


def validate_avoider(p: Permutation) -> Permutation:
    """Return p as a tuple, or raise: FormViolation when p is empty, has
    an entry that is not an integer or is not a permutation of 1..len(p),
    NotAvoider naming the first pattern of FORBIDDEN that p contains."""
    p = int_entries(p)
    if not p:
        raise FormViolation("empty permutation; the shortest has length 1")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise FormViolation(f"not a permutation of 1..{len(p)}: {p!r}")
    pat = _first_forbidden(p)
    if pat is not None:
        raise NotAvoider(pat)
    return p


def gen_avoiders(n: int, guard: int = DEFAULT_GUARD) -> tuple[Permutation, ...]:
    """All avoiders of length n in lexicographic order.

    Depth-first over prefixes, values in increasing order.  Containment
    is closed under extension, so a prefix is dropped as soon as its last
    entry completes a pattern.  The entries that can follow a prefix are
    the unused values from some threshold up (a smaller entry sees more
    entries above it), so once one value passes, the larger ones do too.
    ``guard`` bounds the common index n - 1, as in every family.
    """
    if n < 1:
        raise FormViolation(f"length must be >= 1, got {n}")
    if n - 1 > guard:
        raise GuardExceeded(n - 1, guard)
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


def block_decompose(p: Permutation) -> list[Permutation]:
    """Split at every prefix that is a sub-permutation {1..i} (the
    plus-indecomposable blocks, each reduced to its own values)."""
    blocks = []
    start = 0
    for length in _block_lengths(p):
        blocks.append(tuple(x - start for x in p[start:start + length]))
        start += length
    return blocks


def _block_lengths(p: Permutation) -> list[int]:
    """Lengths of the blocks of :func:`block_decompose`, left to right."""
    lengths = []
    start = 0
    run_max = 0
    for idx, v in enumerate(p, 1):
        if v > run_max:
            run_max = v
        if run_max == idx:
            lengths.append(idx - start)
            start = idx
    return lengths


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


def block_count(p) -> int:
    """Blocks of p, or of any sequence of distinct values (those of its
    reduction): the cut points, positions whose prefix maximum is below
    every later entry (the last position always cuts).  O(len(p))."""
    count = 0
    top = -inf
    for v, low in zip(p, _later_minima(p)):
        if v > top:
            top = v
        if top < low:
            count += 1
    return count


def asc(p: Permutation) -> int:
    return sum(1 for i in range(len(p) - 1) if p[i] < p[i + 1])


def crit(p: Permutation) -> int:
    """Indexes i where every pair j < i < k with pi(j), pi(k) < pi(i)
    appears in increasing order (pi(j) < pi(k)).

    With L(i) the largest value left of i below pi(i), the index i is
    critical iff no later entry is below L(i) (vacuously when there is
    no such value).  Suffix minima and a sorted list of the values seen
    so far give O(n log n) comparisons.

    >>> crit((2, 4, 1, 3))
    3
    """
    seen: list[int] = []
    count = 0
    for v, low in zip(p, _later_minima(p)):
        at = bisect_left(seen, v)
        if at == 0 or seen[at - 1] < low:
            count += 1
        seen.insert(at, v)
    return count


def perm_stats(p: Permutation) -> StatTriple:
    """(block - 1, asc, crit - asc - 1) for a nonempty avoider."""
    a = asc(p)
    return StatTriple(block_count(p) - 1, a, crit(p) - a - 1)


def perm_direct_sum(p1: Permutation, p2: Permutation) -> Permutation:
    return tuple(p1) + tuple(v + len(p1) for v in p2)


# ------------------------------------------------------------------ shape


def shape_analysis(p: Permutation) -> ShapeData:
    """Compute (x, y, z, w, case) for an avoider of length >= 2.

    Each case fixes the value intervals that its surgery in
    :func:`phi_S` relies on; ``test_shape_runs_on_all_avoiders`` states
    them and checks them on every avoider of length 2..8.
    """
    n1 = len(p)  # N = n + 1
    x = p.index(n1) + 1
    z = max(p[: x - 1], default=0)
    y = p.index(z) + 1 if z else 0
    w = min(p[x - 1:])
    if z == n1 - 1:
        case = Z_EQ_LT if z < w else Z_EQ_GT
    else:
        case = Z_LT_LT if z < w else Z_LT_GT
    return ShapeData(x, y, z, w, case)


# -------------------------------------------------------------- bijection


def phi_S(p: Permutation) -> FPath:
    """Map an avoider of length n+1 to its F-path of length n.

    Each iteration removes the maximum with the surgery of the current
    shape case and prepends one step; see :func:`psi_S` for the inverse.
    A trusted core: ``p`` must be an avoider, as a tuple.
    """
    cur = p
    steps: list[tuple[int, int]] = []
    while len(cur) >= 2:
        sh = shape_analysis(cur)
        x = sh.x
        if sh.case == Z_EQ_LT:
            steps.append((0, 1))
            cur = cur[:-1]
        elif sh.case == Z_LT_LT:
            steps.append((1, 2 - block_count(cur[x:])))
            cur = cur[: x - 1] + cur[x:]
        elif sh.case == Z_EQ_GT:
            head = tuple(
                x - 1 if i + 1 == sh.y else cur[i] for i in range(x - 1)
            )
            tail = tuple(v + 1 for v in cur[x:])
            steps.append((1 + block_count(tail), 1))
            cur = head + tail
        else:  # Z_LT_GT
            z = sh.z
            head = tuple(
                x - 1 if i + 1 == sh.y else cur[i] for i in range(x - 1)
            )
            mid = tuple(v + 1 for v in cur[x: z + 1])
            tail = cur[z + 1:]
            steps.append((1 + block_count(mid), 1 - block_count(tail)))
            cur = head + mid + tail
    steps.reverse()
    return tuple(steps)


def psi_S(q: FPath) -> Permutation:
    """Inverse of :func:`phi_S`: grow from (1,) one step at a time.

    For a step (a, b) on a current permutation of length L the new
    maximum L+1 goes to position x, determined by cutting blocks off the
    right: tau = the last (1-b)+1 blocks when b <= 0 drops by renaming,
    omega = the (a-1) blocks before them when a >= 2.  A trusted core:
    ``q`` must be a valid F-path.
    """
    cur: Permutation = (1,)
    for a, b in q:
        L = len(cur)
        if a == 0:
            cur = cur + (L + 1,)
            continue
        lengths = _block_lengths(cur)
        c = len(lengths)
        if a == 1:
            nt = 2 - b
            tlen = sum(lengths[c - nt:])
            x = L - tlen + 1
            cur = cur[: x - 1] + (L + 1,) + cur[x - 1:]
        elif b == 1:
            nw = a - 1
            wlen = sum(lengths[c - nw:])
            x = L - wlen + 1
            y = cur.index(x - 1) + 1
            head = tuple(L if i + 1 == y else cur[i] for i in range(x - 1))
            tail = tuple(v - 1 for v in cur[x - 1:])
            cur = head + (L + 1,) + tail
        else:
            nt = 1 - b
            nw = a - 1
            tlen = sum(lengths[c - nt:])
            wlen = sum(lengths[c - nt - nw: c - nt])
            x = L - tlen - wlen + 1
            z = x - 1 + wlen
            y = cur.index(x - 1) + 1
            head = tuple(z if i + 1 == y else cur[i] for i in range(x - 1))
            mid = tuple(v - 1 for v in cur[x - 1: x - 1 + wlen])
            tail = cur[x - 1 + wlen:]
            cur = head + (L + 1,) + mid + tail
    return cur
