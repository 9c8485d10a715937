"""Two pattern-avoiding inversion-sequence families tied to F-paths.

An inversion sequence of length L is an integer tuple with
0 <= e_i <= i - 1 (1-based i).  Patterns are matched as *words*: a
subsequence matches pattern w if its letter-for-letter order type (with
equalities) is w.  The two families here:

    family "I"   avoids 101 and 102
    family "J"   avoids 101 and 021

Sequences of length n+1 map to F-paths of length n, so every sequence
here has length >= 1: the empty one is rejected and never generated.

Statistics (both families use omi; ranges are over [L-1], L = len):

    omi    values in 1..L-1 missing from e
    cons   indexes i in [L-1] with e contains both ... (family I)
    single values occurring exactly once (family J)

    family I:  (maxid - max - 1,  omi,  cons)  =  (height, north, aone)
    family J:  (first - 1,        omi,  single) = (height, north, aone)

where maxid is the *rightmost* position holding the maximum, and first
is the number of leading zeros.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import pairwise
from math import inf

from .errors import FormViolation, NotAvoider
from .fpath_core import FPath, StatTriple, fpath_height, int_entries

InvSeq = tuple[int, ...]

FAMILY_I = "I"  # avoids 101, 102
FAMILY_J = "J"  # avoids 101, 021

P101, P102, P021 = (1, 0, 1), (1, 0, 2), (0, 2, 1)
_PATTERNS = {FAMILY_I: (P101, P102), FAMILY_J: (P101, P021)}


class _Scan:
    """Left-to-right scan state of an inversion-sequence prefix.

    A value is *open* while no strictly smaller entry has come after it,
    and *closed* from then on.  The open values form a strictly increasing
    stack.  For a next entry x (the prefix starts with e_1 = 0):

        101  iff  x is closed
        102  iff  x > the smallest closed value
        021  iff  0 < x < the running maximum

    Each entry costs O(1) amortised.
    """

    __slots__ = ("open", "closed", "min_closed", "top")

    def __init__(self):
        self.open: list[int] = []
        self.closed: set[int] = set()
        self.min_closed = inf
        self.top = 0

    def completes(self, x: int, family: str):
        """The first pattern of the family that x completes, or None."""
        if x in self.closed:
            return P101
        if family == FAMILY_I:
            return P102 if x > self.min_closed else None
        return P021 if 0 < x < self.top else None

    def push(self, x: int) -> None:
        stack = self.open
        while stack and stack[-1] > x:
            v = stack.pop()
            self.closed.add(v)
            self.min_closed = min(self.min_closed, v)
        if not stack or stack[-1] != x:
            stack.append(x)
        self.top = max(self.top, x)

    def copy(self) -> "_Scan":
        new = _Scan()
        new.open = self.open.copy()
        new.closed = self.closed.copy()
        new.min_closed = self.min_closed
        new.top = self.top
        return new


def validate_invseq(entries, family: str) -> InvSeq:
    """Check integer entries, length >= 1, the inversion bound and
    ``family`` avoidance.

    NotAvoider names the first pattern of the family that e contains.
    One linear scan.
    """
    e = int_entries(entries)
    if not e:
        raise FormViolation("empty sequence; the shortest has length 1")
    for i, v in enumerate(e, 1):
        if not 0 <= v <= i - 1:
            raise FormViolation(f"entry {v} at position {i} outside 0..{i - 1}")
    scan = _Scan()
    found = None
    for x in e:
        pat = scan.completes(x, family)
        if pat == P101:
            raise NotAvoider(pat)
        found = found or pat
        scan.push(x)
    if found:
        raise NotAvoider(found)
    return e


def max_and_maxid(e: InvSeq) -> tuple[int, int]:
    """(max value, rightmost 1-based position of the max)."""
    m = max(e)
    return m, len(e) - e[::-1].index(m)


def _omi(e: InvSeq) -> int:
    present = set(e)
    return sum(1 for v in range(1, len(e)) if v not in present)


# ---------------------------------------------------------------- family I


def stats_I(e: InvSeq) -> StatTriple:
    """(maxid - max - 1, omi, cons) for a nonempty I-avoider.

    cons counts i in [L-1] with i-1 and i both present as entries --
    equivalently positions where the running staircase continues.
    """
    m, mi = max_and_maxid(e)
    present = set(e)
    cons = sum(1 for v in range(1, len(e)) if v in present and v - 1 in present)
    return StatTriple(mi - m - 1, _omi(e), cons)


def phi_I(e: InvSeq) -> FPath:
    """Read the insertion record of e, the steps of :func:`psi_I`.
    A trusted core: ``e`` must be a nonempty I-avoider.

    Deleting rightmost maxima removes the entries by value, then by
    position, from the top; each is deleted at position 1 + the number
    of earlier entries <= it.  Sorted, these (value, position) records,
    made in one pass with :func:`bisect_right`, are the (max, maxid)
    after each step, and the steps are their differences.
    """
    seen: list[int] = []
    record = []
    for v in e:
        i = bisect_right(seen, v)
        seen.insert(i, v)
        record.append((v, i + 1))
    record.sort()
    return tuple((m - m0, p - p0) for (m0, p0), (m, p) in pairwise(record))


def psi_I(q: FPath) -> InvSeq:
    """Inverse of :func:`phi_I`: insert a fresh maximum per step.
    A trusted core: ``q`` must be a valid F-path.

    The insertion record is (max, maxid) after each step, from (0, 1):
    step (a, b) adds a to the max and b to its rightmost position, and
    inserts the new max there.
    """
    cur = [0]
    m, mi = 0, 1
    for a, b in q:
        m += a
        mi += b
        cur.insert(mi - 1, m)
    return tuple(cur)


def dsum_I(e: InvSeq, f: InvSeq) -> InvSeq:
    """Splice f (shifted by max(e)) right after e's rightmost maximum."""
    m, mi = max_and_maxid(e)
    shifted = tuple(v + m for v in f)
    return e[:mi] + shifted + e[mi:]


# ---------------------------------------------------------------- family J


def _leading_zeros(e: InvSeq) -> int:
    n = 0
    for v in e:
        if v != 0:
            break
        n += 1
    return n


def stats_J(e: InvSeq) -> StatTriple:
    """(first - 1, omi, single) for a nonempty J-avoider."""
    first = _leading_zeros(e)
    counts: dict[int, int] = {}
    for v in e:
        if v > 0:
            counts[v] = counts.get(v, 0) + 1
    single = sum(1 for c in counts.values() if c == 1)
    return StatTriple(first - 1, _omi(e), single)


def _parse_run_form(e: InvSeq) -> tuple[int, list[tuple[int, int, int]]]:
    """Split a J-avoider e as 0^{i_0} k_1^{j_1} 0^{...} ... (its positive
    run values increase); returns (i_0, [(value, j, zeros_after), ...])."""
    i0 = _leading_zeros(e)
    runs: list[tuple[int, int, int]] = []
    pos = i0
    while pos < len(e):
        v = e[pos]
        j = 0
        while pos < len(e) and e[pos] == v:
            j += 1
            pos += 1
        zeros = 0
        while pos < len(e) and e[pos] == 0:
            zeros += 1
            pos += 1
        runs.append((v, j, zeros))
    return i0, runs


def phi_J(e: InvSeq) -> FPath:
    """Read the run form: value k with j copies and i zeros after it
    becomes step number n-k+1 = (j, 1-i); absent values give (0, 1).
    A trusted core: ``e`` must be a nonempty J-avoider."""
    n = len(e) - 1
    i0, runs = _parse_run_form(e)
    steps = [(0, 1)] * n
    for value, j, zeros in runs:
        steps[n - value] = (j, 1 - zeros)
    return tuple(steps)


def psi_J(q: FPath) -> InvSeq:
    """Inverse of :func:`phi_J`.  A trusted core: ``q`` must be a valid
    F-path."""
    n = len(q)
    out = [0] * (fpath_height(q) + 1)
    for k in range(1, n + 1):
        a, b = q[n - k]
        out.extend([k] * a)
        out.extend([0] * (1 - b))
    return tuple(out)


def dsum_J(e: InvSeq, f: InvSeq) -> InvSeq:
    """Insert f after e's leading zeros, shifting e's positive tail."""
    first = _leading_zeros(e)
    m = len(f)
    tail = tuple(v + m if v > 0 else 0 for v in e[first:])
    return e[:first] + tuple(f) + tail


# -------------------------------------------------------------- generation


def gen_invseq(n: int, family: str) -> tuple[InvSeq, ...]:
    """All avoiders of length n for the family, lexicographic order.

    Depth-first over prefixes, carrying each prefix's :class:`_Scan`
    state.  A trusted core: n must be an integer >= 1, checked by
    ``FAMILIES["inv-i"/"inv-j"].generate``.
    """
    out: list[InvSeq] = []

    def rec(prefix: list[int], scan: _Scan) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(0, len(prefix) + 1):
            if scan.completes(v, family):
                continue
            child = scan.copy()
            child.push(v)
            prefix.append(v)
            rec(prefix, child)
            prefix.pop()

    rec([], _Scan())
    return tuple(out)
