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

from .errors import FormViolation, NotAvoider, int_text
from .fpath_core import FPath, StatTriple, fpath_height, int_entries

InvSeq = tuple[int, ...]

FAMILY_I = "I"  # avoids 101, 102
FAMILY_J = "J"  # avoids 101, 021

P101, P102, P021 = (1, 0, 1), (1, 0, 2), (0, 2, 1)
_PATTERNS = {FAMILY_I: (P101, P102), FAMILY_J: (P101, P021)}


def _scan(e, family: str, at: int = 0, opened: int = 0, closed: int = 0,
          top: int = 0):
    """Read the entries e after a prefix of length ``at``, checking the
    inversion bound (a FormViolation at once) and the patterns in one loop.

    A value is *open* until a strictly smaller entry comes after it, then
    *closed*.  ``opened`` and ``closed`` are the prefix's bit sets of open
    and closed values, and ``top`` its largest entry.  A next entry x
    completes 101 iff x is closed, 102 iff x > some closed value, and 021
    iff 0 < x < top.  Returns ``(pattern, opened, closed, top)`` after e:
    pattern is P101 if some entry completes it, else the family's other
    pattern if some entry completes that, else None.
    """
    is_i = family == FAMILY_I
    other = _PATTERNS[family][1]
    found = None
    for i, x in enumerate(e, at):
        if not 0 <= x <= i:
            raise FormViolation(
                f"entry {int_text(x)} at position {i + 1} outside 0..{i}")
        bit = 1 << x
        if closed & bit:
            found = P101
        elif not found and (closed & (bit - 1) if is_i else 0 < x < top):
            found = other
        if opened >> x > 1:  # open values above x close
            above = opened & -(bit << 1)
            closed |= above
            opened ^= above
        opened |= bit
        if x > top:
            top = x
    return found, opened, closed, top


def _check_invseq(e: InvSeq, family: str) -> InvSeq:
    """:func:`validate_invseq` for a tuple of ints, as parsed text is."""
    if not e:
        raise FormViolation("empty sequence; the shortest has length 1")
    found = _scan(e, family)[0]
    if found:
        raise NotAvoider(found)
    return e


def validate_invseq(entries, family: str) -> InvSeq:
    """Check integer entries (:func:`int_entries`), then in one scan,
    :func:`_scan`, length >= 1, the inversion bound and ``family``
    avoidance.  A bound violation anywhere beats any pattern, and
    NotAvoider names the first pattern of the family that e contains."""
    if not isinstance(family, str) or family not in _PATTERNS:
        raise FormViolation(f"unknown inversion-sequence family {family!r}")
    return _check_invseq(int_entries(entries), family)


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


def phi_J(e: InvSeq) -> FPath:
    """Read the run form 0^{i_0} k_1^{j_1} 0^{i_1} ... k_r^{j_r} 0^{i_r},
    whose positive run values increase: value k with j copies and i
    zeros after it becomes step number n-k+1 = (j, 1-i); absent values
    give (0, 1).  A trusted core: ``e`` must be a nonempty J-avoider."""
    n = len(e) - 1
    steps = [(0, 1)] * n
    v = j = zeros = 0
    for x in (*e, -1):  # -1 closes the last run
        if x == 0:
            zeros += 1
        elif x == v:
            j += 1
        else:
            if v:
                steps[n - v] = (j, 1 - zeros)
            v, j, zeros = x, 1, 0
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

    Depth-first over prefixes, carrying each prefix's :func:`_scan`
    state; a next value is kept when its scan completes no pattern.  A
    trusted core: n must be an integer >= 1, checked by
    ``FAMILIES["inv-i"/"inv-j"].generate``.
    """
    out: list[InvSeq] = []
    prefix: list[int] = []

    def rec(opened: int, closed: int, top: int) -> None:
        at = len(prefix)
        if at == n:
            out.append(tuple(prefix))
            return
        for v in range(at + 1):
            found, o, c, t = _scan((v,), family, at, opened, closed, top)
            if not found:
                prefix.append(v)
                rec(o, c, t)
                prefix.pop()

    rec(0, 0, 0)
    return tuple(out)
