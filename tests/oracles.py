"""Brute-force matchers and the paper's maps, the reference oracles of
the tests.

The library decides membership with linear or quadratic scans
(``pattern_perms.validate_avoider``, ``inversion_seqs.validate_invseq``)
and counts blocks and critical indexes in one pass
(``pattern_perms.perm_stats``); these oracles try every subsequence or
triple instead, so the tests can check the fast code against a
definition that shares no code with it.  :func:`contains_forbidden`,
the order scan that ``pattern_perms`` used before its bit-set
``_scan``, is the reference past the exhaustive range.
:func:`block_count` and :func:`crit` count the two separately, and
:func:`block_count` also reads unreduced sequences, as
:func:`shape_phi_S` needs.
Likewise ``schroder_paths.phi_P`` and ``inversion_seqs.phi_I`` read the
construction record in one pass, while :func:`peel_phi_P` and
:func:`delete_max_phi_I` take the object apart one step at a time, as
the paper defines φ_P and φ_I.  ``pattern_perms.psi_S`` writes the
insertion record of the maximum and ``phi_S`` reads it off the
permutation's max-Cartesian tree; :func:`shape_phi_S` and
:func:`shape_psi_S` rebuild the permutation at every step by the four
shape-case surgeries of :func:`shape_analysis`, and :func:`record_phi_S`
replays the record that :func:`value_record` reads off a list of values
on ψ's block stack.
Every family's ``decompose`` maps the F-path's components back with ψ;
:func:`decompose_I` and :func:`decompose_J` peel the summands off the
sequence itself, by the paper's connectedness tests (maxid = max + 1,
first = 1).
:func:`joint_dp` counts F-paths by their statistics with a transfer over
the steps, for the closed forms ``counting.a_joint`` and
``counting.a_marginal``, and :func:`step_class_dp` by their step
classes, for ``counting.f_refined``.
:data:`READERS` hold the text readers that walk a line one token or
character at a time, the oracle of the one-pass ``parse`` of the
fpath, perm, inv-i, inv-j and tree families.
"""
from bisect import bisect_left, insort
from collections import Counter
from itertools import combinations
from math import inf
from typing import Iterator, NamedTuple

from fpaths.errors import (
    FormViolation,
    NotAvoider,
    ParseError,
    PrefixViolation,
    StepNotInF,
)
from fpaths.inversion_seqs import InvSeq, _leading_zeros, max_and_maxid
from fpaths.pattern_perms import _first_forbidden, _later_minima
from fpaths.weighted_trees import validate_wtree


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


def crit(p) -> int:
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


def contains_forbidden(p) -> bool:
    """True iff the permutation p contains a pattern of FORBIDDEN, in one
    scan with O(n log n) comparisons: the large-n reference of
    ``pattern_perms._scan``.

    The orders 123, 132 and 213 are those whose first entry is below
    their last, so (see ``pattern_perms._first_forbidden``) p contains
    one iff some i < j < k < l have p_l < p_i < p_k and p_l < p_j.  At
    k, take p_l = t, the least entry after k, and r the last index
    before k with p_r > t; the entries between r and k lie below t.  So
    one exists iff a value before k other than p_r lies in (t, p_k).
    ``tops`` holds the prefix's right-to-left maxima, negated, and p_r
    is the last above t.
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


def decompose_I(g: InvSeq) -> list[InvSeq]:
    """Peel connected right summands; inverse of folding :func:`dsum_I`.

    A sequence is connected (a single summand) iff maxid = max + 1.
    Otherwise the last summand starts right after the unique position k
    realizing the height deficit and runs while entries stay >= g_{k+1}.
    """
    parts: list[InvSeq] = []
    cur = g
    while True:
        m, mi = max_and_maxid(cur)
        if mi - m == 1:
            break
        deficit = mi - m - 1
        k = max(i for i in range(1, len(cur) + 1) if i - cur[i - 1] == deficit)
        base = cur[k]
        j = k + 1
        while j < len(cur) and cur[j] >= base:
            j += 1
        f = tuple(v - base for v in cur[k: j])
        parts.append(f)
        cur = cur[:k] + cur[j:]
    parts.append(cur)
    parts.reverse()
    return parts


def decompose_J(g: InvSeq) -> list[InvSeq]:
    """Peel right summands; inverse of folding :func:`dsum_J`.

    Connected means first = 1.  Otherwise the last summand occupies
    positions r..r+m-1 where r = first and m is the smallest positive
    integer with g_{r+m} >= m+1 (no such m: the summand runs to the end).
    """
    parts: list[InvSeq] = []
    cur = g
    while _leading_zeros(cur) > 1:
        r = _leading_zeros(cur)
        n = len(cur)
        m = n - r + 1
        for cand in range(1, n - r + 1):
            if cur[r + cand - 1] >= cand + 1:
                m = cand
                break
        f = cur[r - 1: r - 1 + m]
        rest = tuple(v - m if v > 0 else 0 for v in cur[r - 1 + m:])
        parts.append(f)
        cur = cur[: r - 1] + rest
    parts.append(cur)
    parts.reverse()
    return parts


# ------------------------------------------------- avoiders by shape case
#
# Shape of a permutation p of length N (with the sentinel p(0) = 0):
#
#     x = position of the maximum N
#     z = largest value left of x   (0 if x = 1)
#     y = position of z             (0 if z = 0)
#     w = smallest value at or right of x
#
# Avoiders always have z != w, giving four cases by (z == N-1?) and
# (z > w?); each case removes the maximum by a different value surgery
# and emits one F-step.

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


def block_decompose(p) -> list:
    """Split at every prefix that is a sub-permutation {1..i} (the
    plus-indecomposable blocks, each reduced to its own values)."""
    blocks = []
    start = 0
    for length in _block_lengths(p):
        blocks.append(tuple(x - start for x in p[start:start + length]))
        start += length
    return blocks


def _block_lengths(p) -> list[int]:
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


def shape_analysis(p) -> ShapeData:
    """Compute (x, y, z, w, case) for an avoider of length >= 2.

    Each case fixes the value intervals that its surgery in
    :func:`shape_phi_S` relies on; ``test_shape_runs_on_all_avoiders``
    states them and checks them on every avoider of length 2..8.
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


def shape_phi_S(p) -> tuple:
    """φ_S of an avoider, as a tuple: each iteration removes the maximum
    with the surgery of the current shape case and prepends one step."""
    cur = p
    steps = []
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


def value_record(p) -> list:
    """The (x, w) record of each step of ``pattern_perms.psi_S``, last
    step first, on a value list: each step deletes the maximum, at index
    x; the largest value z left of x is at least x, and when z > x it
    goes back to x and the w = z - x entries after the maximum go up by
    one.  O(n) Python work per step."""
    cur = list(p)
    record = []
    for top in range(len(cur), 1, -1):
        x = cur.index(top)
        z = max(cur[:x], default=0)
        del cur[x]
        if z > x:
            cur[cur.index(z)] = x
            cur[x:z] = [v + 1 for v in cur[x:z]]
        record.append((x, z - x))
    return record


def record_phi_S(p) -> tuple:
    """φ_S of an avoider by replaying its :func:`value_record`, first step
    first, on ψ's block stack: on a permutation of length ``size`` the
    blocks covering the last size - x - w entries are τ, and those
    covering the w before them are ω.  O(n) Python work per step."""
    def take(total):  # pop blocks until their lengths add up to total
        count = 0
        while total > 0:
            total -= blocks.pop()
            count += 1
        return count

    steps = []
    blocks = [1]
    for size, (x, w) in enumerate(reversed(value_record(p)), 1):
        tau = take(size - x - w)
        head = 0
        if w:
            steps.append((take(w) + 1, 1 - tau))
            head = blocks.pop()
        else:
            steps.append((1, 2 - tau) if tau else (0, 1))
        blocks.append(size - x + head + 1)
    return tuple(steps)


def shape_psi_S(q) -> tuple:
    """Inverse of :func:`shape_phi_S`: grow from (1,) one step at a time.

    For a step (a, b) on a current permutation of length L the new
    maximum L+1 goes to position x, determined by cutting blocks off the
    right: tau = the last (1-b)+1 blocks when b <= 0 drops by renaming,
    omega = the (a-1) blocks before them when a >= 2.
    """
    cur = (1,)
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


def joint_dp(max_n: int) -> Iterator[Counter]:
    """The F-paths of each length n = 0..max_n counted by ``(height,
    north, aone)``, one layer per n from a single forward transfer over
    the steps, with no closed form and no enumeration.

    From height h, the north step (0, 1) goes to h + 1 with north + 1.
    Each h' <= h is reached by one step with a = 1 (b = 1 + h' - h),
    which adds 1 to aone, and by the h - h' steps with a >= 2
    (a = 2..h - h' + 1, b = a + h' - h).
    """
    layer = Counter({(0, 0, 0): 1})
    yield layer
    for _ in range(max_n):
        nxt = Counter()
        for (h, l, a1), c in layer.items():
            nxt[h + 1, l + 1, a1] += c
            for g in range(h + 1):
                nxt[g, l, a1 + 1] += c
                if g < h:
                    nxt[g, l, a1] += (h - g) * c
        layer = nxt
        yield layer


def step_class_dp(max_n: int) -> Iterator[Counter]:
    """The F-paths of each length n = 0..max_n counted by ``(height, i,
    j, k, l)``, the step classes of ``counting.f_refined``, one layer per
    n from a single forward transfer over the steps.

    From height h: (0, 1) is class l and goes to h + 1, (1, 1) is class
    i and stays at h.  Each g < h is reached by one step (1, b) with
    b <= 0 (class j) and one (a, 1) with a >= 2 (class k), and by the
    h - g - 1 steps with a >= 2 and b <= 0, which are in no class.
    """
    layer = Counter({(0, 0, 0, 0, 0): 1})
    yield layer
    for _ in range(max_n):
        nxt = Counter()
        for (h, i, j, k, l), c in layer.items():
            nxt[h + 1, i, j, k, l + 1] += c
            nxt[h, i + 1, j, k, l] += c
            for g in range(h):
                nxt[g, i, j + 1, k, l] += c
                nxt[g, i, j, k + 1, l] += c
                if g < h - 1:
                    nxt[g, i, j, k, l] += (h - g - 1) * c
        layer = nxt
        yield layer


# ------------------------------------------------------------ text readers
#
# The readers ``FAMILIES[tag].parse`` replaced, kept as the oracle of the
# differential fuzz: each walks the text one token or character at a
# time and then checks the object on its own, the F-path with a copy of
# the one-loop step check and an inversion sequence with a copy of the
# prefix-scan class.


def _read_step_check(steps) -> tuple:
    path = []
    height = 0
    for pos, (a, b) in enumerate(steps):
        if b > 1 or a < 1 and (a, b) != (0, 1):
            raise StepNotInF((a, b), pos)
        height += b - a
        if height < 0:
            raise PrefixViolation(pos + 1)
        path.append((a, b))
    return tuple(path)


def read_fpath(text: str) -> tuple:
    text = text.strip()
    if text == "-":
        return ()
    steps = []
    for at, token in enumerate(text.split()):
        parts = token.split(",")
        try:
            a, b = parts
            steps.append((int(a), int(b)))
        except ValueError:
            why = ("non-integer step" if len(parts) == 2
                   else "expected 'a,b', got")
            pos = len(text) - len(text.split(None, at)[-1])
            raise ParseError(pos, f"{why} {token!r}") from None
    return _read_step_check(steps)


def read_perm(text: str) -> tuple:
    text = text.strip()
    try:
        vals = tuple(map(int, text.split()))
    except ValueError:
        raise ParseError(0, f"non-integer entry in {text!r}") from None
    if not vals:
        raise ParseError(0, "empty permutation; the smallest has length 1")
    if sorted(vals) != list(range(1, len(vals) + 1)):
        raise ParseError(0, f"not a permutation of 1..{len(vals)}: {text!r}")
    pattern = _first_forbidden(vals)
    if pattern:
        raise NotAvoider(pattern)
    return vals


class _PrefixScan:
    """Open values form a strictly increasing stack; a value is closed
    once a smaller entry follows it.  101 iff x is closed, 102 iff x is
    above the least closed value, 021 iff 0 < x < the maximum so far."""

    def __init__(self):
        self.open, self.closed, self.min_closed, self.top = [], set(), inf, 0

    def completes(self, x, family):
        if x in self.closed:
            return (1, 0, 1)
        if family == "I":
            return (1, 0, 2) if x > self.min_closed else None
        return (0, 2, 1) if 0 < x < self.top else None

    def push(self, x):
        while self.open and self.open[-1] > x:
            v = self.open.pop()
            self.closed.add(v)
            self.min_closed = min(self.min_closed, v)
        if not self.open or self.open[-1] != x:
            self.open.append(x)
        self.top = max(self.top, x)


def read_invseq(text: str, family: str) -> tuple:
    text = text.strip()
    try:
        e = tuple(map(int, text.split(",")))
    except ValueError:
        raise ParseError(0, f"non-integer entry in {text!r}") from None
    for i, v in enumerate(e, 1):
        if not 0 <= v <= i - 1:
            raise FormViolation(f"entry {v} at position {i} outside 0..{i - 1}")
    scan = _PrefixScan()
    found = None
    for x in e:
        pattern = scan.completes(x, family)
        if pattern == (1, 0, 1):
            raise NotAvoider(pattern)
        found = found or pattern
        scan.push(x)
    if found:
        raise NotAvoider(found)
    return e


def read_wtree(text: str) -> tuple:
    s = text.strip()
    if not s or s[0] != "[":
        raise ParseError(0, "expected '['")
    pos = 1
    weights = [None]
    degrees = [0]
    open_ = [0]
    while True:
        while pos < len(s) and s[pos] == " ":
            pos += 1
        close = "]" if len(open_) == 1 else ")"
        if pos >= len(s):
            raise ParseError(pos, f"missing {close!r}")
        if s[pos] == close:
            pos += 1
            if len(open_) == 1:
                break
            if not degrees[open_.pop()]:
                raise ParseError(pos, "weighted vertex needs children")
            continue
        if s[pos] == "L":
            pos += 1
            weight = None
        elif s[pos] != "(":
            raise ParseError(pos, f"expected 'L' or '(', got {s[pos]!r}")
        else:
            pos += 1
            while pos < len(s) and s[pos] == " ":
                pos += 1
            start = pos
            while pos < len(s) and s[pos] in "-0123456789":
                pos += 1
            if start == pos:
                raise ParseError(pos, "expected a weight")
            try:
                weight = int(s[start:pos])
            except ValueError:
                raise ParseError(start, f"bad weight {s[start:pos]!r}") from None
        degrees[open_[-1]] += 1
        if weight is not None:
            open_.append(len(weights))
        weights.append(weight)
        degrees.append(0)
    while pos < len(s) and s[pos] == " ":
        pos += 1
    if pos != len(s):
        raise ParseError(pos, "trailing characters")
    return validate_wtree(tuple(zip(weights, degrees)))


#: The oracle reader of each family whose ``parse`` reads in one pass.
READERS = {
    "fpath": read_fpath,
    "perm": read_perm,
    "inv-i": lambda text: read_invseq(text, "I"),
    "inv-j": lambda text: read_invseq(text, "J"),
    "tree": read_wtree,
}
