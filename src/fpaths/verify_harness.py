"""Cross-verification harness: every claim the package makes, checked.

:func:`run_all` runs every check and bundles the records, each a
:class:`CheckRecord`, into a :class:`VerifyReport`.  All checks are
exhaustive over the stated sizes (no sampling) and deterministic; the
first failing object is reported in its text form.

The unit of work is one tag: a mapped family, or the hub ``"fpath"``
for the records about F-paths alone.  :func:`tag_records` makes a tag's
records for every size n: the hub's from :func:`verify_hub` and
:func:`verify_pinned_examples`, a mapped family's from the four groups
below.  It generates a mapped family once per n and runs the trusted
core ``phi`` once per member and ``psi`` once per path.  The groups
read these values and call neither ``phi`` nor ``psi``, except the two
records of the shared ``decompose`` method: it runs ``phi`` again, and
``psi`` on the components of a path of positive height, on one member
per path.  What every tag reads at size n, the F-paths, their
statistics and decompositions, is a :class:`SizeData` that
:func:`run_all` builds once per size, before any fork.  Only the
pinned constants go through the validating ``from_fpath``.

A path is named by its *global index*, its place among the distinct
F-paths of all sizes in canonical order.  The index of
:class:`SizeData` is the one dict keyed by a path, so a path is hashed
once to find its number, and every other table is a list read by
index: the statistics, each path's components as global indexes, and,
per tag, the phi images and the psi of every path built so far, since
the direct-sum components of a path are paths of smaller sizes.

Every check returns rows ``(slot, name, ok, detail)``; :func:`tag_records`
keys each by (n, slot, TAGS index), the pinned examples, which are rows
of the hub's pass, by (-1, 0, 0), and :func:`run_all` makes the report,
every row sorted by key.  Within one n the slots are: 0 ``equinumerous``
of every tag, 1 the round trips, 2 the statistics of the mapped tags, 3
the F-path ``a_joint`` and involution records, 4 the F-path recompose
record, 5 the homomorphism records and 6 the ``decompose`` records.
From ``max_n`` = :data:`_SPLIT_FROM_N` on, :func:`_split` may run some
tags in a forked child; where ``os.pipe`` or ``os.fork`` fails, or the
child hands no rows back, this process makes them, and the report is the
same either way.

    verify_equinumerous    |family_n| == a_total(n) for every tag
    verify_round_trips     psi(phi(o)) == o, and psi(q) is a generated
                           object with phi(psi(q)) == q
    verify_statistics      stats(o) == stats(phi(o)), jointly too
    verify_direct_sums     psi respects the direct-sum decomposition
    verify_hub             the F-paths' joint distribution matches
                           a_joint, the step involution behaves as
                           stated, each path recomposes from its parts
    verify_pinned_examples frozen worked examples, bit for bit
"""
from __future__ import annotations

import json
import marshal
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import count, product

from .counting import a_joint, a_total
from .families import FAMILIES, TAGS
from .fpath_core import (
    StatTriple,
    common_index,
    fpath_decompose,
    fpath_direct_sum,
    fpath_stats,
    involution_phi_F,
)

#: Every tag but the hub's: the families that map to and from F-paths.
_MAPPED_TAGS = tuple(tag for tag in TAGS if tag != "fpath")

#: The tags whose records a forked child makes; the parent makes the
#: other tags', ``"fpath"``'s included.  :func:`tag_records` at max-n 8,
#: in s, medians of 3 fresh processes on a shared 2-core host: fpath
#: 0.114, schroder 0.248, perm 0.800, tree 0.253 (the parent's; their
#: sum 1.45); bicolored 0.371, inv-i 0.553, inv-j 0.529 (the child's;
#: 1.46).  The :func:`size_data` both read, built before the fork: 0.271.
_CHILD_TAGS = ("bicolored", "inv-i", "inv-j")

#: The least ``max_n`` at which :func:`run_all` forks: the least at
#: which the fork measured a win.  Below it, the default ``verify
#: --max-n 6`` included, every check runs in one process, and a caller
#: who wraps the cores, as the tests do, sees every call.  The split
#: gains only when the second core is free.  ``run_all(k)`` timed in
#: fresh processes on a shared 2-core host, import excluded, the split
#: (this constant set to k) against one process (set to k + 1); medians
#: of alternating pairs, and in how many pairs the split won:
#:
#:     k = 5   0.053 s against 0.050 s    2 of 11
#:     k = 6   0.215 s against 0.211 s    4 of 11
#:     k = 7   0.679 s against 1.229 s    7 of 7
#:     k = 8   2.42 s against 4.29 s      5 of 5
_SPLIT_FROM_N = 7


@dataclass
class CheckRecord:
    name: str
    n: int
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        where = f"n={self.n:<2d} " if self.n >= 0 else ""
        tail = f"  [{self.detail}]" if self.detail and not self.ok else ""
        return f"{mark}  {where}{self.name}{tail}"


@dataclass
class VerifyReport:
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def to_text(self) -> str:
        lines = [r.line() for r in self.records]
        lines.append(
            f"{self.passed} passed, {self.failed} failed, "
            f"{len(self.records)} total"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "passed": self.passed,
                "failed": self.failed,
                "records": [asdict(r) for r in self.records],
            },
            indent=2,
        )


# ------------------------------------------------------------ pinned data

#: (0,1)^6 (3,-1) (0,1)^3 (1,1) (2,1) (0,1)^2 (1,-1) - height 4.
PINNED_Q = (
    (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
    (3, -1),
    (0, 1), (0, 1), (0, 1),
    (1, 1), (2, 1),
    (0, 1), (0, 1),
    (1, -1),
)

#: Text-form images of PINNED_Q under each family's psi.
PINNED_IMAGES = {
    "schroder": "hhuhuhhddhhuudhduhudd",
    "bicolored": "uuuuuuurrbbbuuuububbuuurrburrrrr",
    "perm": "1 2 5 8 3 4 6 7 9 16 12 13 11 10 14 15",
    "inv-i": "0,0,0,0,0,3,3,3,3,4,6,7,6,6,0,0",
    "inv-j": "0,0,0,0,0,1,0,0,4,4,5,9,9,9,0,0",
    "tree": "[(1 L L (2 (1 L) L)) L (3 L L L L L) L L]",
}

#: Height-0 components of PINNED_Q (direct-sum decomposition).
PINNED_COMPONENTS = (
    (),
    (),
    ((0, 1), (0, 1), (0, 1), (0, 1), (3, -1)),
    (),
    ((0, 1), (1, 1), (2, 1), (0, 1), (0, 1), (1, -1)),
)

#: The six F-paths of length 2 and their images, index-aligned.
SIX_FPATHS = (
    ((0, 1), (1, 0)),
    ((0, 1), (2, 1)),
    ((1, 1), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (0, 1)),
    ((0, 1), (0, 1)),
)
SIX_IMAGES = {
    "schroder": ("uudd", "uhd", "udud", "hud", "udh", "hh"),
    "bicolored": ("uurbur", "uubbur", "ububur", "uuburr", "ubuurr", "uuurrr"),
    "perm": ("3 1 2", "2 3 1", "3 2 1", "1 3 2", "2 1 3", "1 2 3"),
    "inv-i": ("0,1,0", "0,0,2", "0,1,2", "0,0,1", "0,1,1", "0,0,0"),
    "inv-j": ("0,1,0", "0,1,1", "0,1,2", "0,0,1", "0,0,2", "0,0,0"),
    "tree": ("[(1 L L)]", "[(2 L L)]", "[(1 (1 L))]",
             "[(1 L) L]", "[L (1 L)]", "[L L L]"),
}

#: sequence of a_total(0..8); the last two values pin the formula tail.
SEQUENCE = (1, 2, 6, 21, 80, 322, 1347, 5798, 25512)


# ----------------------------------------------------------------- checks


@dataclass(frozen=True)
class SizeData:
    """What every tag's checks read at size n; :func:`run_all` builds it.

    ``index`` numbers the distinct paths the generator yielded, in
    canonical order, from ``offset`` on, ``offset`` being the number of
    distinct paths of the sizes below n: a path's number is its *global
    index* among the paths of every size.  ``index`` is the one table
    keyed by a path; every other table is a sequence read by index.
    ``generated`` counts the paths yielded, repeats included.
    ``stats[i]`` is the ``fpath_stats`` of the path numbered
    ``offset + i``, each distinct value stored once, and ``fdist``
    counts the paths of each triple.  ``comps[i]`` holds the global
    indexes of that path's ``fpath_decompose`` components, None for a
    component that is not a generated path, and ``unsummed`` is the
    first path that its components do not fold back to, or None.
    """

    generated: int
    offset: int
    index: dict
    stats: tuple
    fdist: Counter
    comps: tuple
    unsummed: tuple | None


def size_data(n: int, smaller: list) -> SizeData:
    """Generate the F-paths of size n and compute, once per path, the
    values that every tag's checks read.  ``smaller`` holds the
    :class:`SizeData` of the sizes 0..n-1, whose indexes number the
    components."""
    offset = sum(len(d.index) for d in smaller)
    generated = FAMILIES["fpath"].generate(n)
    index = dict(zip(dict.fromkeys(generated), count(offset)))
    # Paths share few distinct statistics; store each once.
    same = {}
    stats = tuple(same.setdefault(st, st) for st in map(fpath_stats, index))
    # A component is a path of size <= n, numbered in its own size's index.
    tables = [d.index for d in smaller] + [index]
    comps, unsummed = [], None
    for q in index:
        parts = fpath_decompose(q)
        comps.append(tuple(tables[len(c)].get(c) for c in parts))
        if unsummed is None and reduce(fpath_direct_sum, parts) != q:
            unsummed = q
    return SizeData(len(generated), offset, index, stats,
                    Counter(st for st, _ in stats), tuple(comps), unsummed)


def _row(slot: int, name: str, bad, render) -> tuple:
    """PASS when ``bad`` is None, else FAIL naming ``render(bad)``."""
    return slot, name, bad is None, "" if bad is None else render(bad)


def verify_equinumerous(n: int, tag: str, got: int) -> list:
    expected = a_total(n)
    diff = None if got == expected else f"{got} != {expected}"
    return [_row(0, f"equinumerous[{tag}]", diff, str)]


def verify_round_trips(tag: str, data: SizeData, members, images,
                       psi_vals: list, places: list) -> list:
    # psi(phi(o)) is the stored psi of o's image, a generated path.
    bad = next((o for o, g in zip(members, images)
                if g is None or psi_vals[g] != o), None)
    out = [_row(1, f"round-trip[{tag}] psi(phi(o)) == o", bad,
                FAMILIES[tag].render)]
    # psi(q) must be a member whose image is q.
    bad = next((q for (q, g), k in zip(data.index.items(), places)
                if k is None or images[k] != g), None)
    out.append(_row(1, f"round-trip[{tag}] phi(psi(q)) == q", bad,
                    FAMILIES["fpath"].render))
    return out


def verify_statistics(tag: str, data: SizeData, members, images) -> list:
    fam, stats, offset = FAMILIES[tag], data.stats, data.offset
    triples = list(map(fam.stats_core, members))
    bad = next((o for o, g, st in zip(members, images, triples)
                if g is None or stats[g - offset][0] != st), None)
    dist, fdist = Counter(triples), data.fdist
    diff = None if dist == fdist else _dist_diff(dist, fdist)
    return [_row(2, f"statistics[{tag}] stats(o) == stats(phi(o))", bad,
                 fam.render),
            _row(2, f"statistics[{tag}] joint distribution", diff,
                 "first diff {}".format)]


def _dist_diff(d1: Counter, d2: Counter) -> str:
    """The least triple whose counts differ, with both counts."""
    key = next(k for k in sorted(set(d1) | set(d2)) if d1[k] != d2[k])
    return f"{tuple(key)}: {d1[key]} != {d2[key]}"


#: The two families with a ``decompose`` record, and the peeler it names.
_PEELERS = {"inv-i": "decompose_I", "inv-j": "decompose_J"}


def verify_direct_sums(tag: str, data: SizeData, psi_vals: list) -> list:
    render_path = FAMILIES["fpath"].render
    # A component that is not a generated path, or whose psi is None,
    # fails the record.
    dsum, psi_at = FAMILIES[tag].direct_sum, psi_vals.__getitem__
    bad = next((q for (q, g), comps in zip(data.index.items(), data.comps)
                if None in comps
                or None in (parts := list(map(psi_at, comps)))
                or reduce(dsum, parts) != psi_vals[g]), None)
    out = [_row(5, f"direct-sum[{tag}] psi is a homomorphism", bad,
                render_path)]
    # The record names are pinned output; they name the connectedness
    # peelers that the tests keep as these two families' oracles.
    if tag in _PEELERS:
        decompose = FAMILIES[tag].decompose
        bad = next(
            (q for (q, g), comps in zip(data.index.items(), data.comps)
             if None in comps
             or decompose(psi_vals[g]) != list(map(psi_at, comps))),
            None,
        )
        out.append(_row(
            6, f"direct-sum[{tag}] {_PEELERS[tag]} inverts the fold", bad,
            render_path))
    return out


def verify_hub(n: int, data: SizeData) -> list:
    """The hub's records at size n, read off ``data`` alone."""
    index, stats, offset = data.index, data.stats, data.offset
    render_path = FAMILIES["fpath"].render
    diff = next((f"(h,l,a1)=({h},{l},{a1}): {got} != {want}"
                 for h, l, a1 in product(range(n + 1), repeat=3)
                 if (want := a_joint(n, h=a1, l=l, m=h))
                 != (got := data.fdist.get(StatTriple(h, l, a1), 0))), None)

    def involution_holds(q, st):
        r = involution_phi_F(q)
        j = index.get(r)
        if j is None or involution_phi_F(r) != q:
            return False
        (h1, l1, a1), bone1 = st
        (h2, l2, a2), bone2 = stats[j - offset]
        return ((h2, l2) == (h1, l1) and a2 == bone1 - l1
                and bone2 == a1 + l1 and h1 <= l1 <= bone1)

    bad = next((q for q, st in zip(index, stats)
                if not involution_holds(q, st)), None)
    return verify_equinumerous(n, "fpath", data.generated) + [
        _row(3, "statistics a_joint closed form", diff, str),
        _row(3, "involution relations", bad, render_path),
        _row(4, "direct-sum[fpath] recompose", data.unsummed, render_path),
    ]


def tag_records(tag: str, sizes: list) -> list[tuple]:
    """Every record of ``tag`` at the sizes n < ``len(sizes)``, as flat
    tuples ``(n, slot, TAGS index, name, ok, detail)``; ``sizes[n]`` is
    the :class:`SizeData` of size n.

    The hub, ``"fpath"``, has its records from :func:`verify_hub`, and
    the rows of :func:`verify_pinned_examples` keyed (-1, 0, 0).  A
    mapped family is generated once per n; ``phi`` runs once per member
    and ``psi`` once per path.  The tables are local to this call and
    read by index: ``images[k]`` is the global index of the k-th
    member's image, None where it is not a generated path of size n;
    ``places[i]`` is the place among the members of psi of the i-th
    path of size n, None where it is none of them; and ``psi_vals[g]``
    is psi of the path with global index g, for every size so far, since
    the direct-sum components of a path are paths of smaller sizes.
    """
    t = TAGS.index(tag)
    fam = FAMILIES[tag]
    psi_vals = []
    groups = {-1: verify_pinned_examples()} if tag == "fpath" else {}
    for n, data in enumerate(sizes):
        if tag == "fpath":
            groups[n] = verify_hub(n, data)
        else:
            members = fam.generate(n)
            images = list(map(data.index.get, map(fam.phi, members)))
            # A psi value that equals a member is stored as that member,
            # so a fresh copy is let go as soon as it is placed.
            place, places = dict(zip(members, count())).get, []
            for o in map(fam.psi, data.index):
                places.append(k := place(o))
                psi_vals.append(o if k is None else members[k])
            groups[n] = (
                verify_equinumerous(n, tag, len(members))
                + verify_round_trips(tag, data, members, images, psi_vals,
                                     places)
                + verify_statistics(tag, data, members, images)
                + verify_direct_sums(tag, data, psi_vals))
    return [(n, slot, t, name, ok, detail)
            for n, rows in groups.items()
            for slot, name, ok, detail in rows]


def verify_pinned_examples() -> list:
    """The frozen worked examples, as rows of slot 0."""
    out = []

    def rec(name, ok, detail=""):
        out.append((0, name, ok, detail))

    seq_ok = tuple(a_total(i) for i in range(9)) == SEQUENCE
    rec("pinned sequence a(0..8)", seq_ok)

    for tag in _MAPPED_TAGS:
        fam = FAMILIES[tag]
        got = fam.render(fam.from_fpath(PINNED_Q))
        want = PINNED_IMAGES[tag]
        rec(f"pinned psi[{tag}] of the 15-step path", got == want,
            "" if got == want else got)
        back = fam.phi(fam.parse(want))
        rec(f"pinned phi[{tag}] inverts it", back == PINNED_Q)

    comps = fpath_decompose(PINNED_Q)
    rec("pinned decomposition R_1..R_5",
        tuple(comps) == PINNED_COMPONENTS,
        "" if tuple(comps) == PINNED_COMPONENTS else repr(comps))

    for tag in _MAPPED_TAGS:
        fam = FAMILIES[tag]
        for idx, (q, want) in enumerate(zip(SIX_FPATHS, SIX_IMAGES[tag]), 1):
            got = fam.render(fam.from_fpath(q))
            rec(f"pinned table[{tag}] object {idx}", got == want,
                "" if got == want else got)

    st, bone = fpath_stats(PINNED_Q)
    rec("pinned stats of the 15-step path",
        st == StatTriple(4, 11, 2) and bone == 13,
        f"{tuple(st)}, bone={bone}")
    return out


# ------------------------------------------------------------- front door


def run_all(max_n: int = 6) -> VerifyReport:
    """Run every check for 0 <= n <= max_n (pinned examples once).

    ``max_n`` is checked by :func:`common_index`, then every size's
    :class:`SizeData` is built once, before any fork.  Each tag's
    records come from one :func:`tag_records` call, in this process or,
    from ``max_n`` = :data:`_SPLIT_FROM_N` on, in a forked child
    (:func:`_split`); the report is every row sorted by its key (n,
    slot, TAGS index), the same either way.
    """
    max_n = common_index(max_n)
    sizes = []
    for n in range(max_n + 1):
        sizes.append(size_data(n, sizes))
    rows = _split(sizes) or _rows(TAGS, sizes)
    # The sort is stable, and rows of one key come from one call in order.
    rows.sort(key=lambda row: row[:3])
    return VerifyReport([CheckRecord(name, n, ok, detail)
                         for n, _, _, name, ok, detail in rows])


def _rows(tags: tuple, sizes: list) -> list[tuple]:
    """The :func:`tag_records` rows of each of ``tags``, on the
    :class:`SizeData` list that :func:`run_all` built once."""
    return [row for tag in tags for row in tag_records(tag, sizes)]


def _split(sizes: list) -> list[tuple] | None:
    """Every tag's rows, the rows of :data:`_CHILD_TAGS` made in a forked
    child, or None where :func:`run_all` does not split: where the
    largest n, ``len(sizes) - 1``, is below :data:`_SPLIT_FROM_N`, where
    ``os.fork`` is missing, where ``os.pipe`` or ``os.fork`` fails, and
    while another thread runs, since a forked child has only the calling
    thread, and a lock that another thread held at the fork would stay
    held in it.

    The fork is only a speed-up.  The child runs on this process's copy
    of ``sizes`` and sends its rows back over a pipe as ``marshal``
    tuples.  It leaves through ``os._exit``, so it runs no cleanup of
    this process's and flushes no inherited stdio: with status 0 once
    it has written its rows whole, else with status 1.  The rows are
    taken on status 0 only; otherwise, and when the status is lost
    because the caller ignores SIGCHLD, this process makes them itself,
    so an error in a check is raised here, where it happens.  This
    process always reaps the child: when its own half raises, it kills
    the child first.
    """
    if len(sizes) - 1 < _SPLIT_FROM_N or not hasattr(os, "fork"):
        return None
    import threading  # only a split needs it; not every Python preloads it

    if threading.active_count() != 1:
        return None
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    read_fd, write_fd = fds
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            sent = marshal.dumps(_rows(_CHILD_TAGS, sizes))
            with open(write_fd, "wb") as pipe:
                pipe.write(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    mine = tuple(tag for tag in TAGS if tag not in _CHILD_TAGS)
    try:
        with open(read_fd, "rb") as pipe:
            rows = _rows(mine, sizes)
            sent = pipe.read()
    except BaseException:
        import signal

        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # reaped already: SIGCHLD is ignored
            pass
        raise
    finally:
        try:
            _, status = os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already: SIGCHLD is ignored
            status = None
    if status == 0:
        return rows + marshal.loads(sent)
    return rows + _rows(_CHILD_TAGS, sizes)
