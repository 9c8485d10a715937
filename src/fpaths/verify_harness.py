"""Cross-verification harness: every claim the package makes, checked.

:func:`run_all` runs every check and bundles the records, each a
:class:`CheckRecord`, into a :class:`VerifyReport`.  All checks are
exhaustive over the stated sizes (no sampling) and deterministic; the
first failing object is reported in its text form.

The unit of work is one tag: a family, or ``"fpath"`` for the records
about F-paths alone.  :func:`tag_records` makes a tag's records for
every size n.  It generates a mapped family once per n, runs the trusted
core ``phi`` once per member and ``psi`` once per path, and keeps the
psi of each path in a table of its own, since the direct-sum components
of a path are paths of smaller sizes.  The groups below read these
values and call neither ``phi`` nor ``psi``, except the two
``decompose`` records: the family's ``decompose`` runs ``phi`` again,
and ``psi`` on the components of a path of positive height, on one
member per path.  What every tag reads at size n, the F-paths, their
statistics and decompositions, is a :class:`SizeData` that each process
builds once per size.  Only the pinned constants go through the
validating ``from_fpath``.

Each group returns one tag's records at one n as (slot, record) pairs.
A record is keyed (n, slot, TAGS index), and the report is the pinned
examples followed by every tag's records sorted by key.  Within
one n the slots are: 0 ``equinumerous`` of every tag, 1 the round
trips, 2 the statistics of the mapped tags, 3 the F-path ``a_joint``
and involution records, 4 the F-path recompose record, 5 the
homomorphism records and 6 the ``decompose`` records.  From ``max_n`` =
:data:`_SPLIT_FROM_N` on, in a process of one thread where ``os.fork``
exists, the tags are split between two processes: a forked child runs
:data:`_CHILD_TAGS` and sends its records back over a pipe as plain
tuples, while the parent runs the pinned examples and the other tags.
The fork is only a speed-up: when the child does not hand its records
back whole, the parent makes them itself, so every error is raised in
the calling process, as it is without the fork.

    verify_equinumerous    |family_n| == a_total(n) for all families
    verify_round_trips     psi(phi(o)) == o, and psi(q) is a generated
                           object with phi(psi(q)) == q
    verify_statistics      stats(o) == stats(phi(o)); the joint
                           distribution matches a_joint; the step
                           involution behaves as stated
    verify_direct_sums     psi respects the direct-sum decomposition
    verify_pinned_examples frozen worked examples, bit for bit
"""
from __future__ import annotations

import json
import marshal
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import product

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
#: other tags', ``"fpath"``'s included.  The two halves take about the
#: same time.
_CHILD_TAGS = ("bicolored", "inv-i", "inv-j")

#: The least ``max_n`` at which :func:`run_all` forks.  Measured
#: in-process, median of 3 x 41 runs, the split costs time at max_n 3
#: (6.6 -> 7.9 ms), saves a sixth at 4 (21 -> 17 ms) and a third at 5
#: (79 -> 51 ms).  Runs up to 4 stay in one process, so that a caller
#: who wraps the cores, as the tests do, sees every call.
_SPLIT_FROM_N = 5


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
    """What the checks of every tag read at one size n.

    ``paths`` is the F-paths of size n and ``same_path`` maps each to
    itself, so that an equal value can be stored as the generated path.
    ``fstats`` maps each path to its ``fpath_stats``, each distinct value
    stored once, and ``fdist`` counts the paths of each triple.
    ``decomps`` holds each path's ``fpath_decompose``, index-aligned.
    """

    paths: tuple
    same_path: dict
    fstats: dict
    fdist: Counter
    decomps: tuple


def size_data(n: int) -> SizeData:
    """Generate the F-paths of size n and compute, once per path, the
    values that every tag's checks read."""
    paths = FAMILIES["fpath"].generate(n)
    # Paths share few distinct statistics; store each once.
    same = {}
    fstats = {q: same.setdefault(st, st)
              for q, st in zip(paths, map(fpath_stats, paths))}
    return SizeData(paths, {q: q for q in paths}, fstats,
                    Counter(st for st, _ in fstats.values()),
                    tuple(map(fpath_decompose, paths)))


def _record(name: str, n: int, bad, render) -> CheckRecord:
    """PASS when ``bad`` is None, else FAIL naming ``render(bad)``."""
    return CheckRecord(name, n, bad is None,
                       "" if bad is None else render(bad))


def verify_equinumerous(n: int, tag: str, members) -> list:
    expected, got = a_total(n), len(members)
    diff = None if got == expected else f"{got} != {expected}"
    return [(0, _record(f"equinumerous[{tag}]", n, diff, str))]


def verify_round_trips(n: int, tag: str, data: SizeData, members, images,
                       psi_of: dict) -> list:
    # psi(phi(o)) is the stored psi of o's image, a generated path.
    bad = next((o for o, q in zip(members, images) if psi_of.get(q) != o),
               None)
    out = [(1, _record(f"round-trip[{tag}] psi(phi(o)) == o", n, bad,
                       FAMILIES[tag].render))]
    # psi(q) must be a member whose stored image is q.
    phi_of = dict(zip(members, images))
    bad = next((q for q in data.paths if phi_of.get(psi_of[q]) != q), None)
    out.append((1, _record(f"round-trip[{tag}] phi(psi(q)) == q", n, bad,
                           FAMILIES["fpath"].render)))
    return out


def verify_statistics(n: int, tag: str, data: SizeData, members=(),
                      images=()) -> list:
    fstats, fdist = data.fstats, data.fdist
    if tag != "fpath":
        fam = FAMILIES[tag]
        dist = Counter()
        bad = None
        for o, q in zip(members, images):
            st = fam.stats_core(o)
            dist[st] += 1
            if bad is None and (q not in fstats or fstats[q][0] != st):
                bad = o
        diff = None if dist == fdist else _dist_diff(dist, fdist)
        return [(2, _record(f"statistics[{tag}] stats(o) == stats(phi(o))",
                            n, bad, fam.render)),
                (2, _record(f"statistics[{tag}] joint distribution", n, diff,
                            "first diff {}".format))]
    diff = next(
        (
            f"(h,l,a1)=({h},{l},{a1}): {got} != {want}"
            for h, l, a1 in product(range(n + 1), repeat=3)
            if (want := a_joint(n, h=a1, l=l, m=h))
            != (got := fdist.get(StatTriple(h, l, a1), 0))
        ),
        None,
    )

    def involution_holds(q):
        r = involution_phi_F(q)
        if r not in fstats or involution_phi_F(r) != q:
            return False
        (h1, l1, a1), bone1 = fstats[q]
        (h2, l2, a2), bone2 = fstats[r]
        return ((h2, l2) == (h1, l1) and a2 == bone1 - l1
                and bone2 == a1 + l1 and h1 <= l1 <= bone1)

    bad = next((q for q in data.paths if not involution_holds(q)), None)
    return [(3, _record("statistics a_joint closed form", n, diff, str)),
            (3, _record("involution relations", n, bad,
                        FAMILIES["fpath"].render))]


def _dist_diff(d1: Counter, d2: Counter) -> str:
    """The least triple whose counts differ, with both counts."""
    key = next((k for k in sorted(set(d1) | set(d2)) if d1[k] != d2[k]), None)
    return "?" if key is None else f"{tuple(key)}: {d1[key]} != {d2[key]}"


#: The two families with a ``decompose`` record, and the peeler it names.
_PEELERS = {"inv-i": "decompose_I", "inv-j": "decompose_J"}


def verify_direct_sums(n: int, tag: str, data: SizeData,
                       psi_of=None) -> list:
    render_path = FAMILIES["fpath"].render
    if tag == "fpath":
        bad = next((q for q, comps in zip(data.paths, data.decomps)
                    if reduce(fpath_direct_sum, comps) != q), None)
        return [(4, _record("direct-sum[fpath] recompose", n, bad,
                            render_path))]
    # Each component is a generated path of size <= n, so its psi is
    # stored; a missing one fails the record.
    dsum = FAMILIES[tag].direct_sum
    bad = next((q for q, comps in zip(data.paths, data.decomps)
                if None in (parts := [psi_of.get(c) for c in comps])
                or reduce(dsum, parts) != psi_of[q]), None)
    out = [(5, _record(f"direct-sum[{tag}] psi is a homomorphism", n, bad,
                       render_path))]
    # The record names are pinned output; they name the connectedness
    # peelers that the tests keep as these two families' oracles.
    if tag in _PEELERS:
        decompose = FAMILIES[tag].decompose
        bad = next(
            (q for q, comps in zip(data.paths, data.decomps)
             if decompose(psi_of[q]) != [psi_of.get(c) for c in comps]),
            None,
        )
        out.append((6, _record(
            f"direct-sum[{tag}] {_PEELERS[tag]} inverts the fold", n, bad,
            render_path)))
    return out


def tag_records(tag: str, sizes: list) -> list[tuple]:
    """Every record of ``tag`` at the sizes n < ``len(sizes)``, as flat
    tuples ``(n, slot, TAGS index, name, ok, detail)``; ``sizes[n]`` is
    the :class:`SizeData` of size n.

    A mapped family is generated once per n; ``phi`` runs once per
    member and ``psi`` once per path.  The psi of every path built so far
    stays in a table local to this call: the direct-sum components of a
    path are paths of smaller sizes, and their psi is looked up there.
    """
    t = TAGS.index(tag)
    fam = FAMILIES[tag]
    psi_of = {}
    rows = []
    for n, data in enumerate(sizes):
        if tag == "fpath":
            keyed = (verify_equinumerous(n, tag, data.paths)
                     + verify_statistics(n, tag, data)
                     + verify_direct_sums(n, tag, data))
        else:
            # An image that equals a generated path is stored as that
            # path, and a psi value that equals a member as that member,
            # so the stored values take no memory of their own.
            members = fam.generate(n)
            same_member = {o: o for o in members}
            images = tuple(data.same_path.get(q, q)
                           for q in map(fam.phi, members))
            paths = data.paths
            psi_of.update((q, same_member.get(o, o))
                          for q, o in zip(paths, map(fam.psi, paths)))
            keyed = (verify_equinumerous(n, tag, members)
                     + verify_round_trips(n, tag, data, members, images,
                                          psi_of)
                     + verify_statistics(n, tag, data, members, images)
                     + verify_direct_sums(n, tag, data, psi_of))
        rows += [(n, slot, t, r.name, r.ok, r.detail) for slot, r in keyed]
    return rows


def verify_pinned_examples() -> list[CheckRecord]:
    out = []

    def rec(name, ok, detail=""):
        out.append(CheckRecord(name, -1, ok, detail))

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

    ``max_n`` is checked by :func:`common_index` before any size is
    built.  Each tag's records come from one :func:`tag_records` call;
    the report is the pinned examples, then every tag's records sorted
    by their key (n, slot, TAGS index).  From ``max_n`` =
    :data:`_SPLIT_FROM_N` on, in a process of one thread where
    ``os.fork`` exists, a forked child makes the records of
    :data:`_CHILD_TAGS` (:func:`_split`); the report is the same either
    way.
    """
    max_n = common_index(max_n)
    if _forks(max_n):
        pinned, rows = _split(max_n)
    else:
        pinned, rows = verify_pinned_examples(), _rows(TAGS, max_n)
    # The sort is stable, and rows of one key come from one call in order.
    rows.sort(key=lambda row: row[:3])
    return VerifyReport(pinned + [CheckRecord(name, n, ok, detail)
                                  for n, _, _, name, ok, detail in rows])


def _forks(max_n: int) -> bool:
    """Whether :func:`run_all` splits: from ``max_n`` =
    :data:`_SPLIT_FROM_N` on, where ``os.fork`` exists, in a process of
    one thread.  A forked child has only the calling thread, and a lock
    that another thread held at the fork would stay held in it."""
    if max_n < _SPLIT_FROM_N or not hasattr(os, "fork"):
        return False
    import threading  # here, so that ``import fpaths`` does not load it

    return threading.active_count() == 1


def _rows(tags: tuple, max_n: int) -> list[tuple]:
    """The :func:`tag_records` rows of each of ``tags``, on one
    :class:`SizeData` per size built in this process."""
    sizes = [size_data(n) for n in range(max_n + 1)]
    return [row for tag in tags for row in tag_records(tag, sizes)]


def _split(max_n: int) -> tuple[list[CheckRecord], list[tuple]]:
    """The pinned records and every tag's rows, the rows of
    :data:`_CHILD_TAGS` made in a forked child when it can.

    The fork is only a speed-up.  The child's rows are taken when it
    exits with status 0, which it does only after writing them whole;
    otherwise, when ``os.fork`` fails, and when the status is lost
    because the caller ignores SIGCHLD, this process makes them itself,
    so an error in a check is raised here, where it happens.
    The parent always reaps the child: when its own half raises, it
    kills the child first.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return verify_pinned_examples(), _rows(TAGS, max_n)
    if pid == 0:
        os.close(read_fd)
        _child(write_fd, max_n)
    os.close(write_fd)
    mine = tuple(tag for tag in TAGS if tag not in _CHILD_TAGS)
    try:
        with open(read_fd, "rb") as pipe:
            pinned = verify_pinned_examples()
            rows = _rows(mine, max_n)
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
        return pinned, rows + marshal.loads(sent)
    return pinned, rows + _rows(_CHILD_TAGS, max_n)


def _child(write_fd: int, max_n: int):
    """The forked child of :func:`_split`: write the rows of
    :data:`_CHILD_TAGS` with ``marshal`` to ``write_fd``.

    It never returns: it leaves through ``os._exit``, so it runs no
    cleanup of the parent's and flushes no inherited stdio; with status
    0 once the rows are written whole, else with status 1.
    """
    status = 1
    try:
        sent = marshal.dumps(_rows(_CHILD_TAGS, max_n))
        with open(write_fd, "wb") as pipe:
            pipe.write(sent)
        status = 0
    finally:
        os._exit(status)
