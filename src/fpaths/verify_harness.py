"""Cross-verification harness: every claim the package makes, checked.

Checks are grouped into five entry points, each returning a list of
:class:`CheckRecord`; :func:`run_all` bundles them into a
:class:`VerifyReport`.  All checks are exhaustive over the stated sizes
(no sampling) and deterministic; the first failing object is reported in
its text form.

For each size n, :func:`size_data` computes every value once: it
generates each family, runs the trusted core ``phi`` once per generated
object and ``psi`` once per generated path, and adds the psi values to
a path -> object table that :func:`run_all` keeps for sizes <= n.  The
four groups read this :class:`SizeData` and call neither ``phi`` nor
``psi``: a round trip is a lookup of the stored psi of a stored image,
``stats_core`` runs once per object and ``fpath_stats`` once per path,
and the direct-sum check looks every component up in the table.  The
exception is the two ``decompose`` records: the family's ``decompose``
runs ``phi`` again, and ``psi`` on the components of a path of positive
height, on one member per path.  Only the
pinned constants go through the validating ``from_fpath``.

Each record but the pinned ones belongs to one tag: the family it
checks, or ``"fpath"`` for the records about F-paths alone.  A
:class:`SizeData` covers some tags, and a group leaves None in the place
of each record of a tag it does not cover.  :func:`run_all` generates
the F-paths of every size first.  From ``max_n`` = :data:`_SPLIT_FROM_N`
on, in a process of one thread where ``os.fork`` exists, it then forks
once: the child runs the checks of :data:`_CHILD_TAGS` and sends their
records back over a pipe, while the parent runs the pinned examples and
the checks of every other tag, and puts the child's records into its own
Nones in order.

    verify_equinumerous(n, data)   |family_n| == a_total(n) for all
                                   families
    verify_round_trips(n, data)    psi(phi(o)) == o, and psi(q) is a
                                   generated object with phi(psi(q)) == q
    verify_statistics(n, data)     stats(o) == stats(phi(o)); the joint
                                   distribution matches a_joint; the
                                   step involution behaves as stated
    verify_direct_sums(n, data)    psi respects the direct-sum
                                   decomposition
    verify_pinned_examples()       frozen worked examples, bit for bit
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

#: The families whose checks a forked child runs; the parent runs the
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
    """What the four groups read at one size n.

    The groups make the records of the tags in ``tags`` only.
    ``objects[tag]`` is ``FAMILIES[tag].generate(n)`` for ``"fpath"``
    and every tag in ``tags``.  For every mapped tag in ``tags``,
    ``images[tag]`` holds phi of each of ``objects[tag]``, index-aligned,
    and ``preimages[tag]`` maps each generated path of the sizes built so
    far, n included, to its psi.
    """

    tags: tuple
    objects: dict
    images: dict
    preimages: dict


def size_data(n: int, preimages: dict, tags: tuple = TAGS,
              paths: tuple | None = None) -> SizeData:
    """Generate every family of ``tags`` at size n, run phi once per
    object and psi once per path, and add the size-n paths to
    ``preimages``, a dict per mapped tag of ``tags`` that the caller
    keeps across sizes.  ``paths`` is the F-paths of size n when the
    caller has generated them.

    An image that equals a generated path is stored as that path, and a
    psi value that equals a member as that member, so the stored values
    take no memory of their own.
    """
    if paths is None:
        paths = FAMILIES["fpath"].generate(n)
    mapped = [tag for tag in _MAPPED_TAGS if tag in tags]
    objects = {"fpath": paths}
    objects.update((tag, FAMILIES[tag].generate(n)) for tag in mapped)
    same_path = {q: q for q in paths}
    images = {}
    for tag in mapped:
        fam = FAMILIES[tag]
        same_member = {o: o for o in objects[tag]}
        images[tag] = tuple(
            same_path.get(q, q) for q in map(fam.phi, objects[tag]))
        preimages[tag].update(
            (q, same_member.get(o, o))
            for q, o in zip(paths, map(fam.psi, paths)))
    return SizeData(tuple(tags), objects, images, preimages)


def _record(name: str, n: int, bad, render) -> CheckRecord:
    """PASS when ``bad`` is None, else FAIL naming ``render(bad)``."""
    return CheckRecord(name, n, bad is None,
                       "" if bad is None else render(bad))


def _covered(data: SizeData, tags, out: list, per_tag: int = 1):
    """Yield each of ``tags`` that ``data`` covers, in order.  For each
    other tag, append ``per_tag`` Nones to ``out`` in the place of its
    records, which the process covering that tag makes."""
    for tag in tags:
        if tag in data.tags:
            yield tag
        else:
            out += [None] * per_tag


def verify_equinumerous(n: int, data: SizeData) -> list[CheckRecord]:
    expected = a_total(n)
    out = []
    for tag in _covered(data, TAGS, out):
        got = len(data.objects[tag])
        out.append(
            CheckRecord(
                f"equinumerous[{tag}]",
                n,
                got == expected,
                "" if got == expected else f"{got} != {expected}",
            )
        )
    return out


def verify_round_trips(n: int, data: SizeData) -> list[CheckRecord]:
    out = []
    paths = data.objects["fpath"]
    render_path = FAMILIES["fpath"].render
    for tag in _covered(data, _MAPPED_TAGS, out, 2):
        objects, images = data.objects[tag], data.images[tag]
        psi_of = data.preimages[tag]
        # psi(phi(o)) is the stored psi of o's image, a generated path.
        bad = next((o for o, q in zip(objects, images) if psi_of.get(q) != o),
                   None)
        out.append(_record(f"round-trip[{tag}] psi(phi(o)) == o", n, bad,
                           FAMILIES[tag].render))
        # psi(q) must be a member whose stored image is q.
        phi_of = dict(zip(objects, images))
        bad = next((q for q in paths if phi_of.get(psi_of[q]) != q), None)
        out.append(_record(f"round-trip[{tag}] phi(psi(q)) == q", n, bad,
                           render_path))
    return out


def verify_statistics(n: int, data: SizeData) -> list[CheckRecord]:
    out = []
    paths = data.objects["fpath"]
    # Paths share few distinct statistics; store each once.
    same = {}
    fstats = {q: same.setdefault(st, st)
              for q, st in zip(paths, map(fpath_stats, paths))}
    fdist = Counter(st for st, _ in fstats.values())
    for tag in _covered(data, _MAPPED_TAGS, out, 2):
        fam = FAMILIES[tag]
        dist = Counter()
        bad = None
        for o, q in zip(data.objects[tag], data.images[tag]):
            st = fam.stats_core(o)
            dist[st] += 1
            if bad is None and (q not in fstats or fstats[q][0] != st):
                bad = o
        out.append(_record(f"statistics[{tag}] stats(o) == stats(phi(o))",
                           n, bad, fam.render))
        out.append(
            CheckRecord(
                f"statistics[{tag}] joint distribution",
                n,
                dist == fdist,
                "" if dist == fdist else f"first diff {_dist_diff(dist, fdist)}",
            )
        )
    if "fpath" not in data.tags:
        return out + [None, None]
    diff = next(
        (
            f"(h,l,a1)=({h},{l},{a1}): {got} != {want}"
            for h, l, a1 in product(range(n + 1), repeat=3)
            if (want := a_joint(n, h=a1, l=l, m=h))
            != (got := fdist.get(StatTriple(h, l, a1), 0))
        ),
        None,
    )
    out.append(_record("statistics a_joint closed form", n, diff, str))

    def involution_holds(q):
        r = involution_phi_F(q)
        if r not in fstats or involution_phi_F(r) != q:
            return False
        (h1, l1, a1), bone1 = fstats[q]
        (h2, l2, a2), bone2 = fstats[r]
        return ((h2, l2) == (h1, l1) and a2 == bone1 - l1
                and bone2 == a1 + l1 and h1 <= l1 <= bone1)

    bad = next((q for q in paths if not involution_holds(q)), None)
    out.append(_record("involution relations", n, bad,
                       FAMILIES["fpath"].render))
    return out


def _dist_diff(d1: Counter, d2: Counter) -> str:
    keys = sorted(set(d1) | set(d2))
    for key in keys:
        if d1.get(key, 0) != d2.get(key, 0):
            return f"{tuple(key)}: {d1.get(key, 0)} != {d2.get(key, 0)}"
    return "?"


#: The two families with a ``decompose`` record, and the peeler it names.
_PEELERS = {"inv-i": "decompose_I", "inv-j": "decompose_J"}


def verify_direct_sums(n: int, data: SizeData) -> list[CheckRecord]:
    render_path = FAMILIES["fpath"].render
    decomps = [(q, fpath_decompose(q)) for q in data.objects["fpath"]]
    out = [None]
    if "fpath" in data.tags:
        bad = next((q for q, comps in decomps
                    if reduce(fpath_direct_sum, comps) != q), None)
        out[0] = _record("direct-sum[fpath] recompose", n, bad, render_path)
    # Each component is a generated path of size <= n, so its psi is
    # stored; a missing one fails the record.
    for tag in _covered(data, _MAPPED_TAGS, out):
        dsum, psi_of = FAMILIES[tag].direct_sum, data.preimages[tag]
        bad = None
        for q, comps in decomps:
            parts = [psi_of.get(c) for c in comps]
            if None in parts or reduce(dsum, parts) != psi_of[q]:
                bad = q
                break
        out.append(_record(f"direct-sum[{tag}] psi is a homomorphism", n,
                           bad, render_path))
    # The record names are pinned output; they name the connectedness
    # peelers that the tests keep as these two families' oracles.
    for tag in _covered(data, _PEELERS, out):
        peeler = _PEELERS[tag]
        decompose, psi_of = FAMILIES[tag].decompose, data.preimages[tag]
        bad = next(
            (q for q, comps in decomps
             if decompose(psi_of[q]) != [psi_of.get(c) for c in comps]),
            None,
        )
        out.append(_record(f"direct-sum[{tag}] {peeler} inverts the fold",
                           n, bad, render_path))
    return out


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

    Each size's :class:`SizeData` is built once and read by all four
    groups; the psi table it extends lives until this call returns.
    ``max_n`` is checked by :func:`common_index` before any size is
    built.  From ``max_n`` = :data:`_SPLIT_FROM_N` on, in a process of
    one thread where ``os.fork`` exists, a forked child runs half the
    families' checks (:func:`_split`); the report is the same either way.
    """
    max_n = common_index(max_n)
    paths = [FAMILIES["fpath"].generate(n) for n in range(max_n + 1)]
    if _forks(max_n):
        return VerifyReport(_split(paths))
    return VerifyReport(verify_pinned_examples() + _size_checks(TAGS, paths))


def _forks(max_n: int) -> bool:
    """Whether :func:`run_all` splits: from ``max_n`` =
    :data:`_SPLIT_FROM_N` on, where ``os.fork`` exists, in a process of
    one thread.  A forked child has only the calling thread, and a lock
    that another thread held at the fork would stay held in it."""
    if max_n < _SPLIT_FROM_N or not hasattr(os, "fork"):
        return False
    import threading  # here, so that ``import fpaths`` does not load it

    return threading.active_count() == 1


def _size_checks(tags: tuple, paths: list) -> list:
    """The records of the sizes n < ``len(paths)`` in order: made for
    the checks of ``tags``, None in the place of every other check's.
    ``paths[n]`` is the F-paths of size n."""
    preimages = {tag: {} for tag in _MAPPED_TAGS if tag in tags}
    out = []
    for n, paths_n in enumerate(paths):
        data = size_data(n, preimages, tags, paths_n)
        for group in (verify_equinumerous, verify_round_trips,
                      verify_statistics, verify_direct_sums):
            out += group(n, data)
        # Free this size's objects before the next, larger size is built.
        del data
    return out


def _split(paths: list) -> list[CheckRecord]:
    """Every record of :func:`run_all`, the checks of :data:`_CHILD_TAGS`
    run in a forked child.

    The parent always reaps the child: when its own half raises, it
    kills the child first.  An exception in the child is raised here
    again, with its type, message and attributes.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _child(write_fd, paths)
    os.close(write_fd)
    mine = tuple(tag for tag in TAGS if tag not in _CHILD_TAGS)
    try:
        with open(read_fd, "rb") as pipe:
            records = verify_pinned_examples()
            placed = _size_checks(mine, paths)
            sent = pipe.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not sent:
        raise RuntimeError("the verify child ended without sending records")
    ok, payload = marshal.loads(sent)
    if not ok:
        import pickle

        raise pickle.loads(payload)
    theirs = iter(payload)
    return records + [CheckRecord(*next(theirs)) if r is None else r
                      for r in placed]


def _child(write_fd: int, paths: list):
    """The forked child of :func:`_split`: run the checks of
    :data:`_CHILD_TAGS` and write ``(True, records)`` as plain tuples,
    or ``(False, pickled exception)``, with ``marshal`` to ``write_fd``.

    It never returns: it leaves through ``os._exit``, so it runs no
    cleanup of the parent's and flushes no inherited stdio.
    """
    try:
        try:
            result = (True, [(r.name, r.n, r.ok, r.detail)
                             for r in _size_checks(_CHILD_TAGS, paths)
                             if r is not None])
        except BaseException as exc:
            result = (False, _pickled(exc))
        with open(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(result))
    finally:
        os._exit(0)


def _pickled(exc: BaseException) -> bytes:
    """``exc`` pickled; one that does not come back from ``pickle`` is
    sent as a RuntimeError naming it."""
    import pickle

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return data
