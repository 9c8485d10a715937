"""Cross-verification harness: every claim the package makes, checked.

Checks are grouped into five entry points, each returning a list of
:class:`CheckRecord`; :func:`run_all` bundles them into a
:class:`VerifyReport`.  All checks are exhaustive over the stated sizes
(no sampling) and deterministic; the first failing object is reported in
its text form.  The four groups at size n take ``objects``, a dict from
every tag of ``TAGS`` to ``FAMILIES[tag].generate(n)``, so that each
family is generated once per n however many groups check it.  They run
the trusted cores ``phi`` / ``psi`` on these generated objects and
paths; only the pinned constants go through the validating
``from_fpath``.

    verify_equinumerous(n, objects)   |family_n| == a_total(n) for all
                                      families
    verify_round_trips(n, objects)    psi(phi(o)) == o, and psi(q) is a
                                      generated object with phi(psi(q)) == q
    verify_statistics(n, objects)     stats(o) == stats(phi(o)); the joint
                                      distribution matches a_joint; the
                                      step involution behaves as stated
    verify_direct_sums(n, objects)    psi respects the direct-sum
                                      decomposition
    verify_pinned_examples()          frozen worked examples, bit for bit
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce

from . import inversion_seqs
from .counting import a_joint, a_total
from .families import FAMILIES, TAGS
from .fpath_core import (
    StatTriple,
    fpath_decompose,
    fpath_direct_sum,
    fpath_stats,
    involution_phi_F,
)

#: Every tag but the hub's: the families that map to and from F-paths.
_MAPPED_TAGS = tuple(tag for tag in TAGS if tag != "fpath")


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
                "records": [
                    {
                        "name": r.name,
                        "n": r.n,
                        "ok": r.ok,
                        "detail": r.detail,
                    }
                    for r in self.records
                ],
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


def verify_equinumerous(n: int, objects: dict) -> list[CheckRecord]:
    expected = a_total(n)
    out = []
    for tag in TAGS:
        got = len(objects[tag])
        out.append(
            CheckRecord(
                f"equinumerous[{tag}]",
                n,
                got == expected,
                "" if got == expected else f"{got} != {expected}",
            )
        )
    return out


def verify_round_trips(n: int, objects: dict) -> list[CheckRecord]:
    out = []
    paths = objects["fpath"]
    render_path = FAMILIES["fpath"].render
    for tag in _MAPPED_TAGS:
        fam = FAMILIES[tag]
        bad = next(
            (o for o in objects[tag] if fam.psi(fam.phi(o)) != o),
            None,
        )
        out.append(
            CheckRecord(
                f"round-trip[{tag}] psi(phi(o)) == o",
                n,
                bad is None,
                "" if bad is None else fam.render(bad),
            )
        )
        # phi may only see members, so psi(q) must be one first.
        members = set(objects[tag])
        bad = next(
            (q for q in paths
             if (o := fam.psi(q)) not in members or fam.phi(o) != q),
            None,
        )
        out.append(
            CheckRecord(
                f"round-trip[{tag}] phi(psi(q)) == q",
                n,
                bad is None,
                "" if bad is None else render_path(bad),
            )
        )
    return out


def verify_statistics(n: int, objects: dict) -> list[CheckRecord]:
    out = []
    paths = objects["fpath"]
    fdist = Counter(fpath_stats(q)[0] for q in paths)
    for tag in _MAPPED_TAGS:
        fam = FAMILIES[tag]
        bad = next(
            (
                o
                for o in objects[tag]
                if fam.stats(o) != fpath_stats(fam.phi(o))[0]
            ),
            None,
        )
        out.append(
            CheckRecord(
                f"statistics[{tag}] stats(o) == stats(phi(o))",
                n,
                bad is None,
                "" if bad is None else fam.render(bad),
            )
        )
        dist = Counter(fam.stats(o) for o in objects[tag])
        out.append(
            CheckRecord(
                f"statistics[{tag}] joint distribution",
                n,
                dist == fdist,
                "" if dist == fdist else f"first diff {_dist_diff(dist, fdist)}",
            )
        )
    joint_ok = True
    joint_detail = ""
    for h in range(n + 1):
        for l in range(n + 1):
            for a1 in range(n + 1):
                want = a_joint(n, h=a1, l=l, m=h)
                got = fdist.get(StatTriple(h, l, a1), 0)
                if want != got:
                    joint_ok = False
                    joint_detail = f"(h,l,a1)=({h},{l},{a1}): {got} != {want}"
                    break
            if not joint_ok:
                break
        if not joint_ok:
            break
    out.append(CheckRecord("statistics a_joint closed form", n, joint_ok,
                           joint_detail))
    inv_ok = True
    inv_detail = ""
    for q in paths:
        r = involution_phi_F(q)
        (h1, l1, a1), bone1 = fpath_stats(q)
        (h2, l2, a2), bone2 = fpath_stats(r)
        good = (
            involution_phi_F(r) == q
            and (h2, l2) == (h1, l1)
            and a2 == bone1 - l1
            and bone2 == a1 + l1
            and h1 <= l1 <= bone1
        )
        if not good:
            inv_ok = False
            inv_detail = FAMILIES["fpath"].render(q)
            break
    out.append(CheckRecord("involution relations", n, inv_ok, inv_detail))
    return out


def _dist_diff(d1: Counter, d2: Counter) -> str:
    keys = sorted(set(d1) | set(d2))
    for key in keys:
        if d1.get(key, 0) != d2.get(key, 0):
            return f"{tuple(key)}: {d1.get(key, 0)} != {d2.get(key, 0)}"
    return "?"


def verify_direct_sums(n: int, objects: dict) -> list[CheckRecord]:
    out = []
    render_path = FAMILIES["fpath"].render
    decomps = [(q, fpath_decompose(q)) for q in objects["fpath"]]
    recomb_bad = next(
        (q for q, comps in decomps if reduce(fpath_direct_sum, comps) != q),
        None,
    )
    out.append(
        CheckRecord(
            "direct-sum[fpath] recompose",
            n,
            recomb_bad is None,
            "" if recomb_bad is None else render_path(recomb_bad),
        )
    )
    for tag in _MAPPED_TAGS:
        fam = FAMILIES[tag]
        bad = None
        for q, comps in decomps:
            want = fam.psi(q)
            got = reduce(fam.direct_sum, [fam.psi(c) for c in comps])
            if got != want:
                bad = q
                break
        out.append(
            CheckRecord(
                f"direct-sum[{tag}] psi is a homomorphism",
                n,
                bad is None,
                "" if bad is None else render_path(bad),
            )
        )
    for tag, decompose in (("inv-i", "decompose_I"), ("inv-j", "decompose_J")):
        fam = FAMILIES[tag]
        func = getattr(inversion_seqs, decompose)
        bad = None
        for q, comps in decomps:
            want = [fam.psi(c) for c in comps]
            if func(fam.psi(q)) != want:
                bad = q
                break
        out.append(
            CheckRecord(
                f"direct-sum[{tag}] {decompose} inverts the fold",
                n,
                bad is None,
                "" if bad is None else render_path(bad),
            )
        )
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

    Each family is generated once per n, through ``FAMILIES``, and the
    four groups share those tuples.
    """
    report = VerifyReport(verify_pinned_examples())
    for n in range(max_n + 1):
        objects = {tag: FAMILIES[tag].generate(n) for tag in TAGS}
        for group in (verify_equinumerous, verify_round_trips,
                      verify_statistics, verify_direct_sums):
            report.records.extend(group(n, objects))
        # Free this size's objects before the next, larger size is built.
        del objects
    return report
