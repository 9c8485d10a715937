"""The harness itself: reporting shapes, one generation per size and
one phi per object, one psi per path, the FAIL lines of planted faults,
and the split of the checks between the process and one forked child."""
import dataclasses
import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from fpaths import verify_harness
from fpaths.errors import FormViolation, WeightOutOfRange
from fpaths.families import FAMILIES, TAGS, FamilyInfo
from fpaths.fpath_core import fpath_decompose, fpath_stats
from fpaths.verify_harness import (
    CheckRecord,
    VerifyReport,
    run_all,
    size_data,
    tag_records,
)

MAPPED = tuple(tag for tag in TAGS if tag != "fpath")


def test_run_all_small_passes():
    report = run_all(max_n=2)
    assert report.ok
    assert report.failed == 0
    assert report.passed == len(report.records) > 50


def test_run_all_generates_each_pair_once(monkeypatch):
    calls = Counter()

    def counted(tag, generate):
        def wrapper(n):
            calls[tag, n] += 1
            return generate(n)
        return wrapper

    for tag in TAGS:
        info = FAMILIES[tag]
        monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(
            info, generate=counted(tag, info.generate)))
    assert run_all(max_n=2).ok
    assert calls == {(tag, n): 1 for tag in TAGS for n in range(3)}


def test_a_repeated_fpath_fails_only_the_fpath_count(monkeypatch):
    """``equinumerous[fpath]`` counts what the generator yielded, so a
    repeated path fails it; every other record reads each distinct path
    once and passes."""
    info = FAMILIES["fpath"]

    def generate(n):
        paths = info.generate(n)
        return paths + paths[:1] if n == 3 else paths

    monkeypatch.setitem(FAMILIES, "fpath",
                        dataclasses.replace(info, generate=generate))
    assert [r.line() for r in run_all(4).records if not r.ok] == [
        "FAIL  n=3  equinumerous[fpath]  [22 != 21]",
    ]


def _sizes(max_n):
    """The :class:`SizeData` list that ``run_all(max_n)`` builds."""
    sizes = []
    for n in range(max_n + 1):
        sizes.append(size_data(n, sizes))
    return sizes


def test_psi_image_outside_the_family_is_a_fail_record(monkeypatch):
    """The harness runs the trusted phi only on family members, so a psi
    that leaves the family gives a FAIL record, not a crash in phi."""
    info = FAMILIES["perm"]
    monkeypatch.setitem(FAMILIES, "perm", dataclasses.replace(
        info, psi=lambda q: (2, 3, 4, 1)))  # contains 2341
    sizes = _sizes(3)
    records = {name: (ok, detail)
               for tag in ("perm", "tree")
               for n, _, _, name, ok, detail in tag_records(tag, sizes)
               if n == 3}
    assert records["round-trip[perm] phi(psi(q)) == q"] == \
        (False, "0,1 0,1 0,1")
    assert records["round-trip[tree] phi(psi(q)) == q"] == (True, "")


def _count_cores(monkeypatch):
    """Wrap every mapped family's phi and psi; count calls per (tag, n),
    n being the length of the F-path that goes out of phi or into psi."""
    calls = Counter()

    def counted(kind, tag, func):
        def wrapper(x):
            out = func(x)
            calls[kind, tag, len(out if kind == "phi" else x)] += 1
            return out
        return wrapper

    for tag in MAPPED:
        info = FAMILIES[tag]
        monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(
            info, phi=counted("phi", tag, info.phi),
            psi=counted("psi", tag, info.psi)))
    return calls


def test_run_all_runs_phi_once_per_object_and_psi_once_per_path(
        monkeypatch):
    """The two ``decompose`` records add one phi per path of inv-i and
    inv-j, and one psi per component of each path of positive height."""
    calls = _count_cores(monkeypatch)
    assert run_all(max_n=4).ok
    want = Counter()
    for n in range(5):
        paths = FAMILIES["fpath"].generate(n)
        for tag in MAPPED:
            want["phi", tag, n] += len(FAMILIES[tag].generate(n))
            want["psi", tag, n] += len(paths)
        for tag in ("inv-i", "inv-j"):
            want["phi", tag, n] += len(paths)
            for q in paths:
                if len(comps := fpath_decompose(q)) > 1:
                    want.update(("psi", tag, len(c)) for c in comps)
    # The pinned examples add one phi per tag at the 15-step path.
    assert {k: v for k, v in calls.items() if k[2] <= 4} == want


def test_consecutive_runs_make_the_same_calls(monkeypatch):
    """Nothing computed in one run is reused by the next."""
    calls = _count_cores(monkeypatch)
    assert run_all(max_n=3).ok
    first = Counter(calls)
    calls.clear()
    assert run_all(max_n=3).ok
    assert calls == first


def test_size_data_numbers_the_distinct_paths_in_canonical_order():
    """Each size's paths are numbered on from the count of the sizes
    below it."""
    offset = 0
    for n, data in enumerate(_sizes(5)):
        assert list(data.index) == list(FAMILIES["fpath"].generate(n))
        assert list(data.index.values()) == \
            list(range(offset, offset + len(data.index)))
        assert data.offset == offset
        offset += len(data.index)


def test_size_data_stores_each_distinct_statistic_once():
    for n, data in enumerate(_sizes(5)):
        assert data.stats == tuple(map(fpath_stats, data.index)), n
        assert len(set(map(id, data.stats))) == len(set(data.stats)), n


def test_component_indexes_name_the_decomposition():
    """Every path's component indexes, read in the paths of all sizes,
    are exactly its ``fpath_decompose`` components."""
    sizes = _sizes(6)
    paths = [q for data in sizes for q in data.index]
    for data in sizes:
        assert data.unsummed is None
        for q, comps in zip(data.index, data.comps):
            assert [paths[c] for c in comps] == fpath_decompose(q), q


def test_the_tables_hold_the_generated_objects(monkeypatch):
    """Each phi image is stored as the global index of the generated path
    it equals, and each psi value as the generated member it equals, at
    the place that ``places`` names, so the psi table holds no copy of
    its own."""
    seen = []
    real = verify_harness.verify_round_trips

    def capture(tag, data, members, images, psi_vals, places):
        values = psi_vals[data.offset:data.offset + len(data.index)]
        seen.append((tag, data, members, images, values, places))
        return real(tag, data, members, images, psi_vals, places)

    monkeypatch.setattr(verify_harness, "verify_round_trips", capture)
    sizes = _sizes(4)
    for tag in MAPPED:
        assert all(row[4] for row in tag_records(tag, sizes))
    assert len(seen) == len(MAPPED) * len(sizes)
    for tag, data, members, images, values, places in seen:
        fam, at = FAMILIES[tag], {g: q for q, g in data.index.items()}
        assert [at[g] for g in images] == list(map(fam.phi, members)), tag
        assert all(o is members[k] for o, k in zip(values, places)), tag
        assert values == list(map(fam.psi, data.index)), tag


def test_a_missing_fpath_fails_the_records_that_read_it(monkeypatch):
    """An F-path generator that drops the last path of size 2 fails the
    count, the closed form, every family's round trip and statistics at
    n = 2, and from n = 3 on every record that reads a component that is
    not in the table: the homomorphism and ``decompose`` records.  A
    missing component fails a record; it raises nothing."""
    info = FAMILIES["fpath"]

    def generate(n):
        paths = info.generate(n)
        return paths[:-1] if n == 2 else paths

    monkeypatch.setitem(FAMILIES, "fpath",
                        dataclasses.replace(info, generate=generate))
    objects = {"schroder": "udud", "bicolored": "ububur", "perm": "3 2 1",
               "inv-i": "0,1,2", "inv-j": "0,1,2", "tree": "[(1 (1 L))]"}
    assert [r.line() for r in run_all(4).records if not r.ok] == [
        "FAIL  n=2  equinumerous[fpath]  [5 != 6]",
        *(f"FAIL  n=2  round-trip[{tag}] psi(phi(o)) == o  [{o}]"
          for tag, o in objects.items()),
        *(line for tag, o in objects.items() for line in (
            f"FAIL  n=2  statistics[{tag}] stats(o) == stats(phi(o))  [{o}]",
            f"FAIL  n=2  statistics[{tag}] joint distribution  "
            "[first diff (0, 0, 2): 1 != 0]")),
        "FAIL  n=2  statistics a_joint closed form  "
        "[(h,l,a1)=(0,0,2): 0 != 1]",
        *(f"FAIL  n={n}  direct-sum[{tag}] {name}  [{path}]"
          for n, path in ((3, "0,1 1,1 1,1"), (4, "0,1 0,1 1,1 1,1"))
          for tag, name in [*((tag, "psi is a homomorphism")
                              for tag in MAPPED),
                            ("inv-i", "decompose_I inverts the fold"),
                            ("inv-j", "decompose_J inverts the fold")]),
    ]


def test_swapped_psi_pair_gives_the_known_fail_lines(monkeypatch):
    """A psi that swaps the inv-i members 0,0,1 and 0,1,0 fails the two
    round trips at n = 2, the homomorphism record wherever a component
    maps to a swapped member, and ``decompose``, which runs the same
    psi, where the path itself maps to one; statistics do not read
    psi."""
    info = FAMILIES["inv-i"]
    swap = {(0, 0, 1): (0, 1, 0), (0, 1, 0): (0, 0, 1)}

    def psi(q):
        e = info.psi(q)
        return swap.get(e, e)

    monkeypatch.setitem(FAMILIES, "inv-i", dataclasses.replace(info, psi=psi))
    report = run_all(max_n=3)
    assert [r.line() for r in report.records if not r.ok] == [
        "FAIL  n=2  round-trip[inv-i] psi(phi(o)) == o  [0,0,1]",
        "FAIL  n=2  round-trip[inv-i] phi(psi(q)) == q  [0,1 1,1]",
        "FAIL  n=2  direct-sum[inv-i] psi is a homomorphism  [0,1 1,1]",
        "FAIL  n=2  direct-sum[inv-i] decompose_I inverts the fold  [0,1 1,1]",
        "FAIL  n=3  direct-sum[inv-i] psi is a homomorphism  [0,1 0,1 1,0]",
    ]


def test_wrong_counts_and_stats_give_the_known_fail_lines(monkeypatch):
    """A schroder generator that drops a member at n = 2, and a tree
    ``stats_core`` that adds 1 to a1 at height 1, fail these records
    with these details."""
    tree, schroder = FAMILIES["tree"], FAMILIES["schroder"]

    def stats_core(o):
        st = tree.stats_core(o)
        return st._replace(a1=st.a1 + 1) if st.h == 1 else st

    def generate(n):
        members = schroder.generate(n)
        return members[:-1] if n == 2 else members

    monkeypatch.setitem(FAMILIES, "tree", dataclasses.replace(
        tree, stats_core=stats_core))
    monkeypatch.setitem(FAMILIES, "schroder", dataclasses.replace(
        schroder, generate=generate))
    assert [r.line() for r in run_all(2).records if not r.ok] == [
        "FAIL  n=1  statistics[tree] stats(o) == stats(phi(o))  [[L L]]",
        "FAIL  n=1  statistics[tree] joint distribution  "
        "[first diff (1, 1, 0): 0 != 1]",
        "FAIL  n=2  equinumerous[schroder]  [5 != 6]",
        "FAIL  n=2  round-trip[schroder] phi(psi(q)) == q  [0,1 0,1]",
        "FAIL  n=2  statistics[schroder] joint distribution  "
        "[first diff (2, 2, 0): 0 != 1]",
        "FAIL  n=2  statistics[tree] stats(o) == stats(phi(o))  [[L (1 L)]]",
        "FAIL  n=2  statistics[tree] joint distribution  "
        "[first diff (1, 1, 1): 0 != 2]",
    ]


@pytest.mark.parametrize("field", ["h", "l", "a1"])
def test_a_wrong_fpath_stats_coordinate_gives_the_known_fail_lines(
        monkeypatch, field):
    """One coordinate of the hub's statistics one too large for the first
    path at n = 3: that path's triple (3, 3, 0) leaves the hub's
    distribution, so the closed-form record, the involution record and
    both statistics records of every mapped family fail at n = 3."""
    real, first = verify_harness.fpath_stats, FAMILIES["fpath"].generate(3)[0]

    def wrong(q):
        st, bone = real(q)
        if q == first:
            st = st._replace(**{field: getattr(st, field) + 1})
        return st, bone

    monkeypatch.setattr(verify_harness, "fpath_stats", wrong)
    objects = {"schroder": "hhh", "bicolored": "uuuurrrr", "perm": "1 2 3 4",
               "inv-i": "0,0,0,0", "inv-j": "0,0,0,0", "tree": "[L L L L]"}
    assert [r.line() for r in run_all(4).records if not r.ok] == [
        *(line for tag, o in objects.items() for line in (
            f"FAIL  n=3  statistics[{tag}] stats(o) == stats(phi(o))  [{o}]",
            f"FAIL  n=3  statistics[{tag}] joint distribution  "
            "[first diff (3, 3, 0): 1 != 0]")),
        "FAIL  n=3  statistics a_joint closed form  "
        "[(h,l,a1)=(3,3,0): 0 != 1]",
        "FAIL  n=3  involution relations  [0,1 0,1 0,1]",
    ]


def test_a_wrong_involution_gives_the_known_fail_lines(monkeypatch):
    """An involution that leaves the paths of size n fails the
    involution record at every n, naming the first path."""
    monkeypatch.setattr(verify_harness, "involution_phi_F",
                        lambda q: q + ((0, 1),))
    assert [r.line() for r in run_all(2).records if not r.ok] == [
        "FAIL  n=0  involution relations  [-]",
        "FAIL  n=1  involution relations  [0,1]",
        "FAIL  n=2  involution relations  [0,1 0,1]",
    ]


# ----------------------------------------------------------- fault matrix
#
# Each fault below is planted in one mapped family's ``FamilyInfo``; the
# matrix pins the FAIL lines that ``run_all(4)``, in one process, gives.


def _drop_last_member(info):
    """``generate`` drops its last member at n = 3."""
    generate = info.generate
    return {"generate": lambda n: generate(n)[:-1] if n == 3 else generate(n)}


def _repeat_first_member(info):
    """``generate`` yields its first member twice at n = 3."""
    generate = info.generate
    return {"generate": lambda n: (generate(n) + generate(n)[:1] if n == 3
                                   else generate(n))}


def _swap_direct_sum_arguments(info):
    direct_sum = info.direct_sum
    return {"direct_sum": lambda o1, o2: direct_sum(o2, o1)}


def _add_non_member(info):
    """``generate`` yields the first member of size 4 among those of size
    3."""
    generate = info.generate
    return {"generate": lambda n: (generate(n) + generate(4)[:1] if n == 3
                                   else generate(n))}


def _swap_two_images(info):
    """``phi`` swaps the images of the first two members at n = 3."""
    phi, (first, second, *_) = info.phi, info.generate(3)
    swap = {first: second, second: first}
    return {"phi": lambda o: phi(swap.get(o, o))}


def _swap_two_preimages(info):
    """``psi`` swaps its answers for the first two paths at n = 3."""
    psi, (first, second, *_) = info.psi, FAMILIES["fpath"].generate(3)
    swap = {first: second, second: first}
    return {"psi": lambda q: psi(swap.get(q, q))}


def _shift_one(field, by):
    """A fault: ``stats_core`` adds ``by`` to ``field`` for the first
    member at n = 3."""
    def fault(info):
        stats_core, first = info.stats_core, info.generate(3)[0]

        def shifted(o):
            st = stats_core(o)
            return (st._replace(**{field: getattr(st, field) + by})
                    if o == first else st)

        return {"stats_core": shifted}

    fault.__name__ = f"_{'raise' if by > 0 else 'lower'}_one_{field}"
    return fault


_raise_one_l = _shift_one("l", 1)
_raise_one_h = _shift_one("h", 1)
_lower_one_a1 = _shift_one("a1", -1)


def _drop_last_summand(info):
    """``decompose`` drops its last summand, in this entry alone."""
    decompose = info.decompose
    return {"decompose": lambda o: decompose(o)[:-1]}


#: (tag, fault, the FAIL lines of ``run_all(4)``).  ``decompose`` is a
#: method that every family shares, so only the inv-i and inv-j rows
#: plant it: they pin that each record reads its own entry's method.
#: The shared method's fault is pinned by
#: :func:`test_a_dropped_summand_fails_both_decompose_records`.
FAULT_MATRIX = [
    ("schroder", _drop_last_member, [
        "FAIL  n=3  equinumerous[schroder]  [20 != 21]",
        "FAIL  n=3  round-trip[schroder] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  statistics[schroder] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("schroder", _repeat_first_member, [
        "FAIL  n=3  equinumerous[schroder]  [22 != 21]",
        "FAIL  n=3  statistics[schroder] joint distribution  "
        "[first diff (0, 1, 2): 4 != 3]",
    ]),
    ("schroder", _swap_direct_sum_arguments, [
        "FAIL  n=2  direct-sum[schroder] psi is a homomorphism  [0,1 1,1]",
        "FAIL  n=3  direct-sum[schroder] psi is a homomorphism  [0,1 0,1 1,1]",
        "FAIL  n=4  direct-sum[schroder] psi is a homomorphism  "
        "[0,1 0,1 0,1 1,1]",
    ]),
    ("schroder", _raise_one_l, [
        "FAIL  n=3  statistics[schroder] stats(o) == stats(phi(o))  [uududd]",
        "FAIL  n=3  statistics[schroder] joint distribution  "
        "[first diff (0, 1, 2): 2 != 3]",
    ]),
    ("bicolored", _drop_last_member, [
        "FAIL  n=3  equinumerous[bicolored]  [20 != 21]",
        "FAIL  n=3  round-trip[bicolored] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  statistics[bicolored] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("bicolored", _repeat_first_member, [
        "FAIL  n=3  equinumerous[bicolored]  [22 != 21]",
        "FAIL  n=3  statistics[bicolored] joint distribution  "
        "[first diff (0, 0, 3): 2 != 1]",
    ]),
    ("bicolored", _swap_direct_sum_arguments, [
        "FAIL  n=2  direct-sum[bicolored] psi is a homomorphism  [0,1 1,1]",
        "FAIL  n=3  direct-sum[bicolored] psi is a homomorphism  "
        "[0,1 0,1 1,1]",
        "FAIL  n=4  direct-sum[bicolored] psi is a homomorphism  "
        "[0,1 0,1 0,1 1,1]",
    ]),
    ("bicolored", _raise_one_l, [
        "FAIL  n=3  statistics[bicolored] stats(o) == stats(phi(o))  "
        "[ubububur]",
        "FAIL  n=3  statistics[bicolored] joint distribution  "
        "[first diff (0, 0, 3): 0 != 1]",
    ]),
    ("perm", _drop_last_member, [
        "FAIL  n=3  equinumerous[perm]  [20 != 21]",
        "FAIL  n=3  round-trip[perm] phi(psi(q)) == q  [1,1 1,1 1,1]",
        "FAIL  n=3  statistics[perm] joint distribution  "
        "[first diff (0, 0, 3): 0 != 1]",
    ]),
    ("perm", _repeat_first_member, [
        "FAIL  n=3  equinumerous[perm]  [22 != 21]",
        "FAIL  n=3  statistics[perm] joint distribution  "
        "[first diff (3, 3, 0): 2 != 1]",
    ]),
    ("perm", _swap_direct_sum_arguments, [
        "FAIL  n=2  direct-sum[perm] psi is a homomorphism  [0,1 1,1]",
        "FAIL  n=3  direct-sum[perm] psi is a homomorphism  [0,1 0,1 1,1]",
        "FAIL  n=4  direct-sum[perm] psi is a homomorphism  [0,1 0,1 0,1 1,1]",
    ]),
    ("perm", _raise_one_l, [
        "FAIL  n=3  statistics[perm] stats(o) == stats(phi(o))  [1 2 3 4]",
        "FAIL  n=3  statistics[perm] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("inv-i", _drop_last_member, [
        "FAIL  n=3  equinumerous[inv-i]  [20 != 21]",
        "FAIL  n=3  round-trip[inv-i] phi(psi(q)) == q  [1,1 1,1 1,1]",
        "FAIL  n=3  statistics[inv-i] joint distribution  "
        "[first diff (0, 0, 3): 0 != 1]",
    ]),
    ("inv-i", _repeat_first_member, [
        "FAIL  n=3  equinumerous[inv-i]  [22 != 21]",
        "FAIL  n=3  statistics[inv-i] joint distribution  "
        "[first diff (3, 3, 0): 2 != 1]",
    ]),
    ("inv-i", _swap_direct_sum_arguments, [
        "FAIL  n=2  direct-sum[inv-i] psi is a homomorphism  [0,1 1,1]",
        "FAIL  n=3  direct-sum[inv-i] psi is a homomorphism  [0,1 0,1 1,1]",
        "FAIL  n=4  direct-sum[inv-i] psi is a homomorphism  "
        "[0,1 0,1 0,1 1,1]",
    ]),
    ("inv-i", _raise_one_l, [
        "FAIL  n=3  statistics[inv-i] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  statistics[inv-i] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("inv-i", _drop_last_summand, [
        "FAIL  n=0  direct-sum[inv-i] decompose_I inverts the fold  [-]",
        "FAIL  n=1  direct-sum[inv-i] decompose_I inverts the fold  [0,1]",
        "FAIL  n=2  direct-sum[inv-i] decompose_I inverts the fold  [0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-i] decompose_I inverts the fold  "
        "[0,1 0,1 0,1]",
        "FAIL  n=4  direct-sum[inv-i] decompose_I inverts the fold  "
        "[0,1 0,1 0,1 0,1]",
    ]),
    ("inv-j", _drop_last_member, [
        "FAIL  n=3  equinumerous[inv-j]  [20 != 21]",
        "FAIL  n=3  round-trip[inv-j] phi(psi(q)) == q  [1,1 1,1 1,1]",
        "FAIL  n=3  statistics[inv-j] joint distribution  "
        "[first diff (0, 0, 3): 0 != 1]",
    ]),
    ("inv-j", _repeat_first_member, [
        "FAIL  n=3  equinumerous[inv-j]  [22 != 21]",
        "FAIL  n=3  statistics[inv-j] joint distribution  "
        "[first diff (3, 3, 0): 2 != 1]",
    ]),
    ("inv-j", _swap_direct_sum_arguments, [
        "FAIL  n=2  direct-sum[inv-j] psi is a homomorphism  [0,1 1,1]",
        "FAIL  n=3  direct-sum[inv-j] psi is a homomorphism  [0,1 0,1 1,1]",
        "FAIL  n=4  direct-sum[inv-j] psi is a homomorphism  "
        "[0,1 0,1 0,1 1,1]",
    ]),
    ("inv-j", _raise_one_l, [
        "FAIL  n=3  statistics[inv-j] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  statistics[inv-j] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("inv-j", _drop_last_summand, [
        "FAIL  n=0  direct-sum[inv-j] decompose_J inverts the fold  [-]",
        "FAIL  n=1  direct-sum[inv-j] decompose_J inverts the fold  [0,1]",
        "FAIL  n=2  direct-sum[inv-j] decompose_J inverts the fold  [0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-j] decompose_J inverts the fold  "
        "[0,1 0,1 0,1]",
        "FAIL  n=4  direct-sum[inv-j] decompose_J inverts the fold  "
        "[0,1 0,1 0,1 0,1]",
    ]),
    ("tree", _drop_last_member, [
        "FAIL  n=3  equinumerous[tree]  [20 != 21]",
        "FAIL  n=3  round-trip[tree] phi(psi(q)) == q  [1,1 1,1 1,1]",
        "FAIL  n=3  statistics[tree] joint distribution  "
        "[first diff (0, 0, 3): 0 != 1]",
    ]),
    ("tree", _repeat_first_member, [
        "FAIL  n=3  equinumerous[tree]  [22 != 21]",
        "FAIL  n=3  statistics[tree] joint distribution  "
        "[first diff (3, 3, 0): 2 != 1]",
    ]),
    ("tree", _swap_direct_sum_arguments, [
        "FAIL  n=2  direct-sum[tree] psi is a homomorphism  [0,1 1,1]",
        "FAIL  n=3  direct-sum[tree] psi is a homomorphism  [0,1 0,1 1,1]",
        "FAIL  n=4  direct-sum[tree] psi is a homomorphism  [0,1 0,1 0,1 1,1]",
    ]),
    ("tree", _raise_one_l, [
        "FAIL  n=3  statistics[tree] stats(o) == stats(phi(o))  [[L L L L]]",
        "FAIL  n=3  statistics[tree] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    # A non-member in generate, two swapped images in phi, and +1 on h
    # and -1 on a1 in stats_core, in each family.
    ("schroder", _add_non_member, [
        "FAIL  n=3  equinumerous[schroder]  [22 != 21]",
        "FAIL  n=3  round-trip[schroder] psi(phi(o)) == o  [uuuddudd]",
        "FAIL  n=3  statistics[schroder] stats(o) == stats(phi(o))  "
        "[uuuddudd]",
        "FAIL  n=3  statistics[schroder] joint distribution  "
        "[first diff (0, 2, 2): 1 != 0]",
    ]),
    ("schroder", _swap_two_images, [
        "FAIL  n=3  round-trip[schroder] psi(phi(o)) == o  [uududd]",
        "FAIL  n=3  round-trip[schroder] phi(psi(q)) == q  [0,1 1,1 1,0]",
    ]),
    ("schroder", _swap_two_preimages, [
        "FAIL  n=3  round-trip[schroder] psi(phi(o)) == o  [hhud]",
        "FAIL  n=3  round-trip[schroder] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[schroder] psi is a homomorphism  [0,1 0,1 0,1]",
    ]),
    ("schroder", _raise_one_h, [
        "FAIL  n=3  statistics[schroder] stats(o) == stats(phi(o))  [uududd]",
        "FAIL  n=3  statistics[schroder] joint distribution  "
        "[first diff (0, 1, 2): 2 != 3]",
    ]),
    ("schroder", _lower_one_a1, [
        "FAIL  n=3  statistics[schroder] stats(o) == stats(phi(o))  [uududd]",
        "FAIL  n=3  statistics[schroder] joint distribution  "
        "[first diff (0, 1, 1): 4 != 3]",
    ]),
    ("bicolored", _add_non_member, [
        "FAIL  n=3  equinumerous[bicolored]  [22 != 21]",
        "FAIL  n=3  round-trip[bicolored] psi(phi(o)) == o  [ububububur]",
        "FAIL  n=3  statistics[bicolored] stats(o) == stats(phi(o))  "
        "[ububububur]",
        "FAIL  n=3  statistics[bicolored] joint distribution  "
        "[first diff (0, 0, 4): 1 != 0]",
    ]),
    ("bicolored", _swap_two_images, [
        "FAIL  n=3  round-trip[bicolored] psi(phi(o)) == o  [ubububur]",
        "FAIL  n=3  round-trip[bicolored] phi(psi(q)) == q  [1,1 1,1 0,1]",
        "FAIL  n=3  statistics[bicolored] stats(o) == stats(phi(o))  "
        "[ubububur]",
    ]),
    ("bicolored", _swap_two_preimages, [
        "FAIL  n=3  round-trip[bicolored] psi(phi(o)) == o  [uuuburrr]",
        "FAIL  n=3  round-trip[bicolored] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[bicolored] psi is a homomorphism  "
        "[0,1 0,1 0,1]",
    ]),
    ("bicolored", _raise_one_h, [
        "FAIL  n=3  statistics[bicolored] stats(o) == stats(phi(o))  "
        "[ubububur]",
        "FAIL  n=3  statistics[bicolored] joint distribution  "
        "[first diff (0, 0, 3): 0 != 1]",
    ]),
    ("bicolored", _lower_one_a1, [
        "FAIL  n=3  statistics[bicolored] stats(o) == stats(phi(o))  "
        "[ubububur]",
        "FAIL  n=3  statistics[bicolored] joint distribution  "
        "[first diff (0, 0, 2): 1 != 0]",
    ]),
    ("perm", _add_non_member, [
        "FAIL  n=3  equinumerous[perm]  [22 != 21]",
        "FAIL  n=3  round-trip[perm] psi(phi(o)) == o  [1 2 3 4 5]",
        "FAIL  n=3  statistics[perm] stats(o) == stats(phi(o))  [1 2 3 4 5]",
        "FAIL  n=3  statistics[perm] joint distribution  "
        "[first diff (4, 4, 0): 1 != 0]",
    ]),
    ("perm", _swap_two_images, [
        "FAIL  n=3  round-trip[perm] psi(phi(o)) == o  [1 2 3 4]",
        "FAIL  n=3  round-trip[perm] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  statistics[perm] stats(o) == stats(phi(o))  [1 2 3 4]",
    ]),
    ("perm", _swap_two_preimages, [
        "FAIL  n=3  round-trip[perm] psi(phi(o)) == o  [1 2 3 4]",
        "FAIL  n=3  round-trip[perm] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[perm] psi is a homomorphism  [0,1 0,1 0,1]",
    ]),
    ("perm", _raise_one_h, [
        "FAIL  n=3  statistics[perm] stats(o) == stats(phi(o))  [1 2 3 4]",
        "FAIL  n=3  statistics[perm] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("perm", _lower_one_a1, [
        "FAIL  n=3  statistics[perm] stats(o) == stats(phi(o))  [1 2 3 4]",
        "FAIL  n=3  statistics[perm] joint distribution  "
        "[first diff (3, 3, -1): 1 != 0]",
    ]),
    ("inv-i", _add_non_member, [
        "FAIL  n=3  equinumerous[inv-i]  [22 != 21]",
        "FAIL  n=3  round-trip[inv-i] psi(phi(o)) == o  [0,0,0,0,0]",
        "FAIL  n=3  statistics[inv-i] stats(o) == stats(phi(o))  [0,0,0,0,0]",
        "FAIL  n=3  statistics[inv-i] joint distribution  "
        "[first diff (4, 4, 0): 1 != 0]",
    ]),
    ("inv-i", _swap_two_images, [
        "FAIL  n=3  round-trip[inv-i] psi(phi(o)) == o  [0,0,0,0]",
        "FAIL  n=3  round-trip[inv-i] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  statistics[inv-i] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  direct-sum[inv-i] decompose_I inverts the fold  "
        "[0,1 0,1 0,1]",
    ]),
    ("inv-i", _swap_two_preimages, [
        "FAIL  n=3  round-trip[inv-i] psi(phi(o)) == o  [0,0,0,0]",
        "FAIL  n=3  round-trip[inv-i] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-i] psi is a homomorphism  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-i] decompose_I inverts the fold  "
        "[0,1 0,1 0,1]",
    ]),
    ("inv-i", _raise_one_h, [
        "FAIL  n=3  statistics[inv-i] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  statistics[inv-i] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("inv-i", _lower_one_a1, [
        "FAIL  n=3  statistics[inv-i] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  statistics[inv-i] joint distribution  "
        "[first diff (3, 3, -1): 1 != 0]",
    ]),
    ("inv-j", _add_non_member, [
        "FAIL  n=3  equinumerous[inv-j]  [22 != 21]",
        "FAIL  n=3  round-trip[inv-j] psi(phi(o)) == o  [0,0,0,0,0]",
        "FAIL  n=3  statistics[inv-j] stats(o) == stats(phi(o))  [0,0,0,0,0]",
        "FAIL  n=3  statistics[inv-j] joint distribution  "
        "[first diff (4, 4, 0): 1 != 0]",
    ]),
    ("inv-j", _swap_two_images, [
        "FAIL  n=3  round-trip[inv-j] psi(phi(o)) == o  [0,0,0,0]",
        "FAIL  n=3  round-trip[inv-j] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  statistics[inv-j] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  direct-sum[inv-j] decompose_J inverts the fold  "
        "[0,1 0,1 0,1]",
    ]),
    ("inv-j", _swap_two_preimages, [
        "FAIL  n=3  round-trip[inv-j] psi(phi(o)) == o  [0,0,0,0]",
        "FAIL  n=3  round-trip[inv-j] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-j] psi is a homomorphism  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-j] decompose_J inverts the fold  "
        "[0,1 0,1 0,1]",
    ]),
    ("inv-j", _raise_one_h, [
        "FAIL  n=3  statistics[inv-j] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  statistics[inv-j] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("inv-j", _lower_one_a1, [
        "FAIL  n=3  statistics[inv-j] stats(o) == stats(phi(o))  [0,0,0,0]",
        "FAIL  n=3  statistics[inv-j] joint distribution  "
        "[first diff (3, 3, -1): 1 != 0]",
    ]),
    ("tree", _add_non_member, [
        "FAIL  n=3  equinumerous[tree]  [22 != 21]",
        "FAIL  n=3  round-trip[tree] psi(phi(o)) == o  [[L L L L L]]",
        "FAIL  n=3  statistics[tree] stats(o) == stats(phi(o))  [[L L L L L]]",
        "FAIL  n=3  statistics[tree] joint distribution  "
        "[first diff (4, 4, 0): 1 != 0]",
    ]),
    ("tree", _swap_two_images, [
        "FAIL  n=3  round-trip[tree] psi(phi(o)) == o  [[L L L L]]",
        "FAIL  n=3  round-trip[tree] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  statistics[tree] stats(o) == stats(phi(o))  [[L L L L]]",
    ]),
    ("tree", _swap_two_preimages, [
        "FAIL  n=3  round-trip[tree] psi(phi(o)) == o  [[L L L L]]",
        "FAIL  n=3  round-trip[tree] phi(psi(q)) == q  [0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[tree] psi is a homomorphism  [0,1 0,1 0,1]",
    ]),
    ("tree", _raise_one_h, [
        "FAIL  n=3  statistics[tree] stats(o) == stats(phi(o))  [[L L L L]]",
        "FAIL  n=3  statistics[tree] joint distribution  "
        "[first diff (3, 3, 0): 0 != 1]",
    ]),
    ("tree", _lower_one_a1, [
        "FAIL  n=3  statistics[tree] stats(o) == stats(phi(o))  [[L L L L]]",
        "FAIL  n=3  statistics[tree] joint distribution  "
        "[first diff (3, 3, -1): 1 != 0]",
    ]),
]


def _plant(info, fault):
    """A copy of ``info`` with ``fault``'s fields swapped in.  A faulty
    ``decompose`` is a method, not a field, so it is set on the copy."""
    changes = fault(info)
    decompose = changes.pop("decompose", None)
    planted = dataclasses.replace(info, **changes)
    if decompose is not None:
        object.__setattr__(planted, "decompose", decompose)
    return planted


@pytest.mark.parametrize(
    "tag, fault, lines", FAULT_MATRIX,
    ids=[f"{tag}-{fault.__name__[1:]}" for tag, fault, _ in FAULT_MATRIX])
def test_a_planted_fault_gives_the_known_fail_lines(monkeypatch, tag, fault,
                                                    lines):
    monkeypatch.setitem(FAMILIES, tag, _plant(FAMILIES[tag], fault))
    assert [r.line() for r in run_all(4).records if not r.ok] == lines


def test_a_dropped_summand_fails_both_decompose_records(monkeypatch):
    """Every family decomposes through the one ``FamilyInfo.decompose``,
    so the inv-i and inv-j records catch a fault planted there, at every
    n, naming the first path."""
    decompose = FamilyInfo.decompose
    monkeypatch.setattr(FamilyInfo, "decompose",
                        lambda self, o: decompose(self, o)[:-1])
    assert [r.line() for r in run_all(4).records if not r.ok] == [
        "FAIL  n=0  direct-sum[inv-i] decompose_I inverts the fold  [-]",
        "FAIL  n=0  direct-sum[inv-j] decompose_J inverts the fold  [-]",
        "FAIL  n=1  direct-sum[inv-i] decompose_I inverts the fold  [0,1]",
        "FAIL  n=1  direct-sum[inv-j] decompose_J inverts the fold  [0,1]",
        "FAIL  n=2  direct-sum[inv-i] decompose_I inverts the fold  [0,1 0,1]",
        "FAIL  n=2  direct-sum[inv-j] decompose_J inverts the fold  [0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-i] decompose_I inverts the fold  "
        "[0,1 0,1 0,1]",
        "FAIL  n=3  direct-sum[inv-j] decompose_J inverts the fold  "
        "[0,1 0,1 0,1]",
        "FAIL  n=4  direct-sum[inv-i] decompose_I inverts the fold  "
        "[0,1 0,1 0,1 0,1]",
        "FAIL  n=4  direct-sum[inv-j] decompose_J inverts the fold  "
        "[0,1 0,1 0,1 0,1]",
    ]


#: sha256 of ``run_all(k).to_text()`` and of ``.to_json()``, k = 0..6.
#: The records sort by (n, slot, TAGS index), and these pin the order
#: that the sort makes as well as every name and detail.
REPORT_DIGESTS = [
    ("b51fc4ee62886e119c8d867eb4b8f1274c2254ca5d7cb7f8c73b5a0f3c4cc203",
     "6858d13784f7998dbcbf5bd30e9d7fe89ce33c9ffce9081d34c31dfe639af457"),
    ("15ed7ed1b880bf97079a2cb1810aca3193af633f7dda37a530afa8769a3bfa2e",
     "a30dc29242d40e384737e3648f7729f5c8f910bec9772d4f7c1b6576784b7e71"),
    ("b7664eed387e9015d4e48c323463ad7f20e07b4a01746f0b5e3756b46acbef9e",
     "6ca67468ad4bd049b4a1ac5fe5888d2fdb9ea895ce04d465d44477080c74f4cc"),
    ("bfdf0f474bd180728fba340221f08f3a92cc70cdd4cee5a36d2d8ae39cf6cb69",
     "c7df5b89cdcea899c577a800992f1403468634b0b98d8c864c52ad3a77035573"),
    ("e70de5ce563b0cc1a658a6f7a99dec649847e95a9cd7adb7257279c8099ac1b4",
     "813917c631bf062845b865e3b5a8069629ad8a60a279dab14692b9c011d30c59"),
    ("27bcfa69830a145f010875f618dfdd49f4df449da16a69b6f255bcaf1a88da24",
     "1bf8d849a04c6ba481b0fa022f5fea94f0702e576e501040e8f33909a7fc05bd"),
    ("d42724bdb3d36a3d49f3c3611338557eba2d01fb29212b472f9757f3962fd050",
     "37ef92dc2615624bc0b7d1e14c648b2cf1761fbef43915567cfd4fd6fc1e5db0"),
]


@pytest.mark.parametrize("max_n", range(len(REPORT_DIGESTS)))
def test_report_text_and_json_are_pinned(max_n):
    report = run_all(max_n)
    got = tuple(hashlib.sha256(out.encode()).hexdigest()
                for out in (report.to_text(), report.to_json()))
    assert got == REPORT_DIGESTS[max_n]


def test_json_round_trip():
    report = run_all(max_n=1)
    data = json.loads(report.to_json())
    assert data["ok"] is True
    assert data["failed"] == 0
    assert data["passed"] == report.passed
    assert len(data["records"]) == len(report.records)
    first = data["records"][0]
    assert set(first) >= {"name", "n", "ok"}


def test_record_line_formats():
    good = CheckRecord("equinumerous schroder", 3, True, "ignored when ok")
    assert good.line() == "PASS  n=3  equinumerous schroder"
    bad = CheckRecord("round trip perm", 4, False, "first mismatch: 2 1 3")
    assert bad.line() == "FAIL  n=4  round trip perm  [first mismatch: 2 1 3]"
    pinned = CheckRecord("pinned image tree", -1, True)
    assert pinned.line() == "PASS  pinned image tree"


def test_report_aggregates_failures():
    report = VerifyReport(
        [CheckRecord("a", 0, True), CheckRecord("b", 1, False, "boom")]
    )
    assert not report.ok
    assert report.passed == 1 and report.failed == 1
    text = report.to_text()
    assert "FAIL" in text and "boom" in text
    assert text.endswith("1 passed, 1 failed, 2 total")


# ------------------------------------------------------------------ split


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _psi_tags(calls):
    """The tags whose psi ran in this process, from ``_count_cores``."""
    return {tag for kind, tag, _ in calls if kind == "psi"}


@pytest.fixture
def split_from_5(monkeypatch):
    """The split taken from ``max_n`` 5 on, below the shipped threshold,
    so that a test's ``run_all(5)`` or ``run_all(6)`` reaches the child
    at the cost of a small run."""
    monkeypatch.setattr(verify_harness, "_SPLIT_FROM_N", 5)


@pytest.mark.usefixtures("split_from_5")
@pytest.mark.parametrize("max_n", [5, 6])
def test_split_records_equal_the_one_process_records(monkeypatch, max_n):
    calls = _count_cores(monkeypatch)
    split = run_all(max_n).records
    _no_child_left()
    # The child's families ran psi in the child only.
    assert _psi_tags(calls) == set(MAPPED) - set(verify_harness._CHILD_TAGS)
    calls.clear()
    monkeypatch.delattr(os, "fork")
    one = run_all(max_n).records
    assert _psi_tags(calls) == set(MAPPED)
    assert [dataclasses.astuple(r) for r in split] == \
        [dataclasses.astuple(r) for r in one]


@pytest.mark.usefixtures("split_from_5")
def test_a_split_run_generates_each_pair_once_across_both_processes(
        monkeypatch, tmp_path):
    """The F-paths of every size are generated once, in the calling
    process and before the fork; the child reads the parent's copy."""
    log = tmp_path / "generate.log"

    def logged(tag, generate):
        def wrapper(n):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {tag} {n}\n")
            return generate(n)
        return wrapper

    for tag in TAGS:
        info = FAMILIES[tag]
        monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(
            info, generate=logged(tag, info.generate)))
    assert run_all(5).ok
    _no_child_left()
    lines = [line.split() for line in log.read_text().splitlines()]
    assert Counter((tag, int(n)) for _, tag, n in lines) == \
        {(tag, n): 1 for tag in TAGS for n in range(6)}
    pids = {tag: {int(pid) for pid, t, _ in lines if t == tag}
            for tag in TAGS}
    assert pids["fpath"] == {os.getpid()}
    # The fork was taken: the child's tags ran in one other process.
    child = set().union(*(pids[tag] for tag in verify_harness._CHILD_TAGS))
    assert len(child) == 1 and os.getpid() not in child


@pytest.mark.usefixtures("split_from_5")
def test_an_error_in_the_fpath_generator_is_raised_before_any_fork(
        monkeypatch):
    info = FAMILIES["fpath"]
    forks = []

    def generate(n):
        if n == 5:
            raise FormViolation("no F-paths of size 5")
        return info.generate(n)

    def fork():
        forks.append(os.getpid())
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setitem(FAMILIES, "fpath",
                        dataclasses.replace(info, generate=generate))
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(FormViolation, match="^no F-paths of size 5$"):
        run_all(5)
    assert forks == []


@pytest.mark.usefixtures("split_from_5")
@pytest.mark.parametrize("child_tags", [("fpath",), ("perm", "tree"), MAPPED])
def test_any_partition_of_the_tags_gives_the_one_process_records(
        monkeypatch, child_tags):
    monkeypatch.setattr(verify_harness, "_CHILD_TAGS", child_tags)
    calls = _count_cores(monkeypatch)
    split = run_all(5).records
    _no_child_left()
    assert _psi_tags(calls) == set(MAPPED) - set(child_tags)
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one = run_all(5).records
    assert [dataclasses.astuple(r) for r in split] == \
        [dataclasses.astuple(r) for r in one]


@pytest.mark.usefixtures("split_from_5")
def test_split_is_not_taken_below_the_threshold(monkeypatch):
    calls = _count_cores(monkeypatch)
    assert run_all(verify_harness._SPLIT_FROM_N - 1).ok
    assert _psi_tags(calls) == set(MAPPED)


@pytest.mark.usefixtures("split_from_5")
def test_split_is_not_taken_while_another_thread_runs(monkeypatch):
    calls = _count_cores(monkeypatch)
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(10,))
    other.start()
    try:
        assert run_all(5).ok
    finally:
        done.set()
        other.join(10)
    assert not other.is_alive()
    assert _psi_tags(calls) == set(MAPPED)


@pytest.mark.usefixtures("split_from_5")
def test_swapped_psi_pair_fails_alike_when_inv_i_runs_in_the_child(
        monkeypatch):
    assert "inv-i" in verify_harness._CHILD_TAGS
    monkeypatch.setattr(verify_harness, "_SPLIT_FROM_N", 3)
    test_swapped_psi_pair_gives_the_known_fail_lines(monkeypatch)
    _no_child_left()


def _raise_in_psi(monkeypatch, tag, exc):
    def psi(q):
        raise exc(os.getpid())

    monkeypatch.setitem(FAMILIES, tag,
                        dataclasses.replace(FAMILIES[tag], psi=psi))


@pytest.mark.usefixtures("split_from_5")
def test_an_error_in_the_child_is_raised_again(monkeypatch):
    """The child leaves without its rows, and the parent makes them
    itself: the error is raised in the calling process."""
    _raise_in_psi(monkeypatch, "inv-j",
                  lambda pid: FormViolation(f"psi failed in process {pid}"))
    with pytest.raises(FormViolation) as caught:
        run_all(5)
    _no_child_left()
    assert type(caught.value) is FormViolation
    message = str(caught.value)
    assert message.startswith("psi failed in process ")
    assert message == f"psi failed in process {os.getpid()}"


@pytest.mark.usefixtures("split_from_5")
def test_an_error_with_attributes_is_raised_again_by_the_parent(
        monkeypatch):
    _raise_in_psi(monkeypatch, "bicolored",
                  lambda pid: WeightOutOfRange(pid, 7, 2))
    with pytest.raises(WeightOutOfRange) as caught:
        run_all(5)
    _no_child_left()
    exc = caught.value
    assert exc.vertex == os.getpid()
    assert (exc.weight, exc.outdeg) == (7, 2)
    assert str(exc) == f"vertex {exc.vertex} has weight 7, expected 1..2"


@pytest.mark.usefixtures("split_from_5")
def test_an_unpicklable_error_in_the_child_is_raised_again_by_the_parent(
        monkeypatch):
    class Local(Exception):
        pass

    _raise_in_psi(monkeypatch, "inv-i", lambda pid: Local("boom"))
    with pytest.raises(Local, match="^boom$") as caught:
        run_all(5)
    _no_child_left()
    assert type(caught.value) is Local


@pytest.mark.usefixtures("split_from_5")
def test_a_dying_child_gives_the_one_process_records(monkeypatch):
    """A child that leaves early hands back no rows; the parent makes
    them itself, and the report is the one-process report."""
    assert "bicolored" in verify_harness._CHILD_TAGS
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one = run_all(5).records
    test_pid = os.getpid()
    fam = FAMILIES["bicolored"]

    def psi(q):
        if os.getpid() != test_pid:
            os._exit(3)
        return fam.psi(q)

    monkeypatch.setitem(FAMILIES, "bicolored",
                        dataclasses.replace(fam, psi=psi))
    split = run_all(5).records
    _no_child_left()
    assert [dataclasses.astuple(r) for r in split] == \
        [dataclasses.astuple(r) for r in one]


@pytest.fixture
def ignored_sigchld():
    """SIGCHLD ignored for the test: a child is reaped unasked, and its
    exit status is lost."""
    if not hasattr(signal, "SIGCHLD"):
        pytest.skip("needs SIGCHLD")
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    yield
    signal.signal(signal.SIGCHLD, before)


@pytest.mark.usefixtures("split_from_5")
def test_an_ignored_sigchld_gives_the_one_process_records(monkeypatch,
                                                          ignored_sigchld):
    """The child's status is lost, so the parent makes its rows itself."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one = run_all(5).records
    calls = _count_cores(monkeypatch)
    split = run_all(5).records
    _no_child_left()
    assert _psi_tags(calls) == set(MAPPED)
    assert [dataclasses.astuple(r) for r in split] == \
        [dataclasses.astuple(r) for r in one]


@pytest.mark.usefixtures("split_from_5")
def test_a_late_error_in_the_parent_is_raised_when_sigchld_is_ignored(
        monkeypatch, ignored_sigchld):
    """The child is gone before the parent's half raises; the parent's
    error is raised, not the failed kill's."""
    assert "tree" not in verify_harness._CHILD_TAGS
    fam = FAMILIES["tree"]

    def psi(q):
        if len(q) == 5:
            time.sleep(0.3)
            raise FormViolation("late parent half")
        return fam.psi(q)

    monkeypatch.setitem(FAMILIES, "tree", dataclasses.replace(fam, psi=psi))
    with pytest.raises(FormViolation, match="^late parent half$"):
        run_all(5)
    _no_child_left()


@pytest.mark.usefixtures("split_from_5")
@pytest.mark.parametrize("exc", [FormViolation, KeyboardInterrupt])
def test_an_error_in_the_parent_kills_and_reaps_the_child(monkeypatch, exc):
    assert "perm" not in verify_harness._CHILD_TAGS
    _raise_in_psi(monkeypatch, "perm", lambda pid: exc("parent half"))
    with pytest.raises(exc, match="^parent half$"):
        run_all(6)
    _no_child_left()


@pytest.mark.usefixtures("split_from_5")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_a_failed_fork_leaves_no_pipe_open(monkeypatch):
    """A failed fork runs every check in this process."""
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one = run_all(5).records
    open_fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", no_fork)
    records = run_all(5).records
    assert set(os.listdir("/proc/self/fd")) == open_fds
    assert [dataclasses.astuple(r) for r in records] == \
        [dataclasses.astuple(r) for r in one]


@pytest.mark.usefixtures("split_from_5")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_a_failed_pipe_gives_the_one_process_records(monkeypatch):
    """A process at its file-descriptor limit runs every check itself."""
    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one = run_all(5).records
    open_fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "pipe", no_pipe)
    records = run_all(5).records
    _no_child_left()
    assert set(os.listdir("/proc/self/fd")) == open_fds
    assert [dataclasses.astuple(r) for r in records] == \
        [dataclasses.astuple(r) for r in one]


@pytest.mark.usefixtures("split_from_5")
def test_the_split_writes_nothing_and_imports_no_new_module():
    """The child leaves without flushing the stdout buffer it inherits,
    and records cross the pipe with marshal: pickle is not imported at
    all, and signal only when the parent's half raises."""
    code = ("import sys, fpaths; run_all = fpaths.run_all; "
            "fpaths.verify_harness._SPLIT_FROM_N = 5; "
            "before = set(sys.modules); "
            "sys.stdout.write('unflushed '); "
            "assert run_all(5).ok; "
            "print(sorted(set(sys.modules) - before))")
    buffered = {k: v for k, v in os.environ.items()
                if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=buffered)
    assert (proc.stdout, proc.stderr) == ("unflushed []\n", "")


# ------------------------------------------------------- split threshold


@pytest.mark.parametrize("max_n", [5, 6])
def test_the_shipped_threshold_runs_max_n_5_and_6_in_one_process(
        monkeypatch, max_n):
    """Below ``_SPLIT_FROM_N`` every family's psi runs in this process,
    the default ``verify --max-n 6`` included."""
    calls = _count_cores(monkeypatch)
    assert run_all(max_n).ok
    _no_child_left()
    assert _psi_tags(calls) == set(MAPPED)


def test_the_shipped_threshold_forks_from_max_n_7_on(monkeypatch):
    """A failed fork makes ``_split`` return None before any check runs,
    so this sees where a fork is tried without running one."""
    tried = []

    def fork():
        tried.append(max_n)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    for max_n in range(10):
        assert verify_harness._split([None] * (max_n + 1)) is None
    assert tried == [7, 8, 9]


def test_the_readme_states_the_shipped_threshold():
    """README's paragraph on the split names the threshold twice; both
    must be the constant the code runs on."""
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    stated = [int(k) for k in re.findall(
        r"(?:From|Below)\s+`--max-n\s+(\d+)`", text)]
    assert stated == [verify_harness._SPLIT_FROM_N] * 2
