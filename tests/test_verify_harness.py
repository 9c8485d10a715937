"""The harness itself: reporting shapes, one generation per size and
one phi per object, one psi per path, and the split of the checks
between the process and one forked child."""
import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from fpaths import verify_harness
from fpaths.errors import FormViolation, WeightOutOfRange
from fpaths.families import FAMILIES, TAGS
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


def test_psi_image_outside_the_family_is_a_fail_record(monkeypatch):
    """The harness runs the trusted phi only on family members, so a psi
    that leaves the family gives a FAIL record, not a crash in phi."""
    info = FAMILIES["perm"]
    monkeypatch.setitem(FAMILIES, "perm", dataclasses.replace(
        info, psi=lambda q: (2, 3, 4, 1)))  # contains 2341
    sizes = [size_data(n) for n in range(4)]
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
    """The direct-sum records' ``decompose`` closes over the unwrapped
    cores, so its phi and psi calls are not counted."""
    calls = _count_cores(monkeypatch)
    assert run_all(max_n=4).ok
    want = Counter()
    for n in range(5):
        paths = len(FAMILIES["fpath"].generate(n))
        for tag in MAPPED:
            want["phi", tag, n] = len(FAMILIES[tag].generate(n))
            want["psi", tag, n] = paths
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


def test_swapped_psi_pair_gives_the_known_fail_lines(monkeypatch):
    """A psi that swaps the inv-i members 0,0,1 and 0,1,0 fails the two
    round trips at n = 2 and the two direct-sum records wherever a
    component maps to a swapped member; statistics do not read psi."""
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
        "FAIL  n=3  direct-sum[inv-i] decompose_I inverts the fold  "
        "[0,1 0,1 1,0]",
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


def test_split_is_not_taken_below_the_threshold(monkeypatch):
    calls = _count_cores(monkeypatch)
    assert run_all(verify_harness._SPLIT_FROM_N - 1).ok
    assert _psi_tags(calls) == set(MAPPED)


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


def test_an_error_with_attributes_keeps_them_across_the_pipe(monkeypatch):
    _raise_in_psi(monkeypatch, "bicolored",
                  lambda pid: WeightOutOfRange(pid, 7, 2))
    with pytest.raises(WeightOutOfRange) as caught:
        run_all(5)
    _no_child_left()
    exc = caught.value
    assert exc.vertex == os.getpid()
    assert (exc.weight, exc.outdeg) == (7, 2)
    assert str(exc) == f"vertex {exc.vertex} has weight 7, expected 1..2"


def test_an_unpicklable_error_in_the_child_comes_back_named(monkeypatch):
    class Local(Exception):
        pass

    _raise_in_psi(monkeypatch, "inv-i", lambda pid: Local("boom"))
    with pytest.raises(Local, match="^boom$") as caught:
        run_all(5)
    _no_child_left()
    assert type(caught.value) is Local


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


@pytest.mark.parametrize("exc", [FormViolation, KeyboardInterrupt])
def test_an_error_in_the_parent_kills_and_reaps_the_child(monkeypatch, exc):
    assert "perm" not in verify_harness._CHILD_TAGS
    _raise_in_psi(monkeypatch, "perm", lambda pid: exc("parent half"))
    with pytest.raises(exc, match="^parent half$"):
        run_all(6)
    _no_child_left()


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


def test_the_split_writes_nothing_and_imports_no_new_module():
    """The child leaves without flushing the stdout buffer it inherits,
    and records cross the pipe with marshal: pickle is not imported at
    all, and signal only when the parent's half raises."""
    code = ("import sys, fpaths; before = set(sys.modules); "
            "sys.stdout.write('unflushed '); "
            "assert fpaths.run_all(5).ok; "
            "print(sorted(set(sys.modules) - before))")
    buffered = {k: v for k, v in os.environ.items()
                if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=buffered)
    assert (proc.stdout, proc.stderr) == ("unflushed []\n", "")
