"""The harness itself: reporting shapes and one generation per size."""
import dataclasses
import json
from collections import Counter

from fpaths.families import FAMILIES, TAGS
from fpaths.verify_harness import (
    CheckRecord,
    VerifyReport,
    run_all,
    verify_round_trips,
)


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
    objects = {tag: FAMILIES[tag].generate(3) for tag in TAGS}
    records = {r.name: r for r in verify_round_trips(3, objects)}
    bad = records["round-trip[perm] phi(psi(q)) == q"]
    assert (bad.ok, bad.detail) == (False, "0,1 0,1 0,1")
    assert records["round-trip[tree] phi(psi(q)) == q"].ok


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
