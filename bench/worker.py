"""One workload in a fresh interpreter: set up, run batches, check outputs.

``run.py`` starts this script once per set-up sample and once per
measurement, so import cost and peak RSS belong to the workload.  It
reads a JSON config on stdin and writes one JSON result on stdout:

    {"workload": "verify" | "map-ring" | "count",
     "mode": "setup" | "measure" | "trace",
     "seconds": float, "inputs": {...}, "src": path, "trace_path": path}

A batch is the workload's fixed unit of work.  ``measure`` runs batches
until the next one would end after ``seconds``; ``trace`` alternates
untraced and traced batches for ``seconds``.  Every batch's output is checked
outside the timed region, and each failed check counts as failed
operations.

The speed of a shared host drifts by tens of percent over minutes, so
``setup`` and ``measure`` also time ``reference_seconds()``, fixed work
that runs no fpaths code: after set-up, and between every two batches.
``run.py`` divides each time by the reference time next to it.
"""
from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import re
import resource
import statistics
import sys
import traceback
from math import comb
from functools import partial
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Patches, SpanRecorder, layer_metrics  # noqa: E402

#: The map-ring route; every family is parsed and rendered once per object.
RING = ("fpath", "schroder", "bicolored", "perm", "inv-i", "inv-j", "tree",
        "fpath")

#: a_total(0..8), pinned independently of the package.
PINNED_TOTALS = (1, 2, 6, 21, 80, 322, 1347, 5798, 25512)

_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed, (\d+) total$")

#: Checksum of ``reference_seconds()``'s result, so that its work cannot change.
REFERENCE_CHECKSUM = 667956


def reference_seconds() -> float:
    """Seconds taken by a fixed piece of work that runs no fpaths code:
    some megabytes of tuples, dicts and strings like the family layers
    build, then big-integer binomials like ``counting``'s."""
    t0 = perf_counter()
    rows = [(i % 7, i % 11, i % 13, i) for i in range(200_000)]
    index: dict = {}
    for row in rows:
        index.setdefault(row[:3], []).append(row[3])
    words = sorted(",".join(map(str, row[:3])) for row in rows[::4])
    big = 0
    for k in range(600):
        big ^= comb(700 + k % 600, 350) * comb(500, k % 250)
    seconds = perf_counter() - t0
    check = sum(map(len, index.values())) + len(words) + big
    if check % 10_000_019 != REFERENCE_CHECKSUM:
        raise RuntimeError("reference_seconds() computed a wrong result")
    return seconds


def dispatch(cli, argv: list[str], stdin: str = "") -> tuple[int, str]:
    """``cli.cmd_dispatch(argv)`` with stdin and stdout swapped for
    strings.  The attribute is looked up per call so tracing sees it."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.cmd_dispatch(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# ---------------------------------------------------------------- gates


def verify_failures(code: int, text: str, expected: int) -> int:
    """Failed checks in one ``verify`` report that must read
    ``<expected> passed, 0 failed, <expected> total`` with exit code 0."""
    lines = text.strip().splitlines()
    match = _SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        return expected
    passed, failed, total = map(int, match.groups())
    bad = failed + abs(total - expected) + abs(passed - expected)
    if code != 0 or sum(line.startswith("FAIL") for line in lines) != failed:
        bad = max(bad, 1)
    return min(bad, expected)


def ring_failures(expected: list[str], got: list[str] | None) -> int:
    """Lines that did not come back byte for byte (all when a hop failed)."""
    if got is None or len(got) != len(expected):
        return len(expected)
    return sum(a != b for a, b in zip(expected, got))


def count_failures(result: dict, reference: dict) -> int:
    """Values in one count batch that break an identity.

    Each marginal row and the joint cube must sum to ``a_total(n)``, the
    cube's projection on h must equal the h-row, and the large-n values
    must equal the reference sums of independent closed forms."""
    bad = 0
    for n, rows in result["rows"].items():
        total = reference["totals"][n]
        bad += sum(len(row) for row in rows.values() if sum(row) != total)
    cube_n, cube = result["cube"]
    h_row = result["rows"][cube_n]["h"]
    projection = [sum(map(sum, plane)) for plane in cube]
    bad += sum(a != b for a, b in zip(projection, h_row))
    if sum(projection) != reference["totals"][cube_n]:
        bad = max(bad, 1)
    bad += sum(a != b for a, b in zip(result["big"], reference["big"]))
    return bad


# ------------------------------------------------------------ workloads


class Workload:
    """A batch is ``combine([part() for part in parts()])``.  The parts are
    timed one by one, so that reference work can run between them."""

    def parts(self) -> list:
        raise NotImplementedError

    def combine(self, results: list):
        return results[0]

    def batch(self):
        return self.combine([part() for part in self.parts()])


class Verify(Workload):
    """``fpaths verify --max-n N``: the paper's certificate."""

    def __init__(self, fpaths, inputs: dict):
        self.cli = importlib.import_module("fpaths.cli")
        self.argv = ["verify", "--max-n", str(inputs["max_n"])]
        self.items = inputs["checks"]

    def warm_up(self) -> None:
        dispatch(self.cli, ["verify", "--max-n", "1"])

    def parts(self) -> list:
        return [partial(dispatch, self.cli, self.argv)]

    def failures(self, result) -> int:
        return verify_failures(*result, self.items)

    def final_failures(self) -> int:
        return 0


class MapRing(Workload):
    """Seeded F-paths carried once around the ring of ``map`` hops, a group
    of lines at a time."""

    def __init__(self, fpaths, inputs: dict):
        self.cli = importlib.import_module("fpaths.cli")
        self.families = fpaths.FAMILIES
        self.fpath_stats = fpaths.fpath_stats
        self.lines = inputs["lines"]
        self.group = inputs["group"]
        self.paths = [self.families["fpath"].parse(line) for line in self.lines]
        self.items = len(self.lines) * (len(RING) - 1)

    def around(self, lines: list[str]) -> list[str] | None:
        text = "".join(line + "\n" for line in lines)
        for src, dst in zip(RING, RING[1:]):
            code, text = dispatch(self.cli, ["map", "--from", src, "--to", dst],
                                  text)
            if code != 0:
                return None
        return text.splitlines()

    def warm_up(self) -> None:
        prefix = self.lines[0].split()[:12]
        self.around([" ".join(prefix) or "-"])

    def parts(self) -> list:
        return [partial(self.around, self.lines[i:i + self.group])
                for i in range(0, len(self.lines), self.group)]

    def combine(self, results: list) -> list[str] | None:
        if any(lines is None for lines in results):
            return None
        return [line for lines in results for line in lines]

    def failures(self, result) -> int:
        return ring_failures(self.lines, result) * (len(RING) - 1)

    def final_failures(self) -> int:
        """Statistics transport, checked once and untimed."""
        bad = 0
        for q in self.paths:
            want = self.fpath_stats(q)[0]
            for tag in RING[:-1]:
                fam = self.families[tag]
                bad += fam.stats(fam.from_fpath(q)) != want
        return bad


class Count(Workload):
    """Closed-form counts; no family code runs.  One part per marginal-row
    n, one for the large-n values and one for the joint cube."""

    def __init__(self, fpaths, inputs: dict):
        self.counting = importlib.import_module("fpaths.counting")
        self.cube_n = inputs["cube_n"]
        self.row_ns = [*inputs["row_ns"], self.cube_n]
        self.big = [tuple(b) for b in inputs["big"]]
        self.items = (sum(3 * (n + 1) for n in self.row_ns)
                      + 4 * len(self.big) + (self.cube_n + 1) ** 3)
        self._reference = None

    def warm_up(self) -> None:
        c = self.counting
        c.a_total(20), c.a_marginal(20, h=5), c.a_marginal(20, l=5)
        c.a_marginal(20, m=5), c.a_joint(20, 5, 5, 5)

    def rows(self, n: int) -> dict:
        c = self.counting
        return {axis: [c.a_marginal(n, **{axis: v}) for v in range(n + 1)]
                for axis in "hlm"}

    def big_values(self) -> list:
        c = self.counting
        big = []
        for n, h, l, m in self.big:
            big += [c.a_total(n), c.a_marginal(n, h=h), c.a_marginal(n, l=l),
                    c.a_marginal(n, m=m)]
        return big

    def cube(self) -> list:
        c, n = self.counting, self.cube_n
        return [[[c.a_joint(n, h, l, m) for m in range(n + 1)]
                 for l in range(n + 1)]
                for h in range(n + 1)]

    def parts(self) -> list:
        return [*(partial(self.rows, n) for n in self.row_ns),
                self.big_values, self.cube]

    def combine(self, results: list) -> dict:
        *rows, big, cube = results
        return {"rows": dict(zip(self.row_ns, rows)), "big": big,
                "cube": (self.cube_n, cube)}

    def reference(self) -> dict:
        """Untimed expectations, from identities between closed forms."""
        if self._reference is None:
            c = self.counting
            big = []
            for n, h, l, m in self.big:
                big += [
                    sum(c.a_marginal(n, l=j) for j in range(n + 1)),
                    sum(c.a_marginal(n, h=h, l=j) for j in range(n + 1)),
                    sum(c.a_marginal(n, l=l, m=j) for j in range(n + 1)),
                    sum(c.a_marginal(n, l=j, m=m) for j in range(n + 1)),
                ]
            self._reference = {
                "totals": {n: c.a_total(n) for n in self.row_ns},
                "big": big,
            }
        return self._reference

    def failures(self, result) -> int:
        return count_failures(result, self.reference())

    def final_failures(self) -> int:
        got = tuple(self.counting.a_total(n) for n in range(9))
        return sum(a != b for a, b in zip(got, PINNED_TOTALS))


WORKLOADS = {"verify": Verify, "map-ring": MapRing, "count": Count}


# -------------------------------------------------------------- running


def run_batches(workload, seconds: float, with_reference: bool = False) -> dict:
    """Run batches until the next one would end after ``seconds``.

    With ``with_reference``, reference work runs after each part of every
    batch but the first, and ``norms`` holds those batches' times in units
    of the reference: the sum over the parts of the part's time divided by
    the mean of the reference times just before and just after it.
    ``rss_kb`` is read after the first batch, before any reference work,
    so that it is the workload's own peak."""
    times: list[float] = []
    norms: list[float] = []
    attempted = failed = 0
    rss_kb = ref_before = None
    start = perf_counter()
    while True:
        results, took, norm = [], 0.0, 0.0
        try:
            for part in workload.parts():
                gc.collect()
                t0 = perf_counter()
                results.append(part())
                part_s = perf_counter() - t0
                took += part_s
                if ref_before is not None:
                    ref_after = reference_seconds()
                    norm += part_s / ((ref_before + ref_after) / 2)
                    ref_before = ref_after
        except Exception:
            traceback.print_exc()
            times.append(took)
            attempted += workload.items
            failed += workload.items
            break
        times.append(took)
        if ref_before is not None:
            norms.append(norm)
        attempted += workload.items
        failed += workload.failures(workload.combine(results))
        if with_reference and ref_before is None:
            rss_kb = peak_rss_kb()
            ref_before = reference_seconds()
        elapsed = perf_counter() - start
        done = norms or not with_reference
        if done and elapsed + elapsed / len(times) > seconds:
            break
    out = {"times": times, "attempted": attempted, "failed": failed}
    if with_reference:
        out.update(norms=norms, rss_kb=rss_kb or peak_rss_kb())
    return out


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _add(total: dict, run: dict) -> None:
    for key in total:
        total[key] += run[key]


def trace_run(workload, seconds: float, trace_path: str | None) -> dict:
    """Untraced and traced batches in turn, so that both see the machine in
    the same state; per-layer metrics per traced batch."""
    recorder = SpanRecorder()
    plain = {"times": [], "attempted": 0, "failed": 0}
    traced = {"times": [], "attempted": 0, "failed": 0}
    start = perf_counter()
    while True:
        _add(plain, run_batches(workload, 0))
        with Patches(recorder):
            _add(traced, run_batches(workload, 0))
        pair = plain["times"][-1] + traced["times"][-1]
        if perf_counter() - start + pair > seconds:
            break
    batches = len(traced["times"])
    layers = layer_metrics(recorder, batches)
    layers["trace.overhead_s"] = statistics.median(
        t - p for p, t in zip(plain["times"], traced["times"]))
    share = recorder.top_level_seconds() / sum(traced["times"])
    if trace_path:
        path = Path(trace_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = recorder.spans[0][4] if recorder.spans else 0.0
        spans = [(sid, parent, op, name, round((start - t0) * 1e6),
                  round((end - t0) * 1e6))
                 for sid, parent, op, name, start, end in recorder.spans]
        path.write_text(json.dumps({"top_level_share": share,
                                    "metrics": layers,
                                    "span_fields": ["id", "parent", "op", "name",
                                                    "start_us", "end_us"],
                                    "spans": spans}, separators=(",", ":")))
    return {
        "times": plain["times"],
        "traced_times": traced["times"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "layers": layers,
        "top_level_share": share,
    }


def main() -> int:
    config = json.load(sys.stdin)
    src = Path(config["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    fpaths = importlib.import_module("fpaths")
    if src not in Path(fpaths.__file__).resolve().parents:
        print(f"worker: fpaths imported from {fpaths.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[config["workload"]](fpaths, config["inputs"])
    workload.warm_up()
    out = {"setup_s": perf_counter() - t0,
           "version": getattr(fpaths, "__version__", "unknown"),
           "items": workload.items}
    if config["mode"] == "setup":
        out["setup_ref_s"] = reference_seconds()
    elif config["mode"] == "measure":
        out.update(run_batches(workload, config["seconds"],
                               with_reference=True))
    elif config["mode"] == "trace":
        out.update(trace_run(workload, config["seconds"],
                             config.get("trace_path")))
    if config["mode"] != "setup":
        bad = workload.final_failures()
        out["failed"] = min(out["failed"] + bad, out["attempted"])
    out.setdefault("rss_kb", peak_rss_kb())
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
