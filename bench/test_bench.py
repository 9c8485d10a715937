"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""
import dataclasses
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

TINY = {
    "verify": {"max_n": 2, "checks": 177},
    "map-ring": {"objects": 3, "group": 2, "n": 8, "max_a": 2, "min_b": -1},
    "count": {"row_ns": (12, 16), "jitter": 2, "big_ns": (40,), "cube_n": 5},
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload, trace, sizes=TINY):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds",
                     "0.2", "--trace", str(trace)], sizes=sizes)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["env"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.SIZES))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_emits_every_metric(capsys, workload, trace):
    code, env, result = run_tiny(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(NAME.fullmatch(name) for name in got)
    assert env["seed"] == 7 and env["workload"] == workload


def test_spec_names_match_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.SIZES)


def test_inputs_depend_on_the_seed_alone():
    for workload in run.SIZES:
        one = run.make_inputs(workload, 3, run.SIZES[workload])
        assert one == run.make_inputs(workload, 3, run.SIZES[workload])
    assert (run.make_inputs("map-ring", 3, run.SIZES["map-ring"])
            != run.make_inputs("map-ring", 4, run.SIZES["map-ring"]))


def _targets():
    """Identity of every name the traced run may replace."""
    fpaths = importlib.import_module("fpaths")
    ids = {tag: id(info) for tag, info in fpaths.FAMILIES.items()}
    for mod_name, attr, _ in tracing.ATTR_TARGETS:
        module = importlib.import_module(f"fpaths.{mod_name}")
        ids[(mod_name, attr)] = id(getattr(module, attr))
    return ids


def test_traced_run_restores_every_wrapped_name():
    fpaths = importlib.import_module("fpaths")
    before = _targets()
    recorder = tracing.SpanRecorder()
    with tracing.Patches(recorder):
        assert _targets().keys() == before.keys()
        assert all(_targets()[key] != before[key] for key in before)
        for name in sorted(run.SIZES):
            inputs = run.make_inputs(name, 1, TINY[name])
            wl = worker.WORKLOADS[name](fpaths, inputs)
            assert worker.run_batches(wl, 0)["failed"] == 0
    assert _targets() == before
    assert recorder.spans and all(span is not None for span in recorder.spans)
    assert not any(hasattr(info.parse, "__wrapped__")
                   for info in fpaths.FAMILIES.values())


def test_restore_happens_when_the_traced_batch_raises():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.Patches(tracing.SpanRecorder()):
            raise RuntimeError
    assert _targets() == before


def test_every_timed_batch_is_set_against_the_reference():
    fpaths = importlib.import_module("fpaths")
    wl = worker.Count(fpaths, run.make_inputs("count", 1, TINY["count"]))
    out = worker.run_batches(wl, 0, with_reference=True)
    assert len(out["times"]) == len(out["norms"]) + 1 == 2
    assert all(norm > 0 for norm in out["norms"]) and out["rss_kb"] > 0
    assert "norms" not in worker.run_batches(wl, 0)


def test_parts_make_up_the_batch():
    fpaths = importlib.import_module("fpaths")
    inputs = run.make_inputs("map-ring", 1, TINY["map-ring"])
    wl = worker.MapRing(fpaths, inputs)
    assert len(wl.parts()) == 2
    assert wl.batch() == wl.lines == wl.around(wl.lines)


def test_self_time_excludes_children():
    rec = tracing.SpanRecorder()
    rec.spans += [(0, -1, 1, "outer", 0.0, 10.0), (1, 0, 1, "inner", 2.0, 5.0),
                  (2, 0, 1, "inner", 6.0, 7.0), (3, 1, 1, "leaf", 3.0, 4.0)]
    seconds, calls = rec.self_times()
    assert seconds == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert rec.top_level_seconds() == 10.0


# ----------------------------------------------------------------- gates


def test_verify_gate_trips_on_a_corrupted_report():
    good = "PASS  something\n177 passed, 0 failed, 177 total\n"
    assert worker.verify_failures(0, good, 177) == 0
    assert worker.verify_failures(0, good.replace("177 passed", "176 passed"),
                                  177) > 0
    assert worker.verify_failures(1, good, 177) > 0
    assert worker.verify_failures(0, "", 177) == 177


def test_ring_gate_trips_on_a_changed_line():
    fpaths = importlib.import_module("fpaths")
    inputs = run.make_inputs("map-ring", 1, TINY["map-ring"])
    wl = worker.MapRing(fpaths, inputs)
    assert wl.failures(wl.batch()) == 0
    info = fpaths.FAMILIES["fpath"]
    fpaths.FAMILIES["fpath"] = dataclasses.replace(
        info, from_fpath=lambda q: q + ((0, 1),))
    try:
        assert wl.failures(wl.batch()) == wl.items
    finally:
        fpaths.FAMILIES["fpath"] = info


def test_count_gate_trips_on_a_corrupted_value():
    fpaths = importlib.import_module("fpaths")
    wl = worker.Count(fpaths, run.make_inputs("count", 1, TINY["count"]))
    result = wl.batch()
    assert wl.failures(result) == 0 and wl.final_failures() == 0
    result["rows"][wl.row_ns[0]]["m"][3] += 1
    result["big"][1] -= 1
    assert wl.failures(result) == wl.row_ns[0] + 1 + 1


def test_a_failed_gate_makes_the_command_fail(capsys):
    sizes = dict(TINY, verify={"max_n": 2, "checks": 178})
    code, _, result = run_tiny(capsys, "verify", 0, sizes)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
