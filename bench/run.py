"""Benchmark of the fpaths package: end-to-end and per-layer timings.

    python3 bench/run.py --workload {verify,map-ring,count} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, so nothing needs installing.  The seed makes the workload's
inputs here; the worker processes receive only those inputs.

With ``--trace 0`` the end-to-end metrics are measured: ten fresh
interpreters each import the package and set the workload up (``setup_s``
is their median), and between the fifth and the sixth, another one runs
batches for ``--seconds`` (``wall_s`` is the median batch time,
``peak_rss_mb`` that process's peak RSS after its first batch).  Both times are given at a fixed machine speed: each
is divided by the time of ``worker.reference_seconds()`` measured next to
it in the same process, and multiplied by ``REFERENCE_S``.  The plain
medians are in the environment block.

With ``--trace 1`` one worker alternates untraced batches and batches
with spans recorded, and the per-layer metrics are printed; the spans
are written to ``.bench_out/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every output check passed, 1 when one failed, and 2 when the benchmark
could not run (no package, a worker crash or timeout); then no result
line is printed.  See README.md for the workloads and the
predictions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Fresh interpreters that only measure set-up, run before and again after
#: the one that also runs the timed batches, so that set-up is sampled at
#: both ends of the run on a machine whose speed drifts.
SETUP_SAMPLES_EACH_SIDE = 5

#: About the median time of ``worker.reference_seconds()`` on the machine
#: of the README's baseline, so that times read as seconds on that machine.
REFERENCE_S = 0.2

#: Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

#: Sizes of one batch per workload.  Tests run the same code with tiny ones.
SIZES = {
    "verify": {"max_n": 5, "checks": 303},
    "map-ring": {"objects": 8, "group": 2, "n": 48, "max_a": 2, "min_b": -1},
    "count": {"row_ns": (200, 240, 280, 316), "jitter": 4,
              "big_ns": (1000, 2000), "cube_n": 34},
}


def random_fpath(rng: random.Random, n: int, max_a: int, min_b: int) -> str:
    """A random walk of n F steps with 1 <= a <= max_a and b >= min_b,
    choosing uniformly among the steps that keep the height >= 0."""
    height = 0
    steps = []
    for _ in range(n):
        choices = [(0, 1)] + [
            (a, b)
            for a in range(1, max_a + 1)
            for b in range(min_b, 2)
            if height + b - a >= 0
        ]
        a, b = rng.choice(choices)
        height += b - a
        steps.append(f"{a},{b}")
    return " ".join(steps) if steps else "-"


def make_inputs(workload: str, seed: int, size: dict) -> dict:
    """The workload's inputs, a function of the seed alone."""
    rng = random.Random(seed)
    if workload == "verify":
        return dict(size)
    if workload == "map-ring":
        return {"lines": [random_fpath(rng, size["n"], size["max_a"],
                                       size["min_b"])
                          for _ in range(size["objects"])],
                "group": size["group"]}
    # The cost of a marginal row grows about as n^4, so each n is a fixed
    # base plus a small seeded jitter: inputs vary, the work stays level.
    jitter = size["jitter"]
    big = []
    for n in size["big_ns"]:
        h = n // 3 + rng.randint(-jitter, jitter)
        l = n // 2 + rng.randint(-jitter, jitter)
        m = rng.randint(0, 2 * jitter)
        big.append((n, h, l, m))
    return {
        "row_ns": [n + rng.randint(0, jitter) for n in size["row_ns"]],
        "big": big,
        "cube_n": size["cube_n"] + rng.randint(0, jitter),
    }


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(config: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER)],
            input=json.dumps(config), stdout=subprocess.PIPE, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout)


def git_head(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    env.pop("GIT_DIR", None)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args, argv: list[str], size: dict) -> tuple[dict, dict]:
    """Run the workers; returns (result line, environment block)."""
    deadline = time.monotonic() + DEADLINE_S
    src = ROOT / "src"
    if not (src / "fpaths" / "__init__.py").is_file():
        raise BenchError(f"no fpaths package under {src}")
    config = {
        "workload": args.workload,
        "seconds": args.seconds,
        "inputs": make_inputs(args.workload, args.seed, size),
        "src": str(src),
    }
    raw = {}
    if args.trace:
        trace_path = (ROOT / ".bench_out"
                      / f"trace-{args.workload}-{args.seed}.json")
        out = run_worker(dict(config, mode="trace",
                              trace_path=str(trace_path)), deadline)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in out["layers"].items()}
        share = out["top_level_share"]
        flag = "" if 0.95 <= share <= 1.0 else "  WARNING: does not add up"
        print(f"trace: top-level spans cover {share:.1%} of traced wall_s"
              f"{flag}; spans in {trace_path}", file=sys.stderr)
    else:
        def setup_samples():
            return [run_worker(dict(config, mode="setup"), deadline)
                    for _ in range(SETUP_SAMPLES_EACH_SIDE)]

        setups = setup_samples()
        out = run_worker(dict(config, mode="measure"), deadline)
        setups += setup_samples()
        wall = statistics.median(out["norms"]) * REFERENCE_S
        setup = statistics.median(
            s["setup_s"] / s["setup_ref_s"] for s in setups) * REFERENCE_S
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": out["rss_kb"] / 1024, "unit": "MB"},
        }
        raw = {"wall_s": statistics.median(out["times"]),
               "setup_s": statistics.median(s["setup_s"] for s in setups),
               "reference_s": statistics.median(
                   s["setup_ref_s"] for s in setups)}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    env = {
        "python": platform.python_version(),
        "fpaths_version": out["version"],
        "git_head": git_head(ROOT),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "argv": argv,
        "items_per_batch": out["items"],
        "batches": len(out["times"]) + len(out.get("traced_times", ())),
        "unnormalised_medians_s": raw,
    }
    return result, env


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("per_pair"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=SIZES) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        result, env = measure(args, argv, sizes[args.workload])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} "
          f"items/batch={env['items_per_batch']} batches={env['batches']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6f} {m['unit']}")
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6f}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _terminate(signum, frame):
    # Raised inside subprocess.run, this kills and reaps the running worker.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
