"""Span recording for the traced benchmark run.

The recorder wraps public callables of the ``fpaths`` package from the
outside: it replaces module attributes and ``FAMILIES`` entries with
timing wrappers, and puts every original back when the traced run ends.
Nothing inside ``src/`` is edited, so untraced runs execute the package
unmodified.

A span is ``(id, parent, op, name, start, end)``.  ``parent`` is the id of
the enclosing span, or -1 at top level; ``op`` numbers the top-level
span (one ``cmd_dispatch`` call, one counting call) that caused it.
Self time is a span's duration minus the time its direct children
cover; with one thread the children never overlap.
"""
from __future__ import annotations

import dataclasses
import importlib
import operator
from collections import defaultdict
from time import perf_counter

#: Family tag -> the module name used in metric names.
FAMILY_MODULES = {
    "fpath": "fpath_core",
    "schroder": "schroder_paths",
    "bicolored": "bicolored_dyck",
    "perm": "pattern_perms",
    "inv-i": "inversion_seqs.I",
    "inv-j": "inversion_seqs.J",
    "tree": "weighted_trees",
}

#: ``FamilyInfo`` fields that are wrapped, one span name each.
FAMILY_OPS = ("generate", "parse", "to_fpath", "from_fpath", "stats",
              "render", "direct_sum")

#: (module under ``fpaths``, attribute, span name).  Each attribute is
#: wrapped where the named module looks it up, so a span measures the
#: callable "as seen by" that module.
ATTR_TARGETS = (
    ("cli", "cmd_dispatch", "cli.cmd_dispatch"),
    ("cli", "render_object", "families.render_object"),
    ("cli", "a_marginal", "counting.a_marginal"),
    ("verify_harness", "render_object", "families.render_object"),
    ("verify_harness", "gen_fpaths", "fpath_core.generate"),
    ("verify_harness", "fpath_stats", "fpath_core.stats"),
    ("verify_harness", "fpath_decompose", "fpath_core.decompose"),
    ("verify_harness", "involution_phi_F", "fpath_core.involution"),
    ("verify_harness", "a_joint", "counting.a_joint"),
    ("verify_harness", "a_total", "counting.a_total"),
    ("verify_harness", "verify_equinumerous", "verify_harness.equinumerous"),
    ("verify_harness", "verify_round_trips", "verify_harness.round_trips"),
    ("verify_harness", "verify_statistics", "verify_harness.statistics"),
    ("verify_harness", "verify_direct_sums", "verify_harness.direct_sums"),
    ("verify_harness", "verify_pinned_examples", "verify_harness.pinned"),
    ("counting", "a_total", "counting.a_total"),
    ("counting", "a_marginal", "counting.a_marginal"),
    ("counting", "a_joint", "counting.a_joint"),
)


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for module in FAMILY_MODULES.values():
        for op in FAMILY_OPS:
            names += [f"{module}.{op}.s", f"{module}.{op}.calls"]
        names.append(f"{module}.generate.objects")
    for op in ("decompose", "involution"):
        names += [f"fpath_core.{op}.s", f"fpath_core.{op}.calls"]
    names += ["families.render_object.s", "families.render_object.calls"]
    for fn in ("a_total", "a_marginal", "a_joint"):
        names += [f"counting.{fn}.s", f"counting.{fn}.calls"]
    for group in ("equinumerous", "round_trips", "statistics", "direct_sums",
                  "pinned"):
        names.append(f"verify_harness.{group}.s")
    names += ["verify_harness.generate_calls_per_pair", "cli.self_s",
              "trace.overhead_s"]
    return names


class SpanRecorder:
    """Keeps spans in memory; :meth:`wrap` makes a recording wrapper."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.generated: dict[str, int] = defaultdict(int)
        self.generate_pairs: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, func, generate: bool = False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self.op += 1
            op = self.op
            stack.append(sid)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, op, name, start, end)
            if generate:
                n = args[0] if args else kwargs.get("n")
                self.generate_pairs.add((name, n))
                self.generated[name] += len(result)
            return result

        traced.__wrapped__ = func
        return traced

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (total self seconds, call count)."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, _, _, name, start, end in self.spans:
            seconds[name] += (end - start) - child_time[sid]
            calls[name] += 1
        return seconds, calls

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, _, _, start, end in self.spans
                   if parent < 0)


class Patches:
    """Installs wrappers on the package and restores every original."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list = []

    def install(self) -> None:
        fpaths = importlib.import_module("fpaths")
        for mod_name, attr, span in ATTR_TARGETS:
            try:
                module = importlib.import_module(f"fpaths.{mod_name}")
            except ImportError:
                continue
            if hasattr(module, attr):
                original = getattr(module, attr)
                setattr(module, attr, self.recorder.wrap(
                    span, original, generate=span.endswith(".generate")))
                self._undo.append((setattr, module, attr, original))
        families = getattr(fpaths, "FAMILIES", {})
        for tag, module in FAMILY_MODULES.items():
            info = families.get(tag)
            if info is None:
                continue
            wrapped = {
                op: self.recorder.wrap(f"{module}.{op}", getattr(info, op),
                                       generate=op == "generate")
                for op in FAMILY_OPS if hasattr(info, op)
            }
            families[tag] = dataclasses.replace(info, **wrapped)
            self._undo.append((operator.setitem, families, tag, info))

    def restore(self) -> None:
        while self._undo:
            put, target, key, original = self._undo.pop()
            put(target, key, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(recorder: SpanRecorder, batches: int) -> dict[str, float]:
    """Per-layer metrics per batch, for every name of :func:`per_layer_names`
    except ``trace.overhead_s`` (which needs the untraced wall time)."""
    seconds, calls = recorder.self_times()
    generate_calls = sum(c for name, c in calls.items()
                         if name.endswith(".generate"))
    pairs = len(recorder.generate_pairs)
    out = {}
    for metric in per_layer_names():
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = seconds.get(base, 0.0) / batches
        elif kind == "calls":
            out[metric] = calls.get(base, 0) / batches
        elif kind == "objects":
            out[metric] = recorder.generated.get(base, 0) / batches
    out["cli.self_s"] = seconds.get("cli.cmd_dispatch", 0.0) / batches
    out["verify_harness.generate_calls_per_pair"] = (
        generate_calls / batches / pairs if pairs else 0.0)
    return out
