"""Spans for the traced benchmark run, taken from outside the program.

A traced run wraps public functions of lcmswarm at the module attribute its
caller looks up, and wraps each `Algorithm.step` through
`dataclasses.replace`.  Spans (name, start, end, parent, run id) are kept in
memory and written out when the benchmark ends.  Span times are CPU time of
the process, like every other time the benchmark reports.  A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans in a run add up to the run's root span.

Calls that reach a function through any other reference are not spanned and
stay in their caller's self time: `cli.main` reaches `problems.check_sro`
only through the private table `cli._CHECKERS`, and `problems.check_cyc`
calls its own import of `decode_cyc_pattern`.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time
from collections import defaultdict

# (module, attribute, span name).  The first group is what the benchmark
# itself calls; the second is what the program calls inside itself.
PATCH_POINTS = (
    ("lcmswarm.engine", "run", "engine.run"),
    ("lcmswarm.engine", "write_trace", "engine.write_trace"),
    ("lcmswarm.engine", "read_trace", "engine.read_trace"),
    ("lcmswarm.problems", "check_cyc", "problems.check_cyc"),
    ("lcmswarm.scheduler", "validate", "scheduler.validate"),
    ("lcmswarm.scheduler", "check_fair", "scheduler.check_fair"),
    ("lcmswarm.simulators", "extract_induced_schedule", "simulators.extract_induced_schedule"),
    ("lcmswarm.simulators", "monitor_properties", "simulators.monitor_properties"),
    ("lcmswarm.simulators", "verify_inner_fidelity", "simulators.verify_inner_fidelity"),
    ("lcmswarm.cli", "main", "cli.main"),
    ("lcmswarm.engine", "snapshot", "core.snapshot"),
    ("lcmswarm.engine", "run_round", "engine.run_round"),
    ("lcmswarm.engine", "generate", "scheduler.generate"),
    ("lcmswarm.algorithms", "decode_cyc_pattern", "algorithms.decode_cyc_pattern"),
    ("lcmswarm.simulators", "run", "engine.run"),
    ("lcmswarm.cli", "run", "engine.run"),
    ("lcmswarm.cli", "write_trace", "engine.write_trace"),
    ("lcmswarm.cli", "read_trace", "engine.read_trace"),
)

# Position of the trace-file path among each I/O function's arguments.
_IO_PATH_ARG = {"engine.write_trace": 1, "engine.read_trace": 0}

ROOT_SPAN = "run"
HASH_SPAN = "bench.hash_snapshot"
# Distinct step inputs are counted over this many traced runs, as a
# process-wide step cache would see them, so the ratio does not depend on
# how many runs fit in the measured time.
DISTINCT_RUNS = 10

# name: (unit, better).  Every value is per traced run unless it says
# otherwise; the simulated statistics come from the golden traces.
PER_LAYER = {
    "core.snapshot.calls": ("count", "lower"),
    "core.snapshot.self_ms": ("ms", "lower"),
    "core.snapshot.us_per_call": ("us", "lower"),
    "algorithms.step.calls": ("count", "lower"),
    "algorithms.step.self_ms": ("ms", "lower"),
    "algorithms.step.distinct_ratio": ("ratio", "lower"),
    "algorithms.decode_cyc_pattern.calls": ("count", "lower"),
    "algorithms.decode_cyc_pattern.self_ms": ("ms", "lower"),
    "engine.run.self_ms": ("ms", "lower"),
    "engine.run_round.calls": ("count", "lower"),
    "engine.run_round.self_ms": ("ms", "lower"),
    "engine.write_trace.self_ms": ("ms", "lower"),
    "engine.write_trace.mb_per_s": ("MB/s", "higher"),
    "engine.read_trace.self_ms": ("ms", "lower"),
    "engine.read_trace.mb_per_s": ("MB/s", "higher"),
    "engine.trace_bytes": ("bytes", "lower"),
    "engine.activations": ("count", "lower"),
    "engine.moves": ("count", "lower"),
    "engine.light_changes": ("count", "lower"),
    "scheduler.generate.self_ms": ("ms", "lower"),
    "scheduler.validate.self_ms": ("ms", "lower"),
    "scheduler.check_fair.self_ms": ("ms", "lower"),
    "simulators.sim-rs-by-s.step.self_ms": ("ms", "lower"),
    "simulators.sim-lumi-by-fcom.step.self_ms": ("ms", "lower"),
    "simulators.sim-rs-by-s.step.distinct_ratio": ("ratio", "lower"),
    "simulators.sim-lumi-by-fcom.step.distinct_ratio": ("ratio", "lower"),
    "simulators.inner_exec_ratio": ("ratio", "higher"),
    "simulators.monitor_properties.self_ms": ("ms", "lower"),
    "simulators.verify_inner_fidelity.self_ms": ("ms", "lower"),
    "simulators.extract_induced_schedule.self_ms": ("ms", "lower"),
    "problems.check_cyc.self_ms": ("ms", "lower"),
    "problems.check_sro.self_ms": ("ms", "lower"),
    "problems.cyc_ok_ratio": ("ratio", "higher"),
    "cli.main.self_ms": ("ms", "lower"),
    "bench.unspanned_ms": ("ms", "lower"),
    "traced_run_ms": ("ms", "lower"),
    "trace_overhead_ratio": ("ratio", "higher"),
}

# Span names whose calls and self time are reported per layer.
_SELF_MS = (
    "core.snapshot", "algorithms.step", "algorithms.decode_cyc_pattern", "engine.run",
    "engine.run_round", "engine.write_trace", "engine.read_trace", "scheduler.generate",
    "scheduler.validate", "scheduler.check_fair", "simulators.sim-rs-by-s.step",
    "simulators.sim-lumi-by-fcom.step", "simulators.monitor_properties",
    "simulators.verify_inner_fidelity", "simulators.extract_induced_schedule",
    "problems.check_cyc", "problems.check_sro", "cli.main",
)
_CALLS = ("core.snapshot", "algorithms.step", "algorithms.decode_cyc_pattern", "engine.run_round")
_DISTINCT = ("algorithms.step", "simulators.sim-rs-by-s.step", "simulators.sim-lumi-by-fcom.step")


class _Span:
    __slots__ = ("tracer", "name", "idx", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.idx)
        self.t0 = time.process_time()
        return self

    def __exit__(self, *exc):
        t1 = time.process_time()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.idx] = (self.name, self.t0, t1, self.parent, tr.run_id)
        return False


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self.run_id = -1
        # Hashes of the Snapshots each step saw.  Holding the snapshots
        # themselves keeps them alive and makes the collector walk them.
        self.step_inputs: dict[str, set[int]] = defaultdict(set)
        self.io_bytes: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, name: str, fn):
        path_arg = _IO_PATH_ARG.get(name)

        def traced(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if path_arg is not None:
                self.io_bytes[name] += os.path.getsize(args[path_arg])
            return result

        return traced

    def wrap_step(self, name: str, algo):
        """The algorithm with its step function recorded under `name`."""
        step = algo.step
        seen = self.step_inputs[name]

        def traced_step(snap):
            if 0 <= self.run_id < DISTINCT_RUNS:
                with _Span(self, HASH_SPAN):
                    seen.add(hash(snap))
            with _Span(self, name):
                return step(snap)

        return dataclasses.replace(algo, step=traced_step)

    def install(self) -> None:
        """Wrap every patch point; `uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer patches are already installed")
        for module_name, attr, name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        cli = importlib.import_module("lcmswarm.cli")
        build = cli.build_algorithm
        self._saved.append((cli, "build_algorithm", build))
        cli.build_algorithm = lambda *a, **kw: self.wrap_step("algorithms.step", build(*a, **kw))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Write every span as tab-separated run, name, start, end, parent."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("run\tname\tstart_s\tend_s\tparent\n")
            for name, t0, t1, parent, run in self.spans:
                fh.write(f"{run}\t{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{parent}\n")


def self_times(spans) -> dict[str, list]:
    """name -> [calls, self seconds] over the given complete spans."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (t1 - t0) - child[i]
    return out


def layer_metrics(tracer: Tracer, runs: int, overhead_ratio: float, golden_stats: dict) -> dict:
    """Per-layer metric values from the spans of `runs` traced runs."""
    table = self_times(tracer.spans)

    def calls(name):
        return table.get(name, (0, 0.0))[0]

    def self_s(name):
        return table.get(name, (0, 0.0))[1]

    values = {}
    for name in _SELF_MS:
        values[f"{name}.self_ms"] = 1000.0 * self_s(name) / runs
    for name in _CALLS:
        values[f"{name}.calls"] = calls(name) / runs
    for name in _DISTINCT:
        n = sum(1 for s in tracer.spans if s[0] == name and 0 <= s[4] < DISTINCT_RUNS)
        values[f"{name}.distinct_ratio"] = len(tracer.step_inputs[name]) / n if n else 0.0
    n = calls("core.snapshot")
    values["core.snapshot.us_per_call"] = 1e6 * self_s("core.snapshot") / n if n else 0.0
    for name in ("engine.write_trace", "engine.read_trace"):
        busy = self_s(name)
        values[f"{name}.mb_per_s"] = tracer.io_bytes[name] / 1e6 / busy if busy else 0.0
    values["bench.unspanned_ms"] = 1000.0 * self_s(ROOT_SPAN) / runs
    root = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans if parent < 0)
    values["traced_run_ms"] = 1000.0 * root / runs
    values["trace_overhead_ratio"] = overhead_ratio
    for name, key in (
        ("engine.trace_bytes", "trace_bytes"),
        ("engine.activations", "activations"),
        ("engine.moves", "moves"),
        ("engine.light_changes", "light_changes"),
        ("simulators.inner_exec_ratio", "inner_exec_ratio"),
        ("problems.cyc_ok_ratio", "cyc_ok_ratio"),
    ):
        values[name] = golden_stats.get(key, 0)
    return values


def breakdown(tracer: Tracer) -> list[tuple[str, int, float]]:
    """(span name, calls, self seconds) for every span name, largest first."""
    table = self_times(tracer.spans)
    return sorted(((k, v[0], v[1]) for k, v in table.items()), key=lambda r: -r[2])
