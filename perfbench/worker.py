"""One measured benchmark process: set up, warm up, run the closed loop.

Started by run.py in a fresh interpreter, one at a time.  Prints one JSON
object with the raw measurements as its last line of output.

    python3 perfbench/worker.py --workload cyc-n5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --record-golden   # rewrite perfbench/golden.json

Run latency, throughput and set-up are measured in this process's CPU time
(user + system, `time.process_time`): on a shared virtual machine the
hypervisor steals a varying share of wall time (0 to 90 % of a run was
seen), while a single-threaded run that never waits uses the same CPU time
either way.  CPU time still moves with the speed the host gives the virtual
CPU (up to 2x within minutes), so each time is also scaled to a reference
speed: a fixed pure-Python kernel is timed between runs, and a run's CPU
time is multiplied by REFERENCE_S / (the kernel's CPU time around it).
The loop itself lasts `--seconds` of wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

REFERENCE_ITERATIONS = 4000
# The kernel's CPU time at the reference speed; scaled times are CPU times
# as they would read on a virtual CPU that runs the kernel in this time.
REFERENCE_S = 0.002


# The program under test is this checkout's source tree, never another copy.
sys.path.insert(0, SRC)
import lcmswarm  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, RunFailure, golden, no_wrap  # noqa: E402


def reference_kernel() -> float:
    """Fixed interpreter work: tuples, dict updates, float math and calls."""
    acc = 0.0
    table: dict[tuple[int, int], float] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0.0) + math.hypot(i * 0.5, key[1] - 3.0)
        acc += table[key]
    return acc


def reference_time() -> float:
    t0 = time.process_time()
    reference_kernel()
    return time.process_time() - t0


def timed_run(workload, ctx, inputs, workdir, errors):
    """CPU seconds one run took, or None if it failed."""
    t0 = time.process_time()
    try:
        workload.run(ctx, inputs, workdir)
    except RunFailure as exc:
        errors.append(str(exc))
        return None
    except Exception:  # an exception in the program is a failed run, not a crash
        errors.append(traceback.format_exc(limit=4))
        return None
    return time.process_time() - t0


def golden_check(workload, ctx, workdir) -> dict:
    with open(GOLDEN_PATH) as fh:
        recorded = json.load(fh).get(workload.name)
    try:
        got = golden(workload, ctx, workdir)
    except Exception:
        return {"ok": False, "detail": traceback.format_exc(limit=4)}
    if recorded is None:
        return {"ok": False, "detail": "no recorded golden values", "stats": got["stats"]}
    problems = []
    if got["digests"] != recorded["digests"]:
        bad = [i for i, (a, b) in enumerate(zip(got["digests"], recorded["digests"])) if a != b]
        problems.append(
            f"trace digests differ (traces {bad}, {len(got['digests'])} vs {len(recorded['digests'])})"
        )
    for key, want in recorded["stats"].items():
        if got["stats"].get(key) != want:
            problems.append(f"{key} is {got['stats'].get(key)}, recorded {want}")
    return {
        "ok": not problems,
        "detail": "; ".join(problems) or f"{len(got['digests'])} traces match",
        "stats": got["stats"],
    }


def traced_summary(tracer, latencies, traced_latencies, golden_result) -> dict:
    """Per-layer metrics and the time accounting of the traced runs."""
    runs = len(traced_latencies)
    overhead = 0.0
    if latencies and traced_latencies:
        overhead = (sum(latencies) / len(latencies)) / (sum(traced_latencies) / runs)
    breakdown = tracing.breakdown(tracer)
    return {
        "layers": tracing.layer_metrics(tracer, max(runs, 1), overhead, golden_result.get("stats", {})),
        "breakdown": breakdown,
        "traced_runs": runs,
        "span_sum_s": sum(self_s for _, _, self_s in breakdown),
        "root_s": sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans if parent < 0),
        "traced_cpu_s": sum(traced_latencies),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, setup_only: bool = False) -> dict:
    workload = WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        ctx = workload.build(no_wrap)
        tracer = tracing.Tracer() if trace else None
        traced_ctx = workload.build(tracer.wrap_step) if trace else None
        errors: list[str] = []
        warm = workload.input(seed, "warmup")
        if timed_run(workload, ctx, warm, workdir, errors) is None:
            raise RuntimeError(f"warm-up run failed: {errors[0]}")
        # CPU time since the interpreter started: start-up, imports, build, warm-up.
        setup_s = time.process_time() * REFERENCE_S / sorted(reference_time() for _ in range(3))[1]
        if setup_only:
            return {"setup_s": setup_s}

        if trace:
            tracer.install()
            try:
                timed_run(workload, traced_ctx, warm, workdir, errors)
            finally:
                tracer.uninstall()
            tracer.spans.clear()
            tracer.io_bytes.clear()

        latencies: list[float] = []
        scaled: list[float] = []
        traced_latencies: list[float] = []
        attempted = failed = 0
        start = time.perf_counter()
        deadline = start + seconds
        ref_before = reference_time()
        references = [ref_before]
        while True:
            inputs = workload.input(seed, attempted // 2 if trace else attempted)
            if trace and attempted % 2:
                # Traced half of a pair: same inputs as the untraced run before it.
                tracer.run_id = attempted // 2
                tracer.install()
                try:
                    with tracer.span(tracing.ROOT_SPAN):
                        took = timed_run(workload, traced_ctx, inputs, workdir, errors)
                finally:
                    tracer.uninstall()
                target = traced_latencies
            else:
                took = timed_run(workload, ctx, inputs, workdir, errors)
                target = latencies
            ref_after = reference_time()
            references.append(ref_after)
            attempted += 1
            if took is None:
                failed += 1
            else:
                target.append(took)
                if target is latencies:
                    scaled.append(took * 2.0 * REFERENCE_S / (ref_before + ref_after))
            ref_before = ref_after
            if time.perf_counter() >= deadline and not (trace and attempted % 2):
                break
        wall = time.perf_counter() - start

        result = {
            "setup_s": setup_s,
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:3],
            "wall_s": wall,
            "latencies_s": scaled,
            "cpu_latencies_s": latencies,
            "references_s": references,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["golden"] = golden_check(workload, ctx, workdir)
        if trace:
            result.update(traced_summary(tracer, latencies, traced_latencies, result["golden"]))
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans_path = os.path.join(SPANS_DIR, f"spans-{name}-seed{seed}.tsv")
            tracer.write(spans_path)
            result["spans_path"] = os.path.relpath(spans_path, ROOT)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_golden() -> None:
    out = {}
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        for name, workload in WORKLOADS.items():
            out[name] = golden(workload, workload.build(no_wrap), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(lcmswarm.__file__)) != os.path.join(SRC, "lcmswarm"):
        print(f"error: lcmswarm imported from {lcmswarm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
