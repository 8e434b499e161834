"""lcmswarm benchmark: one closed-loop client, one workload per invocation.

    python3 perfbench/run.py --workload cyc-n5 --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from the checkout's `src/`.
With --trace 0 it prints every end-to-end metric, with --trace 1 every
per-layer metric; the last line of output is one JSON object.  Each
measured process is a fresh interpreter started here, one at a time.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# The keys of workloads.WORKLOADS; this process never imports the program.
WORKLOAD_NAMES = ("cyc-n5", "sim-n3", "swarm-n64", "sro-cli")

# name: (unit, better)
END_TO_END = {
    "runs_per_s": ("1/s", "higher"),
    "run_ms_p50": ("ms", "lower"),
    "run_ms_tail": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Set-up is measured in this many fresh interpreters and reported as the
# median; the measured process is one of them.
SETUPS = 5
# Runs that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# A worker may run this much longer than --seconds (set-up, golden check).
WORKER_SLACK_S = 120


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker interpreter to completion and parse its result."""
    cmd = [sys.executable, WORKER, *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still has
    TAIL_BEYOND runs beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def is_correct(result: dict) -> bool:
    """Every timed run verified and the golden traces and counts unchanged."""
    return result["failed"] == 0 and result["golden"]["ok"]


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat = [1000.0 * s for s in result["latencies_s"]]
    cpu = result["cpu_latencies_s"]
    ok = result["attempted"] - result["failed"]
    values = {
        "runs_per_s": ok / sum(result["latencies_s"]) if lat else 0.0,
        "run_ms_p50": statistics.median(lat) if lat else 0.0,
        "ok_ratio": ok / result["attempted"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"fail_ratio = {result['failed'] / result['attempted']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} runs failed)",
        f"times are the worker's CPU time scaled to the reference speed; unscaled: "
        f"{ok / sum(cpu) if cpu else 0.0:.6g} runs per CPU second, "
        f"p50 {1000.0 * statistics.median(cpu) if cpu else 0.0:.6g} ms, "
        f"{ok / result['wall_s']:.6g} runs per wall second; reference kernel median "
        f"{1000.0 * statistics.median(result['references_s']):.4g} ms",
    ]
    if lat:
        values["run_ms_tail"], pct, n = tail(lat)
        notes.append(f"run_ms_tail is p{pct:.1f} of {n} runs")
    else:
        values["run_ms_tail"] = 0.0
    notes.append("setup_s samples (scaled): " + ", ".join(f"{s:.4f}" for s in setups))
    return values, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    runs = result["traced_runs"]
    cpu = result["root_s"]
    notes = [
        f"{runs} traced runs; spans written to {result['spans_path']}",
        "problems.check_sro is reached only through cli._CHECKERS, so its time "
        "is in cli.main.self_ms and problems.check_sro.self_ms reads 0",
        f"self times of all spans add up to {result['span_sum_s']:.6f} s; "
        f"traced runs took {cpu:.6f} s (root spans), {result['traced_cpu_s']:.6f} s (timed)",
        "layer breakdown (self CPU ms per traced run, share of traced run time):",
    ]
    for name, calls, self_s in result["breakdown"]:
        share = self_s / cpu if cpu else 0.0
        notes.append(f"  {name:45s} {calls / max(runs, 1):11.1f} calls "
                     f"{1000.0 * self_s / max(runs, 1):11.3f} ms {100.0 * share:6.2f} %")
    return result["layers"], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "lcmswarm", "__init__.py")):
        print(f"error: no lcmswarm source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    timeout = args.seconds + WORKER_SLACK_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(spawn(common + ["--setup-only"], WORKER_SLACK_S)["setup_s"])
        result = spawn(common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], timeout)
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        values, notes = per_layer(result)
        units = PER_LAYER
    else:
        values, notes = end_to_end(result, setups)
        units = END_TO_END
    golden = result["golden"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"runs: {result['attempted']} attempted, {result['failed']} failed")
    for err in result["errors"]:
        print(f"failed run: {err}")
    print(f"golden digest and simulated statistics: {'match' if golden['ok'] else 'DIFFER'} ({golden['detail']})")
    for name, (unit, _) in units.items():
        print(f"{name} = {values.get(name, float('nan')):.6g} {unit}")
    for note in notes:
        print(note)
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()}
    print(json.dumps({
        "correct": is_correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
