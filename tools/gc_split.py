"""What CPython's cyclic garbage collector costs each perfbench workload.

Each measurement is one fresh interpreter that imports lcmswarm from the
given source directory and runs one of perfbench's workloads in it, as
`perfbench/workloads.py` defines it: `build`, then run i's `input` at
workload seed `--seed`, then `run`.  After `--warmup` uncounted runs it
times `--runs` runs with the collector as the interpreter starts it (on),
timing each collection through `gc.callbacks`; all times are wall time.  Per
workload it prints

- `ms_per_run`: the mean run;
- `gc_ms_per_run` and `collections`: collector time per run and the
  collections made, by generation;
- `gc_share`: collector time over run time;
- `started_in`: per innermost `lcmswarm` function on the stack when a
  collection started, its collections and ms per run ("-" for none);
- `unreachable`: what `gc.collect()` finds after `--runs` more runs made
  with the collector off, so 0 when the runs leave no cyclic garbage.

Sides are measured in turn, one interpreter per side and workload, `--pairs`
times over:

    python3 tools/gc_split.py --side parent=../parent/src --side change=src

prints one JSON object with each workload's measurements by side.  With no
`--side`, it measures this checkout's `src`; with no `--workload`, all four.
"""

from __future__ import annotations

import json
import os
import sys

from warm_split import alternate, import_from, side_parser, sides_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # holds perfbench/
WORKLOAD_NAMES = ("cyc-n5", "sim-n3", "swarm-n64", "sro-cli")


def measure(name: str, seed: int, warmup: int, runs: int) -> dict:
    """The collector's cost in one interpreter running workload `name`."""
    import collections
    import gc
    import shutil
    import tempfile
    import time

    import lcmswarm

    sys.path.insert(1, ROOT)
    from perfbench import workloads

    package = os.path.join(os.path.dirname(lcmswarm.__file__), "")
    workload = workloads.WORKLOADS[name]
    ctx = workload.build(workloads.no_wrap)
    workdir = tempfile.mkdtemp(prefix="gc_split_")
    clock = time.perf_counter
    counts = [0, 0, 0]
    spent = [0.0, 0.0, 0.0]
    started_in: collections.Counter = collections.Counter()
    started_ms: collections.Counter = collections.Counter()
    open_collection = []  # (its start time, where it started) while one runs

    def innermost() -> str:
        frame = sys._getframe(2)  # the frame whose allocation started the collection
        while frame is not None and not frame.f_code.co_filename.startswith(package):
            frame = frame.f_back
        if frame is None:
            return "-"
        return f"{frame.f_globals['__name__'].removeprefix('lcmswarm.')}.{frame.f_code.co_qualname}"

    def timed(phase: str, info: dict) -> None:
        if phase == "start":
            open_collection.append((clock(), innermost()))
            return
        t0, where = open_collection.pop()
        elapsed = clock() - t0
        counts[info["generation"]] += 1
        spent[info["generation"]] += elapsed
        started_in[where] += 1
        started_ms[where] += elapsed

    def one_run(i: int) -> None:
        workload.run(ctx, workload.input(seed, i), workdir)

    try:
        for i in range(warmup):
            one_run(i)
        gc.callbacks.append(timed)
        t0 = clock()
        for i in range(warmup, warmup + runs):
            one_run(i)
        wall = clock() - t0
        gc.callbacks.remove(timed)
        gc.collect()
        gc.disable()
        for i in range(warmup + runs, warmup + 2 * runs):
            one_run(i)
        unreachable = gc.collect()
        gc.enable()
    finally:
        shutil.rmtree(workdir)

    per_run = 1000.0 / runs if runs else 0.0
    return {
        "ms_per_run": round(wall * per_run, 3),
        "gc_ms_per_run": round(sum(spent) * per_run, 3),
        "collections": {f"gen{g}": counts[g] for g in range(3)},
        "gc_ms_per_run_by_generation": {f"gen{g}": round(spent[g] * per_run, 3) for g in range(3)},
        "gc_share": round(sum(spent) / wall, 4) if wall else 0.0,
        "started_in": {where: {"collections": started_in[where], "ms_per_run": round(ms * per_run, 3)}
                       for where, ms in started_ms.most_common()},
        "unreachable": unreachable,
    }


def main(argv: list[str] | None = None) -> int:
    ap = side_parser(__doc__)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="a perfbench workload to measure (repeatable; default all four)")
    ap.add_argument("--seed", type=int, default=7, help="perfbench's workload seed")
    ap.add_argument("--warmup", type=int, default=20)
    ap.add_argument("--runs", type=int, default=100)
    args = ap.parse_args(argv)
    if args.child:
        import_from(args.child)
        print(json.dumps(measure(args.workload[0], args.seed, args.warmup, args.runs)))
        return 0
    sides = sides_of(ap, args)
    out: dict = {
        "instrument": (
            f"one interpreter per side and workload: perfbench's workload, its runs' inputs at workload seed "
            f"{args.seed}; {args.warmup} uncounted runs, then {args.runs} timed with the collector on, "
            f"each collection timed through gc.callbacks (wall time), then {args.runs} with it off and "
            "one gc.collect(); sides alternate " + ", ".join(name for name, _ in sides)
        ),
    }
    for name in args.workload or WORKLOAD_NAMES:
        child_args = ["--workload", name, "--seed", str(args.seed), "--warmup", str(args.warmup),
                      "--runs", str(args.runs)]
        out[name] = alternate(__file__, sides, args.pairs, child_args)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
