"""Where a warm cyc-n5 run spends its time, measured in-process.

A warm run is one whose algorithm instance has already run thousands of
seeds, so its configuration graph is full and nearly every round is read
from it.  perfbench's traced run cannot show this split: its traced runs use
a fresh instance and so measure the graph filling.

Each measurement is one fresh interpreter that imports lcmswarm from the
given source directory, builds `alg_cyclic_cycles(5)` and
`cyc_initial_config(5)` once, draws schedule seeds from
`random.Random(12345)`, and runs `--warmup` untimed runs, then `--repeats`
blocks of `--runs` timed runs of 800 ssynch rounds.  Per block it prints the
mean per run of

- `generate_ms`: `scheduler.generate`, its prefix check included;
- `walk_ms`: `engine.run` over that prefix;
- `check_cyc_ms`: `problems.check_cyc` on the trace;
- `total_ms`: their sum.

Sides are measured in turn, one interpreter each, `--pairs` times over, so
a before/after comparison alternates its sides:

    python3 tools/warm_split.py --side parent=../parent/src --side change=src

prints one JSON object with each side's blocks.  With no `--side`, it
measures this checkout's `src`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

N = 5
ROUNDS = 50 * 2 ** (N - 1)  # one counter cycle, as perfbench's cyc-n5 runs
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def measure(warmup: int, runs: int, repeats: int) -> list[dict]:
    """The split of one interpreter, one dict per block of timed runs."""
    import random

    from lcmswarm import algorithms, engine, problems, scheduler

    algo, config = algorithms.alg_cyclic_cycles(N), algorithms.cyc_initial_config(N)
    seeds = random.Random(12345)
    clock = time.perf_counter

    def one_run() -> tuple[float, float, float]:
        seed = seeds.randrange(2**31)
        t0 = clock()
        prefix = scheduler.generate(scheduler.SSYNCH, N, ROUNDS, seed)
        t1 = clock()
        trace = engine.run(config, prefix, algo, seed=seed)
        t2 = clock()
        verdict = problems.check_cyc(trace, N)
        t3 = clock()
        if verdict.status == problems.REJECT:
            raise SystemExit(f"check_cyc rejected seed {seed}: {verdict.reason}")
        return t1 - t0, t2 - t1, t3 - t2

    for _ in range(warmup):
        one_run()
    blocks = []
    for _ in range(repeats):
        sums = [0.0, 0.0, 0.0]
        for _ in range(runs):
            for j, t in enumerate(one_run()):
                sums[j] += t
        gen, walk, check = (1000.0 * s / runs for s in sums)
        blocks.append({"total_ms": round(gen + walk + check, 3), "generate_ms": round(gen, 3),
                       "walk_ms": round(walk, 3), "check_cyc_ms": round(check, 3)})
    return blocks


def side_parser(doc: str) -> argparse.ArgumentParser:
    """The options of a tool that measures each side in its own interpreter."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--side", action="append", default=[], metavar="NAME=SRC",
                    help="a name and the source directory to import lcmswarm from (repeatable)")
    ap.add_argument("--pairs", type=int, default=1, help="how many times each side is measured")
    ap.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    return ap


def import_from(src: str) -> None:
    """Import lcmswarm from `src`, or exit if another copy comes first."""
    sys.path.insert(0, src)
    import lcmswarm

    if not lcmswarm.__file__.startswith(os.path.join(src, "")):
        raise SystemExit(f"imported lcmswarm from {lcmswarm.__file__}, not from {src}")


def sides_of(ap: argparse.ArgumentParser, args: argparse.Namespace) -> list[list[str]]:
    """Each --side as [name, src]; this checkout's src when none is given."""
    sides = [s.split("=", 1) for s in args.side] or [["this", REPO_SRC]]
    if any(len(s) != 2 for s in sides):
        ap.error("--side takes NAME=SRC")
    return sides


def alternate(script: str, sides: list[list[str]], pairs: int, child_args: list[str]) -> dict[str, list]:
    """Each side's child outputs, parsed as JSON: `script --child SRC` is run
    once per side in turn, `pairs` times over, one interpreter each."""
    out: dict[str, list] = {}
    for _ in range(pairs):
        for name, src in sides:
            child = subprocess.run(
                [sys.executable, os.path.abspath(script), "--child", os.path.abspath(src), *child_args],
                capture_output=True, text=True, check=True,
            )
            out.setdefault(name, []).append(json.loads(child.stdout))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = side_parser(__doc__)
    ap.add_argument("--warmup", type=int, default=3000)
    ap.add_argument("--runs", type=int, default=600)
    ap.add_argument("--repeats", type=int, default=2)
    args = ap.parse_args(argv)
    if args.child:
        import_from(args.child)
        print(json.dumps(measure(args.warmup, args.runs, args.repeats)))
        return 0
    sides = sides_of(ap, args)
    out: dict = {
        "instrument": (
            f"one interpreter per line: cyc-n5 in-process (alg_cyclic_cycles({N}), "
            f"cyc_initial_config({N}), ssynch, {ROUNDS} rounds, seeds from random.Random(12345)), "
            f"{args.warmup} warm-up runs, then {args.repeats} blocks of {args.runs} timed runs; "
            "generate_ms is scheduler.generate including its prefix check, walk_ms is engine.run "
            "on that prefix, check_cyc_ms is problems.check_cyc; means per run; sides alternate "
            + ", ".join(name for name, _ in sides)
        ),
    }
    child_args = ["--warmup", str(args.warmup), "--runs", str(args.runs), "--repeats", str(args.repeats)]
    for name, blocks in alternate(__file__, sides, args.pairs, child_args).items():
        out[name] = [block for child in blocks for block in child]
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
