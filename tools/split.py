"""Where lcmswarm's Look-Compute-Move rounds spend their time, one question per mode.

    python3 tools/split.py MODE [--side NAME=SRC ...] [--pairs K] [MODE's flags]

MODE is `warm`, `graph`, `gc` or `look`; `split.py MODE --help` says what it
measures and lists its flags.  Each measurement is one fresh interpreter, a
child, that imports lcmswarm from a side's source directory (this checkout's
`src` when no `--side` is given).  Sides are measured in turn, `--pairs` times
over, so a before/after comparison alternates them:

    python3 tools/split.py warm --side parent=../parent/src --side change=src

prints one JSON object, {"mode", "instrument", "sides": {NAME: [child output,
...]}}, each child output a dict of the mode's own keys.  Modes `graph` and
`gc` run perfbench's workloads as `perfbench/workloads.py` defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # holds src/ and perfbench/
REPO_SRC = os.path.join(ROOT, "src")
N = 5
ROUNDS = 50 * 2 ** (N - 1)  # one counter cycle, as perfbench's cyc-n5 runs
WORKLOAD_NAMES = ("cyc-n5", "sim-n3", "swarm-n64", "sro-cli")
SHAPES = ("2x2", "3x3", "5x5", "8x2", "8x8", "64x64")
EXTENT = 100.0


def measure_warm(args: argparse.Namespace) -> dict:
    """Where a warm cyc-n5 run spends its time, measured in-process.

    A warm run is one whose algorithm instance has already run thousands of
    seeds, so its configuration graph is full and nearly every round is read
    from it.  perfbench's traced runs cannot show this split: they use a fresh
    instance and so measure the graph filling.

    The child builds `alg_cyclic_cycles(5)` and `cyc_initial_config(5)` once,
    draws schedule seeds from `random.Random(12345)`, and runs `--warmup`
    untimed runs, then `--repeats` blocks of `--runs` timed runs of 800 ssynch
    rounds.  Under `blocks`, it gives per block the mean per run of
    `generate_ms` (`scheduler.generate`, whose prefix skips `SchedulePrefix`'s
    range check), `walk_ms` (`engine.run` over that prefix), `check_cyc_ms`
    (`problems.check_cyc` on the trace) and `total_ms`, their sum."""
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

    for _ in range(args.warmup):
        one_run()
    blocks = []
    for _ in range(args.repeats):
        sums = [0.0, 0.0, 0.0]
        for _ in range(args.runs):
            for j, t in enumerate(one_run()):
                sums[j] += t
        gen, walk, check = (1000.0 * s / args.runs for s in sums)
        blocks.append({"total_ms": round(gen + walk + check, 3), "generate_ms": round(gen, 3),
                       "walk_ms": round(walk, 3), "check_cyc_ms": round(check, 3)})
    return {"blocks": blocks}


def _counts(yielded: int, executed: int, states: int) -> dict:
    ratio = 1.0 - executed / yielded if yielded else 0.0
    return {"yielded": yielded, "executed": executed, "hit_ratio": round(ratio, 4), "states": states}


def measure_graph(args: argparse.Namespace) -> dict:
    """How many of a process's rounds it reads from the configuration graph.

    The child runs perfbench's `--workload`, cyc-n5 (one instance) or sim-n3
    (six pipelines: both wrappers over stay, move-east and tricolor, each
    inner instance shared by its two wrappers and by the fidelity check), run
    i's input at workload seed `--seed`, and the checks of every trace.  After
    `--warmup` uncounted runs, it counts `--runs` runs; `--warmup 0` counts
    the graph's fill.  `engine.run_round` is wrapped from outside and counts
    the rounds each instance executes; a trace's length, or for an inner
    instance its induced rounds, counts the rounds it yielded.  Per instance
    it gives `yielded`, `executed` (rounds that `run_round` made, the rest
    read from the graph), `hit_ratio` (1 - executed / yielded) and `states`
    (what its graphs hold at the end); then the same over all instances,
    `ConfigGraph.kept` and `_GRAPH_ENTRIES`."""
    import collections

    from lcmswarm import engine, simulators

    sys.path.insert(1, ROOT)
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.build(workloads.no_wrap)
    # (the instance each trace comes from, the inner instance it simulates or None)
    pipelines = [(p.wrapper, p.inner) for p in ctx] if args.workload == "sim-n3" else [(ctx[0], None)]
    instances = {}
    for algo, inner in pipelines:
        if inner is None:
            instances[algo.name] = algo
        else:
            instances[f"{algo.name}/{inner.name}"] = algo
            instances[f"fidelity/{inner.name}"] = inner

    executed: collections.Counter = collections.Counter()  # by id() of the instance
    yielded: collections.Counter = collections.Counter()
    real = engine.run_round

    def counted(*args):  # run_round(config, eset, algo, ...), as _execute calls it
        executed[id(args[2])] += 1
        return real(*args)

    engine.run_round = counted
    for i in range(args.warmup + args.runs):
        if i == args.warmup:
            executed.clear()
        traces = workload.run(ctx, workload.input(args.seed, i), None)
        if i >= args.warmup:
            for (algo, inner), trace in zip(pipelines, traces):
                yielded[id(algo)] += len(trace.rounds)
                if inner is not None:
                    yielded[id(inner)] += len(simulators.extract_induced_schedule(trace).sets)
    engine.run_round = real

    out = {}
    for label, algo in instances.items():
        states = sum(len(g.states) for g in algo._graphs.values())
        out[label] = _counts(yielded[id(algo)], executed[id(algo)], states)
    out["all"] = _counts(*(sum(c[key] for c in out.values()) for key in ("yielded", "executed", "states")))
    out["all"]["executed_per_run"] = round(out["all"]["executed"] / args.runs, 1)
    out["kept"], out["graph_entries"] = engine.ConfigGraph.kept, engine._GRAPH_ENTRIES
    return out


def measure_gc(args: argparse.Namespace) -> dict:
    """What CPython's cyclic garbage collector costs each perfbench workload.

    One child per side and workload (all four when no `--workload` is given)
    runs it as `perfbench/workloads.py` defines it: `build`, then run i's
    `input` at workload seed `--seed`, then `run`.  After `--warmup` uncounted
    runs it times `--runs` runs with the collector as the interpreter starts
    it (on), timing each collection through `gc.callbacks`; all times are wall
    time.  It gives `workload`, its name; `ms_per_run`, the mean run;
    `gc_ms_per_run` and `collections`, collector time per run and the
    collections made, by generation; `gc_share`, collector time over run time;
    `started_in`, per innermost `lcmswarm` function on the stack when a
    collection started, its collections and ms per run ("-" for none); and
    `unreachable`, what `gc.collect()` finds after `--runs` more runs made with
    the collector off, so 0 when the runs leave no cyclic garbage."""
    import collections
    import gc
    import shutil
    import tempfile

    import lcmswarm

    sys.path.insert(1, ROOT)
    from perfbench import workloads

    name, runs = args.workload[0], args.runs
    package = os.path.join(os.path.dirname(lcmswarm.__file__), "")
    workload = workloads.WORKLOADS[name]
    ctx = workload.build(workloads.no_wrap)
    workdir = tempfile.mkdtemp(prefix="split_gc_")
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
        workload.run(ctx, workload.input(args.seed, i), workdir)

    try:
        for i in range(args.warmup):
            one_run(i)
        gc.callbacks.append(timed)
        t0 = clock()
        for i in range(args.warmup, args.warmup + runs):
            one_run(i)
        wall = clock() - t0
        gc.callbacks.remove(timed)
        gc.collect()
        gc.disable()
        for i in range(args.warmup + runs, args.warmup + 2 * runs):
            one_run(i)
        unreachable = gc.collect()
        gc.enable()
    finally:
        shutil.rmtree(workdir)

    per_run = 1000.0 / runs
    return {
        "workload": name,
        "ms_per_run": round(wall * per_run, 3),
        "gc_ms_per_run": round(sum(spent) * per_run, 3),
        "collections": {f"gen{g}": counts[g] for g in range(3)},
        "gc_ms_per_run_by_generation": {f"gen{g}": round(spent[g] * per_run, 3) for g in range(3)},
        "gc_share": round(sum(spent) / wall, 4) if wall else 0.0,
        "started_in": {where: {"collections": started_in[where], "ms_per_run": round(ms * per_run, 3)}
                       for where, ms in started_ms.most_common()},
        "unreachable": unreachable,
    }


def measure_look(args: argparse.Namespace) -> dict:
    """What one Look costs, by swarm size and observers per configuration.

    Per shape, given as LOCATIONSxOBSERVERS (the six default shapes when no
    `--shape` is given), the child builds random configurations of that many
    distinct locations (coordinates uniform in [-100, 100], tricolor's
    palette, seeded per shape) and times `--repeats` blocks after one untimed
    one.  In a block, robots 0..OBSERVERS-1 of each configuration in turn Look
    at it, as the robots activated in one round do: `core.snapshot` under LUMI
    and strong multiplicity, each through its identity frame at its own
    position, each filling a fresh geometry list, and reading its `observed`,
    so a Look that defers its positions until read still builds them all.
    Per shape it gives the mean microseconds per Look of each block over about
    `--looks` Looks (`us_per_look`) and their median (`median_us`)."""
    import random
    import statistics

    from lcmswarm import core

    out = {}
    for shape in args.shape or SHAPES:
        locations, observers = map(int, shape.split("x"))
        rng = random.Random(f"look_split:{shape}")  # the configurations BENCH_30.json timed
        configs = []
        for _ in range(max(1, args.looks // observers)):
            points = [core.Point(rng.uniform(-EXTENT, EXTENT), rng.uniform(-EXTENT, EXTENT))
                      for _ in range(locations)]
            lights = [core.LightTuple((rng.randrange(3),), (3,)) for _ in points]
            config = core.make_configuration(points, lights, (3,))
            configs.append((config, [core.LocalFrame(p) for p in points[:observers]]))
        snapshot, lumi, strong = core.snapshot, core.ModelKind.LUMI, core.Multiplicity.STRONG
        blocks = []
        for _ in range(args.repeats + 1):
            t0 = time.perf_counter()
            for config, frames in configs:
                for rid, frame in enumerate(frames):
                    snapshot(lumi, config, rid, frame, strong, []).observed
            elapsed = time.perf_counter() - t0
            blocks.append(round(1e6 * elapsed / (len(configs) * observers), 3))
        out[shape] = blocks[1:]  # the first block warms the interpreter up
    return {"us_per_look": out, "median_us": {s: round(statistics.median(b), 3) for s, b in out.items()}}


def parse_shape(text: str) -> str:
    """A LOCATIONSxOBSERVERS shape, checked."""
    parts = text.split("x")
    if len(parts) != 2 or not all(p.isdigit() for p in parts) or not 1 <= int(parts[1]) <= int(parts[0]):
        raise argparse.ArgumentTypeError(
            f"takes LOCATIONSxOBSERVERS with 1 <= OBSERVERS <= LOCATIONS, got {text}")
    return text


@dataclass(frozen=True)
class Mode:
    """One question: what one child measures (its docstring says what) and
    the mode's own flags."""

    measure: Callable[[argparse.Namespace], dict]
    flags: dict[str, dict]  # each flag and its add_argument keywords
    each: str | None = None  # a repeatable flag each of whose values gets its own children


def count(text: str) -> int:
    """A count of at least 1, checked."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"takes a count of at least 1, got {text}")
    return int(text)


def _int(default: int, help: str | None = None, type: Callable[[str], int] = int) -> dict:
    return {"type": type, "default": default, "help": help}


SEED = _int(7, "perfbench's workload seed")
MODES = {
    "warm": Mode(measure_warm, {"--warmup": _int(3000), "--runs": _int(600, type=count),
                                "--repeats": _int(2, type=count)}),
    "graph": Mode(measure_graph, {"--workload": {"choices": ("cyc-n5", "sim-n3"), "default": "sim-n3",
                                                 "help": "the perfbench workload to run (default sim-n3)"},
                                  "--seed": SEED, "--warmup": _int(600), "--runs": _int(200, type=count)}),
    "gc": Mode(measure_gc,
               {"--workload": {"action": "append", "choices": WORKLOAD_NAMES,
                               "help": "a perfbench workload to measure (repeatable; default all four)"},
                "--seed": SEED, "--warmup": _int(20), "--runs": _int(100, type=count)},
               each="--workload"),
    "look": Mode(measure_look,
                 {"--shape": {"action": "append", "type": parse_shape, "metavar": "LOCATIONSxOBSERVERS",
                              "help": "a swarm shape to time (repeatable; default " + ", ".join(SHAPES) + ")"},
                  "--looks": _int(20000, "Looks per shape and block, about", count),
                  "--repeats": _int(3, type=count)}),
}


def parser() -> argparse.ArgumentParser:
    """The command line: one subcommand per mode, each with the shared flags."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = ap.add_subparsers(dest="mode", required=True, metavar="MODE")
    for name, mode in MODES.items():
        doc = mode.measure.__doc__
        sub = modes.add_parser(name, help=doc.split("\n")[0], description=doc.replace("\n    ", "\n"),
                               formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.add_argument("--side", action="append", default=[], metavar="NAME=SRC",
                         help="a name and the source directory to import lcmswarm from (repeatable)")
        sub.add_argument("--pairs", type=int, default=1, help="how many times each side is measured")
        sub.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
        for flag, keywords in mode.flags.items():
            sub.add_argument(flag, **keywords)
    return ap


def import_from(src: str) -> None:
    """Import lcmswarm from `src`, or exit if another copy comes first."""
    sys.path.insert(0, src)
    import lcmswarm

    if not lcmswarm.__file__.startswith(os.path.join(src, "")):
        raise SystemExit(f"imported lcmswarm from {lcmswarm.__file__}, not from {src}")


def child_argvs(mode: Mode, args: argparse.Namespace) -> list[list[str]]:
    """The flags of each child of one side, rebuilt from `args`: every mode flag
    as given or by default, a repeatable one once per value, except that each
    value of `mode.each` (each of its choices when none is given) has its own child."""
    argv, each = [], [[]]
    for flag, keywords in mode.flags.items():
        values = getattr(args, flag[2:])
        values = values if isinstance(values, list) else [] if values is None else [values]
        if flag == mode.each:
            each = [[flag, v] for v in values or keywords["choices"]]
        else:
            argv += [t for v in values for t in (flag, str(v))]
    return [argv + e for e in each]


def main(argv: list[str] | None = None) -> int:
    ap = parser()
    args = ap.parse_args(argv)
    mode = MODES[args.mode]
    if args.child:
        import_from(args.child)
        print(json.dumps(mode.measure(args)))
        return 0
    sides = [s.split("=", 1) for s in args.side] or [["this", REPO_SRC]]
    if any(len(s) != 2 for s in sides):
        ap.error("--side takes NAME=SRC")
    children = child_argvs(mode, args)
    out = {
        "mode": args.mode,
        "instrument": mode.measure.__doc__.split("\n")[0] + " One interpreter per child output: "
                      + "; ".join(f"split.py {args.mode} --child SRC " + " ".join(c) for c in children)
                      + "; sides alternate " + ", ".join(name for name, _ in sides),
        "sides": {name: [] for name, _ in sides},
    }
    for child_args in children:
        for _ in range(args.pairs):
            for name, src in sides:
                child = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), args.mode, "--child", os.path.abspath(src),
                     *child_args],
                    capture_output=True, text=True, check=True,
                )
                out["sides"][name].append(json.loads(child.stdout))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
