"""How many of sim-n3's rounds a warm process reads from the configuration graph.

Each measurement is one fresh interpreter that imports lcmswarm from the
given source directory and runs perfbench's sim-n3 workload in it, as
`perfbench/workloads.py` defines it: its six pipelines (both wrappers over
stay, move-east and tricolor, each inner instance shared by its two wrappers
and by the fidelity check), run i's input at workload seed `--seed`, and the
checks of every trace.  After `--warmup` uncounted runs, it counts `--runs`
runs.  `engine.run_round` is wrapped from outside and counts the rounds each
instance executes; a trace's length, or for an inner instance its induced
rounds, counts the rounds it yielded.  Per instance it prints

- `yielded`: rounds in its traces;
- `executed`: rounds that `run_round` made, the rest read from the graph;
- `hit_ratio`: 1 - executed / yielded;
- `states`: the states its graphs hold at the end;

then the same over all instances, `ConfigGraph.kept` and `_GRAPH_ENTRIES`.
Sides are measured in turn, one interpreter each, `--pairs` times over:

    python3 tools/graph_split.py --side parent=../parent/src --side change=src

prints one JSON object with each side's counts.  With no `--side`, it
measures this checkout's `src`.
"""

from __future__ import annotations

import json
import os
import sys

from warm_split import alternate, import_from, side_parser, sides_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # holds perfbench/


def _counts(yielded: int, executed: int, states: int) -> dict:
    ratio = 1.0 - executed / yielded if yielded else 0.0
    return {"yielded": yielded, "executed": executed, "hit_ratio": round(ratio, 4), "states": states}


def measure(seed: int, warmup: int, runs: int) -> dict:
    """The graph counts of one interpreter."""
    import collections

    from lcmswarm import engine, simulators

    sys.path.insert(1, ROOT)
    from perfbench import workloads

    sim = workloads.WORKLOADS["sim-n3"]
    pipelines = sim.build(workloads.no_wrap)
    instances = {}
    for p in pipelines:
        instances[f"{p.wrapper.name}/{p.inner.name}"] = p.wrapper
        instances[f"fidelity/{p.inner.name}"] = p.inner

    executed: collections.Counter = collections.Counter()  # by id() of the instance
    yielded: collections.Counter = collections.Counter()
    real = engine.run_round

    def counted(*args):  # run_round(config, eset, algo, ...), as _execute calls it
        executed[id(args[2])] += 1
        return real(*args)

    engine.run_round = counted
    for i in range(warmup + runs):
        if i == warmup:
            executed.clear()
        traces = sim.run(pipelines, sim.input(seed, i), None)
        if i >= warmup:
            for p, trace in zip(pipelines, traces):
                yielded[id(p.wrapper)] += len(trace.rounds)
                yielded[id(p.inner)] += len(simulators.extract_induced_schedule(trace).sets)
    engine.run_round = real

    out = {}
    for label, algo in instances.items():
        states = sum(len(graph.states) for graph in algo._graphs.values())
        out[label] = _counts(yielded[id(algo)], executed[id(algo)], states)
    out["all"] = _counts(*(sum(c[key] for c in out.values()) for key in ("yielded", "executed", "states")))
    out["all"]["executed_per_run"] = round(out["all"]["executed"] / runs, 1) if runs else 0.0
    out["kept"], out["graph_entries"] = engine.ConfigGraph.kept, engine._GRAPH_ENTRIES
    return out


def main(argv: list[str] | None = None) -> int:
    ap = side_parser(__doc__)
    ap.add_argument("--seed", type=int, default=7, help="perfbench's workload seed")
    ap.add_argument("--warmup", type=int, default=600)
    ap.add_argument("--runs", type=int, default=200)
    args = ap.parse_args(argv)
    if args.child:
        import_from(args.child)
        print(json.dumps(measure(args.seed, args.warmup, args.runs)))
        return 0
    sides = sides_of(ap, args)
    out: dict = {
        "instrument": (
            f"one interpreter per entry: perfbench's sim-n3 workload, its runs' inputs at workload seed "
            f"{args.seed}; {args.warmup} uncounted runs, then {args.runs} counted; "
            "executed counts engine.run_round calls per instance, yielded the rounds of its traces; "
            "sides alternate " + ", ".join(name for name, _ in sides)
        ),
    }
    child_args = ["--seed", str(args.seed), "--warmup", str(args.warmup), "--runs", str(args.runs)]
    out.update(alternate(__file__, sides, args.pairs, child_args))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
