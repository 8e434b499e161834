"""The four benchmark workloads, their inputs and their correctness checks.

Every input is derived from the workload seed and the run index, so the same
seed gives the same inputs; the program receives only the generated schedule
seeds and positions.  A run returns the traces it produced (as Trace objects
or as trace files the CLI wrote) and raises RunFailure on a wrong verdict.

The benchmark calls the program only through module attributes
(`engine.run`, `cli.main`, ...), so a traced run can wrap them in place.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from lcmswarm import algorithms, cli, core, engine, problems, scheduler, simulators


class RunFailure(Exception):
    """A run completed but its output failed verification."""


@dataclass(frozen=True)
class Workload:
    name: str
    # How many runs of the default seed (0) the golden digest covers.
    golden_runs: int
    # build(wrap_step) -> context; wrap_step(span name, Algorithm) -> Algorithm.
    build: Callable
    # make_input(rng) -> the inputs of one run.
    make_input: Callable
    # run(context, inputs, workdir) -> list of Trace objects or trace paths.
    run: Callable

    def input(self, seed: int, index) -> object:
        return self.make_input(random.Random(f"{self.name}:{seed}:{index}"))


def no_wrap(_name, algo):
    return algo


def _schedule_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# cyc-n5: cyclic circles over one full counter cycle (50 * 2**(n-1) rounds,
# as in acceptance criterion 3).  Compute, and decode_cyc_pattern in
# particular, does most of the work, and most step inputs repeat.

CYC_N = 5
CYC_ROUNDS = 50 * 2 ** (CYC_N - 1)


def _cyc_build(wrap_step):
    algo = wrap_step("algorithms.step", algorithms.alg_cyclic_cycles(CYC_N))
    return algo, algorithms.cyc_initial_config(CYC_N)


def _cyc_run(ctx, seed, workdir):
    algo, config = ctx
    trace = engine.run(config, scheduler.SSYNCH, algo, rounds=CYC_ROUNDS, seed=seed)
    verdict = problems.check_cyc(trace, CYC_N)
    if verdict.status == problems.REJECT:
        raise RunFailure(f"check_cyc rejected seed {seed} at round {verdict.round}: {verdict.reason}")
    return [trace]


# sim-n3: both meta-simulators over stay, move-east and tricolor at n=3 with
# identity frames, each followed by the pipeline of acceptance criteria 4
# and 5.  Simulator steps, monitors and fidelity replay do the work.

SIM_N = 3
SIM_POSITIONS = tuple(core.Point(50.0 * i, 7.0 * (i % 2)) for i in range(SIM_N))


@dataclass(frozen=True)
class _Pipeline:
    inner: object
    wrapper: object
    config: object
    host: str
    rounds: int
    induced_kind: str
    window: int
    min_induced: int


def _sim_build(wrap_step):
    pipelines = []
    for make_inner in (algorithms.alg_stay, algorithms.alg_move_east, algorithms.alg_tricolor):
        inner = wrap_step("algorithms.step", make_inner())
        rs = wrap_step("simulators.sim-rs-by-s.step", simulators.sim_rs_by_s(inner))
        lumi = wrap_step(
            "simulators.sim-lumi-by-fcom.step", simulators.sim_lumi_by_fcom(inner, SIM_N)
        )
        for wrapper, host, rounds, induced_kind, min_induced in (
            (rs, scheduler.SSYNCH, 110, scheduler.RSYNCH, 3),
            (lumi, scheduler.RSYNCH, 240, scheduler.SSYNCH, SIM_N),
        ):
            config = core.make_configuration(list(SIM_POSITIONS), palette=wrapper.palette)
            pipelines.append(
                _Pipeline(inner, wrapper, config, host, rounds, induced_kind, 2 * SIM_N, min_induced)
            )
    return pipelines


def check_simulation(pipeline: _Pipeline, trace) -> None:
    """The checks of acceptance criteria 4 and 5 on one simulator trace."""
    label = f"{pipeline.wrapper.name}/{pipeline.inner.name} seed {trace.header.seed}"
    induced = simulators.extract_induced_schedule(trace)
    if len(induced.sets) < pipeline.min_induced:
        raise RunFailure(f"{label}: only {len(induced.sets)} induced rounds")
    report = scheduler.validate(induced, pipeline.induced_kind)
    if not report.ok:
        raise RunFailure(f"{label}: induced schedule invalid at {report.round}: {report.rule}")
    fairness = scheduler.check_fair(induced, pipeline.window)
    if not fairness.ok:
        raise RunFailure(f"{label}: induced schedule unfair: {fairness.violations[:2]}")
    violations = simulators.monitor_properties(trace)
    if violations:
        raise RunFailure(f"{label}: monitor: {violations[0]}")
    mismatches = simulators.verify_inner_fidelity(trace, pipeline.inner)
    if mismatches:
        raise RunFailure(f"{label}: fidelity: {mismatches[0]}")


def _sim_run(pipelines, seed, workdir):
    traces = []
    for p in pipelines:
        trace = engine.run(p.config, p.host, p.wrapper, rounds=p.rounds, seed=seed)
        check_simulation(p, trace)
        traces.append(trace)
    return traces


# swarm-n64: tricolor with 64 robots at seeded random positions under fsynch.
# Look does most of the work (64 observers x 64 robots per round), every step
# input is distinct, and the traces are wide; each is written, read back and
# compared.

SWARM_N = 64
SWARM_ROUNDS = 20
SWARM_EXTENT = 100.0


def _swarm_build(wrap_step):
    return wrap_step("algorithms.step", algorithms.alg_tricolor())


def _swarm_input(rng):
    points = [
        core.Point(rng.uniform(-SWARM_EXTENT, SWARM_EXTENT), rng.uniform(-SWARM_EXTENT, SWARM_EXTENT))
        for _ in range(SWARM_N)
    ]
    return _schedule_seed(rng), points


def _swarm_run(algo, inputs, workdir):
    seed, points = inputs
    config = core.make_configuration(points, palette=algo.palette)
    trace = engine.run(config, scheduler.FSYNCH, algo, rounds=SWARM_ROUNDS, seed=seed)
    path = os.path.join(workdir, "swarm.trace")
    engine.write_trace(trace, path)
    if engine.read_trace(path) != trace:
        raise RunFailure(f"swarm seed {seed}: trace read back differs from the trace written")
    return [trace]


# sro-cli: the shrinking rotation driven in-process through cli.main, `run`
# then `check`.  Trace-file writing and reading and the CLI do most of the
# work; Look and Compute are trivial at n=2.

SRO_ROUNDS = 200


def _sro_input(rng):
    # Two robots at least 0.1 apart, as in acceptance criterion 1.
    while True:
        a = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        if math.dist(a, b) > 0.1:
            return _schedule_seed(rng), a, b


def _sro_run(_ctx, inputs, workdir):
    seed, a, b = inputs
    out = os.path.join(workdir, "sro.trace")
    run_argv = [
        "run", "--algo", "sro", "--scheduler", "rsynch", "--rounds", str(SRO_ROUNDS),
        "--seed", str(seed), f"--positions={a[0]!r},{a[1]!r} {b[0]!r},{b[1]!r}", "--out", out,
    ]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        ran = cli.main(run_argv)
        checked = cli.main(["check", "--problem", "sro", "--trace", out]) if ran == 0 else None
    if ran != 0 or checked != 0:
        raise RunFailure(f"sro seed {seed}: run exit {ran}, check exit {checked}: {captured.getvalue()!r}")
    return [out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cyc-n5", 3, _cyc_build, _schedule_seed, _cyc_run),
        Workload("sim-n3", 2, _sim_build, _schedule_seed, _sim_run),
        Workload("swarm-n64", 1, _swarm_build, _swarm_input, _swarm_run),
        Workload("sro-cli", 4, lambda _wrap: None, _sro_input, _sro_run),
    )
}


def trace_counts(trace) -> dict[str, int]:
    """Simulated statistics of one trace, read from the trace alone."""
    activations = moves = light_changes = inner_execs = 0
    prev = trace.initial
    for rnd in trace.rounds:
        activations += len(rnd.eset)
        for (_, p, lt), (_, q, mt) in zip(prev.entries, rnd.config.entries):
            moves += p != q
            light_changes += lt != mt
        inner_execs += sum("inner-exec" in evs for evs in rnd.events.values())
        prev = rnd.config
    return {
        "activations": activations,
        "moves": moves,
        "light_changes": light_changes,
        "inner_execs": inner_execs,
    }


def golden(workload: Workload, ctx, workdir: str) -> dict:
    """Digests and simulated statistics of the default seed's first runs.

    Each trace is serialized with write_trace (the CLI's own file for
    sro-cli) and hashed with SHA-256.
    """
    digests = []
    totals = {"activations": 0, "moves": 0, "light_changes": 0, "trace_bytes": 0}
    inner_execs = sim_activations = cyc_ok = cyc_runs = 0
    path = os.path.join(workdir, "golden.trace")
    for index in range(workload.golden_runs):
        for art in workload.run(ctx, workload.input(0, index), workdir):
            if isinstance(art, str):
                trace = engine.read_trace(art)
                with open(art, "rb") as fh:
                    data = fh.read()
            else:
                trace = art
                engine.write_trace(trace, path)
                with open(path, "rb") as fh:
                    data = fh.read()
            digests.append(hashlib.sha256(data).hexdigest())
            totals["trace_bytes"] += len(data)
            counts = trace_counts(trace)
            for key in ("activations", "moves", "light_changes"):
                totals[key] += counts[key]
            if trace.header.algo.startswith("sim-"):
                inner_execs += counts["inner_execs"]
                sim_activations += counts["activations"]
            if trace.header.algo == "cyclic-cycles":
                cyc_runs += 1
                verdict = problems.check_cyc(trace, trace.initial.n)
                cyc_ok += verdict.status == problems.OK
    totals["inner_exec_ratio"] = inner_execs / sim_activations if sim_activations else 0.0
    totals["cyc_ok_ratio"] = cyc_ok / cyc_runs if cyc_runs else 0.0
    return {"runs": workload.golden_runs, "digests": digests, "stats": totals}
