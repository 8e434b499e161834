"""What makes pausing the collector in `run` and `replay` safe: warm runs of
every kind of pipeline leave no cyclic garbage, so reference counting alone
frees each run's temporaries and the collector has nothing to find."""

import contextlib
import gc
import io

from lcmswarm import cli
from lcmswarm.algorithms import alg_cyclic_cycles, alg_tricolor, cyc_initial_config
from lcmswarm.core import Point, make_configuration
from lcmswarm.engine import read_trace, replay, run, write_trace
from lcmswarm.problems import OK, check_cyc
from lcmswarm.simulators import (extract_induced_schedule, monitor_properties, sim_lumi_by_fcom,
                                 sim_rs_by_s, verify_inner_fidelity)


def _pipelines(tmp_path):
    """name -> one seeded run of it, checked as its command or workload checks it."""
    cyc, cyc_start = alg_cyclic_cycles(5), cyc_initial_config(5)
    inner = alg_tricolor()
    wrappers = [(sim_rs_by_s(inner), "ssynch", 110), (sim_lumi_by_fcom(inner, 3), "rsynch", 240)]
    swarm = alg_tricolor()
    path = str(tmp_path / "t.trace")

    def sro(seed):
        argv = ["run", "--algo", "sro", "--scheduler", "rsynch", "--rounds", "200", "--seed", str(seed),
                "--positions=0.0,0.0 1.0,1.0", "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
            assert cli.main(["check", "--problem", "sro", "--trace", path]) == 0

    def cyclic_cycles(seed):
        assert check_cyc(run(cyc_start, "ssynch", cyc, rounds=800, seed=seed), 5).status == OK

    def simulators(seed):
        for wrap, host, rounds in wrappers:
            config = make_configuration([Point(50.0 * i, 7.0 * (i % 2)) for i in range(3)], palette=wrap.palette)
            trace = run(config, host, wrap, rounds=rounds, seed=seed)
            assert extract_induced_schedule(trace).sets
            assert monitor_properties(trace) == []
            assert verify_inner_fidelity(trace, inner) == []

    def tricolor_64(seed):
        config = make_configuration([Point(float(i % 8) * 3.0 + seed, float(i // 8) * 2.0) for i in range(64)],
                                    palette=swarm.palette)
        trace = run(config, "fsynch", swarm, rounds=3, seed=seed)
        write_trace(trace, path)
        assert read_trace(path) == trace
        assert replay(trace, swarm)

    return {"sro-cli": sro, "cyclic-cycles-5": cyclic_cycles, "simulators": simulators,
            "tricolor-64": tricolor_64}


def test_warm_runs_leave_no_cyclic_garbage(tmp_path):
    pipelines = _pipelines(tmp_path)
    for one_run in pipelines.values():  # warm: caches and graphs fill on first use
        one_run(0)
    found = {}
    gc.collect()
    gc.disable()
    try:
        for name, one_run in pipelines.items():
            for seed in (1, 2):
                one_run(seed)
            found[name] = gc.collect()
    finally:
        gc.enable()
    assert found == dict.fromkeys(pipelines, 0)
