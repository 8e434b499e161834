"""Tests of the benchmark itself, at a tiny size (about 12 seconds).

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import lcmswarm.engine  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lcmswarm.core import Point, make_configuration  # noqa: E402
from lcmswarm.engine import Trace  # noqa: E402
from lcmswarm.scheduler import SchedulePrefix  # noqa: E402


def bench(workload, trace, seconds="0.3", cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END), (1, tracing.PER_LAYER)])
def test_every_metric_prints_with_its_unit(trace, units):
    proc = bench("sro-cli", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in units.items()}
    for name, (unit, _) in units.items():
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name


@pytest.mark.parametrize("name", ["cyc-n5", "sim-n3", "swarm-n64"])
def test_traced_run_accounts_for_all_time(name):
    result = worker.measure(name, 1, 0.01, trace=True)
    assert run.is_correct(result), result["golden"]
    assert set(result["layers"]) == set(tracing.PER_LAYER)
    # Self times of all spans plus the un-spanned root time add up to the
    # traced runs' time, and no span has negative self time.
    assert result["span_sum_s"] == pytest.approx(result["root_s"], rel=1e-9)
    # The root span encloses the run's own timing, and little else.
    assert result["traced_cpu_s"] <= result["root_s"] <= 1.01 * result["traced_cpu_s"]
    assert all(self_s >= -1e-9 for _, _, self_s in result["breakdown"])
    largest = result["breakdown"][0][0]
    assert largest in {
        "cyc-n5": {"algorithms.decode_cyc_pattern", "core.snapshot"},
        "sim-n3": {"core.snapshot", "engine.run_round", "simulators.sim-lumi-by-fcom.step"},
        "swarm-n64": {"core.snapshot"},
    }[name]


def test_untraced_run_patches_nothing():
    names = [(mod, attr) for mod, attr, _ in tracing.PATCH_POINTS]
    before = {key: getattr(sys.modules[key[0]], key[1]) for key in names}
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(sys.modules[m], a) is not before[(m, a)] for m, a in names)
    tracer.uninstall()
    assert all(getattr(sys.modules[m], a) is before[(m, a)] for m, a in names)


def _flip_inner_light(trace: Trace) -> Trace:
    """Flip the inner light of the first robot to execute the inner protocol,
    in the configuration right after that execution."""
    k = next(i for i, r in enumerate(trace.rounds) if any("inner-exec" in e for e in r.events.values()))
    rnd = trace.rounds[k]
    rid = min(rid for rid, evs in rnd.events.items() if "inner-exec" in evs)
    entries = list(rnd.config.entries)
    _, p, lt = entries[rid]
    entries[rid] = (rid, p, lt.replace({0: (lt.values[0] + 1) % lt.palette[0]}))
    rounds = list(trace.rounds)
    rounds[k] = dataclasses.replace(rnd, config=dataclasses.replace(rnd.config, entries=tuple(entries)))
    return dataclasses.replace(trace, rounds=tuple(rounds))


def test_flipped_inner_light_fails_the_check_and_counts(monkeypatch):
    sim = workloads.WORKLOADS["sim-n3"]
    lumi = [p for p in sim.build(workloads.no_wrap)
            if p.wrapper.name == "sim-lumi-by-fcom" and p.inner.name == "tricolor"][0]
    trace = lcmswarm.engine.run(lumi.config, lumi.host, lumi.wrapper, rounds=lumi.rounds, seed=3)
    workloads.check_simulation(lumi, trace)
    with pytest.raises(workloads.RunFailure):
        workloads.check_simulation(lumi, _flip_inner_light(trace))

    # Corrupt the first timed run only, so warm-up and golden runs still pass.
    bad_seed = sim.input(7, 0)
    real_run = lcmswarm.engine.run

    def corrupting_run(config, schedule, algo, **kw):
        trace = real_run(config, schedule, algo, **kw)
        if kw.get("seed") == bad_seed and algo.name == "sim-lumi-by-fcom" and algo.palette[0] == 3:
            return _flip_inner_light(trace)
        return trace

    monkeypatch.setattr(lcmswarm.engine, "run", corrupting_run)
    result = worker.measure("sim-n3", 7, 0.01, trace=False)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "fidelity" in result["errors"][0] or "monitor" in result["errors"][0]
    values, notes = run.end_to_end(result, [result["setup_s"]])
    assert values["ok_ratio"] == 0.0
    assert notes[0].startswith("fail_ratio = 1 ratio")
    assert not run.is_correct(result)


def test_wrong_golden_digest_fails_the_check(tmp_path, monkeypatch):
    with open(worker.GOLDEN_PATH) as fh:
        recorded = json.load(fh)
    sro = workloads.WORKLOADS["sro-cli"]
    workdir = str(tmp_path)
    assert worker.golden_check(sro, None, workdir)["ok"]

    digest = recorded["sro-cli"]["digests"][1]
    recorded["sro-cli"]["digests"][1] = ("0" if digest[0] != "0" else "1") + digest[1:]
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps(recorded))
    monkeypatch.setattr(worker, "GOLDEN_PATH", str(wrong))
    check = worker.golden_check(sro, None, workdir)
    assert not check["ok"] and "digests differ (traces [1]" in check["detail"]
    assert not run.is_correct({"failed": 0, "golden": check})


def test_simulated_statistics_repeat_exactly(tmp_path):
    sro = workloads.WORKLOADS["sro-cli"]
    first = workloads.golden(sro, None, str(tmp_path))
    assert workloads.golden(sro, None, str(tmp_path)) == first


def test_trace_counts_read_the_trace():
    from lcmswarm.algorithms import alg_move_east

    prefix = SchedulePrefix((frozenset({0}), frozenset({0, 1}), frozenset({1})), 2)
    trace = lcmswarm.engine.run(make_configuration([Point(0, 0), Point(5, 0)]), prefix, alg_move_east())
    counts = workloads.trace_counts(trace)
    assert counts == {"activations": 4, "moves": 4, "light_changes": 0, "inner_execs": 0}


def test_tail_is_the_highest_percentile_with_ten_runs_beyond():
    assert run.tail([float(v) for v in range(30, 0, -1)]) == (20.0, pytest.approx(66.67, abs=0.01), 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("sro-cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
