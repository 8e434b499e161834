"""Every check returns the one Verdict, and the command line turns each verdict
into its exit code the same way for every entry of cli.CHECKS."""

from __future__ import annotations

import dataclasses
import inspect
import runpy
import sys
import typing

import pytest

from lcmswarm import cli, engine, problems, scheduler, simulators
from lcmswarm.algorithms import alg_cyclic_cycles, cyc_initial_config
from lcmswarm.core import POSITION_TOLERANCE, Configuration, Point
from lcmswarm.engine import run, write_trace
from lcmswarm.problems import (
    INCONCLUSIVE,
    OK,
    REJECT,
    Verdict,
    check_cge,
    check_cyc,
    cog,
)
from test_problems import synthetic_trace
from test_simulators import _healthy_trace, _tamper_light


# ---------------------------------------------------------------------------
# One result type.
# ---------------------------------------------------------------------------

def _checks():
    """Every check function of the package: problems' and scheduler's check_*
    and validate, and the command line's own _check_* adapters."""
    for module, prefix in ((problems, "check_"), (scheduler, "check_"), (cli, "_check_")):
        for name, fn in vars(module).items():
            if name.startswith(prefix) and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", fn
    yield "lcmswarm.scheduler.validate", scheduler.validate


def test_every_check_returns_the_one_verdict():
    names = []
    for name, fn in _checks():
        assert typing.get_type_hints(fn)["return"] is Verdict, name
        names.append(name)
    assert {"lcmswarm.problems.check_cyc", "lcmswarm.scheduler.check_fair",
            "lcmswarm.cli._check_induced", "lcmswarm.scheduler.validate"} <= set(names)
    assert problems.Verdict is scheduler.Verdict is cli.Verdict


def test_verdict_fields_and_truth():
    reject = Verdict(REJECT, 4, "why")
    assert (reject.status, reject.round, reject.reason, reject.rule, reject.violations) == (
        REJECT, 4, "why", None, ())
    assert not reject and not reject.ok
    assert not Verdict(INCONCLUSIVE, None, "later")
    assert Verdict(OK) and Verdict(OK).ok
    assert scheduler.check_fair(scheduler.SchedulePrefix((frozenset({0}),) * 3, 1), 2)


def test_every_tolerance_default_is_the_package_constant():
    # Each default reads core.POSITION_TOLERANCE itself; a restated literal
    # of the same value would be another float object.
    for fn in (problems.check_sro, problems.check_cyc, problems.check_cge, problems.check_rdv,
               engine.replay, simulators.verify_inner_fidelity):
        assert inspect.signature(fn).parameters["tol"].default is POSITION_TOLERANCE, fn.__name__
    for argv in (["check", "--problem", "sro", "--trace", "t"],
                 ["sweep", "--algo", "sro", "--seeds", "0:1", "--check", "sro"]):
        assert cli._parser().parse_args(argv).tol is POSITION_TOLERANCE, argv[0]


# ---------------------------------------------------------------------------
# Problem-checker lines no other test reaches.
# ---------------------------------------------------------------------------

def test_check_cge_rejects_a_robot_that_steps_back_toward_its_start():
    # Robot 1's target is (3, 0): it steps to 2.5, then back to 2.2 on the
    # same segment.  Only robot 1 is ever activated.
    trace = synthetic_trace([[(0, 0), (2, 0)], [(0, 0), (2.5, 0)], [(0, 0), (2.2, 0)]],
                            acts=[{1}, {1}])
    assert check_cge(trace) == Verdict(REJECT, 2, "robot 1 moved away from its target")


@pytest.mark.parametrize("tol", [1e-9, 0.5, 1.0, 2.0])
def test_check_cyc_names_each_robot_at_any_tolerance(tol):
    # The decoded pattern holds the trace's own points, so a loose tolerance
    # cannot mistake one robot for another and reject a correct run.
    assert check_cyc(_cyc_run(160), 3, tol=tol) == Verdict(OK)


def test_cog_of_no_robot_is_refused():
    with pytest.raises(ValueError, match="need at least one robot"):
        cog(Configuration(()))


# ---------------------------------------------------------------------------
# The exit-code contract over the one table.
# ---------------------------------------------------------------------------

def _forged(family, var, value):
    """The clean wrapper run of test_simulators with robot 0's light variable
    var set to value in the initial configuration."""
    trace, layout = _healthy_trace(family)
    return _tamper_light(trace, 0, 0, getattr(layout, var), value)


def _cyc_run(rounds):
    return run(cyc_initial_config(3), "ssynch", alg_cyclic_cycles(3), rounds=rounds, seed=0)


def _cyc_moved():
    """A full cyclic-circles run whose robots all shift in round 10."""
    trace = _cyc_run(160)
    rec = trace.rounds[9]
    entries = tuple((rid, Point(p.x + 0.1, p.y), lt) for rid, p, lt in rec.config.entries)
    rounds = list(trace.rounds)
    rounds[9] = dataclasses.replace(rec, config=Configuration(entries))
    return dataclasses.replace(trace, rounds=tuple(rounds))


def _double_exec():
    trace, _ = _healthy_trace("rs")
    rounds = tuple(dataclasses.replace(rec, events={0: ("inner-exec",)} if i < 2 else {})
                   for i, rec in enumerate(trace.rounds))
    return dataclasses.replace(trace, rounds=rounds)


# Per check: the algorithm a sweep runs it on, and a trace for each status it
# can give.  Only liveness goals can be inconclusive.
CONTRACT = {
    "rdv": ("sro", {
        OK: lambda: synthetic_trace([[(1, 1), (1, 1)]]),
        REJECT: lambda: synthetic_trace([[(0, 0), (0, 0)], [(0, 0), (1, 0)]]),
        INCONCLUSIVE: lambda: synthetic_trace([[(0, 0), (1, 0)]]),
    }),
    "sro": ("sro", {
        OK: lambda: synthetic_trace([[(0, 0), (1, 1)], [(0, 1), (1, 0)]]),
        REJECT: lambda: synthetic_trace([[(0, 0), (1, 1)], [(0, 0), (2, 2)]]),
    }),
    "cyc": ("cyclic-cycles", {
        OK: lambda: _cyc_run(160),
        REJECT: _cyc_moved,
        INCONCLUSIVE: lambda: _cyc_run(5),
    }),
    "cge": ("stay", {
        OK: lambda: synthetic_trace([[(0, 0), (2, 0)], [(-1, 0), (3, 0)]]),
        REJECT: lambda: synthetic_trace([[(0, 0), (2, 0)], [(0, 0), (2.5, 0)], [(0, 0), (2.2, 0)]],
                                        acts=[{1}, {1}]),
        INCONCLUSIVE: lambda: synthetic_trace([[(0, 0), (2, 0)], [(-0.5, 0), (2.5, 0)]]),
    }),
    "p-props": ("sim-rs-by-s", {
        OK: lambda: _healthy_trace("rs")[0],
        REJECT: lambda: _forged("rs", "executed", 1),
    }),
    "step-lemmas": ("sim-lumi-by-fcom", {
        OK: lambda: _healthy_trace("fcom")[0],
        REJECT: lambda: _forged("fcom", "step", 3),
    }),
    "induced": ("sim-rs-by-s", {
        OK: lambda: _healthy_trace("rs")[0],
        REJECT: _double_exec,
    }),
}
EXIT = {OK: 0, REJECT: 1, INCONCLUSIVE: 2}  # the command line's documented contract
CASES = [(name, status) for name, (_, traces) in CONTRACT.items() for status in traces]


def test_the_contract_covers_every_check():
    assert set(CONTRACT) == set(cli.CHECKS)


@pytest.mark.parametrize("name, status", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_check_and_sweep_read_a_verdict_the_same_way(tmp_path, capsys, monkeypatch, name, status):
    algo, traces = CONTRACT[name]
    trace = traces[status]()
    path = tmp_path / "t.trace"
    write_trace(trace, str(path))
    flag = "--monitor" if cli.CHECKS[name].families else "--problem"

    verdict = cli.CHECKS[name].run(trace, 1e-9, None)
    assert isinstance(verdict, Verdict) and verdict.status == status
    assert cli.main(["check", flag, name, "--trace", str(path)]) == EXIT[status]
    assert capsys.readouterr().out == f"{name}: {cli._detail(verdict)}\n"

    monkeypatch.setattr(cli, "prepare_run", lambda cfg: lambda seed: trace)
    code = cli.main(["sweep", "--algo", algo, "--inner", "stay", "--n", "3",
                     "--seeds", "0:1", "--check", name])
    counts = {s: 2 * (s == status) for s in (OK, REJECT, INCONCLUSIVE)}
    out = capsys.readouterr().out
    assert out.startswith(f"seeds 0..1: {counts[OK]} pass, {counts[REJECT]} fail, "
                          f"{counts[INCONCLUSIVE]} inconclusive\n")
    assert code == (1 if status == REJECT else 0)


def test_module_runs_as_a_script(tmp_path, monkeypatch):
    path = tmp_path / "rdv.trace"
    write_trace(synthetic_trace([[(0, 0), (1, 0)]]), str(path))
    monkeypatch.delitem(sys.modules, "lcmswarm.cli")
    monkeypatch.setattr(sys, "argv", ["lcmswarm", "check", "--problem", "rdv", "--trace", str(path)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("lcmswarm.cli", run_name="__main__")
    assert exit_.value.code == 2
