import contextlib
import dataclasses
import functools
import io
import random
import re
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lcmswarm import cli, problems
from lcmswarm.algorithms import alg_cyclic_cycles, cyc_initial_config
from lcmswarm.cli import ALGORITHMS, CHECKS, RunConfig, _parser, main
from lcmswarm.core import (
    Configuration,
    LightTuple,
    ModelKind,
    ObservedLocation,
    Point,
    Snapshot,
    make_configuration,
)
from lcmswarm.engine import Trace, TraceHeader, read_trace, run, write_trace
from lcmswarm.scheduler import (
    KIND_NAMES,
    RSYNCH,
    SSYNCH,
    SchedulePrefix,
    generate,
    write_schedule,
)
from lcmswarm.simulators import monitor_properties, verify_inner_fidelity


def run_cli(*argv):
    return main(list(argv))


def test_run_happy_path_and_check(tmp_path, capsys):
    out = tmp_path / "sro.trace"
    assert run_cli(
        "run", "--algo", "sro", "--scheduler", "rsynch", "--n", "2",
        "--rounds", "50", "--seed", "7", "--out", str(out),
    ) == 0
    assert out.exists()
    assert run_cli("check", "--problem", "sro", "--trace", str(out)) == 0
    assert "sro: ok" in capsys.readouterr().out


def test_run_cross_field_error(tmp_path, capsys):
    code = run_cli(
        "run", "--algo", "sim-lumi-by-fcom", "--inner", "stay", "--no-chirality",
        "--n", "3", "--scheduler", "rsynch", "--out", str(tmp_path / "x.trace"),
    )
    assert code == 1
    assert "chirality" in capsys.readouterr().err


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    args = ["run", "--algo", "tricolor", "--scheduler", "ssynch", "--n", "3",
            "--rounds", "30", "--seed", "4"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo=sro\nscheduler=rsynch\nn=2\nrounds=10\nseed=1\n")
    out = tmp_path / "t.trace"
    assert run_cli("run", "--config", str(cfg), "--rounds", "5", "--out", str(out)) == 0
    assert len(read_trace(str(out)).rounds) == 5  # flag overrode the file


def test_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.sched"
    write_schedule(generate("rsynch", 3, 20, 1), "rsynch", str(good))
    assert run_cli("validate", "--schedule", str(good)) == 0

    bad = tmp_path / "bad.sched"
    bad.write_text("n=2 kind=rsynch\n0\n0\n")
    assert run_cli("validate", "--schedule", str(bad)) == 1
    assert "round 2" in capsys.readouterr().out

    ugly = tmp_path / "ugly.sched"
    ugly.write_text("n=2 kind=rsynch\n0 zap\n")
    assert run_cli("validate", "--schedule", str(ugly)) == 2


@pytest.mark.parametrize("text, message", [
    ("n=x kind=rsynch\n0\n", "parse error: {}:1: bad schedule header: n must be a positive integer, got 'x'"),
    ("n=-1 kind=rsynch\n0\n", "parse error: {}:1: bad schedule header: n must be a positive"),
    ("n=2 kind=rsynch\n0\n0 5\n", "parse error: {}:3: member id 5 out of range for n=2"),
    ("n=2 kind=bogus\n0\n", "error: unknown scheduler kind 'bogus'"),
])
def test_validate_bad_schedule_file_names_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.sched"
    path.write_text(text)
    assert run_cli("validate", "--schedule", str(path)) == 2
    assert capsys.readouterr().err.startswith(message.format(path))


def test_explicit_schedule_file_drives_run(tmp_path):
    sched = tmp_path / "alt.sched"
    write_schedule(generate("rsynch", 2, 12, 3), "rsynch", str(sched))
    out = tmp_path / "t.trace"
    assert run_cli(
        "run", "--algo", "sro", "--schedule-file", str(sched), "--out", str(out),
    ) == 0
    trace = read_trace(str(out))
    assert len(trace.rounds) == 12


def test_check_inconclusive_exit_code(tmp_path):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "stay", "--scheduler", "ssynch", "--n", "2",
                   "--rounds", "5", "--seed", "0", "--positions", "0,0 5,0",
                   "--out", str(out)) == 0
    assert run_cli("check", "--problem", "rdv", "--trace", str(out)) == 2


def test_check_parse_error_exit_code(tmp_path):
    junk = tmp_path / "junk.trace"
    junk.write_text("not a trace\n")
    assert run_cli("check", "--problem", "sro", "--trace", str(junk)) == 2


def test_monitor_through_cli(tmp_path, capsys):
    out = tmp_path / "sim.trace"
    assert run_cli(
        "run", "--algo", "sim-rs-by-s", "--inner", "tricolor", "--scheduler", "ssynch",
        "--n", "3", "--rounds", "90", "--seed", "2", "--out", str(out),
    ) == 0
    trace = read_trace(str(out))
    assert trace.header.algo == "sim-rs-by-s" and trace.header.inner == "tricolor"
    assert run_cli("check", "--monitor", "p-props", "--trace", str(out)) == 0
    assert run_cli("check", "--monitor", "induced", "--trace", str(out)) == 0
    # Wrong monitor family is an operator error, not a reject.
    assert run_cli("check", "--monitor", "step-lemmas", "--trace", str(out)) == 2


def test_monitor_refuses_a_palette_that_fits_no_layout(tmp_path, capsys):
    # The palette ends as a sim-lumi-by-fcom palette does, but no inner
    # palette and successor counters make up the rest of it.
    palette = (2, 3, 4, 2, 4, 2, 2)
    header = TraceHeader(ModelKind.FCOM, "rsynch", 2, 0, None, palette, "sim-lumi-by-fcom")
    initial = make_configuration([Point(0, 0), Point(1, 0)], palette=palette)
    out = tmp_path / "odd.trace"
    write_trace(Trace(header, initial, ()), str(out))
    capsys.readouterr()
    assert run_cli("check", "--monitor", "step-lemmas", "--trace", str(out)) == 2
    assert capsys.readouterr() == ("", "error: cannot derive the inner palette from this layout\n")


def forged_sim_trace(tmp_path, execs):
    """An n=3 sim-rs-by-s trace file whose only events are inner executions:
    the robots of execs[i] in round i+1."""
    out = tmp_path / "sim.trace"
    assert run_cli("run", "--algo", "sim-rs-by-s", "--inner", "tricolor", "--scheduler", "ssynch",
                   "--n", "3", "--rounds", str(len(execs)), "--out", str(out)) == 0
    trace = read_trace(str(out))
    rounds = tuple(dataclasses.replace(rec, events={rid: ("inner-exec",) for rid in sorted(e)})
                   for rec, e in zip(trace.rounds, execs))
    write_trace(dataclasses.replace(trace, rounds=rounds), str(out))
    return out


@pytest.mark.parametrize("execs, detail", [
    ([{0}, {0}], "induced: invalid rsynch at induced round 2: overlap-consecutive"),
    ([{0}, {1}] * 4, "induced: robot 2 starved for 8 induced rounds (at 8)"),
])
def test_induced_monitor_rejects_a_forged_schedule(tmp_path, capsys, execs, detail):
    out = forged_sim_trace(tmp_path, execs)
    capsys.readouterr()
    assert run_cli("check", "--monitor", "induced", "--trace", str(out)) == 1
    assert capsys.readouterr().out == detail + "\n"


def test_property_monitor_prints_its_first_violation(tmp_path, capsys):
    out = forged_sim_trace(tmp_path, [{0}, {0}, set()])
    violations = monitor_properties(read_trace(str(out)))
    assert violations
    capsys.readouterr()
    assert run_cli("check", "--monitor", "p-props", "--trace", str(out)) == 1
    assert capsys.readouterr().out == (
        f"p-props: {len(violations)} violations; first: {violations[0]}\n")


def test_sweep_aggregates(tmp_path, capsys):
    code = run_cli(
        "sweep", "--algo", "sro", "--scheduler", "rsynch", "--n", "2",
        "--rounds", "40", "--seeds", "0:9", "--check", "sro",
    )
    assert code == 0
    assert "10 pass, 0 fail" in capsys.readouterr().out


def test_sweep_reports_first_counterexample(tmp_path, capsys):
    # Deliberately short cyclic-circle runs: never rejected, all inconclusive.
    code = run_cli(
        "sweep", "--algo", "cyclic-cycles", "--scheduler", "ssynch", "--n", "3",
        "--rounds", "5", "--seeds", "0:4", "--check", "cyc",
    )
    assert code == 0
    assert "5 inconclusive" in capsys.readouterr().out


def test_sweep_with_d_rel_reads_as_many_configurations_as_without(monkeypatch, capsys):
    # One --d-rel fraction is one mover-distance function, so check_cyc's kept
    # set-up matches from seed to seed, as it does for the default distance.
    reading, calls = problems._cyc_reading, []
    monkeypatch.setattr(problems, "_cyc_reading", lambda ctx, config: calls.append(1) or reading(ctx, config))
    counts = []
    for d_rel in ((), ("--d-rel", "0.5")):
        calls.clear()
        assert run_cli("sweep", "--algo", "cyclic-cycles", "--n", "4", "--rounds", "400",
                       "--seeds", "0:19", "--check", "cyc", *d_rel) == 0
        assert "seeds 0..19: 20 pass, 0 fail, 0 inconclusive" in capsys.readouterr().out
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_plot_ascii_and_svg(tmp_path, capsys):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "sro", "--scheduler", "rsynch", "--n", "2",
                   "--rounds", "12", "--seed", "1", "--out", str(out)) == 0
    assert run_cli("plot", "--trace", str(out)) == 0
    rendering = capsys.readouterr().out
    assert "rounds: 12" in rendering

    svg = tmp_path / "t.svg"
    assert run_cli("plot", "--trace", str(out), "--out", str(svg)) == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_plot_empty_trace(tmp_path, capsys):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "stay", "--scheduler", "ssynch", "--n", "2",
                   "--rounds", "0", "--seed", "0", "--out", str(out)) == 0
    assert run_cli("plot", "--trace", str(out)) == 0
    assert "rounds: 0" in capsys.readouterr().out


def test_run_out_into_missing_directory_is_an_error_not_a_traceback(tmp_path, capsys):
    out = tmp_path / "missing" / "t.trace"
    code = run_cli(
        "run", "--algo", "sro", "--scheduler", "rsynch", "--n", "2",
        "--rounds", "5", "--out", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert not out.exists()


def test_plot_out_into_missing_directory_is_an_error_not_a_traceback(tmp_path, capsys):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "sro", "--scheduler", "rsynch", "--out", str(out)) == 0
    assert run_cli("plot", "--trace", str(out), "--out", str(tmp_path / "missing" / "t.svg")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err


def test_sweep_bad_seed_range_is_an_error_not_a_traceback(capsys):
    code = run_cli(
        "sweep", "--algo", "sro", "--scheduler", "rsynch", "--n", "2",
        "--rounds", "5", "--seeds", "a:b", "--check", "sro",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'a:b'" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_chirality_in_config_file_is_an_error_not_a_traceback(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo=sro\nscheduler=rsynch\nn=2\nrounds=5\nchirality=maybe\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "t.trace")]
    if command == "sweep":
        argv += ["--seeds", "0:1", "--check", "sro"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'maybe'" in err


def test_sweep_empty_seed_range_is_an_error(capsys):
    code = run_cli(
        "sweep", "--algo", "sro", "--scheduler", "rsynch", "--n", "2",
        "--rounds", "5", "--seeds", "5:3", "--check", "sro",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seeds") and "'5:3'" in captured.err
    assert "pass" not in captured.out


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("line,key,kind", [
    ("n=abc", "n", "an integer"),
    ("seed=1.5", "seed", "an integer"),
    ("delta=fast", "delta", "a number"),
    ("radius=", "radius", "a number"),
    ("d-rel=half", "d_rel", "a number"),
])
def test_bad_number_in_config_file_names_file_line_and_key(tmp_path, capsys, command, line, key, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# sro run\nalgo=sro\n\nscheduler=rsynch  # comment\n{line}\nrounds=5\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "t.trace")]
    if command == "sweep":
        argv += ["--seeds", "0:1", "--check", "sro"]
    assert run_cli(*argv) == 1
    value = line.split("=", 1)[1]
    assert capsys.readouterr().err == f"error: {cfg}:5: {key} must be {kind}, got {value!r}\n"


@pytest.mark.parametrize("key", ["__class__", "__dict__", "bogus"])
def test_config_key_that_is_no_run_field_is_unknown(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"algo=sro\n{key}=x\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "t.trace")) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown config key {key!r}\n"


def test_cyclic_cycles_positions_are_reported_not_ignored(tmp_path, capsys):
    out = tmp_path / "t.trace"
    code = run_cli(
        "run", "--algo", "cyclic-cycles", "--n", "3", "--rounds", "5",
        "--positions", "0,0 1,0 0,1", "--out", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "positions: cyclic-cycles places its own robots (use --radius)" in err
    assert not out.exists()


@pytest.mark.parametrize("algo, scheduler, monitor", [
    ("sim-rs-by-s", "ssynch", "p-props"),
    ("sim-lumi-by-fcom", "rsynch", "step-lemmas"),
])
def test_simulator_over_cyclic_cycles_starts_on_the_circle(tmp_path, algo, scheduler, monitor):
    out = tmp_path / "t.trace"
    assert run_cli(
        "run", "--algo", algo, "--inner", "cyclic-cycles", "--n", "3", "--radius", "2",
        "--scheduler", scheduler, "--rounds", "200", "--out", str(out),
    ) == 0
    trace = read_trace(str(out))
    circle = cyc_initial_config(3, 2.0)
    assert [p for _, p, _ in trace.initial.entries] == [p for _, p, _ in circle.entries]
    assert any("inner-exec" in ev for r in trace.rounds for ev in r.events.values())
    assert run_cli("check", "--monitor", monitor, "--trace", str(out)) == 0


@pytest.mark.parametrize("algo, scheduler, monitor", [
    ("sim-rs-by-s", "ssynch", "p-props"),
    ("sim-lumi-by-fcom", "rsynch", "step-lemmas"),
])
def test_simulator_over_cyclic_cycles_runs_its_d_rel(tmp_path, algo, scheduler, monitor):
    out = tmp_path / "t.trace"
    assert run_cli(
        "run", "--algo", algo, "--inner", "cyclic-cycles", "--n", "4", "--d-rel", "0.3",
        "--scheduler", scheduler, "--rounds", "600", "--seed", "1", "--out", str(out),
    ) == 0
    assert run_cli("check", "--monitor", monitor, "--trace", str(out)) == 0
    assert run_cli("check", "--monitor", "induced", "--trace", str(out)) == 0
    trace = read_trace(str(out))
    assert verify_inner_fidelity(trace, alg_cyclic_cycles(4, d_rel=lambda _i: 0.3)) == []
    assert verify_inner_fidelity(trace, alg_cyclic_cycles(4)) != []  # so d = 0.3 shows


@pytest.mark.parametrize("algo, inner", [("sro", ""), ("sim-rs-by-s", "stay")])
def test_only_a_meta_simulator_trace_records_its_inner(tmp_path, algo, inner):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", algo, "--inner", "stay", "--n", "2", "--rounds", "5",
                   "--out", str(out)) == 0
    assert read_trace(str(out)).header.inner == inner
    assert ("inner=" in out.read_text().splitlines()[0]) == bool(inner)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("algo, check", [
    (["cyclic-cycles"], "cyc"),
    (["sim-rs-by-s", "--inner", "cyclic-cycles"], "induced"),
])
def test_cyclic_cycles_radius_must_be_positive_and_finite(
    tmp_path, capsys, command, radius, algo, check
):
    out = tmp_path / "t.trace"
    argv = [command, "--algo", *algo, "--n", "3", "--rounds", "5", f"--radius={radius}",
            "--out", str(out)]
    if command == "sweep":
        argv += ["--seeds", "0:1", "--check", check]
    assert run_cli(*argv) == 1
    assert "config error: radius: must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flags, message", [
    *[pytest.param(["--algo", *algo, "--n", n], "n: must be a positive integer", id=f"n{n}-{algo[0]}")
      for algo in (["stay"], ["cyclic-cycles"], ["sim-rs-by-s", "--inner", "stay"])
      for n in ("0", "-2")],
    pytest.param(["--algo", "stay", "--rounds", "-2"], "rounds: must be nonnegative", id="rounds"),
    pytest.param(["--algo", "stay", "--scheduler", "round-robin"],
                 "blocks: round-robin needs --blocks", id="blocks"),
    pytest.param(["--algo", "stay", "--config", "kind.cfg"],
                 "scheduler: unknown kind 'bogus'", id="scheduler"),
    pytest.param(["--algo", "cyclic-cycles", "--n", "3", "--d-rel", "1.5"],
                 "d-rel: must be a radius fraction in (0, 1)", id="d-rel"),
    pytest.param(["--algo", "sim-rs-by-s", "--inner", "cyclic-cycles", "--n", "4", "--d-rel", "5"],
                 "d-rel: must be a radius fraction in (0, 1)", id="d-rel-inner"),
])
def test_field_rules_are_config_errors(tmp_path, capsys, monkeypatch, command, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kind.cfg").write_text("scheduler=bogus\n")
    argv = [command, *flags, "--out", "t.trace"]
    if command == "sweep":
        argv += ["--seeds", "0:1", "--check", "rdv"]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert not (tmp_path / "t.trace").exists() and "pass" not in captured.out


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flags, message", [
    pytest.param(["--algo", "stay", "--scheduler", "round-robin", "--blocks", "0|1", "--n", "3"],
                 "round-robin blocks must cover robots 0..n-1", id="blocks-cover"),
    pytest.param(["--algo", "sim-rs-by-s", "--inner", "bogus", "--n", "3"],
                 "unknown inner algorithm 'bogus'", id="inner"),
    pytest.param(["--algo", "stay", "--positions", "x"], "positions: expected x,y, got 'x'",
                 id="positions-one-value"),
    pytest.param(["--algo", "stay", "--positions", "1,2,3"], "positions: expected x,y, got '1,2,3'",
                 id="positions-three-values"),
    pytest.param(["--algo", "stay", "--config", "positions.cfg"], "positions: expected x,y, got 'x'",
                 id="positions-config-file"),
    pytest.param(["--algo", "stay", "--scheduler", "round-robin", "--blocks", "0|x"],
                 "blocks: expected robot ids, got 'x'", id="blocks-token"),
])
def test_blocks_that_miss_a_robot_and_unknown_inner_are_one_error(
        tmp_path, capsys, monkeypatch, command, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "positions.cfg").write_text("positions=x\n")
    argv = [command, *flags, "--out", "t.trace"]
    if command == "sweep":
        argv += ["--seeds", "0:2", "--check", "rdv"]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "t.trace").exists()


def test_positions_that_do_not_match_n_are_an_error(tmp_path, capsys):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "stay", "--n", "3", "--positions", "0,0 1,1",
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: n=3 but 2 positions were given\n"


@pytest.mark.parametrize("d_rel", ["2", "0", "-1", "nan", "1", "x"])
def test_check_d_rel_must_be_a_radius_fraction(tmp_path, capsys, d_rel):
    out = tmp_path / "cyc.trace"
    assert run_cli("run", "--algo", "cyclic-cycles", "--n", "3", "--scheduler", "fsynch",
                   "--rounds", "60", "--out", str(out)) == 0
    assert run_cli("check", "--problem", "cyc", "--trace", str(out), "--d-rel", "0.5") == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("check", "--problem", "cyc", "--trace", str(out), f"--d-rel={d_rel}")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"--d-rel: must be a radius fraction in (0, 1), got {d_rel!r}" in captured.err
    assert "cyc:" not in captured.out


def test_sweep_counts_a_checker_error_against_its_seed(capsys):
    # The cyc checker cannot decode a stay run's two robots; each seed's
    # error is that seed's failure, and the first is reported.
    code = run_cli("sweep", "--algo", "stay", "--n", "2", "--rounds", "3", "--seeds", "0:1",
                   "--check", "cyc")
    assert code == 1
    out = capsys.readouterr().out
    assert "seeds 0..1: 0 pass, 2 fail, 0 inconclusive" in out
    assert "first counterexample seed 0: error: cyclic circles needs at least 3 robots\n" in out


def test_check_cyc_on_two_robots_names_the_cause(tmp_path, capsys):
    trace = tmp_path / "stay.trace"
    assert run_cli("run", "--algo", "stay", "--n", "2", "--rounds", "3", "--out", str(trace)) == 0
    capsys.readouterr()
    assert run_cli("check", "--problem", "cyc", "--trace", str(trace)) == 2
    assert capsys.readouterr().err == "error: cyclic circles needs at least 3 robots\n"


# Three robots that decode as the cyclic-cycles pattern (circle robots on a
# unit circle, the mover at its centre), run by algorithms of other palettes.
CYC_PATTERN_POSITIONS = ("0.0,0.0 -0.4999999999999998,-0.8660254037844387 "
                         "-0.5000000000000004,0.8660254037844384")


@pytest.mark.parametrize("algo, palette", [("stay", "()"), ("tricolor", "(3,)")])
def test_check_cyc_refuses_a_trace_of_another_palette(tmp_path, capsys, algo, palette):
    trace = tmp_path / f"{algo}.trace"
    assert run_cli("run", "--algo", algo, "--scheduler", "fsynch", "--n", "3", "--rounds", "5",
                   "--positions", CYC_PATTERN_POSITIONS, "--out", str(trace)) == 0
    capsys.readouterr()
    assert run_cli("check", "--problem", "cyc", "--trace", str(trace)) == 2
    assert capsys.readouterr().err == (
        f"error: trace palette {palette} differs from the cyclic-cycles palette (2, 2, 2, 2)\n")


@pytest.mark.parametrize("bad, message", [
    ("round=2 act=x", "bad round line: invalid literal for int()"),
    ("round=q", "bad round line: invalid literal for int()"),
    ("round=7 act=0 1", "expected round 2, got round=7"),
    ("round=2 act=0 9", "activation of unknown robot 9 (n=2)"),
])
def test_check_bad_round_line_names_its_line(tmp_path, capsys, bad, message):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "sro", "--scheduler", "fsynch", "--rounds", "3",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[7] == "round=2 act=0 1"
    lines[7] = bad
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("check", "--problem", "sro", "--trace", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {out}:8: {message}")


@pytest.mark.parametrize("command", [["plot"], ["check", "--problem", "sro"]])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_trace_header_n_below_one_is_a_parse_error_on_line_one(tmp_path, capsys, command, n):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "sro", "--scheduler", "fsynch", "--rounds", "3",
                   "--out", str(out)) == 0
    out.write_text(out.read_text().replace(" n=2 ", f" n={n} ", 1))
    capsys.readouterr()
    assert run_cli(*command, "--trace", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {out}:1: bad trace header: n must")


SCHEDULES = {
    "valid.sched": "n=3 kind=rsynch\n0\n1 2\n0\n1\n2\n0 1\n",
    "overlap.sched": "n=3 kind=rsynch\n0 1\n1 2\n0\n",
    "empty.sched": "n=3 kind=ssynch\n0 1 2\n\n0\n1\n",
}
LUMI = ["--algo", "sim-lumi-by-fcom", "--inner", "stay", "--n", "3"]
CYC_SWEEP = ["--algo", "sim-rs-by-s", "--inner", "cyclic-cycles", "--n", "3", "--no-chirality"]


def row(name, argv, code, message):
    return pytest.param(argv, code, message, id=name)


@pytest.mark.parametrize("argv, code, message", [
    # Host rules apply to the schedule actually run, schedule files included.
    row("lumi-valid-rsynch-file", ["run", *LUMI, "--schedule-file", "valid.sched"], 0,
        "wrote 6 rounds"),
    row("lumi-overlapping-file",
        ["run", *LUMI, "--schedule-file", "overlap.sched", "--scheduler", "rsynch"], 1,
        "sim-lumi-by-fcom runs only under rsynch schedules: round 2 breaks rule overlap-consecutive"),
    row("rs-file-with-empty-round",
        ["run", "--algo", "sim-rs-by-s", "--inner", "stay", "--n", "3",
         "--schedule-file", "empty.sched"], 1,
        "sim-rs-by-s runs only under ssynch schedules: round 2 breaks rule empty-set"),
    row("lumi-round-robin", ["run", *LUMI, "--scheduler", "round-robin", "--blocks", "0|1 2"], 0,
        "wrote 50 rounds"),
    row("lumi-ssynch-host", ["run", *LUMI, "--scheduler", "ssynch"], 1,
        "sim-lumi-by-fcom runs only under rsynch"),
    # The wrappers keep their inner algorithm's constraints.
    row("rs-sro-non-rigid",
        ["run", "--algo", "sim-rs-by-s", "--inner", "sro", "--n", "2", "--delta", "0.5"], 1,
        "error: sim-rs-by-s requires rigid movement"),
    row("rs-sro-three-robots", ["run", "--algo", "sim-rs-by-s", "--inner", "sro", "--n", "3"], 1,
        "error: sim-rs-by-s requires exactly 2 robots"),
    # The rules the command line no longer states itself.
    row("sro-no-chirality", ["run", "--algo", "sro", "--no-chirality"], 1,
        "error: sro requires chirality"),
    row("sro-delta", ["run", "--algo", "sro", "--delta", "0.5"], 1,
        "error: sro requires rigid movement"),
    row("sro-three-positions", ["run", "--algo", "sro", "--positions", "0,0 1,0 2,0"], 1,
        "error: sro requires exactly 2 robots"),
    row("sro-three-robots", ["run", "--algo", "sro", "--n", "3"], 1,
        "error: sro requires exactly 2 robots"),
    row("cyc-no-chirality", ["run", "--algo", "cyclic-cycles", "--n", "3", "--no-chirality"], 1,
        "error: cyclic-cycles requires chirality"),
    row("cyc-two-robots", ["run", "--algo", "cyclic-cycles", "--n", "2"], 1,
        "error: cyclic circles needs at least 3 robots"),
    row("cyc-no-n", ["run", "--algo", "cyclic-cycles"], 1, "error: cyclic-cycles needs --n"),
    row("lumi-no-chirality", ["run", *LUMI, "--no-chirality"], 1,
        "error: sim-lumi-by-fcom requires chirality"),
    # A sweep that cannot run is one error, not a failure per seed.
    row("sweep-rs-no-chirality", ["sweep", *CYC_SWEEP, "--seeds", "0:2", "--check", "induced"], 1,
        "error: sim-rs-by-s requires chirality"),
    row("sweep-lumi-no-n",
        ["sweep", "--algo", "sim-lumi-by-fcom", "--inner", "stay", "--scheduler", "rsynch",
         "--seeds", "0:2", "--check", "induced"], 1,
        "error: sim-lumi-by-fcom needs --n"),
    row("sweep-monitor-of-another-family",
        ["sweep", "--algo", "sro", "--seeds", "0:2", "--check", "p-props"], 1,
        "error: monitor p-props applies to sim-rs-by-s traces, not 'sro'"),
    row("sweep-sro-three-robots",
        ["sweep", "--algo", "sro", "--n", "3", "--seeds", "0:2", "--check", "sro"], 1,
        "error: sro requires exactly 2 robots"),
    row("sweep-sro-delta",
        ["sweep", "--algo", "sro", "--delta", "0.5", "--seeds", "0:2", "--check", "sro"], 1,
        "error: sro requires rigid movement"),
])
def test_run_constraints_are_checked_on_the_run_made(tmp_path, capsys, argv, code, message):
    for name, body in SCHEDULES.items():
        (tmp_path / name).write_text(body)
    argv = [str(tmp_path / a) if a in SCHEDULES else a for a in argv]
    out = tmp_path / "t.trace"
    assert run_cli(*argv, "--out", str(out)) == code  # raises on a traceback
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert out.exists() == (code == 0)
    if argv[0] == "sweep":
        assert "pass" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "abc"])
@pytest.mark.parametrize("command", ["check", "sweep"])
def test_tolerance_must_be_a_finite_nonnegative_number(tmp_path, capsys, command, tol):
    out = tmp_path / "t.trace"
    assert run_cli("run", "--algo", "sro", "--scheduler", "rsynch", "--out", str(out)) == 0
    capsys.readouterr()
    if command == "check":
        argv = ["check", "--problem", "sro", "--trace", str(out)]
    else:
        argv = ["sweep", "--algo", "sro", "--seeds", "0:1", "--check", "sro"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, f"--tol={tol}")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--tol: must be a finite number >= 0" in captured.err
    assert "sro" not in captured.out


# --- Fuzzed command lines ------------------------------------------------------
#
# Every call keeps the exit-code contract (0, 1 or 2, argparse's usage errors
# included) and prints no traceback.  Paths are relative to a scratch
# directory holding a few good and bad input files.

FILES = ["sro.trace", "sim.trace", "junk.trace", "zero.trace", "valid.sched", "good.cfg", "junk.cfg",
         "nokey.cfg", "missing.file", "dir"]
FLAGS = {
    "--algo": [*ALGORITHMS, "bogus"],
    "--inner": ["stay", "tricolor", "sro", "cyclic-cycles", "sim-rs-by-s", "bogus"],
    "--scheduler": [*KIND_NAMES, "bogus"],
    "--kind": [*KIND_NAMES, "bogus"],
    "--blocks": ["0|1", "0 1|2", "0|x", "", "|"],
    "--n": ["2", "3", "0", "-1", "x", "1e3"],
    "--rounds": ["0", "3", "-2", "x"],
    "--seed": ["0", "7", "-3", "x"],
    "--delta": ["0.5", "0", "-1", "nan", "x"],
    "--positions": ["0,0 1,1", "0,0 5,0 9,9", "0,0", "x", "nan,0 1,1", "1,2,3", ""],
    "--radius": ["2", "0", "-1", "nan", "x"],
    "--d-rel": ["0.5", "0", "2", "nan", "x"],
    "--tol": ["0", "1e-9", "-1", "nan", "x"],
    "--seeds": ["0:1", "2", "3:1", "a:b", "", "0:"],
    "--out": ["out.trace", "plot.svg", "missing/out.trace", "dir"],
    "--problem": [*CHECKS, "bogus"],
    "--monitor": [*CHECKS, "bogus"],
    "--check": [*CHECKS, "bogus"],
    **{flag: FILES for flag in ("--trace", "--schedule", "--schedule-file", "--config")},
}
RUN_FLAGS = ["--config", "--algo", "--inner", "--scheduler", "--blocks", "--schedule-file", "--n",
             "--rounds", "--seed", "--delta", "--no-chirality", "--positions", "--radius",
             "--d-rel", "--out"]
COMMANDS = {  # a valid start of each command line, and the flags its command takes
    "run": (["--algo", "sro", "--rounds", "3"], RUN_FLAGS),
    "validate": (["--schedule", "valid.sched"], ["--schedule", "--kind"]),
    "check": (["--problem", "sro", "--trace", "sro.trace"],
              ["--problem", "--monitor", "--trace", "--tol", "--d-rel"]),
    "sweep": (["--algo", "sro", "--rounds", "3", "--seeds", "0:1", "--check", "sro"],
              [*RUN_FLAGS, "--seeds", "--check", "--tol"]),
    "plot": (["--trace", "sro.trace"], ["--trace", "--out"]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    start, flags = COMMANDS.get(command, ([], []))
    argv = [command, *start] if draw(st.integers(0, 4)) else [command]
    for _ in range(draw(st.integers(0, 5))):
        # Mostly the command's own flags; now and then a foreign or unknown one.
        if flags and draw(st.integers(0, 5)):
            flag = draw(st.sampled_from(flags))
        else:
            flag = draw(st.sampled_from([*FLAGS, "--no-chirality", "--bogus"]))
        argv.append(flag)
        if flag in FLAGS and draw(st.integers(0, 9)):  # now and then, no value
            argv.append(draw(st.sampled_from(FLAGS[flag])))
    return argv


def call(argv):
    """main's exit code, stdout and stderr; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--algo", "sro", "--scheduler", "rsynch", "--rounds", "50", "--seed", "7",
                 "--out", "sro.trace"]) == 0
    assert main(["run", "--algo", "sim-rs-by-s", "--inner", "stay", "--n", "3",
                 "--scheduler", "ssynch", "--rounds", "20", "--out", "sim.trace"]) == 0
    (tmp_path / "junk.trace").write_text("not a trace\n")
    (tmp_path / "zero.trace").write_text("model=OBLOT kind=fsynch n=0 seed=0 delta=rigid palette=\n"
                                         "round=0 act=\n")
    write_schedule(generate("rsynch", 2, 6, 1), "rsynch", "valid.sched")
    (tmp_path / "good.cfg").write_text("algo=sro\nrounds=3\n")
    (tmp_path / "junk.cfg").write_text("algo=sro\nn=x\n")
    (tmp_path / "nokey.cfg").write_text("bogus=1\nno equals sign\n")
    (tmp_path / "dir").mkdir()
    return tmp_path


@given(argv=argvs())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_keeps_the_exit_code_contract(inputs, argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code, out, err)
    assert "Traceback" not in out + err, argv


CONFIG_VALUES = {  # config-file keys, with the values each is drawn with
    **{field.name: FLAGS.get("--" + field.name.replace("_", "-"), ["true", "no", "maybe"])
       for field in dataclasses.fields(RunConfig)},
    **{key: ["x", "1"] for key in ("__class__", "__dict__", "__doc__", "bogus")},
}


@given(st.lists(st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(CONFIG_VALUES[key]))), max_size=6))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_config_file_keeps_the_exit_code_contract(inputs, lines):
    (inputs / "fuzz.cfg").write_text("".join(f"{key}={value}\n" for key, value in lines))
    code, out, err = call(["run", "--config", "fuzz.cfg", "--rounds", "3"])
    assert code in (0, 1, 2), (lines, code, out, err)
    assert "Traceback" not in out + err, lines


def test_the_one_parser_keeps_no_state_between_calls(inputs):
    check = ["check", "--problem", "sro", "--trace", "sro.trace"]
    before = call(check)
    assert before == (0, "sro: ok\n", "")
    for argv in (
        ["check", "--problem", "sro", "--monitor", "induced", "--trace", "sro.trace"],
        ["check", "--problem", "bogus", "--trace", "sro.trace"],
        ["check", "--problem", "cyc", "--trace", "sro.trace", "--tol", "nan"],
        ["check", "--trace", "junk.trace", "--problem", "rdv", "--d-rel", "x"],
        ["check", "--monitor", "p-props", "--trace", "sro.trace"],
        ["sweep", "--algo", "sro", "--seeds", "a:b", "--check", "sro"],
        ["run", "--algo", "sro", "--n", "3", "--out", "dir"],
        ["bogus", "--problem", "sro"],
        [],
    ):
        assert call(argv)[0] != 0, argv
    assert call(check) == before
    assert _parser.cache_info().currsize == 1


# --- Every protocol in the registry -------------------------------------------

# One run of each algorithm the CLI builds, at an n it allows, on its host.
REGISTRY_RUNS = {
    "cyclic-cycles": dict(n=4),
    "flag-scheme": dict(n=3),
    "move-east": dict(n=3),
    "sro": dict(n=2),
    "stay": dict(n=3),
    "tricolor": dict(n=3),
    "sim-rs-by-s": dict(n=3, inner="tricolor"),
    "sim-lumi-by-fcom": dict(n=3, inner="tricolor", scheduler=RSYNCH),
}


def test_registry_runs_cover_the_registry():
    assert sorted(REGISTRY_RUNS) == sorted(ALGORITHMS)


# The command line refuses these in validate_run_config; build_algorithm is
# also a library entry point and refuses them itself.
REFUSED_BUILDS = [
    ("sim-rs-by-s", None, "sim-rs-by-s needs --inner"),
    ("sim-lumi-by-fcom", None, "sim-lumi-by-fcom needs --inner"),
    ("bogus", None, f"unknown algorithm 'bogus'; choose from {', '.join(ALGORITHMS)}"),
    ("sim-rs-by-s", "sim-lumi-by-fcom", "unknown inner algorithm 'sim-lumi-by-fcom'"),
]


@pytest.mark.parametrize("name, inner, message", REFUSED_BUILDS,
                         ids=[f"{name}-{message}" for name, _, message in REFUSED_BUILDS])
def test_build_algorithm_refuses_what_it_cannot_build(name, inner, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.build_algorithm(name, n=3, inner=inner)


def _assert_records(trace):
    for config in trace.configs():
        for _, p, lt in config.entries:
            assert type(p) is Point and type(lt) is LightTuple, (p, lt)


@pytest.mark.parametrize("name", sorted(REGISTRY_RUNS))
def test_no_plain_tuple_stands_in_for_a_record(name, tmp_path, monkeypatch):
    # A record equals the plain tuple of its fields, so only the exact type
    # shows a construction path that builds a bare tuple instead.
    looks = []
    build = cli.build_algorithm

    def recording_build(*args, **kwargs):  # inner algorithms are built through it too
        algo = build(*args, **kwargs)

        def step(snap):
            looks.append(snap)
            return algo.step(snap)

        return dataclasses.replace(algo, step=step)

    monkeypatch.setattr(cli, "build_algorithm", recording_build)
    cfg = RunConfig(algo=name, rounds=30, **REGISTRY_RUNS[name])
    trace = cli.prepare_run(cfg)(3)
    _assert_records(trace)
    if cfg.inner:  # the inner algorithm's Looks are recorded as well as the host's
        assert len({len(snap.own_light or ()) for snap in looks}) == 2
    for snap in looks:
        assert type(snap) is Snapshot
        for loc in snap.observed:
            assert type(loc) is ObservedLocation and type(loc.point) is Point, loc
    path = str(tmp_path / "round-trip.trace")
    write_trace(trace, path)
    again = read_trace(path)
    assert again.initial == trace.initial and again.rounds == trace.rounds
    _assert_records(again)


RELABEL_ROUNDS = 60
# Swarm sizes each registry protocol allows.
RELABEL_NS = {
    "cyclic-cycles": (3, 4, 5),
    "flag-scheme": (2, 3, 5),
    "move-east": (1, 3, 5),
    "sro": (2,),
    "stay": (1, 3, 5),
    "tricolor": (1, 3, 5),
    "sim-rs-by-s": (1, 2, 4),
    "sim-lumi-by-fcom": (2, 3, 4),
}


@functools.cache
def _relabel_case(name, n):
    """(algorithm, initial configuration, explicit schedule, trace) of one
    registry protocol at n robots: rigid moves, identity frames."""
    cfg = dataclasses.replace(RunConfig(algo=name, **REGISTRY_RUNS[name]), n=n)
    algo = cli.build_algorithm(cfg.algo, n=n, inner=cfg.inner)
    if name == "cyclic-cycles":
        config = cli.initial_configuration(cfg, algo)
    else:
        rng = random.Random(f"relabel:{name}:{n}")
        positions = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
        if n > 2:
            positions[-1] = positions[0]  # co-located, so counts show
        config = make_configuration(positions, palette=algo.palette)
    prefix = generate(cfg.scheduler, n, RELABEL_ROUNDS, seed=5)
    return algo, config, prefix, run(config, prefix, algo)


@pytest.mark.parametrize("name", sorted(REGISTRY_RUNS))
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_relabelling_the_robots_relabels_the_trace(name, data):
    # Robots are anonymous: renaming them, in the initial configuration and
    # in every activation set, renames every configuration and event map of
    # the trace the same way, bit for bit.
    n = data.draw(st.sampled_from(RELABEL_NS[name]))
    algo, config, prefix, trace = _relabel_case(name, n)
    perm = data.draw(st.permutations(range(n)))
    entries = sorted((perm[rid], p, lt) for rid, p, lt in config.entries)
    sets = tuple(frozenset(perm[rid] for rid in s) for s in prefix.sets)
    relabelled = run(Configuration(tuple(entries)), SchedulePrefix(sets, n), algo)
    assert len(relabelled.rounds) == len(trace.rounds) == RELABEL_ROUNDS
    for k, (want, got) in enumerate(zip(trace.rounds, relabelled.rounds), start=1):
        for rid, p, lt in want.config.entries:
            _, q, mt = got.config.entries[perm[rid]]
            assert struct.pack("dd", *q) == struct.pack("dd", *p) and mt == lt, (k, rid, perm)
        assert got.events == {perm[rid]: ev for rid, ev in want.events.items()}, (k, perm)
