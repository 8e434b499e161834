import pytest

from lcmswarm.algorithms import cyc_initial_config
from lcmswarm.cli import main
from lcmswarm.engine import read_trace
from lcmswarm.scheduler import SSYNCH, generate, write_schedule


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


@pytest.mark.parametrize("bad, message", [
    ("round=2 act=x", "bad round line: invalid literal for int()"),
    ("round=q", "bad round line: invalid literal for int()"),
    ("round=7 act=0 1", "expected round 2, got round=7"),
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
