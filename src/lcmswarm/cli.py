"""Command-line front end: run experiments, validate schedules, run checkers
and monitors, sweep seeds, and render traces.

Exit-code contract (for CI): 0 pass, 1 fail or reject, 2 inconclusive or
parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from typing import Any, Callable, NamedTuple

from .algorithms import (
    alg_cyclic_cycles,
    alg_move_east,
    alg_sro,
    alg_stay,
    alg_tricolor,
    cyc_initial_config,
    flag_scheme_algorithm,
    mover_distance,
)
from .core import POSITION_TOLERANCE, Point, make_configuration
from .engine import Algorithm, ConstraintError, Rigidity, Trace, read_trace, run, write_trace
from .problems import check_cge, check_cyc, check_rdv, check_sro
from .scheduler import (
    INCONCLUSIVE,
    KIND_NAMES,
    OK,
    REJECT,
    ROUND_ROBIN,
    SSYNCH,
    SchedulerKind,
    Verdict,
    check_fair,
    default_fairness_window,
    read_schedule,
    validate,
)
from .simulators import (
    INDUCED,
    extract_induced_schedule,
    monitor_properties,
    sim_lumi_by_fcom,
    sim_rs_by_s,
)


def _needs_n(name: str, n: int | None) -> int:
    if n is None:
        raise ValueError(f"{name} needs --n")
    return n


# Each algorithm's builder of (n, d_rel, inner algorithm).  The names in
# simulators.INDUCED are the meta-simulators: they get their inner built first.
ALGORITHMS: dict[str, Callable[[int | None, float | None, Algorithm | None], Algorithm]] = {
    "flag-scheme": lambda *_: flag_scheme_algorithm(),
    "move-east": lambda *_: alg_move_east(),
    "sro": lambda *_: alg_sro(),
    "stay": lambda *_: alg_stay(),
    "tricolor": lambda *_: alg_tricolor(),
    "cyclic-cycles": lambda n, d_rel, inner: alg_cyclic_cycles(
        _needs_n("cyclic-cycles", n), d_rel=None if d_rel is None else mover_distance(d_rel)),
    "sim-rs-by-s": lambda n, d_rel, inner: sim_rs_by_s(inner),
    "sim-lumi-by-fcom": lambda n, d_rel, inner: sim_lumi_by_fcom(inner, _needs_n("sim-lumi-by-fcom", n)),
}


def build_algorithm(
    name: str,
    n: int | None = None,
    inner: str | None = None,
    d_rel: float | None = None,
) -> Algorithm:
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}")
    if name not in INDUCED:
        return ALGORITHMS[name](n, d_rel, None)
    if inner is None:
        raise ValueError(f"{name} needs --inner")
    if inner not in ALGORITHMS or inner in INDUCED:
        raise ValueError(f"unknown inner algorithm {inner!r}")
    return ALGORITHMS[name](n, d_rel, build_algorithm(inner, n=n, d_rel=d_rel))


@dataclasses.dataclass
class RunConfig:
    algo: str = ""
    inner: str | None = None
    scheduler: str = SSYNCH
    blocks: str | None = None
    schedule_file: str | None = None
    n: int | None = None
    rounds: int | None = None  # defaults to 50, or the schedule file's length
    seed: int = 0
    delta: float | None = None
    chirality: bool = True
    positions: str | None = None
    radius: float = 1.0
    d_rel: float | None = None  # constant mover distance, as a radius fraction
    out: str = "trace.out"


def _parsed(parse: Callable[[str], Any], token: str, expected: str) -> Any:
    """parse(token), or a ValueError that says what was expected and names the token."""
    try:
        return parse(token)
    except ValueError:
        raise ValueError(f"{expected}, got {token!r}") from None


def _point(token: str) -> Point:
    x, y = token.split(",")
    return Point(float(x), float(y))


def _parse_positions(text: str) -> list[Point]:
    return [_parsed(_point, tok, "positions: expected x,y") for tok in text.split()]


def _parse_blocks(text: str, n: int) -> SchedulerKind:
    blocks = [frozenset(_parsed(int, t, "blocks: expected robot ids") for t in chunk.split())
              for chunk in text.split("|")]
    kind = SchedulerKind(ROUND_ROBIN, tuple(blocks))
    if frozenset().union(*blocks) != frozenset(range(n)):
        raise ValueError("round-robin blocks must cover robots 0..n-1")
    return kind


def _runs_cyclic_cycles(cfg: RunConfig) -> bool:
    """Whether cyclic-cycles runs, as the algorithm or as a wrapper's inner."""
    return (cfg.inner if cfg.algo in INDUCED else cfg.algo) == "cyclic-cycles"


def validate_run_config(cfg: RunConfig) -> list[str]:
    """Field-level diagnostics of command-line input.  The constraints an
    algorithm declares are checked by engine.run on the run actually made."""
    problems = []
    if cfg.algo not in ALGORITHMS:
        problems.append(f"algo: unknown algorithm {cfg.algo!r}")
        return problems
    if cfg.scheduler not in KIND_NAMES:
        problems.append(f"scheduler: unknown kind {cfg.scheduler!r}")
    if cfg.rounds is not None and cfg.rounds < 0:
        problems.append("rounds: must be nonnegative")
    if cfg.n is not None and cfg.n < 1:
        problems.append("n: must be a positive integer")
    cyclic = _runs_cyclic_cycles(cfg)
    if cyclic and cfg.d_rel is not None and not 0.0 < cfg.d_rel < 1.0:
        problems.append("d-rel: must be a radius fraction in (0, 1)")
    if cfg.algo == "cyclic-cycles" and cfg.positions:
        problems.append("positions: cyclic-cycles places its own robots (use --radius)")
    if cyclic and not (cfg.radius > 0.0 and math.isfinite(cfg.radius)):
        problems.append("radius: must be a positive finite number")
    if cfg.algo in INDUCED and not cfg.inner:
        problems.append(f"inner: {cfg.algo} needs an inner algorithm")
    if cfg.scheduler == ROUND_ROBIN and not cfg.blocks:
        problems.append("blocks: round-robin needs --blocks")
    return problems


def initial_configuration(cfg: RunConfig, algo: Algorithm):
    # Cyclic circles starts from its own pattern; a simulator running it
    # starts there too unless --positions says otherwise.
    if _runs_cyclic_cycles(cfg) and (cfg.algo not in INDUCED or not cfg.positions):
        positions = [p for _, p, _ in cyc_initial_config(cfg.n, cfg.radius).entries]
    elif cfg.positions:
        positions = _parse_positions(cfg.positions)
    else:
        n = cfg.n if cfg.n is not None else (algo.robot_count or 2)
        if cfg.algo == "sro" and n == 2:
            positions = [Point(0.0, 0.0), Point(1.0, 1.0)]
        else:
            positions = [Point(50.0 * i, 0.0) for i in range(n)]
    return make_configuration(positions, palette=algo.palette)


def prepare_run(cfg: RunConfig) -> Callable[[int], Trace]:
    """Build the algorithm, initial configuration and schedule of a run
    configuration once; the returned function runs them with a given seed."""
    algo = build_algorithm(cfg.algo, n=cfg.n, inner=cfg.inner, d_rel=cfg.d_rel)
    config0 = initial_configuration(cfg, algo)
    if cfg.n is not None and config0.n != cfg.n:
        raise ValueError(f"n={cfg.n} but {config0.n} positions were given")
    rigidity = Rigidity(cfg.delta)
    if algo.rigid and not rigidity.rigid:
        raise ConstraintError(f"{algo.name} requires rigid movement")
    rounds = cfg.rounds
    if cfg.schedule_file:
        schedule, _ = read_schedule(cfg.schedule_file)
        if rounds is None:
            rounds = len(schedule)
    elif cfg.scheduler == ROUND_ROBIN:
        schedule = _parse_blocks(cfg.blocks, config0.n)
    else:
        schedule = SchedulerKind(cfg.scheduler)
    rounds = 50 if rounds is None else rounds

    def execute(seed: int) -> Trace:
        trace = run(
            config0, schedule, algo,
            rigidity=rigidity, rounds=rounds, seed=seed, chirality=cfg.chirality,
        )
        if cfg.algo in INDUCED:  # engine.run cannot name the inner algorithm in the header
            trace = dataclasses.replace(
                trace, header=dataclasses.replace(trace.header, inner=cfg.inner)
            )
        return trace

    return execute


def _load_config_file(path: str) -> dict[str, tuple[int, str]]:
    """key -> (line number, value) of a key=value file; the last line wins."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in body.split("=", 1))
            values[key.replace("-", "_")] = (lineno, val)
    return values


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_NUMBERS = {
    "n": (int, "an integer"),
    "rounds": (int, "an integer"),
    "seed": (int, "an integer"),
    "delta": (float, "a number"),
    "radius": (float, "a number"),
    "d_rel": (float, "a number"),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, (lineno, val) in _load_config_file(args.config).items():
            where = f"{args.config}:{lineno}"
            if key not in {field.name for field in dataclasses.fields(cfg)}:
                raise ValueError(f"{where}: unknown config key {key!r}")
            current = getattr(cfg, key)
            field_type = type(current) if current is not None else str
            if key in _NUMBERS:
                parse, kind = _NUMBERS[key]
                setattr(cfg, key, _parsed(parse, val, f"{where}: {key} must be {kind}"))
            elif key == "chirality":
                if val.lower() not in _BOOLS:
                    raise ValueError(f"{where}: chirality must be true or false, got {val!r}")
                setattr(cfg, key, _BOOLS[val.lower()])
            else:
                setattr(cfg, key, field_type(val))
    for field in dataclasses.fields(cfg):
        val = getattr(args, field.name, None)
        if val is not None:
            setattr(cfg, field.name, val)
    if args.no_chirality:
        cfg.chirality = False
    return cfg


def _add_run_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--algo", help=f"one of: {', '.join(ALGORITHMS)}")
    sub.add_argument("--inner", help="inner algorithm for the meta-simulators")
    sub.add_argument("--scheduler", choices=KIND_NAMES)
    sub.add_argument("--blocks", help="round-robin partition, e.g. '0 1|2'")
    sub.add_argument("--schedule-file", dest="schedule_file", help="explicit schedule file")
    sub.add_argument("--n", type=int)
    sub.add_argument("--rounds", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--delta", type=float, help="non-rigid movement floor; omit for rigid")
    sub.add_argument("--no-chirality", action="store_true")
    sub.add_argument("--positions", help="initial positions, e.g. '0,0 1,1'")
    sub.add_argument("--radius", type=float, help="circle radius for cyclic-cycles")
    sub.add_argument("--d-rel", dest="d_rel", type=float,
                     help="cyclic-cycles mover distance as a radius fraction")
    sub.add_argument("--out", help="trace output path")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _config_from_args(args)
        diagnostics = validate_run_config(cfg)
        if diagnostics:
            for d in diagnostics:
                print(f"config error: {d}", file=sys.stderr)
            return 1
        trace = prepare_run(cfg)(cfg.seed)
        write_trace(trace, cfg.out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(trace.rounds)} rounds to {cfg.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        prefix, file_kind = read_schedule(args.schedule)
    except (ValueError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    kind = args.kind or file_kind
    try:
        report = validate(prefix, kind)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.ok:
        print(f"valid {kind} prefix of {len(prefix)} rounds")
        return 0
    print(f"invalid at round {report.round}: {report.rule}")
    return 1


def _check_cyc(trace: Trace, tol: float, d_rel: float | None) -> Verdict:
    d_fn = None if d_rel is None else mover_distance(d_rel)
    return check_cyc(trace, trace.initial.n, d_rel=d_fn, tol=tol)


def _check_monitors(trace: Trace, tol: float, d_rel: float | None) -> Verdict:
    violations = monitor_properties(trace)
    if violations:
        return Verdict(REJECT, reason=f"{len(violations)} violations; first: {violations[0]}")
    return Verdict(OK)


def _check_induced(trace: Trace, tol: float, d_rel: float | None) -> Verdict:
    induced = extract_induced_schedule(trace)
    target = INDUCED[trace.header.algo]
    report = validate(induced, target)
    if not report:
        return Verdict(REJECT, reason=f"invalid {target} at induced round {report.round}: {report.rule}")
    fairness = check_fair(induced, default_fairness_window(trace.initial.n))
    if not fairness:
        robot, gap, rnd = fairness.violations[0]
        return Verdict(REJECT, reason=f"robot {robot} starved for {gap} induced rounds (at {rnd})")
    return Verdict(OK, reason=f"valid fair {target} schedule of {len(induced)} rounds")


class Check(NamedTuple):
    """Algorithms whose traces a checker reads (none: any) and its function."""

    families: tuple[str, ...]
    run: Callable[[Trace, float, float | None], Verdict]


# Problem checkers read any trace; monitors read meta-simulator traces.
CHECKS = {
    "rdv": Check((), lambda trace, tol, d_rel: check_rdv(trace, tol=tol)),
    "sro": Check((), lambda trace, tol, d_rel: check_sro(trace, tol=tol)),
    "cyc": Check((), _check_cyc),
    "cge": Check((), lambda trace, tol, d_rel: check_cge(trace, tol=tol)),
    "p-props": Check(("sim-rs-by-s",), _check_monitors),
    "step-lemmas": Check(("sim-lumi-by-fcom",), _check_monitors),
    "induced": Check(tuple(INDUCED), _check_induced),
}
EXIT_CODES = {OK: 0, REJECT: 1, INCONCLUSIVE: 2}


def _detail(verdict: Verdict) -> str:
    """What check and sweep print after a check's name.  A reject names its
    trace round when it has one; the monitors' rejects say where in their
    reasons."""
    if verdict.status == INCONCLUSIVE:
        return f"inconclusive: {verdict.reason}"
    if verdict.round is not None:
        return f"reject at round {verdict.round}: {verdict.reason}"
    return verdict.reason or "ok"


def _refuse_other_families(name: str, algo: str) -> None:
    families = CHECKS[name].families
    if families and algo not in families:
        raise ValueError(f"monitor {name} applies to {' or '.join(families)} traces, not {algo!r}")


def _number(rule: str, holds: Callable[[float], bool]) -> Callable[[str], float]:
    """An argparse type: the flag's value as a float, refused unless `holds`."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


_tolerance = _number("a finite number >= 0", lambda v: math.isfinite(v) and v >= 0.0)
_radius_fraction = _number("a radius fraction in (0, 1)", lambda v: 0.0 < v < 1.0)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        trace = read_trace(args.trace)
    except (ValueError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    name = args.problem or args.monitor
    try:
        _refuse_other_families(name, trace.header.algo)
        verdict = CHECKS[name].run(trace, args.tol, args.d_rel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{name}: {_detail(verdict)}")
    return EXIT_CODES[verdict.status]


def cmd_sweep(args: argparse.Namespace) -> int:
    lo, _, hi = args.seeds.partition(":")
    try:
        seeds = range(int(lo), int(hi or lo) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        print(f"error: --seeds must be a nonempty integer range like 0:99, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    try:
        cfg = _config_from_args(args)
        diagnostics = validate_run_config(cfg)
        if diagnostics:
            for d in diagnostics:
                print(f"config error: {d}", file=sys.stderr)
            return 1
        _refuse_other_families(args.check, cfg.algo)
        execute = prepare_run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    check = CHECKS[args.check]
    outcomes = {OK: 0, REJECT: 0, INCONCLUSIVE: 0}
    first_bad: tuple[int, str] | None = None
    for seed in seeds:
        # A refused run is a configuration error, not this seed's failure.
        try:
            verdict = check.run(execute(seed), args.tol, cfg.d_rel)
            message = f"{args.check}: {_detail(verdict)}"
        except ConstraintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, RuntimeError) as exc:
            verdict, message = Verdict(REJECT), f"error: {exc}"
        outcomes[verdict.status] += 1
        if verdict.status == REJECT and first_bad is None:
            first_bad = (seed, message)
    print(
        f"seeds {seeds.start}..{seeds.stop - 1}: "
        f"{outcomes[OK]} pass, {outcomes[REJECT]} fail, {outcomes[INCONCLUSIVE]} inconclusive"
    )
    if first_bad is not None:
        print(f"first counterexample seed {first_bad[0]}: {first_bad[1]}")
        return 1
    return 0


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _bounds(trace: Trace) -> tuple[float, float, float, float]:
    xs = [p.x for c in trace.configs() for _, p, _ in c.entries]
    ys = [p.y for c in trace.configs() for _, p, _ in c.entries]
    return min(xs), min(ys), max(xs), max(ys)


def svg_plot(trace: Trace) -> str:
    x0, y0, x1, y1 = _bounds(trace)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.6g} {-y1:.6g} '
        f'{x1 - x0:.6g} {y1 - y0:.6g}" width="640" height="640">'
    ]
    stroke = 0.004 * max(x1 - x0, y1 - y0)
    for rid in range(trace.initial.n):
        color = _PALETTE[rid % len(_PALETTE)]
        pts = " ".join(f"{c.position(rid).x:.9g},{-c.position(rid).y:.9g}" for c in trace.configs())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{stroke:.6g}"/>'
        )
        p = trace.initial.position(rid)
        parts.append(f'<circle cx="{p.x:.9g}" cy="{-p.y:.9g}" r="{2 * stroke:.6g}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def ascii_plot(trace: Trace, width: int = 72, height: int = 28) -> str:
    x0, y0, x1, y1 = _bounds(trace)
    spanx = max(x1 - x0, 1e-9)
    spany = max(y1 - y0, 1e-9)
    grid = [["." for _ in range(width)] for _ in range(height)]
    symbols = "0123456789abcdefghijklmnopqrstuvwxyz"
    for c in trace.configs():
        for rid, p, _ in c.entries:
            col = int((p.x - x0) / spanx * (width - 1))
            row = int((y1 - p.y) / spany * (height - 1))
            cell = grid[row][col]
            sym = symbols[rid % len(symbols)]
            grid[row][col] = sym if cell in (".", sym) else "#"
    lines = ["".join(row) for row in grid]
    lines.append(f"x: [{x0:.6g}, {x1:.6g}]  y: [{y0:.6g}, {y1:.6g}]  rounds: {len(trace.rounds)}")
    return "\n".join(lines)


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        trace = read_trace(args.trace)
    except (ValueError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    rendering = svg_plot(trace) if args.out and args.out.endswith(".svg") else ascii_plot(trace)
    if not args.out:
        print(rendering)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(rendering + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argument parser of this process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(prog="lcmswarm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run an experiment and write a trace")
    _add_run_arguments(p_run)
    p_run.set_defaults(func=cmd_run)

    p_val = subs.add_parser("validate", help="validate a schedule file")
    p_val.add_argument("--schedule", required=True)
    p_val.add_argument("--kind", choices=KIND_NAMES, help="defaults to the file header kind")
    p_val.set_defaults(func=cmd_validate)

    p_chk = subs.add_parser("check", help="run a problem checker or monitor on a trace")
    group = p_chk.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", choices=[k for k, c in CHECKS.items() if not c.families])
    group.add_argument("--monitor", choices=[k for k, c in CHECKS.items() if c.families])
    p_chk.add_argument("--trace", required=True)
    p_chk.add_argument("--tol", type=_tolerance, default=POSITION_TOLERANCE)
    p_chk.add_argument("--d-rel", dest="d_rel", type=_radius_fraction,
                       help="mover distance fraction the trace was produced with")
    p_chk.set_defaults(func=cmd_check)

    p_swp = subs.add_parser("sweep", help="run many seeds and aggregate checker verdicts")
    _add_run_arguments(p_swp)
    p_swp.add_argument("--seeds", required=True, help="inclusive seed range, e.g. 0:99")
    p_swp.add_argument("--check", required=True, choices=tuple(CHECKS))
    p_swp.add_argument("--tol", type=_tolerance, default=POSITION_TOLERANCE)
    p_swp.set_defaults(func=cmd_sweep)

    p_plt = subs.add_parser("plot", help="render robot trajectories from a trace")
    p_plt.add_argument("--trace", required=True)
    p_plt.add_argument("--out", help="output path; .svg renders vector output")
    p_plt.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
