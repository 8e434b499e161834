"""Synchronous LCM execution: Look, Compute, Move in lockstep, with traces.

All robots activated in a round observe the same pre-round configuration;
light updates and movements commit simultaneously at the end of the round.
Runs are deterministic in their inputs and seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .core import (
    ORIGIN,
    POSITION_TOLERANCE,
    _PACK_XY,
    Configuration,
    LightTuple,
    LocalFrame,
    ModelKind,
    Multiplicity,
    Point,
    Snapshot,
    _configuration,
    _frame,
    _is_color,
    _light,
    _point,
    from_local,
    points_close,
    snapshot,
)
from .scheduler import SchedulePrefix, SchedulerKind, generate, validate


class PaletteError(ValueError):
    """An algorithm emitted a light value outside its declared palette."""


class ConstraintError(ValueError):
    """A run's inputs break a precondition of `run` or of the algorithm."""


@dataclass(frozen=True)
class StepResult:
    """Outcome of one Compute phase.

    `light` maps light-variable indices to new color values; unassigned
    variables persist, which is what lets external-light robots update state
    they cannot see.  `destination` is in the robot's local frame; the local
    origin means stay.  `events` are free-form annotations recorded in the
    trace (e.g. that a meta-simulator ran its inner algorithm).
    """

    light: Mapping[int, int] = field(default_factory=dict)
    destination: Point = Point(0.0, 0.0)
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class Algorithm:
    """A protocol: a palette declaration plus a pure step function.

    Step functions receive only a Snapshot; they never see robot ids, round
    numbers, or anything else, which enforces anonymity and uniformity by
    construction.  A step must be a pure function of its snapshot: `run`
    reuses a robot's step result while nothing it can see has changed, and
    under rigid movement each instance reuses whole rounds across its runs
    (see ConfigGraph).  The remaining fields are run constraints, which `run`
    checks before round 1; only `rigid` is left to the command line, since
    pinned traces run sro under non-rigid movement.
    """

    name: str
    palette: tuple[int, ...]
    step: Callable[[Snapshot], StepResult]
    model: ModelKind
    needs_chirality: bool = False
    robot_count: int | None = None  # exact swarm size required, if any
    min_robots: int = 1
    rigid: bool = False  # its guarantees need rigid movement
    host: str | None = None  # scheduler family its activation sets must belong to
    _graphs: dict[tuple, ConfigGraph] = field(default_factory=dict, init=False, repr=False, compare=False)
    _lights: dict[tuple, LightTuple] = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class FrameSpec:
    """The persistent part of a robot's local frame (fixed disorientation)."""

    rotation: float = 0.0
    scale: float = 1.0
    reflecting: bool = False


IDENTITY_FRAME = FrameSpec()


@dataclass(frozen=True)
class Rigidity:
    """Movement policy: rigid (delta None) or adversarially truncated.

    Under non-rigid movement a robot heading farther than delta may be
    stopped anywhere on its segment at distance at least delta; delta is
    never revealed to algorithms.
    """

    delta: float | None = None

    def __post_init__(self):
        if self.delta is not None and not self.delta > 0.0:
            raise ValueError("delta must be positive")

    @property
    def rigid(self) -> bool:
        return self.delta is None


def apply_move(src: Point, dest: Point, rigidity: Rigidity, rng: random.Random) -> Point:
    """Resolve the Move phase for one robot.

    Rigid movement always reaches dest.  Non-rigid movement reaches dest when
    it is within delta; otherwise the seeded adversary picks a stop on the
    segment, clamped to at least delta from src (possibly dest itself).
    """
    if rigidity.rigid:
        return dest
    full = ((dest.x - src.x) ** 2 + (dest.y - src.y) ** 2) ** 0.5
    if full <= rigidity.delta:
        return dest
    travelled = max(rigidity.delta, rng.random() * full)
    t = travelled / full
    return Point(src.x + (dest.x - src.x) * t, src.y + (dest.y - src.y) * t)


@dataclass(frozen=True)
class TraceHeader:
    model: ModelKind
    kind: str
    n: int
    seed: int
    delta: float | None
    palette: tuple[int, ...]
    algo: str = ""
    inner: str = ""


@dataclass(slots=True)  # not frozen, so cheap to build; nothing assigns its fields
class TraceRound:
    eset: frozenset[int]
    config: Configuration
    events: dict[int, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    """Full record of an execution: initial configuration plus one entry per
    round holding the activation set and the post-round configuration."""

    header: TraceHeader
    initial: Configuration
    rounds: tuple[TraceRound, ...]

    def configs(self) -> list[Configuration]:
        return [self.initial] + [r.config for r in self.rounds]


def _check_result(result: StepResult, palette: tuple[int, ...], name: str) -> None:
    for idx, value in result.light.items():
        if not 0 <= idx < len(palette):
            raise PaletteError(f"{name}: no light variable {idx}")
        if not _is_color(value, palette[idx]):
            raise PaletteError(f"{name}: value {value} outside palette of size {palette[idx]}")


def _check_palette(config: Configuration, algo: Algorithm) -> None:
    for _, _, lt in config.entries:
        if lt.palette != algo.palette:
            raise ConstraintError("initial lights do not match the algorithm's palette")


def _frames(frames: dict[int, FrameSpec] | None, n: int) -> dict[int, FrameSpec]:
    """Each robot's frame spec, identity by default; ConstraintError names a
    robot whose spec no LocalFrame accepts."""
    frames = {rid: (frames or {}).get(rid, IDENTITY_FRAME) for rid in range(n)}
    for rid, spec in frames.items():
        try:
            LocalFrame(ORIGIN, spec.rotation, spec.scale)
        except ValueError as exc:
            raise ConstraintError(f"robot {rid}: {exc}") from exc
    return frames


def run_round(
    config: Configuration,
    eset: frozenset[int],
    algo: Algorithm,
    model: ModelKind,
    frames: dict[int, FrameSpec],
    rigidity: Rigidity,
    rng: random.Random,
    multiplicity: Multiplicity = Multiplicity.STRONG,
    store: dict[int, tuple[LocalFrame, list, StepResult | None]] | None = None,
) -> tuple[Configuration, dict[int, tuple[str, ...]]]:
    """Execute one synchronous round for the robots in eset.

    Lights must carry algo.palette and frame specs must be valid (run and
    replay check both); new values are checked once, by _check_result, and
    committed unchecked.  `store` keeps each robot's frame and Look geometry
    until a robot moves, and its step result until a light it can see changes
    value; a round that moves no robot and changes no light returns `config`.
    A robot whose position and light stay the same objects keeps its entry,
    and each new light value is one LightTuple per instance (`algo._lights`)."""
    for rid in eset:
        if not 0 <= rid < config.n:
            raise ValueError(f"activation of unknown robot {rid}")
    store = {} if store is None else store

    # Look + Compute against the same pre-round configuration; each robot's
    # frame is built once and kept for its Move.
    for rid in sorted(eset):
        frame, geometry, result = store.get(rid) or (None, [], None)  # the Look fills geometry
        if result is None:
            if frame is None:
                spec = frames[rid]
                frame = _frame(config.position(rid), spec.rotation, spec.scale, spec.reflecting)
            result = algo.step(snapshot(model, config, rid, frame, multiplicity, geometry))
            _check_result(result, algo.palette, algo.name)
            store[rid] = frame, geometry, result

    # Move + light commit, simultaneously.
    entries = []
    events: dict[int, tuple[str, ...]] = {}
    moved, lit = False, []
    for entry in config.entries:
        rid, pos, light = entry
        if rid in eset:
            frame, _, result = store[rid]
            if result.destination.x or result.destination.y:  # the local origin is `pos`
                dest = from_local(frame, result.destination)
                if not points_close(dest, pos, 0.0):
                    pos = apply_move(pos, dest, rigidity, rng)
                    moved = True
            if result.light:
                values = list(light.values)
                for idx, value in result.light.items():
                    values[idx] = value
                values = tuple(values)
                if values != light.values:
                    light = algo._lights.get(values)
                    if light is None:
                        light = algo._lights[values] = _light(values, algo.palette)
                    lit.append(rid)
            if pos is not entry[1] or light is not entry[2]:
                entry = rid, pos, light
            if result.events:
                events[rid] = result.events
        entries.append(entry)
    if moved:
        store.clear()
    elif lit:  # drop each kept result that sees a changed light
        for rid, (frame, geometry, result) in store.items():
            if result is not None and model.sees_change(rid, lit):
                store[rid] = frame, geometry, None
    else:
        return config, events
    return _configuration(tuple(entries)), events


# Robot entries (n per state of n robots) kept by the graphs of every algorithm
# in this process.  Over 4,000 cyc-n5 runs the graph holds all 1,397 states it
# reaches and reads 99.9 % of the last 1,000 runs' rounds, against 90.1 % at
# 4,096; a state costs about 1 KB.  A state is a list indexed by the activation
# set's bit mask, so a run of more than _GRAPH_ROBOTS robots keeps no graph.
_GRAPH_ENTRIES = 8192
_GRAPH_ROBOTS = 6


class ConfigGraph:
    """The rounds that rigid runs of one algorithm instance took under one
    model, frame set and multiplicity, each a function of the configuration's
    value and the activation set.  Configurations are interned (hash-consed) by
    each position's bit pattern, so -0.0 stays apart from 0.0, and each
    robot's light values; one becomes a state when the run before visited it
    too and all graphs keep at most _GRAPH_ENTRIES entries with it.  A state is
    [config] + nexts, where nexts[mask] is the state that activating bit mask
    `mask` leads to, or (that state, its events), written in one store."""

    kept = 0  # robot entries that the states of every graph keep

    def __init__(self):
        self.states: dict[tuple[bytes, tuple], list] = {}
        self.masks: dict[frozenset[int], int] = {}
        self.visited: set[int] = set()  # key hashes of this run's configurations
        self.before: set[int] = set()  # and of the run before's

    def __del__(self):  # an algorithm's graphs give their entries back with it
        type(self).kept -= sum(state[0].n for state in self.states.values())

    def intern(self, config: Configuration) -> list | None:
        """The state of `config`, admitted now if it may be, or None."""
        entries = config.entries
        key = (b"".join([_PACK_XY(p.x, p.y) for _, p, _ in entries]),
               tuple([lt.values for _, _, lt in entries]))
        state = self.states.get(key)
        if state is None:
            seen = hash(key)
            if seen in self.before and ConfigGraph.kept + config.n <= _GRAPH_ENTRIES:
                state = self.states[key] = [config] + [None] * (1 << config.n)
                ConfigGraph.kept += config.n
            else:
                self.visited.add(seen)
        return state


def _execute(config: Configuration, sets: Iterable[frozenset[int]], algo: Algorithm, model: ModelKind,
             frames: dict[int, FrameSpec], rigidity: Rigidity, seed: int,
             multiplicity: Multiplicity, graph: ConfigGraph | None = None) -> Iterator[TraceRound]:
    """The one round loop of run and replay: execute each activation set in
    turn from `config`, with one movement RNG seeded from `seed` and one store
    of kept Looks and step results, and yield each round as it is made.  A
    round that `graph` holds is read from it, with no Look, Compute or Move; a
    run whose initial configuration has no state looks nothing up."""
    rng = random.Random(seed)
    store: dict = {}
    state = None
    if graph:
        graph.before, graph.visited = graph.visited, set()
        state = graph.intern(config)
    keyed = state is not None  # whether this run looks its configurations up
    for eset in sets:
        if state is not None:
            mask = graph.masks.get(eset)
            if mask is None:
                mask = graph.masks[eset] = sum(1 << rid for rid in eset)
            after = state[1 + mask]
            if after is not None:
                events = {}  # each round gets a dict of its own, never the stored one
                if type(after) is tuple:
                    after, events = after[0], dict(after[1])
                if after is not state:
                    store.clear()
                    state, config = after, after[0]
                yield TraceRound(eset, config, events)
                continue
        new, events = run_round(config, eset, algo, model, frames, rigidity, rng, multiplicity, store)
        if keyed:
            after = state if new is config else graph.intern(new)
            if after is not None:
                new = after[0]
                if state is not None:
                    state[1 + mask] = (after, dict(events)) if events else after
            state = after
        config = new
        yield TraceRound(eset, config, events)


def _divergences(
    recorded: Iterable[TraceRound], produced: Iterable[TraceRound], tol: float
) -> Iterator[tuple[int, int, str]]:
    """The one round-by-round comparison of replay and fidelity: yield
    (round, robot, "position" | "light"), rounds counted from 1, for each
    robot whose produced position is farther than tol from the recorded one
    or whose light differs.  `produced` is drawn one round at a time, so a
    caller that stops reading stops a lazy execution there too."""
    for k, (want, got) in enumerate(zip(recorded, produced), start=1):
        for (rid, pos, light), (_, want_pos, want_light) in zip(got.config.entries, want.config.entries):
            if not points_close(pos, want_pos, tol):
                yield k, rid, "position"
            if light != want_light:
                yield k, rid, "light"


def run(
    config0: Configuration,
    schedule: SchedulePrefix | SchedulerKind | str,
    algo: Algorithm,
    *,
    rigidity: Rigidity = Rigidity(),
    rounds: int | None = None,
    seed: int = 0,
    frames: dict[int, FrameSpec] | None = None,
    multiplicity: Multiplicity = Multiplicity.STRONG,
    chirality: bool = True,
    model: ModelKind | None = None,
) -> Trace:
    """Run an execution and record its trace.

    `schedule` may be an explicit prefix or a scheduler kind, in which case a
    prefix is generated from the seed.  The same seed also drives the
    non-rigid movement adversary.  Broken preconditions and algorithm
    constraints raise ConstraintError; `host` is checked on the sets run.
    """
    n = config0.n
    if rounds is not None and rounds < 0:
        raise ConstraintError("rounds must be nonnegative")
    if isinstance(schedule, (SchedulerKind, str)):
        kind = SchedulerKind(schedule) if isinstance(schedule, str) else schedule
        if rounds is None:
            raise ConstraintError("rounds is required when generating a schedule")
        prefix = generate(kind, n, rounds, seed) if rounds else SchedulePrefix((), n)
        kind_name = kind.name
    else:
        prefix = schedule
        kind_name = "explicit"
        if prefix.n != n:
            raise ConstraintError(f"schedule is for n={prefix.n}, configuration has n={n}")
        if rounds is None:
            rounds = len(prefix)
        elif rounds > len(prefix):
            raise ConstraintError("schedule prefix shorter than requested rounds")
        elif rounds < len(prefix):
            prefix = SchedulePrefix(prefix.sets[:rounds], n)

    model = model or algo.model
    if algo.robot_count is not None and n != algo.robot_count:
        raise ConstraintError(f"{algo.name} requires exactly {algo.robot_count} robots")
    if n < algo.min_robots:
        raise ConstraintError(f"{algo.name} requires at least {algo.min_robots} robots")
    if algo.needs_chirality and not chirality:
        raise ConstraintError(f"{algo.name} requires chirality")
    if algo.host is not None:
        report = validate(prefix, algo.host)
        if not report.ok:
            raise ConstraintError(f"{algo.name} runs only under {algo.host} schedules: "
                                  f"round {report.round} breaks rule {report.rule}")
    frames = _frames(frames, n)
    if chirality and any(spec.reflecting for spec in frames.values()):
        raise ConstraintError("chirality requires every frame to preserve orientation")
    _check_palette(config0, algo)

    header = TraceHeader(model, kind_name, n, seed, rigidity.delta, algo.palette, algo.name)
    graph = None
    if rigidity.rigid and n <= _GRAPH_ROBOTS:  # repr tells a -0.0 rotation apart
        graph = algo._graphs.setdefault((model, multiplicity, repr(list(frames.values()))), ConfigGraph())
    rounds_run = _execute(config0, prefix.sets, algo, model, frames, rigidity, seed, multiplicity, graph)
    return Trace(header, config0, tuple(rounds_run))


def replay(
    trace: Trace,
    algo: Algorithm,
    *,
    rigidity: Rigidity = Rigidity(),
    frames: dict[int, FrameSpec] | None = None,
    multiplicity: Multiplicity = Multiplicity.STRONG,
    tol: float = POSITION_TOLERANCE,
) -> bool:
    """Re-execute a trace and compare configurations round by round.

    Returns True iff every position agrees within tol and every light matches
    exactly.  Raises on header mismatches (wrong algorithm, palette or
    movement policy) since those runs are incomparable, not divergent.
    """
    h = trace.header
    if h.algo and algo.name != h.algo:
        raise ValueError(f"header mismatch: trace was produced by {h.algo!r}")
    if algo.palette != h.palette:
        raise ValueError("header mismatch: palette differs")
    if algo.model != h.model:
        raise ValueError("header mismatch: model differs")
    if rigidity.delta != h.delta:
        raise ValueError("header mismatch: movement policy differs")

    _check_palette(trace.initial, algo)

    frames = _frames(frames, trace.initial.n)
    produced = _execute(trace.initial, (r.eset for r in trace.rounds), algo, h.model, frames,
                        rigidity, h.seed, multiplicity)
    return next(_divergences(trace.rounds, produced, tol), None) is None


def write_trace(trace: Trace, path: str) -> None:
    """Serialize a trace; round 0 carries the initial configuration.

    Floats are written as repr, the shortest text that parses back to the same
    double, as replay and late-stage geometry checks need (12 fixed digits lose
    deeply shrunk segments).  A robot's line is reused while its position and
    light stay the same objects and no round gives it events."""
    h = trace.header
    head = (
        f"model={h.model.value} kind={h.kind} n={h.n} seed={h.seed} "
        f"delta={'rigid' if h.delta is None else repr(h.delta)} "
        f"palette={';'.join(map(str, h.palette))}"
    )
    if h.algo:
        head += f" algo={h.algo}"
    if h.inner:
        head += f" inner={h.inner}"
    lines = [head]
    light_text: dict[tuple[int, ...], str] = {}  # each distinct light formatted once
    rounds = [(r.config, r.eset, r.events) for r in trace.rounds]
    last_entries, last_block, last_events = (), [], {}
    for k, (config, eset, events) in enumerate([(trace.initial, (), {})] + rounds):
        lines.append(f"round={k} act=" + " ".join(map(str, sorted(eset))))
        if len(last_block) != len(config.entries):  # round 0, or n changed: nothing to reuse
            last_entries = last_block = [(None, None, None)] * len(config.entries)
        block = []
        for (rid, p, lt), (_, was_p, was_lt), line in zip(config.entries, last_entries, last_block):
            if was_p is not p or was_lt is not lt or rid in events or rid in last_events:
                text = light_text.get(lt.values)
                if text is None:
                    text = light_text[lt.values] = ";".join(map(str, lt.values))
                line = f"id={rid} pos={p.x!r},{p.y!r} light={text}"
                if rid in events:
                    line += " ev=" + ",".join(events[rid])
            block.append(line)
        lines += block
        last_entries, last_block, last_events = config.entries, block, events
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# A robot line exactly as write_trace writes it; ids must run 0..n-1 in order.
_ROBOT_LINE = re.compile(r"id=(\S*) pos=([^\s,]*),([^\s,]*) light=(\S*)(?: ev=(\S*))?")


def read_trace(path: str) -> Trace:
    """Parse a trace file in one pass; a malformed one raises ValueError naming
    its line.  Each distinct light and act= text is checked once; a robot line
    equal, as text, to its slot's line in the round before reuses its entry and
    events, and a block of such lines reuses the round before's configuration."""
    with open(path) as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().split("\n"), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}:1: empty trace file")
    head_no, head_line = lines[0]
    fields = dict(tok.split("=", 1) for tok in head_line.split() if "=" in tok)
    try:
        model = ModelKind(fields["model"])
        n = int(fields["n"])
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        seed = int(fields["seed"])
        delta = None if fields["delta"] == "rigid" else float(fields["delta"])
        palette = tuple(int(t) for t in fields["palette"].split(";") if t)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}:{head_no}: bad trace header: {exc}") from exc
    header = TraceHeader(
        model, fields.get("kind", "explicit"), n, seed, delta, palette,
        fields.get("algo", ""), fields.get("inner", ""),
    )

    lights: dict[str, LightTuple] = {}
    acts: dict[str, frozenset[int]] = {}
    slots: list = [(None, None, None)] * n  # each slot's last line, its entry and its events
    rounds: list[TraceRound] = []
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        if not line.startswith("round="):
            raise ValueError(f"{path}:{lineno}: expected a round line, got {line!r}")
        head, _, act = line.partition(" act=")
        try:
            k = int(head.split("=", 1)[1])
            eset = acts[act] if act in acts else frozenset(int(t) for t in act.split())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad round line: {exc}") from exc
        if k != len(rounds):
            raise ValueError(f"{path}:{lineno}: expected round {len(rounds)}, got round={k}")
        if act not in acts:
            if eset and (min(eset) < 0 or max(eset) >= n):
                bad = min(eset) if min(eset) < 0 else max(eset)
                raise ValueError(f"{path}:{lineno}: activation of unknown robot {bad} (n={n})")
            acts[act] = eset
        if i + n >= len(lines):
            raise ValueError(f"{path}:{lineno}: truncated round {k}")
        entries = []
        events: dict[int, tuple[str, ...]] = {}
        repeated = k > 0
        for slot, (rowno, row) in enumerate(lines[i + 1 : i + 1 + n]):
            seen, entry, ev = slots[slot]
            if row != seen:
                repeated = False
                match = _ROBOT_LINE.fullmatch(row)
                try:
                    if match is None:
                        raise ValueError(f"not id=<i> pos=<x>,<y> light=<v;...>[ ev=<e,...>]: {row!r}")
                    rid, x, y, text, ev = match.groups()
                    if text not in lights:
                        lights[text] = LightTuple(tuple(int(t) for t in text.split(";") if t), palette)
                    entry = int(rid), _point(float(x), float(y)), lights[text]
                except ValueError as exc:
                    raise ValueError(f"{path}:{rowno}: bad robot line: {exc}") from exc
                ev = None if ev is None else tuple(ev.split(","))
                slots[slot] = row, entry, ev
            entries.append(entry)
            if ev is not None:
                events[entry[0]] = ev
        if not repeated:
            try:
                config = Configuration(tuple(entries))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
        rounds.append(TraceRound(eset, config, events))
        i += 1 + n
    if not rounds:
        raise ValueError(f"{path}: trace must start with round=0")
    return Trace(header, rounds[0].config, tuple(rounds[1:]))
