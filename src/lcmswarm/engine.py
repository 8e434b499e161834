"""Synchronous LCM execution: Look, Compute, Move in lockstep, with traces.

All robots activated in a round observe the same pre-round configuration;
light updates and movements commit simultaneously at the end of the round.
Runs are deterministic in their inputs and seed.
"""

from __future__ import annotations

import gc
import random
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .core import (
    ORIGIN,
    POSITION_TOLERANCE,
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
# in this process.  Over 8,000 cyc-n5 runs the graph executes 47,783 of 6.4 M
# rounds and ends with 1,457 states; a cold start's first 800 runs execute
# about 41,000.  After 800 sim-n3 runs they keep 16,383 entries, and past its
# first 600 runs sim-n3 reads 65 % of rounds: sim-rs-by-s and sim-lumi-by-fcom
# read 94 and 100 % over stay, 61 and 83 % over move-east, 15 and 19 % over
# tricolor.  tracemalloc reads a state at 541 B at n = 3 and 788 B at n = 5.  A
# state is a list indexed by the activation set's bit mask, so a run of more
# than _GRAPH_ROBOTS robots keeps no graph.
_GRAPH_ENTRIES = 16384
_GRAPH_ROBOTS = 6
# Each graph's doorkeeper: 64 KiB of one-byte slots, cleared after _DOOR_MARKS
# first visits, each marking two slots from the key's CRC-32 (hash() is salted
# per process; this way every process keeps the same states).  So at most 1/8
# of the slots are set, and an unvisited configuration passes for visited at
# most 1/64 of the time; admitted early, it changes what is kept, never a
# round.  4,096 marks outlast the 1,481 that 8,000 cyc-n5 runs make.
_DOOR_SLOTS = 1 << 16
_DOOR_MARKS = 1 << 12


class ConfigGraph:
    """The rounds that rigid runs of one algorithm instance took under one
    model, frame set and multiplicity, each a function of the configuration's
    value and the activation set.  Configurations are interned (hash-consed) by
    one bytes key: each position's bit pattern, so -0.0 stays apart from 0.0,
    then each robot's index in the graph's table of light values, which lies
    outside the budget and, like Algorithm._lights, the palette bounds.  One
    becomes a state on its second visit, in this run or an earlier one, when
    all graphs keep at most _GRAPH_ENTRIES entries with it; `door` marks first
    visits (TinyLFU's doorkeeper, in a Bloom filter's fixed table).  A state is
    [config] + nexts, where nexts[mask] is the state that activating bit mask
    `mask` leads to, or (that state, its events' items, one object per value
    through `events`), written in one store."""

    kept = 0  # robot entries that the states of every graph keep

    def __init__(self):
        self.states: dict[bytes, list] = {}
        self.lights: dict[tuple[int, ...], int] = {}  # light values -> their index in keys
        self.masks: dict[frozenset[int], int] = {}
        self.events: dict[tuple, tuple] = {}  # an edge's events items, one object per value
        self.door, self.marks = bytearray(_DOOR_SLOTS), 0  # first visits, and their count

    def __del__(self):  # an algorithm's graphs give their entries back with it
        type(self).kept -= sum(state[0].n for state in self.states.values())

    def intern(self, config: Configuration) -> list | None:
        """The state of `config`, admitted now if it may be, or None."""
        entries, lights, n = config.entries, self.lights, config.n
        key = struct.pack(f"{2 * n}d{n}I", *[c for _, p, _ in entries for c in p],
                          *[lights.setdefault(lt.values, len(lights)) for _, _, lt in entries])
        state = self.states.get(key)
        if state is None:
            seen, door = zlib.crc32(key), self.door
            first, second = seen % _DOOR_SLOTS, (seen >> 16) % _DOOR_SLOTS
            if not (door[first] and door[second]):
                door[first] = door[second] = 1
                self.marks += 1
                if self.marks == _DOOR_MARKS:
                    self.door, self.marks = bytearray(_DOOR_SLOTS), 0
            elif ConfigGraph.kept + n <= _GRAPH_ENTRIES:
                state = self.states[key] = [config] + [None] * (1 << n)
                ConfigGraph.kept += n
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
    state = graph.intern(config) if graph else None
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
                if state is not None:  # equal events items are one object per graph
                    items = tuple(events.items())
                    state[1 + mask] = (after, graph.events.setdefault(items, items)) if events else after
            state = after
        config = new
        yield TraceRound(eset, config, events)


def _paused(fn: Callable, *args):
    """fn(*args) with automatic collection off, then as the outermost call found it: a
    round loop leaves no cyclic garbage, so collecting in it only re-walks live objects."""
    if not gc.isenabled():
        return fn(*args)
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


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
        key = model, multiplicity, repr(list(frames.values()))
        graph = algo._graphs.get(key) or algo._graphs.setdefault(key, ConfigGraph())
    rounds_run = _execute(config0, prefix.sets, algo, model, frames, rigidity, seed, multiplicity, graph)
    return Trace(header, config0, _paused(tuple, rounds_run))


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

    produced = _execute(trace.initial, (r.eset for r in trace.rounds), algo, h.model,
                        _frames(frames, trace.initial.n), rigidity, h.seed, multiplicity)
    return _paused(next, _divergences(trace.rounds, produced, tol), None) is None


def write_trace(trace: Trace, path: str) -> None:
    """Serialize a trace; round 0 carries the initial configuration.

    Floats are written as repr, the shortest text that parses back to the same
    double, as replay and late-stage geometry checks need (12 fixed digits lose
    deeply shrunk segments).  A robot's line is reused while its position and
    light stay the same objects and no round gives it events.  A header value
    that holds whitespace, or an event that holds whitespace or a comma, would
    not read back, nor would a robot's empty event tuple, so each raises
    ValueError before the file is opened."""
    h = trace.header
    for key, value in (("kind", h.kind), ("algo", h.algo), ("inner", h.inner)):
        if re.search(r"\s", value):
            raise ValueError(f"header field {key}={value!r} holds whitespace")
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
                    if not events[rid]:
                        raise ValueError(f"round {k}: robot {rid}: an empty event tuple reads back as ('',)")
                    if bad := [e for e in events[rid] if re.search(r"[\s,]", e)]:
                        raise ValueError(
                            f"round {k}: robot {rid}: event {bad[0]!r} holds whitespace or a comma")
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
    # Each slot's last line, its entry and its events.  A round 0 the file is too
    # short for is truncated before a slot is read, so no more slots than lines.
    slots: list = [(None, None, None)] * min(n, len(lines))
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
