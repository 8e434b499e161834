"""Meta-simulators and their monitors.

Two wrappers let weaker hosts run protocols written for stronger settings:

* sim-rs-by-s: full-light robots under any semi-synchronous schedule execute
  a protocol written for the restricted-repetition scheduler.  Bookkeeping
  lights (step, executed, charged) serialize inner executions so that the
  induced activation sequence has a full-activation prefix followed by
  nonempty proper subsets with consecutive sets disjoint.

* sim-lumi-by-fcom: external-light robots under a restricted-repetition
  schedule execute a protocol written for full lights.  Each robot displays a
  copy of its successor location's colors, letting its successor reconstruct
  the color it cannot see; mega-cycles guarantee every robot executes the
  inner protocol exactly once per cycle, so the induced schedule is fair.

Both wrappers annotate inner executions in the trace; extract_induced_schedule
and monitor_properties work off those annotations.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from operator import itemgetter

from .core import (
    ORIGIN,
    POSITION_TOLERANCE,
    Configuration,
    LightTuple,
    ModelKind,
    Multiplicity,
    ObservedLocation,
    Point,
    Snapshot,
    _key_points,
    _points_key,
    order_locations,
    palette_size,
    points_close,
)
from .engine import Algorithm, FrameSpec, Rigidity, StepResult, Trace, TraceRound, _divergences, run
from .scheduler import RSYNCH, SSYNCH, SchedulePrefix


class SimulationFault(RuntimeError):
    """An internal consistency rule of a meta-simulator failed."""


def flat_color(values: tuple[int, ...], palette: tuple[int, ...]) -> int:
    """Row-major index of an inner color tuple within its palette."""
    idx = 0
    for v, size in zip(values, palette):
        idx = idx * size + v
    return idx


def unflatten_color(idx: int, palette: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for size in reversed(palette):
        out.append(idx % size)
        idx //= size
    return tuple(reversed(out))


def _project_inner_snapshot(
    snap: Snapshot, k: int, own_inner: tuple[int, ...], add_self: bool
) -> Snapshot:
    """Synthesize the full-light view the inner algorithm would see.

    Carries only inner light values.  For an external-light host the
    observer's own (reconstructed) color is inserted at the origin, matching
    what a real full-light Look would return.
    """
    observed = []
    for loc in snap.observed:
        vals = [t[:k] for t in (loc.lights or ())]
        if add_self and points_close(loc.point, ORIGIN):
            vals.append(own_inner)
        observed.append(ObservedLocation(loc.point, loc.count, tuple(sorted(vals))))
    return Snapshot(tuple(observed), own_inner, snap.multiplicity_visible)


def _run_inner(inner: Algorithm, snap: Snapshot, own: tuple[int, ...], add_self: bool,
               flags: dict[int, int], *events: str) -> StepResult:
    """One inner execution by a host whose inner color is `own`: the inner
    protocol steps on the projected full-light view, and the host shows `own`
    with the step's new light over it, then the wrapper's `flags`."""
    res = inner.step(_project_inner_snapshot(snap, len(own), own, add_self))
    light = dict(enumerate(own))
    light.update(res.light)
    light.update(flags)
    return StepResult(light=light, destination=res.destination,
                      events=("inner-exec",) + events + res.events)


# ---------------------------------------------------------------------------
# sim-RS-by-S
# ---------------------------------------------------------------------------

RS_STEP_1, RS_STEP_2, RS_STEP_3, RS_STEP_4, RS_STEP_5, RS_STEP_M = range(6)
CH_C, CH_E, CH_M = range(3)

# The step graph: a robot that sees one of these pairs of steps on display
# moves to the step given.  The pair {2, m} is settled by the executed flags.
RS_CATCH_UP = {
    frozenset({RS_STEP_1, RS_STEP_2}): RS_STEP_2,
    frozenset({RS_STEP_2, RS_STEP_3}): RS_STEP_3,
    frozenset({RS_STEP_2, RS_STEP_4}): RS_STEP_4,
    frozenset({RS_STEP_4, RS_STEP_5}): RS_STEP_5,
    frozenset({RS_STEP_5, RS_STEP_2}): RS_STEP_2,
    frozenset({RS_STEP_3, RS_STEP_1}): RS_STEP_1,
}
RS_MEGA_PAIR = frozenset({RS_STEP_2, RS_STEP_M})


def _step_sets(steps: range, catch_up: dict, mega_pair: frozenset) -> frozenset:
    """Step configurations a healthy run may exhibit: every single step, the
    pairs of the catch-up table, and the mega-cycle pair."""
    return frozenset([frozenset({s}) for s in steps] + list(catch_up) + [mega_pair])


RS_STEP_SETS = _step_sets(range(6), RS_CATCH_UP, RS_MEGA_PAIR)


class RsBySLayout(namedtuple("RsBySLayout", "inner k step executed charged palette")):
    """Variable layout of the sim-rs-by-s palette: inner vars, then step,
    executed, charged.  RsBySLayout(inner) computes every index."""

    __slots__ = ()

    def __new__(cls, inner: tuple[int, ...]) -> RsBySLayout:
        k = len(inner)
        return tuple.__new__(cls, (inner, k, k, k + 1, k + 2, inner + (6, 2, 3)))

    def __getnewargs__(self) -> tuple:  # what copy and pickle pass to __new__
        return (self.inner,)


def rs_by_s_color_count(inner_colors: int) -> int:
    """Total light-state count of the wrapper for an inner palette of the
    given size: 6 steps x 2 executed flags x 3 charge states per color."""
    return 36 * inner_colors


def sim_rs_by_s(inner: Algorithm) -> Algorithm:
    """Wrap an inner protocol for execution by full-light robots under any
    fair semi-synchronous host schedule; the wrapper keeps the inner
    protocol's robot-count, chirality and rigidity constraints."""
    layout = RsBySLayout(inner.palette)
    k, STEP, EXEC, CHARGED = layout.k, layout.step, layout.executed, layout.charged
    # Steps 3, 4, 5 and m each clear one flag pattern: while some robot shows it, a robot that
    # shows it replaces it and the others wait; then every robot moves to the next step.  A row
    # holds a reader of the pattern's flags, their values, what replaces them, and the next step.
    clears = {
        RS_STEP_3: (itemgetter(EXEC, CHARGED), (1, CH_E), {EXEC: 0, CHARGED: CH_C}, RS_STEP_1),
        RS_STEP_4: (itemgetter(CHARGED), CH_E, {CHARGED: CH_C}, RS_STEP_5),  # recharge who sat out
        RS_STEP_5: (itemgetter(CHARGED), CH_M, {CHARGED: CH_E}, RS_STEP_2),  # discharge who moved
        RS_STEP_M: (itemgetter(EXEC), 1, {EXEC: 0}, RS_STEP_2),  # end of mega-cycle
    }

    def step(snap: Snapshot) -> StepResult:
        all_lights = [t for loc in snap.observed for t in loc.lights]
        steps = frozenset(t[STEP] for t in all_lights)
        own = snap.own_light

        if steps == {RS_STEP_1}:
            return _run_inner(inner, snap, own[:k], False, {STEP: RS_STEP_2, EXEC: 1, CHARGED: CH_E})

        if steps == {RS_STEP_2}:
            if all(t[CHARGED] == CH_E for t in all_lights):
                return StepResult(light={STEP: RS_STEP_3})
            if all(t[EXEC] == 1 for t in all_lights):
                return StepResult(light={STEP: RS_STEP_M})
            if own[EXEC] == 0 and own[CHARGED] == CH_C:
                return _run_inner(inner, snap, own[:k], False, {STEP: RS_STEP_4, EXEC: 1, CHARGED: CH_M})
            return StepResult()

        if len(steps) == 1:
            flags, pattern, instead, next_step = clears[own[STEP]]
            if any(flags(t) == pattern for t in all_lights):
                return StepResult(light=instead) if flags(own) == pattern else StepResult()
            return StepResult(light={STEP: next_step})

        if steps in RS_CATCH_UP:
            return StepResult(light={STEP: RS_CATCH_UP[steps]})
        if steps == RS_MEGA_PAIR and all(t[EXEC] == 1 for t in all_lights):
            return StepResult(light={STEP: RS_STEP_M})
        if steps == RS_MEGA_PAIR and all(t[EXEC] == 0 for t in all_lights):
            return StepResult(light={STEP: RS_STEP_2})
        return StepResult()

    return Algorithm(
        "sim-rs-by-s",
        layout.palette,
        step,
        ModelKind.LUMI,
        needs_chirality=inner.needs_chirality,
        robot_count=inner.robot_count,
        min_robots=inner.min_robots,
        rigid=inner.rigid,
        host=SSYNCH,
    )


# ---------------------------------------------------------------------------
# sim-LUMI-by-FCOM
# ---------------------------------------------------------------------------

FC_STEP_1, FC_STEP_2, FC_STEP_3, FC_STEP_M = range(4)
# suc.executed is a set over {False, True}, encoded as a bitmask.
EXEC_SET_EMPTY, EXEC_SET_FALSE, EXEC_SET_TRUE, EXEC_SET_BOTH = range(4)

FC_CATCH_UP = {
    frozenset({FC_STEP_1, FC_STEP_2}): FC_STEP_2,
    frozenset({FC_STEP_2, FC_STEP_3}): FC_STEP_3,
    frozenset({FC_STEP_3, FC_STEP_1}): FC_STEP_1,
}
FC_MEGA_PAIR = frozenset({FC_STEP_2, FC_STEP_M})
FC_STEP_SETS = _step_sets(range(4), FC_CATCH_UP, FC_MEGA_PAIR)


class LumiByFcomLayout(namedtuple("LumiByFcomLayout", "inner n k ell counts step executed suc_executed "
                                  "checked suc_checked palette checking_reset executed_reset")):
    """Variable layout of the sim-lumi-by-fcom palette.

    After the inner vars come one per-color occupancy counter for the
    successor location (multisets, counts 0..n; `counts` is the first), then
    step, executed, the suc.executed set, and the two checked flags.  Multiset
    counters rather than plain color sets keep own-color reconstruction a
    singleton even when co-located robots share a color.

    LumiByFcomLayout(inner, n) computes every index and the two flag resets:
    step 3's (the successor copy and both checked flags) and step m's (the
    executed flag and its successor copy).
    """

    __slots__ = ()

    def __new__(cls, inner: tuple[int, ...], n: int) -> LumiByFcomLayout:
        k, ell = len(inner), palette_size(inner)
        step = k + ell
        executed, suc_executed, checked, suc_checked = range(step + 1, step + 5)
        checking_reset = dict.fromkeys(range(k, step), 0)
        checking_reset.update({suc_executed: EXEC_SET_FALSE, suc_checked: 0, checked: 0})
        return tuple.__new__(cls, (
            inner, n, k, ell, k, step, executed, suc_executed, checked, suc_checked,
            inner + (n + 1,) * ell + (4, 2, 4, 2, 2), checking_reset,
            {executed: 0, suc_executed: EXEC_SET_FALSE},
        ))

    def __getnewargs__(self) -> tuple:  # what copy and pickle pass to __new__
        return self.inner, self.n


def lumi_by_fcom_color_count(inner_colors: int, n: int) -> int:
    """Total light-state count of the wrapper: inner color x successor color
    multiset x 4 steps x 2 executed x 4 suc.executed sets x 2 x 2 checked."""
    return 128 * inner_colors * (n + 1) ** inner_colors


def _exec_mask(flags) -> int:
    mask = 0
    for f in flags:
        mask |= EXEC_SET_TRUE if f else EXEC_SET_FALSE
    return mask


def _shows(t: tuple[int, ...], reset: dict[int, int]) -> bool:
    """Whether a light already holds every value of a flag reset."""
    return all(t[var] == value for var, value in reset.items())


def _successor_copy(lights, layout: LumiByFcomLayout) -> tuple[list[int], int]:
    """What a robot copies from the lights at its successor location: the
    count of each inner color (capped at n) and the executed-flag set."""
    counts = [0] * layout.ell
    for t in lights:
        counts[flat_color(t[:layout.k], layout.inner)] += 1
    n = layout.n
    return [min(c, n) for c in counts], _exec_mask(bool(t[layout.executed]) for t in lights)


# Distinct observed geometries whose ring reading is kept.  Over 20 seeds of
# 240 rsynch rounds at n=3, tricolor sees 660 and stay sees 3.
_RING_READINGS = 1024


@lru_cache(maxsize=_RING_READINGS)
def _read_ring(key: bytes) -> tuple[int, int, int]:
    """The indices in Snapshot.observed of the observer's own location, its
    successor and its predecessor on the clockwise ring, from the geometry's
    _points_key.  A geometry with no location at the origin raises every time
    and is not kept."""
    points = _key_points(key)
    ring = order_locations(points)
    io = ring.index_of(ORIGIN)

    def at(p: Point) -> int:  # Snapshot.location_at, as an index
        return next(i for i, q in enumerate(points) if points_close(q, p))

    return at(ORIGIN), at(ring.locations[ring.suc(io)]), at(ring.locations[ring.pred(io)])


def _pred_field(pred_lights, idx: int) -> int:
    """The value every robot at the predecessor location shows in a copied
    light variable."""
    vals = {t[idx] for t in pred_lights}
    if len(vals) != 1:
        raise SimulationFault("predecessor-location robots disagree on a copied light")
    return vals.pop()


def _own_executed(layout: LumiByFcomLayout, here_lights, pred_lights) -> bool:
    """Whether the observer's executed flag is up: its predecessor's copy of
    the flags here, less the flags the observer can see here."""
    mask = _pred_field(pred_lights, layout.suc_executed)
    seen = _exec_mask(bool(t[layout.executed]) for t in here_lights)
    return (mask & ~seen) == EXEC_SET_TRUE


def _all_robots_executed(layout: LumiByFcomLayout, others, here_lights, pred_lights) -> bool:
    """Whether every robot, the observer included, has its executed flag up."""
    executed = layout.executed
    return all(t[executed] == 1 for t in others) and _own_executed(layout, here_lights, pred_lights)


def sim_lumi_by_fcom(inner: Algorithm, n: int) -> Algorithm:
    """Wrap an inner full-light protocol for execution by external-light
    robots under a restricted-repetition host schedule; needs chirality and
    keeps the inner protocol's robot-count and rigidity constraints.

    The clockwise ring depends on the observed positions alone and the same
    geometries recur, so each activation looks up its geometry's ring
    reading (_read_ring) and only reads the lights itself."""
    layout = LumiByFcomLayout(inner.palette, n)
    k, ell = layout.k, layout.ell
    COUNTS, STEP, EXEC = layout.counts, layout.step, layout.executed
    SUC_EXEC, CHECKED, SUC_CHECKED = layout.suc_executed, layout.checked, layout.suc_checked
    # Steps 3 and m each reset one flag pattern.  A robot cannot see its own light, so it always
    # shows the reset, and moves on once every other robot shows it.  A row: (reset, next step).
    resets = {FC_STEP_3: (layout.checking_reset, FC_STEP_1),
              FC_STEP_M: (layout.executed_reset, FC_STEP_2)}

    def step(snap: Snapshot) -> StepResult:
        observed = snap.observed
        i_here, i_suc, i_pred = _read_ring(_points_key(observed))
        here_lights = observed[i_here].lights
        suc_lights = observed[i_suc].lights
        pred_lights = observed[i_pred].lights
        others = [t for loc in observed for t in loc.lights]
        others_steps = frozenset(t[STEP] for t in others)

        if others_steps == {FC_STEP_1}:  # copy colors and flags of the successor
            counts, mask = _successor_copy(suc_lights, layout)
            light = {COUNTS + c: count for c, count in enumerate(counts)}
            light[SUC_EXEC] = mask
            if all(t[CHECKED] == 1 for t in suc_lights):
                light[SUC_CHECKED] = 1
            light[CHECKED] = 1
            done = all(t[CHECKED] == 1 and t[SUC_CHECKED] == 1 for t in others)
            light[STEP] = FC_STEP_2 if done else FC_STEP_1
            return StepResult(light=light)

        if others_steps == {FC_STEP_2}:  # perform one simulated activation
            if _all_robots_executed(layout, others, here_lights, pred_lights):
                return StepResult(light={STEP: FC_STEP_M})
            if _own_executed(layout, here_lights, pred_lights):
                return StepResult(light={STEP: FC_STEP_2})
            # Determine own color: predecessor's copy of this location's
            # multiset minus the colors visible here.
            counts = [_pred_field(pred_lights, COUNTS + c) for c in range(ell)]
            for t in here_lights:
                counts[flat_color(t[:k], layout.inner)] -= 1
            if sum(counts) != 1 or any(c < 0 for c in counts):
                raise SimulationFault(f"own-color reconstruction is not a singleton: {counts}")
            color = counts.index(1)
            return _run_inner(inner, snap, unflatten_color(color, layout.inner), True,
                              {EXEC: 1, STEP: FC_STEP_3}, f"own-color:{color}")

        if len(others_steps) == 1:
            (s,) = others_steps
            reset, next_step = resets[s]
            done = all(_shows(t, reset) for t in others)
            return StepResult(light={**reset, STEP: next_step if done else s})

        if others_steps in FC_CATCH_UP:
            return StepResult(light={STEP: FC_CATCH_UP[others_steps]})
        if others_steps == FC_MEGA_PAIR:
            if _all_robots_executed(layout, others, here_lights, pred_lights):
                return StepResult(light={STEP: FC_STEP_M})
            if all(t[EXEC] == 0 for t in others):
                return StepResult(light={STEP: FC_STEP_2})
        return StepResult()

    return Algorithm(
        "sim-lumi-by-fcom",
        layout.palette,
        step,
        ModelKind.FCOM,
        needs_chirality=True,
        robot_count=inner.robot_count,
        min_robots=max(2, inner.min_robots),
        rigid=inner.rigid,
        host=RSYNCH,
    )


# ---------------------------------------------------------------------------
# Induced schedules, fidelity replay, monitors.
# ---------------------------------------------------------------------------

_NO_ROBOTS: frozenset[int] = frozenset()


def _inner_executions(trace: Trace) -> list[frozenset[int]]:
    """Per round, the robots whose events record an inner execution."""
    if trace.header.algo not in INDUCED:
        raise ValueError("trace lacks meta-simulator annotations")
    return [
        frozenset([rid for rid, evs in r.events.items() if "inner-exec" in evs]) if r.events else _NO_ROBOTS
        for r in trace.rounds
    ]


def extract_induced_schedule(trace: Trace) -> SchedulePrefix:
    """Collect, per round with at least one inner execution, the set of robots
    that executed the inner algorithm."""
    return SchedulePrefix(tuple(s for s in _inner_executions(trace) if s), trace.initial.n)


def verify_inner_fidelity(trace: Trace, inner: Algorithm, tol: float = POSITION_TOLERANCE, *,
                          frames: dict[int, FrameSpec] | None = None, chirality: bool = True,
                          multiplicity: Multiplicity = Multiplicity.STRONG) -> list[str]:
    """Replay the trace's inner projection (its initial configuration and each
    round with an inner execution, inner light values only) against a direct
    LUMI run of the inner protocol under the induced schedule, with the frames,
    multiplicity and chirality the trace ran under; returns one human-readable
    message per diverging position or inner light."""
    if trace.header.delta is not None:
        raise ValueError("fidelity replay requires a rigid-movement trace")
    execs = _inner_executions(trace)
    at = [i for i, s in enumerate(execs) if s]  # 0-based trace rounds with an inner execution
    induced = SchedulePrefix(tuple(execs[i] for i in at), trace.initial.n)
    k = len(inner.palette)

    def project(config: Configuration) -> Configuration:
        return Configuration(tuple((rid, p, LightTuple(lt.values[:k], inner.palette))
                                   for rid, p, lt in config.entries))

    projection = [TraceRound(eset, project(trace.rounds[i].config)) for eset, i in zip(induced.sets, at)]
    direct = run(project(trace.initial), induced, inner, model=ModelKind.LUMI, rigidity=Rigidity(),
                 seed=trace.header.seed, frames=frames, multiplicity=multiplicity, chirality=chirality)
    return [f"inner round {j}: robot {rid} {'inner light' if kind == 'light' else kind} "
            f"diverges at trace round {at[j - 1] + 1}"
            for j, rid, kind in _divergences(projection, direct.rounds, tol)]


def derive_rs_layout(palette: tuple[int, ...]) -> RsBySLayout:
    if len(palette) < 3 or palette[-3:] != (6, 2, 3):
        raise ValueError("palette does not look like a sim-rs-by-s layout")
    return RsBySLayout(palette[:-3])


def derive_fcom_layout(palette: tuple[int, ...]) -> LumiByFcomLayout:
    if len(palette) < 6 or palette[-5:] != (4, 2, 4, 2, 2):
        raise ValueError("palette does not look like a sim-lumi-by-fcom layout")
    body = palette[:-5]
    for k in range(len(body) + 1):
        inner = body[:k]
        ell = palette_size(inner)
        tail = body[k:]
        if len(tail) == ell and len(set(tail)) <= 1 and (not tail or tail[0] >= 2):
            return LumiByFcomLayout(inner, (tail[0] - 1) if tail else 1)
    raise ValueError("cannot derive the inner palette from this layout")


def _rs_flag_rules(step: int, pairs: list[tuple[int, int]], last_singleton: int | None,
                   last_exec_set: frozenset[int]) -> Iterator[str]:
    """The sim-rs-by-s flag invariants that a configuration whose robots all
    show step `step` breaks, given each robot's (charged, executed) flags."""
    n = len(pairs)
    charged = [c for c, _ in pairs]
    if step == RS_STEP_1:
        if any(p != (CH_C, 0) for p in pairs):
            yield "step-1 robots must all be charged and unexecuted"
    elif step == RS_STEP_2:
        if CH_M in charged:
            yield "just-moved charge flag inside step 2"
        if CH_E not in charged:
            yield "step 2 lacks a discharged robot"
        if (CH_E, 0) in pairs and any(e for _, e in pairs):
            yield "stale discharged robot outside a fresh mega-cycle"
        if all(c == CH_E for c in charged) and not all(e for _, e in pairs):
            yield "fully discharged swarm with unexecuted robots"
        if all(p == (CH_E, 1) for p in pairs) and last_singleton not in (RS_STEP_1, RS_STEP_2):
            yield "full execution without a preceding step 1"
    elif step == RS_STEP_3:
        if any(p not in ((CH_C, 0), (CH_E, 1)) for p in pairs):
            yield "step-3 flags outside the reset/executed pair"
    elif step == RS_STEP_4:
        if (CH_M, 0) in pairs:
            yield "moved-but-unexecuted robot in step 4"
        moved = frozenset(r for r, c in enumerate(charged) if c == CH_M)
        if not moved or len(moved) >= n:
            yield "step-4 movers must be a nonempty proper subset"
        elif moved != last_exec_set:
            yield "step-4 movers differ from the last inner execution"
    elif step == RS_STEP_5:
        if (CH_M, 0) in pairs:
            yield "moved-but-unexecuted robot in step 5"
        if (CH_E, 0) in pairs:
            yield "discharged-but-unexecuted robot in step 5"
        spent = sum(c in (CH_M, CH_E) for c in charged)
        if not spent or spent >= n:
            yield "step-5 spent robots must be a nonempty proper subset"
    elif step == RS_STEP_M:
        if CH_M in charged:
            yield "just-moved charge flag inside step m"
        ready = charged.count(CH_C)
        if ready == 0 or ready >= n:
            yield "step-m charged robots must be a nonempty proper subset"


def _fcom_transition_rules(layout: LumiByFcomLayout, post: Configuration, before, after) -> Iterator[str]:
    """The sim-lumi-by-fcom step-transition conclusions a round breaks, from
    every robot's light before and after it.  A robot may do its phase's work
    in the very round it joins the phase (the all-but-one deviant), so they
    are anchored to each robot's step change, not to the first uniform
    configuration."""
    STEP, EXEC = layout.step, layout.executed
    for rid, (u, t) in enumerate(zip(before, after)):
        change = u[STEP], t[STEP]
        if change == (FC_STEP_1, FC_STEP_2):
            # Finished copying: flags up and the displayed copy must match the
            # successor location's ground truth.
            if t[layout.checked] != 1 or t[layout.suc_checked] != 1:
                yield f"robot {rid} left copying with flags down"
            ring = order_locations([p for _, p, _ in post.entries])
            suc_loc = ring.locations[ring.suc(ring.index_of(post.position(rid)))]
            counts, mask = _successor_copy(
                [lt.values for _, p, lt in post.entries if points_close(p, suc_loc)], layout)
            got = list(t[layout.counts:layout.counts + layout.ell])
            if got != counts:
                yield f"robot {rid} successor-color copy {got} != actual {counts}"
            if t[layout.suc_executed] != mask:
                yield f"robot {rid} successor-executed copy {t[layout.suc_executed]} != {mask}"
        elif change == (FC_STEP_2, FC_STEP_M):
            stale = [q for q, u in enumerate(before) if u[EXEC] != 1]
            if stale:
                yield f"robot {rid} closed the mega-cycle with {stale} unexecuted"
        elif change == (FC_STEP_M, FC_STEP_2):
            if not _shows(t, layout.executed_reset):
                yield f"robot {rid} left flag reset without resetting"
            stale = [q for q, u in enumerate(before) if q != rid and u[EXEC] != 0]
            if stale:
                yield f"robot {rid} reopened simulation with {stale} not reset"
        elif change == (FC_STEP_3, FC_STEP_1):
            stale = [q for q, u in enumerate(before)
                     if q != rid and not _shows(u, layout.checking_reset)]
            if stale:
                yield f"robot {rid} left flag clearing while {stale} were stale"


def _rs_rounds(layout: RsBySLayout, colors: list[str], states: list[str], changes: list[str]):
    """sim-rs-by-s's per-round monitor rule, bound to one trace: the flag
    invariants of each allowed configuration with a single step on display."""
    last_singleton, last_exec_set = None, frozenset()

    def check(i, config, events, before, after, steps, stepped, execs) -> None:
        nonlocal last_singleton, last_exec_set
        if steps in RS_STEP_SETS:
            last_exec_set = execs or last_exec_set
            if len(steps) == 1:
                (step,) = steps
                pairs = [(t[layout.charged], t[layout.executed]) for t in after]
                states.extend(f"round {i}: {v}"
                              for v in _rs_flag_rules(step, pairs, last_singleton, last_exec_set))
                last_singleton = step

    return check


def _fcom_rounds(layout: LumiByFcomLayout, colors: list[str], states: list[str], changes: list[str]):
    """sim-lumi-by-fcom's per-round monitor rule, bound to one trace: own-color
    reconstruction, and the step-transition conclusions of a round that
    changes some robot's step."""

    def check(i, config, events, before, after, steps, stepped, execs) -> None:
        # Each claimed own color must be the executing robot's actual inner color before the round.
        for rid, evs in events.items():
            for ev in evs:
                if ev.startswith("own-color:"):
                    claimed = int(ev.split(":", 1)[1])
                    actual = flat_color(before[rid][:layout.k], layout.inner)
                    if claimed != actual:
                        colors.append(f"round {i}: robot {rid} reconstructed color {claimed}, "
                                      f"actual {actual}")
        if stepped:
            changes.extend(f"round {i}: {v}" for v in _fcom_transition_rules(layout, config, before, after))

    return check


class Induced(namedtuple("Induced", "family monitor layout step_sets rounds")):
    """A meta-simulator: the family of the schedule it induces on its inner
    protocol, its monitor's command-line name, the reader of its palette
    layout, the step configurations a healthy run may show, and its per-round
    monitor rule, bound once per trace to (layout, colors, states, changes) and
    called each round with (round, configuration, events, lights before,
    lights after, steps on display, whether some robot's step changed, robots
    that executed the inner protocol)."""

    __slots__ = ()


# The meta-simulators by name.
INDUCED = {
    "sim-rs-by-s": Induced(RSYNCH, "p-props", derive_rs_layout, RS_STEP_SETS, _rs_rounds),
    "sim-lumi-by-fcom": Induced(SSYNCH, "step-lemmas", derive_fcom_layout, FC_STEP_SETS, _fcom_rounds),
}


def monitor_properties(trace: Trace) -> list[str]:
    """Run the meta-simulator monitors appropriate for the trace, in one walk
    over its rounds.

    Both wrappers: every configuration shows a step configuration that the
    step graph allows, and every completed mega-cycle executes every robot
    exactly once.  A cycle closes when every executed flag is up and reopens
    once they have all been cleared.  Each wrapper's per-round rule adds its
    own checks: sim-rs-by-s the flag invariants of each configuration with a
    single step on display, sim-lumi-by-fcom own-color reconstruction and the
    step-transition conclusions.  The violations come grouped by rule, in
    that order: own colors, step configurations and flag invariants, step
    transitions, mega-cycles.
    """
    record = INDUCED.get(trace.header.algo)
    if record is None:
        raise ValueError(f"trace algorithm {trace.header.algo!r} has no monitors")
    layout, allowed = record.layout(trace.header.palette), record.step_sets
    n, STEP, EXEC = trace.initial.n, layout.step, layout.executed
    colors, states, changes, cycles = [], [], [], []  # violations, by rule group
    family_rule = record.rounds(layout, colors, states, changes)
    counts, draining = [0] * n, False  # inner executions in the open mega-cycle
    before: list[tuple[int, ...]] = []
    before_row: list[int] = []
    for i, rec in enumerate((TraceRound(frozenset(), trace.initial), *trace.rounds)):  # round 0 first
        config, events = rec.config, rec.events
        after = [lt.values for _, _, lt in config.entries]
        row = [t[STEP] for t in after]
        steps = frozenset(row)
        if steps not in allowed:
            states.append(f"round {i}: step configuration {sorted(steps)} is not allowed")
        execs = frozenset(rid for rid, evs in events.items() if "inner-exec" in evs)
        if i:
            if draining and execs:
                cycles.append(f"round {i}: inner execution between mega-cycles")
            for rid in execs:
                counts[rid] += 1
                if counts[rid] > 1:
                    cycles.append(f"round {i}: robot {rid} executed twice in a mega-cycle")
            flags = [t[EXEC] for t in after]
            if not draining and all(flags):
                missing = [r for r, c in enumerate(counts) if c != 1]
                if missing:
                    cycles.append(f"round {i}: mega-cycle closed without robots {missing}")
                draining = True
            elif draining and not any(flags):
                counts, draining = [0] * n, False
        family_rule(i, config, events, before, after, steps, row != before_row, execs)
        before, before_row = after, row
    return colors + states + changes + cycles
