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

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .core import (
    ORIGIN,
    Configuration,
    LightTuple,
    ModelKind,
    Point,
    Snapshot,
    _key_points,
    _location,
    _points_key,
    _snapshot,
    make_configuration,
    order_locations,
    palette_size,
    points_close,
)
from .engine import Algorithm, Rigidity, StepResult, Trace, run
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
        observed.append(_location(loc.point, loc.count, tuple(sorted(vals))))
    return _snapshot(tuple(observed), own_inner, snap.multiplicity_visible)


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


@dataclass(frozen=True)
class RsBySLayout:
    """Variable layout of the sim-rs-by-s palette: inner vars, then step,
    executed, charged."""

    inner: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.inner)

    @property
    def step(self) -> int:
        return self.k

    @property
    def executed(self) -> int:
        return self.k + 1

    @property
    def charged(self) -> int:
        return self.k + 2

    @property
    def palette(self) -> tuple[int, ...]:
        return self.inner + (6, 2, 3)


def rs_by_s_color_count(inner_colors: int) -> int:
    """Total light-state count of the wrapper for an inner palette of the
    given size: 6 steps x 2 executed flags x 3 charge states per color."""
    return 36 * inner_colors


def _run_inner(
    inner: Algorithm, snap: Snapshot, k: int
) -> tuple[dict[int, int], Point, tuple[str, ...]]:
    """One inner execution by a full-light host whose first k light
    variables are the inner ones."""
    res = inner.step(_project_inner_snapshot(snap, k, snap.own_light[:k], add_self=False))
    return dict(res.light), res.destination, ("inner-exec",) + res.events


def sim_rs_by_s(inner: Algorithm) -> Algorithm:
    """Wrap an inner protocol for execution by full-light robots under any
    fair semi-synchronous host schedule; the wrapper keeps the inner
    protocol's robot-count, chirality and rigidity constraints."""
    layout = RsBySLayout(inner.palette)
    k, STEP, EXEC, CHARGED = layout.k, layout.step, layout.executed, layout.charged

    def step(snap: Snapshot) -> StepResult:
        all_lights = [t for loc in snap.observed for t in loc.lights]
        steps = frozenset(t[STEP] for t in all_lights)
        own = snap.own_light

        if steps == {RS_STEP_1}:
            light, dest, events = _run_inner(inner, snap, k)
            light.update({STEP: RS_STEP_2, EXEC: 1, CHARGED: CH_E})
            return StepResult(light=light, destination=dest, events=events)

        if steps == {RS_STEP_2}:
            if all(t[CHARGED] == CH_E for t in all_lights):
                return StepResult(light={STEP: RS_STEP_3})
            if all(t[EXEC] == 1 for t in all_lights):
                return StepResult(light={STEP: RS_STEP_M})
            if own[EXEC] == 0 and own[CHARGED] == CH_C:
                light, dest, events = _run_inner(inner, snap, k)
                light.update({STEP: RS_STEP_4, EXEC: 1, CHARGED: CH_M})
                return StepResult(light=light, destination=dest, events=events)
            return StepResult()

        if steps == {RS_STEP_3}:  # reset all flags, then back to step 1
            if any(t[EXEC] == 1 and t[CHARGED] == CH_E for t in all_lights):
                if own[EXEC] == 1 and own[CHARGED] == CH_E:
                    return StepResult(light={EXEC: 0, CHARGED: CH_C})
                return StepResult()
            return StepResult(light={STEP: RS_STEP_1})

        if steps == {RS_STEP_4}:  # recharge the robots that sat out
            if any(t[CHARGED] == CH_E for t in all_lights):
                if own[CHARGED] == CH_E:
                    return StepResult(light={CHARGED: CH_C})
                return StepResult()
            return StepResult(light={STEP: RS_STEP_5})

        if steps == {RS_STEP_5}:  # discharge the robots that just moved
            if any(t[CHARGED] == CH_M for t in all_lights):
                if own[CHARGED] == CH_M:
                    return StepResult(light={CHARGED: CH_E})
                return StepResult()
            return StepResult(light={STEP: RS_STEP_2})

        if steps == {RS_STEP_M}:  # end of mega-cycle: clear executed flags
            if not all(t[EXEC] == 0 for t in all_lights):
                if own[EXEC] != 0:
                    return StepResult(light={EXEC: 0})
                return StepResult()
            return StepResult(light={STEP: RS_STEP_2})

        # Every single step returned above, so steps holds two or more.
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


@dataclass(frozen=True)
class LumiByFcomLayout:
    """Variable layout of the sim-lumi-by-fcom palette.

    After the inner vars come one per-color occupancy counter for the
    successor location (multisets, counts 0..n), then step, executed, the
    suc.executed set, and the two checked flags.  Multiset counters rather
    than plain color sets keep own-color reconstruction a singleton even when
    co-located robots share a color.  Each index is computed once.
    """

    inner: tuple[int, ...]
    n: int

    @cached_property
    def k(self) -> int:
        return len(self.inner)

    @cached_property
    def ell(self) -> int:
        return palette_size(self.inner)

    @cached_property
    def counts(self) -> int:  # first successor-color counter
        return self.k

    @cached_property
    def step(self) -> int:
        return self.k + self.ell

    @cached_property
    def executed(self) -> int:
        return self.step + 1

    @cached_property
    def suc_executed(self) -> int:
        return self.step + 2

    @cached_property
    def checked(self) -> int:
        return self.step + 3

    @cached_property
    def suc_checked(self) -> int:
        return self.step + 4

    @cached_property
    def palette(self) -> tuple[int, ...]:
        return self.inner + (self.n + 1,) * self.ell + (4, 2, 4, 2, 2)

    @cached_property
    def checking_reset(self) -> dict[int, int]:
        """Step 3's flag reset: the successor copy and both checked flags."""
        out = {self.counts + c: 0 for c in range(self.ell)}
        out.update({self.suc_executed: EXEC_SET_FALSE, self.suc_checked: 0, self.checked: 0})
        return out

    @cached_property
    def executed_reset(self) -> dict[int, int]:
        """Step m's flag reset: the executed flag and its successor copy."""
        return {self.executed: 0, self.suc_executed: EXEC_SET_FALSE}


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
    CHECKING_RESET, EXECUTED_RESET = layout.checking_reset, layout.executed_reset
    inner_palette = inner.palette

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
                counts[flat_color(t[:k], inner_palette)] -= 1
            if sum(counts) != 1 or any(c < 0 for c in counts):
                raise SimulationFault(f"own-color reconstruction is not a singleton: {counts}")
            own_color = unflatten_color(counts.index(1), inner_palette)
            inner_snap = _project_inner_snapshot(snap, k, own_color, add_self=True)
            res = inner.step(inner_snap)
            light = {i: v for i, v in enumerate(own_color)}
            light.update(res.light)
            light.update({EXEC: 1, STEP: FC_STEP_3})
            events = (
                "inner-exec",
                f"own-color:{flat_color(own_color, inner_palette)}",
            ) + res.events
            return StepResult(light=light, destination=res.destination, events=events)

        if others_steps == {FC_STEP_3}:  # reset checking flags
            light = dict(CHECKING_RESET)
            done = all(_shows(t, CHECKING_RESET) for t in others)
            light[STEP] = FC_STEP_1 if done else FC_STEP_3
            return StepResult(light=light)

        if others_steps == {FC_STEP_M}:  # reset executed flags
            light = dict(EXECUTED_RESET)
            done = all(_shows(t, EXECUTED_RESET) for t in others)
            light[STEP] = FC_STEP_2 if done else FC_STEP_M
            return StepResult(light=light)

        # Every single step returned above, so others_steps holds two or more.
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

def _inner_executions(trace: Trace) -> list[frozenset[int]]:
    """Per round, the robots whose events record an inner execution."""
    return [
        frozenset(rid for rid, evs in r.events.items() if "inner-exec" in evs)
        for r in trace.rounds
    ]


def extract_induced_schedule(trace: Trace) -> SchedulePrefix:
    """Collect, per round with at least one inner execution, the set of robots
    that executed the inner algorithm."""
    if not trace.header.algo.startswith("sim-"):
        raise ValueError("trace lacks meta-simulator annotations")
    return SchedulePrefix(tuple(s for s in _inner_executions(trace) if s), trace.initial.n)


def inner_initial_config(trace: Trace, inner: Algorithm) -> Configuration:
    """Project the trace's initial configuration onto the inner protocol."""
    k = len(inner.palette)
    positions = []
    lights = []
    for rid in range(trace.initial.n):
        positions.append(trace.initial.position(rid))
        lights.append(LightTuple(trace.initial.light(rid).values[:k], inner.palette))
    return make_configuration(positions, lights)


def verify_inner_fidelity(trace: Trace, inner: Algorithm, tol: float = 1e-9) -> list[str]:
    """Replay the inner protocol directly under the induced schedule and
    compare, event round by event round, every robot's position and inner
    light against the simulator's record.  Returns human-readable mismatches.
    """
    if trace.header.delta is not None:
        raise ValueError("fidelity replay requires a rigid-movement trace")
    induced = extract_induced_schedule(trace)
    k = len(inner.palette)
    violations: list[str] = []
    if not induced.sets:
        return violations
    direct = run(
        inner_initial_config(trace, inner),
        induced,
        inner,
        model=ModelKind.LUMI,
        rigidity=Rigidity(),
        seed=trace.header.seed,
    )
    event_rounds = [i for i, execs in enumerate(_inner_executions(trace)) if execs]
    for j, round_idx in enumerate(event_rounds):
        sim_config = trace.rounds[round_idx].config
        ref_config = direct.rounds[j].config
        for rid in range(trace.initial.n):
            if not points_close(sim_config.position(rid), ref_config.position(rid), tol):
                violations.append(
                    f"inner round {j + 1}: robot {rid} position diverges at trace round {round_idx + 1}"
                )
            if sim_config.light(rid).values[:k] != ref_config.light(rid).values:
                violations.append(
                    f"inner round {j + 1}: robot {rid} inner light diverges at trace round {round_idx + 1}"
                )
    return violations


def _mega_cycle_violations(trace: Trace, executed: int) -> list[str]:
    """Check that between mega-cycle boundaries every robot executes the inner
    algorithm exactly once.  A cycle closes when every executed flag (light
    variable `executed`) is up and reopens once they have all been cleared."""
    n = trace.initial.n
    violations = []
    counts = {r: 0 for r in range(n)}
    draining = False
    for i, (execs, rec) in enumerate(zip(_inner_executions(trace), trace.rounds)):
        flags = [rec.config.light(r).values[executed] for r in range(n)]  # post-round
        if draining and execs:
            violations.append(f"round {i + 1}: inner execution between mega-cycles")
        for rid in execs:
            counts[rid] += 1
            if counts[rid] > 1:
                violations.append(f"round {i + 1}: robot {rid} executed twice in a mega-cycle")
        if not draining and all(flags):
            missing = [r for r, c in counts.items() if c != 1]
            if missing:
                violations.append(f"round {i + 1}: mega-cycle closed without robots {missing}")
            draining = True
        elif draining and not any(flags):
            counts = {r: 0 for r in range(n)}
            draining = False
    return violations


def _monitor_rs_by_s(trace: Trace, layout: RsBySLayout) -> list[str]:
    STEP, EXEC, CHARGED = layout.step, layout.executed, layout.charged
    configs = trace.configs()
    n = trace.initial.n
    violations: list[str] = []

    def flags(config, rid):
        t = config.light(rid).values
        return t[STEP], t[EXEC], t[CHARGED]

    events_by_round = _inner_executions(trace)
    last_singleton = None
    last_exec_set: frozenset[int] = frozenset()
    for i, config in enumerate(configs):
        state = [flags(config, r) for r in range(n)]
        steps = frozenset(s for s, _, _ in state)
        if steps not in RS_STEP_SETS:
            violations.append(f"round {i}: step configuration {sorted(steps)} is not allowed")
            continue
        if i > 0 and events_by_round[i - 1]:
            last_exec_set = events_by_round[i - 1]
        if len(steps) != 1:
            continue
        (step_val,) = steps
        pairs = [(c, e) for _, e, c in state]
        charged = [c for _, _, c in state]
        executed = [e for _, e, _ in state]
        if step_val == RS_STEP_1:
            if any(p != (CH_C, 0) for p in pairs):
                violations.append(f"round {i}: step-1 robots must all be charged and unexecuted")
        elif step_val == RS_STEP_2:
            if CH_M in charged:
                violations.append(f"round {i}: just-moved charge flag inside step 2")
            if CH_E not in charged:
                violations.append(f"round {i}: step 2 lacks a discharged robot")
            if any(c == CH_E and e == 0 for c, e in zip(charged, executed)):
                if any(executed):
                    violations.append(f"round {i}: stale discharged robot outside a fresh mega-cycle")
            if all(c == CH_E for c in charged) and not all(executed):
                violations.append(f"round {i}: fully discharged swarm with unexecuted robots")
            if all(c == CH_E and e == 1 for c, e in zip(charged, executed)):
                if last_singleton not in (RS_STEP_1, RS_STEP_2):
                    violations.append(f"round {i}: full execution without a preceding step 1")
        elif step_val == RS_STEP_3:
            if any(p not in ((CH_C, 0), (CH_E, 1)) for p in pairs):
                violations.append(f"round {i}: step-3 flags outside the reset/executed pair")
        elif step_val == RS_STEP_4:
            moved = frozenset(r for r, (_, e, c) in enumerate(state) if c == CH_M)
            if any(c == CH_M and e == 0 for c, e in zip(charged, executed)):
                violations.append(f"round {i}: moved-but-unexecuted robot in step 4")
            if not moved or len(moved) >= n:
                violations.append(f"round {i}: step-4 movers must be a nonempty proper subset")
            elif moved != last_exec_set:
                violations.append(f"round {i}: step-4 movers differ from the last inner execution")
        elif step_val == RS_STEP_5:
            if any(c == CH_M and e == 0 for c, e in zip(charged, executed)):
                violations.append(f"round {i}: moved-but-unexecuted robot in step 5")
            if any(c == CH_E and e == 0 for c, e in zip(charged, executed)):
                violations.append(f"round {i}: discharged-but-unexecuted robot in step 5")
            spent = frozenset(r for r, (_, e, c) in enumerate(state) if c in (CH_M, CH_E))
            if not spent or len(spent) >= n:
                violations.append(f"round {i}: step-5 spent robots must be a nonempty proper subset")
        elif step_val == RS_STEP_M:
            if CH_M in charged:
                violations.append(f"round {i}: just-moved charge flag inside step m")
            ready = sum(1 for c in charged if c == CH_C)
            if ready == 0 or ready >= n:
                violations.append(f"round {i}: step-m charged robots must be a nonempty proper subset")
        last_singleton = step_val

    violations.extend(_mega_cycle_violations(trace, EXEC))
    return violations


def _monitor_lumi_by_fcom(trace: Trace, layout: LumiByFcomLayout) -> list[str]:
    k, ell = layout.k, layout.ell
    COUNTS, STEP, EXEC = layout.counts, layout.step, layout.executed
    SUC_EXEC, CHECKED, SUC_CHECKED = layout.suc_executed, layout.checked, layout.suc_checked
    inner_palette = layout.inner
    configs = trace.configs()
    n = trace.initial.n
    violations: list[str] = []

    def actual_suc_state(config: Configuration, rid: int) -> tuple[list[int], int]:
        """The copy a robot should display of its successor location."""
        ring = order_locations([p for _, p, _ in config.entries])
        suc_loc = ring.locations[ring.suc(ring.index_of(config.position(rid)))]
        lights = [lt.values for _, p, lt in config.entries if points_close(p, suc_loc)]
        return _successor_copy(lights, layout)

    # Own-color reconstruction: every event value must match the executing
    # robot's actual inner color before the round.
    for i, r in enumerate(trace.rounds):
        pre = configs[i]
        for rid, evs in r.events.items():
            for ev in evs:
                if ev.startswith("own-color:"):
                    claimed = int(ev.split(":", 1)[1])
                    actual = flat_color(pre.light(rid).values[:k], inner_palette)
                    if claimed != actual:
                        violations.append(
                            f"round {i + 1}: robot {rid} reconstructed color {claimed}, actual {actual}"
                        )

    for i, config in enumerate(configs):
        steps = frozenset(config.light(r).values[STEP] for r in range(n))
        if steps not in FC_STEP_SETS:
            violations.append(f"round {i}: step configuration {sorted(steps)} is not allowed")

    # The step-transition guarantees, checked at every individual change.  A robot
    # may do its phase's work in the very round it joins the phase (the
    # all-but-one deviant), so the assertions are anchored to transitions,
    # not to the first uniform configuration.
    for i in range(1, len(configs)):
        pre, post = configs[i - 1], configs[i]
        for rid in range(n):
            s_old = pre.light(rid).values[STEP]
            s_new = post.light(rid).values[STEP]
            t = post.light(rid).values
            if s_old == FC_STEP_1 and s_new == FC_STEP_2:
                # Finished copying: flags up and the displayed copy must match
                # the successor location's ground truth.
                if t[CHECKED] != 1 or t[SUC_CHECKED] != 1:
                    violations.append(f"round {i}: robot {rid} left copying with flags down")
                counts, mask = actual_suc_state(post, rid)
                got = [t[COUNTS + c] for c in range(ell)]
                if got != counts:
                    violations.append(
                        f"round {i}: robot {rid} successor-color copy {got} != actual {counts}"
                    )
                if t[SUC_EXEC] != mask:
                    violations.append(
                        f"round {i}: robot {rid} successor-executed copy {t[SUC_EXEC]} != {mask}"
                    )
            elif s_old == FC_STEP_2 and s_new == FC_STEP_M:
                stale = [q for q in range(n) if pre.light(q).values[EXEC] != 1]
                if stale:
                    violations.append(
                        f"round {i}: robot {rid} closed the mega-cycle with {stale} unexecuted"
                    )
            elif s_old == FC_STEP_M and s_new == FC_STEP_2:
                if not _shows(t, layout.executed_reset):
                    violations.append(f"round {i}: robot {rid} left flag reset without resetting")
                stale = [
                    q for q in range(n)
                    if q != rid and pre.light(q).values[EXEC] != 0
                ]
                if stale:
                    violations.append(
                        f"round {i}: robot {rid} reopened simulation with {stale} not reset"
                    )
            elif s_old == FC_STEP_3 and s_new == FC_STEP_1:
                stale = [
                    q for q in range(n)
                    if q != rid and not _shows(pre.light(q).values, layout.checking_reset)
                ]
                if stale:
                    violations.append(
                        f"round {i}: robot {rid} left flag clearing while {stale} were stale"
                    )

    violations.extend(_mega_cycle_violations(trace, EXEC))
    return violations


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


def monitor_properties(trace: Trace) -> list[str]:
    """Run the meta-simulator monitors appropriate for the trace.

    For sim-rs-by-s: the per-step flag invariants and the allowed step
    configurations.  For sim-lumi-by-fcom: the step-transition conclusions,
    own-color reconstruction, and flag hygiene.  Both check that every
    completed mega-cycle executes every robot exactly once.
    """
    if trace.header.algo == "sim-rs-by-s":
        return _monitor_rs_by_s(trace, derive_rs_layout(trace.header.palette))
    if trace.header.algo == "sim-lumi-by-fcom":
        return _monitor_lumi_by_fcom(trace, derive_fcom_layout(trace.header.palette))
    raise ValueError(f"trace algorithm {trace.header.algo!r} has no monitors")
