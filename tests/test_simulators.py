import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
import re
import struct

import pytest

from lcmswarm.algorithms import alg_move_east, alg_stay, alg_tricolor
from lcmswarm.core import (
    ORIGIN,
    LightTuple,
    LocalFrame,
    ModelKind,
    Multiplicity,
    ObservedLocation,
    Point,
    Snapshot,
    _points_key,
    make_configuration,
    order_locations,
    snapshot,
)
from lcmswarm.engine import Algorithm, FrameSpec, Rigidity, StepResult, run, run_round
from lcmswarm.scheduler import RSYNCH, SSYNCH, check_fair, generate, validate
from lcmswarm.simulators import (
    CH_C,
    CH_E,
    CH_M,
    EXEC_SET_FALSE,
    EXEC_SET_TRUE,
    FC_CATCH_UP,
    FC_STEP_1,
    FC_STEP_2,
    FC_STEP_3,
    FC_STEP_M,
    INDUCED,
    LumiByFcomLayout,
    RS_CATCH_UP,
    RS_STEP_1,
    RS_STEP_2,
    RS_STEP_3,
    RS_STEP_4,
    RS_STEP_5,
    RS_STEP_M,
    RsBySLayout,
    SimulationFault,
    _RING_READINGS,
    _exec_mask,
    _project_inner_snapshot,
    _read_ring,
    derive_fcom_layout,
    derive_rs_layout,
    extract_induced_schedule,
    flat_color,
    lumi_by_fcom_color_count,
    monitor_properties,
    rs_by_s_color_count,
    sim_lumi_by_fcom,
    sim_rs_by_s,
    unflatten_color,
    verify_inner_fidelity,
)


def spaced_config(n, palette, jitter=0):
    pts = [Point(50.0 * i, 7.0 * (i % 2) + jitter) for i in range(n)]
    return make_configuration(pts, palette=palette)


class TestLayouts:
    def test_rs_layout_palette(self):
        layout = RsBySLayout((3,))
        assert layout.palette == (3, 6, 2, 3)
        assert derive_rs_layout(layout.palette) == layout
        with pytest.raises(ValueError):
            derive_rs_layout((3, 2, 2))

    def test_fcom_layout_palette(self):
        layout = LumiByFcomLayout((3,), 4)
        assert layout.palette == (3, 5, 5, 5, 4, 2, 4, 2, 2)
        assert derive_fcom_layout(layout.palette) == layout
        with pytest.raises(ValueError):
            derive_fcom_layout((3, 2, 2))

    @pytest.mark.parametrize("layout", [RsBySLayout((3,)), LumiByFcomLayout((3,), 4)])
    def test_layouts_copy_and_pickle(self, layout):
        for clone in (copy.copy(layout), copy.deepcopy(layout), pickle.loads(pickle.dumps(layout))):
            assert type(clone) is type(layout) and clone == layout

    def test_flat_color_round_trip(self):
        palette = (3, 2)
        for vals in itertools.product(range(3), range(2)):
            assert unflatten_color(flat_color(vals, palette), palette) == vals

    @pytest.mark.parametrize("inner", [(), (2,), (3,), (2, 2)])
    def test_rs_color_budget_matches_enumeration(self, inner):
        layout = RsBySLayout(inner)
        enumerated = sum(1 for _ in itertools.product(*(range(s) for s in layout.palette)))
        ell = 1
        for s in inner:
            ell *= s
        assert enumerated == rs_by_s_color_count(ell) == 36 * ell

    @pytest.mark.parametrize("inner,n", [((), 2), ((2,), 2), ((2,), 3)])
    def test_fcom_color_budget_matches_enumeration(self, inner, n):
        layout = LumiByFcomLayout(inner, n)
        enumerated = sum(1 for _ in itertools.product(*(range(s) for s in layout.palette)))
        ell = 1
        for s in inner:
            ell *= s
        assert enumerated == lumi_by_fcom_color_count(ell, n)


class TestRsByS:
    def test_fsynch_host_induces_full_activations(self):
        wrap = sim_rs_by_s(alg_tricolor())
        trace = run(spaced_config(3, wrap.palette), "fsynch", wrap, rounds=30, seed=1)
        induced = extract_induced_schedule(trace)
        assert len(induced.sets) >= 5
        assert all(s == frozenset({0, 1, 2}) for s in induced.sets)
        assert validate(induced, RSYNCH).ok

    def test_partial_first_phase_never_returns_to_full_sets(self):
        wrap = sim_rs_by_s(alg_tricolor())
        layout = derive_rs_layout(wrap.palette)
        cfg = spaced_config(2, wrap.palette)
        # Activate only robot 0 while everyone is still in the opening step:
        # it runs the inner protocol and discharges, the other robot is pulled
        # along without executing, and full activations never come back.
        sets = [frozenset({0})] + [frozenset({1}), frozenset({0})] * 30
        from lcmswarm.scheduler import SchedulePrefix
        trace = run(cfg, SchedulePrefix(tuple(sets), 2), wrap)
        induced = extract_induced_schedule(trace)
        assert induced.sets[0] == frozenset({0})
        assert all(s != frozenset({0, 1}) for s in induced.sets)
        assert validate(induced, RSYNCH).ok
        # Robot 1's executions all happen in the second phase.
        for i, rec in enumerate(trace.rounds):
            if 1 in rec.events:
                pre_step = trace.configs()[i].light(1).values[layout.step]
                assert pre_step == RS_STEP_2

    def test_step2_round_without_eligible_robots_changes_nothing(self):
        wrap = sim_rs_by_s(alg_tricolor())
        layout = derive_rs_layout(wrap.palette)
        lights = [
            LightTuple((0, RS_STEP_2, 1, CH_E), layout.palette),
            LightTuple((0, RS_STEP_2, 0, CH_C), layout.palette),
        ]
        cfg = make_configuration([Point(0, 0), Point(50, 0)], lights)
        out, events = run_round(
            cfg, frozenset({0}), wrap, ModelKind.LUMI,
            {0: FrameSpec(), 1: FrameSpec()}, Rigidity(), random.Random(0),
        )
        assert out == cfg and events == {}

    @pytest.mark.parametrize("seed", range(15))
    def test_fuzzed_hosts_stay_clean(self, seed):
        inner = alg_tricolor()
        wrap = sim_rs_by_s(inner)
        trace = run(spaced_config(3, wrap.palette), "ssynch", wrap, rounds=110, seed=seed)
        induced = extract_induced_schedule(trace)
        assert validate(induced, RSYNCH).ok
        assert check_fair(induced, 6).ok
        assert monitor_properties(trace) == []
        assert verify_inner_fidelity(trace, inner) == []


class TestExtract:
    def test_non_simulator_trace_is_rejected(self):
        from lcmswarm.algorithms import alg_sro
        trace = run(make_configuration([Point(0, 0), Point(1, 1)]), "fsynch", alg_sro(),
                    rounds=2, seed=0)
        with pytest.raises(ValueError, match="annotations"):
            extract_induced_schedule(trace)

    def test_no_executions_gives_empty_schedule(self):
        wrap = sim_rs_by_s(alg_stay())
        trace = run(spaced_config(2, wrap.palette), "fsynch", wrap, rounds=0, seed=0)
        assert extract_induced_schedule(trace).sets == ()


def _with_entry(trace, round_idx, rid, change):
    """The trace with robot rid's position and light in configuration
    round_idx (0 is the initial one) replaced by change(position, light)."""
    config = trace.configs()[round_idx]
    entries = list(config.entries)
    r, p, lt = entries[rid]
    entries[rid] = (r, *change(p, lt))
    new_config = dataclasses.replace(config, entries=tuple(entries))
    if round_idx == 0:
        return dataclasses.replace(trace, initial=new_config)
    rounds = list(trace.rounds)
    rounds[round_idx - 1] = dataclasses.replace(rounds[round_idx - 1], config=new_config)
    return dataclasses.replace(trace, rounds=tuple(rounds))


def _tamper_light(trace, round_idx, rid, var, value):
    return _with_entry(trace, round_idx, rid, lambda p, lt: (p, lt.replace({var: value})))


def _with_events(trace, round_idx, rid, events):
    """The trace with robot rid's events of round round_idx (1-based) replaced."""
    rounds = list(trace.rounds)
    rec = rounds[round_idx - 1]
    new_events = {r: evs for r, evs in rec.events.items() if r != rid}
    if events:
        new_events[rid] = events
    rounds[round_idx - 1] = dataclasses.replace(rec, events=new_events)
    return dataclasses.replace(trace, rounds=tuple(rounds))


@functools.cache
def _frames(seed: int, n: int) -> dict[int, FrameSpec]:
    """Random per-robot frames that keep chirality: a rotation in (-pi, pi)
    and a scale in [0.25, 4]."""
    rng = random.Random(f"frames-{seed}")
    return {rid: FrameSpec(rng.uniform(-math.pi, math.pi), 2.0 ** rng.uniform(-2.0, 2.0))
            for rid in range(n)}


def _healthy_trace(family, frames=None):
    """A clean n=3 tricolor run of a wrapper on its usual host, with its layout."""
    if family == "rs":
        wrap = sim_rs_by_s(alg_tricolor())
        trace = run(spaced_config(3, wrap.palette), "ssynch", wrap, rounds=90, seed=3, frames=frames)
        return trace, derive_rs_layout(wrap.palette)
    wrap = sim_lumi_by_fcom(alg_tricolor(), 3)
    trace = run(spaced_config(3, wrap.palette), "rsynch", wrap, rounds=240, seed=0, frames=frames)
    return trace, derive_fcom_layout(wrap.palette)


def _rs_start(*states):
    """Forge the initial (step, executed, charged) of every robot."""
    def forge(trace, layout):
        for rid, values in enumerate(states):
            for var, value in zip((layout.step, layout.executed, layout.charged), values):
                trace = _tamper_light(trace, 0, rid, var, value)
        return trace
    return forge


def _transition(trace, layout, old, new):
    """(round, robot) of the first step change of one robot from old to new."""
    configs = trace.configs()
    for i in range(1, len(configs)):
        for rid in range(trace.initial.n):
            if (configs[i - 1].light(rid).values[layout.step] == old
                    and configs[i].light(rid).values[layout.step] == new):
                return i, rid
    raise AssertionError(f"no step change {old} -> {new}")


def _at_transition(old, new, post, var, value):
    """Forge one light at a step change: on the changing robot after the round
    (post) or on the next robot before it; value maps the old value."""
    def forge(trace, layout):
        i, rid = _transition(trace, layout, old, new)
        round_idx, robot = (i, rid) if post else (i - 1, (rid + 1) % trace.initial.n)
        index = getattr(layout, var)
        current = trace.configs()[round_idx].light(robot).values[index]
        return _tamper_light(trace, round_idx, robot, index, value(current))
    return forge


def _inner_execs(trace):
    return [(i, rid) for i, rec in enumerate(trace.rounds, start=1)
            for rid, evs in rec.events.items() if "inner-exec" in evs]


def _first_close(trace, layout):
    """The first round after which every executed flag is up."""
    configs = trace.configs()
    return next(i for i in range(1, len(configs))
                if all(configs[i].light(r).values[layout.executed] for r in range(trace.initial.n)))


def _exec_while_draining(trace, layout):
    return _with_events(trace, _first_close(trace, layout) + 1, 0, ("inner-exec",))


def _exec_twice(trace, layout):
    close = _first_close(trace, layout)
    first, rid = _inner_execs(trace)[0]
    assert first < close
    return _with_events(trace, close, rid, ("inner-exec",))


def _drop_first_exec(trace, layout):
    first, rid = _inner_execs(trace)[0]
    return _with_events(trace, first, rid, ())


def _wrong_own_color(trace, layout):
    i, rid = next((i, rid) for i, rid in _inner_execs(trace)
                  if any(e.startswith("own-color:") for e in trace.rounds[i - 1].events[rid]))
    events = tuple(
        f"own-color:{(int(e.split(':')[1]) + 1) % layout.ell}" if e.startswith("own-color:") else e
        for e in trace.rounds[i - 1].events[rid]
    )
    return _with_events(trace, i, rid, events)


def _fcom_start_step(trace, layout):
    return _tamper_light(trace, 0, 0, layout.step, FC_STEP_M)


def _set(value):
    return lambda _current: value


def _bump(modulus):
    return lambda current: (current + 1) % modulus


# One row per violation message of the monitors: the family of the clean run
# it starts from, how the run is forged, and the message that must appear.
MONITOR_RULES = [
    ("rs", _rs_start((RS_STEP_1, 0, CH_C), (RS_STEP_4, 0, CH_C), (RS_STEP_1, 0, CH_C)),
     "step configuration [0, 3] is not allowed"),
    ("rs", _rs_start((RS_STEP_1, 1, CH_C), (RS_STEP_1, 0, CH_C), (RS_STEP_1, 0, CH_C)),
     "step-1 robots must all be charged and unexecuted"),
    ("rs", _rs_start((RS_STEP_2, 1, CH_M), (RS_STEP_2, 1, CH_E), (RS_STEP_2, 0, CH_C)),
     "just-moved charge flag inside step 2"),
    ("rs", _rs_start((RS_STEP_2, 0, CH_C), (RS_STEP_2, 0, CH_C), (RS_STEP_2, 0, CH_C)),
     "step 2 lacks a discharged robot"),
    ("rs", _rs_start((RS_STEP_2, 0, CH_E), (RS_STEP_2, 1, CH_E), (RS_STEP_2, 0, CH_C)),
     "stale discharged robot outside a fresh mega-cycle"),
    ("rs", _rs_start((RS_STEP_2, 0, CH_E), (RS_STEP_2, 0, CH_E), (RS_STEP_2, 0, CH_E)),
     "fully discharged swarm with unexecuted robots"),
    ("rs", _rs_start((RS_STEP_2, 1, CH_E), (RS_STEP_2, 1, CH_E), (RS_STEP_2, 1, CH_E)),
     "full execution without a preceding step 1"),
    ("rs", _rs_start((RS_STEP_3, 1, CH_C), (RS_STEP_3, 0, CH_C), (RS_STEP_3, 0, CH_C)),
     "step-3 flags outside the reset/executed pair"),
    ("rs", _rs_start((RS_STEP_4, 0, CH_M), (RS_STEP_4, 1, CH_C), (RS_STEP_4, 0, CH_C)),
     "moved-but-unexecuted robot in step 4"),
    ("rs", _rs_start((RS_STEP_4, 1, CH_C), (RS_STEP_4, 1, CH_C), (RS_STEP_4, 0, CH_C)),
     "step-4 movers must be a nonempty proper subset"),
    ("rs", _rs_start((RS_STEP_4, 1, CH_M), (RS_STEP_4, 0, CH_C), (RS_STEP_4, 0, CH_C)),
     "step-4 movers differ from the last inner execution"),
    ("rs", _rs_start((RS_STEP_5, 0, CH_M), (RS_STEP_5, 0, CH_C), (RS_STEP_5, 0, CH_C)),
     "moved-but-unexecuted robot in step 5"),
    ("rs", _rs_start((RS_STEP_5, 0, CH_E), (RS_STEP_5, 0, CH_C), (RS_STEP_5, 0, CH_C)),
     "discharged-but-unexecuted robot in step 5"),
    ("rs", _rs_start((RS_STEP_5, 1, CH_C), (RS_STEP_5, 1, CH_C), (RS_STEP_5, 0, CH_C)),
     "step-5 spent robots must be a nonempty proper subset"),
    ("rs", _rs_start((RS_STEP_M, 1, CH_M), (RS_STEP_M, 1, CH_C), (RS_STEP_M, 1, CH_E)),
     "just-moved charge flag inside step m"),
    ("rs", _rs_start((RS_STEP_M, 1, CH_E), (RS_STEP_M, 1, CH_E), (RS_STEP_M, 1, CH_E)),
     "step-m charged robots must be a nonempty proper subset"),
    ("rs", _exec_while_draining, "inner execution between mega-cycles"),
    ("rs", _exec_twice, "executed twice in a mega-cycle"),
    ("rs", _drop_first_exec, "mega-cycle closed without robots"),
    ("fcom", _exec_while_draining, "inner execution between mega-cycles"),
    ("fcom", _exec_twice, "executed twice in a mega-cycle"),
    ("fcom", _drop_first_exec, "mega-cycle closed without robots"),
    ("fcom", _wrong_own_color, "reconstructed color"),
    ("fcom", _fcom_start_step, "step configuration [0, 3] is not allowed"),
    ("fcom", _at_transition(FC_STEP_1, FC_STEP_2, True, "checked", _set(0)),
     "left copying with flags down"),
    ("fcom", _at_transition(FC_STEP_1, FC_STEP_2, True, "counts", _bump(4)),
     "successor-color copy"),
    ("fcom", _at_transition(FC_STEP_1, FC_STEP_2, True, "suc_executed", _bump(4)),
     "successor-executed copy"),
    ("fcom", _at_transition(FC_STEP_2, FC_STEP_M, False, "executed", _set(0)),
     "closed the mega-cycle with"),
    ("fcom", _at_transition(FC_STEP_M, FC_STEP_2, True, "executed", _set(1)),
     "left flag reset without resetting"),
    ("fcom", _at_transition(FC_STEP_M, FC_STEP_2, False, "executed", _set(1)),
     "reopened simulation with"),
    ("fcom", _at_transition(FC_STEP_3, FC_STEP_1, False, "checked", _set(1)),
     "left flag clearing while"),
]


class TestMonitors:
    def _healthy(self, seed=3):
        wrap = sim_rs_by_s(alg_tricolor())
        return wrap, run(spaced_config(3, wrap.palette), "ssynch", wrap, rounds=90, seed=seed)

    def test_healthy_trace_is_clean(self):
        _, trace = self._healthy()
        assert monitor_properties(trace) == []

    def test_flipped_executed_flag_breaks_step1_property(self):
        wrap, trace = self._healthy()
        layout = derive_rs_layout(wrap.palette)
        tampered = _tamper_light(trace, 0, 0, layout.executed, 1)
        assert any("step-1" in v for v in monitor_properties(tampered))

    def test_forbidden_step_configuration_is_flagged(self):
        wrap, trace = self._healthy()
        layout = derive_rs_layout(wrap.palette)
        tampered = _tamper_light(trace, 0, 0, layout.step, 4)
        assert any("not allowed" in v for v in monitor_properties(tampered))

    def test_double_execution_is_flagged(self):
        wrap, trace = self._healthy()
        execs = [i for i, rec in enumerate(trace.rounds)
                 if any("inner-exec" in e for e in rec.events.values())]
        assert execs
        first = execs[0]
        rid = next(iter(trace.rounds[first].events))
        # Forge a second execution of the same robot later in the same cycle.
        for later in range(first + 1, len(trace.rounds)):
            rec = trace.rounds[later]
            rounds = list(trace.rounds)
            events = dict(rec.events)
            events[rid] = events.get(rid, ()) + ("inner-exec",)
            rounds[later] = dataclasses.replace(rec, events=events)
            tampered = dataclasses.replace(trace, rounds=tuple(rounds))
            violations = monitor_properties(tampered)
            if any("twice" in v or "between mega-cycles" in v for v in violations):
                return
        pytest.fail("forged double execution never flagged")

    @pytest.mark.parametrize("family,forge,message", MONITOR_RULES,
                             ids=["-".join([f, *re.findall(r"[a-z0-9]+", m)])
                                  for f, _, m in MONITOR_RULES])
    def test_every_rule_fires(self, family, forge, message):
        trace, layout = _healthy_trace(family)
        assert monitor_properties(trace) == []
        violations = monitor_properties(forge(trace, layout))
        assert any(message in v for v in violations), violations

    def test_monitor_requires_simulator_trace(self):
        from lcmswarm.algorithms import alg_sro
        trace = run(make_configuration([Point(0, 0), Point(1, 1)]), "fsynch", alg_sro(),
                    rounds=1, seed=0)
        with pytest.raises(ValueError, match="monitors"):
            monitor_properties(trace)


def _crowd(snap):
    """Shows 1 where its own location counts at least three robots."""
    return StepResult(light={0: int(snap.location_at(ORIGIN).count >= 3)})


class TestFidelity:
    """verify_inner_fidelity on a clean trace and on one forged mismatch."""

    @pytest.mark.parametrize("family", ["rs", "lumi"])
    def test_clean_trace_has_no_mismatch(self, family):
        trace, _ = _healthy_trace(family)
        assert verify_inner_fidelity(trace, alg_tricolor()) == []

    def test_a_non_rigid_trace_is_refused(self):
        trace, _ = _healthy_trace("rs")
        non_rigid = dataclasses.replace(trace, header=dataclasses.replace(trace.header, delta=0.3))
        with pytest.raises(ValueError, match="^fidelity replay requires a rigid-movement trace$"):
            verify_inner_fidelity(non_rigid, alg_tricolor())

    @pytest.mark.parametrize("family", ["rs", "lumi"])
    def test_moved_robot_diverges(self, family):
        for frames in (None, _frames(3, 3)):  # identity frames, then those the trace ran under
            trace, _ = _healthy_trace(family, frames)
            r, rid = _inner_execs(trace)[0]  # the first inner execution
            moved = _with_entry(trace, r, rid, lambda p, lt: (Point(p.x + 1.0, p.y), lt))
            assert verify_inner_fidelity(moved, alg_tricolor(), frames=frames) == [
                f"inner round 1: robot {rid} position diverges at trace round {r}"
            ]

    @pytest.mark.parametrize("family", ["rs", "lumi"])
    def test_flipped_inner_light_diverges(self, family):
        for frames in (None, _frames(3, 3)):
            trace, _ = _healthy_trace(family, frames)
            r, rid = _inner_execs(trace)[0]
            colour = trace.rounds[r - 1].config.light(rid).values[0]
            flipped = _tamper_light(trace, r, rid, 0, (colour + 1) % 3)
            assert verify_inner_fidelity(flipped, alg_tricolor(), frames=frames) == [
                f"inner round 1: robot {rid} inner light diverges at trace round {r}"
            ]

    def test_a_weak_multiplicity_trace_holds_under_its_multiplicity(self):
        # Three robots share a point; the inner protocol lights up where it
        # counts three, which weak multiplicity shows as two.
        inner = Algorithm("crowd", (2,), _crowd, ModelKind.LUMI)
        wrap = sim_rs_by_s(inner)
        config = make_configuration([Point(0.0, 0.0)] * 3 + [Point(5.0, 0.0)], palette=wrap.palette)
        trace = run(config, "ssynch", wrap, rounds=60, seed=0, multiplicity=Multiplicity.WEAK)
        assert verify_inner_fidelity(trace, inner, multiplicity=Multiplicity.WEAK) == []
        assert "inner light diverges" in verify_inner_fidelity(trace, inner)[0]

    def test_a_trace_under_reflecting_frames_holds_without_chirality(self):
        # Robots 0 and 2 see the plane mirrored, which only a run without
        # chirality allows; the direct inner run must be made without it too.
        frames = {0: FrameSpec(reflecting=True), 2: FrameSpec(reflecting=True)}
        wrap = sim_rs_by_s(alg_stay())
        trace = run(spaced_config(3, wrap.palette), "ssynch", wrap, rounds=110, seed=0,
                    frames=frames, chirality=False)
        assert verify_inner_fidelity(trace, alg_stay(), frames=frames, chirality=False) == []


@pytest.mark.parametrize("family", ["rs", "lumi"])
def test_fidelity_lists_a_robots_position_before_its_inner_light(family):
    trace, _ = _healthy_trace(family)
    r, rid = _inner_execs(trace)[0]
    colour = trace.rounds[r - 1].config.light(rid).values[0]
    both = _with_entry(trace, r, rid,
                       lambda p, lt: (Point(p.x + 1.0, p.y), lt.replace({0: (colour + 1) % 3})))
    assert verify_inner_fidelity(both, alg_tricolor()) == [
        f"inner round 1: robot {rid} position diverges at trace round {r}",
        f"inner round 1: robot {rid} inner light diverges at trace round {r}",
    ]


def fcom_tuple(layout, inner, counts, step, executed, suc_exec, checked, suc_checked):
    vals = tuple(inner) + tuple(counts) + (step, executed, suc_exec, checked, suc_checked)
    return LightTuple(vals, layout.palette)


class TestDetermineOwnColor:
    # Three locations whose clockwise ring order (computed around the
    # centroid) is origin -> B(1,2) -> A(2,0); so A is the predecessor and
    # B the successor of the origin.
    O, A, B = Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, 2.0)
    RED, GREEN = (0,), (1,)

    def _snapshot(self, layout, here_lights, pred_counts):
        pred = fcom_tuple(layout, self.RED, pred_counts, FC_STEP_2, 0, EXEC_SET_FALSE, 1, 1)
        suc = fcom_tuple(layout, self.GREEN, [0] * layout.ell, FC_STEP_2, 0, EXEC_SET_FALSE, 1, 1)
        here = tuple(
            fcom_tuple(layout, colour, [0] * layout.ell, FC_STEP_2, 0, EXEC_SET_FALSE, 1, 1).values
            for colour in here_lights
        )
        observed = (
            ObservedLocation(self.O, 1 + len(here_lights), here),
            ObservedLocation(self.B, 1, (suc.values,)),
            ObservedLocation(self.A, 1, (pred.values,)),
        )
        return Snapshot(observed, None, True)

    def test_set_difference_resolves_own_color(self):
        inner = alg_tricolor()
        n = 4
        wrap = sim_lumi_by_fcom(inner, n)
        layout = LumiByFcomLayout(inner.palette, n)
        # Predecessor advertises {red, green} at this location; a co-located
        # robot shows green, so the observer must be red.
        snap = self._snapshot(layout, [self.GREEN], pred_counts=[1, 1, 0])
        res = wrap.step(snap)
        assert "own-color:0" in res.events and "inner-exec" in res.events
        assert res.light[0] == 1  # the inner protocol cycles the reconstructed red
        assert res.light[layout.step] == FC_STEP_3
        assert res.light[layout.executed] == 1

    def test_multiset_difference_handles_duplicate_colors(self):
        inner = alg_tricolor()
        n = 5
        wrap = sim_lumi_by_fcom(inner, n)
        layout = LumiByFcomLayout(inner.palette, n)
        # Advertised multiset {red x2, green}; red and green visible here, so
        # the observer is the second red. A plain color set could not tell.
        snap = self._snapshot(layout, [self.RED, self.GREEN], pred_counts=[2, 1, 0])
        res = wrap.step(snap)
        assert "own-color:0" in res.events

    def test_unresolvable_color_raises(self):
        inner = alg_tricolor()
        n = 4
        wrap = sim_lumi_by_fcom(inner, n)
        layout = LumiByFcomLayout(inner.palette, n)
        snap = self._snapshot(layout, [self.RED], pred_counts=[1, 0, 0])
        with pytest.raises(SimulationFault, match="singleton"):
            wrap.step(snap)


class TestUnlistedStepPairs:
    """A step pair that is neither a catch-up pair nor a settled {2, m} pair
    leaves the robot as it is; the predecessor copy must be unanimous."""

    O, A, B = TestDetermineOwnColor.O, TestDetermineOwnColor.A, TestDetermineOwnColor.B

    def test_rs_by_s_step_pair_1_4_is_a_no_op(self):
        wrap = sim_rs_by_s(alg_tricolor())
        own = LightTuple((0, RS_STEP_1, 0, CH_C), wrap.palette).values
        other = LightTuple((1, RS_STEP_4, 1, CH_M), wrap.palette).values
        snap = Snapshot((ObservedLocation(self.O, 1, (own,)), ObservedLocation(self.A, 1, (other,))),
                        own, True)
        assert wrap.step(snap) == StepResult()

    def _fcom_snapshot(self, layout, suc, pred):
        observed = (
            ObservedLocation(self.O, 1, ()),
            ObservedLocation(self.B, 1, (suc.values,)),
            ObservedLocation(self.A, len(pred), tuple(t.values for t in pred)),
        )
        return Snapshot(observed, None, True)

    def test_lumi_by_fcom_step_pair_1_m_is_a_no_op(self):
        wrap = sim_lumi_by_fcom(alg_tricolor(), 3)
        layout = LumiByFcomLayout((3,), 3)
        zero = [0] * layout.ell
        suc = fcom_tuple(layout, (1,), zero, FC_STEP_1, 0, EXEC_SET_FALSE, 0, 0)
        pred = fcom_tuple(layout, (0,), zero, FC_STEP_M, 1, EXEC_SET_TRUE, 1, 1)
        assert wrap.step(self._fcom_snapshot(layout, suc, [pred])) == StepResult()

    def test_predecessors_that_disagree_on_a_copied_light_raise(self):
        wrap = sim_lumi_by_fcom(alg_tricolor(), 4)
        layout = LumiByFcomLayout((3,), 4)
        suc = fcom_tuple(layout, (1,), [0] * layout.ell, FC_STEP_2, 0, EXEC_SET_FALSE, 1, 1)
        pred = [fcom_tuple(layout, (0,), counts, FC_STEP_2, 0, EXEC_SET_FALSE, 1, 1)
                for counts in ([1, 0, 0], [0, 1, 0])]
        with pytest.raises(SimulationFault, match="^predecessor-location robots disagree on a copied light$"):
            wrap.step(self._fcom_snapshot(layout, suc, pred))


def _wrapped(family, inner):
    """The wrapper of a family around inner at n=3, its host and its rounds,
    as in the acceptance batteries."""
    if family == "rs":
        return sim_rs_by_s(inner), SSYNCH, 110
    return sim_lumi_by_fcom(inner, 3), RSYNCH, 240


def _single_step_edges(family):
    """Every step change s -> t that a robot makes in a round starting with
    every robot on step s, over clean n=3 runs of the wrapper around stay,
    move-east and tricolor on its host, seeds 0-19."""
    edges = set()
    for inner in (alg_stay(), alg_move_east(), alg_tricolor()):
        wrap, host, rounds = _wrapped(family, inner)
        derive = derive_rs_layout if family == "rs" else derive_fcom_layout
        step = derive(wrap.palette).step
        for seed in range(20):
            configs = run(spaced_config(3, wrap.palette), host, wrap, rounds=rounds, seed=seed).configs()
            for before, after in zip(configs, configs[1:]):
                steps = {lt.values[step] for _, _, lt in before.entries}
                if len(steps) == 1:
                    (s,) = steps
                    edges.update((s, lt.values[step]) for _, _, lt in after.entries if lt.values[step] != s)
    return edges


EDGES = {
    "rs": {(RS_STEP_1, RS_STEP_2), (RS_STEP_2, RS_STEP_3), (RS_STEP_2, RS_STEP_4), (RS_STEP_2, RS_STEP_M),
           (RS_STEP_3, RS_STEP_1), (RS_STEP_4, RS_STEP_5), (RS_STEP_5, RS_STEP_2), (RS_STEP_M, RS_STEP_2)},
    "fcom": {(FC_STEP_1, FC_STEP_2), (FC_STEP_2, FC_STEP_3), (FC_STEP_2, FC_STEP_M),
             (FC_STEP_3, FC_STEP_1), (FC_STEP_M, FC_STEP_2)},
}
TABLES = {"rs": (RS_CATCH_UP, range(6)), "fcom": (FC_CATCH_UP, range(4))}


def _catch_up_faults(table, edges):
    """The catch-up entries {a, b} -> t that break the edge check: a robot
    that sees steps {a, b} on display catches up to the step that the robots
    on the other one move to next, so t is a or b, and the single-step
    branches take the other step to t."""
    faults = []
    for pair, target in table.items():
        other = pair - {target}
        if len(other) != 1 or (*other, target) not in edges:
            faults.append((sorted(pair), target))
    return faults


@pytest.mark.parametrize("family, table, edges", [
    ("rs", RS_CATCH_UP, EDGES["rs"]),
    ("fcom", FC_CATCH_UP, EDGES["fcom"]),
])
def test_catch_up_table_follows_the_single_step_edges(family, table, edges):
    assert _single_step_edges(family) == edges
    assert _catch_up_faults(table, edges) == []


def _run_checks_reject(family):
    """Whether a run check rejects the wrapper as its tables now stand, over
    stay, move-east and tricolor at n=3, seeds 0-4: fewer than 3 induced
    rounds, an induced schedule that is invalid or unfair (window 2n), a
    monitor violation, a fidelity divergence, or a raise."""
    for inner in (alg_stay(), alg_move_east(), alg_tricolor()):
        wrap, host, rounds = _wrapped(family, inner)  # a fresh instance: no rounds kept from another table
        for seed in range(5):
            try:
                trace = run(spaced_config(3, wrap.palette), host, wrap, rounds=rounds, seed=seed)
                induced = extract_induced_schedule(trace)
                if (len(induced.sets) < 3 or not validate(induced, INDUCED[wrap.name].family).ok
                        or not check_fair(induced, 6).ok or monitor_properties(trace)
                        or verify_inner_fidelity(trace, inner)):
                    return True
            except Exception:
                return True
    return False


# The sim-rs-by-s mutants that pass every run check, as (pair, wrong target):
# {2,3} and {3,1} to any wrong step, {4,5} to 4 and {5,2} to 5.
RUN_CHECK_SURVIVORS = (
    {((RS_STEP_2, RS_STEP_3), t) for t in range(6) if t != RS_STEP_3}
    | {((RS_STEP_1, RS_STEP_3), t) for t in range(6) if t != RS_STEP_1}
    | {((RS_STEP_4, RS_STEP_5), RS_STEP_4), ((RS_STEP_2, RS_STEP_5), RS_STEP_5)}
)


def test_every_catch_up_mutant_is_rejected():
    # Each mutant points one catch-up entry at a wrong step: 30 of
    # sim-rs-by-s, 9 of sim-lumi-by-fcom.  The edge check rejects every one;
    # the run checks reject every one outside RUN_CHECK_SURVIVORS.
    mutants, survivors = 0, set()
    for family, (table, steps) in TABLES.items():
        for pair, target in list(table.items()):
            for wrong in steps:
                if wrong == target:
                    continue
                table[pair] = wrong
                try:
                    mutants += 1
                    assert _catch_up_faults(table, EDGES[family]), (family, sorted(pair), wrong)
                    if not _run_checks_reject(family):
                        survivors.add((family, tuple(sorted(pair)), wrong))
                finally:
                    table[pair] = target
    assert mutants == 39
    assert survivors <= {("rs",) + m for m in RUN_CHECK_SURVIVORS}, survivors


def _geometry(*xy):
    return tuple(ObservedLocation(Point(x, y), 1, ()) for x, y in xy)


class TestRingReading:
    """The sim-lumi-by-fcom ring reading, kept once per observed geometry."""

    def test_signed_zeros_make_different_keys(self):
        plus = _geometry((0.0, 0.0), (2.0, 0.0), (1.0, 2.0))
        minus = _geometry((-0.0, 0.0), (2.0, 0.0), (1.0, 2.0))
        assert _points_key(plus) != _points_key(minus)
        assert _read_ring(_points_key(plus)) == _read_ring(_points_key(minus)) == (0, 2, 1)

    def test_geometry_without_origin_raises_every_time_and_is_not_kept(self):
        key = _points_key(_geometry((1.0, 0.0), (2.0, 0.0), (1.0, 2.0)))
        _read_ring.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="not an occupied location"):
                _read_ring(key)
        assert _read_ring.cache_info().currsize == 0

    def test_cache_is_bounded(self):
        assert _RING_READINGS == 1024
        _read_ring.cache_clear()
        for i in range(_RING_READINGS + 100):
            _read_ring(_points_key(_geometry((0.0, 0.0), (1.0 + i, 0.0), (0.0, 1.0))))
        info = _read_ring.cache_info()
        assert info.misses == 1124 and info.currsize <= 1024

    def test_cache_hit_does_not_order_locations(self, monkeypatch):
        calls = []

        def counting(points):
            calls.append(points)
            return order_locations(points)

        monkeypatch.setattr("lcmswarm.simulators.order_locations", counting)
        _read_ring.cache_clear()
        wrap = sim_lumi_by_fcom(alg_tricolor(), 3)
        config = spaced_config(3, wrap.palette)
        snap = snapshot(wrap.model, config, 1, LocalFrame(config.position(1)))
        first = _step_bits(wrap.step, snap)
        assert len(calls) == 1
        assert _step_bits(wrap.step, snap) == first
        assert len(calls) == 1 and _read_ring.cache_info().hits == 1


class TestLumiByFcom:
    def test_chirality_is_required(self):
        wrap = sim_lumi_by_fcom(alg_stay(), 2)
        cfg = spaced_config(2, wrap.palette)
        with pytest.raises(ValueError, match="chirality"):
            run(cfg, "rsynch", wrap, rounds=5, seed=0, chirality=False)

    def test_fsynch_host_simulates_full_rounds(self):
        inner = alg_tricolor()
        wrap = sim_lumi_by_fcom(inner, 3)
        trace = run(spaced_config(3, wrap.palette), "fsynch", wrap, rounds=40, seed=0)
        induced = extract_induced_schedule(trace)
        assert len(induced.sets) >= 3
        assert all(s == frozenset({0, 1, 2}) for s in induced.sets)
        assert monitor_properties(trace) == []
        assert verify_inner_fidelity(trace, inner) == []

    def test_mega_cycle_resets_executed_flags(self):
        wrap = sim_lumi_by_fcom(alg_stay(), 3)
        layout = derive_fcom_layout(wrap.palette)
        trace = run(spaced_config(3, wrap.palette), "fsynch", wrap, rounds=40, seed=0)
        configs = trace.configs()
        exec_cols = [
            tuple(c.light(r).values[layout.executed] for r in range(3)) for c in configs
        ]
        i = exec_cols.index((1, 1, 1))
        j = next(k for k in range(i, len(exec_cols)) if exec_cols[k] == (0, 0, 0))
        # After the reset the cycle restarts and everyone executes again.
        assert any(exec_cols[k] == (1, 1, 1) for k in range(j, len(exec_cols)))

    @pytest.mark.parametrize("inner_factory", [alg_stay, alg_move_east, alg_tricolor])
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_fuzzed_hosts_stay_clean(self, inner_factory, seed):
        inner = inner_factory()
        n = 3
        wrap = sim_lumi_by_fcom(inner, n)
        trace = run(spaced_config(n, wrap.palette), "rsynch", wrap, rounds=240, seed=seed)
        induced = extract_induced_schedule(trace)
        assert len(induced.sets) >= n  # at least one mega-cycle's worth
        assert validate(induced, SSYNCH).ok
        assert check_fair(induced, 2 * n).ok
        assert monitor_properties(trace) == []
        assert verify_inner_fidelity(trace, inner) == []

    def test_own_color_events_match_ground_truth(self):
        inner = alg_tricolor()
        wrap = sim_lumi_by_fcom(inner, 3)
        trace = run(spaced_config(3, wrap.palette), "rsynch", wrap, rounds=200, seed=17)
        configs = trace.configs()
        seen = 0
        for i, rec in enumerate(trace.rounds):
            for rid, events in rec.events.items():
                for ev in events:
                    if ev.startswith("own-color:"):
                        actual = configs[i].light(rid).values[0]
                        assert int(ev.split(":")[1]) == actual
                        seen += 1
        assert seen >= 3


# The two wrapper steps as they were before the protocol tables, copied
# verbatim: the bitwise oracle for every later change to either step.
def oracle_sim_rs_by_s(inner: Algorithm) -> Algorithm:
    """Wrap an inner protocol for execution by full-light robots under any
    fair semi-synchronous host schedule; the wrapper keeps the inner
    protocol's robot-count, chirality and rigidity constraints."""
    layout = RsBySLayout(inner.palette)
    k, STEP, EXEC, CHARGED = layout.k, layout.step, layout.executed, layout.charged

    def step(snap: Snapshot) -> StepResult:
        all_lights = [t for loc in snap.observed for t in loc.lights]
        steps = frozenset(t[STEP] for t in all_lights)
        own = snap.own_light

        def run_inner() -> tuple[dict[int, int], Point, tuple[str, ...]]:
            inner_snap = _project_inner_snapshot(snap, k, own[:k], add_self=False)
            res = inner.step(inner_snap)
            return dict(res.light), res.destination, ("inner-exec",) + res.events

        if steps == {RS_STEP_1}:
            light, dest, events = run_inner()
            light.update({STEP: RS_STEP_2, EXEC: 1, CHARGED: CH_E})
            return StepResult(light=light, destination=dest, events=events)

        if steps == {RS_STEP_2}:
            if all(t[CHARGED] == CH_E for t in all_lights):
                return StepResult(light={STEP: RS_STEP_3})
            if all(t[EXEC] == 1 for t in all_lights):
                return StepResult(light={STEP: RS_STEP_M})
            if own[EXEC] == 0 and own[CHARGED] == CH_C:
                light, dest, events = run_inner()
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

        if steps <= {RS_STEP_1, RS_STEP_2}:
            return StepResult(light={STEP: RS_STEP_2})
        if steps <= {RS_STEP_2, RS_STEP_3}:
            return StepResult(light={STEP: RS_STEP_3})
        if steps <= {RS_STEP_2, RS_STEP_4}:
            return StepResult(light={STEP: RS_STEP_4})
        if steps <= {RS_STEP_4, RS_STEP_5}:
            return StepResult(light={STEP: RS_STEP_5})
        if steps <= {RS_STEP_5, RS_STEP_2}:
            return StepResult(light={STEP: RS_STEP_2})
        if steps <= {RS_STEP_3, RS_STEP_1}:
            return StepResult(light={STEP: RS_STEP_1})
        if steps <= {RS_STEP_2, RS_STEP_M} and all(t[EXEC] == 1 for t in all_lights):
            return StepResult(light={STEP: RS_STEP_M})
        if steps <= {RS_STEP_M, RS_STEP_2} and all(t[EXEC] == 0 for t in all_lights):
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


def oracle_sim_lumi_by_fcom(inner: Algorithm, n: int) -> Algorithm:
    """Wrap an inner full-light protocol for execution by external-light
    robots under a restricted-repetition host schedule; needs chirality and
    keeps the inner protocol's robot-count and rigidity constraints."""
    layout = LumiByFcomLayout(inner.palette, n)
    k, ell = layout.k, layout.ell
    COUNTS, STEP, EXEC = layout.counts, layout.step, layout.executed
    SUC_EXEC, CHECKED, SUC_CHECKED = layout.suc_executed, layout.checked, layout.suc_checked
    inner_palette = inner.palette

    def step(snap: Snapshot) -> StepResult:
        ring = order_locations([loc.point for loc in snap.observed])
        io = ring.index_of(ORIGIN)
        suc_loc = ring.locations[ring.suc(io)]
        pred_loc = ring.locations[ring.pred(io)]
        here = snap.location_at(ORIGIN)
        at_suc = snap.location_at(suc_loc)
        at_pred = snap.location_at(pred_loc)
        others = [t for loc in snap.observed for t in loc.lights]
        others_steps = frozenset(t[STEP] for t in others)

        def pred_field(idx: int) -> int:
            vals = {t[idx] for t in at_pred.lights}
            if len(vals) != 1:
                raise SimulationFault("predecessor-location robots disagree on a copied light")
            return vals.pop()

        def own_executed() -> bool:
            mask = pred_field(SUC_EXEC)
            seen = _exec_mask(bool(t[EXEC]) for t in here.lights)
            return (mask & ~seen) == EXEC_SET_TRUE

        def all_robots_executed() -> bool:
            return all(t[EXEC] == 1 for t in others) and own_executed()

        def reset_checking() -> dict[int, int]:
            out = {COUNTS + c: 0 for c in range(ell)}
            out[SUC_EXEC] = EXEC_SET_FALSE
            out[SUC_CHECKED] = 0
            out[CHECKED] = 0
            return out

        def checked_flags_reset(t: tuple[int, ...]) -> bool:
            return (
                all(t[COUNTS + c] == 0 for c in range(ell))
                and t[SUC_EXEC] == EXEC_SET_FALSE
                and t[SUC_CHECKED] == 0
                and t[CHECKED] == 0
            )

        if others_steps == {FC_STEP_1}:  # copy colors and flags of the successor
            light: dict[int, int] = {COUNTS + c: 0 for c in range(ell)}
            for t in at_suc.lights:
                var = COUNTS + flat_color(t[:k], inner_palette)
                light[var] = min(light[var] + 1, n)
            light[SUC_EXEC] = _exec_mask(bool(t[EXEC]) for t in at_suc.lights)
            if all(t[CHECKED] == 1 for t in at_suc.lights):
                light[SUC_CHECKED] = 1
            light[CHECKED] = 1
            done = all(t[CHECKED] == 1 and t[SUC_CHECKED] == 1 for t in others)
            light[STEP] = FC_STEP_2 if done else FC_STEP_1
            return StepResult(light=light)

        if others_steps == {FC_STEP_2}:  # perform one simulated activation
            if all_robots_executed():
                return StepResult(light={STEP: FC_STEP_M})
            if own_executed():
                return StepResult(light={STEP: FC_STEP_2})
            # Determine own color: predecessor's copy of this location's
            # multiset minus the colors visible here.
            counts = [pred_field(COUNTS + c) for c in range(ell)]
            for t in here.lights:
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
            light = reset_checking()
            done = all(checked_flags_reset(t) for t in others)
            light[STEP] = FC_STEP_1 if done else FC_STEP_3
            return StepResult(light=light)

        if others_steps == {FC_STEP_M}:  # reset executed flags
            light = {EXEC: 0, SUC_EXEC: EXEC_SET_FALSE}
            done = all(
                t[EXEC] == 0 and t[SUC_EXEC] == EXEC_SET_FALSE for t in others
            )
            light[STEP] = FC_STEP_2 if done else FC_STEP_M
            return StepResult(light=light)

        if others_steps <= {FC_STEP_1, FC_STEP_2}:
            return StepResult(light={STEP: FC_STEP_2})
        if others_steps <= {FC_STEP_2, FC_STEP_3}:
            return StepResult(light={STEP: FC_STEP_3})
        if others_steps <= {FC_STEP_2, FC_STEP_M} and all_robots_executed():
            return StepResult(light={STEP: FC_STEP_M})
        if others_steps <= {FC_STEP_3, FC_STEP_1}:
            return StepResult(light={STEP: FC_STEP_1})
        if others_steps <= {FC_STEP_M, FC_STEP_2} and all(t[EXEC] == 0 for t in others):
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


def _step_bits(step, snap):
    """A step's result with floats as bit patterns, or its exception."""
    try:
        res = step(snap)
    except Exception as exc:
        return type(exc), str(exc)
    dest = res.destination
    return sorted(res.light.items()), struct.pack("dd", dest.x, dest.y), res.events


@pytest.mark.parametrize("wrapper", ["sim-rs-by-s", "sim-lumi-by-fcom"])
@pytest.mark.parametrize("n", [3, 4])
def test_wrapper_steps_bitwise_equal_oracle(wrapper, n):
    # Every robot's snapshot of every configuration of runs shaped like the
    # acceptance batteries (ssynch 110 rounds, rsynch 240 rounds), with
    # identity frames and with seeded rotated and scaled frames.
    rng = random.Random(f"wrapper-frames-{wrapper}-{n}")
    rotated = {rid: FrameSpec(rng.uniform(-math.pi, math.pi), rng.uniform(0.25, 4.0))
               for rid in range(n)}
    identity = {rid: FrameSpec() for rid in range(n)}
    checked = 0
    for inner in (alg_stay(), alg_move_east(), alg_tricolor()):
        if wrapper == "sim-rs-by-s":
            new, old, kind, rounds = sim_rs_by_s(inner), oracle_sim_rs_by_s(inner), SSYNCH, 110
        else:
            new, old = sim_lumi_by_fcom(inner, n), oracle_sim_lumi_by_fcom(inner, n)
            kind, rounds = RSYNCH, 240
        for seed in (0, 1, 2):
            for frames in (identity, rotated):
                trace = run(spaced_config(n, new.palette), kind, new,
                            rounds=rounds, seed=seed, frames=frames)
                for config in trace.configs():
                    for rid in range(n):
                        spec = frames[rid]
                        frame = LocalFrame(config.position(rid), spec.rotation, spec.scale)
                        snap = snapshot(new.model, config, rid, frame)
                        assert _step_bits(new.step, snap) == _step_bits(old.step, snap)
                        checked += 1
    assert checked == 3 * 3 * 2 * (rounds + 1) * n
