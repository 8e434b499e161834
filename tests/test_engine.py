import dataclasses
import gc
import hashlib
import itertools
import math
import os
import random
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import lcmswarm.engine as engine_ns
from lcmswarm.algorithms import (
    alg_cyclic_cycles,
    alg_move_east,
    alg_sro,
    alg_stay,
    alg_tricolor,
    cyc_initial_config,
)
from lcmswarm.core import (
    Configuration,
    LightTuple,
    LocalFrame,
    ModelKind,
    Multiplicity,
    Point,
    _configuration,
    _frame,
    _light,
    distance,
    from_local,
    make_configuration,
    points_close,
    snapshot,
)
from lcmswarm.engine import (
    Algorithm,
    ConstraintError,
    FrameSpec,
    PaletteError,
    Rigidity,
    StepResult,
    Trace,
    TraceHeader,
    TraceRound,
    _check_result,
    apply_move,
    read_trace,
    replay,
    run,
    run_round,
    write_trace,
)
from lcmswarm.scheduler import (
    ENERGY_RESTRICTED,
    KIND_NAMES,
    ROUND_ROBIN,
    SchedulePrefix,
    SchedulerKind,
    generate,
)
from lcmswarm.simulators import sim_lumi_by_fcom, sim_rs_by_s, verify_inner_fidelity


def identity_frames(n):
    return {i: FrameSpec() for i in range(n)}


def rotate_oracle(p, angle, cx, cy):
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p[0] - cx, p[1] - cy
    return (cx + c * dx - s * dy, cy + s * dx + c * dy)


class TestRunRound:
    def test_empty_activation_is_identity(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        out, events = run_round(
            cfg, frozenset(), alg_stay(), ModelKind.OBLOT, identity_frames(2),
            Rigidity(), random.Random(0),
        )
        assert out == cfg and events == {}

    def test_lights_update_while_staying(self):
        toggler = Algorithm(
            "toggle", (2,),
            lambda snap: StepResult(light={0: 1 - snap.own_light[0]}),
            ModelKind.FSTA,
        )
        cfg = make_configuration([Point(0, 0), Point(1, 1)], palette=(2,))
        out, _ = run_round(
            cfg, frozenset({0, 1}), toggler, ModelKind.FSTA, identity_frames(2),
            Rigidity(), random.Random(0),
        )
        assert [p for _, p, _ in out.entries] == [Point(0, 0), Point(1, 1)]
        assert [lt.values for _, _, lt in out.entries] == [(1,), (1,)]

    def test_sro_round_matches_rotation_oracle(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        out, _ = run_round(
            cfg, frozenset({0, 1}), alg_sro(), ModelKind.OBLOT, identity_frames(2),
            Rigidity(), random.Random(0),
        )
        want0 = rotate_oracle((0, 0), -math.pi / 2, 0.5, 0.5)
        want1 = rotate_oracle((1, 1), -math.pi / 2, 0.5, 0.5)
        assert points_close(out.position(0), Point(*want0))
        assert points_close(out.position(1), Point(*want1))

    def test_snapshots_precede_all_moves(self):
        # Every activated robot must see pre-round positions, so chasing the
        # other robot lands on where it was, not where it went.
        chase = Algorithm(
            "chase", (),
            lambda snap: StepResult(destination=snap.others()[0].point),
            ModelKind.OBLOT,
        )
        cfg = make_configuration([Point(0, 0), Point(4, 0)])
        out, _ = run_round(
            cfg, frozenset({0, 1}), chase, ModelKind.OBLOT, identity_frames(2),
            Rigidity(), random.Random(0),
        )
        assert out.position(0) == Point(4, 0)
        assert out.position(1) == Point(0, 0)

    def test_non_activated_entries_are_identical_objects(self):
        cfg = make_configuration([Point(0, 0), Point(4, 0)])
        out, _ = run_round(
            cfg, frozenset({0}), alg_sro(), ModelKind.OBLOT, identity_frames(2),
            Rigidity(), random.Random(0),
        )
        assert out.entries[1] == cfg.entries[1]

    def test_unknown_robot_in_activation(self):
        cfg = make_configuration([Point(0, 0)])
        with pytest.raises(ValueError, match="unknown robot"):
            run_round(
                cfg, frozenset({3}), alg_stay(), ModelKind.OBLOT, identity_frames(1),
                Rigidity(), random.Random(0),
            )

    def test_out_of_palette_emission_is_hard_error(self):
        rogue = Algorithm(
            "rogue", (2,), lambda snap: StepResult(light={0: 7}), ModelKind.FSTA
        )
        cfg = make_configuration([Point(0, 0)], palette=(2,))
        with pytest.raises(PaletteError):
            run_round(
                cfg, frozenset({0}), rogue, ModelKind.FSTA, identity_frames(1),
                Rigidity(), random.Random(0),
            )

    def test_a_bool_light_value_is_hard_error(self):
        # A bool is an int, but write_trace would write it as "True", which
        # read_trace refuses.
        rogue = Algorithm(
            "rogue", (2,), lambda snap: StepResult(light={0: True}), ModelKind.FSTA
        )
        cfg = make_configuration([Point(0, 0)], palette=(2,))
        with pytest.raises(PaletteError, match="^rogue: value True outside palette of size 2$"):
            run(cfg, "fsynch", rogue, rounds=1)

    def test_emission_to_a_missing_light_variable_is_hard_error(self):
        rogue = Algorithm(
            "rogue", (2,), lambda snap: StepResult(light={1: 0}), ModelKind.FSTA
        )
        cfg = make_configuration([Point(0, 0)], palette=(2,))
        with pytest.raises(PaletteError, match="^rogue: no light variable 1$"):
            run_round(
                cfg, frozenset({0}), rogue, ModelKind.FSTA, identity_frames(1),
                Rigidity(), random.Random(0),
            )


class StubRng:
    """Adversary stub returning a fixed fraction."""

    def __init__(self, fraction):
        self.fraction = fraction

    def random(self):
        return self.fraction


class TestApplyMove:
    def test_rigid_reaches_destination(self):
        assert apply_move(Point(0, 0), Point(5, 5), Rigidity(), random.Random(0)) == Point(5, 5)

    def test_within_delta_must_arrive(self):
        got = apply_move(Point(0, 0), Point(0.5, 0), Rigidity(1.0), random.Random(0))
        assert got == Point(0.5, 0)

    def test_adversary_fraction_clamped_to_delta(self):
        got = apply_move(Point(0, 0), Point(10, 0), Rigidity(1.0), StubRng(0.3))
        assert points_close(got, Point(3.0, 0.0))
        got = apply_move(Point(0, 0), Point(10, 0), Rigidity(1.0), StubRng(0.05))
        assert points_close(got, Point(1.0, 0.0))  # floored at delta

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(0.01, 5), st.integers(0, 10 ** 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_overshoots_never_undershoots(self, x0, y0, x1, y1, delta, seed):
        src, dest = Point(x0, y0), Point(x1, y1)
        got = apply_move(src, dest, Rigidity(delta), random.Random(seed))
        full = distance(src, dest)
        travelled = distance(src, got)
        assert travelled <= full + 1e-9
        assert travelled >= min(delta, full) - 1e-9
        # On the segment: distances add up.
        assert travelled + distance(got, dest) == pytest.approx(full, abs=1e-9)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            Rigidity(0.0)


class TestRun:
    def test_zero_rounds_gives_initial_only(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        trace = run(cfg, "fsynch", alg_sro(), rounds=0, seed=0)
        assert trace.rounds == () and trace.initial == cfg

    def test_sro_fsynch_has_period_four(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        trace = run(cfg, "fsynch", alg_sro(), rounds=4, seed=0)
        # Two quarter turns swap the robots; four restore them.
        swap = trace.rounds[1].config
        assert points_close(swap.position(0), Point(1, 1), 1e-9)
        assert points_close(swap.position(1), Point(0, 0), 1e-9)
        final = trace.rounds[3].config
        for rid in range(2):
            assert points_close(final.position(rid), cfg.position(rid), 1e-9)

    def test_deterministic_in_seed(self):
        cfg = make_configuration([Point(0, 0), Point(3, 1)])
        one = run(cfg, "rsynch", alg_sro(), rounds=20, seed=5)
        two = run(cfg, "rsynch", alg_sro(), rounds=20, seed=5)
        assert one == two

    def test_prefix_shorter_than_rounds(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        prefix = SchedulePrefix((frozenset({0, 1}),), 2)
        with pytest.raises(ValueError, match="shorter"):
            run(cfg, prefix, alg_sro(), rounds=5)

    def test_robot_count_constraint(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1), Point(2, 2)])
        with pytest.raises(ValueError, match="exactly 2"):
            run(cfg, "fsynch", alg_sro(), rounds=1)

    def test_chirality_constraints(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        with pytest.raises(ValueError, match="chirality"):
            run(cfg, "fsynch", alg_sro(), rounds=1, chirality=False)
        with pytest.raises(ValueError, match="preserve"):
            run(cfg, "fsynch", alg_sro(), rounds=1, frames={0: FrameSpec(reflecting=True)})

    def test_palette_mismatch(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)], palette=(2,))
        with pytest.raises(ValueError, match="palette"):
            run(cfg, "fsynch", alg_sro(), rounds=1)

    def test_relabeling_robots_permutes_the_outcome(self):
        # The engine iterates robots in id order internally; relabeling must
        # not change anyone's trajectory.
        a, b = Point(0, 0), Point(2, 1)
        t1 = run(make_configuration([a, b]), "fsynch", alg_sro(), rounds=3, seed=0)
        t2 = run(make_configuration([b, a]), "fsynch", alg_sro(), rounds=3, seed=0)
        for k in range(3):
            c1, c2 = t1.rounds[k].config, t2.rounds[k].config
            assert points_close(c1.position(0), c2.position(1), 1e-9)
            assert points_close(c1.position(1), c2.position(0), 1e-9)

    def test_frame_independence_of_sro(self):
        # The rotation rule is similarity-covariant: private rotations and
        # scales leave the global trajectories unchanged.
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        base = run(cfg, "rsynch", alg_sro(), rounds=12, seed=3)
        skewed = run(
            cfg, "rsynch", alg_sro(), rounds=12, seed=3,
            frames={0: FrameSpec(rotation=0.7, scale=3.5), 1: FrameSpec(rotation=-2.1, scale=0.2)},
        )
        for k in range(12):
            for rid in range(2):
                assert points_close(
                    base.rounds[k].config.position(rid),
                    skewed.rounds[k].config.position(rid),
                    1e-9,
                )


THREE = [Point(0, 0), Point(50, 7), Point(100, 0)]


def _sets(*sets):
    return SchedulePrefix(tuple(frozenset(s) for s in sets), 3)


def _raising_step(snap):
    raise AssertionError("a refused run executed a step")


class TestConstraints:
    def test_constraints_are_one_error_type(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        with pytest.raises(ConstraintError, match="exactly 2"):
            run(make_configuration(THREE), "fsynch", alg_sro(), rounds=1)
        with pytest.raises(ConstraintError, match="requires chirality"):
            run(cfg, "fsynch", alg_sro(), rounds=1, chirality=False)
        with pytest.raises(ConstraintError, match="shorter"):
            run(cfg, SchedulePrefix((), 2), alg_sro(), rounds=1)
        with pytest.raises(ConstraintError, match="nonnegative"):
            run(cfg, SchedulePrefix((), 2), alg_sro(), rounds=-1)
        assert issubclass(ConstraintError, ValueError)

    def test_every_run_precondition_is_a_constraint_error(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        stub = Algorithm("stub", (), _raising_step, ModelKind.OBLOT, min_robots=3)
        for args, kwargs, message in [
            (("fsynch", alg_stay()), {}, "rounds is required when generating a schedule"),
            (("fsynch", alg_stay()), {"rounds": -1}, "rounds must be nonnegative"),
            ((_sets({0}), alg_stay()), {}, "schedule is for n=3, configuration has n=2"),
            (("fsynch", stub), {"rounds": 1}, "stub requires at least 3 robots"),
        ]:
            with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
                run(cfg, *args, **kwargs)
        with pytest.raises(ConstraintError, match="^sro requires exactly 2 robots$"):
            run(make_configuration(THREE), "fsynch", alg_sro(), rounds=1)

    def test_rigid_is_declared_by_sro(self):
        assert alg_sro().rigid and not alg_stay().rigid and not alg_cyclic_cycles(3).rigid

    @pytest.mark.parametrize(
        "wrap", [sim_rs_by_s, lambda inner: sim_lumi_by_fcom(inner, 3)], ids=["rs", "lumi"]
    )
    def test_wrappers_keep_the_inner_constraints(self, wrap):
        stub = Algorithm("stub", (), _raising_step, ModelKind.OBLOT, min_robots=3)
        assert wrap(stub).min_robots == 3 and not wrap(stub).rigid
        sro = dataclasses.replace(wrap(alg_sro()), step=_raising_step)
        assert sro.robot_count == 2 and sro.needs_chirality and sro.rigid
        with pytest.raises(ConstraintError, match=f"{sro.name} requires exactly 2 robots"):
            run(make_configuration(THREE, palette=sro.palette), "fsynch", sro, rounds=5)
        cyc = dataclasses.replace(wrap(alg_cyclic_cycles(3)), step=_raising_step)
        with pytest.raises(ConstraintError, match=f"{cyc.name} requires chirality"):
            run(make_configuration(THREE, palette=cyc.palette), "fsynch", cyc, rounds=5,
                chirality=False)

    def test_host_is_checked_on_generated_prefixes(self):
        lumi = sim_lumi_by_fcom(alg_stay(), 3)
        cfg = make_configuration(THREE, palette=lumi.palette)
        for kind in ("rsynch", "fsynch"):
            run(cfg, kind, lumi, rounds=30, seed=1)
        with pytest.raises(ConstraintError, match="runs only under rsynch schedules: round"):
            run(cfg, "ssynch", lumi, rounds=30, seed=1)

        rs = sim_rs_by_s(alg_stay())
        cfg = make_configuration(THREE, palette=rs.palette)
        seed = next(s for s in range(100) if frozenset() in generate(ENERGY_RESTRICTED, 3, 30, s).sets)
        with pytest.raises(ConstraintError, match="runs only under ssynch schedules: .*empty-set"):
            run(cfg, ENERGY_RESTRICTED, rs, rounds=30, seed=seed)

    def test_host_is_checked_on_the_explicit_sets_run(self):
        lumi = sim_lumi_by_fcom(alg_stay(), 3)
        cfg = make_configuration(THREE, palette=lumi.palette)
        overlapping = _sets({0, 1}, {1, 2}, {0})
        with pytest.raises(ConstraintError, match="round 2 breaks rule overlap-consecutive"):
            run(cfg, overlapping, lumi)
        assert len(run(cfg, overlapping, lumi, rounds=1).rounds) == 1  # round 2 is never run

        rs = sim_rs_by_s(alg_stay())
        cfg = make_configuration(THREE, palette=rs.palette)
        with pytest.raises(ConstraintError, match="round 2 breaks rule empty-set"):
            run(cfg, _sets({0, 1, 2}, (), {0}), rs)
        run(make_configuration(THREE), _sets({0}, ()), alg_stay())  # no host: any sets

    @pytest.mark.parametrize("activated", [True, False], ids=["activated", "idle"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            (FrameSpec(scale=-1.0), "scale must be positive, got -1.0"),
            (FrameSpec(scale=0.0), "scale must be positive, got 0.0"),
            (FrameSpec(scale=math.inf), "scale must be positive, got inf"),
            (FrameSpec(rotation=math.nan), "rotation must be finite"),
        ],
        ids=["scale-1", "scale0", "scale-inf", "rotation-nan"],
    )
    def test_frames_are_checked_before_round_one(self, spec, message, activated):
        stub = Algorithm("stub", (), _raising_step, ModelKind.OBLOT)
        cfg = make_configuration(THREE)
        # Robot 2 is activated in round 1 or in no round at all.
        sets = _sets({2}, {0}) if activated else _sets({0}, {1})
        with pytest.raises(ConstraintError, match=f"^robot 2: frame {message}"):
            run(cfg, sets, stub, frames={2: spec})
        trace = run(cfg, _sets({0}, {1}), alg_stay())
        with pytest.raises(ConstraintError, match=f"^robot 2: frame {message}"):
            replay(trace, alg_stay(), frames={2: spec})


class TestReplay:
    def _trace(self, delta=None, seed=11):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        return run(cfg, "rsynch", alg_sro(), rounds=15, seed=seed, rigidity=Rigidity(delta))

    def test_replay_accepts_own_trace(self):
        trace = self._trace()
        assert replay(trace, alg_sro())

    def test_replay_detects_tampering(self):
        import dataclasses
        trace = self._trace()
        target = trace.rounds[7].config
        entries = list(target.entries)
        rid, p, lt = entries[0]
        entries[0] = (rid, Point(p.x + 1e-3, p.y), lt)
        tampered_round = dataclasses.replace(
            trace.rounds[7], config=dataclasses.replace(target, entries=tuple(entries))
        )
        rounds = list(trace.rounds)
        rounds[7] = tampered_round
        tampered = dataclasses.replace(trace, rounds=tuple(rounds))
        assert not replay(tampered, alg_sro())

    def test_replay_non_rigid_needs_same_seed(self):
        import dataclasses
        trace = self._trace(delta=0.2, seed=4)
        assert replay(trace, alg_sro(), rigidity=Rigidity(0.2))
        for other_seed in range(5, 30):
            lied = dataclasses.replace(
                trace, header=dataclasses.replace(trace.header, seed=other_seed)
            )
            if not replay(lied, alg_sro(), rigidity=Rigidity(0.2)):
                return
        pytest.fail("no seed diverged; the adversary is not seed-sensitive")

    def test_replay_header_mismatch(self):
        trace = self._trace()
        with pytest.raises(ValueError, match="header mismatch"):
            replay(trace, alg_sro(), rigidity=Rigidity(0.5))
        with pytest.raises(ValueError, match="header mismatch"):
            replay(trace, alg_stay())

    @pytest.mark.parametrize("field, value", [("palette", (2,)), ("model", ModelKind.LUMI)])
    def test_replay_header_mismatch_names_palette_and_model(self, field, value):
        trace = self._trace()
        lied = dataclasses.replace(trace, header=dataclasses.replace(trace.header, **{field: value}))
        with pytest.raises(ValueError, match=f"^header mismatch: {field} differs$"):
            replay(lied, alg_sro())

    def test_replay_detects_a_changed_light(self):
        trace = run(make_configuration([Point(0, 0), Point(5, 0)], palette=(3,)), "fsynch",
                    alg_tricolor(), rounds=4, seed=0)
        assert replay(trace, alg_tricolor())
        config = trace.rounds[2].config
        rid, p, lt = config.entries[1]
        entries = (config.entries[0], (rid, p, lt.replace({0: (lt.values[0] + 1) % 3})))
        rounds = list(trace.rounds)
        rounds[2] = dataclasses.replace(rounds[2], config=dataclasses.replace(config, entries=entries))
        assert not replay(dataclasses.replace(trace, rounds=tuple(rounds)), alg_tricolor())

    def test_replay_refuses_initial_lights_of_another_palette(self):
        # Replay commits lights unchecked, so it must start from the palette
        # it checks new values against.
        trace = run(make_configuration([Point(0, 0), Point(1, 1)], palette=(3,)), "fsynch",
                    alg_tricolor(), rounds=3, seed=0)
        wider = make_configuration([Point(0, 0), Point(1, 1)], palette=(4,))
        with pytest.raises(ConstraintError, match="initial lights"):
            replay(dataclasses.replace(trace, initial=wider), alg_tricolor())


def test_replay_stops_at_the_first_diverging_round(monkeypatch):
    # The one round loop is lazy: a trace tampered with at round 3 of 15
    # is re-executed for three rounds, a clean one for all fifteen.
    trace = run(make_configuration([Point(0, 0), Point(1, 1)]), "rsynch", alg_sro(), rounds=15, seed=11)
    config = trace.rounds[2].config
    (rid, p, lt), rest = config.entries[0], config.entries[1:]
    rounds = list(trace.rounds)
    rounds[2] = dataclasses.replace(rounds[2], config=dataclasses.replace(
        config, entries=((rid, Point(p.x + 1e-3, p.y), lt),) + rest))
    tampered = dataclasses.replace(trace, rounds=tuple(rounds))
    calls = []
    real = engine_ns.run_round
    monkeypatch.setattr(engine_ns, "run_round", lambda *a: calls.append(1) or real(*a))
    assert not replay(tampered, alg_sro())
    assert len(calls) == 3
    calls.clear()
    assert replay(trace, alg_sro())
    assert len(calls) == 15


class TestTraceFiles:
    def test_round_trip_is_identical(self, tmp_path):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        trace = run(cfg, "rsynch", alg_sro(), rounds=9, seed=2, rigidity=Rigidity(0.3))
        path = tmp_path / "t.trace"
        write_trace(trace, str(path))
        assert read_trace(str(path)) == trace

    def test_round_trip_preserves_lights_and_events(self, tmp_path):
        from lcmswarm.algorithms import alg_tricolor
        from lcmswarm.simulators import sim_rs_by_s
        wrap = sim_rs_by_s(alg_tricolor())
        cfg = make_configuration([Point(0, 0), Point(9, 0)], palette=wrap.palette)
        trace = run(cfg, "ssynch", wrap, rounds=25, seed=6)
        path = tmp_path / "t.trace"
        write_trace(trace, str(path))
        assert read_trace(str(path)) == trace

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        trace = run(cfg, "fsynch", alg_sro(), rounds=2, seed=0)
        path = tmp_path / "t.trace"
        write_trace(trace, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            read_trace(str(path))

    def test_bad_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("model=BOGUS kind=fsynch n=1 seed=0 delta=rigid palette=\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(str(path))

    @pytest.mark.parametrize("event", ["a b", "a,b", "a\tb"])
    def test_an_event_that_would_not_read_back_is_refused_before_the_file_opens(self, tmp_path, event):
        trace = run(make_configuration([Point(0, 0), Point(1, 1)]), "fsynch", alg_sro(), rounds=2, seed=0)
        last = trace.rounds[1]
        forged = dataclasses.replace(trace, rounds=(trace.rounds[0], TraceRound(last.eset, last.config,
                                                                                {1: ("ok", event)})))
        path = tmp_path / "t.trace"
        named = f"round 2: robot 1: event {event!r} holds whitespace or a comma"
        with pytest.raises(ValueError, match=re.escape(named)):
            write_trace(forged, str(path))
        assert not path.exists()

    def test_an_empty_event_tuple_is_refused_and_one_empty_event_round_trips(self, tmp_path):
        trace = run(make_configuration([Point(0, 0), Point(1, 1)]), "fsynch", alg_sro(), rounds=2, seed=0)
        last = trace.rounds[1]

        def forged(events):
            return dataclasses.replace(trace, rounds=(trace.rounds[0], TraceRound(last.eset, last.config,
                                                                                    {1: events})))

        path = tmp_path / "t.trace"
        with pytest.raises(ValueError, match=re.escape("round 2: robot 1: an empty event tuple")):
            write_trace(forged(()), str(path))
        assert not path.exists()
        write_trace(forged(("",)), str(path))
        assert read_trace(str(path)) == forged(("",))

    @pytest.mark.parametrize("key", ["kind", "algo", "inner"])
    def test_a_header_value_that_would_not_read_back_is_refused_before_the_file_opens(self, tmp_path, key):
        trace = run(make_configuration([Point(0, 0), Point(1, 1)]), "fsynch", alg_sro(), rounds=2, seed=0)
        forged = dataclasses.replace(trace, header=dataclasses.replace(trace.header, **{key: "two words"}))
        path = tmp_path / "t.trace"
        with pytest.raises(ValueError, match=f"header field {key}='two words' holds whitespace"):
            write_trace(forged, str(path))
        assert not path.exists()

    def _written(self, tmp_path, rounds=3):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        path = tmp_path / "t.trace"
        write_trace(run(cfg, "fsynch", alg_sro(), rounds=rounds, seed=0), str(path))
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("round=2 act=x", "bad round line: invalid literal"),
            ("round=q", "bad round line: invalid literal"),
            ("round=7 act=0 1", "expected round 2, got round=7"),
            ("round=1 act=0 1", "expected round 2, got round=1"),
            ("round=2 act=0 9", "activation of unknown robot 9 \\(n=2\\)"),
            ("round=2 act=-1 1", "activation of unknown robot -1 \\(n=2\\)"),
        ],
    )
    def test_bad_round_line_names_its_line(self, tmp_path, bad, message):
        path, lines = self._written(tmp_path)
        assert lines[7] == "round=2 act=0 1"  # header, then 3 lines a round
        lines[7] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:8: {message}"):
            read_trace(str(path))

    @pytest.mark.parametrize("text, message", [
        ("", ":1: empty trace file"),
        ("model=OBLOT kind=fsynch n=2 seed=0 delta=rigid palette=\n", ": trace must start with round=0"),
        ("model=OBLOT kind=fsynch n=2 seed=0 delta=rigid palette=\nid=0 pos=0.0,0.0 light=\n",
         ":2: expected a round line, got 'id=0 pos=0.0,0.0 light='"),
    ], ids=["empty", "header-only", "robot-line-first"])
    def test_file_without_rounds_is_a_parse_error(self, tmp_path, text, message):
        path = tmp_path / "t.trace"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
            read_trace(str(path))

    @pytest.mark.parametrize("n", [0, -1])
    def test_header_n_below_one_names_line_one(self, tmp_path, n):
        path, lines = self._written(tmp_path)
        lines[0] = lines[0].replace(" n=2 ", f" n={n} ")
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:1: bad trace header: n must be a positive integer, got {n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace(str(path))

    def test_trace_not_starting_at_round_zero_names_its_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        lines[1] = "round=1 act="
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2: expected round 0, got round=1"):
            read_trace(str(path))

    def test_bad_robot_line_in_a_later_round_names_its_own_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        lines[9] = lines[9].replace("pos=", "pos=oops")  # robot 1 of round 2
        path.write_text("\n\n".join(lines) + "\n")  # blank lines still count
        with pytest.raises(ValueError, match=":19: bad robot line"):
            read_trace(str(path))

    def test_non_finite_position_names_its_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        lines[5] = "id=0 pos=inf,0.0 light="
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":6: bad robot line: non-finite"):
            read_trace(str(path))

    # The robot-line grammar is exact.  The replaced reader split a line into
    # key=value tokens and sorted the robots, so it accepted all but one of
    # these forms; read_trace refuses each, naming its line.
    @pytest.mark.parametrize(
        "edit, accepted_before",
        [
            (lambda row: " ".join(reversed(row.split(" "))), True),
            (lambda row: row + " extra=1", True),
            (lambda row: row + " ev", True),
            (lambda row: row + " ", True),
            (lambda row: row.replace(" ", "  "), True),
            (lambda row: row.replace(" ", "\t"), True),
            (lambda row: row.replace(" light=", ""), False),
        ],
        ids=["reordered", "extra-token", "bare-token", "trailing-space", "double-space",
             "tab", "no-light"],
    )
    def test_other_robot_line_forms_name_their_line(self, tmp_path, edit, accepted_before):
        path, lines = self._written(tmp_path)
        assert lines[5].startswith("id=0 pos=") and lines[5].endswith(" light=")
        lines[5] = edit(lines[5])
        path.write_text("\n".join(lines) + "\n")
        assert isinstance(_outcome(oracle_read_trace, str(path)), Trace) == accepted_before
        with pytest.raises(ValueError, match=":6: bad robot line: not id=<i> pos=<x>,<y> light="):
            read_trace(str(path))

    def test_robot_lines_out_of_id_order_name_their_round(self, tmp_path):
        path, lines = self._written(tmp_path)
        lines[5], lines[6] = lines[6], lines[5]
        path.write_text("\n".join(lines) + "\n")
        assert isinstance(_outcome(oracle_read_trace, str(path)), Trace)  # it sorted them
        with pytest.raises(ValueError, match=re.escape(":5: robot ids must be exactly 0..n-1 "
                                                       "in order, got [1, 0]")):
            read_trace(str(path))

    def test_duplicate_robot_id_names_its_round(self, tmp_path):
        path, lines = self._written(tmp_path)
        lines[6] = lines[6].replace("id=1", "id=0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":5: robot ids must be exactly"):
            read_trace(str(path))

    # A robot line equal to its slot's line in the round before reuses that
    # line's records, and a block of repeated lines its configuration.

    def _read_back(self, tmp_path, trace):
        path = tmp_path / "t.trace"
        write_trace(trace, str(path))
        back = read_trace(str(path))
        assert back == trace
        return back

    def test_a_repeated_line_gives_the_same_point_and_light(self, tmp_path):
        configs = self._read_back(tmp_path, signed_zero_trace()).configs()
        for before, after in zip(configs, configs[1:]):
            assert after.position(1) is before.position(1)  # robot 1 never moves
            assert after.light(1) is before.light(1)
            assert after.light(0) is before.light(0)  # one light text, one record
            assert after is not before

    def test_a_line_that_differs_only_in_the_sign_of_zero_keeps_its_bits(self, tmp_path):
        configs = self._read_back(tmp_path, signed_zero_trace()).configs()
        signs = [math.copysign(1.0, c.position(0).x) for c in configs]
        assert signs == [-1.0, 1.0] * (len(configs) // 2)

    def test_a_repeated_block_gives_the_same_configuration(self, tmp_path):
        back = self._read_back(tmp_path, one_configuration_trace({}))
        assert all(c is back.initial for c in back.configs())

    def test_each_round_has_its_own_events(self, tmp_path):
        back = self._read_back(tmp_path, one_configuration_trace({1: ("ran",)}))
        assert all(r.config is back.rounds[0].config for r in back.rounds)
        assert len({id(r.events) for r in back.rounds}) == len(back.rounds)
        back.rounds[0].events[0] = ("forged",)
        assert all(r.events == {1: ("ran",)} for r in back.rounds[1:])

    @pytest.mark.parametrize("target, source, named", [
        (6, 5, 5),  # right after the identical line, in the next slot
        (9, 5, 8),  # a later round's slot 1 repeats an earlier slot 0
        (8, 6, 8),  # slot 0 takes the line slot 1 keeps repeating
    ])
    def test_a_line_copied_from_another_slot_is_still_named(self, tmp_path, target, source, named):
        path = tmp_path / "t.trace"
        write_trace(signed_zero_trace(), str(path))
        lines = path.read_text().splitlines()
        assert lines[target] != lines[source] and lines[6] == lines[9]
        lines[target] = lines[source]
        path.write_text("\n".join(lines) + "\n")
        assert _outcome(read_trace, str(path)) == _outcome(oracle_read_trace, str(path)) == named

    def test_a_bad_line_after_repeated_ones_is_named(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(signed_zero_trace(), str(path))
        lines = path.read_text().splitlines()
        lines[12] = lines[12].replace("pos=4.0", "pos=nan")  # robot 1 of round 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":13: bad robot line: non-finite"):
            read_trace(str(path))


def signed_zero_trace(rounds=5):
    """Robot 0's x alternates between -0.0 and 0.0, new objects every round;
    robot 1 keeps one position and light object throughout."""
    palette = (3,)
    lights = LightTuple((0,), palette), LightTuple((2,), palette)
    still = Point(4.0, -2.0)
    configs = [make_configuration([Point(0.0 if k % 2 else -0.0, 1.5), still], list(lights))
               for k in range(rounds + 1)]
    header = TraceHeader(ModelKind.LUMI, "explicit", 2, 0, None, palette, "hand")
    every = frozenset({0, 1})
    return Trace(header, configs[0], tuple(TraceRound(every, c) for c in configs[1:]))


def one_configuration_trace(events, rounds=4):
    """One Configuration object in every round, each round with a copy of
    `events`."""
    palette = (3,)
    config = make_configuration([Point(-0.0, 0.0), Point(1.0, 2.5)],
                                [LightTuple((1,), palette), LightTuple((0,), palette)])
    header = TraceHeader(ModelKind.LUMI, "explicit", 2, 0, None, palette)
    return Trace(header, config, tuple(TraceRound(frozenset({1}), config, dict(events))
                                       for _ in range(rounds)))


# --- Golden grid: traces pinned byte for byte ---------------------------------
#
# The benchmark's golden traces use identity frames, strong multiplicity and
# rigid moves only.  This grid pins write_trace output over the paths they
# miss: rotated, scaled and reflecting frames, non-rigid moves and all three
# multiplicity modes.  A run that raises is pinned by its error message.

GRID_SEEDS = (0, 1, 2)
GRID_DELTA = 0.3


def _grid_frames(kind, n):
    if kind == "identity":
        return None
    if kind == "rotated":
        rotations = (math.pi, -1.3, 0.4, 2.2, -0.2, 1.7)
        return {i: FrameSpec(rotations[i % 6], 0.25 + 0.8 * i) for i in range(n)}
    return {i: FrameSpec(0.4 - 0.7 * i, 1.5 / (i + 1), i % 2 == 0) for i in range(n)}


def _grid_positions(rng, n):
    positions = [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    positions[-1] = positions[0]  # co-located, so multiplicity shows
    return positions


def _grid_case(name, seed):
    """(algorithm, initial configuration, rounds) of one grid cell."""
    rng = random.Random(f"grid:{name}:{seed}")
    if name == "cyclic-cycles":
        return alg_cyclic_cycles(5), cyc_initial_config(5, 2.0), 120
    if name == "sro":
        return alg_sro(), make_configuration(_grid_positions(rng, 3)[:2]), 25
    algo = {
        "tricolor": alg_tricolor,
        "move-east": alg_move_east,
        "sim-rs-by-s": lambda: sim_rs_by_s(alg_tricolor()),
        "sim-lumi-by-fcom": lambda: sim_lumi_by_fcom(alg_tricolor(), 3),
    }[name]()
    n = 3 if name.startswith("sim-") else 6
    rounds = 60 if name.startswith("sim-") else 25
    return algo, make_configuration(_grid_positions(rng, n), palette=algo.palette), rounds


def grid_cells(name):
    """(cell, positional and keyword arguments of run) for every grid cell of
    one algorithm."""
    # sim-lumi-by-fcom runs only on its rsynch host; everything else on ssynch.
    kind = "rsynch" if name == "sim-lumi-by-fcom" else "ssynch"
    for seed in GRID_SEEDS:
        algo, config, rounds = _grid_case(name, seed)
        for frames in ("identity", "rotated", "reflecting"):
            if frames == "reflecting" and algo.needs_chirality:
                continue
            for delta in (None, GRID_DELTA):
                for multiplicity in Multiplicity:
                    cell = f"{seed} {frames} {delta} {multiplicity.value}\n"
                    kwargs = dict(
                        rounds=rounds, seed=seed,
                        rigidity=Rigidity(delta), multiplicity=multiplicity,
                        frames=_grid_frames(frames, config.n),
                        chirality=frames != "reflecting",
                    )
                    yield cell, (config, kind, algo), kwargs


def grid_runs(name):
    """(cell, trace) for every grid cell of one algorithm; a run that raises
    gives its ValueError in place of the trace."""
    for cell, args, kwargs in grid_cells(name):
        try:
            trace = run(*args, **kwargs)
        except ValueError as exc:
            trace = exc
        yield cell, trace


def golden_grid_digest(name, workdir):
    """SHA-256 over the trace files of every grid cell of one algorithm."""
    digest = hashlib.sha256()
    path = os.path.join(workdir, "grid.trace")
    for cell, trace in grid_runs(name):
        digest.update(cell.encode())
        if isinstance(trace, ValueError):
            digest.update(f"error: {type(trace).__name__}: {trace}\n".encode())
            continue
        write_trace(trace, path)
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


# Recorded before Look and Move were rewritten for speed; sim-lumi-by-fcom
# was recorded later, before its step and monitor shared one protocol table.
GOLDEN_GRID = {
    "tricolor": "3eca6cc7664f437e8b0202348a9712f8bc36dbce113ed7cb70810ddff86679e2",
    "move-east": "3b4dc20ee4bac4903b24ff28905af6e9defe71c6179780854addbc7494e9772f",
    "cyclic-cycles": "aa8a5d1df91431491cc251aa4480f1e50b59cbacd106b71b580c9c1937e0319e",
    "sro": "475d64f5089814d5a3b1a32ff87c8f81024c5d25d26db14361d79014251ae325",
    "sim-rs-by-s": "e4abf64af07cd021132d9c56f52c44f886c170381a2e96e2f1ca2d22396dbd2a",
    "sim-lumi-by-fcom": "20f790575de8a0be107a750480301686766dc618a4d3f51d4e8e56ceab46934e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRID))
def test_golden_grid_traces_are_unchanged(name, tmp_path):
    assert golden_grid_digest(name, str(tmp_path)) == GOLDEN_GRID[name]


# --- Trace files against the reader they replaced -----------------------------


def oracle_read_trace(path: str) -> Trace:
    """The token-dict reader that read_trace replaced, verbatim: what it
    accepts and which line it names are the reference."""
    with open(path) as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}:1: empty trace file")
    head_no, head_line = lines[0]
    fields = dict(tok.split("=", 1) for tok in head_line.split() if "=" in tok)
    try:
        model = ModelKind(fields["model"])
        n = int(fields["n"])
        seed = int(fields["seed"])
        delta = None if fields["delta"] == "rigid" else float(fields["delta"])
        palette = tuple(int(t) for t in fields["palette"].split(";") if t)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}:{head_no}: bad trace header: {exc}") from exc
    header = TraceHeader(
        model, fields.get("kind", "explicit"), n, seed, delta, palette,
        fields.get("algo", ""), fields.get("inner", ""),
    )

    blocks: list[tuple[int, frozenset[int], list[tuple[int, str]]]] = []
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        if not line.startswith("round="):
            raise ValueError(f"{path}:{lineno}: expected a round line, got {line!r}")
        head, _, act = line.partition(" act=")
        try:
            k = int(head.split("=", 1)[1])
            eset = frozenset(int(t) for t in act.split())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad round line: {exc}") from exc
        if k != len(blocks):
            raise ValueError(f"{path}:{lineno}: expected round {len(blocks)}, got round={k}")
        if eset and (min(eset) < 0 or max(eset) >= n):
            bad = min(eset) if min(eset) < 0 else max(eset)
            raise ValueError(f"{path}:{lineno}: activation of unknown robot {bad} (n={n})")
        body = lines[i + 1 : i + 1 + n]
        if len(body) < n:
            raise ValueError(f"{path}:{lineno}: truncated round {k}")
        blocks.append((lineno, eset, body))
        i += 1 + n

    def parse_block(round_line: int, body: list[tuple[int, str]]) -> tuple[Configuration, dict]:
        entries = []
        events: dict[int, tuple[str, ...]] = {}
        for lineno, row in body:
            toks = dict(tok.split("=", 1) for tok in row.split() if "=" in tok)
            try:
                rid = int(toks["id"])
                x, y = (float(t) for t in toks["pos"].split(","))
                vals = tuple(int(t) for t in toks["light"].split(";") if t)
                entries.append((rid, Point(x, y), LightTuple(vals, palette)))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad robot line: {exc}") from exc
            if "ev" in toks:
                events[rid] = tuple(toks["ev"].split(","))
        entries.sort(key=lambda e: e[0])
        try:
            return Configuration(tuple(entries)), events
        except ValueError as exc:
            raise ValueError(f"{path}:{round_line}: {exc}") from exc

    if not blocks:
        raise ValueError(f"{path}: trace must start with round=0")
    initial, _ = parse_block(blocks[0][0], blocks[0][2])
    rounds = []
    for round_line, eset, body in blocks[1:]:
        config, events = parse_block(round_line, body)
        rounds.append(TraceRound(eset, config, events))
    return Trace(header, initial, tuple(rounds))


def _outcome(read, path):
    """What a reader makes of a file: its Trace, or the line its error names."""
    try:
        return read(path)
    except ValueError as exc:
        named = re.match(f"{re.escape(path)}:([0-9]+): ", str(exc))
        assert named, exc
        return int(named.group(1))


@pytest.mark.parametrize("name", sorted(GOLDEN_GRID))
def test_reader_matches_the_replaced_reader_on_every_grid_trace(name, tmp_path):
    path = str(tmp_path / "grid.trace")
    traces = events = 0
    for cell, trace in grid_runs(name):
        if isinstance(trace, ValueError):
            continue
        write_trace(trace, path)
        assert read_trace(path) == oracle_read_trace(path) == trace, cell
        traces += 1
        events += sum(len(r.events) for r in trace.rounds)
    assert traces > 0 and (events > 0) == name.startswith("sim-")


@pytest.mark.parametrize("name", sorted(GOLDEN_GRID))
def test_round_trip_of_every_grid_trace_is_byte_identical(name, tmp_path):
    first, second = tmp_path / "first.trace", tmp_path / "second.trace"
    for cell, trace in grid_runs(name):
        if isinstance(trace, ValueError):
            continue
        write_trace(trace, str(first))
        back = read_trace(str(first))
        write_trace(back, str(second))
        assert back == trace, cell
        assert second.read_bytes() == first.read_bytes(), cell


def test_round_trip_keeps_signed_zeros_and_subnormals(tmp_path):
    palette = (3, 2, 5)
    coords = [Point(-0.0, 1e-300), Point(5e-324, -0.0), Point(-5e-324, -1e-300)]
    lights = [LightTuple(v, palette) for v in ((2, 1, 4), (0, 0, 0), (1, 0, 3))]
    trace = Trace(
        TraceHeader(ModelKind.LUMI, "explicit", 3, 9, 5e-324, palette, "hand", "made"),
        make_configuration(coords, lights),
        (TraceRound(frozenset({0, 2}), make_configuration(coords[::-1], lights[::-1]),
                    {0: ("a", "b"), 2: ("c",)}),),
    )
    first, second = tmp_path / "first.trace", tmp_path / "second.trace"
    write_trace(trace, str(first))
    back = read_trace(str(first))
    write_trace(back, str(second))
    assert back == trace and second.read_bytes() == first.read_bytes()
    assert "id=0 pos=-0.0,1e-300 light=2;1;4" in first.read_text().splitlines()
    got = [(repr(p.x), repr(p.y)) for _, p, _ in back.initial.entries]
    assert got == [("-0.0", "1e-300"), ("5e-324", "-0.0"), ("-5e-324", "-1e-300")]


def _corpus(lines, n, palette):
    """(index, label, new lines, or None to cut the file there) for every
    single-line edit of a written trace that the replaced reader refuses: a
    cut file, a non-finite position, a colour out of the palette, a
    duplicated id, an activation out of range and a bad round number."""
    for j, line in enumerate(lines[1:], start=1):
        if line.startswith("round="):
            k, act = j // (n + 1), line[line.index(" act="):]
            yield j, "next round number", [f"round={k + 1}{act}"]
            yield j, "text round number", [f"round=x{act}"]
            yield j, "activation of n", [f"{line} {n}"]
            yield j, "activation of -1", [f"{line} -1"]
            continue
        rid, rest = j % (n + 1) - 1, line[line.index(" "):]
        yield j, "cut before this line", None
        yield j, "nan position", [re.sub("pos=[^,]*", "pos=nan", line)]
        yield j, "inf position", [re.sub(",[^ ]*", ",inf", line, count=1)]
        yield j, "colour out of palette", [re.sub("light=[0-9]*", f"light={palette[0]}", line)]
        yield j, "duplicated id", [f"id={(rid + 1) % n}{rest}"]


def test_reader_names_the_same_line_as_the_replaced_reader(tmp_path):
    wrap = sim_rs_by_s(alg_tricolor())
    cfg = make_configuration([Point(0, 0), Point(9, 0), Point(4, 3)], palette=wrap.palette)
    path = tmp_path / "t.trace"
    write_trace(run(cfg, "ssynch", wrap, rounds=4, seed=6), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 21 and any(" ev=" in line for line in lines)
    files = 0
    for j, label, edit in _corpus(lines, 3, wrap.palette):
        for blanks in (False, True):
            # Blank lines count: insert some after the header and before the edit.
            head, tail = lines[:j], [] if edit is None else edit + lines[j + 1:]
            if blanks:
                head = head[:1] + ["", "  "] + head[1:] + ["\t", ""]
            path.write_text("\n".join(head + tail) + "\n")
            want = _outcome(oracle_read_trace, str(path))
            assert isinstance(want, int), (j, label)
            assert _outcome(read_trace, str(path)) == want, (j, label, blanks)
            files += 1
    assert files == 2 * (5 * 4 + 15 * 5)  # 5 rounds of 3 robots
    path.write_text("\n\n".join(lines) + "\n \n")  # only blank lines added
    assert read_trace(str(path)) == oracle_read_trace(str(path))


def _changed_lines(path, n):
    """How many robot lines of a trace file differ from their slot's line in
    the round before; every line of round 0 counts."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    blocks = [lines[i + 1 : i + 1 + n] for i in range(1, len(lines), n + 1)]
    return sum(row != seen for block, seen_block in zip(blocks, [[None] * n] + blocks)
               for row, seen in zip(block, seen_block))


def test_reading_parses_only_the_lines_that_changed(tmp_path, monkeypatch):
    trace = run(make_configuration([Point(0.25, -1.0), Point(3.0, 2.0)]), "rsynch", alg_sro(),
                rounds=200, seed=5)
    path = str(tmp_path / "sro.trace")
    write_trace(trace, path)
    calls, point = [], engine_ns._point

    def counting_point(x, y):
        calls.append((x, y))
        return point(x, y)

    monkeypatch.setattr(engine_ns, "_point", counting_point)
    assert read_trace(path) == trace
    changed = _changed_lines(path, 2)
    assert len(calls) == changed
    assert changed < 201  # most of the 2 x 201 robot lines repeat


# --- Trace files against the writer they replaced -----------------------------


def oracle_write_trace(trace: Trace, path: str) -> None:
    """write_trace before it reused unchanged robot lines, verbatim: its bytes
    are the reference."""
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
    for k, (config, eset, events) in enumerate([(trace.initial, (), {})] + rounds):
        lines.append(f"round={k} act=" + " ".join(map(str, sorted(eset))))
        for rid, p, lt in config.entries:
            text = light_text.get(lt.values)
            if text is None:
                text = light_text[lt.values] = ";".join(map(str, lt.values))
            if rid in events:
                text += " ev=" + ",".join(events[rid])
            lines.append(f"id={rid} pos={p.x!r},{p.y!r} light={text}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _assert_writers_agree(trace, tmp_path):
    """write_trace and the oracle write the same bytes for a trace and for
    the trace read back from them, whose records are shared."""
    got, want = tmp_path / "got.trace", tmp_path / "want.trace"
    oracle_write_trace(trace, str(want))
    for written in (trace, read_trace(str(want))):
        write_trace(written, str(got))
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_GRID))
def test_writer_matches_the_replaced_writer_on_every_grid_trace(name, tmp_path):
    for cell, trace in grid_runs(name):
        if not isinstance(trace, ValueError):
            _assert_writers_agree(trace, tmp_path)


def test_writer_matches_the_replaced_writer_where_lines_repeat(tmp_path):
    # Robot 1 never moves; it has events in some rounds and none in the next.
    events = [{}, {1: ("ran",)}, {}, {0: ("a", "b"), 1: ("ran",)}, {1: ("ran",)}, {}]
    same = one_configuration_trace({}, rounds=len(events))
    toggled = dataclasses.replace(same, rounds=tuple(
        dataclasses.replace(r, events=ev) for r, ev in zip(same.rounds, events)))
    for trace in (signed_zero_trace(), same, one_configuration_trace({1: ("ran",)}), toggled):
        _assert_writers_agree(trace, tmp_path)
    # A hand-made trace may change its robot count between rounds, keeping
    # the other robots' objects; no line is dropped.
    config = same.initial
    grown = make_configuration([p for _, p, _ in config.entries] + [Point(9.0, 9.0)],
                               [lt for _, _, lt in config.entries] + [config.light(0)])
    changing = dataclasses.replace(same, rounds=(TraceRound(frozenset(), grown),) + same.rounds)
    got, want = tmp_path / "got.trace", tmp_path / "want.trace"
    write_trace(changing, str(got))
    oracle_write_trace(changing, str(want))
    assert got.read_bytes() == want.read_bytes()


# --- Step results reused while nothing a robot can see has changed ------------
#
# run and replay keep a robot's Look geometry until a robot moves and its step
# result until a light its model lets it see changes value; a round that
# changes nothing returns the configuration it was given.  The oracle is
# run_round and run's loop as they were before, when every activation Looked
# and stepped.


def oracle_run_round(
    config: Configuration,
    eset: frozenset[int],
    algo: Algorithm,
    model: ModelKind,
    frames: dict[int, FrameSpec],
    rigidity: Rigidity,
    rng: random.Random,
    multiplicity: Multiplicity = Multiplicity.STRONG,
) -> tuple[Configuration, dict[int, tuple[str, ...]]]:
    """Execute one synchronous round for the robots in eset.

    Lights must carry algo.palette and frame specs must be valid (run and
    replay check both); new values are checked once, by _check_result, and
    committed unchecked."""
    for rid in eset:
        if not 0 <= rid < config.n:
            raise ValueError(f"activation of unknown robot {rid}")

    # Look + Compute against the same pre-round configuration; each robot's
    # frame is built once and kept for its Move.
    results: dict[int, tuple[LocalFrame, StepResult]] = {}
    for rid in sorted(eset):
        spec = frames[rid]
        frame = _frame(config.position(rid), spec.rotation, spec.scale, spec.reflecting)
        result = algo.step(snapshot(model, config, rid, frame, multiplicity))
        _check_result(result, algo.palette, algo.name)
        results[rid] = frame, result

    # Move + light commit, simultaneously.
    entries = []
    events: dict[int, tuple[str, ...]] = {}
    for rid, pos, light in config.entries:
        if rid in results:
            frame, result = results[rid]
            dest = from_local(frame, result.destination)
            new_pos = pos if points_close(dest, pos, 0.0) else apply_move(pos, dest, rigidity, rng)
            if result.light:
                values = list(light.values)
                for idx, value in result.light.items():
                    values[idx] = value
                light = _light(tuple(values), light.palette)
            entries.append((rid, new_pos, light))
            if result.events:
                events[rid] = result.events
        else:
            entries.append((rid, pos, light))
    return _configuration(tuple(entries)), events


def oracle_run(config0, schedule, algo, *, rigidity=Rigidity(), rounds=None, seed=0, frames=None,
               multiplicity=Multiplicity.STRONG, chirality=True):
    """run's checks and header, then its loop over oracle_run_round."""
    header = run(config0, schedule, algo, rigidity=rigidity, rounds=0, seed=seed, frames=frames,
                 multiplicity=multiplicity, chirality=chirality).header
    if isinstance(schedule, SchedulePrefix):
        rounds = len(schedule) if rounds is None else rounds
        prefix = schedule
    else:
        prefix = generate(schedule, config0.n, rounds, seed)
    frames = {rid: (frames or {}).get(rid, FrameSpec()) for rid in range(config0.n)}
    rng = random.Random(seed)
    model = header.model
    config = config0
    trace_rounds = []
    for k in range(rounds):
        config, events = oracle_run_round(
            config, prefix.sets[k], algo, model, frames, rigidity, rng, multiplicity
        )
        trace_rounds.append(TraceRound(prefix.sets[k], config, events))
    return Trace(header, config0, tuple(trace_rounds))


def _run_outcome(execute, args, kwargs):
    try:
        return execute(*args, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _file_bytes(trace, path):
    write_trace(trace, path)
    with open(path, "rb") as fh:
        return fh.read()


def _assert_run_matches_the_oracle(args, kwargs, path, cell=""):
    """run equals the oracle, trace and file; replay accepts the oracle's trace.
    Returns the number of rounds after which run kept the configuration object."""
    got, want = _run_outcome(run, args, kwargs), _run_outcome(oracle_run, args, kwargs)
    assert got == want, cell
    if isinstance(want, str):
        return 0
    assert _file_bytes(got, path) == _file_bytes(want, path), cell
    replay_kwargs = {k: kwargs[k] for k in ("rigidity", "frames", "multiplicity") if k in kwargs}
    assert replay(want, args[2], **replay_kwargs), cell
    configs = got.configs()
    return sum(a is b for a, b in zip(configs, configs[1:]))


@pytest.mark.parametrize("name", sorted(GOLDEN_GRID))
def test_run_and_replay_match_the_oracle_on_every_grid_cell(name, tmp_path):
    still = sum(
        _assert_run_matches_the_oracle(args, kwargs, str(tmp_path / "grid.trace"), cell)
        for cell, args, kwargs in grid_cells(name)
    )
    # Every tricolor, move-east and sro round here moves a robot or changes a
    # light; the others have rounds that change nothing, so results are reused.
    assert (still > 0) == (name in ("cyclic-cycles", "sim-lumi-by-fcom", "sim-rs-by-s"))


def _reading(snap):
    """The robot's own light where its model shows it; otherwise the parity
    of the other lights it sees (FCOM), or 0 when it sees none (OBLOT)."""
    if snap.own_light is not None:
        return snap.own_light[0]
    return sum(values[0] for loc in snap.observed for values in loc.lights or ()) % 2


def _witness(snap):
    """Assigns its reading and records an event: a no-op where the robot sees
    its own light, and from all-off lights under every model."""
    return StepResult(light={0: _reading(snap)}, events=("seen", "kept"))


def _east_toggles(snap):
    """The eastmost robot alternately turns its light on and steps east turning
    it off, as its reading shows; every other robot assigns its reading and
    records an event, which changes nothing where it sees its own light."""
    if any(loc.point.x > 0.0 for loc in snap.observed):
        return StepResult(light={0: _reading(snap)}, events=("west",))
    if _reading(snap) == 0:
        return StepResult(light={0: 1})
    return StepResult(destination=Point(1.0, 0.0), light={0: 0}, events=("east",))


ALGOS_WITH_EVENTS = {
    "witness": Algorithm("witness", (2,), _witness, ModelKind.FSTA),
    "east-toggles": Algorithm("east-toggles", (2,), _east_toggles, ModelKind.FSTA),
}


@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize("name", sorted(ALGOS_WITH_EVENTS))
def test_run_matches_the_oracle_for_steps_that_record_events(name, kind, tmp_path):
    positions = [Point(0, 0), Point(3, 1), Point(-2, 4), Point(3, 1)]
    config = make_configuration(positions, palette=(2,))
    if kind == ROUND_ROBIN:
        kind = SchedulerKind(ROUND_ROBIN, (frozenset({0, 2}), frozenset({1, 3})))
    still = 0
    for model, seed in itertools.product(ModelKind, range(3)):
        algo = dataclasses.replace(ALGOS_WITH_EVENTS[name], model=model)
        for delta in (None, 0.4):
            for frames in ("identity", "rotated", "reflecting"):
                kwargs = dict(rounds=40, seed=seed, rigidity=Rigidity(delta),
                              frames=_grid_frames(frames, 4), multiplicity=Multiplicity.WEAK)
                still += _assert_run_matches_the_oracle(
                    (config, kind, algo), kwargs, str(tmp_path / "t.trace"))
    assert still > 0


def _counting(algo):
    """algo with a step that records each snapshot it is given."""
    seen = []

    def step(snap):
        seen.append(snap)
        return algo.step(snap)

    return dataclasses.replace(algo, step=step), seen


# Steps run after each prefix of TestReuse's schedule, derived by hand.  Robot
# 0 (west) copies its reading; robot 1 (east) changes its light or moves each
# time it is stepped.  A move drops every result.  A light change by robot 1
# drops 0's result if 0 sees others' lights and 1's if 1 sees its own:
# - LUMI sees both, so every change drops every result;
# - FSTA keeps 0's result when 1's light changes (rounds 5-6, 10);
# - FCOM reads the other robot's light, so 0 changes its own light at rounds
#   5, 8 and 10, which drops 1's result but not 0's (round 6 reuses it);
# - OBLOT reads 0: robot 1 only ever turns its light on, and neither is
#   stepped twice.
STEPS_PER_MODEL = {
    ModelKind.LUMI: [0, 1, 1, 1, 2, 3, 3, 4, 5, 6, 7, 8, 10],
    ModelKind.FSTA: [0, 1, 1, 1, 2, 2, 2, 3, 4, 5, 5, 6, 8],
    ModelKind.FCOM: [0, 1, 1, 1, 2, 3, 3, 4, 5, 6, 7, 8, 10],
    ModelKind.OBLOT: [0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2],
}
REUSE_SETS = [{0}, {0}, {0}, {1}, {0}, {0}, {1}, {0}, {0, 1}, {0}, {0, 1}, {0, 1}]


class TestReuse:
    def _run(self, sets, rounds=None, model=ModelKind.FSTA):
        algo, seen = _counting(ALGOS_WITH_EVENTS["east-toggles"])
        config = make_configuration([Point(0, 0), Point(5, 0)], palette=(2,))
        trace = run(config, SchedulePrefix(tuple(map(frozenset, sets)), 2), algo, rounds=rounds,
                    model=model)
        return trace, len(seen)

    def test_a_robot_is_stepped_once_per_configuration(self):
        for model, want in STEPS_PER_MODEL.items():
            steps = [self._run(REUSE_SETS, k, model)[1] for k in range(len(REUSE_SETS) + 1)]
            assert steps == want, model

    def test_a_reused_step_records_the_same_events(self):
        trace, _ = self._run([{0}, {0}, {0, 1}, {0}])
        assert [r.events for r in trace.rounds] == [
            {0: ("west",)}, {0: ("west",)}, {0: ("west",)}, {0: ("west",)}
        ]

    def test_a_round_that_changes_nothing_returns_its_configuration(self):
        trace, _ = self._run([{0}, {0, 1}, {0}, {1}, {1}])
        configs = trace.configs()
        assert [a is b for a, b in zip(configs, configs[1:])] == [True, False, True, False, False]
        cfg = make_configuration([Point(0, 0), Point(1, 1)], palette=(2,))
        for algo in (alg_stay(), ALGOS_WITH_EVENTS["witness"]):
            out, _ = run_round(cfg, frozenset({0, 1}), algo, ModelKind.FSTA, identity_frames(2),
                               Rigidity(), random.Random(0))
            assert out is cfg

    def test_replay_steps_once_per_configuration(self):
        for model, want in STEPS_PER_MODEL.items():
            trace, steps = self._run(REUSE_SETS[:6], model=model)
            algo, seen = _counting(dataclasses.replace(ALGOS_WITH_EVENTS["east-toggles"],
                                                       model=model))
            assert replay(trace, algo) and len(seen) == steps == want[6], model


# --- Entries and light values that a round shares with the one before --------

def _east_while_dark(snap):
    """Moves east while its own light is off; lights up where it sees a
    robot east of it."""
    east = any(loc.point.x > 0.0 for loc in snap.observed)
    return StepResult(light={0: 1} if east else {},
                      destination=Point(1.0, 0.0) if snap.own_light[0] == 0 else Point(0.0, 0.0))


EAST_WHILE_DARK = Algorithm("east-while-dark", (2,), _east_while_dark, ModelKind.LUMI)


def _commit(config, eset, algo=EAST_WHILE_DARK):
    return run_round(config, frozenset(eset), algo, algo.model, identity_frames(config.n), Rigidity(),
                     random.Random(0))[0]


class TestSharedEntries:
    def _config(self, lit):
        positions = [Point(0.0, 0.0), Point(0.0, 2.0), Point(5.0, 0.0)]
        return make_configuration(positions, [LightTuple((v,), (2,)) for v in lit], palette=(2,))

    @pytest.mark.parametrize("lit, eset, changed", [
        ((1, 0, 1), {0, 1, 2}, {1}),  # robot 1 moves and lights up; 0 and 2 re-assign their light
        ((1, 1, 0), {0, 1, 2}, {2}),  # robot 2 moves only
        ((1, 0, 1), {1}, {1}),
        ((0, 1, 1), {0, 2}, {0}),  # robot 0 moves and lights up; robot 2 is stepped and stays
    ])
    def test_a_robot_that_did_not_change_keeps_its_entry(self, lit, eset, changed):
        before = self._config(lit)
        after = _commit(before, eset)
        for rid, (old, new) in enumerate(zip(before.entries, after.entries)):
            assert (new is old) == (rid not in changed), rid
            if rid in changed:
                assert new[1] is not old[1] or new[2] is not old[2]

    def test_one_light_value_is_one_object_across_robots_and_rounds(self):
        algo = dataclasses.replace(EAST_WHILE_DARK)
        config = self._config((0, 0, 0))
        lights = []
        for eset in ({0}, {1}, {0, 1, 2}, {2}):
            config = _commit(config, eset, algo)
            lights += [lt for _, _, lt in config.entries if lt.values == (1,)]
        assert len(lights) > 3 and all(lt is lights[0] for lt in lights)
        assert algo._lights == {(1,): lights[0]}  # bounded by the palette's colours

    def test_instances_keep_their_own_table_and_free_it(self):
        first, second = (dataclasses.replace(EAST_WHILE_DARK) for _ in range(2))
        config = self._config((0, 0, 0))
        lit = [_commit(config, {0}, algo).light(0) for algo in (first, second)]
        assert lit[0] == lit[1] and lit[0] is not lit[1]
        assert first._lights is not second._lights
        assert gc.get_referrers(first._lights) in ([first], [vars(first)])  # held by its instance alone
        gone = weakref.ref(first)
        del first
        assert gone() is None  # freed at once, its table with it

    def test_a_light_set_to_its_value_returns_the_configuration(self):
        config = self._config((1, 1, 1))
        for eset in ({0}, {1}, {0, 1}):  # each sees a robot east of it and sets the light it shows
            assert _commit(config, eset) is config
        config = self._config((1, 1, 0))
        assert _commit(config, {0, 1}) is config


# --- Rounds reused across runs: the configuration graph ----------------------

# Every registry protocol, each wrapper over each utility inner protocol:
# (algorithm name, inner, n, scheduler, rounds).
GRAPH_CASES = [
    ("sro", None, 2, "rsynch", 40),
    ("stay", None, 3, "ssynch", 40),
    ("move-east", None, 3, "ssynch", 40),
    ("tricolor", None, 3, "ssynch", 40),
    ("flag-scheme", None, 3, "ssynch", 40),
    ("cyclic-cycles", None, 4, "ssynch", 120),
] + [(wrapper, inner, 3, host, 80)
     for wrapper, host in (("sim-rs-by-s", "ssynch"), ("sim-lumi-by-fcom", "rsynch"))
     for inner in ("stay", "move-east", "tricolor")]

# The runs each seed makes on one instance: two frame sets, and weak
# multiplicity, so each instance keeps three graphs.  Odd seeds take them in
# reverse, so a variant also follows itself, and a graph shared between
# variants would keep rounds the next variant then reads.
GRAPH_VARIANTS = [
    ("identity", Multiplicity.STRONG),
    ("rotated", Multiplicity.STRONG),
    ("identity", Multiplicity.WEAK),
]


@pytest.fixture
def graph_budget(monkeypatch):
    """Room for `entries` robot entries beyond what live graphs already keep."""
    def give(entries):
        monkeypatch.setattr(engine_ns, "_GRAPH_ENTRIES", engine_ns.ConfigGraph.kept + entries)
    return give


def _counted_rounds(monkeypatch):
    calls = []
    real = engine_ns.run_round
    monkeypatch.setattr(engine_ns, "run_round", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("name, inner, n, kind, rounds", GRAPH_CASES,
                         ids=[f"{c[0]}/{c[1]}" if c[1] else c[0] for c in GRAPH_CASES])
def test_a_shared_instance_writes_the_traces_of_fresh_ones(name, inner, n, kind, rounds, tmp_path,
                                                           monkeypatch, graph_budget):
    from lcmswarm.cli import build_algorithm

    graph_budget(4096)
    calls = _counted_rounds(monkeypatch)
    shared = build_algorithm(name, n=n, inner=inner)
    positions = [Point(50.0 * i, 7.0 * (i % 2)) for i in range(n)]
    if n > 2:
        positions[-1] = positions[0]  # co-located, so multiplicity shows
    config = (cyc_initial_config(n) if name == "cyclic-cycles"
              else make_configuration(positions, palette=shared.palette))
    path = str(tmp_path / "t.trace")
    written, executed = {}, {}
    for way in ("fresh", "shared"):
        calls.clear()
        for seed in range(20):
            for frames, multiplicity in GRAPH_VARIANTS[::1 - seed % 2 * 2]:
                algo = shared if way == "shared" else build_algorithm(name, n=n, inner=inner)
                trace = run(config, kind, algo, rounds=rounds, seed=seed,
                            frames=_grid_frames(frames, n), multiplicity=multiplicity)
                write_trace(trace, path)
                with open(path, "rb") as fh:
                    got = fh.read()
                assert written.setdefault((seed, frames, multiplicity), got) == got, (seed, frames)
        executed[way] = len(calls)
    assert executed["shared"] < executed["fresh"]
    assert len(shared._graphs) == len(GRAPH_VARIANTS)


def _toggle(snap):
    """Turns its own light on and off; never moves."""
    return StepResult(light={0: 1 - snap.own_light[0]})


def test_a_signed_zero_start_is_not_the_unsigned_one(tmp_path, graph_budget):
    graph_budget(4096)
    toggle = Algorithm("toggle", (2,), _toggle, ModelKind.LUMI)
    shared = dataclasses.replace(toggle)
    path = str(tmp_path / "t.trace")

    def written(config, algo):
        write_trace(run(config, "fsynch", algo, rounds=6, seed=0), path)
        with open(path) as fh:
            return fh.read()

    plus = make_configuration([Point(0.0, 1.0), Point(2.0, 1.0)], palette=(2,))
    minus = make_configuration([Point(-0.0, 1.0), Point(2.0, 1.0)], palette=(2,))
    for _ in range(3):  # the unsigned start and its rounds become states
        assert written(plus, shared) == written(plus, dataclasses.replace(toggle))
    for _ in range(3):
        got = written(minus, shared)
        assert got == written(minus, dataclasses.replace(toggle))
        assert got.count("pos=-0.0,1.0") == 7


def test_swapped_lights_at_the_same_positions_are_not_one_state(tmp_path, graph_budget):
    # A key that kept only which light values occur, and not whose they are,
    # would read the swapped start's rounds from the unswapped one's state.
    graph_budget(4096)
    toggle = Algorithm("toggle", (2,), _toggle, ModelKind.LUMI)
    shared = dataclasses.replace(toggle)
    path = str(tmp_path / "t.trace")

    def written(config, algo):
        write_trace(run(config, "fsynch", algo, rounds=6, seed=0), path)
        with open(path) as fh:
            return fh.read()

    points = [Point(0.0, 1.0), Point(2.0, 1.0)]
    off, on = LightTuple((0,), (2,)), LightTuple((1,), (2,))
    unswapped = make_configuration(points, [off, on], palette=(2,))
    swapped = make_configuration(points, [on, off], palette=(2,))
    for _ in range(3):  # the unswapped start and its rounds become states
        assert written(unswapped, shared) == written(unswapped, dataclasses.replace(toggle))
    for _ in range(3):
        got = written(swapped, shared)
        assert got == written(swapped, dataclasses.replace(toggle))
        assert got != written(unswapped, shared)


def _overflow(snap):
    """Counts its own light up, past the palette at the third step."""
    return StepResult(light={0: snap.own_light[0] + 1})


def test_a_round_that_raises_is_never_kept(monkeypatch, graph_budget):
    graph_budget(4096)
    calls = _counted_rounds(monkeypatch)
    algo = Algorithm("overflow", (3,), _overflow, ModelKind.LUMI)
    config = make_configuration([Point(0.0, 0.0), Point(1.0, 0.0)], palette=(3,))
    executed = []
    for _ in range(4):
        calls.clear()
        with pytest.raises(PaletteError, match="value 3 outside palette of size 3"):
            run(config, "fsynch", algo, rounds=6, seed=0)
        executed.append(len(calls))
    # The second run admits the start, the third the first two rounds'
    # configurations; the fourth reads those rounds and executes round 3.
    assert executed == [3, 3, 3, 1]


def test_drifting_runs_stay_within_the_budget(tmp_path, graph_budget):
    graph_budget(40)
    before = engine_ns.ConfigGraph.kept
    shared = alg_tricolor()
    config = make_configuration([Point(0.0, 0.0), Point(3.0, 1.0)], palette=(3,))
    path = str(tmp_path / "t.trace")
    kept = []
    for seed in range(40):
        traces = [run(config, "rsynch", algo, rounds=30, seed=seed) for algo in (shared, alg_tricolor())]
        texts = []
        for trace in traces:
            write_trace(trace, path)
            with open(path, "rb") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1], seed
        kept.append(engine_ns.ConfigGraph.kept - before)
        assert kept[-1] <= 40
    assert kept.index(40) < 10  # full well before the last runs
    del shared
    assert engine_ns.ConfigGraph.kept == before  # a freed instance gives its entries back


def _live_graph_entries():
    gc.collect()
    return sum(state[0].n for obj in gc.get_objects() if type(obj) is engine_ns.ConfigGraph
               for state in obj.states.values())


def test_the_budget_counts_exactly_the_entries_live_graphs_keep(graph_budget):
    graph_budget(600)
    before = engine_ns.ConfigGraph.kept
    assert before == _live_graph_entries()
    cyc = alg_cyclic_cycles(5)
    tricolor = alg_tricolor()
    battery = [(cyc, cyc_initial_config(5), "ssynch", 800), (tricolor, make_configuration(
        [Point(0.0, 0.0), Point(3.0, 1.0)], palette=(3,)), "rsynch", 30)]
    for wrapper, host, rounds in ((sim_rs_by_s(alg_move_east()), "ssynch", 110),
                                  (sim_lumi_by_fcom(alg_move_east(), 3), "rsynch", 240)):
        positions = [Point(50.0 * i, 7.0 * (i % 2)) for i in range(3)]
        battery.append((wrapper, make_configuration(positions, palette=wrapper.palette), host, rounds))
    kept = []
    for seed in range(6):
        for algo, config, kind, rounds in battery:
            run(config, kind, algo, rounds=rounds, seed=seed)
            kept.append(engine_ns.ConfigGraph.kept)
            assert kept[-1] == _live_graph_entries()
            assert kept[-1] <= engine_ns._GRAPH_ENTRIES
    assert engine_ns._GRAPH_ENTRIES - kept[-1] < 5  # the battery fills the budget to within a state
    del algo, cyc, tricolor, wrapper, battery
    assert engine_ns.ConfigGraph.kept == before == _live_graph_entries()


def test_a_configuration_seen_in_any_earlier_run_is_admitted(tmp_path, monkeypatch, graph_budget):
    # Lights (robot 0, robot 1) go from (0, 0) to (1, 0) and back in runs 1, 3
    # and 4, and to (0, 1) and back in run 2.  Run 0 marks the start, run 1
    # admits it and marks (1, 0), run 3 admits (1, 0) and keeps both rounds.
    graph_budget(4096)
    calls = _counted_rounds(monkeypatch)
    toggle = Algorithm("toggle", (2,), _toggle, ModelKind.LUMI)
    shared = dataclasses.replace(toggle)
    config = make_configuration([Point(0.0, 1.0), Point(2.0, 1.0)], palette=(2,))
    path = tmp_path / "t.trace"

    def written(algo, robot, rounds):
        write_trace(run(config, SchedulePrefix((frozenset({robot}),) * rounds, 2), algo), str(path))
        return path.read_bytes()

    executed = []
    for robot, rounds in ((1, 1), (0, 2), (1, 2), (0, 2), (0, 2)):
        calls.clear()
        got = written(shared, robot, rounds)
        executed.append(len(calls))
        assert got == written(dataclasses.replace(toggle), robot, rounds)
    assert executed == [1, 2, 2, 2, 0]


def test_drifting_runs_past_the_doorkeepers_reset_keep_it_one_size(tmp_path, monkeypatch, graph_budget):
    graph_budget(40)
    monkeypatch.setattr(engine_ns, "_DOOR_MARKS", 64)  # so 40 runs pass it again and again
    shared = alg_tricolor()
    config = make_configuration([Point(0.0, 0.0), Point(3.0, 1.0)], palette=(3,))
    path = tmp_path / "t.trace"
    doors = []  # each kept alive, so no two share an id
    for seed in range(40):
        texts = []
        for algo in (shared, alg_tricolor()):
            write_trace(run(config, "rsynch", algo, rounds=30, seed=seed), str(path))
            texts.append(path.read_bytes())
        assert texts[0] == texts[1], seed
        [graph] = shared._graphs.values()
        doors.append(graph.door)
        assert len(graph.door) == engine_ns._DOOR_SLOTS and graph.marks < 64
        assert sum(graph.door) <= 2 * graph.marks
    assert len({id(door) for door in doors}) > 10  # cleared again and again, never grown


def test_one_graph_is_built_per_model_frames_and_multiplicity(monkeypatch):
    built = []
    real = engine_ns.ConfigGraph.__init__
    monkeypatch.setattr(engine_ns.ConfigGraph, "__init__", lambda self: built.append(1) or real(self))
    algo = alg_tricolor()
    positions = [Point(50.0 * i, 7.0 * (i % 2)) for i in range(3)]
    config = make_configuration(positions, palette=algo.palette)
    for seed in range(10):
        for frames, multiplicity in GRAPH_VARIANTS:
            run(config, "ssynch", algo, rounds=20, seed=seed, frames=_grid_frames(frames, 3),
                multiplicity=multiplicity)
        run(config, "ssynch", algo, rounds=20, seed=seed, rigidity=Rigidity(0.5))  # keeps no graph
    assert len(built) == len(algo._graphs) == len(GRAPH_VARIANTS)


def test_equal_edge_events_are_one_object(graph_budget):
    graph_budget(4096)
    wrapper = sim_rs_by_s(alg_stay())
    config = make_configuration([Point(50.0 * i, 7.0 * (i % 2)) for i in range(3)], palette=wrapper.palette)
    for seed in range(8):
        run(config, "ssynch", wrapper, rounds=110, seed=seed)
    [graph] = wrapper._graphs.values()
    items = [edge[1] for state in graph.states.values() for edge in state[1:] if type(edge) is tuple]
    assert len(items) > len(set(items)) > 1  # some edges repeat another's events
    assert len({id(i) for i in items}) == len(set(items))


def test_rounds_read_from_the_graph_have_their_own_events(tmp_path, monkeypatch, graph_budget):
    # A caller that edits a round's events dict, empty or not, must change no
    # later run's trace: each round from the graph gets a dict of its own.
    graph_budget(4096)
    calls = _counted_rounds(monkeypatch)
    shared = sim_rs_by_s(alg_stay())
    config = make_configuration([Point(50.0 * i, 7.0 * (i % 2)) for i in range(3)], palette=shared.palette)

    def written(algo, seed):
        path = tmp_path / "t.trace"
        write_trace(run(config, "ssynch", algo, rounds=110, seed=seed), str(path))
        return path.read_bytes()

    for seed in (9, 9, 9, 8, 8):  # the third run of a seed in a row keeps all its rounds
        run(config, "ssynch", shared, rounds=110, seed=seed)
    calls.clear()
    edited = run(config, "ssynch", shared, rounds=110, seed=8)
    assert not calls
    assert {bool(r.events) for r in edited.rounds} == {True, False}
    for r in edited.rounds:
        for rid in range(3):
            r.events[rid] = ("forged",)
    assert written(shared, 9) == written(sim_rs_by_s(alg_stay()), 9)
    assert len(calls) == 110  # all from the fresh instance, none from the shared one


# run and replay switch automatic collection off while their round loop runs,
# and give the caller's setting back on a return and on a raise alike.

def _recording(seen, step=lambda snap: StepResult()):
    """`step`, appending whether the collector is on at each call to `seen`."""
    def recorded(snap):
        seen.append(gc.isenabled())
        return step(snap)
    return recorded


@pytest.fixture
def collector():
    """The collector on at the start and at the end of a test, whatever it does."""
    gc.enable()
    yield
    gc.enable()


def _pair(palette):
    return make_configuration([Point(0.0, 0.0), Point(1.0, 0.0)], palette=palette)


def test_run_and_replay_leave_an_enabled_collector_enabled(collector):
    seen = []
    algo = Algorithm("seen", (2,), _recording(seen), ModelKind.LUMI)
    trace = run(_pair((2,)), "fsynch", algo, rounds=3, seed=0)
    assert gc.isenabled()
    assert replay(trace, algo)
    assert gc.isenabled()
    assert seen and not any(seen)  # off for each step of both round loops


def test_a_palette_error_mid_run_restores_the_collector(collector):
    with pytest.raises(PaletteError, match="value 3 outside palette of size 3"):
        run(_pair((3,)), "fsynch", Algorithm("overflow", (3,), _overflow, ModelKind.LUMI), rounds=6)
    assert gc.isenabled()
    up_to_two = Algorithm("overflow", (3,), lambda snap: StepResult(light={0: min(snap.own_light[0] + 1, 2)}),
                          ModelKind.LUMI)
    trace = run(_pair((3,)), "fsynch", up_to_two, rounds=6)
    with pytest.raises(PaletteError, match="value 3 outside palette of size 3"):
        replay(trace, Algorithm("overflow", (3,), _overflow, ModelKind.LUMI))
    assert gc.isenabled()


def test_a_nested_run_leaves_the_collector_to_the_outermost(collector):
    seen = []
    inner = Algorithm("inner", (2,), _recording(seen), ModelKind.LUMI)

    def nesting(snap):
        run(_pair((2,)), "fsynch", inner, rounds=1)
        seen.append(gc.isenabled())  # still off once the nested run returns
        return StepResult()

    run(_pair((2,)), "fsynch", Algorithm("outer", (2,), nesting, ModelKind.LUMI), rounds=1)
    assert seen == [False] * 6
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_is_never_turned_on(collector, monkeypatch):
    enabled = []
    monkeypatch.setattr(gc, "enable", lambda: enabled.append(True))
    seen = []
    inner = dataclasses.replace(alg_tricolor(), step=_recording(seen, alg_tricolor().step))
    wrap = sim_rs_by_s(inner)
    config = make_configuration([Point(50.0 * i, 7.0 * (i % 2)) for i in range(3)], palette=wrap.palette)
    gc.disable()
    trace = run(config, "ssynch", wrap, rounds=110, seed=3)
    assert replay(trace, wrap)
    assert verify_inner_fidelity(trace, inner) == []  # its inner run is a nested call
    with pytest.raises(PaletteError):
        run(_pair((3,)), "fsynch", Algorithm("overflow", (3,), _overflow, ModelKind.LUMI), rounds=6)
    assert enabled == [] and not gc.isenabled()
    assert seen and not any(seen)
