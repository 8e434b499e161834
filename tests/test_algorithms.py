import dataclasses
import inspect
import itertools
import math
import random
import struct

import pytest

from lcmswarm.algorithms import (
    CYC_B,
    CYC_CARRY,
    CYC_PALETTE,
    CYC_STATUS,
    CYC_SUC_B,
    STATUS_CENTER,
    STATUS_FINAL,
    _CYC_READINGS,
    _CYC_STEPS,
    _DECODE_TOL,
    CycView,
    FlagScheme,
    MalformedPatternError,
    alg_cyclic_cycles,
    alg_move_east,
    alg_sro,
    alg_stay,
    alg_tricolor,
    _cyc_reader,
    cyc_initial_config,
    decode_cyc_pattern,
    flag_scheme_algorithm,
    is_except1,
    is_same,
)
from lcmswarm.core import (
    ORIGIN,
    LightTuple,
    LocalFrame,
    ModelKind,
    ObservedLocation,
    Point,
    Snapshot,
    _points_key,
    distance,
    make_configuration,
    points_close,
    snapshot,
)
from lcmswarm.engine import FrameSpec, StepResult, run, write_trace
from lcmswarm.scheduler import SSYNCH, SchedulePrefix, check_fair, generate


def observe(algo, cfg, rid, model):
    return algo.step(snapshot(model, cfg, rid, LocalFrame(cfg.position(rid))))


class TestSro:
    def test_step_from_origin(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        res = observe(alg_sro(), cfg, 0, ModelKind.OBLOT)
        assert points_close(res.destination, Point(0, 1))

    def test_step_is_symmetric(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        res = observe(alg_sro(), cfg, 1, ModelKind.OBLOT)
        # Destination is in robot 1's frame; (1,0) global is (0,-1) local.
        assert points_close(res.destination, Point(0, -1))

    def test_rejects_extra_robots(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1), Point(2, 2)])
        with pytest.raises(MalformedPatternError):
            observe(alg_sro(), cfg, 0, ModelKind.OBLOT)

    def test_both_moving_keeps_length_one_moving_shrinks(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        d0 = math.sqrt(2.0)
        both = run(cfg, SchedulePrefix((frozenset({0, 1}),), 2), alg_sro())
        c = both.rounds[0].config
        assert distance(c.position(0), c.position(1)) == pytest.approx(d0, abs=1e-12)
        one = run(cfg, SchedulePrefix((frozenset({0}),), 2), alg_sro())
        c = one.rounds[0].config
        assert distance(c.position(0), c.position(1)) == pytest.approx(d0 / math.sqrt(2), abs=1e-12)

    def test_alternation_shrinks_by_sqrt2_each_move(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        alternation = SchedulePrefix(tuple(frozenset({k % 2}) for k in range(12)), 2)
        trace = run(cfg, alternation, alg_sro())
        lengths = [math.sqrt(2.0)]
        for r in trace.rounds:
            lengths.append(distance(r.config.position(0), r.config.position(1)))
        for prev, cur in zip(lengths, lengths[1:]):
            assert cur / prev == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def cyc_lights(**overrides):
    vals = {"status": STATUS_CENTER, "b": 0, "c": 0, "suc_b": 0}
    vals.update(overrides)
    return LightTuple((vals["status"], vals["b"], vals["c"], vals["suc_b"]), CYC_PALETTE)


def oracle_cyc_step(n, d_rel=None):
    """The cyclic-circles step before its geometry reading was cached,
    copied verbatim: it decodes every snapshot from scratch."""
    d_fn = d_rel or (lambda _i: 0.5)

    def final_point(view: CycView, idx: int) -> Point:
        frac = d_fn(idx)
        if not 0.0 < frac < 1.0:
            raise ValueError(f"d({idx}) = {frac} must be a radius fraction in (0, 1)")
        ux = (view.vacancy.x - view.center.x) / view.radius
        uy = (view.vacancy.y - view.center.y) / view.radius
        return Point(view.center.x + frac * view.radius * ux, view.center.y + frac * view.radius * uy)

    def step(snap: Snapshot) -> StepResult:
        if any(loc.count != 1 for loc in snap.observed):
            raise MalformedPatternError("cyclic circles expects one robot per location")
        pts = [loc.point for loc in snap.observed]
        view = decode_cyc_pattern(pts, n)
        lights: dict[tuple[float, float], tuple[int, ...]] = {}
        for loc in snap.observed:
            if loc.lights:
                lights[(loc.point.x, loc.point.y)] = loc.lights[0]

        def light_of(p: Point) -> tuple[int, ...]:
            return lights[(p.x, p.y)]

        pos_tol = _DECODE_TOL * view.radius
        ring_lights = [light_of(p) if not points_close(p, ORIGIN, pos_tol) else None
                       for p in view.ring]
        i_am_mover = points_close(view.mover, ORIGIN, pos_tol)

        if i_am_mover:
            statuses = [lt[CYC_STATUS] for lt in ring_lights]
            bits = [lt[CYC_B] for lt in ring_lights]
            idx = sum(b << k for k, b in enumerate(bits))
            target = final_point(view, idx)
            at_target = points_close(ORIGIN, target, pos_tol)
            at_center = points_close(ORIGIN, view.center, pos_tol)
            if all(s == STATUS_CENTER for s in statuses) and not at_target:
                return StepResult(light={CYC_STATUS: STATUS_FINAL}, destination=target)
            if all(s == STATUS_FINAL for s in statuses) and not at_center:
                return StepResult(
                    light={
                        CYC_STATUS: STATUS_CENTER,
                        CYC_B: 0,
                        CYC_CARRY: 1,  # carry into the least significant bit
                        CYC_SUC_B: ring_lights[0][CYC_B],
                    },
                    destination=view.center,
                )
            return StepResult()

        my_slot = next(k for k, lt in enumerate(ring_lights) if lt is None)
        i = my_slot + 1  # counter chain position, 1-based
        mover_light = light_of(view.mover)
        pred_light = mover_light if i == 1 else ring_lights[my_slot - 1]
        suc_light = mover_light if i == n - 1 else ring_lights[my_slot + 1]

        # This robot's own b bit is readable from its predecessor's copy.
        bits = [pred_light[CYC_SUC_B] if k == my_slot else lt[CYC_B]
                for k, lt in enumerate(ring_lights)]
        idx = sum(b << k for k, b in enumerate(bits))
        target = final_point(view, idx)
        mover_at_target = points_close(view.mover, target, pos_tol)
        mover_at_center = points_close(view.mover, view.center, pos_tol)

        if mover_at_target and mover_light[CYC_STATUS] == STATUS_FINAL:
            return StepResult(light={CYC_STATUS: STATUS_FINAL})
        before_center = all(
            lt[CYC_STATUS] == STATUS_CENTER for lt in ring_lights[: my_slot] if lt
        ) and mover_light[CYC_STATUS] == STATUS_CENTER
        after_final = all(
            lt[CYC_STATUS] == STATUS_FINAL for lt in ring_lights[my_slot + 1 :] if lt
        )
        if mover_at_center and before_center and after_final:
            return StepResult(
                light={
                    CYC_B: pred_light[CYC_CARRY] ^ pred_light[CYC_SUC_B],
                    CYC_CARRY: pred_light[CYC_CARRY] & pred_light[CYC_SUC_B],
                    CYC_SUC_B: suc_light[CYC_B],
                    CYC_STATUS: STATUS_CENTER,
                }
            )
        return StepResult()

    return step


class TestCyclicCycles:
    def _config(self, n, lights, mover_at=None):
        base = cyc_initial_config(n)
        positions = [p for _, p, _ in base.entries]
        if mover_at is not None:
            positions[0] = mover_at
        return make_configuration(positions, lights)

    @pytest.mark.parametrize("pred_c,pred_suc_b,want_b,want_c", [
        (1, 1, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 1, 0),
        (0, 0, 0, 0),
    ])
    def test_full_adder_cell(self, pred_c, pred_suc_b, want_b, want_c):
        # Robot 1 increments when the mover is back at the center, everything
        # before it in the chain shows center and everything after shows final.
        lights = [
            cyc_lights(status=STATUS_CENTER, c=pred_c, suc_b=pred_suc_b),  # mover = pred of r_1
            cyc_lights(status=STATUS_FINAL),
            cyc_lights(status=STATUS_FINAL, b=1),
        ]
        cfg = self._config(3, lights)
        res = observe(alg_cyclic_cycles(3), cfg, 1, ModelKind.FCOM)
        assert res.light[CYC_B] == want_b
        assert res.light[CYC_CARRY] == want_c
        assert res.light[CYC_SUC_B] == 1  # copies the successor's b bit
        assert res.light[CYC_STATUS] == STATUS_CENTER

    def test_mover_departs_only_from_full_center_pattern(self):
        cfg = self._config(3, [cyc_lights(), cyc_lights(), cyc_lights()])
        res = observe(alg_cyclic_cycles(3), cfg, 0, ModelKind.FCOM)
        assert res.light[CYC_STATUS] == STATUS_FINAL
        assert points_close(res.destination, Point(0.5, 0.0), 1e-9)
        # With a circle robot still showing final, the mover waits.
        cfg = self._config(3, [cyc_lights(), cyc_lights(status=STATUS_FINAL), cyc_lights()])
        res = observe(alg_cyclic_cycles(3), cfg, 0, ModelKind.FCOM)
        assert res.light == {} and points_close(res.destination, Point(0, 0))

    def test_mover_returns_and_injects_carry(self):
        lights = [
            cyc_lights(status=STATUS_FINAL),
            cyc_lights(status=STATUS_FINAL, b=1),
            cyc_lights(status=STATUS_FINAL),
        ]
        cfg = self._config(3, lights, mover_at=Point(0.5, 0.0))
        res = observe(alg_cyclic_cycles(3), cfg, 0, ModelKind.FCOM)
        assert res.light == {
            CYC_STATUS: STATUS_CENTER, CYC_B: 0, CYC_CARRY: 1, CYC_SUC_B: 1,
        }
        assert points_close(res.destination, Point(-0.5, 0.0))  # center, in the mover's frame

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counter_follows_reference_counter(self, n):
        algo = alg_cyclic_cycles(n)
        trace = run(cyc_initial_config(n), "fsynch", algo, rounds=30 * 2 ** (n - 1), seed=0)
        seen = []
        for config in trace.configs():
            statuses = [config.light(r).values[CYC_STATUS] for r in range(n)]
            if all(s == STATUS_FINAL for s in statuses):
                bits = [config.light(r).values[CYC_B] for r in range(1, n)]
                value = sum(b << i for i, b in enumerate(bits))
                if not seen or seen[-1] != value:
                    seen.append(value)
        reference = [i % 2 ** (n - 1) for i in range(len(seen))]
        assert seen == reference
        assert len(seen) > 2 ** (n - 1)

    def test_circle_robots_never_move(self):
        trace = run(cyc_initial_config(4), "ssynch", alg_cyclic_cycles(4), rounds=150, seed=2)
        for r in trace.rounds:
            for rid in range(1, 4):
                assert r.config.position(rid) == trace.initial.position(rid)

    def test_initial_config_needs_three_robots(self):
        with pytest.raises(ValueError, match="^cyclic circles needs at least 3 robots$"):
            cyc_initial_config(2)

    def test_d_rel_must_stay_inside_the_circle(self):
        algo = alg_cyclic_cycles(3, d_rel=lambda i: 1.5)
        with pytest.raises(ValueError, match="fraction"):
            run(cyc_initial_config(3), "fsynch", algo, rounds=2, seed=0)


class TestDecode:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_initial_pattern(self, n):
        cfg = cyc_initial_config(n, radius=2.0)
        view = decode_cyc_pattern([p for _, p, _ in cfg.entries], n)
        assert points_close(view.mover, Point(0, 0))
        assert points_close(view.center, Point(0, 0), 1e-9)
        assert view.radius == pytest.approx(2.0, abs=1e-9)
        assert points_close(view.vacancy, Point(2.0, 0.0), 1e-6)
        assert len(view.ring) == n - 1
        # Ring is clockwise from the vacancy: first entry is robot 1's spot.
        assert points_close(view.ring[0], cfg.position(1), 1e-9)

    def test_displaced_mover_still_decodes(self):
        cfg = cyc_initial_config(3)
        pts = [Point(0.5, 0.0)] + [cfg.position(i) for i in (1, 2)]
        view = decode_cyc_pattern(pts, 3)
        assert points_close(view.mover, Point(0.5, 0.0))

    def test_scatter_is_malformed(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 3), Point(7, 2)]
        with pytest.raises(MalformedPatternError):
            decode_cyc_pattern(pts, 4)

    def test_wrong_count_is_malformed(self):
        with pytest.raises(MalformedPatternError):
            decode_cyc_pattern([Point(0, 0)], 3)

    @pytest.mark.parametrize("mover", [Point(0.0, 0.3), Point(-0.3, 0.0)], ids=["beside", "behind"])
    def test_mover_off_the_vacancy_radius_is_malformed(self, mover):
        # The ring alone fits, but the mover is neither at the center nor on
        # the radius toward the vacancy (at angle 0).
        pts = [mover] + [p for _, p, _ in cyc_initial_config(4).entries][1:]
        with pytest.raises(MalformedPatternError, match="^no circle-with-vacancy interpretation fits$"):
            decode_cyc_pattern(pts, 4)

    def test_two_fitting_interpretations_are_ambiguous(self, monkeypatch):
        # No exact geometry is known to fit twice, so every candidate is made
        # to fit: the decoder must refuse to choose.
        import lcmswarm.algorithms as algorithms

        real = algorithms._try_interpretation
        monkeypatch.setattr(
            algorithms, "_try_interpretation",
            lambda mover, circle, center, n: real(mover, circle, center, n)
            or CycView(mover, center, 1.0, center, tuple(circle)),
        )
        pts = [p for _, p, _ in cyc_initial_config(4).entries]
        with pytest.raises(MalformedPatternError, match="^ambiguous circle pattern$"):
            decode_cyc_pattern(pts, 4)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_robots_is_malformed(self, n):
        pts = [Point(0, 0), Point(1, 0)][:n]
        with pytest.raises(MalformedPatternError, match="^cyclic circles needs at least 3 robots$"):
            decode_cyc_pattern(pts, n)


def result_bits(res):
    """A StepResult with its floats as bit patterns, so -0.0 != 0.0."""
    dest = res.destination
    return sorted(res.light.items()), struct.pack("dd", dest.x, dest.y), res.events


def cyc_snapshot(points):
    """An FCOM snapshot of one robot at each point, the observer at the first."""
    observed = [ObservedLocation(p, 1, () if k == 0 else ((0, 0, 0, 0),)) for k, p in enumerate(points)]
    return Snapshot(tuple(observed), None, True)


def kept_results(algo):
    """The step results one cyclic-circles algorithm keeps, by input."""
    return inspect.getclosurevars(algo.step).nonlocals["results"]


class TestCycReadingCache:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_cached_step_bitwise_equals_oracle(self, n):
        # Every robot's snapshot of every configuration of ssynch runs, with
        # identity frames and with seeded rotated and scaled frames (chirality
        # kept), under the default and a count-dependent mover distance.
        rng = random.Random(f"cyc-frames-{n}")

        def varying(count):
            return 0.2 + 0.6 * count / 2 ** (n - 1)

        checked = 0
        for seed, (d_rel, rotated) in enumerate(
            [(None, False), (None, True), (varying, False), (varying, True)]
        ):
            frames = {
                rid: FrameSpec(rng.uniform(-math.pi, math.pi), rng.uniform(0.25, 4.0))
                if rotated else FrameSpec()
                for rid in range(n)
            }
            algo = alg_cyclic_cycles(n, d_rel)
            oracle = oracle_cyc_step(n, d_rel)
            trace = run(cyc_initial_config(n), SSYNCH, algo, rounds=150, seed=seed, frames=frames)
            for config in trace.configs():
                for rid in range(n):
                    spec = frames[rid]
                    frame = LocalFrame(config.position(rid), spec.rotation, spec.scale)
                    snap = snapshot(ModelKind.FCOM, config, rid, frame)
                    assert result_bits(algo.step(snap)) == result_bits(oracle(snap))
                    checked += 1
        assert checked == 4 * 151 * n

    def test_one_geometry_gives_each_counter_value_its_own_target(self):
        # The mover at the center under every counter value, then again in
        # reverse order: one kept reading, a count-dependent target each time.
        n = 4

        def varying(count):
            return 0.2 + 0.6 * count / 2 ** (n - 1)

        algo, oracle = alg_cyclic_cycles(n, varying), oracle_cyc_step(n, varying)
        positions = [p for _, p, _ in cyc_initial_config(n).entries]
        counts = list(range(2 ** (n - 1)))
        for count in counts + counts[::-1]:
            lights = [cyc_lights()] + [cyc_lights(b=(count >> k) & 1) for k in range(n - 1)]
            config = make_configuration(positions, lights, CYC_PALETTE)
            for rid in range(n):
                snap = snapshot(ModelKind.FCOM, config, rid, LocalFrame(positions[rid]))
                assert result_bits(algo.step(snap)) == result_bits(oracle(snap))

    def test_key_tells_negative_zero_apart(self):
        cfg = cyc_initial_config(4)
        pts = [p for _, p, _ in cfg.entries]
        assert pts[0] == Point(0.0, 0.0)
        plus = cyc_snapshot(pts)
        minus = cyc_snapshot([Point(-0.0, 0.0)] + pts[1:])
        assert plus.observed[0].point == minus.observed[0].point
        assert _points_key(plus.observed) != _points_key(minus.observed)

        read = _cyc_reader(4)
        got_plus = read(_points_key(plus.observed))
        got_minus = read(_points_key(minus.observed))
        assert read.cache_info().currsize == 2
        assert math.copysign(1.0, got_plus.view.mover.x) == 1.0
        assert math.copysign(1.0, got_minus.view.mover.x) == -1.0
        for first, second in ((plus, minus), (minus, plus)):
            algo, oracle = alg_cyclic_cycles(4), oracle_cyc_step(4)
            for snap in (first, second):
                assert result_bits(algo.step(snap)) == result_bits(oracle(snap))

    @pytest.mark.parametrize("points,n", [
        ([Point(0, 0)], 3),
        ([Point(0, 0), Point(1, 0), Point(0, 3), Point(7, 2)], 4),
    ], ids=["wrong-count", "scatter"])
    def test_malformed_geometry_raises_every_time_and_is_not_kept(self, points, n):
        snap = cyc_snapshot(points)
        with pytest.raises(MalformedPatternError) as want:
            decode_cyc_pattern(points, n)
        algo = alg_cyclic_cycles(n)
        read = _cyc_reader(n)
        for _ in range(3):
            with pytest.raises(MalformedPatternError) as got:
                algo.step(snap)
            assert str(got.value) == str(want.value)
            with pytest.raises(MalformedPatternError) as got:
                read(_points_key(snap.observed))
            assert str(got.value) == str(want.value)
        assert read.cache_info().currsize == 0

    def test_cache_stays_within_its_bound(self):
        read = _cyc_reader(3)
        assert read.cache_parameters()["maxsize"] == _CYC_READINGS
        base = [p for _, p, _ in cyc_initial_config(3).entries]
        for k in range(_CYC_READINGS + 100):
            shifted = [Point(p.x + k * 1e-3, p.y) for p in base]
            read(_points_key(cyc_snapshot(shifted).observed))
            assert read.cache_info().currsize <= _CYC_READINGS
        info = read.cache_info()
        assert (info.misses, info.currsize) == (_CYC_READINGS + 100, _CYC_READINGS)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_one_instance_over_two_seeds_matches_the_oracle_and_mostly_hits(self, n):
        # The instance runs both seeds and then steps every robot of every
        # configuration again; every result of the second pass is checked.
        algo, oracle = alg_cyclic_cycles(n), oracle_cyc_step(n)
        calls = 0

        def counted(snap):
            nonlocal calls
            calls += 1
            return algo.step(snap)

        counting = dataclasses.replace(algo, step=counted)
        for seed in (3, 4):
            trace = run(cyc_initial_config(n), SSYNCH, counting, rounds=50 * 2 ** (n - 1), seed=seed)
            for config in trace.configs():
                for rid in range(n):
                    snap = snapshot(ModelKind.FCOM, config, rid, LocalFrame(config.position(rid)))
                    got = counted(snap)
                    assert result_bits(got) == result_bits(oracle(snap))
                    assert algo.step(snap) is got  # a hit hands out the kept object
        stored = len(kept_results(algo))
        assert stored < _CYC_STEPS  # never emptied, so each miss stored one result
        assert (calls - stored) / calls > 0.9

    def test_more_patterns_than_the_bound_stay_within_it_and_match_the_oracle(self):
        # Each robot in turn sees the next pattern of the four others' lights
        # (its own it cannot see): the store fills to the bound, is emptied,
        # and refills.
        n = 5
        algo, oracle = alg_cyclic_cycles(n), oracle_cyc_step(n)
        kept = kept_results(algo)
        positions = [p for _, p, _ in cyc_initial_config(n).entries]
        values = list(itertools.product(range(2), repeat=4))
        sizes = []
        for k in range(_CYC_STEPS + 50):
            rid, pattern = k % n, k // n
            digits = [pattern >> 4 * d & 15 for d in range(n - 1)]
            lights = [LightTuple(values[digits.pop()] if r != rid else values[0], CYC_PALETTE)
                      for r in range(n)]
            config = make_configuration(positions, lights, CYC_PALETTE)
            snap = snapshot(ModelKind.FCOM, config, rid, LocalFrame(positions[rid]))
            assert result_bits(algo.step(snap)) == result_bits(oracle(snap))
            sizes.append(len(kept))
        assert sizes[_CYC_STEPS - 1 :] == [_CYC_STEPS] + list(range(1, 51))

    @pytest.mark.parametrize("frac", [1.5, 0.0], ids=["outside", "zero"])
    def test_a_bad_d_rel_raises_every_time_and_keeps_nothing(self, frac):
        n = 4
        algo = alg_cyclic_cycles(n, d_rel=lambda _i: frac)
        config = cyc_initial_config(n)
        for _ in range(3):
            for rid in range(n):
                snap = snapshot(ModelKind.FCOM, config, rid, LocalFrame(config.position(rid)))
                with pytest.raises(ValueError, match="must be a radius fraction in"):
                    algo.step(snap)
        assert kept_results(algo) == {}

    def test_co_located_robots_raise_every_time_and_keep_nothing(self):
        # Once with the same points and lights kept from a valid input, once
        # on a fresh instance: two robots at one location always raise, so
        # the count check must come before any lookup.
        n = 4
        config = cyc_initial_config(n)
        snap = snapshot(ModelKind.FCOM, config, 1, LocalFrame(config.position(1)))
        doubled = snap._replace(observed=(snap.observed[0]._replace(count=2),) + snap.observed[1:])
        warm, fresh = alg_cyclic_cycles(n), alg_cyclic_cycles(n)
        warm.step(snap)
        for algo, size in ((warm, 1), (fresh, 0)):
            for _ in range(3):
                with pytest.raises(MalformedPatternError, match="^cyclic circles expects one robot per location$"):
                    algo.step(doubled)
            assert len(kept_results(algo)) == size


class TestClassify:
    def test_predicates(self):
        assert is_same([4, 4], 4)
        assert not is_same([4, 3], 4)
        assert is_except1([2, 2, 1], 2, 1)
        assert not is_except1([2, 1, 1], 2, 1)
        assert not is_except1([2, 2, 2], 2, 1)


ALPHA, BETA, GAMMA = 0, 1, 2


def scheme_config(steps, flags):
    lights = [LightTuple((s, f), (3, 2)) for s, f in zip(steps, flags)]
    return make_configuration([Point(10.0 * i, 0.0) for i in range(len(steps))], lights)


def scheme_state(config):
    steps = tuple(lt.values[0] for _, _, lt in config.entries)
    flags = tuple(lt.values[1] for _, _, lt in config.entries)
    return steps, flags


class TestFlagScheme:
    def test_react_rules(self):
        scheme = FlagScheme(ALPHA, BETA)
        assert scheme.react([ALPHA, ALPHA], [False, True]) == (ALPHA, True)
        assert scheme.react([ALPHA, ALPHA], [True, True]) == (BETA, True)
        assert scheme.react([BETA, BETA], [False, False]) == (BETA, None)
        assert scheme.react([ALPHA, BETA], [True, True]) == (BETA, None)
        assert scheme.react([ALPHA, GAMMA], [True, True]) == (None, None)

    def test_full_activation_finishes_in_two_rounds(self):
        algo = flag_scheme_algorithm(ALPHA, BETA)
        cfg = scheme_config([ALPHA] * 3, [0] * 3)
        trace = run(cfg, "fsynch", algo, rounds=2, seed=0)
        steps, flags = scheme_state(trace.rounds[1].config)
        assert steps == (BETA,) * 3 and flags == (1,) * 3

    def test_lone_deviant_rejoins(self):
        algo = flag_scheme_algorithm(ALPHA, BETA)
        cfg = scheme_config([GAMMA, ALPHA, ALPHA], [0, 0, 0])
        trace = run(cfg, SchedulePrefix((frozenset({0}),), 3), algo)
        steps, flags = scheme_state(trace.rounds[0].config)
        assert steps == (ALPHA, ALPHA, ALPHA)
        assert flags == (1, 0, 0)

    def test_terminal_class_is_stable(self):
        algo = flag_scheme_algorithm(ALPHA, BETA)
        cfg = scheme_config([BETA] * 3, [1] * 3)
        trace = run(cfg, "fsynch", algo, rounds=3, seed=0)
        for r in trace.rounds:
            assert scheme_state(r.config) == ((BETA,) * 3, (1,) * 3)

    @pytest.mark.parametrize("seed", range(30))
    def test_target_class_reached_under_fair_schedules(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4])
        steps = [ALPHA] * n
        if rng.random() < 0.5:
            steps[rng.randrange(n)] = GAMMA
        window = 2 * n
        horizon = 4 * n * window
        schedule = generate(SSYNCH, n, horizon, seed)
        assert check_fair(schedule, window).ok
        trace = run(scheme_config(steps, [0] * n), schedule, flag_scheme_algorithm(ALPHA, BETA))
        for r in trace.rounds:
            got_steps, got_flags = scheme_state(r.config)
            if all(f == 1 for f in got_flags) and (
                is_same(got_steps, BETA) or is_except1(got_steps, BETA, ALPHA)
            ):
                return
        pytest.fail(f"terminal class not reached within {horizon} rounds")


class TestUtilityAlgorithms:
    def test_stay_stays(self):
        cfg = make_configuration([Point(3, 4), Point(5, 6)])
        trace = run(cfg, "fsynch", alg_stay(), rounds=3, seed=0)
        assert trace.rounds[-1].config == cfg

    def test_move_east_drifts_east(self):
        cfg = make_configuration([Point(0, 0)])
        trace = run(cfg, "fsynch", alg_move_east(), rounds=4, seed=0)
        assert trace.rounds[-1].config.position(0) == Point(4, 0)

    def test_tricolor_cycles_colors(self):
        cfg = make_configuration([Point(0, 0), Point(9, 0)], palette=(3,))
        trace = run(cfg, "fsynch", alg_tricolor(), rounds=3, seed=0)
        assert [c.light(0).values[0] for c in trace.configs()] == [0, 1, 2, 0]

    @pytest.mark.parametrize("host", ["fsynch", "ssynch"])
    @pytest.mark.parametrize("framed", [False, True], ids=["identity", "random-frames"])
    def test_tricolor_counting_lights_seen_writes_the_trace_its_loop_over_observed_wrote(
            self, tmp_path, host, framed):
        def looped(snap: Snapshot) -> StepResult:  # tricolor's step as it read `observed`
            counts = [0, 0, 0]
            for loc in snap.observed:
                for vals in loc.lights or ():
                    counts[vals[0]] += 1
            own = snap.own_light[0] if snap.own_light else 0
            return StepResult(light={0: (own + 1) % 3}, destination=Point(0.05 * counts[0], -0.05 * counts[1]))

        n, rng = 64, random.Random(64)
        positions = [Point(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n - 4)]
        lights = [LightTuple((rng.randrange(3),), (3,)) for _ in range(n)]
        cfg = make_configuration(positions + positions[:4], lights, (3,))  # four co-located pairs
        frames = {rid: FrameSpec(rng.uniform(-math.pi, math.pi), 2.0 ** rng.uniform(-2.0, 2.0))
                  for rid in range(n)} if framed else None
        written = []
        for algo in (alg_tricolor(), dataclasses.replace(alg_tricolor(), step=looped)):
            path = tmp_path / f"{len(written)}.trace"
            write_trace(run(cfg, host, algo, rounds=60, seed=5, frames=frames), str(path))
            written.append(path.read_bytes())
        assert written[0] == written[1]
