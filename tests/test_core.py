import copy
import math
import pickle
import random
import re
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import dataclass_records as old
import lcmswarm.core as core_ns
from lcmswarm.algorithms import alg_tricolor
from lcmswarm.core import (
    ChiralityError,
    Configuration,
    LightTuple,
    LocalFrame,
    ModelKind,
    Multiplicity,
    Point,
    add,
    circular_order,
    from_local,
    make_configuration,
    ObservedLocation,
    order_locations,
    rotate,
    scale,
    snapshot,
    Snapshot,
    sub,
    to_local,
)
from lcmswarm.engine import run


def matrix_oracle(frame: LocalFrame, p: Point) -> tuple[float, float]:
    """Independent 2x2 matrix implementation of the local transform."""
    dx, dy = p.x - frame.origin.x, p.y - frame.origin.y
    c, s = math.cos(-frame.rotation), math.sin(-frame.rotation)
    x = (c * dx - s * dy) / frame.scale
    y = (s * dx + c * dy) / frame.scale
    if frame.reflecting:
        y = -y
    return x, y


def test_to_local_identity_frame():
    frame = LocalFrame(Point(0, 0))
    assert to_local(frame, Point(3, 4)) == Point(3, 4)


def test_to_local_self_is_origin():
    frame = LocalFrame(Point(1, 1))
    assert to_local(frame, Point(1, 1)) == Point(0, 0)


def test_to_local_matches_matrix_oracle():
    frame = LocalFrame(Point(0, 0), rotation=math.pi / 2, scale=2.0)
    got = to_local(frame, Point(2, 0))
    want = matrix_oracle(frame, Point(2, 0))
    assert got.x == pytest.approx(want[0], abs=1e-12)
    assert got.y == pytest.approx(want[1], abs=1e-12)


@given(
    st.floats(-100, 100), st.floats(-100, 100),
    st.floats(-100, 100), st.floats(-100, 100),
    st.floats(-math.pi, math.pi),
    st.floats(0.1, 10),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_frame_round_trip(px, py, ox, oy, rot, scale, reflecting):
    frame = LocalFrame(Point(ox, oy), rot, scale, reflecting)
    p = Point(px, py)
    q = from_local(frame, to_local(frame, p))
    assert abs(q.x - p.x) <= 1e-9 and abs(q.y - p.y) <= 1e-9


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_frame_rejects_bad_scale():
    with pytest.raises(ValueError):
        LocalFrame(Point(0, 0), scale=0.0)


def test_light_tuple_palette_enforced():
    LightTuple((1, 0), (2, 3))
    with pytest.raises(ValueError):
        LightTuple((2, 0), (2, 3))
    with pytest.raises(ValueError):
        LightTuple((0,), (2, 3))


def test_light_tuple_replace_keeps_unassigned():
    lt = LightTuple((1, 2, 0), (2, 3, 2))
    assert lt.replace({1: 0}).values == (1, 0, 0)


def test_configuration_requires_dense_ordered_ids():
    p = Point(0, 0)
    lt = LightTuple((), ())
    with pytest.raises(ValueError):
        Configuration(((1, p, lt), (0, p, lt)))
    with pytest.raises(ValueError):
        Configuration(((0, p, lt), (2, p, lt)))


def _config(positions, lights, palette):
    return make_configuration(
        [Point(*p) for p in positions],
        [LightTuple(v, palette) for v in lights],
        palette,
    )


RED, GREEN, BLUE = (0,), (1,), (2,)
PAL = (3,)


def test_snapshot_lumi_sees_everything():
    cfg = _config([(0, 0), (1, 0)], [RED, BLUE], PAL)
    snap = snapshot(ModelKind.LUMI, cfg, 0, LocalFrame(Point(0, 0)))
    assert snap.own_light == RED
    by_point = {(loc.point.x, loc.point.y): loc.lights for loc in snap.observed}
    assert by_point[(0.0, 0.0)] == (RED,)
    assert by_point[(1.0, 0.0)] == (BLUE,)


def test_snapshot_fcom_omits_own_color():
    cfg = _config([(0, 0), (0, 0), (1, 0)], [RED, GREEN, BLUE], PAL)
    snap = snapshot(ModelKind.FCOM, cfg, 0, LocalFrame(Point(0, 0)))
    assert snap.own_light is None
    by_point = {(loc.point.x, loc.point.y): loc for loc in snap.observed}
    assert by_point[(0.0, 0.0)].lights == (GREEN,)
    assert by_point[(0.0, 0.0)].count == 2
    assert by_point[(1.0, 0.0)].lights == (BLUE,)


def test_snapshot_oblot_positions_only():
    cfg = _config([(0, 0), (0, 0), (1, 0)], [RED, GREEN, BLUE], PAL)
    snap = snapshot(ModelKind.OBLOT, cfg, 0, LocalFrame(Point(0, 0)))
    assert snap.own_light is None
    by_point = {(loc.point.x, loc.point.y): loc for loc in snap.observed}
    assert by_point[(0.0, 0.0)].lights is None
    assert by_point[(0.0, 0.0)].count == 2
    assert by_point[(1.0, 0.0)].count == 1


def test_snapshot_unknown_observer():
    cfg = _config([(0, 0)], [RED], PAL)
    with pytest.raises(ValueError):
        snapshot(ModelKind.LUMI, cfg, 5, LocalFrame(Point(0, 0)))


def test_multiplicity_modes():
    cfg = _config([(0, 0), (0, 0), (0, 0)], [RED, RED, RED], PAL)
    strong = snapshot(ModelKind.OBLOT, cfg, 0, LocalFrame(Point(0, 0)), Multiplicity.STRONG)
    weak = snapshot(ModelKind.OBLOT, cfg, 0, LocalFrame(Point(0, 0)), Multiplicity.WEAK)
    none = snapshot(ModelKind.OBLOT, cfg, 0, LocalFrame(Point(0, 0)), Multiplicity.NONE)
    assert strong.observed[0].count == 3
    assert weak.observed[0].count == 2
    assert none.observed[0].count == 1
    assert strong.multiplicity_visible and weak.multiplicity_visible
    assert not none.multiplicity_visible


@pytest.mark.parametrize("model", [ModelKind.OBLOT, ModelKind.FSTA])
def test_silent_models_blind_to_other_lights(model):
    rng = random.Random(7)
    for _ in range(50):
        positions = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        one = _config(positions, [RED, GREEN, BLUE, RED], PAL)
        two = _config(positions, [RED, BLUE, RED, GREEN], PAL)  # same own light for robot 0
        f = LocalFrame(Point(*positions[0]))
        assert snapshot(model, one, 0, f) == snapshot(model, two, 0, f)


@pytest.mark.parametrize("model, own, others", [
    (ModelKind.OBLOT, False, False),
    (ModelKind.FSTA, True, False),
    (ModelKind.FCOM, False, True),
    (ModelKind.LUMI, True, True),
])
def test_visibility_row_says_which_light_changes_a_robot_sees(model, own, others):
    assert (model.sees_own, model.sees_others) == (own, others)
    assert model.sees_change(0, [0]) == own
    assert model.sees_change(0, [1]) == others
    assert model.sees_change(0, [1, 0]) == (own or others)
    assert model.sees_change(1, [0, 2]) == others


def test_fcom_blind_to_own_light():
    rng = random.Random(8)
    for _ in range(50):
        positions = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        one = _config(positions, [RED, GREEN, BLUE, RED], PAL)
        two = _config(positions, [BLUE, GREEN, BLUE, RED], PAL)  # only robot 0 differs
        f = LocalFrame(Point(*positions[0]))
        assert snapshot(ModelKind.FCOM, one, 0, f) == snapshot(ModelKind.FCOM, two, 0, f)


def angle_sort_oracle(points):
    """Clockwise-from-lexicographic-start ordering, computed independently."""
    cx = sum(p.x for p in points) / len(points)
    cy = sum(p.y for p in points) / len(points)
    start = min(points, key=lambda p: (p.x, p.y))
    a0 = math.atan2(start.y - cy, start.x - cx)
    return sorted(
        points,
        key=lambda p: (a0 - math.atan2(p.y - cy, p.x - cx)) % (2 * math.pi),
    )


def test_circular_order_square_ring():
    pts = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]
    ring = order_locations(pts)
    assert ring.m == 4
    i = ring.index_of(Point(1, 0))
    for _ in range(4):
        i = ring.suc(i)
    assert i == ring.index_of(Point(1, 0))
    # Clockwise neighbor of (0,1) seen from the centroid is (1,0).
    assert ring.locations[ring.suc(ring.index_of(Point(0, 1)))] == Point(1, 0)


def test_circular_order_needs_a_location():
    with pytest.raises(ValueError, match="^need at least one location$"):
        order_locations([])


def test_make_configuration_needs_one_light_per_position():
    with pytest.raises(ValueError, match="^positions and lights differ in length$"):
        make_configuration([Point(0, 0), Point(1, 0)], [LightTuple.off(())])


def test_circular_order_singleton():
    ring = order_locations([Point(5, 5)])
    assert ring.m == 1 and ring.suc(0) == 0 and ring.pred(0) == 0


def test_circular_order_matches_angle_sort_oracle():
    pts = [Point(0, 0), Point(2, 0), Point(1, 3)]
    ring = order_locations(pts)
    assert list(ring.locations) == angle_sort_oracle(pts)


def _cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    doubled = b + b
    return any(a == doubled[i : i + len(a)] for i in range(len(b)))


def test_circular_order_similarity_invariant():
    rng = random.Random(11)
    for _ in range(30):
        pts = []
        while len(pts) < 5:
            p = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            pts.append(p)
        base = order_locations(pts)
        theta = rng.uniform(0, 2 * math.pi)
        k = rng.uniform(0.1, 5)
        c, s = math.cos(theta), math.sin(theta)
        mapped = [Point(k * (c * p.x - s * p.y), k * (s * p.x + c * p.y)) for p in pts]
        moved = order_locations(mapped)
        base_idx = [pts.index(p) for p in base.locations]
        moved_idx = [mapped.index(p) for p in moved.locations]
        assert _cyclic_equal(base_idx, moved_idx)


def test_circular_order_needs_chirality():
    cfg = _config([(0, 0), (1, 0)], [RED, RED], PAL)
    with pytest.raises(ChiralityError):
        circular_order(cfg, chirality=False)
    ring = circular_order(cfg)
    assert ring.m == 2


def test_circular_order_over_locations_not_robots():
    cfg = _config([(0, 0), (0, 0), (1, 0)], [RED, RED, RED], PAL)
    assert circular_order(cfg).m == 2


# --- Look shared across the observers of a round ---------------------------
#
# The two functions below are the original per-observer Look, kept verbatim
# as the oracle: snapshot now groups each configuration once and fuses the
# frame transform, and must still give bit-for-bit the same snapshots.


def seed_to_local(frame: LocalFrame, p: Point) -> Point:
    q = rotate(sub(p, frame.origin), -frame.rotation)
    q = scale(q, 1.0 / frame.scale)
    if frame.reflecting:
        q = Point(q.x, -q.y)
    return q


def seed_snapshot(
    model: ModelKind,
    config: Configuration,
    observer: int,
    frame: LocalFrame,
    multiplicity: Multiplicity = Multiplicity.STRONG,
) -> Snapshot:
    if not 0 <= observer < config.n:
        raise ValueError(f"unknown observer id {observer}")
    own_light = config.light(observer)

    groups: dict[tuple[float, float], list[tuple[int, LightTuple]]] = {}
    for rid, p, lt in config.entries:
        groups.setdefault((p.x, p.y), []).append((rid, lt))

    sees_others = model in (ModelKind.FCOM, ModelKind.LUMI)
    observed = []
    for key, members in groups.items():
        p = Point(key[0], key[1])
        lights: tuple[tuple[int, ...], ...] | None = None
        if sees_others:
            vals = [lt.values for rid, lt in members
                    if not (model is ModelKind.FCOM and rid == observer)]
            lights = tuple(sorted(vals))
        count = len(members)
        if multiplicity is Multiplicity.NONE:
            count = 1
        elif multiplicity is Multiplicity.WEAK:
            count = min(count, 2)
        observed.append(ObservedLocation(seed_to_local(frame, p), count, lights))
    observed.sort(key=lambda loc: (loc.point.x, loc.point.y))

    own = own_light.values if model in (ModelKind.FSTA, ModelKind.LUMI) else None
    return Snapshot(tuple(observed), own, multiplicity is not Multiplicity.NONE)


def bits(snap: Snapshot) -> tuple:
    """A snapshot with every float as its 8 bytes, so -0.0 differs from 0.0."""
    return (
        tuple(
            (struct.pack("dd", loc.point.x, loc.point.y), loc.count, loc.lights)
            for loc in snap.observed
        ),
        snap.own_light,
        snap.multiplicity_visible,
    )


LOOK_PALETTE = (2, 3)
# A small pool, so robots share locations; signed zeros and wide magnitudes.
COORDS = (0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -3.75, 1e300, 123.456, -7e-9)
FRAME_SPECS = [
    (0.0, 1.0, False),
    (math.pi / 2, 1.0, False),
    (math.pi, 1.0, False),
    (-2.4, 1.0, False),
    (0.0, 0.01, False),
    (0.0, 7.5, False),
    (0.0, 1.0, True),
    (1.1, 0.3, True),
    (-math.pi / 4, 1e-3, True),
]


def random_configuration(rng: random.Random) -> Configuration:
    n = rng.randint(1, 7)
    positions = [Point(rng.choice(COORDS), rng.choice(COORDS)) for _ in range(n)]
    if rng.random() < 0.5:
        positions = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(0, n - 1)):
            positions[i] = positions[rng.randrange(n)]  # co-locate
    lights = [
        LightTuple((rng.randrange(2), rng.randrange(3)), LOOK_PALETTE) for _ in range(n)
    ]
    return make_configuration(positions, lights, LOOK_PALETTE)


def look_outcome(look, model, config, observer, frame, multiplicity):
    try:
        return bits(look(model, config, observer, frame, multiplicity))
    except ValueError:
        return "ValueError"


def test_snapshot_bitwise_equals_per_observer_oracle():
    rng = random.Random(2203)
    compared = 0
    for _ in range(60):
        config = random_configuration(rng)
        for observer in range(config.n):
            for rotation, k, reflecting in FRAME_SPECS:
                frame = LocalFrame(config.position(observer), rotation, k, reflecting)
                for model in ModelKind:
                    for multiplicity in Multiplicity:
                        want = look_outcome(seed_snapshot, model, config, observer, frame,
                                            multiplicity)
                        got = look_outcome(snapshot, model, config, observer, frame,
                                           multiplicity)
                        assert got == want, (config, observer, frame, model, multiplicity)
                        compared += 1
    assert compared > 10_000


def test_kept_geometry_serves_a_configuration_whose_lights_alone_changed():
    # snapshot fills an empty geometry list and reads a filled one as is; the
    # engine keeps it across rounds that change only lights.
    rng = random.Random(1106)
    compared = 0
    for _ in range(30):
        config = random_configuration(rng)
        relit = make_configuration(
            [p for _, p, _ in config.entries],
            [LightTuple((rng.randrange(2), rng.randrange(3)), LOOK_PALETTE) for _ in config.entries],
            LOOK_PALETTE,
        )
        for observer in range(config.n):
            for rotation, k, reflecting in FRAME_SPECS:
                frame = LocalFrame(config.position(observer), rotation, k, reflecting)
                for model in ModelKind:
                    geometry = []

                    def kept_look(*args):
                        return snapshot(*args, geometry)

                    for cfg in (config, relit):
                        want = look_outcome(seed_snapshot, model, cfg, observer, frame,
                                            Multiplicity.STRONG)
                        got = look_outcome(kept_look, model, cfg, observer, frame,
                                           Multiplicity.STRONG)
                        assert got == want, (cfg, observer, frame, model)
                        assert len(geometry) == len({(p.x, p.y) for _, p, _ in cfg.entries})
                        compared += want != "ValueError"
    assert compared > 2_000


@pytest.mark.parametrize("rotation", [0.0, math.pi / 4, math.pi])
@pytest.mark.parametrize("reflecting", [False, True])
def test_to_local_bitwise_equals_oracle(rotation, reflecting):
    rng = random.Random(5)
    for _ in range(300):
        origin = Point(rng.choice(COORDS), rng.choice(COORDS))
        p = Point(rng.choice(COORDS + (rng.uniform(-1, 1),)), rng.choice(COORDS))
        frame = LocalFrame(origin, rotation, rng.choice((0.01, 1.0, 3.0)), reflecting)
        got, want = to_local(frame, p), seed_to_local(frame, p)
        assert struct.pack("dd", got.x, got.y) == struct.pack("dd", want.x, want.y)


@pytest.mark.parametrize(
    "position, origin, rotation, k",
    [
        ((1e307, 0.0), (0.0, 0.0), 0.0, 0.01),           # overflows when scaled
        ((1.5e308, 0.0), (-1.5e308, 0.0), 0.0, 1.0),     # overflows when translated
        ((1.7e308, 1.7e308), (0.0, 0.0), math.pi / 4, 1.0),  # overflows when rotated
    ],
)
def test_look_overflow_still_raises(position, origin, rotation, k):
    config = make_configuration([Point(*origin), Point(*position)])
    frame = LocalFrame(Point(*origin), rotation, k)
    for look in (seed_snapshot, snapshot):
        with pytest.raises(ValueError):
            look(ModelKind.OBLOT, config, 0, frame)


def test_look_of_large_but_finite_coordinates_matches_oracle():
    # 1e300 scaled by 1/0.01 is 1e302: finite, so both Looks succeed.
    config = make_configuration([Point(0.0, 0.0), Point(1e300, -0.0)])
    frame = LocalFrame(Point(0.0, 0.0), 0.0, 0.01)
    assert bits(snapshot(ModelKind.OBLOT, config, 0, frame)) == bits(
        seed_snapshot(ModelKind.OBLOT, config, 0, frame)
    )


def test_shared_look_never_serves_a_stale_grouping():
    a = _config([(0, 0), (0, 0), (1, 0), (-2, 3)], [RED, GREEN, BLUE, RED], PAL)
    b = _config([(0, 0), (0, 0), (1, 0), (-2, 3)], [RED, GREEN, GREEN, RED], PAL)  # one light
    a_again = _config([(0, 0), (0, 0), (1, 0), (-2, 3)], [RED, GREEN, BLUE, RED], PAL)
    c = _config([(0, 0), (5, 5), (1, 0), (-2, 3)], [RED, GREEN, BLUE, RED], PAL)
    assert a == a_again and a is not a_again
    for model in (ModelKind.FCOM, ModelKind.LUMI):
        for config in (a, b, a, c, a_again, a, b):
            for observer in range(config.n):
                frame = LocalFrame(config.position(observer), 0.7, 2.0)
                got = snapshot(model, config, observer, frame)
                assert bits(got) == bits(seed_snapshot(model, config, observer, frame))


def test_run_leaves_no_grouping_on_its_configurations():
    rng = random.Random(3)
    positions = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]
    trace = run(make_configuration(positions, palette=(3,)), "fsynch", alg_tricolor(),
                rounds=10, seed=1)
    for config in trace.configs():
        assert vars(config).keys() == {"entries"}


def test_snapshot_tie_break_when_distinct_locations_land_on_one_local_point():
    # A frame of scale 1e300 maps x = -1e-30, 1e-30 and 2e-30 to -0.0, 0.0
    # and 0.0: three distinct global locations, one local point, told apart
    # by their lights and counts.  Ties keep the configuration's order.
    xs = (2e-30, -1e-30, 1e-30)
    for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0)):
        positions = [Point(0.0, -7.0)] + [Point(xs[i], 5.0) for i in order]
        positions.append(positions[1])  # co-located, so counts differ too
        lights = [LightTuple((i % 2, i % 3), LOOK_PALETTE) for i in range(len(positions))]
        config = make_configuration(positions, lights, LOOK_PALETTE)
        for rotation, reflecting in ((0.0, False), (0.0, True), (math.pi, False)):
            frame = LocalFrame(config.position(0), rotation, 1e300, reflecting)
            for model in ModelKind:
                for multiplicity in Multiplicity:
                    got = snapshot(model, config, 0, frame, multiplicity)
                    want = seed_snapshot(model, config, 0, frame, multiplicity)
                    assert bits(got) == bits(want), (order, rotation, reflecting)
                    ties = [loc.point for loc in got.observed if loc.point.y != 0.0]
                    assert len(ties) == 3 and len(set(ties)) == 1
                    if rotation == 0.0:
                        assert len({struct.pack("d", p.x) for p in ties}) == 2  # 0.0 and -0.0


# --- One (x, y) order shared by a configuration's translation-only Looks ----

TWO_53 = 2.0 ** 53


def translation_looks(config, kept=None):
    """Every robot of `config` in turn Looks through its identity frame (a
    rotation of 0.0 or -0.0) under each model, each filling a fresh geometry
    or, with `kept`, reading kept[observer]; each Look must equal the oracle's
    bit for bit, a raise included.  Returns the Looks compared."""
    compared = 0
    for observer in range(config.n):
        frame = LocalFrame(config.position(observer), (0.0, -0.0)[observer % 2])
        for model in ModelKind:
            def look(*args):
                return snapshot(*args, kept[observer] if kept else [])

            want = look_outcome(seed_snapshot, model, config, observer, frame, Multiplicity.STRONG)
            got = look_outcome(look, model, config, observer, frame, Multiplicity.STRONG)
            assert got == want, (config, observer, model)
            compared += 1
    return compared


def lit(positions):
    return make_configuration([Point(*p) for p in positions],
                              [LightTuple((i % 2, i % 3), LOOK_PALETTE) for i in range(len(positions))],
                              LOOK_PALETTE)


def shared_order(config):
    return core_ns._grouping(config).order


def test_translation_looks_share_one_order_bitwise_equal_to_oracle():
    rng = random.Random(3030)
    compared = 0
    for n, together in ((8, 0), (10, 2), (13, 3), (24, 1), (64, 0)):
        positions = [(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n - together)]
        config = lit(positions + positions[:together])  # n robots, at least 8 locations
        compared += translation_looks(config)
        assert isinstance(shared_order(config), tuple), n  # the order was built and served
    assert compared == len(ModelKind) * (8 + 10 + 13 + 24 + 64)


def test_configurations_under_eight_locations_keep_the_sort():
    assert core_ns.SHARED_ORDER_MIN == 8
    rng = random.Random(7)
    for n in range(1, 11):
        positions = [(float(rng.randrange(-50, 50)), rng.uniform(-5, 5)) for _ in range(min(n, 7))]
        config = lit(positions + positions[: n - len(positions)])
        translation_looks(config)
        assert shared_order(config) is None, n


@pytest.mark.parametrize("positions", [
    # Seen from x = -1.0, 2^53 - 1 and 2^53 both land on 2^53: the shared
    # order puts (2^53 - 1, 1.0) first, the sort (2^53, 0.0).
    [(-1.0, 0.0), (TWO_53 - 1.0, 1.0), (TWO_53, 0.0)] + [(float(i), 2.0) for i in range(2, 7)],
    [(TWO_53 - 1.0, 1.0), (TWO_53, 0.0)] + [(float(i), 2.0) for i in range(2, 7)] + [(-1.0, 0.0)],
    # Two robots' locations share an x.
    [(0.0, 1.0), (0.0, -1.0)] + [(float(i), -float(i)) for i in range(1, 8)],
    # -0.0 against 0.0: one x, and signed zeros in every place.
    [(-0.0, 0.0), (0.0, 1.0), (1.0, -0.0), (-1.0, -0.0)] + [(float(i), 0.0) for i in range(2, 6)],
    [(-0.0, -0.0), (1.0, 0.0), (2.0, -0.0), (-3.0, 0.0), (4.0, -0.0), (5.0, 1.0), (6.0, -1.0), (7.0, 0.0)],
    # Past 2^1022: some differences overflow and both Looks raise.
    [(1.5e308, 0.0), (-1.5e308, 1.0)] + [(float(i), 0.0) for i in range(6)],
    [(0.0, 1.5e308), (1.0, -1.5e308)] + [(float(i), 0.0) for i in range(2, 8)],
    # ... and seen from an origin within 2^1022, a key past it overflows.
    [(1.7e308, 0.0), (-4.4e307, 1.0)] + [(i * 1e306, 0.0) for i in range(6)],
    [(0.0, 1.7e308), (1.0, -4.4e307)] + [(float(i), 0.0) for i in range(2, 8)],
    # Past 2^1022 without an overflow.
    [(1e308, 0.0), (9e307, 1.0)] + [(float(i), 0.0) for i in range(6)],
])
def test_translation_looks_at_the_edges_equal_oracle(positions):
    translation_looks(lit(positions))


def test_shared_order_steps_aside_for_ties_and_far_coordinates():
    for positions in ([(0.0, 1.0), (0.0, -1.0)] + [(float(i), 0.0) for i in range(1, 8)],
                      [(5e307, 0.0)] + [(float(i), 0.0) for i in range(8)]):  # 2^1022 < 5e307
        config = lit(positions)
        translation_looks(config)
        assert shared_order(config) is False


def test_a_far_frame_origin_raises_as_the_oracle_does():
    # Every key lies within 2^1022, but seen from x = -1.54e308 only the last
    # overflows, so the translated x values still increase.
    config = lit([(i * 4e306, 0.0) for i in range(8)])
    frame = LocalFrame(Point(-1.54e308, 0.0))
    for _ in range(3):
        assert look_outcome(snapshot, ModelKind.LUMI, config, 0, frame, Multiplicity.STRONG) == "ValueError"
    assert look_outcome(seed_snapshot, ModelKind.LUMI, config, 0, frame, Multiplicity.STRONG) == "ValueError"
    assert isinstance(shared_order(config), tuple)


def test_kept_translation_geometry_serves_a_change_of_lights_only():
    rng = random.Random(30)
    positions = [(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(12)]
    config = lit(positions)
    kept = [[] for _ in positions]
    translation_looks(config, kept)
    assert isinstance(shared_order(config), tuple) and all(len(g) == 12 for g in kept)
    relit = make_configuration([Point(*p) for p in positions],
                               [LightTuple((rng.randrange(2), rng.randrange(3)), LOOK_PALETTE) for _ in positions],
                               LOOK_PALETTE)
    translation_looks(relit, kept)


# --- A Look builds its positions when a step first reads them ----------------

SPREAD = st.sampled_from([0.0, -0.0]) | st.integers(-4, 4).map(float) | st.floats(-50, 50)
# Translation-only in about half the draws; else rotated, scaled or reflecting.
LOOK_FRAMES = st.sampled_from([(0.0, 1.0, False), (-0.0, 1.0, False)]) | st.sampled_from(FRAME_SPECS[1:])


def co_located(p):
    """Robots at p, each zero coordinate of either sign."""
    return st.tuples(*(st.sampled_from([c, -c]) if c == 0 else st.just(c) for c in p))


@st.composite
def spread_configurations(draw, sizes=(8, 16)):
    """8 to 16 locations unless `sizes` says otherwise, signed zeros among
    them, some held by several robots; in about half, no two locations share
    an x, so Looks of at least 8 share an order."""
    same_x_apart = draw(st.booleans())
    places = draw(st.lists(st.tuples(SPREAD, SPREAD), min_size=sizes[0], max_size=sizes[1],
                           unique_by=(lambda p: p[0]) if same_x_apart else (lambda p: p)))
    extra = draw(st.lists(st.sampled_from(places).flatmap(co_located), max_size=6))
    robots = draw(st.permutations(places + extra))
    lights = [LightTuple(draw(st.tuples(st.integers(0, 1), st.integers(0, 2))), LOOK_PALETTE) for _ in robots]
    return make_configuration([Point(*p) for p in robots], lights, LOOK_PALETTE)


@given(spread_configurations(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_look_read_in_either_order_equals_the_oracle_and_fills_its_geometry_once(config, data):
    look_in_either_order(config, data)


@given(spread_configurations(sizes=(1, 7)), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_look_of_fewer_than_8_locations_builds_at_once_and_equals_the_oracle(config, data):
    look_in_either_order(config, data)


def test_a_snapshot_refuses_writes_and_lets_go_of_its_look_once_observed_is_built():
    config = _config([(x, x % 3) for x in range(8)] + [(1, 1)], [RED, GREEN, BLUE] * 3, PAL)
    snap = snapshot(ModelKind.LUMI, config, 0, LocalFrame(config.position(0)))
    for name in ("observed", "own_light", "multiplicity_visible", "lights_seen", "_look", "extra"):
        with pytest.raises(AttributeError):
            setattr(snap, name, None)
        with pytest.raises(AttributeError):
            delattr(snap, name)
    seen = snap.lights_seen
    assert snap._look is not None  # `observed` is still unbuilt
    assert snapshot(ModelKind.LUMI, config, 1, LocalFrame(config.position(1))).lights_seen is seen
    observed = snap.observed
    assert snap._look is None and snap.observed is observed and snap.lights_seen is seen
    with pytest.raises(ValueError, match=re.escape("Got unexpected field names: ['bogus']")):
        snap._replace(bogus=1)
    assert (Snapshot.observed.name, Snapshot.lights_seen.name) == ("observed", "lights_seen")  # read on the class
    assert snap._replace(own_light=None) == (observed, None, True)


def look_in_either_order(config, data):
    """A Look of `config` through a drawn frame, built and read in each order,
    against the oracle.  Of at least 8 locations, a translation-only one
    fills its geometry on the first read of `observed`, and one given a
    filled geometry reads it then; any other Look fills it at once."""
    observer = data.draw(st.integers(0, config.n - 1))
    rotation, k, reflecting = data.draw(LOOK_FRAMES)
    frame = LocalFrame(config.position(observer), rotation, k, reflecting)
    keys = core_ns._grouping(config).keys
    large = len(keys) >= core_ns.SHARED_ORDER_MIN
    deferred = large and (rotation, k, reflecting) == (0.0, 1.0, False)  # the coordinates are within 2^1022
    eager = [(struct.pack("dd", x, y), i) for x, y, i in sorted(core_ns._local_coords(frame, keys))]
    for model in ModelKind:
        for multiplicity in Multiplicity:
            want = bits(seed_snapshot(model, config, observer, frame, multiplicity))
            for first in ("observed", "lights_seen"):
                geometry = []
                snap = snapshot(model, config, observer, frame, multiplicity, geometry)
                assert len(geometry) == (0 if deferred else len(keys))
                if first == "lights_seen":
                    snap.lights_seen
                    assert len(geometry) == (0 if deferred else len(keys))  # no positions read
                assert bits(snap) == want
                assert [(struct.pack("dd", *p), i) for p, i in geometry] == eager
                lights = [t for loc in snap.observed for t in loc.lights or ()]
                derived = tuple(sorted(lights)) if model.sees_others else None
                assert snap.lights_seen == derived == Snapshot(*snap).lights_seen
                assert hash(snap) == hash((snap.observed, snap.own_light, snap.multiplicity_visible))
                again = snapshot(model, config, observer, frame, multiplicity, geometry)
                assert (again._look is not None) == large and bits(again) == want


def seed_from_local(frame: LocalFrame, p: Point) -> Point:
    """The Move transform before it was fused into one expression."""
    q = Point(p.x, -p.y) if frame.reflecting else p
    q = rotate(scale(q, frame.scale), frame.rotation)
    return add(q, frame.origin)


@pytest.mark.parametrize("reflecting", [False, True])
def test_from_local_bitwise_equals_oracle(reflecting):
    rng = random.Random(11)
    rotations = (0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2.4)
    scales = (1.0, 1e-3, 1e-300, 0.37, 1e3, 1e300)
    compared = 0
    for _ in range(2000):
        origin = Point(rng.choice(COORDS + (rng.uniform(-50, 50),)), rng.choice(COORDS))
        rotation = rng.choice(rotations + (rng.uniform(-4, 4),))
        k = rng.choice(scales + (rng.uniform(0.01, 100),))
        frame = LocalFrame(origin, rotation, k, reflecting)
        p = Point(rng.choice(COORDS + (rng.uniform(-2, 2),)), rng.choice(COORDS))
        try:
            want = seed_from_local(frame, p)
        except ValueError:
            with pytest.raises(ValueError):
                from_local(frame, p)
            continue
        got = from_local(frame, p)
        assert struct.pack("dd", got.x, got.y) == struct.pack("dd", want.x, want.y)
        compared += 1
    assert compared > 1000


@pytest.mark.parametrize(
    "p, origin, rotation, k",
    [
        ((1e10, 0.0), (0.0, 0.0), 0.0, 1e300),           # overflows when scaled
        ((1.5e308, 0.0), (1.5e308, 0.0), 0.0, 1.0),      # overflows when translated
        ((1.7e308, 1.7e308), (0.0, 0.0), math.pi / 4, 1.0),  # overflows when rotated
        ((0.0, 1e10), (0.0, 0.0), math.pi / 2, 1e300),   # overflow meets a zero sine
    ],
)
def test_from_local_overflow_still_raises(p, origin, rotation, k):
    frame = LocalFrame(Point(*origin), rotation, k)
    for move in (seed_from_local, from_local):
        with pytest.raises(ValueError, match="non-finite coordinates"):
            move(frame, Point(*p))


# --- The named-tuple records against the dataclasses they replaced ------------

RECORD_KINDS = ("Point", "LocalFrame", "LightTuple", "ObservedLocation", "Snapshot")

any_float = st.floats() | st.integers(-3, 3)  # nan and the infinities included
finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)
multisets = st.none() | st.lists(
    st.lists(st.integers(0, 3), max_size=2).map(tuple), max_size=3
).map(lambda vals: tuple(sorted(vals)))


@st.composite
def light_fields(draw, valid=True):
    palette = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    if valid:
        return tuple(draw(st.integers(0, size - 1)) for size in palette), palette
    values = draw(st.lists(st.integers(-1, 4) | st.sampled_from([0.0, 1.5]), max_size=3))
    return tuple(values), palette


def record_fields(kind, valid=True):
    """A strategy for one record's fields, nested records as field tuples;
    `valid=False` also draws values the record refuses."""
    number = finite if valid else any_float
    point = st.tuples(number, number)
    if kind == "Point":
        return point
    if kind == "LocalFrame":
        scale = st.floats(1e-300, 1e300) if valid else any_float
        return st.tuples(st.tuples(finite, finite), number, scale, st.booleans())
    if kind == "LightTuple":
        return light_fields(valid)
    location = st.tuples(point, st.integers(1, 5), multisets)
    if kind == "ObservedLocation":
        return location
    own = st.none() | st.lists(st.integers(0, 3), max_size=2).map(tuple)
    return st.tuples(st.lists(location, max_size=3).map(tuple), own, st.booleans())


def build(ns, kind, fields, keywords=False):
    """One record of module `ns` (lcmswarm.core or dataclass_records)."""
    cls = getattr(ns, kind)
    if kind in ("LocalFrame", "ObservedLocation"):
        fields = (ns.Point(*fields[0]),) + fields[1:]
    elif kind == "Snapshot":
        fields = (tuple(build(ns, "ObservedLocation", f) for f in fields[0]),) + fields[1:]
    if keywords:
        return cls(**dict(zip(cls.__match_args__, fields)))
    return cls(*fields)


def outcome(ns, kind, fields):
    try:
        return repr(build(ns, kind, fields))
    except ValueError as exc:  # the exact message is the contract
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", RECORD_KINDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_records_accept_refuse_and_repr_as_the_dataclasses_did(kind, data):
    fields = data.draw(record_fields(kind, valid=False))
    assert outcome(core_ns, kind, fields) == outcome(old, kind, fields)


@pytest.mark.parametrize("kind", RECORD_KINDS)
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_records_hash_compare_copy_and_freeze_as_the_dataclasses_did(kind, data):
    a = data.draw(record_fields(kind))
    b = data.draw(st.just(a) | record_fields(kind))
    new_a, old_a = build(core_ns, kind, a), build(old, kind, a)
    new_b, old_b = build(core_ns, kind, b), build(old, kind, b)
    assert repr(new_a) == repr(old_a)
    assert hash(new_a) == hash(old_a)
    assert (new_a == new_b, new_a != new_b) == (old_a == old_b, old_a != old_b)
    assert repr(build(core_ns, kind, a, keywords=True)) == repr(old_a)
    for rec, twin in ((new_a, old_a), (old_a, new_a)):
        for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert type(clone) is type(rec) and clone == rec and repr(clone) == repr(twin)
        field = type(rec).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)
    with pytest.raises(AttributeError):  # the dataclasses raised TypeError here
        new_a.extra = 1


@given(record_fields("LightTuple"), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_light_tuple_methods_as_the_dataclass_did(fields, data):
    values, palette = fields
    new_lt, old_lt = LightTuple(values, palette), old.LightTuple(values, palette)
    assert repr(LightTuple.off(palette)) == repr(old.LightTuple.off(palette))
    idx = data.draw(st.sampled_from(range(len(palette)))) if palette else None
    assignments = {} if idx is None else {idx: data.draw(st.integers(0, palette[idx] - 1))}
    assert repr(new_lt.replace(assignments)) == repr(old_lt.replace(assignments))


@given(record_fields("Snapshot"), st.tuples(finite, finite), st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_snapshot_methods_as_the_dataclass_did(fields, xy, tol):
    new_snap, old_snap = build(core_ns, "Snapshot", fields), build(old, "Snapshot", fields)
    assert repr(new_snap.others()) == repr(old_snap.others())
    assert repr(new_snap.location_at(Point(*xy), tol)) == repr(
        old_snap.location_at(old.Point(*xy), tol))
    assert repr(new_snap.location_at(Point(*xy))) == repr(old_snap.location_at(old.Point(*xy)))


def test_local_frame_defaults_as_the_dataclass_did():
    frame, was = LocalFrame(Point(1.0, -2.0)), old.LocalFrame(old.Point(1.0, -2.0))
    assert repr(frame) == repr(was)
    assert (frame.rotation, frame.scale, frame.reflecting) == (0.0, 1.0, False)
    assert repr(LocalFrame(origin=Point(0, 0), scale=2.0)) == repr(
        old.LocalFrame(origin=old.Point(0, 0), scale=2.0))


@given(st.sampled_from(RECORD_KINDS), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_record_is_the_tuple_of_its_fields(kind, data):
    # The deliberate difference: a record equals, hashes, unpacks and orders
    # as the plain tuple of its fields; a dataclass equalled only its kind.
    raw = data.draw(record_fields(kind))
    rec, was = build(core_ns, kind, raw), build(old, kind, raw)
    fields = tuple(getattr(rec, name) for name in type(rec).__match_args__)
    assert rec == fields and hash(rec) == hash(fields) and not rec != fields
    assert (*rec,) == fields and len(rec) == len(fields)
    assert was != tuple(getattr(was, name) for name in type(was).__match_args__)
    x, y = Point(1.0, 2.0)
    assert (x, y) == (1.0, 2.0)
    assert sorted([Point(1.0, 0.0), Point(0.0, 5.0), Point(0.0, -1.0)]) == [
        (0.0, -1.0), (0.0, 5.0), (1.0, 0.0)]


def test_a_bool_is_not_a_color():
    assert old.LightTuple((True,), (2,)).values == (True,)  # the dataclass took it
    with pytest.raises(ValueError, match=r"^color True outside palette of size 2$"):
        LightTuple((True,), (2,))
    with pytest.raises(ValueError, match=r"^color False outside palette of size 2$"):
        LightTuple((0, False), (2, 2))


def test_an_unchecked_configuration_keeps_no_instance_dict():
    # A Configuration whose field is set without reading __dict__ shares its
    # class's key table: 88.5 B an object on Python 3.11 against 152.6 B with
    # a materialised dict.  check_cyc still keeps its reading in __dict__.
    entries = make_configuration([Point(0.0, 0.0), Point(1.0, 0.0)]).entries
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = [core_ns._configuration(entries) for _ in range(10_000)]
        per_object = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_object < 120, per_object
    config = kept[0]
    assert config.entries is entries and config == Configuration(entries)
    config.__dict__["_cyc"] = "reading"
    assert config._cyc == "reading" and config.entries is entries
