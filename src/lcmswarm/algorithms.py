"""Concrete protocols: the two-robot shrinking rotation, the cyclic-circles
counter protocol, the reusable flag-modification transition scheme, and small
utility algorithms for harness tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    ORIGIN,
    Configuration,
    LightTuple,
    ModelKind,
    Point,
    Snapshot,
    _key_points,
    _points_key,
    distance,
    make_configuration,
    midpoint,
    points_close,
    rotate,
    sub,
)
from .engine import Algorithm, StepResult

CLOCKWISE_QUARTER = -math.pi / 2.0


class MalformedPatternError(ValueError):
    """The observed configuration does not match the protocol's pattern."""


# ---------------------------------------------------------------------------
# Shrinking rotation (two oblivious robots).
# ---------------------------------------------------------------------------

def alg_sro() -> Algorithm:
    """Two-robot protocol: rotate 90 degrees clockwise about the midpoint.

    Under full activation both robots swap along a quarter turn of the same
    square; when only one is activated the segment between them turns 45
    degrees clockwise and shrinks by 1/sqrt(2).  Requires chirality and rigid
    movement.
    """

    def step(snap: Snapshot) -> StepResult:
        others = snap.others()
        if len(others) > 1:
            raise MalformedPatternError(
                f"shrinking rotation needs exactly one other robot, saw {len(others) + 1} locations"
            )
        if not others:
            # Numerically co-located (the shrinking spiral collapsed below
            # the double grid): the rotation is undefined, freeze.
            return StepResult()
        m = midpoint(ORIGIN, others[0].point)
        return StepResult(destination=rotate(ORIGIN, CLOCKWISE_QUARTER, about=m))

    return Algorithm(
        "sro", (), step, ModelKind.OBLOT, needs_chirality=True, robot_count=2, rigid=True
    )


# ---------------------------------------------------------------------------
# Cyclic circles: n-1 static robots on a circle with one vacancy drive a
# distributed binary counter; the center robot oscillates once per count.
# ---------------------------------------------------------------------------

CYC_STATUS, CYC_B, CYC_CARRY, CYC_SUC_B = 0, 1, 2, 3
STATUS_CENTER, STATUS_FINAL = 0, 1
CYC_PALETTE = (2, 2, 2, 2)

_DECODE_TOL = 1e-6


@dataclass(frozen=True)
class CycView:
    """A decoded cyclic-circles configuration, in the observer's coordinates.

    ring holds the circle-robot locations clockwise starting from the slot
    right after the vacancy, i.e. ring[i] is robot i+1 of the counter chain.
    """

    mover: Point
    center: Point
    radius: float
    vacancy: Point
    ring: tuple[Point, ...]


def _circumcenter(a: Point, b: Point, c: Point) -> Point | None:
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if abs(d) < 1e-12 * max(1.0, distance(a, b) ** 2):
        return None
    a2, b2, c2 = a.x * a.x + a.y * a.y, b.x * b.x + b.y * b.y, c.x * c.x + c.y * c.y
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    return Point(ux, uy)


def _try_interpretation(mover: Point, circle: list[Point], center: Point, n: int) -> CycView | None:
    radii = [distance(center, p) for p in circle]
    radius = sum(radii) / len(radii)
    if radius <= 0.0 or any(abs(r - radius) > _DECODE_TOL * radius for r in radii):
        return None

    # Clockwise angular gaps must be n-2 slots of 2*pi/n and one double gap
    # holding the vacancy.
    slot = 2.0 * math.pi / n
    by_angle = sorted(circle, key=lambda p: -math.atan2(p.y - center.y, p.x - center.x))
    angles = [math.atan2(p.y - center.y, p.x - center.x) for p in by_angle]
    gaps = []
    for i in range(len(by_angle)):
        nxt = angles[(i + 1) % len(angles)]
        gaps.append((angles[i] - nxt) % (2.0 * math.pi))
    big = [i for i, g in enumerate(gaps) if abs(g - 2.0 * slot) <= _DECODE_TOL]
    small_ok = all(abs(g - slot) <= _DECODE_TOL for i, g in enumerate(gaps) if i not in big)
    if len(big) != 1 or not small_ok:
        return None
    gap_at = big[0]
    vac_angle = angles[gap_at] - slot
    vacancy = Point(center.x + radius * math.cos(vac_angle), center.y + radius * math.sin(vac_angle))
    ring = tuple(by_angle[(gap_at + 1 + i) % len(by_angle)] for i in range(len(by_angle)))

    # The mover must sit on the radius from the center toward the vacancy,
    # strictly inside the circle.
    mv = sub(mover, center)
    dist_m = math.hypot(mv.x, mv.y)
    if dist_m >= radius * (1.0 - _DECODE_TOL):
        return None
    if dist_m > _DECODE_TOL * radius:
        vx, vy = math.cos(vac_angle), math.sin(vac_angle)
        cross = abs(mv.x * vy - mv.y * vx)
        along = mv.x * vx + mv.y * vy
        if cross > _DECODE_TOL * radius or along < 0.0:
            return None
    return CycView(mover, center, radius, vacancy, ring)


def decode_cyc_pattern(points: Sequence[Point], n: int) -> CycView:
    """Identify the mover, circle and counter ring among n observed locations.

    Raises MalformedPatternError unless exactly one interpretation fits.
    """
    if n < 3:
        raise MalformedPatternError("cyclic circles needs at least 3 robots")
    if len(points) != n:
        raise MalformedPatternError(f"expected {n} distinct locations, saw {len(points)}")
    views = []
    for j, mover in enumerate(points):
        circle = [p for i, p in enumerate(points) if i != j]
        centers: list[Point] = []
        if len(circle) >= 3:
            c = _circumcenter(circle[0], circle[1], circle[2])
            if c is not None:
                centers.append(c)
        else:
            # Two circle robots (n=3): both equidistant candidate centers.
            a, b = circle
            chord = distance(a, b)
            if chord > 0.0:
                rad = chord / math.sqrt(3.0)
                h = math.sqrt(max(rad * rad - (chord / 2.0) ** 2, 0.0))
                mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
                nx, ny = -(b.y - a.y) / chord, (b.x - a.x) / chord
                centers.append(Point(mx + h * nx, my + h * ny))
                centers.append(Point(mx - h * nx, my - h * ny))
        for center in centers:
            view = _try_interpretation(mover, circle, center, n)
            if view is not None:
                views.append(view)
    if not views:
        raise MalformedPatternError("no circle-with-vacancy interpretation fits")
    if len(views) > 1:
        raise MalformedPatternError("ambiguous circle pattern")
    return views[0]


def cyc_initial_config(n: int, radius: float = 1.0) -> Configuration:
    """Starting pattern: robot 0 at the center, robots 1..n-1 clockwise on a
    circle whose vacancy sits at angle 0."""
    if n < 3:
        raise ValueError("cyclic circles needs at least 3 robots")
    positions = [Point(0.0, 0.0)]
    for k in range(1, n):
        ang = -2.0 * math.pi * k / n
        positions.append(Point(radius * math.cos(ang), radius * math.sin(ang)))
    return make_configuration(positions, palette=CYC_PALETTE)


@dataclass(frozen=True, slots=True, eq=False)
class _CycReading:
    """What the observed positions alone tell one cyclic-circles observer.

    slots[i] is the index in Snapshot.observed of ring[i], or None for the
    observer's own slot; mover is the mover's index there.
    """

    view: CycView
    pos_tol: float
    slots: tuple[int | None, ...]
    mover: int
    i_am_mover: bool
    mover_at_center: bool
    origin_at_center: bool


# Distinct geometries whose reading one cyclic-circles algorithm keeps.  Over
# 20 seeds of a full counter cycle under ssynch, n=5 sees 38 and n=9 sees 160.
_CYC_READINGS = 1024
# Step results one algorithm keeps; 600 counter cycles at n=5 see 1,545 inputs.
_CYC_STEPS = 4096
_NO_STEP = StepResult()
_FINAL_STEP = StepResult(light={CYC_STATUS: STATUS_FINAL})


def _cyc_reader(n: int) -> Callable[[bytes], _CycReading]:
    """The reading of an n-robot geometry from its _points_key, decoded once
    per distinct key and kept in a bounded cache.  A geometry that does not
    decode raises every time and is not kept."""

    @functools.lru_cache(maxsize=_CYC_READINGS)
    def read_geometry(key: bytes) -> _CycReading:
        pts = _key_points(key)
        view = decode_cyc_pattern(pts, n)
        index = {id(p): k for k, p in enumerate(pts)}
        pos_tol = _DECODE_TOL * view.radius
        return _CycReading(
            view,
            pos_tol,
            tuple(None if points_close(p, ORIGIN, pos_tol) else index[id(p)] for p in view.ring),
            index[id(view.mover)],
            points_close(view.mover, ORIGIN, pos_tol),
            points_close(view.mover, view.center, pos_tol),
            points_close(ORIGIN, view.center, pos_tol),
        )

    return read_geometry


@functools.cache
def mover_distance(frac: float) -> Callable[[int], float]:
    """The mover distance d(idx) = frac at every counter value, one function
    per fraction, so that check_cyc's kept set-up matches it across calls."""
    return lambda _idx: frac


def alg_cyclic_cycles(
    n: int,
    d_rel: Callable[[int], float] | None = None,
) -> Algorithm:
    """Counter-driven oscillation protocol for external-light robots.

    d_rel maps a counter value to the mover's target distance from the
    center, as a fraction of the circle radius in (0, 1); the default is the
    constant 1/2, deliberately non-invertible so the distance alone never
    reveals the count.  The count lives in the circle robots' b bits; each
    robot also displays a carry bit and a copy of its successor's b bit so
    that its successor, unable to see its own light, can still learn it.

    Compute is pure and few inputs recur, so a step looks up its geometry's
    reading (_cyc_reader, hashed by identity), then the result kept for it and
    the light pattern.  Only a miss decides; a raise keeps nothing, and a full
    store (_CYC_STEPS) is emptied.  Results are shared: never mutate one.
    """
    if n < 3:
        raise ValueError("cyclic circles needs at least 3 robots")
    d_fn = d_rel or mover_distance(0.5)
    read_geometry = _cyc_reader(n)

    def final_point(view: CycView, idx: int) -> Point:
        frac = d_fn(idx)
        if not 0.0 < frac < 1.0:
            raise ValueError(f"d({idx}) = {frac} must be a radius fraction in (0, 1)")
        ux = (view.vacancy.x - view.center.x) / view.radius
        uy = (view.vacancy.y - view.center.y) / view.radius
        return Point(view.center.x + frac * view.radius * ux, view.center.y + frac * view.radius * uy)

    results: dict[tuple[_CycReading, tuple], StepResult] = {}
    multisets: dict[tuple, tuple] = {}  # one kept copy of each location's lights

    def decide(reading: _CycReading, lights: tuple) -> StepResult:
        ring_lights = [None if k is None else lights[k][0] for k in reading.slots]

        if reading.i_am_mover:
            statuses = [lt[CYC_STATUS] for lt in ring_lights]
            idx = sum(lt[CYC_B] << k for k, lt in enumerate(ring_lights))
            target = final_point(reading.view, idx)
            at_target = points_close(ORIGIN, target, reading.pos_tol)
            if all(s == STATUS_CENTER for s in statuses) and not at_target:
                return StepResult(light={CYC_STATUS: STATUS_FINAL}, destination=target)
            if all(s == STATUS_FINAL for s in statuses) and not reading.origin_at_center:
                return StepResult(
                    light={
                        CYC_STATUS: STATUS_CENTER,
                        CYC_B: 0,
                        CYC_CARRY: 1,  # carry into the least significant bit
                        CYC_SUC_B: ring_lights[0][CYC_B],
                    },
                    destination=reading.view.center,
                )
            return _NO_STEP

        my_slot = next(k for k, lt in enumerate(ring_lights) if lt is None)
        i = my_slot + 1  # counter chain position, 1-based
        mover_light = lights[reading.mover][0]
        pred_light = mover_light if i == 1 else ring_lights[my_slot - 1]
        suc_light = mover_light if i == n - 1 else ring_lights[my_slot + 1]

        # This robot's own b bit is readable from its predecessor's copy.
        bits = [pred_light[CYC_SUC_B] if k == my_slot else lt[CYC_B]
                for k, lt in enumerate(ring_lights)]
        idx = sum(b << k for k, b in enumerate(bits))
        target = final_point(reading.view, idx)
        mover_at_target = points_close(reading.view.mover, target, reading.pos_tol)

        if mover_at_target and mover_light[CYC_STATUS] == STATUS_FINAL:
            return _FINAL_STEP
        before_center = all(
            lt[CYC_STATUS] == STATUS_CENTER for lt in ring_lights[: my_slot] if lt
        ) and mover_light[CYC_STATUS] == STATUS_CENTER
        after_final = all(
            lt[CYC_STATUS] == STATUS_FINAL for lt in ring_lights[my_slot + 1 :] if lt
        )
        if reading.mover_at_center and before_center and after_final:
            return StepResult(
                light={
                    CYC_B: pred_light[CYC_CARRY] ^ pred_light[CYC_SUC_B],
                    CYC_CARRY: pred_light[CYC_CARRY] & pred_light[CYC_SUC_B],
                    CYC_SUC_B: suc_light[CYC_B],
                    CYC_STATUS: STATUS_CENTER,
                }
            )
        return _NO_STEP

    def step(snap: Snapshot) -> StepResult:
        observed = snap.observed
        if any(loc.count != 1 for loc in observed):
            raise MalformedPatternError("cyclic circles expects one robot per location")
        key = read_geometry(_points_key(observed)), tuple([loc.lights for loc in observed])
        result = results.get(key)
        if result is None:
            result = decide(*key)
            if len(results) >= _CYC_STEPS:
                results.clear()
                multisets.clear()
            results[key[0], tuple([multisets.setdefault(m, m) for m in key[1]])] = result
        return result

    return Algorithm(
        "cyclic-cycles", CYC_PALETTE, step, ModelKind.FCOM,
        needs_chirality=True, robot_count=n, min_robots=3,
    )


# ---------------------------------------------------------------------------
# Step-configuration predicates and the flag-modification scheme.
# ---------------------------------------------------------------------------

def is_same(steps: Sequence[int], alpha: int) -> bool:
    return all(s == alpha for s in steps)


def is_except1(steps: Sequence[int], alpha: int, gamma: int) -> bool:
    return sum(1 for s in steps if s == gamma) == 1 and all(s in (alpha, gamma) for s in steps)


@dataclass(frozen=True)
class FlagScheme:
    """Reusable transition rules moving a swarm from step alpha to step beta
    while raising every robot's flag, correct for robots that cannot see
    their own lights.

    react() takes the step labels and flags of all *other* robots and returns
    the (step, flag) assignments to apply, with None meaning leave unchanged.
    """

    alpha: int
    beta: int

    def react(
        self, others_steps: Sequence[int], others_flags: Sequence[bool]
    ) -> tuple[int | None, bool | None]:
        if all(s == self.alpha for s in others_steps):
            if not all(others_flags):
                return self.alpha, True
            return self.beta, True
        if all(s == self.beta for s in others_steps):
            return self.beta, None
        if all(s in (self.alpha, self.beta) for s in others_steps):
            return self.beta, None
        return None, None


def flag_scheme_algorithm(alpha: int = 0, beta: int = 1, labels: int = 3) -> Algorithm:
    """Standalone external-light protocol running one flag-scheme transition.

    Each robot carries a step label and a boolean flag; from a start class
    same(step=alpha) or except1(step=alpha; gamma != beta) with all flags
    down, any fair schedule drives the swarm to same(step=beta) or
    except1(step=beta; alpha) with all flags up.
    """
    scheme = FlagScheme(alpha, beta)
    palette = (labels, 2)

    def step(snap: Snapshot) -> StepResult:
        steps: list[int] = []
        flags: list[bool] = []
        for loc in snap.observed:
            for vals in loc.lights or ():
                steps.append(vals[0])
                flags.append(bool(vals[1]))
        new_step, new_flag = scheme.react(steps, flags)
        light: dict[int, int] = {}
        if new_step is not None:
            light[0] = new_step
        if new_flag is not None:
            light[1] = int(new_flag)
        return StepResult(light=light)

    return Algorithm("flag-scheme", palette, step, ModelKind.FCOM, min_robots=2)


# ---------------------------------------------------------------------------
# Utility protocols for harness tests.
# ---------------------------------------------------------------------------

def alg_stay() -> Algorithm:
    """Does nothing; useful as a trivial inner protocol."""
    return Algorithm("stay", (), lambda snap: StepResult(), ModelKind.OBLOT)


def alg_move_east() -> Algorithm:
    """Moves one local unit along the local x axis every activation."""
    return Algorithm(
        "move-east", (), lambda snap: StepResult(destination=Point(1.0, 0.0)), ModelKind.OBLOT
    )


def alg_tricolor() -> Algorithm:
    """Three-color visible-light protocol: cycle the own color and drift by an
    offset derived from the colors currently on display."""

    def step(snap: Snapshot) -> StepResult:
        counts = [0, 0, 0]
        for loc in snap.observed:
            for vals in loc.lights or ():
                counts[vals[0]] += 1
        own = snap.own_light[0] if snap.own_light else 0
        dest = Point(0.05 * counts[0], -0.05 * counts[1])
        return StepResult(light={0: (own + 1) % 3}, destination=dest)

    return Algorithm("tricolor", (3,), step, ModelKind.LUMI)
