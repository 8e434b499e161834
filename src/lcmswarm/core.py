"""Geometry, light domains, configurations and per-model snapshot semantics.

Everything here is an immutable value; all operations are pure functions.
Positions are double-precision; POSITION_TOLERANCE is the default equality
tolerance used by checkers throughout the package.

Point, LocalFrame, LightTuple and ObservedLocation are named tuples: each
checks its fields in __new__ (namedtuple's _make and _replace skip it), and
the package's hot paths build them with one tuple.__new__ call.  Their repr
and hash are those of a frozen dataclass of the same fields, but a record
also equals the plain tuple of its fields, unpacks into them, and orders like
that tuple.  Snapshot is the same record but for order and indexing, and a
large Look builds its `observed` tuple only when a step reads it.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import lt as _lt

POSITION_TOLERANCE = 1e-9

TWO_PI = 2.0 * math.pi


class ModelKind(Enum):
    """Robot capability model, weakest first: (name, sees own light, sees others' lights)."""

    OBLOT = "OBLOT", False, False  # oblivious and silent
    FSTA = "FSTA", True, False     # internal light only (finite-state)
    FCOM = "FCOM", False, True     # external light only (finite-communication)
    LUMI = "LUMI", True, True      # full visible persistent light

    def __new__(cls, value: str, sees_own: bool, sees_others: bool):
        model = object.__new__(cls)
        model._value_, model.sees_own, model.sees_others = value, sees_own, sees_others
        return model

    def sees_change(self, rid: int, lit: list[int]) -> bool:
        """Whether robot `rid` sees a change of the lights of the distinct robots in `lit`."""
        return self.sees_others and len(lit) > (rid in lit) or self.sees_own and rid in lit


class Multiplicity(Enum):
    """How much co-location information a snapshot reveals."""

    STRONG = "strong"  # exact robot counts per location
    WEAK = "weak"      # counts clamped to "one" or "more than one"
    NONE = "none"      # locations only


class ChiralityError(ValueError):
    """Raised when an operation requiring chirality is invoked without it."""


_tnew = tuple.__new__
_onew, _oset = object.__new__, object.__setattr__
_isfinite = math.isfinite


class Point(namedtuple("Point", "x y")):
    __slots__ = ()

    def __new__(cls, x: float, y: float) -> Point:
        if not (_isfinite(x) and _isfinite(y)):
            raise ValueError(f"non-finite coordinates: ({x}, {y})")
        return _tnew(cls, (x, y))


ORIGIN = Point(0.0, 0.0)


def _point(x: float, y: float) -> Point:
    """Point(x, y) without the class call: the same check, one tuple.__new__."""
    if not (_isfinite(x) and _isfinite(y)):
        raise ValueError(f"non-finite coordinates: ({x}, {y})")
    return _tnew(Point, (x, y))


def add(p: Point, q: Point) -> Point:
    return Point(p.x + q.x, p.y + q.y)


def sub(p: Point, q: Point) -> Point:
    return Point(p.x - q.x, p.y - q.y)


def scale(p: Point, k: float) -> Point:
    return Point(p.x * k, p.y * k)


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def rotate(p: Point, angle: float, about: Point = ORIGIN) -> Point:
    """Rotate p by `angle` radians (counterclockwise positive) about a point."""
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p.x - about.x, p.y - about.y
    return Point(about.x + c * dx - s * dy, about.y + s * dx + c * dy)


def points_close(p: Point, q: Point, tol: float = POSITION_TOLERANCE) -> bool:
    return abs(p.x - q.x) <= tol and abs(p.y - q.y) <= tol


class LocalFrame(namedtuple("LocalFrame", "origin rotation scale reflecting")):
    """A robot's private coordinate system.

    The origin is the observing robot's current position; rotation, scale and
    handedness are fixed per robot for the whole execution (fixed
    disorientation).  When system-wide chirality holds, every frame must be
    orientation-preserving (reflecting=False).
    """

    __slots__ = ()

    def __new__(
        cls, origin: Point, rotation: float = 0.0, scale: float = 1.0, reflecting: bool = False
    ) -> LocalFrame:
        if not (scale > 0.0 and _isfinite(scale)):
            raise ValueError(f"frame scale must be positive, got {scale}")
        if not _isfinite(rotation):
            raise ValueError("frame rotation must be finite")
        return _tnew(cls, (origin, rotation, scale, reflecting))


def _frame(origin: Point, rotation: float, scale: float, reflecting: bool) -> LocalFrame:
    """LocalFrame unchecked: only for a checked spec."""
    return _tnew(LocalFrame, (origin, rotation, scale, reflecting))


def to_local(frame: LocalFrame, p: Point) -> Point:
    """Express a global point in the frame's coordinates.

    Translate by -origin, rotate by -rotation, scale by 1/scale, then reflect
    across the local x-axis iff the frame is reflecting.  The frame origin
    always maps to (0, 0).
    """
    x, y, _ = _local_coords(frame, (p,))[0]
    return _point(x, y)


def _local_coords(
    frame: LocalFrame, coords: Iterable[tuple[float, float]]
) -> list[tuple[float, float, int]]:
    """to_local over many global (x, y) pairs, as (x, y, index) triples, with
    the frame's trigonometry computed once.

    One fused expression per point: `0.0 +` is the rotation's `about` term,
    which turns -0.0 into 0.0.  Nothing is checked here; an overflow in any
    intermediate stays non-finite until the caller builds the Point.
    """
    ox, oy = frame.origin.x, frame.origin.y
    c, s = math.cos(-frame.rotation), math.sin(-frame.rotation)
    k = 1.0 / frame.scale
    ky = -k if frame.reflecting else k
    return [
        ((0.0 + c * (x - ox) - s * (y - oy)) * k, (0.0 + s * (x - ox) + c * (y - oy)) * ky, i)
        for i, (x, y) in enumerate(coords)
    ]


def from_local(frame: LocalFrame, p: Point) -> Point:
    """Inverse of to_local: map a frame-local point back to global coordinates.

    One fused expression, bit for bit the composition reflect, scale, rotate
    about the origin (`0.0 +`), translate; an overflow in any step stays
    non-finite and raises at the final Point.
    """
    k = frame.scale
    x = p.x * k
    y = (-p.y if frame.reflecting else p.y) * k
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    return _point(0.0 + c * x - s * y + frame.origin.x, 0.0 + s * x + c * y + frame.origin.y)


def _is_color(v, size: int) -> bool:
    """Whether v is a color of a light variable with `size` colors: a plain
    int in range(size), so never a bool, whose trace text is not a number."""
    return type(v) is int and 0 <= v < size


class LightTuple(namedtuple("LightTuple", "values palette")):
    """Joint value of a robot's declared light variables.

    values[i] is the color index of variable i and must lie in
    range(palette[i]).  An empty palette (one total color) carries no
    information and behaves like an unlit OBLOT robot.
    """

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...], palette: tuple[int, ...]) -> LightTuple:
        if len(values) != len(palette):
            raise ValueError("light tuple arity does not match palette")
        for v, size in zip(values, palette):
            if not _is_color(v, size):
                raise ValueError(f"color {v} outside palette of size {size}")
        return _tnew(cls, (values, palette))

    @classmethod
    def off(cls, palette: tuple[int, ...]) -> LightTuple:
        return cls((0,) * len(palette), palette)

    def replace(self, assignments: dict[int, int]) -> LightTuple:
        """Return a copy with the given variables reassigned; others persist."""
        vals = list(self.values)
        for idx, v in assignments.items():
            vals[idx] = v
        return LightTuple(tuple(vals), self.palette)


def _light(values: tuple[int, ...], palette: tuple[int, ...]) -> LightTuple:
    """LightTuple unchecked: only for values already checked against the palette."""
    return _tnew(LightTuple, (values, palette))


def palette_size(palette: tuple[int, ...]) -> int:
    """Total number of colors a palette can express."""
    total = 1
    for size in palette:
        total *= size
    return total


@dataclass(frozen=True)
class Configuration:
    """Global world state: one (robot id, position, light) entry per robot.

    Robot ids are exactly 0..n-1.  Ids exist only at the harness level;
    algorithms never see them.
    """

    entries: tuple[tuple[int, Point, LightTuple], ...]

    def __post_init__(self):
        ids = [rid for rid, _, _ in self.entries]
        if ids != list(range(len(self.entries))):
            raise ValueError(f"robot ids must be exactly 0..n-1 in order, got {ids}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def position(self, rid: int) -> Point:
        return self.entries[rid][1]

    def light(self, rid: int) -> LightTuple:
        return self.entries[rid][2]


def _configuration(entries: tuple[tuple[int, Point, LightTuple], ...]) -> Configuration:
    """Configuration(entries) unchecked: only for ids already 0..n-1 in order."""
    config = _onew(Configuration)
    _oset(config, "entries", entries)  # a write through __dict__ would materialise it
    return config


def make_configuration(
    positions: list[Point] | tuple[Point, ...],
    lights: list[LightTuple] | None = None,
    palette: tuple[int, ...] = (),
) -> Configuration:
    """Build a configuration with ids 0..n-1; lights default to all-off."""
    if lights is None:
        lights = [LightTuple.off(palette) for _ in positions]
    if len(lights) != len(positions):
        raise ValueError("positions and lights differ in length")
    return Configuration(tuple((i, p, lt) for i, (p, lt) in enumerate(zip(positions, lights))))


class ObservedLocation(namedtuple("ObservedLocation", "point count lights")):
    """One occupied location as seen by an observer, in its local frame.

    `lights` is a sorted multiset of light value-tuples, or None for models
    that cannot see other robots' lights.  `count` is the position
    multiplicity (subject to the snapshot's multiplicity mode).
    """

    __slots__ = ()


class _OnFirstRead:
    """A field that its method builds on the first read, and stores under
    its own name in the instance dict, where later reads find it."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = self.build(record)
        _oset(record, self.name, value)
        return value


class Snapshot:
    """A robot's model-filtered, locally-framed view of the configuration.

    The observer always sees itself at the local origin.  Its model's
    ModelKind row says which lights it sees: own_light, else None; and each
    location's multiset, else None, holding its own light only if it sees it.
    The record of these three fields, as the named tuples above are, but it
    neither orders nor indexes: a Look may leave `observed` unbuilt until read.
    """

    __slots__ = ("own_light", "multiplicity_visible", "__dict__")
    __match_args__ = ("observed", "own_light", "multiplicity_visible")
    _look = None  # a deferred Look's columns, until `observed` is built

    def __init__(self, observed, own_light, multiplicity_visible):
        _oset(self, "observed", observed)
        _set_own(self, own_light)
        _set_visible(self, multiplicity_visible)

    @_OnFirstRead
    def observed(self) -> tuple[ObservedLocation, ...]:
        """A deferred Look's locations; the Look's columns then go."""
        value = _observed(*self._look)
        _oset(self, "_look", None)
        return value

    @_OnFirstRead
    def lights_seen(self) -> tuple[tuple[int, ...], ...] | None:
        """Every light value-tuple the observer sees, sorted: the multisets of
        `observed` merged, or None when its model shows no lights.  A
        deferred LUMI Look's is its configuration's, sorted once."""
        look = self._look
        lights = look[1] if look else [loc.lights for loc in self.observed]
        if look and lights is look[3].lights:
            if look[3].seen is None:
                look[3].seen = tuple(sorted([t for ms in lights for t in ms]))
            return look[3].seen
        return None if None in lights else tuple(sorted([t for ms in lights for t in ms]))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"can't set or delete attribute {name!r}")

    __delattr__ = __setattr__

    def __iter__(self):
        return iter((self.observed, self.own_light, self.multiplicity_visible))

    def __len__(self) -> int:
        return 3

    def __eq__(self, other) -> bool:
        return (*self,) == other

    def __hash__(self) -> int:
        return hash((*self,))

    def __repr__(self) -> str:
        return (f"Snapshot(observed={self.observed!r}, own_light={self.own_light!r}, "
                f"multiplicity_visible={self.multiplicity_visible!r})")

    def __reduce__(self):
        return Snapshot, (*self,)

    def _replace(self, **fields) -> Snapshot:
        result = Snapshot(*map(fields.pop, self.__match_args__, self))
        if fields:
            raise ValueError(f"Got unexpected field names: {list(fields)!r}")
        return result

    def location_at(self, p: Point, tol: float = POSITION_TOLERANCE) -> ObservedLocation | None:
        for loc in self.observed:
            if points_close(loc.point, p, tol):
                return loc
        return None

    def others(self) -> tuple[ObservedLocation, ...]:
        """Observed locations excluding the local origin."""
        return tuple(loc for loc in self.observed if not points_close(loc.point, ORIGIN))


# The fields' own setters: the Look's writes, past Snapshot.__setattr__.
_set_own, _set_visible = (Snapshot.__dict__[name].__set__ for name in Snapshot.__slots__[:2])


_PACK_XY = struct.Struct("2d").pack


def _points_key(observed: Sequence[ObservedLocation]) -> bytes:
    """The observed coordinates' bit patterns: 0.0 and -0.0 stay apart."""
    return b"".join([_PACK_XY(loc.point.x, loc.point.y) for loc in observed])


def _key_points(key: bytes) -> list[Point]:
    """The points a _points_key was made from, bit for bit."""
    return [Point(x, y) for x, y in struct.iter_unpack("2d", key)]


def _multiset(members: list[tuple[int, LightTuple]]) -> tuple[tuple[int, ...], ...]:
    """The sorted light values of the robots at one location."""
    if len(members) == 1:
        return (members[0][1].values,)
    return tuple(sorted(lt.values for _, lt in members))


@dataclass(slots=True)
class _Grouping:
    """What every observer of one configuration shares: the occupied
    locations in first-seen order, the robots at each, per location the light
    multiset and the robot count, and whether its Looks may defer their
    positions (see snapshot)."""

    config: Configuration
    keys: list[Point]
    groups: dict[Point, list[tuple[int, LightTuple]]]
    lights: list[tuple[tuple[int, ...], ...]]
    strong: list[int]
    defers: bool
    order: tuple | bool | None = None  # None, () after one fill, then _shared_order(keys)
    seen: tuple | None = None  # its LUMI observers' lights_seen, once one is read


# A frame with rotation 0.0 (either sign), scale 1.0 and no reflection maps
# (x, y) to exactly (x - ox + 0.0, y - oy + 0.0), which keeps the keys' (x, y)
# order while the translated x values stay strictly increasing, so from their
# second fill on, such Looks of one configuration share that order.  Below 8
# locations the build and check cost more than the sort saves: without this
# floor, cyc-n5 ran 7-10 % and sim-n3 1-3 % slower (BENCH_30.json, "floor").
SHARED_ORDER_MIN = 8
_FAR = 2.0 ** 1022  # no difference of two coordinates within it overflows


def _shared_order(keys: list[Point]) -> tuple | bool:
    """The key indices sorted by (x, y) and their x and y columns; False when
    two keys share an x."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    xs, ys = [keys[i].x for i in order], [keys[i].y for i in order]
    return all(map(_lt, xs, xs[1:])) and (order, xs, ys)


# Every observer of a round Looks at the same Configuration object, so its
# grouping is kept in one slot compared by identity: computed once per
# round, and kept past the next configuration looked at only by Snapshots.
_last_grouping: _Grouping | None = None


def _grouping(config: Configuration) -> _Grouping:
    global _last_grouping
    last = _last_grouping  # read once, so a concurrent Look cannot swap it
    if last is None or last.config is not config:
        groups: dict[Point, list[tuple[int, LightTuple]]] = {}
        for rid, p, lt in config.entries:
            groups.setdefault(p, []).append((rid, lt))
        members = groups.values()
        last = _last_grouping = _Grouping(
            config,
            list(groups),
            groups,
            [_multiset(ms) for ms in members],
            [len(ms) for ms in members],
            len(groups) >= SHARED_ORDER_MIN and max(map(abs, chain.from_iterable(groups))) <= _FAR,
        )
    return last


def _observed(counts, lights, geometry: list[tuple[Point, int]], g: _Grouping, frame: LocalFrame):
    """A Look's `observed`, filling an empty `geometry` first (see snapshot)."""
    if not geometry and len(g.keys) >= SHARED_ORDER_MIN and frame[1:] == (0.0, 1.0, False):
        shared = g.order
        if shared == ():
            shared = g.order = g.defers and _shared_order(g.keys)
        elif shared is None:
            g.order = ()
        ox, oy = frame.origin
        if shared and abs(ox) <= _FAR >= abs(oy):
            order, xs, ys = shared
            lx = [x - ox + 0.0 for x in xs]
            if all(map(_lt, lx, lx[1:])):
                geometry += [(_tnew(Point, (x, y - oy + 0.0)), i) for x, y, i in zip(lx, ys, order)]
    if not geometry:
        # Sorting (x, y, first-seen index) gives the stable sort by (x, y),
        # 0.0 == -0.0 ties included, without comparing objects.
        geometry += [(_point(x, y), i) for x, y, i in sorted(_local_coords(frame, g.keys))]
    return tuple([_tnew(ObservedLocation, (pt, counts[i], lights[i])) for pt, i in geometry])


def snapshot(
    model: ModelKind,
    config: Configuration,
    observer: int,
    frame: LocalFrame,
    multiplicity: Multiplicity = Multiplicity.STRONG,
    geometry: list[tuple[Point, int]] | None = None,
) -> Snapshot:
    """Perform the Look of `observer`: positions of all robots mapped through
    to_local, lights filtered per the model's visibility row.  An empty
    `geometry` list is filled with the (local point, grouping index) pairs of
    the occupied locations in `frame`, sorted by point, and a filled one is
    read: it holds while no robot moves, since a change of lights keeps the
    grouping's order.  A non-finite local point raises and fills nothing.

    A Look of at least SHARED_ORDER_MIN locations, each coordinate within
    _FAR, defers its `observed`, and the fill, to the step's first read of
    it where that cannot fail: when its geometry is filled, or its frame is
    translation-only with its origin within _FAR.  So a step that reads only
    `lights_seen` fills none.  Other Looks fill here, so an overflow raises at
    the Look; a smaller one builds faster here than when first read."""
    if not 0 <= observer < config.n:
        raise ValueError(f"unknown observer id {observer}")
    g = _grouping(config)
    if not model.sees_others:
        lights = [None] * len(g.keys)
    elif model.sees_own:
        lights = g.lights
    else:
        here = config.position(observer)
        members = g.groups[here]
        lights = list(g.lights)
        lights[g.keys.index(here)] = (
            tuple(sorted(lt.values for rid, lt in members if rid != observer))
            if len(members) > 1 else ()
        )
    counts = g.strong
    if multiplicity is not Multiplicity.STRONG:
        counts = [min(c, 2) if multiplicity is Multiplicity.WEAK else 1 for c in counts]
    snap = _onew(Snapshot)
    _set_own(snap, config.light(observer).values if model.sees_own else None)
    _set_visible(snap, multiplicity is not Multiplicity.NONE)
    geometry = [] if geometry is None else geometry
    if g.defers and (geometry or frame[1:] == (0.0, 1.0, False)
                     and abs(frame.origin.x) <= _FAR >= abs(frame.origin.y)):
        _oset(snap, "_look", (counts, lights, geometry, g, frame))
    elif geometry:  # the kept geometry of a small Look, as _observed reads it
        _oset(snap, "observed", tuple([_tnew(ObservedLocation, (pt, counts[i], lights[i])) for pt, i in geometry]))
    else:
        _oset(snap, "observed", _observed(counts, lights, geometry, g, frame))
    return snap


@dataclass(frozen=True)
class CircularOrdering:
    """Clockwise ring over distinct occupied locations.

    Defined only under chirality.  The ring starts at the location that is
    lexicographically smallest in the coordinates it was computed from, which
    makes replays deterministic; only the cyclic structure is meaningful to
    algorithms.
    """

    locations: tuple[Point, ...]

    @property
    def m(self) -> int:
        return len(self.locations)

    def suc(self, i: int) -> int:
        return (i + 1) % self.m

    def pred(self, i: int) -> int:
        return (i - 1) % self.m

    def index_of(self, p: Point, tol: float = POSITION_TOLERANCE) -> int:
        for i, loc in enumerate(self.locations):
            if points_close(loc, p, tol):
                return i
        raise ValueError(f"point ({p.x}, {p.y}) is not an occupied location")


def order_locations(points: list[Point] | tuple[Point, ...]) -> CircularOrdering:
    """Order distinct points clockwise around their centroid.

    The start is the lexicographically smallest point.  A point coinciding
    with the centroid has no defined angle; it is placed right after the
    start (at most one such point can exist).
    """
    locs = list(dict.fromkeys(points))
    if not locs:
        raise ValueError("need at least one location")
    if len(locs) == 1:
        return CircularOrdering((locs[0],))

    cx = sum(p.x for p in locs) / len(locs)
    cy = sum(p.y for p in locs) / len(locs)
    start = min(locs)

    central = [p for p in locs if p == (cx, cy)]
    angular = [p for p in locs if p != (cx, cy)]
    ang = {p: math.atan2(p.y - cy, p.x - cx) for p in angular}
    start_ang = ang[start]

    def clockwise_key(p: Point) -> float:
        # Angular distance travelled clockwise from the start location.
        return (start_ang - ang[p]) % TWO_PI

    ring = sorted(angular, key=clockwise_key)
    if central:
        ring.insert(1, central[0])
    return CircularOrdering(tuple(ring))


def circular_order(config: Configuration, chirality: bool = True) -> CircularOrdering:
    """Unique clockwise ordering of the occupied locations; needs chirality."""
    if not chirality:
        raise ChiralityError("circular ordering is undefined without chirality")
    return order_locations([p for _, p, _ in config.entries])
