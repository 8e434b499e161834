"""Point, LocalFrame, LightTuple, ObservedLocation and Snapshot as they were
before they became named tuples: frozen slotted dataclasses, copied verbatim
from lcmswarm.core.  tests/test_core.py holds the named tuples to the contract
these define.  The module keeps the class names, so reprs and pickles compare
as they are."""

import math
from dataclasses import dataclass

from lcmswarm.core import POSITION_TOLERANCE, points_close


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y})")


ORIGIN = Point(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class LocalFrame:
    """A robot's private coordinate system.

    The origin is the observing robot's current position; rotation, scale and
    handedness are fixed per robot for the whole execution (fixed
    disorientation).  When system-wide chirality holds, every frame must be
    orientation-preserving (reflecting=False).
    """

    origin: Point
    rotation: float = 0.0
    scale: float = 1.0
    reflecting: bool = False

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"frame scale must be positive, got {self.scale}")
        if not math.isfinite(self.rotation):
            raise ValueError("frame rotation must be finite")


@dataclass(frozen=True, slots=True)
class LightTuple:
    """Joint value of a robot's declared light variables.

    values[i] is the color index of variable i and must lie in
    range(palette[i]).  An empty palette (one total color) carries no
    information and behaves like an unlit OBLOT robot.
    """

    values: tuple[int, ...]
    palette: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.palette):
            raise ValueError("light tuple arity does not match palette")
        for v, size in zip(self.values, self.palette):
            if not (isinstance(v, int) and 0 <= v < size):
                raise ValueError(f"color {v} outside palette of size {size}")

    @classmethod
    def off(cls, palette: tuple[int, ...]) -> "LightTuple":
        return cls((0,) * len(palette), palette)

    def replace(self, assignments: dict[int, int]) -> "LightTuple":
        """Return a copy with the given variables reassigned; others persist."""
        vals = list(self.values)
        for idx, v in assignments.items():
            vals[idx] = v
        return LightTuple(tuple(vals), self.palette)


@dataclass(frozen=True, slots=True)
class ObservedLocation:
    """One occupied location as seen by an observer, in its local frame.

    `lights` is a sorted multiset of light value-tuples, or None for models
    that cannot see other robots' lights.  `count` is the position
    multiplicity (subject to the snapshot's multiplicity mode).
    """

    point: Point
    count: int
    lights: tuple[tuple[int, ...], ...] | None


@dataclass(frozen=True, slots=True)
class Snapshot:
    """A robot's model-filtered, locally-framed view of the configuration.

    The observer always sees itself at the local origin.  Its model's
    ModelKind row says which lights it sees: own_light, else None; and each
    location's multiset, else None, holding its own light only if it sees it.
    """

    observed: tuple[ObservedLocation, ...]
    own_light: tuple[int, ...] | None
    multiplicity_visible: bool

    def location_at(self, p: Point, tol: float = POSITION_TOLERANCE) -> ObservedLocation | None:
        for loc in self.observed:
            if points_close(loc.point, p, tol):
                return loc
        return None

    def others(self) -> tuple[ObservedLocation, ...]:
        """Observed locations excluding the local origin."""
        return tuple(loc for loc in self.observed if not points_close(loc.point, ORIGIN))
