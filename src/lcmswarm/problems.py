"""Trace-level checkers for the benchmark problems.

Each checker is a pure fold over a trace and returns a three-way verdict:
ok, reject (with the first violating round), or inconclusive.  Inconclusive
is reserved for liveness-style goals that a finite prefix can neither
establish nor refute.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from .algorithms import (CYC_B, CYC_PALETTE, CYC_STATUS, STATUS_CENTER, STATUS_FINAL, decode_cyc_pattern,
                         mover_distance)
from .core import POSITION_TOLERANCE, Configuration, Point, distance, midpoint, points_close, sub
from .engine import Trace
from .scheduler import INCONCLUSIVE, OK, REJECT, Verdict


def _ok() -> Verdict:
    return Verdict(OK)


def _reject(round_: int, reason: str) -> Verdict:
    return Verdict(REJECT, round_, reason)


def _inconclusive(reason: str) -> Verdict:
    return Verdict(INCONCLUSIVE, None, reason)


def _check_tol(tol: float) -> None:
    """Every checker compares distances against tol, so each refuses one that
    is negative or not finite before reading the trace."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def cog(config: Configuration) -> Point:
    """Center of gravity: the arithmetic mean of all robot positions."""
    if config.n < 1:
        raise ValueError("need at least one robot")
    return Point(
        sum(p.x for _, p, _ in config.entries) / config.n,
        sum(p.y for _, p, _ in config.entries) / config.n,
    )


# ---------------------------------------------------------------------------
# Shrinking rotation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalSquare:
    """The square whose diagonal is the segment between two points; the region
    includes the boundary."""

    a: Point
    b: Point

    def vertices(self) -> tuple[Point, Point, Point, Point]:
        m = midpoint(self.a, self.b)
        hx, hy = (self.b.x - self.a.x) / 2.0, (self.b.y - self.a.y) / 2.0
        return (self.a, Point(m.x - hy, m.y + hx), self.b, Point(m.x + hy, m.y - hx))

    def contains(self, p: Point, tol: float, vs: tuple[Point, ...] | None = None) -> bool:
        """Whether p is in the square, within tol; vs, if given, is vertices()."""
        vs = vs or self.vertices()
        sign = 0
        for i in range(4):
            q, r = vs[i], vs[(i + 1) % 4]
            cross = (r.x - q.x) * (p.y - q.y) - (r.y - q.y) * (p.x - q.x)
            if cross > tol:
                side = 1
            elif cross < -tol:
                side = -1
            else:
                continue
            if sign == 0:
                sign = side
            elif side != sign:
                return False
        return True


def check_sro(trace: Trace, tol: float = POSITION_TOLERANCE) -> Verdict:
    """Every transition between distinct configurations must be a 90 degree
    clockwise equal-length turn or a 45 degree clockwise turn shrunk by
    1/sqrt(2), and both new endpoints must stay inside the square spanned two
    patterns earlier.

    Checking stops once the segment shrinks below 1000*tol of the coordinate
    magnitude: beneath that floor the double grid holding the positions can
    no longer express angles and ratios to the stated tolerance, and the
    spiral has converged for every purpose the tolerance can resolve.
    """
    _check_tol(tol)
    if trace.initial.n != 2:
        raise ValueError("shrinking rotation is a two-robot problem")
    configs = trace.configs()
    grand, last = None, (configs[0].position(0), configs[0].position(1))  # the last two patterns
    for i, c in enumerate(configs[1:], start=1):
        if c is configs[i - 1]:
            continue  # the same configuration again adds no pattern
        a, b = c.position(0), c.position(1)
        pa, pb = last
        ref = max(distance(pa, pb), 1e-300)
        if not (distance(a, pa) > tol * ref or distance(b, pb) > tol * ref):
            continue  # within tol of the last pattern
        v_old = sub(pb, pa)
        v_new = sub(b, a)
        len_old = math.hypot(v_old.x, v_old.y)
        len_new = math.hypot(v_new.x, v_new.y)
        span = max(1.0, abs(pa.x), abs(pa.y), abs(pb.x), abs(pb.y))
        if len_old <= 1000.0 * tol * span:
            return _ok()  # converged below the resolvable scale
        ratio = len_new / len_old
        angle = math.atan2(
            v_old.x * v_new.y - v_old.y * v_new.x, v_old.x * v_new.x + v_old.y * v_new.y
        )
        quarter = abs(angle + math.pi / 2.0) <= tol and abs(ratio - 1.0) <= tol
        eighth = abs(angle + math.pi / 4.0) <= tol and abs(ratio - 1.0 / math.sqrt(2.0)) <= tol
        if not (quarter or eighth):
            return _reject(
                i,
                f"transition is neither a quarter turn nor a shrunk eighth turn "
                f"(angle {angle:.6g}, ratio {ratio:.6g})",
            )
        if grand is not None:
            qa, qb = grand
            square = DiagonalSquare(qa, qb)
            vs, slack = square.vertices(), tol * max(distance(qa, qb), 1.0)
            if not (square.contains(a, slack, vs) and square.contains(b, slack, vs)):
                return _reject(i, "configuration escaped the grandparent square")
        grand, last = last, (a, b)
    return _ok()


# ---------------------------------------------------------------------------
# Cyclic circles.
# ---------------------------------------------------------------------------

# check_cyc's set-up for a trace's last (d_rel, tol), kept as initial.__dict__["_cyc_setup"]; a
# configuration's reading is kept as config.__dict__["_cyc"] = (set-up, reading), valid under it only.
_CycContext = namedtuple("_CycContext", "d_fn tol home mover ring_ids pos_tol view unit")


def _cyc_reading(ctx: _CycContext, config: Configuration) -> str | int | None:
    """A configuration as check_cyc reads it, in one pass where an unmoved robot keeps its very
    point: a reject reason, its label (-1, else the counter value), or None if statuses are mixed."""
    home, mover, pos_tol, entries = ctx.home, ctx.mover, ctx.pos_tol, config.entries
    status, mixed = entries[0][2].values[CYC_STATUS], False
    for rid, p, lt in entries:
        if (q := home[rid]) is not p and rid != mover and not points_close(p, q, pos_tol):
            rid = next(r for r in ctx.ring_ids if not points_close(entries[r][1], home[r], pos_tol))
            return f"circle robot {rid} moved"
        mixed |= lt.values[CYC_STATUS] != status
    if mixed or status not in (STATUS_CENTER, STATUS_FINAL):
        return None
    if status == STATUS_CENTER:
        if not points_close(entries[mover][1], ctx.view.center, pos_tol):
            return "uniform center status while the mover is away from the center"
        return -1
    label = sum(entries[rid][2].values[CYC_B] << j for j, rid in enumerate(ctx.ring_ids))
    view, unit, reach = ctx.view, ctx.unit, ctx.d_fn(label) * ctx.view.radius
    target = Point(view.center.x + reach * unit.x, view.center.y + reach * unit.y)
    if not points_close(entries[mover][1], target, pos_tol):
        return "uniform final status while the mover is off its target"
    return label


def check_cyc(
    trace: Trace,
    n: int,
    d_rel: Callable[[int], float] | None = None,
    tol: float = POSITION_TOLERANCE,
) -> Verdict:
    """Project the trace onto its uniform-status rounds and verify the pattern
    alternation and the counter sequence.

    The circle robots must never move.  Rounds where the status lights are
    mixed are transitional and ignored.  The verdict is ok only after a full
    counter cycle of 2^(n-1) oscillations; a shorter clean prefix is
    inconclusive.
    """
    _check_tol(tol)
    if trace.initial.n != n:
        raise ValueError(f"trace has {trace.initial.n} robots, expected {n}")
    d_fn = d_rel or mover_distance(0.5)
    k = 2 ** (n - 1)
    configs = trace.configs()
    for idx in range(min(k, len(configs))):  # each counter value the trace can reach
        if not 0.0 < (frac := d_fn(idx)) < 1.0:
            raise ValueError(f"d({idx}) = {frac} must be a radius fraction in (0, 1)")
    initial = trace.initial
    ctx = getattr(initial, "_cyc_setup", None)
    if ctx is None or ctx[:2] != (d_fn, tol):
        view = decode_cyc_pattern(home := [p for _, p, _ in initial.entries], n)
        rid_of = {id(p): rid for rid, p, _ in initial.entries}  # the view holds these very points
        ctx = initial.__dict__["_cyc_setup"] = _CycContext(
            d_fn, tol, home, rid_of[id(view.mover)],
            [rid_of[id(p)] for p in view.ring], max(tol, 1e-12) * view.radius, view,
            Point((view.vacancy.x - view.center.x) / view.radius,
                  (view.vacancy.y - view.center.y) / view.radius),
        )
    if trace.header.palette != CYC_PALETTE:
        raise ValueError(f"trace palette {trace.header.palette} differs from "
                         f"the cyclic-cycles palette {CYC_PALETTE}")

    # Labels (a counter index, or -1 for the base pattern) alternate between the base pattern
    # (even places) and counter values (odd places); each new label is checked as it comes.  No
    # label repeats the one before it, so once the even places hold it, the odd places cannot.
    prev = None
    places, last_label = 0, None  # labels so far, and the last one
    for i, config in enumerate(configs):
        if config is prev:  # a round that changed nothing repeats its checks and label
            continue
        prev = config
        kept, label = getattr(config, "_cyc", (None, None))
        if kept is not ctx:
            label = _cyc_reading(ctx, config)
            config.__dict__["_cyc"] = (ctx, label)
        if label is None or label == last_label:
            continue
        if label.__class__ is str:
            return _reject(i, label)
        if places % 2 == 0 and label != -1:
            return _reject(i, "pattern sequence must alternate starting from the base pattern")
        if places % 2 == 1 and label != (places // 2) % k:
            return _reject(i, f"counter showed {label}, expected {(places // 2) % k}")
        places, last_label = places + 1, label
    oscillations = places // 2
    if oscillations >= k:
        return _ok()
    return _inconclusive(f"observed {oscillations} of {k} oscillations")


# ---------------------------------------------------------------------------
# Center-of-gravity expansion.
# ---------------------------------------------------------------------------

_FLOOR_GUARD = 2.0 ** -44  # absorbs mean-of-integers rounding near lattice points


def cge_target_map(a: float, b: float) -> float:
    """Target coordinate: floor(2a - b), guarded against representation error
    when 2a - b sits exactly on a lattice point."""
    v = 2.0 * a - b
    return float(math.floor(v + _FLOOR_GUARD * max(1.0, abs(v))))


def cge_targets(config: Configuration) -> list[Point]:
    c = cog(config)
    return [
        Point(cge_target_map(p.x, c.x), cge_target_map(p.y, c.y))
        for _, p, _ in config.entries
    ]


def check_cge(trace: Trace, tol: float = POSITION_TOLERANCE) -> Verdict:
    """Each robot must move straight to its expansion target and then stop.

    Movement may take several rounds but must stay on the segment from the
    initial position to the target with the remaining distance shrinking; an
    activated robot that idles short of its target is rejected, as is any
    motion after arrival.  Robots still en route at the end of the prefix
    leave the verdict inconclusive.
    """
    _check_tol(tol)
    if trace.initial.n < 2:
        raise ValueError("expansion needs at least 2 robots")
    targets = cge_targets(trace.initial)
    configs = trace.configs()
    n = trace.initial.n

    reached = [False] * n
    remaining = [0.0] * n
    for rid in range(n):
        p0 = trace.initial.position(rid)
        remaining[rid] = distance(p0, targets[rid])
        reached[rid] = remaining[rid] <= tol

    for i, rec in enumerate(trace.rounds, start=1):
        prev = configs[i - 1]
        for rid in range(n):
            p_old, p_new = prev.position(rid), rec.config.position(rid)
            target = targets[rid]
            moved = distance(p_old, p_new)
            if reached[rid]:
                if moved > tol:
                    return _reject(i, f"robot {rid} moved after reaching its target")
                continue
            span = distance(trace.initial.position(rid), target)
            slack = tol * max(span, 1.0)
            detour = distance(trace.initial.position(rid), p_new) + distance(p_new, target) - span
            if detour > slack:
                return _reject(i, f"robot {rid} left the straight segment to its target")
            left = distance(p_new, target)
            if left > remaining[rid] + slack:
                return _reject(i, f"robot {rid} moved away from its target")
            if rid in rec.eset and moved <= tol and left > tol:
                return _reject(i, f"robot {rid} was activated but idled short of its target")
            remaining[rid] = left
            if left <= tol:
                reached[rid] = True
    if all(reached):
        return _ok()
    stragglers = [r for r in range(n) if not reached[r]]
    return _inconclusive(f"robots {stragglers} have not reached their targets")


# ---------------------------------------------------------------------------
# Rendezvous.
# ---------------------------------------------------------------------------

def check_rdv(trace: Trace, tol: float = POSITION_TOLERANCE) -> Verdict:
    """Two robots must meet and never separate afterwards."""
    _check_tol(tol)
    if trace.initial.n != 2:
        raise ValueError("rendezvous is a two-robot problem")
    gathered_at: int | None = None
    for i, config in enumerate(trace.configs()):
        together = distance(config.position(0), config.position(1)) <= tol
        if gathered_at is None:
            if together:
                gathered_at = i
        elif not together:
            return _reject(i, f"robots separated after gathering at round {gathered_at}")
    if gathered_at is None:
        return _inconclusive("robots never gathered within the prefix")
    return _ok()
