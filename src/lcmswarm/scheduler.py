"""Activation-set sequences and their per-scheduler validity rules.

Covers validity checking for five scheduler kinds, the energy ledger of
one-cycle-per-charge robots, the mapping that deletes forced idle rounds,
a bounded-window fairness proxy, and seeded schedule generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FSYNCH = "fsynch"
SSYNCH = "ssynch"
RSYNCH = "rsynch"
ROUND_ROBIN = "round-robin"
ENERGY_RESTRICTED = "energy-restricted-ssynch"

KIND_NAMES = (FSYNCH, SSYNCH, RSYNCH, ROUND_ROBIN, ENERGY_RESTRICTED)


@dataclass(frozen=True)
class SchedulerKind:
    """A scheduler family; round-robin additionally carries its partition."""

    name: str
    blocks: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown scheduler kind {self.name!r}")
        if self.blocks is not None:
            if self.name != ROUND_ROBIN:
                raise ValueError("only round-robin takes partition blocks")
            if len(self.blocks) < 2:
                raise ValueError("round-robin needs a period of at least two blocks")
            if any(not b for b in self.blocks):
                raise ValueError("round-robin blocks must be nonempty")
            union: set[int] = set()
            for b in self.blocks:
                if union & b:
                    raise ValueError("round-robin blocks must be pairwise disjoint")
                union |= b


def round_robin(blocks) -> SchedulerKind:
    return SchedulerKind(ROUND_ROBIN, tuple(frozenset(b) for b in blocks))


@dataclass(frozen=True)
class SchedulePrefix:
    """Finite prefix of an activation sequence; sets[i] activates in round i+1."""

    sets: tuple[frozenset[int], ...]
    n: int

    def __post_init__(self):
        for i, s in enumerate(self.sets):
            for rid in s:
                if not 0 <= rid < self.n:
                    raise ValueError(f"round {i + 1}: member id {rid} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def all_robots(self) -> frozenset[int]:
        return frozenset(range(self.n))


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    round: int | None = None  # 1-based first violating round
    rule: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class EnergyLedger:
    """Per-round sets of full-energy robots.

    charged[i] is the set before round i+1 is scheduled: all robots start
    charged, an activated robot depletes for exactly one round, and an idle
    robot is (re)charged the following round.  There is one more entry than
    rounds, covering the state after the last round.
    """

    charged: tuple[frozenset[int], ...]
    violations: tuple[tuple[int, str], ...]  # (round, rule)

    def before_round(self, i: int) -> frozenset[int]:
        """Charged set at the start of 1-based round i."""
        return self.charged[i - 1]


@dataclass(frozen=True)
class FairnessReport:
    ok: bool
    window: int
    violations: tuple[tuple[int, int, int], ...]  # (robot, gap, round observed)


_NOBODY: frozenset[int] = frozenset()


def _barred(name: str, prev: frozenset[int], full: frozenset[int]) -> frozenset[int]:
    """The robots family `name` bars from the round after set `prev` (empty
    before round 1): energy-restricted bars the robots that just acted, which
    have no charge left, and rsynch bars them once its full prefix is over;
    ssynch and fsynch bar nobody."""
    if prev and (name == ENERGY_RESTRICTED or (name == RSYNCH and prev != full)):
        return prev
    return _NOBODY


def _broken_rule(name: str, e: frozenset[int], prev: frozenset[int], full: frozenset[int]) -> str | None:
    """The rule activation set `e` breaks in the round after `prev` under any
    family but round-robin, or None."""
    if name == FSYNCH:
        return None if e == full else "not-full-set"
    barred = _barred(name, prev, full)
    if name == ENERGY_RESTRICTED:
        if e & barred:
            return "depleted-robot-activated"
        return "idle-while-charged" if not e and barred != full else None
    if not e:
        return "empty-set"
    if e & barred:
        return "full-set-after-partial" if e == full else "overlap-consecutive"
    return None


def energy_ledger(prefix: SchedulePrefix) -> EnergyLedger:
    """Unroll the charge recurrence; flag rounds that activate depleted robots."""
    full = prefix.all_robots
    charged = [full]
    violations = []
    for i, e in enumerate(prefix.sets, start=1):
        if not e <= charged[-1]:
            violations.append((i, "depleted-robot-activated"))
        charged.append(full - _barred(ENERGY_RESTRICTED, e, full))
    return EnergyLedger(tuple(charged), tuple(violations))


def validate(prefix: SchedulePrefix, kind: SchedulerKind | str) -> ValidityReport:
    """Check a prefix against a scheduler family; report the first violation.

    Round-robin's period is its kind's blocks, or else the shortest head of
    the prefix that partitions the swarm; every other family checks each
    round against the one before."""
    if isinstance(kind, str):
        kind = SchedulerKind(kind)
    if prefix.n < 1:
        raise ValueError("need at least one robot")
    full = prefix.all_robots
    sets = prefix.sets
    period = kind.blocks
    if kind.name == ROUND_ROBIN and period is None:
        period = next((h for p in range(2, len(sets) + 1) if all(h := sets[:p])
                       and sum(map(len, h)) == prefix.n and frozenset().union(*h) == full), None)
        if period is None:
            return ValidityReport(False, 1, "no-partition-period")
    elif period is not None and frozenset().union(*period) != full:
        return ValidityReport(False, 1, "blocks-do-not-cover")
    prev = _NOBODY
    for i, e in enumerate(sets):
        if period:
            rule = "period-mismatch" if e != period[i % len(period)] else None
        else:
            rule = _broken_rule(kind.name, e, prev, full)
        if rule:
            return ValidityReport(False, i + 1, rule)
        prev = e
    return ValidityReport(True)


def phi(prefix: SchedulePrefix) -> SchedulePrefix:
    """Delete the forced idle rounds of an energy-restricted prefix.

    The result is always valid under the restricted-repetition scheduler:
    leading full-swarm sets (each followed by a deleted forced-idle round)
    and a tail of nonempty sets with consecutive sets disjoint.
    """
    report = validate(prefix, ENERGY_RESTRICTED)
    if not report:
        raise ValueError(
            f"prefix invalid under energy restriction: {report.rule} at round {report.round}"
        )
    return SchedulePrefix(tuple(e for e in prefix.sets if e), prefix.n)


def check_fair(prefix: SchedulePrefix, window: int) -> FairnessReport:
    """Bounded-window fairness proxy.

    Flags every robot whose gap between consecutive activations, since the
    start, or through the end of the prefix exceeds `window` rounds.
    Fairness of an infinite sequence is undecidable from a prefix; this is
    the explicit finite surrogate used everywhere in the harness.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    last = {r: 0 for r in range(prefix.n)}
    violations = []
    for i, e in enumerate(prefix.sets, start=1):
        for r in sorted(e):
            gap = i - last[r]
            if gap > window:
                violations.append((r, gap, i))
            last[r] = i
    end = len(prefix.sets)
    for r in range(prefix.n):
        gap = end - last[r]
        if gap > window:
            violations.append((r, gap, end))
    return FairnessReport(not violations, window, tuple(violations))


def default_fairness_window(n: int) -> int:
    return 2 * n


def generate(
    kind: SchedulerKind | str,
    n: int,
    rounds: int,
    seed: int,
) -> SchedulePrefix:
    """Deterministically generate a valid activation prefix.

    Random generators force-include any robot approaching the default
    fairness window, so their output is always fair with window <= 2n.
    """
    if isinstance(kind, str):
        kind = SchedulerKind(kind)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 1:
        raise ValueError("need at least one robot")
    rng = random.Random(seed)
    full = frozenset(range(n))
    window = default_fairness_window(n)

    # A nonempty proper subset of a single robot cannot exist, so the only
    # rsynch prefixes for n = 1 activate the full swarm forever.
    if kind.name == FSYNCH or (kind.name == RSYNCH and n == 1):
        return SchedulePrefix((full,) * rounds, n)

    if kind.name == ROUND_ROBIN:
        if kind.blocks is None:
            raise ValueError("round-robin generation requires partition blocks")
        if frozenset().union(*kind.blocks) != full:
            raise ValueError("round-robin blocks must cover the whole swarm")
        p = len(kind.blocks)
        return SchedulePrefix(tuple(kind.blocks[i % p] for i in range(rounds)), n)

    # ssynch samples from the whole swarm, the other two families from the
    # robots their previous draw does not bar.  That pool is empty only after
    # an energy-restricted full activation, which forces an idle round.
    rsynch = kind.name == RSYNCH
    everyone = list(range(n)) if kind.name == SSYNCH else None
    p_full = min(rng.choice([0, 0, 1, 2, rng.randint(0, rounds)]), rounds) if rsynch else 0
    sets = [full] * p_full
    last = [p_full] * n
    prev = frozenset()
    for i in range(p_full + 1, rounds + 1):
        pool = everyone or sorted(full - _barred(kind.name, prev, full))
        s = set(rng.sample(pool, rng.randint(1, len(pool)))) if pool else set()
        s |= {r for r in pool if i - last[r] >= window}
        if rsynch and len(s) == n:
            removable = sorted(r for r in s if i - last[r] < window)
            s.discard(removable[0] if removable else min(s))
        for r in s:
            last[r] = i
        prev = frozenset(s)
        sets.append(prev)
    return SchedulePrefix(tuple(sets), n)


def write_schedule(prefix: SchedulePrefix, kind_name: str, path: str) -> None:
    """Write a schedule file: header line, then one activation set per line."""
    lines = [f"n={prefix.n} kind={kind_name}"]
    for e in prefix.sets:
        lines.append(" ".join(str(r) for r in sorted(e)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_schedule(path: str) -> tuple[SchedulePrefix, str]:
    """Parse a schedule file; an empty line denotes an empty activation set."""
    with open(path) as fh:
        raw = fh.read().split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise ValueError(f"{path}:1: missing schedule header")
    fields = dict(tok.split("=", 1) for tok in raw[0].split() if "=" in tok)
    if "n" not in fields or "kind" not in fields:
        raise ValueError(f"{path}:1: header must declare n=<count> kind=<scheduler>")
    n = int(fields["n"]) if fields["n"].isdecimal() else 0
    if n < 1:
        raise ValueError(f"{path}:1: bad schedule header: n must be a positive integer, got {fields['n']!r}")
    sets = []
    for lineno, line in enumerate(raw[1:], start=2):
        try:
            e = frozenset(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad robot id: {exc}") from exc
        bad = [rid for rid in e if not 0 <= rid < n]
        if bad:
            raise ValueError(f"{path}:{lineno}: member id {min(bad)} out of range for n={n}")
        sets.append(e)
    return SchedulePrefix(tuple(sets), n), fields["kind"]
