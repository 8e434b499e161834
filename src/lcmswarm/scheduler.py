"""Activation-set sequences and their per-scheduler validity rules.

Covers validity checking for five scheduler kinds, the energy ledger of
one-cycle-per-charge robots, the mapping that deletes forced idle rounds,
a bounded-window fairness proxy, and seeded schedule generators.  It also
defines `Verdict`, the one result type of every check in the package.
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

OK = "ok"
REJECT = "reject"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """What a check found: ok, reject, or inconclusive (a liveness goal that a
    finite prefix can neither establish nor refute).  A reject may name its
    first violating round, a reason, the rule broken, and every violation
    found.  A verdict is truthy only when it is ok."""

    status: str
    round: int | None = None
    reason: str | None = None
    rule: str | None = None
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == OK

    def __bool__(self) -> bool:
        return self.ok


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
        # Each distinct set object once (a generated prefix has at most 2^n), by
        # identity and in order of first use, so the first bad one is the first bad round's.
        for s in {id(s): s for s in self.sets}.values():
            for rid in s:
                if not 0 <= rid < self.n:
                    i = next(i for i, e in enumerate(self.sets) if e is s)
                    raise ValueError(f"round {i + 1}: member id {rid} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def all_robots(self) -> frozenset[int]:
        return frozenset(range(self.n))


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


_NOBODY: frozenset[int] = frozenset()


def _barred(name: str, prev: frozenset[int], n: int) -> frozenset[int]:
    """The robots family `name` bars from the round after set `prev` (empty
    before round 1) in a swarm of `n`: energy-restricted bars the robots that
    just acted, which have no charge left, and rsynch bars them once its full
    prefix is over; ssynch and fsynch bar nobody."""
    if prev and (name == ENERGY_RESTRICTED or (name == RSYNCH and len(prev) != n)):
        return prev
    return _NOBODY


def _broken_rule(name: str, e: frozenset[int], prev: frozenset[int], n: int) -> str | None:
    """The rule activation set `e` breaks in the round after `prev` under any
    family but round-robin, or None.  The sets' members lie in range(n), so a
    set is the full swarm exactly when it has n members."""
    if name == FSYNCH:
        return None if len(e) == n else "not-full-set"
    barred = _barred(name, prev, n)
    if name == ENERGY_RESTRICTED:
        if e & barred:
            return "depleted-robot-activated"
        return "idle-while-charged" if not e and len(barred) != n else None
    if not e:
        return "empty-set"
    if e & barred:
        return "full-set-after-partial" if len(e) == n else "overlap-consecutive"
    return None


def energy_ledger(prefix: SchedulePrefix) -> EnergyLedger:
    """Unroll the charge recurrence; flag rounds that activate depleted robots."""
    full = prefix.all_robots
    charged = [full]
    violations = []
    for i, e in enumerate(prefix.sets, start=1):
        if not e <= charged[-1]:
            violations.append((i, "depleted-robot-activated"))
        charged.append(full - _barred(ENERGY_RESTRICTED, e, prefix.n))
    return EnergyLedger(tuple(charged), tuple(violations))


def validate(prefix: SchedulePrefix, kind: SchedulerKind | str) -> Verdict:
    """Check a prefix against a scheduler family; a reject names the first
    violating round (1-based) and its rule.

    Round-robin's period is its kind's blocks, or else the shortest head of
    the prefix that partitions the swarm; every other family checks each
    round against the one before."""
    if isinstance(kind, str):
        kind = SchedulerKind(kind)
    if prefix.n < 1:
        raise ValueError("need at least one robot")
    n, sets, period = prefix.n, prefix.sets, kind.blocks
    if kind.name == ROUND_ROBIN and period is None:
        period = next((h for p in range(2, len(sets) + 1) if all(h := sets[:p])
                       and sum(map(len, h)) == n and len(frozenset().union(*h)) == n), None)
        if period is None:
            return Verdict(REJECT, 1, rule="no-partition-period")
    elif period is not None:
        cover = frozenset().union(*period)  # a caller's blocks, whose members are not range-checked
        if len(cover) != n or not all(r in range(n) for r in cover):
            return Verdict(REJECT, 1, rule="blocks-do-not-cover")
    prev = _NOBODY
    for i, e in enumerate(sets):
        if period:
            rule = "period-mismatch" if e != period[i % len(period)] else None
        else:
            rule = _broken_rule(kind.name, e, prev, n)
        if rule:
            return Verdict(REJECT, i + 1, rule=rule)
        prev = e
    return Verdict(OK)


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


def check_fair(prefix: SchedulePrefix, window: int) -> Verdict:
    """Bounded-window fairness proxy.

    Rejects with a (robot, gap, round observed) violation for every robot
    whose gap between consecutive activations, since the start, or through
    the end of the prefix exceeds `window` rounds.
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
    return Verdict(REJECT if violations else OK, violations=tuple(violations))


def default_fairness_window(n: int) -> int:
    return 2 * n


def _generated(sets: tuple[frozenset[int], ...], n: int) -> SchedulePrefix:  # their ids are in range
    (prefix := object.__new__(SchedulePrefix)).__dict__.update(sets=sets, n=n)  # skips __post_init__
    return prefix


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
        return _generated((full,) * rounds, n)

    if kind.name == ROUND_ROBIN:
        if kind.blocks is None:
            raise ValueError("round-robin generation requires partition blocks")
        if frozenset().union(*kind.blocks) != full:
            raise ValueError("round-robin blocks must cover the whole swarm")
        p = len(kind.blocks)
        return _generated(tuple(kind.blocks[i % p] for i in range(rounds)), n)

    # ssynch draws from the whole swarm, the other two families from the
    # robots their previous set does not bar.  That pool is empty only after
    # an energy-restricted full activation, which forces an idle round.  A
    # draw is randint(1, m) then sample(pool, k), inline up to sample's set
    # method (above 21 robots), each _randbelow(m) written as CPython's own loop
    # (getrandbits of m's bit width until below m): the same words in the same
    # order.  A set is a bit mask; each mask's frozenset and next pool are built once.
    rsynch = kind.name == RSYNCH
    p_full = min(rng.choice([0, 0, 1, 2, rng.randint(0, rounds)]), rounds) if rsynch else 0
    sets = [full] * p_full
    last = [p_full] * n
    bits = rng.getrandbits
    full_mask = (1 << n) - 1
    everyone = pool = list(range(n))
    seen = {}
    for i in range(p_full + 1, rounds + 1):
        mask = 0
        if m := len(pool):
            k = bits(b := m.bit_length())
            while k >= m:
                k = bits(b)
            if m > 21:
                mask = sum(1 << r for r in rng.sample(pool, k + 1))
            else:
                left = pool.copy()
                for j in range(m, m - 1 - k, -1):  # sample's swaps, each drawing below j
                    x = bits(b := j.bit_length())
                    while x >= j:
                        x = bits(b)
                    mask |= 1 << left[x]
                    left[x] = left[j - 1]
        due = i - window
        for r in pool:
            if last[r] <= due:
                mask |= 1 << r
        if rsynch and mask == full_mask:  # only in its first draw, when no robot is due yet
            mask ^= 1  # robot 0 sits this round out
        if (known := seen.get(mask)) is None:
            s = frozenset(r for r in everyone if mask >> r & 1)
            known = seen[mask] = (s, sorted(full - _barred(kind.name, s, full)))
        s, pool = known
        for r in s:
            last[r] = i
        sets.append(s)
    return _generated(tuple(sets), n)


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
