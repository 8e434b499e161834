import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from lcmswarm.scheduler import (
    ENERGY_RESTRICTED,
    FSYNCH,
    OK,
    REJECT,
    ROUND_ROBIN,
    RSYNCH,
    SSYNCH,
    EnergyLedger,
    SchedulePrefix,
    SchedulerKind,
    Verdict,
    check_fair,
    default_fairness_window,
    energy_ledger,
    generate,
    phi,
    read_schedule,
    round_robin,
    validate,
    write_schedule,
)

A, B, C = 0, 1, 2


def prefix(n, *sets):
    return SchedulePrefix(tuple(frozenset(s) for s in sets), n)


def test_member_out_of_range_rejected():
    with pytest.raises(ValueError):
        prefix(2, {0, 5})


class TestRsynch:
    def test_full_prefix_then_disjoint_tail(self):
        assert validate(prefix(2, {A, B}, {A, B}, {A}, {B}, {A}), RSYNCH).ok

    def test_consecutive_overlap(self):
        report = validate(prefix(2, {A}, {A}), RSYNCH)
        assert not report.ok and report.round == 2 and report.rule == "overlap-consecutive"

    def test_full_set_after_proper_subset(self):
        # Once fewer than all robots act, the full swarm can never be charged
        # together again; cross-checked by the energy ledger below.
        report = validate(prefix(2, {A, B}, {A}, {A, B}), RSYNCH)
        assert not report.ok and report.round == 3 and report.rule == "full-set-after-partial"
        restricted = prefix(2, {A, B}, set(), {A}, {B})
        ledger = energy_ledger(restricted)
        assert all(ledger.before_round(i) != {A, B} for i in range(4, 6))

    def test_empty_in_tail(self):
        report = validate(prefix(2, {A}, set()), RSYNCH)
        assert not report.ok and report.round == 2 and report.rule == "empty-set"

    def test_boundary_pair_may_overlap(self):
        assert validate(prefix(2, {A, B}, {A}), RSYNCH).ok

    def test_single_robot_only_full_prefix(self):
        assert validate(prefix(1, {A}, {A}, {A}), RSYNCH).ok
        assert not validate(prefix(1, {A}, set()), RSYNCH).ok


def test_ssynch_rejects_empty():
    assert validate(prefix(2, {A}, {B}), SSYNCH).ok
    report = validate(prefix(2, {A}, set(), {B}), SSYNCH)
    assert report.round == 2 and report.rule == "empty-set"


def test_fsynch_requires_full():
    assert validate(prefix(2, {A, B}, {A, B}), FSYNCH).ok
    report = validate(prefix(2, {A, B}, {A}), FSYNCH)
    assert report.round == 2 and report.rule == "not-full-set"


class TestRoundRobin:
    def test_inferred_period(self):
        assert validate(prefix(2, {A}, {B}, {A}, {B}), "round-robin").ok

    def test_period_mismatch(self):
        report = validate(prefix(2, {A}, {B}, {B}, {A}), "round-robin")
        assert not report.ok and report.round == 3 and report.rule == "period-mismatch"

    def test_no_partition(self):
        assert validate(prefix(2, {A, B}, {A, B}), "round-robin").rule == "no-partition-period"

    def test_explicit_blocks(self):
        kind = round_robin([{A}, {B, C}])
        assert validate(prefix(3, {A}, {B, C}, {A}, {B, C}), kind).ok
        assert not validate(prefix(3, {A}, {A}, {B, C}), kind).ok

    def test_bad_blocks(self):
        with pytest.raises(ValueError):
            round_robin([{A}, {A, B}])
        with pytest.raises(ValueError):
            round_robin([set()])


def test_kind_and_block_rules_are_refused():
    with pytest.raises(ValueError, match="^only round-robin takes partition blocks$"):
        SchedulerKind(SSYNCH, (frozenset({A}), frozenset({B})))
    with pytest.raises(ValueError, match="^round-robin blocks must be nonempty$"):
        round_robin([{A}, set()])
    with pytest.raises(ValueError, match="^round-robin blocks must cover the whole swarm$"):
        generate(round_robin([{A}, {B}]), 3, 5, 0)


class TestEnergy:
    def test_forced_idle_after_full(self):
        assert validate(prefix(2, {A, B}, set(), {A}, {B}), ENERGY_RESTRICTED).ok

    def test_depleted_robot(self):
        report = validate(prefix(2, {A}, {A}), ENERGY_RESTRICTED)
        assert report.round == 2 and report.rule == "depleted-robot-activated"

    def test_idle_only_when_forced(self):
        report = validate(prefix(2, {A}, set()), ENERGY_RESTRICTED)
        assert report.round == 2 and report.rule == "idle-while-charged"


class TestLedger:
    def test_full_activation_empties_charge(self):
        ledger = energy_ledger(prefix(2, {A, B}))
        assert ledger.before_round(1) == {A, B}
        assert ledger.charged[1] == frozenset()

    def test_idle_robot_stays_charged(self):
        ledger = energy_ledger(prefix(2, {A}))
        assert ledger.charged[1] == {B}

    def test_hand_unrolled_recurrence(self):
        ledger = energy_ledger(prefix(3, {A}, {B, C}, {A}))
        assert ledger.charged == (
            frozenset({A, B, C}),
            frozenset({B, C}),
            frozenset({A}),
            frozenset({B, C}),
        )

    def test_reports_instead_of_raising(self):
        ledger = energy_ledger(prefix(2, {A}, {A}))
        assert ledger.violations == ((2, "depleted-robot-activated"),)

    @pytest.mark.parametrize("seed", range(40))
    def test_valid_prefix_never_flags(self, seed):
        p = generate(ENERGY_RESTRICTED, 4, 30, seed)
        assert energy_ledger(p).violations == ()

    @pytest.mark.parametrize("seed", range(40))
    def test_extra_activation_flags_exactly_once(self, seed):
        p = generate(ENERGY_RESTRICTED, 4, 30, seed)
        # Insert a depleted robot into a round from which it is absent later,
        # so the single injected fault yields a single flag.
        for i in range(1, len(p.sets)):
            candidates = p.sets[i - 1] - p.sets[i] - (p.sets[i + 1] if i + 1 < len(p.sets) else frozenset())
            if candidates:
                r = min(candidates)
                sets = list(p.sets)
                sets[i] = sets[i] | {r}
                tampered = SchedulePrefix(tuple(sets), p.n)
                assert len(energy_ledger(tampered).violations) == 1
                return
        pytest.skip("no injection slot in this prefix")


class TestPhi:
    def test_strips_empty_sets(self):
        out = phi(prefix(2, {A, B}, set(), {A}, {B}))
        assert out.sets == (frozenset({A, B}), frozenset({A}), frozenset({B}))

    def test_no_empty_sets_is_identity(self):
        p = prefix(2, {A}, {B}, {A})
        assert phi(p).sets == p.sets

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            phi(prefix(2, {A}, {A}))

    @pytest.mark.parametrize("seed", range(100))
    def test_output_is_valid_rsynch(self, seed):
        p = generate(ENERGY_RESTRICTED, 3, 40, seed)
        out = phi(p)
        assert validate(out, RSYNCH).ok
        assert len(out.sets) <= len(p.sets)
        assert tuple(s for s in p.sets if s) == out.sets  # order-preserving


class TestFairness:
    def test_alternation_is_fair(self):
        assert check_fair(prefix(2, {A}, {B}, {A}, {B}), 2).ok

    def test_starvation_flagged_with_gap(self):
        report = check_fair(prefix(2, {A}, {A}, {A}), 2)
        assert not report.ok
        assert (B, 3, 3) in report.violations

    def test_starvation_flagged_when_the_robot_returns(self):
        report = check_fair(prefix(2, {A}, {A}, {A}, {B}, {A, B}), 2)
        assert report.violations == ((B, 4, 4),)

    def test_round_robin_is_fair_at_window_p(self):
        kind = round_robin([{A}, {B}, {C}])
        p = generate(kind, 3, 17, seed=0)
        assert validate(p, kind).ok
        assert check_fair(p, 3).ok

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            check_fair(prefix(1, {A}), 0)


KINDS = [FSYNCH, SSYNCH, RSYNCH, ENERGY_RESTRICTED]


class TestGenerate:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(25))
    def test_round_trips_through_validator(self, kind, seed):
        p = generate(kind, 4, 30, seed)
        assert len(p.sets) == 30
        assert validate(p, kind).ok

    @pytest.mark.parametrize("kind", [SSYNCH, RSYNCH])
    @pytest.mark.parametrize("seed", range(25))
    def test_random_kinds_are_fair_by_construction(self, kind, seed):
        n = 4
        p = generate(kind, n, 60, seed)
        assert check_fair(p, default_fairness_window(n)).ok

    def test_deterministic_in_seed(self):
        assert generate(RSYNCH, 5, 40, 123) == generate(RSYNCH, 5, 40, 123)
        assert generate(RSYNCH, 5, 40, 123) != generate(RSYNCH, 5, 40, 124)

    def test_fsynch_shape(self):
        p = generate(FSYNCH, 3, 4, 0)
        assert p.sets == (frozenset({0, 1, 2}),) * 4

    def test_round_robin_shape(self):
        p = generate(round_robin([{A}, {B}]), 2, 4, 0)
        assert p.sets == (frozenset({A}), frozenset({B}), frozenset({A}), frozenset({B}))

    def test_round_robin_needs_blocks(self):
        with pytest.raises(ValueError):
            generate("round-robin", 2, 4, 0)

    def test_rsynch_single_robot(self):
        p = generate(RSYNCH, 1, 5, 3)
        assert validate(p, RSYNCH).ok and all(s == {0} for s in p.sets)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate(SSYNCH, 3, 0, 0)
        with pytest.raises(ValueError):
            generate(SSYNCH, 0, 5, 0)


# `generate` as it was before its random families shared one sampling loop,
# copied verbatim: the oracle that pins every ssynch, rsynch and
# energy-restricted prefix, the RNG call order included.
def _sample_nonempty(rng: random.Random, pool: list[int]) -> set[int]:
    k = rng.randint(1, len(pool))
    return set(rng.sample(pool, k))


def oracle_generate(
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

    if kind.name == FSYNCH:
        return SchedulePrefix((full,) * rounds, n)

    if kind.name == ROUND_ROBIN:
        if kind.blocks is None:
            raise ValueError("round-robin generation requires partition blocks")
        if frozenset().union(*kind.blocks) != full:
            raise ValueError("round-robin blocks must cover the whole swarm")
        p = len(kind.blocks)
        return SchedulePrefix(tuple(kind.blocks[i % p] for i in range(rounds)), n)

    if kind.name == SSYNCH:
        sets = []
        last = {r: 0 for r in range(n)}
        for i in range(1, rounds + 1):
            s = _sample_nonempty(rng, list(range(n)))
            s |= {r for r in range(n) if i - last[r] >= window}
            sets.append(frozenset(s))
            for r in s:
                last[r] = i
        return SchedulePrefix(tuple(sets), n)

    if kind.name == RSYNCH:
        if n == 1:
            # A nonempty proper subset of a single robot cannot exist; the
            # only valid prefixes activate the full swarm forever.
            return SchedulePrefix((full,) * rounds, n)
        p_full = rng.choice([0, 0, 1, 2, rng.randint(0, rounds)])
        p_full = min(p_full, rounds)
        sets = [full] * p_full
        last = {r: p_full if p_full else 0 for r in range(n)}
        prev: frozenset[int] | None = None
        for i in range(p_full + 1, rounds + 1):
            allowed = sorted(full - prev) if prev else sorted(full)
            s = _sample_nonempty(rng, allowed)
            s |= {r for r in allowed if i - last[r] >= window}
            if len(s) == n:
                removable = sorted(r for r in s if i - last[r] < window)
                s.discard(removable[0] if removable else min(s))
            prev = frozenset(s)
            sets.append(prev)
            for r in prev:
                last[r] = i
        return SchedulePrefix(tuple(sets), n)

    # Energy-restricted: activate within the charged set, idling only when
    # a full activation forces it.
    sets = []
    charged = full
    last = {r: 0 for r in range(n)}
    for i in range(1, rounds + 1):
        if not charged:
            sets.append(frozenset())
        else:
            s = _sample_nonempty(rng, sorted(charged))
            s |= {r for r in charged if i - last[r] >= window}
            sets.append(frozenset(s))
            for r in s:
                last[r] = i
        charged = full - sets[-1]
    return SchedulePrefix(tuple(sets), n)


@pytest.mark.parametrize("kind", KINDS)
def test_generate_equals_oracle(kind):
    for n in range(1, 9):
        for rounds in (1, 2, 3, 7, 30, 111):
            for seed in range(40):
                assert generate(kind, n, rounds, seed) == oracle_generate(kind, n, rounds, seed), (
                    kind, n, rounds, seed)


# `validate` and `energy_ledger` as they were before every family's rule was
# stated once, copied verbatim apart from their names: the oracle that pins
# each (ok, round, rule) report and each ledger.
def oracle_energy_ledger(prefix: SchedulePrefix) -> EnergyLedger:
    """Unroll the charge recurrence; flag rounds that activate depleted robots."""
    full = prefix.all_robots
    charged = [full]
    violations = []
    for i, e in enumerate(prefix.sets, start=1):
        if not e <= charged[-1]:
            violations.append((i, "depleted-robot-activated"))
        charged.append(full - e)
    return EnergyLedger(tuple(charged), tuple(violations))


def ValidityReport(ok: bool, round: int | None = None, rule: str | None = None) -> Verdict:
    return Verdict(OK if ok else REJECT, round, rule=rule)


def _oracle_validate_rsynch(prefix: SchedulePrefix) -> ValidityReport:
    full = prefix.all_robots
    sets = prefix.sets
    p = 0
    while p < len(sets) and sets[p] == full:
        p += 1
    for i in range(p, len(sets)):
        e = sets[i]
        if not e:
            return ValidityReport(False, i + 1, "empty-set")
        if e == full:
            return ValidityReport(False, i + 1, "full-set-after-partial")
        if i > p and sets[i - 1] & e:
            return ValidityReport(False, i + 1, "overlap-consecutive")
    return ValidityReport(True)


def _oracle_validate_round_robin(prefix: SchedulePrefix, kind: SchedulerKind) -> ValidityReport:
    full = prefix.all_robots
    sets = prefix.sets
    if kind.blocks is not None:
        blocks = kind.blocks
        if frozenset().union(*blocks) != full:
            return ValidityReport(False, 1, "blocks-do-not-cover")
    else:
        blocks = None
        for p in range(2, len(sets) + 1):
            head = sets[:p]
            if all(head) and sum(len(b) for b in head) == prefix.n and frozenset().union(*head) == full:
                blocks = head
                break
        if blocks is None:
            return ValidityReport(False, 1, "no-partition-period")
    p = len(blocks)
    for i, e in enumerate(sets):
        if e != blocks[i % p]:
            return ValidityReport(False, i + 1, "period-mismatch")
    return ValidityReport(True)


def oracle_validate(prefix: SchedulePrefix, kind: SchedulerKind | str) -> ValidityReport:
    """Check a prefix against a scheduler family; report the first violation."""
    if isinstance(kind, str):
        kind = SchedulerKind(kind)
    if prefix.n < 1:
        raise ValueError("need at least one robot")
    full = prefix.all_robots

    if kind.name == SSYNCH:
        for i, e in enumerate(prefix.sets, start=1):
            if not e:
                return ValidityReport(False, i, "empty-set")
        return ValidityReport(True)

    if kind.name == FSYNCH:
        for i, e in enumerate(prefix.sets, start=1):
            if e != full:
                return ValidityReport(False, i, "not-full-set")
        return ValidityReport(True)

    if kind.name == RSYNCH:
        return _oracle_validate_rsynch(prefix)

    if kind.name == ENERGY_RESTRICTED:
        ledger = oracle_energy_ledger(prefix)
        for i, e in enumerate(prefix.sets, start=1):
            if not e <= ledger.before_round(i):
                return ValidityReport(False, i, "depleted-robot-activated")
            if not e and ledger.before_round(i):
                return ValidityReport(False, i, "idle-while-charged")
        return ValidityReport(True)

    return _oracle_validate_round_robin(prefix, kind)


def _subsets(n):
    return [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]


def _oracle_kinds(n):
    kinds = [SchedulerKind(name) for name in (FSYNCH, SSYNCH, RSYNCH, ENERGY_RESTRICTED, ROUND_ROBIN)]
    kinds.append(round_robin([{0}, {n}]))  # blocks that do not cover: robot n does not exist
    if n > 1:
        kinds.append(round_robin([{0}, set(range(1, n))]))
    return kinds


RULES = {
    "empty-set", "not-full-set", "full-set-after-partial", "overlap-consecutive",
    "depleted-robot-activated", "idle-while-charged", "blocks-do-not-cover",
    "no-partition-period", "period-mismatch",
}


def test_validate_equals_oracle():
    # Every prefix up to length 6/5/4/3 at n = 1/2/3/4, under every family.
    seen = set()
    for n, max_len in [(1, 6), (2, 5), (3, 4), (4, 3)]:
        kinds = _oracle_kinds(n)
        subsets = _subsets(n)
        for length in range(max_len + 1):
            for sets in itertools.product(subsets, repeat=length):
                p = SchedulePrefix(sets, n)
                for kind in kinds:
                    report = validate(p, kind)
                    assert report == oracle_validate(p, kind), (p, kind)
                    seen.add(report.rule)
                assert energy_ledger(p) == oracle_energy_ledger(p), p
    assert seen == RULES | {None}


def test_validate_refuses_an_empty_swarm():
    with pytest.raises(ValueError, match="need at least one robot"):
        validate(SchedulePrefix((), 0), SSYNCH)


def _valid_prefixes(kind, n, max_len):
    """Every prefix of at most max_len rounds that `validate` accepts, grown a
    round at a time: under rsynch and energy restriction a prefix of a valid
    prefix is valid."""
    subsets = _subsets(n)
    layer = [()]
    found = [()]
    for _ in range(max_len):
        layer = [s + (e,) for s in layer for e in subsets if validate(SchedulePrefix(s + (e,), n), kind)]
        found += layer
    return found


@pytest.mark.parametrize("n, L", [(2, 8), (3, 6), (3, 8)])
def test_phi_maps_energy_restricted_onto_rsynch(n, L):
    # phi sends every valid energy-restricted prefix of at most L rounds into
    # rsynch, and every rsynch prefix of at most L/2 rounds is such an image.
    images = set()
    for sets in _valid_prefixes(ENERGY_RESTRICTED, n, L):
        out = phi(SchedulePrefix(sets, n))
        assert validate(out, RSYNCH), sets
        images.add(out.sets)
    rsynch = _valid_prefixes(RSYNCH, n, L // 2)
    assert len(rsynch) > L // 2
    for sets in rsynch:
        assert sets in images, sets


@pytest.mark.parametrize("seed", range(30))
def test_scheduler_hierarchy(seed):
    # Full activation satisfies every family down the hierarchy, and the
    # restricted-repetition family is a sub-family of the semi-synchronous one.
    full = generate(FSYNCH, 3, 20, seed)
    assert validate(full, RSYNCH).ok and validate(full, SSYNCH).ok
    restricted = generate(RSYNCH, 3, 20, seed)
    assert validate(restricted, SSYNCH).ok


@given(st.integers(0, 10 ** 9), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_phi_properties_fuzzed(seed, n):
    p = generate(ENERGY_RESTRICTED, n, 30, seed)
    out = phi(p)
    assert len(out.sets) <= len(p.sets)
    assert all(out.sets)
    assert validate(out, RSYNCH).ok


def test_schedule_file_round_trip(tmp_path):
    p = generate(ENERGY_RESTRICTED, 3, 25, 9)
    path = tmp_path / "sched.txt"
    write_schedule(p, ENERGY_RESTRICTED, str(path))
    back, kind = read_schedule(str(path))
    assert back == p and kind == ENERGY_RESTRICTED


def test_schedule_file_empty_line_is_empty_set(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("n=2 kind=energy-restricted-ssynch\n0 1\n\n0\n")
    back, _ = read_schedule(str(path))
    assert back.sets == (frozenset({0, 1}), frozenset(), frozenset({0}))


def test_schedule_file_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=2 kind=ssynch\n0 x\n")
    with pytest.raises(ValueError, match="bad robot id"):
        read_schedule(str(bad))
    headerless = tmp_path / "none.txt"
    headerless.write_text("0 1\n")
    with pytest.raises(ValueError, match="header"):
        read_schedule(str(headerless))
    for text, message in [
        ("", ":1: missing schedule header"),
        ("n=x kind=ssynch\n0\n", ":1: bad schedule header: n must be a positive integer, got 'x'"),
        ("n=0 kind=ssynch\n", ":1: bad schedule header: n must be a positive integer, got '0'"),
        ("n=-1 kind=ssynch\n0\n", ":1: bad schedule header: n must be a positive integer, got '-1'"),
        ("n=2 kind=ssynch\n0 1\n0 5\n", ":3: member id 5 out of range for n=2"),
        ("n=2 kind=ssynch\n-1\n", ":2: member id -1 out of range for n=2"),
    ]:
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad) + message)}"):
            read_schedule(str(bad))
