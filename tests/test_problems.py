import dataclasses
import math
import random
import re
from typing import Callable

import pytest

from lcmswarm import problems
from lcmswarm.algorithms import (
    CYC_B,
    CYC_PALETTE,
    CYC_STATUS,
    STATUS_CENTER,
    STATUS_FINAL,
    alg_cyclic_cycles,
    alg_sro,
    alg_stay,
    cyc_initial_config,
    decode_cyc_pattern,
)
from lcmswarm.core import Configuration, ModelKind, Point, distance, make_configuration, points_close, sub
from lcmswarm.engine import Rigidity, Trace, TraceHeader, TraceRound, read_trace, run, write_trace
from lcmswarm.problems import (
    INCONCLUSIVE,
    OK,
    REJECT,
    DiagonalSquare,
    Verdict,
    _check_tol,
    _inconclusive,
    _ok,
    _reject,
    cge_target_map,
    cge_targets,
    check_cge,
    check_cyc,
    check_rdv,
    check_sro,
    cog,
)
from lcmswarm.scheduler import SchedulePrefix, generate


def synthetic_trace(frames, acts=None):
    """Build a trace from a list of position lists; acts[i] activates in round i+1."""
    n = len(frames[0])
    configs = [make_configuration([Point(*p) for p in pts]) for pts in frames]
    if acts is None:
        acts = [frozenset(range(n))] * (len(frames) - 1)
    rounds = tuple(
        TraceRound(frozenset(a), c, {}) for a, c in zip(acts, configs[1:])
    )
    header = TraceHeader(ModelKind.OBLOT, "explicit", n, 0, None, ())
    return Trace(header, configs[0], rounds)


class TestCog:
    def test_two_points(self):
        assert cog(make_configuration([Point(0, 0), Point(2, 0)])) == Point(1, 0)

    def test_three_points(self):
        assert cog(make_configuration([Point(0, 0), Point(2, 0), Point(1, 3)])) == Point(1, 1)

    def test_matches_naive_sum_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(10)]
            sx = sy = 0.0
            for x, y in pts:
                sx += x
                sy += y
            got = cog(make_configuration([Point(*p) for p in pts]))
            assert got.x == pytest.approx(sx / 10, abs=1e-12)
            assert got.y == pytest.approx(sy / 10, abs=1e-12)


class TestSquare:
    def test_vertices_and_containment(self):
        sq = DiagonalSquare(Point(0, 0), Point(1, 1))
        vs = sq.vertices()
        assert Point(1, 0) in vs and Point(0, 1) in vs
        assert sq.contains(Point(0.5, 0.5), 1e-9)
        assert sq.contains(Point(1, 1), 1e-9)  # boundary included
        assert not sq.contains(Point(1.1, 0.5), 1e-9)


class TestCheckSro:
    def test_quarter_turn_accepted(self):
        trace = synthetic_trace([[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
        assert check_sro(trace).status == OK

    def test_shrunk_eighth_turn_accepted(self):
        trace = synthetic_trace([[(0, 0), (1, 1)], [(0, 1), (1, 1)]], acts=[{0}])
        assert check_sro(trace).status == OK

    def test_growth_rejected(self):
        trace = synthetic_trace([[(0, 0), (1, 1)], [(0, 0), (2, 2)]])
        verdict = check_sro(trace)
        assert verdict.status == REJECT and verdict.round == 1

    def test_counterclockwise_rejected(self):
        trace = synthetic_trace([[(0, 0), (1, 1)], [(1, 0), (0, 1)]])
        assert check_sro(trace).status == REJECT

    def test_containment_violation_rejected(self):
        # Two legal-looking turns whose second configuration escapes the
        # square spanned by the first.
        trace = synthetic_trace([
            [(0, 0), (1, 1)],
            [(0, 1), (1, 0)],
            [(5, 5), (4, 4)],  # proper quarter turn, but far away
        ])
        verdict = check_sro(trace)
        assert verdict.status == REJECT and "square" in verdict.reason

    def test_wrong_robot_count(self):
        with pytest.raises(ValueError):
            check_sro(synthetic_trace([[(0, 0), (1, 1), (2, 2)]]))

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
    def test_tolerance_must_be_a_finite_nonnegative_number(self, tol):
        trace = synthetic_trace([[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            check_sro(trace, tol)

    @pytest.mark.parametrize("seed", range(25))
    def test_accepts_every_restricted_run(self, seed):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        trace = run(cfg, "rsynch", alg_sro(), rounds=60, seed=seed)
        assert check_sro(trace, 1e-9).status == OK

    def test_rejects_injected_perturbation(self):
        cfg = make_configuration([Point(0, 0), Point(1, 1)])
        trace = run(cfg, "rsynch", alg_sro(), rounds=20, seed=8)
        target = trace.rounds[10].config
        entries = list(target.entries)
        rid, p, lt = entries[0]
        entries[0] = (rid, Point(p.x + 1e-5, p.y), lt)
        rounds = list(trace.rounds)
        rounds[10] = dataclasses.replace(rounds[10], config=dataclasses.replace(target, entries=tuple(entries)))
        tampered = dataclasses.replace(trace, rounds=tuple(rounds))
        assert check_sro(tampered, 1e-9).status == REJECT


def oracle_check_sro(trace: Trace, tol: float = 1e-9) -> Verdict:
    """check_sro before it skipped a configuration repeated as the same
    object, verbatim: its verdicts are the reference."""
    _check_tol(tol)
    if trace.initial.n != 2:
        raise ValueError("shrinking rotation is a two-robot problem")
    configs = trace.configs()
    rounds = [0]
    distinct = [(configs[0].position(0), configs[0].position(1))]
    for i, c in enumerate(configs[1:], start=1):
        a, b = c.position(0), c.position(1)
        pa, pb = distinct[-1]
        ref = max(distance(pa, pb), 1e-300)
        if distance(a, pa) > tol * ref or distance(b, pb) > tol * ref:
            distinct.append((a, b))
            rounds.append(i)

    for i in range(1, len(distinct)):
        (pa, pb), (a, b) = distinct[i - 1], distinct[i]
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
                rounds[i],
                f"transition is neither a quarter turn nor a shrunk eighth turn "
                f"(angle {angle:.6g}, ratio {ratio:.6g})",
            )
        if i >= 2:
            qa, qb = distinct[i - 2]
            square = DiagonalSquare(qa, qb)
            slack = tol * max(distance(qa, qb), 1.0)
            if not (square.contains(a, slack) and square.contains(b, slack)):
                return _reject(rounds[i], "configuration escaped the grandparent square")
    return _ok()


@pytest.mark.parametrize("delta, status", [(None, OK), (0.3, REJECT)])
def test_check_sro_matches_the_oracle(delta, status, tmp_path):
    # Under non-rigid moves sro leaves the spiral, so the reject path is
    # compared too.  A trace read back shares each repeated configuration.
    path = str(tmp_path / "sro.trace")
    shared = 0
    for seed in range(50):
        rng = random.Random(f"sro:{seed}")
        cfg = make_configuration([Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2)])
        trace = run(cfg, "rsynch", alg_sro(), rounds=100, seed=seed, rigidity=Rigidity(delta))
        write_trace(trace, path)
        back = read_trace(path)
        configs = back.configs()
        shared += sum(after is before for before, after in zip(configs, configs[1:]))
        want = oracle_check_sro(trace)
        assert want.status == status, seed
        for checked in (trace, back):
            got = check_sro(checked)
            assert (got.status, got.round, got.reason) == (want.status, want.round, want.reason)
    assert shared > 0


BIG, HALF = 1.2e308, 4e307  # finite, but BIG + BIG overflows


@pytest.mark.parametrize("frames", [
    [[(0, 0), (1, 1)], [(1e308, 0), (-1e308, 0)]],
    [[(BIG, -HALF), (BIG, HALF)], [(BIG - HALF, 0), (BIG + HALF, 0)], [(BIG, HALF), (BIG, -HALF)]],
], ids=["difference", "grandparent-midpoint"])
def test_check_sro_raises_where_the_oracle_raises_on_overflow(frames):
    # The first trace's second segment, b - a, overflows.  The second makes
    # two valid quarter turns, and its grandparent square's midpoint overflows.
    trace = synthetic_trace(frames)
    with pytest.raises(ValueError) as want:
        oracle_check_sro(trace)
    with pytest.raises(ValueError) as got:
        check_sro(trace)
    assert str(got.value) == str(want.value)
    assert "finite" in str(got.value)


@pytest.mark.parametrize("nudge, status", [(0.0, OK), (1e-5, REJECT)])
def test_check_sro_skips_idle_rounds_before_convergence(nudge, status):
    # A configuration repeated as the same object, and then as a fresh copy,
    # adds no pattern while the spiral is still turning; a clean run and one
    # perturbed after the idle rounds keep the oracle's verdict.
    trace = run(make_configuration([Point(0, 0), Point(1, 1)]), "rsynch", alg_sro(), rounds=20, seed=8)
    rounds = list(trace.rounds)
    (rid, p, lt), rest = rounds[10].config.entries[0], rounds[10].config.entries[1:]
    rounds[10] = dataclasses.replace(rounds[10], config=Configuration(((rid, Point(p.x + nudge, p.y), lt),) + rest))
    idle = rounds[3]
    copy = dataclasses.replace(idle, config=Configuration(idle.config.entries))
    variant = dataclasses.replace(trace, rounds=tuple(rounds[:4] + [idle, copy] + rounds[4:]))
    want = oracle_check_sro(variant)
    assert want.status == status
    assert check_sro(variant) == want


class TestCheckCyc:
    def _trace(self, n=3, rounds=None, seed=0):
        rounds = rounds or 40 * 2 ** (n - 1)
        return run(cyc_initial_config(n), "ssynch", alg_cyclic_cycles(n), rounds=rounds, seed=seed)

    def test_full_cycle_is_ok(self):
        assert check_cyc(self._trace(), 3).status == OK

    def test_moved_circle_robot_rejected(self):
        trace = self._trace()
        target = trace.rounds[5].config
        entries = list(target.entries)
        rid, p, lt = entries[2]
        entries[2] = (rid, Point(p.x + 1e-3, p.y), lt)
        rounds = list(trace.rounds)
        rounds[5] = dataclasses.replace(rounds[5], config=dataclasses.replace(target, entries=tuple(entries)))
        tampered = dataclasses.replace(trace, rounds=tuple(rounds))
        verdict = check_cyc(tampered, 3)
        assert verdict.status == REJECT and "moved" in verdict.reason

    def test_short_prefix_is_inconclusive(self):
        verdict = check_cyc(self._trace(rounds=6), 3)
        assert verdict.status == INCONCLUSIVE

    def test_wrong_robot_count(self):
        with pytest.raises(ValueError):
            check_cyc(self._trace(), 4)

    @pytest.mark.parametrize("frac", [2.0, 1.0, 0.0, -1.0, math.nan])
    def test_mover_distance_must_be_a_radius_fraction(self, frac):
        # As the step itself refuses it, not as a reject of a clean run.
        with pytest.raises(ValueError, match=r"^d\(0\) = .* must be a radius fraction in \(0, 1\)$"):
            check_cyc(self._trace(), 3, d_rel=lambda _i: frac)
        with pytest.raises(ValueError, match=r"^d\(0\) = .* must be a radius fraction"):
            run(cyc_initial_config(3), "fsynch", alg_cyclic_cycles(3, d_rel=lambda _i: frac),
                rounds=10)

    def test_mover_distance_is_checked_before_the_trace_is_read(self):
        # A one-round trace reaches no uniform-final round; every counter
        # value it could reach is checked first, not only the first.
        with pytest.raises(ValueError, match=r"^d\(0\) = 2.0 must be a radius fraction"):
            check_cyc(self._trace(rounds=1), 3, d_rel=lambda _i: 2.0)
        late = lambda i: 0.5 if i < 3 else 2.0  # noqa: E731
        with pytest.raises(ValueError, match=r"^d\(3\) = 2.0 must be a radius fraction"):
            check_cyc(self._trace(rounds=6), 3, d_rel=late)
        assert check_cyc(self._trace(rounds=2), 3, d_rel=late).status == INCONCLUSIVE

    def _stretches(self, trace):
        """The configuration indices f1 < c1 < f2 < c2 < f3 where the first
        three uniform-final and the two uniform-center stretches between them
        begin, after the base pattern of round 0."""
        configs = trace.configs()

        def uniform(status):
            return [i for i, c in enumerate(configs)
                    if all(c.light(r).values[CYC_STATUS] == status for r in range(c.n))]

        centers, finals = uniform(STATUS_CENTER), uniform(STATUS_FINAL)
        marks = [finals[0]]
        for stretch in (centers, finals, centers, finals):
            marks.append(next(i for i in stretch if i > marks[-1]))
        return marks

    def _without(self, trace, lo, hi):
        """The trace with configurations lo..hi-1 cut out."""
        return dataclasses.replace(trace, rounds=trace.rounds[: lo - 1] + trace.rounds[hi - 1 :])

    def _nudged(self, trace, i, rid, dx):
        """The trace with robot rid of configuration i moved dx along x."""
        config = trace.rounds[i - 1].config
        entries = list(config.entries)
        _, p, lt = entries[rid]
        entries[rid] = (rid, Point(p.x + dx, p.y), lt)
        rounds = list(trace.rounds)
        rounds[i - 1] = dataclasses.replace(rounds[i - 1], config=dataclasses.replace(config, entries=tuple(entries)))
        return dataclasses.replace(trace, rounds=tuple(rounds))

    def _mover_nudged(self, trace, i):
        return self._nudged(trace, i, 0, 1e-2)  # robot 0 starts at the center: the mover

    def test_mover_off_center_or_target_rejected(self):
        trace = self._trace()
        f1, c1, _, _, _ = self._stretches(trace)
        assert check_cyc(self._mover_nudged(trace, f1), 3) == Verdict(
            REJECT, f1, "uniform final status while the mover is off its target")
        assert check_cyc(self._mover_nudged(trace, c1), 3) == Verdict(
            REJECT, c1, "uniform center status while the mover is away from the center")

    def test_skipped_base_pattern_rejected(self):
        trace = self._trace()
        _, c1, f2, _, _ = self._stretches(trace)
        assert check_cyc(self._without(trace, c1, f2), 3) == Verdict(
            REJECT, c1, "pattern sequence must alternate starting from the base pattern")

    def test_skipped_counter_value_rejected(self):
        trace = self._trace()
        _, _, f2, _, f3 = self._stretches(trace)
        assert check_cyc(self._without(trace, f2, f3), 3) == Verdict(
            REJECT, f2, "counter showed 2, expected 1")

    def test_verdict_is_the_same_when_no_configuration_repeats(self):
        # A round that changes nothing returns the configuration before it,
        # which check_cyc skips; fresh copies of every configuration must
        # give every accept, reject and inconclusive trace the same verdict.
        trace = self._trace()
        configs = trace.configs()
        assert any(a is b for a, b in zip(configs, configs[1:]))
        f1, c1, f2, _, f3 = self._stretches(trace)
        cases = [
            trace,
            self._trace(rounds=6),
            self._nudged(trace, 6, 2, 1e-3),
            self._mover_nudged(trace, f1),
            self._mover_nudged(trace, c1),
            self._without(trace, c1, f2),
            self._without(trace, f2, f3),
        ]
        statuses = set()
        for case in cases:
            fresh = dataclasses.replace(case, rounds=tuple(
                dataclasses.replace(r, config=dataclasses.replace(r.config)) for r in case.rounds))
            configs = fresh.configs()
            assert all(a is not b for a, b in zip(configs, configs[1:]))
            verdict = check_cyc(case, 3)
            assert check_cyc(fresh, 3) == verdict
            statuses.add(verdict.status)
        assert statuses == {OK, REJECT, INCONCLUSIVE}


def test_check_cyc_reports_the_first_violating_round():
    # A counter bit flipped at the first uniform-final round breaks the label
    # rule there; a circle robot moved much later must not be reported first.
    trace = run(cyc_initial_config(3), "ssynch", alg_cyclic_cycles(3), rounds=160, seed=0)
    assert check_cyc(trace, 3).status == OK

    def changed(trace, i, rid, change):
        config = trace.rounds[i - 1].config
        entries = list(config.entries)
        entries[rid] = (rid, *change(*entries[rid][1:]))
        rounds = list(trace.rounds)
        rounds[i - 1] = dataclasses.replace(rounds[i - 1], config=Configuration(tuple(entries)))
        return dataclasses.replace(trace, rounds=tuple(rounds))

    configs = trace.configs()
    first_final = next(i for i, c in enumerate(configs)
                       if all(c.light(r).values[CYC_STATUS] == STATUS_FINAL for r in range(3)))
    assert first_final == 2
    flipped = changed(trace, 2, 1, lambda p, lt: (p, lt.replace({CYC_B: 1 - lt.values[CYC_B]})))
    both = changed(flipped, 150, 2, lambda p, lt: (Point(p.x + 0.5, p.y), lt))
    moved = changed(trace, 150, 2, lambda p, lt: (Point(p.x + 0.5, p.y), lt))
    assert check_cyc(moved, 3) == Verdict(REJECT, 150, "circle robot 2 moved")
    assert check_cyc(flipped, 3) == Verdict(REJECT, 2, "counter showed 1, expected 0")
    assert check_cyc(both, 3) == Verdict(REJECT, 2, "counter showed 1, expected 0")


# check_cyc before it read each changed configuration in one pass over its
# entries, copied verbatim apart from its name: the oracle that pins each
# (status, round, reason) verdict.
def oracle_check_cyc(
    trace: Trace,
    n: int,
    d_rel: Callable[[int], float] | None = None,
    tol: float = 1e-9,
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
    d_fn = d_rel or (lambda _i: 0.5)
    k = 2 ** (n - 1)
    configs = trace.configs()
    for idx in range(min(k, len(configs))):  # each counter value the trace can reach
        if not 0.0 < (frac := d_fn(idx)) < 1.0:
            raise ValueError(f"d({idx}) = {frac} must be a radius fraction in (0, 1)")
    initial = trace.initial
    view = decode_cyc_pattern([p for _, p, _ in initial.entries], n)
    rid_of = {id(p): rid for rid, p, _ in initial.entries}  # the view holds these very points
    mover = rid_of[id(view.mover)]
    ring_ids = [rid_of[id(p)] for p in view.ring]
    pos_tol = max(tol, 1e-12) * view.radius
    unit = Point(
        (view.vacancy.x - view.center.x) / view.radius,
        (view.vacancy.y - view.center.y) / view.radius,
    )

    # Labels (a counter index, or -1 for the base pattern) alternate between
    # the base pattern (even places) and counter values (odd places); each new
    # label is checked as it comes.  No label repeats the one before it, so
    # once the even places hold the base pattern, the odd places cannot.
    places, last_label = 0, None  # labels so far, and the last one
    for i, config in enumerate(configs):
        if i and config is configs[i - 1]:  # a round that changed nothing repeats its checks and label
            continue
        for rid in ring_ids:
            if not points_close(config.position(rid), initial.position(rid), pos_tol):
                return _reject(i, f"circle robot {rid} moved")
        statuses = [config.light(rid).values[CYC_STATUS] for rid in range(n)]
        bits = [config.light(rid).values[CYC_B] for rid in ring_ids]
        idx = sum(b << j for j, b in enumerate(bits))
        mover_pos = config.position(mover)
        if all(s == STATUS_CENTER for s in statuses):
            if not points_close(mover_pos, view.center, pos_tol):
                return _reject(i, "uniform center status while the mover is away from the center")
            label = -1
        elif all(s == STATUS_FINAL for s in statuses):
            frac = d_fn(idx)
            target = Point(
                view.center.x + frac * view.radius * unit.x,
                view.center.y + frac * view.radius * unit.y,
            )
            if not points_close(mover_pos, target, pos_tol):
                return _reject(i, "uniform final status while the mover is off its target")
            label = idx
        else:
            continue
        if label == last_label:
            continue
        if places % 2 == 0 and label != -1:
            return _reject(i, "pattern sequence must alternate starting from the base pattern")
        if places % 2 == 1 and label != (places // 2) % k:
            return _reject(i, f"counter showed {label}, expected {(places // 2) % k}")
        places, last_label = places + 1, label
    oscillations = places // 2
    if oscillations >= k:
        return _ok()
    return _inconclusive(f"observed {oscillations} of {k} oscillations")


def _forged_cyc(trace, rng):
    """Forgeries of `trace` for each reject rule of check_cyc, each at a
    random configuration: robots moved (one, or two at once), a status or
    counter bit flipped, and a stretch of rounds cut out; and one that no rule
    rejects, every point rebuilt and moved far less than the tolerance."""
    n = trace.initial.n

    def changed(change):
        i = rng.randrange(1, len(trace.rounds) + 1)
        config = trace.rounds[i - 1].config
        entries = list(config.entries)
        change(entries)
        rounds = list(trace.rounds)
        rounds[i - 1] = dataclasses.replace(rounds[i - 1], config=Configuration(tuple(entries)))
        return dataclasses.replace(trace, rounds=tuple(rounds))

    def nudged(*rids, dx=1e-3):
        def change(entries):
            for rid in rids:
                _, p, lt = entries[rid]
                entries[rid] = (rid, Point(p.x + dx, p.y), lt)
        return change

    def flipped(var):
        def change(entries):
            rid = rng.randrange(n)
            _, p, lt = entries[rid]
            entries[rid] = (rid, p, lt.replace({var: 1 - lt.values[var]}))
        return change

    lo = rng.randrange(1, len(trace.rounds))
    hi = rng.randrange(lo + 1, len(trace.rounds) + 1)
    return [
        changed(nudged(rng.randrange(n))),
        changed(nudged(*rng.sample(range(n), 2))),
        changed(nudged(*range(n), dx=1e-13)),
        changed(flipped(CYC_STATUS)),
        changed(flipped(CYC_B)),
        dataclasses.replace(trace, rounds=trace.rounds[: lo - 1] + trace.rounds[hi - 1 :]),
    ]


def test_check_cyc_equals_oracle():
    # Real traces at n = 3, 4 and 5, full and short, with the default and a
    # non-default mover distance and tolerance, and forgeries of each: every
    # verdict, its round and its reason equal the oracle's.  Odd seeds deal
    # the robots' places at random, so the mover need not be robot 0 and the
    # ring need not run in id order.
    rng = random.Random(19)
    late = lambda i: 0.3 + 0.1 * (i % 4)  # noqa: E731
    seen = set()
    for n in (3, 4, 5):
        rounds = 40 * 2 ** (n - 1)
        places = [p for _, p, _ in cyc_initial_config(n).entries]
        for d_rel, tol in ((None, 1e-9), (late, 1e-6)):
            alg = alg_cyclic_cycles(n) if d_rel is None else alg_cyclic_cycles(n, d_rel=d_rel)
            for seed in range(40 if d_rel is None else 10):
                if seed % 2:
                    rng.shuffle(places)
                initial = make_configuration(places, palette=CYC_PALETTE)
                trace = run(initial, "ssynch", alg, rounds=rounds, seed=seed)
                short = dataclasses.replace(trace, rounds=trace.rounds[: rounds // 8])
                for case in [trace, short] + _forged_cyc(trace, rng):
                    for fn in (None, late):
                        want = oracle_check_cyc(case, n, d_rel=fn, tol=tol)
                        assert check_cyc(case, n, d_rel=fn, tol=tol) == want, (n, seed)
                        seen.add(want.status if want.status != REJECT else re.sub(r"\d+", "#", want.reason))
    assert seen == {
        OK, INCONCLUSIVE, "circle robot # moved",
        "uniform center status while the mover is away from the center",
        "uniform final status while the mover is off its target",
        "pattern sequence must alternate starting from the base pattern",
        "counter showed #, expected #",
    }, seen


def test_kept_readings_never_cross_contexts():
    # check_cyc keeps its set-up and each configuration's reading across
    # calls.  One real n = 5 trace, its forgeries and one that only the
    # tighter tolerance rejects (a circle robot moved 1e-7 of the radius)
    # share nearly all their configuration objects; so do the first three
    # under a second initial configuration with the places shuffled.  Checked
    # under each d_rel and tol in interleaved orders, every verdict still
    # equals the oracle's.
    rng = random.Random(22)
    late = lambda i: 0.3 + 0.1 * (i % 4)  # noqa: E731
    trace = run(cyc_initial_config(5), "ssynch", alg_cyclic_cycles(5), rounds=800, seed=3)
    entries = list(trace.rounds[99].config.entries)
    rid, p, lt = entries[2]
    entries[2] = (rid, Point(p.x + 1e-7, p.y), lt)
    rounds = list(trace.rounds)
    rounds[99] = dataclasses.replace(rounds[99], config=Configuration(tuple(entries)))
    places = [p for _, p, _ in trace.initial.entries]
    rng.shuffle(places)
    second = make_configuration(places, palette=CYC_PALETTE)
    cases = [trace, dataclasses.replace(trace, rounds=tuple(rounds))] + _forged_cyc(trace, rng)
    cases += [dataclasses.replace(case, initial=second) for case in cases[:3]]
    want = {(c, d, tol): oracle_check_cyc(cases[c], 5, d_rel=(None, late)[d], tol=tol)
            for c in range(len(cases)) for d in (0, 1) for tol in (1e-9, 1e-6)}
    # Each part of the context changes some verdict, so a context or reading
    # kept without it would show.
    assert any(want[c, 0, tol] != want[c, 1, tol] for c, _, tol in want)
    assert any(want[c, d, 1e-9] != want[c, d, 1e-6] for c, d, _ in want)
    assert any(want[c, d, tol] != want[len(cases) - 3 + c, d, tol] for c in range(3) for _, d, tol in want)
    keys = list(want)
    for order in range(4):
        rng.shuffle(keys)
        for c, d, tol in keys + keys[::-1]:
            got = check_cyc(cases[c], 5, d_rel=(None, late)[d], tol=tol)
            assert got == want[c, d, tol], (order, c, d, tol)


def test_kept_context_skips_no_per_call_error(tmp_path, capsys):
    from lcmswarm import cli

    initial = cyc_initial_config(3)
    trace = run(initial, "ssynch", alg_cyclic_cycles(3), rounds=160, seed=1)
    before = [(c, hash(c), repr(c)) for c in trace.configs()]
    write_trace(trace, str(tmp_path / "before.trace"))
    assert check_cyc(trace, 3) == Verdict(OK)
    # The configurations carry their readings now, unseen by ==, hash, repr
    # and the trace writer.
    fresh = [Configuration(c.entries) for c in trace.configs()]
    assert [(c, hash(c), repr(c)) for c in trace.configs()] == before
    assert [(c, hash(c), repr(c)) for c in fresh] == before
    write_trace(trace, str(tmp_path / "after.trace"))
    assert (tmp_path / "after.trace").read_bytes() == (tmp_path / "before.trace").read_bytes()

    # A fraction that only a long trace reaches raises after a short trace
    # was checked with the same function and initial configuration.
    d_rel = lambda i: 0.5 if i < 2 else 1.5  # noqa: E731
    short = dataclasses.replace(trace, rounds=trace.rounds[:1])
    assert check_cyc(short, 3, d_rel=d_rel).status == INCONCLUSIVE
    with pytest.raises(ValueError, match=r"^d\(2\) = 1.5 must be a radius fraction"):
        check_cyc(trace, 3, d_rel=d_rel)

    # Another palette over the kept initial object, and a wrong n.
    assert check_cyc(trace, 3) == Verdict(OK)
    other = dataclasses.replace(trace, header=dataclasses.replace(trace.header, palette=(3,)))
    with pytest.raises(ValueError, match=r"^trace palette \(3,\) differs"):
        check_cyc(other, 3)
    with pytest.raises(ValueError, match=r"^trace has 3 robots, expected 4$"):
        check_cyc(trace, 4)

    # Through the CLI: a good trace, then a stay trace whose start decodes as
    # the pattern, in one process.
    stay = run(make_configuration([p for _, p, _ in initial.entries]), "fsynch", alg_stay(), rounds=5)
    write_trace(stay, str(tmp_path / "stay.trace"))
    assert cli.main(["check", "--problem", "cyc", "--trace", str(tmp_path / "before.trace")]) == 0
    assert cli.main(["check", "--problem", "cyc", "--trace", str(tmp_path / "stay.trace")]) == 2
    assert capsys.readouterr().err == "error: trace palette () differs from the cyclic-cycles palette (2, 2, 2, 2)\n"


def test_set_ups_kept_per_initial_configuration_read_each_configuration_once(monkeypatch):
    # Checks of an n = 4 and an n = 5 trace in turn: each trace's initial
    # configuration keeps its own set-up, so from the second pass on no
    # configuration is read again, and every verdict equals the oracle's.
    traces = {n: run(cyc_initial_config(n), "ssynch", alg_cyclic_cycles(n),
                     rounds=50 * 2 ** (n - 1), seed=4) for n in (4, 5)}
    want = {n: oracle_check_cyc(trace, n) for n, trace in traces.items()}
    reads, read = [], problems._cyc_reading

    def counted(ctx, config):
        reads.append(config)
        return read(ctx, config)

    monkeypatch.setattr(problems, "_cyc_reading", counted)
    for rep in range(3):
        first = len(reads)
        for n, trace in traces.items():
            assert check_cyc(trace, n) == want[n], (rep, n)
        assert (len(reads) > first) == (rep == 0), rep


class TestCgeTargets:
    def test_target_map_examples(self):
        assert cge_target_map(0.0, 1.0) == -1.0
        assert cge_target_map(2.0, 1.0) == 3.0

    def test_targets_of_two_point_line(self):
        cfg = make_configuration([Point(0, 0), Point(2, 0)])
        assert cge_targets(cfg) == [Point(-1, 0), Point(3, 0)]

    def test_mean_of_integers_lands_exactly(self):
        # 2a - b sits exactly on a lattice point when n divides the sum; the
        # guard keeps representation error from flooring one short.
        cfg = make_configuration([Point(1, 0), Point(2, 0), Point(3, 0)])
        assert cge_targets(cfg) == [Point(0, 0), Point(2, 0), Point(4, 0)]


def one_shot_expansion(points, extra_idle_rounds=2, tamper=None):
    start = [tuple(p) for p in points]
    cfg = make_configuration([Point(*p) for p in start])
    targets = [(p.x, p.y) for p in cge_targets(cfg)]
    if tamper:
        idx, dx, dy = tamper
        targets[idx] = (targets[idx][0] + dx, targets[idx][1] + dy)
    frames = [start] + [targets] * (1 + extra_idle_rounds)
    return synthetic_trace(frames)


class TestCheckCge:
    def test_one_shot_expansion_passes(self):
        assert check_cge(one_shot_expansion([(0, 0), (2, 0), (1, 3)])).status == OK

    def test_colocated_fixed_point_passes(self):
        assert check_cge(one_shot_expansion([(0, 0), (0, 0)])).status == OK

    def test_off_by_one_target_rejected(self):
        verdict = check_cge(one_shot_expansion([(0, 0), (2, 0), (1, 3)], tamper=(1, 1, 0)))
        assert verdict.status == REJECT

    def test_overshoot_then_return_rejected(self):
        trace = synthetic_trace([
            [(0, 0), (2, 0)],
            [(-1, 0), (4, 0)],  # robot 1 overshoots its target (3,0)
            [(-1, 0), (3, 0)],
        ])
        assert check_cge(trace).status == REJECT

    def test_motion_after_arrival_rejected(self):
        trace = synthetic_trace([
            [(0, 0), (2, 0)],
            [(-1, 0), (3, 0)],
            [(-1, 0), (3.5, 0)],
        ])
        verdict = check_cge(trace)
        assert verdict.status == REJECT and "after reaching" in verdict.reason

    def test_activated_idling_short_of_target_rejected(self):
        trace = synthetic_trace([
            [(0, 0), (2, 0)],
            [(-1, 0), (2.5, 0)],
            [(-1, 0), (2.5, 0)],  # robot 1 activated but parked short
        ])
        assert check_cge(trace).status == REJECT

    def test_multi_round_straight_progress_passes(self):
        trace = synthetic_trace([
            [(0, 0), (2, 0)],
            [(-1, 0), (2.5, 0)],
            [(-1, 0), (3, 0)],
        ], acts=[{0, 1}, {1}])
        assert check_cge(trace).status == OK

    def test_unfinished_progress_is_inconclusive(self):
        trace = synthetic_trace([
            [(0, 0), (2, 0)],
            [(-1, 0), (2.5, 0)],
        ], acts=[{0, 1}])
        assert check_cge(trace).status == INCONCLUSIVE

    def test_checker_composes_on_integer_configurations(self):
        rng = random.Random(5)
        for _ in range(10):
            pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)]
            first = make_configuration([Point(*p) for p in pts])
            expanded = [(p.x, p.y) for p in cge_targets(first)]
            assert check_cge(one_shot_expansion(pts)).status == OK
            assert check_cge(one_shot_expansion(expanded)).status == OK

    def test_needs_two_robots(self):
        with pytest.raises(ValueError):
            check_cge(synthetic_trace([[(0, 0)]]))


# check_cge before it derived `reached` from the remaining distance and
# walked the configurations itself, copied verbatim apart from its name: the
# oracle that pins each (status, round, reason) verdict.
def oracle_check_cge(trace: Trace, tol: float = 1e-9) -> Verdict:
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


def _cge_step(rng: random.Random, start: Point, p: Point, target: Point) -> Point:
    """One robot's next position in a synthetic expansion: idle, a partial or
    full step to the target, a sideways detour, a retreat toward the start,
    or a nudge, by an offset of any size from below 1e-9 to above 1e-3."""
    size = rng.choice([1e-12, 1e-6, 1e-4, 1e-2, 0.5])
    dx, dy = target.x - p.x, target.y - p.y
    move = rng.choice(["idle"] * 3 + ["part"] * 3 + ["full"] * 3 + ["detour", "retreat", "nudge"])
    if move == "part":
        f = rng.random()
        return Point(p.x + f * dx, p.y + f * dy)
    if move == "full":
        return target
    if move == "detour":  # off the segment, perpendicular to it
        return Point(p.x + 0.5 * dx - size * dy, p.y + 0.5 * dy + size * dx)
    if move == "retreat":
        return Point(p.x + size * (start.x - p.x), p.y + size * (start.y - p.y))
    if move == "nudge":
        return Point(p.x + size * rng.uniform(-1, 1), p.y + size * rng.uniform(-1, 1))
    return p


def test_check_cge_equals_oracle():
    # Seeded synthetic traces of 2-4 robots, whose robots may start together;
    # a robot that moves is activated, and an idler now and then: every
    # verdict, its round and its reason equal the oracle's at no, a tight and
    # a loose tolerance.
    rng = random.Random(23)
    seen = set()
    for _ in range(4000):
        n = rng.randint(2, 4)
        starts = [Point(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        targets = cge_targets(make_configuration(starts))
        frames, acts = [starts], []
        for _ in range(rng.randint(1, 6)):
            now = [_cge_step(rng, s, p, t) for s, p, t in zip(starts, frames[-1], targets)]
            acts.append({rid for rid in range(n) if now[rid] != frames[-1][rid] or rng.random() < 0.1})
            frames.append(now)
        trace = synthetic_trace([[tuple(p) for p in pts] for pts in frames], acts)
        for tol in (0.0, 1e-9, 1e-3):
            want = oracle_check_cge(trace, tol)
            assert check_cge(trace, tol) == want, (frames, acts, tol)
            seen.add((want.status, re.sub(r"\d+", "#", want.reason or "")))
    assert seen == {
        (OK, ""),
        (INCONCLUSIVE, "robots [#] have not reached their targets"),
        (INCONCLUSIVE, "robots [#, #] have not reached their targets"),
        (INCONCLUSIVE, "robots [#, #, #] have not reached their targets"),
        (INCONCLUSIVE, "robots [#, #, #, #] have not reached their targets"),
        (REJECT, "robot # moved after reaching its target"),
        (REJECT, "robot # left the straight segment to its target"),
        (REJECT, "robot # moved away from its target"),
        (REJECT, "robot # was activated but idled short of its target"),
    }


class TestCheckRdv:
    def test_gathered_and_stable_is_ok(self):
        trace = synthetic_trace([
            [(0, 0), (2, 0)], [(1, 0), (1.5, 0)], [(1, 1), (1, 1)], [(1, 1), (1, 1)],
        ])
        assert check_rdv(trace).status == OK

    def test_separation_after_gathering_rejected(self):
        trace = synthetic_trace([
            [(0, 0), (2, 0)], [(1, 1), (1, 1)], [(1, 1), (2, 1)],
        ])
        verdict = check_rdv(trace)
        assert verdict.status == REJECT and verdict.round == 2

    def test_never_gathered_is_inconclusive(self):
        trace = synthetic_trace([[(0, 0), (2, 0)]] * 5)
        assert check_rdv(trace).status == INCONCLUSIVE

    def test_wrong_robot_count(self):
        with pytest.raises(ValueError):
            check_rdv(synthetic_trace([[(0, 0)]]))


CHECKERS = {
    "sro": check_sro,
    "rdv": check_rdv,
    "cge": check_cge,
    "cyc": lambda trace, tol: check_cyc(trace, 3, tol=tol),
}


def clean_trace(checker):
    """A trace its checker accepts at the default tolerance."""
    if checker == "cyc":
        return run(cyc_initial_config(3), "ssynch", alg_cyclic_cycles(3), rounds=160, seed=0)
    return synthetic_trace({
        "sro": [[(0, 0), (1, 1)], [(0, 1), (1, 0)]],
        "rdv": [[(1, 1), (1, 1)]],
        "cge": [[(0, 0), (2, 0)], [(-1, 0), (3, 0)]],
    }[checker])


@pytest.mark.parametrize("checker", sorted(CHECKERS))
@pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
def test_every_checker_refuses_a_bad_tolerance(checker, tol):
    trace = clean_trace(checker)
    assert CHECKERS[checker](trace, 1e-9).status == OK
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        CHECKERS[checker](trace, tol)
