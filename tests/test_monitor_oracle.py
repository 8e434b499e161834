"""monitor_properties against a verbatim copy of the separate-pass monitors
it replaced: the rs-by-s state loop, the lumi-by-fcom own-color, step and
transition loops, and the shared mega-cycle pass.  The single walk must give
the same violations, in the same order, on clean runs and on every forged
trace of test_simulators.TestMonitors."""

from __future__ import annotations

import dataclasses
import random

import pytest

from lcmswarm.algorithms import alg_move_east, alg_stay, alg_tricolor
from lcmswarm.core import Configuration, order_locations, points_close
from lcmswarm.engine import Trace, run
from lcmswarm.simulators import (
    CH_C,
    CH_E,
    CH_M,
    FC_STEP_1,
    FC_STEP_2,
    FC_STEP_3,
    FC_STEP_M,
    FC_STEP_SETS,
    RS_STEP_1,
    RS_STEP_2,
    RS_STEP_3,
    RS_STEP_4,
    RS_STEP_5,
    RS_STEP_M,
    RS_STEP_SETS,
    LumiByFcomLayout,
    RsBySLayout,
    _shows,
    _successor_copy,
    derive_fcom_layout,
    derive_rs_layout,
    flat_color,
    monitor_properties,
    sim_lumi_by_fcom,
    sim_rs_by_s,
)
from test_simulators import MONITOR_RULES, _healthy_trace, _tamper_light, spaced_config


# ---------------------------------------------------------------------------
# The oracle: the monitors as they were, copied verbatim.
# ---------------------------------------------------------------------------

def _inner_executions(trace: Trace) -> list[frozenset[int]]:
    """Per round, the robots whose events record an inner execution."""
    return [
        frozenset(rid for rid, evs in r.events.items() if "inner-exec" in evs)
        for r in trace.rounds
    ]



def _mega_cycle_violations(trace: Trace, executed: int) -> list[str]:
    """Check that between mega-cycle boundaries every robot executes the inner
    algorithm exactly once.  A cycle closes when every executed flag (light
    variable `executed`) is up and reopens once they have all been cleared."""
    n = trace.initial.n
    violations = []
    counts = {r: 0 for r in range(n)}
    draining = False
    for i, (execs, rec) in enumerate(zip(_inner_executions(trace), trace.rounds)):
        flags = [rec.config.light(r).values[executed] for r in range(n)]  # post-round
        if draining and execs:
            violations.append(f"round {i + 1}: inner execution between mega-cycles")
        for rid in execs:
            counts[rid] += 1
            if counts[rid] > 1:
                violations.append(f"round {i + 1}: robot {rid} executed twice in a mega-cycle")
        if not draining and all(flags):
            missing = [r for r, c in counts.items() if c != 1]
            if missing:
                violations.append(f"round {i + 1}: mega-cycle closed without robots {missing}")
            draining = True
        elif draining and not any(flags):
            counts = {r: 0 for r in range(n)}
            draining = False
    return violations


def _monitor_rs_by_s(trace: Trace, layout: RsBySLayout) -> list[str]:
    STEP, EXEC, CHARGED = layout.step, layout.executed, layout.charged
    configs = trace.configs()
    n = trace.initial.n
    violations: list[str] = []

    def flags(config, rid):
        t = config.light(rid).values
        return t[STEP], t[EXEC], t[CHARGED]

    events_by_round = _inner_executions(trace)
    last_singleton = None
    last_exec_set: frozenset[int] = frozenset()
    for i, config in enumerate(configs):
        state = [flags(config, r) for r in range(n)]
        steps = frozenset(s for s, _, _ in state)
        if steps not in RS_STEP_SETS:
            violations.append(f"round {i}: step configuration {sorted(steps)} is not allowed")
            continue
        if i > 0 and events_by_round[i - 1]:
            last_exec_set = events_by_round[i - 1]
        if len(steps) != 1:
            continue
        (step_val,) = steps
        pairs = [(c, e) for _, e, c in state]
        charged = [c for _, _, c in state]
        executed = [e for _, e, _ in state]
        if step_val == RS_STEP_1:
            if any(p != (CH_C, 0) for p in pairs):
                violations.append(f"round {i}: step-1 robots must all be charged and unexecuted")
        elif step_val == RS_STEP_2:
            if CH_M in charged:
                violations.append(f"round {i}: just-moved charge flag inside step 2")
            if CH_E not in charged:
                violations.append(f"round {i}: step 2 lacks a discharged robot")
            if any(c == CH_E and e == 0 for c, e in zip(charged, executed)):
                if any(executed):
                    violations.append(f"round {i}: stale discharged robot outside a fresh mega-cycle")
            if all(c == CH_E for c in charged) and not all(executed):
                violations.append(f"round {i}: fully discharged swarm with unexecuted robots")
            if all(c == CH_E and e == 1 for c, e in zip(charged, executed)):
                if last_singleton not in (RS_STEP_1, RS_STEP_2):
                    violations.append(f"round {i}: full execution without a preceding step 1")
        elif step_val == RS_STEP_3:
            if any(p not in ((CH_C, 0), (CH_E, 1)) for p in pairs):
                violations.append(f"round {i}: step-3 flags outside the reset/executed pair")
        elif step_val == RS_STEP_4:
            moved = frozenset(r for r, (_, e, c) in enumerate(state) if c == CH_M)
            if any(c == CH_M and e == 0 for c, e in zip(charged, executed)):
                violations.append(f"round {i}: moved-but-unexecuted robot in step 4")
            if not moved or len(moved) >= n:
                violations.append(f"round {i}: step-4 movers must be a nonempty proper subset")
            elif moved != last_exec_set:
                violations.append(f"round {i}: step-4 movers differ from the last inner execution")
        elif step_val == RS_STEP_5:
            if any(c == CH_M and e == 0 for c, e in zip(charged, executed)):
                violations.append(f"round {i}: moved-but-unexecuted robot in step 5")
            if any(c == CH_E and e == 0 for c, e in zip(charged, executed)):
                violations.append(f"round {i}: discharged-but-unexecuted robot in step 5")
            spent = frozenset(r for r, (_, e, c) in enumerate(state) if c in (CH_M, CH_E))
            if not spent or len(spent) >= n:
                violations.append(f"round {i}: step-5 spent robots must be a nonempty proper subset")
        elif step_val == RS_STEP_M:
            if CH_M in charged:
                violations.append(f"round {i}: just-moved charge flag inside step m")
            ready = sum(1 for c in charged if c == CH_C)
            if ready == 0 or ready >= n:
                violations.append(f"round {i}: step-m charged robots must be a nonempty proper subset")
        last_singleton = step_val

    violations.extend(_mega_cycle_violations(trace, EXEC))
    return violations


def _monitor_lumi_by_fcom(trace: Trace, layout: LumiByFcomLayout) -> list[str]:
    k, ell = layout.k, layout.ell
    COUNTS, STEP, EXEC = layout.counts, layout.step, layout.executed
    SUC_EXEC, CHECKED, SUC_CHECKED = layout.suc_executed, layout.checked, layout.suc_checked
    inner_palette = layout.inner
    configs = trace.configs()
    n = trace.initial.n
    violations: list[str] = []

    def actual_suc_state(config: Configuration, rid: int) -> tuple[list[int], int]:
        """The copy a robot should display of its successor location."""
        ring = order_locations([p for _, p, _ in config.entries])
        suc_loc = ring.locations[ring.suc(ring.index_of(config.position(rid)))]
        lights = [lt.values for _, p, lt in config.entries if points_close(p, suc_loc)]
        return _successor_copy(lights, layout)

    # Own-color reconstruction: every event value must match the executing
    # robot's actual inner color before the round.
    for i, r in enumerate(trace.rounds):
        pre = configs[i]
        for rid, evs in r.events.items():
            for ev in evs:
                if ev.startswith("own-color:"):
                    claimed = int(ev.split(":", 1)[1])
                    actual = flat_color(pre.light(rid).values[:k], inner_palette)
                    if claimed != actual:
                        violations.append(
                            f"round {i + 1}: robot {rid} reconstructed color {claimed}, actual {actual}"
                        )

    for i, config in enumerate(configs):
        steps = frozenset(config.light(r).values[STEP] for r in range(n))
        if steps not in FC_STEP_SETS:
            violations.append(f"round {i}: step configuration {sorted(steps)} is not allowed")

    # The step-transition guarantees, checked at every individual change.  A robot
    # may do its phase's work in the very round it joins the phase (the
    # all-but-one deviant), so the assertions are anchored to transitions,
    # not to the first uniform configuration.
    for i in range(1, len(configs)):
        pre, post = configs[i - 1], configs[i]
        for rid in range(n):
            s_old = pre.light(rid).values[STEP]
            s_new = post.light(rid).values[STEP]
            t = post.light(rid).values
            if s_old == FC_STEP_1 and s_new == FC_STEP_2:
                # Finished copying: flags up and the displayed copy must match
                # the successor location's ground truth.
                if t[CHECKED] != 1 or t[SUC_CHECKED] != 1:
                    violations.append(f"round {i}: robot {rid} left copying with flags down")
                counts, mask = actual_suc_state(post, rid)
                got = [t[COUNTS + c] for c in range(ell)]
                if got != counts:
                    violations.append(
                        f"round {i}: robot {rid} successor-color copy {got} != actual {counts}"
                    )
                if t[SUC_EXEC] != mask:
                    violations.append(
                        f"round {i}: robot {rid} successor-executed copy {t[SUC_EXEC]} != {mask}"
                    )
            elif s_old == FC_STEP_2 and s_new == FC_STEP_M:
                stale = [q for q in range(n) if pre.light(q).values[EXEC] != 1]
                if stale:
                    violations.append(
                        f"round {i}: robot {rid} closed the mega-cycle with {stale} unexecuted"
                    )
            elif s_old == FC_STEP_M and s_new == FC_STEP_2:
                if not _shows(t, layout.executed_reset):
                    violations.append(f"round {i}: robot {rid} left flag reset without resetting")
                stale = [
                    q for q in range(n)
                    if q != rid and pre.light(q).values[EXEC] != 0
                ]
                if stale:
                    violations.append(
                        f"round {i}: robot {rid} reopened simulation with {stale} not reset"
                    )
            elif s_old == FC_STEP_3 and s_new == FC_STEP_1:
                stale = [
                    q for q in range(n)
                    if q != rid and not _shows(pre.light(q).values, layout.checking_reset)
                ]
                if stale:
                    violations.append(
                        f"round {i}: robot {rid} left flag clearing while {stale} were stale"
                    )

    violations.extend(_mega_cycle_violations(trace, EXEC))
    return violations



def oracle_monitor_properties(trace: Trace) -> list[str]:
    if trace.header.algo == "sim-rs-by-s":
        return _monitor_rs_by_s(trace, derive_rs_layout(trace.header.palette))
    if trace.header.algo == "sim-lumi-by-fcom":
        return _monitor_lumi_by_fcom(trace, derive_fcom_layout(trace.header.palette))
    raise ValueError(f"trace algorithm {trace.header.algo!r} has no monitors")


# ---------------------------------------------------------------------------
# The single walk against the oracle.
# ---------------------------------------------------------------------------

INNERS = {"stay": alg_stay, "move-east": alg_move_east, "tricolor": alg_tricolor}
SEEDS = range(20)


def _clean_run(family, inner, seed):
    """An n=3 run of a wrapper over an inner protocol on its usual host."""
    if family == "rs":
        wrap = sim_rs_by_s(INNERS[inner]())
        return run(spaced_config(3, wrap.palette), "ssynch", wrap, rounds=110, seed=seed)
    wrap = sim_lumi_by_fcom(INNERS[inner](), 3)
    return run(spaced_config(3, wrap.palette), "rsynch", wrap, rounds=240, seed=seed)


def _forged(trace, rng):
    """The trace with one to three wrapper lights set to random values, and
    maybe one round's inner executions or own-color claims changed."""
    palette = trace.header.palette
    layout = (derive_rs_layout if trace.header.algo == "sim-rs-by-s" else derive_fcom_layout)(palette)
    first = layout.k if isinstance(layout, RsBySLayout) else layout.counts
    for _ in range(rng.randint(1, 3)):
        var = rng.randrange(first, len(palette))
        trace = _tamper_light(trace, rng.randrange(len(trace.rounds) + 1), rng.randrange(3),
                              var, rng.randrange(palette[var]))
    if rng.random() < 0.5:
        i = rng.randrange(len(trace.rounds))
        rec = trace.rounds[i]
        rid = rng.randrange(3)
        events = rec.events.get(rid, ())
        if "inner-exec" in events:
            events = tuple(e for e in events if e != "inner-exec")
        else:
            events += ("inner-exec", f"own-color:{rng.randrange(3)}")
        rounds = list(trace.rounds)
        rounds[i] = dataclasses.replace(rec, events={**rec.events, rid: events})
        trace = dataclasses.replace(trace, rounds=tuple(rounds))
    return trace


@pytest.mark.parametrize("family", ["rs", "fcom"])
@pytest.mark.parametrize("inner", sorted(INNERS))
def test_clean_and_randomly_forged_runs_equal_oracle(family, inner):
    rng = random.Random(f"{family}/{inner}")
    flagged = 0
    for seed in SEEDS:
        trace = _clean_run(family, inner, seed)
        assert monitor_properties(trace) == oracle_monitor_properties(trace) == [], seed
        for _ in range(3):
            forged = _forged(trace, rng)
            expected = oracle_monitor_properties(forged)
            assert monitor_properties(forged) == expected, seed
            flagged += bool(expected)
    assert flagged >= len(SEEDS)  # the forgeries do break rules


def _monitor_forgeries():
    """Every forged trace of test_simulators.TestMonitors."""
    rs, layout = _healthy_trace("rs")
    yield "step-1", _tamper_light(rs, 0, 0, layout.executed, 1), True
    yield "not-allowed", _tamper_light(rs, 0, 0, layout.step, 4), True
    first = next(i for i, rec in enumerate(rs.rounds)
                 if any("inner-exec" in e for e in rec.events.values()))
    rid = next(iter(rs.rounds[first].events))
    for later in range(first + 1, len(rs.rounds)):
        rec = rs.rounds[later]
        rounds = list(rs.rounds)
        rounds[later] = dataclasses.replace(
            rec, events={**rec.events, rid: rec.events.get(rid, ()) + ("inner-exec",)})
        yield f"double-{later}", dataclasses.replace(rs, rounds=tuple(rounds)), False
    for family, forge, message in MONITOR_RULES:
        trace, layout = _healthy_trace(family)
        yield f"{family}: {message}", forge(trace, layout), True


def test_every_monitor_forgery_equals_oracle():
    for name, trace, flagged in _monitor_forgeries():
        expected = oracle_monitor_properties(trace)
        assert bool(expected) >= flagged, name
        assert monitor_properties(trace) == expected, name
