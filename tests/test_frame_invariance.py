"""Frame invariance of the protocols whose specification is frame-free: a run
under random per-robot frames that keep chirality (a rotation in (-pi, pi), a
scale in [0.25, 4]) shows the same lights as the identity-frame run of the
same seed, and the same positions within 1e-9.  A meta-simulator's trace
under such frames passes the fidelity check given those frames.  The
protocols that need no chirality do the same under frames that may also
reflect, in runs without chirality."""

from __future__ import annotations

import math
import random

import pytest

from lcmswarm.algorithms import (
    alg_cyclic_cycles,
    alg_move_east,
    alg_sro,
    alg_stay,
    alg_tricolor,
    cyc_initial_config,
    flag_scheme_algorithm,
)
from lcmswarm.core import Point, distance, make_configuration
from lcmswarm.engine import FrameSpec, run
from lcmswarm.scheduler import RSYNCH, SSYNCH
from lcmswarm.simulators import sim_lumi_by_fcom, sim_rs_by_s, verify_inner_fidelity
from test_simulators import _frames, spaced_config

SEEDS = range(10)
TOL = 1e-9  # check_sro's default tolerance


def _compared(algo, config0, host, rounds, seed):
    """The configurations of the identity-frame run and of the run under
    random frames, round by round."""
    plain = run(config0, host, algo, rounds=rounds, seed=seed)
    framed = run(config0, host, algo, rounds=rounds, seed=seed, frames=_frames(seed, config0.n))
    return zip(plain.configs(), framed.configs())


def _same(a, b) -> bool:
    return all(la.values == lb.values and distance(pa, pb) <= TOL
               for (_, pa, la), (_, pb, lb) in zip(a.entries, b.entries))


def _case(name: str, inner=None):
    """A protocol, its initial configuration, its host and rounds; frame-free
    unless it is a wrapper given an inner protocol other than stay."""
    inner = inner or alg_stay()
    if name == "sim-rs-by-s":
        algo, host, rounds = sim_rs_by_s(inner), SSYNCH, 110
    elif name == "sim-lumi-by-fcom":
        algo, host, rounds = sim_lumi_by_fcom(inner, 3), RSYNCH, 240
    else:  # cyclic-cycles-n<n>, over one counter cycle
        n = int(name.rpartition("-n")[2])
        return alg_cyclic_cycles(n), cyc_initial_config(n), SSYNCH, 50 * 2 ** (n - 1)
    return algo, spaced_config(3, algo.palette), host, rounds


@pytest.mark.parametrize("case", ["cyclic-cycles-n3", "cyclic-cycles-n4", "cyclic-cycles-n5",
                                  "sim-rs-by-s", "sim-lumi-by-fcom"])
def test_frame_free_protocol_runs_the_same_under_any_frames(case):
    algo, config0, host, rounds = _case(case)
    for seed in SEEDS:
        for i, (a, b) in enumerate(_compared(algo, config0, host, rounds, seed)):
            assert _same(a, b), (seed, i)


def test_sro_runs_the_same_under_any_frames_above_check_sros_floor():
    # Below check_sro's floor of 1000 * tol * span a segment is past what the
    # checker resolves, and there Snapshot.others(), which compares with an
    # absolute 1e-9 in the robot's own scaled frame, may tell the frames apart.
    config0 = make_configuration([Point(0.0, 0.0), Point(1.0, 1.0)], palette=alg_sro().palette)
    for seed in SEEDS:
        compared = 0
        for i, (a, b) in enumerate(_compared(alg_sro(), config0, RSYNCH, 60, seed)):
            pa, pb = a.position(0), a.position(1)
            if distance(pa, pb) <= 1000.0 * TOL * max(1.0, abs(pa.x), abs(pa.y), abs(pb.x), abs(pb.y)):
                break
            assert _same(a, b), (seed, i)
            compared += 1
        assert compared > 30, seed


INNERS = {"stay": alg_stay, "move-east": alg_move_east, "tricolor": alg_tricolor}
WRAPPERS = ("sim-rs-by-s", "sim-lumi-by-fcom")


@pytest.mark.parametrize("inner", INNERS)
@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_fidelity_holds_under_the_frames_the_trace_ran_under(wrapper, inner):
    inner_algo = INNERS[inner]()
    algo, config0, host, rounds = _case(wrapper, inner_algo)
    for seed in SEEDS:
        trace = run(config0, host, algo, rounds=rounds, seed=seed, frames=_frames(seed, 3))
        assert verify_inner_fidelity(trace, inner_algo, frames=_frames(seed, 3)) == [], seed



def _reflecting_frames(seed: int, n: int) -> dict[int, FrameSpec]:
    """Random per-robot frames that may reflect: a rotation in (-pi, pi), a
    scale in [0.25, 4], and a mirror for robot 0 and for each other robot
    with probability 1/2."""
    rng = random.Random(f"reflecting-frames-{seed}")
    return {rid: FrameSpec(rng.uniform(-math.pi, math.pi), 2.0 ** rng.uniform(-2.0, 2.0),
                           rid == 0 or rng.random() < 0.5)
            for rid in range(n)}


@pytest.mark.parametrize("name", ["sim-rs-by-s", "flag-scheme"])
def test_a_protocol_without_chirality_runs_the_same_under_reflecting_frames(name):
    algo = sim_rs_by_s(alg_stay()) if name == "sim-rs-by-s" else flag_scheme_algorithm()
    config0 = spaced_config(3, algo.palette)
    for seed in SEEDS:
        frames = _reflecting_frames(seed, 3)
        plain = run(config0, SSYNCH, algo, rounds=110, seed=seed, chirality=False)
        framed = run(config0, SSYNCH, algo, rounds=110, seed=seed, frames=frames, chirality=False)
        for i, (a, b) in enumerate(zip(plain.configs(), framed.configs())):
            assert _same(a, b), (seed, i)
        if name == "sim-rs-by-s":
            assert verify_inner_fidelity(framed, alg_stay(), frames=frames, chirality=False) == [], seed
