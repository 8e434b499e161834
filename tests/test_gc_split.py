"""Smoke test of tools/gc_split.py, the cyclic collector's cost per perfbench
workload, at counts small enough for Tier-1."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_gc_split_alternates_sides_and_times_every_collection():
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "gc_split.py"), "--side", f"a={src}", "--side", f"b={src}",
         "--workload", "sro-cli", "--workload", "swarm-n64", "--warmup", "1", "--runs", "2"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    split = json.loads(out.stdout)
    assert split["instrument"].endswith("sides alternate a, b")
    assert set(split) == {"instrument", "sro-cli", "swarm-n64"}
    for name in ("sro-cli", "swarm-n64"):
        assert list(split[name]) == ["a", "b"]
        for child in split[name]["a"] + split[name]["b"]:
            assert child["unreachable"] == 0
            assert child["ms_per_run"] > 0
            collections = sum(child["collections"].values())
            assert collections == sum(c["collections"] for c in child["started_in"].values())
            assert 0 <= child["gc_share"] < 1
            # The round loop runs with the collector paused, so no collection
            # starts in code that only a round runs: the Look, Compute, Move.
            assert not any(where.startswith(ROUND_ONLY) for where in child["started_in"]), child["started_in"]


ROUND_ONLY = ("core.snapshot", "core._local_coords", "core.from_local", "algorithms.", "engine.run_round",
              "engine._execute", "engine.apply_move")
