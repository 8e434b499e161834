"""Smoke test of tools/graph_split.py, the per-instance graph counts of a warm
sim-n3 process, at counts small enough for Tier-1."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_graph_split_alternates_sides_and_counts_every_instance():
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "graph_split.py"), "--side", f"a={src}",
         "--side", f"b={src}", "--warmup", "2", "--runs", "2"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    split = json.loads(out.stdout)
    assert split["instrument"].endswith("sides alternate a, b")
    assert split["a"] == split["b"]  # counts are deterministic
    counts = split["a"][0]
    instances = {k: v for k, v in counts.items() if isinstance(v, dict) and k != "all"}
    assert len(instances) == 9  # six wrappers and the three inner instances of the fidelity check
    for label in ("sim-rs-by-s/stay", "sim-lumi-by-fcom/tricolor"):
        assert instances[label]["yielded"] == 2 * (110 if label.startswith("sim-rs") else 240)
    for c in instances.values():
        assert 0 <= c["executed"] <= c["yielded"]
        assert c["hit_ratio"] == round(1.0 - c["executed"] / c["yielded"], 4)
    for key in ("yielded", "executed", "states"):
        assert counts["all"][key] == sum(c[key] for c in instances.values())
    assert counts["kept"] == 3 * counts["all"]["states"] <= counts["graph_entries"]
