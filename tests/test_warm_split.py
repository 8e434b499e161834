"""Smoke test of tools/warm_split.py, the in-process split of a warm cyc-n5
run, at counts small enough for Tier-1."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_warm_split_alternates_sides_and_sums_its_parts():
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "warm_split.py"), "--side", f"a={src}",
         "--side", f"b={src}", "--pairs", "1", "--warmup", "2", "--runs", "2", "--repeats", "2"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    split = json.loads(out.stdout)
    assert split["instrument"].endswith("sides alternate a, b")
    for side in ("a", "b"):
        assert len(split[side]) == 2
        for block in split[side]:
            parts = block["generate_ms"] + block["walk_ms"] + block["check_cyc_ms"]
            assert min(block.values()) > 0 and abs(block["total_ms"] - parts) < 0.01
