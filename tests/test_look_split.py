"""Smoke test of tools/look_split.py, the cost of one Look by swarm shape, at
counts small enough for Tier-1."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "look_split.py")


def test_look_split_alternates_sides_and_times_every_shape():
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, TOOL, "--side", f"a={src}", "--side", f"b={src}", "--pairs", "2",
         "--shape", "3x3", "--shape", "8x2", "--shape", "9x9", "--looks", "50", "--repeats", "2"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    split = json.loads(out.stdout)
    assert split["instrument"].endswith("sides alternate a, b")
    for side in ("a", "b"):
        blocks = split[side]["us_per_look"]
        assert list(blocks) == ["3x3", "8x2", "9x9"]
        for shape, times in blocks.items():
            assert len(times) == 4 and min(times) > 0  # 2 pairs of 2 blocks
            assert min(times) <= split[side]["median_us"][shape] <= max(times)


def test_look_split_rejects_more_observers_than_locations():
    out = subprocess.run([sys.executable, TOOL, "--shape", "2x3"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and "LOCATIONSxOBSERVERS" in out.stderr
