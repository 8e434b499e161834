"""Smoke test of tools/src_lines.py, the package's line counts by kind."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_kinds_sum_to_each_file_and_two_roots_give_their_difference():
    same = os.path.join(ROOT, ".")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_lines.py"), ROOT, same],
        capture_output=True, text=True, check=True, timeout=60,
    )
    report = json.loads(out.stdout)
    modules = report[ROOT]
    assert "simulators.py" in modules and modules == report[same]
    for name, counts in modules.items():
        assert counts["code"] + counts["comment"] + counts["docstring"] + counts["blank"] == counts["lines"]
        if name != "total":
            with open(os.path.join(ROOT, "src", "lcmswarm", name), encoding="utf-8") as f:
                assert counts["lines"] == len(f.read().splitlines()), name
            assert min(counts["code"], counts["docstring"]) > 0, name
    assert modules["total"]["functions"] == sum(c["functions"] for n, c in modules.items() if n != "total")
    assert set(report["diff"].values()) == {0}
