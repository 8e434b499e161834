"""Smoke test of tools/cli_parity.py, the command-line parity battery, at one
flag draw per algorithm and inner name."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def battery(workdir):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cli_parity.py"), str(workdir), "--draws", "1"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_cli_parity_battery_covers_every_name_pair_and_repeats_itself(tmp_path):
    records = battery(tmp_path / "a")
    assert records == battery(tmp_path / "b")
    runs = [i for i, r in enumerate(records) if r["argv"][0] != "check"]
    pairs = {(r["argv"][2], r["argv"][4] if r["argv"][3] == "--inner" else None)
             for r in map(records.__getitem__, runs)}
    assert len(runs) == len(pairs) == 9 * 10
    for i, r in enumerate(records):
        assert r["code"] in (0, 1, 2) and "Traceback" not in r["stdout"] + r["stderr"], r
        written = r["argv"][0] == "run" and r["code"] == 0
        assert (r["out_sha256"] is not None) == written, r
        if written:  # every check of the trace follows its run
            checks = records[i + 1:i + 8]
            assert [c["argv"][2] for c in checks] == [
                "rdv", "sro", "cyc", "cge", "p-props", "step-lemmas", "induced"]
    assert any(r["out_sha256"] for r in records)
