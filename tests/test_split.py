"""Smoke tests of tools/split.py, one per mode, at counts small enough for
Tier-1.  Each runs the tool in this process and its children, one
interpreter each, for two sides that both import this checkout's src."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "tools"))
import split  # noqa: E402


def run_split(capsys, mode: str, *flags: str) -> dict[str, list[dict]]:
    """Each side's child outputs, after checking the one shape they come in."""
    assert split.main([mode, "--side", f"a={SRC}", "--side", f"b={SRC}", *flags]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["mode", "instrument", "sides"] and out["mode"] == mode
    assert out["instrument"].endswith("sides alternate a, b")
    assert list(out["sides"]) == ["a", "b"]
    return out["sides"]


def test_warm_alternates_sides_and_sums_its_parts(capsys):
    for [child] in run_split(capsys, "warm", "--warmup", "2", "--runs", "2", "--repeats", "2").values():
        assert len(child["blocks"]) == 2
        for block in child["blocks"]:
            parts = block["generate_ms"] + block["walk_ms"] + block["check_cyc_ms"]
            assert min(block.values()) > 0 and abs(block["total_ms"] - parts) < 0.01


def test_graph_counts_every_instance_the_same_on_each_side(capsys):
    sides = run_split(capsys, "graph", "--warmup", "2", "--runs", "2")
    assert sides["a"] == sides["b"]  # counts are deterministic
    [counts] = sides["a"]
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


# Code that only a round runs: the Look, Compute, Move.
ROUND_ONLY = ("core.snapshot", "core._local_coords", "core.from_local", "algorithms.", "engine.run_round",
              "engine._execute", "engine.apply_move")


def test_gc_times_every_collection_and_finds_no_cyclic_garbage(capsys):
    sides = run_split(capsys, "gc", "--workload", "sro-cli", "--workload", "swarm-n64", "--warmup", "1",
                      "--runs", "2")
    for children in sides.values():
        assert [child["workload"] for child in children] == ["sro-cli", "swarm-n64"]
        for child in children:
            assert child["unreachable"] == 0
            assert child["ms_per_run"] > 0
            collections = sum(child["collections"].values())
            assert collections == sum(c["collections"] for c in child["started_in"].values())
            assert 0 <= child["gc_share"] < 1
            # The round loop runs with the collector paused, so no collection
            # starts in code that only a round runs.
            assert not any(where.startswith(ROUND_ONLY) for where in child["started_in"]), child["started_in"]


def test_look_times_every_shape_in_every_pair(capsys):
    sides = run_split(capsys, "look", "--pairs", "2", "--shape", "3x3", "--shape", "8x2", "--shape", "9x9",
                      "--looks", "50", "--repeats", "2")
    for children in sides.values():
        assert len(children) == 2  # one per pair
        for child in children:
            assert list(child["us_per_look"]) == ["3x3", "8x2", "9x9"]
            for shape, times in child["us_per_look"].items():
                assert len(times) == 2 and min(times) > 0
                assert min(times) <= child["median_us"][shape] <= max(times)


def test_look_rejects_more_observers_than_locations(capsys):
    with pytest.raises(SystemExit) as exc:
        split.main(["look", "--shape", "2x3"])
    assert exc.value.code == 2 and "LOCATIONSxOBSERVERS" in capsys.readouterr().err


@pytest.mark.parametrize("mode, flag", [("warm", "--runs"), ("graph", "--runs"), ("gc", "--runs"),
                                        ("look", "--repeats")])
def test_a_count_below_one_exits_2_with_usage(capsys, mode, flag):
    with pytest.raises(SystemExit) as exc:
        split.main([mode, flag, "0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage:") and f"{flag}: takes a count of at least 1" in err
    args = split.parser().parse_args([mode, "--warmup", "0"] if mode != "look" else [mode, "--looks", "1"])
    assert args.mode == mode  # --warmup 0 stays valid
