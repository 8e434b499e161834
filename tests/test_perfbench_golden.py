"""The benchmark's golden check as a Tier-1 test: for every perfbench
workload, the traces and simulated statistics of seed 0 must match
`perfbench/golden.json` exactly, so no change can move a pinned byte
without a test failing."""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_perfbench_golden_check_passes(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    check = worker.golden_check(workload, workload.build(workloads.no_wrap), str(tmp_path))
    assert check["ok"], check["detail"]


def test_tracer_patch_points_resolve_to_callables():
    # A traced run (`perfbench/run.py --trace 1`) patches these attributes and
    # wraps `cli.build_algorithm`; a refactor that drops one must fail here.
    points = [(module, attr) for module, attr, _ in tracing.PATCH_POINTS]
    for module, attr in points + [("lcmswarm.cli", "build_algorithm")]:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
