"""Tests of the benchmark itself, at a tiny size.

    python -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

LAYER_UNITS = {name: unit for name, (unit, _, _) in layers.PER_LAYER.items()}


@pytest.fixture(autouse=True)
def small_sweep(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_M_LIST", ("4", "8"))


def tiny(name, trace, seed=3, expected=None):
    """One pass of two units."""
    return run.run_workload(workloads.WORKLOADS[name], seed, 0, trace,
                            units=2, expected=expected)


def test_benchmark_json_names_what_run_emits():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_a_unit(name, trace):
    result, record = tiny(name, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (1 + trace)
    want = LAYER_UNITS if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert record["counts_repeat"]
        assert record["self_time_gap"] <= run.MAX_SELF_TIME_GAP


@pytest.mark.parametrize("name", ["sweep-n2", "oracle-explicit"])
def test_counts_repeat_across_two_traced_runs(name):
    def counts():
        result, _ = tiny(name, 1, seed=5)
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] == "count"}

    first = counts()
    assert first["protocol.refine.calls"] > 0
    assert counts() == first


def test_passes_are_fresh_and_seeded():
    wl = workloads.WORKLOADS["partition-j4"]
    first = wl.passes(7, 3, None)
    again = wl.passes(7, 3, None)
    a, b = next(first), next(first)
    assert a != b
    assert (a, b) == (next(again), next(again))
    assert a == wl.inputs(7, 3, None)


def test_unit_tail_leaves_ten_units_of_a_pass_beyond_it():
    times = list(range(80))           # two passes of 40 units
    assert run.unit_tail(times, 40) == (59, 75.0)
    assert run.unit_tail(times[:40], 40) == (29, 75.0)
    assert run.unit_tail([3, 1, 2], 1) == (3, 100.0)


def test_wrong_digest_counts_in_failed_frac():
    wl = workloads.WORKLOADS["walk-samples"]
    (argv,), _ = wl.inputs(3, 2, None)
    result, record = tiny("walk-samples", 0, expected={workloads.digest_key(argv): "0" * 64})
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, 2)
    assert record["failed_frac"] == 0.5


def test_recorded_digests_match_default_seed():
    result, _ = tiny("partition-j4", 0, seed=workloads.DEFAULT_SEED)
    assert result["correct"]
    keys = [workloads.digest_key(argv)
            for (argv,) in workloads.WORKLOADS["partition-j4"].inputs(
                workloads.DEFAULT_SEED, 2, None)]
    assert all(k in workloads.load_digests() for k in keys)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk-samples",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
