"""Smoke tests of the benchmark itself: one pass of every workload.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def one_pass(workload, trace, seed=7):
    args = Namespace(workload=workload, seed=seed, seconds=0, trace=trace)
    return run.run(args, setup_rounds=1, sweep_bits=(1 << 10, 1 << 11),
                   min_passes=1)


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def runs(request):
    return one_pass(request.param, 0), one_pass(request.param, 1)


def units(summary):
    return {k: m["unit"] for k, m in summary["metrics"].items()}


def test_every_output_passes(runs):
    for summary, _ in runs:
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= 1


def test_end_to_end_metrics_have_their_units(runs):
    summary, _ = runs[0]
    assert units(summary) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}


def test_per_layer_metrics_have_their_units(runs):
    summary, _ = runs[1]
    assert units(summary) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tracing_does_not_change_outputs(runs):
    (_, plain), (_, traced) = runs
    assert plain["digests"] == traced["digests"]


def test_layer_self_times_add_up_to_the_traced_wall_time(runs):
    metrics = runs[1][0]["metrics"]
    total = sum(metrics[f"{layer}.self_ms"]["value"]
                for layer in run.spans.LAYERS)
    total += metrics["trace.bench_ms"]["value"]
    assert total == pytest.approx(metrics["trace.wall_ms"]["value"],
                                  rel=1e-9)


def test_result_records_its_context(runs):
    context = runs[0][1]["context"]
    assert context["seed"] == 7
    for key in ("git_commit", "python", "nproc", "cpu_model"):
        assert context[key]


def test_layer_map_names_real_metrics_and_workloads():
    layers = json.loads((run.HERE / "layer_map.json").read_text())["layers"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(layers) == set(run.spans.LAYERS) | {"trace"}
    for layer, entry in layers.items():
        assert any(m["name"].startswith(layer + ".")
                   for m in SPEC["per_layer"])
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"] + entry["secondarily_on"]) <= workloads


def test_same_seed_same_inputs():
    for cls in run.WORKLOADS.values():
        a, b, c = cls(3), cls(3), cls(4)
        assert a.order(0) == b.order(0)
        assert a.order(0) != c.order(0) and a.order(0) != a.order(1)
        assert sorted(a.order(0)) == list(range(cls.pool_size))


def test_census_check_catches_missing_and_extra_rows():
    census = run.WORKLOADS["census"](0)
    q_max = census.item(0)
    rows = run.fresh_import().finfield.prime_power_scan(q_max)
    assert census.check(0, q_max, rows)[0]
    assert not census.check(0, q_max, rows[:5] + rows[6:])[0]
    assert not census.check(0, q_max, rows[:6] + rows[5:])[0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
