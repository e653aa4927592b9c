"""Self-tests for the benchmark: every named metric is emitted, the
correctness gate trips on a wrong answer, and the seed changes the inputs
but not their sizes or verdicts.

    python3 -m pytest perfbench -q
"""

import json
import math
import random
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402
from ordcore import cores, graphs, hypergraphs, retraction  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result = run.run_workload(workload, 1, 0.01, trace, tiny=True)["result"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _bad_core_k(g, k):
    return (0,), graphs.MonotoneMap((0,) * g.n)


def _bad_retraction(g, x):
    return graphs.MonotoneMap(tuple(range(g.n)))


def _bad_hyper(h):
    return graphs.MonotoneMap(tuple(range(h.n)))


@pytest.mark.parametrize(
    "workload, module, name, stub",
    [
        ("retract-sweep", cores, "decide_core_with_k_vertices", _bad_core_k),
        ("retract-large", retraction, "decide_retraction", _bad_retraction),
        ("gadget-verify", hypergraphs, "find_nonsurjective_hyper_endomorphism", _bad_hyper),
    ],
)
def test_gate_trips_on_invalid_witness(monkeypatch, workload, module, name, stub):
    monkeypatch.setattr(module, name, stub)
    record = run.run_workload(workload, 1, 0.01, 0, tiny=True)
    assert record["result"]["failed"] > 0
    assert not record["result"]["correct"]
    assert record["error_rate"] > 0


@pytest.mark.parametrize("workload", sorted(wl.GENERATORS))
def test_seed_keeps_sizes_and_verdict_mix(workload):
    a, b = (wl.GENERATORS[workload](random.Random(f"{workload}:{s}"), False) for s in (1, 2))
    assert [i.signature for i in a] == [i.signature for i in b]
    assert {i.expected for i in a} == ({True} if workload == "retract-large" else {True, False})


def test_cli_seed_keeps_commands_and_exit_codes(tmp_path):
    calls = []
    for s in (1, 2):
        d = tmp_path / str(s)
        d.mkdir()
        calls.append(wl.cli_calls(random.Random(f"cli:{s}"), d))
    assert [(c.argv[0], c.code) for c in calls[0]] == [(c.argv[0], c.code) for c in calls[1]]
    assert [c.stdout for c in calls[0]] != [c.stdout for c in calls[1]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)])[0] == 89.0
    assert run.tail([1.0, 5.0, 3.0])[0] == 5.0


def test_p50_rests_on_per_instance_means():
    # two passes over three instances, in pass order
    assert run.per_instance_mean([1.0, 10.0, 100.0, 3.0, 20.0, 300.0], 2) == [2.0, 15.0, 200.0]


def test_trace_counts_only_timed_calls():
    # the gate's is_core cross-checks run outside instance spans, so the
    # kernels stay at zero on the sweep's timed path
    metrics = run.run_workload("retract-sweep", 1, 0.01, 1, tiny=True)["result"]["metrics"]
    assert metrics["kernels.find_hom.calls"]["value"] == 0
    assert metrics["retraction.encode.calls"]["value"] > 0
    assert metrics["cores.subsets_per_instance"]["value"] > 0
