"""Checks of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

# Pin BLAS before numpy loads, as the worker does, so golden digests hold.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402
from worker import GOLDEN_PATH, WORKLOADS, Runner, Workload  # noqa: E402

GOLDEN = json.loads(GOLDEN_PATH.read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per op at the parent code: two hard-label rasterizations per run_pipeline,
# two frame combinations when fc is on, one frustum per run, four sweep rows
# (fc is on in two of them).
PER_RUN = {
    "view_transform.frustum_calls": 1,
    "labels.hard_labels_calls": 2,
    "pci.frame_combination_calls": 2,
    "pipeline.run_calls": 1,
}
EXPECTED_CALLS = {
    "cli-default": PER_RUN,
    "lib-large": PER_RUN,
    "cli-sweep": {k: 4 * v if k != "pci.frame_combination_calls" else 4 for k, v in PER_RUN.items()},
}


def _traced_op(name: str, seed: int, work_dir: Path):
    tracer = Tracer()
    runner = Runner(Workload(name, work_dir), GOLDEN[name])
    _, ok = runner.run(seed, tracer, op_id=1)
    assert ok, runner.failures
    assert runner.golden_checked == 1
    return layer_metrics(tracer, {1: 1.0}, [1]), tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_and_self_times_add_up(name, tmp_path):
    first, tracer = _traced_op(name, 5, tmp_path)
    second, _ = _traced_op(name, 5, tmp_path)
    counts = {k for k in first if not k.endswith("_ms")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert {k: first[k] for k in EXPECTED_CALLS[name]} == EXPECTED_CALLS[name]
    assert first["geometry.points_in_box_calls"] > 0

    layer_sum = sum(first[f"{layer}.self_ms"] for layer in LAYERS)
    assert layer_sum == pytest.approx(first["trace.op_ms"], rel=1e-9)
    assert all(first[f"{layer}.self_ms"] >= 0 for layer in LAYERS)

    spans = tmp_path / "spans.jsonl"
    tracer.write(spans)
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records[0]["parent"] is None and records[0]["op"] == 1
    assert {r["name"].split(".")[0] for r in records} <= set(LAYERS)


def test_a_changed_output_fails_its_golden_digest(tmp_path):
    golden = dict(GOLDEN["cli-sweep"])
    golden["2"] = "0" * 64
    runner = Runner(Workload("cli-sweep", tmp_path), golden)
    assert runner.run(1)[1]
    assert not runner.run(2)[1]
    assert runner.failures == [f"seed 2: CheckFailed: golden digest mismatch: "
                               f"{GOLDEN['cli-sweep']['2']} != {'0' * 64}"]


def _run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, declared):
    proc = _run_bench(ROOT, "cli-sweep", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}$", "\n".join(lines), re.M)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "cli-default", 0)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
