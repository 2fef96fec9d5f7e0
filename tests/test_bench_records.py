"""Each committed BENCH_<n>.json record from n = 20 on agrees with its own raw runs.

The record keeps every run's value next to the summaries drawn from them, so
the medians, the better-pair counts, the digest verdict and the gain check
can all be recomputed here.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BETTER = {
    metric["name"]: metric["better"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}
RECORDS = sorted(
    (path for path in ROOT.glob("BENCH_*.json") if int(path.stem.split("_")[1]) >= 20),
    key=lambda path: int(path.stem.split("_")[1]),
)
# End-to-end medians are rounded to 4 decimals, traced medians to 3.
DECIMALS = {"end_to_end_medians": 4, "traced_medians": 3}


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def better_pairs(metric: str, parent: list, change: list) -> str:
    higher = BETTER[metric] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    return f"{wins} of {len(parent)}"


def test_records_from_20_on_are_found():
    assert [path.name for path in RECORDS][:2] == ["BENCH_20.json", "BENCH_21.json"]
    assert "BENCH_27.json" in [path.name for path in RECORDS]


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
@pytest.mark.parametrize("section", sorted(DECIMALS))
def test_medians_are_the_medians_of_the_runs(path, section):
    tolerance = 0.5 * 10 ** -DECIMALS[section] + 1e-9
    for workload, metrics in load(path)[section].items():
        for metric, entry in metrics.items():
            for side in ("parent", "change"):
                median = statistics.median(entry[side])
                assert abs(median - entry[f"{side}_median"]) <= tolerance, (workload, metric, side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_change_better_pairs_follow_the_metric_direction(path):
    record = load(path)
    for workload, metrics in record["end_to_end_medians"].items():
        for metric, entry in metrics.items():
            # Every run is one untraced pair; some records traced fewer.
            assert len(entry["parent"]) == len(record["runs"]["parent"]), (workload, metric)
            want = better_pairs(metric, entry["parent"], entry["change"])
            assert entry["change_better_pairs"] == want, (workload, metric)


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_run_digests_equal_is_recomputed(path):
    record = load(path)
    equal = True
    for parent, change in zip(record["runs"]["parent"], record["runs"]["change"], strict=True):
        assert parent["seed"] == change["seed"]
        for run in (parent, change):
            digests = run["run_digests"]
            for key, digest in digests.items():
                other = key.replace("trace0", "trace1")
                equal &= other not in digests or digests[other] == digest
        equal &= parent["run_digests"] == change["run_digests"]
    assert record["run_digests_equal"] is equal


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_gain_check_counts_every_pair(path):
    record = load(path)
    check = record["gain_check"]
    assert check["pairs"] == len(record["runs"]["parent"]) == len(record["runs"]["change"])
    workload, metric = check["metric"].split()
    entry = record["end_to_end_medians"][workload][metric]
    assert check["change_better_pairs"] == better_pairs(metric, entry["parent"], entry["change"])
    wins = int(check["change_better_pairs"].split()[0])
    wide = check["median_difference"] > check["parent_interquartile_range"]
    assert check["met"] is (wins >= 0.9 * check["pairs"] and wide)
