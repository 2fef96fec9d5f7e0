"""fgbev benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. Each run starts fresh worker processes
(worker.py) with the BLAS thread count pinned to 1: a few that only measure
set-up time (fresh process to the end of the cold first op) and one that then
runs the workload's closed loop for --seconds. With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones from a
traced run. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with its
unit, the environment, the line counts of src/ and tests/ and a run digest.
Records and span files go to .perfbench_out/. The exit code is 0 when every
output matched its golden digest and invariants, 1 when one did not, and 2
when the benchmark could not run (nothing is printed on stdout then).
`--workload all` runs every workload in both modes and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
# Set-up-only processes started before and after the measuring one; the median
# set-up time of all of them is reported. Spreading them over the run keeps one
# burst of slowdown from other tenants from moving the median.
SETUP_PROBES_EACH_SIDE = 5
# A run must end within 180 s; the workers share what is left of this budget.
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args: list[str], deadline: float) -> dict:
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--out", str(OUT_DIR), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic is one system-wide clock, so the worker's stamp and ours compare.
    record["raw_setup_s"] = record["first_op_end"] - t0
    record["import_s"] = record["imports_done"] - t0
    record["setup_s"] = record["raw_setup_s"] * record["setup_factor"]
    return record


def run(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> tuple[dict, list[str]]:
    """One benchmark run: (the result object, the report lines before it)."""
    if not (ROOT / "src" / "fgbev" / "__init__.py").is_file():
        raise BenchError(f"no fgbev sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    probe = common + ["--seconds", "0", "--setup-only"]
    before = [_worker(probe, deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
    main = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    after = [_worker(probe, deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
    everything = before + [main] + after
    attempted = sum(r["attempted"] for r in everything)
    failures = [f for r in everything for f in r["failures"]]

    if trace:
        declared = spec["per_layer"]
        values = dict(main["metrics"])
    else:
        declared = spec["end_to_end"]
        values = {
            **main["metrics"],
            "setup_s": statistics.median(r["setup_s"] for r in everything),
            "peak_rss_mb": main["peak_rss_mb"],
            "success_rate": 1.0 - len(failures) / attempted,
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(f"measured metrics {sorted(values)} differ from declared {sorted(units)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    lines = [
        f"# {workload} seed={seed} trace={trace}: {main['samples']} op seeds x {main['passes']} passes, "
        f"{main['golden_checked']} golden digests checked, "
        f"run digest {main['run_digest']} (cold op and first pass)",
        f"# setup_s samples: {[round(r['setup_s'], 4) for r in everything]}, "
        f"unscaled {[round(r['raw_setup_s'], 4) for r in everything]}, of which imports "
        f"{[round(r['import_s'], 4) for r in everything]}",
        f"# unscaled op_ms_p50 {main['raw_op_ms_p50']:.4f}; calibration ms min/median/max "
        f"{[round(c, 3) for c in main['calibration_ms']]}",
        f"# env: {json.dumps(main['env'], sort_keys=True)}",
        f"# lines (not gated): {json.dumps(main['lines'], sort_keys=True)}",
    ]
    lines += [f"# FAILED {f}" for f in failures]
    if trace:
        lines.append(f"# spans: {main['spans']}")
    lines += [f"{name} {values[name]!r} {units[name]}" for name in units]
    record = {**result, "workload": workload, "seed": seed, "trace": trace, "failures": failures,
              "setup_samples_s": [r["setup_s"] for r in everything],
              "raw_setup_samples_s": [r["raw_setup_s"] for r in everything],
              "import_samples_s": [r["import_s"] for r in everything],
              **{k: main[k] for k in ("samples", "passes", "golden_checked", "run_digest", "env", "lines",
                                      "cold_op_s", "raw_op_ms_p50", "calibration_ms")}}
    (OUT_DIR / f"run-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result, lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.workload != "all":
            result, lines = run(args.workload, args.seed, args.seconds, args.trace, spec)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            return 0 if result["correct"] else 1
        correct = True
        for name in names:
            for trace in (0, 1):
                result, lines = run(name, args.seed, args.seconds, trace, spec)
                print("\n".join(lines), flush=True)
                correct &= result["correct"]
        return 0 if correct else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
