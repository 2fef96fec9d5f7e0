"""One benchmark process: import fgbev, run one workload's ops, report measurements.

Started by run.py in a fresh interpreter with the BLAS thread count pinned,
so that the cold import and the first op count toward set-up time and the
process's peak RSS is the workload's own. A closed loop with one client:
op 0 is the cold op at seed `workload_seed`; then passes over the op seeds
`workload_seed + 1 .. workload_seed + N` repeat until the time budget is
spent. The next op is issued only after the previous one returned and was
checked. Op times are scaled to a reference machine speed (see calibrate).

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --out DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import fgbev
import fgbev.cli
import fgbev.pipeline
from tracing import Tracer, layer_metrics

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
# Every run also checks this op seed against its golden digest, whatever the
# workload seed, so each run pins at least one output.
GOLDEN_PROBE_SEED = 0

LARGE = {
    "scene": {"n_boxes": 40, "image_width": 1408, "image_height": 512, "n_frames": 9},
    "bev": {"grid_h": 256, "grid_w": 256},
    "context_channels": 32,
    "encoder_kind": "box_blur",
}
SWEEP = {"scene": {"dropout_fraction": 0.5, "n_frames": 4}}
SWEEP_TOGGLES = [[], ["fc"], ["ppa"], ["fc", "ppa"]]

# Workload -> (kind, config JSON the program receives, op seeds per pass).
# A pass takes about 5 s on a shared 2-vCPU x86_64 VM, so a 20 s run makes about
# four passes and each seed's median is over about two (traced) or four runs.
WORKLOADS = {
    "cli-default": ("pipeline", {}, 100),
    "lib-large": ("library", LARGE, 12),
    "cli-sweep": ("sweep", SWEEP, 32),
}


# Calibration: shared hosts slow a process down by up to 2x for seconds to
# minutes (other tenants; no steal time is reported, and CPU time grows with
# wall time). Fixed work that does not depend on fgbev, timed every
# CALIBRATE_EVERY_S of op time, measures that slowdown; each op time is
# multiplied by REFERENCE_S / (mean of the calibrations before and after it).
CALIBRATE_EVERY_S = 0.5
CALIBRATION_ROUNDS = 3
REFERENCE_S = 0.0025
_CAL_WAVE = np.linspace(0.0, 50.0, 100_000)
_CAL_FLOATS = [float(x) for x in np.linspace(0.0, 1.0, 10_000)]


def calibrate() -> float:
    """Seconds the calibration work takes now: the median round's geometric mean of three kernels.

    They stand for the resources fgbev ops use: numpy gather/scatter, memory
    streamed through, and the interpreter with JSON encoding. Their arrays are
    small next to an op's, so they do not set the peak RSS.
    """
    rounds = []
    for _ in range(CALIBRATION_ROUNDS):
        times = []
        for kernel in (_cal_numpy, _cal_memory, _cal_interpreter):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        rounds.append(math.prod(times) ** (1.0 / len(times)))
    return statistics.median(rounds)


def _cal_numpy():
    wave = np.sin(_CAL_WAVE) * 1.5
    idx = (np.abs(wave) * 1000).astype(np.int64) % 4096
    np.add.at(np.zeros(4096), idx, wave)


def _cal_memory():
    for _ in range(4):
        block = np.ones(250_000)
        block *= 1.5
        block.sum()


def _cal_interpreter():
    total = 0
    for i in range(10_000):
        total += i * i % 7
    json.dumps(_CAL_FLOATS)


class Scaler:
    """Scales op times to REFERENCE_S speed once the calibration after them is taken."""

    def __init__(self):
        self.calibrations = [calibrate()]
        self.pending: list[tuple] = []
        self.since = 0.0

    def add(self, key, elapsed: float) -> list[tuple]:
        """Queue one op time; returns the (key, scaled time, factor) of settled ops."""
        self.pending.append((key, elapsed))
        self.since += elapsed
        return self.settle() if self.since >= CALIBRATE_EVERY_S else []

    def settle(self) -> list[tuple]:
        self.calibrations.append(calibrate())
        factor = REFERENCE_S / statistics.fmean(self.calibrations[-2:])
        settled = [(key, elapsed * factor, factor) for key, elapsed in self.pending]
        self.pending, self.since = [], 0.0
        return settled


class CheckFailed(Exception):
    """An op's output broke an invariant or its golden digest."""


class Workload:
    """Builds one workload's ops from its config and checks their outputs."""

    def __init__(self, name: str, work_dir: Path):
        self.kind, self.config, _ = WORKLOADS[name]
        self.config_path = work_dir / f"{name}.json"
        self.config_path.write_text(json.dumps(self.config, sort_keys=True))
        bev = fgbev.pipeline.config_from_dict(self.config).bev
        self.grid = (bev.grid_h, bev.grid_w)

    def prepare(self, seed: int):
        """Untimed: build the call for op seed `seed`."""
        if self.kind == "library":
            return fgbev.pipeline.config_from_dict({**self.config, "seed": seed})
        return [self.kind, "--config", str(self.config_path), "--seed", str(seed)] + (
            ["--toggles", "fc,ppa"] if self.kind == "sweep" else []
        )

    def root_span(self) -> str:
        return "pipeline.run_pipeline" if self.kind == "library" else "cli.main"

    def call(self, prepared):
        """Timed: the op as a user makes it. Returns the PipelineResult or stdout."""
        if self.kind == "library":
            return fgbev.run_pipeline(prepared)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fgbev.cli.main(prepared)
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.getvalue().strip()[-300:]}")
        return out.getvalue()

    def digest(self, output) -> tuple[str, object]:
        """(sha256 of the stdout or of the PipelineResult's canonical JSON, parsed output)."""
        if self.kind == "library":
            data = output.to_dict()
            text = json.dumps(data, sort_keys=True)
        else:
            text, data = output, json.loads(output)
        return hashlib.sha256(text.encode()).hexdigest(), data

    def check(self, data):
        """Untimed: invariants every seed's output must satisfy."""
        rows = data if self.kind == "sweep" else [data]
        if self.kind == "sweep" and [r["toggles"] for r in rows] != SWEEP_TOGGLES:
            raise CheckFailed(f"sweep rows {[r['toggles'] for r in rows]}")
        for row in rows:
            _check_row(row, self.grid[0] * self.grid[1])
        if self.kind != "sweep":
            for key in ("bev_occupancy_student", "bev_occupancy_teacher"):
                grid = np.asarray(data[key])
                if grid.shape != self.grid or not np.all(np.isfinite(grid)):
                    raise CheckFailed(f"{key}: shape {grid.shape} or non-finite values")


def _check_row(row: dict, grid_cells: int):
    p = row["pci_report"]
    if p["boxes_assigned_pseudo"] + p["boxes_unrecoverable"] != p["boxes_without_points_after_fc"]:
        raise CheckFailed(f"pci report does not add up: {p}")
    if not p["boxes_without_points_after_fc"] <= p["boxes_without_points_before"] <= p["total_boxes"]:
        raise CheckFailed(f"pci report out of order: {p}")
    if not (math.isfinite(row["loss"]) and row["loss"] >= 0):
        raise CheckFailed(f"loss {row['loss']!r}")
    if not 0 <= row["included_cells"] <= grid_cells:
        raise CheckFailed(f"included_cells {row['included_cells']} of {grid_cells}")


class Runner:
    """Runs and checks ops, keeping latencies, digests and failures."""

    def __init__(self, workload: Workload, golden: dict[str, str]):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.golden_checked = 0

    def run(self, seed: int, tracer: Tracer | None = None, op_id: int = 0) -> tuple[float, bool]:
        """One op and its checks; returns (op wall time in seconds, succeeded)."""
        self.attempted += 1
        prepared = self.workload.prepare(seed)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = self.workload.call(prepared)
            else:
                with tracer.op(op_id, self.workload.root_span()) as counts:
                    output = self.workload.call(prepared)
                    if isinstance(output, str):
                        counts["stdout_bytes"] += len(output.encode())
            elapsed = time.perf_counter() - t0
            self.verify(seed, output)
        except Exception as exc:  # a failed op is counted and reported, never fatal
            self.failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, False
        return elapsed, True

    def verify(self, seed: int, output):
        digest, data = self.workload.digest(output)
        self.digests.append(digest)
        expected = self.golden.get(str(seed))
        if expected is not None:
            self.golden_checked += 1
            if digest != expected:
                raise CheckFailed(f"golden digest mismatch: {digest} != {expected}")
        self.workload.check(data)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fgbev": fgbev.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def line_counts(root: Path) -> dict[str, int]:
    """Lines of Python under src/ and tests/ (recorded, not gated)."""
    return {
        d: sum(len(p.read_bytes().splitlines()) for p in sorted((root / d).rglob("*.py")))
        for d in ("src", "tests")
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    imports_done = time.monotonic()

    golden = json.loads(GOLDEN_PATH.read_text())[args.workload]
    runner = Runner(Workload(args.workload, args.out), golden)
    cold, _ = runner.run(args.seed)
    first_op_end = time.monotonic()
    result = {
        "first_op_end": first_op_end,
        "imports_done": imports_done,
        # run.py multiplies the set-up time by this, as Scaler does op times.
        # The first calibration of a process runs cold; it is left out.
        "setup_factor": REFERENCE_S / statistics.median([calibrate() for _ in range(4)][1:]),
        "attempted": runner.attempted,
        "failures": runner.failures,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    n = WORKLOADS[args.workload][2]
    seeds = [args.seed + j for j in range(1, n + 1)]
    tracer = Tracer() if args.trace else None
    scaler = Scaler()
    times: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}  # traced -> seed -> scaled
    raw: dict[int, list[float]] = {}  # seed -> unscaled untraced times
    factors: dict[int, float] = {}  # traced op id -> scale factor
    first_traced_pass: list[int] = []

    def record(settled):
        for (seed, op_id, traced, elapsed), scaled, factor in settled:
            times[traced].setdefault(seed, []).append(scaled)
            if traced:
                factors[op_id] = factor
            else:
                raw.setdefault(seed, []).append(elapsed)

    spent, passes, op_id = 0.0, 0, 0
    while spent < args.seconds or (tracer is not None and passes < 2):
        traced = tracer is not None and passes % 2 == 1
        for seed in seeds:
            op_id += 1
            elapsed, ok = runner.run(seed, tracer if traced else None, op_id)
            spent += elapsed
            if ok:
                record(scaler.add((seed, op_id, traced, elapsed), elapsed))
                if traced and passes == 1:
                    first_traced_pass.append(op_id)
        passes += 1
    record(scaler.settle())
    run_digest = hashlib.sha256("".join(runner.digests[: n + 1]).encode()).hexdigest()
    runner.run(GOLDEN_PROBE_SEED)
    if not times[False] or (tracer is not None and not times[True]):
        raise SystemExit(f"no op succeeded: {runner.failures[:3]}")

    if tracer is None:
        # Each seed's median over the passes; the sample count is the seed count.
        latencies = [1e3 * statistics.median(v) for v in times[False].values()]
        metrics = {
            "ops_per_s": 1e3 * len(latencies) / sum(latencies),
            "op_ms_p50": statistics.median(latencies),
            "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        }
    else:
        metrics = layer_metrics(tracer, factors, first_traced_pass)
        mean = {k: statistics.fmean(t for v in times[k].values() for t in v) for k in times}
        # 1 - traced ops/s / untraced ops/s
        metrics["trace.overhead_frac"] = 1.0 - mean[False] / mean[True]
        spans_path = args.out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    result["samples"] = len(times[tracer is not None])
    result["passes"] = passes
    result["raw_op_ms_p50"] = 1e3 * statistics.median(statistics.median(v) for v in raw.values())
    result["calibration_ms"] = [1e3 * f(scaler.calibrations) for f in (min, statistics.median, max)]
    result.update(
        metrics=metrics,
        attempted=runner.attempted,
        failures=runner.failures,
        golden_checked=runner.golden_checked,
        run_digest=run_digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cold_op_s=cold,
        env=environment(),
        lines=line_counts(Path.cwd()),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
