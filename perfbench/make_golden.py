"""Regenerate golden.json: the sha256 of every op output for op seeds 0..N-1.

Run from the repository root: python3 perfbench/make_golden.py
A golden digest may change only on purpose, with the reason recorded.
"""

import json
import os
import sys
from pathlib import Path

# The BLAS thread count changes msfe.fused_l2's last bits; pin it as the worker does.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from worker import GOLDEN_PATH, WORKLOADS, Workload  # noqa: E402

# Op seeds with a digest per workload: more than one timed run reaches.
GOLDEN_OPS = {"cli-default": 400, "lib-large": 64, "cli-sweep": 160}


def main():
    work_dir = ROOT / ".perfbench_out"
    work_dir.mkdir(exist_ok=True)
    golden = {}
    for name in WORKLOADS:
        workload = Workload(name, work_dir)
        golden[name] = {
            str(seed): workload.digest(workload.call(workload.prepare(seed)))[0]
            for seed in range(GOLDEN_OPS[name])
        }
        print(f"{name}: {len(golden[name])} digests", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
