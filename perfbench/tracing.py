"""Span tracing around the fgbev layers, installed from outside the package.

Each entry of PATCHES replaces one public function *as its caller sees it*
(the name bound in the calling module), so a span measures exactly the call
that module makes. Spans are kept in memory and written out at exit. Counts
that explain the times (gate passes, BEV cells touched, ...) are computed in
a paused section whose duration is subtracted from every open span, so the
self times of all spans of an op add up to the op's traced time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "pipeline", "scene", "labels", "pci", "view_transform", "msfe", "distill", "geometry")

# (calling module, attribute, span name); the span name is "<layer>.<function>".
PATCHES = (
    ("fgbev.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("fgbev.cli", "ablation_sweep", "pipeline.ablation_sweep"),
    ("fgbev.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("fgbev.pipeline", "generate_scene", "scene.generate_scene"),
    ("fgbev.pipeline", "synth_feature_pyramid", "scene.synth_feature_pyramid"),
    ("fgbev.pipeline", "soft_labels_from_frame", "scene.soft_labels_from_frame"),
    ("fgbev.pipeline", "elliptical_gaussian_heatmap", "msfe.elliptical_gaussian_heatmap"),
    ("fgbev.pipeline", "msfe_fuse", "msfe.msfe_fuse"),
    ("fgbev.pipeline", "gaussian_focal_loss", "msfe.gaussian_focal_loss"),
    ("fgbev.pipeline", "frame_combination", "pci.frame_combination"),
    ("fgbev.pipeline", "pseudo_point_assignment", "pci.pseudo_point_assignment"),
    ("fgbev.pipeline", "inject_pseudo_points", "pci.inject_pseudo_points"),
    ("fgbev.pipeline", "pci_statistics", "pci.pci_statistics"),
    ("fgbev.pipeline", "generate_hard_labels", "labels.generate_hard_labels"),
    ("fgbev.pipeline", "build_frustum", "view_transform.build_frustum"),
    ("fgbev.pipeline", "sa_bev_pool", "view_transform.sa_bev_pool"),
    ("fgbev.pipeline", "teacher_bev", "view_transform.teacher_bev"),
    ("fgbev.pipeline", "get_encoder", "distill.get_encoder"),
    ("fgbev.pipeline", "encode_joint", "distill.encode_joint"),
    ("fgbev.pipeline", "distillation_loss", "distill.distillation_loss"),
    ("fgbev.scene", "generate_hard_labels", "labels.generate_hard_labels"),
    ("fgbev.scene", "points_in_box", "geometry.points_in_box"),
    ("fgbev.labels", "points_in_box", "geometry.points_in_box"),
    ("fgbev.pci", "frame_combination", "pci.frame_combination"),
    ("fgbev.pci", "pseudo_point_assignment", "pci.pseudo_point_assignment"),
    ("fgbev.pci", "points_in_box", "geometry.points_in_box"),
    ("fgbev.view_transform", "merge_labels", "labels.merge_labels"),
    ("fgbev.view_transform", "sa_bev_pool", "view_transform.sa_bev_pool"),
)

# Per-layer time metric -> the span whose self time it reports.
SELF_TIME_METRICS = {
    "view_transform.frustum_ms": "view_transform.build_frustum",
    "view_transform.pool_ms": "view_transform.sa_bev_pool",
    "scene.generate_ms": "scene.generate_scene",
    "scene.features_ms": "scene.synth_feature_pyramid",
    "scene.soft_labels_ms": "scene.soft_labels_from_frame",
    "geometry.points_in_box_ms": "geometry.points_in_box",
    "labels.hard_labels_ms": "labels.generate_hard_labels",
    "labels.merge_ms": "labels.merge_labels",
    "pci.statistics_self_ms": "pci.pci_statistics",
    "msfe.heatmap_ms": "msfe.elliptical_gaussian_heatmap",
    "msfe.fuse_ms": "msfe.msfe_fuse",
    "msfe.focal_ms": "msfe.gaussian_focal_loss",
    "distill.encode_ms": "distill.encode_joint",
    "distill.loss_ms": "distill.distillation_loss",
}

# Per-op call count metric -> the span it counts.
CALL_METRICS = {
    "view_transform.frustum_calls": "view_transform.build_frustum",
    "labels.hard_labels_calls": "labels.generate_hard_labels",
    "pci.frame_combination_calls": "pci.frame_combination",
    "pipeline.run_calls": "pipeline.run_pipeline",
    "geometry.points_in_box_calls": "geometry.points_in_box",
}


def _count_pool(counts, args, kwargs, out):
    ctx, depth, seg, frustum, bev_cfg = args[:5]
    threshold = args[5] if len(args) > 5 else kwargs["seg_threshold"]
    passes = seg.values[frustum.rows, frustum.cols] >= threshold
    brow, bcol, ok = bev_cfg.cells_for_points(frustum.points[passes])
    flat = brow[ok] * bev_cfg.grid_w + bcol[ok]
    counts["pool_entries"] += len(frustum)
    counts["gate_passes"] += int(passes.sum())
    counts["cells_touched"] += int(np.unique(flat).size)
    counts["pool_bytes_computed"] += int(ok.sum()) * ctx.values.shape[2] * ctx.values.itemsize


def _count_pci(counts, args, kwargs, out):
    counts["boxes_empty_before"] += out.boxes_without_points_before
    counts["boxes_unrecoverable"] += out.boxes_unrecoverable


# Span name -> counter run on (counts, args, kwargs, result) after the call.
COUNTERS = {
    "scene.generate_scene": lambda c, a, k, out: c.update(
        lidar_points=sum(len(f.lidar) for f in out.frames)
    ),
    "view_transform.build_frustum": lambda c, a, k, out: c.update(frustum_entries=len(out)),
    "view_transform.sa_bev_pool": _count_pool,
    "view_transform.teacher_bev": lambda c, a, k, out: c.update(
        valid_cells=int(a[1].valid_mask.sum())
    ),
    "pci.pci_statistics": _count_pci,
    "distill.distillation_loss": lambda c, a, k, out: c.update(included_cells=out[1]),
}


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, op, paused)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple] = []

    def install(self):
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    @contextmanager
    def op(self, op_id: int, root_name: str):
        """Trace one op under a root span; the patches are live only inside."""
        self._op = op_id
        self.install()
        idx = self._open(root_name)
        try:
            yield self.counts[op_id]
        finally:
            self._close(idx)
            self.uninstall()

    @contextmanager
    def paused(self):
        """Exclude the enclosed work from every open span's time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            for idx in self._stack:
                self.spans[idx][5] += elapsed

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                with self.paused():
                    counter(self.counts[self._op], args, kwargs, out)
            return out

        return traced

    def self_times(self) -> dict[int, dict[str, float]]:
        """op -> span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, paused in self.spans:
            if parent is not None:
                child_time[parent] += end - start - paused
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op, paused) in enumerate(self.spans):
            out[op][name] += end - start - paused - child_time[i]
        return out

    def op_times(self) -> dict[int, float]:
        """op -> traced time of its root span, without the paused work."""
        return {
            op: end - start - paused
            for name, start, end, parent, op, paused in self.spans
            if parent is None
        }

    def calls(self) -> dict[int, Counter]:
        out: dict[int, Counter] = defaultdict(Counter)
        for span in self.spans:
            out[span[4]][span[0]] += 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, paused in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "op": op, "paused": paused}
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, factors: dict[int, float], count_ops: list[int]) -> dict[str, float]:
    """Per-layer metrics: times are means over the traced ops, counts over count_ops.

    Each op's times are multiplied by its factor (see worker.Scaler) and count_ops
    holds one traced op per seed, so the counts repeat exactly for a workload seed.
    """
    selfs = tracer.self_times()
    op_times = tracer.op_times()
    n = len(factors)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = 1e3 * sum(
            t * f for op, f in factors.items() for name, t in selfs[op].items()
            if name.split(".")[0] == layer
        ) / n
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = 1e3 * sum(selfs[op].get(span, 0.0) * f for op, f in factors.items()) / n
    metrics["trace.op_ms"] = 1e3 * sum(op_times[op] * f for op, f in factors.items()) / n

    calls = tracer.calls()
    for metric, span in CALL_METRICS.items():
        metrics[metric] = sum(calls[op][span] for op in count_ops) / len(count_ops)
    c = Counter()
    for op in count_ops:
        c.update(tracer.counts[op])
    per_op = len(count_ops)
    metrics["view_transform.frustum_entries"] = c["frustum_entries"] / per_op
    metrics["view_transform.gate_pass_ratio"] = c["gate_passes"] / c["pool_entries"]
    metrics["view_transform.cells_touched"] = c["cells_touched"] / per_op
    metrics["view_transform.pool_bytes_computed"] = c["pool_bytes_computed"] / per_op
    empty = c["boxes_empty_before"]
    # No box empty before densification means nothing needed rescuing: report 1.
    metrics["pci.rescue_ratio"] = (empty - c["boxes_unrecoverable"]) / empty if empty else 1.0
    metrics["labels.valid_cells"] = c["valid_cells"] / per_op
    metrics["distill.included_cells"] = c["included_cells"] / per_op
    metrics["scene.lidar_points"] = c["lidar_points"] / per_op
    metrics["cli.stdout_bytes"] = c["stdout_bytes"] / per_op
    return metrics
