"""End-to-end orchestration of one frame through the full data path.

prepare: scene -> one projection of the current boxes, the MSFE target, and synthetic
features with f4 and f8 built only on the rows MSFE reads -> foreground fusion
diagnostics -> soft labels -> frustum -> student pooling.
densify: the teacher's cloud, its hard labels and per-box point counts; fc off
reuses the current frame's, which prepare keeps. teacher_branch: pseudo points
from the prepared projection and PCI report from the counts -> teacher pooling
-> shared encoding -> distillation loss. A sweep densifies once per fc_enabled
value.
The frustum stage only fixes the lift geometry; each pooling lifts only the
(cell, bin) entries of non-zero weight in the cells its own seg gate passes,
so the teacher lifts one bin of each hard-labelled cell. Each BEV grid
stores only its occupied cells: the one encoder encodes each grid's cells,
the loss reads the teacher's cells, and the full occupancy grids are
scattered out only for the result.
Deterministic per seed; each stage is timed with a monotonic clock.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ConfigError, bounded, check_budget, check_fields, from_dict
from .distill import DEFAULT_NORM_EPS, ENCODERS, distillation_loss, encode_joint, get_encoder
from .geometry import PointCloud, box_corner_pixels, box_point_counts, clip_rects
from .geometry import visible_corner_rects
from .labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    generate_hard_labels,
)
from .msfe import ForegroundHeatmap, elliptical_gaussian_heatmap, foreground_bands
from .msfe import gaussian_focal_loss, msfe_fuse
from .pci import (
    PciReport,
    frame_combination,
    inject_pseudo_points,
    pci_statistics,
    pseudo_point_assignment,
)
from .scene import Scene, SceneConfig, generate_scene, soft_labels_from_frame, synth_feature_pyramid
from .scene import background_magnitude, rect_cells
from .view_transform import (
    DEFAULT_SEG_THRESHOLD,
    BevFeatureGrid,
    BevGridConfig,
    ContextFeatureMap,
    Frustum,
    build_frustum,
    sa_bev_pool,
    teacher_bev,
)

FEATURE_STRIDE = 16
HEATMAP_STRIDE = 4


class PipelineStageError(RuntimeError):
    """A component failed; the message names the stage."""


@dataclass(frozen=True)
class PipelineConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    bins: DepthBinConfig = field(default_factory=DepthBinConfig)
    bev: BevGridConfig = field(default_factory=BevGridConfig)
    seg_threshold: float = bounded(DEFAULT_SEG_THRESHOLD, ge=0, le=1)
    beta: float = bounded(0.1, ge=0, le=1)
    eps: float = bounded(DEFAULT_NORM_EPS, gt=0)
    encoder_kind: str = "identity"
    fc_enabled: bool = True
    ppa_enabled: bool = True
    seed: int = bounded(0, ge=0)
    soft_label_noise: float = bounded(0.05, ge=0, le=1)
    context_channels: int = bounded(8, ge=1)

    def __post_init__(self):
        check_fields(self)
        if self.encoder_kind not in ENCODERS:
            raise ValueError(
                f"encoder_kind must be one of {tuple(ENCODERS)}, got {self.encoder_kind!r}"
            )
        scene, c = self.scene, self.context_channels
        h, w = scene.image_height, scene.image_width
        # Only cameras[0] is lifted; surround view is not modelled yet.
        if scene.n_cameras != 1:
            raise ValueError(f"scene.n_cameras must be 1 for the pipeline, got {scene.n_cameras}")
        if h % FEATURE_STRIDE or w % FEATURE_STRIDE:
            raise ValueError(
                f"scene.image_width x image_height ({w}x{h}) must be multiples of {FEATURE_STRIDE}"
            )
        entries = h // FEATURE_STRIDE * (w // FEATURE_STRIDE) * self.bins.n_bins
        check_budget(
            entries,
            "depth cells of scene.image_width x image_height times bins.d_min/d_max/bin_size bins",
        )
        # Pooling gathers an (entries, context_channels) array when every cell passes the gate.
        check_budget(entries * c, "pooled depth cells x bins x context_channels")
        check_budget(
            2 * self.bev.grid_h * self.bev.grid_w * c, "2 x bev.grid_h x grid_w x context_channels"
        )
        check_budget(
            h // 4 * (w // 4) * c, "stride-4 scene.image_width x image_height x context_channels"
        )


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a config from a (possibly partial) JSON dictionary."""
    return from_dict(PipelineConfig, data, "pipeline config")


# The PipelineResult fields that hold the two (H, W) BEV occupancy grids.
OCCUPANCY_FIELDS = ("bev_occupancy_student", "bev_occupancy_teacher")


@dataclass(frozen=True)
class PipelineResult:
    loss: float
    included_cells: int
    pci_report: PciReport
    bev_occupancy_student: np.ndarray
    bev_occupancy_teacher: np.ndarray
    msfe_metrics: dict
    timing: dict

    def __post_init__(self):
        cells = self.bev_occupancy_student.size
        if self.included_cells > cells:
            raise ValueError(
                f"included_cells {self.included_cells} exceeds grid size {cells}"
            )

    def to_dict(self, include_timing: bool = False) -> dict:
        out = self.fields(include_timing)
        return out | {key: out[key].tolist() for key in OCCUPANCY_FIELDS}

    def fields(self, include_timing: bool = False) -> dict:
        """to_dict's mapping with the occupancy grids left as (H, W) float64 arrays."""
        out = {
            "loss": self.loss,
            "included_cells": self.included_cells,
            "pci_report": dataclasses.asdict(self.pci_report),
            "bev_occupancy_student": self.bev_occupancy_student,
            "bev_occupancy_teacher": self.bev_occupancy_teacher,
            "msfe": dict(self.msfe_metrics),
        }
        if include_timing:
            out["timing"] = dict(self.timing)
        return out


def _predicted_heatmap(pyr, width: int, height: int, rects: list) -> ForegroundHeatmap:
    """Heatmap stand-in: per-cell feature magnitude rescaled to [0, 1].

    pyr is synth_feature_pyramid's for boxes projecting to rects; outside their rect_cells f4
    is the background. A cell's norm reads only its own channels, so norming those cells
    (whose rows pyr must store) over the cached background magnitude gives the whole-map bits.
    """
    mag = background_magnitude(width, height, HEATMAP_STRIDE, pyr.channels).copy()
    for rows, cols in rect_cells(rects, width, height, HEATMAP_STRIDE):
        at = pyr.row_index("f4", np.arange(rows.start, rows.stop))
        mag[rows, cols] = np.linalg.norm(pyr.f4[at, cols], axis=2)
    lo, hi = mag.min(), mag.max()
    if hi <= lo:
        return ForegroundHeatmap(np.zeros_like(mag))
    return ForegroundHeatmap((mag - lo) / (hi - lo))


def _stage(timing: dict, name: str, fn):
    """Run one stage, recording its wall time; a failure names the stage."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except ConfigError:
        raise  # the config, not the stage, is at fault
    except Exception as exc:
        raise PipelineStageError(f"stage {name!r} failed: {exc}") from exc
    timing[name] = time.perf_counter() - t0
    return out


class DensifiedCloud(NamedTuple):
    """A teacher cloud in the current frame, its hard labels and each current box's member count."""

    cloud: PointCloud
    hard: HardLabels
    counts: np.ndarray


@dataclass(frozen=True)
class PreparedFrame:
    """Outputs of the stages the fc/ppa toggles leave untouched; raw is the current cloud's,
    corners the current boxes' visible_corner_rects in camera 0."""

    scene: Scene
    corners: tuple[np.ndarray, np.ndarray]
    ctx: ContextFeatureMap
    soft_depth: DepthDistributionMap
    soft_seg: SegmentationMap
    frustum: Frustum
    student: BevFeatureGrid
    msfe_metrics: dict
    raw: DensifiedCloud


def prepare(cfg: PipelineConfig, timing: dict) -> PreparedFrame:
    """Scene, features, MSFE metrics, soft labels, frustum and student pooling."""
    stage = functools.partial(_stage, timing)
    scene: Scene = stage("generate_scene", lambda: generate_scene(cfg.scene, cfg.seed))
    current = scene.current
    cam = current.cameras[0]
    width, height = cam.image_width, cam.image_height

    def features():
        pixels = box_corner_pixels(cam, current.boxes)  # the one projection of the boxes
        corners = visible_corner_rects(*pixels)
        clipped = clip_rects(cam, corners[0])
        rects = [r for r in clipped if r is not None]
        target = elliptical_gaussian_heatmap(
            rects, height // HEATMAP_STRIDE, width // HEATMAP_STRIDE, HEATMAP_STRIDE
        )
        # f4 and f8 only on the rows msfe_fuse and _predicted_heatmap read. A row mask, since
        # plain np.unique imports numpy.ma on its first call, 10-17 ms in a fresh process.
        _, _, rows8, band4 = foreground_bands(target, cfg.beta)
        need4 = np.zeros(height // HEATMAP_STRIDE, dtype=bool)
        for rows in [band4, *(r for r, _ in rect_cells(rects, width, height, HEATMAP_STRIDE))]:
            need4[rows] = True
        pyramid = synth_feature_pyramid(
            cam, clipped, cfg.context_channels, cfg.seed + 1, np.flatnonzero(need4), rows8
        )
        return pixels, corners, rects, target, pyramid

    pixels, corners, rects, target, pyramid = stage("synth_features", features)

    def msfe_diag():
        fused = msfe_fuse(pyramid, target, cfg.beta)
        pred = _predicted_heatmap(pyramid, width, height, rects)
        return {
            "fused_l2": float(np.linalg.norm(fused)),
            "heatmap_focal_loss": gaussian_focal_loss(pred, target),
        }

    msfe_metrics = stage("msfe", msfe_diag)

    def soft_labels():
        depth, seg, hard = soft_labels_from_frame(
            current, 0, pixels, cfg.bins, cfg.soft_label_noise, cfg.seed + 2, FEATURE_STRIDE
        )
        counts = box_point_counts(current.boxes, current.lidar.points)
        return depth, seg, DensifiedCloud(current.lidar, hard, counts)

    soft_depth, soft_seg, raw = stage("soft_labels", soft_labels)
    frustum = stage("frustum", lambda: build_frustum(cam, cfg.bins, FEATURE_STRIDE))
    ctx = ContextFeatureMap(pyramid.f16)
    student = stage(
        "student_pooling",
        lambda: sa_bev_pool(ctx, soft_depth, soft_seg, frustum, cfg.bev, cfg.seg_threshold),
    )
    return PreparedFrame(
        scene, corners, ctx, soft_depth, soft_seg, frustum, student, msfe_metrics, raw
    )


def densify(cfg: PipelineConfig, prep: PreparedFrame, timing: dict) -> DensifiedCloud:
    """The teacher's cloud as cfg.fc_enabled says: the combined frames, or prep.raw.

    With fc off both stages reuse prep.raw but still record a time, so every
    run times the same stages.
    """
    stage = functools.partial(_stage, timing)
    if not cfg.fc_enabled:
        stage("frame_combination", lambda: None)
        stage("hard_labels", lambda: None)
        return prep.raw
    current = prep.scene.current

    def combine():
        # The combined cloud lists the current points first, and prepare counted those.
        cloud = frame_combination(current, prep.scene.past)
        kept = cloud.points[len(current.lidar.points):]
        return cloud, prep.raw.counts + box_point_counts(current.boxes, kept)

    cloud, counts = stage("frame_combination", combine)
    cloud.require_tag(current.tag)
    hard = stage(
        "hard_labels",
        lambda: generate_hard_labels(
            cloud, current.boxes, current.cameras[0], cfg.bins, FEATURE_STRIDE
        ),
    )
    return DensifiedCloud(cloud, hard, counts)


def teacher_branch(
    cfg: PipelineConfig, prep: PreparedFrame, dense: DensifiedCloud, timing: dict
) -> tuple[float, int, PciReport, BevFeatureGrid]:
    """Assign pseudo points as cfg.ppa_enabled says, then pool and score the teacher.

    dense is densify(cfg, prep, ...). Returns (loss, included cells, PCI
    report, teacher grid); prep and dense are only read.
    """
    stage = functools.partial(_stage, timing)
    current = prep.scene.current

    def ppa():
        if not cfg.ppa_enabled:
            return [], dense.hard
        pseudo = pseudo_point_assignment(
            dense.counts, current.boxes, *prep.corners, current.cameras[0],
            (cfg.bins.d_min, cfg.bins.d_max),
        )
        return pseudo, inject_pseudo_points(dense.hard, pseudo, FEATURE_STRIDE)

    pseudo, hard_final = stage("pseudo_points", ppa)
    report = stage("pci_report", lambda: pci_statistics(prep.raw.counts, dense.counts, pseudo))
    teacher = stage(
        "teacher_pooling",
        lambda: teacher_bev(
            prep.ctx, hard_final, prep.soft_depth, prep.soft_seg, prep.frustum,
            cfg.bev, cfg.seg_threshold,
        ),
    )

    encoder = get_encoder(cfg.encoder_kind)
    enc_student, enc_teacher = stage("encode", lambda: encode_joint(encoder, prep.student, teacher))
    loss, included = stage(
        "distill_loss", lambda: distillation_loss(enc_teacher, enc_student, cfg.eps)
    )
    return loss, included, report, teacher


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run one frame end to end: prepare, densify, then the teacher branch."""
    timing: dict[str, float] = {}
    prep = prepare(cfg, timing)
    loss, included, report, teacher = teacher_branch(cfg, prep, densify(cfg, prep, timing), timing)
    return PipelineResult(
        loss=loss,
        included_cells=included,
        pci_report=report,
        bev_occupancy_student=prep.student.occupancy(),
        bev_occupancy_teacher=teacher.occupancy(),
        msfe_metrics=prep.msfe_metrics,
        timing=timing,
    )


# Sweep toggle name -> the PipelineConfig flag it switches.
SWEEP_TOGGLES = {"fc": "fc_enabled", "ppa": "ppa_enabled"}


def ablation_sweep(base: PipelineConfig, toggles: list[str]) -> list[dict]:
    """One prepare() and one densify() per fc_enabled value, then a teacher branch per
    on/off combination of the named SWEEP_TOGGLES.

    Row k sets toggle i's flag to bit i of k (all off first); other flags keep base's value.
    Unknown or repeated names fail before any stage runs.
    """
    for k, name in enumerate(toggles):
        if name not in SWEEP_TOGGLES:
            raise ValueError(f"unknown toggle {name!r}; available: {sorted(SWEEP_TOGGLES)}")
        if name in toggles[:k]:
            raise ValueError(f"toggle {name!r} is given more than once")
    prep = prepare(base, {})
    clouds: dict[bool, DensifiedCloud] = {}
    rows = []
    for mask in range(1 << len(toggles)):
        on = [name for k, name in enumerate(toggles) if mask >> k & 1]
        cfg = dataclasses.replace(base, **{SWEEP_TOGGLES[n]: n in on for n in toggles})
        if cfg.fc_enabled not in clouds:
            clouds[cfg.fc_enabled] = densify(cfg, prep, {})
        loss, included, report, _ = teacher_branch(cfg, prep, clouds[cfg.fc_enabled], {})
        pci = dataclasses.asdict(report)
        rows.append({"toggles": on, "loss": loss, "included_cells": included, "pci_report": pci})
    return rows
