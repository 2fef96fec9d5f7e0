"""End-to-end orchestration of one frame through the full data path.

prepare: scene -> synthetic features -> foreground fusion diagnostics -> soft
labels -> frustum -> student pooling. teacher_branch: hard labels on the
densified cloud -> pseudo points -> teacher pooling -> joint encoding ->
distillation loss. Only the teacher branch depends on fc_enabled/ppa_enabled.
Deterministic per seed; each stage is timed with a monotonic clock.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .distill import distillation_loss, encode_joint, get_encoder
from .geometry import project_box3d_to_box2d
from .labels import DepthBinConfig, DepthDistributionMap, SegmentationMap, generate_hard_labels
from .msfe import ForegroundHeatmap, elliptical_gaussian_heatmap, gaussian_focal_loss, msfe_fuse
from .pci import (
    PciReport,
    frame_combination,
    inject_pseudo_points,
    pci_statistics,
    pseudo_point_assignment,
)
from .scene import Scene, SceneConfig, generate_scene, soft_labels_from_frame, synth_feature_pyramid
from .view_transform import (
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

ENCODER_KINDS = ("identity", "box_blur")


class PipelineStageError(RuntimeError):
    """A component failed; the message names the stage."""


@dataclass(frozen=True)
class PipelineConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    bins: DepthBinConfig = field(default_factory=DepthBinConfig)
    bev: BevGridConfig = field(default_factory=BevGridConfig)
    seg_threshold: float = 0.25
    beta: float = 0.1
    eps: float = 1e-6
    encoder_kind: str = "identity"
    fc_enabled: bool = True
    ppa_enabled: bool = True
    seed: int = 0
    soft_label_noise: float = 0.05
    context_channels: int = 8

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.seg_threshold <= 1.0:
            raise ValueError(f"seg_threshold must be in [0, 1], got {self.seg_threshold}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(
                f"encoder_kind must be one of {ENCODER_KINDS}, got {self.encoder_kind!r}"
            )
        if self.soft_label_noise < 0:
            raise ValueError(f"soft_label_noise must be >= 0, got {self.soft_label_noise}")
        if self.context_channels < 1:
            raise ValueError(f"context_channels must be >= 1, got {self.context_channels}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _finite(value, name: str) -> float:
    """value as a float; NaN, infinities and ints beyond float range are rejected."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return out


def _coerce_value(field: dataclasses.Field, value, context: str):
    """Check/convert one JSON value against the declared field type."""
    name = f"field {field.name!r} in {context}"
    kind = field.type
    if kind == "bool":
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be a boolean, got {type(value).__name__}")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {type(value).__name__}")
        return _finite(value, name)
    if kind == "str":
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {type(value).__name__}")
        return value
    if kind.startswith("tuple"):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ValueError(f"{name} must be a list of numbers")
        arity = kind.count(",") + 1  # "tuple[float, float]" -> 2
        if len(value) != arity:
            raise ValueError(f"{name} must have {arity} entries, got {len(value)}")
        return tuple(_finite(v, name) for v in value)
    return value


def section_from_dict(cls, data, section: str):
    """Build one config dataclass from untrusted JSON, naming bad fields."""
    if not isinstance(data, dict):
        raise ValueError(
            f"config section {section!r} must be a JSON object, got {type(data).__name__}"
        )
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r} in config section {section!r}")
    return cls(**{k: _coerce_value(fields[k], v, f"section {section!r}") for k, v in data.items()})


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a config from a (possibly partial) JSON dictionary."""
    if not isinstance(data, dict):
        raise ValueError("pipeline config must be a JSON object")
    kwargs = {}
    sections = {"scene": SceneConfig, "bins": DepthBinConfig, "bev": BevGridConfig}
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    for key, value in data.items():
        if key in sections:
            kwargs[key] = section_from_dict(sections[key], value, key)
        elif key in fields:
            kwargs[key] = _coerce_value(fields[key], value, "pipeline config")
        else:
            raise ValueError(f"unknown field {key!r} in pipeline config")
    return PipelineConfig(**kwargs)


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
        out = {
            "loss": self.loss,
            "included_cells": self.included_cells,
            "pci_report": dataclasses.asdict(self.pci_report),
            "bev_occupancy_student": self.bev_occupancy_student.tolist(),
            "bev_occupancy_teacher": self.bev_occupancy_teacher.tolist(),
            "msfe": dict(self.msfe_metrics),
        }
        if include_timing:
            out["timing"] = dict(self.timing)
        return out


def _predicted_heatmap(f4: np.ndarray) -> ForegroundHeatmap:
    """Heatmap stand-in: per-cell feature magnitude rescaled to [0, 1]."""
    mag = np.linalg.norm(f4, axis=2)
    lo, hi = mag.min(), mag.max()
    if hi <= lo:
        return ForegroundHeatmap(np.zeros_like(mag))
    return ForegroundHeatmap((mag - lo) / (hi - lo))


def _stage(timing: dict, name: str, fn):
    """Run one stage, recording its wall time; a failure names the stage."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        raise PipelineStageError(f"stage {name!r} failed: {exc}") from exc
    timing[name] = time.perf_counter() - t0
    return out


@dataclass(frozen=True)
class PreparedFrame:
    """Outputs of the stages the fc/ppa toggles leave untouched."""

    scene: Scene
    ctx: ContextFeatureMap
    soft_depth: DepthDistributionMap
    soft_seg: SegmentationMap
    frustum: Frustum
    student: BevFeatureGrid
    msfe_metrics: dict


def prepare(cfg: PipelineConfig, timing: dict) -> PreparedFrame:
    """Scene, features, MSFE metrics, soft labels, frustum and student pooling."""
    stage = functools.partial(_stage, timing)
    scene: Scene = stage("generate_scene", lambda: generate_scene(cfg.scene, cfg.seed))
    current = scene.current
    cam = current.cameras[0]

    pyramid = stage(
        "synth_features",
        lambda: synth_feature_pyramid(current, 0, cfg.context_channels, cfg.seed + 1),
    )

    def msfe_diag():
        rects = [project_box3d_to_box2d(cam, b) for b in current.boxes]
        target = elliptical_gaussian_heatmap(
            [r for r in rects if r is not None],
            cam.image_height // HEATMAP_STRIDE,
            cam.image_width // HEATMAP_STRIDE,
            HEATMAP_STRIDE,
        )
        fused = msfe_fuse(pyramid, target, cfg.beta)
        pred = _predicted_heatmap(pyramid.f4)
        return {
            "fused_l2": float(np.linalg.norm(fused)),
            "heatmap_focal_loss": gaussian_focal_loss(pred, target),
        }

    msfe_metrics = stage("msfe", msfe_diag)

    soft_depth, soft_seg = stage(
        "soft_labels",
        lambda: soft_labels_from_frame(
            current, 0, cfg.bins, cfg.soft_label_noise, cfg.seed + 2, FEATURE_STRIDE
        ),
    )
    frustum = stage("frustum", lambda: build_frustum(cam, cfg.bins, FEATURE_STRIDE))
    ctx = ContextFeatureMap(pyramid.f16)
    student = stage(
        "student_pooling",
        lambda: sa_bev_pool(ctx, soft_depth, soft_seg, frustum, cfg.bev, cfg.seg_threshold),
    )
    return PreparedFrame(scene, ctx, soft_depth, soft_seg, frustum, student, msfe_metrics)


def teacher_branch(
    cfg: PipelineConfig, prep: PreparedFrame, timing: dict
) -> tuple[float, int, PciReport, BevFeatureGrid]:
    """Densify the teacher's LiDAR as cfg.fc_enabled/ppa_enabled say, pool and score it.

    Returns (loss, included cells, PCI report, teacher grid); prep is only read.
    """
    stage = functools.partial(_stage, timing)
    scene = prep.scene
    current = scene.current
    cam = current.cameras[0]
    combined = stage(
        "frame_combination",
        lambda: frame_combination(current, scene.past) if cfg.fc_enabled else current.lidar,
    )
    combined.require_tag(current.tag)
    hard = stage(
        "hard_labels",
        lambda: generate_hard_labels(combined, current.boxes, cam, cfg.bins, FEATURE_STRIDE),
    )

    def ppa():
        if not cfg.ppa_enabled:
            return [], hard
        pseudo = pseudo_point_assignment(
            combined, current.boxes, cam, (cfg.bins.d_min, cfg.bins.d_max)
        )
        return pseudo, inject_pseudo_points(hard, pseudo, FEATURE_STRIDE)

    pseudo, hard_final = stage("pseudo_points", ppa)
    report = stage("pci_report", lambda: pci_statistics(current, combined, pseudo))
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
    """Run one frame end to end: prepare, then the teacher branch."""
    timing: dict[str, float] = {}
    prep = prepare(cfg, timing)
    loss, included, report, teacher = teacher_branch(cfg, prep, timing)
    return PipelineResult(
        loss=loss,
        included_cells=included,
        pci_report=report,
        bev_occupancy_student=prep.student.occupancy(),
        bev_occupancy_teacher=teacher.occupancy(),
        msfe_metrics=prep.msfe_metrics,
        timing=timing,
    )


def ablation_sweep(
    base: PipelineConfig, toggles: list[tuple[str, dict]]
) -> list[dict]:
    """Run every on/off combination of the named config deltas ({field: value}).

    Row order enumerates subset bitmasks 0..2^n-1 with toggle k on bit k, so
    the base configuration always comes first. Each row records the applied
    toggle names and the headline result fields. Rows whose configs differ
    only in fc_enabled/ppa_enabled share one prepare(); each row runs its own
    teacher branch.
    """
    rows = []
    prepared: dict[PipelineConfig, PreparedFrame] = {}
    for mask in range(1 << len(toggles)):
        names = []
        cfg = base
        for k, (name, delta) in enumerate(toggles):
            if mask >> k & 1:
                names.append(name)
                cfg = dataclasses.replace(cfg, **delta)
        key = dataclasses.replace(cfg, fc_enabled=False, ppa_enabled=False)
        if key not in prepared:
            prepared[key] = prepare(cfg, {})
        loss, included, report, _ = teacher_branch(cfg, prepared[key], {})
        rows.append(
            {
                "toggles": names,
                "loss": loss,
                "included_cells": included,
                "pci_report": dataclasses.asdict(report),
            }
        )
    return rows
