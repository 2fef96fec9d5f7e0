"""Point cloud densification for sparse scenes.

Two strategies: frame combination pulls stationary-object returns from
temporally adjacent frames into the current frame, and pseudo point
assignment gives each still-empty, well-visible, in-range box a single
synthetic point at its 2D box center with the minimum projected-corner
depth.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass

import numpy as np

from .geometry import (
    Box3D,
    CameraModel,
    PointCloud,
    box_point_counts,
    points_in_box,
    visible_corner_rects,
)
from .labels import HardLabels
from .scene import Frame

log = logging.getLogger(__name__)

VISIBILITY_GATE = (3, 4)


@dataclass(frozen=True)
class PseudoPoint:
    """Synthetic return at a box's 2D center with its nearest-corner depth."""

    u: float
    v: float
    depth: float
    source_box: int

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError(f"pseudo point depth must be positive, got {self.depth}")


@dataclass(frozen=True)
class PciReport:
    """Bookkeeping for how densification changed box coverage."""

    total_boxes: int
    boxes_without_points_before: int
    boxes_without_points_after_fc: int
    boxes_assigned_pseudo: int
    boxes_unrecoverable: int

    def __post_init__(self):
        if any(c < 0 for c in astuple(self)):
            raise ValueError(f"negative count in report: {self}")
        if self.boxes_without_points_after_fc > self.boxes_without_points_before:
            raise ValueError(
                "combination cannot increase empty boxes: "
                f"{self.boxes_without_points_after_fc} > {self.boxes_without_points_before}"
            )
        if (
            self.boxes_assigned_pseudo + self.boxes_unrecoverable
            != self.boxes_without_points_after_fc
        ):
            raise ValueError(
                "assigned + unrecoverable must equal the post-combination empty count"
            )


def frame_combination(current: Frame, adjacent: list[Frame]) -> PointCloud:
    """Merge stationary-object returns from adjacent frames into the current one.

    Adjacent clouds are mapped through the relative ego poses; only points
    landing inside a current-frame box flagged stationary survive. Clutter
    and dynamic-object points from other frames never carry over. Output
    order: current points first, then kept points per adjacent frame in the
    given order.
    """
    stationary = [b for b in current.boxes if b.is_stationary]
    merged = [current.lidar.points]
    to_current = current.ego_pose.inverse()
    for frame in adjacent:
        if frame.tag == current.tag:
            raise ValueError(
                f"adjacent frame carries the current frame's tag {current.tag!r}"
            )
        moved = to_current.compose(frame.ego_pose).apply(frame.lidar.points)
        merged.append(moved[points_in_box(stationary, moved)])
    return PointCloud(np.concatenate(merged), current.tag)


def pseudo_point_assignment(
    combined: PointCloud,
    boxes: list[Box3D],
    cam: CameraModel,
    depth_range: tuple[float, float],
) -> list[PseudoPoint]:
    """One synthetic point per box that stayed empty after combination.

    A box qualifies when it contains zero combined points, its nearest
    projected corner depth lies within depth_range, its visibility is 3 or
    4, and the center of its unclipped projected 2D box falls inside the
    image. The emitted point sits at that center with the minimum positive
    corner depth.
    """
    lo, hi = depth_range
    gated = [i for i, box in enumerate(boxes) if box.visibility in VISIBILITY_GATE]
    counts = box_point_counts([boxes[i] for i in gated], combined.points)
    empty = [i for i, n in zip(gated, counts) if not n]
    rects, depths = visible_corner_rects(cam, [boxes[i] for i in empty])
    out = []
    for i, (x1, y1, x2, y2), d_corner in zip(empty, rects.tolist(), depths.tolist()):
        if not lo <= d_corner <= hi:
            continue
        u, v = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        if not cam.in_image(u, v):
            continue  # x1 <= u <= x2: drops boxes wholly off-image, and NaN (no front corner)
        out.append(PseudoPoint(u=u, v=v, depth=d_corner, source_box=i))
    return out


def pci_statistics(
    current: Frame, combined: PointCloud, pseudo: list[PseudoPoint]
) -> PciReport:
    """Count how many current-frame boxes each densification stage rescued.

    combined is the frame-combination output (the current cloud when it is
    off) and pseudo the points assigned to it (empty when assignment is off).
    """
    before = int((box_point_counts(current.boxes, current.lidar.points) == 0).sum())
    if combined is current.lidar:
        after_fc = before
    else:
        after_fc = int((box_point_counts(current.boxes, combined.points) == 0).sum())
    return PciReport(
        total_boxes=len(current.boxes),
        boxes_without_points_before=before,
        boxes_without_points_after_fc=after_fc,
        boxes_assigned_pseudo=len(pseudo),
        boxes_unrecoverable=after_fc - len(pseudo),
    )


def inject_pseudo_points(
    hard: HardLabels, pseudo: list[PseudoPoint], feature_stride: int
) -> HardLabels:
    """Write pseudo points into the hard labels as foreground one-hots.

    Cells already valid (from real points, or an earlier pseudo point in the
    list) are left untouched; measured data outranks approximation. Pseudo
    depths outside the bin range are skipped and logged.
    """
    h_f, w_f = hard.shape
    bins = hard.bins.copy()
    foreground = hard.foreground.copy()
    cfg = hard.bin_cfg
    for p in pseudo:
        col = int(p.u // feature_stride)
        row = int(p.v // feature_stride)
        if not (0 <= row < h_f and 0 <= col < w_f):
            raise ValueError(
                f"pseudo point ({p.u:.1f}, {p.v:.1f}) outside the "
                f"{h_f}x{w_f} feature grid at stride {feature_stride}"
            )
        b = cfg.bin_index(p.depth)
        if b is None:
            log.debug(
                "pseudo point for box %d skipped: depth %.2f outside [%s, %s)",
                p.source_box,
                p.depth,
                cfg.d_min,
                cfg.d_max,
            )
            continue
        if bins[row, col] >= 0:
            continue
        bins[row, col] = b
        foreground[row, col] = True
    return HardLabels(bins, foreground, cfg)
