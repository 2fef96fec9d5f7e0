"""Point cloud densification for sparse scenes.

Two strategies: frame combination pulls stationary-object returns from
temporally adjacent frames into the current frame, and pseudo point
assignment gives each still-empty, well-visible, in-range box a single
synthetic point at its 2D box center with the minimum projected-corner
depth. It and the report read per-box point counts, not clouds.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass

import numpy as np

from .geometry import Box3D, CameraModel, PointCloud, points_in_box
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
    and dynamic-object points from other frames never carry over. The moved
    clouds are joined in the given order and tested in one `points_in_box`
    pass; each point's test does not depend on the other points, so the
    result is that of one pass per frame. Output order: current points
    first, then kept points per adjacent frame in the given order.
    """
    stationary = [b for b in current.boxes if b.is_stationary]
    to_current = current.ego_pose.inverse()
    moved = [np.zeros((0, 3))]
    for frame in adjacent:
        if frame.tag == current.tag:
            raise ValueError(
                f"adjacent frame carries the current frame's tag {current.tag!r}"
            )
        moved.append(to_current.compose(frame.ego_pose).apply(frame.lidar.points))
    past = np.concatenate(moved)
    kept = past[points_in_box(stationary, past)]
    return PointCloud(np.concatenate([current.lidar.points, kept]), current.tag)


def pseudo_point_assignment(
    counts: np.ndarray,
    boxes: list[Box3D],
    rects: np.ndarray,
    near: np.ndarray,
    cam: CameraModel,
    depth_range: tuple[float, float],
) -> list[PseudoPoint]:
    """One synthetic point per box that stayed empty after combination.

    counts[i] is how many combined points lie in boxes[i], and rects[i] and
    near[i] its unclipped projected 2D box in cam and nearest front-corner
    depth (visible_corner_rects). A box qualifies when its count is zero,
    that depth lies within depth_range, its visibility is 3 or 4, and the
    center of its 2D box falls inside the image. The emitted point sits at
    that center with that depth. A length other than len(boxes) raises ValueError.
    """
    lo, hi = depth_range
    out = []
    rows = zip(boxes, counts, rects.tolist(), near.tolist(), strict=True)
    for i, (box, n, (x1, y1, x2, y2), d_corner) in enumerate(rows):
        if n or box.visibility not in VISIBILITY_GATE or not lo <= d_corner <= hi:
            continue
        u, v = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        if not cam.in_image(u, v):
            continue  # x1 <= u <= x2: drops boxes wholly off-image, and NaN (no front corner)
        out.append(PseudoPoint(u=u, v=v, depth=d_corner, source_box=i))
    return out


def pci_statistics(
    before: np.ndarray, after: np.ndarray, pseudo: list[PseudoPoint]
) -> PciReport:
    """Count how many current-frame boxes each densification stage rescued.

    before and after are each current box's point count in the current
    cloud and in the frame-combination output (the same counts when it is
    off); pseudo is the points assigned (empty when assignment is off).
    """
    if len(before) != len(after):
        raise ValueError(f"{len(before)} box counts before combination but {len(after)} after")
    after_fc = int((after == 0).sum())
    return PciReport(
        total_boxes=len(before),
        boxes_without_points_before=int((before == 0).sum()),
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
