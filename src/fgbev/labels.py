"""Depth/segmentation label maps and their generation from LiDAR point clouds.

Hard labels are derived by projecting points into a camera and binning their
depths on a feature-cell grid; the valid mask marks cells that received at
least one in-range point. Merging overlays hard labels onto soft (predicted)
labels wherever the mask is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_ARRAY_ELEMENTS, bounded, check_fields
from .geometry import (
    Box3D,
    CameraModel,
    PointCloud,
    points_in_box,
    project_points_unbounded,
)

NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class DepthBinConfig:
    """Uniform discretization of the depth axis into half-open bins.

    Bin i covers [d_min + i*bin_size, d_min + (i+1)*bin_size); depths equal
    to d_max fall outside the grid.
    """

    d_min: float = bounded(1.0, gt=0)
    d_max: float = 60.0
    bin_size: float = bounded(0.5, gt=0)

    def __post_init__(self):
        check_fields(self)
        if self.d_max <= self.d_min:
            raise ValueError(f"d_max ({self.d_max}) must exceed d_min ({self.d_min})")
        # Checked before n_bins takes the ceil, which overflows on an infinite quotient.
        if not (self.d_max - self.d_min) / self.bin_size <= MAX_ARRAY_ELEMENTS:
            raise ValueError(f"bin_size {self.bin_size} gives over {MAX_ARRAY_ELEMENTS} bins")
        if self.n_bins < 2:
            raise ValueError("d_min, d_max and bin_size give 1 depth bin; need at least 2")

    @property
    def n_bins(self) -> int:
        return math.ceil((self.d_max - self.d_min) / self.bin_size)

    def bin_centers(self) -> np.ndarray:
        return self.d_min + (np.arange(self.n_bins) + 0.5) * self.bin_size

    def bin_indices(self, depths: np.ndarray):
        """(indices, in_range) for an array of depths; indices are valid only where in_range."""
        d = np.asarray(depths, dtype=np.float64)
        in_range = (d >= self.d_min) & (d < self.d_max)
        # Clipped before the cast: a tiny bin_size sends quotients past the int64 range.
        with np.errstate(over="ignore"):
            idx = np.clip(np.floor((d - self.d_min) / self.bin_size), 0, self.n_bins - 1)
        return idx.astype(np.int64), in_range

    def bin_index(self, depth: float) -> int | None:
        idx, ok = self.bin_indices(np.array([depth]))
        return int(idx[0]) if ok[0] else None


@dataclass(frozen=True)
class DepthDistributionMap:
    """Per-cell categorical depth distribution, shape (H_f, W_f, n_bins).

    Every cell either sums to 1 (a normalized distribution) or is all-zero;
    all-zero rows only occur inside HardLabels at invalid cells.
    """

    values: np.ndarray
    bin_cfg: DepthBinConfig

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"depth map must be (H, W, n_bins), got shape {v.shape}")
        if v.shape[2] != self.bin_cfg.n_bins:
            raise ValueError(
                f"depth map has {v.shape[2]} bins but config defines {self.bin_cfg.n_bins}"
            )
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("depth distributions must be finite and nonnegative")
        sums = v.sum(axis=2)
        ok = (np.abs(sums - 1.0) <= NORMALIZATION_TOL) | (sums == 0.0)
        if not ok.all():
            bad = np.argwhere(~ok)[0]
            raise ValueError(
                f"cell {tuple(bad)} sums to {sums[tuple(bad)]:.6g}; expected 1 or all-zero"
            )
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[:2]


@dataclass(frozen=True)
class SegmentationMap:
    """Per-cell foreground probability in [0, 1], shape (H_f, W_f)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"segmentation map must be 2-D, got shape {v.shape}")
        if np.any(v < 0) or np.any(v > 1) or not np.all(np.isfinite(v)):
            raise ValueError("segmentation values must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class HardLabels:
    """LiDAR-derived labels: one-hot depth, binary segmentation, validity mask."""

    depth: DepthDistributionMap
    seg: SegmentationMap
    valid_mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.valid_mask, dtype=bool)
        if mask.shape != self.depth.shape or mask.shape != self.seg.shape:
            raise ValueError(
                f"shape mismatch: depth {self.depth.shape}, seg {self.seg.shape}, "
                f"mask {mask.shape}"
            )
        dv, sv = self.depth.values, self.seg.values
        if not np.isin(dv[mask], (0.0, 1.0)).all() or not np.allclose(
            dv[mask].sum(axis=-1), 1.0
        ):
            raise ValueError("valid cells must carry exactly one-hot depth")
        if not np.isin(sv[mask], (0.0, 1.0)).all():
            raise ValueError("valid cells must carry binary segmentation")
        if dv[~mask].any() or sv[~mask].any():
            raise ValueError("invalid cells must be all-zero")
        object.__setattr__(self, "valid_mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.seg.shape

    def depth_meters(self) -> np.ndarray:
        """Per-cell metric depth (bin center of the one-hot), 0 at invalid cells."""
        out = np.zeros(self.shape)
        if self.valid_mask.any():
            bins = self.depth.values[self.valid_mask].argmax(axis=-1)
            out[self.valid_mask] = self.bin_cfg.bin_centers()[bins]
        return out

    @property
    def bin_cfg(self) -> DepthBinConfig:
        return self.depth.bin_cfg


def generate_hard_labels(
    points: PointCloud,
    boxes: list[Box3D],
    cam: CameraModel,
    bin_cfg: DepthBinConfig,
    feature_stride: int,
) -> HardLabels:
    """Project a point cloud into the camera and rasterize hard labels.

    Each in-range projected point contributes a one-hot depth at its feature
    cell (pixel // stride); when several points share a cell the minimum
    depth wins, with a coordinate tie-break so the result is independent of
    input order. A cell is foreground iff its winning point lies inside any
    of the boxes. Out-of-range depths are skipped, leaving cells invalid.
    """
    h_f, w_f = cam.feature_grid_shape(feature_stride)
    n_bins = bin_cfg.n_bins

    depth_vals = np.zeros((h_f, w_f, n_bins))
    seg_vals = np.zeros((h_f, w_f))
    valid = np.zeros((h_f, w_f), dtype=bool)
    pts = points.points
    if len(pts):
        uv, z = project_points_unbounded(cam, pts)
        bins, in_range = bin_cfg.bin_indices(z)
        keep = cam.in_image(uv[:, 0], uv[:, 1]) & in_range
        if keep.any():
            u, v, z = uv[keep, 0], uv[keep, 1], z[keep]
            src = pts[keep]
            rows = np.floor(v / feature_stride).astype(np.int64)
            cols = np.floor(u / feature_stride).astype(np.int64)
            cells = rows * w_f + cols
            # Winner per cell: minimum depth, ties broken on point coordinates
            # so permutations of the input cannot change the outcome.
            order = np.lexsort((src[:, 2], src[:, 1], src[:, 0], z, cells))
            cells_sorted = cells[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = cells_sorted[1:] != cells_sorted[:-1]
            winners = order[first]

            win_rows, win_cols = rows[winners], cols[winners]
            win_bins = bins[keep][winners]
            depth_vals[win_rows, win_cols, win_bins] = 1.0
            valid[win_rows, win_cols] = True
            seg_vals[win_rows, win_cols] = points_in_box(boxes, src[winners])

    return HardLabels(
        depth=DepthDistributionMap(depth_vals, bin_cfg),
        seg=SegmentationMap(seg_vals),
        valid_mask=valid,
    )


def merge_labels(
    hard: HardLabels,
    soft_depth: DepthDistributionMap,
    soft_seg: SegmentationMap,
) -> tuple[DepthDistributionMap, SegmentationMap]:
    """Overlay hard labels onto soft labels wherever the valid mask is set.

    With a binary mask the convex mix m*hard + (1-m)*soft reduces to exact
    per-cell selection, which is how it is computed here.
    """
    if hard.shape != soft_depth.shape or hard.shape != soft_seg.shape:
        raise ValueError(
            f"shape mismatch: hard {hard.shape}, soft depth {soft_depth.shape}, "
            f"soft seg {soft_seg.shape}"
        )
    if hard.bin_cfg != soft_depth.bin_cfg:
        raise ValueError(
            f"bin config mismatch: hard {hard.bin_cfg} vs soft {soft_depth.bin_cfg}"
        )
    m = hard.valid_mask
    merged_depth = np.where(m[:, :, None], hard.depth.values, soft_depth.values)
    merged_seg = np.where(m, hard.seg.values, soft_seg.values)
    return (
        DepthDistributionMap(merged_depth, hard.bin_cfg),
        SegmentationMap(merged_seg),
    )
