"""Foreground-filtered lift-splat pooling into bird's-eye-view grids.

The frustum enumerates every (feature cell, depth bin) pair with its
back-projected ego-frame location at the bin-center depth. Pooling walks the
frustum in (row, col, bin) lexicographic order, keeps entries whose
segmentation clears the threshold, weights context features by
depth probability times segmentation, and sums them into BEV cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import bounded, check_fields
from .geometry import CameraModel
from .labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    merge_labels,
)

DEFAULT_SEG_THRESHOLD = 0.25


@dataclass(frozen=True)
class BevGridConfig:
    """Square detection region of half-extent range_xy split into grid cells.

    Cell (row, col) covers y in [-range_xy + row*cell_h, ...) and x in
    [-range_xy + col*cell_w, ...); points on the far edges fall outside.
    The z_range gate excludes points above or below the slab.
    """

    range_xy: float = bounded(51.2, gt=0)
    grid_h: int = bounded(128, ge=1)
    grid_w: int = bounded(128, ge=1)
    z_range: tuple[float, float] = (-5.0, 3.0)

    def __post_init__(self):
        check_fields(self)
        if self.z_range[1] <= self.z_range[0]:
            raise ValueError(f"empty z_range {self.z_range}")

    @property
    def cell_size(self) -> tuple[float, float]:
        return 2 * self.range_xy / self.grid_h, 2 * self.range_xy / self.grid_w

    def cells_for_points(self, points: np.ndarray):
        """(rows, cols, in_range) for (N, 3) ego points."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ch, cw = self.cell_size
        # A subnormal (or zero) cell size sends quotients past the int64 range; clipped
        # to one cell outside the grid, they cast exactly and stay out of range.
        with np.errstate(over="ignore", divide="ignore"):
            rows = np.floor((pts[:, 1] + self.range_xy) / ch)
            cols = np.floor((pts[:, 0] + self.range_xy) / cw)
        rows = np.clip(rows, -1, self.grid_h, out=rows).astype(np.int64)
        cols = np.clip(cols, -1, self.grid_w, out=cols).astype(np.int64)
        ok = (
            (rows >= 0)
            & (rows < self.grid_h)
            & (cols >= 0)
            & (cols < self.grid_w)
            & (pts[:, 2] >= self.z_range[0])
            & (pts[:, 2] <= self.z_range[1])
        )
        return rows, cols, ok


@dataclass(frozen=True)
class ContextFeatureMap:
    """Per-cell context feature vectors, shape (H_f, W_f, C)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"context map must be (H, W, C), got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("context features must be finite")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class BevFeatureGrid:
    """BEV feature grid, shape (grid_h, grid_w, C), tied to its grid config."""

    values: np.ndarray
    cfg: BevGridConfig

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[:2] != (self.cfg.grid_h, self.cfg.grid_w):
            raise ValueError(
                f"grid values {v.shape} inconsistent with config "
                f"{self.cfg.grid_h}x{self.cfg.grid_w}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("BEV features must be finite")
        object.__setattr__(self, "values", v)

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    def occupancy(self) -> np.ndarray:
        """Per-cell L2 norm across channels."""
        return np.linalg.norm(self.values, axis=2)


@dataclass(frozen=True)
class Frustum:
    """Flattened (cell, bin, ego point) table in (row, col, bin) lexicographic order."""

    rows: np.ndarray
    cols: np.ndarray
    bins: np.ndarray
    points: np.ndarray
    feature_shape: tuple[int, int]
    n_bins: int

    def __post_init__(self):
        n = len(self.rows)
        if not (len(self.cols) == len(self.bins) == self.points.shape[0] == n):
            raise ValueError("frustum arrays must share a length")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        for r, c, b, p in zip(self.rows, self.cols, self.bins, self.points):
            yield (int(r), int(c)), int(b), p


def build_frustum(cam: CameraModel, bin_cfg: DepthBinConfig, feature_stride: int) -> Frustum:
    """Back-project every (feature cell, depth bin) pair at its bin-center depth.

    Feature cell (r, c) uses the pixel at the cell center, ((c+0.5)*stride,
    (r+0.5)*stride), so projecting the ego point back into the camera
    recovers the source cell and bin.
    """
    h_f, w_f = cam.feature_grid_shape(feature_stride)
    n_bins = bin_cfg.n_bins
    r, c, b = np.meshgrid(
        np.arange(h_f), np.arange(w_f), np.arange(n_bins), indexing="ij"
    )
    rows, cols, bins = r.ravel(), c.ravel(), b.ravel()
    u = (cols + 0.5) * feature_stride
    v = (rows + 0.5) * feature_stride
    d = bin_cfg.bin_centers()[bins]
    x = (u - cam.cx) / cam.fx * d
    y = (v - cam.cy) / cam.fy * d
    points = cam.cam_to_ego.apply(np.stack([x, y, d], axis=1))
    return Frustum(rows, cols, bins, points, (h_f, w_f), n_bins)


def sa_bev_pool(
    ctx: ContextFeatureMap,
    depth: DepthDistributionMap,
    seg: SegmentationMap,
    frustum: Frustum,
    bev_cfg: BevGridConfig,
    seg_threshold: float = DEFAULT_SEG_THRESHOLD,
) -> BevFeatureGrid:
    """Splat foreground frustum entries into the BEV grid.

    An entry contributes depth(cell, bin) * seg(cell) * ctx(cell) to the BEV
    cell containing its ego point, but only when seg(cell) >= seg_threshold
    and the point lies inside the grid range; everything else is dropped.
    Accumulation is summation in frustum order.
    """
    h_f, w_f = frustum.feature_shape
    if ctx.shape[:2] != (h_f, w_f):
        raise ValueError(f"context shape {ctx.shape[:2]} != frustum cells {h_f}x{w_f}")
    if depth.shape != (h_f, w_f) or depth.values.shape[2] != frustum.n_bins:
        raise ValueError(
            f"depth map {depth.values.shape} inconsistent with frustum "
            f"{h_f}x{w_f}x{frustum.n_bins}"
        )
    if seg.shape != (h_f, w_f):
        raise ValueError(f"seg shape {seg.shape} != frustum cells {h_f}x{w_f}")

    channels = ctx.values.shape[2]
    out = np.zeros((bev_cfg.grid_h, bev_cfg.grid_w, channels))

    seg_at = seg.values[frustum.rows, frustum.cols]
    keep = seg_at >= seg_threshold
    if keep.any():
        rows = frustum.rows[keep]
        cols = frustum.cols[keep]
        bins = frustum.bins[keep]
        brow, bcol, ok = bev_cfg.cells_for_points(frustum.points[keep])
        if ok.any():
            rows, cols, bins = rows[ok], cols[ok], bins[ok]
            weight = depth.values[rows, cols, bins] * seg_at[keep][ok]
            contrib = weight[:, None] * ctx.values[rows, cols]
            flat = brow[ok] * bev_cfg.grid_w + bcol[ok]
            np.add.at(out.reshape(-1, channels), flat, contrib)
    return BevFeatureGrid(out, bev_cfg)


def teacher_bev(
    ctx: ContextFeatureMap,
    hard: HardLabels,
    soft_depth: DepthDistributionMap,
    soft_seg: SegmentationMap,
    frustum: Frustum,
    bev_cfg: BevGridConfig,
    seg_threshold: float = DEFAULT_SEG_THRESHOLD,
) -> BevFeatureGrid:
    """Merge hard labels over the soft ones, then pool the merged pair."""
    merged_depth, merged_seg = merge_labels(hard, soft_depth, soft_seg)
    return sa_bev_pool(ctx, merged_depth, merged_seg, frustum, bev_cfg, seg_threshold)
