"""Depth/segmentation label maps and their generation from LiDAR point clouds.

Hard labels are derived by projecting points into a camera and binning their
depths on a feature-cell grid: each cell stores its winning point's depth bin,
or -1 where no in-range point landed. Merging overlays hard labels onto soft
(predicted) labels wherever a cell is valid.
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
    """Per-cell categorical depth distribution, shape (H_f, W_f, n_bins); every cell sums to 1."""

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
        # NaN fails v >= 0, and +inf is the one entry that passes it but is not finite.
        if not (v >= 0).all():
            raise ValueError("depth distributions must be finite and nonnegative")
        # A row sums to inf when it holds an inf or its finite entries overflow.
        with np.errstate(over="ignore"):
            sums = v.sum(axis=2)
        ok = np.abs(sums - 1.0) <= NORMALIZATION_TOL
        if not ok.all():
            inf_rows = np.isinf(sums)
            if inf_rows.any() and np.isinf(v[inf_rows]).any():
                raise ValueError("depth distributions must be finite and nonnegative")
            bad = tuple(np.argwhere(~ok)[0].tolist())
            raise ValueError(f"cell {bad} sums to {sums[bad]:.6g}; expected 1")
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
    """LiDAR-derived labels: each feature cell's depth bin and foreground flag.

    `bins` is an (H_f, W_f) integer array holding -1 at cells no in-range
    point reached; `foreground` is a bool array that is set only at valid cells.
    """

    bins: np.ndarray
    foreground: np.ndarray
    bin_cfg: DepthBinConfig

    def __post_init__(self):
        bins = np.asarray(self.bins)
        fg = np.asarray(self.foreground, dtype=bool)
        if bins.ndim != 2 or fg.shape != bins.shape:
            raise ValueError(
                f"bins {bins.shape} and foreground {fg.shape} must be equal 2-D shapes"
            )
        if bins.dtype.kind not in "iu" or ((bins < -1) | (bins >= self.bin_cfg.n_bins)).any():
            raise ValueError(f"bins must be integers in [-1, {self.bin_cfg.n_bins})")
        if (fg & (bins < 0)).any():
            raise ValueError("foreground cells must be valid (bins >= 0)")
        object.__setattr__(self, "bins", bins.astype(np.int64, copy=False))
        object.__setattr__(self, "foreground", fg)

    @property
    def shape(self) -> tuple[int, int]:
        return self.bins.shape

    @property
    def valid_mask(self) -> np.ndarray:
        return self.bins >= 0

    def depth_meters(self) -> np.ndarray:
        """Per-cell metric depth (the bin's center), 0 at invalid cells."""
        return np.where(self.valid_mask, self.bin_cfg.bin_centers()[self.bins], 0.0)

    def one_hot(self) -> np.ndarray:
        """The dense (H_f, W_f, n_bins) one-hot depth, all-zero at invalid cells."""
        out = np.zeros((*self.shape, self.bin_cfg.n_bins))
        valid = self.valid_mask
        out[valid, self.bins[valid]] = 1.0
        return out


def generate_hard_labels(
    points: PointCloud,
    boxes: list[Box3D],
    cam: CameraModel,
    bin_cfg: DepthBinConfig,
    feature_stride: int,
) -> HardLabels:
    """Project a point cloud into the camera and rasterize hard labels.

    Each in-range projected point lands in its feature cell (pixel // stride),
    and the cell stores its winning point's depth bin. When several points
    share a cell the minimum depth wins, with a coordinate tie-break so the
    result is independent of input order. A cell is foreground iff its
    winning point lies inside any of the boxes. Out-of-range depths are
    skipped, leaving cells invalid.
    """
    h_f, w_f = cam.feature_grid_shape(feature_stride)
    pts = points.points
    uv, z = project_points_unbounded(cam, pts)
    bins, in_range = bin_cfg.bin_indices(z)
    keep = cam.in_image(uv[:, 0], uv[:, 1]) & in_range
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
    cell_bins = np.full((h_f, w_f), -1, dtype=np.int64)
    cell_bins[win_rows, win_cols] = bins[keep][winners]
    foreground = np.zeros((h_f, w_f), dtype=bool)
    foreground[win_rows, win_cols] = points_in_box(boxes, src[winners])
    return HardLabels(cell_bins, foreground, bin_cfg)


def merge_labels(
    hard: HardLabels,
    soft_depth: DepthDistributionMap,
    soft_seg: SegmentationMap,
) -> tuple[DepthDistributionMap, SegmentationMap]:
    """Overlay hard labels onto soft labels wherever the valid mask is set.

    A valid cell takes its bin's one-hot depth and its foreground flag as
    seg; every other cell keeps the soft labels.
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
    merged_depth = soft_depth.values.copy()
    merged_depth[m] = 0.0
    merged_depth[m, hard.bins[m]] = 1.0
    merged_seg = np.where(m, hard.foreground, soft_seg.values)
    return (
        DepthDistributionMap(merged_depth, hard.bin_cfg),
        SegmentationMap(merged_seg),
    )
